//! Clauses: disjunctions of literals.

use crate::Lit;
use std::fmt;

/// A clause — a disjunction of literals.
///
/// A `Clause` is a thin, owned wrapper over a literal vector that adds
/// clause-level queries ([`is_tautology`](Clause::is_tautology),
/// [`normalize`](Clause::normalize), evaluation).
///
/// # Examples
///
/// ```
/// use cnf::{Clause, Lit};
/// let c: Clause = [1, -2, 3].iter().copied().map(Lit::from_dimacs).collect();
/// assert_eq!(c.len(), 3);
/// assert!(!c.is_tautology());
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates an empty clause (which is unsatisfiable).
    pub fn new() -> Self {
        Clause { lits: Vec::new() }
    }

    /// Creates a clause from the given literals.
    pub fn from_lits(lits: impl Into<Vec<Lit>>) -> Self {
        Clause { lits: lits.into() }
    }

    /// Creates a clause from signed DIMACS integers.
    ///
    /// # Panics
    ///
    /// Panics if any integer is `0`.
    pub fn from_dimacs(lits: &[i32]) -> Self {
        Clause {
            lits: lits.iter().map(|&d| Lit::from_dimacs(d)).collect(),
        }
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Whether the clause has no literals (the trivially false clause).
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The literals of this clause.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Mutable access to the literals.
    pub fn lits_mut(&mut self) -> &mut Vec<Lit> {
        &mut self.lits
    }

    /// Appends a literal.
    pub fn push(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// Whether the clause contains the literal.
    pub fn contains(&self, lit: Lit) -> bool {
        self.lits.contains(&lit)
    }

    /// Whether the clause contains both a literal and its negation
    /// (and is therefore always satisfied).
    ///
    /// ```
    /// use cnf::Clause;
    /// assert!(Clause::from_dimacs(&[1, -1, 2]).is_tautology());
    /// assert!(!Clause::from_dimacs(&[1, 2]).is_tautology());
    /// ```
    pub fn is_tautology(&self) -> bool {
        // Clauses are short; quadratic scan avoids allocation.
        if self.lits.len() > 16 {
            let mut sorted = self.lits.clone();
            sorted.sort_unstable();
            return sorted.windows(2).any(|w| w[0] == !w[1]);
        }
        self.lits
            .iter()
            .enumerate()
            .any(|(i, &a)| self.lits[i + 1..].contains(&!a))
    }

    /// Sorts literals, removes duplicates, and reports whether the clause is
    /// a tautology (in which case its content is unspecified and it should
    /// be discarded).
    pub fn normalize(&mut self) -> bool {
        self.lits.sort_unstable();
        self.lits.dedup();
        self.lits.windows(2).any(|w| w[0] == !w[1])
    }

    /// Evaluates the clause under a total or partial assignment.
    ///
    /// `value_of` maps a variable index to `Some(bool)` when assigned.
    /// Returns `Some(true)` if any literal is satisfied, `Some(false)` if
    /// all literals are falsified, and `None` otherwise (undetermined).
    pub fn eval_partial(&self, mut value_of: impl FnMut(u32) -> Option<bool>) -> Option<bool> {
        let mut all_false = true;
        for &l in &self.lits {
            match value_of(l.var().index()) {
                Some(v) if l.eval(v) => return Some(true),
                Some(_) => {}
                None => all_false = false,
            }
        }
        if all_false {
            Some(false)
        } else {
            None
        }
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Clause {
            lits: iter.into_iter().collect(),
        }
    }
}

impl Extend<Lit> for Clause {
    fn extend<I: IntoIterator<Item = Lit>>(&mut self, iter: I) {
        self.lits.extend(iter);
    }
}

impl From<Vec<Lit>> for Clause {
    fn from(lits: Vec<Lit>) -> Self {
        Clause { lits }
    }
}

impl AsRef<[Lit]> for Clause {
    fn as_ref(&self) -> &[Lit] {
        &self.lits
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl std::ops::Index<usize> for Clause {
    type Output = Lit;

    fn index(&self, i: usize) -> &Lit {
        &self.lits[i]
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lits.iter()).finish()
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lits.is_empty() {
            return write!(f, "⊥");
        }
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tautology_detection() {
        assert!(Clause::from_dimacs(&[1, -1]).is_tautology());
        assert!(Clause::from_dimacs(&[2, 3, -2]).is_tautology());
        assert!(!Clause::from_dimacs(&[1, 2, 3]).is_tautology());
        assert!(!Clause::new().is_tautology());
        // long clause path
        let mut lits: Vec<i32> = (1..=20).collect();
        lits.push(-10);
        assert!(Clause::from_dimacs(&lits).is_tautology());
    }

    #[test]
    fn normalize_dedups_and_sorts() {
        let mut c = Clause::from_dimacs(&[3, 1, 3, -2]);
        let taut = c.normalize();
        assert!(!taut);
        assert_eq!(c.len(), 3);
        let mut t = Clause::from_dimacs(&[1, -1]);
        assert!(t.normalize());
    }

    #[test]
    fn eval_partial_cases() {
        let c = Clause::from_dimacs(&[1, -2]);
        // x1=T satisfies
        assert_eq!(c.eval_partial(|v| (v == 0).then_some(true)), Some(true));
        // x1=F, x2=T falsifies
        assert_eq!(c.eval_partial(|v| Some(v == 1)), Some(false));
        // x1=F, x2 unassigned: undetermined
        assert_eq!(c.eval_partial(|v| (v == 0).then_some(false)), None);
        // empty clause is false
        assert_eq!(Clause::new().eval_partial(|_| None), Some(false));
    }

    #[test]
    fn display_empty_clause() {
        assert_eq!(Clause::new().to_string(), "⊥");
        assert_eq!(Clause::from_dimacs(&[1, -2]).to_string(), "x1 ∨ ¬x2");
    }
}
