//! CNF formulas: conjunctions of clauses.

use crate::{Clause, Var};
use std::fmt;

/// A formula in conjunctive normal form.
///
/// Tracks the number of variables explicitly so that formulas with unused
/// trailing variables (common in DIMACS files) round-trip faithfully.
///
/// # Examples
///
/// ```
/// use cnf::{Cnf, Clause};
/// let mut f = Cnf::new(3);
/// f.add_clause(Clause::from_dimacs(&[1, 2]));
/// f.add_clause(Clause::from_dimacs(&[-2, 3]));
/// assert_eq!(f.num_vars(), 3);
/// assert_eq!(f.num_clauses(), 2);
/// assert_eq!(f.eval(&[true, false, true]), Some(true));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    num_vars: u32,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// Creates an empty formula over `num_vars` variables.
    ///
    /// An empty formula (no clauses) is trivially satisfiable.
    pub fn new(num_vars: u32) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of variables (the DIMACS header count).
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_lits(&self) -> usize {
        self.clauses.iter().map(Clause::len).sum()
    }

    /// The clauses of this formula.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Adds a clause, growing the variable count if the clause mentions a
    /// variable beyond the current range.
    pub fn add_clause(&mut self, clause: Clause) {
        for &l in clause.lits() {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.clauses.push(clause);
    }

    /// Adds a clause given as signed DIMACS integers.
    ///
    /// # Panics
    ///
    /// Panics if any integer is `0`.
    pub fn add_dimacs(&mut self, lits: &[i32]) {
        self.add_clause(Clause::from_dimacs(lits));
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Evaluates the formula under a total assignment
    /// (`assignment[v]` is the value of variable index `v`).
    ///
    /// Returns `None` if the assignment does not cover all variables
    /// mentioned by the clauses and the truth value is undetermined.
    pub fn eval(&self, assignment: &[bool]) -> Option<bool> {
        self.eval_partial(|v| assignment.get(v as usize).copied())
    }

    /// Evaluates under a partial assignment; see [`Clause::eval_partial`].
    pub fn eval_partial(&self, mut value_of: impl FnMut(u32) -> Option<bool>) -> Option<bool> {
        let mut undetermined = false;
        for c in &self.clauses {
            match c.eval_partial(&mut value_of) {
                Some(false) => return Some(false),
                None => undetermined = true,
                Some(true) => {}
            }
        }
        if undetermined {
            None
        } else {
            Some(true)
        }
    }

    /// Removes tautological clauses and normalizes the rest
    /// (sorted, deduplicated literals). Returns the number of clauses removed.
    pub fn simplify_trivial(&mut self) -> usize {
        let before = self.clauses.len();
        self.clauses.retain_mut(|c| !c.normalize());
        before - self.clauses.len()
    }

    /// Summary statistics used for dataset tables and graph sizing.
    pub fn stats(&self) -> CnfStats {
        let mut lens = [0usize; 4]; // unit, binary, ternary, longer
        for c in &self.clauses {
            match c.len() {
                0 | 1 => lens[0] += 1,
                2 => lens[1] += 1,
                3 => lens[2] += 1,
                _ => lens[3] += 1,
            }
        }
        CnfStats {
            num_vars: self.num_vars,
            num_clauses: self.clauses.len(),
            num_lits: self.num_lits(),
            unit_clauses: lens[0],
            binary_clauses: lens[1],
            ternary_clauses: lens[2],
            long_clauses: lens[3],
        }
    }

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }

    /// Appends all clauses of `other` (logical conjunction over a shared
    /// variable namespace).
    ///
    /// # Examples
    ///
    /// ```
    /// use cnf::Cnf;
    /// let mut a = Cnf::new(2);
    /// a.add_dimacs(&[1, 2]);
    /// let mut b = Cnf::new(3);
    /// b.add_dimacs(&[-3]);
    /// a.conjoin(&b);
    /// assert_eq!(a.num_vars(), 3);
    /// assert_eq!(a.num_clauses(), 2);
    /// ```
    pub fn conjoin(&mut self, other: &Cnf) {
        self.num_vars = self.num_vars.max(other.num_vars);
        self.clauses.extend(other.clauses.iter().cloned());
    }

    /// Renumbers variables densely, dropping unused ones. Returns the
    /// compacted formula and the mapping `old index → new index`
    /// (`None` for variables that occur in no clause).
    ///
    /// Useful after preprocessing eliminates variables: solvers size their
    /// internal arrays by `num_vars`, so gaps waste memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use cnf::Cnf;
    /// let mut f = Cnf::new(10);
    /// f.add_dimacs(&[3, -7]);
    /// let (g, map) = f.compact();
    /// assert_eq!(g.num_vars(), 2);
    /// assert_eq!(map[2], Some(0)); // old x3 → new x1
    /// assert_eq!(map[6], Some(1)); // old x7 → new x2
    /// assert_eq!(map[0], None);
    /// ```
    pub fn compact(&self) -> (Cnf, Vec<Option<u32>>) {
        let mut map: Vec<Option<u32>> = vec![None; self.num_vars as usize];
        let mut next = 0u32;
        for c in &self.clauses {
            for &l in c.lits() {
                let slot = &mut map[l.var().index() as usize];
                if slot.is_none() {
                    *slot = Some(next);
                    next += 1;
                }
            }
        }
        let mut out = Cnf::new(next);
        for c in &self.clauses {
            out.clauses.push(
                c.lits()
                    .iter()
                    .map(|l| {
                        let new = map[l.var().index() as usize].expect("occurring var mapped");
                        Var::new(new).lit(l.is_negated())
                    })
                    .collect(),
            );
        }
        (out, map)
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        let mut f = Cnf::new(0);
        for c in iter {
            f.add_clause(c);
        }
        f
    }
}

impl Extend<Clause> for Cnf {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        for c in iter {
            self.add_clause(c);
        }
    }
}

impl<'a> IntoIterator for &'a Cnf {
    type Item = &'a Clause;
    type IntoIter = std::slice::Iter<'a, Clause>;

    fn into_iter(self) -> Self::IntoIter {
        self.clauses.iter()
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cnf({} vars, {} clauses)",
            self.num_vars,
            self.clauses.len()
        )
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "⊤");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

/// Size statistics of a [`Cnf`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CnfStats {
    /// Number of variables.
    pub num_vars: u32,
    /// Number of clauses.
    pub num_clauses: usize,
    /// Total literal occurrences.
    pub num_lits: usize,
    /// Clauses with at most one literal.
    pub unit_clauses: usize,
    /// Clauses with exactly two literals.
    pub binary_clauses: usize,
    /// Clauses with exactly three literals.
    pub ternary_clauses: usize,
    /// Clauses with more than three literals.
    pub long_clauses: usize,
}

impl CnfStats {
    /// Nodes in the bipartite variable–clause graph (`|V1| + |V2|`).
    pub fn graph_nodes(&self) -> usize {
        self.num_vars as usize + self.num_clauses
    }
}

/// Checks that `assignment` satisfies `formula`, returning the index of the
/// first falsified or undetermined clause on failure.
///
/// This is the model validation used by tests and the solver's debug
/// assertions.
///
/// # Examples
///
/// ```
/// use cnf::{verify_model, Cnf};
/// let mut f = Cnf::new(2);
/// f.add_dimacs(&[1, 2]);
/// assert_eq!(verify_model(&f, &[false, true]), Ok(()));
/// assert_eq!(verify_model(&f, &[false, false]), Err(0));
/// ```
pub fn verify_model(formula: &Cnf, assignment: &[bool]) -> Result<(), usize> {
    for (i, c) in formula.clauses().iter().enumerate() {
        if c.eval_partial(|v| assignment.get(v as usize).copied()) != Some(true) {
            return Err(i);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Cnf {
        // (x1 ∨ x2) ∧ (¬x2 ∨ x3), satisfiable: T,F,T
        let mut f = Cnf::new(3);
        f.add_dimacs(&[1, 2]);
        f.add_dimacs(&[-2, 3]);
        f
    }

    #[test]
    fn eval_paper_example() {
        let f = example();
        assert_eq!(f.eval(&[true, false, true]), Some(true));
        assert_eq!(f.eval(&[false, false, false]), Some(false));
    }

    #[test]
    fn add_clause_grows_vars() {
        let mut f = Cnf::new(0);
        f.add_dimacs(&[5, -9]);
        assert_eq!(f.num_vars(), 9);
    }

    #[test]
    fn empty_formula_is_true() {
        assert_eq!(Cnf::new(4).eval(&[]), Some(true));
        assert_eq!(Cnf::new(0).to_string(), "⊤");
    }

    #[test]
    fn partial_eval_undetermined() {
        let f = example();
        assert_eq!(f.eval_partial(|_| None), None);
    }

    #[test]
    fn simplify_removes_tautologies() {
        let mut f = Cnf::new(2);
        f.add_dimacs(&[1, -1]);
        f.add_dimacs(&[1, 2, 1]);
        assert_eq!(f.simplify_trivial(), 1);
        assert_eq!(f.num_clauses(), 1);
        assert_eq!(f.clauses()[0].len(), 2); // dedup applied
    }

    #[test]
    fn stats_counts_by_length() {
        let mut f = Cnf::new(4);
        f.add_dimacs(&[1]);
        f.add_dimacs(&[1, 2]);
        f.add_dimacs(&[1, 2, 3]);
        f.add_dimacs(&[1, 2, 3, 4]);
        let s = f.stats();
        assert_eq!(
            (
                s.unit_clauses,
                s.binary_clauses,
                s.ternary_clauses,
                s.long_clauses
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(s.num_lits, 10);
        assert_eq!(s.graph_nodes(), 8);
    }

    #[test]
    fn verify_model_reports_first_bad_clause() {
        let f = example();
        assert_eq!(verify_model(&f, &[false, true, false]), Err(1));
        assert!(verify_model(&f, &[true, true, true]).is_ok());
        // missing assignment is a failure
        assert_eq!(verify_model(&f, &[true]), Err(1));
    }

    #[test]
    fn conjoin_is_logical_and() {
        let mut a = Cnf::new(2);
        a.add_dimacs(&[1, 2]);
        let mut b = Cnf::new(2);
        b.add_dimacs(&[-1]);
        a.conjoin(&b);
        assert_eq!(a.eval(&[true, false]), Some(false)); // violates ¬x1
        assert_eq!(a.eval(&[false, true]), Some(true));
    }

    #[test]
    fn compact_preserves_semantics_modulo_renaming() {
        let mut f = Cnf::new(8);
        f.add_dimacs(&[2, -5]);
        f.add_dimacs(&[5, 8]);
        let (g, map) = f.compact();
        assert_eq!(g.num_vars(), 3);
        // build the corresponding assignment and compare evaluations
        let assignment_old = [false, true, false, false, false, false, false, true];
        let mut assignment_new = vec![false; 3];
        for (old, new) in map.iter().enumerate() {
            if let Some(n) = new {
                assignment_new[*n as usize] = assignment_old[old];
            }
        }
        assert_eq!(f.eval(&assignment_old), g.eval(&assignment_new));
    }

    #[test]
    fn compact_of_empty_formula() {
        let f = Cnf::new(5);
        let (g, map) = f.compact();
        assert_eq!(g.num_vars(), 0);
        assert!(map.iter().all(Option::is_none));
    }

    #[test]
    fn new_var_is_fresh() {
        let mut f = example();
        let v = f.new_var();
        assert_eq!(v.index(), 3);
        assert_eq!(f.num_vars(), 4);
    }
}
