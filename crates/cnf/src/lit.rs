//! Variables and literals.
//!
//! Internally a [`Lit`] packs a variable index and a sign into one `u32`
//! (`code = var_index << 1 | negated`), the classic MiniSat encoding. This
//! makes literals cheap to copy, hash and use as array indices.

use std::fmt;
use std::num::NonZeroI32;

/// A propositional variable, identified by a zero-based index.
///
/// # Examples
///
/// ```
/// use cnf::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_dimacs(), 4); // DIMACS variables are one-based
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Largest representable variable index.
    pub const MAX_INDEX: u32 = (u32::MAX >> 1) - 1;

    /// Creates a variable from its zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`Var::MAX_INDEX`].
    #[inline]
    pub fn new(index: u32) -> Self {
        assert!(index <= Self::MAX_INDEX, "variable index out of range");
        Var(index)
    }

    /// Zero-based index of this variable.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }

    /// One-based DIMACS name of this variable.
    #[inline]
    pub fn to_dimacs(self) -> i32 {
        self.0 as i32 + 1
    }

    /// Creates a variable from a one-based DIMACS name.
    ///
    /// # Panics
    ///
    /// Panics if `dimacs < 1`.
    #[inline]
    pub fn from_dimacs(dimacs: i32) -> Self {
        assert!(dimacs >= 1, "DIMACS variable names are positive");
        Var::new(dimacs as u32 - 1)
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, false)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, true)
    }

    /// The literal of this variable with the given sign.
    ///
    /// `negated == false` yields the positive literal.
    #[inline]
    pub fn lit(self, negated: bool) -> Lit {
        Lit::new(self, negated)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var({})", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.to_dimacs())
    }
}

/// A literal: a variable or its negation.
///
/// # Examples
///
/// ```
/// use cnf::{Lit, Var};
/// let x = Var::new(0);
/// let a = x.positive();
/// assert_eq!(!a, x.negative());
/// assert_eq!(a.var(), x);
/// assert!(!a.is_negated());
/// assert_eq!(Lit::from_dimacs(-1), x.negative());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal over `var`, negated when `negated` is true.
    #[inline]
    pub fn new(var: Var, negated: bool) -> Self {
        Lit(var.0 << 1 | negated as u32)
    }

    /// Reconstructs a literal from its packed [`code`](Lit::code).
    #[inline]
    pub fn from_code(code: u32) -> Self {
        Lit(code)
    }

    /// The packed code (`var_index << 1 | negated`), usable as a dense index.
    #[inline]
    pub fn code(self) -> u32 {
        self.0
    }

    /// The variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the negative literal of its variable.
    #[inline]
    pub fn is_negated(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether this is the positive literal of its variable.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Converts to the signed one-based DIMACS convention.
    #[inline]
    pub fn to_dimacs(self) -> i32 {
        let v = self.var().to_dimacs();
        if self.is_negated() {
            -v
        } else {
            v
        }
    }

    /// Creates a literal from the signed one-based DIMACS convention.
    ///
    /// # Panics
    ///
    /// Panics if `dimacs == 0`.
    #[inline]
    pub fn from_dimacs(dimacs: i32) -> Self {
        assert!(
            dimacs != 0,
            "0 is the DIMACS clause terminator, not a literal"
        );
        Lit::new(Var::from_dimacs(dimacs.abs()), dimacs < 0)
    }

    /// The polarity this literal requires its variable to take to be true.
    #[inline]
    pub fn polarity(self) -> bool {
        self.is_positive()
    }

    /// Evaluates the literal under an assignment of its variable.
    #[inline]
    pub fn eval(self, var_value: bool) -> bool {
        var_value != self.is_negated()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl From<NonZeroI32> for Lit {
    fn from(value: NonZeroI32) -> Self {
        Lit::from_dimacs(value.get())
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lit({})", self.to_dimacs())
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "¬x{}", self.var().to_dimacs())
        } else {
            write!(f, "x{}", self.var().to_dimacs())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_roundtrips_dimacs() {
        for d in 1..100 {
            assert_eq!(Var::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    fn lit_roundtrips_dimacs() {
        for d in (-50..50).filter(|&d| d != 0) {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    fn negation_flips_sign_only() {
        let l = Lit::from_dimacs(7);
        assert_eq!((!l).to_dimacs(), -7);
        assert_eq!(!!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn code_is_dense() {
        let v = Var::new(5);
        assert_eq!(v.positive().code(), 10);
        assert_eq!(v.negative().code(), 11);
        assert_eq!(Lit::from_code(11), v.negative());
    }

    #[test]
    fn eval_respects_polarity() {
        let v = Var::new(0);
        assert!(v.positive().eval(true));
        assert!(!v.positive().eval(false));
        assert!(v.negative().eval(false));
        assert!(!v.negative().eval(true));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_dimacs_rejects_zero_var() {
        let _ = Var::from_dimacs(0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Lit::from_dimacs(3).to_string(), "x3");
        assert_eq!(Lit::from_dimacs(-3).to_string(), "¬x3");
        assert_eq!(Var::new(2).to_string(), "x3");
    }
}
