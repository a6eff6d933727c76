//! Bounds-audited typed containers for per-variable and per-literal state.
//!
//! The repo's `xtask lint` pass forbids raw slice indexing in the solver's
//! hot-path modules (`solver.rs`, `clause_db.rs`, `heap.rs`):
//! every access to variable- or literal-keyed state must flow through this
//! module instead. Each accessor carries a `debug_assert!` bounds check and
//! the few raw indexing expressions below are individually annotated — they
//! are the audited boundary, kept small enough to review at a glance.
//!
//! In release builds the accessors compile to exactly the slice indexing
//! they replace (one bounds check, no extra branches), so the hot path pays
//! nothing for the discipline.

use cnf::{Lit, Var};

/// Reads `xs[i]` with an audited bounds check, for `Copy` elements.
///
/// The single raw-indexing site below is the shared escape hatch for
/// positional access (trail positions, heap slots) where the index is not a
/// [`Var`] or [`Lit`] key.
#[inline]
pub(crate) fn at<T: Copy>(xs: &[T], i: usize) -> T {
    debug_assert!(i < xs.len(), "index {i} out of bounds (len {})", xs.len());
    xs[i] // xtask: allow(no-index) audited positional access
}

/// Dense map from [`Var`] to `T`, the solver's per-variable state vector.
///
/// Replaces the `Vec<T>` + `v.index() as usize` idiom: the key type makes
/// accidental literal/variable index mix-ups unrepresentable and
/// concentrates the bounds discipline in one audited module.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarMap<T> {
    data: Vec<T>,
}

impl<T> VarMap<T> {
    /// A map over variables `0..num_vars`, every entry set to `fill`.
    pub fn new(num_vars: u32, fill: T) -> Self
    where
        T: Clone,
    {
        VarMap {
            data: vec![fill; num_vars as usize],
        }
    }

    /// Wraps an existing dense vector keyed by variable index.
    #[cfg(test)]
    pub fn from_vec(data: Vec<T>) -> Self {
        VarMap { data }
    }

    /// Number of variables covered.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// The value at `v` (for `Copy` payloads).
    #[inline]
    pub fn get(&self, v: Var) -> T
    where
        T: Copy,
    {
        let i = v.index() as usize;
        debug_assert!(i < self.data.len(), "variable {i} out of bounds");
        self.data[i] // xtask: allow(no-index) audited Var-keyed access
    }

    /// A mutable reference to the value at `v`.
    #[inline]
    pub fn get_mut(&mut self, v: Var) -> &mut T {
        let i = v.index() as usize;
        debug_assert!(i < self.data.len(), "variable {i} out of bounds");
        &mut self.data[i] // xtask: allow(no-index) audited Var-keyed access
    }

    /// Overwrites the value at `v`.
    #[inline]
    pub fn set(&mut self, v: Var, value: T) {
        *self.get_mut(v) = value;
    }

    /// Mutably iterates the values in variable-index order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }
}

/// Dense map from [`Lit`] to `T`, keyed by the literal's code.
///
/// Used for the watch lists (`watches.get_mut(l)` holds the watchers of
/// `l`: clauses with `!l` among their first two literals) and for the
/// literal-indexed assignment, where `get(l)` is the value of `l`.
#[derive(Debug, Clone, Default)]
pub(crate) struct LitMap<T> {
    data: Vec<T>,
}

impl<T> LitMap<T> {
    /// A map over the `2 * num_vars` literal codes, every entry `fill`.
    pub fn new(num_vars: u32, fill: T) -> Self
    where
        T: Clone,
    {
        LitMap {
            data: vec![fill; 2 * num_vars as usize],
        }
    }

    /// The value at `l` (for `Copy` payloads).
    #[inline]
    pub fn get(&self, l: Lit) -> T
    where
        T: Copy,
    {
        let i = l.code() as usize;
        debug_assert!(i < self.data.len(), "literal code {i} out of bounds");
        self.data[i] // xtask: allow(no-index) audited Lit-keyed access
    }

    /// A mutable reference to the value at `l`.
    #[inline]
    pub fn get_mut(&mut self, l: Lit) -> &mut T {
        let i = l.code() as usize;
        debug_assert!(i < self.data.len(), "literal code {i} out of bounds");
        &mut self.data[i] // xtask: allow(no-index) audited Lit-keyed access
    }

    /// Overwrites the value at `l`.
    #[inline]
    pub fn set(&mut self, l: Lit, value: T) {
        *self.get_mut(l) = value;
    }

    /// Iterates `(literal, value)` pairs in literal-code order.
    pub fn iter(&self) -> impl Iterator<Item = (Lit, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(|(code, t)| (Lit::from_code(code as u32), t))
    }

    /// Mutably iterates the values in literal-code order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varmap_round_trips() {
        let mut m = VarMap::new(3, 0u32);
        m.set(Var::new(1), 7);
        assert_eq!(m.get(Var::new(1)), 7);
        assert_eq!(m.get(Var::new(0)), 0);
        *m.get_mut(Var::new(2)) += 5;
        assert_eq!(m.get(Var::new(2)), 5);
        assert_eq!(m.len(), 3);
        let all: Vec<u32> = (0..3).map(|v| m.get(Var::new(v))).collect();
        assert_eq!(all, vec![0, 7, 5]);
    }

    #[test]
    fn litmap_keys_by_code() {
        let mut m = LitMap::new(2, Vec::<u8>::new());
        let l = Lit::from_dimacs(-2);
        m.get_mut(l).push(9);
        assert_eq!(m.get_mut(l), &vec![9]);
        assert!(m.get_mut(Lit::from_dimacs(2)).is_empty());
        let filled: Vec<Lit> = m
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(l, _)| l)
            .collect();
        assert_eq!(filled, vec![l]);
        // Copy payloads read by value, one entry per polarity.
        let mut values = LitMap::new(2, 0u8);
        values.set(l, 1);
        values.set(!l, 2);
        assert_eq!((values.get(l), values.get(!l)), (1, 2));
        assert_eq!(values.get(Lit::from_dimacs(1)), 0);
    }

    #[test]
    fn at_reads_positionally() {
        let xs = [10, 20, 30];
        assert_eq!(at(&xs, 2), 30);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[cfg(debug_assertions)]
    fn at_catches_oob_in_debug() {
        let xs = [1];
        let _ = at(&xs, 1);
    }
}
