//! Per-variable propagation-frequency tracking (Section 3.1, Figure 3).
//!
//! Every time Boolean constraint propagation assigns a variable, the solver
//! bumps that variable's counter. Counters are reset at each clause-database
//! reduction, so they measure activity "since the last deletion" exactly as
//! Equation (2) requires.

use cnf::Var;

/// Propagation counters for every variable, with a cached maximum.
///
/// # Examples
///
/// ```
/// use sat_solver::FrequencyTable;
/// use cnf::Var;
/// let mut t = FrequencyTable::new(3);
/// for _ in 0..5 { t.bump(Var::new(0)); }
/// t.bump(Var::new(1));
/// assert_eq!(t.count(Var::new(0)), 5);
/// assert_eq!(t.max(), 5);
/// assert!(t.is_hot(Var::new(0), 0.8));
/// assert!(!t.is_hot(Var::new(1), 0.8));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrequencyTable {
    counts: Vec<u64>,
    max: u64,
    total: u64,
}

impl FrequencyTable {
    /// Creates a table for `num_vars` variables, all counters zero.
    pub fn new(num_vars: u32) -> Self {
        FrequencyTable {
            counts: vec![0; num_vars as usize],
            max: 0,
            total: 0,
        }
    }

    /// Increments `v`'s propagation counter.
    #[inline]
    pub fn bump(&mut self, v: Var) {
        // xtask: allow(hot-path-purity) bounds audited: the table is sized to the variable universe at construction
        let c = &mut self.counts[v.index() as usize];
        *c += 1;
        self.total += 1;
        if *c > self.max {
            self.max = *c;
        }
    }

    /// `f_v`: the propagation count of `v` since the last reset.
    #[inline]
    pub fn count(&self, v: Var) -> u64 {
        self.counts[v.index() as usize]
    }

    /// `f_max`: the maximum propagation count over all variables.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Total propagations since the last reset.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Equation (2)'s predicate: whether `f_v > α · f_max`.
    ///
    /// When no propagation happened yet (`f_max == 0`) no variable is hot.
    #[inline]
    pub fn is_hot(&self, v: Var, alpha: f64) -> bool {
        self.max > 0 && self.count(v) as f64 > alpha * self.max as f64
    }

    /// Zeroes all counters (called at every clause-database reduction).
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.max = 0;
        self.total = 0;
    }

    /// Adds `other`'s counters into this table (the solver folds each
    /// reduction's counts into its whole-run table before resetting).
    pub(crate) fn fold(&mut self, other: &FrequencyTable) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
            self.max = self.max.max(*c);
        }
        self.total += other.total;
    }

    /// Read-only view of all counters, indexed by variable index.
    ///
    /// This is the data behind the paper's Figure 3 histogram.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Normalized frequencies (`f_v / Σf`), the y-axis of Figure 3.
    /// Returns an empty vector when no propagation has been recorded.
    pub fn normalized(&self) -> Vec<f64> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_tracks_max_and_total() {
        let mut t = FrequencyTable::new(2);
        t.bump(Var::new(1));
        t.bump(Var::new(1));
        t.bump(Var::new(0));
        assert_eq!(t.max(), 2);
        assert_eq!(t.total(), 3);
        assert_eq!(t.count(Var::new(0)), 1);
    }

    #[test]
    fn hot_threshold_is_strict() {
        let mut t = FrequencyTable::new(2);
        for _ in 0..10 {
            t.bump(Var::new(0));
        }
        for _ in 0..8 {
            t.bump(Var::new(1));
        }
        // f_max = 10, α = 0.8 ⇒ hot requires f_v > 8 exactly
        assert!(t.is_hot(Var::new(0), 0.8));
        assert!(!t.is_hot(Var::new(1), 0.8));
    }

    #[test]
    fn nothing_hot_when_empty() {
        let t = FrequencyTable::new(3);
        assert!(!t.is_hot(Var::new(0), 0.0));
        assert!(t.normalized().is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = FrequencyTable::new(2);
        t.bump(Var::new(0));
        t.reset();
        assert_eq!(t.max(), 0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.count(Var::new(0)), 0);
    }

    #[test]
    fn normalized_sums_to_one() {
        let mut t = FrequencyTable::new(3);
        for _ in 0..3 {
            t.bump(Var::new(0));
        }
        t.bump(Var::new(2));
        let n = t.normalized();
        assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((n[0] - 0.75).abs() < 1e-12);
    }
}
