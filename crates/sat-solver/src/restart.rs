//! Luby restarts.

/// The `i`-th element (1-based) of the Luby sequence
/// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
///
/// # Examples
///
/// ```
/// use sat_solver::luby;
/// let prefix: Vec<u64> = (1..=9).map(luby).collect();
/// assert_eq!(prefix, [1, 1, 2, 1, 1, 2, 4, 1, 1]);
/// ```
pub fn luby(i: u64) -> u64 {
    assert!(i >= 1, "the Luby sequence is 1-based");
    // MiniSat's formulation, adapted to a 1-based index.
    let mut x = i - 1;
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Counts conflicts and decides when to restart: after
/// `scale * luby(n)` conflicts since the `n-1`-th restart.
#[derive(Debug, Clone)]
pub(crate) struct RestartScheduler {
    scale: u64,
    restarts: u64,
    conflicts_since_restart: u64,
}

impl RestartScheduler {
    /// A scheduler with the given Luby scale (base conflict interval).
    pub(crate) fn new(scale: u64) -> Self {
        RestartScheduler {
            scale,
            restarts: 0,
            conflicts_since_restart: 0,
        }
    }

    /// Records a conflict and returns whether the solver should restart now.
    pub(crate) fn on_conflict(&mut self) -> bool {
        self.conflicts_since_restart += 1;
        self.conflicts_since_restart >= self.scale.saturating_mul(luby(self.restarts + 1))
    }

    /// Notifies the scheduler that a restart was performed.
    pub(crate) fn on_restart(&mut self) {
        self.restarts += 1;
        self.conflicts_since_restart = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn luby_powers() {
        // positions 2^k - 1 hold 2^(k-1)
        for k in 1..20 {
            assert_eq!(luby((1u64 << k) - 1), 1u64 << (k - 1));
        }
    }

    #[test]
    fn luby_scheduler_intervals() {
        let mut s = RestartScheduler::new(2);
        let mut restart_points = Vec::new();
        for c in 1..=20u64 {
            if s.on_conflict() {
                restart_points.push(c);
                s.on_restart();
            }
        }
        // luby: 1,1,2,1,1,2,4 → intervals 2,2,4,2,2,4,8 → cumulative
        // 2,4,8,10,12,16,24; only points ≤ 20 are observed.
        assert_eq!(restart_points, vec![2, 4, 8, 10, 12, 16]);
    }

    /// A scale beyond any conflict count the solve reaches never restarts.
    #[test]
    fn never_strategy_never_restarts() {
        let mut s = RestartScheduler::new(u64::MAX);
        for _ in 0..10_000 {
            assert!(!s.on_conflict());
        }
        assert_eq!(s.restarts, 0);
    }
}
