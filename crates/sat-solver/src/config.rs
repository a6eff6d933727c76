//! Solver configuration, resource budgets, and results.

use crate::PolicyKind;
use std::time::{Duration, Instant};

/// Tunable parameters of the CDCL solver.
///
/// The defaults are scaled for the laptop-sized instances produced by
/// `sat-gen` (10²–10⁴ variables): reductions happen early and often so the
/// clause-deletion policy — the object of study — is exercised many times
/// per solve.
///
/// # Examples
///
/// ```
/// use sat_solver::{PolicyKind, SolverConfig};
/// let cfg = SolverConfig {
///     policy: PolicyKind::PropFreq,
///     ..SolverConfig::default()
/// };
/// assert_eq!(cfg.policy, PolicyKind::PropFreq);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Which clause-deletion policy scores reducible clauses.
    pub policy: PolicyKind,
    /// Luby restart scale: the search restarts after `restart * luby(n)`
    /// conflicts since the previous restart (see [`luby`](crate::luby)).
    pub restart: u64,
    /// Learned clauses kept unconditionally when their glue is at most this
    /// ("non-reducible" tier in Kissat's terminology).
    pub tier1_glue: u32,
    /// First reduction triggers when this many reducible learned clauses
    /// have accumulated.
    pub reduce_init: usize,
    /// The trigger grows by this amount after every reduction.
    pub reduce_inc: usize,
    /// Fraction of reducible clauses deleted at each reduction, in `(0, 1]`.
    pub reduce_fraction: f64,
    /// Enables in-search inprocessing rounds (subsumption, self-subsuming
    /// resolution, bounded variable elimination, vivification) at restart
    /// boundaries. Off by default: the perf-trajectory gate pins the
    /// default configuration's search exactly, and inprocessing reshapes
    /// the clause database mid-search.
    pub inprocess: bool,
    /// When inprocessing is enabled, a round runs once this many restarts
    /// have elapsed since the previous round.
    pub inprocess_interval: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            policy: PolicyKind::Default,
            restart: 128,
            tier1_glue: 2,
            reduce_init: 100,
            reduce_inc: 75,
            reduce_fraction: 0.5,
            inprocess: false,
            inprocess_interval: 10,
        }
    }
}

impl SolverConfig {
    /// A configuration using the given deletion policy and defaults
    /// everywhere else.
    pub fn with_policy(policy: PolicyKind) -> Self {
        SolverConfig {
            policy,
            ..Self::default()
        }
    }
}

/// Resource limits for one `solve` call.
///
/// The solver checks limits cooperatively at every conflict and every
/// decision; when a limit is hit it returns [`SolveResult::Unknown`]
/// with stats intact and records the cause (see
/// [`Solver::stop_cause`](crate::Solver::stop_cause)). `Budget::default()`
/// is unlimited.
///
/// The wall-clock deadline is an *absolute* instant, so a caller can fix
/// it when a request arrives and the time the request waits before its
/// search starts counts against it (`rsatd` does this). The memory
/// ceiling is approximate: it bounds the solver's dominant allocations
/// (clause database, per-variable state, watch lists) as estimated by
/// [`Solver::approx_memory_bytes`](crate::Solver::approx_memory_bytes),
/// not the process RSS.
///
/// # Examples
///
/// ```
/// use sat_solver::Budget;
/// use std::time::Duration;
/// let b = Budget::conflicts(10_000).with_deadline_in(Duration::from_secs(5));
/// assert_eq!(b.max_conflicts, Some(10_000));
/// assert_eq!(b.max_propagations, None);
/// assert!(b.deadline.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Stop after this many conflicts.
    pub max_conflicts: Option<u64>,
    /// Stop after this many propagations.
    pub max_propagations: Option<u64>,
    /// Stop once this wall-clock instant has passed.
    pub deadline: Option<Instant>,
    /// Stop once the solver's approximate memory footprint exceeds this
    /// many bytes.
    pub max_memory_bytes: Option<u64>,
}

impl Budget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limit by conflict count only.
    pub fn conflicts(n: u64) -> Self {
        Budget {
            max_conflicts: Some(n),
            ..Budget::default()
        }
    }

    /// Limit by propagation count only.
    pub fn propagations(n: u64) -> Self {
        Budget {
            max_propagations: Some(n),
            ..Budget::default()
        }
    }

    /// Limit by wall clock only: the deadline is `timeout` from now.
    pub fn wall_clock(timeout: Duration) -> Self {
        Budget::default().with_deadline_in(timeout)
    }

    /// Limit by approximate memory footprint only.
    pub fn memory_bytes(n: u64) -> Self {
        Budget {
            max_memory_bytes: Some(n),
            ..Budget::default()
        }
    }

    /// Returns `self` with the deadline set to `timeout` from now.
    /// Saturates at the far future if the addition overflows.
    pub fn with_deadline_in(mut self, timeout: Duration) -> Self {
        let now = Instant::now();
        self.deadline = Some(now.checked_add(timeout).unwrap_or(now));
        self
    }

    /// Returns `self` with the given approximate memory ceiling.
    pub fn with_memory_limit(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Whether the given counters exhaust this budget (counter limits
    /// only; see [`Budget::check`] for the full check).
    pub fn exhausted(&self, conflicts: u64, propagations: u64) -> bool {
        self.max_conflicts.is_some_and(|m| conflicts >= m)
            || self.max_propagations.is_some_and(|m| propagations >= m)
    }

    /// Full budget check: counters, wall-clock deadline, and memory
    /// ceiling, in that order. Returns the first exhausted limit.
    ///
    /// `Instant::now()` is only consulted when a deadline is set, so
    /// counter-only budgets (the default) stay syscall-free and their
    /// runs remain bit-reproducible.
    pub fn check(
        &self,
        conflicts: u64,
        propagations: u64,
        memory_bytes: impl FnOnce() -> u64,
    ) -> Option<StopCause> {
        if self.max_conflicts.is_some_and(|m| conflicts >= m) {
            return Some(StopCause::Conflicts);
        }
        if self.max_propagations.is_some_and(|m| propagations >= m) {
            return Some(StopCause::Propagations);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopCause::Deadline);
        }
        if self.max_memory_bytes.is_some_and(|m| memory_bytes() > m) {
            return Some(StopCause::Memory);
        }
        None
    }
}

/// Why a `solve` call returned [`SolveResult::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The conflict budget was exhausted.
    Conflicts,
    /// The propagation budget was exhausted.
    Propagations,
    /// The wall-clock deadline passed.
    Deadline,
    /// The approximate memory ceiling was exceeded.
    Memory,
}

impl StopCause {
    /// Stable lowercase name, used in CLI output and telemetry records.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopCause::Conflicts => "conflicts",
            StopCause::Propagations => "propagations",
            StopCause::Deadline => "deadline",
            StopCause::Memory => "memory",
        }
    }
}

/// Outcome of a `solve` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a model assigning every variable
    /// (`model[v]` is the value of variable index `v`).
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// The resource budget was exhausted before a verdict.
    Unknown,
}

impl SolveResult {
    /// Whether the result is [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Whether the result is [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// Whether the result is [`SolveResult::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, SolveResult::Unknown)
    }

    /// The verdict's record name: `"SAT"`, `"UNSAT"` or `"UNKNOWN"`.
    pub(crate) fn verdict(&self) -> &'static str {
        match self {
            SolveResult::Sat(_) => "SAT",
            SolveResult::Unsat => "UNSAT",
            SolveResult::Unknown => "UNKNOWN",
        }
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Counters accumulated during solving.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Decisions made.
    pub decisions: u64,
    /// Literals assigned by unit propagation. This is the paper's primary
    /// deterministic cost metric for labelling (Section 5.1).
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clause-database reductions performed.
    pub reductions: u64,
    /// Learned clauses added (before deletions).
    pub learned_clauses: u64,
    /// Learned clauses deleted by reductions.
    pub deleted_clauses: u64,
    /// Literals removed by learned-clause minimization.
    pub minimized_lits: u64,
    /// Sum of glue values of all learned clauses (for averages).
    pub glue_sum: u64,
}

impl SolverStats {
    /// Mean glue over all learned clauses, or 0.0 when none were learned.
    pub fn avg_glue(&self) -> f64 {
        if self.learned_clauses == 0 {
            0.0
        } else {
            self.glue_sum as f64 / self.learned_clauses as f64
        }
    }

    /// Per-field difference `self - before`, saturating at zero.
    ///
    /// An incremental session's solver accumulates counters across its
    /// whole lifetime; the delta attributes work to one solve call.
    pub fn delta_since(&self, before: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(before.decisions),
            propagations: self.propagations.saturating_sub(before.propagations),
            conflicts: self.conflicts.saturating_sub(before.conflicts),
            restarts: self.restarts.saturating_sub(before.restarts),
            reductions: self.reductions.saturating_sub(before.reductions),
            learned_clauses: self.learned_clauses.saturating_sub(before.learned_clauses),
            deleted_clauses: self.deleted_clauses.saturating_sub(before.deleted_clauses),
            minimized_lits: self.minimized_lits.saturating_sub(before.minimized_lits),
            glue_sum: self.glue_sum.saturating_sub(before.glue_sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_exhaustion() {
        let b = Budget {
            max_conflicts: Some(10),
            max_propagations: Some(100),
            ..Budget::default()
        };
        assert!(!b.exhausted(9, 99));
        assert!(b.exhausted(10, 0));
        assert!(b.exhausted(0, 100));
        assert!(!Budget::unlimited().exhausted(u64::MAX - 1, u64::MAX - 1));
    }

    #[test]
    fn check_reports_the_first_exhausted_limit() {
        let b = Budget {
            max_conflicts: Some(10),
            max_propagations: Some(100),
            ..Budget::default()
        };
        assert_eq!(b.check(9, 99, || 0), None);
        assert_eq!(b.check(10, 0, || 0), Some(StopCause::Conflicts));
        assert_eq!(b.check(0, 100, || 0), Some(StopCause::Propagations));
    }

    #[test]
    fn check_honors_deadline_and_memory() {
        let past = Budget::wall_clock(Duration::from_secs(0));
        assert_eq!(past.check(0, 0, || 0), Some(StopCause::Deadline));
        let future = Budget::wall_clock(Duration::from_secs(3600));
        assert_eq!(future.check(0, 0, || 0), None);

        let mem = Budget::memory_bytes(1000);
        assert_eq!(mem.check(0, 0, || 1000), None);
        assert_eq!(mem.check(0, 0, || 1001), Some(StopCause::Memory));
    }

    #[test]
    fn memory_probe_is_lazy_without_a_ceiling() {
        // A counter-only budget must never evaluate the memory estimate.
        let b = Budget::conflicts(5);
        assert_eq!(b.check(0, 0, || panic!("memory probe must not run")), None);
    }

    #[test]
    fn stop_cause_names_are_stable() {
        for (cause, name) in [
            (StopCause::Conflicts, "conflicts"),
            (StopCause::Propagations, "propagations"),
            (StopCause::Deadline, "deadline"),
            (StopCause::Memory, "memory"),
        ] {
            assert_eq!(cause.as_str(), name);
        }
    }

    #[test]
    fn stats_delta_is_per_field_and_saturating() {
        let before = SolverStats {
            decisions: 10,
            propagations: 100,
            conflicts: 5,
            ..SolverStats::default()
        };
        let after = SolverStats {
            decisions: 15,
            propagations: 180,
            conflicts: 5,
            learned_clauses: 3,
            ..SolverStats::default()
        };
        let delta = after.delta_since(&before);
        assert_eq!(delta.decisions, 5);
        assert_eq!(delta.propagations, 80);
        assert_eq!(delta.conflicts, 0);
        assert_eq!(delta.learned_clauses, 3);
        // A (theoretical) regression saturates instead of wrapping.
        assert_eq!(before.delta_since(&after).decisions, 0);
    }

    #[test]
    fn result_accessors() {
        let sat = SolveResult::Sat(vec![true]);
        assert!(sat.is_sat() && !sat.is_unsat() && !sat.is_unknown());
        assert_eq!(sat.model(), Some(&[true][..]));
        assert_eq!(SolveResult::Unsat.model(), None);
        assert!(SolveResult::Unknown.is_unknown());
    }

    #[test]
    fn avg_glue_handles_zero() {
        let mut s = SolverStats::default();
        assert_eq!(s.avg_glue(), 0.0);
        s.learned_clauses = 4;
        s.glue_sum = 10;
        assert_eq!(s.avg_glue(), 2.5);
    }
}
