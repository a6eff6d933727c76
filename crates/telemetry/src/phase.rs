//! Scoped phase timers: per-phase wall time and call counts.

use crate::json::{FromJson, FromJsonError, Json, ToJson};
use std::time::{Duration, Instant};

/// An instrumented phase of the solver or the NeuroSelect pipeline.
///
/// Solver phases time the CDCL inner loop; pipeline phases time the
/// per-instance selection front end (graph build, GNN inference, policy
/// choice). The set is closed so [`PhaseTimes`] can be a fixed array with
/// no allocation or hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Boolean constraint propagation (the solver's dominant cost).
    Propagate,
    /// First-UIP conflict analysis.
    Analyze,
    /// Recursive learned-clause minimization (inside analysis).
    Minimize,
    /// Clause-database reduction (the step the paper's policies govern).
    Reduce,
    /// Restart bookkeeping (backjump to the root level).
    Restart,
    /// In-search inprocessing rounds (subsumption, self-subsuming
    /// resolution, bounded variable elimination, vivification).
    Inprocess,
    /// Formula → graph feature extraction (pipeline).
    FeatureExtract,
    /// GNN forward pass (pipeline).
    GnnForward,
    /// Policy decision from the model output (pipeline).
    PolicySelect,
}

impl Phase {
    /// All phases, in serialization order.
    pub const ALL: [Phase; 9] = [
        Phase::Propagate,
        Phase::Analyze,
        Phase::Minimize,
        Phase::Reduce,
        Phase::Restart,
        Phase::Inprocess,
        Phase::FeatureExtract,
        Phase::GnnForward,
        Phase::PolicySelect,
    ];

    /// The stable snake_case name used in JSON records.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Propagate => "propagate",
            Phase::Analyze => "analyze",
            Phase::Minimize => "minimize",
            Phase::Reduce => "reduce",
            Phase::Restart => "restart",
            Phase::Inprocess => "inprocess",
            Phase::FeatureExtract => "feature_extract",
            Phase::GnnForward => "gnn_forward",
            Phase::PolicySelect => "policy_select",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Accumulated wall time and call count per [`Phase`].
///
/// # Examples
///
/// ```
/// use telemetry::{Phase, PhaseTimes};
/// use std::time::Duration;
///
/// let mut times = PhaseTimes::default();
/// times.add(Phase::Propagate, Duration::from_micros(3));
/// {
///     let _guard = times.scope(Phase::Analyze); // records on drop
/// }
/// assert_eq!(times.calls(Phase::Propagate), 1);
/// assert_eq!(times.calls(Phase::Analyze), 1);
/// assert!(times.total() >= times.elapsed(Phase::Analyze));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
}

impl PhaseTimes {
    /// Adds one timed call to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        let i = phase as usize;
        self.nanos[i] += elapsed.as_nanos() as u64;
        self.calls[i] += 1;
    }

    /// Starts a scoped timer that records into `self` when dropped.
    #[inline]
    pub fn scope(&mut self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            times: self,
            phase,
            start: Instant::now(),
        }
    }

    /// Total wall time attributed to `phase`.
    pub fn elapsed(&self, phase: Phase) -> Duration {
        // xtask: allow(hot-path-purity) enum-indexed fixed arrays: `phase as usize` < `Phase::ALL.len()` by construction
        Duration::from_nanos(self.nanos[phase as usize])
    }

    /// Number of timed calls to `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Sum of all phase times.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for i in 0..Phase::ALL.len() {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }
}

impl ToJson for PhaseTimes {
    /// Serializes as `{phase: {"nanos": n, "calls": c}, …}`, omitting
    /// phases that were never entered.
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for phase in Phase::ALL {
            let i = phase as usize;
            if self.calls[i] > 0 || self.nanos[i] > 0 {
                obj.set(
                    phase.name(),
                    Json::object()
                        .with("nanos", Json::from(self.nanos[i]))
                        .with("calls", Json::from(self.calls[i])),
                );
            }
        }
        obj
    }
}

impl FromJson for PhaseTimes {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let fields = value
            .as_object()
            .ok_or(FromJsonError::new("phases must be an object"))?;
        let mut times = PhaseTimes::default();
        for (name, entry) in fields {
            let phase = Phase::from_name(name)
                .ok_or_else(|| FromJsonError::new(format!("unknown phase `{name}`")))?;
            let i = phase as usize;
            times.nanos[i] = entry
                .get("nanos")
                .and_then(Json::as_u64)
                .ok_or(FromJsonError::field("nanos"))?;
            times.calls[i] = entry
                .get("calls")
                .and_then(Json::as_u64)
                .ok_or(FromJsonError::field("calls"))?;
        }
        Ok(times)
    }
}

/// Scoped timer returned by [`PhaseTimes::scope`]; records on drop.
pub struct PhaseGuard<'a> {
    times: &'a mut PhaseTimes,
    phase: Phase,
    start: Instant,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.times.add(self.phase, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_scope_accumulate() {
        let mut t = PhaseTimes::default();
        t.add(Phase::Reduce, Duration::from_nanos(10));
        t.add(Phase::Reduce, Duration::from_nanos(5));
        assert_eq!(t.calls(Phase::Reduce), 2);
        assert_eq!(t.elapsed(Phase::Reduce), Duration::from_nanos(15));
        {
            let _g = t.scope(Phase::Restart);
        }
        assert_eq!(t.calls(Phase::Restart), 1);
        assert_eq!(
            t.total(),
            t.elapsed(Phase::Reduce) + t.elapsed(Phase::Restart)
        );
    }

    #[test]
    fn names_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nonsense"), None);
    }

    #[test]
    fn merge_sums_componentwise() {
        let mut a = PhaseTimes::default();
        let mut b = PhaseTimes::default();
        a.add(Phase::Propagate, Duration::from_nanos(7));
        b.add(Phase::Propagate, Duration::from_nanos(3));
        b.add(Phase::Analyze, Duration::from_nanos(2));
        a.merge(&b);
        assert_eq!(a.elapsed(Phase::Propagate), Duration::from_nanos(10));
        assert_eq!(a.calls(Phase::Propagate), 2);
        assert_eq!(a.calls(Phase::Analyze), 1);
    }

    #[test]
    fn json_roundtrip_skips_idle_phases() {
        let mut t = PhaseTimes::default();
        t.add(Phase::GnnForward, Duration::from_micros(123));
        let j = t.to_json();
        assert_eq!(j.as_object().unwrap().len(), 1);
        assert_eq!(PhaseTimes::from_json(&j).unwrap(), t);
        assert_eq!(
            PhaseTimes::from_json(&PhaseTimes::default().to_json()).unwrap(),
            PhaseTimes::default()
        );
    }
}
