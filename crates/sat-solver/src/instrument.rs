//! Instrumentation of the CDCL search.
//!
//! [`Recorder`] is the solver's single instrumentation spine: every phase
//! boundary and search event goes through it, and it feeds the opt-in
//! [`SolverTelemetry`] recorder. An installed recorder never changes
//! search behaviour — it only reads counters the solver maintains anyway;
//! the invariance tests in `tests/telemetry.rs` pin that guarantee.
//!
//! This module also gives the solver's public statistics types a stable
//! JSON form ([`ToJson`]/[`FromJson`], the workspace's offline stand-in
//! for serde's `Serialize`/`Deserialize`).

use crate::{DbStats, PolicyKind, SolveResult, SolverStats, StopCause};
use std::time::{Duration, Instant};
use telemetry::json::{FromJson, FromJsonError, Json, ToJson};
use telemetry::{Event, NullSink, Phase, PhaseTimes, RunRecord, Sink};

/// Per-solve telemetry recorder installed via
/// [`Solver::set_telemetry`](crate::Solver::set_telemetry).
///
/// Collects per-phase wall time and the peak number of live learned
/// clauses; emits structured [`Event`]s (solve start/end, reduction
/// snapshots, optional progress heartbeats) to a pluggable [`Sink`].
///
/// # Examples
///
/// ```
/// use sat_solver::{Solver, SolverTelemetry};
/// use telemetry::MemorySink;
///
/// let f = cnf::parse_dimacs_str("p cnf 2 2\n1 2 0\n-1 2 0\n")?;
/// let sink = MemorySink::default();
/// let events = sink.events_handle();
/// let mut solver = Solver::from_cnf(&f);
/// solver.set_telemetry(SolverTelemetry::new("example").with_sink(Box::new(sink)));
/// assert!(solver.solve().is_sat());
/// let record = solver.take_telemetry().unwrap().into_record().unwrap();
/// assert_eq!(record.result, "SAT");
/// assert!(!events.lock().unwrap().is_empty());
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
pub struct SolverTelemetry {
    instance_id: String,
    sink: Box<dyn Sink>,
    progress_interval: Option<Duration>,
    phases: PhaseTimes,
    peak_learned: u64,
    started: Option<Instant>,
    last_progress: Option<Instant>,
    record: Option<RunRecord>,
}

impl std::fmt::Debug for SolverTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverTelemetry")
            .field("instance_id", &self.instance_id)
            .field("phases", &self.phases)
            .field("peak_learned", &self.peak_learned)
            .finish_non_exhaustive()
    }
}

impl SolverTelemetry {
    /// A recorder for the named instance, with no event output
    /// ([`NullSink`]); measurements are still collected for the final
    /// [`RunRecord`].
    pub fn new(instance_id: impl Into<String>) -> Self {
        SolverTelemetry {
            instance_id: instance_id.into(),
            sink: Box::new(NullSink),
            progress_interval: None,
            phases: PhaseTimes::default(),
            peak_learned: 0,
            started: None,
            last_progress: None,
            record: None,
        }
    }

    /// Routes events into `sink` (JSONL file, in-memory test sink, …).
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.sink = sink;
        self
    }

    /// Enables progress heartbeats at roughly this interval. Heartbeats
    /// are checked on conflict boundaries, so an idle interval shorter
    /// than the time between conflicts degrades gracefully.
    pub fn with_progress(mut self, interval: Duration) -> Self {
        self.progress_interval = Some(interval);
        self
    }

    /// Per-phase wall time and call counts collected so far.
    pub fn phases(&self) -> &PhaseTimes {
        &self.phases
    }

    /// Largest number of live learned clauses observed.
    pub fn peak_learned_clauses(&self) -> u64 {
        self.peak_learned
    }

    /// The summary of the most recent completed solve, consuming the
    /// recorder. `None` if no solve finished while installed.
    pub fn into_record(mut self) -> Option<RunRecord> {
        self.sink.flush();
        self.record.take()
    }

    /// Emits a heartbeat when the configured interval has elapsed. Called
    /// on conflict boundaries only, and only when heartbeats are enabled.
    fn maybe_progress(&mut self, stats: &SolverStats, live_learned: usize) {
        let (Some(interval), Some(started)) = (self.progress_interval, self.started) else {
            return;
        };
        let now = Instant::now();
        let due = match self.last_progress {
            Some(last) => now.duration_since(last) >= interval,
            None => now.duration_since(started) >= interval,
        };
        if !due {
            return;
        }
        self.last_progress = Some(now);
        let elapsed_s = now.duration_since(started).as_secs_f64();
        let rate = |n: u64| {
            if elapsed_s > 0.0 {
                n as f64 / elapsed_s
            } else {
                0.0
            }
        };
        self.sink.emit(&Event::Progress {
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            decisions: stats.decisions,
            learned: live_learned as u64,
            elapsed_s,
            conflicts_per_sec: rate(stats.conflicts),
            propagations_per_sec: rate(stats.propagations),
        });
    }
}

// ---- the search's instrumentation spine --------------------------------

/// The CDCL search's one instrumentation point (DESIGN §7.1). The solver
/// brackets each solver [`Phase`] with [`begin`](Self::begin) /
/// [`end`](Self::end) and reports a few typed events; the recorder feeds
/// them to the installed [`SolverTelemetry`] (runtime opt-in: without one
/// no phase clock is read). Its `PhaseTimes` are exclusive: a phase
/// ending inside another (minimize in analyze, inprocess in restart)
/// counts for the inner one only, so they add up to at most the solve's
/// wall time.
#[derive(Default)]
pub(crate) struct Recorder {
    pub(crate) telemetry: Option<Box<SolverTelemetry>>,
    /// Inclusive time of all phases that ended so far; its growth while a
    /// phase is open is the time of the phases nested in it.
    ended: Duration,
}

/// A phase opened by [`Recorder::begin`]. Dropping it without
/// [`Recorder::end`] (an early return) records nothing.
#[must_use]
pub(crate) struct OpenPhase {
    phase: Phase,
    /// `None` without a recorder installed: no clock was read.
    start: Option<Instant>,
    ended_before: Duration,
}

impl Recorder {
    /// Opens `phase`: starts its clock if a recorder is installed.
    #[inline]
    pub(crate) fn begin(&self, phase: Phase) -> OpenPhase {
        let start = self.telemetry.as_ref().map(|_| Instant::now());
        OpenPhase {
            phase,
            start,
            ended_before: self.ended,
        }
    }

    /// Closes `open`, recording its exclusive time.
    #[inline]
    pub(crate) fn end(&mut self, open: OpenPhase) {
        if let (Some(start), Some(t)) = (open.start, self.telemetry.as_deref_mut()) {
            let inclusive = start.elapsed();
            let nested = self.ended.saturating_sub(open.ended_before);
            t.phases.add(open.phase, inclusive.saturating_sub(nested));
            self.ended = open.ended_before + inclusive;
        }
    }

    /// A conflict was analyzed into a learned clause, leaving
    /// `live_learned` learned clauses in the database.
    #[inline]
    pub(crate) fn learned(&mut self, live_learned: usize, stats: &SolverStats) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.peak_learned = t.peak_learned.max(live_learned as u64);
            t.maybe_progress(stats, live_learned);
        }
    }

    /// Ends a reduction that deleted `deleted` of `candidates` reducible
    /// clauses; `stats` already counts it.
    pub(crate) fn reduced(
        &mut self,
        open: OpenPhase,
        stats: &SolverStats,
        candidates: usize,
        deleted: usize,
        live_learned: usize,
    ) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.sink.emit(&Event::Reduction {
                reduction_no: stats.reductions,
                candidates: candidates as u64,
                deleted: deleted as u64,
                learned_after: live_learned as u64,
                conflicts: stats.conflicts,
            });
        }
        self.end(open);
    }

    /// A `solve` call starts.
    pub(crate) fn solve_started(&mut self, policy: PolicyKind, num_vars: u32, num_clauses: usize) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        t.started = Some(Instant::now());
        t.last_progress = None;
        t.sink.emit(&Event::SolveStart {
            instance_id: t.instance_id.clone(),
            policy: policy.to_string(),
            num_vars: u64::from(num_vars),
            num_clauses: num_clauses as u64,
        });
    }

    /// A `solve` call ended with `result` (for `Unknown`, stopped by
    /// `stop_cause`); seals the [`RunRecord`].
    pub(crate) fn solve_ended(
        &mut self,
        result: &SolveResult,
        stop_cause: Option<StopCause>,
        policy: PolicyKind,
        stats: &SolverStats,
        db: &DbStats,
    ) {
        let Some(t) = self.telemetry.as_deref_mut() else {
            return;
        };
        let solve_time_s = t.started.take().map_or(0.0, |s| s.elapsed().as_secs_f64());
        let mut record = RunRecord::new(t.instance_id.clone(), policy.to_string());
        record.result = result.verdict().to_string();
        record.stop_cause = stop_cause.map(|c| c.as_str().to_string());
        record.solve_time_s = solve_time_s;
        record.peak_learned_clauses = t.peak_learned;
        record.phases = t.phases;
        record.stats = stats.to_json();
        record.extra = Json::object().with("db", db.to_json());
        t.sink.emit(&Event::SolveEnd {
            record: record.clone(),
        });
        t.sink.flush();
        t.record = Some(record);
    }
}

// ---- stable JSON forms for the solver's public statistics types --------

impl ToJson for SolverStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("decisions", Json::from(self.decisions))
            .with("propagations", Json::from(self.propagations))
            .with("conflicts", Json::from(self.conflicts))
            .with("restarts", Json::from(self.restarts))
            .with("reductions", Json::from(self.reductions))
            .with("learned_clauses", Json::from(self.learned_clauses))
            .with("deleted_clauses", Json::from(self.deleted_clauses))
            .with("minimized_lits", Json::from(self.minimized_lits))
            .with("glue_sum", Json::from(self.glue_sum))
    }
}

impl FromJson for SolverStats {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let field = |key: &str| -> Result<u64, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(FromJsonError::field(key))
        };
        Ok(SolverStats {
            decisions: field("decisions")?,
            propagations: field("propagations")?,
            conflicts: field("conflicts")?,
            restarts: field("restarts")?,
            reductions: field("reductions")?,
            learned_clauses: field("learned_clauses")?,
            deleted_clauses: field("deleted_clauses")?,
            minimized_lits: field("minimized_lits")?,
            glue_sum: field("glue_sum")?,
        })
    }
}

impl ToJson for DbStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("original_clauses", Json::from(self.original_clauses))
            .with("learned_clauses", Json::from(self.learned_clauses))
            .with("learned_literals", Json::from(self.learned_literals))
            .with("live_clauses", Json::from(self.live_clauses))
            .with(
                "glue_histogram",
                Json::from(self.glue_histogram.map(|c| c as u64).to_vec()),
            )
    }
}

impl FromJson for DbStats {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let field = |key: &str| -> Result<usize, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or(FromJsonError::field(key))
        };
        let hist_json = value
            .get("glue_histogram")
            .and_then(Json::as_array)
            .ok_or(FromJsonError::field("glue_histogram"))?;
        let mut glue_histogram = [0usize; 8];
        if hist_json.len() != glue_histogram.len() {
            return Err(FromJsonError::new("glue_histogram must have 8 buckets"));
        }
        for (slot, v) in glue_histogram.iter_mut().zip(hist_json) {
            *slot = v.as_u64().ok_or(FromJsonError::field("glue_histogram"))? as usize;
        }
        Ok(DbStats {
            original_clauses: field("original_clauses")?,
            learned_clauses: field("learned_clauses")?,
            learned_literals: field("learned_literals")?,
            live_clauses: field("live_clauses")?,
            glue_histogram,
        })
    }
}

impl ToJson for PolicyKind {
    /// Serializes as the policy's display name (`"default"`,
    /// `"prop-freq"`, `"prop-freq(α=…)"`).
    fn to_json(&self) -> Json {
        Json::from(self.to_string())
    }
}

impl FromJson for PolicyKind {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let name = value
            .as_str()
            .ok_or(FromJsonError::new("policy must be a string"))?;
        match name {
            "default" => Ok(PolicyKind::Default),
            "prop-freq" => Ok(PolicyKind::PropFreq),
            other => {
                let alpha = other
                    .strip_prefix("prop-freq(α=")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .and_then(|a| a.parse::<f64>().ok())
                    .ok_or_else(|| FromJsonError::new(format!("unknown policy `{other}`")))?;
                if !(0.0..=1.0).contains(&alpha) {
                    return Err(FromJsonError::new(format!(
                        "policy `{other}`: α must be in [0, 1]"
                    )));
                }
                Ok(PolicyKind::PropFreqAlpha(alpha))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_stats_roundtrip() {
        let stats = SolverStats {
            decisions: 1,
            propagations: 2,
            conflicts: 3,
            restarts: 4,
            reductions: 5,
            learned_clauses: 6,
            deleted_clauses: 7,
            minimized_lits: 8,
            glue_sum: 9,
        };
        assert_eq!(SolverStats::from_json(&stats.to_json()).unwrap(), stats);
        assert!(SolverStats::from_json(&Json::object()).is_err());
    }

    #[test]
    fn db_stats_roundtrip() {
        let db = DbStats {
            original_clauses: 100,
            learned_clauses: 42,
            learned_literals: 400,
            live_clauses: 142,
            glue_histogram: [0, 1, 2, 3, 4, 5, 6, 7],
        };
        assert_eq!(DbStats::from_json(&db.to_json()).unwrap(), db);
    }

    #[test]
    fn policy_kind_roundtrip() {
        for policy in [
            PolicyKind::Default,
            PolicyKind::PropFreq,
            PolicyKind::PropFreqAlpha(0.625),
            PolicyKind::PropFreqAlpha(0.0),
            PolicyKind::PropFreqAlpha(1.0),
        ] {
            assert_eq!(PolicyKind::from_json(&policy.to_json()).unwrap(), policy);
        }
        // Unknown names, and α outside [0, 1], which is refused where it
        // enters the program rather than carried into a solver.
        for bad in [
            "no-such-policy",
            "activity",
            "prop-freq(α=1.5)",
            "prop-freq(α=-0.1)",
            "prop-freq(α=NaN)",
        ] {
            assert!(PolicyKind::from_json(&Json::from(bad)).is_err(), "{bad}");
        }
    }
}
