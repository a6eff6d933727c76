//! Live metrics: a sharded, lock-free registry of named counters and
//! gauges, drained by a background [`Sampler`] into a versioned JSONL
//! time series.
//!
//! Where [`RunRecord`](crate::RunRecord) answers "what did the solve
//! cost?" after the fact and [`trace`](crate::trace) answers "what
//! happened when?" span by span, this module answers "what is the solver
//! doing *right now*": propagation and conflict rates, learned-clause
//! traffic, the live memory estimate, and the pipeline's inference
//! latency, all readable while the search is running.
//!
//! # Two-tier gating
//!
//! The module mirrors the overhead discipline of [`trace`](crate::trace):
//!
//! 1. **Cargo feature.** Without the `metrics` feature, [`enabled`] is
//!    `const false`, [`arm`] refuses, and every entry point reduces to a
//!    branch on a compile-time constant the optimizer deletes. Hot-path
//!    call sites in the solver crates are *additionally* wrapped in
//!    `#[cfg(feature = "metrics")]` (enforced by the `metrics-feature-gate`
//!    xtask rule), so default builds carry no metrics code at all.
//! 2. **Runtime arming.** With the feature on, recording still costs one
//!    relaxed atomic load until [`arm`] is called. Armed increments are a
//!    single relaxed `fetch_add` on a shard mostly private to the calling
//!    thread — no locks, no allocation.
//!
//! # Sharding
//!
//! Counter storage is split across [`NUM_SHARDS`] independently allocated
//! shards; each thread is assigned a shard round-robin on first use and
//! keeps it for life. Concurrent solver threads (an `rsatd` worker pool)
//! therefore increment disjoint cache lines instead of contending on one
//! global counter array. A
//! [`snapshot`] sums the shards — reads are racy-by-design (relaxed), which
//! is fine for monitoring: every counter is monotonic, so a snapshot is a
//! consistent lower bound.
//!
//! # Metric names
//!
//! The name tables in [`Counter::name`] and [`Gauge::name`] are a
//! stability contract with dashboards and the perf-trajectory harness.
//! `xtask lint` compares them against the golden manifest
//! `crates/xtask/metrics.names`; `cargo run -p xtask -- metrics-update`
//! regenerates it after an intentional change.
//!
//! # Examples
//!
//! ```
//! use telemetry::metrics::{self, Counter, Gauge};
//!
//! if metrics::arm() {
//!     metrics::add(Counter::Propagations, 128);
//!     metrics::inc(Counter::Conflicts);
//!     metrics::set_gauge(Gauge::MemoryBytes, 4096.0);
//!     let snap = metrics::snapshot();
//!     assert_eq!(snap.counter(Counter::Propagations), 128);
//!     metrics::disarm();
//! } else {
//!     // Built without `--features metrics`: recording is compiled out.
//!     assert!(!metrics::enabled());
//! }
//! ```

use crate::json::{Json, ToJson};
use crate::SCHEMA_VERSION;
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Whether this build carries metrics support (the `metrics` cargo
/// feature). `const`, so disabled call sites fold to nothing.
pub const fn enabled() -> bool {
    cfg!(feature = "metrics")
}

/// Number of counter shards. Threads are assigned round-robin, so up to
/// this many concurrent writers never share a counter cache line.
pub const NUM_SHARDS: usize = 8;

/// A registered counter: monotonic, `u64`, incremented on the hot path.
///
/// The closed set keeps the registry a fixed array — no hashing or
/// allocation per increment. The wire names returned by
/// [`name`](Counter::name) are pinned by the `metrics-names` manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// BCP assignments made inside the search loop.
    Propagations,
    /// Conflicts found by propagation.
    Conflicts,
    /// Branching decisions.
    Decisions,
    /// Restarts performed.
    Restarts,
    /// Clause-database reductions performed.
    Reductions,
    /// Clauses learned from conflict analysis.
    LearnedClauses,
    /// Learned clauses deleted by reduction.
    DeletedClauses,
    /// Wall nanoseconds spent in BCP (the `propagate` phase).
    PropagateNanos,
    /// Completed `propagate` phase calls.
    PropagateCalls,
    /// Wall nanoseconds spent in conflict analysis (incl. minimization).
    AnalyzeNanos,
    /// Completed `analyze` phase calls.
    AnalyzeCalls,
    /// Wall nanoseconds spent reducing the clause database.
    ReduceNanos,
    /// Completed `reduce` phase calls.
    ReduceCalls,
    /// Wall nanoseconds spent in inprocessing rounds.
    InprocessNanos,
    /// Completed inprocessing rounds.
    InprocessCalls,
    /// Clauses deleted by in-search subsumption.
    InprocessSubsumed,
    /// Clauses shortened by self-subsuming resolution or vivification.
    InprocessStrengthened,
    /// Variables eliminated by in-search bounded variable elimination.
    InprocessEliminated,
    /// Model inferences run by the NeuroSelect pipeline.
    Inferences,
    /// Wall nanoseconds spent in model inference.
    InferenceNanos,
    /// Daemon requests admitted past admission control.
    DaemonAdmitted,
    /// Daemon requests rejected by admission control (`busy`).
    DaemonRejected,
    /// Daemon sessions evicted for idleness or memory pressure.
    DaemonEvicted,
    /// Daemon sessions quarantined after a solver panic.
    DaemonCrashed,
    /// Daemon solves degraded to `unknown` by their deadline.
    DaemonDeadlineExceeded,
    /// Daemon requests that reached a terminal record (any verdict,
    /// including degraded and error outcomes).
    DaemonCompleted,
}

impl Counter {
    /// All counters, in registry (and serialization) order.
    pub const ALL: [Counter; 26] = [
        Counter::Propagations,
        Counter::Conflicts,
        Counter::Decisions,
        Counter::Restarts,
        Counter::Reductions,
        Counter::LearnedClauses,
        Counter::DeletedClauses,
        Counter::PropagateNanos,
        Counter::PropagateCalls,
        Counter::AnalyzeNanos,
        Counter::AnalyzeCalls,
        Counter::ReduceNanos,
        Counter::ReduceCalls,
        Counter::InprocessNanos,
        Counter::InprocessCalls,
        Counter::InprocessSubsumed,
        Counter::InprocessStrengthened,
        Counter::InprocessEliminated,
        Counter::Inferences,
        Counter::InferenceNanos,
        Counter::DaemonAdmitted,
        Counter::DaemonRejected,
        Counter::DaemonEvicted,
        Counter::DaemonCrashed,
        Counter::DaemonDeadlineExceeded,
        Counter::DaemonCompleted,
    ];

    /// The stable wire name (see the `metrics-names` manifest rule).
    pub fn name(self) -> &'static str {
        // metrics-names:begin counters (parsed by xtask; one `=> "name"` per line)
        match self {
            Counter::Propagations => "solver.propagations",
            Counter::Conflicts => "solver.conflicts",
            Counter::Decisions => "solver.decisions",
            Counter::Restarts => "solver.restarts",
            Counter::Reductions => "solver.reductions",
            Counter::LearnedClauses => "solver.learned_clauses",
            Counter::DeletedClauses => "solver.deleted_clauses",
            Counter::PropagateNanos => "phase.propagate_ns",
            Counter::PropagateCalls => "phase.propagate_calls",
            Counter::AnalyzeNanos => "phase.analyze_ns",
            Counter::AnalyzeCalls => "phase.analyze_calls",
            Counter::ReduceNanos => "phase.reduce_ns",
            Counter::ReduceCalls => "phase.reduce_calls",
            Counter::InprocessNanos => "phase.inprocess_ns",
            Counter::InprocessCalls => "phase.inprocess_calls",
            Counter::InprocessSubsumed => "inprocess.subsumed",
            Counter::InprocessStrengthened => "inprocess.strengthened",
            Counter::InprocessEliminated => "inprocess.eliminated_vars",
            Counter::Inferences => "pipeline.inferences",
            Counter::InferenceNanos => "pipeline.inference_ns",
            Counter::DaemonAdmitted => "daemon.admitted",
            Counter::DaemonRejected => "daemon.rejected",
            Counter::DaemonEvicted => "daemon.evicted",
            Counter::DaemonCrashed => "daemon.crashed",
            Counter::DaemonDeadlineExceeded => "daemon.deadline_exceeded",
            Counter::DaemonCompleted => "daemon.completed",
        }
        // metrics-names:end counters
    }

    /// Whether snapshots derive a `<name>_per_sec` rate meter for this
    /// counter (the headline live rates: propagations, conflicts and
    /// learned clauses).
    pub fn rated(self) -> bool {
        matches!(
            self,
            Counter::Propagations | Counter::Conflicts | Counter::LearnedClauses
        )
    }
}

/// A registered gauge: a last-write-wins `f64` set on cool paths
/// (reduction boundaries, pipeline decisions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Live memory estimate of the solver, in bytes.
    MemoryBytes,
    /// Live learned clauses currently in the database.
    LiveLearned,
    /// Wall seconds of the most recent model inference.
    InferenceLastSeconds,
    /// Probability the model assigned to its most recent policy pick.
    PolicyConfidence,
    /// Live sessions currently open in the daemon.
    DaemonSessions,
    /// Aggregate approximate memory of the daemon's live solvers, bytes.
    DaemonMemoryBytes,
    /// Daemon requests currently queued or running (admitted, not yet
    /// terminal).
    DaemonInFlight,
}

impl Gauge {
    /// All gauges, in registry (and serialization) order.
    pub const ALL: [Gauge; 7] = [
        Gauge::MemoryBytes,
        Gauge::LiveLearned,
        Gauge::InferenceLastSeconds,
        Gauge::PolicyConfidence,
        Gauge::DaemonSessions,
        Gauge::DaemonMemoryBytes,
        Gauge::DaemonInFlight,
    ];

    /// The stable wire name (see the `metrics-names` manifest rule).
    pub fn name(self) -> &'static str {
        // metrics-names:begin gauges (parsed by xtask; one `=> "name"` per line)
        match self {
            Gauge::MemoryBytes => "solver.memory_bytes",
            Gauge::LiveLearned => "solver.live_learned_clauses",
            Gauge::InferenceLastSeconds => "pipeline.inference_last_s",
            Gauge::PolicyConfidence => "pipeline.policy_confidence",
            Gauge::DaemonSessions => "daemon.sessions",
            Gauge::DaemonMemoryBytes => "daemon.memory_bytes",
            Gauge::DaemonInFlight => "daemon.in_flight",
        }
        // metrics-names:end gauges
    }
}

/// One shard of counter storage. Shards are separately heap-allocated so
/// different workers' hot counters land on different cache lines.
struct Shard {
    counters: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: (0..Counter::ALL.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// The process-global registry: counter shards plus unsharded gauges
/// (gauges are last-write-wins, so sharding them would be meaningless).
struct Registry {
    shards: Vec<Shard>,
    /// Gauge values as `f64` bits; NaN bits mean "never set".
    gauges: Box<[AtomicU64]>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            gauges: (0..Gauge::ALL.len())
                .map(|_| AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
        }
    }

    fn reset(&self) {
        for shard in &self.shards {
            for c in shard.counters.iter() {
                c.store(0, Ordering::Relaxed);
            }
        }
        for g in self.gauges.iter() {
            g.store(f64::NAN.to_bits(), Ordering::Relaxed);
        }
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static ARMED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index; `usize::MAX` until first use.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|cell| {
        let cached = cell.get();
        if cached != usize::MAX {
            return cached;
        }
        let idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
        cell.set(idx);
        idx
    })
}

/// Arms the registry: zeroes every counter, clears every gauge, and turns
/// recording on, returning `true`. Without the `metrics` feature this is a
/// no-op returning `false` — callers that *require* metrics should treat
/// that as a configuration error (as `rsat --metrics-out` does).
///
/// The registry is process-global; tests that arm it must serialize.
pub fn arm() -> bool {
    if !enabled() {
        return false;
    }
    registry().reset();
    ARMED.store(true, Ordering::Release);
    true
}

/// Turns recording off. Counter values remain readable via [`snapshot`]
/// until the next [`arm`].
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
}

/// Whether the registry is currently recording.
#[inline]
pub fn armed() -> bool {
    enabled() && ARMED.load(Ordering::Relaxed)
}

/// Adds `delta` to a counter: one relaxed `fetch_add` on the calling
/// thread's shard when armed, nothing otherwise. Never allocates.
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if !armed() {
        return;
    }
    let reg = registry();
    reg.shards[shard_index()].counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
}

/// Increments a counter by one; see [`add`].
#[inline]
pub fn inc(counter: Counter) {
    add(counter, 1);
}

/// Sets a gauge (last write wins). Meant for cool paths.
#[inline]
pub fn set_gauge(gauge: Gauge, value: f64) {
    if !armed() {
        return;
    }
    registry().gauges[gauge as usize].store(value.to_bits(), Ordering::Relaxed);
}

/// Phase timers sample one in this many calls per thread. Clock reads are
/// the dominant cost of metering a phase that runs tens of thousands of
/// times per second; sampling keeps the armed-registry overhead on the
/// search loop under the DESIGN §13 budget while the scaled estimate in
/// the `phase.*_ns` counters stays unbiased.
pub const PHASE_SAMPLE_EVERY: u64 = 64;

thread_local! {
    /// Per-thread tick selecting which [`phase_timer`] calls get a clock.
    static PHASE_TICK: Cell<u64> = const { Cell::new(0) };
}

/// Starts a phase timer: `Some(now)` when armed **and** this call is
/// sampled (the first call on each thread, then every
/// [`PHASE_SAMPLE_EVERY`]th), `None` otherwise, so disarmed runs and
/// unsampled calls skip the clock read entirely.
#[inline]
pub fn phase_timer() -> Option<Instant> {
    if !armed() {
        return None;
    }
    PHASE_TICK.with(|t| {
        let tick = t.get();
        t.set(tick.wrapping_add(1));
        if tick % PHASE_SAMPLE_EVERY == 0 {
            Some(Instant::now())
        } else {
            None
        }
    })
}

/// Completes a [`phase_timer`]: counts one call into `calls` (exact —
/// every armed call lands here), and for sampled starts records the
/// elapsed nanoseconds scaled by [`PHASE_SAMPLE_EVERY`] into `nanos`, an
/// unbiased estimate of the phase's total time. Disarmed: records
/// nothing.
#[inline]
pub fn phase_done(start: Option<Instant>, nanos: Counter, calls: Counter) {
    if !armed() {
        return;
    }
    inc(calls);
    if let Some(t0) = start {
        add(
            nanos,
            (t0.elapsed().as_nanos() as u64).saturating_mul(PHASE_SAMPLE_EVERY),
        );
    }
}

/// Reads the registry into a point-in-time snapshot: counters summed
/// across shards, gauges as last written. `seq` and `elapsed_s` are zero;
/// the caller (normally the [`Sampler`]) stamps them.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = Counter::ALL
        .iter()
        .map(|&c| {
            reg.shards
                .iter()
                .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
                .sum()
        })
        .collect();
    let gauges = Gauge::ALL
        .iter()
        .map(|&g| f64::from_bits(reg.gauges[g as usize].load(Ordering::Relaxed)))
        .collect();
    MetricsSnapshot {
        seq: 0,
        elapsed_s: 0.0,
        counters,
        gauges,
    }
}

/// One point-in-time reading of the registry.
///
/// Serialized as a `metrics_snapshot` JSONL event (see
/// [`to_json_line`](MetricsSnapshot::to_json_line)); the shape is pinned
/// by the schema golden test alongside the [`RunRecord`](crate::RunRecord)
/// events.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic snapshot number within one sampler run (0-based).
    pub seq: u64,
    /// Seconds since the sampler (or its caller) started.
    pub elapsed_s: f64,
    /// Counter values in [`Counter::ALL`] order.
    counters: Vec<u64>,
    /// Gauge values in [`Gauge::ALL`] order; NaN means "never set".
    gauges: Vec<f64>,
}

impl MetricsSnapshot {
    /// Builds a snapshot from explicit values — for tests and replay
    /// tooling. `counters`/`gauges` are in [`Counter::ALL`] /
    /// [`Gauge::ALL`] order and are padded with zero / NaN ("unset") when
    /// short.
    pub fn from_parts(seq: u64, elapsed_s: f64, counters: Vec<u64>, gauges: Vec<f64>) -> Self {
        let mut counters = counters;
        counters.resize(Counter::ALL.len(), 0);
        let mut gauges = gauges;
        gauges.resize(Gauge::ALL.len(), f64::NAN);
        MetricsSnapshot {
            seq,
            elapsed_s,
            counters,
            gauges,
        }
    }

    /// The value of `counter` at snapshot time.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// The value of `gauge`, or `None` if it was never set.
    pub fn gauge(&self, gauge: Gauge) -> Option<f64> {
        let v = self.gauges[gauge as usize];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Per-second rate of `counter` since `prev`, or `None` when the
    /// interval is not positive (clock went nowhere or snapshots are out
    /// of order). Counter resets (a re-[`arm`]) saturate to zero.
    pub fn rate_since(&self, prev: &MetricsSnapshot, counter: Counter) -> Option<f64> {
        let dt = self.elapsed_s - prev.elapsed_s;
        if dt <= 0.0 {
            return None;
        }
        let delta = self.counter(counter).saturating_sub(prev.counter(counter));
        Some(delta as f64 / dt)
    }

    /// Serializes one versioned JSONL event. All counters are always
    /// present; gauges appear once set; `rates` carries the
    /// `<name>_per_sec` meters for [rated](Counter::rated) counters when a
    /// previous snapshot is available.
    pub fn to_json_line(&self, prev: Option<&MetricsSnapshot>) -> Json {
        let mut counters = Json::object();
        for c in Counter::ALL {
            counters.set(c.name(), Json::from(self.counter(c)));
        }
        let mut gauges = Json::object();
        for g in Gauge::ALL {
            if let Some(v) = self.gauge(g) {
                gauges.set(g.name(), Json::from(v));
            }
        }
        let mut rates = Json::object();
        if let Some(prev) = prev {
            for c in Counter::ALL.into_iter().filter(|c| c.rated()) {
                if let Some(rate) = self.rate_since(prev, c) {
                    rates.set(&format!("{}_per_sec", c.name()), Json::from(rate));
                }
            }
        }
        Json::object()
            .with("schema_version", Json::from(SCHEMA_VERSION))
            .with("event", Json::from("metrics_snapshot"))
            .with("seq", Json::from(self.seq))
            .with("elapsed_s", Json::from(self.elapsed_s))
            .with("counters", counters)
            .with("gauges", gauges)
            .with("rates", rates)
    }
}

impl ToJson for MetricsSnapshot {
    /// [`to_json_line`](Self::to_json_line) without rate meters (no
    /// previous snapshot to difference against).
    fn to_json(&self) -> Json {
        self.to_json_line(None)
    }
}

/// Live-view callback: the fresh snapshot plus the previous one (for
/// instantaneous rates).
pub type SnapshotObserver = Box<dyn FnMut(&MetricsSnapshot, Option<&MetricsSnapshot>) + Send>;

/// What one sampler run produced, returned by [`Sampler::stop`].
#[derive(Debug)]
pub struct SamplerReport {
    /// Snapshots taken (including the final one on stop).
    pub snapshots: u64,
    /// The final snapshot.
    pub last: Option<MetricsSnapshot>,
    /// First write error, if the output stream failed. Later writes are
    /// skipped once an error is recorded (same sticky-error policy as
    /// `JsonlSink`).
    pub io_error: Option<String>,
}

/// Background thread draining the registry on a fixed interval.
///
/// Each tick takes a [`snapshot`], stamps `seq`/`elapsed_s`, writes one
/// [`to_json_line`](MetricsSnapshot::to_json_line) to the writer (when
/// given), and invokes the observer (when given). [`stop`](Sampler::stop)
/// requests shutdown, waits for one final snapshot, and returns the
/// [`SamplerReport`]. Dropping a `Sampler` without calling `stop` also
/// shuts the thread down, discarding the report.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<SamplerReport>>,
}

impl Sampler {
    /// Spawns the sampler thread. `interval` is clamped to at least one
    /// millisecond. The sampler itself does not [`arm`] the registry — do
    /// that first, or every snapshot reads zeros.
    pub fn spawn(
        interval: Duration,
        writer: Option<Box<dyn Write + Send>>,
        observer: Option<SnapshotObserver>,
    ) -> Sampler {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("metrics-sampler".to_string())
            .spawn(move || run_sampler(interval, &stop_flag, writer, observer))
            .ok();
        // Thread-spawn failure degrades to a dead sampler whose stop()
        // reports zero snapshots — monitoring must never take the run down.
        Sampler { stop, handle }
    }

    /// Stops the thread (after one final snapshot) and returns its report.
    pub fn stop(mut self) -> SamplerReport {
        self.stop.store(true, Ordering::Release);
        match self.handle.take().map(std::thread::JoinHandle::join) {
            Some(Ok(report)) => report,
            _ => SamplerReport {
                snapshots: 0,
                last: None,
                io_error: Some("sampler thread unavailable".to_string()),
            },
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn run_sampler(
    interval: Duration,
    stop: &AtomicBool,
    mut writer: Option<Box<dyn Write + Send>>,
    mut observer: Option<SnapshotObserver>,
) -> SamplerReport {
    let started = Instant::now();
    let mut prev: Option<MetricsSnapshot> = None;
    let mut seq = 0u64;
    let mut io_error: Option<String> = None;
    loop {
        // Sleep in short slices so stop() returns promptly even with a
        // long sampling interval.
        let tick_deadline = Instant::now() + interval;
        let mut stopping = stop.load(Ordering::Acquire);
        while !stopping {
            let now = Instant::now();
            if now >= tick_deadline {
                break;
            }
            std::thread::sleep((tick_deadline - now).min(Duration::from_millis(20)));
            stopping = stop.load(Ordering::Acquire);
        }
        let mut snap = snapshot();
        snap.seq = seq;
        snap.elapsed_s = started.elapsed().as_secs_f64();
        seq += 1;
        if let Some(w) = writer.as_mut() {
            if io_error.is_none() {
                let line = snap.to_json_line(prev.as_ref()).to_string();
                let write = writeln!(w, "{line}").and_then(|()| w.flush());
                if let Err(e) = write {
                    io_error = Some(e.to_string());
                }
            }
        }
        if let Some(obs) = observer.as_mut() {
            obs(&snap, prev.as_ref());
        }
        prev = Some(snap);
        if stopping {
            return SamplerReport {
                snapshots: seq,
                last: prev,
                io_error,
            };
        }
    }
}

/// Serializes access to the process-global armed flag across tests in
/// this crate (mirrors `trace::tests::serial`).
#[cfg(test)]
pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn name_tables_are_unique_and_well_formed() {
        let mut names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "._".contains(c)),
                "metric name {name:?} breaks the [a-z0-9._] convention"
            );
        }
    }

    #[test]
    fn disarmed_recording_is_a_no_op() {
        let _guard = serial();
        disarm();
        add(Counter::Propagations, 999);
        set_gauge(Gauge::MemoryBytes, 1.0);
        assert!(phase_timer().is_none());
        if enabled() {
            assert!(arm());
            let snap = snapshot();
            assert_eq!(snap.counter(Counter::Propagations), 0);
            assert_eq!(snap.gauge(Gauge::MemoryBytes), None);
            disarm();
        } else {
            assert!(!arm(), "arming must refuse without the feature");
        }
    }

    #[test]
    fn snapshot_round_trips_counters_and_gauges() {
        let _guard = serial();
        if !arm() {
            return; // feature off: covered by disarmed_recording_is_a_no_op
        }
        add(Counter::Conflicts, 41);
        inc(Counter::Conflicts);
        set_gauge(Gauge::LiveLearned, 17.0);
        set_gauge(Gauge::LiveLearned, 18.0);
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::Conflicts), 42);
        assert_eq!(snap.gauge(Gauge::LiveLearned), Some(18.0));
        assert_eq!(snap.gauge(Gauge::PolicyConfidence), None);
        disarm();
    }

    #[test]
    fn rearming_resets_the_registry() {
        let _guard = serial();
        if !arm() {
            return;
        }
        add(Counter::Decisions, 7);
        assert!(arm(), "re-arming must succeed");
        assert_eq!(snapshot().counter(Counter::Decisions), 0);
        disarm();
    }

    #[test]
    fn concurrent_increments_from_many_threads_are_all_counted() {
        let _guard = serial();
        if !arm() {
            return;
        }
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..PER_THREAD {
                        inc(Counter::Propagations);
                        if i % 64 == 0 {
                            // Interleave racy reads: totals must only grow.
                            let snap = snapshot();
                            assert!(
                                snap.counter(Counter::Propagations) <= THREADS as u64 * PER_THREAD
                            );
                        }
                    }
                });
            }
        });
        let snap = snapshot();
        assert_eq!(
            snap.counter(Counter::Propagations),
            THREADS as u64 * PER_THREAD,
            "lock-free increments lost updates"
        );
        disarm();
    }

    #[test]
    fn rates_difference_consecutive_snapshots() {
        let a = MetricsSnapshot::from_parts(0, 1.0, vec![1000], vec![]);
        let mut counters = vec![0; Counter::ALL.len()];
        counters[Counter::Propagations as usize] = 3000;
        let b = MetricsSnapshot::from_parts(1, 3.0, counters, vec![]);
        assert_eq!(b.rate_since(&a, Counter::Propagations), Some(1000.0));
        assert_eq!(a.rate_since(&a, Counter::Propagations), None, "dt == 0");
        // A reset (b → a) saturates to zero instead of underflowing.
        let mut later = a.clone();
        later.elapsed_s = 5.0;
        assert_eq!(later.rate_since(&b, Counter::Propagations), Some(0.0));
    }

    #[test]
    fn sampler_writes_jsonl_and_reports_the_final_snapshot() {
        let _guard = serial();
        let armed = arm();
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let seen = Arc::new(AtomicU64::new(0));
        let seen_in_obs = Arc::clone(&seen);
        let sampler = Sampler::spawn(
            Duration::from_millis(5),
            Some(Box::new(SharedBuf(Arc::clone(&buf)))),
            Some(Box::new(move |snap, _prev| {
                seen_in_obs.store(snap.seq + 1, Ordering::Relaxed);
            })),
        );
        if armed {
            add(Counter::Propagations, 12345);
        }
        std::thread::sleep(Duration::from_millis(30));
        let report = sampler.stop();
        assert!(report.snapshots >= 1, "stop() must take a final snapshot");
        assert_eq!(report.io_error, None);
        assert_eq!(seen.load(Ordering::Relaxed), report.snapshots);
        let last = report.last.expect("final snapshot");
        if armed {
            assert_eq!(last.counter(Counter::Propagations), 12345);
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, report.snapshots);
        for line in lines {
            let v = Json::parse(line).expect("sampler emitted invalid JSON");
            assert_eq!(
                v.get("event").and_then(Json::as_str),
                Some("metrics_snapshot")
            );
            assert_eq!(
                v.get("schema_version").and_then(Json::as_u64),
                Some(u64::from(SCHEMA_VERSION))
            );
            assert!(v.get("counters").is_some() && v.get("rates").is_some());
        }
        disarm();
    }
}
