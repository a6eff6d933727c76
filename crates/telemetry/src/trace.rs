//! Low-overhead span tracing into per-thread ring buffers.
//!
//! This module records *time-resolved* evidence of where a run spends its
//! wall clock: hierarchical spans ([`span`], ended by dropping the returned
//! [`SpanGuard`]) and point-in-time [`instant`] events. Events land in a
//! fixed-capacity ring buffer owned by the recording thread — no locks, no
//! shared cache lines, and no allocation on the hot path (the buffer is
//! allocated once, on a thread's first recorded event). When the ring is
//! full the oldest events are overwritten, so a bounded amount of memory
//! always holds the *most recent* window of activity.
//!
//! # Life cycle
//!
//! 1. [`arm`] turns recording on process-wide (it is off by default; every
//!    record entry point is a single relaxed atomic load when disarmed).
//! 2. Threads record via [`span`] / [`instant`] / [`instant_with`], and tag
//!    their lane with [`set_lane`] (`rsatd` gives each pool worker its own
//!    Chrome `pid` so traces render one lane per worker).
//! 3. Each thread calls [`flush`] before it exits, moving its ring into a
//!    global collector. This is what makes crash drains work: events
//!    recorded before a `catch_unwind`-isolated panic are still in the
//!    thread-local ring afterwards, and the supervising closure flushes
//!    them along with the crash instants it records itself.
//! 4. The coordinating thread calls [`drain`] (which flushes its own ring
//!    first) and feeds the logs to [`chrome_trace`] to build a Chrome
//!    trace-event JSON document loadable in Perfetto / `chrome://tracing`.
//!
//! # Feature gating
//!
//! Without the `trace` cargo feature every function here is a no-op that
//! the optimizer erases: [`arm`] refuses to arm, so the armed check at each
//! entry point is a constant `false` and the recording code is dead.
//! Solver BCP hot-path call sites are additionally wrapped in
//! `#[cfg(feature = "trace")]` so a default build contains no trace code at
//! all (an `xtask` lint rule enforces this), keeping solver stats and
//! tier-1 timings byte-identical with the feature off.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events), used when [`arm`] is given 0.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Maximum number of key/value arguments carried by one event.
pub const MAX_ARGS: usize = 2;

/// What a single [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opened (paired with a later [`TraceKind::End`] on the same
    /// thread; spans nest strictly because they end on guard drop).
    Begin,
    /// A span closed.
    End,
    /// A point-in-time event.
    Instant,
}

/// One recorded event. `Copy` and free of heap data so ring writes are a
/// handful of stores.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Begin / end / instant marker.
    pub kind: TraceKind,
    /// Static event name (also the Chrome trace event name).
    pub name: &'static str,
    /// Nanoseconds since the process-wide trace epoch (first use of the
    /// monotonic clock by this module).
    pub t_ns: u64,
    /// Up to [`MAX_ARGS`] key/value arguments; a key of `""` means unused.
    pub args: [(&'static str, u64); MAX_ARGS],
}

const NO_ARGS: [(&str, u64); MAX_ARGS] = [("", 0); MAX_ARGS];

/// The drained contents of one thread's ring buffer.
#[derive(Clone, Debug)]
pub struct ThreadLog {
    /// Chrome `pid` lane this thread renders into (workers get
    /// `worker index + 1`; the coordinating/pipeline thread keeps 0).
    pub pid: u32,
    /// Human-readable lane label (becomes the Chrome process name).
    pub label: String,
    /// Number of events lost to ring wrap-around (oldest-first overwrite).
    pub dropped: u64,
    /// Surviving events in chronological order.
    pub events: Vec<TraceEvent>,
}

/// Whether the `trace` cargo feature is compiled in.
///
/// `rsat` uses this to reject `--trace-out` on a build that cannot record
/// anything, instead of silently writing an empty trace.
pub const fn enabled() -> bool {
    cfg!(feature = "trace")
}

static ARMED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn collector() -> &'static Mutex<Vec<ThreadLog>> {
    static COLLECTED: OnceLock<Mutex<Vec<ThreadLog>>> = OnceLock::new();
    COLLECTED.get_or_init(|| Mutex::new(Vec::new()))
}

fn now_ns() -> u64 {
    // Saturates after ~584 years of process uptime; fine for traces.
    epoch().elapsed().as_nanos() as u64
}

struct Ring {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next overwrite position once `buf.len() == capacity`.
    head: usize,
    dropped: u64,
    pid: u32,
    label: String,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
            pid: 0,
            label: "main".to_string(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else if self.capacity > 0 {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Events in chronological order (rotating out the wrap point).
    fn into_log(mut self) -> ThreadLog {
        self.buf.rotate_left(self.head);
        ThreadLog {
            pid: self.pid,
            label: self.label,
            dropped: self.dropped,
            events: self.buf,
        }
    }
}

thread_local! {
    static RING: RefCell<Option<Ring>> = const { RefCell::new(None) };
}

fn record(ev: TraceEvent) {
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| Ring::new(CAPACITY.load(Ordering::Relaxed)));
        ring.push(ev);
    });
}

/// Turns recording on process-wide.
///
/// `capacity` is the per-thread ring size in events (0 selects
/// [`DEFAULT_CAPACITY`]). Without the `trace` feature this is a no-op and
/// [`armed`] stays `false`.
pub fn arm(capacity: usize) {
    if !enabled() {
        return;
    }
    let capacity = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity
    };
    CAPACITY.store(capacity, Ordering::Relaxed);
    // Pin the epoch before any event so timestamps never precede it.
    let _ = epoch();
    ARMED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Already-recorded rings remain drainable.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Whether recording is currently armed (always `false` without the
/// `trace` feature).
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// A scoped span: records `Begin` on creation (via [`span`]) and `End` on
/// drop. Spans on one thread therefore nest strictly (LIFO).
#[must_use = "a span ends when its guard drops; binding to `_` ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    live: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live && armed() {
            record(TraceEvent {
                kind: TraceKind::End,
                name: self.name,
                t_ns: now_ns(),
                args: NO_ARGS,
            });
        }
    }
}

/// Opens a span named `name`; it ends when the returned guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    let live = armed();
    if live {
        record(TraceEvent {
            kind: TraceKind::Begin,
            name,
            t_ns: now_ns(),
            args: NO_ARGS,
        });
    }
    SpanGuard { name, live }
}

/// Opens a span like [`span`], attaching up to [`MAX_ARGS`] integer
/// arguments to its begin event (extra pairs are ignored). The exporter
/// carries the arguments on the resulting complete event.
pub fn span_with(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
    let live = armed();
    if live {
        let mut packed = NO_ARGS;
        for (slot, arg) in packed.iter_mut().zip(args.iter()) {
            *slot = *arg;
        }
        record(TraceEvent {
            kind: TraceKind::Begin,
            name,
            t_ns: now_ns(),
            args: packed,
        });
    }
    SpanGuard { name, live }
}

/// Nanoseconds since the trace epoch right now, or 0 when disarmed.
///
/// Capture this at the *start* of an interval whose span you can only
/// record later (e.g. queue wait, measurable only once a worker picks
/// the job up) and close it with [`span_retro`].
pub fn epoch_ns() -> u64 {
    if !armed() {
        return 0;
    }
    now_ns()
}

/// Records a span retroactively: begin at `started_ns` (an earlier
/// [`epoch_ns`] reading, clamped to now), end now. The two events are
/// pushed adjacently, so the exporter pairs them even when the interval
/// overlaps other spans recorded in between on this thread.
pub fn span_retro(name: &'static str, started_ns: u64, args: &[(&'static str, u64)]) {
    if !armed() {
        return;
    }
    let end_ns = now_ns();
    let mut packed = NO_ARGS;
    for (slot, arg) in packed.iter_mut().zip(args.iter()) {
        *slot = *arg;
    }
    record(TraceEvent {
        kind: TraceKind::Begin,
        name,
        t_ns: started_ns.min(end_ns),
        args: packed,
    });
    record(TraceEvent {
        kind: TraceKind::End,
        name,
        t_ns: end_ns,
        args: NO_ARGS,
    });
}

/// Records a point-in-time event.
pub fn instant(name: &'static str) {
    instant_with(name, &[]);
}

/// Records a point-in-time event carrying up to [`MAX_ARGS`] integer
/// arguments (extra pairs are ignored).
pub fn instant_with(name: &'static str, args: &[(&'static str, u64)]) {
    if !armed() {
        return;
    }
    let mut packed = NO_ARGS;
    for (slot, arg) in packed.iter_mut().zip(args.iter()) {
        *slot = *arg;
    }
    record(TraceEvent {
        kind: TraceKind::Instant,
        name,
        t_ns: now_ns(),
        args: packed,
    });
}

/// Tags the current thread's lane: `pid` is the Chrome process id
/// (one per `rsatd` pool worker), `label` its display name. No-op when
/// disarmed, so untraced runs never allocate a ring.
pub fn set_lane(pid: u32, label: &str) {
    if !armed() {
        return;
    }
    RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let ring = slot.get_or_insert_with(|| Ring::new(CAPACITY.load(Ordering::Relaxed)));
        ring.pid = pid;
        ring.label = label.to_string();
    });
}

/// Moves the current thread's ring (if any) into the global collector.
///
/// Every traced thread must call this before exiting — including after a
/// `catch_unwind`-isolated worker crash, where the events recorded up to
/// the panic are exactly the evidence worth keeping.
pub fn flush() {
    let ring = RING.with(|cell| cell.borrow_mut().take());
    if let Some(ring) = ring {
        let log = ring.into_log();
        if !log.events.is_empty() || log.dropped > 0 {
            collector().lock().unwrap().push(log);
        }
    }
}

/// Flushes the current thread, then removes and returns all collected
/// thread logs, ordered by `pid` (stable for equal pids).
pub fn drain() -> Vec<ThreadLog> {
    flush();
    let mut logs = std::mem::take(&mut *collector().lock().unwrap());
    logs.sort_by_key(|l| l.pid);
    logs
}

fn micros(t_ns: u64) -> Json {
    Json::F64(t_ns as f64 / 1000.0)
}

fn args_json(args: &[(&'static str, u64); MAX_ARGS]) -> Option<Json> {
    let pairs: Vec<(String, Json)> = args
        .iter()
        .filter(|(k, _)| !k.is_empty())
        .map(|&(k, v)| (k.to_string(), Json::from(v)))
        .collect();
    if pairs.is_empty() {
        None
    } else {
        Some(Json::Object(pairs))
    }
}

fn event_base(ph: &str, pid: u32, name: &str, t_ns: u64) -> Vec<(String, Json)> {
    vec![
        ("ph".to_string(), Json::from(ph)),
        ("pid".to_string(), Json::from(u64::from(pid))),
        ("tid".to_string(), Json::from(0u64)),
        ("name".to_string(), Json::from(name)),
        ("ts".to_string(), micros(t_ns)),
    ]
}

fn metadata(pid: u32, meta_name: &str, value: &str) -> Json {
    Json::Object(vec![
        ("ph".to_string(), Json::from("M")),
        ("pid".to_string(), Json::from(u64::from(pid))),
        ("tid".to_string(), Json::from(0u64)),
        ("name".to_string(), Json::from(meta_name)),
        (
            "args".to_string(),
            Json::Object(vec![("name".to_string(), Json::from(value))]),
        ),
    ])
}

/// Builds a Chrome trace-event JSON document from drained thread logs.
///
/// Span begin/end pairs become `"ph":"X"` complete events, instants become
/// `"ph":"i"` with thread scope, and each lane gets `process_name` /
/// `thread_name` metadata. `End` events whose `Begin` was lost to ring
/// wrap-around are skipped; `Begin` events still open at the end of a log
/// (e.g. a worker killed mid-span by a crash) are closed at the log's last
/// timestamp. The result loads in Perfetto / `chrome://tracing`.
pub fn chrome_trace(logs: &[ThreadLog]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    for log in logs {
        events.push(metadata(log.pid, "process_name", &log.label));
        events.push(metadata(log.pid, "thread_name", &log.label));
        if log.dropped > 0 {
            let mut obj = event_base("i", log.pid, "trace-dropped", 0);
            obj.push(("s".to_string(), Json::from("t")));
            obj.push((
                "args".to_string(),
                Json::Object(vec![("count".to_string(), Json::from(log.dropped))]),
            ));
            events.push(Json::Object(obj));
        }
        let last_ns = log.events.iter().map(|e| e.t_ns).max().unwrap_or(0);
        let mut open: Vec<&TraceEvent> = Vec::new();
        let complete = |begin: &TraceEvent, end_ns: u64| {
            let mut obj = event_base("X", log.pid, begin.name, begin.t_ns);
            obj.push(("dur".to_string(), micros(end_ns.saturating_sub(begin.t_ns))));
            if let Some(args) = args_json(&begin.args) {
                obj.push(("args".to_string(), args));
            }
            Json::Object(obj)
        };
        for ev in &log.events {
            match ev.kind {
                TraceKind::Begin => open.push(ev),
                TraceKind::End => {
                    // Guards guarantee LIFO; a mismatch means the Begin was
                    // overwritten by ring wrap. Find the nearest matching
                    // Begin and discard anything opened after it.
                    if let Some(pos) = open.iter().rposition(|b| b.name == ev.name) {
                        let begin = open[pos];
                        open.truncate(pos);
                        events.push(complete(begin, ev.t_ns));
                    }
                }
                TraceKind::Instant => {
                    let mut obj = event_base("i", log.pid, ev.name, ev.t_ns);
                    obj.push(("s".to_string(), Json::from("t")));
                    if let Some(args) = args_json(&ev.args) {
                        obj.push(("args".to_string(), args));
                    }
                    events.push(Json::Object(obj));
                }
            }
        }
        // Close spans interrupted by a crash (or still open at drain) at
        // the lane's final timestamp, innermost first.
        while let Some(begin) = open.pop() {
            events.push(complete(begin, last_ns));
        }
    }
    Json::Object(vec![
        ("traceEvents".to_string(), Json::Array(events)),
        ("displayTimeUnit".to_string(), Json::from("ms")),
    ])
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    /// `ARMED` and the collector are process-global; tests that arm must
    /// not interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn reset() {
        disarm();
        let _ = drain();
    }

    #[test]
    fn disarmed_recording_is_invisible() {
        let _guard = serial();
        reset();
        instant("ghost");
        let s = span("ghost-span");
        drop(s);
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_and_instants_round_trip_through_chrome_export() {
        let _guard = serial();
        reset();
        arm(64);
        set_lane(3, "worker 3");
        {
            let _outer = span("outer");
            instant_with("tick", &[("glue", 2), ("stripe", 5)]);
            let _inner = span("inner");
        }
        disarm();
        let logs = drain();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].pid, 3);
        assert_eq!(logs[0].label, "worker 3");
        assert_eq!(logs[0].dropped, 0);
        // Begin(outer), Instant(tick), Begin(inner), End(inner), End(outer)
        assert_eq!(logs[0].events.len(), 5);

        let doc = chrome_trace(&logs);
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("chrome trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let phase = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap().to_string();
        let complete: Vec<&Json> = events.iter().filter(|e| phase(e) == "X").collect();
        assert_eq!(complete.len(), 2);
        let instants: Vec<&Json> = events.iter().filter(|e| phase(e) == "i").collect();
        assert_eq!(instants.len(), 1);
        assert_eq!(
            instants[0]
                .get("args")
                .and_then(|a| a.get("glue"))
                .and_then(Json::as_u64),
            Some(2)
        );
        // Nested span must not outlast its parent.
        let by_name = |n: &str| {
            complete
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .copied()
                .unwrap()
        };
        let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap();
        let dur = |e: &Json| e.get("dur").and_then(Json::as_f64).unwrap();
        let (outer, inner) = (by_name("outer"), by_name("inner"));
        assert!(ts(inner) >= ts(outer));
        assert!(ts(inner) + dur(inner) <= ts(outer) + dur(outer) + 1e-6);
    }

    #[test]
    fn retro_spans_pair_and_carry_args() {
        let _guard = serial();
        reset();
        arm(64);
        let queued_at = epoch_ns();
        {
            // A live span opened *after* the retro interval began: the
            // adjacent-pair exporter contract must keep them separate.
            let _solve = span_with("solve", &[("request", 7)]);
        }
        span_retro("queue-wait", queued_at, &[("request", 7), ("session", 3)]);
        disarm();
        let logs = drain();
        assert_eq!(logs.len(), 1);
        let doc = chrome_trace(&logs);
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let completes: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(completes.len(), 2);
        let by_name = |n: &str| {
            completes
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(n))
                .copied()
                .unwrap()
        };
        let wait = by_name("queue-wait");
        assert_eq!(
            wait.get("args")
                .and_then(|a| a.get("session"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let solve = by_name("solve");
        assert_eq!(
            solve
                .get("args")
                .and_then(|a| a.get("request"))
                .and_then(Json::as_u64),
            Some(7)
        );
        // The retro span starts at (or before) the live span it preceded.
        let ts = |e: &Json| e.get("ts").and_then(Json::as_f64).unwrap();
        assert!(ts(wait) <= ts(solve));
    }

    #[test]
    fn epoch_ns_is_zero_when_disarmed() {
        let _guard = serial();
        reset();
        assert_eq!(epoch_ns(), 0);
        span_retro("ghost", 0, &[]);
        assert!(drain().is_empty());
    }

    #[test]
    fn ring_wraps_and_reports_drops() {
        let _guard = serial();
        reset();
        arm(8);
        for _ in 0..20 {
            instant("beat");
        }
        disarm();
        let logs = drain();
        assert_eq!(logs.len(), 1);
        assert_eq!(logs[0].events.len(), 8);
        assert_eq!(logs[0].dropped, 12);
        // Chronological order must survive the wrap rotation.
        let times: Vec<u64> = logs[0].events.iter().map(|e| e.t_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        // The export surfaces the loss.
        let doc = chrome_trace(&logs);
        assert!(doc.to_string().contains("trace-dropped"));
    }

    #[test]
    fn unmatched_end_is_skipped_and_open_begin_is_closed() {
        let log = ThreadLog {
            pid: 1,
            label: "w".to_string(),
            dropped: 0,
            events: vec![
                // End whose Begin was wrapped away.
                TraceEvent {
                    kind: TraceKind::End,
                    name: "lost",
                    t_ns: 10,
                    args: NO_ARGS,
                },
                // Begin left open by a crash.
                TraceEvent {
                    kind: TraceKind::Begin,
                    name: "solve",
                    t_ns: 20,
                    args: NO_ARGS,
                },
                TraceEvent {
                    kind: TraceKind::Instant,
                    name: "worker-crash",
                    t_ns: 30,
                    args: NO_ARGS,
                },
            ],
        };
        let doc = chrome_trace(&[log]);
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let completes: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(completes.len(), 1);
        assert_eq!(
            completes[0].get("name").and_then(Json::as_str),
            Some("solve")
        );
        // Closed at the lane's last timestamp: 30µs-20µs → dur 0.01ms.
        assert!((completes[0].get("dur").and_then(Json::as_f64).unwrap() - 0.01).abs() < 1e-9);
        assert!(!doc.to_string().contains("\"lost\""));
    }

    #[test]
    fn flush_from_worker_threads_collects_per_thread_lanes() {
        let _guard = serial();
        reset();
        arm(64);
        std::thread::scope(|scope| {
            for w in 0u32..3 {
                scope.spawn(move || {
                    set_lane(w + 1, &format!("worker {w}"));
                    let _s = span("solve");
                    instant("beat");
                    drop(_s);
                    flush();
                });
            }
        });
        disarm();
        let logs = drain();
        assert_eq!(logs.len(), 3);
        let pids: Vec<u32> = logs.iter().map(|l| l.pid).collect();
        assert_eq!(pids, vec![1, 2, 3]);
    }
}
