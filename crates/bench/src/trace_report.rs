//! `trace-report`: offline analyzer for Chrome trace-event files written
//! by `rsat --trace-out` (and any other `telemetry::trace` producer).
//!
//! Turns the raw event stream into the two summaries every perf
//! discussion needs: per-phase/per-lane time breakdowns and the
//! inference-vs-solve overlap.
//!
//! A second analyzer, [`analyze_daemon`], reads the traces `rsatd
//! --trace-out` exports — per-worker lanes of `queue-wait`/`solve`/`reply`
//! spans plus `daemon-admit`/`daemon-reject` instants — and reports the
//! admission-outcome breakdown and how much queue-wait accrued while the
//! workers were actually solving (saturation) rather than idle.

use std::collections::BTreeMap;
use std::fmt;
use telemetry::json::Json;

/// Span names treated as NeuroSelect pipeline inference work.
const INFERENCE_SPANS: [&str; 2] = ["feature-extract", "gnn-forward"];
/// Span name treated as solver search work.
const SOLVE_SPAN: &str = "solve";
/// Daemon span: time a request sat in the admission queue.
const QUEUE_WAIT_SPAN: &str = "queue-wait";
/// Daemon span: time a worker spent delivering the reply callback.
const REPLY_SPAN: &str = "reply";
/// Daemon instant: a request was admitted and queued.
const ADMIT_INSTANT: &str = "daemon-admit";
/// Daemon instant: a request was rejected before admission.
const REJECT_INSTANT: &str = "daemon-reject";

/// Aggregate of one span name within one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span (phase) name.
    pub name: String,
    /// Number of completed occurrences.
    pub count: u64,
    /// Total duration across occurrences, in microseconds.
    pub total_us: f64,
}

/// Everything observed on one Chrome `pid` lane (one worker, or the
/// coordinating/pipeline thread on pid 0).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSummary {
    /// Chrome process id of the lane.
    pub pid: u64,
    /// Lane label from the `process_name` metadata (empty if absent).
    pub label: String,
    /// Span totals, largest first.
    pub spans: Vec<SpanSummary>,
    /// Instant-event counts by name, most frequent first.
    pub instants: Vec<(String, u64)>,
    /// Events lost to ring wrap-around (from the `trace-dropped` marker).
    pub dropped: u64,
}

impl LaneSummary {
    /// Wall-clock span of the lane's events, in microseconds.
    fn busy_us(&self) -> f64 {
        self.spans.iter().map(|s| s.total_us).sum()
    }
}

/// How much GNN inference ran concurrently with solver search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlapSummary {
    /// Total inference time (feature-extract + gnn-forward), microseconds.
    pub inference_us: f64,
    /// Total union of solver `solve` spans, microseconds.
    pub solve_us: f64,
    /// Inference time that overlapped some `solve` span, microseconds.
    pub overlap_us: f64,
}

/// The full analysis of one trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Per-lane breakdowns, ordered by pid.
    pub lanes: Vec<LaneSummary>,
    /// Inference-vs-solve concurrency.
    pub overlap: OverlapSummary,
}

/// Phase totals of one daemon worker lane.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonWorkerSummary {
    /// Chrome process id of the lane (`worker_id + 1`).
    pub pid: u64,
    /// Lane label (`daemon-worker-N`).
    pub label: String,
    /// Requests this worker executed (one `queue-wait` span each).
    pub requests: u64,
    /// Summed queue wait of those requests, microseconds.
    pub queue_wait_us: f64,
    /// Summed solve wall of those requests, microseconds.
    pub solve_us: f64,
    /// Summed reply-callback wall, microseconds.
    pub reply_us: f64,
}

/// The daemon-mode analysis of one `rsatd --trace-out` file.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonReport {
    /// Per-worker phase breakdowns, ordered by pid.
    pub workers: Vec<DaemonWorkerSummary>,
    /// `daemon-admit` instants: requests that entered the queue.
    pub admitted: u64,
    /// `daemon-reject` instants: requests refused before admission.
    pub rejected: u64,
    /// Requests executed by a worker (total `queue-wait` spans).
    pub executed: u64,
    /// Union of all queue-wait spans, microseconds.
    pub queue_wait_us: f64,
    /// Union of all solve spans, microseconds.
    pub solve_us: f64,
    /// Queue-wait time that overlapped some solve span, microseconds.
    /// High overlap means queueing came from saturated workers; low
    /// overlap under a long queue-wait union means the daemon sat idle
    /// while work waited (a scheduling bug).
    pub overlap_us: f64,
}

/// One `"ph":"X"` interval: `[start, start + dur)` in microseconds.
#[derive(Debug, Clone, Copy)]
struct Interval {
    start: f64,
    end: f64,
}

/// Merges intervals into a disjoint union and returns it sorted.
fn union(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut merged: Vec<Interval> = Vec::new();
    for iv in intervals {
        match merged.last_mut() {
            Some(last) if iv.start <= last.end => last.end = last.end.max(iv.end),
            _ => merged.push(iv),
        }
    }
    merged
}

/// Total length of the intersection between two disjoint sorted unions.
fn intersection_us(a: &[Interval], b: &[Interval]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].start.max(b[j].start);
        let hi = a[i].end.min(b[j].end);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].end < b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

#[derive(Default)]
struct LaneAccum {
    label: String,
    spans: BTreeMap<String, (u64, f64)>,
    instants: BTreeMap<String, u64>,
    dropped: u64,
}

/// Analyzes a parsed Chrome trace-event document.
///
/// # Errors
///
/// Returns a message when the document is not an object with a
/// `traceEvents` array, or an event is missing a required field.
pub fn analyze(doc: &Json) -> Result<TraceReport, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("not a Chrome trace: missing `traceEvents` array")?;

    let mut lanes: BTreeMap<u64, LaneAccum> = BTreeMap::new();
    let mut inference: Vec<Interval> = Vec::new();
    let mut solve: Vec<Interval> = Vec::new();

    for (idx, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| format!("event {idx}: missing `{key}`"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {idx}: `ph` is not a string"))?;
        let pid = field("pid")?
            .as_u64()
            .ok_or_else(|| format!("event {idx}: `pid` is not an integer"))?;
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {idx}: `name` is not a string"))?
            .to_string();
        let lane = lanes.entry(pid).or_default();
        match ph {
            "M" if name == "process_name" => {
                if let Some(label) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    lane.label = label.to_string();
                }
            }
            "X" => {
                let ts = field("ts")?
                    .as_f64()
                    .ok_or_else(|| format!("event {idx}: `ts` is not a number"))?;
                let dur = field("dur")?
                    .as_f64()
                    .ok_or_else(|| format!("event {idx}: `dur` is not a number"))?;
                let slot = lane.spans.entry(name.clone()).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += dur;
                let interval = Interval {
                    start: ts,
                    end: ts + dur,
                };
                if INFERENCE_SPANS.contains(&name.as_str()) {
                    inference.push(interval);
                } else if name == SOLVE_SPAN {
                    solve.push(interval);
                }
            }
            "i" | "I" => {
                field("ts")?
                    .as_f64()
                    .ok_or_else(|| format!("event {idx}: `ts` is not a number"))?;
                if name == "trace-dropped" {
                    lane.dropped += ev
                        .get("args")
                        .and_then(|a| a.get("count"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                }
                *lane.instants.entry(name).or_insert(0) += 1;
            }
            _ => {} // B/E or other phases are not produced by our exporter
        }
    }

    let (inference, solve) = (union(inference), union(solve));
    // `+ 0.0` normalizes the empty sum, which is IEEE `-0.0` and would
    // print as "-0.00 ms". (`.max(0.0)` is not reliable here: LLVM's maxnum
    // leaves the sign of a zero result unspecified, while `-0.0 + 0.0` is
    // `+0.0` in every IEEE rounding mode Rust uses.)
    let overlap = OverlapSummary {
        inference_us: inference.iter().map(|iv| iv.end - iv.start).sum::<f64>() + 0.0,
        solve_us: solve.iter().map(|iv| iv.end - iv.start).sum::<f64>() + 0.0,
        overlap_us: intersection_us(&inference, &solve),
    };

    let lanes = lanes
        .into_iter()
        .map(|(pid, accum)| {
            let mut spans: Vec<SpanSummary> = accum
                .spans
                .into_iter()
                .map(|(name, (count, total_us))| SpanSummary {
                    name,
                    count,
                    total_us,
                })
                .collect();
            spans.sort_by(|a, b| b.total_us.total_cmp(&a.total_us).then(a.name.cmp(&b.name)));
            let mut instants: Vec<(String, u64)> = accum.instants.into_iter().collect();
            instants.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            LaneSummary {
                pid,
                label: accum.label,
                spans,
                instants,
                dropped: accum.dropped,
            }
        })
        .collect();

    Ok(TraceReport { lanes, overlap })
}

/// Parses the trace text and analyzes it in one step.
///
/// # Errors
///
/// Returns a message on malformed JSON or a non-trace document.
pub fn analyze_str(text: &str) -> Result<TraceReport, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    analyze(&doc)
}

/// Analyzes a Chrome trace exported by `rsatd --trace-out`: per-worker
/// queue-wait/solve/reply breakdowns, the admission-outcome split, and
/// the queue-wait-vs-solve overlap.
///
/// # Errors
///
/// Returns a message when the document is not an object with a
/// `traceEvents` array, or an event is missing a required field.
pub fn analyze_daemon(doc: &Json) -> Result<DaemonReport, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("not a Chrome trace: missing `traceEvents` array")?;

    #[derive(Default)]
    struct WorkerAccum {
        requests: u64,
        queue_wait_us: f64,
        solve_us: f64,
        reply_us: f64,
    }

    let mut workers: BTreeMap<u64, WorkerAccum> = BTreeMap::new();
    let mut labels: BTreeMap<u64, String> = BTreeMap::new();
    let mut queue_wait: Vec<Interval> = Vec::new();
    let mut solve: Vec<Interval> = Vec::new();
    let (mut admitted, mut rejected) = (0u64, 0u64);

    for (idx, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| format!("event {idx}: missing `{key}`"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {idx}: `ph` is not a string"))?;
        let pid = field("pid")?
            .as_u64()
            .ok_or_else(|| format!("event {idx}: `pid` is not an integer"))?;
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {idx}: `name` is not a string"))?;
        match ph {
            "M" if name == "process_name" => {
                if let Some(label) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    labels.insert(pid, label.to_string());
                }
            }
            "X" => {
                let ts = field("ts")?
                    .as_f64()
                    .ok_or_else(|| format!("event {idx}: `ts` is not a number"))?;
                let dur = field("dur")?
                    .as_f64()
                    .ok_or_else(|| format!("event {idx}: `dur` is not a number"))?;
                let interval = Interval {
                    start: ts,
                    end: ts + dur,
                };
                let worker = workers.entry(pid).or_default();
                match name {
                    QUEUE_WAIT_SPAN => {
                        worker.requests += 1;
                        worker.queue_wait_us += dur;
                        queue_wait.push(interval);
                    }
                    SOLVE_SPAN => {
                        worker.solve_us += dur;
                        solve.push(interval);
                    }
                    REPLY_SPAN => worker.reply_us += dur,
                    _ => {}
                }
            }
            "i" | "I" => match name {
                ADMIT_INSTANT => admitted += 1,
                REJECT_INSTANT => rejected += 1,
                _ => {}
            },
            _ => {}
        }
    }

    // Only lanes that did daemon work become worker rows; the client
    // threads that emitted the admit/reject instants do not.
    let workers: Vec<DaemonWorkerSummary> = workers
        .into_iter()
        .filter(|(_, w)| w.requests > 0 || w.solve_us > 0.0 || w.reply_us > 0.0)
        .map(|(pid, w)| DaemonWorkerSummary {
            pid,
            label: labels.get(&pid).cloned().unwrap_or_default(),
            requests: w.requests,
            queue_wait_us: w.queue_wait_us,
            solve_us: w.solve_us,
            reply_us: w.reply_us,
        })
        .collect();

    let executed = workers.iter().map(|w| w.requests).sum();
    let (queue_wait, solve) = (union(queue_wait), union(solve));
    // `+ 0.0` normalizes the IEEE `-0.0` of an empty sum (see analyze()).
    Ok(DaemonReport {
        workers,
        admitted,
        rejected,
        executed,
        queue_wait_us: queue_wait.iter().map(|iv| iv.end - iv.start).sum::<f64>() + 0.0,
        solve_us: solve.iter().map(|iv| iv.end - iv.start).sum::<f64>() + 0.0,
        overlap_us: intersection_us(&queue_wait, &solve),
    })
}

/// Parses the trace text and runs the daemon analysis in one step.
///
/// # Errors
///
/// Returns a message on malformed JSON or a non-trace document.
pub fn analyze_daemon_str(text: &str) -> Result<DaemonReport, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    analyze_daemon(&doc)
}

fn ms(us: f64) -> f64 {
    us / 1000.0
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace report ({} lanes)", self.lanes.len())?;
        for lane in &self.lanes {
            let label = if lane.label.is_empty() {
                "unnamed".to_string()
            } else {
                lane.label.clone()
            };
            writeln!(
                f,
                "\nlane pid {} — {} ({:.2} ms in spans)",
                lane.pid,
                label,
                ms(lane.busy_us())
            )?;
            if lane.dropped > 0 {
                writeln!(
                    f,
                    "  WARNING: ring buffer wrapped, {} oldest events lost",
                    lane.dropped
                )?;
            }
            for span in &lane.spans {
                writeln!(
                    f,
                    "  {:<15} {:>10.2} ms  ({} calls)",
                    span.name,
                    ms(span.total_us),
                    span.count
                )?;
            }
            for (name, count) in &lane.instants {
                writeln!(f, "  {name:<15} {count:>10} instants")?;
            }
        }
        writeln!(
            f,
            "\ninference vs solve: inference {:.2} ms, solve {:.2} ms, overlap {:.2} ms",
            ms(self.overlap.inference_us),
            ms(self.overlap.solve_us),
            ms(self.overlap.overlap_us)
        )?;
        if self.overlap.inference_us > 0.0 {
            writeln!(
                f,
                "  {:.1}% of inference ran concurrently with solving",
                100.0 * self.overlap.overlap_us / self.overlap.inference_us
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for DaemonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "daemon trace report ({} worker lanes)",
            self.workers.len()
        )?;
        writeln!(
            f,
            "admission: {} admitted, {} rejected, {} executed by workers",
            self.admitted, self.rejected, self.executed
        )?;
        for w in &self.workers {
            let label = if w.label.is_empty() {
                "unnamed".to_string()
            } else {
                w.label.clone()
            };
            writeln!(
                f,
                "  lane pid {} — {}: {} requests, queue-wait {:.2} ms, \
                 solve {:.2} ms, reply {:.2} ms",
                w.pid,
                label,
                w.requests,
                ms(w.queue_wait_us),
                ms(w.solve_us),
                ms(w.reply_us)
            )?;
        }
        writeln!(
            f,
            "\nqueue-wait vs solve: queued {:.2} ms, solving {:.2} ms, overlap {:.2} ms",
            ms(self.queue_wait_us),
            ms(self.solve_us),
            ms(self.overlap_us)
        )?;
        if self.queue_wait_us > 0.0 {
            writeln!(
                f,
                "  {:.1}% of queue-wait accrued while a worker was solving",
                100.0 * self.overlap_us / self.queue_wait_us
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::trace::{chrome_trace, ThreadLog, TraceEvent, TraceKind};

    fn ev(kind: TraceKind, name: &'static str, t_us: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name,
            t_ns: t_us * 1000,
            args: [("", 0); 2],
        }
    }

    fn sample_trace() -> Json {
        let pipeline = ThreadLog {
            pid: 0,
            label: "main".to_string(),
            dropped: 0,
            events: vec![
                ev(TraceKind::Begin, "feature-extract", 0),
                ev(TraceKind::End, "feature-extract", 100),
                ev(TraceKind::Begin, "gnn-forward", 100),
                ev(TraceKind::End, "gnn-forward", 250),
            ],
        };
        let worker = ThreadLog {
            pid: 1,
            label: "solver".to_string(),
            dropped: 3,
            events: vec![
                ev(TraceKind::Begin, "solve", 200),
                ev(TraceKind::Instant, "fallback-rung", 300),
                ev(TraceKind::Instant, "inference-panic", 450),
                ev(TraceKind::Instant, "fallback-rung", 500),
                ev(TraceKind::End, "solve", 1200),
            ],
        };
        chrome_trace(&[pipeline, worker])
    }

    #[test]
    fn per_lane_breakdown_and_latency() {
        let report = analyze(&sample_trace()).unwrap();
        assert_eq!(report.lanes.len(), 2);

        let main = &report.lanes[0];
        assert_eq!(main.pid, 0);
        assert_eq!(main.spans.len(), 2);
        let gnn = main.spans.iter().find(|s| s.name == "gnn-forward").unwrap();
        assert!((gnn.total_us - 150.0).abs() < 1e-6);

        let worker = &report.lanes[1];
        assert_eq!(worker.label, "solver");
        assert_eq!(worker.dropped, 3);
        let solve = &worker.spans[0];
        assert_eq!((solve.name.as_str(), solve.count), ("solve", 1));
        assert!((solve.total_us - 1000.0).abs() < 1e-6);

        // Instants are counted per lane, most frequent first (the
        // exporter's `trace-dropped` marker included).
        assert_eq!(
            worker.instants,
            vec![
                ("fallback-rung".to_string(), 2),
                ("inference-panic".to_string(), 1),
                ("trace-dropped".to_string(), 1)
            ]
        );

        // Inference [0, 250) vs solve [200, 1200): 50µs overlap.
        assert!((report.overlap.inference_us - 250.0).abs() < 1e-6);
        assert!((report.overlap.solve_us - 1000.0).abs() < 1e-6);
        assert!((report.overlap.overlap_us - 50.0).abs() < 1e-6);

        let text = report.to_string();
        assert!(text.contains("lane pid 1"));
        assert!(text.contains("fallback-rung"));
        assert!(text.contains("ring buffer wrapped, 3"));
    }

    #[test]
    fn round_trips_through_serialized_json() {
        let text = sample_trace().to_string();
        let report = analyze_str(&text).unwrap();
        assert_eq!(report, analyze(&sample_trace()).unwrap());
    }

    #[test]
    fn rejects_non_trace_documents() {
        assert!(analyze_str("{}").is_err());
        assert!(analyze_str("not json at all").is_err());
        assert!(analyze_str("{\"traceEvents\": [{}]}").is_err());
        // Empty input: a one-line error, not a panic.
        let err = analyze_str("").expect_err("empty input");
        assert!(!err.contains('\n'), "{err}");
        assert!(err.starts_with("invalid JSON: "), "{err}");
        // Pathologically deep nesting must fail the same way (the parser
        // bounds recursion rather than overflowing the stack).
        let err = analyze_str(&"[".repeat(100_000)).expect_err("deep nesting");
        assert!(err.contains("nesting too deep"), "{err}");
        assert!(!err.contains('\n'), "{err}");
    }

    fn sample_daemon_trace() -> Json {
        // A client lane that admitted three requests and rejected one,
        // plus two worker lanes. Worker 1 executes two requests
        // back-to-back; worker 2 executes one whose queue wait overlaps
        // worker 1's first solve.
        let client = ThreadLog {
            pid: 0,
            label: "client".to_string(),
            dropped: 0,
            events: vec![
                ev(TraceKind::Instant, "daemon-admit", 0),
                ev(TraceKind::Instant, "daemon-admit", 10),
                ev(TraceKind::Instant, "daemon-reject", 15),
                ev(TraceKind::Instant, "daemon-admit", 20),
            ],
        };
        let worker1 = ThreadLog {
            pid: 1,
            label: "daemon-worker-0".to_string(),
            dropped: 0,
            events: vec![
                ev(TraceKind::Begin, "queue-wait", 0),
                ev(TraceKind::End, "queue-wait", 50),
                ev(TraceKind::Begin, "solve", 50),
                ev(TraceKind::End, "solve", 250),
                ev(TraceKind::Begin, "reply", 250),
                ev(TraceKind::End, "reply", 260),
                ev(TraceKind::Begin, "queue-wait", 260),
                ev(TraceKind::End, "queue-wait", 270),
                ev(TraceKind::Begin, "solve", 270),
                ev(TraceKind::End, "solve", 370),
                ev(TraceKind::Begin, "reply", 370),
                ev(TraceKind::End, "reply", 375),
            ],
        };
        let worker2 = ThreadLog {
            pid: 2,
            label: "daemon-worker-1".to_string(),
            dropped: 0,
            events: vec![
                ev(TraceKind::Begin, "queue-wait", 20),
                ev(TraceKind::End, "queue-wait", 120),
                ev(TraceKind::Begin, "solve", 120),
                ev(TraceKind::End, "solve", 200),
                ev(TraceKind::Begin, "reply", 200),
                ev(TraceKind::End, "reply", 204),
            ],
        };
        chrome_trace(&[client, worker1, worker2])
    }

    #[test]
    fn daemon_report_breaks_down_admission_and_overlap() {
        let report = analyze_daemon(&sample_daemon_trace()).unwrap();
        assert_eq!(report.admitted, 3);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.executed, 3);

        // The client lane emitted only instants, so it is not a worker.
        assert_eq!(report.workers.len(), 2);
        let w1 = &report.workers[0];
        assert_eq!((w1.pid, w1.requests), (1, 2));
        assert_eq!(w1.label, "daemon-worker-0");
        assert!((w1.queue_wait_us - 60.0).abs() < 1e-6);
        assert!((w1.solve_us - 300.0).abs() < 1e-6);
        assert!((w1.reply_us - 15.0).abs() < 1e-6);
        let w2 = &report.workers[1];
        assert_eq!((w2.pid, w2.requests), (2, 1));

        // Queue-wait union: [0,50) ∪ [260,270) ∪ [20,120) = [0,120) ∪
        // [260,270) = 130µs. Solve union: [50,250) ∪ [270,370) ∪
        // [120,200) = [50,250) ∪ [270,370) = 300µs. Overlap: [50,120) ∪
        // [260,270)∩∅ … = [50,120) = 70µs.
        assert!((report.queue_wait_us - 130.0).abs() < 1e-6);
        assert!((report.solve_us - 300.0).abs() < 1e-6);
        assert!((report.overlap_us - 70.0).abs() < 1e-6);

        let text = report.to_string();
        assert!(
            text.contains("3 admitted, 1 rejected, 3 executed"),
            "{text}"
        );
        assert!(text.contains("daemon-worker-0"), "{text}");
        assert!(text.contains("% of queue-wait"), "{text}");
    }

    #[test]
    fn daemon_report_rejects_non_trace_documents() {
        assert!(analyze_daemon_str("{}").is_err());
        assert!(analyze_daemon_str("nope").is_err());
        // An empty trace is a valid, all-zero report, not an error.
        let report = analyze_daemon_str("{\"traceEvents\":[]}").unwrap();
        assert_eq!((report.admitted, report.executed), (0, 0));
        assert_eq!(report.queue_wait_us, 0.0);
        assert!(!report.to_string().contains("-0.00"));
    }

    #[test]
    fn interval_union_and_intersection() {
        let a = union(vec![
            Interval {
                start: 0.0,
                end: 10.0,
            },
            Interval {
                start: 5.0,
                end: 20.0,
            },
            Interval {
                start: 30.0,
                end: 40.0,
            },
        ]);
        assert_eq!(a.len(), 2);
        let b = union(vec![Interval {
            start: 15.0,
            end: 35.0,
        }]);
        assert!((intersection_us(&a, &b) - 10.0).abs() < 1e-9);
    }
}
