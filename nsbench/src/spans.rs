//! The traced run's span recorder.
//!
//! Every request opens a `request` span; each layer call inside it opens a
//! child span. Spans carry a name, start, end, parent and the request id,
//! stay in memory, and are analysed (self time, per-name totals) or
//! exported as Chrome trace-event JSON once the run is over. One recorder
//! belongs to one thread; a run with several client threads keeps one
//! recorder per thread, a *lane* of the exported trace.
//!
//! A disabled recorder keeps nothing, so the untraced run can share code
//! with the traced one at the price of one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `cnf.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The request this span belongs to (0 outside requests).
    pub request: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, closed with [`Recorder::exit`].
#[must_use = "a span stays open until passed to Recorder::exit"]
#[derive(Debug)]
pub struct SpanId(Option<usize>);

/// Per-thread span and counter store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counters: BTreeMap<&'static str, f64>,
    /// Daemon request id of every solve round trip, for the join against
    /// the daemon's request records.
    daemon_ids: Vec<u64>,
}

impl Recorder {
    /// A recorder timing against `epoch`; records nothing unless `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
            daemon_ids: Vec::new(),
        }
    }

    /// Whether spans and counters are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let i = self.push(name, start_ns, start_ns);
        self.open.push(i);
        SpanId(Some(i))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(i) = id.0 else {
            return;
        };
        let end_ns = self.now_ns();
        self.spans[i].end_ns = end_ns;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(i), "spans must close innermost first");
    }

    /// Opens the `request` span of request `id`; its children inherit it.
    pub fn begin_request(&mut self, id: u64) -> SpanId {
        self.request = id;
        self.enter("request")
    }

    /// Closes a request span opened by [`begin_request`](Self::begin_request).
    pub fn end_request(&mut self, id: SpanId) {
        self.exit(id);
        self.request = 0;
    }

    /// Appends a span with explicit times under the innermost open span.
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.spans.len() - 1
    }

    /// Adds `value` to a named counter.
    pub fn add(&mut self, counter: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(counter).or_insert(0.0) += value;
        }
    }

    /// Tags the span `id` (a solve round trip) with the daemon's request id.
    pub fn tag_daemon_request(&mut self, id: &SpanId, daemon_request: u64) {
        if id.0.is_some() {
            self.daemon_ids.push(daemon_request);
        }
    }

    /// Each span's self time: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }
}

/// Read-only view over every lane of one traced run.
pub struct Trace<'a> {
    lanes: &'a [Recorder],
}

impl<'a> Trace<'a> {
    /// A view over the lanes of one run.
    pub fn new(lanes: &'a [Recorder]) -> Self {
        Trace { lanes }
    }

    fn named(&self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.lanes
            .iter()
            .flat_map(|l| l.spans.iter())
            .filter(move |s| s.name == name)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Summed wall time of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).fold(0.0, |sum, s| sum + s.dur_ns() as f64) / 1e6
    }

    /// Summed self time of spans named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0u64;
        for lane in self.lanes {
            for (s, own) in lane.spans.iter().zip(lane.self_times_ns()) {
                if s.name == name {
                    total += own;
                }
            }
        }
        total as f64 / 1e6
    }

    /// A counter summed over all lanes.
    pub fn counter(&self, name: &str) -> f64 {
        self.lanes
            .iter()
            .filter_map(|l| l.counters.get(name))
            .fold(0.0, |sum, v| sum + v)
    }

    /// The daemon request id of every tagged solve round trip.
    pub fn daemon_request_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.lanes.iter().flat_map(|l| l.daemon_ids.iter().copied())
    }

    /// Chrome trace-event JSON (complete `X` events, one `tid` per lane),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (tid, lane) in self.lanes.iter().enumerate() {
            for s in &lane.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"nsbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns() as f64 / 1e3,
                    s.request
                );
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans: `(name, start, end, parent)`.
    fn lane(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new(Instant::now(), true);
        for &(name, start_ns, end_ns, parent) in spans {
            r.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: 1,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        // request [0,100) with children [10,30) and [30,70) back to back.
        let r = lane(&[
            ("request", 0, 100, None),
            ("cnf.parse", 10, 30, Some(0)),
            ("solver.search", 30, 70, Some(0)),
        ]);
        assert_eq!(r.self_times_ns(), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // request [0,100) > core.select [0,60) > neuro.forward [10,50).
        let r = lane(&[
            ("request", 0, 100, None),
            ("core.select", 0, 60, Some(0)),
            ("neuro.forward", 10, 50, Some(1)),
        ]);
        assert_eq!(r.self_times_ns(), vec![40, 20, 40]);
        let lanes = [r];
        let t = Trace::new(&lanes);
        assert_eq!(t.self_ms("request"), 40e-6);
        assert_eq!(t.total_ms("core.select"), 60e-6);
    }

    #[test]
    fn live_spans_nest_and_inherit_the_request() {
        let mut r = Recorder::new(Instant::now(), true);
        let req = r.begin_request(7);
        let child = r.enter("cnf.parse");
        r.exit(child);
        r.end_request(req);
        let outside = r.enter("neuro.forward");
        r.exit(outside);
        let s = &r.spans;
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].request), (Some(0), 7));
        assert_eq!((s[2].parent, s[2].request), (None, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), false);
        let id = r.begin_request(1);
        r.add("cnf.bytes", 5.0);
        r.tag_daemon_request(&id, 3);
        r.end_request(id);
        assert!(r.spans.is_empty() && r.daemon_ids.is_empty());
        assert_eq!(Trace::new(&[r]).counter("cnf.bytes"), 0.0);
    }

    #[test]
    fn chrome_export_is_valid_json_with_one_event_per_span() {
        let lanes = [
            lane(&[
                ("request", 0, 2_000, None),
                ("cnf.parse", 0, 1_000, Some(0)),
            ]),
            lane(&[("request", 500, 900, None)]),
        ];
        let json = telemetry::json::Json::parse(&Trace::new(&lanes).chrome_json()).unwrap();
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("tid").and_then(|t| t.as_u64()), Some(1));
        assert_eq!(events[0].get("dur").and_then(|d| d.as_f64()), Some(2.0));
    }
}
