//! Pluggable event sinks: where instrumentation goes when it leaves
//! the solver.

use crate::json::{FromJson, FromJsonError, Json, ToJson};
use crate::record::{RequestRecord, RunRecord};
use crate::SCHEMA_VERSION;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A structured telemetry event.
///
/// Every event serializes to a single JSON object carrying
/// `"schema_version"` and a discriminating `"event"` field, so a JSONL
/// stream stays self-describing line by line.
// `SolveEnd` carries the full run summary and dwarfs the other variants;
// events are created once per emission, never stored in bulk, so the
// size imbalance is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A solve began on one instance.
    SolveStart {
        /// Instance identity (file name, generator tag, …).
        instance_id: String,
        /// Deletion policy installed when the search starts (display
        /// name). A solve that picks its policy at its first deleting
        /// reduction starts under the default, and its `solve_end` record
        /// names the policy it ended with.
        policy: String,
        /// Variable count of the input formula.
        num_vars: u64,
        /// Clause count of the input formula.
        num_clauses: u64,
    },
    /// A periodic heartbeat while solving.
    Progress {
        /// Conflicts so far.
        conflicts: u64,
        /// Propagations (literal assignments by BCP) so far.
        propagations: u64,
        /// Decisions so far.
        decisions: u64,
        /// Live learned clauses right now.
        learned: u64,
        /// Seconds since the solve started.
        elapsed_s: f64,
        /// Conflict throughput since the solve started.
        conflicts_per_sec: f64,
        /// Propagation throughput since the solve started.
        propagations_per_sec: f64,
    },
    /// A clause-database reduction completed.
    Reduction {
        /// 1-based ordinal of this reduction within the run.
        reduction_no: u64,
        /// Clauses considered for deletion.
        candidates: u64,
        /// Clauses actually deleted.
        deleted: u64,
        /// Live learned clauses after the reduction.
        learned_after: u64,
        /// Conflicts at the time of the reduction.
        conflicts: u64,
    },
    /// The solve finished; carries the full summary.
    SolveEnd {
        /// Per-instance run summary.
        record: RunRecord,
    },
    /// An admitted daemon request reached its terminal state; carries
    /// the per-request accounting summary.
    RequestEnd {
        /// Per-request daemon summary.
        record: RequestRecord,
    },
}

impl Event {
    /// The value of this event's `"event"` discriminator field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SolveStart { .. } => "solve_start",
            Event::Progress { .. } => "progress",
            Event::Reduction { .. } => "reduction",
            Event::SolveEnd { .. } => "solve_end",
            Event::RequestEnd { .. } => "request_end",
        }
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let base = Json::object()
            .with("schema_version", Json::from(SCHEMA_VERSION))
            .with("event", Json::from(self.kind()));
        match self {
            Event::SolveStart {
                instance_id,
                policy,
                num_vars,
                num_clauses,
            } => base
                .with("instance_id", Json::from(instance_id.as_str()))
                .with("policy", Json::from(policy.as_str()))
                .with("num_vars", Json::from(*num_vars))
                .with("num_clauses", Json::from(*num_clauses)),
            Event::Progress {
                conflicts,
                propagations,
                decisions,
                learned,
                elapsed_s,
                conflicts_per_sec,
                propagations_per_sec,
            } => base
                .with("conflicts", Json::from(*conflicts))
                .with("propagations", Json::from(*propagations))
                .with("decisions", Json::from(*decisions))
                .with("learned", Json::from(*learned))
                .with("elapsed_s", Json::from(*elapsed_s))
                .with("conflicts_per_sec", Json::from(*conflicts_per_sec))
                .with("propagations_per_sec", Json::from(*propagations_per_sec)),
            Event::Reduction {
                reduction_no,
                candidates,
                deleted,
                learned_after,
                conflicts,
            } => base
                .with("reduction_no", Json::from(*reduction_no))
                .with("candidates", Json::from(*candidates))
                .with("deleted", Json::from(*deleted))
                .with("learned_after", Json::from(*learned_after))
                .with("conflicts", Json::from(*conflicts)),
            Event::SolveEnd { record } => base.with("record", record.to_json()),
            Event::RequestEnd { record } => base.with("record", record.to_json()),
        }
    }
}

impl FromJson for Event {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let kind = value
            .get("event")
            .and_then(Json::as_str)
            .ok_or(FromJsonError::field("event"))?;
        let u64_field = |key: &str| -> Result<u64, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(FromJsonError::field(key))
        };
        let f64_field = |key: &str| -> Result<f64, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(FromJsonError::field(key))
        };
        match kind {
            "solve_start" => Ok(Event::SolveStart {
                instance_id: value
                    .get("instance_id")
                    .and_then(Json::as_str)
                    .ok_or(FromJsonError::field("instance_id"))?
                    .to_string(),
                policy: value
                    .get("policy")
                    .and_then(Json::as_str)
                    .ok_or(FromJsonError::field("policy"))?
                    .to_string(),
                num_vars: u64_field("num_vars")?,
                num_clauses: u64_field("num_clauses")?,
            }),
            "progress" => Ok(Event::Progress {
                conflicts: u64_field("conflicts")?,
                propagations: u64_field("propagations")?,
                decisions: u64_field("decisions")?,
                learned: u64_field("learned")?,
                elapsed_s: f64_field("elapsed_s")?,
                conflicts_per_sec: f64_field("conflicts_per_sec")?,
                propagations_per_sec: f64_field("propagations_per_sec")?,
            }),
            "reduction" => Ok(Event::Reduction {
                reduction_no: u64_field("reduction_no")?,
                candidates: u64_field("candidates")?,
                deleted: u64_field("deleted")?,
                learned_after: u64_field("learned_after")?,
                conflicts: u64_field("conflicts")?,
            }),
            "solve_end" => Ok(Event::SolveEnd {
                record: RunRecord::from_json(
                    value.get("record").ok_or(FromJsonError::field("record"))?,
                )?,
            }),
            "request_end" => Ok(Event::RequestEnd {
                record: RequestRecord::from_json(
                    value.get("record").ok_or(FromJsonError::field("record"))?,
                )?,
            }),
            other => Err(FromJsonError::new(format!("unknown event kind `{other}`"))),
        }
    }
}

/// A destination for [`Event`]s.
///
/// Sinks must be `Send` so a solver can move to a worker thread (`rsatd`
/// hands each session's solver to one of its workers). Implementations
/// should be cheap: the solver calls `emit` from inside its search loop
/// for progress heartbeats.
pub trait Sink: Send {
    /// Consumes one event.
    fn emit(&mut self, event: &Event);

    /// Flushes any buffered output. The default does nothing.
    fn flush(&mut self) {}
}

/// The zero-cost default sink: drops every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline]
    fn emit(&mut self, _event: &Event) {}
}

/// An in-memory sink for tests: records every event, shareable across
/// threads via a clone of its handle.
///
/// # Examples
///
/// ```
/// use telemetry::{Event, MemorySink, RunRecord, Sink};
///
/// let mut sink = MemorySink::default();
/// let events = sink.events_handle();
/// sink.emit(&Event::SolveEnd { record: RunRecord::new("i", "default") });
/// assert_eq!(events.lock().unwrap().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A shared handle to the recorded events.
    pub fn events_handle(&self) -> Arc<Mutex<Vec<Event>>> {
        Arc::clone(&self.events)
    }

    /// A snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Writes one JSON object per line to any [`Write`] target.
///
/// Lines follow the versioned event schema (see [`SCHEMA_VERSION`] and
/// DESIGN.md); field names are stable within a schema version.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer; each emitted event becomes one line.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
        }
    }

    /// The first I/O error hit while emitting or flushing, if any.
    ///
    /// Telemetry must never take the solver down, so write failures do not
    /// panic and do not propagate — but they are not silently swallowed
    /// either: the first error is retained here and all subsequent emits
    /// become no-ops (a failed writer never receives a fresh line that
    /// could interleave with a torn one).
    pub fn last_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Unwraps the inner writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        // One write_all per record: every line preceding a mid-line I/O
        // failure is complete and parseable — torn bytes can only appear
        // at the exact cut point, never before it.
        let mut line = event.to_json().to_string();
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            self.error.get_or_insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mut record = RunRecord::new("inst-1", "prop-freq");
        record.result = "SAT".to_string();
        let mut request = RequestRecord::new(9, 4);
        request.verdict = "sat".to_string();
        request.queue_wait_ms = 1.5;
        request.solve_ms = 12.0;
        vec![
            Event::SolveStart {
                instance_id: "inst-1".to_string(),
                policy: "prop-freq".to_string(),
                num_vars: 50,
                num_clauses: 218,
            },
            Event::Progress {
                conflicts: 1000,
                propagations: 50_000,
                decisions: 1500,
                learned: 800,
                elapsed_s: 0.5,
                conflicts_per_sec: 2000.0,
                propagations_per_sec: 100_000.0,
            },
            Event::Reduction {
                reduction_no: 1,
                candidates: 600,
                deleted: 300,
                learned_after: 500,
                conflicts: 2000,
            },
            Event::SolveEnd { record },
            Event::RequestEnd { record: request },
        ]
    }

    #[test]
    fn every_event_kind_roundtrips() {
        for event in sample_events() {
            let j = event.to_json();
            assert_eq!(
                j.get("schema_version").and_then(Json::as_u64),
                Some(u64::from(SCHEMA_VERSION))
            );
            assert_eq!(j.get("event").and_then(Json::as_str), Some(event.kind()));
            assert_eq!(Event::from_json(&j).unwrap(), event);
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        for event in sample_events() {
            sink.emit(&event);
        }
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        for (line, event) in lines.iter().zip(sample_events()) {
            let parsed = Json::parse(line).unwrap();
            assert_eq!(Event::from_json(&parsed).unwrap(), event);
        }
    }

    #[test]
    fn memory_sink_is_observable_through_its_handle() {
        let mut sink = MemorySink::default();
        let handle = sink.events_handle();
        for event in sample_events() {
            sink.emit(&event);
        }
        assert_eq!(handle.lock().unwrap().len(), 5);
        assert_eq!(sink.events(), sample_events());
    }

    #[test]
    fn null_sink_drops_everything() {
        let mut sink = NullSink;
        for event in sample_events() {
            sink.emit(&event);
        }
        // Nothing to observe — the point is that this compiles and is free.
    }

    #[test]
    fn sinks_are_object_safe_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let mut boxed: Box<dyn Sink> = Box::new(JsonlSink::new(Vec::new()));
        assert_send(&boxed);
        boxed.emit(&sample_events()[0]);
        boxed.flush();
    }
}
