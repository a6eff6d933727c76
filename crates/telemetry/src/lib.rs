//! Structured observability for the NeuroSelect workspace.
//!
//! The paper's whole argument rests on in-flight solver measurements —
//! propagation-frequency snapshots, per-policy deletion behaviour, runtime
//! deltas with GNN inference accounted separately from solving. This crate
//! is the measurement substrate those experiments (and every later
//! performance PR) report against:
//!
//! * [`Phase`] / [`PhaseTimes`] — scoped wall-time and call counts for the
//!   solver's `propagate` / `analyze` / `minimize` / `reduce` / `restart` /
//!   `inprocess` phases and the pipeline's `feature-extract` /
//!   `gnn-forward` / `policy-select` phases;
//! * [`Sink`] — pluggable event output: [`NullSink`] (the zero-cost
//!   default), [`MemorySink`] (tests), and [`JsonlSink`] (versioned,
//!   schema-stable JSONL records);
//! * [`RunRecord`] — the one-per-instance summary (instance id, policy,
//!   result and stop cause, stats, per-phase timings, peak clause-DB
//!   size), and [`RequestRecord`], its counterpart for one `rsatd`
//!   request (queue wait, solve time, worker).
//!
//! Serialization is handled by the self-contained [`json`] module (the
//! build environment is offline, so `serde`/`serde_json` are replaced by
//! [`json::ToJson`] / [`json::FromJson`] with the same derive-style
//! round-trip contract).
//!
//! # Schema stability
//!
//! Every emitted JSONL event carries `"schema_version"`. Field renames or
//! removals bump [`SCHEMA_VERSION`]; adding fields does not. A golden-file
//! test in this crate pins the current schema.
//!
//! # Examples
//!
//! ```
//! use telemetry::{Event, JsonlSink, Phase, PhaseTimes, RunRecord, Sink};
//! use std::time::Duration;
//!
//! let mut phases = PhaseTimes::default();
//! phases.add(Phase::Propagate, Duration::from_micros(250));
//!
//! let mut record = RunRecord::new("example-instance", "default");
//! record.result = "SAT".to_string();
//! record.phases = phases;
//!
//! let mut sink = JsonlSink::new(Vec::new());
//! sink.emit(&Event::SolveEnd { record });
//! let out = String::from_utf8(sink.into_inner()).unwrap();
//! assert!(out.contains("\"schema_version\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;

mod phase;
mod record;
mod sink;

pub use phase::{Phase, PhaseGuard, PhaseTimes};
pub use record::{Degradation, RequestRecord, RunRecord};
pub use sink::{Event, JsonlSink, MemorySink, NullSink, Sink};

/// Version of the JSONL event schema emitted by [`JsonlSink`].
///
/// Bumped on any breaking change (field rename/removal or semantic
/// change); purely additive fields do not bump it. Version 2 added the
/// always-present `degradations` array to [`RunRecord`] (bumped, despite
/// being additive, because degraded-mode accounting changes how consumers
/// must interpret an `UNKNOWN` result: absence of the field no longer
/// implies a fully healthy run).
pub const SCHEMA_VERSION: u32 = 2;
