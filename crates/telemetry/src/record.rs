//! The per-instance run summary.

use crate::json::{FromJson, FromJsonError, Json, ToJson};
use crate::phase::PhaseTimes;
use crate::SCHEMA_VERSION;

/// One solved instance, summarized: identity, policy, verdict and why an
/// `UNKNOWN` one stopped, stats, per-phase timings, and peak
/// clause-database size.
///
/// `stats` and `extra` are open JSON objects filled by the producing crate
/// (the solver serializes its `SolverStats`/`DbStats` there; experiment
/// harnesses can attach their own fields) so this crate stays
/// dependency-free at the bottom of the workspace.
///
/// # Examples
///
/// ```
/// use telemetry::json::{FromJson, ToJson};
/// use telemetry::RunRecord;
///
/// let mut record = RunRecord::new("php-6-5", "prop-freq");
/// record.result = "UNSAT".to_string();
/// record.solve_time_s = 0.125;
/// let roundtripped = RunRecord::from_json(&record.to_json()).unwrap();
/// assert_eq!(record, roundtripped);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Schema version of this record (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Instance identity (file name, generator tag, …).
    pub instance_id: String,
    /// Deletion policy the run used (display name).
    pub policy: String,
    /// Verdict: `"SAT"`, `"UNSAT"`, or `"UNKNOWN"`.
    pub result: String,
    /// Stop cause of an `"UNKNOWN"` verdict (`"conflicts"`, `"deadline"`,
    /// …); `None` for any other verdict. Same encoding as
    /// [`RequestRecord::stop_cause`].
    pub stop_cause: Option<String>,
    /// Wall-clock seconds spent solving.
    pub solve_time_s: f64,
    /// Wall-clock seconds of model inference before or during solving, if
    /// any; not counted in `solve_time_s`.
    pub inference_time_s: Option<f64>,
    /// Peak number of live learned clauses observed.
    pub peak_learned_clauses: u64,
    /// Per-phase wall time and call counts.
    pub phases: PhaseTimes,
    /// Producer-defined statistics object (e.g. serialized `SolverStats`).
    pub stats: Json,
    /// Producer-defined additional fields (a clause-database snapshot,
    /// the policy pick, …).
    pub extra: Json,
    /// Degraded-mode events observed during the run (an inference panic,
    /// a model-load error, …), in occurrence order. Empty for
    /// a fully healthy run.
    pub degradations: Vec<Degradation>,
}

/// One degraded-mode event: the system kept going, but not at full
/// fidelity, and this records why.
///
/// `kind` is a stable machine-readable tag (e.g. `"inference-panic"`,
/// `"model-load-error"`, `"session-crash"`); `detail` is free-form
/// human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Stable machine-readable tag of the event class.
    pub kind: String,
    /// Free-form human-readable context.
    pub detail: String,
}

impl Degradation {
    /// A degradation event of class `kind` with context `detail`.
    pub fn new(kind: impl Into<String>, detail: impl Into<String>) -> Self {
        Degradation {
            kind: kind.into(),
            detail: detail.into(),
        }
    }
}

impl ToJson for Degradation {
    fn to_json(&self) -> Json {
        Json::object()
            .with("kind", Json::from(self.kind.as_str()))
            .with("detail", Json::from(self.detail.as_str()))
    }
}

impl FromJson for Degradation {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let str_field = |key: &str| -> Result<String, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(FromJsonError::field(key))
        };
        Ok(Degradation {
            kind: str_field("kind")?,
            detail: str_field("detail")?,
        })
    }
}

impl RunRecord {
    /// A fresh record for `instance_id` solved under `policy`.
    pub fn new(instance_id: impl Into<String>, policy: impl Into<String>) -> Self {
        RunRecord {
            schema_version: SCHEMA_VERSION,
            instance_id: instance_id.into(),
            policy: policy.into(),
            result: String::new(),
            stop_cause: None,
            solve_time_s: 0.0,
            inference_time_s: None,
            peak_learned_clauses: 0,
            phases: PhaseTimes::default(),
            stats: Json::object(),
            extra: Json::object(),
            degradations: Vec::new(),
        }
    }

    /// Appends a degraded-mode event to this record.
    pub fn degrade(&mut self, kind: impl Into<String>, detail: impl Into<String>) {
        self.degradations.push(Degradation::new(kind, detail));
    }
}

impl ToJson for RunRecord {
    fn to_json(&self) -> Json {
        Json::object()
            .with("schema_version", Json::from(self.schema_version))
            .with("instance_id", Json::from(self.instance_id.as_str()))
            .with("policy", Json::from(self.policy.as_str()))
            .with("result", Json::from(self.result.as_str()))
            .with(
                "stop_cause",
                self.stop_cause.as_deref().map_or(Json::Null, Json::from),
            )
            .with("solve_time_s", Json::from(self.solve_time_s))
            .with(
                "inference_time_s",
                self.inference_time_s.map_or(Json::Null, Json::from),
            )
            .with(
                "peak_learned_clauses",
                Json::from(self.peak_learned_clauses),
            )
            .with("phases", self.phases.to_json())
            .with("stats", self.stats.clone())
            .with("extra", self.extra.clone())
            .with(
                "degradations",
                Json::Array(self.degradations.iter().map(ToJson::to_json).collect()),
            )
    }
}

impl FromJson for RunRecord {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
        let str_field = |key: &str| -> Result<String, FromJsonError> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(FromJsonError::field(key))
        };
        Ok(RunRecord {
            schema_version: value
                .get("schema_version")
                .and_then(Json::as_u64)
                .ok_or(FromJsonError::field("schema_version"))? as u32,
            instance_id: str_field("instance_id")?,
            policy: str_field("policy")?,
            result: str_field("result")?,
            // Absent in records written before the field existed.
            stop_cause: value
                .get("stop_cause")
                .and_then(Json::as_str)
                .map(str::to_string),
            solve_time_s: value
                .get("solve_time_s")
                .and_then(Json::as_f64)
                .ok_or(FromJsonError::field("solve_time_s"))?,
            inference_time_s: value.get("inference_time_s").and_then(Json::as_f64),
            peak_learned_clauses: value
                .get("peak_learned_clauses")
                .and_then(Json::as_u64)
                .ok_or(FromJsonError::field("peak_learned_clauses"))?,
            phases: value
                .get("phases")
                .map(PhaseTimes::from_json)
                .transpose()?
                .unwrap_or_default(),
            stats: value.get("stats").cloned().unwrap_or(Json::object()),
            extra: value.get("extra").cloned().unwrap_or(Json::object()),
            degradations: match value.get("degradations") {
                // Absent in schema-version-1 records: default to none.
                None | Some(Json::Null) => Vec::new(),
                Some(Json::Array(items)) => items
                    .iter()
                    .map(Degradation::from_json)
                    .collect::<Result<_, _>>()?,
                Some(_) => return Err(FromJsonError::field("degradations")),
            },
        })
    }
}

/// One admitted daemon request, summarized: the daemon-side sibling of
/// [`RunRecord`]. Where a `RunRecord` describes what a *solver* did, a
/// `RequestRecord` describes what the *service* did around it: which
/// session and worker handled the request, how long it waited in the
/// queue versus solved, and how it terminated (verdict, stop cause, or
/// typed error kind). Exactly one is emitted per admitted request — the
/// accounting unit for admission tuning and tail-latency triage.
///
/// # Examples
///
/// ```
/// use telemetry::json::{FromJson, ToJson};
/// use telemetry::RequestRecord;
///
/// let mut record = RequestRecord::new(7, 3);
/// record.verdict = "sat".to_string();
/// record.queue_wait_ms = 2.5;
/// record.solve_ms = 40.0;
/// let roundtripped = RequestRecord::from_json(&record.to_json()).unwrap();
/// assert_eq!(record, roundtripped);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Schema version of this record (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Daemon-minted request id, echoed verbatim in the wire reply.
    pub request_id: u64,
    /// Session the request addressed.
    pub session: u64,
    /// Worker thread index that executed the request.
    pub worker: u64,
    /// Milliseconds spent queued between admission and checkout.
    pub queue_wait_ms: f64,
    /// Milliseconds of solver wall-clock (0 for pre-solve failures).
    pub solve_ms: f64,
    /// Terminal verdict: `"sat"`, `"unsat"`, `"unknown"`, or `"error"`.
    pub verdict: String,
    /// Stop cause of an `"unknown"` verdict (`"deadline"`, `"memory"`, …).
    pub stop_cause: Option<String>,
    /// Error kind of an `"error"` verdict (`"crashed"`, `"eliminated"`, …).
    pub error_kind: Option<String>,
    /// Solver stat *deltas* attributable to this request (serialized
    /// `SolverStats`), or an empty object when the solver never ran.
    pub stats: Json,
    /// Degraded-mode events of this request, in occurrence order.
    pub degradations: Vec<Degradation>,
}

impl RequestRecord {
    /// A fresh record for request `request_id` on session `session`.
    pub fn new(request_id: u64, session: u64) -> Self {
        RequestRecord {
            schema_version: SCHEMA_VERSION,
            request_id,
            session,
            worker: 0,
            queue_wait_ms: 0.0,
            solve_ms: 0.0,
            verdict: String::new(),
            stop_cause: None,
            error_kind: None,
            stats: Json::object(),
            degradations: Vec::new(),
        }
    }

    /// Appends a degraded-mode event to this record.
    pub fn degrade(&mut self, kind: impl Into<String>, detail: impl Into<String>) {
        self.degradations.push(Degradation::new(kind, detail));
    }
}

impl ToJson for RequestRecord {
    fn to_json(&self) -> Json {
        let opt_str = |v: &Option<String>| match v {
            Some(s) => Json::from(s.as_str()),
            None => Json::Null,
        };
        Json::object()
            .with("schema_version", Json::from(self.schema_version))
            .with("request_id", Json::from(self.request_id))
            .with("session", Json::from(self.session))
            .with("worker", Json::from(self.worker))
            .with("queue_wait_ms", Json::from(self.queue_wait_ms))
            .with("solve_ms", Json::from(self.solve_ms))
            .with("verdict", Json::from(self.verdict.as_str()))
            .with("stop_cause", opt_str(&self.stop_cause))
            .with("error_kind", opt_str(&self.error_kind))
            .with("stats", self.stats.clone())
            .with(
                "degradations",
                Json::Array(self.degradations.iter().map(ToJson::to_json).collect()),
            )
    }
}

impl FromJson for RequestRecord {
    fn from_json(value: &Json) -> Result<Self, FromJsonError> {
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
        let opt_str = |key: &str| value.get(key).and_then(Json::as_str).map(str::to_string);
        Ok(RequestRecord {
            schema_version: u64_field("schema_version")? as u32,
            request_id: u64_field("request_id")?,
            session: u64_field("session")?,
            worker: u64_field("worker")?,
            queue_wait_ms: f64_field("queue_wait_ms")?,
            solve_ms: f64_field("solve_ms")?,
            verdict: value
                .get("verdict")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(FromJsonError::field("verdict"))?,
            stop_cause: opt_str("stop_cause"),
            error_kind: opt_str("error_kind"),
            stats: value.get("stats").cloned().unwrap_or(Json::object()),
            degradations: match value.get("degradations") {
                None | Some(Json::Null) => Vec::new(),
                Some(Json::Array(items)) => items
                    .iter()
                    .map(Degradation::from_json)
                    .collect::<Result<_, _>>()?,
                Some(_) => return Err(FromJsonError::field("degradations")),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;
    use std::time::Duration;

    #[test]
    fn roundtrip_full_record() {
        let mut r = RunRecord::new("inst", "default");
        r.result = "SAT".to_string();
        r.solve_time_s = 1.5;
        r.inference_time_s = Some(0.01);
        r.peak_learned_clauses = 321;
        r.phases.add(Phase::Propagate, Duration::from_micros(7));
        r.stats = Json::object().with("conflicts", Json::from(9u64));
        r.extra = Json::object().with("note", Json::from("x"));
        assert_eq!(RunRecord::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn optional_inference_time_serializes_as_null() {
        let r = RunRecord::new("i", "p");
        let j = r.to_json();
        assert_eq!(j.get("inference_time_s"), Some(&Json::Null));
        assert_eq!(RunRecord::from_json(&j).unwrap().inference_time_s, None);
    }

    #[test]
    fn missing_required_field_is_an_error() {
        let j = RunRecord::new("i", "p").to_json();
        let Json::Object(mut fields) = j else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "instance_id");
        assert!(RunRecord::from_json(&Json::Object(fields)).is_err());
    }

    #[test]
    fn roundtrip_full_request_record() {
        let mut r = RequestRecord::new(42, 7);
        r.worker = 1;
        r.queue_wait_ms = 3.25;
        r.solve_ms = 120.5;
        r.verdict = "unknown".to_string();
        r.stop_cause = Some("deadline".to_string());
        r.stats = Json::object().with("conflicts", Json::from(9u64));
        r.degrade("daemon-degraded", "deadline");
        assert_eq!(RequestRecord::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn error_request_record_roundtrips_with_null_stop_cause() {
        let mut r = RequestRecord::new(1, 2);
        r.verdict = "error".to_string();
        r.error_kind = Some("crashed".to_string());
        let j = r.to_json();
        assert_eq!(j.get("stop_cause"), Some(&Json::Null));
        assert_eq!(RequestRecord::from_json(&j).unwrap(), r);
    }

    #[test]
    fn request_record_missing_required_field_is_an_error() {
        let j = RequestRecord::new(1, 2).to_json();
        let Json::Object(mut fields) = j else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "request_id");
        assert!(RequestRecord::from_json(&Json::Object(fields)).is_err());
    }
}
