//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one JSON object per request; responses are one
//! JSON object per line and carry the request's `id` verbatim, so
//! clients may pipeline and the daemon may answer out of order (solves
//! complete asynchronously; everything else answers in order).
//!
//! ```text
//! -> {"id":1,"op":"open","vars":3,"clauses":[[1,2],[-1,3]],"freeze":[2]}
//! <- {"id":1,"ok":true,"session":1}
//! -> {"id":2,"op":"solve","session":1,"assumptions":[-2],"deadline_ms":500}
//! <- {"id":2,"ok":true,"verdict":"sat","conflicts":0,"propagations":2,
//!     "duration_ms":0,"memory_bytes":4096}
//! -> {"id":3,"op":"model","session":1}
//! <- {"id":3,"ok":true,"model":[1,-2,3]}
//! ```
//!
//! Errors are always `{"id":…,"ok":false,"request_id":…,"error":
//! {"kind":…,"message":…}}` with `retry_after_ms` present exactly on
//! `busy` rejections. `request_id` is the daemon-minted id of the
//! admitted request the error belongs to — explicitly `null` on
//! pre-admission failures (malformed input, admission rejections), so a
//! client can always distinguish "never admitted" from "admitted as
//! request N and then failed". Solve replies carry the same
//! `request_id`, matching the id in the daemon's per-request JSONL
//! records. Malformed input never kills the connection: an unparseable
//! line is answered with `"kind":"malformed"` and a `null` id, an
//! oversized line (over [`MAX_REQUEST_BYTES`]) with
//! `"kind":"oversized"`, and an unknown `op` with
//! `"kind":"unknown-op"`.

use telemetry::json::Json;

use crate::daemon::{DaemonError, SolveReply};

/// Hard cap on one request line, including the newline. Longer lines
/// are rejected (and drained) without buffering them in full.
pub const MAX_REQUEST_BYTES: usize = 4 << 20;

/// A request that failed before reaching the daemon, answered with a
/// typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable machine-readable tag (`"malformed"`, `"unknown-op"`,
    /// `"oversized"`, `"bad-request"`).
    pub kind: &'static str,
    /// Human-readable context.
    pub message: String,
}

impl WireError {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }
}

/// A decoded protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session over `vars` variables, optionally seeding clauses
    /// and freezing assumption candidates.
    Open {
        /// Variable count, fixed for the session's lifetime.
        vars: u32,
        /// Enable in-search inprocessing for the session.
        inprocess: bool,
        /// Initial clauses (DIMACS-signed literals).
        clauses: Vec<Vec<i64>>,
        /// Literals whose variables must survive inprocessing.
        freeze: Vec<i64>,
    },
    /// Append clauses to a session.
    AddClauses {
        /// Target session.
        session: u64,
        /// Clauses to add (DIMACS-signed literals).
        clauses: Vec<Vec<i64>>,
    },
    /// Freeze assumption candidates in a session.
    Freeze {
        /// Target session.
        session: u64,
        /// Literals whose variables must survive inprocessing.
        lits: Vec<i64>,
    },
    /// Solve under assumptions with an optional deadline.
    Solve {
        /// Target session.
        session: u64,
        /// Assumption literals (DIMACS-signed).
        assumptions: Vec<i64>,
        /// Wall-clock deadline override in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Fetch the model of the last SAT verdict.
    Model {
        /// Target session.
        session: u64,
    },
    /// Fetch the failed-assumption core of the last UNSAT verdict.
    Core {
        /// Target session.
        session: u64,
    },
    /// Close a session.
    Close {
        /// Target session.
        session: u64,
    },
    /// Daemon occupancy and robustness counters.
    Status,
    /// Graceful drain: stop admitting, finish in-flight work, exit.
    Shutdown,
}

/// One parsed request line: the echoed `id` plus either the request or
/// the wire error to answer with.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The client's correlation id (echoed verbatim; `null` if absent
    /// or unparseable).
    pub id: Json,
    /// The decoded request, or the error that stops it.
    pub req: Result<Request, WireError>,
}

/// Parses one request line. Never panics; every malformation maps to a
/// typed [`WireError`].
pub fn parse_request(line: &str) -> Envelope {
    if line.len() > MAX_REQUEST_BYTES {
        return Envelope {
            id: Json::Null,
            req: Err(WireError::new(
                "oversized",
                format!(
                    "request of {} bytes exceeds the {} byte cap",
                    line.len(),
                    MAX_REQUEST_BYTES
                ),
            )),
        };
    }
    let value = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Envelope {
                id: Json::Null,
                req: Err(WireError::new("malformed", e.to_string())),
            }
        }
    };
    let id = value.get("id").cloned().unwrap_or(Json::Null);
    let req = decode(&value);
    Envelope { id, req }
}

fn decode(value: &Json) -> Result<Request, WireError> {
    if value.as_object().is_none() {
        return Err(WireError::new("malformed", "request is not a JSON object"));
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new("bad-request", "missing string field `op`"))?;
    match op {
        "open" => Ok(Request::Open {
            vars: u32_field(value, "vars")?,
            inprocess: value
                .get("inprocess")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            clauses: clauses_field(value, "clauses")?,
            freeze: lits_field(value, "freeze")?,
        }),
        "add_clauses" => Ok(Request::AddClauses {
            session: u64_field(value, "session")?,
            clauses: clauses_field(value, "clauses")?,
        }),
        "freeze" => Ok(Request::Freeze {
            session: u64_field(value, "session")?,
            lits: lits_field(value, "lits")?,
        }),
        "solve" => Ok(Request::Solve {
            session: u64_field(value, "session")?,
            assumptions: lits_field(value, "assumptions")?,
            deadline_ms: match value.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| {
                    WireError::new(
                        "bad-request",
                        "`deadline_ms` must be a non-negative integer",
                    )
                })?),
            },
        }),
        "model" => Ok(Request::Model {
            session: u64_field(value, "session")?,
        }),
        "core" => Ok(Request::Core {
            session: u64_field(value, "session")?,
        }),
        "close" => Ok(Request::Close {
            session: u64_field(value, "session")?,
        }),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError::new(
            "unknown-op",
            format!("unknown op `{other}`"),
        )),
    }
}

fn u64_field(value: &Json, key: &str) -> Result<u64, WireError> {
    value.get(key).and_then(Json::as_u64).ok_or_else(|| {
        WireError::new(
            "bad-request",
            format!("missing or non-integer field `{key}`"),
        )
    })
}

fn u32_field(value: &Json, key: &str) -> Result<u32, WireError> {
    let n = u64_field(value, key)?;
    u32::try_from(n)
        .map_err(|_| WireError::new("bad-request", format!("field `{key}` exceeds u32 range")))
}

/// A literal on the wire: a (possibly negative) integer, never zero and
/// never fractional.
fn lit_value(v: &Json) -> Result<i64, WireError> {
    let lit = match v {
        Json::U64(n) => i64::try_from(*n)
            .map_err(|_| WireError::new("bad-request", "literal exceeds i64 range"))?,
        Json::I64(n) => *n,
        _ => return Err(WireError::new("bad-request", "literal must be an integer")),
    };
    if lit == 0 {
        return Err(WireError::new("bad-request", "literal 0 is reserved"));
    }
    Ok(lit)
}

fn lits_field(value: &Json, key: &str) -> Result<Vec<i64>, WireError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(v) => {
            let arr = v.as_array().ok_or_else(|| {
                WireError::new("bad-request", format!("field `{key}` must be an array"))
            })?;
            arr.iter().map(lit_value).collect()
        }
    }
}

fn clauses_field(value: &Json, key: &str) -> Result<Vec<Vec<i64>>, WireError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(v) => {
            let arr = v.as_array().ok_or_else(|| {
                WireError::new("bad-request", format!("field `{key}` must be an array"))
            })?;
            arr.iter()
                .map(|clause| {
                    let lits = clause.as_array().ok_or_else(|| {
                        WireError::new("bad-request", "each clause must be an array of literals")
                    })?;
                    lits.iter().map(lit_value).collect()
                })
                .collect()
        }
    }
}

// ---- responses ---------------------------------------------------------

/// A success response carrying `body`'s fields alongside the id.
pub fn ok_response(id: &Json, body: Json) -> String {
    let mut out = Json::object()
        .with("id", id.clone())
        .with("ok", true.into());
    if let Json::Object(fields) = body {
        for (k, v) in fields {
            out.set(&k, v);
        }
    }
    out.to_string()
}

/// An error response: `{"id":…,"ok":false,"request_id":…,"error":{…}}`.
///
/// `request_id` is always present: the daemon-minted id for errors of an
/// admitted request, and an explicit `null` for pre-admission failures.
pub fn err_response(
    id: &Json,
    kind: &str,
    message: &str,
    retry_after_ms: Option<u64>,
    request_id: Option<u64>,
) -> String {
    let mut error = Json::object()
        .with("kind", kind.into())
        .with("message", message.into());
    if let Some(ms) = retry_after_ms {
        error.set("retry_after_ms", ms.into());
    }
    Json::object()
        .with("id", id.clone())
        .with("ok", false.into())
        .with("request_id", request_id.map_or(Json::Null, Json::from))
        .with("error", error)
        .to_string()
}

/// The error response for a [`DaemonError`]; `request_id` as in
/// [`err_response`].
pub fn daemon_err_response(id: &Json, err: &DaemonError, request_id: Option<u64>) -> String {
    err_response(
        id,
        err.kind(),
        &err.to_string(),
        err.retry_after_ms(),
        request_id,
    )
}

/// The success response for a completed solve, carrying the
/// daemon-minted `request_id` that also names the solve's JSONL
/// [`telemetry::RequestRecord`].
pub fn solve_response(id: &Json, reply: &SolveReply) -> String {
    let mut body = Json::object()
        .with("request_id", reply.request_id.into())
        .with("verdict", reply.verdict.as_str().into())
        .with("conflicts", reply.conflicts.into())
        .with("propagations", reply.propagations.into())
        .with("duration_ms", reply.duration_ms.into())
        .with("memory_bytes", reply.memory_bytes.into());
    if let crate::daemon::Verdict::Unknown(cause) = &reply.verdict {
        body.set("stop_cause", cause.as_str().into());
    }
    ok_response(id, body)
}
