//! A small synchronous client for the wire protocol.
//!
//! [`Client`] works over any `BufRead`/`Write` pair (a connected unix
//! socket, a child process's stdio, a test socketpair). Requests are
//! numbered; because the daemon may answer out of order (solves finish
//! asynchronously), responses for other requests arriving early are
//! parked and picked up when their turn comes.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::Duration;

use telemetry::json::Json;

/// Failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connection died, EOF mid-response).
    Io(std::io::Error),
    /// The daemon's bytes were not a valid response.
    Protocol(String),
    /// The daemon answered with a typed error.
    Daemon {
        /// The error's stable `kind` tag.
        kind: String,
        /// Human-readable message.
        message: String,
        /// Back-off hint, present on `busy` rejections.
        retry_after_ms: Option<u64>,
        /// The daemon-minted request id, present when the failing
        /// request had been admitted (its JSONL `RequestRecord` carries
        /// the same id); `None` on pre-admission rejections.
        request_id: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Daemon {
                kind,
                message,
                request_id: Some(rid),
                ..
            } => {
                write!(f, "daemon error [{kind}] (request {rid}): {message}")
            }
            ClientError::Daemon { kind, message, .. } => {
                write!(f, "daemon error [{kind}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The daemon error kind, if this is a daemon-side rejection.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ClientError::Daemon { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

/// A solve's wire-level outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReply {
    /// The daemon-minted request id; the same id names this solve in
    /// the daemon's per-request JSONL records.
    pub request_id: u64,
    /// `"sat"`, `"unsat"`, or `"unknown"`.
    pub verdict: String,
    /// Stop cause when the verdict is `"unknown"`.
    pub stop_cause: Option<String>,
    /// Conflicts this call spent.
    pub conflicts: u64,
    /// Propagations this call spent.
    pub propagations: u64,
    /// Wall-clock milliseconds the solve ran.
    pub duration_ms: u64,
}

/// The synchronous protocol client.
pub struct Client<R: BufRead, W: Write> {
    reader: R,
    writer: W,
    next_id: u64,
    parked: HashMap<u64, Json>,
}

impl<R: BufRead, W: Write> std::fmt::Debug for Client<R, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl<R: BufRead, W: Write> Client<R, W> {
    /// A client over the given transport halves.
    pub fn new(reader: R, writer: W) -> Self {
        Client {
            reader,
            writer,
            next_id: 1,
            parked: HashMap::new(),
        }
    }

    /// Opens a session; returns its id.
    pub fn open(
        &mut self,
        vars: u32,
        inprocess: bool,
        clauses: &[Vec<i64>],
        freeze: &[i64],
    ) -> Result<u64, ClientError> {
        let body = Json::object()
            .with("op", "open".into())
            .with("vars", vars.into())
            .with("inprocess", inprocess.into())
            .with("clauses", clauses_json(clauses))
            .with("freeze", lits_json(freeze));
        let response = self.roundtrip(body)?;
        response
            .get("session")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("open response missing `session`".into()))
    }

    /// Appends clauses to a session.
    pub fn add_clauses(&mut self, session: u64, clauses: &[Vec<i64>]) -> Result<(), ClientError> {
        let body = Json::object()
            .with("op", "add_clauses".into())
            .with("session", session.into())
            .with("clauses", clauses_json(clauses));
        self.roundtrip(body).map(|_| ())
    }

    /// Freezes assumption candidates in a session.
    pub fn freeze(&mut self, session: u64, lits: &[i64]) -> Result<(), ClientError> {
        let body = Json::object()
            .with("op", "freeze".into())
            .with("session", session.into())
            .with("lits", lits_json(lits));
        self.roundtrip(body).map(|_| ())
    }

    /// Solves under assumptions, blocking for the verdict.
    pub fn solve(
        &mut self,
        session: u64,
        assumptions: &[i64],
        deadline: Option<Duration>,
    ) -> Result<WireReply, ClientError> {
        let mut body = Json::object()
            .with("op", "solve".into())
            .with("session", session.into())
            .with("assumptions", lits_json(assumptions));
        if let Some(deadline) = deadline {
            body.set("deadline_ms", (deadline.as_millis() as u64).into());
        }
        let response = self.roundtrip(body)?;
        let field = |key: &str| response.get(key).and_then(Json::as_u64).unwrap_or(0);
        Ok(WireReply {
            request_id: field("request_id"),
            verdict: response
                .get("verdict")
                .and_then(Json::as_str)
                .ok_or_else(|| ClientError::Protocol("solve response missing `verdict`".into()))?
                .to_string(),
            stop_cause: response
                .get("stop_cause")
                .and_then(Json::as_str)
                .map(str::to_string),
            conflicts: field("conflicts"),
            propagations: field("propagations"),
            duration_ms: field("duration_ms"),
        })
    }

    /// The model of the last SAT verdict, as DIMACS-signed literals.
    pub fn model(&mut self, session: u64) -> Result<Vec<i64>, ClientError> {
        let body = Json::object()
            .with("op", "model".into())
            .with("session", session.into());
        let response = self.roundtrip(body)?;
        lits_from(&response, "model")
    }

    /// The failed-assumption core of the last UNSAT verdict.
    pub fn core(&mut self, session: u64) -> Result<Vec<i64>, ClientError> {
        let body = Json::object()
            .with("op", "core".into())
            .with("session", session.into());
        let response = self.roundtrip(body)?;
        lits_from(&response, "core")
    }

    /// Closes a session.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        let body = Json::object()
            .with("op", "close".into())
            .with("session", session.into());
        self.roundtrip(body).map(|_| ())
    }

    /// The daemon's occupancy/robustness snapshot, as raw JSON.
    pub fn status(&mut self) -> Result<Json, ClientError> {
        self.roundtrip(Json::object().with("op", "status".into()))
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.roundtrip(Json::object().with("op", "shutdown".into()))
            .map(|_| ())
    }

    /// Sends a raw line verbatim and returns the next raw response line
    /// — the escape hatch protocol tests use for malformed input.
    pub fn raw(&mut self, line: &str) -> Result<Json, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response_line()
    }

    fn roundtrip(&mut self, mut body: Json) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        body.set("id", id.into());
        self.writer.write_all(body.to_string().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.wait_for(id)
    }

    fn read_response_line(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(std::io::Error::other(
                "connection closed by daemon",
            )));
        }
        Json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
    }

    /// Reads responses until the one for `id` arrives, parking others.
    fn wait_for(&mut self, id: u64) -> Result<Json, ClientError> {
        let response = if let Some(parked) = self.parked.remove(&id) {
            parked
        } else {
            loop {
                let response = self.read_response_line()?;
                let got = response.get("id").and_then(Json::as_u64);
                match got {
                    Some(got_id) if got_id == id => break response,
                    Some(other) => {
                        self.parked.insert(other, response);
                    }
                    None => {
                        // Responses with null ids (malformed-line
                        // reports) cannot be correlated; surface them.
                        return Err(ClientError::Protocol(format!(
                            "uncorrelated response: {response}"
                        )));
                    }
                }
            }
        };
        unwrap_response(response)
    }
}

fn unwrap_response(response: Json) -> Result<Json, ClientError> {
    let ok = response
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| ClientError::Protocol("response missing `ok`".into()))?;
    if ok {
        return Ok(response);
    }
    let error = response.get("error");
    Err(ClientError::Daemon {
        kind: error
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        message: error
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        retry_after_ms: error
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_u64),
        request_id: response.get("request_id").and_then(Json::as_u64),
    })
}

fn lits_from(response: &Json, key: &str) -> Result<Vec<i64>, ClientError> {
    let arr = response
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| ClientError::Protocol(format!("response missing `{key}` array")))?;
    arr.iter()
        .map(|v| match v {
            Json::U64(n) => {
                i64::try_from(*n).map_err(|_| ClientError::Protocol("literal exceeds i64".into()))
            }
            Json::I64(n) => Ok(*n),
            other => Err(ClientError::Protocol(format!(
                "non-integer literal {other}"
            ))),
        })
        .collect()
}

fn lits_json(lits: &[i64]) -> Json {
    Json::Array(lits.iter().map(|&l| Json::from(l)).collect())
}

fn clauses_json(clauses: &[Vec<i64>]) -> Json {
    Json::Array(clauses.iter().map(|c| lits_json(c)).collect())
}
