//! `rsatd`: a fault-isolated SAT solver service.
//!
//! The daemon wraps the workspace's incremental CDCL solver
//! ([`sat_solver::Solver`]) in a long-running service with *sessions*:
//! a client opens a session, streams clauses into it, and issues
//! repeated `solve` calls under assumptions — learned clauses, variable
//! activities, and inprocessing simplifications persist between calls,
//! so a session amortizes solving cost the way an embedded IPASIR
//! solver would, but across a process boundary.
//!
//! The crate's reason to exist is the robustness layer around that:
//!
//! * **Admission control** — a bounded worker pool and a bounded queue;
//!   when the queue is full or the live-memory cap is exceeded, new work
//!   is rejected *immediately* with a typed `busy` error carrying a
//!   retry hint, instead of piling up latency for everyone.
//! * **Deadlines** — every solve carries a wall-clock deadline; an
//!   over-deadline solve degrades to an `unknown` verdict and the
//!   session stays usable.
//! * **Crash isolation** — each solve runs under
//!   [`sat_solver::run_isolated`]; a panicking solver quarantines *its*
//!   session (subsequent calls get a typed `crashed` error) while the
//!   daemon and every other session keep working.
//! * **Eviction** — idle sessions are evicted after a configurable
//!   timeout, and memory pressure evicts least-recently-used idle
//!   sessions before rejecting new work.
//! * **Graceful drain** — shutdown stops admissions, lets in-flight
//!   solves finish (or deadline out), answers every queued request, and
//!   flushes telemetry before returning.
//! * **Per-request observability** — every admitted request gets a
//!   daemon-minted `request_id` echoed on its wire reply and stamped on
//!   exactly one terminal [`telemetry::RequestRecord`] JSONL line
//!   (queue wait, solve wall, verdict, worker, solver stat deltas). That
//!   record is the daemon's one per-request view; the `status` request
//!   reports the aggregate counters and occupancy.
//!
//! Module map: [`daemon`] is the in-process service (typed API, worker
//! pool, session store); [`proto`] is the newline-delimited JSON wire
//! protocol; [`server`] speaks the protocol over any byte stream (unix
//! socket or stdio); [`client`] is a small synchronous client for the
//! same protocol.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, WireReply};
pub use daemon::{
    Daemon, DaemonConfig, DaemonError, DaemonStats, DaemonStatus, SessionHandle, SolveCallback,
    SolveReply, Verdict,
};
pub use proto::{parse_request, Envelope, Request, WireError, MAX_REQUEST_BYTES};
pub use server::{serve_connection, serve_unix};
