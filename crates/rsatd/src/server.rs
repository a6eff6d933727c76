//! Serving the wire protocol over byte streams.
//!
//! [`serve_connection`] speaks the protocol of [`crate::proto`] over
//! any `Read`/`Write` pair — a unix-socket connection, a stdio pipe, or
//! a socketpair in tests. [`serve_unix`] accepts connections on a unix
//! socket, one thread per connection, until asked to stop.
//!
//! A connection is expendable; the daemon is not. Write failures (a
//! client that vanished, or an injected `socket-truncate` fault) kill
//! only the connection: in-flight solve callbacks find the writer slot
//! emptied and drop their responses, the read loop ends, and the daemon
//! keeps serving everyone else.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use telemetry::json::Json;

use crate::daemon::{Daemon, DaemonError};
use crate::proto::{
    self, daemon_err_response, err_response, ok_response, parse_request, Request, MAX_REQUEST_BYTES,
};

/// The connection's output side, shared between the read loop and
/// asynchronous solve callbacks. `None` once a write failed.
type WriterSlot = Arc<Mutex<Option<Box<dyn Write + Send>>>>;

fn write_line(slot: &WriterSlot, line: &str) {
    let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(writer) = guard.as_mut() else {
        return;
    };
    let failed = writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .is_err();
    if failed {
        // Dead connection: drop the writer so later responses become
        // no-ops instead of repeated failures.
        *guard = None;
    }
}

fn connection_alive(slot: &WriterSlot) -> bool {
    slot.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .is_some()
}

/// Outcome of one capped line read.
enum LineRead {
    /// A complete line (without the newline).
    Line(String),
    /// The line exceeded [`MAX_REQUEST_BYTES`] and was drained.
    Oversized,
    /// End of stream or read error.
    Eof,
}

/// Reads one newline-terminated line without ever buffering more than
/// the cap: an oversized line is discarded as it streams past, so a
/// hostile client cannot balloon daemon memory.
fn read_line_capped(reader: &mut impl BufRead) -> LineRead {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                return if discarding {
                    LineRead::Oversized
                } else if buf.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                };
            }
            Ok(chunk) => chunk,
            Err(_) => return LineRead::Eof,
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i);
        if !discarding {
            if buf.len() + take > MAX_REQUEST_BYTES {
                discarding = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        match newline {
            Some(i) => {
                reader.consume(i + 1);
                return if discarding {
                    LineRead::Oversized
                } else {
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                };
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
}

/// Serves one connection until EOF, connection death, or a `shutdown`
/// request. Returns after the daemon has answered (or abandoned)
/// everything it admitted from this connection.
pub fn serve_connection(
    daemon: &Daemon,
    mut reader: impl BufRead,
    writer: impl Write + Send + 'static,
) {
    let writer: Box<dyn Write + Send> = wrap_writer(Box::new(writer));
    let slot: WriterSlot = Arc::new(Mutex::new(Some(writer)));
    // Tracks solves admitted on behalf of this connection so shutdown /
    // EOF can wait for their callbacks before returning.
    let in_flight = Arc::new(AtomicU64::new(0));

    loop {
        if !connection_alive(&slot) {
            break;
        }
        let line = match read_line_capped(&mut reader) {
            LineRead::Eof => break,
            LineRead::Oversized => {
                write_line(
                    &slot,
                    &err_response(
                        &Json::Null,
                        "oversized",
                        &format!("request exceeds the {MAX_REQUEST_BYTES} byte cap"),
                        None,
                        None,
                    ),
                );
                continue;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let envelope = parse_request(&line);
        let id = envelope.id;
        let request = match envelope.req {
            Ok(request) => request,
            Err(wire) => {
                write_line(
                    &slot,
                    &err_response(&id, wire.kind, &wire.message, None, None),
                );
                continue;
            }
        };
        match request {
            Request::Solve {
                session,
                assumptions,
                deadline_ms,
            } => {
                let deadline = deadline_ms.map(Duration::from_millis);
                let cb_slot = Arc::clone(&slot);
                let cb_in_flight = Arc::clone(&in_flight);
                let cb_id = id.clone();
                in_flight.fetch_add(1, Ordering::AcqRel);
                let submitted = daemon.submit_solve(
                    session,
                    assumptions,
                    deadline,
                    Box::new(move |request_id, outcome| {
                        let response = match outcome {
                            Ok(reply) => proto::solve_response(&cb_id, &reply),
                            Err(err) => daemon_err_response(&cb_id, &err, Some(request_id)),
                        };
                        write_line(&cb_slot, &response);
                        cb_in_flight.fetch_sub(1, Ordering::AcqRel);
                    }),
                );
                if let Err(err) = submitted {
                    // Rejected at admission: the callback never runs and
                    // no request id was minted — the reply says so with
                    // an explicit `request_id: null`.
                    in_flight.fetch_sub(1, Ordering::AcqRel);
                    write_line(&slot, &daemon_err_response(&id, &err, None));
                }
            }
            Request::Shutdown => {
                daemon.shutdown();
                write_line(&slot, &ok_response(&id, Json::object()));
                break;
            }
            other => {
                let response = dispatch_sync(daemon, &id, other);
                write_line(&slot, &response);
            }
        }
    }

    // Don't tear the writer down under callbacks that were already
    // admitted: wait for them (they are deadline-bounded).
    while in_flight.load(Ordering::Acquire) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Handles every request kind that answers inline.
fn dispatch_sync(daemon: &Daemon, id: &Json, request: Request) -> String {
    let outcome: Result<Json, DaemonError> = match request {
        Request::Open {
            vars,
            inprocess,
            clauses,
            freeze,
        } => daemon.open(vars, inprocess).and_then(|sid| {
            // Seeding failures close the half-open session before
            // reporting, so the client never learns a broken id.
            let seed = daemon
                .add_clauses(sid, &clauses)
                .and_then(|()| daemon.freeze(sid, &freeze));
            match seed {
                Ok(()) => Ok(Json::object().with("session", sid.into())),
                Err(err) => {
                    let _ = daemon.close(sid);
                    Err(err)
                }
            }
        }),
        Request::AddClauses { session, clauses } => daemon
            .add_clauses(session, &clauses)
            .map(|()| Json::object()),
        Request::Freeze { session, lits } => daemon.freeze(session, &lits).map(|()| Json::object()),
        Request::Model { session } => daemon.model(session).map(|model| {
            Json::object().with(
                "model",
                model.into_iter().map(Json::from).collect::<Vec<_>>().into(),
            )
        }),
        Request::Core { session } => daemon.core(session).map(|core| {
            Json::object().with(
                "core",
                core.into_iter().map(Json::from).collect::<Vec<_>>().into(),
            )
        }),
        Request::Close { session } => daemon.close(session).map(|()| Json::object()),
        Request::Status => {
            let status = daemon.status();
            let stats = daemon.stats();
            Ok(Json::object()
                .with("sessions", status.sessions.into())
                .with("queued", status.queued.into())
                .with("running", status.running.into())
                .with("draining", status.draining.into())
                .with("memory_bytes", status.memory_bytes.into())
                .with("admitted", stats.admitted.into())
                .with("rejected", stats.rejected.into())
                .with("evicted", stats.evicted.into())
                .with("crashed", stats.crashed.into())
                .with("deadline_exceeded", stats.deadline_exceeded.into())
                .with("completed", stats.completed.into()))
        }
        Request::Introspect => Ok(daemon.introspect()),
        Request::Solve { .. } | Request::Shutdown => {
            unreachable!("handled asynchronously by the read loop")
        }
    };
    match outcome {
        Ok(body) => ok_response(id, body),
        // Synchronous requests are never admitted solves, so their
        // errors carry `request_id: null`.
        Err(err) => daemon_err_response(id, &err, None),
    }
}

/// Accepts connections on a unix socket until `stop` is set or the
/// daemon drains; one thread per connection. The socket file is created
/// fresh (an existing file is removed) and unlinked on exit.
#[cfg(unix)]
pub fn serve_unix(
    daemon: &Daemon,
    path: &std::path::Path,
    stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) && !daemon.draining() {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let daemon = daemon.clone();
                let reader = stream.try_clone()?;
                connections.push(std::thread::spawn(move || {
                    serve_connection(&daemon, std::io::BufReader::new(reader), stream);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => break,
        }
        connections.retain(|handle| !handle.is_finished());
    }
    // Join connections that already finished; ones still blocked in
    // `read` are left behind — the daemon's own shutdown waits for
    // every admitted solve, so no answer is lost by not joining them.
    for handle in connections {
        if handle.is_finished() {
            let _ = handle.join();
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Non-unix stub so the crate builds everywhere; only the unix build
/// serves sockets.
#[cfg(not(unix))]
pub fn serve_unix(
    _daemon: &Daemon,
    _path: &std::path::Path,
    _stop: Arc<AtomicBool>,
) -> std::io::Result<()> {
    Err(std::io::Error::other("unix sockets are unavailable here"))
}

/// `socket-truncate(after=N)`: wraps a fresh connection's writer in a
/// [`faults::TruncatingWriter`] that dies after `N` bytes — a severed
/// socket in a box, proving connection death never harms the daemon.
#[cfg(feature = "faults")]
fn wrap_writer(writer: Box<dyn Write + Send>) -> Box<dyn Write + Send> {
    if let Some(cfg) = faults::fire(faults::site::SOCKET_TRUNCATE, &[]) {
        return Box::new(faults::TruncatingWriter::new(
            writer,
            cfg.get_u64("after", 0),
        ));
    }
    writer
}

#[cfg(not(feature = "faults"))]
fn wrap_writer(writer: Box<dyn Write + Send>) -> Box<dyn Write + Send> {
    writer
}
