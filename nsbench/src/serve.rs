//! The `serve-incremental` workload: an in-process `rsatd` daemon served
//! over `UnixStream::pair` sockets through `serve_connection`, driven by
//! two closed-loop `Client` connections.
//!
//! Each client runs gated-counter BMC sweeps, one session per sweep: for
//! every bound it pushes a frame, encodes the new gates, ships the delta
//! (`add_clauses`), freezes the probe, solves under it, and fetches and
//! checks the model on SAT. Every 8th request is a cold one-shot instead:
//! a small known-status DIMACS formula parsed client-side, shipped whole
//! with `open`, solved, and closed.

use crate::batch::{Outcome, DEADLINE, SOLVER_PHASES};
use crate::inputs::{self, Instance, Status, Sweep};
use crate::oracle;
use crate::run::Tally;
use crate::spans::{Recorder, Trace};
use cnf::Cnf;
use logic_circuit::{IncrementalEncoder, IncrementalUnroll};
use rsatd::{serve_connection, Client, ClientError, Daemon, DaemonConfig, WireReply};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use telemetry::json::{FromJson, Json};
use telemetry::Event;

/// Client connections (closed loops), matching the daemon's 2 workers.
pub const CLIENTS: usize = 2;
/// Every `COLD_EVERY`-th request of a client is a cold one-shot.
const COLD_EVERY: u64 = 8;
/// Distinct sweeps and cold instances per client; runs cycle through them.
const SWEEPS: usize = 48;
const COLD: usize = 24;

/// Byte counter shared by a connection's two halves.
#[derive(Debug)]
struct Counted<S> {
    inner: S,
    bytes: Arc<AtomicU64>,
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

type Conn = Client<BufReader<Counted<UnixStream>>, Counted<UnixStream>>;

/// One client connection and the bytes it moved.
struct Connection {
    client: Conn,
    bytes: Arc<AtomicU64>,
}

/// A running daemon with its served connections.
pub struct Service {
    daemon: Daemon,
    servers: Vec<JoinHandle<()>>,
    /// The client ends, one per closed loop.
    connections: Vec<Connection>,
}

fn io(e: std::io::Error) -> String {
    format!("socket setup: {e}")
}

impl Service {
    /// Boots the daemon, connects [`CLIENTS`] clients and completes the
    /// first `status` round trip — the service workload's set-up.
    ///
    /// # Errors
    ///
    /// Returns a socket or protocol failure.
    pub fn start(config: DaemonConfig) -> Result<Service, String> {
        let daemon = Daemon::start(config);
        let mut servers = Vec::with_capacity(CLIENTS);
        let mut connections = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            let (client_end, server_end) = UnixStream::pair().map_err(io)?;
            let server_reader = BufReader::new(server_end.try_clone().map_err(io)?);
            let served = daemon.clone();
            servers.push(std::thread::spawn(move || {
                serve_connection(&served, server_reader, server_end);
            }));
            let bytes = Arc::new(AtomicU64::new(0));
            let reader = Counted {
                inner: client_end.try_clone().map_err(io)?,
                bytes: Arc::clone(&bytes),
            };
            let writer = Counted {
                inner: client_end,
                bytes: Arc::clone(&bytes),
            };
            connections.push(Connection {
                client: Client::new(BufReader::new(reader), writer),
                bytes,
            });
        }
        let mut service = Service {
            daemon,
            servers,
            connections,
        };
        service.connections[0]
            .client
            .status()
            .map_err(|e| format!("first status round trip: {e}"))?;
        Ok(service)
    }

    /// Hangs up every client, waits for the connection threads, and
    /// drains the daemon (which flushes its record files).
    ///
    /// # Errors
    ///
    /// Reports a connection thread that panicked.
    pub fn stop(self) -> Result<(), String> {
        drop(self.connections);
        let panicked = self
            .servers
            .into_iter()
            .map(JoinHandle::join)
            .filter(Result::is_err)
            .count();
        self.daemon.shutdown();
        match panicked {
            0 => Ok(()),
            n => Err(format!("{n} connection thread(s) panicked")),
        }
    }
}

/// Why a step did not produce an answer.
enum StepError {
    /// A wrong verdict: aborts the run.
    Wrong(String),
    /// A transport or daemon error: a failed request.
    Client(ClientError),
}

impl From<ClientError> for StepError {
    fn from(e: ClientError) -> Self {
        StepError::Client(e)
    }
}

/// Runs `f` inside a span named `name`.
fn timed<T>(
    rec: &mut Recorder,
    name: &'static str,
    f: impl FnOnce() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let span = rec.enter(name);
    let out = f();
    rec.exit(span);
    out
}

fn wire_clauses(formula: &Cnf) -> Vec<Vec<i64>> {
    formula
        .clauses()
        .iter()
        .map(|c| c.lits().iter().map(|l| i64::from(l.to_dimacs())).collect())
        .collect()
}

/// Turns a `model` reply (signed DIMACS literals in variable order) into
/// an assignment.
fn assignment(model: &[i64]) -> Result<Vec<bool>, StepError> {
    model
        .iter()
        .enumerate()
        .map(|(i, &lit)| {
            if lit.unsigned_abs() == i as u64 + 1 {
                Ok(lit > 0)
            } else {
                Err(StepError::Wrong(format!(
                    "model literal {lit} at position {i}"
                )))
            }
        })
        .collect()
}

/// A sweep in progress on one session.
struct ActiveSweep {
    session: u64,
    sweep: Sweep,
    unroll: IncrementalUnroll,
    encoder: IncrementalEncoder,
    /// Every delta shipped so far, for checking the model.
    shipped: Vec<Cnf>,
    bound: usize,
}

/// One client's closed loop.
struct Driver<'a> {
    conn: &'a mut Conn,
    rec: &'a mut Recorder,
    sweeps: Vec<Sweep>,
    cold: Vec<Instance>,
    next_sweep: usize,
    next_cold: usize,
    active: Option<ActiveSweep>,
}

impl Driver<'_> {
    fn sweep_step(&mut self) -> Result<Outcome, StepError> {
        let rec = &mut *self.rec;
        let conn = &mut *self.conn;
        if self.active.is_none() {
            let sweep = self.sweeps[self.next_sweep % self.sweeps.len()].clone();
            self.next_sweep += 1;
            let session = timed(rec, "rsatd.open", || conn.open(sweep.vars, false, &[], &[]))?;
            self.active = Some(ActiveSweep {
                session,
                unroll: IncrementalUnroll::new(&inputs::gated_counter(sweep.bits), &sweep.initial),
                sweep,
                encoder: IncrementalEncoder::new(),
                shipped: Vec::new(),
                bound: 0,
            });
        }
        let active = self.active.as_mut().expect("opened above");
        let span = rec.enter("circuit.encode");
        let bad = active.unroll.push_frame();
        let delta = active.encoder.encode_new(active.unroll.circuit());
        let clauses = wire_clauses(&delta);
        let probe = i64::from(active.encoder.lit(bad, true).to_dimacs());
        rec.exit(span);
        rec.add("circuit.delta_clauses", clauses.len() as f64);
        active.shipped.push(delta);
        active.bound += 1;
        let session = active.session;
        timed(rec, "rsatd.add_clauses", || {
            conn.add_clauses(session, &clauses)
        })?;
        timed(rec, "rsatd.freeze", || conn.freeze(session, &[probe]))?;
        let reply = solve(rec, conn, session, &[probe])?;
        let expect_sat = active.bound == active.sweep.sat_bound;
        let outcome = match (reply.verdict.as_str(), expect_sat) {
            ("unsat", false) => return Ok(Outcome::Answered),
            ("sat", true) => {
                let model = timed(rec, "rsatd.model", || conn.model(session))?;
                let span = rec.enter("cnf.verify");
                let checked = check_sweep_model(&active.shipped, probe, &model);
                rec.exit(span);
                checked?;
                Outcome::Answered
            }
            ("unknown", _) => Outcome::Failed,
            (verdict, _) => {
                return Err(StepError::Wrong(format!(
                    "{verdict} at bound {} of a sweep first SAT at {}",
                    active.bound, active.sweep.sat_bound
                )))
            }
        };
        self.active = None;
        timed(rec, "rsatd.close", || conn.close(session))?;
        Ok(outcome)
    }

    fn cold_step(&mut self) -> Result<Outcome, StepError> {
        let rec = &mut *self.rec;
        let conn = &mut *self.conn;
        let inst = &self.cold[self.next_cold % self.cold.len()];
        self.next_cold += 1;
        let span = rec.enter("cnf.parse");
        let parsed = cnf::parse_dimacs_str(&inst.dimacs).map(|f| {
            let clauses = wire_clauses(&f);
            (f, clauses)
        });
        rec.exit(span);
        rec.add("cnf.bytes", inst.dimacs.len() as f64);
        let (formula, clauses) =
            parsed.map_err(|e| StepError::Wrong(format!("{}: {e}", inst.name)))?;
        let session = timed(rec, "rsatd.open", || {
            conn.open(formula.num_vars(), false, &clauses, &[])
        })?;
        let outcome = cold_verdict(rec, conn, session, &formula, inst);
        let closed = timed(rec, "rsatd.close", || conn.close(session));
        let outcome = outcome?;
        closed?;
        Ok(outcome)
    }

    /// Drops the sweep in progress after a failed step (its session state
    /// is no longer known).
    fn abandon_sweep(&mut self) {
        if let Some(active) = self.active.take() {
            let _ = self.conn.close(active.session);
        }
    }
}

/// Solves under `assumptions` inside an `rsatd.solve` span tagged with
/// the daemon's request id.
fn solve(
    rec: &mut Recorder,
    conn: &mut Conn,
    session: u64,
    assumptions: &[i64],
) -> Result<WireReply, ClientError> {
    let span = rec.enter("rsatd.solve");
    let reply = conn.solve(session, assumptions, Some(DEADLINE));
    if let Ok(reply) = &reply {
        rec.tag_daemon_request(&span, reply.request_id);
    }
    rec.exit(span);
    reply
}

/// Solves a cold one-shot's session and checks the verdict against the
/// instance's known status (and its model against the formula).
fn cold_verdict(
    rec: &mut Recorder,
    conn: &mut Conn,
    session: u64,
    formula: &Cnf,
    inst: &Instance,
) -> Result<Outcome, StepError> {
    let reply = solve(rec, conn, session, &[])?;
    match (reply.verdict.as_str(), inst.status) {
        ("sat", Status::Sat) => {
            let model = timed(rec, "rsatd.model", || conn.model(session))?;
            let span = rec.enter("cnf.verify");
            let checked = assignment(&model)
                .and_then(|a| oracle::check_model(formula, &a).map_err(StepError::Wrong));
            rec.exit(span);
            checked.map(|()| Outcome::Answered)
        }
        ("unsat", Status::Unsat) => Ok(Outcome::Answered),
        ("unknown", _) => Ok(Outcome::Failed),
        (verdict, status) => Err(StepError::Wrong(format!(
            "{verdict} on {} ({status:?} by construction)",
            inst.name
        ))),
    }
}

/// Checks a sweep's SAT model against every clause shipped so far plus
/// the probe assumption.
fn check_sweep_model(shipped: &[Cnf], probe: i64, model: &[i64]) -> Result<(), StepError> {
    let assignment = assignment(model)?;
    let mut all = Cnf::new(0);
    for delta in shipped {
        all.conjoin(delta);
    }
    oracle::check_model(&all, &assignment).map_err(StepError::Wrong)?;
    let probe_var = probe.unsigned_abs() as usize - 1;
    if assignment.get(probe_var) != Some(&(probe > 0)) {
        return Err(StepError::Wrong(
            "model violates the probe assumption".into(),
        ));
    }
    Ok(())
}

/// Runs one client's closed loop until `until` or `max_requests`.
///
/// # Errors
///
/// Returns a description of the first wrong answer.
fn client_loop(
    conn: &mut Connection,
    rec: &mut Recorder,
    seed: u64,
    epoch: Instant,
    until: Instant,
    max_requests: u64,
) -> Result<Tally, String> {
    let start_bytes = conn.bytes.load(Ordering::Relaxed);
    let mut driver = Driver {
        conn: &mut conn.client,
        rec,
        sweeps: inputs::sweeps(seed, SWEEPS),
        cold: inputs::cold_pool(seed, COLD),
        next_sweep: 0,
        next_cold: 0,
        active: None,
    };
    let mut tally = Tally::default();
    let mut id = 0u64;
    while id < max_requests && Instant::now() < until {
        id += 1;
        let started = Instant::now();
        let request = driver.rec.begin_request(id);
        let step = if id.is_multiple_of(COLD_EVERY) {
            driver.cold_step()
        } else {
            driver.sweep_step()
        };
        driver.rec.end_request(request);
        let outcome = match step {
            Ok(outcome) => outcome,
            Err(StepError::Client(e)) => {
                if e.kind() == Some("busy") {
                    driver.rec.add("rsatd.busy", 1.0);
                }
                Outcome::Failed
            }
            Err(StepError::Wrong(why)) => return Err(format!("wrong answer: {why}")),
        };
        if outcome == Outcome::Failed {
            driver.abandon_sweep();
        }
        tally.record(outcome, started, epoch);
    }
    driver.abandon_sweep();
    let bytes = conn.bytes.load(Ordering::Relaxed) - start_bytes;
    driver.rec.add("rsatd.wire_bytes", bytes as f64);
    Ok(tally)
}

/// Runs every client's loop in parallel until `until` (or `max_requests`
/// each), timing request ends from `epoch`. Client `c` draws its sweeps
/// and cold instances from sub-seed `seed + c`.
///
/// # Errors
///
/// Returns the first wrong answer any client saw.
pub fn run_clients(
    service: &mut Service,
    recorders: &mut [Recorder],
    seed: u64,
    epoch: Instant,
    until: Instant,
    max_requests: u64,
) -> Result<Vec<Tally>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = service
            .connections
            .iter_mut()
            .zip(recorders.iter_mut())
            .enumerate()
            .map(|(c, (conn, rec))| {
                let client_seed = seed.wrapping_add(c as u64);
                scope.spawn(move || client_loop(conn, rec, client_seed, epoch, until, max_requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    })
}

/// The daemon-side view of a traced run, joined to the client's solve
/// round trips by request id.
#[derive(Debug, Default)]
pub struct DaemonSide {
    /// Summed queue wait of the joined solves, ms.
    pub queue_wait_ms: f64,
    /// Summed solver wall time of the joined solves, ms.
    pub solve_ms: f64,
    /// Summed solver counters of the joined solves.
    pub counters: Vec<(&'static str, f64)>,
}

/// Joins every tagged solve round trip to the daemon's `RequestRecord`
/// for the same request id, and sums the solver phase times of the
/// `RunRecord`s.
///
/// # Errors
///
/// Fails when a record file is unreadable or malformed, or when a solve's
/// request id does not appear exactly once among the request records.
pub fn join_records(trace: &Trace, requests: &Path, runs: &Path) -> Result<DaemonSide, String> {
    let mut by_id: HashMap<u64, (usize, telemetry::RequestRecord)> = HashMap::new();
    for event in read_events(requests)? {
        if let Event::RequestEnd { record } = event {
            by_id.entry(record.request_id).or_insert((0, record)).0 += 1;
        }
    }
    const STATS: [(&str, &str); 4] = [
        ("solver.propagations", "propagations"),
        ("solver.conflicts", "conflicts"),
        ("solver.decisions", "decisions"),
        ("solver.deleted_clauses", "deleted_clauses"),
    ];
    let mut side = DaemonSide::default();
    let mut sums = [0.0; STATS.len()];
    for rid in trace.daemon_request_ids() {
        let Some((seen, record)) = by_id.get(&rid) else {
            return Err(format!("solve request {rid} has no request record"));
        };
        if *seen != 1 {
            return Err(format!("solve request {rid} has {seen} request records"));
        }
        side.queue_wait_ms += record.queue_wait_ms;
        side.solve_ms += record.solve_ms;
        for (sum, (_, field)) in sums.iter_mut().zip(STATS) {
            *sum += record
                .stats
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
    }
    side.counters = STATS
        .iter()
        .zip(sums)
        .map(|(&(name, _), sum)| (name, sum))
        .collect();
    let mut phases = [0.0; SOLVER_PHASES.len()];
    for event in read_events(runs)? {
        if let Event::SolveEnd { record } = event {
            for (sum, (phase, _)) in phases.iter_mut().zip(SOLVER_PHASES) {
                *sum += record.phases.elapsed(phase).as_nanos() as f64;
            }
        }
    }
    side.counters.extend(
        SOLVER_PHASES
            .iter()
            .zip(phases)
            .map(|(&(_, name), ns)| (name, ns)),
    );
    Ok(side)
}

fn read_events(path: &Path) -> Result<Vec<Event>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            Json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|j| Event::from_json(&j).map_err(|e| e.to_string()))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_model_must_satisfy_the_probe() {
        let mut f = Cnf::new(2);
        f.add_dimacs(&[1, 2]);
        assert!(check_sweep_model(&[f.clone()], 2, &[1, 2]).is_ok());
        assert!(check_sweep_model(&[f.clone()], -2, &[1, 2]).is_err());
        assert!(check_sweep_model(&[f], 1, &[-1, -2]).is_err());
    }

    #[test]
    fn model_replies_must_be_in_variable_order() {
        assert!(assignment(&[1, -2, 3]).is_ok());
        assert!(assignment(&[2, -1]).is_err());
    }
}

#[cfg(test)]
mod join_tests {
    use super::*;
    use telemetry::json::ToJson;
    use telemetry::RequestRecord;

    /// Writes request records with the given ids and joins them against a
    /// trace holding one tagged solve for request 5.
    fn join_with(ids: &[u64]) -> Result<DaemonSide, String> {
        let dir =
            std::env::temp_dir().join(format!("nsbench-join-{}-{}", std::process::id(), ids.len()));
        std::fs::create_dir_all(&dir).unwrap();
        let requests = dir.join("requests.jsonl");
        let runs = dir.join("runs.jsonl");
        let lines: String = ids
            .iter()
            .map(|&id| {
                let mut record = RequestRecord::new(id, 1);
                record.solve_ms = 2.0;
                format!("{}\n", Event::RequestEnd { record }.to_json())
            })
            .collect();
        std::fs::write(&requests, lines).unwrap();
        std::fs::write(&runs, "").unwrap();
        let mut rec = Recorder::new(Instant::now(), true);
        let span = rec.enter("rsatd.solve");
        rec.tag_daemon_request(&span, 5);
        rec.exit(span);
        let lanes = [rec];
        let joined = join_records(&Trace::new(&lanes), &requests, &runs);
        let _ = std::fs::remove_dir_all(&dir);
        joined
    }

    #[test]
    fn every_solve_must_join_exactly_one_record() {
        assert_eq!(join_with(&[4, 5, 6]).unwrap().solve_ms, 2.0);
        assert!(join_with(&[4, 6])
            .unwrap_err()
            .contains("no request record"));
        assert!(join_with(&[5, 5])
            .unwrap_err()
            .contains("2 request records"));
    }
}
