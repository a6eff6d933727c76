//! The in-process daemon: session store, bounded worker pool, admission
//! control, eviction, crash quarantine, and graceful drain.
//!
//! Everything here is transport-agnostic — the wire protocol lives in
//! [`crate::server`] / [`crate::proto`]; embedders (tests, benches, the
//! examples) call the typed API on [`Daemon`] directly.
//!
//! # Failure model
//!
//! A session is the unit of isolation. Each solve runs inside
//! [`run_isolated`], so a panic in the solver (a bug, or an injected
//! `session-panic` fault) is converted into a quarantined
//! `Crashed` session marker: later calls on that session get a
//! typed [`DaemonError::SessionCrashed`], while the worker thread, the
//! queue, and every other session continue untouched. Deadline and
//! memory exhaustion are softer: the solve returns
//! [`Verdict::Unknown`] with the stop cause and the session stays
//! usable.

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cnf::{Cnf, Lit, Var};
use sat_solver::{run_isolated, Budget, SolveResult, Solver, SolverConfig, SolverTelemetry};
use telemetry::json::ToJson;
use telemetry::{Event, JsonlSink, RequestRecord, Sink};

/// Tuning knobs of a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads executing solves. At most this many solves run
    /// concurrently; everything else waits in the bounded queue.
    pub workers: usize,
    /// Queue slots. A solve submitted while the queue holds this many
    /// jobs is rejected with [`DaemonError::Busy`].
    pub queue_depth: usize,
    /// Live (non-closed, non-evicted) session cap; `open` beyond it is
    /// rejected with [`DaemonError::Busy`].
    pub max_sessions: usize,
    /// Aggregate solver-memory cap. Admission over this evicts idle
    /// sessions (LRU first) and, failing that, rejects with `busy`;
    /// each admitted solve also gets the remaining headroom as its
    /// in-solve memory budget.
    pub max_memory_bytes: u64,
    /// Idle sessions untouched for this long are evicted.
    pub idle_timeout: Duration,
    /// Deadline applied to solves that do not request one.
    pub default_deadline: Duration,
    /// Hard ceiling on per-solve deadlines; longer requests are clamped.
    pub max_deadline: Duration,
    /// Retry hint (milliseconds) attached to `busy` rejections.
    pub retry_after_ms: u64,
    /// When set, one JSONL [`telemetry::RunRecord`] is appended here per
    /// completed solve; when unset, solves run with no recorder.
    pub records_path: Option<PathBuf>,
    /// When set, one JSONL [`telemetry::RequestRecord`] is appended here
    /// per *admitted* request — the daemon-side sibling of the solver's
    /// RunRecord: request id, queue wait, solve wall, verdict/stop cause,
    /// worker id, and solver stat deltas.
    pub request_records_path: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            queue_depth: 16,
            max_sessions: 64,
            max_memory_bytes: 1 << 30,
            idle_timeout: Duration::from_secs(300),
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(300),
            retry_after_ms: 100,
            records_path: None,
            request_records_path: None,
        }
    }
}

/// Typed failure of a daemon call. Every variant maps to a stable wire
/// `kind` (see [`DaemonError::kind`]); none of them is a panic.
#[derive(Debug)]
pub enum DaemonError {
    /// Admission control rejected the request (queue full, memory cap,
    /// or session cap). Retry after the embedded hint.
    Busy {
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is draining for shutdown and admits nothing new.
    Draining,
    /// No session with this id was ever opened.
    NoSuchSession(u64),
    /// The session was closed (double-close lands here too).
    SessionClosed(u64),
    /// The session was evicted; the tag says why (`"idle"`/`"memory"`).
    SessionEvicted(u64, &'static str),
    /// The session's solver panicked and is quarantined; the message is
    /// the captured panic payload.
    SessionCrashed(u64, String),
    /// The session already has a solve queued or running.
    SessionBusy(u64),
    /// An assumption names a variable that inprocessing eliminated
    /// before it was ever frozen.
    EliminatedAssumption(u64, Var),
    /// A literal references a variable the session never declared.
    VarOutOfRange {
        /// Session the request addressed.
        session: u64,
        /// Offending DIMACS literal.
        lit: i64,
        /// Variables the session declared at `open`.
        num_vars: u32,
    },
    /// `model` was asked but the last solve was not SAT.
    NoModel(u64),
    /// `core` was asked but the last solve was not UNSAT.
    NoCore(u64),
    /// The request was structurally invalid.
    BadRequest(String),
    /// The daemon lost the worker servicing this request — only
    /// reachable if a worker thread dies outside its isolation scope.
    Internal(String),
}

impl DaemonError {
    /// Stable machine-readable tag, used as the wire `error.kind`.
    pub fn kind(&self) -> &'static str {
        match self {
            DaemonError::Busy { .. } => "busy",
            DaemonError::Draining => "draining",
            DaemonError::NoSuchSession(_) => "no-such-session",
            DaemonError::SessionClosed(_) => "closed",
            DaemonError::SessionEvicted(..) => "evicted",
            DaemonError::SessionCrashed(..) => "crashed",
            DaemonError::SessionBusy(_) => "session-busy",
            DaemonError::EliminatedAssumption(..) => "eliminated",
            DaemonError::VarOutOfRange { .. } => "var-out-of-range",
            DaemonError::NoModel(_) => "no-model",
            DaemonError::NoCore(_) => "no-core",
            DaemonError::BadRequest(_) => "bad-request",
            DaemonError::Internal(_) => "internal",
        }
    }

    /// The back-off hint, present exactly on `busy` rejections.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            DaemonError::Busy { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Busy { retry_after_ms } => {
                write!(f, "daemon overloaded; retry after {retry_after_ms} ms")
            }
            DaemonError::Draining => write!(f, "daemon is draining for shutdown"),
            DaemonError::NoSuchSession(s) => write!(f, "no such session {s}"),
            DaemonError::SessionClosed(s) => write!(f, "session {s} is closed"),
            DaemonError::SessionEvicted(s, why) => write!(f, "session {s} was evicted ({why})"),
            DaemonError::SessionCrashed(s, msg) => {
                write!(f, "session {s} crashed and is quarantined: {msg}")
            }
            DaemonError::SessionBusy(s) => write!(f, "session {s} already has a solve in flight"),
            DaemonError::EliminatedAssumption(s, v) => write!(
                f,
                "session {s}: assumption variable {} was eliminated by inprocessing \
                 (freeze it at open)",
                v.index()
            ),
            DaemonError::VarOutOfRange {
                session,
                lit,
                num_vars,
            } => write!(
                f,
                "session {session}: literal {lit} out of range (session has {num_vars} variables)"
            ),
            DaemonError::NoModel(s) => write!(f, "session {s}: last solve was not SAT"),
            DaemonError::NoCore(s) => write!(f, "session {s}: last solve was not UNSAT"),
            DaemonError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            DaemonError::Internal(msg) => write!(f, "internal daemon error: {msg}"),
        }
    }
}

impl std::error::Error for DaemonError {}

/// Outcome of one solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable under the assumptions; fetch the model with `model`.
    Sat,
    /// Unsatisfiable under the assumptions; fetch the failed-assumption
    /// core with `core`.
    Unsat,
    /// The solve was cut short; the tag is the stop cause
    /// (`"deadline"`, `"memory"`, …).
    Unknown(String),
}

impl Verdict {
    /// Stable wire spelling: `"sat"`, `"unsat"`, or `"unknown"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Sat => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown(_) => "unknown",
        }
    }
}

/// Per-solve summary returned to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveReply {
    /// The daemon-minted request id; the same id appears on the wire
    /// reply and in the [`telemetry::RequestRecord`] this solve emitted.
    pub request_id: u64,
    /// The verdict.
    pub verdict: Verdict,
    /// Conflicts spent by this call (delta, not session lifetime).
    pub conflicts: u64,
    /// Propagations spent by this call (delta, not session lifetime).
    pub propagations: u64,
    /// Wall-clock milliseconds the solve ran.
    pub duration_ms: u64,
    /// Session solver memory after the call.
    pub memory_bytes: u64,
}

/// Monotonic robustness counters, reported by [`Daemon::stats`] and the
/// `status` request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Solves accepted into the queue.
    pub admitted: u64,
    /// Solves or opens rejected by admission control.
    pub rejected: u64,
    /// Sessions evicted (idle timeout or memory pressure).
    pub evicted: u64,
    /// Sessions quarantined after a solver panic.
    pub crashed: u64,
    /// Solves that degraded to `unknown` on their deadline.
    pub deadline_exceeded: u64,
    /// Solves that ran to a verdict (including degraded ones).
    pub completed: u64,
}

/// Point-in-time occupancy snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStatus {
    /// Live (idle or busy) sessions.
    pub sessions: usize,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing on workers.
    pub running: usize,
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Aggregate solver memory across live sessions.
    pub memory_bytes: u64,
}

/// Lifecycle of one session slot. `Busy` means an admitted job holds
/// the solver, from admission until its worker checks it back in;
/// terminal states keep the slot as a tombstone so late requests get a
/// precise error instead of `no-such-session`.
enum SessionState {
    /// Solver at rest, ready for the next call.
    Idle(Box<Solver>),
    /// Solver owned by an admitted job, queued or running.
    Busy,
    /// Quarantined after a panic; the string is the panic message.
    Crashed(String),
    /// Evicted; the tag says why.
    Evicted(&'static str),
    /// Explicitly closed.
    Closed,
}

struct Session {
    state: SessionState,
    vars: u32,
    last_used: Instant,
    mem_bytes: u64,
    last_model: Option<Vec<bool>>,
    last_core: Option<Vec<Lit>>,
}

/// The outcome callback of one admitted solve. The first argument is
/// the daemon-minted request id — the same id stamped on the wire reply
/// and on the request's [`telemetry::RequestRecord`].
pub type SolveCallback = Box<dyn FnOnce(u64, Result<SolveReply, DaemonError>) + Send>;

/// One admitted solve, owning its session's solver (the slot reads
/// `Busy` meanwhile).
struct Job {
    request_id: u64,
    session: u64,
    solver: Box<Solver>,
    assumptions: Vec<Lit>,
    deadline_at: Instant,
    /// Wall-clock admission time, for queue-wait accounting.
    admitted_at: Instant,
    cb: SolveCallback,
}

#[derive(Default)]
struct StatCells {
    admitted: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    crashed: AtomicU64,
    deadline_exceeded: AtomicU64,
    completed: AtomicU64,
}

/// State shared by the daemon handle and its workers. It has five
/// mutexes: `sessions`, `queue`, `workers`, `records` and
/// `request_records`. Lock order: the one nested acquisition is `queue`
/// under `sessions`, in `submit_solve`'s queue-depth check; every other
/// acquisition takes one lock at a time. All of them go through `lock`,
/// which recovers from poisoning.
struct Inner {
    cfg: DaemonConfig,
    sessions: Mutex<HashMap<u64, Session>>,
    next_session: AtomicU64,
    next_request: AtomicU64,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    running: AtomicUsize,
    draining: AtomicBool,
    mem_total: AtomicU64,
    stats: StatCells,
    records: Option<Mutex<JsonlSink<BufWriter<File>>>>,
    request_records: Option<Mutex<JsonlSink<BufWriter<File>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Locks recovering from poisoning: a panic that escapes into a lock
/// here must not cascade into every later request — the session-level
/// quarantine is the intended failure boundary.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The solver service. Cheap to clone (shared handle); the worker pool
/// lives until [`Daemon::shutdown`].
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = self.status();
        f.debug_struct("Daemon")
            .field("workers", &self.inner.cfg.workers)
            .field("status", &status)
            .finish()
    }
}

impl Daemon {
    /// Boots the worker pool and returns the service handle.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsatd::{Daemon, DaemonConfig, Verdict};
    ///
    /// let daemon = Daemon::start(DaemonConfig::default());
    /// let sid = daemon.open(2, false).unwrap();
    /// daemon.add_clauses(sid, &[vec![1, 2], vec![-1, 2]]).unwrap();
    /// let reply = daemon.solve(sid, &[], None).unwrap();
    /// assert_eq!(reply.verdict, Verdict::Sat);
    /// assert_eq!(daemon.model(sid).unwrap()[1], 2); // variable 2 is true
    /// daemon.close(sid).unwrap();
    /// daemon.shutdown();
    /// ```
    pub fn start(cfg: DaemonConfig) -> Daemon {
        // A records path that cannot be opened degrades to no-records
        // rather than refusing to boot.
        let open_sink = |path: &PathBuf| {
            File::create(path)
                .ok()
                .map(|f| Mutex::new(JsonlSink::new(BufWriter::new(f))))
        };
        let records = cfg.records_path.as_ref().and_then(open_sink);
        let request_records = cfg.request_records_path.as_ref().and_then(open_sink);
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cfg,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            next_request: AtomicU64::new(1),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            running: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            mem_total: AtomicU64::new(0),
            stats: StatCells::default(),
            records,
            request_records,
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for worker_id in 0..workers {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rsatd-worker-{worker_id}"))
                    .spawn(move || worker_loop(&inner, worker_id as u64))
                    .expect("spawning a daemon worker thread"),
            );
        }
        *lock(&inner.workers) = handles;
        Daemon { inner }
    }

    /// Opens a session with `num_vars` variables. All clause literals
    /// and assumptions of the session's lifetime must stay within this
    /// range — the daemon validates and rejects instead of growing the
    /// solver. `inprocess` enables in-search simplification (freeze
    /// every variable you will later assume; see
    /// [`Daemon::freeze`]).
    pub fn open(&self, num_vars: u32, inprocess: bool) -> Result<u64, DaemonError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::Acquire) {
            return Err(DaemonError::Draining);
        }
        let now = Instant::now();
        let mut sessions = lock(&inner.sessions);
        self.evict_idle(&mut sessions, now);
        let live = sessions
            .values()
            .filter(|s| matches!(s.state, SessionState::Idle(_) | SessionState::Busy))
            .count();
        if live >= inner.cfg.max_sessions {
            return Err(self.reject_busy());
        }
        let config = SolverConfig {
            inprocess,
            ..SolverConfig::default()
        };
        let solver = Box::new(Solver::new(&Cnf::new(num_vars), config));
        let mem = solver.approx_memory_bytes();
        if self.mem_admit(&mut sessions, mem).is_err() {
            return Err(self.reject_busy());
        }
        let sid = inner.next_session.fetch_add(1, Ordering::AcqRel);
        sessions.insert(
            sid,
            Session {
                state: SessionState::Idle(solver),
                vars: num_vars,
                last_used: now,
                mem_bytes: mem,
                last_model: None,
                last_core: None,
            },
        );
        inner.mem_total.fetch_add(mem, Ordering::AcqRel);
        Ok(sid)
    }

    /// Opens a session and wraps it in a [`SessionHandle`].
    pub fn open_session(
        &self,
        num_vars: u32,
        inprocess: bool,
    ) -> Result<SessionHandle, DaemonError> {
        let sid = self.open(num_vars, inprocess)?;
        Ok(SessionHandle {
            daemon: self.clone(),
            sid,
            closed: false,
        })
    }

    /// Adds clauses (DIMACS-signed literals) to an idle session.
    pub fn add_clauses(&self, sid: u64, clauses: &[Vec<i64>]) -> Result<(), DaemonError> {
        self.with_idle_solver(sid, |solver, vars| {
            let mut lits = Vec::new();
            for clause in clauses {
                lits.clear();
                for &dimacs in clause {
                    lits.push(lit_in_range(sid, dimacs, vars)?);
                }
                if !solver.add_clause(&lits) {
                    // The formula became root-UNSAT; later solves will
                    // report it. Adding more clauses stays legal.
                    return Ok(());
                }
            }
            Ok(())
        })
    }

    /// Freezes literals' variables so inprocessing can never eliminate
    /// them — required before assuming a variable that has no clauses
    /// yet (e.g. activation literals of future BMC frames).
    pub fn freeze(&self, sid: u64, lits: &[i64]) -> Result<(), DaemonError> {
        self.with_idle_solver(sid, |solver, vars| {
            let mut frozen = Vec::with_capacity(lits.len());
            for &dimacs in lits {
                frozen.push(lit_in_range(sid, dimacs, vars)?);
            }
            solver.freeze_lits(&frozen);
            Ok(())
        })
    }

    /// Solves under assumptions, blocking until the verdict. `deadline`
    /// defaults to [`DaemonConfig::default_deadline`] and is clamped to
    /// [`DaemonConfig::max_deadline`]. Admission errors (`busy`,
    /// `draining`, session-state errors) return without queueing.
    pub fn solve(
        &self,
        sid: u64,
        assumptions: &[i64],
        deadline: Option<Duration>,
    ) -> Result<SolveReply, DaemonError> {
        let (tx, rx) = mpsc::channel();
        self.submit_solve(
            sid,
            assumptions.to_vec(),
            deadline,
            Box::new(move |_rid, reply| {
                let _ = tx.send(reply);
            }),
        )?;
        rx.recv()
            .unwrap_or_else(|_| Err(DaemonError::Internal("worker dropped the reply".into())))
    }

    /// Asynchronous solve: admission happens synchronously (errors
    /// return immediately and `cb` is *not* invoked); once admitted,
    /// returns the minted request id and `cb` later receives that id
    /// plus the outcome on a worker thread. The admitted job owns the
    /// session's solver until then. Every admitted request — whatever
    /// its fate — emits exactly one terminal
    /// [`telemetry::RequestRecord`] carrying the same id.
    pub fn submit_solve(
        &self,
        sid: u64,
        assumptions: Vec<i64>,
        deadline: Option<Duration>,
        cb: SolveCallback,
    ) -> Result<u64, DaemonError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::Acquire) {
            return Err(DaemonError::Draining);
        }
        let now = Instant::now();
        let mut sessions = lock(&inner.sessions);
        self.evict_idle(&mut sessions, now);
        let session = sessions
            .get_mut(&sid)
            .ok_or(DaemonError::NoSuchSession(sid))?;
        match &session.state {
            SessionState::Idle(_) => {}
            SessionState::Busy => return Err(DaemonError::SessionBusy(sid)),
            SessionState::Crashed(msg) => {
                return Err(DaemonError::SessionCrashed(sid, msg.clone()))
            }
            SessionState::Evicted(why) => return Err(DaemonError::SessionEvicted(sid, why)),
            SessionState::Closed => return Err(DaemonError::SessionClosed(sid)),
        }
        let vars = session.vars;
        let mut lits = Vec::with_capacity(assumptions.len());
        for &dimacs in &assumptions {
            lits.push(lit_in_range(sid, dimacs, vars)?);
        }
        // Admission control proper: bounded queue, then memory cap.
        if lock(&inner.queue).len() >= inner.cfg.queue_depth {
            return Err(self.reject_busy());
        }
        // The job takes the solver here, so the slot reads `Busy` and the
        // memory admission below cannot evict the session it admits.
        let SessionState::Idle(solver) = std::mem::replace(&mut session.state, SessionState::Busy)
        else {
            unreachable!("the session was idle under this same guard");
        };
        let admitted = self.mem_admit(&mut sessions, 0);
        let session = sessions.get_mut(&sid).expect("eviction keeps every slot");
        if admitted.is_err() {
            session.state = SessionState::Idle(solver);
            return Err(self.reject_busy());
        }
        session.last_used = now;
        drop(sessions);

        let timeout = deadline
            .unwrap_or(inner.cfg.default_deadline)
            .min(inner.cfg.max_deadline);
        let request_id = inner.next_request.fetch_add(1, Ordering::AcqRel);
        let job = Job {
            request_id,
            session: sid,
            solver,
            assumptions: lits,
            deadline_at: now + timeout,
            admitted_at: now,
            cb,
        };
        lock(&inner.queue).push_back(job);
        inner.queue_cv.notify_one();
        inner.stats.admitted.fetch_add(1, Ordering::AcqRel);
        Ok(request_id)
    }

    /// The satisfying model of the last `Sat` solve, as DIMACS-signed
    /// literals (one per variable, in variable order).
    pub fn model(&self, sid: u64) -> Result<Vec<i64>, DaemonError> {
        let sessions = lock(&self.inner.sessions);
        let session = sessions.get(&sid).ok_or(DaemonError::NoSuchSession(sid))?;
        let model = session
            .last_model
            .as_ref()
            .ok_or(DaemonError::NoModel(sid))?;
        Ok(model
            .iter()
            .enumerate()
            .map(|(i, &value)| {
                let dimacs = (i + 1) as i64;
                if value {
                    dimacs
                } else {
                    -dimacs
                }
            })
            .collect())
    }

    /// The failed-assumption core of the last `Unsat` solve, as
    /// DIMACS-signed literals.
    pub fn core(&self, sid: u64) -> Result<Vec<i64>, DaemonError> {
        let sessions = lock(&self.inner.sessions);
        let session = sessions.get(&sid).ok_or(DaemonError::NoSuchSession(sid))?;
        let core = session.last_core.as_ref().ok_or(DaemonError::NoCore(sid))?;
        Ok(core.iter().map(|l| l.to_dimacs() as i64).collect())
    }

    /// Closes a session, releasing its solver. Closing a crashed or
    /// evicted session succeeds (it is the cleanup path); closing a
    /// closed session is a typed error; closing a session with a solve
    /// in flight is refused.
    pub fn close(&self, sid: u64) -> Result<(), DaemonError> {
        let mut sessions = lock(&self.inner.sessions);
        let session = sessions
            .get_mut(&sid)
            .ok_or(DaemonError::NoSuchSession(sid))?;
        match &session.state {
            SessionState::Busy => return Err(DaemonError::SessionBusy(sid)),
            SessionState::Closed => return Err(DaemonError::SessionClosed(sid)),
            SessionState::Idle(_) | SessionState::Crashed(_) | SessionState::Evicted(_) => {}
        }
        let mem = session.mem_bytes;
        session.state = SessionState::Closed;
        session.mem_bytes = 0;
        session.last_model = None;
        session.last_core = None;
        self.inner.mem_total.fetch_sub(mem, Ordering::AcqRel);
        Ok(())
    }

    /// Robustness counters so far.
    pub fn stats(&self) -> DaemonStats {
        let s = &self.inner.stats;
        DaemonStats {
            admitted: s.admitted.load(Ordering::Acquire),
            rejected: s.rejected.load(Ordering::Acquire),
            evicted: s.evicted.load(Ordering::Acquire),
            crashed: s.crashed.load(Ordering::Acquire),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Acquire),
            completed: s.completed.load(Ordering::Acquire),
        }
    }

    /// Current occupancy.
    pub fn status(&self) -> DaemonStatus {
        let live = lock(&self.inner.sessions)
            .values()
            .filter(|s| matches!(s.state, SessionState::Idle(_) | SessionState::Busy))
            .count();
        DaemonStatus {
            sessions: live,
            queued: lock(&self.inner.queue).len(),
            running: self.inner.running.load(Ordering::Acquire),
            draining: self.inner.draining.load(Ordering::Acquire),
            memory_bytes: self.inner.mem_total.load(Ordering::Acquire),
        }
    }

    /// True once a drain or shutdown began.
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Stops admitting new work. Queued and running solves continue;
    /// call [`Daemon::shutdown`] to also wait for them.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
        self.inner.queue_cv.notify_all();
    }

    /// Graceful drain: stops admissions, waits for every queued and
    /// running solve to deliver its callback, joins the workers, and
    /// flushes the records sink. Idempotent.
    pub fn shutdown(&self) {
        self.begin_drain();
        let handles = std::mem::take(&mut *lock(&self.inner.workers));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(records) = &self.inner.records {
            lock(records).flush();
        }
        if let Some(records) = &self.inner.request_records {
            lock(records).flush();
        }
    }

    // ---- internals -----------------------------------------------------

    /// Counts an admission-control rejection and returns its `busy`
    /// error with the retry hint.
    fn reject_busy(&self) -> DaemonError {
        self.inner.stats.rejected.fetch_add(1, Ordering::AcqRel);
        DaemonError::Busy {
            retry_after_ms: self.inner.cfg.retry_after_ms,
        }
    }

    fn count_evicted(&self) {
        self.inner.stats.evicted.fetch_add(1, Ordering::AcqRel);
    }

    /// Evicts idle-timed-out sessions. Busy sessions are shielded.
    fn evict_idle(&self, sessions: &mut HashMap<u64, Session>, now: Instant) {
        let timeout = self.inner.cfg.idle_timeout;
        let mut freed = 0u64;
        for session in sessions.values_mut() {
            let expired = matches!(session.state, SessionState::Idle(_))
                && now.duration_since(session.last_used) > timeout;
            if expired {
                freed += session.mem_bytes;
                session.state = SessionState::Evicted("idle");
                session.mem_bytes = 0;
                session.last_model = None;
                session.last_core = None;
                self.count_evicted();
            }
        }
        if freed > 0 {
            self.inner.mem_total.fetch_sub(freed, Ordering::AcqRel);
        }
    }

    /// Memory admission: ensures `extra` more bytes fit under the cap,
    /// evicting least-recently-used idle sessions if needed. Busy
    /// sessions, the one being admitted among them, are never victims.
    fn mem_admit(&self, sessions: &mut HashMap<u64, Session>, extra: u64) -> Result<(), ()> {
        let cap = self.inner.cfg.max_memory_bytes;
        let over = |total: u64| total.saturating_add(extra) > cap;
        if !over(self.inner.mem_total.load(Ordering::Acquire)) {
            return Ok(());
        }
        // LRU order over evictable sessions.
        let mut victims: Vec<(u64, Instant)> = sessions
            .iter()
            .filter(|(_, s)| matches!(s.state, SessionState::Idle(_)))
            .map(|(&sid, s)| (sid, s.last_used))
            .collect();
        victims.sort_by_key(|&(_, used)| used);
        for (sid, _) in victims {
            if !over(self.inner.mem_total.load(Ordering::Acquire)) {
                break;
            }
            let session = sessions.get_mut(&sid).expect("victim session exists");
            let mem = session.mem_bytes;
            session.state = SessionState::Evicted("memory");
            session.mem_bytes = 0;
            session.last_model = None;
            session.last_core = None;
            self.inner.mem_total.fetch_sub(mem, Ordering::AcqRel);
            self.count_evicted();
        }
        if over(self.inner.mem_total.load(Ordering::Acquire)) {
            Err(())
        } else {
            Ok(())
        }
    }

    /// Runs `f` against the checked-in solver of an idle session,
    /// producing precise errors for every other state.
    fn with_idle_solver<T>(
        &self,
        sid: u64,
        f: impl FnOnce(&mut Solver, u32) -> Result<T, DaemonError>,
    ) -> Result<T, DaemonError> {
        let mut sessions = lock(&self.inner.sessions);
        let session = sessions
            .get_mut(&sid)
            .ok_or(DaemonError::NoSuchSession(sid))?;
        let vars = session.vars;
        match &mut session.state {
            SessionState::Idle(solver) => {
                session.last_used = Instant::now();
                f(solver, vars)
            }
            SessionState::Busy => Err(DaemonError::SessionBusy(sid)),
            SessionState::Crashed(msg) => Err(DaemonError::SessionCrashed(sid, msg.clone())),
            SessionState::Evicted(why) => Err(DaemonError::SessionEvicted(sid, why)),
            SessionState::Closed => Err(DaemonError::SessionClosed(sid)),
        }
    }
}

/// Maps a DIMACS literal into the session's declared variable range.
fn lit_in_range(sid: u64, dimacs: i64, num_vars: u32) -> Result<Lit, DaemonError> {
    let out_of_range = DaemonError::VarOutOfRange {
        session: sid,
        lit: dimacs,
        num_vars,
    };
    let magnitude = dimacs.unsigned_abs();
    if dimacs == 0 || magnitude > num_vars as u64 {
        return Err(out_of_range);
    }
    Ok(Lit::from_dimacs(dimacs as i32))
}

// ---- worker pool -------------------------------------------------------

/// Blocks until a job is available (`Some`) or the daemon is draining
/// with an empty queue (`None`). The queue guard never escapes this
/// function.
fn next_job(inner: &Inner) -> Option<Job> {
    let mut queue = lock(&inner.queue);
    loop {
        if let Some(job) = queue.pop_front() {
            return Some(job);
        }
        if inner.draining.load(Ordering::Acquire) {
            return None;
        }
        // A timed wait so a missed wakeup degrades to 100 ms of
        // latency instead of a hang.
        queue = inner
            .queue_cv
            .wait_timeout(queue, Duration::from_millis(100))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

fn worker_loop(inner: &Inner, worker_id: u64) {
    while let Some(job) = next_job(inner) {
        inner.running.fetch_add(1, Ordering::AcqRel);
        let request_id = job.request_id;
        inject_scheduler_stall(request_id);
        let (cb, result) = execute_solve(inner, job, worker_id);
        // The callback is foreign code (e.g. a connection writer); its
        // panics must not kill the worker.
        let _ = run_isolated(move || cb(request_id, result));
        inner.running.fetch_sub(1, Ordering::AcqRel);
    }
}

type SolveOutcome = (SolveCallback, Result<SolveReply, DaemonError>);

/// Executes one admitted solve end to end: isolated solve, checkin (or
/// quarantine), telemetry. Each of its four exit paths (queued past the
/// deadline, eliminated assumption, crash quarantine, verdict) writes the
/// request's one terminal record.
fn execute_solve(inner: &Inner, job: Job, worker_id: u64) -> SolveOutcome {
    let Job {
        request_id,
        session: sid,
        mut solver,
        assumptions,
        deadline_at,
        admitted_at,
        cb,
    } = job;

    let mut record = RequestRecord::new(request_id, sid);
    record.worker = worker_id;
    record.queue_wait_ms = admitted_at.elapsed().as_secs_f64() * 1e3;

    if Instant::now() >= deadline_at {
        // Queued past its deadline: degrade without touching the solver.
        inner.stats.deadline_exceeded.fetch_add(1, Ordering::AcqRel);
        let verdict = Verdict::Unknown("deadline".to_string());
        let mem = checkin_solver(inner, sid, solver, None, None);
        inner.stats.completed.fetch_add(1, Ordering::AcqRel);
        record.verdict = "unknown".to_string();
        record.stop_cause = Some("deadline".to_string());
        finish_request(inner, record);
        return (
            cb,
            Ok(SolveReply {
                request_id,
                verdict,
                conflicts: 0,
                propagations: 0,
                duration_ms: 0,
                memory_bytes: mem,
            }),
        );
    }

    // A stale-frozen assumption is a client contract error, not a crash.
    if let Some(v) = solver.find_eliminated(&assumptions) {
        checkin_solver(inner, sid, solver, None, None);
        let err = DaemonError::EliminatedAssumption(sid, v);
        record.verdict = "error".to_string();
        record.error_kind = Some(err.kind().to_string());
        finish_request(inner, record);
        return (cb, Err(err));
    }
    solver.freeze_lits(&assumptions);

    // Memory budget: the cap minus what every *other* session holds.
    let others = inner
        .mem_total
        .load(Ordering::Acquire)
        .saturating_sub(solver.approx_memory_bytes());
    let headroom = inner
        .cfg
        .max_memory_bytes
        .saturating_sub(others)
        .max(1 << 20);
    let mut budget = Budget::unlimited();
    budget.deadline = Some(deadline_at);
    budget.max_memory_bytes = Some(headroom);

    // The recorder reads the phase clocks and, at solve end, walks the
    // clause arena for its record: only worth it when the record is kept.
    // Its instance id names the request, so the run record joins the
    // request record on (`session`, `request_id`).
    if inner.records.is_some() {
        solver.set_telemetry(SolverTelemetry::new(format!(
            "session-{sid}/request-{request_id}"
        )));
    }

    let before = *solver.stats();
    let started = Instant::now();
    let isolated = run_isolated(move || {
        inject_session_panic(sid, request_id);
        let result = solver.solve_with_assumptions(&assumptions, budget);
        (solver, result)
    });
    let solve_ms = started.elapsed().as_secs_f64() * 1e3;
    record.solve_ms = solve_ms;
    let duration_ms = solve_ms as u64;

    let (mut solver, result) = match isolated {
        Ok(pair) => pair,
        Err(crash) => {
            quarantine_session(inner, sid, &crash.message);
            record.verdict = "error".to_string();
            record.error_kind = Some("crashed".to_string());
            record.degrade("session-crash", crash.message.clone());
            finish_request(inner, record);
            return (cb, Err(DaemonError::SessionCrashed(sid, crash.message)));
        }
    };

    let after = *solver.stats();
    let (verdict, model, core) = match result {
        SolveResult::Sat(model) => (Verdict::Sat, Some(model), None),
        SolveResult::Unsat => (Verdict::Unsat, None, Some(solver.unsat_core().to_vec())),
        SolveResult::Unknown => {
            let cause = solver
                .stop_cause()
                .map(|c| c.as_str().to_string())
                .unwrap_or_else(|| "budget".to_string());
            if cause == "deadline" {
                inner.stats.deadline_exceeded.fetch_add(1, Ordering::AcqRel);
            }
            (Verdict::Unknown(cause), None, None)
        }
    };

    emit_record(inner, &mut solver);
    let mem = checkin_solver(inner, sid, solver, model, core);
    inner.stats.completed.fetch_add(1, Ordering::AcqRel);
    record.verdict = verdict.as_str().to_string();
    if let Verdict::Unknown(cause) = &verdict {
        record.stop_cause = Some(cause.clone());
    }
    record.stats = after.delta_since(&before).to_json();
    finish_request(inner, record);
    (
        cb,
        Ok(SolveReply {
            request_id,
            verdict,
            conflicts: after.conflicts.saturating_sub(before.conflicts),
            propagations: after.propagations.saturating_sub(before.propagations),
            duration_ms,
            memory_bytes: mem,
        }),
    )
}

/// Checkin: Busy -> Idle, returning the job's solver to its slot,
/// refreshing the memory accounting, and stashing the latest model/core.
/// Returns the session's new memory footprint.
fn checkin_solver(
    inner: &Inner,
    sid: u64,
    solver: Box<Solver>,
    model: Option<Vec<bool>>,
    core: Option<Vec<Lit>>,
) -> u64 {
    let mem = solver.approx_memory_bytes();
    let mut sessions = lock(&inner.sessions);
    if let Some(session) = sessions.get_mut(&sid) {
        let old = session.mem_bytes;
        session.mem_bytes = mem;
        session.last_used = Instant::now();
        session.last_model = model;
        session.last_core = core;
        session.state = SessionState::Idle(solver);
        if mem >= old {
            inner.mem_total.fetch_add(mem - old, Ordering::AcqRel);
        } else {
            inner.mem_total.fetch_sub(old - mem, Ordering::AcqRel);
        }
    }
    mem
}

/// Quarantine: the solver died with its panic; the session slot records
/// why, its memory accounting is released, and everything else keeps
/// running.
fn quarantine_session(inner: &Inner, sid: u64, message: &str) {
    {
        let mut sessions = lock(&inner.sessions);
        if let Some(session) = sessions.get_mut(&sid) {
            let old = session.mem_bytes;
            session.mem_bytes = 0;
            session.last_model = None;
            session.last_core = None;
            session.state = SessionState::Crashed(message.to_string());
            inner.mem_total.fetch_sub(old, Ordering::AcqRel);
        }
    }
    inner.stats.crashed.fetch_add(1, Ordering::AcqRel);
}

/// Appends the solve's [`telemetry::RunRecord`] to the records sink (the
/// recorder is installed only while that sink is open). An `UNKNOWN`
/// solve's record says why in its `stop_cause`.
fn emit_record(inner: &Inner, solver: &mut Solver) {
    let (Some(records), Some(telemetry)) = (&inner.records, solver.take_telemetry()) else {
        return;
    };
    if let Some(record) = telemetry.into_record() {
        lock(records).emit(&Event::SolveEnd { record });
    }
}

/// The single terminal point of an admitted request: appends its
/// [`telemetry::RequestRecord`] to the request-records sink. Every
/// admitted request — success, crash-quarantined, deadline-degraded, or
/// drained at shutdown — passes through here exactly once.
fn finish_request(inner: &Inner, record: RequestRecord) {
    if let Some(records) = &inner.request_records {
        lock(records).emit(&Event::RequestEnd { record });
    }
}

/// A session with RAII cleanup: dropping the handle closes the session
/// on a best-effort basis (errors are ignored — the daemon's eviction
/// sweep is the backstop).
pub struct SessionHandle {
    daemon: Daemon,
    sid: u64,
    closed: bool,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("sid", &self.sid)
            .finish()
    }
}

impl SessionHandle {
    /// The session id (for mixing handle and raw-daemon calls).
    pub fn id(&self) -> u64 {
        self.sid
    }

    /// See [`Daemon::add_clauses`].
    pub fn add_clauses(&self, clauses: &[Vec<i64>]) -> Result<(), DaemonError> {
        self.daemon.add_clauses(self.sid, clauses)
    }

    /// See [`Daemon::freeze`].
    pub fn freeze(&self, lits: &[i64]) -> Result<(), DaemonError> {
        self.daemon.freeze(self.sid, lits)
    }

    /// See [`Daemon::solve`].
    pub fn solve(
        &self,
        assumptions: &[i64],
        deadline: Option<Duration>,
    ) -> Result<SolveReply, DaemonError> {
        self.daemon.solve(self.sid, assumptions, deadline)
    }

    /// See [`Daemon::model`].
    pub fn model(&self) -> Result<Vec<i64>, DaemonError> {
        self.daemon.model(self.sid)
    }

    /// See [`Daemon::core`].
    pub fn core(&self) -> Result<Vec<i64>, DaemonError> {
        self.daemon.core(self.sid)
    }

    /// Closes the session explicitly, surfacing the error if any.
    pub fn close(mut self) -> Result<(), DaemonError> {
        self.closed = true;
        self.daemon.close(self.sid)
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.daemon.close(self.sid);
        }
    }
}

// ---- fault injection ---------------------------------------------------

/// `scheduler-stall(at=N,delay_ms=D)`: the worker sleeps `D` ms before
/// servicing request `N` (`at` matches the request id) — a slow
/// scheduler in a box, for driving queue backpressure and deadline
/// misses in chaos tests.
#[cfg(feature = "faults")]
fn inject_scheduler_stall(request_id: u64) {
    if let Some(cfg) = faults::fire(faults::site::SCHEDULER_STALL, &[("at", request_id)]) {
        std::thread::sleep(Duration::from_millis(cfg.get_u64("delay_ms", 50)));
    }
}

#[cfg(not(feature = "faults"))]
fn inject_scheduler_stall(_request_id: u64) {}

/// `session-panic(session=S,at=N)`: panics inside the isolation scope
/// of the matching solve (`at` matches the request id) — a solver bug in
/// a box, for proving the quarantine holds.
#[cfg(feature = "faults")]
fn inject_session_panic(session: u64, request_id: u64) {
    if faults::fire(
        faults::site::SESSION_PANIC,
        &[("session", session), ("at", request_id)],
    )
    .is_some()
    {
        panic!("injected fault: session {session} solver panic");
    }
}

#[cfg(not(feature = "faults"))]
fn inject_session_panic(_session: u64, _request_id: u64) {}
