//! In-process portfolio solving with clause sharing.
//!
//! [`solve_portfolio`] races N diversified [`Solver`]s on scoped threads:
//! each worker gets its own seed, deletion policy, branching heuristic, and
//! restart schedule (see [`worker_config`]), all workers watch one shared
//! [`AtomicBool`] stop flag, and learned clauses below a glue threshold
//! flow through a lock-striped [`SharedClausePool`]. The first worker to
//! reach a verdict wins; its model (SAT) or the shared DRAT log (UNSAT) is
//! verified before the portfolio returns.
//!
//! # Proof soundness under sharing
//!
//! A worker's private proof would not replay once it imports foreign
//! clauses, so the portfolio keeps a single global, append-ordered
//! [`ProofLogger`] instead: every worker appends **every** clause it learns
//! (before publishing it to the pool) and nothing is ever deleted from the
//! log. RUP is monotone — a clause that is a RUP consequence of a set of
//! clauses remains one under any superset — and each learned clause is RUP
//! with respect to the input plus the producer's earlier clauses and
//! imports, all of which precede it in the log. Hence every step of the
//! global log is RUP at its position, imported clauses need no extra
//! logging, and the empty clause appended for an UNSAT winner closes a
//! checkable proof. The built-in checker stops at the first empty clause,
//! so trailing clauses from losing workers are harmless.

use crate::instrument::SolverTelemetry;
use crate::proof::{check_proof, ProofError, ProofLogger};
use crate::solver::{Branching, ClauseExchange, Solver};
use crate::{Budget, PolicyKind, RestartStrategy, SolveResult, SolverConfig, SolverStats};
use cnf::{Cnf, Lit};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use telemetry::json::Json;
use telemetry::RunRecord;

/// Default number of lock stripes in the shared pool.
const DEFAULT_STRIPES: usize = 8;
/// Default per-stripe clause capacity.
const DEFAULT_STRIPE_CAPACITY: usize = 4096;

/// A thread-safe per-worker solver customization hook (see
/// [`PortfolioConfig::configure`]).
pub type ConfigureHook = Arc<dyn Fn(&mut Solver) + Send + Sync>;

/// Configuration for one [`solve_portfolio`] call.
#[derive(Clone)]
pub struct PortfolioConfig {
    /// Number of racing workers (≥ 1).
    pub workers: usize,
    /// The base configuration; worker 0 runs it unchanged (modulo the
    /// policy mix), so `workers == 1` reproduces the sequential solver
    /// exactly. Workers ≥ 1 are diversified from it.
    pub base: SolverConfig,
    /// Per-worker search budget.
    pub budget: Budget,
    /// Deletion-policy assignment, cycled over workers. Empty means
    /// "alternate the base policy with its natural rival" (Default ↔
    /// PropFreq). `neuroselect::race` fills this from the classifier.
    pub policy_mix: Vec<PolicyKind>,
    /// Export learned clauses with glue ≤ this threshold (units included).
    pub export_glue: u32,
    /// Never export clauses longer than this.
    pub export_max_len: usize,
    /// Lock stripes in the shared pool.
    pub pool_stripes: usize,
    /// Per-stripe clause capacity; exports beyond it are dropped.
    pub pool_capacity: usize,
    /// Collect a shared DRAT log (required to verify UNSAT answers).
    pub proof: bool,
    /// Verify the winner (model check on SAT, RUP replay on UNSAT when a
    /// proof was collected) before returning.
    pub verify: bool,
    /// Telemetry instance-id prefix; worker records are tagged
    /// `{prefix}-w{worker}`.
    pub instance_id: String,
    /// Applied to every worker's solver right after construction (e.g. to
    /// set a check level in tests); must be thread-safe.
    pub configure: Option<ConfigureHook>,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            workers: 4,
            base: SolverConfig::default(),
            budget: Budget::unlimited(),
            policy_mix: Vec::new(),
            export_glue: 4,
            export_max_len: 32,
            pool_stripes: DEFAULT_STRIPES,
            pool_capacity: DEFAULT_STRIPE_CAPACITY,
            proof: false,
            verify: true,
            instance_id: String::from("portfolio"),
            configure: None,
        }
    }
}

impl PortfolioConfig {
    /// A default configuration with `workers` racing workers.
    pub fn new(workers: usize) -> Self {
        PortfolioConfig {
            workers,
            ..PortfolioConfig::default()
        }
    }
}

impl fmt::Debug for PortfolioConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PortfolioConfig")
            .field("workers", &self.workers)
            .field("policy_mix", &self.policy_mix)
            .field("export_glue", &self.export_glue)
            .field("proof", &self.proof)
            .field("verify", &self.verify)
            .finish_non_exhaustive()
    }
}

/// Why a portfolio solve could not return a trustworthy result.
#[derive(Debug)]
pub enum PortfolioError {
    /// The winning worker's SAT model failed verification.
    InvalidModel(String),
    /// The shared DRAT log failed RUP replay for an UNSAT verdict.
    ProofCheck(ProofError),
}

impl fmt::Display for PortfolioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortfolioError::InvalidModel(detail) => {
                write!(f, "winning model failed verification: {detail}")
            }
            PortfolioError::ProofCheck(e) => write!(f, "shared proof failed replay: {e}"),
        }
    }
}

impl std::error::Error for PortfolioError {}

/// Counter snapshot of a [`SharedClausePool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Clauses accepted into the pool.
    pub exported: u64,
    /// Clause copies handed to importing workers.
    pub imported: u64,
    /// Exports dropped because an identical clause was already pooled.
    pub dropped_duplicate: u64,
    /// Exports dropped because the target stripe was full.
    pub dropped_capacity: u64,
    /// Exports and imports skipped because the target stripe was poisoned
    /// by a crashed worker.
    pub dropped_poisoned: u64,
    /// Exports rejected and pooled entries withheld because their
    /// producer was quarantined after crashing.
    pub dropped_quarantined: u64,
}

/// One clause in the pool, cheap to clone across importers.
struct PoolEntry {
    producer: usize,
    glue: u32,
    lits: Arc<[Lit]>,
}

/// A lock stripe: the clauses routed to it plus their dedup keys.
#[derive(Default)]
struct Stripe {
    entries: Vec<PoolEntry>,
    /// Sorted literal codes of every entry; membership lookups only (never
    /// iterated), so insertion order cannot leak into results.
    keys: HashSet<Vec<u32>>,
}

/// A lock-striped clause pool shared by all portfolio workers.
///
/// Exported clauses are routed to a stripe by a deterministic hash of
/// their sorted literals; workers keep a per-stripe cursor and drain only
/// entries appended since their previous import, skipping their own.
pub struct SharedClausePool {
    stripes: Vec<Mutex<Stripe>>,
    capacity_per_stripe: usize,
    /// Bitmask of quarantined producers: bit `w` set means worker `w`'s
    /// entries are withheld from importers and its exports rejected.
    /// Workers ≥ 63 share the top bit — conservative (a crash among them
    /// quarantines them all), which only costs sharing, never soundness.
    quarantined: AtomicU64,
    // Pure statistics counters: ordering never gates correctness.
    exported: AtomicU64,       // xtask: allow(atomic-ordering) statistics counter
    imported: AtomicU64,       // xtask: allow(atomic-ordering) statistics counter
    dropped_dup: AtomicU64,    // xtask: allow(atomic-ordering) statistics counter
    dropped_cap: AtomicU64,    // xtask: allow(atomic-ordering) statistics counter
    dropped_poison: AtomicU64, // xtask: allow(atomic-ordering) statistics counter
    dropped_quar: AtomicU64,   // xtask: allow(atomic-ordering) statistics counter
}

impl SharedClausePool {
    /// Creates a pool with `stripes` lock stripes of `capacity` clauses.
    pub fn new(stripes: usize, capacity: usize) -> Self {
        let stripes = stripes.max(1);
        SharedClausePool {
            stripes: (0..stripes)
                .map(|_| Mutex::new(Stripe::default()))
                .collect(),
            capacity_per_stripe: capacity.max(1),
            quarantined: AtomicU64::new(0),
            exported: AtomicU64::new(0),
            imported: AtomicU64::new(0),
            dropped_dup: AtomicU64::new(0),
            dropped_cap: AtomicU64::new(0),
            dropped_poison: AtomicU64::new(0),
            dropped_quar: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            exported: self.exported.load(Ordering::Relaxed), // xtask: allow(atomic-ordering) statistics counter
            imported: self.imported.load(Ordering::Relaxed), // xtask: allow(atomic-ordering) statistics counter
            dropped_duplicate: self.dropped_dup.load(Ordering::Relaxed), // xtask: allow(atomic-ordering) statistics counter
            dropped_capacity: self.dropped_cap.load(Ordering::Relaxed), // xtask: allow(atomic-ordering) statistics counter
            dropped_poisoned: self.dropped_poison.load(Ordering::Relaxed), // xtask: allow(atomic-ordering) statistics counter
            dropped_quarantined: self.dropped_quar.load(Ordering::Relaxed), // xtask: allow(atomic-ordering) statistics counter
        }
    }

    /// Quarantines `producer`: entries it already exported are withheld
    /// from future imports and new exports from it are rejected. Called
    /// when a worker crashes — its panic is evidence of internal-state
    /// corruption, so nothing it published is trusted anymore. (Clauses
    /// imported *before* the quarantine remain subject to end-of-race
    /// verification; see the module docs on soundness.)
    pub fn quarantine(&self, producer: usize) {
        // AcqRel publishes the bit before the crash is reported; importers
        // read with Acquire in `is_quarantined`.
        self.quarantined
            .fetch_or(quarantine_bit(producer), Ordering::AcqRel);
    }

    /// Whether `producer` has been quarantined.
    pub fn is_quarantined(&self, producer: usize) -> bool {
        self.quarantined.load(Ordering::Acquire) & quarantine_bit(producer) != 0
    }

    /// Locks a stripe, treating a stripe poisoned by a crashed worker as
    /// unavailable (`None`). Sharing is an optimization: a poisoned
    /// stripe may hold a half-inserted entry whose dedup key and clause
    /// disagree, so it is *skipped*, not recovered — the satellite
    /// hardening over the old silent `PoisonError::into_inner`.
    fn lock_stripe(&self, index: usize) -> Option<MutexGuard<'_, Stripe>> {
        let stripe = self
            .stripes
            .get(index)
            .unwrap_or_else(|| unreachable!("stripe index {index} routed out of range"));
        stripe.lock().ok()
    }

    /// Offers a clause to the pool. Returns `true` if it was accepted
    /// (producer healthy, not a duplicate, stripe not full or poisoned).
    pub fn export(&self, producer: usize, lits: &[Lit], glue: u32) -> bool {
        if self.is_quarantined(producer) {
            self.dropped_quar.fetch_add(1, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
            return false;
        }
        let key = clause_key(lits);
        let stripe_index = route(&key, self.stripes.len());
        let Some(mut stripe) = self.lock_stripe(stripe_index) else {
            self.dropped_poison.fetch_add(1, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
            return false;
        };
        if stripe.keys.contains(&key) {
            self.dropped_dup.fetch_add(1, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
            return false;
        }
        if stripe.entries.len() >= self.capacity_per_stripe {
            self.dropped_cap.fetch_add(1, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
            return false;
        }
        stripe.keys.insert(key);
        stripe.entries.push(PoolEntry {
            producer,
            glue,
            lits: lits.into(),
        });
        // Counters and telemetry can block or panic (sink I/O, metrics
        // asserts): keep them outside the stripe's critical section.
        drop(stripe);
        self.exported.fetch_add(1, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
        telemetry::metrics::inc(telemetry::metrics::Counter::PoolExported);
        telemetry::trace::instant_with(
            "clause-export",
            &[("glue", u64::from(glue)), ("stripe", stripe_index as u64)],
        );
        true
    }

    /// Streams every clause appended since `cursors` (one per stripe) that
    /// `consumer` did not produce itself, advancing the cursors. Returns
    /// the number of clauses delivered.
    pub fn import_new(
        &self,
        consumer: usize,
        cursors: &mut [usize],
        each: &mut dyn FnMut(&[Lit], u32),
    ) -> u64 {
        let mut delivered = 0u64;
        let quarantined = self.quarantined.load(Ordering::Acquire);
        for (index, cursor) in cursors.iter_mut().enumerate() {
            let Some(stripe) = self.lock_stripe(index) else {
                // Poisoned stripe: withhold it entirely. The cursor is not
                // advanced — the stripe stays poisoned for the rest of the
                // race anyway.
                self.dropped_poison.fetch_add(1, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
                continue;
            };
            // Snapshot the new tail under the lock; the callback runs after
            // release so one slow importer never blocks exporters.
            let mut withheld = 0u64;
            let fresh: Vec<(Arc<[Lit]>, u32)> = stripe
                .entries
                .get(*cursor..)
                .unwrap_or_default()
                .iter()
                .filter(|e| e.producer != consumer)
                .filter(|e| {
                    let healthy = quarantined & quarantine_bit(e.producer) == 0;
                    withheld += u64::from(!healthy);
                    healthy
                })
                .map(|e| (Arc::clone(&e.lits), e.glue))
                .collect();
            *cursor = stripe.entries.len();
            drop(stripe);
            if withheld > 0 {
                self.dropped_quar.fetch_add(withheld, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
            }
            for (lits, glue) in fresh {
                telemetry::trace::instant_with(
                    "clause-import",
                    &[("glue", u64::from(glue)), ("stripe", index as u64)],
                );
                each(&lits, glue);
                delivered += 1;
            }
        }
        self.imported.fetch_add(delivered, Ordering::Relaxed); // xtask: allow(atomic-ordering) statistics counter
        telemetry::metrics::add(telemetry::metrics::Counter::PoolImported, delivered);
        delivered
    }
}

/// The quarantine-mask bit for a producer (workers ≥ 63 share bit 63).
fn quarantine_bit(producer: usize) -> u64 {
    1u64 << producer.min(63)
}

/// Sorted literal codes: the canonical dedup key of a clause.
fn clause_key(lits: &[Lit]) -> Vec<u32> {
    let mut key: Vec<u32> = lits.iter().map(|l| l.code()).collect();
    key.sort_unstable();
    key
}

/// Deterministic FNV-1a routing of a clause key to a stripe.
fn route(key: &[u32], stripes: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &code in key {
        h ^= u64::from(code);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % stripes.max(1) as u64) as usize
}

/// The per-worker [`ClauseExchange`]: filters exports by glue and length,
/// appends every learned clause to the shared proof log, and drains the
/// pool through per-stripe cursors.
struct WorkerExchange {
    worker: usize,
    pool: Arc<SharedClausePool>,
    cursors: Vec<usize>,
    export_glue: u32,
    export_max_len: usize,
    proof: Option<Arc<Mutex<ProofLogger>>>,
    exported: u64,
    imported: u64,
    /// Clauses learned by this worker so far (fault-point counter).
    learned: u64,
}

impl WorkerExchange {
    fn new(
        worker: usize,
        pool: Arc<SharedClausePool>,
        export_glue: u32,
        export_max_len: usize,
        proof: Option<Arc<Mutex<ProofLogger>>>,
    ) -> Self {
        let cursors = vec![0; pool.num_stripes()];
        WorkerExchange {
            worker,
            pool,
            cursors,
            export_glue,
            export_max_len,
            proof,
            exported: 0,
            imported: 0,
            learned: 0,
        }
    }
}

impl ClauseExchange for WorkerExchange {
    fn on_learn(&mut self, lits: &[Lit], glue: u32) {
        self.learned += 1;
        // Fault point: a worker panic mid-learn, possibly while other
        // workers hold stripe locks on the pool this worker shares.
        crate::resilience::inject_worker_panic(self.worker, self.learned);
        // Proof first, pool second: the pool insert synchronizes with the
        // consumer's stripe lock, so any clause visible to an importer is
        // already in the log — the ordering the RUP argument relies on.
        // The proof mutex is recovered (not skipped) on poisoning: the
        // logger's append is a single Vec push, so a poisoned guard means
        // at worst a complete, valid entry from the panicking worker, and
        // the log's validity is independently established by RUP replay.
        if let Some(proof) = &self.proof {
            proof
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .add(lits);
        }
        if glue <= self.export_glue && !lits.is_empty() && lits.len() <= self.export_max_len {
            // Fault point: corruption in the sharing channel. The proof
            // logged the clause as learned; the pool sees the corrupted
            // copy, exactly the hazard end-of-race verification guards.
            let exported =
                match crate::resilience::inject_pool_corruption(self.worker, self.exported, lits) {
                    Some(corrupted) => self.pool.export(self.worker, &corrupted, glue),
                    None => self.pool.export(self.worker, lits, glue),
                };
            if exported {
                self.exported += 1;
            }
        }
    }

    fn import(&mut self, each: &mut dyn FnMut(&[Lit], u32)) {
        self.imported += self.pool.import_new(self.worker, &mut self.cursors, each);
    }

    fn counters(&self) -> (u64, u64) {
        (self.exported, self.imported)
    }
}

/// What one worker did during the race.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index (0-based; worker 0 runs the base configuration).
    pub worker: usize,
    /// Deletion-policy label of the worker's configuration.
    pub policy: String,
    /// The worker's seed.
    pub seed: u64,
    /// The worker's own verdict (`"SAT"`, `"UNSAT"`, `"UNKNOWN"`, or
    /// `"CRASHED"` for a worker that panicked).
    pub verdict: String,
    /// Whether the worker panicked (its exports were quarantined and the
    /// race degraded to the survivors).
    pub crashed: bool,
    /// Final solver statistics.
    pub stats: SolverStats,
    /// Clauses this worker published to the pool.
    pub exported: u64,
    /// Clauses this worker pulled from the pool.
    pub imported: u64,
    /// Telemetry record (phase timings, distributions), tagged
    /// `{instance_id}-w{worker}` with the exchange counters in `extra`.
    pub record: Option<RunRecord>,
}

/// The outcome of a portfolio race.
#[derive(Debug)]
pub struct PortfolioResult {
    /// The verdict (winner's model on SAT; `Unknown` iff every worker
    /// exhausted its budget).
    pub result: SolveResult,
    /// Index of the worker whose verdict won, if any.
    pub winner: Option<usize>,
    /// One report per worker, in worker order.
    pub workers: Vec<WorkerReport>,
    /// Indices of workers that crashed (panicked) during the race.
    pub crashed: Vec<usize>,
    /// Shared-pool counters.
    pub pool: PoolStats,
    /// The shared DRAT log when [`PortfolioConfig::proof`] was set; ends
    /// with the empty clause iff the verdict is UNSAT.
    pub proof: Option<ProofLogger>,
}

/// Derives worker `worker`'s configuration from the base: worker 0 is the
/// base itself (modulo the policy mix — the determinism anchor), workers
/// ≥ 1 get decorrelated seeds, alternating initial phases, and rotating
/// branching/restart schedules.
pub fn worker_config(base: &SolverConfig, worker: usize, mix: &[PolicyKind]) -> SolverConfig {
    let mut cfg = base.clone();
    if !mix.is_empty() {
        if let Some(&policy) = mix.get(worker % mix.len()) {
            cfg.policy = policy;
        }
    }
    if worker == 0 {
        return cfg;
    }
    cfg.seed = splitmix64(base.seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    cfg.initial_phase = worker % 2 == 1;
    match worker % 3 {
        1 => {
            cfg.restart = RestartStrategy::Luby {
                scale: 32 << (worker % 4),
            }
        }
        2 => {
            cfg.restart = RestartStrategy::GlueEma {
                margin: 1.25,
                min_interval: 50,
            }
        }
        _ => {} // keep the base schedule
    }
    if worker % 4 == 3 {
        cfg.branching = Branching::Vmtf;
    }
    cfg
}

/// splitmix64: decorrelates worker seeds from the base seed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The default policy alternation when no mix is given: the base policy
/// first (worker 0), then its natural rival.
fn default_mix(base: PolicyKind) -> Vec<PolicyKind> {
    let rival = match base {
        PolicyKind::Default => PolicyKind::PropFreq,
        _ => PolicyKind::Default,
    };
    vec![base, rival]
}

/// What came back from one worker thread: a finished solve, or a caught
/// panic (recorded, quarantined, and degraded around — never propagated
/// unless *every* worker crashed).
enum WorkerOutcome {
    // Boxed: the report (stats + telemetry record) dwarfs a WorkerCrash.
    Finished(Box<FinishedWorker>),
    Crashed(crate::resilience::WorkerCrash),
}

struct FinishedWorker {
    result: SolveResult,
    report: WorkerReport,
    /// Single-worker mode records its proof locally (no shared log).
    local_proof: Option<ProofLogger>,
}

/// The stand-in for a crashed worker: verdict `"CRASHED"`, zeroed stats,
/// and a telemetry record carrying the panic as a degradation event.
fn crashed_report(
    worker: usize,
    base: &SolverConfig,
    mix: &[PolicyKind],
    instance_id: &str,
    crash: &crate::resilience::WorkerCrash,
) -> WorkerReport {
    let cfg = worker_config(base, worker, mix);
    let policy = cfg.policy.to_string();
    let mut record = RunRecord::new(format!("{instance_id}-w{worker}"), policy.clone());
    record.result = "CRASHED".to_string();
    record.degrade("worker-crash", crash.message.clone());
    record.extra.set("worker", Json::from(worker));
    WorkerReport {
        worker,
        policy,
        seed: cfg.seed,
        verdict: "CRASHED".to_string(),
        crashed: true,
        stats: SolverStats::default(),
        exported: 0,
        imported: 0,
        record: Some(record),
    }
}

/// Races `config.workers` diversified solvers over `formula` and returns
/// the first verdict, verified before return (see the module docs).
///
/// With `workers == 1` no exchange or stop flag is installed, so the
/// search — and therefore [`SolverStats`] — is bit-identical to the
/// sequential solver under `config.base` (guarded by the determinism
/// regression test).
///
/// # Crash isolation
///
/// Worker threads run under [`run_isolated`](crate::run_isolated): a
/// panicking worker is reported as `verdict: "CRASHED"` (with the panic
/// message as a `worker-crash` degradation event in its telemetry
/// record), its pool exports are quarantined, and the race degrades to
/// the survivors.
///
/// # Panics
///
/// Panics if `config.workers == 0`, or re-raises the first worker panic
/// when **every** worker crashed (there is no survivor to degrade to).
///
/// # Examples
///
/// ```
/// use sat_solver::{solve_portfolio, PortfolioConfig};
/// let f = cnf::parse_dimacs_str("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")?;
/// let mut cfg = PortfolioConfig::new(2);
/// cfg.proof = true;
/// let outcome = solve_portfolio(&f, &cfg).expect("verified");
/// assert!(outcome.result.is_sat());
/// assert_eq!(outcome.workers.len(), 2);
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
pub fn solve_portfolio(
    formula: &Cnf,
    config: &PortfolioConfig,
) -> Result<PortfolioResult, PortfolioError> {
    // xtask: allow(no-hard-assert) documented API contract, not search-loop code
    assert!(config.workers >= 1, "portfolio needs at least one worker");
    let n = config.workers;
    let mix = if config.policy_mix.is_empty() {
        default_mix(config.base.policy)
    } else {
        config.policy_mix.clone()
    };
    let stop = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(SharedClausePool::new(
        config.pool_stripes,
        config.pool_capacity,
    ));
    let shared_proof = (config.proof && n > 1).then(|| Arc::new(Mutex::new(ProofLogger::new())));
    // usize::MAX = unclaimed; the first decisive worker CASes its index in.
    let winner = AtomicUsize::new(usize::MAX);

    let raw_outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let cfg = worker_config(&config.base, i, &mix);
                let stop = Arc::clone(&stop);
                let pool = Arc::clone(&pool);
                let quarantine_pool = Arc::clone(&pool);
                let shared_proof = shared_proof.clone();
                let winner = &winner;
                let configure = config.configure.clone();
                let instance_id = &config.instance_id;
                scope.spawn(move || {
                    let isolated = crate::resilience::run_isolated(move || {
                        run_worker(WorkerContext {
                            formula,
                            cfg,
                            worker: i,
                            workers: n,
                            budget: config.budget,
                            want_proof: config.proof,
                            export_glue: config.export_glue,
                            export_max_len: config.export_max_len,
                            instance_id,
                            stop,
                            pool,
                            shared_proof,
                            winner,
                            configure,
                        })
                    });
                    let outcome = match isolated {
                        Ok(finished) => WorkerOutcome::Finished(Box::new(finished)),
                        Err(crash) => {
                            // Quarantine before this thread is joined: by
                            // the time the crash is observable, nothing
                            // the worker published is trusted anymore.
                            quarantine_pool.quarantine(i);
                            telemetry::trace::instant("worker-crash");
                            telemetry::trace::instant_with("quarantine", &[("worker", i as u64)]);
                            WorkerOutcome::Crashed(crash)
                        }
                    };
                    // Drain this worker's trace ring while still on its
                    // thread — after a crash this preserves every event the
                    // worker recorded up to the panic.
                    telemetry::trace::flush();
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                // A panic that escaped the isolation wrapper itself (not a
                // worker panic — those are caught inside the thread).
                Err(panic) => {
                    WorkerOutcome::Crashed(crate::resilience::WorkerCrash::from_payload(panic))
                }
            })
            .collect()
    });

    // Degrade around crashed workers; only all-workers-dead propagates.
    if raw_outcomes
        .iter()
        .all(|o| matches!(o, WorkerOutcome::Crashed(_)))
    {
        if let Some(WorkerOutcome::Crashed(crash)) = raw_outcomes
            .into_iter()
            .find(|o| matches!(o, WorkerOutcome::Crashed(_)))
        {
            crate::resilience::propagate(crash);
        }
        unreachable!("workers >= 1, so an all-crashed race has a first crash");
    }
    let mut crashed: Vec<usize> = Vec::new();
    let mut outcomes: Vec<FinishedWorker> = raw_outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| match outcome {
            WorkerOutcome::Finished(finished) => *finished,
            WorkerOutcome::Crashed(crash) => {
                crashed.push(i);
                FinishedWorker {
                    result: SolveResult::Unknown,
                    report: crashed_report(i, &config.base, &mix, &config.instance_id, &crash),
                    local_proof: None,
                }
            }
        })
        .collect();

    let winner_index = match winner.load(Ordering::Acquire) {
        usize::MAX => None,
        i => Some(i),
    };
    let result = match winner_index {
        Some(i) => outcomes
            .get_mut(i)
            .map(|o| std::mem::replace(&mut o.result, SolveResult::Unknown))
            .unwrap_or(SolveResult::Unknown),
        None => SolveResult::Unknown,
    };

    // Assemble the proof: single-worker mode recorded it locally; shared
    // mode closes the global log with the empty clause on UNSAT. The
    // shared-log mutex is recovered (not discarded) on poisoning — its
    // appends are atomic pushes, and RUP replay independently validates
    // whatever the crashed worker managed to log.
    let mut proof = match shared_proof {
        Some(arc) => Arc::try_unwrap(arc).ok().map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }),
        None => outcomes.iter_mut().find_map(|o| o.local_proof.take()),
    };
    if result.is_unsat() {
        if let Some(p) = &mut proof {
            if !p.claims_unsat() {
                p.add_empty();
            }
        }
    }

    if config.verify {
        if let Some(model) = result.model() {
            if let Err(e) = cnf::verify_model(formula, model) {
                return Err(PortfolioError::InvalidModel(e.to_string()));
            }
        }
        if result.is_unsat() {
            if let Some(p) = &proof {
                check_proof(formula, p).map_err(PortfolioError::ProofCheck)?;
            }
        }
    }

    Ok(PortfolioResult {
        result,
        winner: winner_index,
        workers: outcomes.into_iter().map(|o| o.report).collect(),
        crashed,
        pool: pool.stats(),
        proof,
    })
}

struct WorkerContext<'a> {
    formula: &'a Cnf,
    cfg: SolverConfig,
    worker: usize,
    workers: usize,
    budget: Budget,
    want_proof: bool,
    export_glue: u32,
    export_max_len: usize,
    instance_id: &'a str,
    stop: Arc<AtomicBool>,
    pool: Arc<SharedClausePool>,
    shared_proof: Option<Arc<Mutex<ProofLogger>>>,
    winner: &'a AtomicUsize,
    configure: Option<ConfigureHook>,
}

fn run_worker(ctx: WorkerContext<'_>) -> FinishedWorker {
    let policy = ctx.cfg.policy.to_string();
    let seed = ctx.cfg.seed;
    if telemetry::trace::armed() {
        // One Chrome lane per worker; pid 0 stays the coordinating thread
        // (and the NeuroSelect pipeline when racing under `neuroselect`).
        telemetry::trace::set_lane(
            ctx.worker as u32 + 1,
            &format!("worker {} ({policy})", ctx.worker),
        );
    }
    let _solve_span = telemetry::trace::span("solve");
    let mut solver = Solver::new(ctx.formula, ctx.cfg);
    if ctx.workers > 1 {
        solver.set_stop(Arc::clone(&ctx.stop));
        solver.set_exchange(Box::new(WorkerExchange::new(
            ctx.worker,
            Arc::clone(&ctx.pool),
            ctx.export_glue,
            ctx.export_max_len,
            ctx.shared_proof.clone(),
        )));
    } else if ctx.want_proof {
        // Single worker: its private proof is complete (nothing imported),
        // so it doubles as the portfolio's proof.
        solver.enable_proof();
    }
    if let Some(configure) = &ctx.configure {
        configure(&mut solver);
    }
    solver.set_telemetry(SolverTelemetry::new(format!(
        "{}-w{}",
        ctx.instance_id, ctx.worker
    )));

    let result = solver.solve_with_budget(ctx.budget);

    if !result.is_unknown()
        && ctx
            .winner
            .compare_exchange(usize::MAX, ctx.worker, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    {
        // First decisive worker wins; Release pairs with the losers'
        // Acquire loads of the stop flag.
        ctx.stop.store(true, Ordering::Release);
        telemetry::trace::instant_with("winner", &[("worker", ctx.worker as u64)]);
    }

    let (exported, imported) = solver
        .take_exchange()
        .map(|x| x.counters())
        .unwrap_or((0, 0));
    let verdict = result.verdict();
    let mut record = solver
        .take_telemetry()
        .and_then(SolverTelemetry::into_record);
    if let Some(r) = &mut record {
        r.extra.set("worker", Json::from(ctx.worker));
        r.extra.set("seed", Json::from(seed));
        r.extra.set("pool_exported", Json::from(exported));
        r.extra.set("pool_imported", Json::from(imported));
        // An Unknown verdict is a degraded outcome; record why (budget
        // exhaustion vs. losing the race) rather than leaving consumers
        // to guess. External stops are how losers normally end, so only
        // genuine budget exhaustion is tagged as a degradation.
        if let Some(cause) = solver.stop_cause() {
            r.extra.set("stop_cause", Json::from(cause.as_str()));
            if cause != crate::StopCause::External {
                r.degrade("budget-exhausted", cause.as_str());
            }
        }
    }
    FinishedWorker {
        result,
        report: WorkerReport {
            worker: ctx.worker,
            policy,
            seed,
            verdict: verdict.to_string(),
            crashed: false,
            stats: *solver.stats(),
            exported,
            imported,
            record,
        },
        local_proof: solver.take_proof(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnf_of(clauses: &[&[i32]]) -> Cnf {
        let mut f = Cnf::new(0);
        for c in clauses {
            f.add_dimacs(c);
        }
        f
    }

    #[test]
    fn pool_dedup_and_routing() {
        let pool = SharedClausePool::new(4, 8);
        let lits: Vec<Lit> = [1, -2, 3].iter().map(|&d| Lit::from_dimacs(d)).collect();
        let permuted: Vec<Lit> = [3, 1, -2].iter().map(|&d| Lit::from_dimacs(d)).collect();
        assert!(pool.export(0, &lits, 2));
        assert!(!pool.export(1, &permuted, 2), "permutation must dedup");
        let stats = pool.stats();
        assert_eq!(stats.exported, 1);
        assert_eq!(stats.dropped_duplicate, 1);
    }

    #[test]
    fn pool_import_skips_own_clauses_and_advances_cursor() {
        let pool = SharedClausePool::new(2, 8);
        let a: Vec<Lit> = [1, 2].iter().map(|&d| Lit::from_dimacs(d)).collect();
        let b: Vec<Lit> = [-1, 3].iter().map(|&d| Lit::from_dimacs(d)).collect();
        assert!(pool.export(0, &a, 2));
        assert!(pool.export(1, &b, 2));
        let mut cursors = vec![0; pool.num_stripes()];
        let mut seen = Vec::new();
        pool.import_new(0, &mut cursors, &mut |lits, _| seen.push(lits.to_vec()));
        assert_eq!(seen, vec![b.clone()], "own clause must be skipped");
        seen.clear();
        pool.import_new(0, &mut cursors, &mut |lits, _| seen.push(lits.to_vec()));
        assert!(seen.is_empty(), "cursor must not re-deliver");
    }

    #[test]
    fn pool_capacity_drops() {
        let pool = SharedClausePool::new(1, 1);
        let a: Vec<Lit> = [1, 2].iter().map(|&d| Lit::from_dimacs(d)).collect();
        let b: Vec<Lit> = [3, 4].iter().map(|&d| Lit::from_dimacs(d)).collect();
        assert!(pool.export(0, &a, 2));
        assert!(!pool.export(0, &b, 2));
        assert_eq!(pool.stats().dropped_capacity, 1);
    }

    #[test]
    fn poisoned_stripe_is_skipped_not_recovered() {
        let pool = SharedClausePool::new(1, 8);
        let a: Vec<Lit> = [1, 2].iter().map(|&d| Lit::from_dimacs(d)).collect();
        let b: Vec<Lit> = [3, 4].iter().map(|&d| Lit::from_dimacs(d)).collect();
        assert!(pool.export(0, &a, 2));
        // Poison the only stripe the way a crashed worker would: panic
        // while holding its lock.
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.stripes.first().expect("one stripe").lock().unwrap();
            panic!("injected stripe poisoning");
        }));
        assert!(poisoner.is_err());
        // Exports to the poisoned stripe are dropped, not recovered.
        assert!(!pool.export(1, &b, 2));
        assert_eq!(pool.stats().dropped_poisoned, 1);
        // Importers skip the stripe entirely — even entries that predate
        // the poisoning are withheld.
        let mut cursors = vec![0; pool.num_stripes()];
        let mut seen = 0;
        pool.import_new(1, &mut cursors, &mut |_, _| seen += 1);
        assert_eq!(seen, 0, "poisoned stripe must not deliver");
        assert_eq!(pool.stats().imported, 0);
        assert!(pool.stats().dropped_poisoned >= 2);
    }

    #[test]
    fn quarantined_producer_is_withheld_and_rejected() {
        let pool = SharedClausePool::new(1, 8);
        let a: Vec<Lit> = [1, 2].iter().map(|&d| Lit::from_dimacs(d)).collect();
        let b: Vec<Lit> = [3, 4].iter().map(|&d| Lit::from_dimacs(d)).collect();
        let c: Vec<Lit> = [5, 6].iter().map(|&d| Lit::from_dimacs(d)).collect();
        assert!(pool.export(0, &a, 2));
        assert!(pool.export(1, &b, 2));
        pool.quarantine(0);
        assert!(pool.is_quarantined(0) && !pool.is_quarantined(1));
        // New exports from the quarantined producer are rejected…
        assert!(!pool.export(0, &c, 2));
        // …and its earlier entries are withheld from importers.
        let mut cursors = vec![0; pool.num_stripes()];
        let mut seen = Vec::new();
        pool.import_new(2, &mut cursors, &mut |lits, _| seen.push(lits.to_vec()));
        assert_eq!(seen, vec![b], "only the healthy producer's clause flows");
        assert_eq!(pool.stats().dropped_quarantined, 2);
    }

    #[test]
    fn one_crashed_worker_degrades_to_survivors() {
        use std::sync::atomic::AtomicUsize;
        let sat = cnf_of(&[&[1, 2], &[-2, 3]]);
        let mut cfg = PortfolioConfig::new(3);
        cfg.proof = true;
        let crashes = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&crashes);
        cfg.configure = Some(Arc::new(move |_s| {
            if counter.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("injected configure crash");
            }
        }));
        let r = solve_portfolio(&sat, &cfg).expect("survivors win");
        assert!(r.result.is_sat());
        assert_eq!(r.crashed.len(), 1);
        let crashed = *r.crashed.first().expect("one crash");
        let report = r.workers.get(crashed).expect("report exists");
        assert!(report.crashed);
        assert_eq!(report.verdict, "CRASHED");
        let record = report.record.as_ref().expect("crash record");
        assert_eq!(record.degradations.len(), 1);
        assert_eq!(record.degradations[0].kind, "worker-crash");
        assert_ne!(r.winner, Some(crashed), "a survivor must win");
    }

    #[test]
    #[should_panic(expected = "every worker crashed")]
    fn all_crashed_race_propagates_the_panic() {
        let sat = cnf_of(&[&[1, 2]]);
        let mut cfg = PortfolioConfig::new(2);
        cfg.configure = Some(Arc::new(|_s| panic!("every worker crashed")));
        let _ = solve_portfolio(&sat, &cfg);
    }

    #[test]
    fn portfolio_sat_and_unsat_small() {
        let sat = cnf_of(&[&[1, 2], &[-2, 3]]);
        let unsat = cnf_of(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        for workers in [1, 2, 3] {
            let mut cfg = PortfolioConfig::new(workers);
            cfg.proof = true;
            let r = solve_portfolio(&sat, &cfg).expect("verified sat");
            assert!(r.result.is_sat(), "workers={workers}");
            assert!(r.winner.is_some());
            let r = solve_portfolio(&unsat, &cfg).expect("verified unsat");
            assert!(r.result.is_unsat(), "workers={workers}");
            let proof = r.proof.expect("proof collected");
            assert!(proof.claims_unsat());
        }
    }

    #[test]
    fn worker_zero_is_the_base_config() {
        let base = SolverConfig::default();
        let w0 = worker_config(&base, 0, &[]);
        assert_eq!(w0.seed, base.seed);
        assert_eq!(w0.restart, base.restart);
        assert_eq!(w0.initial_phase, base.initial_phase);
        let w1 = worker_config(&base, 1, &[]);
        assert_ne!(w1.seed, base.seed, "workers ≥ 1 must be decorrelated");
    }

    #[test]
    fn policy_mix_cycles_over_workers() {
        let base = SolverConfig::default();
        let mix = [PolicyKind::PropFreq, PolicyKind::Activity];
        assert_eq!(worker_config(&base, 0, &mix).policy, PolicyKind::PropFreq);
        assert_eq!(worker_config(&base, 1, &mix).policy, PolicyKind::Activity);
        assert_eq!(worker_config(&base, 2, &mix).policy, PolicyKind::PropFreq);
    }
}
