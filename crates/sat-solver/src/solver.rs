//! The CDCL solver engine.

use crate::clause_db::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::instrument::{Recorder, SolverTelemetry};
use crate::proof::ProofLogger;
use crate::restart::RestartScheduler;
use crate::varmap::{at, LitMap, VarMap};
use crate::{
    Budget, FrequencyTable, LBool, PolicyKind, SolveResult, SolverConfig, SolverStats, StopCause,
};
use cnf::{Cnf, Lit, Var};
use std::time::Instant;
use telemetry::Phase;

/// EVSIDS variable-activity decay factor, in `(0, 1)`.
const VAR_DECAY: f64 = 0.95;

/// One entry in a literal's watch list.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watch {
    pub(crate) cref: ClauseRef,
    /// A cached other literal of the clause; if it is already true the
    /// clause is satisfied and the watch can be skipped cheaply.
    pub(crate) blocker: Lit,
}

/// A conflict-driven clause-learning SAT solver whose clause-deletion
/// policy is one of the paper's two.
///
/// The architecture follows MiniSat/Kissat: two-watched-literal propagation,
/// first-UIP conflict analysis with recursive clause minimization, EVSIDS
/// decision heap, phase saving, Luby restarts, and tiered clause-database
/// reduction. The reduction scores clauses by `config.policy`
/// ([`PolicyKind::score`]), the choice studied by the paper.
///
/// # Examples
///
/// ```
/// use sat_solver::{Solver, SolveResult};
/// let f = cnf::parse_dimacs_str("p cnf 3 2\n1 2 0\n-2 3 0\n")?;
/// let mut solver = Solver::from_cnf(&f);
/// let result = solver.solve();
/// assert!(result.is_sat());
/// let model = result.model().expect("sat");
/// assert!(cnf::verify_model(&f, model).is_ok());
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
pub struct Solver {
    pub(crate) num_vars: u32,
    pub(crate) db: ClauseDb,
    /// The watch list of `l` holds clauses with `!l` among their first
    /// two literals.
    pub(crate) watches: LitMap<Vec<Watch>>,
    /// The value of every literal: `assign` writes both polarities and
    /// `backtrack` clears both, so `value(l)` is a single load. A
    /// variable's value is its positive literal's entry.
    pub(crate) values: LitMap<LBool>,
    pub(crate) level: VarMap<u32>,
    pub(crate) reason: VarMap<Option<ClauseRef>>,
    /// How many trail literals have a reason clause. The reducible-clause
    /// count subtracts it before every reduction, so it is kept current
    /// by `assign` and `backtrack` instead of recounted from the trail.
    pub(crate) num_reasons: usize,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    pub(crate) activity: VarMap<f64>,
    var_inc: f64,
    pub(crate) heap: VarHeap,
    pub(crate) saved_phase: VarMap<bool>,
    pub(crate) freq: FrequencyTable,
    /// `freq`'s counts folded in at each reset; with `freq` added back, the
    /// whole-run counts of [`cumulative_frequencies`](Self::cumulative_frequencies).
    pub(crate) freq_folded: FrequencyTable,
    restart: RestartScheduler,
    reduce_limit: usize,
    pub(crate) stats: SolverStats,
    pub(crate) config: SolverConfig,
    /// False once unsatisfiability was established at level 0.
    pub(crate) ok: bool,
    /// Assumptions for the current `solve_with_assumptions` call.
    pub(crate) assumptions: Vec<Lit>,
    /// Variables inprocessing's bounded variable elimination must never
    /// pick as pivots: assumption candidates of incremental sessions.
    /// `solve_with_assumptions` freezes its assumption set automatically;
    /// [`freeze_var`](Self::freeze_var) freezes ahead of the first use.
    pub(crate) frozen: VarMap<bool>,
    /// The failed-assumption core of the last assumption-UNSAT result.
    core: Vec<Lit>,
    // conflict-analysis scratch space
    seen: VarMap<bool>,
    analyze_toclear: Vec<Var>,
    min_stack: Vec<Lit>,
    min_visited: Vec<Var>,
    glue_levels: Vec<u32>,
    pub(crate) proof: Option<ProofLogger>,
    /// The instrumentation spine (phase times, events).
    pub(crate) rec: Recorder,
    /// Why the most recent `solve` call returned `Unknown`, if it did.
    stop_cause: Option<StopCause>,
    /// In-search inprocessing engine (see `inprocess.rs`); `None` unless
    /// `SolverConfig::inprocess` is set, costing one branch per restart
    /// and per learned clause.
    pub(crate) inprocess: Option<Box<crate::inprocess::InprocessEngine>>,
    /// In-search invariant auditing level (see `check.rs`); `Off` costs one
    /// branch per checkpoint. Only present with the `checks` feature.
    #[cfg(feature = "checks")]
    pub(crate) check_level: crate::check::CheckLevel,
}

impl Solver {
    /// Creates a solver for `formula` with the given configuration.
    pub fn new(formula: &Cnf, config: SolverConfig) -> Self {
        let n = formula.num_vars();
        let mut solver = Solver {
            num_vars: n,
            db: ClauseDb::new(),
            watches: LitMap::new(n, Vec::new()),
            values: LitMap::new(n, LBool::Undef),
            level: VarMap::new(n, 0),
            reason: VarMap::new(n, None),
            num_reasons: 0,
            trail: Vec::with_capacity(n as usize),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: VarMap::new(n, 0.0),
            var_inc: 1.0,
            heap: VarHeap::new(n),
            saved_phase: VarMap::new(n, false),
            freq: FrequencyTable::new(n),
            freq_folded: FrequencyTable::new(n),
            restart: RestartScheduler::new(config.restart),
            reduce_limit: config.reduce_init,
            stats: SolverStats::default(),
            config,
            ok: true,
            assumptions: Vec::new(),
            frozen: VarMap::new(n, false),
            core: Vec::new(),
            seen: VarMap::new(n, false),
            analyze_toclear: Vec::new(),
            min_stack: Vec::new(),
            min_visited: Vec::new(),
            glue_levels: Vec::new(),
            proof: None,
            rec: Recorder::default(),
            stop_cause: None,
            inprocess: None,
            #[cfg(feature = "checks")]
            check_level: crate::check::CheckLevel::default(),
        };
        if solver.config.inprocess {
            solver.inprocess = Some(Box::new(crate::inprocess::InprocessEngine::new(n)));
        }
        for v in 0..n {
            solver.heap.insert(Var::new(v), &solver.activity);
        }
        for clause in formula.clauses() {
            solver.add_input_clause(clause.lits());
            if !solver.ok {
                break;
            }
        }
        solver
    }

    /// Creates a solver with the default configuration.
    pub fn from_cnf(formula: &Cnf) -> Self {
        Solver::new(formula, SolverConfig::default())
    }

    /// Enables DRAT proof logging. Must be called before [`solve`](Self::solve).
    pub fn enable_proof(&mut self) {
        self.proof = Some(ProofLogger::new());
    }

    /// Takes the recorded proof, if proof logging was enabled.
    pub fn take_proof(&mut self) -> Option<ProofLogger> {
        self.proof.take()
    }

    /// Full budget check, run at every conflict boundary.
    #[inline]
    fn check_budget(&self, budget: &Budget) -> Option<StopCause> {
        budget.check(self.stats.conflicts, self.stats.propagations, || {
            self.approx_memory_bytes()
        })
    }

    /// Deadline and memory check, run at every decision
    /// boundary. Counter limits are deliberately *not* consulted here so
    /// counter-budgeted runs stop at exactly the same conflict as they
    /// did before wall-clock budgets existed (budgeted stats stay
    /// bit-reproducible); the wall-clock and memory limits need the extra
    /// check sites to be honored within their accuracy target even on
    /// propagation-heavy stretches between conflicts.
    #[inline]
    fn check_wall_limits(&self, budget: &Budget) -> Option<StopCause> {
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopCause::Deadline);
        }
        if budget
            .max_memory_bytes
            .is_some_and(|m| self.approx_memory_bytes() > m)
        {
            return Some(StopCause::Memory);
        }
        None
    }

    /// Why the most recent `solve` call returned
    /// [`SolveResult::Unknown`], or `None` if it returned a verdict (or
    /// no solve has run yet).
    pub fn stop_cause(&self) -> Option<StopCause> {
        self.stop_cause
    }

    /// Approximate heap footprint of the solver in bytes: the clause
    /// database plus per-variable state and watch lists. O(1), computed
    /// from maintained counters; used by [`Budget::max_memory_bytes`].
    pub fn approx_memory_bytes(&self) -> u64 {
        // Per-variable state: values + level + reason + activity + phase
        // + seen + heap slot + two frequency counters, plus two
        // watch-list headers per variable. ~128 bytes covers it.
        const PER_VAR: u64 = 128;
        // Each live clause holds two watches (cref + blocker).
        let live_clauses = (self.db.num_original() + self.db.num_learned()) as u64;
        let watches = live_clauses * 2 * std::mem::size_of::<Watch>() as u64;
        let trail = (self.trail.capacity() * std::mem::size_of::<Lit>()) as u64;
        self.db.memory_bytes() + u64::from(self.num_vars) * PER_VAR + watches + trail
    }

    /// Installs a telemetry recorder (replacing any previous one). The
    /// recorder times the solver's phases, tracks the peak number of live
    /// learned clauses, and emits structured events around each
    /// subsequent `solve` call.
    pub fn set_telemetry(&mut self, telemetry: SolverTelemetry) {
        self.rec.telemetry = Some(Box::new(telemetry));
    }

    /// Removes and returns the installed telemetry recorder.
    pub fn take_telemetry(&mut self) -> Option<SolverTelemetry> {
        self.rec.telemetry.take().map(|t| *t)
    }

    /// The installed telemetry recorder, if any.
    pub fn telemetry(&self) -> Option<&SolverTelemetry> {
        self.rec.telemetry.as_deref()
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The active deletion policy's name, as records carry it (the
    /// [`PolicyKind`] display form, which names a custom α).
    pub fn policy_name(&self) -> String {
        self.config.policy.to_string()
    }

    /// The per-variable propagation-frequency table used by the deletion
    /// policy: counters reflect propagations since the most recent
    /// clause-database reduction, matching Equation (2)'s definition.
    pub fn propagation_frequencies(&self) -> &FrequencyTable {
        &self.freq
    }

    /// Whole-run per-variable propagation counts (never reset) — the data
    /// behind the paper's Figure 3 histogram.
    pub fn cumulative_frequencies(&self) -> FrequencyTable {
        let mut total = self.freq_folded.clone();
        total.fold(&self.freq);
        total
    }

    /// Number of variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Freezes a variable: inprocessing's bounded variable elimination
    /// will never pick it as a pivot, so it stays legal in future
    /// assumptions and added clauses for the solver's whole lifetime.
    ///
    /// Incremental sessions freeze every assumption candidate up front;
    /// [`solve_with_assumptions`](Self::solve_with_assumptions) also
    /// freezes its assumption set automatically, so a variable assumed
    /// once can always be assumed again. Freezing is irreversible and
    /// only ever shrinks the elimination candidate set — verdicts are
    /// unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this solver.
    pub fn freeze_var(&mut self, v: Var) {
        // xtask: allow(no-hard-assert) documented API contract, not search-loop code
        assert!(
            v.index() < self.num_vars,
            "frozen variable {} out of range (solver has {} variables)",
            v.index(),
            self.num_vars
        );
        self.frozen.set(v, true);
    }

    /// Freezes the variable of every literal in `lits`
    /// (see [`freeze_var`](Self::freeze_var)).
    pub fn freeze_lits(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.freeze_var(l.var());
        }
    }

    /// Whether `v` is frozen (see [`freeze_var`](Self::freeze_var)).
    pub fn is_frozen(&self, v: Var) -> bool {
        v.index() < self.num_vars && self.frozen.get(v)
    }

    /// The first variable in `lits` that inprocessing eliminated, if any
    /// — the non-panicking counterpart of the eliminated-variable
    /// contract on [`add_clause`](Self::add_clause) and
    /// [`solve_with_assumptions`](Self::solve_with_assumptions). Callers
    /// that accept untrusted literal sets (e.g. a solver service) probe
    /// with this and report a typed error instead of panicking.
    pub fn find_eliminated(&self, lits: &[Lit]) -> Option<Var> {
        lits.iter()
            .map(|l| l.var())
            .find(|&v| v.index() < self.num_vars && self.var_is_eliminated(v))
    }

    /// A snapshot of the clause database's current composition.
    pub fn db_stats(&self) -> DbStats {
        let mut glue_histogram = [0usize; 8];
        let last_bucket = glue_histogram.len() - 1;
        for cref in self.db.iter_learned() {
            let g = self.db.glue(cref) as usize;
            if let Some(bucket) = glue_histogram.get_mut(g.min(last_bucket)) {
                *bucket += 1;
            }
        }
        DbStats {
            original_clauses: self.db.num_original(),
            learned_clauses: self.db.num_learned(),
            learned_literals: self.db.lits_in_learned(),
            live_clauses: self.db.iter_refs().count(),
            glue_histogram,
        }
    }

    /// Adds an input (original) clause. Returns `false` if the formula
    /// became unsatisfiable at the top level.
    fn add_input_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        // Normalize: drop duplicate and false-at-level-0 literals, detect
        // tautologies and satisfied clauses.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            debug_assert!(l.var().index() < self.num_vars);
            match self.value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => continue,   // falsified at level 0: drop
                LBool::Undef => {}
            }
            if c.contains(&!l) {
                return true; // tautology
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        match *c.as_slice() {
            [] => {
                self.ok = false;
                if let Some(p) = &mut self.proof {
                    p.add_empty();
                }
                false
            }
            [unit] => {
                self.assign(unit, None);
                // Root-level units forced by the input count as
                // propagations for the frequency metric, like the BCP that
                // a lazier loader would perform.
                self.stats.propagations += 1;
                self.freq.bump(unit.var());
                // Propagate eagerly so later clauses see the implications.
                if self.propagate().is_some() {
                    self.ok = false;
                    if let Some(p) = &mut self.proof {
                        p.add_empty();
                    }
                }
                self.ok
            }
            _ => {
                let cref = self.db.add(&c, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    #[inline]
    pub(crate) fn value(&self, l: Lit) -> LBool {
        self.values.get(l)
    }

    /// The value of variable `v` (its positive literal's).
    #[inline]
    pub(crate) fn var_value(&self, v: Var) -> LBool {
        self.values.get(v.positive())
    }

    #[inline]
    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Attaches watches for the first two literals of the clause.
    pub(crate) fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(self.db.len(cref) >= 2);
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        self.watches.get_mut(!l0).push(Watch { cref, blocker: l1 });
        self.watches.get_mut(!l1).push(Watch { cref, blocker: l0 });
    }

    /// Detaches both watches of the clause.
    pub(crate) fn detach(&mut self, cref: ClauseRef) {
        debug_assert!(self.db.is_live(cref), "detach of a deleted clause");
        let l0 = self.db.lit(cref, 0);
        let l1 = self.db.lit(cref, 1);
        for l in [l0, l1] {
            let ws = self.watches.get_mut(!l);
            if let Some(pos) = ws.iter().position(|w| w.cref == cref) {
                ws.swap_remove(pos);
            } else {
                debug_assert!(false, "watch of {cref:?} must exist on {l}");
            }
        }
    }

    /// Assigns `l` true at the current decision level with an optional
    /// reason clause, pushing it onto the trail.
    pub(crate) fn assign(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var();
        self.values.set(l, LBool::True);
        self.values.set(!l, LBool::False);
        self.level.set(v, self.decision_level());
        self.reason.set(v, reason);
        // xtask: allow(hot-path-purity) amortized: the trail retains its capacity across backtracks
        self.trail.push(l);
        if reason.is_some() {
            self.num_reasons += 1;
            // A unit propagation: this is the event counted by the paper's
            // propagation-frequency metric.
            self.stats.propagations += 1;
            self.freq.bump(v);
        }
    }

    /// Boolean constraint propagation. Returns the conflicting clause, if any.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = at(&self.trail, self.qhead);
            self.qhead += 1;
            let false_lit = !p;
            // Take `p`'s watch list out so the rest of `self` stays freely
            // borrowable; propagation never pushes onto this same list
            // (the replacement watch literal is non-false, `!p` is false).
            let mut ws = std::mem::take(self.watches.get_mut(p));
            let mut conflict = None;
            let mut i = 0;
            'watches: while i < ws.len() {
                let Watch { cref, blocker } = at(&ws, i);
                if self.values.get(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                // One borrow of the clause's literals per visit; `values`
                // and `watches` are other fields, so they stay usable.
                let lits = self.db.lits_mut(cref);
                // Ensure the false literal is at position 1.
                if at(lits, 0) == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(at(lits, 1), false_lit);
                let first = at(lits, 0);
                if first != blocker && self.values.get(first) == LBool::True {
                    // Clause already satisfied; refresh blocker.
                    if let Some(w) = ws.get_mut(i) {
                        w.blocker = first;
                    }
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = at(lits, k);
                    if self.values.get(lk) != LBool::False {
                        lits.swap(1, k);
                        ws.swap_remove(i);
                        // xtask: allow(hot-path-purity) amortized: watch lists retain capacity; relocation is a swap between them
                        self.watches.get_mut(!lk).push(Watch {
                            cref,
                            blocker: first,
                        });
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                if self.values.get(first) == LBool::False {
                    conflict = Some(cref); // conflict; qhead stays put
                    break;
                }
                self.assign(first, Some(cref));
                i += 1;
            }
            *self.watches.get_mut(p) = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first), the backjump level, and the clause's glue.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let analyzing = self.rec.begin(Phase::Analyze);
        // xtask: allow(hot-path-purity) per-conflict, not per-propagation: the learned clause must be materialized
        let mut learned: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for UIP
        let mut counter = 0u32; // literals of the current level not yet resolved
        let mut resolved: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        let current_level = self.decision_level();

        let uip = loop {
            self.bump_clause(cref);
            // Iterate the clause's literals; skip the resolved literal,
            // which sits at position 0 of its reason clause.
            let clen = self.db.len(cref);
            let start = usize::from(resolved.is_some());
            for k in start..clen {
                let q = self.db.lit(cref, k);
                let v = q.var();
                if !self.seen.get(v) && self.level.get(v) > 0 {
                    self.seen.set(v, true);
                    // xtask: allow(hot-path-purity) amortized: reused per-solver scratch, no steady-state allocation
                    self.analyze_toclear.push(v);
                    self.bump_var(v);
                    if self.level.get(v) >= current_level {
                        counter += 1;
                    } else {
                        // xtask: allow(hot-path-purity) per-conflict, not per-propagation: the learned clause must be materialized
                        learned.push(q);
                    }
                }
            }
            // Find the next literal of the current level on the trail.
            let q = loop {
                debug_assert!(index > 0, "trail exhausted during analysis");
                index -= 1;
                let t = at(&self.trail, index);
                if self.seen.get(t.var()) {
                    break t;
                }
            };
            counter -= 1;
            if counter == 0 {
                break q; // q is the first UIP
            }
            let Some(r) = self.reason.get(q.var()) else {
                debug_assert!(false, "non-decision literal {q} must have a reason");
                break q;
            };
            cref = r;
            // q is resolved away; its slot in `seen` stays set so the trail
            // walk above skips already-processed literals, but we must make
            // sure the reason clause iteration skips q itself: reason[q][0]
            // is q by the assertion invariant of `assign`.
            debug_assert_eq!(self.db.lit(cref, 0), q);
            resolved = Some(q);
        };
        if let Some(slot) = learned.first_mut() {
            *slot = !uip;
        }

        // Recursive clause minimization: drop implied literals.
        let minimizing = self.rec.begin(Phase::Minimize);
        let before = learned.len();
        // In-place compaction: `learned` is a local, so `self` stays
        // freely borrowable for `lit_redundant`; no per-conflict side
        // buffer is needed.
        let mut w = 1;
        for r in 1..learned.len() {
            if !self.lit_redundant(at(&learned, r)) {
                learned.swap(w, r);
                w += 1;
            }
        }
        learned.truncate(w);
        self.stats.minimized_lits += (before - learned.len()) as u64;
        self.rec.end(minimizing);

        // Backjump level: second-highest level in the learned clause.
        let (bt_level, glue) = if learned.len() == 1 {
            (0, 1)
        } else {
            // Move the highest-level non-UIP literal to position 1 so it is
            // watched; it becomes false on backjump and wakes the clause.
            let mut max_i = 1;
            let mut max_level = self.level.get(at(&learned, 1).var());
            for (i, &l) in learned.iter().enumerate().skip(2) {
                let lvl = self.level.get(l.var());
                if lvl > max_level {
                    max_level = lvl;
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            let glue = self.compute_glue(&learned);
            (max_level, glue)
        };

        for v in self.analyze_toclear.drain(..) {
            self.seen.set(v, false);
        }
        self.rec.end(analyzing);
        (learned, bt_level, glue)
    }

    /// Glue (LBD): number of distinct decision levels among the literals.
    fn compute_glue(&mut self, lits: &[Lit]) -> u32 {
        let mut levels = std::mem::take(&mut self.glue_levels);
        levels.clear();
        // xtask: allow(hot-path-purity) amortized: reused per-solver scratch, no steady-state allocation
        levels.extend(lits.iter().map(|l| self.level.get(l.var())));
        levels.sort_unstable();
        levels.dedup();
        let glue = levels.len() as u32;
        self.glue_levels = levels;
        glue
    }

    /// Whether `l` is redundant in the learned clause: its reason-side
    /// ancestry stays within already-seen literals (recursive minimization,
    /// iterative formulation).
    fn lit_redundant(&mut self, l: Lit) -> bool {
        if self.reason.get(l.var()).is_none() {
            return false; // decisions are never redundant
        }
        self.min_stack.clear();
        // xtask: allow(hot-path-purity) amortized: reused per-solver scratch, no steady-state allocation
        self.min_stack.push(l);
        let mut visited = std::mem::take(&mut self.min_visited);
        visited.clear();
        let mut redundant = true;
        while let Some(q) = self.min_stack.pop() {
            let Some(r) = self.reason.get(q.var()) else {
                redundant = false;
                break;
            };
            let rlen = self.db.len(r);
            for k in 1..rlen {
                let a = self.db.lit(r, k);
                let v = a.var();
                if self.seen.get(v) || self.level.get(v) == 0 {
                    continue;
                }
                if self.reason.get(v).is_none() {
                    redundant = false;
                    break;
                }
                // Tentatively mark and descend.
                self.seen.set(v, true);
                // xtask: allow(hot-path-purity) amortized: reused per-solver scratch, no steady-state allocation
                visited.push(v);
                // xtask: allow(hot-path-purity) amortized: reused per-solver scratch, no steady-state allocation
                self.min_stack.push(a);
            }
            if !redundant {
                break;
            }
        }
        if redundant {
            // Keep marks: they are genuinely implied by seen literals and
            // can shortcut later redundancy checks.
            // xtask: allow(hot-path-purity) amortized: reused per-solver scratch, no steady-state allocation
            self.analyze_toclear.append(&mut visited);
        } else {
            for v in visited.drain(..) {
                self.seen.set(v, false);
            }
        }
        self.min_visited = visited;
        redundant
    }

    fn bump_var(&mut self, v: Var) {
        let a = self.activity.get_mut(v);
        *a += self.var_inc;
        if *a > 1e100 {
            for act in self.activity.iter_mut() {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    /// Protects a learned clause from the next reduction: it was just
    /// learned or took part in conflict analysis.
    fn bump_clause(&mut self, cref: ClauseRef) {
        if self.db.is_learned(cref) {
            self.db.set_protected(cref, true);
        }
    }

    /// EVSIDS decay: later bumps weigh `1 / VAR_DECAY` times more.
    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// Undoes all assignments above `target_level`.
    pub(crate) fn backtrack(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let target_len = at(&self.trail_lim, target_level as usize);
        for idx in target_len..self.trail.len() {
            let l = at(&self.trail, idx);
            let v = l.var();
            self.saved_phase.set(v, l.is_positive());
            self.values.set(l, LBool::Undef);
            self.values.set(!l, LBool::Undef);
            if self.reason.get(v).is_some() {
                self.num_reasons -= 1;
            }
            self.reason.set(v, None);
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(target_len);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = target_len;
    }

    /// Picks the next decision literal (EVSIDS, saved phase), or `None`
    /// when fully assigned.
    fn decide(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if !self.var_value(v).is_assigned() && !self.var_is_eliminated(v) {
                let phase = self.saved_phase.get(v);
                return Some(v.lit(!phase));
            }
        }
        None
    }

    /// Deletes low-scoring reducible learned clauses (the REDUCE step whose
    /// scoring the paper varies) and resets the frequency counters.
    fn reduce_db(&mut self) {
        let reducing = self.rec.begin(Phase::Reduce);
        self.stats.reductions += 1;
        let mut candidates: Vec<(u64, u32, ClauseRef)> = Vec::new();
        for cref in self.db.iter_learned() {
            if !self.is_reduce_candidate(cref) {
                continue;
            }
            let glue = self.db.glue(cref);
            let score = self
                .config
                .policy
                .score(self.db.lits(cref), glue, &self.freq);
            candidates.push((score, self.db.id(cref), cref));
        }
        // Lowest scores first; ties broken by clause id for determinism
        // (ids are unique, so the handle never takes part).
        candidates.sort_unstable();
        let delete_count = self.delete_count(candidates.len());
        for &(_, _, cref) in candidates.iter().take(delete_count) {
            if let Some(p) = &mut self.proof {
                p.delete(self.db.lits(cref));
            }
            self.detach(cref);
            self.db.remove(cref);
            self.stats.deleted_clauses += 1;
        }
        // Unprotect survivors so protection reflects recent use only.
        for cref in self.db.iter_learned().collect::<Vec<_>>() {
            self.db.set_protected(cref, false);
        }
        if self.db.compaction_due() {
            self.collect_garbage();
        }
        self.freq_folded.fold(&self.freq);
        self.freq.reset();
        self.reduce_limit += self.config.reduce_inc;
        self.rec.reduced(
            reducing,
            &self.stats,
            candidates.len(),
            delete_count,
            self.db.num_learned(),
        );
        self.checkpoint(Checkpoint::PostReduce);
    }

    /// Whether a reduction may delete this learned clause: its glue is
    /// above tier 1, it is not protected, and it is no current reason.
    fn is_reduce_candidate(&self, cref: ClauseRef) -> bool {
        self.db.glue(cref) > self.config.tier1_glue
            && !self.db.is_protected(cref)
            && !self.is_reason(cref)
    }

    /// How many of `candidates` reduce candidates a reduction deletes.
    fn delete_count(&self, candidates: usize) -> usize {
        (candidates as f64 * self.config.reduce_fraction).floor() as usize
    }

    /// Whether the reduction due now will delete a clause, the one place
    /// the search reads the deletion policy.
    fn reduction_deletes(&self) -> bool {
        let candidates = self
            .db
            .iter_learned()
            .filter(|&cref| self.is_reduce_candidate(cref))
            .count();
        self.delete_count(candidates) > 0
    }

    /// Compacts the clause arena and rewrites every reference into it:
    /// the watches and the trail reasons. Nothing else holds a
    /// `ClauseRef` across a reduction (see `clause_db.rs`).
    fn collect_garbage(&mut self) {
        let moved = self.db.collect_garbage();
        for ws in self.watches.iter_mut() {
            for w in ws {
                w.cref = moved.apply(w.cref);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            *r = moved.apply(*r);
        }
    }

    /// Whether the clause is the reason of some current assignment.
    fn is_reason(&self, cref: ClauseRef) -> bool {
        let first = self.db.lit(cref, 0);
        self.value(first) == LBool::True && self.reason.get(first.var()) == Some(cref)
    }

    /// Runs the in-search invariant auditor at `checkpoint` when the
    /// `checks` feature is enabled and a level was selected; a no-op (one
    /// dead branch) otherwise. Panics on the first violated invariant.
    #[inline]
    pub(crate) fn checkpoint(&self, checkpoint: Checkpoint) {
        #[cfg(feature = "checks")]
        crate::check::run_checkpoint(self, checkpoint);
        #[cfg(not(feature = "checks"))]
        let _ = checkpoint;
    }

    /// Solves with an unlimited budget.
    ///
    /// Returns [`SolveResult::Sat`] with a total model, or
    /// [`SolveResult::Unsat`]; never [`SolveResult::Unknown`].
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_budget(Budget::unlimited())
    }

    /// Solves until a verdict or budget exhaustion.
    ///
    /// Calling `solve_with_budget` again after an [`SolveResult::Unknown`]
    /// resumes the search with all learned clauses and heuristic state
    /// intact (budgets compare against *total* accumulated counters).
    pub fn solve_with_budget(&mut self, budget: Budget) -> SolveResult {
        self.assumptions.clear();
        self.search(budget, None)
    }

    /// Like [`solve_with_budget`](Self::solve_with_budget), but the
    /// deletion policy is picked where it is first read: `pick` runs once,
    /// when the first reduction that will delete a clause is due, and the
    /// policy it returns is installed (also as `config.policy`) before
    /// that reduction scores a clause. A solve that never deletes a clause
    /// never calls `pick`.
    ///
    /// The policy only orders the clauses a reduction deletes. Every
    /// learned clause is protected when it is learned, and a reduction
    /// unprotects the survivors, so the first reduction has no candidate
    /// and deletes nothing; a later one may delete nothing too. Until a
    /// reduction deletes, the policy orders nothing, so a solve that
    /// deletes takes exactly the path of a solver built with the picked
    /// policy, and the solve-end record names it. The solve-start event
    /// names the policy installed when the search starts.
    ///
    /// This is for a solver that has not deleted a clause yet. On one that
    /// has, the pick is refused: `pick` is never called and the installed
    /// policy stays.
    ///
    /// # Examples
    ///
    /// ```
    /// use sat_solver::{Budget, PolicyKind, Solver};
    /// let f = cnf::parse_dimacs_str("p cnf 2 1\n1 2 0\n")?;
    /// let mut solver = Solver::from_cnf(&f);
    /// let mut picked = false;
    /// let result = solver.solve_with_policy_pick(Budget::unlimited(), || {
    ///     picked = true;
    ///     PolicyKind::PropFreq
    /// });
    /// assert!(result.is_sat());
    /// assert!(!picked, "a solve this short never reduces");
    /// # Ok::<(), cnf::ParseDimacsError>(())
    /// ```
    pub fn solve_with_policy_pick(
        &mut self,
        budget: Budget,
        pick: impl FnOnce() -> PolicyKind,
    ) -> SolveResult {
        self.assumptions.clear();
        let pick = (self.stats.deleted_clauses == 0).then(|| Box::new(pick) as PolicyPick<'_>);
        self.search(budget, pick)
    }

    /// Solves under the given assumptions: literals forced true for this
    /// call only. On [`SolveResult::Unsat`] caused by the assumptions,
    /// [`unsat_core`](Self::unsat_core) holds an inconsistent subset of
    /// them; learned clauses are kept, so subsequent calls with different
    /// assumptions reuse all derived knowledge (incremental solving).
    ///
    /// # Panics
    ///
    /// Panics if an assumption mentions a variable the solver does not know.
    ///
    /// # Examples
    ///
    /// ```
    /// use sat_solver::{Budget, Solver};
    /// use cnf::Lit;
    /// // x1 → x2, assumption x1 ∧ ¬x2 is inconsistent
    /// let f = cnf::parse_dimacs_str("p cnf 2 1\n-1 2 0\n")?;
    /// let mut s = Solver::from_cnf(&f);
    /// let a = [Lit::from_dimacs(1), Lit::from_dimacs(-2)];
    /// assert!(s.solve_with_assumptions(&a, Budget::unlimited()).is_unsat());
    /// assert!(!s.unsat_core().is_empty());
    /// // the solver itself is still satisfiable
    /// assert!(s.solve().is_sat());
    /// # Ok::<(), cnf::ParseDimacsError>(())
    /// ```
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit], budget: Budget) -> SolveResult {
        for a in assumptions {
            // xtask: allow(no-hard-assert) documented API contract, not search-loop code
            assert!(
                a.var().index() < self.num_vars,
                "assumption on unknown variable {a}"
            );
        }
        self.assert_not_eliminated(assumptions, "assumption set");
        // Assumption variables are candidates for future calls too:
        // freeze them so inprocessing between calls cannot eliminate a
        // variable the caller will assume again.
        for a in assumptions {
            self.frozen.set(a.var(), true);
        }
        self.assumptions = assumptions.to_vec();
        let result = self.search(budget, None);
        self.assumptions.clear();
        result
    }

    /// The inconsistent subset of assumptions from the most recent
    /// [`solve_with_assumptions`](Self::solve_with_assumptions) call that
    /// returned [`SolveResult::Unsat`] *because of the assumptions*.
    /// Empty when the formula itself is unsatisfiable.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    /// Runs the CDCL loop between the recorder's solve start and end
    /// events (which never change the search: `tests/telemetry.rs`).
    fn search(&mut self, budget: Budget, pick: Option<PolicyPick<'_>>) -> SolveResult {
        self.stop_cause = None;
        self.rec
            .solve_started(self.config.policy, self.num_vars, self.db.num_original());
        let result = self.search_loop(budget, pick);
        if self.rec.telemetry.is_some() {
            let db = self.db_stats();
            self.rec.solve_ended(
                &result,
                self.stop_cause,
                self.config.policy,
                &self.stats,
                &db,
            );
        }
        result
    }

    fn search_loop(&mut self, budget: Budget, mut pick: Option<PolicyPick<'_>>) -> SolveResult {
        if !self.ok {
            // The contradiction was found while loading input clauses,
            // possibly before proof logging was enabled; the empty clause is
            // a RUP consequence of the input, so log it now if absent.
            if let Some(p) = &mut self.proof {
                if !p.claims_unsat() {
                    p.add_empty();
                }
            }
            return SolveResult::Unsat;
        }
        loop {
            let bcp = self.rec.begin(Phase::Propagate);
            let conflict = self.propagate();
            self.rec.end(bcp);
            if let Some(conflict) = conflict {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    if let Some(p) = &mut self.proof {
                        p.add_empty();
                    }
                    return SolveResult::Unsat;
                }
                let (learned, bt_level, glue) = self.analyze(conflict);
                self.stats.learned_clauses += 1;
                self.stats.glue_sum += glue as u64;
                if let Some(p) = &mut self.proof {
                    p.add(&learned);
                }
                if let Some(eng) = &mut self.inprocess {
                    eng.touch_lits(&learned);
                }
                self.backtrack(bt_level);
                match *learned.as_slice() {
                    [] => debug_assert!(false, "learned clause cannot be empty"),
                    [unit] => {
                        self.assign(unit, None);
                        // Level-0 unit: re-propagation happens at loop top.
                    }
                    [first, ..] => {
                        let cref = self.db.add(&learned, true, glue);
                        self.attach(cref);
                        self.bump_clause(cref);
                        self.assign(first, Some(cref));
                    }
                }
                self.checkpoint(Checkpoint::PostLearn);
                let live = self.db.num_learned();
                self.rec.learned(live, &self.stats);
                self.decay_activities();
                if self.restart.on_conflict() {
                    let restarting = self.rec.begin(Phase::Restart);
                    self.restart.on_restart();
                    self.stats.restarts += 1;
                    self.backtrack(0);
                    // Inprocessing shares the restart boundary: the trail
                    // is at the root, so clauses can be strengthened,
                    // deleted, or replaced without touching live decisions.
                    if self.inprocess_due() {
                        let round = self.rec.begin(Phase::Inprocess);
                        let still_sat = self.inprocess_round(None);
                        self.rec.end(round);
                        if !still_sat {
                            return SolveResult::Unsat;
                        }
                    }
                    self.checkpoint(Checkpoint::PostBackjump);
                    self.rec.end(restarting);
                }
                if let Some(cause) = self.check_budget(&budget) {
                    self.stop_cause = Some(cause);
                    return SolveResult::Unknown;
                }
            } else {
                self.checkpoint(Checkpoint::PostPropagate);
                // No conflict: establish assumptions, maybe reduce, decide.
                match self.establish_assumptions() {
                    AssumptionStep::Assigned => continue, // propagate it
                    AssumptionStep::Failed => {
                        self.backtrack(0);
                        return SolveResult::Unsat;
                    }
                    AssumptionStep::Done => {}
                }
                if let Some(cause) = self.check_wall_limits(&budget) {
                    self.stop_cause = Some(cause);
                    return SolveResult::Unknown;
                }
                let reducible = self.db.num_learned().saturating_sub(self.num_reasons);
                if reducible >= self.reduce_limit {
                    if let Some(pick) = pick.take_if(|_| self.reduction_deletes()) {
                        self.config.policy = pick();
                    }
                    self.reduce_db();
                }
                match self.decide() {
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.assign(l, None);
                    }
                    None => {
                        let model = self.extract_model();
                        self.backtrack(0);
                        return SolveResult::Sat(model);
                    }
                }
            }
        }
    }

    /// Ensures one assumption is established per decision level. Called
    /// only when propagation is at fixpoint.
    fn establish_assumptions(&mut self) -> AssumptionStep {
        while (self.decision_level() as usize) < self.assumptions.len() {
            let a = at(&self.assumptions, self.decision_level() as usize);
            match self.value(a) {
                LBool::True => {
                    // Already implied: open an empty decision level so the
                    // remaining assumptions keep their positions.
                    self.trail_lim.push(self.trail.len());
                }
                LBool::False => {
                    self.core = self.analyze_final(a);
                    return AssumptionStep::Failed;
                }
                LBool::Undef => {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    self.assign(a, None);
                    return AssumptionStep::Assigned;
                }
            }
        }
        AssumptionStep::Done
    }

    /// Computes an inconsistent subset of the assumptions, given the failed
    /// assumption `a` (whose negation is currently implied). Walks the
    /// implication graph from `¬a` down to assumption decisions.
    fn analyze_final(&mut self, a: Lit) -> Vec<Lit> {
        let mut core = vec![a];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen.set(a.var(), true);
        let start = at(&self.trail_lim, 0);
        for i in (start..self.trail.len()).rev() {
            let q = at(&self.trail, i);
            let qv = q.var();
            if !self.seen.get(qv) {
                continue;
            }
            match self.reason.get(qv) {
                // A decision inside the assumption prefix is an assumption.
                None => {
                    if qv != a.var() {
                        core.push(q);
                    }
                }
                Some(r) => {
                    let len = self.db.len(r);
                    for k in 1..len {
                        let l = self.db.lit(r, k);
                        if self.level.get(l.var()) > 0 {
                            self.seen.set(l.var(), true);
                        }
                    }
                }
            }
            self.seen.set(qv, false);
        }
        self.seen.set(a.var(), false);
        core
    }

    /// Adds a clause after construction (incremental interface). The solver
    /// backtracks to the root level first. Returns `false` if the formula
    /// became unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if the clause mentions a variable the solver does not know;
    /// allocate variables up front via the input formula's variable count.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.assert_not_eliminated(lits, "added clause");
        self.backtrack(0);
        self.qhead = self.qhead.min(self.trail.len());
        self.add_input_clause(lits)
    }

    fn extract_model(&self) -> Vec<bool> {
        let mut model: Vec<bool> = (0..self.num_vars)
            .map(Var::new)
            .map(|v| {
                self.var_value(v)
                    .to_bool()
                    // Unconstrained variables default to the saved phase.
                    .unwrap_or(self.saved_phase.get(v))
            })
            .collect();
        if let Some(eng) = &self.inprocess {
            // Replay BVE's reconstruction stack so eliminated variables
            // take values satisfying the clauses removed with them.
            eng.extend_model(&mut model);
        }
        model
    }
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("num_vars", &self.num_vars)
            .field("policy", &self.policy_name())
            .field("stats", &self.stats)
            .field("ok", &self.ok)
            .finish()
    }
}

/// A position in the CDCL loop where the invariant auditor may run
/// (see the `checks` cargo feature and `rsat --check`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checkpoint {
    /// Propagation reached a fixpoint without conflict.
    PostPropagate,
    /// A learned clause (or learned unit) was just attached and asserted.
    PostLearn,
    /// A clause-database reduction just completed.
    PostReduce,
    /// A restart just backtracked to the root level.
    PostBackjump,
    /// An inprocessing round (complete or budget-aborted) just finished.
    PostInprocess,
}

/// The pending policy pick of a
/// [`solve_with_policy_pick`](Solver::solve_with_policy_pick) call; it
/// lives only for that call.
type PolicyPick<'a> = Box<dyn FnOnce() -> PolicyKind + 'a>;

/// Outcome of one assumption-establishment step.
enum AssumptionStep {
    /// All assumptions are established; proceed to normal decisions.
    Done,
    /// An assumption was just assigned; propagate before continuing.
    Assigned,
    /// An assumption is falsified; the core was recorded.
    Failed,
}

/// A snapshot of the clause database's composition
/// (see [`Solver::db_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Live original (input) clauses.
    pub original_clauses: usize,
    /// Live learned clauses.
    pub learned_clauses: usize,
    /// Total literal occurrences in live learned clauses.
    pub learned_literals: usize,
    /// Total live clauses (original + learned).
    pub live_clauses: usize,
    /// Learned-clause counts by glue value (last bucket is `≥ 7`).
    pub glue_histogram: [usize; 8],
}

/// Convenience: solve a formula with a given policy and budget, returning
/// the result and final statistics.
///
/// # Examples
///
/// ```
/// use sat_solver::{solve_with_policy, Budget, PolicyKind};
/// let f = cnf::parse_dimacs_str("p cnf 2 2\n1 0\n-1 2 0\n")?;
/// let (result, stats) = solve_with_policy(&f, PolicyKind::PropFreq, Budget::unlimited());
/// assert!(result.is_sat());
/// assert!(stats.propagations >= 1);
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
pub fn solve_with_policy(
    formula: &Cnf,
    policy: PolicyKind,
    budget: Budget,
) -> (SolveResult, SolverStats) {
    let mut solver = Solver::new(formula, SolverConfig::with_policy(policy));
    let result = solver.solve_with_budget(budget);
    (result, *solver.stats())
}

/// Like [`solve_with_policy`], but with a telemetry recorder installed:
/// also returns the per-instance [`telemetry::RunRecord`] (phase timings,
/// peak clause-DB size).
pub fn solve_with_policy_recorded(
    formula: &Cnf,
    policy: PolicyKind,
    budget: Budget,
    instance_id: &str,
) -> (SolveResult, SolverStats, telemetry::RunRecord) {
    let mut solver = Solver::new(formula, SolverConfig::with_policy(policy));
    solver.set_telemetry(SolverTelemetry::new(instance_id));
    let result = solver.solve_with_budget(budget);
    let stats = *solver.stats();
    let record = solver
        .take_telemetry()
        .and_then(SolverTelemetry::into_record)
        // Unreachable: the recorder was installed above and survives the
        // solve; fall back to an empty record rather than panicking.
        .unwrap_or_else(|| telemetry::RunRecord::new(instance_id, ""));
    (result, stats, record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::verify_model;

    fn cnf_of(clauses: &[&[i32]]) -> Cnf {
        let mut f = Cnf::new(0);
        for c in clauses {
            f.add_dimacs(c);
        }
        f
    }

    #[test]
    fn trivial_sat() {
        let f = cnf_of(&[&[1]]);
        let mut s = Solver::from_cnf(&f);
        let r = s.solve();
        assert_eq!(r, SolveResult::Sat(vec![true]));
    }

    #[test]
    fn trivial_unsat() {
        let f = cnf_of(&[&[1], &[-1]]);
        assert!(Solver::from_cnf(&f).solve().is_unsat());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut f = Cnf::new(1);
        f.add_clause(cnf::Clause::new());
        assert!(Solver::from_cnf(&f).solve().is_unsat());
    }

    #[test]
    fn empty_formula_sat() {
        let f = Cnf::new(3);
        let r = Solver::from_cnf(&f).solve();
        assert!(r.is_sat());
        assert_eq!(r.model().unwrap().len(), 3);
    }

    #[test]
    fn paper_example_sat() {
        let f = cnf_of(&[&[1, 2], &[-2, 3]]);
        let mut s = Solver::from_cnf(&f);
        let r = s.solve();
        assert!(verify_model(&f, r.model().unwrap()).is_ok());
    }

    #[test]
    fn chain_propagation() {
        // x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3) ∧ ... forces all true
        let mut clauses: Vec<Vec<i32>> = vec![vec![1]];
        for i in 1..50 {
            clauses.push(vec![-i, i + 1]);
        }
        let refs: Vec<&[i32]> = clauses.iter().map(|c| c.as_slice()).collect();
        let f = cnf_of(&refs);
        let mut s = Solver::from_cnf(&f);
        let r = s.solve();
        assert_eq!(r.model().unwrap(), &vec![true; 50][..]);
        assert!(s.stats().propagations >= 49);
    }

    #[test]
    fn unsat_needs_conflict_analysis() {
        // (x1∨x2) ∧ (x1∨¬x2) ∧ (¬x1∨x3) ∧ (¬x1∨¬x3) is UNSAT
        let f = cnf_of(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        assert!(Solver::from_cnf(&f).solve().is_unsat());
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is UNSAT (odd cycle)
        let f = cnf_of(&[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3], &[1, 3], &[-1, -3]]);
        assert!(Solver::from_cnf(&f).solve().is_unsat());
    }

    #[test]
    fn budget_returns_unknown_and_resumes() {
        // A pigeonhole-ish hard instance would be ideal; use a small
        // unsat formula with an absurdly small budget instead.
        let f = cnf_of(&[
            &[1, 2, 3],
            &[1, 2, -3],
            &[1, -2, 3],
            &[1, -2, -3],
            &[-1, 2, 3],
            &[-1, 2, -3],
            &[-1, -2, 3],
            &[-1, -2, -3],
        ]);
        let mut s = Solver::from_cnf(&f);
        let r = s.solve_with_budget(Budget::conflicts(1));
        // Either it finishes instantly or reports Unknown; resuming must
        // then produce Unsat.
        if r.is_unknown() {
            assert!(s.solve().is_unsat());
        } else {
            assert!(r.is_unsat());
        }
    }

    #[test]
    fn duplicate_and_tautological_input() {
        let f = cnf_of(&[&[1, 1, 2], &[1, -1], &[2, 2]]);
        let mut s = Solver::from_cnf(&f);
        let r = s.solve();
        let m = r.model().unwrap();
        assert!(m[1], "x2 must be true");
    }

    #[test]
    fn stats_track_decisions_and_conflicts() {
        let f = cnf_of(&[&[1, 2], &[-1, 2], &[1, -2]]);
        let mut s = Solver::from_cnf(&f);
        let r = s.solve();
        assert!(r.is_sat());
        let st = *s.stats();
        assert!(st.decisions + st.propagations > 0);
    }

    #[test]
    fn policy_pick_runs_once_at_the_first_deleting_reduction() {
        let php = crate::tests_support::php(7, 6);
        for policy in [PolicyKind::Default, PolicyKind::PropFreq] {
            let mut eager = Solver::new(&php, SolverConfig::with_policy(policy));
            assert!(eager.solve().is_unsat());
            let mut lazy = Solver::from_cnf(&php);
            lazy.set_telemetry(SolverTelemetry::new("php-7-6"));
            let mut calls = 0;
            let result = lazy.solve_with_policy_pick(Budget::unlimited(), || {
                calls += 1;
                policy
            });
            assert!(result.is_unsat());
            assert_eq!(calls, 1, "{policy}: one pick per solve");
            assert!(lazy.stats().deleted_clauses > 0);
            assert_eq!(lazy.stats(), eager.stats(), "{policy}: same search");
            assert_eq!(lazy.config.policy, policy);
            let record = lazy.take_telemetry().and_then(SolverTelemetry::into_record);
            assert_eq!(record.map(|r| r.policy), Some(eager.policy_name()));
        }

        // A solve that never reduces never picks.
        let f = cnf_of(&[&[1, 2], &[-2, 3], &[-3, -1]]);
        let mut short = Solver::from_cnf(&f);
        let mut calls = 0;
        let result = short.solve_with_policy_pick(Budget::unlimited(), || {
            calls += 1;
            PolicyKind::PropFreq
        });
        assert!(result.is_sat());
        assert_eq!((calls, short.stats().reductions), (0, 0));
        assert_eq!(short.policy_name(), "default");

        // Nor does one that reduces but deletes nothing: the first
        // reduction finds every learned clause protected.
        let mut once = Solver::from_cnf(&php);
        let mut calls = 0;
        let result = once.solve_with_policy_pick(Budget::conflicts(REDUCES_ONCE), || {
            calls += 1;
            PolicyKind::PropFreq
        });
        assert!(result.is_unknown());
        let stats = once.stats();
        assert_eq!((calls, stats.reductions, stats.deleted_clauses), (0, 1, 0));
        assert_eq!(once.policy_name(), "default");
    }

    /// A conflict budget under which php(7,6) stops after its first
    /// reduction and before its second.
    const REDUCES_ONCE: u64 = 150;

    #[test]
    fn policy_pick_is_refused_after_a_deletion() {
        let php = crate::tests_support::php(7, 6);
        let mut s = Solver::from_cnf(&php);
        assert!(s.solve_with_budget(Budget::conflicts(500)).is_unknown());
        assert!(s.stats().deleted_clauses > 0);
        let mut calls = 0;
        let result = s.solve_with_policy_pick(Budget::unlimited(), || {
            calls += 1;
            PolicyKind::PropFreq
        });
        assert!(result.is_unsat());
        assert_eq!(calls, 0);
        assert_eq!(s.policy_name(), "default");

        // A reduction that deleted nothing does not refuse the pick.
        let mut s = Solver::from_cnf(&php);
        assert!(s
            .solve_with_budget(Budget::conflicts(REDUCES_ONCE))
            .is_unknown());
        assert_eq!((s.stats().reductions, s.stats().deleted_clauses), (1, 0));
        let mut calls = 0;
        let result = s.solve_with_policy_pick(Budget::unlimited(), || {
            calls += 1;
            PolicyKind::PropFreq
        });
        assert!(result.is_unsat());
        assert_eq!(calls, 1);
        assert_eq!(s.policy_name(), "prop-freq");
    }

    #[test]
    fn compaction_keeps_the_search_and_every_invariant() {
        // php(8,7) garbage-collects the arena several times; php(7,6)
        // never fills half of it with garbage.
        let php = crate::tests_support::php(8, 7);
        let mut plain = Solver::from_cnf(&php);
        #[cfg(feature = "checks")]
        plain.set_check_level(crate::CheckLevel::Off);
        assert!(plain.solve().is_unsat());
        // `Light` audits after every reduction, so right after every
        // compaction: a stale watch or reason fails the solve.
        let mut audited = Solver::from_cnf(&php);
        #[cfg(feature = "checks")]
        audited.set_check_level(crate::CheckLevel::Light);
        assert!(audited.solve().is_unsat());
        // Without a compaction every deleted clause would still sit in the
        // arena as garbage.
        let db = &audited.db;
        let garbage = db.headers().filter(|&c| !db.is_live(c)).count();
        assert!(
            garbage < audited.stats().deleted_clauses as usize,
            "{garbage} garbage clauses of {} deleted: never compacted",
            audited.stats().deleted_clauses
        );
        assert_eq!(audited.audit_invariants(Checkpoint::PostReduce), Ok(()));
        assert_eq!(
            audited.stats(),
            plain.stats(),
            "auditing changed the search"
        );
    }

    #[test]
    fn solve_with_policy_both_agree() {
        let f = cnf_of(&[&[1, 2], &[-2, 3], &[-3, -1], &[2, 3]]);
        let (r1, _) = solve_with_policy(&f, PolicyKind::Default, Budget::unlimited());
        let (r2, _) = solve_with_policy(&f, PolicyKind::PropFreq, Budget::unlimited());
        assert_eq!(r1.is_sat(), r2.is_sat());
    }
}
