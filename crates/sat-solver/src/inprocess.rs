//! The solver's one simplification engine: subsumption, self-subsuming
//! resolution, bounded variable elimination (BVE) with model
//! reconstruction, and vivification of kept learned clauses, all over the
//! live clause database.
//!
//! Rounds run at the root level, so clauses can be detached, strengthened,
//! and replaced without touching any in-flight decision. There are two
//! entry points:
//!
//! * **during search**, with [`SolverConfig::inprocess`](crate::SolverConfig::inprocess),
//!   a round runs at every `inprocess_interval`-th restart, metered by a
//!   step budget that tracks the search effort since the previous round;
//! * **before search**, [`Solver::simplify`] runs rounds with the ceiling
//!   budget until one changes nothing (`rsat --preprocess`).
//!
//! Either way a pathological instance degrades to a clean mid-round abort
//! instead of a stall.
//!
//! # Incremental occurrence lists and touched queues
//!
//! The engine keeps a persistent *touched-variable* queue: every clause
//! the solver learns marks its variables touched, and a round only
//! re-examines clauses containing a touched variable (the first round
//! touches everything). Occurrence lists over the live clause
//! database are rebuilt per round — they index `ClauseRef`s lazily, so a
//! clause deleted mid-round is filtered by a liveness check on read
//! rather than eagerly unlinked. A deleted clause stays in the clause
//! arena as garbage until a reduction compacts it, and no round spans a
//! reduction, so a stale ref reads as dead instead of aliasing a clause
//! added later in the round.
//!
//! # DRAT soundness
//!
//! Every derivation is logged append-ordered through the solver's
//! [`ProofLogger`](crate::ProofLogger), additions strictly before the
//! deletions they justify:
//!
//! * a **subsumed** clause is only deleted (deletions never affect
//!   proof validity);
//! * a **strengthened** or **vivified** clause is a reverse-unit-
//!   propagation (RUP) consequence of the clauses already logged — its
//!   shortened form is added first, then the long form is deleted;
//! * a **BVE resolvent** is a single resolution step, hence RUP; all
//!   resolvents of the pivot are added before any clause containing the
//!   pivot is deleted.
//!
//! # Model reconstruction
//!
//! BVE removes every clause mentioning the pivot variable; the removed
//! irredundant clauses are pushed onto a reconstruction stack. At SAT
//! exit [`Solver::extract_model`] replays the stack in reverse, choosing
//! the pivot polarity that satisfies all saved clauses — the classic
//! SatELite argument: if neither polarity worked, two saved clauses
//! would resolve to a clause falsified by the model, contradicting the
//! model satisfying the resolvent-extended database.

use crate::clause_db::ClauseRef;
use crate::solver::Checkpoint;
use crate::varmap::VarMap;
use crate::{LBool, Solver};
use cnf::{Lit, Var};
use telemetry::Phase;

/// Eliminate a variable only if each polarity occurs at most this often
/// in irredundant clauses (bounds the resolvent computation).
const BVE_OCC_LIMIT: usize = 16;
/// BVE may not grow the irredundant clause count (resolvents kept must
/// not exceed clauses removed plus this slack).
const BVE_GROWTH: usize = 0;
/// Occurrence-list scan cap for subsumption/SSR: at most this many
/// entries of one literal's list are examined per candidate, so a
/// pathologically frequent literal cannot eat the round.
const OCC_SCAN_LIMIT: usize = 256;
/// Vivification probes at most this many learned clauses per round.
const VIVIFY_CLAUSE_LIMIT: usize = 64;
/// Only learned clauses at most this glue are worth vivification probes
/// (they are the ones the deletion policy will keep).
const VIVIFY_GLUE_LIMIT: u32 = 6;
/// Ceiling on the per-round work budget; exhausting the budget aborts
/// the round cleanly after the current atomic operation.
const ROUND_STEP_BUDGET: u64 = 200_000;
/// Floor on the per-round work budget: even a round scheduled right
/// after a cheap stretch of search gets enough steps to make progress.
const MIN_ROUND_STEP_BUDGET: u64 = 10_000;
/// A round may spend at most `propagations-since-last-round /
/// INPROCESS_EFFORT_DIV` steps, keeping inprocessing a bounded fraction
/// of search effort instead of a fixed (potentially dominating) cost.
const INPROCESS_EFFORT_DIV: u64 = 4;
/// Budget substituted by the `inprocess-stall` fault: small enough that
/// the round aborts almost immediately, exercising the mid-round abort
/// path that the chaos suite pins.
const STALLED_STEP_BUDGET: u64 = 64;

/// Counters accumulated by the inprocessing engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InprocessStats {
    /// Completed inprocessing rounds.
    pub rounds: u64,
    /// Rounds skipped before doing any work (fault injection).
    pub skipped_rounds: u64,
    /// Rounds aborted mid-way by the step budget.
    pub aborted_rounds: u64,
    /// Clauses deleted because another live clause subsumes them (plus
    /// root-satisfied clauses swept while building occurrence lists).
    pub subsumed: u64,
    /// Clauses shortened by self-subsuming resolution or vivification.
    pub strengthened: u64,
    /// Variables eliminated by bounded variable elimination.
    pub eliminated_vars: u64,
    /// Resolvents added by bounded variable elimination.
    pub resolvents_added: u64,
    /// Learned clauses shortened or deleted by vivification.
    pub vivified: u64,
    /// Unit clauses derived by strengthening/elimination this far.
    pub units_derived: u64,
}

/// Persistent inprocessing state carried by the solver across rounds.
pub(crate) struct InprocessEngine {
    /// Variables touched since the previous round (by learning or
    /// in-round rewrites); only clauses containing one are revisited.
    touched: VarMap<bool>,
    touched_queue: Vec<Var>,
    /// Variables removed from the formula by BVE.
    eliminated: VarMap<bool>,
    /// `(pivot, saved irredundant clauses)` in elimination order;
    /// replayed in reverse by [`extend_model`](Self::extend_model).
    steps: Vec<(Lit, Vec<Vec<Lit>>)>,
    /// Restarts since the last round (compared against
    /// `SolverConfig::inprocess_interval`).
    restarts_since: u64,
    /// False until the first round has run (the first round visits every
    /// clause instead of the touched subset).
    first_round_done: bool,
    /// Solver propagation count at the end of the previous round; the
    /// next round's step budget is a fraction of the delta, so engine
    /// effort tracks search effort.
    last_round_propagations: u64,
    /// Rotation cursors persisting across rounds: an aborted round
    /// resumes its subsumption / elimination sweeps where it stopped
    /// instead of re-spending the budget on the same prefix.
    subsume_cursor: usize,
    bve_cursor: u32,
    /// Root-trail prefix already logged to the proof as explicit unit
    /// additions. Deleting a root-satisfied clause is only DRAT-safe once
    /// the satisfying unit no longer depends on it for reverse-unit-
    /// propagation, so every round logs the trail suffix before deleting
    /// anything (the root trail never shrinks).
    units_logged: usize,
    stats: InprocessStats,
}

impl InprocessEngine {
    pub(crate) fn new(num_vars: u32) -> Self {
        InprocessEngine {
            touched: VarMap::new(num_vars, false),
            touched_queue: Vec::new(),
            eliminated: VarMap::new(num_vars, false),
            steps: Vec::new(),
            restarts_since: 0,
            first_round_done: false,
            last_round_propagations: 0,
            subsume_cursor: 0,
            bve_cursor: 0,
            units_logged: 0,
            stats: InprocessStats::default(),
        }
    }

    /// Marks a variable for re-examination in the next round.
    pub(crate) fn touch(&mut self, v: Var) {
        if !self.touched.get(v) {
            self.touched.set(v, true);
            self.touched_queue.push(v);
        }
    }

    /// Marks every variable of a clause for re-examination.
    pub(crate) fn touch_lits(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.touch(l.var());
        }
    }

    /// Whether `v` was eliminated by BVE.
    pub(crate) fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated.get(v)
    }

    /// Engine counters so far.
    pub(crate) fn stats(&self) -> InprocessStats {
        self.stats
    }

    /// The reconstruction stack (pivot + saved clauses per elimination).
    pub(crate) fn reconstruction_steps(&self) -> &[(Lit, Vec<Vec<Lit>>)] {
        &self.steps
    }

    /// Replays the reconstruction stack in reverse, fixing each pivot to
    /// the polarity that satisfies all clauses saved at its elimination.
    pub(crate) fn extend_model(&self, model: &mut [bool]) {
        for (pivot, clauses) in self.steps.iter().rev() {
            let v = pivot.var().index() as usize;
            model[v] = pivot.is_negated(); // try the pivot literal false
            let all_satisfied = clauses
                .iter()
                .all(|c| c.iter().any(|l| l.eval(model[l.var().index() as usize])));
            if !all_satisfied {
                model[v] = pivot.is_positive();
            }
        }
    }

    /// Internal-consistency audit of the persistent engine state, used by
    /// the `checks` feature: the touched queue and flags must agree, and
    /// the reconstruction stack must carry distinct pivots matching the
    /// eliminated flags.
    pub(crate) fn audit(&self, num_vars: u32) -> Result<(), String> {
        let mut queued = VarMap::new(num_vars, false);
        for &v in &self.touched_queue {
            if !self.touched.get(v) {
                return Err(format!("queued variable {} not flagged touched", v.index()));
            }
            if queued.get(v) {
                return Err(format!("variable {} queued twice", v.index()));
            }
            queued.set(v, true);
        }
        let flagged = (0..num_vars)
            .map(Var::new)
            .filter(|&v| self.touched.get(v))
            .count();
        if flagged != self.touched_queue.len() {
            return Err(format!(
                "{flagged} touched flags but queue holds {}",
                self.touched_queue.len()
            ));
        }
        let mut pivots = VarMap::new(num_vars, false);
        for (pivot, _) in &self.steps {
            let v = pivot.var();
            if pivots.get(v) {
                return Err(format!("pivot {} eliminated twice", v.index()));
            }
            pivots.set(v, true);
            if !self.eliminated.get(v) {
                return Err(format!("pivot {} not flagged eliminated", v.index()));
            }
        }
        let eliminated = (0..num_vars)
            .map(Var::new)
            .filter(|&v| self.eliminated.get(v))
            .count();
        if eliminated != self.steps.len() {
            return Err(format!(
                "{eliminated} eliminated flags but {} reconstruction steps",
                self.steps.len()
            ));
        }
        Ok(())
    }
}

/// Outcome of one in-round sub-pass.
#[derive(PartialEq, Eq, Clone, Copy)]
enum IpStatus {
    /// Sub-pass completed within budget.
    Done,
    /// Step budget exhausted; the round must end (state is consistent).
    Abort,
    /// The formula was refuted at the root level.
    Unsat,
}

/// Per-round work meter.
struct RoundBudget {
    steps: u64,
}

impl RoundBudget {
    fn spend(&mut self, n: u64) -> bool {
        self.steps = self.steps.saturating_sub(n);
        self.steps > 0
    }
}

/// Per-round occurrence index: `occ[lit.code()]` holds refs of clauses
/// that contained `lit` when indexed. Entries go stale when clauses are
/// deleted or rewritten mid-round, so every read re-checks liveness and
/// membership against the clause database.
struct Occurrences {
    by_lit: Vec<Vec<ClauseRef>>,
}

impl Occurrences {
    fn new(num_vars: u32) -> Self {
        Occurrences {
            by_lit: vec![Vec::new(); 2 * num_vars as usize],
        }
    }

    fn push(&mut self, lits: &[Lit], cref: ClauseRef) {
        for &l in lits {
            self.by_lit[l.code() as usize].push(cref);
        }
    }

    fn len(&self, l: Lit) -> usize {
        self.by_lit[l.code() as usize].len()
    }

    /// Indexed access for loops that mutate the index mid-iteration
    /// (appends by `push` never invalidate already-visited positions).
    fn at(&self, l: Lit, i: usize) -> ClauseRef {
        self.by_lit[l.code() as usize][i]
    }

    /// Current refs listed under `l` (stale entries included; callers
    /// must re-validate against the database).
    fn refs(&self, l: Lit) -> Vec<ClauseRef> {
        self.by_lit[l.code() as usize].clone()
    }
}

impl Solver {
    /// Counts a restart boundary and reports whether an inprocessing
    /// round is due. Never due when inprocessing is disabled, even on a
    /// solver whose engine exists because [`simplify`](Self::simplify) ran.
    pub(crate) fn inprocess_due(&mut self) -> bool {
        if !self.config.inprocess {
            return false;
        }
        let interval = self.config.inprocess_interval.max(1);
        match &mut self.inprocess {
            Some(eng) => {
                eng.restarts_since += 1;
                eng.restarts_since >= interval
            }
            None => false,
        }
    }

    /// Whether `v` was eliminated by inprocessing's BVE. Eliminated
    /// variables are skipped by decision heuristics and re-valued by
    /// model reconstruction.
    #[inline]
    pub(crate) fn var_is_eliminated(&self, v: Var) -> bool {
        self.inprocess.as_ref().is_some_and(|e| e.is_eliminated(v))
    }

    /// Engine counters, when inprocessing is enabled.
    pub fn inprocess_stats(&self) -> Option<InprocessStats> {
        self.inprocess.as_ref().map(|e| e.stats())
    }

    /// Panics if `lits` mentions an eliminated variable — the documented
    /// API contract of the incremental interface: clauses and assumptions
    /// over eliminated variables cannot be interpreted against the
    /// simplified database.
    pub(crate) fn assert_not_eliminated(&self, lits: &[Lit], what: &str) {
        if let Some(eng) = &self.inprocess {
            for &l in lits {
                // xtask: allow(no-hard-assert) documented API contract, not search-loop code
                assert!(
                    l.var().index() >= self.num_vars || !eng.is_eliminated(l.var()),
                    "{what} mentions variable {} eliminated by inprocessing",
                    l.var()
                );
            }
        }
    }

    /// Simplifies the formula at the root, before search: runs
    /// inprocessing rounds, each with the ceiling step budget, until a
    /// round changes nothing. This is the solver's preprocessing
    /// (`rsat --preprocess`), done by the same engine as the rounds during
    /// search, over the live clause database.
    ///
    /// Every derivation goes to the DRAT proof when
    /// [`enable_proof`](Self::enable_proof) was called first, and later
    /// models are extended over the eliminated variables, so verdicts,
    /// models and proofs all refer to the formula the solver was built
    /// from. Frozen variables are never eliminated. Simplifying does not
    /// schedule rounds during search; that stays up to
    /// [`SolverConfig::inprocess`](crate::SolverConfig::inprocess).
    ///
    /// Returns `false` when the formula was refuted; a later `solve` then
    /// returns [`SolveResult::Unsat`](crate::SolveResult::Unsat).
    ///
    /// # Examples
    ///
    /// ```
    /// use sat_solver::Solver;
    /// // (x1 ∨ x2) subsumes (x1 ∨ x2 ∨ x3), and x2 resolves away.
    /// let f = cnf::parse_dimacs_str("p cnf 3 3\n1 2 0\n1 2 3 0\n-2 3 0\n")?;
    /// let mut solver = Solver::from_cnf(&f);
    /// solver.enable_proof();
    /// assert!(solver.simplify());
    /// assert!(solver.db_stats().original_clauses < f.num_clauses());
    /// let model = solver.solve().model().expect("sat").to_vec();
    /// assert!(cnf::verify_model(&f, &model).is_ok());
    /// # Ok::<(), cnf::ParseDimacsError>(())
    /// ```
    pub fn simplify(&mut self) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack(0);
        if self.inprocess.is_none() {
            self.inprocess = Some(Box::new(InprocessEngine::new(self.num_vars)));
        }
        // A round changed something iff it deleted, shortened or
        // eliminated something, or fixed a variable at the root.
        let progress = |s: &Solver| {
            let st = s.inprocess_stats().unwrap_or_default();
            let changes = st.subsumed + st.strengthened + st.eliminated_vars + st.vivified;
            (changes, s.trail.len())
        };
        let rounds = self.rec.begin(Phase::Inprocess);
        let satisfiable = loop {
            let before = progress(self);
            if !self.inprocess_round(Some(ROUND_STEP_BUDGET)) {
                break false;
            }
            if progress(self) == before {
                break true;
            }
        };
        self.rec.end(rounds);
        satisfiable
    }

    /// Runs one budget-metered inprocessing round at the root: with
    /// `fixed_budget` steps, or, for `None` (a round at a restart
    /// boundary), with a fraction of the search effort since the previous
    /// round, clamped to the floor and the ceiling. Returns `false` when
    /// the formula was refuted at the root level (the empty clause has
    /// been logged).
    pub(crate) fn inprocess_round(&mut self, fixed_budget: Option<u64>) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        // The engine moves out for the duration of the round so `self`
        // stays freely borrowable.
        let Some(mut eng) = self.inprocess.take() else {
            return true;
        };
        eng.restarts_since = 0;
        let round = eng.stats.rounds + eng.stats.skipped_rounds + eng.stats.aborted_rounds;
        // Fault point: detected corruption of the engine's working state.
        // The defense is a clean skip — no partial mutation has happened.
        if crate::resilience::inject_inprocess_corruption(round) {
            eng.stats.skipped_rounds += 1;
            self.inprocess = Some(eng);
            return true;
        }
        // Budget policy: a fraction of the search effort (propagations)
        // since the last round, clamped to [floor, ceiling]. See §15 of
        // DESIGN.md for the rationale.
        let steps = fixed_budget.unwrap_or_else(|| {
            let work = self.stats.propagations - eng.last_round_propagations;
            eng.last_round_propagations = self.stats.propagations;
            (work / INPROCESS_EFFORT_DIV).clamp(MIN_ROUND_STEP_BUDGET, ROUND_STEP_BUDGET)
        });
        let mut budget = RoundBudget {
            steps: if crate::resilience::inject_inprocess_stall(round) {
                STALLED_STEP_BUDGET
            } else {
                steps
            },
        };
        let status = self.run_round(&mut eng, &mut budget);
        match status {
            IpStatus::Unsat => {
                self.inprocess = Some(eng);
                false
            }
            IpStatus::Abort => {
                eng.stats.aborted_rounds += 1;
                self.inprocess = Some(eng);
                self.checkpoint(Checkpoint::PostInprocess);
                true
            }
            IpStatus::Done => {
                eng.first_round_done = true;
                eng.stats.rounds += 1;
                self.inprocess = Some(eng);
                self.checkpoint(Checkpoint::PostInprocess);
                true
            }
        }
    }

    fn run_round(&mut self, eng: &mut InprocessEngine, budget: &mut RoundBudget) -> IpStatus {
        if !self.ip_root_fixpoint(eng) {
            return IpStatus::Unsat;
        }
        // Snapshot and drain the touched set; work discovered during the
        // round re-touches variables for the *next* round.
        let full = !eng.first_round_done;
        let mut touched = VarMap::new(self.num_vars, false);
        let mut snapshot: Vec<Var> = Vec::new();
        for v in eng.touched_queue.drain(..) {
            eng.touched.set(v, false);
            touched.set(v, true);
            snapshot.push(v);
        }

        let mut occ = Occurrences::new(self.num_vars);
        let mut candidates: Vec<ClauseRef> = Vec::new();
        let status = (|| {
            let sweep = self.ip_index_clauses(eng, &mut occ, &mut candidates, &touched, full);
            if sweep != IpStatus::Done {
                return sweep;
            }
            // Each rewriting phase gets its own slice of the round budget
            // (leftover carries forward), so a budget-bound round still
            // advances subsumption, elimination, AND vivification instead
            // of starving the later phases behind an ever-aborting first
            // one. The persistent cursors make the per-phase progress
            // monotone across rounds.
            let mut aborted = false;
            let total = budget.steps;
            let mut slice = RoundBudget { steps: total / 2 };
            match self.ip_subsume(eng, &mut occ, &candidates, &mut slice) {
                IpStatus::Unsat => return IpStatus::Unsat,
                IpStatus::Abort => aborted = true,
                IpStatus::Done => {}
            }
            slice.steps += total / 4;
            match self.ip_eliminate(eng, &mut occ, &touched, full, &mut slice) {
                IpStatus::Unsat => return IpStatus::Unsat,
                IpStatus::Abort => aborted = true,
                IpStatus::Done => {}
            }
            slice.steps += total / 4;
            match self.ip_vivify(eng, &mut occ, &mut slice) {
                IpStatus::Unsat => return IpStatus::Unsat,
                IpStatus::Abort => aborted = true,
                IpStatus::Done => {}
            }
            budget.steps = slice.steps;
            if !self.ip_root_fixpoint(eng) {
                return IpStatus::Unsat;
            }
            if aborted {
                IpStatus::Abort
            } else {
                IpStatus::Done
            }
        })();
        if status == IpStatus::Abort {
            // An aborted round must not lose scheduling state: whatever was
            // drained above is re-queued so the next round revisits it.
            for v in snapshot {
                eng.touch(v);
            }
        }
        status
    }

    /// Propagates to fixpoint at the root level and clears root reasons
    /// so no clause is pinned as an antecedent during the round (conflict
    /// analysis never resolves on level-0 literals, so a root reason is
    /// never read again). Returns `false` on a root conflict, with the
    /// empty clause logged.
    ///
    /// Every not-yet-logged root literal is appended to the proof as an
    /// explicit unit addition (each is RUP: unit propagation over the
    /// clauses currently in the proof derives it). The round may then
    /// delete a root-satisfied clause without stranding later RUP checks
    /// that would have needed it to re-derive the unit.
    fn ip_root_fixpoint(&mut self, eng: &mut InprocessEngine) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            if let Some(p) = &mut self.proof {
                if !p.claims_unsat() {
                    p.add_empty();
                }
            }
            return false;
        }
        for i in 0..self.trail.len() {
            let v = crate::varmap::at(&self.trail, i).var();
            self.reason.set(v, None);
        }
        self.num_reasons = 0;
        while eng.units_logged < self.trail.len() {
            let unit = crate::varmap::at(&self.trail, eng.units_logged);
            eng.units_logged += 1;
            self.ip_log_add(&[unit]);
        }
        true
    }

    /// Logs a derived clause to the proof, when one is attached.
    fn ip_log_add(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.add(lits);
        }
    }

    /// Deletes a live, attached clause: proof delete line, watch detach,
    /// database drop.
    fn ip_delete_clause(&mut self, cref: ClauseRef) {
        if let Some(p) = &mut self.proof {
            p.delete(self.db.lits(cref));
        }
        self.detach(cref);
        self.db.remove(cref);
    }

    /// Records a root-level refutation (all literals of a derived clause
    /// are false at level 0).
    fn ip_refute(&mut self) -> IpStatus {
        self.ok = false;
        if let Some(p) = &mut self.proof {
            if !p.claims_unsat() {
                p.add_empty();
            }
        }
        IpStatus::Unsat
    }

    /// Builds the round's occurrence index, sweeping root-satisfied
    /// clauses and stripping root-false literals along the way.
    ///
    /// The sweep is deliberately *not* metered: it is one linear pass over
    /// the live database (the same order of work as a `reduce_db` pass),
    /// and aborting mid-index would leave later phases with a partial
    /// occurrence view while still paying the full sweep again next round.
    fn ip_index_clauses(
        &mut self,
        eng: &mut InprocessEngine,
        occ: &mut Occurrences,
        candidates: &mut Vec<ClauseRef>,
        touched: &VarMap<bool>,
        full: bool,
    ) -> IpStatus {
        for cref in self.db.iter_refs().collect::<Vec<_>>() {
            if !self.db.is_live(cref) {
                continue; // deleted by an earlier unit cascade
            }
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            if lits.iter().any(|&l| self.value(l) == LBool::True) {
                // Permanently satisfied at the root; drop it outright.
                self.ip_delete_clause(cref);
                eng.stats.subsumed += 1;
                continue;
            }
            if lits.iter().any(|&l| self.value(l) == LBool::False) {
                let kept: Vec<Lit> = lits
                    .iter()
                    .copied()
                    .filter(|&l| self.value(l) != LBool::False)
                    .collect();
                match self.ip_commit_strengthened(eng, occ, cref, kept) {
                    IpStatus::Unsat => return IpStatus::Unsat,
                    _ => continue,
                }
            }
            occ.push(&lits, cref);
            if full || lits.iter().any(|l| touched.get(l.var())) {
                candidates.push(cref);
            }
        }
        IpStatus::Done
    }

    /// Replaces `old` by the (shorter) clause `kept`, root-normalizing
    /// first. Emits the DRAT add before the delete. May derive a unit and
    /// propagate it to fixpoint.
    fn ip_commit_strengthened(
        &mut self,
        eng: &mut InprocessEngine,
        occ: &mut Occurrences,
        old: ClauseRef,
        mut kept: Vec<Lit>,
    ) -> IpStatus {
        if kept.iter().any(|&l| self.value(l) == LBool::True) {
            // The shortened clause (hence the original) is root-satisfied.
            self.ip_delete_clause(old);
            eng.stats.subsumed += 1;
            return IpStatus::Done;
        }
        kept.retain(|&l| self.value(l) != LBool::False);
        let was_learned = self.db.is_learned(old);
        let old_glue = self.db.glue(old);
        match *kept.as_slice() {
            [] => self.ip_refute(),
            [unit] => {
                self.ip_log_add(&kept);
                self.ip_delete_clause(old);
                // Asserted like a learned unit (no reason, no frequency
                // bump).
                self.assign(unit, None);
                eng.touch(unit.var());
                eng.stats.strengthened += 1;
                eng.stats.units_derived += 1;
                if !self.ip_root_fixpoint(eng) {
                    return IpStatus::Unsat;
                }
                IpStatus::Done
            }
            _ => {
                let glue = if was_learned {
                    old_glue.clamp(1, kept.len() as u32)
                } else {
                    0
                };
                self.ip_log_add(&kept);
                self.ip_delete_clause(old);
                let cref = self.db.add(&kept, was_learned, glue);
                self.attach(cref);
                occ.push(&kept, cref);
                eng.touch_lits(&kept);
                eng.stats.strengthened += 1;
                IpStatus::Done
            }
        }
    }

    /// Forward subsumption and self-subsuming resolution over the
    /// candidate clauses (those containing a touched variable).
    ///
    /// Candidates are visited in a rotation that persists across rounds
    /// (`subsume_cursor`): an aborted round resumes roughly where it
    /// stopped instead of re-spending its budget on the same prefix, so
    /// budget-limited rounds still make monotone progress over the whole
    /// database.
    fn ip_subsume(
        &mut self,
        eng: &mut InprocessEngine,
        occ: &mut Occurrences,
        candidates: &[ClauseRef],
        budget: &mut RoundBudget,
    ) -> IpStatus {
        if candidates.is_empty() {
            return IpStatus::Done;
        }
        let start = eng.subsume_cursor % candidates.len();
        for i in 0..candidates.len() {
            let idx = (start + i) % candidates.len();
            let cref = candidates[idx];
            if !budget.spend(1) {
                eng.subsume_cursor = idx;
                return IpStatus::Abort;
            }
            if !self.db.is_live(cref) {
                continue;
            }
            let lits: Vec<Lit> = self.db.lits(cref).to_vec();
            if lits.iter().any(|&l| self.value(l) != LBool::Undef) {
                // A unit cascade reshaped this clause since indexing; it
                // is re-examined next round (its variables are touched).
                continue;
            }
            let learned = self.db.is_learned(cref);
            // Forward subsumption through the rarest literal's list,
            // capped so one pathologically frequent literal cannot eat
            // the round.
            let Some(&anchor) = lits.iter().min_by_key(|l| occ.len(**l)) else {
                continue;
            };
            let scan = occ.len(anchor).min(OCC_SCAN_LIMIT);
            for j in 0..scan {
                if !budget.spend(1) {
                    eng.subsume_cursor = idx;
                    return IpStatus::Abort;
                }
                let other = occ.at(anchor, j);
                if other == cref || !self.db.is_live(other) {
                    continue;
                }
                // Deleting an irredundant clause is only sound when the
                // subsumer is irredundant too (a learned subsumer may be
                // deleted later by reduction, weakening the formula).
                if learned && !self.db.is_learned(other) {
                    continue;
                }
                let d = self.db.lits(other);
                if lits.len() <= d.len() && lits.iter().all(|l| d.contains(l)) {
                    self.ip_delete_clause(other);
                    eng.stats.subsumed += 1;
                }
            }
            // Self-subsuming resolution: c = (l ∨ A) strengthens
            // d = (¬l ∨ A ∨ B) to (A ∨ B).
            for &l in &lits {
                let scan = occ.len(!l).min(OCC_SCAN_LIMIT);
                for j in 0..scan {
                    if !budget.spend(1) {
                        eng.subsume_cursor = idx;
                        return IpStatus::Abort;
                    }
                    let other = occ.at(!l, j);
                    if other == cref || !self.db.is_live(other) {
                        continue;
                    }
                    let d = self.db.lits(other);
                    if lits.len() > d.len() || !d.contains(&!l) {
                        continue;
                    }
                    if !lits.iter().all(|&x| x == l || d.contains(&x)) {
                        continue;
                    }
                    let kept: Vec<Lit> = d.iter().copied().filter(|&x| x != !l).collect();
                    if self.ip_commit_strengthened(eng, occ, other, kept) == IpStatus::Unsat {
                        return IpStatus::Unsat;
                    }
                    if !self.db.is_live(cref) || lits.iter().any(|&x| self.value(x) != LBool::Undef)
                    {
                        break; // a unit cascade invalidated the subsumer
                    }
                }
                if !self.db.is_live(cref) {
                    break;
                }
            }
        }
        eng.subsume_cursor = 0;
        IpStatus::Done
    }

    /// Bounded variable elimination over unassigned candidate variables
    /// that are neither frozen nor mentioned by the current call's
    /// assumptions. The frozen check is the incremental-soundness half:
    /// a session's assumption candidates must survive every round, not
    /// just rounds inside calls that happen to assume them.
    fn ip_eliminate(
        &mut self,
        eng: &mut InprocessEngine,
        occ: &mut Occurrences,
        touched: &VarMap<bool>,
        full: bool,
        budget: &mut RoundBudget,
    ) -> IpStatus {
        if self.num_vars == 0 {
            return IpStatus::Done;
        }
        let start = eng.bve_cursor % self.num_vars;
        for i in 0..self.num_vars {
            let v = Var::new((start + i) % self.num_vars);
            if !(full || touched.get(v))
                || eng.is_eliminated(v)
                || self.var_value(v).is_assigned()
                || self.frozen.get(v)
                || self.assumptions.iter().any(|a| a.var() == v)
            {
                continue;
            }
            if !budget.spend(8) {
                eng.bve_cursor = v.index();
                return IpStatus::Abort;
            }
            let collect = |s: &Solver, lit: Lit, occ: &Occurrences| -> Vec<ClauseRef> {
                let mut refs: Vec<ClauseRef> = Vec::new();
                for cref in occ.refs(lit) {
                    if s.db.is_live(cref) && s.db.lits(cref).contains(&lit) && !refs.contains(&cref)
                    {
                        refs.push(cref);
                    }
                }
                refs
            };
            let pos = collect(self, v.positive(), occ);
            let neg = collect(self, v.negative(), occ);
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            let pos_orig: Vec<ClauseRef> = pos
                .iter()
                .copied()
                .filter(|&c| !self.db.is_learned(c))
                .collect();
            let neg_orig: Vec<ClauseRef> = neg
                .iter()
                .copied()
                .filter(|&c| !self.db.is_learned(c))
                .collect();
            if pos_orig.len() > BVE_OCC_LIMIT || neg_orig.len() > BVE_OCC_LIMIT {
                continue;
            }
            // Resolve irredundant × irredundant on the pivot; skip
            // tautologies and root-satisfied resolvents, strip root-false
            // literals (each surviving resolvent is RUP).
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut empty_resolvent = false;
            'resolve: for &a in &pos_orig {
                for &b in &neg_orig {
                    if !budget.spend(4) {
                        eng.bve_cursor = v.index();
                        return IpStatus::Abort;
                    }
                    let Some(r) = self.ip_resolve(a, b, v.positive()) else {
                        continue;
                    };
                    if r.is_empty() {
                        empty_resolvent = true;
                        break 'resolve;
                    }
                    resolvents.push(r);
                    if resolvents.len() > pos_orig.len() + neg_orig.len() + BVE_GROWTH {
                        break 'resolve;
                    }
                }
            }
            if empty_resolvent {
                return self.ip_refute();
            }
            if resolvents.len() > pos_orig.len() + neg_orig.len() + BVE_GROWTH {
                continue; // elimination would grow the formula
            }
            // Commit. Order matters for the DRAT log: every resolvent is
            // added while its parents are still present, then every
            // clause containing the pivot is deleted.
            let saved: Vec<Vec<Lit>> = pos_orig
                .iter()
                .chain(&neg_orig)
                .map(|&c| self.db.lits(c).to_vec())
                .collect();
            for r in &resolvents {
                self.ip_log_add(r);
            }
            for cref in pos.iter().chain(&neg).copied().collect::<Vec<_>>() {
                if self.db.is_live(cref) {
                    self.ip_delete_clause(cref);
                }
            }
            eng.steps.push((v.positive(), saved));
            eng.eliminated.set(v, true);
            eng.stats.eliminated_vars += 1;
            let mut units: Vec<Lit> = Vec::new();
            for r in resolvents {
                eng.stats.resolvents_added += 1;
                match *r.as_slice() {
                    [] => unreachable!("empty resolvents refute above"),
                    [unit] => units.push(unit),
                    _ => {
                        let cref = self.db.add(&r, false, 0);
                        self.attach(cref);
                        occ.push(&r, cref);
                        eng.touch_lits(&r);
                    }
                }
            }
            for unit in units {
                match self.value(unit) {
                    LBool::True => {}
                    LBool::False => return self.ip_refute(),
                    LBool::Undef => {
                        self.assign(unit, None);
                        eng.touch(unit.var());
                        eng.stats.units_derived += 1;
                    }
                }
            }
            if !self.ip_root_fixpoint(eng) {
                return IpStatus::Unsat;
            }
        }
        eng.bve_cursor = 0;
        IpStatus::Done
    }

    /// The resolvent of clauses `a` (containing `pivot`) and `b`
    /// (containing `¬pivot`), root-normalized; `None` when tautological
    /// or root-satisfied.
    fn ip_resolve(&self, a: ClauseRef, b: ClauseRef, pivot: Lit) -> Option<Vec<Lit>> {
        let mut out: Vec<Lit> = Vec::new();
        for &l in self.db.lits(a).iter().chain(self.db.lits(b)) {
            if l.var() == pivot.var() {
                continue;
            }
            match self.value(l) {
                LBool::True => return None, // resolvent is root-satisfied
                LBool::False => continue,   // stripped (RUP via root units)
                LBool::Undef => {}
            }
            if out.contains(&!l) {
                return None; // tautology
            }
            if !out.contains(&l) {
                out.push(l);
            }
        }
        Some(out)
    }

    /// Vivification: probe the literals of kept learned clauses under the
    /// solver's own propagation; conflicts and implied literals shorten
    /// the clause (each shortened form is RUP by the very propagation
    /// that was just observed).
    fn ip_vivify(
        &mut self,
        eng: &mut InprocessEngine,
        occ: &mut Occurrences,
        budget: &mut RoundBudget,
    ) -> IpStatus {
        // Ties are broken by clause id, like `reduce_db`'s, so the order
        // does not depend on where the arena keeps a clause.
        let mut cands: Vec<(u32, usize, u32, ClauseRef)> = self
            .db
            .iter_learned()
            .filter(|&c| self.db.glue(c) <= VIVIFY_GLUE_LIMIT && self.db.len(c) >= 3)
            .map(|c| (self.db.glue(c), self.db.len(c), self.db.id(c), c))
            .collect();
        cands.sort_unstable();
        cands.truncate(VIVIFY_CLAUSE_LIMIT);
        for (_, _, _, cref) in cands {
            if !budget.spend(64) {
                return IpStatus::Abort;
            }
            if !self.db.is_live(cref) {
                continue; // deleted since candidate collection
            }
            match self.ip_vivify_one(eng, occ, cref, budget) {
                IpStatus::Unsat => return IpStatus::Unsat,
                IpStatus::Abort => return IpStatus::Abort,
                IpStatus::Done => {}
            }
        }
        IpStatus::Done
    }

    fn ip_vivify_one(
        &mut self,
        eng: &mut InprocessEngine,
        occ: &mut Occurrences,
        cref: ClauseRef,
        budget: &mut RoundBudget,
    ) -> IpStatus {
        debug_assert_eq!(self.decision_level(), 0);
        let lits: Vec<Lit> = self.db.lits(cref).to_vec();
        let glue = self.db.glue(cref);
        // Detach first so the clause cannot propagate against itself
        // while its own literals are probed.
        self.detach(cref);
        let mut kept: Vec<Lit> = Vec::new();
        let mut changed = false;
        let mut satisfied_at_root = false;
        for &l in &lits {
            match self.value(l) {
                LBool::True => {
                    if self.level.get(l.var()) == 0 {
                        satisfied_at_root = true;
                    } else {
                        // ¬kept propagated l: (kept ∨ l) is RUP.
                        kept.push(l);
                        changed = kept.len() < lits.len();
                    }
                    break;
                }
                LBool::False => {
                    // ¬kept propagated ¬l (or l is root-false): drop it.
                    changed = true;
                }
                LBool::Undef => {
                    if !budget.spend(32) {
                        // Abort cleanly: restore the clause untouched.
                        self.backtrack(0);
                        self.attach(cref);
                        return IpStatus::Abort;
                    }
                    self.trail_lim.push(self.trail.len());
                    let before = self.trail.len();
                    self.assign(!l, None);
                    let conflict = self.propagate().is_some();
                    // Probes do real BCP: charge the assignments actually
                    // made so vivification cannot overrun its slice by
                    // orders of magnitude (exhaustion lands next check).
                    let _ = budget.spend((self.trail.len() - before) as u64);
                    if conflict {
                        // Conflict under ¬(kept ∨ l): the prefix is RUP.
                        kept.push(l);
                        changed = kept.len() < lits.len();
                        break;
                    }
                    kept.push(l);
                }
            }
        }
        self.backtrack(0);
        if satisfied_at_root {
            // Learned and permanently satisfied: delete without replacing.
            if let Some(p) = &mut self.proof {
                p.delete(&lits);
            }
            self.db.remove(cref);
            eng.stats.vivified += 1;
            return IpStatus::Done;
        }
        if !changed {
            self.attach(cref);
            return IpStatus::Done;
        }
        eng.stats.vivified += 1;
        match *kept.as_slice() {
            [] => {
                // Every literal was root-false: the database refutes the
                // formula (the fixpoint pass would have caught this).
                self.ip_refute()
            }
            [unit] => {
                self.ip_log_add(&kept);
                if let Some(p) = &mut self.proof {
                    p.delete(&lits);
                }
                self.db.remove(cref);
                self.assign(unit, None);
                eng.touch(unit.var());
                eng.stats.units_derived += 1;
                if !self.ip_root_fixpoint(eng) {
                    return IpStatus::Unsat;
                }
                IpStatus::Done
            }
            _ => {
                let new_glue = glue.clamp(1, kept.len() as u32);
                self.ip_log_add(&kept);
                if let Some(p) = &mut self.proof {
                    p.delete(&lits);
                }
                self.db.remove(cref);
                let new_ref = self.db.add(&kept, true, new_glue);
                self.attach(new_ref);
                occ.push(&kept, new_ref);
                eng.touch_lits(&kept);
                IpStatus::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{check_proof, Budget, SolveResult, Solver, SolverConfig};
    use cnf::{verify_model, Cnf};

    fn inprocess_config() -> SolverConfig {
        SolverConfig {
            inprocess: true,
            inprocess_interval: 1,
            restart: 2,
            ..SolverConfig::default()
        }
    }

    fn cnf_of(clauses: &[&[i32]]) -> Cnf {
        let mut f = Cnf::new(0);
        for c in clauses {
            f.add_dimacs(c);
        }
        f
    }

    #[test]
    fn inprocessing_solver_agrees_on_php() {
        let f = crate::tests_support::php(5, 4);
        let mut s = Solver::new(&f, inprocess_config());
        s.enable_proof();
        assert!(s.solve().is_unsat());
        let proof = s.take_proof().expect("proof");
        assert!(proof.claims_unsat());
        check_proof(&f, &proof).expect("DRAT replay with inprocessing deletions");
        let stats = s.inprocess_stats().expect("engine enabled");
        assert!(stats.rounds + stats.aborted_rounds > 0, "rounds must run");
    }

    #[test]
    fn inprocessing_models_reconstruct_through_bve() {
        // A chain with easily-eliminable middle variables.
        let f = cnf_of(&[&[1, 2], &[-2, 3], &[-3, 4], &[-4, 5], &[-5, -1, 2]]);
        let mut s = Solver::new(&f, inprocess_config());
        match s.solve() {
            SolveResult::Sat(model) => {
                assert!(verify_model(&f, &model).is_ok(), "reconstructed model");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_inprocessing_solver_resumes() {
        let f = crate::tests_support::php(5, 4);
        let mut s = Solver::new(&f, inprocess_config());
        let mut r = s.solve_with_budget(Budget::conflicts(10));
        while r.is_unknown() {
            r = s.solve_with_budget(Budget::conflicts(s.stats().conflicts + 50));
        }
        assert!(r.is_unsat());
    }

    #[cfg(feature = "checks")]
    #[test]
    fn full_checks_survive_inprocessing_search() {
        let f = crate::tests_support::php(5, 4);
        let mut s = Solver::new(&f, inprocess_config());
        s.set_check_level(crate::CheckLevel::Full);
        // The auditor panics on any violated invariant (including the
        // inprocessing families at PostInprocess), so reaching the
        // verdict is the assertion.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn engine_audit_accepts_consistent_state() {
        let f = cnf_of(&[&[1, 2, 3], &[-1, 2], &[2, 3]]);
        let mut s = Solver::new(&f, inprocess_config());
        assert!(s.solve().is_sat());
        let eng = s.inprocess.as_ref().expect("engine");
        eng.audit(s.num_vars()).expect("consistent engine state");
    }

    /// `simplify` followed by `solve`: the model of the original formula,
    /// or `None` for UNSAT. Every UNSAT proof, simplification rounds
    /// included, must replay against the original formula.
    fn simplify_then_solve(f: &Cnf) -> Option<Vec<bool>> {
        let mut s = Solver::from_cnf(f);
        s.enable_proof();
        let satisfiable = s.simplify();
        let result = s.solve();
        assert!(satisfiable || result.is_unsat(), "a refuted formula solved");
        match result {
            SolveResult::Sat(model) => Some(model),
            SolveResult::Unsat => {
                let proof = s.take_proof().expect("proof enabled");
                check_proof(f, &proof).expect("simplification rounds replay");
                None
            }
            SolveResult::Unknown => unreachable!("unlimited budget"),
        }
    }

    #[test]
    fn simplify_propagates_units() {
        let f = cnf_of(&[&[1], &[-1, 2], &[-2, 3]]);
        let mut s = Solver::from_cnf(&f);
        assert!(s.simplify());
        assert_eq!(s.db_stats().original_clauses, 0);
        let model = s.solve().model().expect("sat").to_vec();
        assert_eq!(model, [true, true, true]);
    }

    #[test]
    fn simplify_refutes_a_unit_conflict() {
        let f = cnf_of(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let mut s = Solver::from_cnf(&f);
        s.enable_proof();
        assert!(!s.simplify(), "resolution refutes the formula");
        assert!(s.solve().is_unsat());
        let proof = s.take_proof().expect("proof enabled");
        check_proof(&f, &proof).expect("refutation replays");
        assert!(simplify_then_solve(&cnf_of(&[&[1], &[-1]])).is_none());
    }

    #[test]
    fn simplify_removes_subsumed_clauses() {
        let f = cnf_of(&[&[1, 2], &[1, 2, 3], &[1, 2, 4]]);
        let mut s = Solver::from_cnf(&f);
        assert!(s.simplify());
        // (1 2) subsumes both longer clauses; then x1 or x2 may be
        // eliminated too — at most one clause remains.
        assert!(s.db_stats().original_clauses <= 1);
        assert!(s.inprocess_stats().expect("engine").subsumed >= 2);
    }

    #[test]
    fn simplify_reconstructs_models_through_bve() {
        // x2 is resolvable: (1 2)(−2 3) → (1 3)
        let f = cnf_of(&[&[1, 2], &[-2, 3], &[-1, -3]]);
        let m = simplify_then_solve(&f).expect("sat");
        assert!(verify_model(&f, &m).is_ok());
    }

    #[test]
    fn simplify_keeps_php_unsat_with_a_checked_proof() {
        let f = crate::tests_support::php(4, 3);
        assert!(simplify_then_solve(&f).is_none());
    }

    #[test]
    fn simplify_passes_an_empty_formula_through() {
        let f = Cnf::new(3);
        let mut s = Solver::from_cnf(&f);
        assert!(s.simplify());
        assert_eq!(s.inprocess_stats().expect("engine").eliminated_vars, 0);
        assert_eq!(s.solve().model().map(<[bool]>::len), Some(3));
    }

    #[test]
    fn simplify_strengthens_clauses() {
        // (1 2) strengthens (−1 2 3) to (2 3)
        let f = cnf_of(&[&[1, 2], &[-1, 2, 3], &[-2, 4], &[-4, -2, 1]]);
        let m = simplify_then_solve(&f).expect("sat");
        assert!(verify_model(&f, &m).is_ok());
    }

    /// A solver that only ran `simplify` schedules no rounds during
    /// search, and searches its simplified database like any other.
    #[test]
    fn simplify_schedules_no_periodic_rounds() {
        let f = crate::tests_support::php(6, 5);
        let mut s = Solver::new(
            &f,
            SolverConfig {
                restart: 2,
                inprocess_interval: 1,
                ..SolverConfig::default()
            },
        );
        assert!(s.simplify());
        let after_simplify = s.inprocess_stats().expect("engine");
        assert!(after_simplify.rounds > 0);
        assert!(s.solve().is_unsat());
        assert!(s.stats().restarts > 0);
        assert_eq!(s.inprocess_stats(), Some(after_simplify));
    }

    // The simplification contract on random unit-heavy formulas: the
    // verdict is unchanged, and on SAT the reconstruction round-trips to
    // a model of the original.
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            #[test]
            fn simplify_equisatisfiable_and_reconstructs(
                raw in proptest::collection::vec(
                    proptest::collection::vec(-6i32..=6, 1..4),
                    1..24,
                )
            ) {
                let mut f = Cnf::new(0);
                for c in &raw {
                    // 0 is not a literal in the DIMACS encoding; dropping
                    // it biases toward short, unit-heavy clauses.
                    let c: Vec<i32> = c.iter().copied().filter(|&l| l != 0).collect();
                    if !c.is_empty() {
                        f.add_dimacs(&c);
                    }
                }
                let expected_sat = Solver::from_cnf(&f).solve().is_sat();
                match simplify_then_solve(&f) {
                    Some(m) => {
                        prop_assert!(expected_sat, "simplification flipped UNSAT to SAT");
                        prop_assert!(verify_model(&f, &m).is_ok(), "bad reconstruction");
                    }
                    None => prop_assert!(!expected_sat, "simplification flipped SAT to UNSAT"),
                }
            }
        }
    }
}
