//! Runtime invariant auditor for the CDCL solver.
//!
//! [`Solver::audit_invariants`] cross-checks the solver's redundant data
//! structures against each other — watch lists against the clause database,
//! the trail against the assignment and level maps, the reason graph against
//! the trail order, the frequency counters against the statistics — and
//! reports the first violation found. It is always compiled, so fuzzers and
//! property tests can call it directly on any build.
//!
//! The `checks` cargo feature additionally wires the auditor into the
//! search loop itself at four [`Checkpoint`]s (`rsat --check[=LEVEL]` on the
//! CLI). With the feature off, the checkpoints cost one dead branch each.
//!
//! The audit is O(database size) and intended for testing, fuzzing, and
//! debugging — not for production solving.

use crate::clause_db::ClauseRef;
use crate::solver::{Checkpoint, Solver};
use crate::varmap::{at, VarMap};
use crate::LBool;
use cnf::{Lit, Var};
use std::fmt;

/// How aggressively the in-search auditor runs (see the `checks` feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckLevel {
    /// No in-search auditing (checkpoints are skipped entirely).
    Off,
    /// Audit at [`Checkpoint::PostReduce`], [`Checkpoint::PostBackjump`],
    /// and [`Checkpoint::PostInprocess`] only — the events rare enough to
    /// audit at full strength without changing the solver's asymptotics.
    /// The default when the `checks` feature is enabled.
    #[default]
    Light,
    /// Audit at every checkpoint, including after every propagation
    /// fixpoint and every learned clause. Quadratic in search effort;
    /// reserve for small instances and bug hunts.
    Full,
}

impl CheckLevel {
    /// Whether the auditor should run at `checkpoint` under this level.
    pub fn covers(self, checkpoint: Checkpoint) -> bool {
        match self {
            CheckLevel::Off => false,
            CheckLevel::Light => matches!(
                checkpoint,
                Checkpoint::PostReduce | Checkpoint::PostBackjump | Checkpoint::PostInprocess
            ),
            CheckLevel::Full => true,
        }
    }

    /// Parses a CLI level name (`off`, `light`, `full`).
    pub fn parse(s: &str) -> Option<CheckLevel> {
        match s {
            "off" => Some(CheckLevel::Off),
            "light" => Some(CheckLevel::Light),
            "full" => Some(CheckLevel::Full),
            _ => None,
        }
    }
}

/// A violated solver invariant, as reported by
/// [`Solver::audit_invariants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// The checkpoint at which the audit ran.
    pub checkpoint: Checkpoint,
    /// The invariant family that failed (stable, grep-friendly name).
    pub invariant: &'static str,
    /// Human-readable description with the offending indices.
    pub detail: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated at {:?}: {}",
            self.invariant, self.checkpoint, self.detail
        )
    }
}

impl std::error::Error for CheckError {}

/// Runs the auditor at an in-search checkpoint, honoring the solver's
/// configured [`CheckLevel`]. Panics on the first violation: a broken
/// invariant means later answers cannot be trusted.
#[cfg(feature = "checks")]
pub(crate) fn run_checkpoint(solver: &Solver, checkpoint: Checkpoint) {
    if !solver.check_level().covers(checkpoint) {
        return;
    }
    if let Err(e) = solver.audit_invariants(checkpoint) {
        panic!("solver self-check failed: {e}");
    }
}

struct Audit<'a> {
    s: &'a Solver,
    checkpoint: Checkpoint,
    /// Every live clause, in arena order (so sorted): a watch or a reason
    /// is valid only if it is one of these offsets.
    live: Vec<ClauseRef>,
}

impl Audit<'_> {
    fn fail(&self, invariant: &'static str, detail: String) -> Result<(), CheckError> {
        Err(CheckError {
            checkpoint: self.checkpoint,
            invariant,
            detail,
        })
    }

    /// Trail shape: `trail_lim` monotone and in bounds, `qhead` in bounds,
    /// every trail literal true, levels matching the `trail_lim` partition,
    /// no variable assigned twice, the two polarities of every variable
    /// complementary, exactly the trail's variables assigned, and the
    /// cached reason count equal to a recount.
    fn trail(&self) -> Result<(), CheckError> {
        let s = self.s;
        let mut prev = 0usize;
        for (d, &lim) in s.trail_lim.iter().enumerate() {
            if lim < prev || lim > s.trail.len() {
                return self.fail(
                    "trail-lim-monotone",
                    format!(
                        "trail_lim[{d}] = {lim} out of order (prev {prev}, trail len {})",
                        s.trail.len()
                    ),
                );
            }
            prev = lim;
        }
        if s.qhead > s.trail.len() {
            return self.fail(
                "qhead-bounds",
                format!("qhead {} beyond trail len {}", s.qhead, s.trail.len()),
            );
        }
        let mut on_trail = VarMap::new(s.num_vars, false);
        let mut level = 0u32;
        for (i, &l) in s.trail.iter().enumerate() {
            while (level as usize) < s.trail_lim.len() && at(&s.trail_lim, level as usize) <= i {
                level += 1;
            }
            let v = l.var();
            if on_trail.get(v) {
                return self.fail(
                    "trail-no-duplicates",
                    format!("variable {} appears twice on the trail", v.index()),
                );
            }
            on_trail.set(v, true);
            if s.value(l) != LBool::True {
                return self.fail(
                    "trail-literals-true",
                    format!("trail[{i}] = {l} has value {:?}", s.value(l)),
                );
            }
            if s.level.get(v) != level {
                return self.fail(
                    "trail-level-partition",
                    format!(
                        "trail[{i}] = {l} recorded at level {} but sits in level {level}",
                        s.level.get(v)
                    ),
                );
            }
        }
        for v in (0..s.num_vars).map(Var::new) {
            let (pos, neg) = (s.value(v.positive()), s.value(v.negative()));
            if pos != !neg {
                return self.fail(
                    "values-complementary",
                    format!(
                        "variable {} has value {pos:?} but its negation has {neg:?}",
                        v.index()
                    ),
                );
            }
        }
        let assigned = (0..s.num_vars)
            .filter(|&v| s.var_value(Var::new(v)).is_assigned())
            .count();
        if assigned != s.trail.len() {
            return self.fail(
                "assigns-match-trail",
                format!(
                    "{assigned} variables assigned but trail holds {}",
                    s.trail.len()
                ),
            );
        }
        let with_reason = s
            .trail
            .iter()
            .filter(|l| s.reason.get(l.var()).is_some())
            .count();
        if with_reason != s.num_reasons {
            return self.fail(
                "reason-count-cached",
                format!(
                    "cached reason count {} but {with_reason} trail literals have a reason",
                    s.num_reasons
                ),
            );
        }
        Ok(())
    }

    /// Reason graph: propagated literals sit at position 0 of a live reason
    /// clause (the offset of a live header) whose remaining literals are
    /// false, assigned earlier on the trail, at no higher level.
    /// Unassigned variables carry no reason.
    fn reasons(&self) -> Result<(), CheckError> {
        let s = self.s;
        let mut position = VarMap::new(s.num_vars, usize::MAX);
        for (i, &l) in s.trail.iter().enumerate() {
            position.set(l.var(), i);
        }
        for v in (0..s.num_vars).map(Var::new) {
            if !s.var_value(v).is_assigned() {
                if s.reason.get(v).is_some() {
                    return self.fail(
                        "reason-cleared-on-unassign",
                        format!("unassigned variable {} still has a reason", v.index()),
                    );
                }
                continue;
            }
            let Some(r) = s.reason.get(v) else { continue };
            if self.live.binary_search(&r).is_err() {
                return self.fail(
                    "reason-clause-live",
                    format!(
                        "reason of variable {} is {r:?}, not a live clause",
                        v.index()
                    ),
                );
            }
            let c = s.db.lits(r);
            let l0 = at(c, 0);
            if l0.var() != v || s.value(l0) != LBool::True {
                return self.fail(
                    "reason-asserts-first-literal",
                    format!(
                        "reason {r:?} of variable {} does not assert its first literal {l0}",
                        v.index()
                    ),
                );
            }
            for &lk in c.iter().skip(1) {
                if s.value(lk) != LBool::False {
                    return self.fail(
                        "reason-antecedents-false",
                        format!("literal {lk} of reason {r:?} is not false"),
                    );
                }
                if position.get(lk.var()) >= position.get(v) {
                    return self.fail(
                        "reason-antecedents-earlier",
                        format!(
                            "antecedent {lk} of {r:?} was assigned after its consequence x{}",
                            v.index() + 1
                        ),
                    );
                }
                if s.level.get(lk.var()) > s.level.get(v) {
                    return self.fail(
                        "reason-antecedent-levels",
                        format!(
                            "antecedent {lk} of {r:?} sits above its consequence's level {}",
                            s.level.get(v)
                        ),
                    );
                }
            }
        }
        // Non-empty decision levels start with a reason-free literal.
        for (d, &lim) in s.trail_lim.iter().enumerate() {
            let next = s.trail_lim.get(d + 1).copied().unwrap_or(s.trail.len());
            if lim >= next {
                continue; // empty level (already-implied assumption)
            }
            let decision = at(&s.trail, lim);
            if s.reason.get(decision.var()).is_some() {
                return self.fail(
                    "decision-has-no-reason",
                    format!("level {} starts with propagated literal {decision}", d + 1),
                );
            }
        }
        Ok(())
    }

    /// Watched-literal integrity: every watch entry references a live
    /// clause (the offset of a live header) through one of its first two
    /// literals with an in-clause blocker, and every live clause is watched
    /// exactly through both. At propagation fixpoint additionally: every
    /// live clause is satisfied or has two non-false watches (so no unit or
    /// falsified clause hides from BCP).
    fn watches(&self) -> Result<(), CheckError> {
        let s = self.s;
        // Watchers per live clause, keyed by the clause's position in
        // `live`: sized by the clause count, not by the arena.
        let mut watchers: Vec<Vec<Lit>> = vec![Vec::new(); self.live.len()];
        for (key, list) in s.watches.iter() {
            let watched = !key;
            for w in list {
                let Ok(slot) = self.live.binary_search(&w.cref) else {
                    return self.fail(
                        "watch-clause-live",
                        format!(
                            "watch list of {key} references {:?}, not a live clause",
                            w.cref
                        ),
                    );
                };
                let c = s.db.lits(w.cref);
                if c.len() < 2 {
                    return self.fail(
                        "watched-clause-len",
                        format!("stored clause {:?} has {} literals", w.cref, c.len()),
                    );
                }
                if at(c, 0) != watched && at(c, 1) != watched {
                    return self.fail(
                        "watch-positions",
                        format!(
                            "{watched} watches {:?} but is not among its first two literals",
                            w.cref
                        ),
                    );
                }
                if !c.contains(&w.blocker) {
                    return self.fail(
                        "watch-blocker-in-clause",
                        format!("blocker {} of {:?} is not in the clause", w.blocker, w.cref),
                    );
                }
                if let Some(ws) = watchers.get_mut(slot) {
                    ws.push(watched);
                }
            }
        }
        for (&cref, got) in self.live.iter().zip(&mut watchers) {
            let mut expected = [s.db.lit(cref, 0), s.db.lit(cref, 1)];
            expected.sort_unstable_by_key(|l| l.code());
            got.sort_unstable_by_key(|l| l.code());
            if *got != expected {
                return self.fail(
                    "clause-watched-twice",
                    format!("clause {cref:?} watched through {got:?}, expected {expected:?}"),
                );
            }
        }
        if s.qhead == s.trail.len() {
            for &cref in &self.live {
                let c = s.db.lits(cref);
                let satisfied = c.iter().any(|&l| s.value(l) == LBool::True);
                if satisfied {
                    continue;
                }
                for &l in c.iter().take(2) {
                    if s.value(l) == LBool::False {
                        return self.fail(
                            "watches-non-false-at-fixpoint",
                            format!(
                                "unsatisfied clause {cref:?} has false watch {l} at BCP fixpoint"
                            ),
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Decision-heap integrity, including that every
    /// unassigned variable stays poppable.
    fn orderings(&self) -> Result<(), CheckError> {
        let s = self.s;
        if let Err(detail) = s.heap.check_invariant(&s.activity) {
            return self.fail("heap-order", detail);
        }
        if s.heap.len() > s.num_vars as usize {
            return self.fail(
                "heap-size",
                format!("heap holds {} of {} variables", s.heap.len(), s.num_vars),
            );
        }
        for v in (0..s.num_vars).map(Var::new) {
            // Variables eliminated by inprocessing are dropped from the
            // heap at decision time and never re-inserted.
            if !s.var_value(v).is_assigned() && !s.heap.contains(v) && !s.var_is_eliminated(v) {
                return self.fail(
                    "heap-holds-unassigned",
                    format!("unassigned variable {} missing from the heap", v.index()),
                );
            }
        }
        Ok(())
    }

    /// Frequency counters agree with their cached aggregates, and the
    /// per-reduction table plus the folded whole-run table with the
    /// propagation statistic.
    fn frequencies(&self) -> Result<(), CheckError> {
        let s = self.s;
        for (name, t) in [("freq", &s.freq), ("freq-folded", &s.freq_folded)] {
            if t.counts().len() != s.num_vars as usize {
                return self.fail(
                    "freq-table-size",
                    format!(
                        "{name} covers {} of {} variables",
                        t.counts().len(),
                        s.num_vars
                    ),
                );
            }
            let max = t.counts().iter().copied().max().unwrap_or(0);
            let total: u64 = t.counts().iter().sum();
            if t.max() != max || t.total() != total {
                return self.fail(
                    "freq-cached-aggregates",
                    format!(
                        "{name} caches max {} / total {} but counters give {max} / {total}",
                        t.max(),
                        t.total()
                    ),
                );
            }
        }
        let counted = s.freq_folded.total() + s.freq.total();
        if counted != s.stats().propagations {
            return self.fail(
                "freq-matches-stats",
                format!(
                    "cumulative frequency total {counted} != propagation count {}",
                    s.stats().propagations
                ),
            );
        }
        Ok(())
    }

    /// Clause-database bookkeeping: cached clause/literal/garbage counts
    /// agree with a full scan of the arena, and stored learned clauses
    /// carry a plausible glue.
    fn clause_db(&self) -> Result<(), CheckError> {
        let s = self.s;
        let learned: Vec<_> = s.db.iter_learned().collect();
        let live = self.live.len();
        let lits: usize = learned.iter().map(|&c| s.db.len(c)).sum();
        if learned.len() != s.db.num_learned()
            || live - learned.len() != s.db.num_original()
            || lits != s.db.lits_in_learned()
        {
            return self.fail(
                "db-cached-counts",
                format!(
                    "cached {} learned / {} original / {} learned lits, scan gives {} / {} / {lits}",
                    s.db.num_learned(),
                    s.db.num_original(),
                    s.db.lits_in_learned(),
                    learned.len(),
                    live - learned.len()
                ),
            );
        }
        let garbage: usize =
            s.db.headers()
                .filter(|&c| !s.db.is_live(c))
                .map(|c| s.db.words(c))
                .sum();
        if garbage != s.db.garbage_words() {
            return self.fail(
                "db-garbage-count",
                format!(
                    "cached {} garbage words, scan gives {garbage}",
                    s.db.garbage_words()
                ),
            );
        }
        for &cref in &learned {
            let (glue, len) = (s.db.glue(cref), s.db.len(cref));
            if glue == 0 || glue as usize > len {
                return self.fail(
                    "learned-glue-range",
                    format!("learned clause {cref:?} of length {len} has glue {glue}"),
                );
            }
        }
        Ok(())
    }

    /// Inprocessing-engine integrity: no live clause references a variable
    /// eliminated by bounded variable elimination (the occurrence-list
    /// invariant — an eliminated variable's occurrences are empty), the
    /// reconstruction stack carries one distinct pivot per eliminated
    /// variable, and the touched queue agrees with its flags.
    fn inprocess(&self) -> Result<(), CheckError> {
        let s = self.s;
        let Some(eng) = &s.inprocess else {
            return Ok(());
        };
        for &cref in &self.live {
            for &l in s.db.lits(cref) {
                if eng.is_eliminated(l.var()) {
                    return self.fail(
                        "inprocess-eliminated-unreferenced",
                        format!(
                            "live clause {cref:?} references eliminated variable {}",
                            l.var().index()
                        ),
                    );
                }
            }
        }
        for (pivot, _) in eng.reconstruction_steps() {
            if s.var_value(pivot.var()).is_assigned() {
                return self.fail(
                    "inprocess-eliminated-unassigned",
                    format!(
                        "eliminated variable {} is on the trail",
                        pivot.var().index()
                    ),
                );
            }
        }
        if let Err(detail) = eng.audit(s.num_vars) {
            return self.fail("inprocess-reconstruction-stack", detail);
        }
        Ok(())
    }
}

impl Solver {
    /// Audits the solver's internal invariants, returning the first
    /// violation found (see the module docs for the catalogue).
    ///
    /// Valid at any point where the solver is not mid-routine: after
    /// construction, between `solve` calls, or — via the `checks` feature —
    /// at the four in-search [`Checkpoint`]s. Fixpoint-dependent checks
    /// (no unit or falsified clause hidden from BCP) run only when the
    /// propagation queue is empty, so the audit is sound at
    /// [`Checkpoint::PostLearn`] too.
    pub fn audit_invariants(&self, checkpoint: Checkpoint) -> Result<(), CheckError> {
        let audit = Audit {
            s: self,
            checkpoint,
            live: self.db.iter_refs().collect(),
        };
        audit.trail()?;
        audit.reasons()?;
        audit.watches()?;
        audit.orderings()?;
        audit.frequencies()?;
        audit.clause_db()?;
        audit.inprocess()?;
        Ok(())
    }

    /// The in-search auditing level (only meaningful with the `checks`
    /// feature; see [`CheckLevel`]).
    #[cfg(feature = "checks")]
    pub fn check_level(&self) -> CheckLevel {
        self.check_level
    }

    /// Selects the in-search auditing level for subsequent `solve` calls.
    #[cfg(feature = "checks")]
    pub fn set_check_level(&mut self, level: CheckLevel) {
        self.check_level = level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Watch;
    use crate::Solver;

    fn solved_solver() -> Solver {
        let f = cnf::parse_dimacs_str(
            "p cnf 6 8\n1 2 0\n-1 3 0\n-2 -3 4 0\n-4 5 6 0\n-5 2 0\n-6 1 0\n3 4 5 0\n-3 -4 -6 0\n",
        )
        .expect("valid dimacs");
        let mut s = Solver::from_cnf(&f);
        assert!(s.solve().is_sat());
        s
    }

    #[test]
    fn audit_passes_after_construction() {
        let f = cnf::parse_dimacs_str("p cnf 3 2\n1 2 0\n-2 3 0\n").expect("valid dimacs");
        let s = Solver::from_cnf(&f);
        assert_eq!(s.audit_invariants(Checkpoint::PostPropagate), Ok(()));
    }

    #[test]
    fn audit_passes_after_solving() {
        let s = solved_solver();
        assert_eq!(s.audit_invariants(Checkpoint::PostBackjump), Ok(()));
    }

    #[test]
    fn corrupted_watch_list_is_caught() {
        let mut s = solved_solver();
        // Drop one watch of the first live clause: BCP would now miss
        // assignments through that literal.
        let cref = s.db.iter_refs().next().expect("live clause");
        let l0 = s.db.lit(cref, 0);
        let ws = s.watches.get_mut(!l0);
        let pos = ws
            .iter()
            .position(|w| w.cref == cref)
            .expect("watch present");
        ws.swap_remove(pos);
        let err = s
            .audit_invariants(Checkpoint::PostReduce)
            .expect_err("missing watch must be detected");
        assert_eq!(err.invariant, "clause-watched-twice");
    }

    #[test]
    fn watch_on_unwatched_literal_is_caught() {
        let mut s = solved_solver();
        let cref = s.db.iter_refs().next().expect("live clause");
        let (l0, last) = (s.db.lit(cref, 0), s.db.lit(cref, s.db.len(cref) - 1));
        // Move the watch from lits[0] to a non-watched position.
        let ws = s.watches.get_mut(!l0);
        let pos = ws
            .iter()
            .position(|w| w.cref == cref)
            .expect("watch present");
        let blocker = ws.swap_remove(pos).blocker;
        s.watches.get_mut(!last).push(Watch { cref, blocker });
        let err = s
            .audit_invariants(Checkpoint::PostReduce)
            .expect_err("misplaced watch must be detected");
        assert!(
            err.invariant == "watch-positions" || err.invariant == "clause-watched-twice",
            "unexpected invariant {}",
            err.invariant
        );
    }

    #[test]
    fn corrupted_assignment_is_caught() {
        let mut s = solved_solver();
        let free = (0..s.num_vars)
            .map(cnf::Var::new)
            .find(|&v| !s.var_value(v).is_assigned());
        if let Some(v) = free {
            s.values.set(v.positive(), crate::LBool::True);
            s.values.set(v.negative(), crate::LBool::False);
            let err = s
                .audit_invariants(Checkpoint::PostPropagate)
                .expect_err("off-trail assignment must be detected");
            assert_eq!(err.invariant, "assigns-match-trail");
        }
    }

    #[test]
    fn one_sided_assignment_is_caught() {
        let mut s = solved_solver();
        let v = (0..s.num_vars)
            .map(cnf::Var::new)
            .find(|&v| !s.var_value(v).is_assigned())
            .expect("a free variable after solving");
        // Assign only the positive literal: the two polarities of the
        // variable no longer agree.
        s.values.set(v.positive(), crate::LBool::True);
        let err = s
            .audit_invariants(Checkpoint::PostPropagate)
            .expect_err("a one-sided assignment must be detected");
        assert_eq!(err.invariant, "values-complementary");
    }

    #[test]
    fn watch_on_deleted_clause_is_caught() {
        // Nothing is assigned at construction, so no clause is a reason.
        let f = cnf::parse_dimacs_str("p cnf 3 2\n1 2 0\n-2 3 0\n").expect("valid dimacs");
        let mut s = Solver::from_cnf(&f);
        let cref = s.db.iter_refs().next().expect("live clause");
        s.db.remove(cref);
        let err = s
            .audit_invariants(Checkpoint::PostReduce)
            .expect_err("a watch on a deleted clause must be detected");
        assert_eq!(err.invariant, "watch-clause-live");
    }

    #[test]
    fn stale_reason_count_is_caught() {
        let mut s = solved_solver();
        s.num_reasons += 1;
        let err = s
            .audit_invariants(Checkpoint::PostReduce)
            .expect_err("a stale reason count must be detected");
        assert_eq!(err.invariant, "reason-count-cached");
    }

    #[test]
    fn corrupted_frequency_counter_is_caught() {
        let mut s = solved_solver();
        // Bump the per-reduction table without a propagation: the counts
        // no longer add up to the propagation statistic.
        s.freq.bump(cnf::Var::new(0));
        let err = s
            .audit_invariants(Checkpoint::PostReduce)
            .expect_err("a frequency bump without a propagation must be detected");
        assert_eq!(err.invariant, "freq-matches-stats");
    }

    #[test]
    fn check_level_covers_expected_checkpoints() {
        assert!(!CheckLevel::Off.covers(Checkpoint::PostReduce));
        assert!(CheckLevel::Light.covers(Checkpoint::PostReduce));
        assert!(CheckLevel::Light.covers(Checkpoint::PostBackjump));
        assert!(CheckLevel::Light.covers(Checkpoint::PostInprocess));
        assert!(!CheckLevel::Light.covers(Checkpoint::PostPropagate));
        assert!(!CheckLevel::Light.covers(Checkpoint::PostLearn));
        assert!(CheckLevel::Full.covers(Checkpoint::PostLearn));
        assert_eq!(CheckLevel::parse("light"), Some(CheckLevel::Light));
        assert_eq!(CheckLevel::parse("bogus"), None);
    }

    #[cfg(feature = "checks")]
    #[test]
    fn full_level_survives_a_real_search() {
        let f = cnf::parse_dimacs_str(
            "p cnf 5 10\n1 2 0\n-1 3 0\n-2 -3 4 0\n-4 5 0\n-5 1 0\n2 3 5 0\n\
             -1 -2 -5 0\n1 -3 -4 0\n-2 4 5 0\n1 2 3 4 5 0\n",
        )
        .expect("valid dimacs");
        let mut s = Solver::from_cnf(&f);
        s.set_check_level(CheckLevel::Full);
        // The auditor panics on any violated invariant, so reaching a
        // verdict is the assertion.
        let _ = s.solve();
    }
}
