//! Regression wall for the frozen-variable contract of incremental
//! solving with inprocessing.
//!
//! The gap this pins down: bounded variable elimination used to skip
//! only the variables of the *current* call's assumptions, so a plain
//! `solve()` (or a call with different assumptions) could eliminate a
//! variable a later `solve_with_assumptions` call assumes — and the
//! later call would panic on the eliminated-variable contract.
//! Incremental sessions now freeze every assumption candidate
//! ([`Solver::freeze_var`]) and `solve_with_assumptions` freezes its
//! assumption set automatically, so a variable assumed once stays
//! assumable forever.

use cnf::{Clause, Cnf, Lit, Var};
use sat_solver::{run_isolated, Budget, SolveResult, Solver, SolverConfig};

/// Inprocessing-heavy configuration (mirrors the differential suite): a
/// round at every restart with frequent restarts, so BVE gets many
/// chances to pick a pivot during one solve.
fn inprocess_config() -> SolverConfig {
    SolverConfig {
        inprocess: true,
        inprocess_interval: 1,
        tier1_glue: 2,
        reduce_init: 8,
        reduce_inc: 4,
        restart: 2,
        ..SolverConfig::default()
    }
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Random 3-SAT near the phase transition — hard enough to restart many
/// times (driving inprocessing rounds), sparse enough that BVE finds
/// low-occurrence pivots.
fn random_3sat(num_vars: u32, num_clauses: u32, seed: u64) -> Cnf {
    let mut rng = XorShift::new(seed.wrapping_mul(2).wrapping_add(1));
    let mut f = Cnf::new(num_vars);
    for _ in 0..num_clauses {
        let mut lits = Vec::with_capacity(3);
        while lits.len() < 3 {
            let v = Var::new(rng.below(num_vars as u64) as u32);
            if lits.iter().any(|l: &Lit| l.var() == v) {
                continue;
            }
            let lit = if rng.below(2) == 0 {
                v.positive()
            } else {
                v.negative()
            };
            lits.push(lit);
        }
        f.add_clause(Clause::from_lits(lits));
    }
    f
}

/// Some variable eliminated by the most recent solve, probed through the
/// public non-panicking query.
fn first_eliminated_var(s: &Solver) -> Option<Var> {
    (0..s.num_vars())
        .map(Var::new)
        .find(|&v| s.find_eliminated(&[v.positive()]).is_some())
}

/// An instance plus a variable that BVE provably eliminates when nothing
/// is frozen. Panics if no seed provokes an elimination — that would
/// mean this wall lost its trigger and must be re-tuned.
fn instance_with_elimination() -> (Cnf, Var) {
    for seed in 0..64 {
        let f = random_3sat(120, 420, seed);
        let mut s = Solver::new(&f, inprocess_config());
        let _ = s.solve();
        if let Some(v) = first_eliminated_var(&s) {
            return (f, v);
        }
    }
    panic!("no seed provoked a BVE elimination; regression trigger lost");
}

/// Baseline fact the suite builds on: with nothing frozen, a plain
/// `solve()` really does eliminate the probe variable, and assuming it
/// afterwards really does panic. This is exactly the sequence an
/// incremental session used to die on.
#[test]
fn unfrozen_assumption_candidate_is_eliminated_and_panics() {
    let (f, v) = instance_with_elimination();
    let mut s = Solver::new(&f, inprocess_config());
    let _ = s.solve();
    assert!(
        s.find_eliminated(&[v.positive()]).is_some(),
        "probe variable must be eliminated on the deterministic replay"
    );
    let crash =
        run_isolated(move || s.solve_with_assumptions(&[v.positive()], Budget::unlimited()));
    assert!(
        crash.is_err(),
        "assuming an eliminated variable must still trip the contract"
    );
}

/// The fix: freezing the candidate up front keeps it out of BVE's pivot
/// set, so the later assumption call is safe — in both polarities.
#[test]
fn frozen_variable_survives_inprocessing_and_stays_assumable() {
    let (f, v) = instance_with_elimination();
    let mut s = Solver::new(&f, inprocess_config());
    s.freeze_var(v);
    assert!(s.is_frozen(v));
    let base = s.solve();
    assert!(
        s.find_eliminated(&[v.positive()]).is_none(),
        "frozen variable must never be eliminated"
    );
    let pos = s.solve_with_assumptions(&[v.positive()], Budget::unlimited());
    let neg = s.solve_with_assumptions(&[v.negative()], Budget::unlimited());
    // Semantic cross-check: if the formula is satisfiable, at least one
    // polarity of any variable is satisfiable too.
    if let SolveResult::Sat(_) = base {
        assert!(
            pos.is_sat() || neg.is_sat(),
            "SAT formula must be SAT under at least one polarity of v"
        );
    }
    for (lit, r) in [(v.positive(), &pos), (v.negative(), &neg)] {
        if let SolveResult::Sat(model) = r {
            let idx = lit.var().index() as usize;
            assert_eq!(
                model[idx],
                lit.is_positive(),
                "model must honor the assumption"
            );
            assert!(cnf::verify_model(&f, model).is_ok(), "model must verify");
        }
    }
}

/// `solve_with_assumptions` freezes its assumption set automatically:
/// assume, run a full inprocessing-heavy solve, assume again. Without
/// auto-freezing, the middle solve eliminates the variable and the last
/// call panics — today's behavior before this fix.
#[test]
fn solve_with_assumptions_auto_freezes_its_assumption_set() {
    let (f, v) = instance_with_elimination();
    let mut s = Solver::new(&f, inprocess_config());
    // A tiny budget: the point is registering the assumption, not
    // finishing the solve.
    let _ = s.solve_with_assumptions(&[v.positive()], Budget::conflicts(10));
    assert!(s.is_frozen(v), "assuming must freeze the variable");
    let _ = s.solve();
    assert!(
        s.find_eliminated(&[v.positive()]).is_none(),
        "auto-frozen variable must survive the full solve"
    );
    let replay = s.solve_with_assumptions(&[v.positive()], Budget::unlimited());
    if let SolveResult::Sat(model) = &replay {
        assert!(cnf::verify_model(&f, model).is_ok());
    }
}

/// Freezing is a pure restriction of BVE's candidate set: verdicts match
/// an unfrozen run on the same instance.
#[test]
fn freezing_never_changes_the_verdict() {
    for seed in [3, 17, 40] {
        let f = random_3sat(100, 426, seed);
        let mut plain = Solver::new(&f, inprocess_config());
        let plain_sat = plain.solve().is_sat();
        let mut frozen = Solver::new(&f, inprocess_config());
        for v in 0..f.num_vars() {
            frozen.freeze_var(Var::new(v));
        }
        let frozen_result = frozen.solve();
        assert_eq!(
            plain_sat,
            frozen_result.is_sat(),
            "seed {seed}: freezing all variables flipped the verdict"
        );
        assert!(
            first_eliminated_var(&frozen).is_none(),
            "seed {seed}: a fully-frozen solver must eliminate nothing"
        );
        if let SolveResult::Sat(model) = frozen_result {
            assert!(cnf::verify_model(&f, &model).is_ok());
        }
    }
}

/// Out-of-range freezes trip the documented range contract.
#[test]
fn freeze_var_panics_out_of_range() {
    let f = random_3sat(10, 20, 1);
    let mut s = Solver::from_cnf(&f);
    assert!(run_isolated(move || s.freeze_var(Var::new(10))).is_err());
}
