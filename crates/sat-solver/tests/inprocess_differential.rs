//! Differential test wall for the inprocessing engine.
//!
//! The oracle is the solver itself with inprocessing disabled: for every
//! instance the verdicts must match, every SAT model must verify against
//! the *original* formula after BVE model reconstruction, and every UNSAT
//! run with inprocessing enabled must replay its DRAT proof — including
//! the delete lines emitted for subsumed, strengthened, vivified, and
//! eliminated clauses — through the RUP checker.
//!
//! Instance families mirror the cross-crate `solver_families` suite but
//! are generated locally (`sat-gen` dev-depends on this crate, so using
//! it here would create a dependency cycle): pigeonhole, random 3-SAT at
//! the phase transition, Tseitin parity cycles, and a small equivalence
//! miter. `arb_cnf` proptests cover the irregular shapes the fixed
//! families miss.

use cnf::{Clause, Cnf, Lit, Var};
use proptest::prelude::*;
use sat_solver::{check_proof, Checkpoint, InprocessStats, SolveResult, Solver, SolverConfig};

/// Inprocessing-heavy configuration: a round at every restart, frequent
/// restarts, and aggressive reduction so rounds interleave with the
/// deletion machinery they must stay consistent with.
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

/// The baseline oracle: identical search parameters, inprocessing off.
fn baseline_config() -> SolverConfig {
    SolverConfig {
        inprocess: false,
        ..inprocess_config()
    }
}

/// Outcome of one inprocessing-enabled certified solve.
struct CertifiedRun {
    sat: bool,
    stats: InprocessStats,
    proof_deletes: usize,
}

/// Solves `f` with inprocessing enabled and full certification: final
/// invariant audit, model verification against the original formula on
/// SAT, DRAT replay (add *and* delete lines) on UNSAT.
fn solve_inprocessed_certified(f: &Cnf, label: &str) -> CertifiedRun {
    let mut s = Solver::new(f, inprocess_config());
    s.enable_proof();
    let r = s.solve();
    s.audit_invariants(Checkpoint::PostInprocess)
        .unwrap_or_else(|e| panic!("{label}: invariant audit failed: {e}"));
    let stats = s.inprocess_stats().expect("engine enabled");
    let mut proof_deletes = 0;
    let sat = match r {
        SolveResult::Sat(model) => {
            assert!(
                cnf::verify_model(f, &model).is_ok(),
                "{label}: model invalid after reconstruction"
            );
            true
        }
        SolveResult::Unsat => {
            let proof = s.take_proof().expect("proof enabled");
            assert!(proof.claims_unsat(), "{label}: proof must end empty");
            proof_deletes = proof
                .steps()
                .iter()
                .filter(|st| matches!(st, sat_solver::ProofStep::Delete(_)))
                .count();
            check_proof(f, &proof).unwrap_or_else(|e| panic!("{label}: DRAT replay failed: {e}"));
            false
        }
        SolveResult::Unknown => panic!("{label}: unlimited solve returned Unknown"),
    };
    CertifiedRun {
        sat,
        stats,
        proof_deletes,
    }
}

fn baseline_is_sat(f: &Cnf, label: &str) -> bool {
    let mut s = Solver::new(f, baseline_config());
    match s.solve() {
        SolveResult::Sat(model) => {
            assert!(
                cnf::verify_model(f, &model).is_ok(),
                "{label}: baseline model invalid"
            );
            true
        }
        SolveResult::Unsat => false,
        SolveResult::Unknown => panic!("{label}: unlimited solve returned Unknown"),
    }
}

// --- local instance families (no sat-gen: dependency cycle) -----------

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

/// Pigeonhole principle: `pigeons` into `holes` (UNSAT when over-full).
fn php(pigeons: u32, holes: u32) -> Cnf {
    let var = |p: u32, h: u32| Var::new(p * holes + h);
    let mut f = Cnf::new(pigeons * holes);
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| var(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                f.add_clause(Clause::from_lits(vec![
                    var(p1, h).negative(),
                    var(p2, h).negative(),
                ]));
            }
        }
    }
    f
}

/// Uniform random 3-SAT.
fn random_3sat(vars: u32, clauses: usize, seed: u64) -> Cnf {
    let mut rng = XorShift::new(seed);
    let mut f = Cnf::new(vars);
    for _ in 0..clauses {
        let mut lits = Vec::with_capacity(3);
        while lits.len() < 3 {
            let v = Var::new(rng.below(u64::from(vars)) as u32);
            if lits.iter().all(|l: &Lit| l.var() != v) {
                lits.push(v.lit(rng.next() & 1 == 0));
            }
        }
        f.add_clause(Clause::from_lits(lits));
    }
    f
}

/// Tseitin parity formula on a cycle of `n` vertices: edge variables
/// `e_i` with constraints `e_i ⊕ e_{i+1} = charge_i`. The formula is
/// satisfiable iff the total charge is even.
fn tseitin_cycle(n: u32, odd_charge: bool) -> Cnf {
    let mut f = Cnf::new(n);
    for i in 0..n {
        let a = Var::new(i);
        let b = Var::new((i + 1) % n);
        // First vertex optionally carries the odd charge: a ⊕ b = 1
        // (clauses a∨b, ¬a∨¬b); others demand equality (¬a∨b, a∨¬b).
        if i == 0 && odd_charge {
            f.add_clause(Clause::from_lits(vec![a.positive(), b.positive()]));
            f.add_clause(Clause::from_lits(vec![a.negative(), b.negative()]));
        } else {
            f.add_clause(Clause::from_lits(vec![a.negative(), b.positive()]));
            f.add_clause(Clause::from_lits(vec![a.positive(), b.negative()]));
        }
    }
    f
}

/// Tseitin XOR gate `o = a ⊕ b` (4 clauses).
fn xor_gate(f: &mut Cnf, o: Var, a: Var, b: Var) {
    f.add_clause(Clause::from_lits(vec![
        o.negative(),
        a.positive(),
        b.positive(),
    ]));
    f.add_clause(Clause::from_lits(vec![
        o.negative(),
        a.negative(),
        b.negative(),
    ]));
    f.add_clause(Clause::from_lits(vec![
        o.positive(),
        a.negative(),
        b.positive(),
    ]));
    f.add_clause(Clause::from_lits(vec![
        o.positive(),
        a.positive(),
        b.negative(),
    ]));
}

/// Equivalence miter of two XOR-tree associations over `2^depth` inputs:
/// `((x1⊕x2)⊕(x3⊕x4))…` against the left-fold `(((x1⊕x2)⊕x3)⊕x4)…`.
/// Associativity makes the circuits equivalent, so asserting the outputs
/// differ is UNSAT.
fn xor_miter(inputs: u32) -> Cnf {
    assert!(inputs >= 2);
    let mut f = Cnf::new(inputs);
    // Balanced tree.
    let mut layer: Vec<Var> = (0..inputs).map(Var::new).collect();
    while layer.len() > 1 {
        let mut up = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            if let [a, b] = *pair {
                let o = f.new_var();
                xor_gate(&mut f, o, a, b);
                up.push(o);
            } else {
                up.push(pair[0]);
            }
        }
        layer = up;
    }
    let balanced = layer[0];
    // Left fold.
    let mut acc = Var::new(0);
    for i in 1..inputs {
        let o = f.new_var();
        xor_gate(&mut f, o, acc, Var::new(i));
        acc = o;
    }
    // Miter: outputs differ.
    let diff = f.new_var();
    xor_gate(&mut f, diff, balanced, acc);
    f.add_clause(Clause::from_lits(vec![diff.positive()]));
    f
}

fn family_instances() -> Vec<(String, Cnf)> {
    let mut out: Vec<(String, Cnf)> = vec![
        ("php-5-4".into(), php(5, 4)),
        ("php-4-4".into(), php(4, 4)),
        ("tseitin-cycle-12-odd".into(), tseitin_cycle(12, true)),
        ("tseitin-cycle-13-even".into(), tseitin_cycle(13, false)),
        ("xor-miter-4".into(), xor_miter(4)),
        ("xor-miter-6".into(), xor_miter(6)),
    ];
    for seed in 0..6u64 {
        // 3-SAT near the phase transition (ratio ~4.26), mixed verdicts.
        out.push((
            format!("3sat-30-128-s{seed}"),
            random_3sat(30, 128, 0x5eed + seed),
        ));
    }
    out
}

#[test]
fn family_verdicts_match_and_certify() {
    let mut unsat_with_deletes = 0usize;
    let mut total_work = InprocessStats::default();
    for (name, f) in family_instances() {
        let expected = baseline_is_sat(&f, &name);
        let run = solve_inprocessed_certified(&f, &name);
        assert_eq!(
            run.sat, expected,
            "{name}: inprocessing flipped the verdict"
        );
        if !run.sat && run.proof_deletes > 0 {
            unsat_with_deletes += 1;
        }
        total_work.rounds += run.stats.rounds;
        total_work.subsumed += run.stats.subsumed;
        total_work.strengthened += run.stats.strengthened;
        total_work.eliminated_vars += run.stats.eliminated_vars;
        total_work.vivified += run.stats.vivified;
    }
    // The wall only proves something if the engine actually worked: rounds
    // must have run, rewrites must have happened, and at least one UNSAT
    // proof must have replayed with inprocessing delete lines in it.
    assert!(total_work.rounds > 0, "no inprocessing rounds ran");
    assert!(
        total_work.subsumed + total_work.strengthened + total_work.eliminated_vars > 0,
        "inprocessing never rewrote a clause across the whole family suite"
    );
    assert!(
        unsat_with_deletes > 0,
        "no UNSAT proof exercised the delete-line replay path"
    );
}

#[test]
fn bve_reconstruction_spans_eliminated_chains() {
    // A long implication chain: middle variables are prime BVE targets
    // (two occurrences each), so SAT models must come out of the
    // reconstruction stack, not the trail.
    let mut f = Cnf::new(0);
    for i in 1..40i32 {
        f.add_dimacs(&[-i, i + 1]);
    }
    f.add_dimacs(&[1, 40]);
    let run = solve_inprocessed_certified(&f, "implication-chain");
    assert!(run.sat, "chain is satisfiable");
}

#[test]
fn incremental_solving_survives_inprocessing_rounds() {
    // Budgeted solve → resume must tolerate rounds having rewritten the
    // database between calls, and the final verdict must still certify.
    let f = php(6, 5);
    let mut s = Solver::new(&f, inprocess_config());
    s.enable_proof();
    let mut r = s.solve_with_budget(sat_solver::Budget::conflicts(20));
    let mut resumes = 0;
    while r.is_unknown() {
        resumes += 1;
        r = s.solve_with_budget(sat_solver::Budget::conflicts(s.stats().conflicts + 100));
    }
    assert!(r.is_unsat(), "php(6,5) is UNSAT");
    assert!(
        resumes > 0,
        "budget was chosen to force at least one resume"
    );
    let proof = s.take_proof().expect("proof enabled");
    assert_eq!(check_proof(&f, &proof), Ok(()));
}

/// Random CNFs with clauses of length 1–4 (the metamorphic suite's
/// shape): irregular occurrence profiles, units, and duplicate literals.
fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    (2..=max_vars).prop_flat_map(move |n| {
        let lit = (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
        let clause = proptest::collection::vec(lit, 1..=4);
        proptest::collection::vec(clause, 1..=max_clauses).prop_map(move |clauses| {
            let mut f = Cnf::new(n);
            for c in clauses {
                f.add_dimacs(&c);
            }
            f
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn arb_verdicts_match_with_certification(f in arb_cnf(20, 70)) {
        let expected = baseline_is_sat(&f, "arb-baseline");
        let run = solve_inprocessed_certified(&f, "arb-inprocessed");
        prop_assert_eq!(run.sat, expected, "inprocessing flipped the verdict");
    }

    #[test]
    fn arb_verdicts_match_under_interval_sweep(
        f in arb_cnf(14, 40),
        interval in 1u64..6,
    ) {
        // Round cadence must never affect the verdict, only the effort.
        let expected = baseline_is_sat(&f, "sweep-baseline");
        let cfg = SolverConfig {
            inprocess_interval: interval,
            ..inprocess_config()
        };
        let mut s = Solver::new(&f, cfg);
        let sat = match s.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(
                    cnf::verify_model(&f, &model).is_ok(),
                    "invalid model at interval {}", interval
                );
                true
            }
            SolveResult::Unsat => false,
            SolveResult::Unknown => panic!("unlimited solve returned Unknown"),
        };
        prop_assert_eq!(sat, expected, "interval {} flipped the verdict", interval);
    }
}
