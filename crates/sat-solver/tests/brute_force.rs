//! Property tests: the CDCL solver must agree with brute-force enumeration
//! on small random formulas, under every deletion policy and under
//! aggressively frequent clause-database reductions.

use cnf::{verify_model, Cnf};
use proptest::prelude::*;
use sat_solver::{check_proof, Checkpoint, PolicyKind, SolveResult, Solver, SolverConfig};

/// Brute-force satisfiability over up to 16 variables.
fn brute_force_sat(f: &Cnf) -> bool {
    let n = f.num_vars();
    assert!(n <= 16, "brute force limited to 16 variables");
    (0u32..1 << n).any(|bits| {
        let assignment: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
        f.eval(&assignment) == Some(true)
    })
}

/// Strategy generating random CNFs with `vars` variables and clauses of
/// length 1–4.
fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    (1..=max_vars).prop_flat_map(move |n| {
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

fn config_with_tiny_reduce(policy: PolicyKind) -> SolverConfig {
    SolverConfig {
        policy,
        // Reduce very aggressively so the deletion policy runs on small
        // instances; with tier1_glue = 0 even glue-2 clauses are at risk.
        tier1_glue: 0,
        reduce_init: 2,
        reduce_inc: 1,
        restart: 4,
        ..SolverConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force_default(f in arb_cnf(8, 30)) {
        let expected = brute_force_sat(&f);
        let mut solver = Solver::from_cnf(&f);
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT on UNSAT formula");
                prop_assert!(verify_model(&f, &model).is_ok(), "invalid model");
            }
            SolveResult::Unsat => prop_assert!(!expected, "solver said UNSAT on SAT formula"),
            SolveResult::Unknown => prop_assert!(false, "unlimited solve returned Unknown"),
        }
        if let Err(e) = solver.audit_invariants(Checkpoint::PostPropagate) {
            prop_assert!(false, "invariant audit after solving: {e}");
        }
    }

    #[test]
    fn solver_agrees_under_aggressive_reduction(f in arb_cnf(10, 45)) {
        let expected = brute_force_sat(&f);
        for policy in [PolicyKind::Default, PolicyKind::PropFreq] {
            let mut solver = Solver::new(&f, config_with_tiny_reduce(policy));
            match solver.solve() {
                SolveResult::Sat(model) => {
                    prop_assert!(expected);
                    prop_assert!(verify_model(&f, &model).is_ok());
                }
                SolveResult::Unsat => prop_assert!(!expected),
                SolveResult::Unknown => prop_assert!(false),
            }
            if let Err(e) = solver.audit_invariants(Checkpoint::PostReduce) {
                prop_assert!(false, "invariant audit after aggressive reduction: {e}");
            }
        }
    }

    #[test]
    fn unsat_proofs_check(f in arb_cnf(7, 40)) {
        let mut solver = Solver::new(&f, config_with_tiny_reduce(PolicyKind::Default));
        solver.enable_proof();
        if solver.solve().is_unsat() {
            prop_assert!(!brute_force_sat(&f));
            let proof = solver.take_proof().expect("proof enabled");
            prop_assert!(proof.claims_unsat());
            prop_assert_eq!(check_proof(&f, &proof), Ok(()));
        }
    }

    #[test]
    fn policies_agree_on_verdict(f in arb_cnf(9, 40)) {
        let mut a = Solver::new(&f, SolverConfig::with_policy(PolicyKind::Default));
        let mut b = Solver::new(&f, SolverConfig::with_policy(PolicyKind::PropFreqAlpha(0.5)));
        prop_assert_eq!(a.solve().is_sat(), b.solve().is_sat());
    }

    #[test]
    fn all_configurations_agree_with_brute_force(
        f in arb_cnf(8, 35),
        policy_idx in 0usize..3,
        restart_idx in 0usize..3,
        fraction in prop_oneof![Just(0.25f64), Just(0.5), Just(1.0)],
        tier1 in 0u32..4,
    ) {
        let policy = [
            PolicyKind::Default,
            PolicyKind::PropFreq,
            PolicyKind::PropFreqAlpha(0.3),
        ][policy_idx];
        // Luby scales; the last one exceeds any conflict count reached
        // here, so that search never restarts.
        let restart = [2, 16, u64::MAX][restart_idx];
        let config = SolverConfig {
            policy,
            restart,
            reduce_fraction: fraction,
            tier1_glue: tier1,
            reduce_init: 3,
            reduce_inc: 2,
            ..SolverConfig::default()
        };
        let expected = brute_force_sat(&f);
        let mut solver = Solver::new(&f, config);
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(expected);
                prop_assert!(verify_model(&f, &model).is_ok());
            }
            SolveResult::Unsat => prop_assert!(!expected),
            SolveResult::Unknown => prop_assert!(false),
        }
        if let Err(e) = solver.audit_invariants(Checkpoint::PostPropagate) {
            prop_assert!(false, "invariant audit under {policy:?}/restart {restart}: {e}");
        }
    }

    /// `simplify` (the engine behind `rsat --preprocess`) followed by
    /// `solve`: the verdict matches brute force, SAT models satisfy the
    /// original formula, and UNSAT proofs, simplification rounds
    /// included, replay against it.
    #[test]
    fn preprocessing_preserves_satisfiability(f in arb_cnf(10, 45)) {
        let expected = brute_force_sat(&f);
        let mut solver = Solver::from_cnf(&f);
        solver.enable_proof();
        let satisfiable = solver.simplify();
        prop_assert!(satisfiable || !expected, "simplify refuted a SAT formula");
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(expected, "SAT after simplification but UNSAT originally");
                prop_assert!(
                    verify_model(&f, &model).is_ok(),
                    "reconstructed model must satisfy the original formula"
                );
            }
            SolveResult::Unsat => {
                prop_assert!(!expected);
                let proof = solver.take_proof().expect("proof enabled");
                prop_assert_eq!(check_proof(&f, &proof), Ok(()));
            }
            SolveResult::Unknown => prop_assert!(false),
        }
        if let Err(e) = solver.audit_invariants(Checkpoint::PostPropagate) {
            prop_assert!(false, "invariant audit after simplify and solve: {e}");
        }
    }

    #[test]
    fn resume_after_budget_is_consistent(f in arb_cnf(8, 35)) {
        use sat_solver::Budget;
        let expected = brute_force_sat(&f);
        let mut solver = Solver::new(&f, config_with_tiny_reduce(PolicyKind::PropFreq));
        let mut result = solver.solve_with_budget(Budget::conflicts(1));
        let mut rounds = 0;
        while result.is_unknown() {
            rounds += 1;
            prop_assert!(rounds < 10_000, "no progress under budget resume");
            let next = solver.stats().conflicts + 1;
            result = solver.solve_with_budget(Budget::conflicts(next));
        }
        prop_assert_eq!(result.is_sat(), expected);
    }
}
