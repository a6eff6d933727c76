//! Cross-crate integration: every generator family solves correctly under
//! both deletion policies, with models verified, expected verdicts checked,
//! and every UNSAT result certified by its DRAT proof.

use neuroselect::cnf::{verify_model, Cnf};
use neuroselect::sat_gen::{
    coloring_cnf, competition_batch, equivalence_miter_cnf, parity_chain_unsat,
    phase_transition_3sat, pigeonhole, tseitin_expander_unsat, DatasetConfig, Family, Graph,
};
use neuroselect::sat_solver::{check_proof, Checkpoint, PolicyKind, Solver, SolverConfig};
use neuroselect::{Budget, SolveResult};

/// Solves with the full certification pipeline: final-state invariant
/// audit, model verification on SAT, and DRAT replay on UNSAT.
fn solve_checked(f: &Cnf, policy: PolicyKind) -> SolveResult {
    let mut s = Solver::new(f, SolverConfig::with_policy(policy));
    s.enable_proof();
    let r = s.solve();
    s.audit_invariants(Checkpoint::PostPropagate)
        .expect("invariant audit after solving");
    match &r {
        SolveResult::Sat(model) => assert!(verify_model(f, model).is_ok(), "invalid model"),
        SolveResult::Unsat => {
            let proof = s.take_proof().expect("proof enabled");
            assert_eq!(check_proof(f, &proof), Ok(()));
        }
        _ => {}
    }
    r
}

fn solve_both_policies(f: &Cnf) -> (SolveResult, SolveResult) {
    (
        solve_checked(f, PolicyKind::Default),
        solve_checked(f, PolicyKind::PropFreq),
    )
}

#[test]
fn mixed_batch_policies_agree_and_models_verify() {
    let batch = competition_batch("itest", &DatasetConfig::tiny(), 3);
    assert_eq!(batch.instances.len(), 6);
    for inst in &batch.instances {
        // solve_both_policies model-verifies every SAT answer and replays
        // the DRAT proof of every UNSAT one
        let (ra, rb) = solve_both_policies(&inst.cnf);
        assert_eq!(ra.is_sat(), rb.is_sat(), "{} verdict mismatch", inst.name);
        // family-specific expectations
        match inst.family {
            Family::Pigeonhole | Family::XorSat | Family::CircuitEquiv => {
                assert!(ra.is_unsat(), "{} must be UNSAT", inst.name)
            }
            _ => {}
        }
    }
}

#[test]
fn pigeonhole_unsat_proof_checks() {
    let f = pigeonhole(5, 4);
    let mut s = Solver::from_cnf(&f);
    s.enable_proof();
    assert!(s.solve().is_unsat());
    let proof = s.take_proof().expect("proof enabled");
    assert!(proof.claims_unsat());
    assert_eq!(check_proof(&f, &proof), Ok(()));
}

#[test]
fn tseitin_expander_proof_checks() {
    let f = tseitin_expander_unsat(5, 11);
    let mut s = Solver::from_cnf(&f);
    s.enable_proof();
    assert!(s.solve().is_unsat());
    let proof = s.take_proof().expect("proof enabled");
    assert_eq!(check_proof(&f, &proof), Ok(()));
}

#[test]
fn parity_chain_unsat_for_long_chains() {
    // Parity chains refute by pure propagation; check a long one stays
    // cheap (no decisions should be needed beyond the first).
    let f = parity_chain_unsat(500);
    let mut s = Solver::from_cnf(&f);
    assert!(s.solve().is_unsat());
    assert!(s.stats().conflicts <= 4, "chains refute almost immediately");
    s.audit_invariants(Checkpoint::PostPropagate)
        .expect("invariant audit after refutation");
}

#[test]
fn unsat_proof_checks_with_aggressive_reduction() {
    let f = pigeonhole(6, 5);
    let mut s = Solver::new(
        &f,
        SolverConfig {
            reduce_init: 2,
            reduce_inc: 1,
            tier1_glue: 0,
            ..SolverConfig::default()
        },
    );
    s.enable_proof();
    assert!(s.solve().is_unsat());
    let proof = s.take_proof().expect("proof enabled");
    // Deletion steps must be present (reductions happened) and the proof
    // must still check — deletions may not break RUP derivability.
    assert!(proof
        .steps()
        .iter()
        .any(|st| matches!(st, neuroselect::sat_solver::ProofStep::Delete(_))));
    assert_eq!(check_proof(&f, &proof), Ok(()));
}

/// Inprocessing-enabled certification: verdicts must match the plain
/// solver on every generator family, with models verified against the
/// original formula (BVE reconstruction on the hook) and UNSAT verdicts
/// replayed through the RUP checker, delete lines included.
fn solve_inprocessed_checked(f: &Cnf, label: &str) -> SolveResult {
    let mut s = Solver::new(
        f,
        SolverConfig {
            inprocess: true,
            inprocess_interval: 1,
            ..SolverConfig::default()
        },
    );
    s.enable_proof();
    let r = s.solve();
    s.audit_invariants(Checkpoint::PostPropagate)
        .unwrap_or_else(|e| panic!("{label}: invariant audit: {e}"));
    match &r {
        SolveResult::Sat(model) => assert!(
            verify_model(f, model).is_ok(),
            "{label}: invalid model after inprocessing"
        ),
        SolveResult::Unsat => {
            let proof = s.take_proof().expect("proof enabled");
            assert_eq!(check_proof(f, &proof), Ok(()), "{label}: DRAT replay");
        }
        _ => {}
    }
    r
}

#[test]
fn mixed_batch_inprocessing_parity() {
    let batch = competition_batch("itest-inprocess", &DatasetConfig::tiny(), 5);
    for inst in &batch.instances {
        let plain = solve_checked(&inst.cnf, PolicyKind::Default);
        let inproc = solve_inprocessed_checked(&inst.cnf, &inst.name);
        assert_eq!(
            plain.is_sat(),
            inproc.is_sat(),
            "{}: inprocessing flipped the verdict",
            inst.name
        );
    }
}

#[test]
fn tseitin_and_miter_inprocessing_parity_with_certified_proofs() {
    let tseitin = tseitin_expander_unsat(5, 11);
    assert!(
        solve_inprocessed_checked(&tseitin, "tseitin-expander").is_unsat(),
        "tseitin expander must stay UNSAT under inprocessing"
    );
    for seed in [1u64, 2] {
        let spec = logic_circuit::RandomCircuitSpec {
            num_inputs: 6,
            num_gates: 40,
            num_outputs: 2,
        };
        let f = equivalence_miter_cnf(spec, seed);
        assert!(
            solve_inprocessed_checked(&f, &format!("miter-{seed}")).is_unsat(),
            "miter seed {seed} must stay UNSAT under inprocessing"
        );
    }
}

#[test]
fn coloring_decodes_to_proper_coloring() {
    let g = Graph::random(20, 44, 8);
    let f = coloring_cnf(&g, 3);
    if let SolveResult::Sat(model) = solve_checked(&f, PolicyKind::Default) {
        let colors = neuroselect::sat_gen::decode_coloring(&g, 3, &model);
        for &(a, b) in &g.edges {
            assert_ne!(colors[a as usize], colors[b as usize]);
        }
    }
}

#[test]
fn budget_censoring_is_monotone() {
    // A solve under a bigger budget never flips from solved to unknown.
    let f = phase_transition_3sat(60, 77);
    let mut small = Solver::from_cnf(&f);
    let r_small = small.solve_with_budget(Budget::conflicts(10));
    // an exhausted budget must still leave a consistent solver behind
    small
        .audit_invariants(Checkpoint::PostPropagate)
        .expect("invariant audit after budget exhaustion");
    let mut large = Solver::from_cnf(&f);
    let r_large = large.solve_with_budget(Budget::conflicts(1_000_000));
    if !r_small.is_unknown() {
        assert_eq!(r_small.is_sat(), r_large.is_sat());
    }
    assert!(!r_large.is_unknown());
    if let Some(model) = r_large.model() {
        assert!(verify_model(&f, model).is_ok());
    }
}

#[test]
fn equivalence_miter_unsat_across_seeds() {
    for seed in [1u64, 2, 3] {
        let spec = logic_circuit::RandomCircuitSpec {
            num_inputs: 6,
            num_gates: 40,
            num_outputs: 2,
        };
        let f = equivalence_miter_cnf(spec, seed);
        let (ra, rb) = solve_both_policies(&f);
        assert!(ra.is_unsat() && rb.is_unsat(), "seed {seed}");
    }
}

#[test]
fn solver_statistics_are_consistent() {
    let f = phase_transition_3sat(80, 5);
    let mut s = Solver::from_cnf(&f);
    let result = s.solve();
    assert!(!result.is_unknown());
    let st = *s.stats();
    assert!(st.learned_clauses <= st.conflicts);
    assert!(st.deleted_clauses <= st.learned_clauses);
    assert!(st.restarts <= st.conflicts);
    let db = s.db_stats();
    assert!(db.learned_clauses <= st.learned_clauses as usize);
    assert_eq!(db.live_clauses, db.learned_clauses + db.original_clauses);
    s.audit_invariants(Checkpoint::PostPropagate)
        .expect("invariant audit");
    if let Some(model) = result.model() {
        assert!(verify_model(&f, model).is_ok());
    }
}
