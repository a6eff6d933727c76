//! Chaos suite for the NeuroSelect pipeline's degradation ladder
//! (`--features faults`): model-weight I/O faults and inference panics
//! must step the policy pick down from the model to the heuristic —
//! recorded in telemetry — while the *solve* still returns a
//! verified-correct verdict. A broken model may cost policy quality,
//! never correctness.

#![cfg(feature = "faults")]

use neuroselect::sat_solver::{check_proof, Solver, SolverConfig};
use neuroselect::{
    neuro, static_heuristic_policy, Budget, DegradeReason, NeuroSelectClassifier,
    NeuroSelectSolver, PolicyKind, PolicySource,
};

fn tiny_solver() -> NeuroSelectSolver {
    NeuroSelectSolver::new(NeuroSelectClassifier::new(
        neuro::NeuroSelectConfig {
            hidden_dim: 8,
            hgt_layers: 1,
            mpnn_per_hgt: 1,
            use_attention: true,
            seed: 3,
        },
        0.01,
    ))
}

/// A degraded pick must still produce a correct, verified solve.
fn assert_solves_correctly(s: &NeuroSelectSolver, seed: u64) {
    let f = neuroselect::sat_gen::phase_transition_3sat(25, seed);
    let out = s.solve_recorded(&f, Budget::unlimited(), "chaos", None);
    assert!(
        !out.result.is_unknown(),
        "seed {seed}: must reach a verdict"
    );
    if let Some(model) = out.result.model() {
        neuroselect::cnf::verify_model(&f, model).expect("model verifies");
    }
}

#[test]
fn model_io_fault_degrades_load_then_recovery_restores_the_model() {
    let dir = std::env::temp_dir().join("neuroselect-chaos-pipeline");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("weights.params");
    let mut s = tiny_solver();
    let mut buf = Vec::new();
    neuro::save_params(&mut buf, s.classifier().store()).expect("serialize");
    std::fs::write(&path, buf).expect("write weights");

    let scope = faults::install("model-io(after=8)".parse().expect("plan"));
    assert!(
        s.load_weights(&path).is_err(),
        "an I/O fault mid-read must surface as a load error"
    );
    assert!(scope.fired(faults::site::MODEL_IO) > 0, "fault must fire");
    let fault = s.model_fault().expect("load failure is sticky");
    assert_eq!(fault.kind(), "model-load-error");

    // Degraded but alive: every solve under the sticky fault uses the
    // heuristic rung and still reaches a verified verdict.
    for seed in [1u64, 2, 3] {
        let f = neuroselect::sat_gen::phase_transition_3sat(25, seed);
        let out = s.solve_recorded(&f, Budget::unlimited(), "model-io", None);
        assert_eq!(out.source, PolicySource::Heuristic);
        assert_eq!(out.record.degradations.len(), 1);
        assert_eq!(out.record.degradations[0].kind, "model-load-error");
        assert!(!out.result.is_unknown());
    }

    // With the fault plan gone the same file loads fine and clears the
    // sticky fault — degraded mode is recoverable, not an end state.
    drop(scope);
    s.load_weights(&path).expect("clean reload");
    assert!(s.model_fault().is_none());
    let f = neuroselect::sat_gen::phase_transition_3sat(25, 1);
    assert_eq!(s.decide_policy(&f).0.source, PolicySource::Model);
    std::fs::remove_file(&path).ok();
}

#[test]
fn inference_panic_falls_back_to_the_heuristic() {
    let scope = faults::install("inference-panic(times=10)".parse().expect("plan"));
    let s = tiny_solver();
    for seed in [1u64, 2, 3] {
        let f = neuroselect::sat_gen::phase_transition_3sat(25, seed);
        let (decision, _) = s.decide_policy(&f);
        assert_eq!(decision.source, PolicySource::Heuristic);
        assert_eq!(decision.degradations.len(), 1);
        assert_eq!(decision.degradations[0].kind(), "inference-panic");
        assert_solves_correctly(&s, seed);
    }
    assert!(scope.fired(faults::site::INFERENCE_PANIC) >= 3);
}

#[test]
fn inference_panic_at_the_first_deleting_reduction_falls_back_to_the_heuristic() {
    let scope = faults::install("inference-panic(times=10)".parse().expect("plan"));
    let s = tiny_solver();
    // A solve that ends before its first reduction never runs inference,
    // and neither does one whose only reduction deletes nothing, so the
    // fault cannot fire.
    let short = neuroselect::sat_gen::planted_ksat(40, 160, 3, 1).0;
    let out = s.solve_recorded(&short, Budget::unlimited(), "short", None);
    assert_eq!(out.stats.reductions, 0);
    assert!(!out.policy_needed);
    assert_eq!(out.source, PolicySource::Model);
    let php65 = neuroselect::sat_gen::pigeonhole(6, 5);
    let out = s.solve_recorded(&php65, Budget::unlimited(), "php-6-5", None);
    assert_eq!((out.stats.reductions, out.stats.deleted_clauses), (1, 0));
    assert!(!out.policy_needed);
    assert_eq!(out.source, PolicySource::Model);
    assert_eq!(scope.fired(faults::site::INFERENCE_PANIC), 0);

    // php(7,6) deletes clauses: inference runs once, at the first
    // reduction that deletes, and panics there.
    let php = neuroselect::sat_gen::pigeonhole(7, 6);
    let out = s.solve_recorded(&php, Budget::unlimited(), "php-7-6", None);
    assert_eq!(scope.fired(faults::site::INFERENCE_PANIC), 1);
    assert!(out.policy_needed);
    assert_eq!(out.source, PolicySource::Heuristic);
    assert_eq!(out.chosen, static_heuristic_policy(&php));
    let kinds: Vec<&str> = out.degradations.iter().map(DegradeReason::kind).collect();
    assert_eq!(kinds, ["inference-panic"]);
    assert_eq!(out.record.degradations.len(), 1);
    assert_eq!(out.record.degradations[0].kind, "inference-panic");

    // The verdict verifies: a solver built with the heuristic's policy
    // takes the same search, and its DRAT proof checks.
    assert!(out.result.is_unsat());
    let mut reference = Solver::new(&php, SolverConfig::with_policy(out.chosen));
    reference.enable_proof();
    assert!(reference.solve().is_unsat());
    assert_eq!(*reference.stats(), out.stats);
    let proof = reference.take_proof().expect("proof logging was enabled");
    assert_eq!(check_proof(&php, &proof), Ok(()));
}

#[test]
fn sticky_model_fault_is_reported_on_a_solve_that_never_reduces() {
    let mut s = tiny_solver();
    let _ = s.load_weights(std::path::Path::new("/nonexistent/weights.params"));
    assert!(s.model_fault().is_some());
    // Ratio 4.0: the heuristic picks prop-freq, unlike the default a lazy
    // pick would start from.
    let f = neuroselect::sat_gen::planted_ksat(40, 160, 3, 1).0;
    let out = s.solve_recorded(&f, Budget::unlimited(), "short", None);
    assert!(!out.result.is_unknown());
    assert_eq!(out.stats.reductions, 0);
    assert!(!out.policy_needed);
    assert_eq!(out.source, PolicySource::Heuristic);
    assert_eq!(out.chosen, PolicyKind::PropFreq);
    assert_eq!(out.record.policy, "prop-freq");
    assert_eq!(out.record.degradations.len(), 1);
    assert_eq!(out.record.degradations[0].kind, "model-load-error");
    assert_eq!(
        out.record
            .extra
            .get("policy_source")
            .and_then(|j| j.as_str()),
        Some("heuristic")
    );
}
