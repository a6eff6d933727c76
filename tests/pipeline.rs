//! End-to-end pipeline integration: generate → label → train → evaluate →
//! deploy, plus model persistence round-trips across process boundaries
//! (simulated through the text format).

use neuro::{load_params, save_params, NeuroSelectConfig};
use neuroselect::cnf::{verify_model, Cnf};
use neuroselect::sat_gen::{competition_batch, pigeonhole, DatasetConfig};
use neuroselect::sat_solver::{check_proof, Checkpoint, Solver};
use neuroselect::{
    evaluate, label_batch, train, Budget, Classifier, LabelingConfig, NeuroSelectClassifier,
    NeuroSelectSolver, SolveResult, TrainConfig,
};
use std::time::{Duration, Instant};

/// Certifies a pipeline verdict against the formula it came from: SAT
/// models are replayed, UNSAT is re-derived with proof logging and the
/// DRAT proof checked (pipeline instances are all tiny).
fn certify(f: &Cnf, result: &SolveResult, name: &str) {
    match result {
        SolveResult::Sat(model) => {
            assert!(verify_model(f, model).is_ok(), "{name}: invalid model");
        }
        SolveResult::Unsat => {
            let mut s = Solver::from_cnf(f);
            s.enable_proof();
            assert!(s.solve().is_unsat(), "{name}: UNSAT not reproducible");
            s.audit_invariants(Checkpoint::PostPropagate)
                .expect("invariant audit");
            let proof = s.take_proof().expect("proof enabled");
            assert_eq!(check_proof(f, &proof), Ok(()), "{name}: proof rejected");
        }
        SolveResult::Unknown => {}
    }
}

fn tiny_model() -> NeuroSelectConfig {
    NeuroSelectConfig {
        hidden_dim: 8,
        hgt_layers: 1,
        mpnn_per_hgt: 2,
        use_attention: true,
        seed: 9,
    }
}

#[test]
fn end_to_end_label_train_evaluate_deploy() {
    let data_cfg = DatasetConfig::tiny();
    let label_cfg = LabelingConfig::default();
    let train_set = label_batch(&competition_batch("train", &data_cfg, 1), &label_cfg);
    let test_set = label_batch(&competition_batch("test", &data_cfg, 2), &label_cfg);
    assert_eq!(train_set.len(), 6);

    let mut classifier = NeuroSelectClassifier::new(tiny_model(), 5e-3);
    let history = train(
        &mut classifier,
        &train_set,
        &TrainConfig {
            epochs: 5,
            seed: 1,
            balance: true,
        },
    );
    assert_eq!(history.len(), 5);
    assert!(history.iter().all(|l| l.is_finite()));

    let metrics = evaluate(&classifier, &test_set);
    assert_eq!(metrics.total(), test_set.len());

    let solver = NeuroSelectSolver::new(classifier);
    for inst in &test_set {
        let out = solver.solve(&inst.instance.cnf, Budget::propagations(50_000_000));
        assert!(!out.result.is_unknown(), "{}", inst.instance.name);
        certify(&inst.instance.cnf, &out.result, &inst.instance.name);
    }
}

#[test]
fn trained_model_survives_serialization() {
    let data_cfg = DatasetConfig::tiny();
    let label_cfg = LabelingConfig::default();
    let data = label_batch(&competition_batch("s", &data_cfg, 5), &label_cfg);

    let mut original = NeuroSelectClassifier::new(tiny_model(), 5e-3);
    train(
        &mut original,
        &data,
        &TrainConfig {
            epochs: 3,
            seed: 2,
            balance: true,
        },
    );

    let mut buffer = Vec::new();
    save_params(&mut buffer, original.store()).expect("save");

    let mut restored = NeuroSelectClassifier::new(tiny_model(), 5e-3);
    load_params(buffer.as_slice(), restored.store_mut()).expect("load");

    // predictions must be bit-identical
    for inst in &data {
        let g = original.prepare(&inst.instance.cnf);
        assert_eq!(
            original.predict(&g),
            restored.predict(&g),
            "{}",
            inst.instance.name
        );
    }
}

#[test]
fn selection_respects_label_when_overfit() {
    // Overfit the classifier on one batch; on the training instances the
    // selected policy must then match the label.
    let data_cfg = DatasetConfig::tiny();
    let label_cfg = LabelingConfig::default();
    let data = label_batch(&competition_batch("o", &data_cfg, 9), &label_cfg);
    let mut classifier = NeuroSelectClassifier::new(tiny_model(), 1e-2);
    train(
        &mut classifier,
        &data,
        &TrainConfig {
            epochs: 80,
            seed: 3,
            balance: true,
        },
    );

    // only check when training actually separated the data
    let metrics = evaluate(&classifier, &data);
    if metrics.accuracy() == 1.0 {
        let solver = NeuroSelectSolver::new(classifier);
        for inst in &data {
            let (decision, _) = solver.decide_policy(&inst.instance.cnf);
            assert_eq!(
                decision.policy.label(),
                inst.label(),
                "{}",
                inst.instance.name
            );
        }
    }
}

#[test]
fn inference_cost_is_recorded() {
    // Inference runs when the first clause-database reduction that will
    // delete a clause is due, so it costs time exactly on the solves that
    // delete: php(7,6) does, php(6,5) reduces once but deletes nothing
    // (the first reduction never does), and php(3,2) ends before its
    // first reduction.
    let solver = NeuroSelectSolver::new(NeuroSelectClassifier::new(tiny_model(), 1e-3));
    let mut seen = Vec::new();
    for (name, f) in [
        ("php-7-6", pigeonhole(7, 6)),
        ("php-6-5", pigeonhole(6, 5)),
        ("php-3-2", pigeonhole(3, 2)),
    ] {
        let start = Instant::now();
        let out = solver.solve(&f, Budget::propagations(50_000_000));
        let wall = start.elapsed();
        let deletes = out.stats.deleted_clauses > 0;
        seen.push((out.stats.reductions > 0, deletes));
        assert_eq!(out.inference_time > Duration::ZERO, deletes, "{name}");
        assert_eq!(out.record.inference_time_s.is_some(), deletes, "{name}");
        assert_eq!(out.policy_needed, deletes, "{name}");
        // Inference inside the search is not also counted as solving.
        assert!(out.total_time() <= wall, "{name}");
        let recorded = out.record.solve_time_s + out.record.inference_time_s.unwrap_or(0.0);
        assert!(recorded <= wall.as_secs_f64(), "{name}");
        certify(&f, &out.result, name);
    }
    assert_eq!(
        seen,
        [(true, true), (true, false), (false, false)],
        "one formula of each kind"
    );
}
