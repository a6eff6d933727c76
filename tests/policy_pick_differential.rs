//! Differential test of the lazy policy pick: `solve_recorded` starts the
//! search at once and classifies only when the first clause-database
//! reduction that will delete a clause is due. Against classify-then-solve
//! (`decide_policy`, then a solver built with that policy) it must give the
//! same verdict and the same `SolverStats` on every formula, the same pick
//! wherever the solver deleted a clause, and no inference wherever it did
//! not, whether it reduced or not.

use neuroselect::cnf::Cnf;
use neuroselect::logic_circuit::RandomCircuitSpec;
use neuroselect::sat_gen::{
    bmc_counter_cnf, coloring_cnf, equivalence_miter_cnf, fault_miter_cnf, phase_transition_3sat,
    pigeonhole, planted_ksat, random_bmc_cnf, tseitin_expander_unsat, Graph,
};
use neuroselect::sat_solver::{Solver, SolverConfig};
use neuroselect::{neuro, Budget, NeuroSelectClassifier, NeuroSelectSolver, PolicyKind};
use neuroselect::{DegradeReason, PolicySource};
use std::time::Duration;

fn tiny_solver(threshold: f32) -> NeuroSelectSolver {
    let mut s = NeuroSelectSolver::new(NeuroSelectClassifier::new(
        neuro::NeuroSelectConfig {
            hidden_dim: 8,
            hgt_layers: 1,
            mpnn_per_hgt: 1,
            use_attention: true,
            seed: 3,
        },
        0.01,
    ));
    s.threshold = threshold;
    s
}

/// Every `sat-gen` family, at sizes where some formulas delete clauses,
/// some reduce without deleting one, and some end before their first
/// reduction.
fn formulas() -> Vec<(String, Cnf)> {
    let spec = |gates| RandomCircuitSpec {
        num_inputs: 12,
        num_gates: gates,
        num_outputs: 2,
    };
    let mut out = vec![
        (String::from("php-3-2"), pigeonhole(3, 2)),
        (String::from("php-6-5"), pigeonhole(6, 5)),
        (String::from("bmc-counter-3-7"), bmc_counter_cnf(3, 7)),
        (String::from("bmc-counter-5-30"), bmc_counter_cnf(5, 30)),
    ];
    for seed in 1..=2u64 {
        let family = [
            ("planted-40", planted_ksat(40, 160, 3, seed).0),
            ("planted-150", planted_ksat(150, 600, 3, seed).0),
            ("3sat-60", phase_transition_3sat(60, seed)),
            ("tseitin-10", tseitin_expander_unsat(10, seed)),
            ("coloring-30", coloring_cnf(&Graph::random(30, 70, seed), 3)),
            (
                "coloring-120",
                coloring_cnf(&Graph::random(120, 276, seed), 3),
            ),
            ("eqmiter-60", equivalence_miter_cnf(spec(60), seed)),
            ("eqmiter-500", equivalence_miter_cnf(spec(500), seed)),
            ("faultmiter-60", fault_miter_cnf(spec(60), seed)),
            ("faultmiter-500", fault_miter_cnf(spec(500), seed)),
            ("bmc-4-30-6", random_bmc_cnf(4, 30, 6, seed)),
            ("bmc-10-150-20", random_bmc_cnf(10, 150, 20, seed)),
        ];
        out.extend(family.map(|(name, f)| (format!("{name}-{seed}"), f)));
    }
    out
}

fn kinds(degradations: &[DegradeReason]) -> Vec<&'static str> {
    degradations.iter().map(DegradeReason::kind).collect()
}

#[test]
fn lazy_pick_matches_classify_then_solve() {
    let budget = Budget::conflicts(50_000);
    let (mut deleted, mut reduced_only, mut unreduced) = (0, 0, 0);
    // The tiny model's probabilities sit near 0.8: -1.0 and 0.5 pick
    // prop-freq everywhere, and 2.0 picks the default everywhere.
    for threshold in [0.5, -1.0, 2.0] {
        let selector = tiny_solver(threshold);
        for (name, f) in formulas() {
            let case = format!("{name} at threshold {threshold}");
            let (eager_pick, _) = selector.decide_policy(&f);
            let mut eager = Solver::new(&f, SolverConfig::with_policy(eager_pick.policy));
            let eager_result = eager.solve_with_budget(budget);

            let lazy = selector.solve_recorded(&f, budget, &name, None);
            assert_eq!(lazy.result, eager_result, "{case}: verdict");
            assert_eq!(lazy.stats, *eager.stats(), "{case}: stats");
            let record_needed = lazy.record.extra.get("policy_needed");
            assert_eq!(
                record_needed.and_then(|j| j.as_bool()),
                Some(lazy.policy_needed),
                "{case}"
            );
            assert_eq!(lazy.policy_needed, lazy.stats.deleted_clauses > 0, "{case}");
            if lazy.policy_needed {
                deleted += 1;
                assert!(lazy.policy_needed, "{case}");
                assert_eq!(lazy.chosen, eager_pick.policy, "{case}: pick");
                assert_eq!(
                    lazy.probability.to_bits(),
                    eager_pick.probability.to_bits(),
                    "{case}: probability"
                );
                assert_eq!(lazy.source, eager_pick.source, "{case}: source");
                assert_eq!(
                    kinds(&lazy.degradations),
                    kinds(&eager_pick.degradations),
                    "{case}"
                );
                assert!(lazy.inference_time > Duration::ZERO, "{case}");
                assert!(lazy.record.inference_time_s.is_some(), "{case}");
                assert_eq!(lazy.record.policy, eager.policy_name(), "{case}");
            } else {
                if lazy.stats.reductions > 0 {
                    reduced_only += 1;
                } else {
                    unreduced += 1;
                }
                assert_eq!(lazy.chosen, PolicyKind::Default, "{case}");
                assert_eq!(lazy.probability, 0.0, "{case}");
                assert_eq!(lazy.inference_time, Duration::ZERO, "{case}");
                assert_eq!(lazy.record.inference_time_s, None, "{case}");
                assert!(lazy.record.extra.get("probability").is_none(), "{case}");
                assert_eq!(lazy.source, PolicySource::Model, "{case}");
                assert!(lazy.degradations.is_empty(), "{case}");
                assert!(lazy.record.degradations.is_empty(), "{case}");
            }
        }
    }
    assert!(deleted > 0, "no formula deleted a clause");
    assert!(reduced_only > 0, "no formula reduced without deleting");
    assert!(unreduced > 0, "every formula reduced");
}
