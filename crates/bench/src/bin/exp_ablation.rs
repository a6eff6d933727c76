//! **Experiment A1/A3/A4 — design-choice ablations** (DESIGN.md §4):
//!
//! * **D1** — the hotness threshold α of Equation (2) (paper: 4/5);
//! * **D3** — the fraction of reducible clauses deleted per reduction;
//! * **D4** — the labelling threshold (paper: 2% propagation reduction);
//! * root-level simplification (`Solver::simplify`, `rsat --preprocess`):
//!   clauses left and its cost, with every verdict certified.
//!
//! ```text
//! cargo run --release -p bench --bin exp_ablation [-- --instances N]
//! ```

use bench::{dataset_config, mixed_batch, print_table, ExpArgs};
use neuroselect::sat_gen::Batch;
use neuroselect::sat_solver::{
    check_proof, solve_with_policy, Budget, PolicyKind, SolveResult, Solver, SolverConfig,
};
use neuroselect::{label_cnf, mean, LabelingConfig};

/// Mean propagations of a policy over a batch (budget-censored).
fn mean_props(batch: &Batch, policy: PolicyKind, budget: Budget) -> f64 {
    let costs: Vec<f64> = batch
        .instances
        .iter()
        .map(|i| solve_with_policy(&i.cnf, policy, budget).1.propagations as f64)
        .collect();
    mean(&costs)
}

fn main() {
    let args = ExpArgs::from_env();
    let mut config = dataset_config(&args);
    config.instances_per_batch = args.get("instances", 12);
    let budget = Budget::propagations(args.get("budget", 20_000_000u64));
    let batch = mixed_batch("ablation", &config, 77);

    // --- D1: α sweep ------------------------------------------------------
    println!("D1: hotness threshold α in Equation (2) (paper default 0.8)\n");
    let mut rows = Vec::new();
    let baseline = mean_props(&batch, PolicyKind::Default, budget);
    rows.push(vec![
        "default policy".to_string(),
        format!("{baseline:.0}"),
        "—".into(),
    ]);
    for alpha in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let m = mean_props(&batch, PolicyKind::PropFreqAlpha(alpha), budget);
        rows.push(vec![
            format!("prop-freq α={alpha}"),
            format!("{m:.0}"),
            format!("{:+.1}%", 100.0 * (m - baseline) / baseline),
        ]);
    }
    print_table(&["policy", "mean props", "vs default"], &rows);

    // --- D3: reduce-fraction sweep ----------------------------------------
    println!("\nD3: fraction of reducible clauses deleted per reduction\n");
    let mut rows = Vec::new();
    for fraction in [0.25, 0.5, 0.75, 1.0] {
        let mut costs = Vec::new();
        for inst in &batch.instances {
            let mut s = Solver::new(
                &inst.cnf,
                SolverConfig {
                    reduce_fraction: fraction,
                    ..SolverConfig::default()
                },
            );
            let _ = s.solve_with_budget(budget);
            costs.push(s.stats().propagations as f64);
        }
        rows.push(vec![
            format!("{fraction:.2}"),
            format!("{:.0}", mean(&costs)),
        ]);
    }
    print_table(&["delete fraction", "mean props"], &rows);

    // --- D4: labelling-threshold sweep --------------------------------------
    println!("\nD4: label-1 rate vs. labelling threshold (paper uses 2%)\n");
    let mut rows = Vec::new();
    for threshold in [0.0, 0.01, 0.02, 0.05, 0.10] {
        let cfg = LabelingConfig {
            improvement_threshold: threshold,
            budget,
        };
        let positives = batch
            .instances
            .iter()
            .filter(|i| label_cnf(&i.cnf, &cfg).label == 1)
            .count();
        rows.push(vec![
            format!("{:.0}%", 100.0 * threshold),
            format!("{positives}/{}", batch.instances.len()),
        ]);
    }
    print_table(&["threshold", "label-1 instances"], &rows);
    println!(
        "\nlower thresholds admit noisy wins; the paper's 2% keeps only \
         meaningful improvements while retaining enough positives to learn."
    );

    // --- extension: root-level simplification -------------------------------
    println!("\nExtension: root-level simplification (Solver::simplify)\n");
    let mut rows = Vec::new();
    for inst in &batch.instances {
        let mut s = Solver::from_cnf(&inst.cnf);
        s.enable_proof();
        let start = std::time::Instant::now();
        let satisfiable = s.simplify();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let ip = s.inprocess_stats().unwrap_or_default();
        let after = if satisfiable {
            s.db_stats().original_clauses.to_string()
        } else {
            "refuted".into()
        };
        // The verdict after simplification is certified against the
        // original formula: SAT models are verified, UNSAT proofs replayed.
        let verdict = match s.solve_with_budget(budget) {
            SolveResult::Sat(model) => match cnf::verify_model(&inst.cnf, &model) {
                Ok(()) => "SAT, model verified",
                Err(_) => "SAT, MODEL FAILED",
            },
            SolveResult::Unsat => match s.take_proof().map(|p| check_proof(&inst.cnf, &p)) {
                Some(Ok(())) => "UNSAT, proof checked",
                _ => "UNSAT, PROOF FAILED",
            },
            SolveResult::Unknown => "unknown (budget)",
        };
        rows.push(vec![
            inst.name.clone(),
            inst.cnf.num_clauses().to_string(),
            after,
            format!("{} elim, {} units", ip.eliminated_vars, ip.units_derived),
            format!("{ms:.1}"),
            verdict.to_string(),
        ]);
    }
    print_table(
        &[
            "instance",
            "clauses",
            "after simplify",
            "detail",
            "ms",
            "verdict",
        ],
        &rows,
    );
}
