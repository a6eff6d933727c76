//! **Experiment T3 — Table 3**: runtime statistics of the plain solver vs.
//! NeuroSelect-guided solving on the held-out test batch: solved count,
//! median, and average cost (propagations as the deterministic cost, plus
//! wall-clock seconds including model inference for the NeuroSelect row).
//!
//! ```text
//! cargo run --release -p bench --bin exp_table3 \
//!     [-- --instances N --scale S --epochs E --batches B --records FILE.jsonl]
//! ```
//!
//! With `--records`, the default-policy baseline and the calibrated
//! NeuroSelect run each emit one telemetry `RunRecord` JSON line per
//! instance (the NeuroSelect records carry `inference_time_s` and the
//! pipeline phases).
//!
//! The run ends with an **inprocessing ablation** on structured UNSAT
//! families (Tseitin expanders and equivalence miters): the same
//! instances solved with in-search inprocessing off and on, reporting
//! wall-clock and propagation totals. `--inprocess-ablation-only 1`
//! skips the training pipeline and prints just that table.

use bench::{
    dataset_config, labeled_test_set, labeled_training_set, percentile_line, print_table, ExpArgs,
    RecordLog,
};
use neuro::NeuroSelectConfig;
use neuroselect::sat_solver::{
    solve_with_policy, solve_with_policy_recorded, PolicyKind, Solver, SolverConfig,
};
use neuroselect::{
    calibrate_threshold, train, Budget, LabelingConfig, NeuroSelectClassifier, NeuroSelectSolver,
    RuntimeSummary, TrainConfig,
};
use std::time::Instant;

/// One timed solve for the inprocessing ablation.
struct AblationRun {
    solved: bool,
    seconds: f64,
    propagations: u64,
}

fn ablation_solve(f: &cnf::Cnf, inprocess: bool, interval: u64, budget: Budget) -> AblationRun {
    let mut s = Solver::new(
        f,
        SolverConfig {
            inprocess,
            inprocess_interval: interval,
            ..SolverConfig::default()
        },
    );
    let t = Instant::now();
    let r = s.solve_with_budget(budget);
    AblationRun {
        solved: !r.is_unknown(),
        seconds: t.elapsed().as_secs_f64(),
        propagations: s.stats().propagations,
    }
}

/// Inprocessing on/off comparison over the structured UNSAT families the
/// engine targets: Tseitin expander parities (subsumption/vivification
/// shorten the long parity-derived learned clauses) and equivalence
/// miters (BVE eliminates low-occurrence gate variables).
fn inprocessing_ablation(args: &ExpArgs) {
    let budget = Budget::propagations(args.get("budget", 200_000_000u64));
    let interval: u64 = args.get("inprocess-every", 10);
    let miter_seeds: u64 = args.get("miter-seeds", 3);
    let miter_inputs: usize = args.get("miter-inputs", 16);
    let miter_gates: usize = args.get("miter-gates", 1500);
    let tseitin_sizes: Vec<(u32, u64)> = vec![(26, 3), (30, 1), (32, 2)];
    let mut families: Vec<(String, cnf::Cnf)> = Vec::new();
    for (vertices, seed) in tseitin_sizes {
        families.push((
            format!("tseitin-exp-{vertices}-{seed}"),
            neuroselect::sat_gen::tseitin_expander_unsat(vertices, seed),
        ));
    }
    for seed in 1..=miter_seeds {
        let spec = logic_circuit::RandomCircuitSpec {
            num_inputs: miter_inputs,
            num_gates: miter_gates,
            num_outputs: 4,
        };
        families.push((
            format!("miter-{miter_inputs}-{miter_gates}-{seed}"),
            neuroselect::sat_gen::equivalence_miter_cnf(spec, seed),
        ));
    }

    println!(
        "\nInprocessing ablation (off vs. on, interval {interval}) on structured UNSAT families\n"
    );
    let mut rows = Vec::new();
    let (mut off_total, mut on_total) = (0.0f64, 0.0f64);
    let (mut off_solved, mut on_solved) = (0usize, 0usize);
    for (name, f) in &families {
        let off = ablation_solve(f, false, interval, budget);
        let on = ablation_solve(f, true, interval, budget);
        off_total += off.seconds;
        on_total += on.seconds;
        off_solved += usize::from(off.solved);
        on_solved += usize::from(on.solved);
        rows.push(vec![
            name.clone(),
            format!("{}/{}", u8::from(off.solved), u8::from(on.solved)),
            format!("{}", off.propagations),
            format!("{}", on.propagations),
            format!("{:.3}", off.seconds),
            format!("{:.3}", on.seconds),
            format!("{:+.1}%", 100.0 * (off.seconds - on.seconds) / off.seconds),
        ]);
    }
    print_table(
        &[
            "instance",
            "solved off/on",
            "props off",
            "props on",
            "wall off s",
            "wall on s",
            "wall win",
        ],
        &rows,
    );
    println!(
        "\ninprocessing totals: {off_solved} solved in {off_total:.3}s off, \
         {on_solved} solved in {on_total:.3}s on ({:+.1}% wall-clock)",
        100.0 * (off_total - on_total) / off_total
    );
}

fn main() {
    let args = ExpArgs::from_env();
    if args.get("inprocess-ablation-only", 0u64) == 1 {
        inprocessing_ablation(&args);
        return;
    }
    let config = dataset_config(&args);
    let label_cfg = LabelingConfig::default();
    let budget = Budget::propagations(args.get("budget", 20_000_000u64));
    let epochs: usize = args.get("epochs", 30);
    let batches: usize = args.get("batches", 3);

    eprintln!("generating + labelling dataset…");
    let train_set = labeled_training_set(&config, &label_cfg, batches);
    let test_set = labeled_test_set(&config, &label_cfg);

    eprintln!("training NeuroSelect…");
    let ns_cfg = NeuroSelectConfig {
        hidden_dim: args.get("dim", 16),
        hgt_layers: 2,
        mpnn_per_hgt: 3,
        use_attention: true,
        seed: 3,
    };
    let mut classifier = NeuroSelectClassifier::new(ns_cfg, args.get("lr", 3e-3));
    train(
        &mut classifier,
        &train_set,
        &TrainConfig {
            epochs,
            seed: 7,
            balance: true,
        },
    );
    // Extension: calibrate the decision threshold on the training labels'
    // measured costs (cost-sensitive selection; see EXPERIMENTS.md).
    let calibration = calibrate_threshold(&classifier, &train_set);
    let mut calibrated = NeuroSelectSolver::new(classifier);
    calibrated.threshold = calibration.threshold;
    let solver = calibrated;

    eprintln!("running the Table 3 comparison…");
    let mut records = RecordLog::from_args(&args);
    let mut base_props = Vec::new();
    let mut base_secs = Vec::new();
    let mut ns_props = Vec::new();
    let mut ns_secs = Vec::new();
    let mut fixed_props = Vec::new();
    let mut switched = 0;
    let mut picked = 0;
    for inst in &test_set {
        let t = Instant::now();
        let (r, s, rec) = solve_with_policy_recorded(
            &inst.instance.cnf,
            PolicyKind::Default,
            budget,
            &inst.instance.name,
        );
        let solved = !r.is_unknown();
        base_props.push(solved.then_some(s.propagations as f64));
        base_secs.push(solved.then_some(t.elapsed().as_secs_f64()));

        let out = solver.solve_recorded(&inst.instance.cnf, budget, &inst.instance.name, None);
        if let Some(log) = records.as_mut() {
            log.push(&rec);
            log.push(&out.record);
        }
        let solved = !out.result.is_unknown();
        // A solve that never deleted a clause made no pick: it ran under
        // the default policy and reports probability 0.0. It never read
        // the policy, so the fixed-threshold re-solve below is the same
        // run under either choice.
        picked += usize::from(out.policy_needed);
        if out.chosen == PolicyKind::PropFreq {
            switched += 1;
        }
        ns_props.push(solved.then_some(out.stats.propagations as f64));
        ns_secs.push(solved.then_some(out.total_time().as_secs_f64()));
        // fixed 0.5 threshold (the paper's protocol), for comparison
        let fixed_choice = if out.probability > 0.5 {
            PolicyKind::PropFreq
        } else {
            PolicyKind::Default
        };
        let (fr, fs) = solve_with_policy(&inst.instance.cnf, fixed_choice, budget);
        fixed_props.push((!fr.is_unknown()).then_some(fs.propagations as f64));
    }

    // Captured before `RuntimeSummary::from_costs` consumes the series.
    let pct_lines: Vec<(&str, Option<String>)> = [
        ("default", &base_props),
        ("NeuroSelect (thr 0.5)", &fixed_props),
        ("NeuroSelect calibrated", &ns_props),
    ]
    .map(|(name, props)| (name, percentile_line(props.iter().flatten().copied())))
    .into();

    let rows = |name: &str, p: RuntimeSummary, s: RuntimeSummary| -> Vec<String> {
        vec![
            name.to_string(),
            format!("{}/{}", p.solved, p.attempted),
            format!("{:.0}", p.median),
            format!("{:.0}", p.mean),
            format!("{:.4}", s.median),
            format!("{:.4}", s.mean),
        ]
    };
    let bp = RuntimeSummary::from_costs(base_props);
    let bs = RuntimeSummary::from_costs(base_secs);
    let np = RuntimeSummary::from_costs(ns_props);
    let ns = RuntimeSummary::from_costs(ns_secs);
    let fp = RuntimeSummary::from_costs(fixed_props);

    println!("\nTable 3: Runtime statistics on the held-out test batch\n");
    print_table(
        &[
            "solver",
            "solved",
            "median props",
            "avg props",
            "median s",
            "avg s",
        ],
        &[
            rows("default (Kissat-like)", bp, bs),
            {
                // the fixed-threshold comparison re-solves without timing
                let mut row = rows("NeuroSelect (thr 0.5)", fp, fp);
                row[4] = "—".into();
                row[5] = "—".into();
                row
            },
            rows("NeuroSelect calibrated", np, ns),
        ],
    );
    println!("\npropagation percentiles over solved instances (interpolated):");
    for (name, line) in &pct_lines {
        match line {
            Some(line) => println!("  {name:<22} {line}"),
            None => println!("  {name:<22} (nothing solved)"),
        }
    }
    println!(
        "calibrated threshold {:.3} (train-set costs: calibrated {} vs fixed-0.5 {} vs          never-switch {}, oracle {}, efficiency {:.0}%)",
        calibration.threshold,
        calibration.calibrated_cost,
        calibration.default_cost,
        calibration.never_switch_cost,
        calibration.oracle_cost,
        100.0 * calibration.oracle_efficiency()
    );
    println!(
        "\nNeuroSelect chose the propagation-frequency policy on {switched}/{picked} \
         picks; the other {} of {} instances ended before a reduction deleted a \
         clause and needed no pick. Its wall-clock column includes model inference.",
        test_set.len() - picked,
        test_set.len()
    );
    let improvement = if bp.median > 0.0 {
        100.0 * (bp.median - np.median) / bp.median
    } else {
        0.0
    };
    println!(
        "median-propagation change vs. default: {improvement:+.1}% \
         (paper reports a 5.8% median-runtime reduction for NeuroSelect-Kissat)"
    );
    inprocessing_ablation(&args);
}
