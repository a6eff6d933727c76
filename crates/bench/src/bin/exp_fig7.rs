//! **Experiment F7 — Figure 7**: (a) per-instance scatter of plain-solver
//! cost vs. NeuroSelect-guided cost; (b) box-and-whisker summaries of the
//! model inference times and of the per-instance improvements.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig7 \
//!     [-- --instances N --scale S --epochs E --batches B]
//! ```

use bench::{dataset_config, labeled_test_set, labeled_training_set, print_table, ExpArgs};
use neuro::NeuroSelectConfig;
use neuroselect::sat_solver::{solve_with_policy, PolicyKind};
use neuroselect::{
    train, BoxPlot, Budget, LabelingConfig, NeuroSelectClassifier, NeuroSelectSolver, TrainConfig,
};

fn boxplot_row(name: &str, b: Option<BoxPlot>) -> Vec<String> {
    match b {
        Some(b) => vec![
            name.to_string(),
            format!("{:.4}", b.min),
            format!("{:.4}", b.q1),
            format!("{:.4}", b.median),
            format!("{:.4}", b.q3),
            format!("{:.4}", b.max),
        ],
        None => vec![name.to_string(); 6],
    }
}

fn main() {
    let args = ExpArgs::from_env();
    let config = dataset_config(&args);
    let label_cfg = LabelingConfig::default();
    let budget = Budget::propagations(args.get("budget", 20_000_000u64));

    eprintln!("generating + labelling dataset…");
    let train_set = labeled_training_set(&config, &label_cfg, args.get("batches", 3));
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
            epochs: args.get("epochs", 30),
            seed: 7,
            balance: true,
        },
    );
    let solver = NeuroSelectSolver::new(classifier);

    println!("# Figure 7(a) series: instance default-props neuroselect-props chosen");
    let mut inference_times = Vec::new();
    let mut improvements = Vec::new();
    let mut below = 0;
    let mut above = 0;
    let mut no_pick = 0;
    for inst in &test_set {
        let (_, s_def) = solve_with_policy(&inst.instance.cnf, PolicyKind::Default, budget);
        let out = solver.solve(&inst.instance.cnf, budget);
        let d = s_def.propagations as f64;
        let n = out.stats.propagations as f64;
        if n < d * 0.98 {
            below += 1;
        } else if n > d * 1.02 {
            above += 1;
        }
        improvements.push(d - n);
        // A solve that never deleted a clause never read the policy, so
        // the model made no pick for it: mark the row and leave its (zero)
        // inference time out of the Figure 7(b) series.
        let chosen = if out.policy_needed {
            inference_times.push(out.inference_time.as_secs_f64());
            out.chosen.to_string()
        } else {
            no_pick += 1;
            String::from("-")
        };
        println!(
            "{}\t{}\t{}\t{}",
            inst.instance.name, s_def.propagations, out.stats.propagations, chosen
        );
    }
    println!(
        "({no_pick} of {} solves ended before a reduction deleted a clause and \
         needed no pick: chosen \"-\")",
        test_set.len()
    );

    println!(
        "\nscatter shape: {below} instances below the diagonal (NeuroSelect \
         faster), {above} above; the paper's Figure 7(a) shows the same \
         below-diagonal bias with few, near-diagonal regressions."
    );

    println!("\n# Figure 7(b): box-and-whisker summaries");
    print_table(
        &["series", "min", "q1", "median", "q3", "max"],
        &[
            boxplot_row(
                "inference time (s), solves that picked",
                BoxPlot::from_values(&inference_times),
            ),
            boxplot_row(
                "improvement (props saved)",
                BoxPlot::from_values(&improvements),
            ),
        ],
    );
    println!(
        "\n(paper: inference 0.01–2.22 s, improvements up to 4 425 s; here \
         inference is CPU-only on instances ~100× smaller, and improvement is \
         measured in propagations.)"
    );
}
