//! `nsbench repeat`: every workload N times, each run in its own process
//! with its own seed, runs of different workloads interleaved. Prints each
//! end-to-end metric's median, quartiles and spread (interquartile range
//! over median), and flags spreads that come near the metric's bound in
//! `BENCHMARK.json`.

use crate::inputs::Workload;
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use telemetry::json::Json;

/// What to repeat.
#[derive(Debug, Clone)]
pub struct RepeatOpts {
    /// Runs per workload (at least 2).
    pub runs: u64,
    /// Seed of the first run; run `i` uses `first_seed + i`.
    pub first_seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Where to write medians and quartiles as JSON, if anywhere.
    pub json: Option<PathBuf>,
}

/// Reads each end-to-end metric's regression bound from `BENCHMARK.json`.
fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err(format!("malformed end_to_end entry {m}")),
            }
        })
        .collect()
}

/// Runs `nsbench run` once in a child process and returns its metrics.
fn one_run(
    exe: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Vec<(String, f64)>, String> {
    let output = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let what = format!("{} seed {seed}", workload.name());
    if !output.status.success() {
        return Err(format!("{what} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{what} printed nothing"))?;
    let json = Json::parse(last).map_err(|e| format!("{what}: {e}"))?;
    if json.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{what} was not correct"));
    }
    let metrics = json
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{what}: no metrics"))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Runs the repetitions and prints (and optionally writes) the summary.
///
/// # Errors
///
/// Fails when `BENCHMARK.json` is unreadable or any run fails.
pub fn repeat(opts: &RepeatOpts) -> Result<(), String> {
    if opts.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let bounds = read_bounds(Path::new("BENCHMARK.json"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating nsbench: {e}"))?;
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    for i in 0..opts.runs {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let seed = opts.first_seed + i;
            for (name, value) in one_run(&exe, workload, seed, opts.seconds)? {
                values.entry((w, name)).or_default().push(value);
            }
            eprintln!("repeat: {} seed {seed} done", workload.name());
        }
    }

    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut summary = Json::object();
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let mut per_metric = Json::object();
        for ((_, name), vals) in values.range((w, String::new())..(w + 1, String::new())) {
            let median = stats::median(vals);
            let (q1, q3) = stats::quartiles(vals);
            let spread = if median != 0.0 {
                (q3 - q1) / median.abs()
            } else {
                0.0
            };
            let bound = bounds.get(name).copied();
            // Spreads past a third of the bound leave too little margin for
            // two sets of runs to agree within it.
            let flag = match bound {
                Some(b) if spread > b => "  WIDER THAN BOUND",
                Some(b) if spread > b / 3.0 => "  over a third of bound",
                Some(_) => "",
                None => "  (no bound)",
            };
            println!(
                "{:<18} {:<16} {median:>12.6} {q1:>12.6} {q3:>12.6} {spread:>8.4} {:>6}{flag}",
                workload.name(),
                name,
                bound.map_or("-".to_string(), |b| b.to_string()),
            );
            per_metric.set(
                name,
                Json::object()
                    .with("median", Json::F64(median))
                    .with("q1", Json::F64(q1))
                    .with("q3", Json::F64(q3))
                    .with("spread", Json::F64(spread)),
            );
        }
        summary.set(workload.name(), per_metric);
    }
    if let Some(path) = &opts.json {
        let doc = Json::object()
            .with("runs", Json::from(opts.runs))
            .with("first_seed", Json::from(opts.first_seed))
            .with("seconds", Json::F64(opts.seconds))
            .with("workloads", summary);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}
