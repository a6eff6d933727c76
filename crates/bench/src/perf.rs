//! The perf-trajectory harness: a pinned, deterministic solver suite whose
//! timing baseline is committed as `BENCH_solver.json` and re-checked by
//! CI (the `bench-regression` job) before the ROADMAP's raw-speed work
//! lands.
//!
//! # How the gate works
//!
//! [`run_suite`] solves each pinned instance `repeats` times with the
//! stock solver (no telemetry installed, so the clock measures the real
//! hot path), takes the per-instance **median** wall time, and separately
//! runs one instrumented pass for the per-phase breakdown. Search
//! determinism is enforced: every repeat must reproduce identical
//! conflict/propagation/decision counts, or the report is rejected.
//!
//! Raw wall time is not comparable across machines, so the report also
//! times a fixed solver-independent [`calibration`] workload and records
//! `normalized_total` = total median wall / calibration seconds. The
//! [`compare`] gate diffs normalized totals with a generous
//! [`DEFAULT_TOLERANCE`] — it is a trajectory alarm for step-change
//! regressions (an accidental `O(n²)`, a lost inline), not a microbenchmark.
//!
//! Deterministic counters are compared **exactly**: a changed search
//! trajectory invalidates the timing comparison and demands an intentional
//! baseline regeneration (`perf_baseline --write BENCH_solver.json`).

use sat_solver::{PolicyKind, Solver, SolverConfig, SolverStats, SolverTelemetry};
use std::time::Instant;
use telemetry::json::{Json, ToJson};
use telemetry::Phase;

/// Identity of the pinned suite. Bump the suffix when the instance list
/// changes so stale baselines are rejected instead of mis-compared.
pub const SUITE_NAME: &str = "perf-baseline-v1";

/// Default relative tolerance for the normalized-total regression gate:
/// fail only when the fresh run is this fraction slower than the
/// baseline. Generous by design — CI machines are noisy neighbours.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// The pinned instance suite: small, deterministic, conflict-rich, and
/// diverse (pigeonhole, phase-transition 3-SAT, XOR-SAT, Tseitin
/// expander, graph coloring) so propagate/analyze/reduce all get
/// exercised. Everything is generated from fixed seeds — no files, no
/// model, no randomness at run time.
pub fn suite() -> Vec<(String, cnf::Cnf)> {
    vec![
        ("php-8-7".to_string(), sat_gen::pigeonhole(8, 7)),
        (
            "3sat-pt-180".to_string(),
            sat_gen::phase_transition_3sat(180, 5),
        ),
        (
            "xorsat-250".to_string(),
            sat_gen::random_xorsat(250, 252, 1),
        ),
        (
            "tseitin-22".to_string(),
            sat_gen::tseitin_expander_unsat(22, 3),
        ),
        (
            "color-120-4".to_string(),
            sat_gen::coloring_cnf(&sat_gen::Graph::random(120, 600, 11), 4),
        ),
    ]
}

/// Timed result for one pinned instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstancePerf {
    /// Instance name (stable across runs; part of the baseline identity).
    pub name: String,
    /// Solver verdict (`"SAT"` / `"UNSAT"`), compared exactly.
    pub result: String,
    /// Median wall time over the repeats, seconds.
    pub median_wall_s: f64,
    /// Propagations per second at the median wall time.
    pub props_per_sec: f64,
    /// Deterministic conflict count (identical across repeats).
    pub conflicts: u64,
    /// Deterministic propagation count.
    pub propagations: u64,
    /// Deterministic decision count.
    pub decisions: u64,
    /// Propagate-phase seconds from the instrumented pass.
    pub phase_propagate_s: f64,
    /// Analyze-phase seconds from the instrumented pass.
    pub phase_analyze_s: f64,
    /// Reduce-phase seconds from the instrumented pass.
    pub phase_reduce_s: f64,
}

/// One full suite run — the content of `BENCH_solver.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Suite identity ([`SUITE_NAME`] at generation time).
    pub suite: String,
    /// Repeats per instance behind each median.
    pub repeats: u32,
    /// Median seconds of the machine-speed [`calibration`] workload.
    pub calibration_s: f64,
    /// Per-instance measurements, in suite order.
    pub instances: Vec<InstancePerf>,
    /// Sum of per-instance median wall times, seconds.
    pub total_median_wall_s: f64,
    /// `total_median_wall_s / calibration_s` — the machine-independent
    /// number the regression gate compares.
    pub normalized_total: f64,
}

/// Times a fixed, solver-independent workload (an xorshift pointer-chase
/// over an 8 MiB buffer — the same mix of ALU and cache-miss work a CDCL
/// solver does) and returns the **minimum** of five timed passes, in
/// seconds, after one untimed warm-up pass that pages the buffer in and
/// spins the CPU up. The minimum — not the median — is the estimator:
/// interference only ever adds time, so the fastest pass is the most
/// stable reading of machine capability.
pub fn calibration() -> f64 {
    fn one_pass(buf: &mut [u64]) -> f64 {
        let mask = buf.len() - 1;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let start = Instant::now();
        for i in 0..(1u64 << 23) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let idx = (x as usize) & mask;
            buf[idx] = buf[idx].wrapping_add(x ^ i);
        }
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(&buf);
        elapsed
    }
    let mut buf = vec![0u64; 1 << 20];
    let _ = one_pass(&mut buf);
    (0..5)
        .map(|_| one_pass(&mut buf))
        .fold(f64::INFINITY, f64::min)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn verdict(result: &sat_solver::SolveResult) -> String {
    match result {
        sat_solver::SolveResult::Sat(_) => "SAT".to_string(),
        sat_solver::SolveResult::Unsat => "UNSAT".to_string(),
        sat_solver::SolveResult::Unknown => "UNKNOWN".to_string(),
    }
}

/// Runs the pinned suite. Fails if any instance turns out
/// nondeterministic across repeats (the baseline would be meaningless).
pub fn run_suite(repeats: u32) -> Result<PerfReport, String> {
    let repeats = repeats.max(1);
    let calibration_s = calibration();
    let mut instances = Vec::new();
    for (name, formula) in suite() {
        let config = SolverConfig::with_policy(PolicyKind::Default);
        let mut walls = Vec::with_capacity(repeats as usize);
        let mut fingerprint: Option<(String, SolverStats)> = None;
        for _ in 0..repeats {
            let mut solver = Solver::new(&formula, config.clone());
            let start = Instant::now();
            let result = solver.solve();
            walls.push(start.elapsed().as_secs_f64());
            let run = (verdict(&result), *solver.stats());
            match &fingerprint {
                None => fingerprint = Some(run),
                Some(prev) => {
                    if prev.0 != run.0
                        || prev.1.conflicts != run.1.conflicts
                        || prev.1.propagations != run.1.propagations
                        || prev.1.decisions != run.1.decisions
                    {
                        return Err(format!(
                            "instance {name} is nondeterministic across repeats \
                             (the pinned suite must replay exactly)"
                        ));
                    }
                }
            }
        }
        let (result, stats) =
            fingerprint.unwrap_or_else(|| ("UNKNOWN".to_string(), SolverStats::default()));
        // A separate instrumented pass for the phase breakdown, so the
        // timed repeats above never pay for the per-phase clocks.
        let mut instrumented = Solver::new(&formula, config);
        instrumented.set_telemetry(SolverTelemetry::new(name.clone()));
        let _ = instrumented.solve();
        let phases = instrumented
            .take_telemetry()
            .map(|t| *t.phases())
            .unwrap_or_default();
        let median_wall_s = median(&mut walls);
        instances.push(InstancePerf {
            name,
            result,
            median_wall_s,
            props_per_sec: if median_wall_s > 0.0 {
                stats.propagations as f64 / median_wall_s
            } else {
                0.0
            },
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            decisions: stats.decisions,
            phase_propagate_s: phases.elapsed(Phase::Propagate).as_secs_f64(),
            phase_analyze_s: phases.elapsed(Phase::Analyze).as_secs_f64(),
            phase_reduce_s: phases.elapsed(Phase::Reduce).as_secs_f64(),
        });
    }
    let total_median_wall_s: f64 = instances.iter().map(|i| i.median_wall_s).sum();
    Ok(PerfReport {
        suite: SUITE_NAME.to_string(),
        repeats,
        calibration_s,
        normalized_total: if calibration_s > 0.0 {
            total_median_wall_s / calibration_s
        } else {
            0.0
        },
        total_median_wall_s,
        instances,
    })
}

impl ToJson for InstancePerf {
    fn to_json(&self) -> Json {
        Json::object()
            .with("name", Json::from(self.name.as_str()))
            .with("result", Json::from(self.result.as_str()))
            .with("median_wall_s", Json::from(self.median_wall_s))
            .with("props_per_sec", Json::from(self.props_per_sec))
            .with("conflicts", Json::from(self.conflicts))
            .with("propagations", Json::from(self.propagations))
            .with("decisions", Json::from(self.decisions))
            .with(
                "phases",
                Json::object()
                    .with("propagate_s", Json::from(self.phase_propagate_s))
                    .with("analyze_s", Json::from(self.phase_analyze_s))
                    .with("reduce_s", Json::from(self.phase_reduce_s)),
            )
    }
}

impl ToJson for PerfReport {
    fn to_json(&self) -> Json {
        Json::object()
            .with("schema_version", Json::from(telemetry::SCHEMA_VERSION))
            .with("suite", Json::from(self.suite.as_str()))
            .with("repeats", Json::from(self.repeats))
            .with("calibration_s", Json::from(self.calibration_s))
            .with(
                "instances",
                Json::Array(self.instances.iter().map(ToJson::to_json).collect()),
            )
            .with("total_median_wall_s", Json::from(self.total_median_wall_s))
            .with("normalized_total", Json::from(self.normalized_total))
    }
}

impl PerfReport {
    /// Serializes the report as human-diffable multi-line JSON — the
    /// format of the committed `BENCH_solver.json`.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        pretty(&self.to_json(), 0, &mut out);
        out
    }
}

fn pretty(v: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    match v {
        Json::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (key, value)) in fields.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&Json::from(key.as_str()).to_string());
                out.push_str(": ");
                pretty(value, indent + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_string()),
    }
}

fn field<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing `{key}`"))
}

fn f64_field(v: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    field(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a number"))
}

fn u64_field(v: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: `{key}` is not an unsigned integer"))
}

fn str_field(v: &Json, key: &str, ctx: &str) -> Result<String, String> {
    Ok(field(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a string"))?
        .to_string())
}

/// Parses a `BENCH_solver.json` document back into a [`PerfReport`].
pub fn parse_report(text: &str) -> Result<PerfReport, String> {
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let ctx = "baseline";
    let mut instances = Vec::new();
    for (i, inst) in field(&doc, "instances", ctx)?
        .as_array()
        .ok_or_else(|| format!("{ctx}: `instances` is not an array"))?
        .iter()
        .enumerate()
    {
        let ictx = format!("instances[{i}]");
        let phases = field(inst, "phases", &ictx)?;
        instances.push(InstancePerf {
            name: str_field(inst, "name", &ictx)?,
            result: str_field(inst, "result", &ictx)?,
            median_wall_s: f64_field(inst, "median_wall_s", &ictx)?,
            props_per_sec: f64_field(inst, "props_per_sec", &ictx)?,
            conflicts: u64_field(inst, "conflicts", &ictx)?,
            propagations: u64_field(inst, "propagations", &ictx)?,
            decisions: u64_field(inst, "decisions", &ictx)?,
            phase_propagate_s: f64_field(phases, "propagate_s", &ictx)?,
            phase_analyze_s: f64_field(phases, "analyze_s", &ictx)?,
            phase_reduce_s: f64_field(phases, "reduce_s", &ictx)?,
        });
    }
    Ok(PerfReport {
        suite: str_field(&doc, "suite", ctx)?,
        repeats: u64_field(&doc, "repeats", ctx)? as u32,
        calibration_s: f64_field(&doc, "calibration_s", ctx)?,
        instances,
        total_median_wall_s: f64_field(&doc, "total_median_wall_s", ctx)?,
        normalized_total: f64_field(&doc, "normalized_total", ctx)?,
    })
}

/// Outcome of a baseline comparison: human-readable notes plus the
/// failures that should gate CI.
#[derive(Debug, Default)]
pub struct CompareOutcome {
    /// Informational lines (per-instance deltas, totals).
    pub notes: Vec<String>,
    /// Hard failures: identity mismatches or a tolerance breach.
    pub failures: Vec<String>,
}

impl CompareOutcome {
    /// `true` when nothing gates.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Diffs a fresh run against the committed baseline.
///
/// Identity first: suite name, instance list, verdicts, and the
/// deterministic counters must match exactly — a trajectory change makes
/// timing deltas meaningless and requires an intentional `--write`.
/// Then the regression gate: fresh `normalized_total` may exceed the
/// baseline's by at most `tolerance` (relative).
pub fn compare(baseline: &PerfReport, fresh: &PerfReport, tolerance: f64) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    if baseline.suite != fresh.suite {
        out.failures.push(format!(
            "suite mismatch: baseline `{}` vs fresh `{}` (regenerate with --write)",
            baseline.suite, fresh.suite
        ));
        return out;
    }
    let base_names: Vec<&str> = baseline.instances.iter().map(|i| i.name.as_str()).collect();
    let fresh_names: Vec<&str> = fresh.instances.iter().map(|i| i.name.as_str()).collect();
    if base_names != fresh_names {
        out.failures.push(format!(
            "instance list changed: baseline {base_names:?} vs fresh {fresh_names:?} \
             (regenerate with --write)"
        ));
        return out;
    }
    for (b, f) in baseline.instances.iter().zip(&fresh.instances) {
        if b.result != f.result
            || b.conflicts != f.conflicts
            || b.propagations != f.propagations
            || b.decisions != f.decisions
        {
            out.failures.push(format!(
                "{}: search trajectory changed (baseline {}/{} conflicts/propagations, \
                 fresh {}/{}) — if intentional, regenerate the baseline with --write",
                b.name, b.conflicts, b.propagations, f.conflicts, f.propagations
            ));
        } else {
            out.notes.push(format!(
                "{}: {:.1} ms vs baseline {:.1} ms ({:.0} kprops/s)",
                b.name,
                f.median_wall_s * 1e3,
                b.median_wall_s * 1e3,
                f.props_per_sec / 1e3
            ));
        }
    }
    if !out.failures.is_empty() {
        return out;
    }
    let ratio = if baseline.normalized_total > 0.0 {
        fresh.normalized_total / baseline.normalized_total
    } else {
        1.0
    };
    out.notes.push(format!(
        "normalized total: {:.3} vs baseline {:.3} (ratio {ratio:.2}, tolerance +{:.0}%)",
        fresh.normalized_total,
        baseline.normalized_total,
        tolerance * 100.0
    ));
    if ratio > 1.0 + tolerance {
        out.failures.push(format!(
            "perf regression: normalized total is {:.0}% over the committed baseline \
             (ratio {ratio:.2} > {:.2})",
            (ratio - 1.0) * 100.0,
            1.0 + tolerance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        PerfReport {
            suite: SUITE_NAME.to_string(),
            repeats: 3,
            calibration_s: 0.05,
            instances: vec![InstancePerf {
                name: "php-8-7".to_string(),
                result: "UNSAT".to_string(),
                median_wall_s: 0.1,
                props_per_sec: 1e6,
                conflicts: 1000,
                propagations: 100_000,
                decisions: 2000,
                phase_propagate_s: 0.06,
                phase_analyze_s: 0.02,
                phase_reduce_s: 0.005,
            }],
            total_median_wall_s: 0.1,
            normalized_total: 2.0,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = tiny_report();
        let text = report.to_json().to_string();
        let parsed = parse_report(&text).expect("round-trips");
        assert_eq!(parsed, report);
        let pretty = report.to_json_pretty();
        assert!(pretty.contains("\n  \"instances\": [\n"));
        assert_eq!(parse_report(&pretty).expect("pretty round-trips"), report);
        assert!(parse_report("{}").is_err());
        assert!(parse_report("not json").is_err());
    }

    #[test]
    fn compare_passes_identical_reports() {
        let r = tiny_report();
        let out = compare(&r, &r.clone(), DEFAULT_TOLERANCE);
        assert!(out.passed(), "{:?}", out.failures);
        assert!(!out.notes.is_empty());
    }

    #[test]
    fn compare_gates_on_regression_and_trajectory_changes() {
        let base = tiny_report();
        let mut slow = base.clone();
        slow.normalized_total = base.normalized_total * 2.0;
        let out = compare(&base, &slow, DEFAULT_TOLERANCE);
        assert!(!out.passed());
        assert!(out.failures[0].contains("perf regression"), "{out:?}");

        let mut drifted = base.clone();
        drifted.instances[0].conflicts += 1;
        let out = compare(&base, &drifted, DEFAULT_TOLERANCE);
        assert!(!out.passed());
        assert!(out.failures[0].contains("trajectory"), "{out:?}");

        let mut renamed = base.clone();
        renamed.instances[0].name = "other".to_string();
        assert!(!compare(&base, &renamed, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn suite_is_deterministic_and_pinned() {
        let a = suite();
        let b = suite();
        assert_eq!(a.len(), 5);
        for ((name_a, cnf_a), (name_b, cnf_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(cnf_a.num_clauses(), cnf_b.num_clauses());
            assert_eq!(cnf_a.num_vars(), cnf_b.num_vars());
        }
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert!((median(&mut [3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median(&mut [4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
        assert!(median(&mut []).abs() < 1e-12);
    }
}
