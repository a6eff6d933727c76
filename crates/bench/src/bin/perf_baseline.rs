//! `perf_baseline` — run the pinned solver suite and write or check the
//! committed perf-trajectory baseline (`BENCH_solver.json`).
//!
//! ```text
//! perf_baseline --write BENCH_solver.json          # (re)generate the baseline
//! perf_baseline --compare BENCH_solver.json        # CI regression gate
//! perf_baseline --compare B.json --tolerance 0.25  # tighter gate
//! ```
//!
//! Exit codes: `0` pass, `1` regression or trajectory change, `2` usage or
//! I/O error.

use bench::perf;
use std::process::ExitCode;

struct Args {
    repeats: u32,
    write: Option<String>,
    compare: Option<String>,
    tolerance: f64,
}

const USAGE: &str = "usage: perf_baseline [--repeats N] [--write FILE | --compare FILE] \
     [--tolerance FRACTION]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repeats: 5,
        write: None,
        compare: None,
        tolerance: perf::DEFAULT_TOLERANCE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let value = |it: &mut dyn Iterator<Item = String>| {
            inline
                .clone()
                .or_else(|| it.next())
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--repeats" => {
                args.repeats = value(&mut it)?
                    .parse()
                    .map_err(|_| "--repeats expects a positive integer".to_string())?;
                if args.repeats == 0 {
                    return Err("--repeats expects a positive integer".to_string());
                }
            }
            "--write" => args.write = Some(value(&mut it)?),
            "--compare" => args.compare = Some(value(&mut it)?),
            "--tolerance" => {
                args.tolerance = value(&mut it)?
                    .parse()
                    .map_err(|_| "--tolerance expects a number".to_string())?;
                if !args.tolerance.is_finite() || args.tolerance < 0.0 {
                    return Err("--tolerance expects a finite non-negative number".to_string());
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.write.is_some() && args.compare.is_some() {
        return Err("--write and --compare are mutually exclusive".to_string());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    eprintln!("running {} ({} repeats)...", perf::SUITE_NAME, args.repeats);
    let fresh = perf::run_suite(args.repeats)?;
    for inst in &fresh.instances {
        eprintln!(
            "  {}: {} in {:.1} ms ({:.0} kprops/s)",
            inst.name,
            inst.result,
            inst.median_wall_s * 1e3,
            inst.props_per_sec / 1e3
        );
    }
    eprintln!(
        "  total {:.1} ms, calibration {:.1} ms, normalized {:.3}",
        fresh.total_median_wall_s * 1e3,
        fresh.calibration_s * 1e3,
        fresh.normalized_total
    );
    if let Some(path) = &args.write {
        let mut text = fresh.to_json_pretty();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("baseline written to {path}");
        return Ok(true);
    }
    if let Some(path) = &args.compare {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline = perf::parse_report(&text).map_err(|e| format!("{path}: {e}"))?;
        let outcome = perf::compare(&baseline, &fresh, args.tolerance);
        for note in &outcome.notes {
            println!("  {note}");
        }
        for failure in &outcome.failures {
            println!("FAIL: {failure}");
        }
        if outcome.passed() {
            println!(
                "perf trajectory OK (within +{:.0}%)",
                args.tolerance * 100.0
            );
        }
        return Ok(outcome.passed());
    }
    // Neither --write nor --compare: print the report to stdout.
    println!("{}", fresh.to_json_pretty());
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
