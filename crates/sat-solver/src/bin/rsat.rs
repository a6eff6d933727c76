//! `rsat` — a DIMACS command-line front end for the CDCL solver.
//!
//! ```text
//! rsat FILE.cnf [--policy default|prop-freq] [--alpha F]
//!               [--conflicts N] [--propagations N] [--proof FILE.drat]
//!               [--timeout SECS] [--mem-limit MB]
//!               [--check-proof] [--check[=off|light|full]] [--preprocess]
//!               [--no-stats] [--stats-json FILE.jsonl] [--progress SECS]
//!               [--fault-plan PLAN]
//! ```
//!
//! `--timeout` and `--mem-limit` are *cooperative* resource ceilings
//! checked at search boundaries: exhausting one yields `s UNKNOWN` (exit
//! 0) with intact statistics and a `c stop:` line naming the cause, never
//! a crash. `--fault-plan` (or the `FAULT_PLAN` environment variable)
//! arms deterministic fault injection when the binary is built with the
//! `faults` feature; without it the flag is a polite error.
//!
//! `--alpha` sets the propagation-frequency policy's hotness threshold α,
//! which must lie in `[0, 1]`; it implies `--policy prop-freq` and is a
//! usage error next to `--policy default`. `--preprocess` simplifies the
//! formula at the root before search with the solver's inprocessing
//! engine ([`Solver::simplify`]); the simplification is DRAT-logged, so
//! it combines with `--proof` and `--check-proof`.
//!
//! A `c`-comment statistics block is printed by default (`--no-stats`
//! silences it). `--stats-json` streams structured telemetry events
//! (solve start/end, reduction snapshots, progress heartbeats) as JSON
//! Lines; `--progress` prints heartbeats every SECS seconds — to the
//! JSONL stream when one is open, as `c progress` comments otherwise.
//!
//! Exit codes follow the SAT-competition convention: 10 = SAT,
//! 20 = UNSAT, 0 = unknown/indeterminate, 1 = usage or I/O error. A
//! closed stdout does not change them: the report just ends there.

use sat_solver::{
    check_proof, Budget, CheckLevel, Checkpoint, PolicyKind, SolveResult, Solver, SolverConfig,
    SolverTelemetry,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::time::Duration;
use telemetry::{Event, JsonlSink, Phase, Sink};

/// `println!` for the report on stdout, without its panic on a write
/// error: a closed stdout (`rsat … | head`) ends the output, not the run,
/// so a proof is still written and checked and the exit code still
/// reports the verdict.
macro_rules! say {
    ($($arg:tt)*) => {{
        // Every later write fails the same way, so the output just ends.
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

struct Options {
    file: String,
    policy: PolicyKind,
    budget: Budget,
    proof_path: Option<String>,
    check: bool,
    check_level: Option<CheckLevel>,
    stats: bool,
    preprocess: bool,
    /// In-search inprocessing rounds (subsumption, bounded variable
    /// elimination, vivification): `Some(interval)` runs a round every
    /// `interval` restarts.
    inprocess: Option<u64>,
    stats_json: Option<String>,
    progress: Option<f64>,
    /// Wall-clock ceiling, applied to the budget right before solving
    /// starts (so parse time does not eat into it).
    timeout: Option<Duration>,
    /// Approximate memory ceiling in MiB.
    mem_limit_mb: Option<u64>,
    fault_plan: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: rsat FILE.cnf [--policy default|prop-freq] [--alpha F]\n\
         \x20             [--conflicts N] [--propagations N] [--proof FILE.drat]\n\
         \x20             [--timeout SECS] [--mem-limit MB]\n\
         \x20             [--check-proof] [--check[=off|light|full]] [--preprocess]\n\
         \x20             [--inprocess[=EVERY]]\n\
         \x20             [--no-stats] [--stats-json FILE.jsonl] [--progress SECS]\n\
         \x20             [--fault-plan PLAN]"
    );
    std::process::exit(1)
}

/// Prints a model as DIMACS `v` lines (72-column wrapped).
fn print_model(model: &[bool]) {
    let mut line = String::from("v");
    for (i, &v) in model.iter().enumerate() {
        line.push(' ');
        if !v {
            line.push('-');
        }
        line.push_str(&(i + 1).to_string());
        if line.len() > 72 {
            say!("{line}");
            line = String::from("v");
        }
    }
    say!("{line} 0");
}

/// Streams progress heartbeats to stdout as DIMACS `c` comments; used
/// when `--progress` is given without `--stats-json`.
struct CommentSink;

impl Sink for CommentSink {
    fn emit(&mut self, event: &Event) {
        if let Event::Progress {
            conflicts,
            propagations,
            learned,
            elapsed_s,
            conflicts_per_sec,
            ..
        } = event
        {
            // sinks must never take the solver down — a closed stdout
            // (e.g. piped into `head`) is dropped, not propagated
            let mut out = std::io::stdout();
            let _ = writeln!(
                out,
                "c progress {elapsed_s:.1}s | {conflicts} conflicts ({conflicts_per_sec:.0}/s) \
                 | {propagations} propagations | {learned} learned"
            );
            // Heartbeats exist to be watched live: flush each line so a
            // piped/redirected stream sees it now, not in 8 KiB bursts.
            let _ = out.flush();
        }
    }
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut file = None;
    let mut policy = None;
    let mut alpha: Option<f64> = None;
    let mut budget = Budget::unlimited();
    let mut proof_path = None;
    let mut check = false;
    let mut check_level = None;
    let mut stats = true;
    let mut preprocess = false;
    let mut inprocess = None;
    let mut stats_json = None;
    let mut progress = None;
    let mut timeout = None;
    let mut mem_limit_mb = None;
    let mut fault_plan = None;
    let parse_timeout = |v: Option<String>| -> Option<Duration> {
        let secs: f64 = v.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
        if secs >= 0.0 && secs.is_finite() {
            Some(Duration::from_secs_f64(secs))
        } else {
            usage()
        }
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => {
                policy = match args.next().as_deref() {
                    Some("default") => Some(PolicyKind::Default),
                    Some("prop-freq") => Some(PolicyKind::PropFreq),
                    _ => usage(),
                }
            }
            "--alpha" => {
                alpha = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|a| (0.0..=1.0).contains(a))
                    .or_else(|| usage())
            }
            "--conflicts" => {
                budget.max_conflicts = args.next().and_then(|v| v.parse().ok()).or_else(|| usage())
            }
            "--propagations" => {
                budget.max_propagations =
                    args.next().and_then(|v| v.parse().ok()).or_else(|| usage())
            }
            "--timeout" => timeout = parse_timeout(args.next()),
            t if t.starts_with("--timeout=") => {
                timeout = parse_timeout(Some(t["--timeout=".len()..].to_string()));
            }
            "--mem-limit" => {
                mem_limit_mb = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            m if m.starts_with("--mem-limit=") => {
                mem_limit_mb = Some(
                    m["--mem-limit=".len()..]
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--fault-plan" => fault_plan = Some(args.next().unwrap_or_else(|| usage())),
            p if p.starts_with("--fault-plan=") => {
                fault_plan = Some(p["--fault-plan=".len()..].to_string());
            }
            "--proof" => proof_path = Some(args.next().unwrap_or_else(|| usage())),
            "--check-proof" => check = true,
            "--check" => check_level = Some(CheckLevel::default()),
            level if level.starts_with("--check=") => {
                check_level =
                    Some(CheckLevel::parse(&level["--check=".len()..]).unwrap_or_else(|| usage()));
            }
            "--stats" => stats = true, // default; kept for compatibility
            "--no-stats" => stats = false,
            "--preprocess" => preprocess = true,
            // `--inprocess` uses the config default interval;
            // `--inprocess=N` runs a round every N restarts.
            "--inprocess" => inprocess = Some(SolverConfig::default().inprocess_interval),
            n if n.starts_with("--inprocess=") => {
                let every: u64 = n["--inprocess=".len()..]
                    .parse()
                    .unwrap_or_else(|_| usage());
                if every == 0 {
                    usage()
                }
                inprocess = Some(every);
            }
            "--stats-json" => stats_json = Some(args.next().unwrap_or_else(|| usage())),
            "--progress" => {
                let secs: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if secs > 0.0 && secs.is_finite() {
                    progress = Some(secs);
                } else {
                    usage()
                }
            }
            f if !f.starts_with('-') && file.is_none() => file = Some(f.to_string()),
            _ => usage(),
        }
    }
    // α belongs to prop-freq: with `--policy default` it would be ignored.
    let policy = match (policy, alpha) {
        (Some(PolicyKind::Default), Some(_)) => usage(),
        (_, Some(a)) => PolicyKind::PropFreqAlpha(a),
        (policy, None) => policy.unwrap_or_default(),
    };
    Options {
        file: file.unwrap_or_else(|| usage()),
        policy,
        budget,
        proof_path,
        check,
        check_level,
        stats,
        preprocess,
        inprocess,
        stats_json,
        progress,
        timeout,
        mem_limit_mb,
        fault_plan,
    }
}

/// Returns `opts.budget` with the wall-clock/memory ceilings applied.
/// Called right before solving so the deadline excludes parse time.
fn armed_budget(opts: &Options) -> Budget {
    let mut budget = opts.budget;
    if let Some(timeout) = opts.timeout {
        budget = budget.with_deadline_in(timeout);
    }
    if let Some(mb) = opts.mem_limit_mb {
        budget = budget.with_memory_limit(mb.saturating_mul(1024 * 1024));
    }
    budget
}

/// Arms fault injection from `--fault-plan` and the `FAULT_PLAN`
/// environment variable. A plan on a binary built without the `faults`
/// feature is a usage error, not a silent no-op: a chaos harness that
/// thinks it is injecting faults but is not would report vacuous passes.
fn arm_fault_plan(opts: &Options) -> Result<(), String> {
    #[cfg(feature = "faults")]
    {
        match faults::install_from_env() {
            Ok(true) => say!("c fault plan armed from ${}", faults::ENV_VAR),
            Ok(false) => {}
            Err(e) => return Err(format!("bad ${}: {e}", faults::ENV_VAR)),
        }
        if let Some(plan) = &opts.fault_plan {
            let plan = plan
                .parse::<faults::FaultPlan>()
                .map_err(|e| format!("bad --fault-plan: {e}"))?;
            faults::install_global(plan);
            say!("c fault plan armed from --fault-plan");
        }
        Ok(())
    }
    #[cfg(not(feature = "faults"))]
    {
        if opts.fault_plan.is_some() || std::env::var_os("FAULT_PLAN").is_some() {
            return Err(String::from(
                "fault injection requested, but this rsat was built without \
                 the `faults` feature (rebuild with `--features faults`)",
            ));
        }
        Ok(())
    }
}

/// Opens and parses the DIMACS input. The `dimacs-io` fault point swaps
/// the file for one that fails mid-stream, exercising the same graceful
/// diagnostic path a real disk/network failure would take.
fn read_formula(path: &str) -> Result<cnf::Cnf, String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    #[cfg(feature = "faults")]
    if let Some(cfg) = faults::fire(faults::site::DIMACS_IO, &[]) {
        let reader = BufReader::new(faults::FailingReader::new(file, cfg.get_u64("after", 64)));
        return cnf::parse_dimacs(reader).map_err(|e| e.to_string());
    }
    cnf::parse_dimacs(BufReader::new(file)).map_err(|e| e.to_string())
}

/// Writes the DRAT proof to an opened file. The `drat-truncate` fault
/// point cuts the byte stream short — a full disk or severed pipe —
/// which must surface as an I/O error, never a silently short proof.
fn write_drat_file(proof: &sat_solver::ProofLogger, file: File) -> std::io::Result<()> {
    #[cfg(feature = "faults")]
    if let Some(cfg) = faults::fire(faults::site::DRAT_TRUNCATE, &[]) {
        let mut w = BufWriter::new(faults::TruncatingWriter::new(
            file,
            cfg.get_u64("after", 64),
        ));
        return proof.write_drat(&mut w).and_then(|()| w.flush());
    }
    let mut w = BufWriter::new(file);
    proof.write_drat(&mut w).and_then(|()| w.flush())
}

fn main() -> ExitCode {
    let opts = parse_args();
    if let Err(e) = arm_fault_plan(&opts) {
        eprintln!("rsat: {e}");
        return ExitCode::from(1);
    }
    let formula = match read_formula(&opts.file) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("rsat: {}: {e}", opts.file);
            return ExitCode::from(1);
        }
    };
    say!(
        "c rsat | {} vars, {} clauses | policy {}",
        formula.num_vars(),
        formula.num_clauses(),
        opts.policy
    );

    // `--check` subsumes `--check-proof`: in-search invariant auditing plus
    // UNSAT proof replay and an end-of-solve audit.
    let check_proof_on_unsat = opts.check || opts.check_level.is_some();

    let mut solver_config = SolverConfig::with_policy(opts.policy);
    if let Some(every) = opts.inprocess {
        solver_config.inprocess = true;
        solver_config.inprocess_interval = every;
        say!("c inprocessing enabled (rounds every {every} restarts)");
    }
    let mut solver = Solver::new(&formula, solver_config);
    if opts.proof_path.is_some() || check_proof_on_unsat {
        solver.enable_proof();
    }
    if let Some(level) = opts.check_level {
        #[cfg(feature = "checks")]
        {
            solver.set_check_level(level);
            say!("c invariant checks: {level:?} (in-search checkpoints active)");
        }
        #[cfg(not(feature = "checks"))]
        {
            let _ = level;
            say!(
                "c note: built without the `checks` feature; in-search checkpoints \
                 are disabled (end-of-solve audit and proof replay still run)"
            );
        }
    }

    // Root-level simplification, after proof logging is on so that the
    // proof covers it.
    if opts.preprocess {
        let satisfiable = solver.simplify();
        let ip = solver.inprocess_stats().unwrap_or_default();
        say!(
            "c preprocessed to {} clauses ({} vars eliminated, {} units derived){}",
            solver.db_stats().original_clauses,
            ip.eliminated_vars,
            ip.units_derived,
            if satisfiable { "" } else { ": refuted" }
        );
    }

    if opts.stats_json.is_some() || opts.progress.is_some() {
        let instance = std::path::Path::new(&opts.file)
            .file_name()
            .map_or_else(|| opts.file.clone(), |n| n.to_string_lossy().into_owned());
        let mut tel = SolverTelemetry::new(instance);
        if let Some(path) = &opts.stats_json {
            match File::create(path) {
                Ok(f) => tel = tel.with_sink(Box::new(JsonlSink::new(BufWriter::new(f)))),
                Err(e) => {
                    eprintln!("rsat: {path}: {e}");
                    return ExitCode::from(1);
                }
            }
        } else {
            tel = tel.with_sink(Box::new(CommentSink));
        }
        if let Some(secs) = opts.progress {
            tel = tel.with_progress(Duration::from_secs_f64(secs));
        }
        solver.set_telemetry(tel);
    }

    let result = solver.solve_with_budget(armed_budget(&opts));

    if opts.check_level.is_some() {
        if let Err(e) = solver.audit_invariants(Checkpoint::PostPropagate) {
            eprintln!("rsat: end-of-solve invariant audit FAILED: {e}");
            return ExitCode::from(1);
        }
        say!("c end-of-solve invariant audit passed");
    }

    if opts.stats {
        let s = solver.stats();
        say!(
            "c decisions {} | propagations {} | conflicts {} | restarts {} | \
             reductions {} | learned {} | deleted {}",
            s.decisions,
            s.propagations,
            s.conflicts,
            s.restarts,
            s.reductions,
            s.learned_clauses,
            s.deleted_clauses
        );
        if let Some(ip) = solver.inprocess_stats() {
            say!(
                "c inprocess rounds {} (skipped {}, aborted {}) | subsumed {} | \
                 strengthened {} | eliminated {} | vivified {}",
                ip.rounds,
                ip.skipped_rounds,
                ip.aborted_rounds,
                ip.subsumed,
                ip.strengthened,
                ip.eliminated_vars,
                ip.vivified
            );
        }
    }

    if let Some(tel) = solver.take_telemetry() {
        if opts.stats {
            for phase in [
                Phase::Propagate,
                Phase::Analyze,
                Phase::Minimize,
                Phase::Reduce,
                Phase::Restart,
                Phase::Inprocess,
            ] {
                let calls = tel.phases().calls(phase);
                if calls > 0 {
                    say!(
                        "c time {:<9} {:>9.4}s ({calls} calls)",
                        phase.name(),
                        tel.phases().elapsed(phase).as_secs_f64()
                    );
                }
            }
            say!("c peak learned clauses {}", tel.peak_learned_clauses());
        }
        drop(tel.into_record()); // flushes the JSONL stream
        if let Some(path) = &opts.stats_json {
            say!("c telemetry written to {path}");
        }
    }

    let code = match &result {
        SolveResult::Sat(model) => {
            if cnf::verify_model(&formula, model).is_err() {
                eprintln!("rsat: internal error: model failed verification");
                return ExitCode::from(1);
            }
            say!("s SATISFIABLE");
            print_model(model);
            10
        }
        SolveResult::Unsat => {
            say!("s UNSATISFIABLE");
            20
        }
        SolveResult::Unknown => {
            if let Some(cause) = solver.stop_cause() {
                say!("c stop: {}", cause.as_str());
            }
            say!("s UNKNOWN");
            0
        }
    };

    if let Some(proof) = solver.take_proof() {
        if let Some(path) = &opts.proof_path {
            match File::create(path) {
                Ok(f) => {
                    if write_drat_file(&proof, f).is_err() {
                        eprintln!("rsat: failed to write proof to {path}");
                        return ExitCode::from(1);
                    }
                    say!("c proof written to {path}");
                }
                Err(e) => {
                    eprintln!("rsat: {path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        if check_proof_on_unsat && result.is_unsat() {
            match check_proof(&formula, &proof) {
                Ok(()) => say!("c proof VERIFIED by the built-in RUP checker"),
                Err(e) => {
                    eprintln!("rsat: proof check FAILED: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    ExitCode::from(code)
}
