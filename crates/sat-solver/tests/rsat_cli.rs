//! Integration tests driving the `rsat` binary end-to-end: DIMACS in,
//! SAT-competition exit codes and `c`-comment stats out, and the
//! `--stats-json` JSONL telemetry stream.

use sat_solver::PolicyKind;
use std::path::PathBuf;
use std::process::{Command, Output};
use telemetry::json::{FromJson, Json};
use telemetry::{Event, SCHEMA_VERSION};

/// Pigeonhole PHP(holes+1, holes) in DIMACS — small and always UNSAT.
fn php_dimacs(holes: usize) -> String {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| p * holes + h + 1;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push(
            (0..holes)
                .map(|h| var(p, h).to_string())
                .collect::<Vec<_>>()
                .join(" ")
                + " 0",
        );
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(format!("-{} -{} 0", var(p1, h), var(p2, h)));
            }
        }
    }
    format!(
        "p cnf {} {}\n{}\n",
        pigeons * holes,
        clauses.len(),
        clauses.join("\n")
    )
}

/// Writes `dimacs` to a unique temp file and returns its path.
fn temp_cnf(name: &str, dimacs: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rsat-cli-{}-{name}.cnf", std::process::id()));
    std::fs::write(&path, dimacs).expect("write temp cnf");
    path
}

fn run_rsat(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rsat"))
        .args(args)
        .output()
        .expect("spawn rsat")
}

#[test]
fn unsat_instance_exits_20_with_stats_block() {
    let cnf = temp_cnf("unsat", &php_dimacs(4));
    let out = run_rsat(&[cnf.to_str().unwrap()]);
    std::fs::remove_file(&cnf).ok();
    assert_eq!(out.status.code(), Some(20));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("s UNSATISFIABLE"), "stdout: {stdout}");
    // the c-comment stats block is on by default
    assert!(stdout.contains("c decisions "), "stdout: {stdout}");
}

#[test]
fn sat_instance_exits_10_with_model() {
    let cnf = temp_cnf("sat", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n");
    let out = run_rsat(&[cnf.to_str().unwrap()]);
    std::fs::remove_file(&cnf).ok();
    assert_eq!(out.status.code(), Some(10));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("s SATISFIABLE"), "stdout: {stdout}");
    assert!(
        stdout.lines().any(|l| l.starts_with("v ")),
        "stdout: {stdout}"
    );
}

#[test]
fn no_stats_silences_the_comment_block() {
    let cnf = temp_cnf("nostats", &php_dimacs(3));
    let out = run_rsat(&[cnf.to_str().unwrap(), "--no-stats"]);
    std::fs::remove_file(&cnf).ok();
    assert_eq!(out.status.code(), Some(20));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("c decisions "), "stdout: {stdout}");
}

#[test]
fn stats_json_streams_schema_versioned_events() {
    let cnf = temp_cnf("jsonl", &php_dimacs(4));
    let jsonl = std::env::temp_dir().join(format!("rsat-cli-{}.jsonl", std::process::id()));
    let out = run_rsat(&[
        cnf.to_str().unwrap(),
        "--stats-json",
        jsonl.to_str().unwrap(),
    ]);
    let stream = std::fs::read_to_string(&jsonl).expect("read jsonl");
    std::fs::remove_file(&cnf).ok();
    std::fs::remove_file(&jsonl).ok();
    assert_eq!(out.status.code(), Some(20));

    let events: Vec<Event> = stream
        .lines()
        .map(|line| {
            let value = Json::parse(line).expect("each line is one JSON object");
            assert_eq!(
                value.get("schema_version").and_then(Json::as_u64),
                Some(u64::from(SCHEMA_VERSION))
            );
            Event::from_json(&value).expect("each line is a known event")
        })
        .collect();
    assert!(events.len() >= 2, "expected at least start+end events");
    assert!(matches!(&events[0], Event::SolveStart { instance_id, .. }
        if instance_id.ends_with(".cnf")));
    match events.last().unwrap() {
        Event::SolveEnd { record } => {
            assert_eq!(record.result, "UNSAT");
            assert_eq!(record.policy, "default");
            assert!(record.solve_time_s >= 0.0);
        }
        other => panic!("last event should be solve_end, got {other:?}"),
    }
}

/// Parses a `--stats-json` stream into its events.
fn parse_events(stream: &str) -> Vec<Event> {
    stream
        .lines()
        .map(|line| {
            let value = Json::parse(line).expect("each line is one JSON object");
            Event::from_json(&value).expect("each line is a known event")
        })
        .collect()
}

#[test]
fn progress_prints_heartbeats_as_comments_or_events() {
    let cnf = temp_cnf("progress", &php_dimacs(7));
    let out = run_rsat(&[cnf.to_str().unwrap(), "--progress", "0.001"]);
    assert_eq!(out.status.code(), Some(20));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.lines().any(|l| l.starts_with("c progress ")),
        "stdout: {stdout}"
    );

    // With a JSONL stream open, the heartbeats go there instead.
    let jsonl =
        std::env::temp_dir().join(format!("rsat-cli-{}-progress.jsonl", std::process::id()));
    let out = run_rsat(&[
        cnf.to_str().unwrap(),
        "--progress",
        "0.001",
        "--stats-json",
        jsonl.to_str().unwrap(),
    ]);
    let events = parse_events(&std::fs::read_to_string(&jsonl).expect("read jsonl"));
    std::fs::remove_file(&cnf).ok();
    std::fs::remove_file(&jsonl).ok();
    assert_eq!(out.status.code(), Some(20));
    assert!(
        events.iter().any(|e| matches!(e, Event::Progress { .. })),
        "no progress event in {events:?}"
    );
}

#[test]
fn stats_json_says_why_a_budgeted_solve_stopped() {
    let cnf = temp_cnf("budget", &php_dimacs(7));
    let jsonl = std::env::temp_dir().join(format!("rsat-cli-{}-budget.jsonl", std::process::id()));
    let out = run_rsat(&[
        cnf.to_str().unwrap(),
        "--conflicts",
        "10",
        "--stats-json",
        jsonl.to_str().unwrap(),
    ]);
    let stream = std::fs::read_to_string(&jsonl).expect("read jsonl");
    std::fs::remove_file(&cnf).ok();
    std::fs::remove_file(&jsonl).ok();
    assert_eq!(out.status.code(), Some(0));
    let end = stream.lines().last().expect("a solve_end line");
    assert!(end.contains(r#""stop_cause":"conflicts""#), "{end}");
    match parse_events(&stream).last() {
        Some(Event::SolveEnd { record }) => {
            assert_eq!(record.result, "UNKNOWN");
            assert_eq!(record.stop_cause.as_deref(), Some("conflicts"));
        }
        other => panic!("last event should be solve_end, got {other:?}"),
    }
}

#[test]
fn alpha_outside_the_unit_interval_is_a_usage_error() {
    let cnf = temp_cnf("alpha", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n");
    let path = cnf.to_str().unwrap();
    for alpha in ["1.5", "-0.1", "NaN"] {
        let out = run_rsat(&[path, "--policy", "prop-freq", "--alpha", alpha]);
        assert_eq!(out.status.code(), Some(1), "--alpha {alpha}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("usage: rsat"),
            "--alpha {alpha}: {stderr}"
        );
    }
    let out = run_rsat(&[path, "--alpha", "0.5"]);
    std::fs::remove_file(&cnf).ok();
    assert_eq!(out.status.code(), Some(10));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("policy prop-freq(α=0.5)"), "{stdout}");
}

#[test]
fn alpha_next_to_policy_default_is_a_usage_error() {
    let cnf = temp_cnf("alpha-default", "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n");
    let path = cnf.to_str().unwrap();
    for args in [
        ["--policy", "default", "--alpha", "0.5"],
        ["--alpha", "0.5", "--policy", "default"],
    ] {
        let out = run_rsat(&[&[path][..], &args[..]].concat());
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage: rsat"), "{args:?}: {stderr}");
    }
    let out = run_rsat(&[path, "--policy", "prop-freq", "--alpha", "0.5"]);
    std::fs::remove_file(&cnf).ok();
    assert_eq!(out.status.code(), Some(10));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("policy prop-freq(α=0.5)"), "{stdout}");
}

#[test]
fn records_name_a_custom_alpha() {
    let cnf = temp_cnf("alpha-records", &php_dimacs(4));
    let mut names = Vec::new();
    for alpha in ["0.5", "0.7"] {
        let jsonl = std::env::temp_dir().join(format!(
            "rsat-cli-{}-alpha-{alpha}.jsonl",
            std::process::id()
        ));
        let out = run_rsat(&[
            cnf.to_str().unwrap(),
            "--alpha",
            alpha,
            "--stats-json",
            jsonl.to_str().unwrap(),
        ]);
        let stream = std::fs::read_to_string(&jsonl).expect("read jsonl");
        std::fs::remove_file(&jsonl).ok();
        assert_eq!(out.status.code(), Some(20));
        let events = parse_events(&stream);
        let start = match events.first() {
            Some(Event::SolveStart { policy, .. }) => policy.clone(),
            other => panic!("first event should be solve_start, got {other:?}"),
        };
        let end = match events.last() {
            Some(Event::SolveEnd { record }) => record.policy.clone(),
            other => panic!("last event should be solve_end, got {other:?}"),
        };
        assert_eq!(start, end, "--alpha {alpha}");
        let parsed = PolicyKind::from_json(&Json::from(end.as_str())).expect("policy parses");
        assert_eq!(
            parsed,
            PolicyKind::PropFreqAlpha(alpha.parse().unwrap()),
            "{end}"
        );
        names.push(end);
    }
    std::fs::remove_file(&cnf).ok();
    assert_ne!(names[0], names[1]);
}

#[test]
fn closed_stdout_ends_the_report_not_the_run() {
    let cases = [
        ("closed-unsat", php_dimacs(5), 20),
        (
            "closed-sat",
            String::from("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"),
            10,
        ),
    ];
    for (name, dimacs, verdict) in cases {
        let cnf = temp_cnf(name, &dimacs);
        let drat =
            std::env::temp_dir().join(format!("rsat-cli-{}-{name}.drat", std::process::id()));
        // The read end is closed before `rsat` starts, so every write to
        // its stdout fails, the verdict line included.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_rsat"))
            .args([
                cnf.to_str().unwrap(),
                "--proof",
                drat.to_str().unwrap(),
                "--check-proof",
            ])
            .stdout(writer)
            .output()
            .expect("spawn rsat");
        let proof = std::fs::read_to_string(&drat).unwrap_or_default();
        std::fs::remove_file(&cnf).ok();
        std::fs::remove_file(&drat).ok();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(verdict), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        // The proof is still written; an UNSAT one ends in the empty clause
        // (and `--check-proof` accepted it, or the exit code would be 1).
        let refuted = proof.lines().any(|l| l.trim() == "0");
        assert_eq!(refuted, verdict == 20, "{name}: {proof}");
    }
}

#[test]
fn preprocess_with_check_proof_certifies_unsat() {
    let cnf = temp_cnf("preprocess-unsat", &php_dimacs(4));
    let out = run_rsat(&[cnf.to_str().unwrap(), "--preprocess", "--check-proof"]);
    std::fs::remove_file(&cnf).ok();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(20), "{stdout}");
    assert!(stdout.contains("c preprocessed to "), "{stdout}");
    assert!(stdout.contains("s UNSATISFIABLE"), "{stdout}");
    assert!(stdout.contains("c proof VERIFIED"), "{stdout}");
}

#[test]
fn preprocess_prints_a_model_of_the_original_formula() {
    // A chain whose middle variables bounded variable elimination removes,
    // so the printed model goes through reconstruction.
    let dimacs = "p cnf 6 7\n1 2 0\n-2 3 0\n-3 4 0\n-4 5 0\n-5 -1 2 0\n5 6 0\n-6 -1 0\n";
    let cnf = temp_cnf("preprocess-sat", dimacs);
    let out = run_rsat(&[cnf.to_str().unwrap(), "--preprocess"]);
    std::fs::remove_file(&cnf).ok();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(10), "{stdout}");
    assert!(!stdout.contains("(0 vars eliminated"), "{stdout}");
    let formula = cnf::parse_dimacs_str(dimacs).unwrap();
    let mut model = vec![false; formula.num_vars() as usize];
    let lits = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("v "))
        .flat_map(str::split_whitespace)
        .map(|t| t.parse::<i64>().expect("integer literal"));
    for lit in lits.take_while(|&l| l != 0) {
        model[lit.unsigned_abs() as usize - 1] = lit > 0;
    }
    assert!(cnf::verify_model(&formula, &model).is_ok(), "{stdout}");
}
