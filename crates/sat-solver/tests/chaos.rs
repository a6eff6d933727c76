//! Chaos suite: deterministic fault injection against the solver and the
//! `rsat` binary (`--features faults`).
//!
//! Every scenario asserts the fault-tolerance contract, not a specific
//! recovery path:
//!
//! * **never a wrong verdict** — under any single injected fault the
//!   solver returns the reference verdict, `Unknown`, or an `Err`; a
//!   SAT model is always verified and an UNSAT proof always replayed
//!   before being reported;
//! * **never a hang** — wall-clock budgets are honored within a small
//!   bound even while faults fire;
//! * **never a process crash** — faulted inprocessing rounds are skipped
//!   or aborted, I/O faults become diagnostics and exit code 1 (checked
//!   through the real `rsat` binary).
//!
//! Faults are armed through [`faults::install`], whose scope guard also
//! serializes chaos tests against each other (the plan is global state).

#![cfg(feature = "faults")]

use cnf::Cnf;
use sat_solver::{check_proof, Budget, SolveResult, Solver, SolverConfig, StopCause};
use std::process::Command;
use std::time::{Duration, Instant};

/// Deterministic xorshift64* stream for reproducible random formulas.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A random 3-SAT formula; `ratio ~ clauses/vars` near 4.26 makes the
/// instance conflict-heavy so budget checks and fault points are reached.
fn random_3sat(vars: u32, clauses: usize, seed: u64) -> Cnf {
    let mut rng = XorShift(seed | 1);
    let mut f = Cnf::new(vars);
    for _ in 0..clauses {
        let mut c = [0i32; 3];
        for slot in &mut c {
            let v = (rng.next() % u64::from(vars)) as i32 + 1;
            *slot = if rng.next().is_multiple_of(2) { v } else { -v };
        }
        f.add_dimacs(&c);
    }
    f
}

/// Ground truth from a fault-free sequential solve.
fn reference_verdict(f: &Cnf) -> SolveResult {
    Solver::new(f, SolverConfig::default()).solve_with_budget(Budget::unlimited())
}

/// The chaos contract on verdicts: correct or `Unknown`, never wrong.
fn assert_compatible(expected: &SolveResult, got: &SolveResult, ctx: &str) {
    match got {
        SolveResult::Unknown => {}
        SolveResult::Sat(_) => assert!(expected.is_sat(), "{ctx}: SAT but reference is UNSAT"),
        SolveResult::Unsat => assert!(expected.is_unsat(), "{ctx}: UNSAT but reference is SAT"),
    }
}

/// Inprocessing-heavy configuration: a round at every restart with
/// frequent restarts, so the injected faults actually hit rounds.
fn inprocess_config() -> SolverConfig {
    SolverConfig {
        inprocess: true,
        inprocess_interval: 1,
        restart: 2,
        ..SolverConfig::default()
    }
}

/// Solves with inprocessing under the armed fault plan and asserts the
/// full chaos contract: verdict parity with the fault-free reference,
/// verified models, replayed proofs. Returns the solver for stats checks.
fn solve_inprocessed_under_faults(f: &Cnf, expected: &SolveResult, ctx: &str) -> Solver {
    let mut s = Solver::new(f, inprocess_config());
    s.enable_proof();
    let got = s.solve();
    assert_compatible(expected, &got, ctx);
    assert!(!got.is_unknown(), "{ctx}: unlimited solve returned Unknown");
    match got {
        SolveResult::Sat(model) => {
            assert!(
                cnf::verify_model(f, &model).is_ok(),
                "{ctx}: model invalid after faulted rounds"
            );
        }
        SolveResult::Unsat => {
            let proof = s.take_proof().expect("proof enabled");
            assert!(proof.claims_unsat(), "{ctx}: proof must end empty");
            check_proof(f, &proof)
                .unwrap_or_else(|e| panic!("{ctx}: DRAT replay failed after faulted rounds: {e}"));
        }
        SolveResult::Unknown => unreachable!(),
    }
    s
}

#[test]
fn inprocess_corruption_degrades_to_a_clean_skip() {
    // Detected corruption of the engine's working state must skip the
    // round before any mutation: the verdict stays right, the proof still
    // replays, and every fired fault is accounted as a skipped round.
    for seed in [1u64, 2, 3] {
        let f = random_3sat(40, 170, seed);
        let expected = reference_verdict(&f);
        let scope = faults::install("inprocess-corrupt(at=0,times=4)".parse().expect("plan"));
        let s = solve_inprocessed_under_faults(&f, &expected, "inprocess-corrupt");
        let stats = s.inprocess_stats().expect("engine enabled");
        let fired = scope.fired(faults::site::INPROCESS_CORRUPT);
        assert!(fired > 0, "seed {seed}: rounds must be reached");
        assert_eq!(
            stats.skipped_rounds, fired,
            "seed {seed}: every fired corruption is a clean skip"
        );
        assert_eq!(
            stats.rounds + stats.skipped_rounds + stats.aborted_rounds - fired,
            stats.rounds + stats.aborted_rounds,
            "seed {seed}: skips never double-count"
        );
    }
}

#[test]
fn inprocess_stall_forces_a_bounded_mid_round_abort() {
    // A stalled round gets its step budget collapsed: the round must
    // abort mid-way, leave the solver consistent (parity + replay), and
    // never hang the solve.
    for seed in [1u64, 2, 3] {
        let f = random_3sat(40, 170, seed);
        let expected = reference_verdict(&f);
        let scope = faults::install("inprocess-stall(at=0,times=4)".parse().expect("plan"));
        let start = Instant::now();
        let s = solve_inprocessed_under_faults(&f, &expected, "inprocess-stall");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(30),
            "seed {seed}: never-hang bound blown: {elapsed:?}"
        );
        let stats = s.inprocess_stats().expect("engine enabled");
        let fired = scope.fired(faults::site::INPROCESS_STALL);
        assert!(fired > 0, "seed {seed}: rounds must be reached");
        assert!(
            stats.aborted_rounds >= 1,
            "seed {seed}: a collapsed budget must abort at least one round \
             (aborted={}, fired={fired})",
            stats.aborted_rounds
        );
    }
}

#[test]
fn faulted_inprocessing_rounds_keep_audited_invariants() {
    // Both fault sites in one plan, with the checks feature's invariant
    // auditor running at every checkpoint if compiled in: a faulted round
    // must not leave occurrence/reconstruction state behind that the
    // auditor (or the final replay) would reject.
    let f = random_3sat(40, 170, 5);
    let expected = reference_verdict(&f);
    let _scope = faults::install(
        "inprocess-corrupt(at=1,times=2); inprocess-stall(at=3,times=2)"
            .parse()
            .expect("plan"),
    );
    let mut s = Solver::new(&f, inprocess_config());
    #[cfg(feature = "checks")]
    s.set_check_level(sat_solver::CheckLevel::Light);
    s.enable_proof();
    let got = s.solve();
    assert_compatible(&expected, &got, "mixed inprocess faults");
    s.audit_invariants(sat_solver::Checkpoint::PostInprocess)
        .expect("post-run invariant audit");
    if got.is_unsat() {
        let proof = s.take_proof().expect("proof enabled");
        check_proof(&f, &proof).expect("DRAT replay after mixed faults");
    }
}

#[test]
fn wall_clock_deadline_is_honored_sequentially() {
    let f = random_3sat(150, 640, 7);
    let deadline = Duration::from_millis(250);
    let mut solver = Solver::new(&f, SolverConfig::default());
    let start = Instant::now();
    let result = solver.solve_with_budget(Budget::wall_clock(deadline));
    let elapsed = start.elapsed();
    if result.is_unknown() {
        assert_eq!(solver.stop_cause(), Some(StopCause::Deadline));
        // The acceptance bound: cooperative checks at conflict and
        // decision boundaries keep the overshoot well under 100ms.
        assert!(
            elapsed < deadline + Duration::from_millis(100),
            "deadline overshoot: {elapsed:?}"
        );
        // Stats survive exhaustion intact.
        assert!(solver.stats().decisions > 0);
    } else {
        // Legitimately solved before the deadline — fine, but it must
        // not have taken longer than the budget allowed.
        assert!(elapsed < deadline + Duration::from_millis(100));
    }
}

#[test]
fn memory_ceiling_yields_unknown_with_intact_stats() {
    let f = random_3sat(120, 511, 5);
    // A ceiling just above the pre-search footprint lets the search run
    // until learned clauses push past it, so exhaustion happens with
    // real statistics on the books.
    let baseline = Solver::new(&f, SolverConfig::default()).approx_memory_bytes();
    let mut solver = Solver::new(&f, SolverConfig::default());
    let result = solver.solve_with_budget(Budget::memory_bytes(baseline + 512));
    assert!(result.is_unknown(), "tight ceiling must stop the search");
    assert_eq!(solver.stop_cause(), Some(StopCause::Memory));
    assert!(solver.approx_memory_bytes() > baseline);
    assert!(solver.stats().conflicts > 0, "stats survive exhaustion");
}

// ---------------------------------------------------------------------
// CLI-level faults, exercised through the real `rsat` binary (built with
// the same `faults` feature as this test).

fn rsat() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rsat"));
    // Never inherit a plan from the test environment by accident.
    cmd.env_remove(faults::ENV_VAR);
    cmd
}

fn write_cnf(name: &str, f: &Cnf) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rsat-chaos-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, cnf::to_dimacs_string(f)).expect("write cnf");
    path
}

#[test]
fn rsat_reports_injected_dimacs_read_fault_and_exits_one() {
    let path = write_cnf("dimacs-io.cnf", &random_3sat(30, 128, 3));
    for (via_env, seed) in [(false, 1u64), (true, 2), (false, 3)] {
        let mut cmd = rsat();
        cmd.arg(&path);
        if via_env {
            cmd.env(faults::ENV_VAR, "dimacs-io(after=8)");
        } else {
            cmd.arg("--fault-plan=dimacs-io(after=8)");
        }
        let out = cmd.output().expect("spawn rsat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "seed {seed}: {stderr}");
        assert!(stderr.contains("rsat:"), "diagnostic expected: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "must be a diagnostic, not a panic: {stderr}"
        );
    }
}

#[test]
fn rsat_reports_truncated_proof_write_and_exits_one() {
    // Mid-write failure on the DRAT stream must be an explicit error —
    // a silently short proof would defeat downstream checking.
    let unsat = {
        let mut f = Cnf::new(3);
        for c in [[1, 2], [1, -2], [-1, 3], [-1, -3]] {
            f.add_dimacs(&c);
        }
        f.add_dimacs(&[2, -3]);
        f.add_dimacs(&[-2, 3]);
        f
    };
    assert!(reference_verdict(&unsat).is_unsat());
    let path = write_cnf("drat-truncate.cnf", &unsat);
    let proof = std::env::temp_dir().join("rsat-chaos-tests/truncated.drat");
    let out = rsat()
        .arg(&path)
        .arg("--proof")
        .arg(&proof)
        .arg("--fault-plan=drat-truncate(after=4)")
        .output()
        .expect("spawn rsat");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed to write proof"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Pigeonhole `php(pigeons, holes)`: UNSAT for `pigeons > holes`, with
/// enough conflicts/restarts that inprocessing rounds actually fire.
fn pigeonhole(pigeons: u32, holes: u32) -> Cnf {
    let mut f = Cnf::new(pigeons * holes);
    let var = |p: u32, h: u32| (p * holes + h + 1) as i32;
    for p in 0..pigeons {
        let clause: Vec<i32> = (0..holes).map(|h| var(p, h)).collect();
        f.add_dimacs(&clause);
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in (p + 1)..pigeons {
                f.add_dimacs(&[-var(p, h), -var(q, h)]);
            }
        }
    }
    f
}

#[test]
fn rsat_inprocess_proof_truncation_sweep_always_errors() {
    // Inprocessing adds delete lines (subsumed/strengthened/eliminated
    // clauses) to the DRAT stream. Sweep the truncation point across the
    // whole proof — early (inside the header adds), mid (inside the new
    // delete lines), late (near the empty clause) — and require the same
    // contract at every cut: exit 1 with a diagnostic, never a silently
    // short proof, never a panic.
    let path = write_cnf("inprocess-truncate.cnf", &pigeonhole(6, 5));
    let proof = std::env::temp_dir().join("rsat-chaos-tests/inprocess-truncated.drat");

    // Control run: no fault. The proof must land complete, verified, and
    // actually contain inprocessing work (rounds fired, delete lines).
    let out = rsat()
        .arg(&path)
        .arg("--inprocess=1")
        .arg("--proof")
        .arg(&proof)
        .arg("--check")
        .output()
        .expect("spawn rsat");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(20), "{stdout}");
    assert!(
        stdout.contains("c proof VERIFIED by the built-in RUP checker"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("c inprocess rounds 0 "),
        "rounds must fire on the control run: {stdout}"
    );
    let drat = std::fs::read_to_string(&proof).expect("control proof written");
    let deletes = drat.lines().filter(|l| l.starts_with("d ")).count();
    assert!(deletes > 0, "inprocessing must emit delete lines");

    for after in [4u64, 64, 512, 4096] {
        assert!(
            (after as usize) < drat.len(),
            "truncation point {after} must cut the {}-byte proof short",
            drat.len()
        );
        let out = rsat()
            .arg(&path)
            .arg("--inprocess=1")
            .arg("--proof")
            .arg(&proof)
            .arg(format!("--fault-plan=drat-truncate(after={after})"))
            .output()
            .expect("spawn rsat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "after={after}: {stderr}");
        assert!(
            stderr.contains("failed to write proof"),
            "after={after}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "after={after}: {stderr}");
    }
}

#[test]
fn rsat_timeout_flag_yields_unknown_within_bound() {
    let path = write_cnf("timeout.cnf", &random_3sat(150, 640, 13));
    let start = Instant::now();
    let out = rsat()
        .arg(&path)
        .arg("--timeout")
        .arg("0.25")
        .output()
        .expect("spawn rsat");
    let elapsed = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        elapsed < Duration::from_secs(5),
        "never hang past the deadline: {elapsed:?}"
    );
    if stdout.contains("s UNKNOWN") {
        assert_eq!(out.status.code(), Some(0), "{stdout}");
        assert!(stdout.contains("c stop: deadline"), "{stdout}");
    } else {
        // Solved inside the budget; statistics must still be present.
        assert!(stdout.contains("c decisions"), "{stdout}");
    }
}

#[test]
fn rsat_mem_limit_flag_yields_unknown_with_stop_cause() {
    let path = write_cnf("mem-limit.cnf", &random_3sat(50, 215, 17));
    let out = rsat()
        .arg(&path)
        .arg("--mem-limit")
        .arg("0")
        .output()
        .expect("spawn rsat");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("s UNKNOWN"), "{stdout}");
    assert!(stdout.contains("c stop: memory"), "{stdout}");
}

#[test]
fn rsat_rejects_malformed_fault_plan_politely() {
    let path = write_cnf("bad-plan.cnf", &random_3sat(10, 42, 23));
    // A misspelt site would arm nothing, so it is refused up front like a
    // syntax error instead of running a fault-free "chaos" test.
    for (plan, why) in [
        ("???(", "invalid fault plan"),
        ("drat-truncation(after=4)", "unknown fault site"),
    ] {
        let out = rsat()
            .arg(&path)
            .arg(format!("--fault-plan={plan}"))
            .output()
            .expect("spawn rsat");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("rsat:"), "{stderr}");
        assert!(stderr.contains(why), "{plan}: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
