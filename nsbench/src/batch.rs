//! The batch workloads (`solve-hard`, `select-large`, `certify-unsat`):
//! one thread, closed loop, one DIMACS formula per request, every answer
//! checked before the next request starts.

use crate::inputs::{Instance, Workload};
use crate::oracle::{self, Checked};
use crate::spans::Recorder;
use neuroselect::{Classifier, NeuroSelectSolver, PolicyKind, PolicySource};
use sat_solver::{check_proof, Budget, SolveResult, Solver, SolverConfig, SolverTelemetry};
use std::time::Duration;
use telemetry::Phase;

/// Every request's wall-clock deadline.
pub const DEADLINE: Duration = Duration::from_secs(10);

/// The solver phases `SolverTelemetry` times, with their counter names.
pub const SOLVER_PHASES: [(Phase, &str); 6] = [
    (Phase::Propagate, "solver.propagate_ns"),
    (Phase::Analyze, "solver.analyze_ns"),
    (Phase::Minimize, "solver.minimize_ns"),
    (Phase::Reduce, "solver.reduce_ns"),
    (Phase::Restart, "solver.restart_ns"),
    (Phase::Inprocess, "solver.inprocess_ns"),
];

/// How a request that was not wrong ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A checked verdict.
    Answered,
    /// Unknown/deadline verdict or a degraded policy pick.
    Failed,
}

/// Pool size per batch workload: enough distinct inputs that a run seldom
/// repeats one.
pub fn pool_size(workload: Workload) -> usize {
    match workload {
        Workload::SolveHard => 960,
        Workload::SelectLarge => 240,
        Workload::CertifyUnsat => 960,
        Workload::ServeIncremental => 0,
    }
}

fn parse(rec: &mut Recorder, inst: &Instance) -> Result<cnf::Cnf, String> {
    let span = rec.enter("cnf.parse");
    let parsed = cnf::parse_dimacs_str(&inst.dimacs);
    rec.exit(span);
    rec.add("cnf.bytes", inst.dimacs.len() as f64);
    parsed.map_err(|e| format!("{}: {e}", inst.name))
}

fn outcome(checked: Checked, degraded: bool) -> Outcome {
    if checked == Checked::Unknown || degraded {
        Outcome::Failed
    } else {
        Outcome::Answered
    }
}

fn wrong(inst: &Instance, why: String) -> String {
    format!("wrong answer on {}: {why}", inst.name)
}

/// One untraced request of `solve-hard` or `select-large`: the product
/// path `parse_dimacs_str` → `NeuroSelectSolver::solve_recorded` → check.
///
/// # Errors
///
/// Returns a description of a wrong answer or an unparsable input.
pub fn solve(solver: &NeuroSelectSolver, inst: &Instance) -> Result<Outcome, String> {
    let formula = cnf::parse_dimacs_str(&inst.dimacs).map_err(|e| format!("{}: {e}", inst.name))?;
    let out = solver.solve_recorded(&formula, Budget::wall_clock(DEADLINE), &inst.name, None);
    let checked = oracle::check(&formula, inst.status, &out.result).map_err(|e| wrong(inst, e))?;
    let degraded = out.source != PolicySource::Model || !out.degradations.is_empty();
    Ok(outcome(checked, degraded))
}

/// Picks the policy inside a `core.select` span and counts the pick.
fn select(
    rec: &mut Recorder,
    solver: &NeuroSelectSolver,
    formula: &cnf::Cnf,
) -> (PolicyKind, bool) {
    let span = rec.enter("core.select");
    let (decision, _) = solver.decide_policy(formula);
    rec.exit(span);
    let degraded = decision.source != PolicySource::Model || !decision.degradations.is_empty();
    rec.add("core.selects", 1.0);
    rec.add(
        "core.propfreq",
        f64::from(u8::from(decision.policy == PolicyKind::PropFreq)),
    );
    rec.add("core.degraded", f64::from(u8::from(degraded)));
    (decision.policy, degraded)
}

/// Builds the solver for `policy` inside a `solver.build` span, with
/// telemetry installed when tracing.
fn build(rec: &mut Recorder, formula: &cnf::Cnf, policy: PolicyKind, name: &str) -> Solver {
    let span = rec.enter("solver.build");
    let mut solver = Solver::new(formula, SolverConfig::with_policy(policy));
    if rec.enabled() {
        solver.set_telemetry(SolverTelemetry::new(name));
    }
    rec.exit(span);
    solver
}

/// Runs the search inside a `solver.search` span and records its counters.
fn search(rec: &mut Recorder, solver: &mut Solver) -> SolveResult {
    let span = rec.enter("solver.search");
    let result = solver.solve_with_budget(Budget::wall_clock(DEADLINE));
    rec.exit(span);
    if rec.enabled() {
        let stats = *solver.stats();
        rec.add("solver.propagations", stats.propagations as f64);
        rec.add("solver.conflicts", stats.conflicts as f64);
        rec.add("solver.decisions", stats.decisions as f64);
        rec.add("solver.deleted_clauses", stats.deleted_clauses as f64);
        if let Some(t) = solver.telemetry() {
            for (phase, counter) in SOLVER_PHASES {
                rec.add(counter, t.phases().elapsed(phase).as_nanos() as f64);
            }
        }
    }
    result
}

/// Re-runs feature extraction and the forward pass on `formula` outside
/// the request span, splitting `core.select` into extract, forward and
/// fallback-ladder time without perturbing the request's own timing.
fn split_select(rec: &mut Recorder, solver: &NeuroSelectSolver, formula: &cnf::Cnf) {
    let classifier = solver.classifier();
    let span = rec.enter("sat_graph.extract");
    let prepared = classifier.prepare(formula);
    rec.exit(span);
    rec.add("sat_graph.edges", prepared.to_clause.nnz() as f64);
    let span = rec.enter("neuro.forward");
    std::hint::black_box(classifier.predict_timed(&prepared));
    rec.exit(span);
}

/// One traced request of `solve-hard` or `select-large`: the same work as
/// [`solve`], called layer by layer so each layer gets its own span.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_traced(
    rec: &mut Recorder,
    id: u64,
    solver: &NeuroSelectSolver,
    inst: &Instance,
) -> Result<Outcome, String> {
    let request = rec.begin_request(id);
    let formula = parse(rec, inst)?;
    let (policy, degraded) = select(rec, solver, &formula);
    let mut sat = build(rec, &formula, policy, &inst.name);
    let result = search(rec, &mut sat);
    let span = rec.enter("cnf.verify");
    let checked = oracle::check(&formula, inst.status, &result);
    rec.exit(span);
    rec.end_request(request);
    let checked = checked.map_err(|e| wrong(inst, e))?;
    split_select(rec, solver, &formula);
    Ok(outcome(checked, degraded))
}

/// One `certify-unsat` request, traced or not (`rec` disabled): parse →
/// `decide_policy` → `Solver::new` + `enable_proof` + solve → DRAT text
/// into a buffer → `check_proof`. An UNSAT verdict whose proof fails to
/// check is a wrong answer.
///
/// # Errors
///
/// Returns a description of a wrong answer or an unparsable input.
pub fn certify(
    rec: &mut Recorder,
    id: u64,
    solver: &NeuroSelectSolver,
    inst: &Instance,
) -> Result<Outcome, String> {
    let request = rec.begin_request(id);
    let formula = parse(rec, inst)?;
    let (policy, degraded) = select(rec, solver, &formula);
    let mut sat = build(rec, &formula, policy, &inst.name);
    sat.enable_proof();
    let result = search(rec, &mut sat);
    if result.is_unsat() {
        let proof = sat.take_proof().ok_or("proof logging was enabled")?;
        let span = rec.enter("proof.write");
        let mut drat = Vec::new();
        let written = proof.write_drat(&mut drat);
        rec.exit(span);
        written.map_err(|e| format!("{}: writing DRAT: {e}", inst.name))?;
        rec.add("proof.steps", proof.steps().len() as f64);
        rec.add("proof.drat_bytes", drat.len() as f64);
        let span = rec.enter("proof.check");
        let verified = check_proof(&formula, &proof);
        rec.exit(span);
        verified.map_err(|e| wrong(inst, format!("proof rejected: {e}")))?;
    }
    let span = rec.enter("cnf.verify");
    let checked = oracle::check(&formula, inst.status, &result);
    rec.exit(span);
    rec.end_request(request);
    let checked = checked.map_err(|e| wrong(inst, e))?;
    if rec.enabled() {
        split_select(rec, solver, &formula);
        // The same search without proof logging: the difference to the
        // request's search is the cost of logging.
        let mut plain = Solver::new(&formula, SolverConfig::with_policy(policy));
        plain.set_telemetry(SolverTelemetry::new(&inst.name));
        let started = std::time::Instant::now();
        let _ = plain.solve_with_budget(Budget::wall_clock(DEADLINE));
        rec.add("proof.off_search_ns", started.elapsed().as_nanos() as f64);
    }
    Ok(outcome(checked, degraded))
}
