//! Live-metrics integration. Unlike `tests/trace.rs` this suite builds in
//! every feature combination: with `metrics` off it proves arming refuses
//! and recording is inert; with `metrics` on it proves that arming the
//! registry does not perturb the search (stats stay byte-identical) and
//! that the registry's counters agree with the solver's own statistics.

use sat_solver::{Solver, SolverConfig, SolverStats, SolverTelemetry};
use std::sync::Mutex;
use telemetry::json::ToJson;
use telemetry::metrics::{self, Counter};
use telemetry::Phase;

/// The registry's armed flag is process-global; tests that arm it must
/// not overlap.
static METRICS_LOCK: Mutex<()> = Mutex::new(());

/// A pigeonhole formula (n pigeons, n-1 holes): small but conflict-rich,
/// so every counter and phase timer fires.
fn php(pigeons: u32, holes: u32) -> cnf::Cnf {
    let mut f = cnf::Cnf::new(0);
    let var = |p: u32, h: u32| (p * holes + h + 1) as i32;
    for p in 0..pigeons {
        f.add_dimacs(&(0..holes).map(|h| var(p, h)).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                f.add_dimacs(&[-var(p1, h), -var(p2, h)]);
            }
        }
    }
    f
}

fn busy_config() -> SolverConfig {
    SolverConfig {
        reduce_init: 5,
        reduce_inc: 5,
        ..SolverConfig::default()
    }
}

fn solve_sequential(armed: bool) -> (bool, SolverStats) {
    if armed {
        assert!(metrics::arm());
    }
    let f = php(6, 5);
    let mut solver = Solver::new(&f, busy_config());
    let result = solver.solve();
    if armed {
        metrics::disarm();
    }
    (result.is_unsat(), *solver.stats())
}

#[test]
fn feature_gate_matches_build() {
    assert_eq!(metrics::enabled(), cfg!(feature = "metrics"));
    if !metrics::enabled() {
        // Arming must refuse, and recording must stay inert.
        assert!(!metrics::arm());
        metrics::add(Counter::Propagations, 123);
        assert_eq!(metrics::snapshot().counter(Counter::Propagations), 0);
    }
}

#[test]
fn disarmed_solve_leaves_the_registry_empty() {
    let _guard = METRICS_LOCK.lock().unwrap();
    metrics::disarm();
    let before = metrics::snapshot();
    let (unsat, _) = solve_sequential(false);
    assert!(unsat);
    let after = metrics::snapshot();
    assert_eq!(
        before.counter(Counter::Conflicts),
        after.counter(Counter::Conflicts),
        "a disarmed solve must not touch the registry"
    );
}

#[test]
fn arming_metrics_does_not_perturb_the_search() {
    let _guard = METRICS_LOCK.lock().unwrap();
    let (bare_unsat, bare_stats) = solve_sequential(false);
    if !metrics::enabled() {
        // metrics-off build: the "armed" run is literally the same code
        // path, but pin the byte-identity claim anyway — it is the
        // acceptance contract for default builds.
        let (again_unsat, again_stats) = solve_sequential(false);
        assert!(bare_unsat && again_unsat);
        assert_eq!(
            bare_stats.to_json().to_string(),
            again_stats.to_json().to_string()
        );
        return;
    }
    let (armed_unsat, armed_stats) = solve_sequential(true);
    assert!(bare_unsat && armed_unsat);
    assert_eq!(
        bare_stats, armed_stats,
        "arming the metrics registry changed the solver's statistics"
    );
    assert_eq!(
        bare_stats.to_json().to_string(),
        armed_stats.to_json().to_string(),
        "serialized stats must be byte-identical with metrics armed"
    );
}

#[test]
fn registry_counters_agree_with_solver_stats() {
    let _guard = METRICS_LOCK.lock().unwrap();
    if !metrics::arm() {
        return; // metrics-off build: covered by feature_gate_matches_build
    }
    let f = php(6, 5);
    let mut solver = Solver::new(&f, busy_config());
    let result = solver.solve();
    let snap = metrics::snapshot();
    metrics::disarm();
    assert!(result.is_unsat());
    let stats = solver.stats();
    assert_eq!(snap.counter(Counter::Conflicts), stats.conflicts);
    assert_eq!(snap.counter(Counter::Decisions), stats.decisions);
    assert_eq!(snap.counter(Counter::LearnedClauses), stats.learned_clauses);
    assert_eq!(snap.counter(Counter::Restarts), stats.restarts);
    assert_eq!(snap.counter(Counter::Reductions), stats.reductions);
    assert_eq!(snap.counter(Counter::DeletedClauses), stats.deleted_clauses);
    // Propagations are deltas captured around the search loop's BCP call;
    // the solver also propagates outside the loop (e.g. while loading
    // units), so the registry may lag slightly — never lead.
    assert!(snap.counter(Counter::Propagations) <= stats.propagations);
    assert!(snap.counter(Counter::Propagations) > 0);
    // Phase meters fired, and their clock totals are plausible.
    assert!(snap.counter(Counter::PropagateCalls) > 0);
    // Every learned clause came out of exactly one analyze call (the final
    // level-0 conflict ends the search without analyzing).
    assert_eq!(snap.counter(Counter::AnalyzeCalls), stats.learned_clauses);
    assert!(snap.counter(Counter::PropagateNanos) > 0);

    // Again with the telemetry recorder installed and inprocessing on, so
    // every metered phase fires, and with the tracer armed too when the
    // build has it: all three consumers of the recorder at once.
    let config = SolverConfig {
        inprocess: true,
        inprocess_interval: 1,
        ..busy_config()
    };
    let mut bare = Solver::new(&f, config.clone());
    assert!(bare.solve().is_unsat());
    assert!(metrics::arm());
    telemetry::trace::arm(0);
    let mut solver = Solver::new(&f, config);
    solver.set_telemetry(SolverTelemetry::new("php-6-5"));
    let result = solver.solve();
    let snap = metrics::snapshot();
    metrics::disarm();
    telemetry::trace::disarm();
    assert!(result.is_unsat());
    assert_eq!(
        bare.stats().to_json().to_string(),
        solver.stats().to_json().to_string(),
        "stats must be byte-identical with the recorder, metrics and trace on"
    );
    let phases = *solver.telemetry().expect("recorder installed").phases();
    assert!(phases.calls(Phase::Inprocess) > 0);
    for (phase, calls) in [
        (Phase::Propagate, Counter::PropagateCalls),
        (Phase::Analyze, Counter::AnalyzeCalls),
        (Phase::Reduce, Counter::ReduceCalls),
        (Phase::Inprocess, Counter::InprocessCalls),
    ] {
        assert_eq!(phases.calls(phase), snap.counter(calls), "{phase:?}");
    }
}
