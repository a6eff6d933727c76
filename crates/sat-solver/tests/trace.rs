//! Span-tracing integration (only built with `--features trace`): a
//! traced solve must export valid Chrome trace-event JSON carrying the
//! solver's phase spans, and arming the tracer must not perturb the
//! search — the solver's stats are identical with tracing on and off.
//! (Multi-lane traces, one lane per pool worker, are covered by `rsatd`'s
//! `observability::trace_out_writes_worker_span_lanes`.)

#![cfg(feature = "trace")]

use sat_solver::{Solver, SolverConfig, SolverStats};
use std::sync::Mutex;
use telemetry::json::Json;
use telemetry::trace;

/// The tracer's armed flag is process-global; tests that arm it must not
/// overlap.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A pigeonhole formula (n pigeons, n-1 holes): small but conflict-rich,
/// so propagate/analyze/minimize/reduce spans all fire.
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
        trace::arm(0);
    }
    let f = php(6, 5);
    let mut solver = Solver::new(&f, busy_config());
    let result = solver.solve();
    if armed {
        trace::disarm();
        let _ = trace::drain();
    }
    (result.is_unsat(), *solver.stats())
}

#[test]
fn arming_the_tracer_does_not_perturb_the_search() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let (bare_unsat, bare_stats) = solve_sequential(false);
    let (traced_unsat, traced_stats) = solve_sequential(true);
    assert!(bare_unsat && traced_unsat);
    assert_eq!(
        bare_stats, traced_stats,
        "recording spans changed the solver's statistics"
    );
}

#[test]
fn sequential_trace_round_trips_as_chrome_json() {
    let _guard = TRACE_LOCK.lock().unwrap();
    trace::arm(0);
    let f = php(6, 5);
    let mut solver = Solver::new(&f, busy_config());
    let result = {
        // The caller's envelope span, as `rsat --trace-out` opens it.
        let _solve = trace::span("solve");
        solver.solve()
    };
    assert!(result.is_unsat());
    trace::disarm();

    let logs = trace::drain();
    assert!(
        logs.iter().any(|l| !l.events.is_empty()),
        "the solving thread recorded nothing"
    );

    // The export must survive a serialize→parse round trip and look like a
    // Chrome trace: a traceEvents array whose entries all carry ph/pid/ts.
    let doc = trace::chrome_trace(&logs);
    let text = doc.to_string();
    let parsed = Json::parse(&text).expect("exporter emitted invalid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut span_names = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph field");
        assert!(ev.get("pid").and_then(Json::as_u64).is_some(), "pid field");
        match ph {
            "X" => {
                assert!(ev.get("dur").and_then(Json::as_f64).is_some());
                span_names.push(ev.get("name").and_then(Json::as_str).unwrap_or(""));
            }
            "i" | "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
        if ph != "M" {
            assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "ts field");
        }
    }
    // A conflict-rich UNSAT instance exercises the envelope and the
    // solver's phase spans.
    for name in ["solve", "propagate", "analyze", "reduce"] {
        assert!(span_names.contains(&name), "{name} missing: {span_names:?}");
    }
}
