//! Telemetry integration: recording must observe the search, never steer it.

use sat_solver::{Budget, Solver, SolverConfig, SolverStats, SolverTelemetry};
use std::time::Duration;
use telemetry::json::{FromJson, Json, ToJson};
use telemetry::{Event, JsonlSink, MemorySink, NullSink, Phase};

/// A pigeonhole formula (n pigeons, n-1 holes): small but conflict-rich,
/// so reductions, restarts, and minimization all fire.
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

fn solve_collecting(telemetry: Option<SolverTelemetry>) -> (bool, SolverStats) {
    let f = php(6, 5);
    let mut solver = Solver::new(&f, busy_config());
    if let Some(t) = telemetry {
        solver.set_telemetry(t);
    }
    let result = solver.solve();
    (result.is_unsat(), *solver.stats())
}

#[test]
fn telemetry_does_not_perturb_the_search() {
    let (bare_unsat, bare_stats) = solve_collecting(None);
    let (null_unsat, null_stats) = solve_collecting(Some(
        SolverTelemetry::new("php").with_sink(Box::new(NullSink)),
    ));
    let (mem_unsat, mem_stats) = solve_collecting(Some(
        SolverTelemetry::new("php")
            .with_sink(Box::new(MemorySink::default()))
            .with_progress(Duration::from_millis(1)),
    ));
    assert!(bare_unsat && null_unsat && mem_unsat);
    assert_eq!(
        bare_stats, null_stats,
        "NullSink telemetry changed the stats"
    );
    assert_eq!(bare_stats, mem_stats, "recording sink changed the stats");

    // A recorder installed and inprocessing every restart, so every phase
    // fires.
    let f = php(6, 5);
    let config = SolverConfig {
        inprocess: true,
        inprocess_interval: 1,
        ..busy_config()
    };
    let mut bare = Solver::new(&f, config.clone());
    assert!(bare.solve().is_unsat());
    let mut solver = Solver::new(&f, config);
    solver.set_telemetry(SolverTelemetry::new("php-6-5"));
    assert!(solver.solve().is_unsat());
    assert_eq!(
        bare.stats().to_json().to_string(),
        solver.stats().to_json().to_string(),
        "stats must be byte-identical with the recorder on"
    );
    let phases = solver.telemetry().expect("recorder installed").phases();
    assert!(phases.calls(Phase::Inprocess) > 0);
}

#[test]
fn event_stream_brackets_the_solve_and_matches_stats() {
    let f = php(6, 5);
    let sink = MemorySink::default();
    let events_handle = sink.events_handle();
    let mut solver = Solver::new(&f, busy_config());
    solver.set_telemetry(SolverTelemetry::new("php-6-5").with_sink(Box::new(sink)));
    assert!(solver.solve().is_unsat());
    let stats = *solver.stats();

    let events = events_handle.lock().unwrap().clone();
    assert!(matches!(events.first(), Some(Event::SolveStart { .. })));
    assert!(matches!(events.last(), Some(Event::SolveEnd { .. })));
    let reductions = events
        .iter()
        .filter(|e| matches!(e, Event::Reduction { .. }))
        .count() as u64;
    assert_eq!(reductions, stats.reductions);
    let deleted: u64 = events
        .iter()
        .map(|e| match e {
            Event::Reduction { deleted, .. } => *deleted,
            _ => 0,
        })
        .sum();
    assert_eq!(deleted, stats.deleted_clauses);

    let Some(Event::SolveStart {
        instance_id,
        policy,
        num_vars,
        num_clauses,
    }) = events.first()
    else {
        unreachable!()
    };
    assert_eq!(instance_id, "php-6-5");
    assert_eq!(policy, "default");
    assert_eq!(*num_vars, 30);
    assert_eq!(*num_clauses, 81); // 6 pigeon + 75 hole-exclusion clauses

    let Some(Event::SolveEnd { record }) = events.last() else {
        unreachable!()
    };
    assert_eq!(record.result, "UNSAT");
    assert_eq!(record.policy, "default");
    assert_eq!(
        SolverStats::from_json(&record.stats).unwrap(),
        stats,
        "record must embed the final stats"
    );
    assert!(record.peak_learned_clauses > 0);
    assert!(record.phases.calls(Phase::Propagate) > 0);
    // Every learned clause came out of exactly one analyze call (the final
    // level-0 conflict ends the search without analyzing).
    assert_eq!(record.phases.calls(Phase::Analyze), stats.learned_clauses);
    assert_eq!(record.phases.calls(Phase::Reduce), stats.reductions);
    assert_eq!(record.phases.calls(Phase::Restart), stats.restarts);
}

#[test]
fn record_says_why_a_solve_stopped() {
    let f = php(6, 5);
    let mut solver = Solver::new(&f, busy_config());
    solver.set_telemetry(SolverTelemetry::new("php-6-5"));
    assert!(solver.solve_with_budget(Budget::conflicts(10)).is_unknown());
    let record = solver.take_telemetry().unwrap().into_record().unwrap();
    assert_eq!(record.result, "UNKNOWN");
    assert_eq!(record.stop_cause.as_deref(), Some("conflicts"));
    assert_eq!(
        record.to_json().get("stop_cause").and_then(Json::as_str),
        Some("conflicts")
    );

    // A verdict carries no stop cause, even after an UNKNOWN solve.
    solver.set_telemetry(SolverTelemetry::new("php-6-5"));
    assert!(solver.solve().is_unsat());
    let record = solver.take_telemetry().unwrap().into_record().unwrap();
    assert_eq!(record.result, "UNSAT");
    assert_eq!(record.stop_cause, None);
    assert_eq!(record.to_json().get("stop_cause"), Some(&Json::Null));
}

#[test]
fn phase_times_are_disjoint_with_inprocessing() {
    // An inprocessing round runs inside a restart; counting it in both
    // phases would make the phases add up to more than the solve took.
    let f = php(8, 7);
    let mut solver = Solver::new(
        &f,
        SolverConfig {
            inprocess: true,
            inprocess_interval: 1,
            ..SolverConfig::default()
        },
    );
    solver.set_telemetry(SolverTelemetry::new("php-8-7"));
    assert!(solver.solve().is_unsat());
    let record = solver.take_telemetry().unwrap().into_record().unwrap();
    assert!(record.phases.calls(Phase::Inprocess) > 0);
    let phases_s = record.phases.total().as_secs_f64();
    // 1 µs of slack covers the f64 conversion of both sides.
    assert!(
        phases_s <= record.solve_time_s + 1e-6,
        "phases sum to {phases_s} s but the solve took {} s",
        record.solve_time_s
    );
}

#[test]
fn jsonl_stream_parses_line_by_line() {
    let f = php(5, 4);
    let mut solver = Solver::new(&f, busy_config());
    solver.set_telemetry(
        SolverTelemetry::new("php-5-4").with_sink(Box::new(JsonlSink::new(Vec::new()))),
    );
    assert!(solver.solve().is_unsat());
    // The sink is consumed by the solver; re-emit through a fresh recorder
    // to check the serialized form instead.
    let record = solver
        .take_telemetry()
        .unwrap()
        .into_record()
        .expect("record available");
    let line = Event::SolveEnd {
        record: record.clone(),
    }
    .to_json()
    .to_string();
    let parsed = Json::parse(&line).expect("valid JSON");
    assert_eq!(
        parsed.get("event").and_then(Json::as_str),
        Some("solve_end")
    );
    assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(u64::from(telemetry::SCHEMA_VERSION))
    );
    let Event::SolveEnd { record: reparsed } = Event::from_json(&parsed).unwrap() else {
        unreachable!()
    };
    assert_eq!(reparsed, record);
}
