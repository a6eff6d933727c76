//! Golden-file tests pinning the JSONL event schema.
//!
//! Every event line carries `schema_version` (currently 2) and an `event`
//! discriminator; the field names below are a compatibility contract with
//! external consumers. Changing any rendered string here requires bumping
//! [`SCHEMA_VERSION`] and updating the stability note in README.md.

use std::time::Duration;
use telemetry::json::{FromJson, Json, ToJson};
use telemetry::{Event, Phase, RequestRecord, RunRecord, SCHEMA_VERSION};

#[test]
fn schema_version_is_pinned() {
    assert_eq!(SCHEMA_VERSION, 2);
}

#[test]
fn solve_start_event_golden() {
    let event = Event::SolveStart {
        instance_id: "php-6-5".to_string(),
        policy: "prop-freq".to_string(),
        num_vars: 30,
        num_clauses: 81,
    };
    assert_eq!(
        event.to_json().to_string(),
        r#"{"schema_version":2,"event":"solve_start","instance_id":"php-6-5","policy":"prop-freq","num_vars":30,"num_clauses":81}"#
    );
}

#[test]
fn progress_event_golden() {
    let event = Event::Progress {
        conflicts: 1000,
        propagations: 50000,
        decisions: 1500,
        learned: 400,
        elapsed_s: 0.5,
        conflicts_per_sec: 2000.0,
        propagations_per_sec: 100000.0,
    };
    assert_eq!(
        event.to_json().to_string(),
        r#"{"schema_version":2,"event":"progress","conflicts":1000,"propagations":50000,"decisions":1500,"learned":400,"elapsed_s":0.5,"conflicts_per_sec":2000.0,"propagations_per_sec":100000.0}"#
    );
}

#[test]
fn reduction_event_golden() {
    let event = Event::Reduction {
        reduction_no: 3,
        candidates: 120,
        deleted: 60,
        learned_after: 80,
        conflicts: 900,
    };
    assert_eq!(
        event.to_json().to_string(),
        r#"{"schema_version":2,"event":"reduction","reduction_no":3,"candidates":120,"deleted":60,"learned_after":80,"conflicts":900}"#
    );
}

#[test]
fn solve_end_event_golden() {
    let mut record = RunRecord::new("php-6-5", "default");
    record.result = "UNSAT".to_string();
    record.solve_time_s = 0.25;
    record.inference_time_s = Some(0.125);
    record.peak_learned_clauses = 42;
    record
        .phases
        .add(Phase::Propagate, Duration::from_nanos(1500));
    record.phases.add(Phase::Analyze, Duration::from_nanos(500));
    record.stats = Json::object().with("conflicts", Json::from(77u64));
    record.extra = Json::object().with("note", Json::from("golden"));
    let event = Event::SolveEnd { record };
    assert_eq!(
        event.to_json().to_string(),
        r#"{"schema_version":2,"event":"solve_end","record":{"schema_version":2,"instance_id":"php-6-5","policy":"default","result":"UNSAT","solve_time_s":0.25,"inference_time_s":0.125,"peak_learned_clauses":42,"phases":{"propagate":{"nanos":1500,"calls":1},"analyze":{"nanos":500,"calls":1}},"stats":{"conflicts":77},"extra":{"note":"golden"},"degradations":[]}}"#
    );
}

#[test]
fn request_end_event_golden() {
    let mut record = RequestRecord::new(42, 7);
    record.worker = 1;
    record.queue_wait_ms = 2.5;
    record.solve_ms = 40.0;
    record.verdict = "unknown".to_string();
    record.stop_cause = Some("deadline".to_string());
    record.stats = Json::object().with("conflicts", Json::from(77u64));
    record.degrade("daemon-degraded", "deadline");
    let event = Event::RequestEnd { record };
    assert_eq!(
        event.to_json().to_string(),
        r#"{"schema_version":2,"event":"request_end","record":{"schema_version":2,"request_id":42,"session":7,"worker":1,"queue_wait_ms":2.5,"solve_ms":40.0,"verdict":"unknown","stop_cause":"deadline","error_kind":null,"stats":{"conflicts":77},"degradations":[{"kind":"daemon-degraded","detail":"deadline"}]}}"#
    );
    let line = event.to_json().to_string();
    let parsed = Event::from_json(&Json::parse(&line).expect("parses")).expect("round-trips");
    assert_eq!(parsed, event);
}

#[test]
fn error_request_record_golden() {
    let mut record = RequestRecord::new(9, 3);
    record.verdict = "error".to_string();
    record.error_kind = Some("crashed".to_string());
    assert_eq!(
        record.to_json().to_string(),
        r#"{"schema_version":2,"request_id":9,"session":3,"worker":0,"queue_wait_ms":0.0,"solve_ms":0.0,"verdict":"error","stop_cause":null,"error_kind":"crashed","stats":{},"degradations":[]}"#
    );
    let parsed = RequestRecord::from_json(&record.to_json()).expect("round-trips");
    assert_eq!(parsed, record);
}

#[test]
fn degraded_record_golden() {
    let mut record = RunRecord::new("race-w2", "prop-freq");
    record.result = "UNKNOWN".to_string();
    record.degrade("worker-crash", "injected worker panic");
    record.degrade("budget-exhausted", "deadline");
    assert_eq!(
        record.to_json().to_string(),
        r#"{"schema_version":2,"instance_id":"race-w2","policy":"prop-freq","result":"UNKNOWN","solve_time_s":0.0,"inference_time_s":null,"peak_learned_clauses":0,"phases":{},"stats":{},"extra":{},"degradations":[{"kind":"worker-crash","detail":"injected worker panic"},{"kind":"budget-exhausted","detail":"deadline"}]}"#
    );
    let parsed = RunRecord::from_json(&record.to_json()).expect("round-trips");
    assert_eq!(parsed, record);
}

#[test]
fn version_one_record_without_degradations_still_parses() {
    let line = r#"{"schema_version":1,"instance_id":"old","policy":"default","result":"SAT","solve_time_s":0.5,"inference_time_s":null,"peak_learned_clauses":3,"phases":{},"stats":{},"extra":{}}"#;
    let parsed = RunRecord::from_json(&Json::parse(line).expect("parses")).expect("compatible");
    assert!(parsed.degradations.is_empty());
    assert_eq!(parsed.schema_version, 1);
}

#[test]
fn golden_lines_parse_back() {
    for line in [
        r#"{"schema_version":2,"event":"solve_start","instance_id":"x","policy":"default","num_vars":1,"num_clauses":1}"#,
        r#"{"schema_version":2,"event":"progress","conflicts":1,"propagations":2,"decisions":3,"learned":4,"elapsed_s":0.5,"conflicts_per_sec":2.0,"propagations_per_sec":4.0}"#,
        r#"{"schema_version":2,"event":"reduction","reduction_no":1,"candidates":2,"deleted":1,"learned_after":1,"conflicts":5}"#,
    ] {
        let value = Json::parse(line).expect("golden line parses");
        let event = Event::from_json(&value).expect("golden line is a known event");
        assert_eq!(event.to_json().to_string(), line, "round-trip is lossless");
    }
}

#[test]
fn metrics_snapshot_golden() {
    use telemetry::metrics::{Counter, Gauge, MetricsSnapshot};

    let mut counters = vec![0u64; Counter::ALL.len()];
    let mut set = |c: Counter, v: u64| counters[c as usize] = v;
    set(Counter::Propagations, 100_000);
    set(Counter::Conflicts, 250);
    set(Counter::Decisions, 900);
    set(Counter::Restarts, 3);
    set(Counter::Reductions, 2);
    set(Counter::LearnedClauses, 240);
    set(Counter::DeletedClauses, 120);
    set(Counter::PropagateNanos, 5_000_000);
    set(Counter::PropagateCalls, 1_150);
    set(Counter::AnalyzeNanos, 2_000_000);
    set(Counter::AnalyzeCalls, 250);
    set(Counter::ReduceNanos, 300_000);
    set(Counter::ReduceCalls, 2);
    set(Counter::InprocessNanos, 400_000);
    set(Counter::InprocessCalls, 3);
    set(Counter::InprocessSubsumed, 18);
    set(Counter::InprocessStrengthened, 7);
    set(Counter::InprocessEliminated, 2);
    set(Counter::Inferences, 4);
    set(Counter::InferenceNanos, 8_000_000);
    let mut gauges = vec![f64::NAN; Gauge::ALL.len()];
    gauges[Gauge::MemoryBytes as usize] = 1_048_576.0;
    // Gauge::LiveLearned stays unset: it must be absent from the output.
    gauges[Gauge::InferenceLastSeconds as usize] = 0.002;
    gauges[Gauge::PolicyConfidence as usize] = 0.875;
    let snap = MetricsSnapshot::from_parts(3, 1.5, counters, gauges);

    let mut prev_counters = vec![0u64; Counter::ALL.len()];
    prev_counters[Counter::Propagations as usize] = 50_000;
    prev_counters[Counter::Conflicts as usize] = 150;
    prev_counters[Counter::LearnedClauses as usize] = 140;
    let prev = MetricsSnapshot::from_parts(2, 0.5, prev_counters, Vec::new());

    assert_eq!(
        snap.to_json_line(Some(&prev)).to_string(),
        r#"{"schema_version":2,"event":"metrics_snapshot","seq":3,"elapsed_s":1.5,"counters":{"solver.propagations":100000,"solver.conflicts":250,"solver.decisions":900,"solver.restarts":3,"solver.reductions":2,"solver.learned_clauses":240,"solver.deleted_clauses":120,"phase.propagate_ns":5000000,"phase.propagate_calls":1150,"phase.analyze_ns":2000000,"phase.analyze_calls":250,"phase.reduce_ns":300000,"phase.reduce_calls":2,"phase.inprocess_ns":400000,"phase.inprocess_calls":3,"inprocess.subsumed":18,"inprocess.strengthened":7,"inprocess.eliminated_vars":2,"pipeline.inferences":4,"pipeline.inference_ns":8000000,"daemon.admitted":0,"daemon.rejected":0,"daemon.evicted":0,"daemon.crashed":0,"daemon.deadline_exceeded":0,"daemon.completed":0},"gauges":{"solver.memory_bytes":1048576.0,"pipeline.inference_last_s":0.002,"pipeline.policy_confidence":0.875},"rates":{"solver.propagations_per_sec":50000.0,"solver.conflicts_per_sec":100.0,"solver.learned_clauses_per_sec":100.0}}"#
    );

    // Without a previous snapshot (the sampler's first line, and the
    // ToJson impl) `rates` is present but empty.
    let first = snap.to_json_line(None).to_string();
    assert!(first.ends_with(r#""rates":{}}"#), "{first}");
    assert_eq!(snap.to_json().to_string(), first);

    // The line is self-describing JSON that parses back.
    let parsed = Json::parse(&first).expect("snapshot line parses");
    assert_eq!(
        parsed.get("event").and_then(Json::as_str),
        Some("metrics_snapshot")
    );
    assert_eq!(
        parsed
            .get("counters")
            .and_then(|c| c.get("solver.propagations"))
            .and_then(Json::as_u64),
        Some(100_000)
    );
}
