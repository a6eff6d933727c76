//! Golden-file tests pinning the JSONL event schema.
//!
//! Every event line carries `schema_version` (currently 2) and an `event`
//! discriminator; the field names below are a compatibility contract with
//! external consumers. Renaming or removing a rendered field requires
//! bumping [`SCHEMA_VERSION`] and updating the stability note in README.md;
//! adding one does not. [`V2_KEYS`] lists the keys version 2 promises, so
//! a removal or rename without a bump fails here even where the byte-exact
//! goldens below are updated along with it.

use std::time::Duration;
use telemetry::json::{FromJson, Json, ToJson};
use telemetry::{Event, Phase, RequestRecord, RunRecord, SCHEMA_VERSION};

#[test]
fn schema_version_is_pinned() {
    assert_eq!(SCHEMA_VERSION, 2);
}

/// The keys each record and event renders at schema version 2. Adding a
/// key needs no bump; removing or renaming a listed one does, and the
/// bump replaces this list with the new version's.
const V2_KEYS: [(&str, &[&str]); 7] = [
    (
        "RunRecord",
        &[
            "schema_version",
            "instance_id",
            "policy",
            "result",
            "stop_cause",
            "solve_time_s",
            "inference_time_s",
            "peak_learned_clauses",
            "phases",
            "stats",
            "extra",
            "degradations",
        ],
    ),
    (
        "RequestRecord",
        &[
            "schema_version",
            "request_id",
            "session",
            "worker",
            "queue_wait_ms",
            "solve_ms",
            "verdict",
            "stop_cause",
            "error_kind",
            "stats",
            "degradations",
        ],
    ),
    (
        "solve_start",
        &[
            "schema_version",
            "event",
            "instance_id",
            "policy",
            "num_vars",
            "num_clauses",
        ],
    ),
    (
        "progress",
        &[
            "schema_version",
            "event",
            "conflicts",
            "propagations",
            "decisions",
            "learned",
            "elapsed_s",
            "conflicts_per_sec",
            "propagations_per_sec",
        ],
    ),
    (
        "reduction",
        &[
            "schema_version",
            "event",
            "reduction_no",
            "candidates",
            "deleted",
            "learned_after",
            "conflicts",
        ],
    ),
    ("solve_end", &["schema_version", "event", "record"]),
    ("request_end", &["schema_version", "event", "record"]),
];

#[test]
fn version_two_keys_are_all_rendered() {
    if SCHEMA_VERSION != 2 {
        return; // `schema_version_is_pinned` asks for this list's update
    }
    let run = RunRecord::new("x", "default");
    let request = RequestRecord::new(1, 1);
    let rendered = [
        ("RunRecord", run.to_json()),
        ("RequestRecord", request.to_json()),
        (
            "solve_start",
            Event::SolveStart {
                instance_id: String::new(),
                policy: String::new(),
                num_vars: 0,
                num_clauses: 0,
            }
            .to_json(),
        ),
        (
            "progress",
            Event::Progress {
                conflicts: 0,
                propagations: 0,
                decisions: 0,
                learned: 0,
                elapsed_s: 0.0,
                conflicts_per_sec: 0.0,
                propagations_per_sec: 0.0,
            }
            .to_json(),
        ),
        (
            "reduction",
            Event::Reduction {
                reduction_no: 0,
                candidates: 0,
                deleted: 0,
                learned_after: 0,
                conflicts: 0,
            }
            .to_json(),
        ),
        ("solve_end", Event::SolveEnd { record: run }.to_json()),
        (
            "request_end",
            Event::RequestEnd { record: request }.to_json(),
        ),
    ];
    for (name, keys) in V2_KEYS {
        let (_, json) = rendered
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no rendered sample of {name}"));
        for key in keys {
            assert!(
                json.get(key).is_some(),
                "{name} no longer renders `{key}`: a removed or renamed key needs a \
                 bump SCHEMA_VERSION (and this list rewritten for the new version)"
            );
        }
    }
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
        r#"{"schema_version":2,"event":"solve_end","record":{"schema_version":2,"instance_id":"php-6-5","policy":"default","result":"UNSAT","stop_cause":null,"solve_time_s":0.25,"inference_time_s":0.125,"peak_learned_clauses":42,"phases":{"propagate":{"nanos":1500,"calls":1},"analyze":{"nanos":500,"calls":1}},"stats":{"conflicts":77},"extra":{"note":"golden"},"degradations":[]}}"#
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
    let event = Event::RequestEnd { record };
    assert_eq!(
        event.to_json().to_string(),
        r#"{"schema_version":2,"event":"request_end","record":{"schema_version":2,"request_id":42,"session":7,"worker":1,"queue_wait_ms":2.5,"solve_ms":40.0,"verdict":"unknown","stop_cause":"deadline","error_kind":null,"stats":{"conflicts":77},"degradations":[]}}"#
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
    // What `solve_recorded` writes when inference panicked (the heuristic
    // picked instead) and the solve then hit its deadline.
    let mut record = RunRecord::new("miter-500", "prop-freq");
    record.result = "UNKNOWN".to_string();
    record.stop_cause = Some("deadline".to_string());
    record.degrade("inference-panic", "model inference panicked");
    assert_eq!(
        record.to_json().to_string(),
        r#"{"schema_version":2,"instance_id":"miter-500","policy":"prop-freq","result":"UNKNOWN","stop_cause":"deadline","solve_time_s":0.0,"inference_time_s":null,"peak_learned_clauses":0,"phases":{},"stats":{},"extra":{},"degradations":[{"kind":"inference-panic","detail":"model inference panicked"}]}"#
    );
    let parsed = RunRecord::from_json(&record.to_json()).expect("round-trips");
    assert_eq!(parsed, record);
}

#[test]
fn version_one_record_without_degradations_still_parses() {
    let line = r#"{"schema_version":1,"instance_id":"old","policy":"default","result":"SAT","solve_time_s":0.5,"inference_time_s":null,"peak_learned_clauses":3,"phases":{},"stats":{},"extra":{}}"#;
    let parsed = RunRecord::from_json(&Json::parse(line).expect("parses")).expect("compatible");
    assert!(parsed.degradations.is_empty());
    assert_eq!(parsed.stop_cause, None);
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
