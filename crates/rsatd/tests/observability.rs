//! Per-request observability: daemon-minted request ids on the wire,
//! terminal `RequestRecord` JSONL emission, and the join from each
//! solve's `RunRecord` to its request.
//!
//! The binary round-trip test spawns the real `rsatd` binary over stdio
//! with `--records-out`, drives a mixed batch of solves (including a
//! forced pre-admission rejection), and proves every reply's
//! `request_id` appears in exactly one record, each of which renders
//! exactly the fields `RequestRecord` pins.

use std::io::BufReader;
use std::process::{Command, Stdio};
use std::time::Duration;

use rsatd::{Client, ClientError, Daemon, DaemonConfig, Verdict};
use telemetry::json::{FromJson, Json, ToJson};
use telemetry::{Event, RequestRecord};

/// 3 variables, satisfiable, forced `x2 = true`; UNSAT under `-2`.
const SAT_CLAUSES: &[&[i64]] = &[&[1, 2], &[-1, 2], &[2, 3]];

fn sat_clauses() -> Vec<Vec<i64>> {
    SAT_CLAUSES.iter().map(|c| c.to_vec()).collect()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rsatd-observability-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

#[test]
fn binary_round_trips_request_ids_from_replies_to_records() {
    let records_path = temp_path("e2e");
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsatd"))
        .arg("--stdio")
        .arg("--records-out")
        .arg(&records_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn rsatd");
    let stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut client = Client::new(stdout, stdin);

    // 20 mixed solves across three sessions: every fourth flips to
    // UNSAT under the assumption `-2`.
    let sids: Vec<u64> = (0..3)
        .map(|_| client.open(3, false, &sat_clauses(), &[2]).expect("open"))
        .collect();
    let mut reply_ids = Vec::new();
    for i in 0..20usize {
        let sid = sids[i % sids.len()];
        let assumptions: &[i64] = if i % 4 == 3 { &[-2] } else { &[] };
        let reply = client.solve(sid, assumptions, None).expect("solve");
        let expected = if i % 4 == 3 { "unsat" } else { "sat" };
        assert_eq!(reply.verdict, expected, "solve {i}");
        assert!(reply.request_id > 0, "replies carry the daemon-minted id");
        reply_ids.push(reply.request_id);
    }

    // A forced rejection: an unknown session fails before admission,
    // with an explicit null request id on the error reply.
    let err = client
        .solve(9999, &[], None)
        .expect_err("unknown session is rejected");
    match err {
        ClientError::Daemon {
            ref kind,
            request_id,
            ..
        } => {
            assert_eq!(kind, "no-such-session");
            assert_eq!(
                request_id, None,
                "pre-admission errors carry request_id: null"
            );
        }
        other => panic!("expected a daemon error, got {other}"),
    }

    client.shutdown().expect("shutdown");
    drop(client);
    let status = child.wait().expect("child exits");
    assert!(status.success(), "rsatd exits cleanly: {status:?}");

    // Exactly one terminal record per admitted request, ids verbatim.
    let raw = std::fs::read_to_string(&records_path).expect("records written");
    assert!(raw.ends_with('\n'), "records end on a line boundary");
    let mut recorded: Vec<u64> = raw
        .lines()
        .map(|line| {
            let parsed = Json::parse(line).unwrap_or_else(|e| panic!("torn line {line:?}: {e}"));
            assert_eq!(
                parsed.get("event").and_then(Json::as_str),
                Some("request_end")
            );
            let record = parsed.get("record").expect("record body");
            // The binary writes the wire format the schema goldens pin:
            // no field missing, renamed or extra.
            let typed = RequestRecord::from_json(record).expect("a RequestRecord");
            assert_eq!(&typed.to_json(), record, "{line}");
            assert!(
                matches!(
                    record.get("verdict").and_then(Json::as_str),
                    Some("sat" | "unsat")
                ),
                "unexpected verdict in {line}"
            );
            record
                .get("request_id")
                .and_then(Json::as_u64)
                .expect("record id")
        })
        .collect();
    recorded.sort_unstable();
    let mut expected = reply_ids;
    expected.sort_unstable();
    assert_eq!(
        recorded, expected,
        "every reply id appears in exactly one record; the rejection in none"
    );
    let _ = std::fs::remove_file(&records_path);
}

/// `--mem-limit-mb` saturates at `u64::MAX` bytes instead of dropping
/// the high bits: 2^44 MiB is 2^64 bytes, which a plain shift wraps to a
/// zero cap that answers every `open` with `busy`.
#[test]
fn a_mem_limit_past_u64_bytes_is_no_cap() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsatd"))
        .args(["--stdio", "--mem-limit-mb", "17592186044416"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn rsatd");
    let stdin = child.stdin.take().unwrap();
    let stdout = BufReader::new(child.stdout.take().unwrap());
    let mut client = Client::new(stdout, stdin);

    let sid = client
        .open(3, false, &sat_clauses(), &[2])
        .expect("open is admitted under a saturated cap");
    let reply = client.solve(sid, &[], None).expect("solve");
    assert_eq!(reply.verdict, "sat");
    client.shutdown().expect("shutdown");
    drop(client);
    assert!(child.wait().expect("child exits").success());
}

#[test]
fn typed_api_reports_request_ids_and_records_errors() {
    // The typed SessionHandle path and error replies: a solve on a
    // crashed-or-missing session via submit_solve is rejected without
    // minting an id, while admitted solves get monotonically increasing
    // ids.
    let records_path = temp_path("typed");
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        request_records_path: Some(records_path.clone()),
        ..DaemonConfig::default()
    });
    let sid = daemon.open(3, false).unwrap();
    daemon.add_clauses(sid, &sat_clauses()).unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    let mut submitted = Vec::new();
    for _ in 0..3 {
        let tx = tx.clone();
        let rid = daemon
            .submit_solve(
                sid,
                vec![],
                None,
                Box::new(move |rid, outcome| {
                    let _ = tx.send((rid, outcome));
                }),
            )
            .expect("admitted");
        submitted.push(rid);
        // One at a time: the session admits a single in-flight solve.
        let (cb_rid, outcome) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(cb_rid, rid, "callback sees the id submit returned");
        assert_eq!(outcome.unwrap().request_id, rid, "reply carries the id");
    }
    assert!(
        submitted.windows(2).all(|w| w[0] < w[1]),
        "ids are monotonically increasing: {submitted:?}"
    );

    // Pre-admission rejection mints nothing.
    let err = daemon
        .submit_solve(424242, vec![], None, Box::new(|_, _| {}))
        .expect_err("unknown session");
    assert_eq!(err.kind(), "no-such-session");

    daemon.shutdown();
    let raw = std::fs::read_to_string(&records_path).unwrap();
    assert_eq!(raw.lines().count(), submitted.len());
    let _ = std::fs::remove_file(&records_path);
}

/// Pigeonhole PHP(holes+1, holes) as daemon clauses: always UNSAT, and at
/// holes = 8 far too hard to finish inside a 50 ms deadline.
fn php_clauses(holes: i64) -> Vec<Vec<i64>> {
    let var = |p: i64, h: i64| p * holes + h + 1;
    let mut clauses: Vec<Vec<i64>> = (0..=holes)
        .map(|p| (0..holes).map(|h| var(p, h)).collect())
        .collect();
    for h in 0..holes {
        for p1 in 0..=holes {
            for p2 in p1 + 1..=holes {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    clauses
}

/// Reads (and removes) a records file, one event per line.
fn read_events(path: &std::path::Path) -> Vec<Event> {
    let raw = std::fs::read_to_string(path).expect("records written");
    let _ = std::fs::remove_file(path);
    raw.lines()
        .map(|l| Event::from_json(&Json::parse(l).expect("JSON line")).expect("an event"))
        .collect()
}

#[test]
fn deadline_stop_is_recorded_once_as_stop_cause() {
    let runs_path = temp_path("deadline-runs");
    let requests_path = temp_path("deadline-requests");
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        records_path: Some(runs_path.clone()),
        request_records_path: Some(requests_path.clone()),
        ..DaemonConfig::default()
    });
    let sid = daemon.open(72, false).unwrap();
    daemon.add_clauses(sid, &php_clauses(8)).unwrap();
    let reply = daemon
        .solve(sid, &[], Some(Duration::from_millis(50)))
        .unwrap();
    assert_eq!(reply.verdict, Verdict::Unknown("deadline".to_string()));
    daemon.shutdown();

    match read_events(&runs_path).as_slice() {
        [Event::SolveEnd { record }] => {
            assert_eq!(record.result, "UNKNOWN");
            assert_eq!(record.stop_cause.as_deref(), Some("deadline"));
            assert!(record.degradations.is_empty(), "{:?}", record.degradations);
        }
        other => panic!("expected one solve_end record, got {other:?}"),
    }
    match read_events(&requests_path).as_slice() {
        [Event::RequestEnd { record }] => {
            assert_eq!(record.verdict, "unknown");
            assert_eq!(record.stop_cause.as_deref(), Some("deadline"));
            assert!(record.degradations.is_empty(), "{:?}", record.degradations);
        }
        other => panic!("expected one request_end record, got {other:?}"),
    }
}

#[test]
fn run_records_name_their_request() {
    // Both sinks open: each solve's RunRecord names the request whose
    // RequestRecord describes the same solve, `session-S/request-R`.
    let runs_path = temp_path("join-runs");
    let requests_path = temp_path("join-requests");
    let daemon = Daemon::start(DaemonConfig {
        records_path: Some(runs_path.clone()),
        request_records_path: Some(requests_path.clone()),
        ..DaemonConfig::default()
    });
    let sids: Vec<u64> = (0..3)
        .map(|_| {
            let sid = daemon.open(3, false).unwrap();
            daemon.add_clauses(sid, &sat_clauses()).unwrap();
            sid
        })
        .collect();
    for i in 0..9usize {
        let assumptions: &[i64] = if i % 3 == 2 { &[-2] } else { &[] };
        daemon.solve(sids[i % 3], assumptions, None).unwrap();
    }
    daemon.shutdown();

    let requests: Vec<String> = read_events(&requests_path)
        .into_iter()
        .map(|event| match event {
            Event::RequestEnd { record } => {
                format!("session-{}/request-{}", record.session, record.request_id)
            }
            other => panic!("expected a request_end record, got {other:?}"),
        })
        .collect();
    let runs: Vec<String> = read_events(&runs_path)
        .into_iter()
        .map(|event| match event {
            Event::SolveEnd { record } => record.instance_id,
            other => panic!("expected a solve_end record, got {other:?}"),
        })
        .collect();
    assert_eq!(requests.len(), 9);
    assert_eq!(runs.len(), 9);
    for instance in &runs {
        assert_eq!(
            requests.iter().filter(|r| *r == instance).count(),
            1,
            "{instance} must name exactly one request record: {requests:?}"
        );
    }
}
