//! Protocol edge-case wall (the wire half of the robustness story):
//! malformed, hostile, or merely confused input must produce typed
//! error responses — never a panic, never a hang, never a dead daemon.

#![cfg(unix)]

use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::Duration;

use rsatd::{
    parse_request, serve_connection, Client, ClientError, Daemon, DaemonConfig, Request,
    MAX_REQUEST_BYTES,
};
use telemetry::json::Json;

fn test_daemon() -> Daemon {
    Daemon::start(DaemonConfig {
        workers: 2,
        default_deadline: Duration::from_secs(5),
        ..DaemonConfig::default()
    })
}

type TestClient = Client<BufReader<UnixStream>, UnixStream>;

/// One served connection over a socketpair.
fn connect(daemon: &Daemon) -> (TestClient, JoinHandle<()>) {
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    let daemon = daemon.clone();
    let handle = std::thread::spawn(move || {
        let reader = BufReader::new(server_side.try_clone().expect("clone server socket"));
        serve_connection(&daemon, reader, server_side);
    });
    let reader = BufReader::new(client_side.try_clone().expect("clone client socket"));
    (Client::new(reader, client_side), handle)
}

fn error_kind(err: &ClientError) -> String {
    match err {
        ClientError::Daemon { kind, .. } => kind.clone(),
        other => panic!("expected a daemon error, got {other}"),
    }
}

// ---- parser-level cases (no daemon involved) ---------------------------

#[test]
fn parse_rejects_malformed_json_with_null_id() {
    for line in ["{", "not json at all", "\"just a string\"", "[1,2,3]", "{}"] {
        let envelope = parse_request(line);
        let err = envelope.req.expect_err(line);
        assert!(
            err.kind == "malformed" || err.kind == "bad-request",
            "`{line}` must be malformed/bad-request, got {}",
            err.kind
        );
    }
    assert_eq!(parse_request("{").id, Json::Null);
}

#[test]
fn parse_rejects_deeply_nested_json_without_overflowing() {
    // Far past the parser's depth bound; a recursive-descent parser
    // without the bound would blow the stack here.
    let mut hostile = String::from("{\"id\":1,\"op\":\"status\",\"x\":");
    hostile.push_str(&"[".repeat(100_000));
    hostile.push_str(&"]".repeat(100_000));
    hostile.push('}');
    let envelope = parse_request(&hostile);
    assert_eq!(envelope.req.unwrap_err().kind, "malformed");
}

#[test]
fn parse_rejects_unknown_op_but_echoes_id() {
    // A retired op name is as unknown as any other.
    for op in ["explode", "introspect"] {
        let envelope = parse_request(&format!("{{\"id\":42,\"op\":\"{op}\"}}"));
        assert_eq!(envelope.id, Json::U64(42), "{op}");
        assert_eq!(envelope.req.unwrap_err().kind, "unknown-op", "{op}");
    }
}

#[test]
fn parse_rejects_bad_fields() {
    let cases = [
        ("{\"id\":1,\"op\":\"solve\"}", "missing session"),
        (
            "{\"id\":1,\"op\":\"solve\",\"session\":\"one\"}",
            "string session",
        ),
        (
            "{\"id\":1,\"op\":\"solve\",\"session\":1,\"assumptions\":[0]}",
            "literal zero",
        ),
        (
            "{\"id\":1,\"op\":\"solve\",\"session\":1,\"assumptions\":[1.5]}",
            "fractional literal",
        ),
        (
            "{\"id\":1,\"op\":\"solve\",\"session\":1,\"deadline_ms\":-5}",
            "negative deadline",
        ),
        ("{\"id\":1,\"op\":\"open\"}", "missing vars"),
        (
            "{\"id\":1,\"op\":\"open\",\"vars\":3,\"clauses\":[1]}",
            "clause not an array",
        ),
    ];
    for (line, what) in cases {
        let envelope = parse_request(line);
        assert_eq!(
            envelope.req.expect_err(what).kind,
            "bad-request",
            "case: {what}"
        );
    }
}

#[test]
fn parse_accepts_the_full_surface() {
    let envelope = parse_request(
        "{\"id\":7,\"op\":\"open\",\"vars\":4,\"inprocess\":true,\
         \"clauses\":[[1,-2],[3]],\"freeze\":[4]}",
    );
    assert_eq!(
        envelope.req.unwrap(),
        Request::Open {
            vars: 4,
            inprocess: true,
            clauses: vec![vec![1, -2], vec![3]],
            freeze: vec![4],
        }
    );
}

// ---- served-connection cases -------------------------------------------

#[test]
fn wire_round_trip_open_solve_model_core_close() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);

    let sid = client
        .open(3, false, &[vec![1, 2], vec![-1, 2], vec![2, 3]], &[])
        .unwrap();
    let reply = client.solve(sid, &[], None).unwrap();
    assert_eq!(reply.verdict, "sat");
    let model = client.model(sid).unwrap();
    assert!(model.contains(&2), "x2 is forced: {model:?}");

    let reply = client.solve(sid, &[-2], None).unwrap();
    assert_eq!(reply.verdict, "unsat");
    assert!(!client.core(sid).unwrap().is_empty());

    client.close(sid).unwrap();
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

#[test]
fn malformed_line_answers_and_connection_survives() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);

    let response = client.raw("this is { not json").unwrap();
    assert_eq!(response.get("id"), Some(&Json::Null));
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("malformed")
    );

    // Same connection keeps working afterwards.
    let sid = client.open(2, false, &[vec![1]], &[]).unwrap();
    assert_eq!(client.solve(sid, &[], None).unwrap().verdict, "sat");
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

#[test]
fn oversized_line_is_rejected_without_killing_the_connection() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);

    // ~1 MiB past the cap, mostly one giant string field.
    let mut line = String::with_capacity(MAX_REQUEST_BYTES + (1 << 20));
    line.push_str("{\"id\":9,\"op\":\"status\",\"pad\":\"");
    line.push_str(&"x".repeat(MAX_REQUEST_BYTES + (1 << 20)));
    line.push_str("\"}");
    let response = client.raw(&line).unwrap();
    assert_eq!(
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("oversized")
    );

    // The oversized line was drained, not buffered: the next request on
    // the same connection parses cleanly.
    assert!(client.status().unwrap().get("sessions").is_some());
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

#[test]
fn commands_on_closed_and_unknown_sessions_are_typed() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);

    assert_eq!(
        error_kind(&client.solve(404, &[], None).unwrap_err()),
        "no-such-session"
    );

    let sid = client.open(2, false, &[vec![1, 2]], &[]).unwrap();
    client.close(sid).unwrap();
    assert_eq!(error_kind(&client.close(sid).unwrap_err()), "closed");
    assert_eq!(
        error_kind(&client.solve(sid, &[], None).unwrap_err()),
        "closed"
    );
    assert_eq!(
        error_kind(&client.add_clauses(sid, &[vec![1]]).unwrap_err()),
        "closed"
    );
    assert_eq!(error_kind(&client.model(sid).unwrap_err()), "no-model");
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

#[test]
fn out_of_range_literals_are_typed_on_the_wire() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);
    let sid = client.open(3, false, &[], &[]).unwrap();
    assert_eq!(
        error_kind(&client.add_clauses(sid, &[vec![1, -9]]).unwrap_err()),
        "var-out-of-range"
    );
    assert_eq!(
        error_kind(&client.solve(sid, &[9], None).unwrap_err()),
        "var-out-of-range"
    );
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

#[test]
fn open_with_bad_seed_clauses_does_not_leak_a_session() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);
    let err = client.open(2, false, &[vec![5]], &[]).unwrap_err();
    assert_eq!(error_kind(&err), "var-out-of-range");
    assert_eq!(
        daemon.status().sessions,
        0,
        "half-open session must be closed"
    );
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

#[test]
fn busy_rejection_carries_retry_hint_on_the_wire() {
    let daemon = Daemon::start(DaemonConfig {
        queue_depth: 0,
        retry_after_ms: 123,
        ..DaemonConfig::default()
    });
    let (mut client, server) = connect(&daemon);
    let sid = client.open(2, false, &[vec![1]], &[]).unwrap();
    match client.solve(sid, &[], None).unwrap_err() {
        ClientError::Daemon {
            kind,
            retry_after_ms,
            ..
        } => {
            assert_eq!(kind, "busy");
            assert_eq!(retry_after_ms, Some(123));
        }
        other => panic!("expected busy, got {other}"),
    }
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

#[test]
fn shutdown_op_drains_and_ends_the_connection() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);
    let sid = client.open(2, false, &[vec![1, 2]], &[]).unwrap();
    assert_eq!(client.solve(sid, &[], None).unwrap().verdict, "sat");
    client.shutdown().unwrap();
    server.join().unwrap();
    assert!(daemon.status().draining);
    // The daemon refuses new work; the connection is gone.
    assert!(client.open(1, false, &[], &[]).is_err());
}

#[test]
fn status_reports_counters_on_the_wire() {
    let daemon = test_daemon();
    let (mut client, server) = connect(&daemon);
    let sid = client.open(2, false, &[vec![1]], &[]).unwrap();
    client.solve(sid, &[], None).unwrap();
    let status = client.status().unwrap();
    for key in [
        "sessions",
        "queued",
        "running",
        "memory_bytes",
        "admitted",
        "rejected",
        "evicted",
        "crashed",
        "deadline_exceeded",
        "completed",
    ] {
        assert!(status.get(key).is_some(), "status must report `{key}`");
    }
    assert_eq!(status.get("admitted").and_then(Json::as_u64), Some(1));
    drop(client);
    server.join().unwrap();
    daemon.shutdown();
}

// ---- the socket binary ---------------------------------------------------

/// `rsatd --socket` stops on SIGTERM: the signal flag is the accept
/// loop's stop flag, so the daemon drains, exits 0 and unlinks its
/// socket file — with a client connection still open.
#[test]
fn socket_daemon_drains_on_sigterm_and_unlinks_its_socket() {
    use std::process::{Child, Command, ExitStatus, Stdio};
    use std::time::Instant;

    fn wait_for_exit(child: &mut Child) -> ExitStatus {
        let started = Instant::now();
        loop {
            if let Some(status) = child.try_wait().expect("poll rsatd") {
                return status;
            }
            if started.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                panic!("rsatd did not exit within 10 s of SIGTERM");
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let path = std::env::temp_dir().join(format!("rsatd-sigterm-{}.sock", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_rsatd"))
        .arg("--socket")
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn rsatd");
    let started = Instant::now();
    let stream = loop {
        match UnixStream::connect(&path) {
            Ok(stream) => break stream,
            Err(e) if started.elapsed() > Duration::from_secs(10) => {
                let _ = child.kill();
                panic!("rsatd never listened on {}: {e}", path.display());
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let reader = BufReader::new(stream.try_clone().expect("clone client socket"));
    let mut client = Client::new(reader, stream);
    let sid = client.open(2, false, &[vec![1, 2]], &[]).unwrap();
    assert_eq!(client.solve(sid, &[], None).unwrap().verdict, "sat");

    let kill = Command::new("kill")
        .arg("-TERM")
        .arg(child.id().to_string())
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill -TERM failed: {kill:?}");
    let status = wait_for_exit(&mut child);
    assert!(status.success(), "rsatd exits 0 after SIGTERM: {status:?}");
    assert!(!path.exists(), "the socket file is unlinked on exit");
}
