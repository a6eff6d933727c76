//! Robustness wall for the typed daemon API: admission control,
//! eviction, deadlines, drain, and session lifecycle errors — all
//! without fault injection (the injected-failure half lives in
//! `chaos.rs`).

use std::sync::mpsc;
use std::time::Duration;

use rsatd::{Daemon, DaemonConfig, DaemonError, Verdict};

fn quick_config() -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        default_deadline: Duration::from_secs(5),
        ..DaemonConfig::default()
    }
}

/// 3 variables, satisfiable, forced `x2 = true`.
const SAT_CLAUSES: &[&[i64]] = &[&[1, 2], &[-1, 2], &[2, 3]];

fn sat_clauses() -> Vec<Vec<i64>> {
    SAT_CLAUSES.iter().map(|c| c.to_vec()).collect()
}

#[test]
fn session_lifecycle_solve_model_core() {
    let daemon = Daemon::start(quick_config());
    let sid = daemon.open(3, false).unwrap();
    daemon.add_clauses(sid, &sat_clauses()).unwrap();

    let reply = daemon.solve(sid, &[], None).unwrap();
    assert_eq!(reply.verdict, Verdict::Sat);
    let model = daemon.model(sid).unwrap();
    assert_eq!(model.len(), 3);
    assert!(model.contains(&2), "x2 is forced true: {model:?}");
    assert!(
        matches!(daemon.core(sid), Err(DaemonError::NoCore(_))),
        "core after SAT must be a typed error"
    );

    // Assumptions flip the verdict; the core mentions a culprit.
    let reply = daemon.solve(sid, &[-2], None).unwrap();
    assert_eq!(reply.verdict, Verdict::Unsat);
    let core = daemon.core(sid).unwrap();
    assert!(!core.is_empty());
    assert!(
        matches!(daemon.model(sid), Err(DaemonError::NoModel(_))),
        "model after UNSAT must be a typed error"
    );

    // The session survives both and keeps answering.
    assert_eq!(daemon.solve(sid, &[], None).unwrap().verdict, Verdict::Sat);
    daemon.close(sid).unwrap();
    daemon.shutdown();
}

#[test]
fn learned_state_persists_across_calls() {
    let daemon = Daemon::start(quick_config());
    let sid = daemon.open(3, false).unwrap();
    daemon.add_clauses(sid, &sat_clauses()).unwrap();
    let first = daemon.solve(sid, &[3], None).unwrap();
    let second = daemon.solve(sid, &[3], None).unwrap();
    assert_eq!(first.verdict, Verdict::Sat);
    assert_eq!(second.verdict, Verdict::Sat);
    assert!(
        second.propagations <= first.propagations + 8,
        "a repeated query must not get more expensive: {} then {}",
        first.propagations,
        second.propagations
    );
    daemon.shutdown();
}

#[test]
fn session_errors_are_typed() {
    let daemon = Daemon::start(quick_config());
    assert!(matches!(
        daemon.solve(99, &[], None),
        Err(DaemonError::NoSuchSession(99))
    ));

    let sid = daemon.open(3, false).unwrap();
    assert!(matches!(
        daemon.add_clauses(sid, &[vec![1, -4]]),
        Err(DaemonError::VarOutOfRange { lit: -4, .. })
    ));
    assert!(matches!(
        daemon.solve(sid, &[4], None),
        Err(DaemonError::VarOutOfRange { lit: 4, .. })
    ));
    assert!(matches!(
        daemon.add_clauses(sid, &[vec![0]]),
        Err(DaemonError::VarOutOfRange { lit: 0, .. })
    ));

    daemon.close(sid).unwrap();
    assert!(
        matches!(daemon.close(sid), Err(DaemonError::SessionClosed(_))),
        "double-close must be a typed error"
    );
    assert!(matches!(
        daemon.solve(sid, &[], None),
        Err(DaemonError::SessionClosed(_))
    ));
    assert!(matches!(
        daemon.add_clauses(sid, &[vec![1]]),
        Err(DaemonError::SessionClosed(_))
    ));
    daemon.shutdown();
}

#[test]
fn zero_queue_depth_rejects_busy_with_retry_hint() {
    let daemon = Daemon::start(DaemonConfig {
        queue_depth: 0,
        retry_after_ms: 250,
        ..quick_config()
    });
    let sid = daemon.open(3, false).unwrap();
    let err = daemon.solve(sid, &[], None).unwrap_err();
    assert!(matches!(
        err,
        DaemonError::Busy {
            retry_after_ms: 250
        }
    ));
    assert_eq!(err.kind(), "busy");
    assert_eq!(err.retry_after_ms(), Some(250));
    assert_eq!(daemon.stats().rejected, 1);
    daemon.shutdown();
}

#[test]
fn session_cap_rejects_open() {
    let daemon = Daemon::start(DaemonConfig {
        max_sessions: 2,
        ..quick_config()
    });
    daemon.open(2, false).unwrap();
    daemon.open(2, false).unwrap();
    assert!(matches!(
        daemon.open(2, false),
        Err(DaemonError::Busy { .. })
    ));
    assert_eq!(daemon.stats().rejected, 1);
    daemon.shutdown();
}

#[test]
fn memory_pressure_evicts_lru_idle_session() {
    let daemon = Daemon::start(quick_config());
    let probe = daemon.open(1000, false).unwrap();
    let per_session = daemon.status().memory_bytes;
    assert!(per_session > 0);
    daemon.close(probe).unwrap();

    // Room for one-and-a-half sessions: the second open must evict the
    // first instead of failing.
    let daemon = Daemon::start(DaemonConfig {
        max_memory_bytes: per_session + per_session / 2,
        ..quick_config()
    });
    let first = daemon.open(1000, false).unwrap();
    let second = daemon.open(1000, false).unwrap();
    assert!(matches!(
        daemon.solve(first, &[], None),
        Err(DaemonError::SessionEvicted(_, "memory"))
    ));
    assert!(daemon.solve(second, &[], None).is_ok());
    assert_eq!(daemon.stats().evicted, 1);
    daemon.shutdown();
}

#[test]
fn memory_cap_too_small_for_anyone_rejects_open() {
    let daemon = Daemon::start(DaemonConfig {
        max_memory_bytes: 1,
        ..quick_config()
    });
    assert!(matches!(
        daemon.open(1000, false),
        Err(DaemonError::Busy { .. })
    ));
    daemon.shutdown();
}

#[test]
fn idle_sessions_are_evicted_and_report_why() {
    let daemon = Daemon::start(DaemonConfig {
        idle_timeout: Duration::from_millis(1),
        ..quick_config()
    });
    let old = daemon.open(3, false).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    // Any admission path runs the sweep.
    let fresh = daemon.open(3, false).unwrap();
    let err = daemon.solve(old, &[], None).unwrap_err();
    assert!(matches!(err, DaemonError::SessionEvicted(_, "idle")));
    assert_eq!(err.kind(), "evicted");
    assert_eq!(daemon.stats().evicted, 1);
    // Closing an evicted session is the cleanup path and succeeds.
    daemon.close(old).unwrap();
    let _ = fresh;
    daemon.shutdown();
}

#[test]
fn zero_deadline_degrades_to_unknown_and_session_survives() {
    let daemon = Daemon::start(quick_config());
    let sid = daemon.open(3, false).unwrap();
    daemon.add_clauses(sid, &sat_clauses()).unwrap();
    let reply = daemon.solve(sid, &[], Some(Duration::ZERO)).unwrap();
    assert_eq!(reply.verdict, Verdict::Unknown("deadline".to_string()));
    assert_eq!(daemon.stats().deadline_exceeded, 1);
    // Degradation, not damage: the same session still solves.
    assert_eq!(daemon.solve(sid, &[], None).unwrap().verdict, Verdict::Sat);
    daemon.shutdown();
}

#[test]
fn drain_rejects_new_work_and_shutdown_answers_all_inflight() {
    let daemon = Daemon::start(quick_config());
    let mut sessions = Vec::new();
    for _ in 0..4 {
        let sid = daemon.open(3, false).unwrap();
        daemon.add_clauses(sid, &sat_clauses()).unwrap();
        sessions.push(sid);
    }
    let (tx, rx) = mpsc::channel();
    for &sid in &sessions {
        let tx = tx.clone();
        daemon
            .submit_solve(
                sid,
                vec![],
                None,
                Box::new(move |_rid, outcome| {
                    let _ = tx.send(outcome);
                }),
            )
            .unwrap();
    }
    daemon.shutdown();
    // Every admitted solve was answered before shutdown returned.
    let mut answered = 0;
    while let Ok(outcome) = rx.try_recv() {
        assert_eq!(outcome.unwrap().verdict, Verdict::Sat);
        answered += 1;
    }
    assert_eq!(answered, sessions.len());

    // Past the drain, nothing is admitted.
    assert!(matches!(
        daemon.solve(sessions[0], &[], None),
        Err(DaemonError::Draining)
    ));
    assert!(matches!(daemon.open(2, false), Err(DaemonError::Draining)));
    // Idempotent.
    daemon.shutdown();
}

#[test]
fn concurrent_solve_on_same_session_is_typed_busy() {
    let daemon = Daemon::start(DaemonConfig {
        workers: 1,
        ..quick_config()
    });
    let sid = daemon.open(3, false).unwrap();
    daemon.add_clauses(sid, &sat_clauses()).unwrap();
    let (tx, rx) = mpsc::channel();
    daemon
        .submit_solve(
            sid,
            vec![],
            None,
            Box::new(move |_rid, outcome| {
                let _ = tx.send(outcome);
            }),
        )
        .unwrap();
    // While queued or running, a second solve on the same session is a
    // typed error, not a queue entry.
    match daemon.solve(sid, &[], None) {
        Err(DaemonError::SessionBusy(_)) => {}
        Ok(_) => {
            // The first solve already finished; nothing to assert.
        }
        Err(other) => panic!("expected session-busy, got {other}"),
    }
    rx.recv().unwrap().unwrap();
    daemon.shutdown();
}

#[test]
fn session_handle_closes_on_drop() {
    let daemon = Daemon::start(quick_config());
    let sid;
    {
        let handle = daemon.open_session(3, false).unwrap();
        sid = handle.id();
        handle.add_clauses(&sat_clauses()).unwrap();
        assert_eq!(handle.solve(&[], None).unwrap().verdict, Verdict::Sat);
    }
    assert!(matches!(
        daemon.solve(sid, &[], None),
        Err(DaemonError::SessionClosed(_))
    ));
    daemon.shutdown();
}

#[test]
fn stats_and_status_track_the_story() {
    let daemon = Daemon::start(quick_config());
    let sid = daemon.open(3, false).unwrap();
    daemon.add_clauses(sid, &sat_clauses()).unwrap();
    daemon.solve(sid, &[], None).unwrap();
    let stats = daemon.stats();
    assert_eq!(stats.admitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.crashed, 0);
    let status = daemon.status();
    assert_eq!(status.sessions, 1);
    assert!(!status.draining);
    assert!(status.memory_bytes > 0);
    daemon.shutdown();
    assert!(daemon.status().draining);
}

/// Pigeonhole PHP(holes+1, holes) as daemon clauses: UNSAT, over
/// `(holes + 1) * holes` variables.
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

#[test]
fn memory_admission_never_evicts_the_session_it_admits() {
    // Two 42-variable sessions; a PHP(7,6) solve grows the second well
    // past the first. Measure both sizes on an uncapped daemon.
    let grow = |daemon: &Daemon| {
        let first = daemon.open(42, false).unwrap();
        let second = daemon.open(42, false).unwrap();
        let fresh = daemon.status().memory_bytes / 2;
        daemon.add_clauses(second, &php_clauses(6)).unwrap();
        let grown = daemon.solve(second, &[], None).unwrap();
        assert_eq!(grown.verdict, Verdict::Unsat);
        (first, second, fresh, grown.memory_bytes)
    };
    let probe = Daemon::start(quick_config());
    let (_, _, small, large) = grow(&probe);
    probe.shutdown();

    // A cap that either session fits alone and the pair does not.
    let cap = small.max(large);
    assert!(
        2 * small <= cap && small + large > cap,
        "{small} + {large} vs {cap}"
    );
    let daemon = Daemon::start(DaemonConfig {
        max_memory_bytes: cap,
        ..quick_config()
    });
    let (first, second, _, _) = grow(&daemon);
    assert_eq!(daemon.status().memory_bytes, small + large);

    // Solving the least recently used session must evict the other one,
    // not the session being admitted.
    let reply = daemon
        .solve(first, &[], None)
        .expect("the admitted session answers");
    assert_eq!(reply.verdict, Verdict::Sat);
    assert!(matches!(
        daemon.solve(second, &[], None),
        Err(DaemonError::SessionEvicted(_, "memory"))
    ));
    let stats = daemon.stats();
    assert_eq!(stats.evicted, 1);
    assert_eq!(
        stats.admitted, stats.completed,
        "every admitted solve completes"
    );
    daemon.shutdown();
}
