//! Per-layer metrics of a traced run.
//!
//! Times are per request (ms per request, summed over the run and divided
//! by the number of `request` spans) unless the name says otherwise; a
//! layer a workload never calls reads 0. `nsbench/README.md` maps each
//! layer to the end-to-end metrics it should move.

use crate::batch::SOLVER_PHASES;
use crate::inputs::Workload;
use crate::report::Metric;
use crate::serve::DaemonSide;
use crate::spans::Trace;

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric of one traced run, in report order.
///
/// `daemon` carries the daemon-side join of the service workload;
/// `overhead` is the traced run's mean request time over the untraced
/// run's, minus one.
pub fn per_layer(
    workload: Workload,
    trace: &Trace,
    daemon: Option<&DaemonSide>,
    overhead: f64,
) -> Vec<Metric> {
    let requests = trace.count("request");
    let n = requests as f64;
    let per_request = |total: f64| ratio(total, n);
    let request_ms = trace.total_ms("request");
    let counter = |name: &str| {
        trace.counter(name)
            + daemon
                .and_then(|d| d.counters.iter().find(|(k, _)| *k == name))
                .map_or(0.0, |(_, v)| *v)
    };
    // Mean wall time of the spans named in `names`.
    let mean_ms = |names: &[&str]| {
        let total = names.iter().fold(0.0, |sum, s| sum + trace.total_ms(s));
        let count: usize = names.iter().map(|s| trace.count(s)).sum();
        ratio(total, count as f64)
    };

    let parse_ms = trace.total_ms("cnf.parse");
    let extract_ms = trace.total_ms("sat_graph.extract");
    let forward_ms = trace.total_ms("neuro.forward");
    let select_ms = trace.total_ms("core.select");
    let selects = counter("core.selects");
    let edges = counter("sat_graph.edges");
    let search_ms = match daemon {
        Some(d) => d.solve_ms,
        None => trace.total_ms("solver.search"),
    };
    let phase_ms = SOLVER_PHASES
        .iter()
        .fold(0.0, |sum, (_, c)| sum + counter(c))
        / 1e6;
    let check_ms = trace.total_ms("proof.check");
    let log_overhead_ms = if workload == Workload::CertifyUnsat {
        search_ms - counter("proof.off_search_ns") / 1e6
    } else {
        0.0
    };
    let solves = trace.count("rsatd.solve") as f64;
    let (queue_wait_ms, daemon_solve_ms) = daemon.map_or((0.0, 0.0), |d| {
        (ratio(d.queue_wait_ms, solves), ratio(d.solve_ms, solves))
    });
    let solve_rt_ms = mean_ms(&["rsatd.solve"]);
    let round_trips: usize = [
        "rsatd.open",
        "rsatd.add_clauses",
        "rsatd.freeze",
        "rsatd.solve",
        "rsatd.model",
        "rsatd.close",
    ]
    .iter()
    .map(|s| trace.count(s))
    .sum();

    let ms = "ms";
    let count = "count";
    let frac = "frac";
    let mut out = vec![
        ("cnf.parse_ms", per_request(parse_ms), ms),
        (
            "cnf.parse_mb_per_s",
            ratio(counter("cnf.bytes") / 1e6, parse_ms / 1e3),
            "MB/s",
        ),
        (
            "cnf.verify_ms",
            per_request(trace.total_ms("cnf.verify")),
            ms,
        ),
        ("sat_graph.extract_ms", per_request(extract_ms), ms),
        ("sat_graph.edges", per_request(edges), count),
        ("neuro.forward_ms", per_request(forward_ms), ms),
        (
            "neuro.forward_ns_per_edge",
            ratio(forward_ms * 1e6, edges),
            "ns",
        ),
        ("neuro.forward_share", ratio(forward_ms, request_ms), frac),
        ("core.select_ms", per_request(select_ms), ms),
        (
            "core.ladder_ms",
            per_request(if selects > 0.0 {
                select_ms - extract_ms - forward_ms
            } else {
                0.0
            }),
            ms,
        ),
        (
            "core.propfreq_frac",
            ratio(counter("core.propfreq"), selects),
            frac,
        ),
        (
            "core.degraded_frac",
            ratio(counter("core.degraded"), selects),
            frac,
        ),
        (
            "solver.build_ms",
            per_request(trace.total_ms("solver.build")),
            ms,
        ),
        ("solver.search_ms", per_request(search_ms), ms),
        (
            "solver.props_per_s",
            ratio(counter("solver.propagations"), search_ms / 1e3),
            "1/s",
        ),
    ];
    for name in [
        "solver.propagations",
        "solver.conflicts",
        "solver.decisions",
        "solver.deleted_clauses",
    ] {
        out.push((name, per_request(counter(name)), count));
    }
    for (name, counter_name) in [
        ("solver.propagate_ms", "solver.propagate_ns"),
        ("solver.analyze_ms", "solver.analyze_ns"),
        ("solver.minimize_ms", "solver.minimize_ns"),
        ("solver.reduce_ms", "solver.reduce_ns"),
        ("solver.restart_ms", "solver.restart_ns"),
    ] {
        out.push((name, per_request(counter(counter_name) / 1e6), ms));
    }
    out.extend([
        (
            "solver.unattributed_ms",
            per_request(search_ms - phase_ms),
            ms,
        ),
        ("proof.steps", per_request(counter("proof.steps")), count),
        (
            "proof.drat_bytes",
            per_request(counter("proof.drat_bytes")),
            "B",
        ),
        (
            "proof.write_ms",
            per_request(trace.total_ms("proof.write")),
            ms,
        ),
        ("proof.check_ms", per_request(check_ms), ms),
        (
            "proof.check_steps_per_s",
            ratio(counter("proof.steps"), check_ms / 1e3),
            "1/s",
        ),
        ("proof.log_overhead_ms", per_request(log_overhead_ms), ms),
        (
            "circuit.encode_ms",
            per_request(trace.total_ms("circuit.encode")),
            ms,
        ),
        (
            "circuit.delta_clauses",
            per_request(counter("circuit.delta_clauses")),
            count,
        ),
        ("rsatd.solve_rt_ms", solve_rt_ms, ms),
        (
            "rsatd.write_rt_ms",
            mean_ms(&["rsatd.open", "rsatd.add_clauses"]),
            ms,
        ),
        ("rsatd.queue_wait_ms", queue_wait_ms, ms),
        ("rsatd.solve_ms", daemon_solve_ms, ms),
        (
            "rsatd.wire_ms",
            if daemon.is_some() {
                solve_rt_ms - queue_wait_ms - daemon_solve_ms
            } else {
                0.0
            },
            ms,
        ),
        (
            "rsatd.wire_bytes",
            per_request(counter("rsatd.wire_bytes")),
            "B",
        ),
        (
            "rsatd.busy_frac",
            ratio(counter("rsatd.busy"), round_trips as f64),
            frac,
        ),
        ("request.ms", per_request(request_ms), ms),
        (
            "request.unattributed_ms",
            per_request(trace.self_ms("request")),
            ms,
        ),
        ("trace_overhead_frac", overhead, frac),
    ]);
    out.into_iter()
        .map(|(name, value, unit)| Metric {
            name,
            value,
            unit,
            samples: requests,
        })
        .collect()
}
