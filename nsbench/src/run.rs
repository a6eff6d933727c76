//! One workload in one process: set-up, warm-up, the measured closed
//! loop, and its end-to-end metrics (`run`), or an untraced pass followed
//! by a traced one and the per-layer metrics (`trace`).

use crate::batch::{self, Outcome};
use crate::inputs::{self, Instance, Workload};
use crate::layers;
use crate::model;
use crate::report::{Metric, Report};
use crate::serve::{self, Service};
use crate::spans::{Recorder, Trace};
use crate::stats::{self, Sample, Summary};
use neuroselect::NeuroSelectSolver;
use rsatd::DaemonConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Time windows of a run; the end-to-end metrics are medians over them.
const WINDOWS: usize = 10;
/// Untimed warm-up requests (per client for the service workload).
const WARMUP_REQUESTS: u64 = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Where a traced run writes its Chrome trace, if anywhere.
    pub out: Option<PathBuf>,
}

/// Tallies of one closed loop.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every answered request.
    pub answered: Vec<Sample>,
    /// Requests started.
    pub attempted: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Summed latency of every request, answered or not (ms).
    pub total_ms: f64,
}

impl Tally {
    /// Counts one request that started at `started`, in a loop that
    /// started at `epoch`.
    pub fn record(&mut self, outcome: Outcome, started: Instant, epoch: Instant) {
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        self.total_ms += latency_ms;
        match outcome {
            Outcome::Answered => self.answered.push(Sample {
                end_s: epoch.elapsed().as_secs_f64(),
                latency_ms,
            }),
            Outcome::Failed => self.failed += 1,
        }
    }

    fn merge(tallies: Vec<Tally>) -> Tally {
        let mut all = Tally::default();
        for t in tallies {
            all.answered.extend(t.answered);
            all.attempted += t.attempted;
            all.failed += t.failed;
            all.total_ms += t.total_ms;
        }
        all
    }

    fn mean_ms(&self) -> f64 {
        self.total_ms / self.attempted.max(1) as f64
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One batch request through the workload's path.
fn batch_request(
    workload: Workload,
    solver: &NeuroSelectSolver,
    rec: &mut Recorder,
    id: u64,
    inst: &Instance,
) -> Result<Outcome, String> {
    match workload {
        Workload::CertifyUnsat => batch::certify(rec, id, solver, inst),
        _ if rec.enabled() => batch::solve_traced(rec, id, solver, inst),
        _ => batch::solve(solver, inst),
    }
}

fn warm_up_batch(workload: Workload, solver: &NeuroSelectSolver, seed: u64) -> Result<(), String> {
    let mut off = Recorder::new(Instant::now(), false);
    let warm = inputs::batch_pool(
        workload,
        inputs::warmup_seed(seed),
        WARMUP_REQUESTS as usize,
    );
    for inst in &warm {
        batch_request(workload, solver, &mut off, 0, inst)?;
    }
    Ok(())
}

fn warm_up_service(service: &mut Service, seed: u64) -> Result<(), String> {
    let mut off = disabled_recorders();
    let until = Instant::now() + Duration::from_secs(60);
    serve::run_clients(
        service,
        &mut off,
        inputs::warmup_seed(seed),
        Instant::now(),
        until,
        WARMUP_REQUESTS,
    )?;
    Ok(())
}

fn disabled_recorders() -> Vec<Recorder> {
    (0..serve::CLIENTS)
        .map(|_| Recorder::new(Instant::now(), false))
        .collect()
}

/// The untraced run: end-to-end metrics.
///
/// The measured time is cut into [`WINDOWS`] equal windows. Each starts
/// with a fresh set-up — a solver front end with the model loaded, or a
/// daemon with its client connections — timed while nothing else runs,
/// then serves requests until the window ends. The set-up repetitions are
/// thereby spread over the run like the windows the latency and
/// throughput medians are taken over, so a slow spell of the machine
/// cannot cover most of them. One untimed set-up and the warm-up come
/// first, so lazily mapped code and cold caches do not count.
///
/// # Errors
///
/// Returns the first wrong answer or set-up failure.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let window = Duration::from_secs_f64(opts.seconds / WINDOWS as f64);
    let mut setup_s = Vec::with_capacity(WINDOWS);
    let tally = match opts.workload {
        Workload::ServeIncremental => {
            let mut service = Service::start(DaemonConfig::default())?;
            warm_up_service(&mut service, opts.seed)?;
            service.stop()?;
            let mut off = disabled_recorders();
            let mut tallies = Vec::new();
            let epoch = Instant::now();
            for k in 1..=WINDOWS as u32 {
                let t = Instant::now();
                let mut service = Service::start(DaemonConfig::default())?;
                setup_s.push(t.elapsed().as_secs_f64());
                let until = epoch + window * k;
                tallies.extend(serve::run_clients(
                    &mut service,
                    &mut off,
                    opts.seed,
                    epoch,
                    until,
                    u64::MAX,
                )?);
                service.stop()?;
            }
            Tally::merge(tallies)
        }
        w => {
            let pool = inputs::batch_pool(w, opts.seed, batch::pool_size(w));
            warm_up_batch(w, &model::load_solver(), opts.seed)?;
            let mut off = Recorder::new(Instant::now(), false);
            let mut tally = Tally::default();
            let mut id = 0u64;
            let epoch = Instant::now();
            for k in 1..=WINDOWS as u32 {
                let t = Instant::now();
                let solver = model::load_solver();
                setup_s.push(t.elapsed().as_secs_f64());
                let until = epoch + window * k;
                while Instant::now() < until {
                    let inst = &pool[id as usize % pool.len()];
                    id += 1;
                    let t = Instant::now();
                    let outcome = batch_request(w, &solver, &mut off, id, inst)?;
                    tally.record(outcome, t, epoch);
                }
            }
            tally
        }
    };
    end_to_end(stats::median(&setup_s), &tally, opts.seconds)
}

fn end_to_end(setup_s: f64, tally: &Tally, seconds: f64) -> Result<Report, String> {
    let latencies: Vec<f64> = tally.answered.iter().map(|s| s.latency_ms).collect();
    let summary = Summary::of(&latencies).ok_or("no request was answered")?;
    let windowed =
        stats::windowed(&tally.answered, seconds, WINDOWS).ok_or("no request was answered")?;
    let answered = summary.n;
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let tail = match summary.tail {
        Some((label, value)) => format!("latency tail: {label} {value} ms (n={answered})"),
        None => {
            format!("latency tail: no quantile above p50 has 10 samples beyond it (n={answered})")
        }
    };
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("setup_s", setup_s, "s", WINDOWS),
            metric("latency_p50_ms", windowed.p50, "ms", answered),
            metric("latency_p90_ms", windowed.p90, "ms", answered),
            metric("throughput_rps", windowed.rate, "1/s", answered),
            metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        ],
        notes: vec![
            tail,
            format!(
                "available parallelism: {}",
                std::thread::available_parallelism().map_or(0, usize::from)
            ),
            format!(
                "failed_frac {} ({} of {} requests)",
                tally.failed as f64 / tally.attempted.max(1) as f64,
                tally.failed,
                tally.attempted
            ),
        ],
    })
}

/// The traced run: per-layer metrics from requests run with spans on,
/// and the tracing overhead against the same requests run without. The
/// batch workloads run every request twice in a row, untraced then
/// traced, so both sides see the same inputs in the same machine state;
/// the service workload runs an untraced phase, then a traced one.
///
/// # Errors
///
/// Returns the first wrong answer, a set-up failure, or a failed join of
/// the daemon's request records.
pub fn trace(opts: &Opts) -> Result<Report, String> {
    let (lanes, untraced, traced, daemon) = match opts.workload {
        Workload::ServeIncremental => trace_service(opts.seed, opts.seconds / 2.0)?,
        w => {
            let solver = model::load_solver();
            warm_up_batch(w, &solver, opts.seed)?;
            let pool = inputs::batch_pool(w, opts.seed, batch::pool_size(w));
            let mut off = Recorder::new(Instant::now(), false);
            let epoch = Instant::now();
            let mut rec = Recorder::new(epoch, true);
            let (mut untraced, mut traced) = (Tally::default(), Tally::default());
            let mut id = 0u64;
            while epoch.elapsed().as_secs_f64() < opts.seconds {
                let inst = &pool[id as usize % pool.len()];
                id += 1;
                let t = Instant::now();
                let outcome = batch_request(w, &solver, &mut off, id, inst)?;
                untraced.record(outcome, t, epoch);
                let t = Instant::now();
                let outcome = batch_request(w, &solver, &mut rec, id, inst)?;
                traced.record(outcome, t, epoch);
            }
            (vec![rec], untraced, traced, None)
        }
    };
    let trace = Trace::new(&lanes);
    let requests = trace.count("request").max(1) as f64;
    let overhead = trace.total_ms("request") / requests / untraced.mean_ms() - 1.0;
    if let Some(path) = &opts.out {
        std::fs::write(path, trace.chrome_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Report {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: layers::per_layer(opts.workload, &trace, daemon.as_ref(), overhead),
        notes: vec![format!(
            "traced {} requests against {} untraced",
            traced.attempted, untraced.attempted
        )],
    })
}

type TracedService = (Vec<Recorder>, Tally, Tally, Option<serve::DaemonSide>);

/// The service workload's traced run: an untraced phase, then a traced
/// phase against a fresh daemon that writes request and run records,
/// joined to the client spans afterwards.
fn trace_service(seed: u64, half: f64) -> Result<TracedService, String> {
    let mut service = Service::start(DaemonConfig::default())?;
    warm_up_service(&mut service, seed)?;
    let mut off = disabled_recorders();
    let until = Instant::now() + Duration::from_secs_f64(half);
    let untraced = Tally::merge(serve::run_clients(
        &mut service,
        &mut off,
        seed,
        Instant::now(),
        until,
        u64::MAX,
    )?);
    service.stop()?;

    let dir = Path::new("nsbench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let requests = dir.join(format!("requests-{}.jsonl", std::process::id()));
    let runs = dir.join(format!("runs-{}.jsonl", std::process::id()));
    let config = DaemonConfig {
        request_records_path: Some(requests.clone()),
        records_path: Some(runs.clone()),
        ..DaemonConfig::default()
    };
    let mut service = Service::start(config)?;
    let epoch = Instant::now();
    let mut lanes: Vec<Recorder> = (0..serve::CLIENTS)
        .map(|_| Recorder::new(epoch, true))
        .collect();
    let until = Instant::now() + Duration::from_secs_f64(half);
    let traced = Tally::merge(serve::run_clients(
        &mut service,
        &mut lanes,
        seed,
        epoch,
        until,
        u64::MAX,
    )?);
    service.stop()?;
    let joined = serve::join_records(&Trace::new(&lanes), &requests, &runs);
    let _ = std::fs::remove_file(&requests);
    let _ = std::fs::remove_file(&runs);
    let _ = std::fs::remove_dir(dir);
    Ok((lanes, untraced, traced, Some(joined?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::json::Json;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        json.get(section)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(report: &Report) -> Vec<(String, String)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let answered = [(0.5, 1.0), (1.0, 2.0), (1.5, 3.0)]
            .map(|(end_s, latency_ms)| Sample { end_s, latency_ms })
            .to_vec();
        let tally = Tally {
            answered,
            attempted: 4,
            failed: 1,
            total_ms: 16.0,
        };
        let report = end_to_end(0.5, &tally, 2.0).unwrap();
        assert_eq!(emitted(&report), declared("end_to_end"));
        assert_eq!((report.attempted, report.failed), (4, 1));
    }

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let lanes = [Recorder::new(Instant::now(), true)];
        let metrics = layers::per_layer(Workload::SolveHard, &Trace::new(&lanes), None, 0.0);
        let report = Report {
            metrics,
            ..Report::default()
        };
        assert_eq!(emitted(&report), declared("per_layer"));
    }

    /// Two requests of each batch workload, untraced and traced, through
    /// the same functions the closed loop calls.
    #[test]
    fn smoke_two_requests_per_batch_workload() {
        let solver = model::load_solver();
        assert!(
            solver.model_fault().is_none(),
            "committed weights must load"
        );
        for w in [
            Workload::SolveHard,
            Workload::SelectLarge,
            Workload::CertifyUnsat,
        ] {
            let pool = inputs::batch_pool(w, 1, 2);
            let mut off = Recorder::new(Instant::now(), false);
            let mut on = Recorder::new(Instant::now(), true);
            for (id, inst) in (1..).zip(&pool) {
                for rec in [&mut off, &mut on] {
                    let outcome = batch_request(w, &solver, rec, id, inst);
                    assert_eq!(outcome, Ok(Outcome::Answered), "{} {}", w.name(), inst.name);
                }
            }
            let lanes = [on];
            let trace = Trace::new(&lanes);
            assert_eq!(trace.count("request"), 2, "{}", w.name());
            for layer in ["cnf.parse", "core.select", "solver.search", "cnf.verify"] {
                assert_eq!(trace.count(layer), 2, "{} {layer}", w.name());
            }
            assert_eq!(trace.count("neuro.forward"), 2, "{}", w.name());
            let proofs = if w == Workload::CertifyUnsat { 2 } else { 0 };
            assert_eq!(trace.count("proof.check"), proofs, "{}", w.name());
        }
    }

    /// A traced service run whose every solve joins exactly one daemon
    /// request record.
    #[test]
    fn smoke_service_requests_join_their_records() {
        let dir = std::env::temp_dir().join(format!("nsbench-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let requests = dir.join("requests.jsonl");
        let runs = dir.join("runs.jsonl");
        let mut service = Service::start(DaemonConfig {
            request_records_path: Some(requests.clone()),
            records_path: Some(runs.clone()),
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut lanes: Vec<Recorder> = (0..serve::CLIENTS)
            .map(|_| Recorder::new(Instant::now(), true))
            .collect();
        // Eight requests per client: seven sweep steps and one cold one-shot.
        let until = Instant::now() + Duration::from_secs(60);
        let tallies =
            serve::run_clients(&mut service, &mut lanes, 1, Instant::now(), until, 8).unwrap();
        service.stop().unwrap();
        for t in &tallies {
            assert_eq!((t.attempted, t.failed), (8, 0));
        }
        let trace = Trace::new(&lanes);
        assert_eq!(trace.count("rsatd.solve"), 16);
        assert_eq!(trace.daemon_request_ids().count(), 16);
        let joined = serve::join_records(&trace, &requests, &runs).unwrap();
        assert!(joined.solve_ms > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
