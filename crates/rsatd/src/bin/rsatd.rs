//! The `rsatd` daemon binary.
//!
//! ```text
//! rsatd --socket /run/rsatd.sock --workers 4 --mem-limit-mb 2048
//! rsatd --stdio            # serve one connection over stdin/stdout
//! ```
//!
//! On SIGTERM (or when the single stdio connection ends) the daemon
//! drains gracefully: no new work is admitted, in-flight solves finish
//! or deadline out, every admitted request gets its answer, and
//! telemetry is flushed before exit.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use rsatd::{serve_connection, serve_unix, Daemon, DaemonConfig};

/// SIGTERM/SIGINT flag flipped by the signal handler; the accept loop's
/// stop flag.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    // The workspace is offline (no libc crate); bind the two libc
    // symbols the handler needs directly — std already links libc.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        SHUTDOWN.store(true, Ordering::Release);
    }

    /// Installs the drain-on-SIGTERM/SIGINT handlers.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

enum Transport {
    Unix(PathBuf),
    Stdio,
}

struct Args {
    transport: Transport,
    config: DaemonConfig,
    fault_plan: Option<String>,
}

fn usage() -> &'static str {
    "usage: rsatd (--socket PATH | --stdio) [options]\n\
     \n\
     options:\n\
       --workers N          worker threads (default 2)\n\
       --queue N            admission queue depth (default 16)\n\
       --max-sessions N     live session cap (default 64)\n\
       --mem-limit-mb N     aggregate solver memory cap (default 1024)\n\
       --idle-timeout-s N   idle session eviction timeout (default 300)\n\
       --deadline-ms N      default per-solve deadline (default 10000)\n\
       --max-deadline-ms N  hard per-solve deadline ceiling (default 300000)\n\
       --retry-after-ms N   busy-rejection retry hint (default 100)\n\
       --records FILE       append one RunRecord JSONL line per solve\n\
       --records-out FILE   append one RequestRecord JSONL line per admitted request\n\
       --fault-plan PLAN    install a fault plan (requires the `faults` feature)\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut transport = None;
    let mut config = DaemonConfig::default();
    let mut fault_plan = None;

    let parse_num = |flag: &str, value: Option<String>| -> Result<u64, String> {
        value
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} expects a non-negative integer"))
    };

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                let path = args.next().ok_or("--socket expects a path")?;
                transport = Some(Transport::Unix(PathBuf::from(path)));
            }
            "--stdio" => transport = Some(Transport::Stdio),
            "--workers" => config.workers = parse_num("--workers", args.next())?.max(1) as usize,
            "--queue" => config.queue_depth = parse_num("--queue", args.next())? as usize,
            "--max-sessions" => {
                config.max_sessions = parse_num("--max-sessions", args.next())? as usize
            }
            "--mem-limit-mb" => {
                // Saturates: a cap past u64::MAX bytes is no cap.
                config.max_memory_bytes =
                    parse_num("--mem-limit-mb", args.next())?.saturating_mul(1 << 20)
            }
            "--idle-timeout-s" => {
                config.idle_timeout =
                    Duration::from_secs(parse_num("--idle-timeout-s", args.next())?)
            }
            "--deadline-ms" => {
                config.default_deadline =
                    Duration::from_millis(parse_num("--deadline-ms", args.next())?)
            }
            "--max-deadline-ms" => {
                config.max_deadline =
                    Duration::from_millis(parse_num("--max-deadline-ms", args.next())?)
            }
            "--retry-after-ms" => {
                config.retry_after_ms = parse_num("--retry-after-ms", args.next())?
            }
            "--records" => {
                config.records_path = Some(PathBuf::from(
                    args.next().ok_or("--records expects a path")?,
                ))
            }
            "--records-out" => {
                config.request_records_path = Some(PathBuf::from(
                    args.next().ok_or("--records-out expects a path")?,
                ))
            }
            "--fault-plan" => fault_plan = Some(args.next().ok_or("--fault-plan expects a plan")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let transport = transport.ok_or("one of --socket or --stdio is required")?;
    Ok(Args {
        transport,
        config,
        fault_plan,
    })
}

#[cfg(feature = "faults")]
fn install_fault_plan(plan: &str) -> Result<(), String> {
    let plan: faults::FaultPlan = plan.parse().map_err(|e| format!("{e}"))?;
    faults::install_global(plan);
    Ok(())
}

#[cfg(not(feature = "faults"))]
fn install_fault_plan(_plan: &str) -> Result<(), String> {
    Err("this build has no `faults` feature; rebuild with --features faults".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            let mut err = std::io::stderr();
            if !message.is_empty() {
                let _ = writeln!(err, "rsatd: {message}");
            }
            let _ = write!(err, "{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if let Some(plan) = &args.fault_plan {
        if let Err(message) = install_fault_plan(plan) {
            let _ = writeln!(std::io::stderr(), "rsatd: {message}");
            return ExitCode::FAILURE;
        }
    }

    sig::install();
    let daemon = Daemon::start(args.config);

    match args.transport {
        Transport::Unix(path) => {
            let served = serve_unix(&daemon, &path, &SHUTDOWN);
            daemon.shutdown();
            if let Err(e) = served {
                let _ = writeln!(std::io::stderr(), "rsatd: socket error: {e}");
                return ExitCode::FAILURE;
            }
        }
        Transport::Stdio => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_connection(&daemon, stdin.lock(), stdout);
            daemon.shutdown();
        }
    }
    ExitCode::SUCCESS
}
