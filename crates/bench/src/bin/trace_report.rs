//! `trace-report` — summarizes a Chrome trace-event file produced by
//! `rsat --trace-out` (or any `telemetry::trace` exporter):
//!
//! ```text
//! trace-report TRACE.json            # pipeline view
//! trace-report --daemon TRACE.json   # rsatd worker-lane view
//! ```
//!
//! The default view prints per-phase/per-lane time breakdowns and the
//! inference-vs-solve overlap. `--daemon` reads an `rsatd --trace-out`
//! export instead: per-worker queue-wait/solve/reply breakdowns, the
//! admission-outcome split, and how much queue-wait accrued while workers
//! were solving.

use bench::trace_report::{analyze_daemon_str, analyze_str};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut daemon = false;
    let mut positional = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--daemon" => daemon = true,
            _ => positional.push(arg),
        }
    }
    let [path] = positional.as_slice() else {
        eprintln!("usage: trace-report [--daemon] TRACE.json");
        return ExitCode::from(1);
    };
    let path = path.clone();
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("trace-report: {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let rendered = if daemon {
        analyze_daemon_str(&text).map(|report| report.to_string())
    } else {
        analyze_str(&text).map(|report| report.to_string())
    };
    match rendered {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-report: {path}: {e}");
            ExitCode::from(1)
        }
    }
}
