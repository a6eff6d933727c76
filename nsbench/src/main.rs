//! `nsbench`: an end-to-end benchmark of the NeuroSelect product path,
//! with each layer's time attributed.
//!
//! ```text
//! nsbench run   --workload W --seed S [--seconds N]
//! nsbench trace --workload W --seed S [--seconds N] [--out FILE.json]
//! nsbench --workload W --seed S --seconds N --trace 0|1
//! nsbench repeat --runs N [--seconds N] [--first-seed S] [--json FILE]
//! nsbench fit-model
//! ```
//!
//! `run` measures one workload untraced and prints its end-to-end
//! metrics; `trace` measures it traced and prints its per-layer metrics.
//! The third form is the one `BENCHMARK.json` names: `--trace` picks
//! between the two. Every form prints a JSON result as its last line and
//! exits nonzero, printing no result, on a wrong answer. See README.md.

mod batch;
mod inputs;
mod layers;
mod model;
mod oracle;
mod repeat;
mod report;
mod run;
mod serve;
mod spans;
mod stats;

use inputs::Workload;
use std::collections::HashMap;
use std::process::ExitCode;

/// Default measured seconds per run (matches `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: nsbench run|trace --workload W --seed S [--seconds N] [--out FILE]
       nsbench --workload W --seed S --seconds N --trace 0|1
       nsbench repeat --runs N [--seconds N] [--first-seed S] [--json FILE]
       nsbench fit-model
workloads: solve-hard, select-large, certify-unsat, serve-incremental";

/// `--key value` pairs.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut iter = args.iter();
        while let Some(key) = iter.next() {
            let name = key
                .strip_prefix("--")
                .filter(|k| allowed.contains(k))
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = iter.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.0
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key}: cannot parse `{v}`"))
            })
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get::<String>("workload")?
            .map(|w| Workload::parse(&w).ok_or_else(|| format!("unknown workload `{w}`")))
            .transpose()
    }

    fn run_opts(&self) -> Result<run::Opts, String> {
        let seconds = self.get("seconds")?.unwrap_or(DEFAULT_SECONDS);
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(run::Opts {
            workload: self.workload()?.ok_or("--workload is required")?,
            seed: self.require("seed")?,
            seconds,
            out: self.get("out")?,
        })
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (command, rest) = match args.first() {
        Some(c) if !c.starts_with("--") => (c.as_str(), &args[1..]),
        _ => ("", args),
    };
    match command {
        "run" => {
            let a = Args::parse(rest, &["workload", "seed", "seconds"])?;
            run::run(&a.run_opts()?)?.print();
        }
        "trace" => {
            let a = Args::parse(rest, &["workload", "seed", "seconds", "out"])?;
            run::trace(&a.run_opts()?)?.print();
        }
        "" => {
            let a = Args::parse(rest, &["workload", "seed", "seconds", "trace"])?;
            let report = match a.require::<u8>("trace")? {
                0 => run::run(&a.run_opts()?)?,
                1 => run::trace(&a.run_opts()?)?,
                t => return Err(format!("--trace must be 0 or 1, not {t}")),
            };
            report.print();
        }
        "repeat" => {
            let a = Args::parse(rest, &["runs", "seconds", "first-seed", "json"])?;
            repeat::repeat(&repeat::RepeatOpts {
                runs: a.require("runs")?,
                first_seed: a.get("first-seed")?.unwrap_or(1),
                seconds: a.get("seconds")?.unwrap_or(DEFAULT_SECONDS),
                json: a.get("json")?,
            })?;
        }
        "fit-model" => {
            Args::parse(rest, &[])?;
            let out = model::weights_path();
            model::fit(&out).map_err(|e| format!("writing {}: {e}", out.display()))?;
            println!("wrote {}", out.display());
        }
        other => return Err(format!("unknown command `{other}`\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nsbench: {e}");
            if args.is_empty() {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}
