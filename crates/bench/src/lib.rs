//! Shared infrastructure for the experiment binaries (`exp_*`) and
//! Criterion benches that regenerate every table and figure of the paper.
//!
//! Each experiment binary is self-contained: it generates the synthetic
//! dataset, labels it by dual-policy solving, trains whatever models it
//! needs, and prints the table/series in a plain-text layout mirroring the
//! paper. See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! recorded paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod amortize;
pub mod perf;

use neuroselect::sat_gen::{competition_batch, test_batch, Batch, DatasetConfig};
use neuroselect::{label_batch, LabeledInstance, LabelingConfig};
use std::collections::HashMap;
use std::time::Instant;
use telemetry::json::ToJson;
use telemetry::RunRecord;

/// Command-line options shared by the experiment binaries:
/// `--key value` pairs, all optional.
#[derive(Debug, Clone, Default)]
pub struct ExpArgs {
    values: HashMap<String, String>,
}

impl ExpArgs {
    /// Parses `--key value` pairs from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    pub fn from_env() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses `--key value` pairs from an iterator (testable entry point).
    ///
    /// # Panics
    ///
    /// Panics on a key without a value or a bare token.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut iter = args.into_iter();
        while let Some(key) = iter.next() {
            let key = key
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --key, found `{key}`"))
                .to_string();
            let value = iter
                .next()
                .unwrap_or_else(|| panic!("missing value for --{key}"));
            values.insert(key, value);
        }
        ExpArgs { values }
    }

    /// Reads a parsed value with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.values.get(key) {
            Some(v) => v.parse().unwrap_or_else(|e| panic!("--{key} {v}: {e:?}")),
            None => default,
        }
    }
}

/// Standard experiment dataset sizing, overridable from the command line
/// with `--instances N --scale S --seed K`.
pub fn dataset_config(args: &ExpArgs) -> DatasetConfig {
    DatasetConfig {
        instances_per_batch: args.get("instances", 24),
        scale: args.get("scale", 1.0),
        seed: args.get("seed", 2024),
    }
}

/// Generates and labels up to `num_batches` training batches
/// ("2016"–"2021").
pub fn labeled_training_set(
    config: &DatasetConfig,
    label_cfg: &LabelingConfig,
    num_batches: usize,
) -> Vec<LabeledInstance> {
    let mut out = Vec::new();
    for batch in neuroselect::sat_gen::training_batches(config)
        .into_iter()
        .take(num_batches)
    {
        let t = Instant::now();
        let labeled = label_batch(&batch, label_cfg);
        eprintln!(
            "labelled batch {} ({} instances) in {:.1}s",
            batch.name,
            labeled.len(),
            t.elapsed().as_secs_f64()
        );
        out.extend(labeled);
    }
    out
}

/// Generates and labels the held-out "2022" test batch.
pub fn labeled_test_set(
    config: &DatasetConfig,
    label_cfg: &LabelingConfig,
) -> Vec<LabeledInstance> {
    let batch = test_batch(config);
    let t = Instant::now();
    let labeled = label_batch(&batch, label_cfg);
    eprintln!(
        "labelled test batch ({} instances) in {:.1}s",
        labeled.len(),
        t.elapsed().as_secs_f64()
    );
    labeled
}

/// One extra mixed batch (used by figure experiments that do not need the
/// train/test split).
pub fn mixed_batch(name: &str, config: &DatasetConfig, seed: u64) -> Batch {
    competition_batch(name, config, seed)
}

/// Machine-readable experiment output: one [`RunRecord`] JSON line per
/// solver run, opened from the shared `--records FILE.jsonl` option.
///
/// Lets the `exp_*` binaries double as data producers — the printed table
/// stays the human-facing summary while the JSONL stream carries the full
/// per-run telemetry (phase times, stats, the clause-database snapshot)
/// for offline analysis.
pub struct RecordLog {
    writer: std::io::BufWriter<std::fs::File>,
    path: String,
    written: usize,
}

impl RecordLog {
    /// Opens the log when `--records PATH` was given; `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created.
    pub fn from_args(args: &ExpArgs) -> Option<RecordLog> {
        let path: String = args.get("records", String::new());
        if path.is_empty() {
            return None;
        }
        let file = std::fs::File::create(&path).unwrap_or_else(|e| panic!("--records {path}: {e}"));
        Some(RecordLog {
            writer: std::io::BufWriter::new(file),
            path,
            written: 0,
        })
    }

    /// Appends one record as a single JSON line.
    pub fn push(&mut self, record: &RunRecord) {
        use std::io::Write;
        if writeln!(self.writer, "{}", record.to_json()).is_ok() {
            self.written += 1;
        }
    }
}

impl Drop for RecordLog {
    fn drop(&mut self) {
        use std::io::Write;
        let _ = self.writer.flush();
        eprintln!("{} run records written to {}", self.written, self.path);
    }
}

/// Formats p50/p90/p99/p999 of a cost distribution, each interpolated
/// between the two nearest values ([`neuroselect::quantile`]); returns
/// `None` when the iterator is empty.
pub fn percentile_line(values: impl IntoIterator<Item = f64>) -> Option<String> {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    sorted.sort_by(f64::total_cmp);
    let q = |p| neuroselect::quantile(&sorted, p);
    Some(format!(
        "p50 {:.3} | p90 {:.3} | p99 {:.3} | p999 {:.3}",
        q(0.5)?,
        q(0.9)?,
        q(0.99)?,
        q(0.999)?
    ))
}

/// Prints a plain-text table: a header row and aligned columns.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", parts.join("  "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_default() {
        let a = ExpArgs::parse_from(["--epochs".to_string(), "7".to_string()]);
        assert_eq!(a.get("epochs", 3usize), 7);
        assert_eq!(a.get("scale", 1.5f64), 1.5);
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn args_reject_dangling_key() {
        let _ = ExpArgs::parse_from(["--oops".to_string()]);
    }

    #[test]
    #[should_panic(expected = "expected --key")]
    fn args_reject_bare_token() {
        let _ = ExpArgs::parse_from(["oops".to_string()]);
    }

    #[test]
    fn dataset_config_defaults() {
        let c = dataset_config(&ExpArgs::default());
        assert_eq!(c.instances_per_batch, 24);
        assert_eq!(c.scale, 1.0);
    }

    #[test]
    fn percentile_line_reports_interpolated_quantiles() {
        assert_eq!(percentile_line(std::iter::empty()), None);
        // Order does not matter: the values are sorted first.
        let line = percentile_line((1..=100).rev().map(f64::from)).expect("non-empty");
        assert_eq!(line, "p50 50.500 | p90 90.100 | p99 99.010 | p999 99.901");
    }

    #[test]
    fn percentile_line_keeps_sub_millisecond_values() {
        // Per-bound latencies under a millisecond (exp_amortize) must not
        // collapse to 0.
        let line = percentile_line([0.25, 0.5, 0.75]).expect("non-empty");
        let p50: f64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .expect("p50 value");
        assert_eq!(p50, 0.5, "{line}");
    }

    #[test]
    fn table_printer_is_total() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
