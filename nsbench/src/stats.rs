//! Exact order statistics over raw samples.
//!
//! Latencies here are sub-millisecond to seconds, so quantiles are taken
//! by nearest rank over the sorted samples themselves — no histogram
//! buckets, no rounding to whole units.

/// The `q`-quantile of `sorted` by nearest rank: the smallest sample with
/// at least `q * n` samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps e.g. 0.9 * 100 from landing on 90.000000001.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Tail quantiles in increasing order, with their report labels.
const TAILS: [(&str, f64); 3] = [("p90", 0.90), ("p99", 0.99), ("p999", 0.999)];

/// How many samples a tail quantile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Distribution summary of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// The highest of p90/p99/p999 with at least [`TAIL_SUPPORT`] samples
    /// beyond it, or `None` when even p90 lacks that support.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarizes `values` (any order); `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAILS
            .iter()
            .rev()
            .find(|(_, q)| n - rank(n, *q) >= TAIL_SUPPORT)
            .map(|&(label, q)| (label, nearest_rank(&sorted, q)));
        Some(Summary {
            n,
            p50: nearest_rank(&sorted, 0.5),
            p90: nearest_rank(&sorted, 0.9),
            tail,
        })
    }
}

/// One answered request: when it ended, in seconds since the measured
/// loop started, and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// End time, seconds since the loop started.
    pub end_s: f64,
    /// Latency in milliseconds.
    pub latency_ms: f64,
}

/// Medians over equal time windows of each window's throughput and
/// latency quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median requests per second.
    pub rate: f64,
    /// Median of the windows' nearest-rank p50 (ms).
    pub p50: f64,
    /// Median of the windows' nearest-rank p90 (ms).
    pub p90: f64,
}

/// Splits `[0, span_s)` into `windows` equal windows and returns the
/// median over windows of each window's request rate and p50/p90 latency.
///
/// A shared machine has slow spells lasting tens of milliseconds to a
/// couple of seconds; a median over windows ignores the few windows they
/// hit, where a whole-run quantile or mean would shift with them. A
/// request counts towards each window in proportion to the part of its
/// duration inside it, so rates are not quantized to whole requests;
/// its latency belongs to the window it ended in. `None` when no window
/// saw a request end.
pub fn windowed(samples: &[Sample], span_s: f64, windows: usize) -> Option<Windowed> {
    let width = span_s / windows as f64;
    let window_of = |t: f64| ((t / width).floor().max(0.0) as usize).min(windows - 1);
    let mut work = vec![0.0; windows];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for s in samples {
        let duration = s.latency_ms / 1e3;
        let start = s.end_s - duration;
        for (w, done) in work
            .iter_mut()
            .enumerate()
            .take(window_of(s.end_s) + 1)
            .skip(window_of(start))
        {
            let lo = w as f64 * width;
            let inside = s.end_s.min(lo + width) - start.max(lo);
            if duration > 0.0 && inside > 0.0 {
                *done += inside / duration;
            }
        }
        latencies[window_of(s.end_s)].push(s.latency_ms);
    }
    let summaries: Vec<Summary> = latencies.iter().filter_map(|l| Summary::of(l)).collect();
    if summaries.is_empty() {
        return None;
    }
    let rates: Vec<f64> = work.iter().map(|w| w / width).collect();
    let p50s: Vec<f64> = summaries.iter().map(|s| s.p50).collect();
    let p90s: Vec<f64> = summaries.iter().map(|s| s.p90).collect();
    Some(Windowed {
        rate: median(&rates),
        p50: median(&p50s),
        p90: median(&p90s),
    })
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so spreads match what a Python reader gets.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_actual_samples() {
        let v = one_to(10);
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[0.25], 0.99), 0.25);
        // Sub-millisecond values survive untouched.
        let small = [0.012, 0.034, 0.056];
        assert_eq!(nearest_rank(&small, 0.5), 0.034);
    }

    #[test]
    fn summary_reports_n_and_sorts() {
        let mut v = one_to(100);
        v.reverse();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_is_the_highest_quantile_with_ten_samples_beyond() {
        // 99 samples: p90 has only 9 beyond it.
        assert_eq!(Summary::of(&one_to(99)).unwrap().tail, None);
        // 100: p90 (rank 90) has exactly 10 beyond; p99 has 1.
        assert_eq!(Summary::of(&one_to(100)).unwrap().tail, Some(("p90", 90.0)));
        // 1000: p99 (rank 990) has 10 beyond; p999 has 1.
        assert_eq!(
            Summary::of(&one_to(1000)).unwrap().tail,
            Some(("p99", 990.0))
        );
        // 10000: p999 (rank 9990) has 10 beyond.
        assert_eq!(
            Summary::of(&one_to(10_000)).unwrap().tail,
            Some(("p999", 9990.0))
        );
    }

    /// Back-to-back requests of `ms` milliseconds from `from_s` to `to_s`.
    fn steady(from_s: f64, to_s: f64, ms: f64) -> Vec<Sample> {
        let n = ((to_s - from_s) * 1e3 / ms).round() as usize;
        (1..=n)
            .map(|i| Sample {
                end_s: from_s + i as f64 * ms / 1e3,
                latency_ms: ms,
            })
            .collect()
    }

    #[test]
    fn windowed_rates_count_partial_requests() {
        // 3 ms requests never align with 1 s windows; rates stay exact.
        let w = windowed(&steady(0.0, 9.999, 3.0), 10.0, 10).unwrap();
        assert!((w.rate - 1000.0 / 3.0).abs() < 1e-6, "{w:?}");
        assert_eq!((w.p50, w.p90), (3.0, 3.0));
        assert_eq!(windowed(&[], 10.0, 10), None);
    }

    #[test]
    fn windowed_medians_ignore_a_slow_spell() {
        // 2 ms requests, except 5 ms ones during a 3 s slow spell.
        let mut samples = steady(0.0, 4.0, 2.0);
        samples.extend(steady(4.0, 7.0, 5.0));
        samples.extend(steady(7.0, 10.0, 2.0));
        let w = windowed(&samples, 10.0, 10).unwrap();
        assert!((w.rate - 500.0).abs() < 1e-6, "{w:?}");
        assert_eq!((w.p50, w.p90), (2.0, 2.0));
        // The whole-run p90 moves with the spell.
        let all: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        assert_eq!(Summary::of(&all).unwrap().p90, 5.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&one_to(5)), (1.5, 4.5));
    }
}
