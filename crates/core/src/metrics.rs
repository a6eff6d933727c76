//! Classification and runtime metrics (Tables 2 and 3).

/// Binary-classification confusion counts with the derived metrics the
/// paper reports in Table 2.
///
/// # Examples
///
/// ```
/// use neuroselect::ClassifierMetrics;
/// let m = ClassifierMetrics::from_pairs([(1u8, 1u8), (1, 0), (0, 0), (0, 1)]);
/// assert_eq!(m.accuracy(), 0.5);
/// assert_eq!(m.precision(), 0.5);
/// assert_eq!(m.recall(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifierMetrics {
    /// Predicted 1, truth 1.
    pub true_positives: usize,
    /// Predicted 1, truth 0.
    pub false_positives: usize,
    /// Predicted 0, truth 0.
    pub true_negatives: usize,
    /// Predicted 0, truth 1.
    pub false_negatives: usize,
}

impl ClassifierMetrics {
    /// Builds the confusion matrix from `(prediction, truth)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u8, u8)>) -> Self {
        let mut m = ClassifierMetrics::default();
        for (pred, truth) in pairs {
            match (pred != 0, truth != 0) {
                (true, true) => m.true_positives += 1,
                (true, false) => m.false_positives += 1,
                (false, false) => m.true_negatives += 1,
                (false, true) => m.false_negatives += 1,
            }
        }
        m
    }

    /// Total examples.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// `TP / (TP + FP)`; 0 when no positive predictions were made.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `TP / (TP + FN)`; 0 when there are no positive examples.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        // xtask: allow(no-float-eq) precision and recall are non-negative, so the sum is exactly 0 only when both are; this guards 0/0
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// `(TP + TN) / total`; 0 for an empty set.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.true_positives + self.true_negatives) as f64 / t as f64
        }
    }
}

impl std::fmt::Display for ClassifierMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "precision {:.2}% recall {:.2}% F1 {:.2}% accuracy {:.2}%",
            100.0 * self.precision(),
            100.0 * self.recall(),
            100.0 * self.f1(),
            100.0 * self.accuracy()
        )
    }
}

/// Summary statistics of per-instance costs — one row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeSummary {
    /// Instances solved within budget.
    pub solved: usize,
    /// Total instances attempted.
    pub attempted: usize,
    /// Median cost over solved instances.
    pub median: f64,
    /// Mean cost over solved instances.
    pub mean: f64,
}

impl RuntimeSummary {
    /// Summarizes per-instance costs; `None` entries are unsolved
    /// (timeouts) and excluded from median/mean, matching the paper's
    /// Table 3 protocol.
    pub fn from_costs(costs: impl IntoIterator<Item = Option<f64>>) -> Self {
        let mut solved_costs: Vec<f64> = Vec::new();
        let mut attempted = 0;
        for c in costs {
            attempted += 1;
            if let Some(v) = c {
                solved_costs.push(v);
            }
        }
        RuntimeSummary {
            solved: solved_costs.len(),
            attempted,
            median: median(&mut solved_costs),
            mean: mean(&solved_costs),
        }
    }
}

/// Median of a slice (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN costs"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `p`-quantile (`p` in `[0, 1]`) of `sorted`, which must be sorted
/// ascending: linear interpolation at position `p · (n − 1)` between the
/// two nearest order statistics. `None` for an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let idx = p * last as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Five-number summary (min, q1, median, q3, max) for box-and-whisker plots
/// (the paper's Figure 7(b)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxPlot {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxPlot {
    /// Computes the five-number summary. Returns `None` for empty input.
    pub fn from_values(values: &[f64]) -> Option<Self> {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN values"));
        Some(BoxPlot {
            min: *v.first()?,
            q1: quantile(&v, 0.25)?,
            median: quantile(&v, 0.5)?,
            q3: quantile(&v, 0.75)?,
            max: *v.last()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_counts() {
        let m = ClassifierMetrics::from_pairs([(1u8, 1u8), (1, 1), (1, 0), (0, 1), (0, 0)]);
        assert_eq!(m.true_positives, 2);
        assert_eq!(m.false_positives, 1);
        assert_eq!(m.false_negatives, 1);
        assert_eq!(m.true_negatives, 1);
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn metric_formulas() {
        let m = ClassifierMetrics {
            true_positives: 6,
            false_positives: 2,
            true_negatives: 10,
            false_negatives: 4,
        };
        assert!((m.precision() - 0.75).abs() < 1e-12);
        assert!((m.recall() - 0.6).abs() < 1e-12);
        assert!((m.f1() - 2.0 * 0.75 * 0.6 / 1.35).abs() < 1e-12);
        assert!((m.accuracy() - 16.0 / 22.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics_are_zero_not_nan() {
        let m = ClassifierMetrics::default();
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn runtime_summary_excludes_timeouts() {
        let s = RuntimeSummary::from_costs([Some(1.0), None, Some(3.0), Some(2.0)]);
        assert_eq!(s.solved, 3);
        assert_eq!(s.attempted, 4);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn boxplot_quartiles() {
        let b = BoxPlot::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.max, 5.0);
        assert!(BoxPlot::from_values(&[]).is_none());
    }

    #[test]
    fn display_formats_percentages() {
        let m = ClassifierMetrics::from_pairs([(1u8, 1u8), (0, 0)]);
        let s = m.to_string();
        assert!(s.contains("100.00%"));
    }
}
