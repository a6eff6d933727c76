//! Cost-sensitive decision-threshold calibration (an extension beyond the
//! paper).
//!
//! The paper selects the propagation-frequency policy whenever the model's
//! probability exceeds 0.5. But the costs are asymmetric: a wrong switch on
//! a large instance can waste more propagations than several right switches
//! save (we measured exactly this in EXPERIMENTS.md Table 3). Given a
//! labelled validation set with the *measured* per-policy costs, the
//! optimal threshold simply minimizes total expected cost — a one-line
//! sweep that often beats 0.5 substantially.

use crate::{Classifier, LabeledInstance, NeuroSelectClassifier};

/// The outcome of a threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The cost-minimizing probability threshold.
    pub threshold: f32,
    /// Total validation propagations when switching above the threshold.
    pub calibrated_cost: u64,
    /// Total validation propagations at the paper's fixed 0.5 threshold.
    pub default_cost: u64,
    /// Total validation propagations when never switching.
    pub never_switch_cost: u64,
    /// Total validation propagations of the per-instance oracle.
    pub oracle_cost: u64,
}

impl Calibration {
    /// Fraction of the oracle's possible saving realized by the calibrated
    /// threshold, in `[0, 1]` (1 = oracle-optimal; 0 = no better than never
    /// switching). Returns 1.0 when the oracle cannot save anything.
    pub fn oracle_efficiency(&self) -> f64 {
        let possible = self.never_switch_cost.saturating_sub(self.oracle_cost);
        if possible == 0 {
            return 1.0;
        }
        let realized = self.never_switch_cost.saturating_sub(self.calibrated_cost);
        realized as f64 / possible as f64
    }
}

/// Sweeps the decision threshold over the validation set's predicted
/// probabilities and returns the cost-minimizing choice.
///
/// Each validation instance carries its measured cost under both policies
/// (from labelling); choosing threshold `t` means paying
/// `props_prop_freq` when `P(label=1) > t` and `props_default` otherwise.
///
/// # Examples
///
/// ```
/// use neuroselect::{calibrate_threshold, NeuroSelectClassifier};
/// use neuro::NeuroSelectConfig;
/// # use neuroselect::{label_batch, LabelingConfig};
/// # use sat_gen::{competition_batch, DatasetConfig};
/// # let validation = label_batch(
/// #     &competition_batch("v", &DatasetConfig::tiny(), 1),
/// #     &LabelingConfig::default(),
/// # );
/// let classifier = NeuroSelectClassifier::new(
///     NeuroSelectConfig { hidden_dim: 8, hgt_layers: 1, mpnn_per_hgt: 1, ..Default::default() },
///     1e-3,
/// );
/// let calibration = calibrate_threshold(&classifier, &validation);
/// assert!(calibration.calibrated_cost <= calibration.default_cost);
/// assert!(calibration.oracle_cost <= calibration.calibrated_cost);
/// ```
pub fn calibrate_threshold(
    classifier: &NeuroSelectClassifier,
    validation: &[LabeledInstance],
) -> Calibration {
    let scored: Vec<(f32, u64, u64)> = validation
        .iter()
        .map(|d| {
            let g = classifier.prepare(&d.instance.cnf);
            (
                classifier.predict(&g),
                d.outcome.props_default,
                d.outcome.props_prop_freq,
            )
        })
        .collect();

    let cost_at = |t: f32| -> u64 {
        scored
            .iter()
            .map(|&(p, def, freq)| if p > t { freq } else { def })
            .sum()
    };

    // Candidate thresholds: just below each predicted probability, plus the
    // extremes. Cost is piecewise constant in t, so this sweep is exact.
    let mut candidates: Vec<f32> = scored.iter().map(|&(p, _, _)| p - 1e-6).collect();
    candidates.push(0.5);
    candidates.push(1.0); // never switch
    candidates.push(-1.0); // always switch
    let (threshold, calibrated_cost) = candidates
        .into_iter()
        .map(|t| (t, cost_at(t)))
        .min_by(|a, b| a.1.cmp(&b.1).then(b.0.total_cmp(&a.0)))
        .expect("at least the extremes are candidates");

    Calibration {
        threshold,
        calibrated_cost,
        default_cost: cost_at(0.5),
        never_switch_cost: scored.iter().map(|&(_, d, _)| d).sum(),
        oracle_cost: scored.iter().map(|&(_, d, f)| d.min(f)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LabelOutcome, LabelingConfig};
    use neuro::NeuroSelectConfig;
    use sat_gen::{competition_batch, DatasetConfig, Family, Instance};

    fn tiny_classifier() -> NeuroSelectClassifier {
        NeuroSelectClassifier::new(
            NeuroSelectConfig {
                hidden_dim: 8,
                hgt_layers: 1,
                mpnn_per_hgt: 1,
                use_attention: false,
                seed: 1,
            },
            1e-3,
        )
    }

    fn fake_instance(name: &str, def: u64, freq: u64) -> LabeledInstance {
        LabeledInstance {
            instance: Instance {
                name: name.into(),
                family: Family::RandomKSat,
                cnf: cnf::parse_dimacs_str("p cnf 3 2\n1 2 0\n-2 3 0\n").unwrap(),
            },
            outcome: LabelOutcome {
                label: u8::from(freq < def),
                props_default: def,
                props_prop_freq: freq,
                both_solved: true,
                verdicts_agree: true,
            },
        }
    }

    #[test]
    fn calibrated_never_worse_than_fixed_threshold() {
        let data = crate::label_batch(
            &competition_batch("cal", &DatasetConfig::tiny(), 3),
            &LabelingConfig::default(),
        );
        let c = tiny_classifier();
        let cal = calibrate_threshold(&c, &data);
        assert!(cal.calibrated_cost <= cal.default_cost);
        assert!(cal.calibrated_cost <= cal.never_switch_cost);
        assert!(cal.oracle_cost <= cal.calibrated_cost);
        assert!((0.0..=1.0).contains(&cal.oracle_efficiency()));
    }

    #[test]
    fn identical_costs_make_everything_equal() {
        // same instance (same prediction) with equal costs everywhere
        let data = vec![fake_instance("a", 100, 100), fake_instance("b", 100, 100)];
        let c = tiny_classifier();
        let cal = calibrate_threshold(&c, &data);
        assert_eq!(cal.calibrated_cost, 200);
        assert_eq!(cal.oracle_cost, 200);
        assert_eq!(cal.oracle_efficiency(), 1.0);
    }
}
