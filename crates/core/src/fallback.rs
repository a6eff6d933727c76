//! The degradation ladder behind policy selection: model → static
//! heuristic.
//!
//! The NeuroSelect pipeline treats the learned classifier as an
//! *optimisation*, never a requirement: when the model cannot be
//! consulted — its weights failed to load, or inference panicked —
//! policy selection steps down to [`static_heuristic_policy`] (a
//! clause/variable-ratio rule computed in O(1) from the parsed formula).
//! Every step down is recorded as a [`DegradeReason`] so telemetry
//! (`RunRecord` degradations) shows *why* a run was degraded, and the
//! solve itself proceeds normally: a broken model can cost solving time,
//! never a verdict.

use cnf::Cnf;
use sat_solver::PolicyKind;

/// Which rung of the selection ladder produced the policy pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySource {
    /// The modelled deployment pipeline: classifier inference, including
    /// its by-design node-count cutoff (oversized instances use the
    /// default policy *deliberately*, which is not a degradation), or no
    /// pick was needed (a solve that never deleted a learned clause
    /// never read the policy, so the model was not consulted).
    Model,
    /// The static clause/variable-ratio heuristic (model unavailable).
    Heuristic,
}

impl PolicySource {
    /// Stable lower-case name for telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            PolicySource::Model => "model",
            PolicySource::Heuristic => "heuristic",
        }
    }
}

/// Why policy selection stepped down to the heuristic.
#[derive(Debug, Clone)]
pub enum DegradeReason {
    /// The model's weights could not be loaded; the error is sticky and
    /// every later selection skips inference.
    ModelLoad(String),
    /// Inference panicked (caught; the panic message is kept).
    InferencePanic(String),
}

impl DegradeReason {
    /// Stable kind tag, used as the `RunRecord` degradation `kind`.
    pub fn kind(&self) -> &'static str {
        match self {
            DegradeReason::ModelLoad(_) => "model-load-error",
            DegradeReason::InferencePanic(_) => "inference-panic",
        }
    }

    /// Human-readable detail, used as the `RunRecord` degradation `detail`.
    pub fn detail(&self) -> String {
        match self {
            DegradeReason::ModelLoad(e) | DegradeReason::InferencePanic(e) => e.clone(),
        }
    }
}

/// The outcome of the policy-selection ladder.
#[derive(Debug, Clone)]
pub struct PolicyDecision {
    /// The deletion policy to run.
    pub policy: PolicyKind,
    /// The model's probability for the propagation-frequency policy
    /// (0.0 when the model was not consulted).
    pub probability: f32,
    /// Which rung produced the pick.
    pub source: PolicySource,
    /// Every step down the ladder, in order (empty in normal operation).
    pub degradations: Vec<DegradeReason>,
}

impl PolicyDecision {
    /// The model rung's pick when the model is not consulted by design
    /// (the node cutoff, or no pick needed): the default policy, with no
    /// degradation.
    pub(crate) fn unconsulted() -> Self {
        PolicyDecision {
            policy: PolicyKind::Default,
            probability: 0.0,
            source: PolicySource::Model,
            degradations: Vec::new(),
        }
    }
}

/// Picks a policy from static formula features, no model required.
///
/// The clause/variable ratio is the cheapest useful proxy for the
/// paper's finding (Figure 4) that the propagation-frequency policy
/// earns its keep on constraint-dense instances: at or above ratio 4.0
/// (around the random-3-SAT phase transition) the search is
/// conflict-heavy and propagation counters are informative, so the
/// heuristic picks [`PolicyKind::PropFreq`]; sparser formulas keep
/// [`PolicyKind::Default`].
pub fn static_heuristic_policy(formula: &Cnf) -> PolicyKind {
    let vars = formula.num_vars().max(1) as f64;
    let ratio = formula.num_clauses() as f64 / vars;
    if ratio >= 4.0 {
        PolicyKind::PropFreq
    } else {
        PolicyKind::Default
    }
}

/// The rung below the model: the static heuristic's pick, recording why
/// the model was passed over.
pub(crate) fn degraded_decision(formula: &Cnf, reason: DegradeReason) -> PolicyDecision {
    PolicyDecision {
        policy: static_heuristic_policy(formula),
        probability: 0.0,
        source: PolicySource::Heuristic,
        degradations: vec![reason],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_splits_on_clause_density() {
        let dense = sat_gen::phase_transition_3sat(20, 1); // ratio ~4.27
        assert_eq!(static_heuristic_policy(&dense), PolicyKind::PropFreq);
        let sparse = cnf::parse_dimacs_str("p cnf 4 2\n1 2 0\n-3 4 0\n").unwrap();
        assert_eq!(static_heuristic_policy(&sparse), PolicyKind::Default);
    }

    #[test]
    fn degraded_decision_lands_on_the_heuristic() {
        let f = sat_gen::phase_transition_3sat(20, 1);
        let d = degraded_decision(&f, DegradeReason::ModelLoad(String::from("gone")));
        assert_eq!(d.source, PolicySource::Heuristic);
        assert_eq!(d.policy, PolicyKind::PropFreq);
        assert_eq!(d.degradations.len(), 1);
        assert_eq!(d.degradations.first().unwrap().kind(), "model-load-error");
    }

    #[test]
    fn reason_kinds_are_stable() {
        let reasons = [
            DegradeReason::ModelLoad(String::from("x")),
            DegradeReason::InferencePanic(String::from("x")),
        ];
        let kinds: Vec<&str> = reasons.iter().map(DegradeReason::kind).collect();
        assert_eq!(kinds, ["model-load-error", "inference-panic"]);
        assert!(reasons.iter().all(|r| !r.detail().is_empty()));
    }
}
