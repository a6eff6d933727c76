//! The NeuroSelect-guided solver: one model inference picks the deletion
//! policy the CDCL solver reduces its clause database with (Section 4.1,
//! Figure 6).
//!
//! The paper classifies before solving. Here the search starts at once and
//! the model runs when the policy is first read, just before the first
//! clause-database reduction that will delete a clause
//! ([`Solver::solve_with_policy_pick`]). The policy only orders the clauses
//! a reduction deletes, and the first reduction never deletes (every
//! learned clause is protected until a reduction has passed it), so a
//! solve that deletes gets the same pick, statistics and verdict as
//! classify-then-solve, and a solve that never deletes skips inference.
//! The rungs of the fallback ladder that need no inference (a sticky
//! model fault, the node cutoff) still pick before the search.

use crate::fallback::{degraded_decision, DegradeReason, PolicyDecision, PolicySource};
use crate::{Classifier, NeuroSelectClassifier};
use cnf::Cnf;
use neuro::LoadParamsError;
use sat_solver::{
    run_isolated, Budget, PolicyKind, SolveResult, Solver, SolverConfig, SolverStats,
    SolverTelemetry,
};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};
use telemetry::json::Json;
use telemetry::{Phase, PhaseTimes, RunRecord, Sink};

/// The record of one NeuroSelect-guided solve, including the inference
/// cost the paper folds into NeuroSelect-Kissat's runtime.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The solver verdict.
    pub result: SolveResult,
    /// Solver statistics of the selected run.
    pub stats: SolverStats,
    /// The policy the pick installed; without a pick
    /// ([`policy_needed`](Self::policy_needed) false under the model rung),
    /// the default policy the search ran under.
    pub chosen: PolicyKind,
    /// The model's probability for the propagation-frequency policy (0.0
    /// when the model was not consulted).
    pub probability: f32,
    /// Wall-clock time of the pick: graph build + forward pass when the
    /// model ran, whether before or during the search; zero when no pick
    /// was made.
    pub inference_time: Duration,
    /// Wall-clock time of the solving phase, excluding any inference that
    /// ran inside the search.
    pub solve_time: Duration,
    /// Which rung of the selection ladder produced the policy pick
    /// ([`PolicySource::Model`] when no pick was needed).
    pub source: PolicySource,
    /// Degradations hit on the way to the pick (empty in normal
    /// operation); also recorded in [`SelectionOutcome::record`].
    pub degradations: Vec<DegradeReason>,
    /// Whether a clause-database reduction deleted a clause: the deletion
    /// policy orders those deletions and nothing else. Under the model
    /// rung the pick is made only then: when false, no inference ran. The
    /// rungs that need no inference (a sticky model fault, the node
    /// cutoff) pick before the search either way. Mirrored as
    /// `extra.policy_needed` in the record.
    pub policy_needed: bool,
    /// Full telemetry record: solver phase timings and counters plus
    /// the pipeline's `feature_extract` / `gnn_forward` / `policy_select`
    /// phases and the inference time (null without a pick).
    pub record: RunRecord,
}

impl SelectionOutcome {
    /// Total wall-clock cost (inference + solving), the paper's
    /// "NeuroSelect-Kissat runtime".
    pub fn total_time(&self) -> Duration {
        self.inference_time + self.solve_time
    }
}

/// Graph size (variables + clauses) above which inference is skipped and
/// the default policy used unselected: the paper's 400 000-node cutoff, a
/// GPU-memory limit kept here for fidelity.
const NODE_CUTOFF: usize = 400_000;

/// A trained NeuroSelect classifier wrapped as a policy-selecting solver
/// front end.
///
/// Mirrors the paper's deployment: instances whose graph exceeds
/// 400 000 nodes skip inference and use the default policy.
pub struct NeuroSelectSolver {
    classifier: NeuroSelectClassifier,
    /// Decision threshold on the predicted probability.
    pub threshold: f32,
    /// Sticky model fault (e.g. a failed weight load): while set, every
    /// selection skips inference and degrades to the static heuristic.
    model_fault: Option<DegradeReason>,
}

impl NeuroSelectSolver {
    /// Wraps a trained classifier with the paper's deployment defaults.
    pub fn new(classifier: NeuroSelectClassifier) -> Self {
        NeuroSelectSolver {
            classifier,
            threshold: 0.5,
            model_fault: None,
        }
    }

    /// Access to the wrapped classifier.
    pub fn classifier(&self) -> &NeuroSelectClassifier {
        &self.classifier
    }

    /// Loads trained weights from `path` into the wrapped classifier.
    ///
    /// On failure the solver **stays usable but degraded**: the error is
    /// remembered as a sticky model fault, and every later policy
    /// selection skips inference and falls back to the static heuristic
    /// (recorded as a `model-load-error` degradation in the run's
    /// telemetry). A later successful load clears the fault.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`LoadParamsError`] so callers that *want*
    /// to fail hard still can; ignoring it opts into degraded operation.
    pub fn load_weights(&mut self, path: &Path) -> Result<(), LoadParamsError> {
        let result = self.try_load_weights(path);
        self.model_fault = result
            .as_ref()
            .err()
            .map(|e| DegradeReason::ModelLoad(format!("{}: {e}", path.display())));
        result
    }

    fn try_load_weights(&mut self, path: &Path) -> Result<(), LoadParamsError> {
        let file = File::open(path)?;
        #[cfg(feature = "faults")]
        if let Some(cfg) = faults::fire(faults::site::MODEL_IO, &[]) {
            let budget = cfg.get_u64("after", 16);
            let reader = BufReader::new(faults::FailingReader::new(file, budget));
            return neuro::load_params(reader, self.classifier.store_mut());
        }
        neuro::load_params(BufReader::new(file), self.classifier.store_mut())
    }

    /// The sticky model fault, if the model is currently out of service.
    pub fn model_fault(&self) -> Option<&DegradeReason> {
        self.model_fault.as_ref()
    }

    /// Picks the deletion policy through the full degradation ladder,
    /// returning the [`PolicyDecision`] (policy, source rung, and any
    /// degradations hit) together with the selection wall time.
    ///
    /// This classifies up front, for callers that need the pick before
    /// they build a solver: the O(1) rungs (a sticky model fault, the node
    /// cutoff), then the inference rungs (inference, the threshold).
    pub fn decide_policy(&self, formula: &Cnf) -> (PolicyDecision, Duration) {
        let start = Instant::now();
        let decision = self
            .decide_without_inference(formula)
            .unwrap_or_else(|| self.decide_by_inference(formula).0);
        (decision, start.elapsed())
    }

    /// The rungs that need no inference, each O(1): a sticky model fault
    /// steps down to the static heuristic, and a graph above the node
    /// cutoff takes the default policy. `None` means the pick needs the
    /// model.
    fn decide_without_inference(&self, formula: &Cnf) -> Option<PolicyDecision> {
        if let Some(reason) = &self.model_fault {
            return Some(degraded_decision(formula, reason.clone()));
        }
        let nodes = formula.num_vars() as usize + formula.num_clauses();
        // By-design cutoff (the paper's GPU-memory limit), not a fault.
        (nodes > NODE_CUTOFF).then(PolicyDecision::unconsulted)
    }

    /// The inference rungs: inference in panic isolation, then the
    /// threshold. A panic steps down to the static heuristic — a broken
    /// model degrades the pick, never the run. Also returns the per-phase
    /// timing: `feature_extract` (formula → graph tensors), `gnn_forward`
    /// (model forward pass), and `policy_select` (thresholding).
    fn decide_by_inference(&self, formula: &Cnf) -> (PolicyDecision, PhaseTimes) {
        // `run_isolated` is sound here: on panic the prepared tensors are
        // dropped mid-unwind and never touched again, and the classifier's
        // forward pass does not mutate shared state.
        let inference = run_isolated(|| {
            #[cfg(feature = "faults")]
            if faults::fire(faults::site::INFERENCE_PANIC, &[]).is_some() {
                panic!("injected fault: model inference panicked");
            }
            let mut phases = PhaseTimes::default();
            let prepared = {
                let _guard = phases.scope(Phase::FeatureExtract);
                self.classifier.prepare(formula)
            };
            let (probability, forward_time) = self.classifier.predict_timed(&prepared);
            phases.add(Phase::GnnForward, forward_time);
            (probability, phases)
        });
        let (probability, mut phases) = match inference {
            Ok(out) => out,
            Err(crash) => {
                let reason = DegradeReason::InferencePanic(crash.message);
                return (degraded_decision(formula, reason), PhaseTimes::default());
            }
        };
        let select_start = Instant::now();
        let chosen = if probability > self.threshold {
            PolicyKind::PropFreq
        } else {
            PolicyKind::Default
        };
        phases.add(Phase::PolicySelect, select_start.elapsed());
        let decision = PolicyDecision {
            policy: chosen,
            probability,
            source: PolicySource::Model,
            degradations: Vec::new(),
        };
        (decision, phases)
    }

    /// Solves a formula with the model-selected deletion policy.
    pub fn solve(&self, formula: &Cnf, budget: Budget) -> SelectionOutcome {
        self.solve_recorded(formula, budget, "unnamed", None)
    }

    /// Like [`solve`](Self::solve), with telemetry identity and output:
    /// the outcome's [`RunRecord`] is tagged with `instance_id`, and solver
    /// events stream into `sink` when one is given.
    ///
    /// The O(1) rungs (a sticky model fault, the node cutoff) pick before
    /// the search starts. Otherwise the search starts at once under the
    /// default policy, and the inference rungs run only when the first
    /// clause-database reduction that will delete a clause is due
    /// ([`Solver::solve_with_policy_pick`]); a solve that never deletes
    /// one never extracts features or runs the forward pass.
    ///
    /// The `solve_end` event emitted through the sink carries solver-side
    /// measurements only; the *returned* record is additionally enriched
    /// with the pipeline phases, the inference time, the model
    /// probability, and `policy_needed`.
    pub fn solve_recorded(
        &self,
        formula: &Cnf,
        budget: Budget,
        instance_id: &str,
        sink: Option<Box<dyn Sink>>,
    ) -> SelectionOutcome {
        let start = Instant::now();
        let upfront = self.decide_without_inference(formula);
        let upfront_time = start.elapsed();
        let solve_start = Instant::now();
        let initial = upfront.as_ref().map_or(PolicyKind::Default, |d| d.policy);
        let mut solver = Solver::new(formula, SolverConfig::with_policy(initial));
        let mut telemetry = SolverTelemetry::new(instance_id);
        if let Some(sink) = sink {
            telemetry = telemetry.with_sink(sink);
        }
        solver.set_telemetry(telemetry);
        let mut lazy = None;
        let result = if upfront.is_some() {
            solver.solve_with_budget(budget)
        } else {
            solver.solve_with_policy_pick(budget, || {
                let began = Instant::now();
                let (decision, phases) = self.decide_by_inference(formula);
                let policy = decision.policy;
                lazy = Some((decision, began.elapsed(), phases));
                policy
            })
        };
        // Inference that ran inside the search is charged to inference
        // only, so `total_time` counts it once.
        let lazy_time = lazy.as_ref().map_or(Duration::ZERO, |&(_, t, _)| t);
        let solve_time = solve_start.elapsed().saturating_sub(lazy_time);
        let stats = *solver.stats();
        let mut record = solver
            .take_telemetry()
            .and_then(SolverTelemetry::into_record)
            // Unreachable: the recorder was installed above and survives
            // the solve; fall back to an empty record rather than panicking.
            .unwrap_or_else(|| RunRecord::new(instance_id, ""));
        record.solve_time_s = (record.solve_time_s - lazy_time.as_secs_f64()).max(0.0);
        let policy_needed = stats.deleted_clauses > 0;
        record.extra.set("policy_needed", Json::from(policy_needed));
        let picked = upfront
            .map(|decision| (decision, upfront_time, PhaseTimes::default()))
            .or(lazy);
        if let Some((decision, inference_time, pipeline_phases)) = &picked {
            record.inference_time_s = Some(inference_time.as_secs_f64());
            record.phases.merge(pipeline_phases);
            record
                .extra
                .set("probability", Json::from(f64::from(decision.probability)));
        }
        // Without a pick the search ran under the default policy it
        // started with, and the model was never consulted.
        let (decision, inference_time) = picked.map_or_else(
            || (PolicyDecision::unconsulted(), Duration::ZERO),
            |(decision, inference_time, _)| (decision, inference_time),
        );
        record
            .extra
            .set("policy_source", Json::from(decision.source.as_str()));
        for d in &decision.degradations {
            record.degrade(d.kind(), d.detail());
        }
        SelectionOutcome {
            result,
            stats,
            chosen: decision.policy,
            probability: decision.probability,
            inference_time,
            solve_time,
            source: decision.source,
            degradations: decision.degradations,
            policy_needed,
            record,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuro::NeuroSelectConfig;

    fn tiny_solver() -> NeuroSelectSolver {
        NeuroSelectSolver::new(NeuroSelectClassifier::new(
            NeuroSelectConfig {
                hidden_dim: 8,
                hgt_layers: 1,
                mpnn_per_hgt: 1,
                use_attention: true,
                seed: 3,
            },
            0.01,
        ))
    }

    #[test]
    fn solve_returns_valid_outcome() {
        let f = sat_gen::phase_transition_3sat(30, 4);
        let s = tiny_solver();
        let out = s.solve(&f, Budget::unlimited());
        assert!(!out.result.is_unknown());
        if let Some(model) = out.result.model() {
            assert!(cnf::verify_model(&f, model).is_ok());
        }
        assert!(out.total_time() >= out.inference_time);
        assert!((0.0..=1.0).contains(&out.probability));
    }

    #[test]
    fn oversized_instances_skip_inference() {
        // One node past the cutoff: 400 001 variables and no clauses.
        let f = cnf::parse_dimacs_str("p cnf 400001 0\n").unwrap();
        assert_eq!(f.num_vars() as usize, NODE_CUTOFF + 1);
        let (decision, _) = tiny_solver().decide_policy(&f);
        assert_eq!(decision.policy, PolicyKind::Default);
        assert_eq!(decision.probability, 0.0);
        assert_eq!(decision.source, PolicySource::Model);
        assert!(decision.degradations.is_empty());
    }

    #[test]
    fn failed_weight_load_degrades_to_the_heuristic() {
        let f = sat_gen::phase_transition_3sat(20, 1); // dense: heuristic → PropFreq
        let mut s = tiny_solver();
        assert!(s
            .load_weights(std::path::Path::new("/nonexistent/weights.params"))
            .is_err());
        assert!(s.model_fault().is_some(), "load failure must be sticky");
        let (decision, _) = s.decide_policy(&f);
        assert_eq!(decision.source, PolicySource::Heuristic);
        assert_eq!(decision.policy, PolicyKind::PropFreq);
        assert_eq!(decision.degradations.len(), 1);

        // The degraded run still solves, and the record says why it was
        // degraded.
        let out = s.solve_recorded(&f, Budget::unlimited(), "degraded", None);
        assert!(!out.result.is_unknown());
        assert_eq!(out.source, PolicySource::Heuristic);
        assert_eq!(out.record.degradations.len(), 1);
        assert_eq!(
            out.record.degradations.first().unwrap().kind,
            "model-load-error"
        );
        assert_eq!(
            out.record
                .extra
                .get("policy_source")
                .and_then(|j| j.as_str()),
            Some("heuristic")
        );
    }

    #[test]
    fn successful_weight_load_restores_the_model() {
        let dir = std::env::temp_dir().join("neuroselect-select-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.params");
        let mut s = tiny_solver();
        {
            let mut buf = Vec::new();
            neuro::save_params(&mut buf, s.classifier().store()).unwrap();
            std::fs::write(&path, buf).unwrap();
        }
        let _ = s.load_weights(std::path::Path::new("/nonexistent/weights.params"));
        assert!(s.model_fault().is_some());
        s.load_weights(&path).expect("round-trip load");
        assert!(s.model_fault().is_none(), "a good load clears the fault");
        let f = sat_gen::phase_transition_3sat(20, 1);
        assert_eq!(s.decide_policy(&f).0.source, PolicySource::Model);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_formulas_are_classified_by_the_model() {
        let s = tiny_solver();
        for text in ["p cnf 0 0\n", "p cnf 3 0\n", "p cnf 0 1\n0\n"] {
            let f = cnf::parse_dimacs_str(text).unwrap();
            let (decision, _) = s.decide_policy(&f);
            assert_eq!(decision.source, PolicySource::Model, "{text:?}");
            assert!(decision.degradations.is_empty(), "{text:?}");
        }
    }

    #[test]
    fn threshold_controls_choice() {
        let f = sat_gen::phase_transition_3sat(20, 1);
        let mut s = tiny_solver();
        s.threshold = -1.0; // everything above: always prop-freq
        assert_eq!(s.decide_policy(&f).0.policy, PolicyKind::PropFreq);
        s.threshold = 2.0; // never
        assert_eq!(s.decide_policy(&f).0.policy, PolicyKind::Default);
    }
}
