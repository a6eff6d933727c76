//! **NeuroSelect** — learning to select clause-deletion policies in CDCL
//! SAT solvers (reproduction of Liu et al., DAC 2024).
//!
//! Modern CDCL solvers periodically delete learned clauses; which clauses
//! to delete is decided by a scoring policy. The paper introduces a second
//! policy driven by *variable propagation frequency* (Equation 2) and
//! trains a Hybrid Graph Transformer to pick, per instance, whichever of
//! the two policies will solve it faster — one CPU inference, run when a
//! clause-database reduction is first about to delete a clause, the one
//! place the solver reads the policy (a solve that never deletes one skips
//! it).
//!
//! This crate is the top of the workspace: it wires the
//! [`sat_solver`] substrate (CDCL with pluggable deletion
//! policies), the [`sat_gen`] instance families, the
//! [`sat_graph`] encodings, and the [`neuro`] models into
//! the paper's pipeline:
//!
//! 1. **Label** ([`label_batch`]): solve every instance under both
//!    policies; label 1 iff the new policy saves ≥ 2% propagations.
//! 2. **Train** ([`train`]): fit a [`Classifier`] (NeuroSelect or a
//!    baseline) with Adam, batch size 1.
//! 3. **Evaluate** ([`evaluate`]): Table 2 metrics.
//! 4. **Deploy** ([`NeuroSelectSolver`]): the solver starts at once, and one
//!    inference selects the policy when the first reduction that will
//!    delete a clause is due (Table 3 / Figure 7).
//!
//! # Examples
//!
//! End-to-end on a tiny synthetic dataset:
//!
//! ```
//! use neuroselect::{
//!     evaluate, label_batch, train, Budget, LabelingConfig, NeuroSelectClassifier,
//!     NeuroSelectSolver, TrainConfig,
//! };
//! use neuro::NeuroSelectConfig;
//! use sat_gen::{competition_batch, DatasetConfig};
//!
//! let data_cfg = DatasetConfig::tiny();
//! let train_set = label_batch(&competition_batch("train", &data_cfg, 1), &LabelingConfig::default());
//!
//! let model_cfg = NeuroSelectConfig { hidden_dim: 8, hgt_layers: 1, mpnn_per_hgt: 1, ..Default::default() };
//! let mut classifier = NeuroSelectClassifier::new(model_cfg, 1e-2);
//! train(&mut classifier, &train_set, &TrainConfig { epochs: 3, seed: 0, balance: true });
//!
//! let solver = NeuroSelectSolver::new(classifier);
//! let outcome = solver.solve(&train_set[0].instance.cnf, Budget::unlimited());
//! assert!(!outcome.result.is_unknown());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calibrate;
mod classifier;
mod fallback;
mod label;
mod metrics;
mod select;

pub use calibrate::{calibrate_threshold, Calibration};
pub use classifier::{
    evaluate, train, Classifier, GinClassifier, NeuroSatClassifier, NeuroSelectClassifier,
    TrainConfig,
};
pub use fallback::{static_heuristic_policy, DegradeReason, PolicyDecision, PolicySource};
pub use label::{
    label_batch, label_cnf, positive_rate, LabelOutcome, LabeledInstance, LabelingConfig,
};
pub use metrics::{mean, median, quantile, BoxPlot, ClassifierMetrics, RuntimeSummary};
pub use select::{NeuroSelectSolver, SelectionOutcome};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use cnf;
pub use logic_circuit;
pub use neuro;
pub use sat_gen;
pub use sat_graph;
pub use sat_solver;

// Selected conveniences at the crate root.
pub use sat_solver::{Budget, PolicyKind, SolveResult};
