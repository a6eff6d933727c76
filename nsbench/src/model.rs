//! The deployed model: its architecture, the committed weights, and the
//! recipe that produced them (`nsbench fit-model`).

use neuro::NeuroSelectConfig;
use neuroselect::sat_gen::{training_batches, DatasetConfig};
use neuroselect::TrainConfig;
use neuroselect::{label_batch, train, LabelingConfig, NeuroSelectClassifier, NeuroSelectSolver};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Adam learning rate of the training recipe (unused at inference).
const LEARNING_RATE: f32 = 3e-3;

/// The deployed architecture: the paper's defaults (two HGT layers, three
/// MPNN sweeps each, hidden width 32) with initialization seed 3.
pub fn config() -> NeuroSelectConfig {
    NeuroSelectConfig {
        seed: 3,
        ..NeuroSelectConfig::default()
    }
}

/// Where the committed weights live.
pub fn weights_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("model.params")
}

/// The batch workloads' set-up: a fresh solver front end with the
/// committed weights loaded. A failed load leaves the solver degraded
/// (every pick falls back to the static heuristic), which the run counts
/// as failed requests rather than aborting.
pub fn load_solver() -> NeuroSelectSolver {
    let mut solver = NeuroSelectSolver::new(NeuroSelectClassifier::new(config(), LEARNING_RATE));
    if let Err(e) = solver.load_weights(&weights_path()) {
        eprintln!("nsbench: model load failed, picks will degrade: {e}");
    }
    solver
}

/// Trains the deployed model the way `exp_table3` does — three labelled
/// training batches of the default dataset, 30 epochs, shuffle seed 7 —
/// and writes the weights to `out`.
///
/// # Errors
///
/// Returns the I/O error of writing `out`.
pub fn fit(out: &Path) -> std::io::Result<()> {
    let data = DatasetConfig::default();
    let labels = LabelingConfig::default();
    let mut train_set = Vec::new();
    for batch in training_batches(&data).into_iter().take(3) {
        eprintln!("labelling batch {}", batch.name);
        train_set.extend(label_batch(&batch, &labels));
    }
    eprintln!("training on {} instances", train_set.len());
    let mut classifier = NeuroSelectClassifier::new(config(), LEARNING_RATE);
    let losses = train(
        &mut classifier,
        &train_set,
        &TrainConfig {
            epochs: 30,
            seed: 7,
            balance: true,
        },
    );
    eprintln!(
        "final epoch loss {:.4}",
        losses.last().copied().unwrap_or(0.0)
    );
    let mut file = std::io::BufWriter::new(std::fs::File::create(out)?);
    neuro::save_params(&mut file, classifier.store())?;
    file.flush()
}
