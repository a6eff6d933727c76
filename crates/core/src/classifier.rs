//! A uniform interface over the SAT-instance classifiers of Table 2, plus
//! the shared training and evaluation loops.

use crate::{ClassifierMetrics, LabeledInstance};
use cnf::Cnf;
use neuro::{
    Adam, BaselineConfig, GinModel, GraphTensors, LcgTensors, NeuroSatModel, NeuroSelectConfig,
    NeuroSelectModel, ParamStore,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sat_graph::{BipartiteGraph, LiteralClauseGraph};

/// A trainable binary classifier of CNF instances.
///
/// `Prepared` caches the graph conversion so that multi-epoch training does
/// not rebuild adjacency every pass.
pub trait Classifier {
    /// The cached graph representation.
    type Prepared;

    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Converts a formula into the classifier's graph representation.
    fn prepare(&self, formula: &Cnf) -> Self::Prepared;

    /// One batch-size-1 gradient step; returns the loss.
    fn train_step(&mut self, prepared: &Self::Prepared, label: u8) -> f32;

    /// The predicted probability of label 1.
    fn predict(&self, prepared: &Self::Prepared) -> f32;

    /// The hard prediction at threshold 0.5.
    fn classify(&self, prepared: &Self::Prepared) -> u8 {
        u8::from(self.predict(prepared) > 0.5)
    }
}

/// The NeuroSelect HGT classifier (optionally without attention, for the
/// Table 2 ablation row).
pub struct NeuroSelectClassifier {
    model: NeuroSelectModel,
    store: ParamStore,
    adam: Adam,
    with_attention: bool,
}

impl NeuroSelectClassifier {
    /// Creates the classifier with the paper's architecture and learning
    /// rate (Adam, 1e-4 by default — pass a larger `lr` for short runs).
    pub fn new(config: NeuroSelectConfig, lr: f32) -> Self {
        let mut store = ParamStore::new();
        let with_attention = config.use_attention;
        let model = NeuroSelectModel::new(&mut store, config);
        NeuroSelectClassifier {
            model,
            store,
            adam: Adam::new(lr),
            with_attention,
        }
    }

    /// Access to the parameter store (for model persistence).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// The predicted probability of label 1, plus the wall-clock time of
    /// the forward pass (the telemetry pipeline's `gnn_forward` phase).
    pub fn predict_timed(&self, prepared: &GraphTensors) -> (f32, std::time::Duration) {
        self.model.predict_timed(&self.store, prepared)
    }

    /// Mutable access to the parameter store (for model loading).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }
}

impl Classifier for NeuroSelectClassifier {
    type Prepared = GraphTensors;

    fn name(&self) -> &'static str {
        if self.with_attention {
            "NeuroSelect"
        } else {
            "NeuroSelect w/o attention"
        }
    }

    fn prepare(&self, formula: &Cnf) -> GraphTensors {
        GraphTensors::new(&BipartiteGraph::from_cnf(formula))
    }

    fn train_step(&mut self, prepared: &GraphTensors, label: u8) -> f32 {
        self.model
            .train_step(&mut self.store, &mut self.adam, prepared, label)
    }

    fn predict(&self, prepared: &GraphTensors) -> f32 {
        self.model.predict(&self.store, prepared)
    }
}

/// The GIN baseline (G4SATBench row of Table 2).
pub struct GinClassifier {
    model: GinModel,
    store: ParamStore,
    adam: Adam,
}

impl GinClassifier {
    /// Creates the baseline with the given configuration and learning rate.
    pub fn new(config: BaselineConfig, lr: f32) -> Self {
        let mut store = ParamStore::new();
        let model = GinModel::new(&mut store, config);
        GinClassifier {
            model,
            store,
            adam: Adam::new(lr),
        }
    }
}

impl Classifier for GinClassifier {
    type Prepared = GraphTensors;

    fn name(&self) -> &'static str {
        "G4SATBench (GIN)"
    }

    fn prepare(&self, formula: &Cnf) -> GraphTensors {
        GraphTensors::new(&BipartiteGraph::from_cnf(formula))
    }

    fn train_step(&mut self, prepared: &GraphTensors, label: u8) -> f32 {
        self.model
            .train_step(&mut self.store, &mut self.adam, prepared, label)
    }

    fn predict(&self, prepared: &GraphTensors) -> f32 {
        self.model.predict(&self.store, prepared)
    }
}

/// The NeuroSAT-style baseline row of Table 2.
pub struct NeuroSatClassifier {
    model: NeuroSatModel,
    store: ParamStore,
    adam: Adam,
}

impl NeuroSatClassifier {
    /// Creates the baseline with the given configuration and learning rate.
    pub fn new(config: BaselineConfig, lr: f32) -> Self {
        let mut store = ParamStore::new();
        let model = NeuroSatModel::new(&mut store, config);
        NeuroSatClassifier {
            model,
            store,
            adam: Adam::new(lr),
        }
    }
}

impl Classifier for NeuroSatClassifier {
    type Prepared = LcgTensors;

    fn name(&self) -> &'static str {
        "NeuroSAT"
    }

    fn prepare(&self, formula: &Cnf) -> LcgTensors {
        LcgTensors::new(&LiteralClauseGraph::from_cnf(formula))
    }

    fn train_step(&mut self, prepared: &LcgTensors, label: u8) -> f32 {
        self.model
            .train_step(&mut self.store, &mut self.adam, prepared, label)
    }

    fn predict(&self, prepared: &LcgTensors) -> f32 {
        self.model.predict(&self.store, prepared)
    }
}

/// Training-loop parameters. The paper trains 400 epochs with batch size 1;
/// tests use far fewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Shuffling seed (examples are reshuffled every epoch).
    pub seed: u64,
    /// Oversample the minority class so each epoch sees roughly balanced
    /// labels. Policy-win labels are naturally skewed (most instances are
    /// ties, labelled 0), and without balancing BCE converges to the
    /// majority class long before it picks up structure.
    pub balance: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 400,
            seed: 7,
            balance: true,
        }
    }
}

/// Trains `classifier` on the labelled instances and returns the mean loss
/// per epoch.
pub fn train<C: Classifier>(
    classifier: &mut C,
    data: &[LabeledInstance],
    config: &TrainConfig,
) -> Vec<f32> {
    let prepared: Vec<(C::Prepared, u8)> = data
        .iter()
        .map(|d| (classifier.prepare(&d.instance.cnf), d.label()))
        .collect();
    let mut order: Vec<usize> = (0..prepared.len()).collect();
    if config.balance {
        let pos = prepared.iter().filter(|(_, l)| *l == 1).count();
        let neg = prepared.len() - pos;
        if pos > 0 && neg > 0 {
            let (minority, reps) = if pos < neg {
                (1u8, neg / pos)
            } else {
                (0u8, pos / neg)
            };
            for _ in 1..reps {
                order.extend(
                    prepared
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, l))| *l == minority)
                        .map(|(i, _)| i),
                );
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut history = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &i in &order {
            let (g, label) = &prepared[i];
            total += classifier.train_step(g, *label);
        }
        history.push(if order.is_empty() {
            0.0
        } else {
            total / order.len() as f32
        });
    }
    history
}

/// Evaluates `classifier` on held-out labelled instances (Table 2 row).
pub fn evaluate<C: Classifier>(classifier: &C, data: &[LabeledInstance]) -> ClassifierMetrics {
    ClassifierMetrics::from_pairs(data.iter().map(|d| {
        let g = classifier.prepare(&d.instance.cnf);
        (classifier.classify(&g), d.label())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LabelOutcome;
    use sat_gen::{Family, Instance};

    fn labeled(text: &str, label: u8) -> LabeledInstance {
        LabeledInstance {
            instance: Instance {
                name: format!("t-{label}"),
                family: Family::RandomKSat,
                cnf: cnf::parse_dimacs_str(text).unwrap(),
            },
            outcome: LabelOutcome {
                label,
                props_default: 100,
                props_prop_freq: if label == 1 { 50 } else { 100 },
                both_solved: true,
                verdicts_agree: true,
            },
        }
    }

    fn tiny_data() -> Vec<LabeledInstance> {
        vec![
            labeled(
                "p cnf 4 6\n1 2 0\n-1 2 0\n1 -2 0\n3 4 0\n-3 4 0\n3 -4 0\n",
                0,
            ),
            labeled("p cnf 4 2\n1 2 3 4 0\n-1 -2 -3 -4 0\n", 1),
        ]
    }

    fn tiny_ns_config() -> NeuroSelectConfig {
        NeuroSelectConfig {
            hidden_dim: 8,
            hgt_layers: 1,
            mpnn_per_hgt: 2,
            use_attention: true,
            seed: 5,
        }
    }

    #[test]
    fn neuroselect_overfits_tiny_dataset() {
        let data = tiny_data();
        let mut c = NeuroSelectClassifier::new(tiny_ns_config(), 0.02);
        let history = train(
            &mut c,
            &data,
            &TrainConfig {
                epochs: 60,
                seed: 1,
                balance: true,
            },
        );
        assert!(history.last().unwrap() < &history[0]);
        let m = evaluate(&c, &data);
        assert_eq!(m.accuracy(), 1.0, "{m}");
    }

    #[test]
    fn baselines_train_without_error() {
        let data = tiny_data();
        let cfg = BaselineConfig {
            hidden_dim: 8,
            rounds: 2,
            seed: 2,
        };
        let mut gin = GinClassifier::new(cfg, 0.02);
        train(
            &mut gin,
            &data,
            &TrainConfig {
                epochs: 30,
                seed: 1,
                balance: true,
            },
        );
        assert_eq!(evaluate(&gin, &data).total(), 2);
        let mut ns = NeuroSatClassifier::new(cfg, 0.02);
        train(
            &mut ns,
            &data,
            &TrainConfig {
                epochs: 30,
                seed: 1,
                balance: true,
            },
        );
        assert_eq!(evaluate(&ns, &data).total(), 2);
    }

    #[test]
    fn every_classifier_predicts_on_empty_formulas() {
        fn probability<C: Classifier>(c: &C, f: &Cnf) -> f32 {
            c.predict(&c.prepare(f))
        }
        let cfg = BaselineConfig {
            hidden_dim: 8,
            rounds: 2,
            seed: 2,
        };
        let ns = NeuroSelectClassifier::new(tiny_ns_config(), 0.01);
        let gin = GinClassifier::new(cfg, 0.01);
        let neurosat = NeuroSatClassifier::new(cfg, 0.01);
        for text in ["p cnf 0 0\n", "p cnf 3 0\n", "p cnf 0 1\n0\n"] {
            let f = cnf::parse_dimacs_str(text).unwrap();
            for p in [
                probability(&ns, &f),
                probability(&gin, &f),
                probability(&neurosat, &f),
            ] {
                assert!((0.0..=1.0).contains(&p), "{text:?}: {p}");
            }
        }
    }

    #[test]
    fn classifier_names() {
        let c = NeuroSelectClassifier::new(tiny_ns_config(), 0.01);
        assert_eq!(c.name(), "NeuroSelect");
        let c2 = NeuroSelectClassifier::new(
            NeuroSelectConfig {
                use_attention: false,
                ..tiny_ns_config()
            },
            0.01,
        );
        assert_eq!(c2.name(), "NeuroSelect w/o attention");
    }

    #[test]
    fn empty_training_set_is_harmless() {
        let mut c = NeuroSelectClassifier::new(tiny_ns_config(), 0.01);
        let history = train(
            &mut c,
            &[],
            &TrainConfig {
                epochs: 3,
                seed: 0,
                balance: true,
            },
        );
        assert_eq!(history, vec![0.0, 0.0, 0.0]);
    }
}
