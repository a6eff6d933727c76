//! The NeuroSelect model: Hybrid Graph Transformer layers plus a
//! classification head (Sections 4.1, 4.3, 4.4).

use crate::tape::sigmoid;
use crate::{
    Activation, BipartiteMpnn, GraphTensors, LinearAttention, Matrix, Mlp, NodeId, ParamStore,
    Session, Tape,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The global size statistics `0.1·ln(1 + |V|)`, `0.1·ln(1 + |C|)` that
/// the readout embeds (Equation 10).
fn size_stats(g: &GraphTensors) -> Matrix {
    Matrix::from_vec(
        1,
        2,
        vec![
            0.1 * (1.0 + g.num_vars as f32).ln(),
            0.1 * (1.0 + g.num_clauses as f32).ln(),
        ],
    )
}

/// One Hybrid Graph Transformer layer (Equations 3–5): a stack of bipartite
/// MPNN layers followed by linear attention over the variable nodes only.
#[derive(Debug, Clone)]
pub struct HgtLayer {
    mpnn: Vec<BipartiteMpnn>,
    attention: Option<LinearAttention>,
}

impl HgtLayer {
    /// Creates a layer with `mpnn_layers` message-passing sweeps and,
    /// unless `use_attention` is false (the w/o-attention ablation of
    /// Table 2), a linear attention block.
    pub fn new(
        store: &mut ParamStore,
        dim: usize,
        mpnn_layers: usize,
        use_attention: bool,
        rng: &mut SmallRng,
    ) -> Self {
        HgtLayer {
            mpnn: (0..mpnn_layers)
                .map(|_| BipartiteMpnn::new(store, dim, rng))
                .collect(),
            attention: use_attention.then(|| LinearAttention::new(store, dim, rng)),
        }
    }

    /// Applies the layer to `(var, clause)` features (Equations 3–5).
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &GraphTensors,
        x_var: NodeId,
        x_clause: NodeId,
    ) -> (NodeId, NodeId) {
        // Equation (3): the MPNN stack.
        let (mut hv, mut hc) = (x_var, x_clause);
        for layer in &self.mpnn {
            let (nv, nc) = layer.forward(tape, sess, store, g, hv, hc);
            hv = nv;
            hc = nc;
        }
        // Equation (4): attention over variable nodes only; Equation (5):
        // clause features pass through from the MPNN.
        if let Some(attn) = &self.attention {
            hv = attn.forward(tape, sess, store, hv);
        }
        (hv, hc)
    }

    /// [`forward`](Self::forward) evaluated without a tape.
    pub(crate) fn infer(
        &self,
        store: &ParamStore,
        g: &GraphTensors,
        mut hv: Matrix,
        mut hc: Matrix,
    ) -> (Matrix, Matrix) {
        for layer in &self.mpnn {
            (hv, hc) = layer.infer(store, g, &hv, &hc);
        }
        if let Some(attn) = &self.attention {
            hv = attn.infer(store, &hv);
        }
        (hv, hc)
    }
}

/// Hyperparameters of [`NeuroSelectModel`]. Defaults follow Section 5.2:
/// two HGT layers, three MPNN sweeps per layer, hidden dimension 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeuroSelectConfig {
    /// Hidden feature width.
    pub hidden_dim: usize,
    /// Number of HGT layers.
    pub hgt_layers: usize,
    /// MPNN sweeps inside each HGT layer.
    pub mpnn_per_hgt: usize,
    /// Whether HGT layers include the linear-attention block
    /// (`false` reproduces the "NeuroSelect w/o attention" ablation).
    pub use_attention: bool,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for NeuroSelectConfig {
    fn default() -> Self {
        NeuroSelectConfig {
            hidden_dim: 32,
            hgt_layers: 2,
            mpnn_per_hgt: 3,
            use_attention: true,
            seed: 1,
        }
    }
}

/// The NeuroSelect classifier: input projections, a stack of [`HgtLayer`]s,
/// mean readout over variable nodes (Equation 10), and an MLP head whose
/// scalar output is the *logit* of selecting the propagation-frequency
/// deletion policy (label 1).
///
/// # Examples
///
/// ```
/// use neuro::{GraphTensors, NeuroSelectConfig, NeuroSelectModel, ParamStore};
/// use sat_graph::BipartiteGraph;
///
/// let f = cnf::parse_dimacs_str("p cnf 3 2\n1 -2 0\n2 3 0\n")?;
/// let tensors = GraphTensors::new(&BipartiteGraph::from_cnf(&f));
/// let mut store = ParamStore::new();
/// let model = NeuroSelectModel::new(&mut store, NeuroSelectConfig::default());
/// let prob = model.predict(&store, &tensors);
/// assert!((0.0..=1.0).contains(&prob));
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NeuroSelectModel {
    config: NeuroSelectConfig,
    layers: Vec<HgtLayer>,
    size_embed: crate::Linear,
    head: Mlp,
}

impl NeuroSelectModel {
    /// Creates the model, registering all parameters in `store`.
    ///
    /// # Panics
    ///
    /// Panics if `hidden_dim < 3` (three channels carry the structural
    /// initial features).
    pub fn new(store: &mut ParamStore, config: NeuroSelectConfig) -> Self {
        assert!(config.hidden_dim >= 3, "hidden_dim must be at least 3");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let d = config.hidden_dim;
        let layers = (0..config.hgt_layers)
            .map(|_| {
                HgtLayer::new(
                    store,
                    d,
                    config.mpnn_per_hgt,
                    config.use_attention,
                    &mut rng,
                )
            })
            .collect();
        let size_embed = crate::Linear::new(store, 2, d, &mut rng);
        let head = Mlp::new(store, &[d, d, 1], Activation::Relu, &mut rng);
        NeuroSelectModel {
            config,
            layers,
            size_embed,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &NeuroSelectConfig {
        &self.config
    }

    /// Runs the forward pass, returning the scalar logit node.
    ///
    /// Initial features follow Section 4.2 — channel 0 is `1` for variable
    /// nodes and `0` for clause nodes — augmented with two structural
    /// channels (log-degree and positive-occurrence fraction). Equation
    /// (6)'s *mean* aggregation makes constant features degree-blind, so
    /// without this augmentation the network cannot see instance size at
    /// all; DESIGN.md §7 records the deviation.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &GraphTensors,
    ) -> NodeId {
        let (hv_init, hc_init) = self.initial_features(g);
        let mut hv = tape.leaf(hv_init);
        let mut hc = tape.leaf(hc_init);
        for layer in &self.layers {
            let (nxt_v, nxt_c) = layer.forward(tape, sess, store, g, hv, hc);
            hv = nxt_v;
            hc = nxt_c;
        }
        // Equation (10): READOUT = mean over variable nodes, plus a learned
        // embedding of the instance's global size.
        let pooled = tape.mean_rows(hv);
        let stats = tape.leaf(size_stats(g));
        let size_vec = self.size_embed.forward(tape, sess, store, stats);
        let combined = tape.add(pooled, size_vec);
        self.head.forward(tape, sess, store, combined)
    }

    /// The initial `(variable, clause)` features of
    /// [`forward`](Self::forward), each side padded to at least one row.
    fn initial_features(&self, g: &GraphTensors) -> (Matrix, Matrix) {
        let d = self.config.hidden_dim;
        let mut hv_init = Matrix::zeros(g.num_vars.max(1), d);
        for (r, &(log_deg, pos_frac)) in g.var_structure.iter().enumerate() {
            hv_init.set(r, 0, 1.0);
            hv_init.set(r, 1, 0.25 * log_deg);
            hv_init.set(r, 2, pos_frac);
        }
        let mut hc_init = Matrix::zeros(g.num_clauses.max(1), d);
        for (r, &(log_len, pos_frac)) in g.clause_structure.iter().enumerate() {
            hc_init.set(r, 1, 0.25 * log_len);
            hc_init.set(r, 2, pos_frac);
        }
        (hv_init, hc_init)
    }

    /// The logit of [`forward`](Self::forward), evaluated straight on
    /// [`Matrix`] values: no tape, no [`Session`], and every intermediate
    /// dropped as soon as its consumer has read it.
    fn logit(&self, store: &ParamStore, g: &GraphTensors) -> f32 {
        let (mut hv, mut hc) = self.initial_features(g);
        for layer in &self.layers {
            (hv, hc) = layer.infer(store, g, hv, hc);
        }
        // Equation (10), as in `forward`.
        let mut combined = hv.mean_rows();
        combined.add_assign(&self.size_embed.infer(store, &size_stats(g)));
        self.head.infer(store, &combined).get(0, 0)
    }

    /// Inference: the probability that the propagation-frequency policy
    /// (label 1) is the better choice for this instance.
    pub fn predict(&self, store: &ParamStore, g: &GraphTensors) -> f32 {
        self.predict_timed(store, g).0
    }

    /// Like [`predict`](Self::predict), but also reports the wall-clock
    /// time of the forward pass — the quantity the paper folds into
    /// NeuroSelect-Kissat's runtime and the telemetry pipeline reports as
    /// the `gnn_forward` phase.
    ///
    /// The pass runs without a tape; its probability is bit-identical to
    /// the sigmoid of [`forward`](Self::forward)'s logit.
    pub fn predict_timed(
        &self,
        store: &ParamStore,
        g: &GraphTensors,
    ) -> (f32, std::time::Duration) {
        let start = std::time::Instant::now();
        let z = self.logit(store, g);
        (sigmoid(z), start.elapsed())
    }

    /// One training step on a single labelled graph (batch size 1, as in
    /// Section 5.2): computes the BCE loss (Equation 11), backpropagates,
    /// applies the optimizer, and returns the loss value.
    pub fn train_step(
        &self,
        store: &mut ParamStore,
        adam: &mut crate::Adam,
        g: &GraphTensors,
        label: u8,
    ) -> f32 {
        let mut tape = Tape::new();
        let mut sess = Session::new(store);
        let logit = self.forward(&mut tape, &mut sess, store, g);
        let loss = tape.bce_with_logits(logit, label as f32);
        let grads = tape.backward(loss);
        adam.step(store, &tape, &sess, &grads);
        tape.value(loss).get(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sat_graph::BipartiteGraph;

    fn tensors(text: &str) -> GraphTensors {
        let f = cnf::parse_dimacs_str(text).unwrap();
        GraphTensors::new(&BipartiteGraph::from_cnf(&f))
    }

    fn tiny_config() -> NeuroSelectConfig {
        NeuroSelectConfig {
            hidden_dim: 8,
            hgt_layers: 1,
            mpnn_per_hgt: 2,
            use_attention: true,
            seed: 42,
        }
    }

    #[test]
    fn forward_produces_scalar_logit() {
        let g = tensors("p cnf 4 3\n1 -2 0\n2 3 4 0\n-1 -4 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let logit = model.forward(&mut tape, &mut sess, &store, &g);
        assert_eq!(tape.value(logit).shape(), (1, 1));
    }

    #[test]
    fn predict_is_probability_and_deterministic() {
        let g = tensors("p cnf 3 2\n1 2 0\n-2 3 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let p1 = model.predict(&store, &g);
        let p2 = model.predict(&store, &g);
        assert_eq!(p1, p2);
        assert!((0.0..=1.0).contains(&p1));
    }

    #[test]
    fn predict_timed_matches_predict() {
        let g = tensors("p cnf 3 2\n1 2 0\n-2 3 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let (p, elapsed) = model.predict_timed(&store, &g);
        assert_eq!(p, model.predict(&store, &g));
        assert!(elapsed > std::time::Duration::ZERO);
    }

    #[test]
    fn training_reduces_loss_on_single_example() {
        let g = tensors("p cnf 5 4\n1 -2 0\n2 3 0\n-3 4 5 0\n-1 -5 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let mut adam = crate::Adam::new(0.01);
        let first = model.train_step(&mut store, &mut adam, &g, 1);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_step(&mut store, &mut adam, &g, 1);
        }
        assert!(last < first, "loss should decrease: {first} -> {last}");
        assert!(model.predict(&store, &g) > 0.5);
    }

    #[test]
    fn can_separate_two_structures() {
        // Overfit two structurally different graphs with opposite labels.
        let g0 = tensors("p cnf 4 6\n1 2 0\n-1 2 0\n1 -2 0\n3 4 0\n-3 4 0\n3 -4 0\n");
        let g1 = tensors("p cnf 4 2\n1 2 3 4 0\n-1 -2 -3 -4 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSelectModel::new(&mut store, tiny_config());
        let mut adam = crate::Adam::new(0.02);
        for _ in 0..60 {
            model.train_step(&mut store, &mut adam, &g0, 0);
            model.train_step(&mut store, &mut adam, &g1, 1);
        }
        assert!(model.predict(&store, &g0) < 0.5);
        assert!(model.predict(&store, &g1) > 0.5);
    }

    #[test]
    fn ablation_without_attention_builds_and_runs() {
        let g = tensors("p cnf 3 2\n1 2 0\n-2 3 0\n");
        let mut store = ParamStore::new();
        let config = NeuroSelectConfig {
            use_attention: false,
            ..tiny_config()
        };
        let model = NeuroSelectModel::new(&mut store, config);
        let p = model.predict(&store, &g);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn paper_default_dimensions() {
        let c = NeuroSelectConfig::default();
        assert_eq!(c.hidden_dim, 32);
        assert_eq!(c.hgt_layers, 2);
        assert_eq!(c.mpnn_per_hgt, 3);
        assert!(c.use_attention);
    }
}
