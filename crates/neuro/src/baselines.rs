//! Baseline SAT classifiers for the Table 2 comparison: a GIN on the
//! variable–clause graph (G4SATBench's strongest general model) and a
//! NeuroSAT-style literal–clause message passer with gated updates.

use crate::{
    Activation, GraphTensors, LcgTensors, Linear, Matrix, Mlp, NodeId, ParamStore, Session, Tape,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sat_graph::CsrMatrix;
use std::rc::Rc;

/// Hyperparameters shared by the baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Hidden feature width.
    pub hidden_dim: usize,
    /// Number of message-passing rounds.
    pub rounds: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            hidden_dim: 32,
            rounds: 6,
            seed: 1,
        }
    }
}

/// A Graph Isomorphism Network on the (unsigned) variable–clause graph,
/// standing in for the G4SATBench baseline of Table 2.
///
/// Each round applies `h' = MLP((1 + ε)·h + Σ_{u ∈ N(v)} h_u)` to clause
/// nodes from variables and then to variable nodes from clauses; readout is
/// the mean over variable nodes into an MLP head producing a logit.
#[derive(Debug, Clone)]
pub struct GinModel {
    config: BaselineConfig,
    clause_mlps: Vec<Mlp>,
    var_mlps: Vec<Mlp>,
    eps: f32,
    head: Mlp,
}

impl GinModel {
    /// Creates the model, registering parameters in `store`.
    pub fn new(store: &mut ParamStore, config: BaselineConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let d = config.hidden_dim;
        let clause_mlps = (0..config.rounds)
            .map(|_| Mlp::new(store, &[d, d, d], Activation::Relu, &mut rng))
            .collect();
        let var_mlps = (0..config.rounds)
            .map(|_| Mlp::new(store, &[d, d, d], Activation::Relu, &mut rng))
            .collect();
        let head = Mlp::new(store, &[d, d, 1], Activation::Relu, &mut rng);
        GinModel {
            config,
            clause_mlps,
            var_mlps,
            eps: 0.1,
            head,
        }
    }

    /// Forward pass returning the scalar logit node.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &GraphTensors,
    ) -> NodeId {
        let d = self.config.hidden_dim;
        let (sum_to_clause, sum_to_var) = unit_sums(g);
        let mut hv = tape.leaf(Matrix::full(g.num_vars.max(1), d, 1.0));
        let mut hc = tape.leaf(Matrix::zeros(g.num_clauses.max(1), d));
        for round in 0..self.config.rounds {
            // clause update: (1+ε)h_c + Σ_v h_v
            let agg_c = tape.spmm(Rc::clone(&sum_to_clause), hv);
            let hc_scaled = tape.scale(hc, 1.0 + self.eps);
            let hc_in = tape.add(hc_scaled, agg_c);
            hc = self.clause_mlps[round].forward(tape, sess, store, hc_in);
            // variable update
            let agg_v = tape.spmm(Rc::clone(&sum_to_var), hc);
            let hv_scaled = tape.scale(hv, 1.0 + self.eps);
            let hv_in = tape.add(hv_scaled, agg_v);
            hv = self.var_mlps[round].forward(tape, sess, store, hv_in);
        }
        let pooled = tape.mean_rows(hv);
        self.head.forward(tape, sess, store, pooled)
    }

    /// Inference probability for label 1.
    pub fn predict(&self, store: &ParamStore, g: &GraphTensors) -> f32 {
        let mut tape = Tape::new();
        let mut sess = Session::new(store);
        let logit = self.forward(&mut tape, &mut sess, store, g);
        let z = tape.value(logit).get(0, 0);
        1.0 / (1.0 + (-z).exp())
    }

    /// One batch-size-1 training step; returns the loss.
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

/// GIN's unsigned, unnormalized sums into clause and into variable nodes.
/// Every raw edge weight is ±1, so these are the sparsity patterns of
/// [`GraphTensors::to_clause`] and [`GraphTensors::to_var`] with unit
/// weights.
fn unit_sums(g: &GraphTensors) -> (Rc<CsrMatrix>, Rc<CsrMatrix>) {
    let unit = |m: &CsrMatrix| Rc::new(m.map_weights(|_| 1.0));
    (unit(&g.to_clause), unit(&g.to_var))
}

/// A NeuroSAT-style classifier on the literal–clause graph with gated
/// (GRU-like) literal updates approximating the original's LSTM, and the
/// literal-flip channel that lets a literal see its negation's state.
#[derive(Debug, Clone)]
pub struct NeuroSatModel {
    config: BaselineConfig,
    clause_update: Linear,
    lit_gate: Linear,
    lit_candidate: Linear,
    lit_flip: Linear,
    head: Mlp,
}

impl NeuroSatModel {
    /// Creates the model, registering parameters in `store`.
    pub fn new(store: &mut ParamStore, config: BaselineConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let d = config.hidden_dim;
        NeuroSatModel {
            config,
            clause_update: Linear::new(store, d, d, &mut rng),
            lit_gate: Linear::new(store, d, d, &mut rng),
            lit_candidate: Linear::new(store, d, d, &mut rng),
            lit_flip: Linear::new(store, d, d, &mut rng),
            head: Mlp::new(store, &[d, d, 1], Activation::Relu, &mut rng),
        }
    }

    /// Forward pass returning the scalar logit node.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &LcgTensors,
    ) -> NodeId {
        let d = self.config.hidden_dim;
        let num_lits = (2 * g.num_vars).max(1);
        let mut hl = tape.leaf(Matrix::full(num_lits, d, 1.0));
        for _ in 0..self.config.rounds {
            // clauses aggregate literal states
            let agg_c = tape.spmm(Rc::clone(&g.to_clause), hl);
            let hc_lin = self.clause_update.forward(tape, sess, store, agg_c);
            let hc = tape.relu(hc_lin);
            // literals aggregate clause states plus their negation's state
            let agg_l = tape.spmm(Rc::clone(&g.to_lit), hc);
            let flipped = tape.spmm(Rc::clone(&g.flip), hl);
            let flip_lin = self.lit_flip.forward(tape, sess, store, flipped);
            let gate_lin = self.lit_gate.forward(tape, sess, store, agg_l);
            let z = tape.sigmoid(gate_lin);
            let cand_lin = self.lit_candidate.forward(tape, sess, store, agg_l);
            let cand_sum = tape.add(cand_lin, flip_lin);
            let cand = tape.tanh(cand_sum);
            // h' = (1 - z) ⊙ h + z ⊙ cand
            let neg_z = tape.scale(z, -1.0);
            let one_minus_z = tape.add_scalar(neg_z, 1.0);
            let keep = tape.mul(one_minus_z, hl);
            let take = tape.mul(z, cand);
            hl = tape.add(keep, take);
        }
        let pooled = tape.mean_rows(hl);
        self.head.forward(tape, sess, store, pooled)
    }

    /// Inference probability for label 1.
    pub fn predict(&self, store: &ParamStore, g: &LcgTensors) -> f32 {
        let mut tape = Tape::new();
        let mut sess = Session::new(store);
        let logit = self.forward(&mut tape, &mut sess, store, g);
        let z = tape.value(logit).get(0, 0);
        1.0 / (1.0 + (-z).exp())
    }

    /// One batch-size-1 training step; returns the loss.
    pub fn train_step(
        &self,
        store: &mut ParamStore,
        adam: &mut crate::Adam,
        g: &LcgTensors,
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
    use sat_graph::{BipartiteGraph, LiteralClauseGraph};

    fn vcg(text: &str) -> GraphTensors {
        GraphTensors::new(&BipartiteGraph::from_cnf(
            &cnf::parse_dimacs_str(text).unwrap(),
        ))
    }

    fn lcg(text: &str) -> LcgTensors {
        LcgTensors::new(&LiteralClauseGraph::from_cnf(
            &cnf::parse_dimacs_str(text).unwrap(),
        ))
    }

    fn tiny() -> BaselineConfig {
        BaselineConfig {
            hidden_dim: 8,
            rounds: 2,
            seed: 3,
        }
    }

    #[test]
    fn gin_sums_are_unsigned_and_unnormalized() {
        // Clause 1 = {x2, x3, x4}; x1 occurs in clauses 0 and 2.
        let (to_clause, to_var) = unit_sums(&vcg("p cnf 4 3\n1 -2 0\n2 3 4 0\n-1 -4 0\n"));
        assert_eq!(to_clause.row(1), &[(1, 1.0), (2, 1.0), (3, 1.0)][..]);
        assert_eq!(to_var.row(0), &[(0, 1.0), (2, 1.0)][..]);
    }

    #[test]
    fn gin_forward_and_overfit() {
        let g = vcg("p cnf 4 3\n1 -2 0\n2 3 4 0\n-1 -4 0\n");
        let mut store = ParamStore::new();
        let model = GinModel::new(&mut store, tiny());
        let mut adam = crate::Adam::new(0.02);
        let first = model.train_step(&mut store, &mut adam, &g, 1);
        let mut last = first;
        for _ in 0..40 {
            last = model.train_step(&mut store, &mut adam, &g, 1);
        }
        assert!(last < first);
        assert!(model.predict(&store, &g) > 0.5);
    }

    #[test]
    fn neurosat_forward_and_overfit() {
        let g = lcg("p cnf 4 3\n1 -2 0\n2 3 4 0\n-1 -4 0\n");
        let mut store = ParamStore::new();
        let model = NeuroSatModel::new(&mut store, tiny());
        let mut adam = crate::Adam::new(0.02);
        let first = model.train_step(&mut store, &mut adam, &g, 0);
        let mut last = first;
        for _ in 0..40 {
            last = model.train_step(&mut store, &mut adam, &g, 0);
        }
        assert!(last < first);
        assert!(model.predict(&store, &g) < 0.5);
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut store = ParamStore::new();
        let gin = GinModel::new(&mut store, tiny());
        let p = gin.predict(&store, &vcg("p cnf 2 1\n1 2 0\n"));
        assert!((0.0..=1.0).contains(&p));
        let mut store2 = ParamStore::new();
        let ns = NeuroSatModel::new(&mut store2, tiny());
        let q = ns.predict(&store2, &lcg("p cnf 2 1\n1 2 0\n"));
        assert!((0.0..=1.0).contains(&q));
    }
}
