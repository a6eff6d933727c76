//! Bipartite message passing (Equations 6–7) and graph tensor caching.

use crate::tape::{relu, spmm};
use crate::{Linear, Matrix, NodeId, ParamStore, Session, Tape};
use rand::rngs::SmallRng;
use sat_graph::{BipartiteGraph, CsrMatrix, LiteralClauseGraph};
use std::rc::Rc;

/// Cached sparse operators for one bipartite variable–clause graph, shared
/// across layers and passes.
///
/// These are exactly the operators the forward pass reads: no transposes
/// (the tape's backward pass scatters through the operator itself, see
/// [`Tape::spmm`]) and no GIN operators (the baseline builds its
/// unit-weight sums from the same sparsity pattern).
#[derive(Debug, Clone)]
pub struct GraphTensors {
    /// Number of variable nodes.
    pub num_vars: usize,
    /// Number of clause nodes.
    pub num_clauses: usize,
    /// Mean-normalized signed aggregation into clause nodes (`C × V`).
    pub to_clause: Rc<CsrMatrix>,
    /// Mean-normalized signed aggregation into variable nodes (`V × C`).
    pub to_var: Rc<CsrMatrix>,
    /// Per-variable `(log-degree, positive-occurrence fraction)`.
    pub var_structure: Vec<(f32, f32)>,
    /// Per-clause `(log-length, positive-literal fraction)`.
    pub clause_structure: Vec<(f32, f32)>,
}

impl GraphTensors {
    /// Precomputes the aggregation operators for a graph.
    ///
    /// The operators are sized to at least one variable and one clause
    /// node, as are the feature matrices of every forward pass: a formula
    /// with no variables or no clauses gets one all-zero node on that side.
    pub fn new(graph: &BipartiteGraph) -> Self {
        let nv = graph.num_vars.max(1);
        let nc = graph.num_clauses.max(1);
        let to_clause = Rc::new(graph.clause_to_var.row_normalized().padded(nc, nv));
        let to_var = Rc::new(graph.var_to_clause.row_normalized().padded(nv, nc));
        let structure = |m: &CsrMatrix| -> Vec<(f32, f32)> {
            (0..m.rows())
                .map(|r| {
                    let row = m.row(r);
                    let deg = row.len() as f32;
                    let pos = row.iter().filter(|&&(_, w)| w > 0.0).count() as f32;
                    ((1.0 + deg).ln(), if deg > 0.0 { pos / deg } else { 0.5 })
                })
                .collect()
        };
        GraphTensors {
            var_structure: structure(&graph.var_to_clause),
            clause_structure: structure(&graph.clause_to_var),
            num_vars: graph.num_vars,
            num_clauses: graph.num_clauses,
            to_clause,
            to_var,
        }
    }
}

/// One bipartite message-passing layer implementing Equations (6) and (7):
/// clauses aggregate from variables, then variables aggregate from the
/// updated clauses.
///
/// Per the paper, the message `MLP` is a single linear layer; the update is
/// `h' = σ(W₂(m + W₃ h))` with σ = ReLU.
#[derive(Debug, Clone)]
pub struct BipartiteMpnn {
    msg_from_var: Linear,
    self_clause: Linear,
    out_clause: Linear,
    msg_from_clause: Linear,
    self_var: Linear,
    out_var: Linear,
}

impl BipartiteMpnn {
    /// Creates a layer with hidden width `dim` on both node types.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut SmallRng) -> Self {
        BipartiteMpnn {
            msg_from_var: Linear::new(store, dim, dim, rng),
            self_clause: Linear::new(store, dim, dim, rng),
            out_clause: Linear::new(store, dim, dim, rng),
            msg_from_clause: Linear::new(store, dim, dim, rng),
            self_var: Linear::new(store, dim, dim, rng),
            out_var: Linear::new(store, dim, dim, rng),
        }
    }

    /// Applies the layer to `(var_features, clause_features)`, returning the
    /// updated pair.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        g: &GraphTensors,
        x_var: NodeId,
        x_clause: NodeId,
    ) -> (NodeId, NodeId) {
        // Equation (6) for clauses: m_c = mean_{v ∈ c} w_vc · W(h_v)
        let hv_msg = self.msg_from_var.forward(tape, sess, store, x_var);
        let m_c = tape.spmm(Rc::clone(&g.to_clause), hv_msg);
        // Equation (7): h_c' = σ(W(m_c + W(h_c)))
        let hc_self = self.self_clause.forward(tape, sess, store, x_clause);
        let hc_sum = tape.add(m_c, hc_self);
        let hc_out = self.out_clause.forward(tape, sess, store, hc_sum);
        let h_clause = tape.relu(hc_out);

        // The symmetric update for variables, using fresh clause features.
        let hc_msg = self.msg_from_clause.forward(tape, sess, store, h_clause);
        let m_v = tape.spmm(Rc::clone(&g.to_var), hc_msg);
        let hv_self = self.self_var.forward(tape, sess, store, x_var);
        let hv_sum = tape.add(m_v, hv_self);
        let hv_out = self.out_var.forward(tape, sess, store, hv_sum);
        let h_var = tape.relu(hv_out);

        (h_var, h_clause)
    }

    /// [`forward`](Self::forward) evaluated without a tape: ReLU and the
    /// residual sums run in place, and each intermediate is dropped once
    /// read.
    pub(crate) fn infer(
        &self,
        store: &ParamStore,
        g: &GraphTensors,
        x_var: &Matrix,
        x_clause: &Matrix,
    ) -> (Matrix, Matrix) {
        let mut h_clause = {
            let mut sum = spmm(&g.to_clause, &self.msg_from_var.infer(store, x_var));
            sum.add_assign(&self.self_clause.infer(store, x_clause));
            self.out_clause.infer(store, &sum)
        };
        h_clause.map_in_place(relu);
        let mut h_var = {
            let mut sum = spmm(&g.to_var, &self.msg_from_clause.infer(store, &h_clause));
            sum.add_assign(&self.self_var.infer(store, x_var));
            self.out_var.infer(store, &sum)
        };
        h_var.map_in_place(relu);
        (h_var, h_clause)
    }
}

/// Cached operators for the NeuroSAT-style literal–clause graph.
#[derive(Debug, Clone)]
pub struct LcgTensors {
    /// Number of variables (`2×` literals).
    pub num_vars: usize,
    /// Number of clauses.
    pub num_clauses: usize,
    /// Aggregation into clauses (`C × 2V`, mean-normalized).
    pub to_clause: Rc<CsrMatrix>,
    /// Aggregation into literals (`2V × C`, mean-normalized).
    pub to_lit: Rc<CsrMatrix>,
    /// The literal-flip permutation (`2V × 2V`).
    pub flip: Rc<CsrMatrix>,
}

impl LcgTensors {
    /// Precomputes the aggregation operators for a literal–clause graph.
    ///
    /// The operators are sized to at least one literal node, as is the
    /// literal state of the forward pass: a formula with no variables gets
    /// one all-zero literal node.
    pub fn new(graph: &LiteralClauseGraph) -> Self {
        let lits = 2 * graph.num_vars;
        let n = lits.max(1);
        let nc = graph.num_clauses;
        let to_clause = Rc::new(graph.clause_to_lit.row_normalized().padded(nc, n));
        let to_lit = Rc::new(graph.lit_to_clause.row_normalized().padded(n, nc));
        let flip_triplets: Vec<(u32, u32, f32)> =
            (0..lits as u32).map(|i| (i, i ^ 1, 1.0)).collect();
        let flip = Rc::new(CsrMatrix::from_triplets(lits, lits, &flip_triplets).padded(n, n));
        LcgTensors {
            num_vars: graph.num_vars,
            num_clauses: graph.num_clauses,
            to_clause,
            to_lit,
            flip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{init_rng, Matrix};

    fn tiny_graph() -> BipartiteGraph {
        let f = cnf::parse_dimacs_str("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        BipartiteGraph::from_cnf(&f)
    }

    #[test]
    fn tensors_have_consistent_shapes() {
        let g = GraphTensors::new(&tiny_graph());
        assert_eq!(g.to_clause.rows(), 2);
        assert_eq!(g.to_clause.cols(), 3);
        assert_eq!(g.to_var.rows(), 3);
        assert_eq!(g.to_var.cols(), 2);
    }

    #[test]
    fn operators_are_padded_to_one_node_per_side() {
        for (text, shape) in [
            ("p cnf 0 0\n", (1, 1)),
            ("p cnf 3 0\n", (1, 3)),
            ("p cnf 0 1\n0\n", (1, 1)),
        ] {
            let f = cnf::parse_dimacs_str(text).unwrap();
            let g = GraphTensors::new(&BipartiteGraph::from_cnf(&f));
            assert_eq!((g.to_clause.rows(), g.to_clause.cols()), shape, "{text:?}");
            assert_eq!((g.to_var.rows(), g.to_var.cols()), (shape.1, shape.0));
            assert_eq!(g.to_clause.nnz(), 0);
        }
    }

    #[test]
    fn signed_normalization() {
        let g = GraphTensors::new(&tiny_graph());
        // clause 0 = {x1, ¬x2}: mean over 2 vars with signs +, -
        assert_eq!(g.to_clause.row(0), &[(0, 0.5), (1, -0.5)][..]);
        // x2 = {¬x2 in clause 0, x2 in clause 1}
        assert_eq!(g.to_var.row(1), &[(0, -0.5), (1, 0.5)][..]);
    }

    #[test]
    fn mpnn_forward_shapes_and_grads() {
        let graph = tiny_graph();
        let tensors = GraphTensors::new(&graph);
        let mut store = ParamStore::new();
        // Seed chosen so the final ReLU keeps at least one activation alive;
        // an all-negative draw would zero every gradient below.
        let mut rng = init_rng(7);
        let layer = BipartiteMpnn::new(&mut store, 4, &mut rng);
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let xv = tape.leaf(Matrix::full(3, 4, 1.0));
        let xc = tape.leaf(Matrix::zeros(2, 4));
        let (hv, hc) = layer.forward(&mut tape, &mut sess, &store, &tensors, xv, xc);
        assert_eq!(tape.value(hv).shape(), (3, 4));
        assert_eq!(tape.value(hc).shape(), (2, 4));
        // gradients flow to every bound parameter
        let pooled = tape.mean_rows(hv);
        let loss = tape.sum_all(pooled);
        let grads = tape.backward(loss);
        assert_eq!(sess.bindings().len(), 12); // 6 linears × (w, b)
        let any_nonzero = sess
            .bindings()
            .iter()
            .any(|&(_, node)| grads.get(node, &tape).as_slice().iter().any(|&x| x != 0.0));
        assert!(any_nonzero, "some parameter must receive gradient");
    }

    #[test]
    fn lcg_flip_is_involution() {
        let f = cnf::parse_dimacs_str("p cnf 2 1\n1 -2 0\n").unwrap();
        let lcg = sat_graph::LiteralClauseGraph::from_cnf(&f);
        let t = LcgTensors::new(&lcg);
        // flip twice = identity on any feature matrix
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let once = t.flip.matmul_dense(x.as_slice(), 1);
        let twice = t.flip.matmul_dense(&once, 1);
        assert_eq!(twice, x.as_slice());
        assert_eq!(once, vec![2.0, 1.0, 4.0, 3.0]);
    }
}
