//! Linear global attention (Equations 8–9), after SGFormer.
//!
//! The layer computes all-pair attention between variable nodes in `O(N·d²)`
//! by associating the product `Q̃(K̃ᵀV)` right-to-left instead of
//! materializing the `N × N` attention matrix. A reference quadratic
//! implementation with identical algebra is provided for the equivalence
//! property test and the scaling ablation (DESIGN.md D5).

use crate::{Linear, Matrix, NodeId, ParamStore, Session, Tape};
use rand::rngs::SmallRng;

/// The linear attention layer of Equation (8)/(9):
///
/// ```text
/// Q = f_Q(Z)   Q̃ = Q/‖Q‖_F     K = f_K(Z)   K̃ = K/‖K‖_F   V = f_V(Z)
/// D = diag(1 + (1/N) Q̃ (K̃ᵀ 1))
/// LinearAttn(Z) = D⁻¹ [V + (1/N) Q̃ (K̃ᵀ V)]
/// ```
#[derive(Debug, Clone)]
pub struct LinearAttention {
    f_q: Linear,
    f_k: Linear,
    f_v: Linear,
}

impl LinearAttention {
    /// Creates the layer with width `dim` for queries, keys, and values.
    pub fn new(store: &mut ParamStore, dim: usize, rng: &mut SmallRng) -> Self {
        LinearAttention {
            f_q: Linear::new(store, dim, dim, rng),
            f_k: Linear::new(store, dim, dim, rng),
            f_v: Linear::new(store, dim, dim, rng),
        }
    }

    fn qkv(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        z: NodeId,
    ) -> (NodeId, NodeId, NodeId) {
        let q = self.f_q.forward(tape, sess, store, z);
        let k = self.f_k.forward(tape, sess, store, z);
        let v = self.f_v.forward(tape, sess, store, z);
        let qn = tape.frob_normalize(q);
        let kn = tape.frob_normalize(k);
        (qn, kn, v)
    }

    /// Applies linear attention to an `N × d` node (Equation 9),
    /// in `O(N·d²)` time and memory.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        z: NodeId,
    ) -> NodeId {
        let n = tape.value(z).rows();
        let (qn, kn, v) = self.qkv(tape, sess, store, z);
        let inv_n = 1.0 / n as f32;

        // (1/N) Q̃ (K̃ᵀ V): associate right-to-left — d×d intermediate.
        let kt = tape.transpose(kn);
        let ktv = tape.matmul(kt, v);
        let qktv = tape.matmul(qn, ktv);
        let qktv = tape.scale(qktv, inv_n);

        // D = diag(1 + (1/N) Q̃ (K̃ᵀ 1))
        let ones = tape.leaf(Matrix::full(n, 1, 1.0));
        let kt1 = tape.matmul(kt, ones);
        let qkt1 = tape.matmul(qn, kt1);
        let qkt1 = tape.scale(qkt1, inv_n);
        let d = tape.add_scalar(qkt1, 1.0);

        // D⁻¹ [V + …]
        let num = tape.add(v, qktv);
        tape.div_cols(num, d)
    }

    /// [`forward`](Self::forward) evaluated without a tape, with the
    /// same operations in the same order.
    pub(crate) fn infer(&self, store: &ParamStore, z: &Matrix) -> Matrix {
        let n = z.rows();
        let inv_n = 1.0 / n as f32;
        let mut qn = self.f_q.infer(store, z);
        qn.frob_normalize_in_place();
        let kt = {
            let mut kn = self.f_k.infer(store, z);
            kn.frob_normalize_in_place();
            kn.transpose()
        };
        let mut v = self.f_v.infer(store, z);

        let mut qktv = qn.matmul(&kt.matmul(&v));
        qktv.map_in_place(|x| x * inv_n);
        let mut d = qn.matmul(&kt.matmul(&Matrix::full(n, 1, 1.0)));
        d.map_in_place(|x| x * inv_n + 1.0);

        v.add_assign(&qktv);
        v.div_rows(&d);
        v
    }

    /// Reference implementation that materializes the full `N × N`
    /// attention matrix `(1/N) Q̃ K̃ᵀ`. Produces the same values as
    /// [`forward`](Self::forward) (up to floating-point associativity) in
    /// `O(N²·d)` time — used in tests and the scaling ablation only.
    pub fn forward_quadratic(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        z: NodeId,
    ) -> NodeId {
        let n = tape.value(z).rows();
        let (qn, kn, v) = self.qkv(tape, sess, store, z);
        let inv_n = 1.0 / n as f32;

        // A = (1/N) Q̃ K̃ᵀ, the explicit N × N attention matrix.
        let ktr = tape.transpose(kn);
        let a = tape.matmul(qn, ktr);
        let a = tape.scale(a, inv_n);

        let ones = tape.leaf(Matrix::full(n, 1, 1.0));
        let a1 = tape.matmul(a, ones);
        let d = tape.add_scalar(a1, 1.0);

        let av = tape.matmul(a, v);
        let num = tape.add(v, av);
        tape.div_cols(num, d)
    }

    /// The bound parameter count (6: three weight matrices + biases).
    pub fn param_ids(&self) -> [crate::ParamId; 6] {
        [
            self.f_q.w, self.f_q.b, self.f_k.w, self.f_k.b, self.f_v.w, self.f_v.b,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init_rng;
    use rand::Rng;

    fn random_features(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = init_rng(seed);
        Matrix::from_vec(n, d, (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn linear_equals_quadratic() {
        let mut store = ParamStore::new();
        let mut rng = init_rng(11);
        let attn = LinearAttention::new(&mut store, 8, &mut rng);
        for n in [1usize, 2, 7, 33] {
            let z_val = random_features(n, 8, n as u64);
            let mut tape = Tape::new();
            let mut sess = Session::new(&store);
            let z = tape.leaf(z_val.clone());
            let fast = attn.forward(&mut tape, &mut sess, &store, z);
            let slow = attn.forward_quadratic(&mut tape, &mut sess, &store, z);
            let f = tape.value(fast).as_slice();
            let s = tape.value(slow).as_slice();
            for (a, b) in f.iter().zip(s) {
                assert!((a - b).abs() < 1e-4, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn output_shape_matches_input() {
        let mut store = ParamStore::new();
        let mut rng = init_rng(3);
        let attn = LinearAttention::new(&mut store, 4, &mut rng);
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let z = tape.leaf(random_features(10, 4, 5));
        let out = attn.forward(&mut tape, &mut sess, &store, z);
        assert_eq!(tape.value(out).shape(), (10, 4));
    }

    #[test]
    fn gradients_flow_through_attention() {
        let mut store = ParamStore::new();
        let mut rng = init_rng(4);
        let attn = LinearAttention::new(&mut store, 4, &mut rng);
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let z = tape.leaf(random_features(6, 4, 9));
        let out = attn.forward(&mut tape, &mut sess, &store, z);
        let pooled = tape.mean_rows(out);
        let loss = tape.sum_all(pooled);
        let grads = tape.backward(loss);
        for pid in attn.param_ids() {
            let node = sess
                .bindings()
                .iter()
                .find(|(p, _)| *p == pid)
                .map(|&(_, n)| n)
                .expect("param bound");
            let g = grads.get(node, &tape);
            assert_eq!(g.shape(), store.value(pid).shape());
        }
        // input also receives gradient
        let gz = grads.get(z, &tape);
        assert!(gz.as_slice().iter().any(|&x| x != 0.0));
    }

    #[test]
    fn attention_mixes_information_globally() {
        // Two far-apart rows influence each other: perturbing row 0 changes
        // the output at the last row.
        let mut store = ParamStore::new();
        let mut rng = init_rng(6);
        let attn = LinearAttention::new(&mut store, 4, &mut rng);
        let base = random_features(8, 4, 1);
        let mut perturbed = base.clone();
        perturbed.set(0, 0, perturbed.get(0, 0) + 1.0);

        let run = |m: Matrix, attn: &LinearAttention, store: &ParamStore| -> Vec<f32> {
            let mut tape = Tape::new();
            let mut sess = Session::new(store);
            let z = tape.leaf(m);
            let out = attn.forward(&mut tape, &mut sess, store, z);
            tape.value(out).row(7).to_vec()
        };
        let a = run(base, &attn, &store);
        let b = run(perturbed, &attn, &store);
        assert_ne!(a, b, "global attention must propagate remote changes");
    }
}
