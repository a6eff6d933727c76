//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records every operation of one forward pass; [`Tape::backward`]
//! then accumulates gradients for every node in a single reverse sweep. The
//! op set is exactly what the paper's layers need: dense/sparse matrix
//! products, broadcasting adds, element-wise nonlinearities, Frobenius
//! normalization (Equation 8), per-row division (the `D⁻¹` of Equation 9),
//! mean-row readout (Equation 10) and a fused sigmoid + binary cross-entropy
//! loss (Equation 11).
//!
//! The tape serves training only. Inference evaluates the layers without
//! one (their `infer` methods), so it keeps no intermediate alive past its
//! reader and clones no weights; the scalar functions and kernels below
//! are shared by both paths, which keeps their values bit-identical.

use crate::matrix::clamp_divisor;
use crate::Matrix;
use sat_graph::CsrMatrix;
use std::rc::Rc;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeId(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    Scale(NodeId, f32),
    AddScalar(NodeId),
    Relu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Transpose(NodeId),
    FrobNormalize(NodeId, f32),
    DivCols(NodeId, NodeId),
    MeanRows(NodeId),
    SumAll(NodeId),
    Spmm(Rc<CsrMatrix>, NodeId),
    BceWithLogits(NodeId, f32),
}

struct Node {
    value: Matrix,
    op: Op,
}

/// Rectified linear unit, the scalar function of [`Tape::relu`].
#[inline]
pub(crate) fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Logistic sigmoid, the scalar function of [`Tape::sigmoid`].
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Sparse–dense product `a · x` for a constant operator `a`, the value
/// of [`Tape::spmm`].
///
/// # Panics
///
/// Panics if `a.cols() != x.rows()`.
pub(crate) fn spmm(a: &CsrMatrix, x: &Matrix) -> Matrix {
    let (n, d) = x.shape();
    assert_eq!(a.cols(), n, "spmm dimension mismatch");
    Matrix::from_vec(a.rows(), d, a.matmul_dense(x.as_slice(), d))
}

/// Gradients produced by [`Tape::backward`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// The gradient of the loss with respect to node `id`
    /// (zeros if the node does not influence the loss).
    pub fn get(&self, id: NodeId, tape: &Tape) -> Matrix {
        match &self.grads[id.0] {
            Some(g) => g.clone(),
            None => {
                let (r, c) = tape.value(id).shape();
                Matrix::zeros(r, c)
            }
        }
    }
}

/// A recording of one forward computation.
///
/// # Examples
///
/// Differentiate `sum(relu(x·w))` with respect to `w`:
///
/// ```
/// use neuro::{Matrix, Tape};
/// let mut t = Tape::new();
/// let x = t.leaf(Matrix::from_rows(&[&[1.0, -2.0]]));
/// let w = t.leaf(Matrix::from_rows(&[&[0.5], &[1.5]]));
/// let y = t.matmul(x, w);
/// let a = t.relu(y);
/// let loss = t.sum_all(a);
/// let grads = t.backward(loss);
/// // x·w = -2.5, relu kills the gradient
/// assert_eq!(grads.get(w, &t).as_slice(), &[0.0, 0.0]);
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    /// Records an input (leaf) node. Gradients accumulate into leaves like
    /// any other node; parameter updates read them after [`backward`](Self::backward).
    pub fn leaf(&mut self, m: Matrix) -> NodeId {
        self.push(m, Op::Leaf)
    }

    /// Dense matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Element-wise sum of same-shape nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference of same-shape nodes.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product of same-shape nodes.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Adds a `1 × d` row vector to every row of an `n × d` node.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1 × d`.
    pub fn add_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        let (n, d) = self.value(x).shape();
        assert_eq!(self.value(row).shape(), (1, d), "row must be 1 × d");
        let mut v = self.value(x).clone();
        for r in 0..n {
            for c in 0..d {
                let b = self.value(row).get(0, c);
                v.set(r, c, v.get(r, c) + b);
            }
        }
        self.push(v, Op::AddRow(x, row))
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.value(a).map(|x| x * c);
        self.push(v, Op::Scale(a, c))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.value(a).map(|x| x + c);
        self.push(v, Op::AddScalar(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(relu);
        self.push(v, Op::Relu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Frobenius normalization `a / ‖a‖_F` (Equation 8's `Q̃`, `K̃`).
    /// A small epsilon keeps the all-zero matrix finite.
    pub fn frob_normalize(&mut self, a: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        let norm = v.frob_normalize_in_place();
        self.push(v, Op::FrobNormalize(a, norm))
    }

    /// Divides every row `i` of `x` by `d[i]` where `d` is `n × 1`
    /// (the `D⁻¹ [...]` of Equation 9).
    ///
    /// Divisors are clamped to magnitude ≥ 1e-6 (sign preserved): the
    /// paper's `D = 1 + (1/N)·Q̃(K̃ᵀ1)` is almost always ≈ 1, but for
    /// degenerate inputs (e.g. a single node with anti-aligned query/key)
    /// it can reach zero, and an unguarded division would poison the whole
    /// forward pass with NaNs.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not `n × 1`.
    pub fn div_cols(&mut self, x: NodeId, d: NodeId) -> NodeId {
        let mut v = self.value(x).clone();
        v.div_rows(self.value(d));
        self.push(v, Op::DivCols(x, d))
    }

    /// Mean over rows, producing `1 × d` (the READOUT of Equation 10).
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).mean_rows();
        self.push(v, Op::MeanRows(a))
    }

    /// Sum of all elements, producing `1 × 1`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(v, Op::SumAll(a))
    }

    /// Sparse–dense product `A · x`, where `A` is a constant CSR matrix.
    /// The backward pass scatters the gradient back through `A`'s rows,
    /// so no transpose is stored.
    ///
    /// # Panics
    ///
    /// Panics if `A.cols()` does not match `x`'s row count.
    pub fn spmm(&mut self, a: Rc<CsrMatrix>, x: NodeId) -> NodeId {
        let v = spmm(&a, self.value(x));
        self.push(v, Op::Spmm(a, x))
    }

    /// Fused sigmoid + binary cross-entropy against a constant target
    /// `y ∈ [0, 1]`, on a `1 × 1` logit (Equation 11, numerically stable).
    ///
    /// # Panics
    ///
    /// Panics if `z` is not `1 × 1` or the target is outside `[0, 1]`.
    pub fn bce_with_logits(&mut self, z: NodeId, target: f32) -> NodeId {
        assert_eq!(self.value(z).shape(), (1, 1), "logit must be scalar");
        assert!((0.0..=1.0).contains(&target), "target must be in [0, 1]");
        let zv = self.value(z).get(0, 0);
        // max(z,0) - z·y + ln(1 + e^{-|z|})
        let loss = zv.max(0.0) - zv * target + (-zv.abs()).exp().ln_1p();
        let v = Matrix::from_vec(1, 1, vec![loss]);
        self.push(v, Op::BceWithLogits(z, target))
    }

    /// Runs the reverse sweep from a scalar (`1 × 1`) root.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not `1 × 1`.
    pub fn backward(&self, root: NodeId) -> Gradients {
        assert_eq!(self.value(root).shape(), (1, 1), "loss must be scalar");
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[root.0] = Some(Matrix::from_vec(1, 1, vec![1.0]));

        let accumulate =
            |grads: &mut Vec<Option<Matrix>>, id: NodeId, delta: Matrix| match &mut grads[id.0] {
                Some(g) => g.add_assign(&delta),
                slot @ None => *slot = Some(delta),
            };

        for i in (0..self.nodes.len()).rev() {
            let Some(g) = grads[i].clone() else { continue };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = g.matmul_nt(self.value(*b));
                    let db = self.value(*a).matmul_tn(&g);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g.map(|x| -x));
                }
                Op::Mul(a, b) => {
                    let da = g.zip(self.value(*b), |x, y| x * y);
                    let db = g.zip(self.value(*a), |x, y| x * y);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::AddRow(x, row) => {
                    let (n, d) = g.shape();
                    let mut drow = Matrix::zeros(1, d);
                    for r in 0..n {
                        for c in 0..d {
                            drow.set(0, c, drow.get(0, c) + g.get(r, c));
                        }
                    }
                    accumulate(&mut grads, *x, g);
                    accumulate(&mut grads, *row, drow);
                }
                Op::Scale(a, c) => {
                    let c = *c;
                    accumulate(&mut grads, *a, g.map(|x| x * c));
                }
                Op::AddScalar(a) => accumulate(&mut grads, *a, g),
                Op::Relu(a) => {
                    let da = g.zip(self.value(*a), |gi, ai| if ai > 0.0 { gi } else { 0.0 });
                    accumulate(&mut grads, *a, da);
                }
                Op::Sigmoid(a) => {
                    let da = g.zip(&self.nodes[i].value, |gi, yi| gi * yi * (1.0 - yi));
                    accumulate(&mut grads, *a, da);
                }
                Op::Tanh(a) => {
                    let da = g.zip(&self.nodes[i].value, |gi, yi| gi * (1.0 - yi * yi));
                    accumulate(&mut grads, *a, da);
                }
                Op::Transpose(a) => accumulate(&mut grads, *a, g.transpose()),
                Op::FrobNormalize(a, norm) => {
                    let y = &self.nodes[i].value;
                    let dot: f32 = g
                        .as_slice()
                        .iter()
                        .zip(y.as_slice())
                        .map(|(&gi, &yi)| gi * yi)
                        .sum();
                    let da = g.zip(y, |gi, yi| (gi - yi * dot) / norm);
                    accumulate(&mut grads, *a, da);
                }
                Op::DivCols(x, dnode) => {
                    let (n, cols) = g.shape();
                    let dmat = self.value(*dnode);
                    let y = &self.nodes[i].value;
                    let mut dx = Matrix::zeros(n, cols);
                    let mut dd = Matrix::zeros(n, 1);
                    for r in 0..n {
                        let dr = clamp_divisor(dmat.get(r, 0));
                        let mut acc = 0.0;
                        for c in 0..cols {
                            dx.set(r, c, g.get(r, c) / dr);
                            acc += g.get(r, c) * y.get(r, c);
                        }
                        dd.set(r, 0, -acc / dr);
                    }
                    accumulate(&mut grads, *x, dx);
                    accumulate(&mut grads, *dnode, dd);
                }
                Op::MeanRows(a) => {
                    let (n, d) = self.value(*a).shape();
                    let mut da = Matrix::zeros(n, d);
                    for r in 0..n {
                        for c in 0..d {
                            da.set(r, c, g.get(0, c) / n.max(1) as f32);
                        }
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::SumAll(a) => {
                    let (n, d) = self.value(*a).shape();
                    accumulate(&mut grads, *a, Matrix::full(n, d, g.get(0, 0)));
                }
                Op::Spmm(a, x) => {
                    let d = g.cols();
                    let dx = a.transpose_matmul_dense(g.as_slice(), d);
                    accumulate(&mut grads, *x, Matrix::from_vec(a.cols(), d, dx));
                }
                Op::BceWithLogits(z, target) => {
                    let zv = self.value(*z).get(0, 0);
                    let sig = 1.0 / (1.0 + (-zv).exp());
                    let dz = g.get(0, 0) * (sig - target);
                    accumulate(&mut grads, *z, Matrix::from_vec(1, 1, vec![dz]));
                }
            }
        }
        Gradients { grads }
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d(loss)/d(leaf) for a scalar-loss builder.
    fn grad_check(leaves: &[Matrix], build: impl Fn(&mut Tape, &[NodeId]) -> NodeId, tol: f32) {
        // analytic gradients
        let mut tape = Tape::new();
        let ids: Vec<NodeId> = leaves.iter().map(|m| tape.leaf(m.clone())).collect();
        let loss = build(&mut tape, &ids);
        let grads = tape.backward(loss);

        let eps = 1e-2f32;
        for (li, leaf) in leaves.iter().enumerate() {
            let analytic = grads.get(ids[li], &tape);
            for idx in 0..leaf.as_slice().len() {
                let eval = |delta: f32| {
                    let mut perturbed: Vec<Matrix> = leaves.to_vec();
                    perturbed[li].as_mut_slice()[idx] += delta;
                    let mut t = Tape::new();
                    let ids: Vec<NodeId> = perturbed.iter().map(|m| t.leaf(m.clone())).collect();
                    let l = build(&mut t, &ids);
                    t.value(l).get(0, 0)
                };
                let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
                let a = analytic.as_slice()[idx];
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "leaf {li} element {idx}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn m(rows: &[&[f32]]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn grad_matmul_chain() {
        grad_check(
            &[m(&[&[0.5, -1.0], &[2.0, 0.3]]), m(&[&[1.0], &[-0.5]])],
            |t, ids| {
                let y = t.matmul(ids[0], ids[1]);
                t.sum_all(y)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_elementwise_ops() {
        grad_check(
            &[m(&[&[0.5, -1.0, 0.25]]), m(&[&[0.1, 0.2, -0.4]])],
            |t, ids| {
                let s = t.add(ids[0], ids[1]);
                let d = t.sub(s, ids[1]);
                let p = t.mul(d, ids[0]);
                let sc = t.scale(p, 1.5);
                let sh = t.add_scalar(sc, 0.2);
                t.sum_all(sh)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_nonlinearities() {
        grad_check(
            &[m(&[&[0.5, -1.0, 2.0, -0.2]])],
            |t, ids| {
                let r = t.tanh(ids[0]);
                let s = t.sigmoid(r);
                let u = t.relu(s);
                t.sum_all(u)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_add_row_broadcast() {
        grad_check(
            &[
                m(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]),
                m(&[&[0.5, -0.5]]),
            ],
            |t, ids| {
                let y = t.add_row(ids[0], ids[1]);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_frob_normalize() {
        grad_check(
            &[
                m(&[&[1.0, 2.0], &[-0.5, 0.7]]),
                m(&[&[0.3, -1.2], &[0.8, 0.1]]),
            ],
            |t, ids| {
                let q = t.frob_normalize(ids[0]);
                let y = t.mul(q, ids[1]);
                t.sum_all(y)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_div_cols() {
        grad_check(
            &[m(&[&[1.0, 2.0], &[3.0, 4.0]]), m(&[&[2.0], &[4.0]])],
            |t, ids| {
                let y = t.div_cols(ids[0], ids[1]);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_mean_rows_and_transpose() {
        grad_check(
            &[m(&[&[1.0, -2.0], &[0.5, 3.0]])],
            |t, ids| {
                let tr = t.transpose(ids[0]);
                let tr2 = t.transpose(tr);
                let mr = t.mean_rows(tr2);
                let sq = t.mul(mr, mr);
                t.sum_all(sq)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_spmm() {
        let a = Rc::new(CsrMatrix::from_triplets(
            2,
            3,
            &[(0, 0, 1.0), (0, 2, -2.0), (1, 1, 0.5)],
        ));
        grad_check(
            &[m(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])],
            move |t, ids| {
                let y = t.spmm(Rc::clone(&a), ids[0]);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_bce_with_logits() {
        for target in [0.0, 1.0, 0.3] {
            grad_check(
                &[m(&[&[0.7]])],
                move |t, ids| t.bce_with_logits(ids[0], target),
                1e-2,
            );
        }
    }

    #[test]
    fn bce_value_matches_reference() {
        let mut t = Tape::new();
        let z = t.leaf(Matrix::from_vec(1, 1, vec![0.0]));
        let l = t.bce_with_logits(z, 1.0);
        // -ln σ(0) = ln 2
        assert!((t.value(l).get(0, 0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn unused_leaf_has_zero_grad() {
        let mut t = Tape::new();
        let a = t.leaf(m(&[&[1.0]]));
        let b = t.leaf(m(&[&[5.0]]));
        let loss = t.sum_all(a);
        let g = t.backward(loss);
        assert_eq!(g.get(b, &t).as_slice(), &[0.0]);
        assert_eq!(g.get(a, &t).as_slice(), &[1.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(a ⊙ a) via two paths: d/da = 2a
        let mut t = Tape::new();
        let a = t.leaf(m(&[&[3.0]]));
        let p = t.mul(a, a);
        let loss = t.sum_all(p);
        let g = t.backward(loss);
        assert_eq!(g.get(a, &t).as_slice(), &[6.0]);
    }
}
