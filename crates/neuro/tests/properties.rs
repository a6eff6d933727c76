//! Property tests for the autodiff engine and the paper's layers.

use cnf::Cnf;
use neuro::{
    init_rng, GraphTensors, LinearAttention, Matrix, NeuroSelectConfig, NeuroSelectModel,
    ParamStore, Session, Tape,
};
use proptest::prelude::*;
use rand::Rng;
use sat_graph::BipartiteGraph;

fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-2.0f32..2.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// A formula over variables 1..=10 with 0–14 declared, so some may be
/// unused or undeclared: clauses may be empty and may repeat or complement
/// a literal.
fn arb_cnf() -> impl Strategy<Value = Cnf> {
    let lit = (1i32..=10, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v });
    let clauses = proptest::collection::vec(proptest::collection::vec(lit, 0..6), 0..12);
    (0u32..=14, clauses).prop_map(|(declared, clauses)| {
        let mut f = Cnf::new(declared);
        for c in &clauses {
            f.add_dimacs(c);
        }
        f
    })
}

/// Model shapes around the matmul block width (32): below it, at it, and
/// one past it.
fn arb_config() -> impl Strategy<Value = NeuroSelectConfig> {
    (
        prop_oneof![Just(5usize), Just(32), Just(33)],
        1usize..=2,
        1usize..=2,
        any::<bool>(),
        0u64..1000,
    )
        .prop_map(
            |(hidden_dim, hgt_layers, mpnn_per_hgt, use_attention, seed)| NeuroSelectConfig {
                hidden_dim,
                hgt_layers,
                mpnn_per_hgt,
                use_attention,
                seed,
            },
        )
}

/// A fresh model whose zero-initialized biases are replaced by random
/// values, so the order of each bias addition matters.
fn model_with_random_biases(config: NeuroSelectConfig) -> (ParamStore, NeuroSelectModel) {
    let mut store = ParamStore::new();
    let model = NeuroSelectModel::new(&mut store, config);
    let biases: Vec<_> = store
        .iter()
        .filter(|(_, m)| m.rows() == 1)
        .map(|(id, _)| id)
        .collect();
    let mut rng = init_rng(config.seed ^ 0xB1A5);
    for id in biases {
        for x in store.value_mut(id).as_mut_slice() {
            *x = rng.gen_range(-0.5f32..0.5);
        }
    }
    (store, model)
}

/// `predict` equals the sigmoid of the tape `forward` logit, bit for bit.
fn assert_predict_matches_tape(model: &NeuroSelectModel, store: &ParamStore, f: &Cnf) {
    let g = GraphTensors::new(&BipartiteGraph::from_cnf(f));
    let mut tape = Tape::new();
    let mut sess = Session::new(store);
    let logit = model.forward(&mut tape, &mut sess, store, &g);
    let z = tape.value(logit).get(0, 0);
    let expected = 1.0 / (1.0 + (-z).exp());
    let got = model.predict(store, &g);
    assert_eq!(
        got.to_bits(),
        expected.to_bits(),
        "predict {got} vs tape {expected} on {} vars, {} clauses, {:?}",
        f.num_vars(),
        f.num_clauses(),
        model.config()
    );
}

/// The naive triple loop `Matrix::matmul` promises: ascending `k` from
/// `0.0`, zero left operands skipped, the bias added after the sum.
fn naive_matmul(a: &Matrix, b: &Matrix, bias: Option<&Matrix>) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for k in 0..a.cols() {
                let x = a.get(i, k);
                if x != 0.0 {
                    s += x * b.get(k, j);
                }
            }
            out.set(i, j, bias.map_or(s, |bias| s + bias.get(0, j)));
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn predict_matches_tape_on_empty_formulas() {
    let formulas = ["p cnf 0 0\n", "p cnf 3 0\n", "p cnf 0 1\n0\n"];
    for config in [
        NeuroSelectConfig::default(),
        NeuroSelectConfig {
            hidden_dim: 33,
            use_attention: false,
            ..NeuroSelectConfig::default()
        },
    ] {
        let (store, model) = model_with_random_biases(config);
        for text in formulas {
            let f = cnf::parse_dimacs_str(text).unwrap();
            assert_predict_matches_tape(&model, &store, &f);
        }
    }
}

#[test]
fn predict_matches_tape_on_a_few_hundred_variables() {
    let mut rng = init_rng(17);
    let mut f = Cnf::new(300);
    for _ in 0..900 {
        let clause: Vec<i32> = (0..3)
            .map(|_| {
                let v = rng.gen_range(1i32..=300);
                if rng.gen::<bool>() {
                    v
                } else {
                    -v
                }
            })
            .collect();
        f.add_dimacs(&clause);
    }
    let config = NeuroSelectConfig {
        hgt_layers: 1,
        mpnn_per_hgt: 2,
        ..NeuroSelectConfig::default()
    };
    let (store, model) = model_with_random_biases(config);
    assert_predict_matches_tape(&model, &store, &f);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tape-free inference computes exactly the tape's probability.
    #[test]
    fn predict_matches_tape_bit_for_bit(f in arb_cnf(), config in arb_config()) {
        let (store, model) = model_with_random_biases(config);
        assert_predict_matches_tape(&model, &store, &f);
    }

    /// The blocked kernel keeps the naive loop's summation order exactly,
    /// at output widths below, at, between and beyond the block width.
    #[test]
    fn matmul_matches_naive_loop_bit_for_bit(
        rows in 0usize..4,
        inner in 0usize..40,
        width_index in 0usize..7,
        seed in any::<u64>(),
    ) {
        let width = [0, 1, 7, 31, 32, 33, 64][width_index];
        let mut rng = init_rng(seed);
        let mut random = |r: usize, c: usize, zeros: bool| {
            let data = (0..r * c)
                .map(|_| if zeros && rng.gen_range(0..3) == 0 { 0.0 } else { rng.gen_range(-2.0f32..2.0) })
                .collect();
            Matrix::from_vec(r, c, data)
        };
        let a = random(rows, inner, true);
        let b = random(inner, width, false);
        let bias = random(1, width, false);
        prop_assert_eq!(bits(&a.matmul(&b)), bits(&naive_matmul(&a, &b, None)));
        prop_assert_eq!(
            bits(&a.matmul_bias(&b, &bias)),
            bits(&naive_matmul(&a, &b, Some(&bias)))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// d(sum(a ⊙ b))/da == b for arbitrary shapes.
    #[test]
    fn mul_gradient_is_other_operand(a in arb_matrix(5, 5)) {
        let (r, c) = a.shape();
        let b = a.map(|x| x * 0.5 + 1.0);
        let mut t = Tape::new();
        let na = t.leaf(a);
        let nb = t.leaf(b.clone());
        let prod = t.mul(na, nb);
        let loss = t.sum_all(prod);
        let g = t.backward(loss);
        prop_assert_eq!(g.get(na, &t), b);
        let _ = (r, c);
    }

    /// matmul gradients have the right shapes and satisfy the chain rule
    /// against a finite-difference probe of one random element.
    #[test]
    fn matmul_gradient_finite_difference(
        a in arb_matrix(4, 3),
        seed in 0u64..100,
    ) {
        let mut rng = init_rng(seed);
        let b = Matrix::from_vec(
            a.cols(), 2,
            (0..a.cols() * 2).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let loss_of = |a: &Matrix, b: &Matrix| -> f32 {
            let mut t = Tape::new();
            let na = t.leaf(a.clone());
            let nb = t.leaf(b.clone());
            let y = t.matmul(na, nb);
            let sq = t.mul(y, y);
            let l = t.sum_all(sq);
            t.value(l).get(0, 0)
        };
        let mut t = Tape::new();
        let na = t.leaf(a.clone());
        let nb = t.leaf(b.clone());
        let y = t.matmul(na, nb);
        let sq = t.mul(y, y);
        let l = t.sum_all(sq);
        let g = t.backward(l);
        // probe one element of a
        let idx = (seed as usize) % a.as_slice().len();
        let eps = 1e-2f32;
        let mut ap = a.clone();
        ap.as_mut_slice()[idx] += eps;
        let mut am = a.clone();
        am.as_mut_slice()[idx] -= eps;
        let numeric = (loss_of(&ap, &b) - loss_of(&am, &b)) / (2.0 * eps);
        let analytic = g.get(na, &t).as_slice()[idx];
        prop_assert!(
            (numeric - analytic).abs() <= 0.05 * (1.0 + numeric.abs()),
            "numeric {numeric} analytic {analytic}"
        );
    }

    /// Linear attention and the quadratic reference agree on arbitrary
    /// feature matrices (the core algebraic identity of Equation 9).
    #[test]
    fn attention_linear_equals_quadratic(z in arb_matrix(12, 6), seed in 0u64..20) {
        let d = z.cols();
        let mut store = ParamStore::new();
        let mut rng = init_rng(seed);
        let attn = LinearAttention::new(&mut store, d, &mut rng);
        let mut t = Tape::new();
        let mut sess = Session::new(&store);
        let nz = t.leaf(z);
        let fast = attn.forward(&mut t, &mut sess, &store, nz);
        let slow = attn.forward_quadratic(&mut t, &mut sess, &store, nz);
        for (a, b) in t.value(fast).as_slice().iter().zip(t.value(slow).as_slice()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Softmax-free attention is permutation-equivariant: permuting input
    /// rows permutes output rows identically.
    #[test]
    fn attention_is_permutation_equivariant(z in arb_matrix(8, 4), seed in 0u64..20) {
        let d = z.cols();
        let n = z.rows();
        let mut store = ParamStore::new();
        let mut rng = init_rng(seed);
        let attn = LinearAttention::new(&mut store, d, &mut rng);
        let run = |m: Matrix| -> Matrix {
            let mut t = Tape::new();
            let mut sess = Session::new(&store);
            let nz = t.leaf(m);
            let out = attn.forward(&mut t, &mut sess, &store, nz);
            t.value(out).clone()
        };
        let base = run(z.clone());
        // rotate rows by one
        let mut rotated = Matrix::zeros(n, d);
        for r in 0..n {
            for c in 0..d {
                rotated.set(r, c, z.get((r + 1) % n, c));
            }
        }
        let rotated_out = run(rotated);
        for r in 0..n {
            for c in 0..d {
                let a = base.get((r + 1) % n, c);
                let b = rotated_out.get(r, c);
                prop_assert!((a - b).abs() < 1e-4, "row {r} col {c}: {a} vs {b}");
            }
        }
    }

    /// relu/sigmoid/tanh outputs stay in their ranges and gradients are
    /// finite for arbitrary inputs.
    #[test]
    fn nonlinearities_are_well_behaved(a in arb_matrix(4, 6)) {
        let mut t = Tape::new();
        let na = t.leaf(a);
        let r = t.relu(na);
        let s = t.sigmoid(r);
        let h = t.tanh(s);
        let l0 = t.mean_rows(h);
        let l = t.sum_all(l0);
        prop_assert!(t.value(r).as_slice().iter().all(|&x| x >= 0.0));
        prop_assert!(t.value(s).as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
        prop_assert!(t.value(h).as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
        let g = t.backward(l);
        prop_assert!(g.get(na, &t).as_slice().iter().all(|x| x.is_finite()));
    }

    /// BCE-with-logits is non-negative and zero only in the saturated
    /// correct-label limit.
    #[test]
    fn bce_is_nonnegative(z in -10.0f32..10.0, label in 0u8..=1) {
        let mut t = Tape::new();
        let nz = t.leaf(Matrix::from_vec(1, 1, vec![z]));
        let l = t.bce_with_logits(nz, label as f32);
        let v = t.value(l).get(0, 0);
        prop_assert!(v >= 0.0);
        prop_assert!(v.is_finite());
    }
}
