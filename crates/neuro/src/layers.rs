//! Basic neural layers: linear maps and multi-layer perceptrons.

use crate::tape::{relu, sigmoid};
use crate::{Matrix, NodeId, ParamId, ParamStore, Session, Tape};
use rand::rngs::SmallRng;

/// Binds a stored parameter onto the tape through the session.
pub(crate) fn bind(tape: &mut Tape, sess: &mut Session, store: &ParamStore, id: ParamId) -> NodeId {
    sess.bind_value(tape, id, store.value(id).clone())
}

/// Element-wise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (the paper's σ in Equation 7).
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::Tanh => tape.tanh(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Applies the activation to every element of `m` in place: the
    /// values of [`apply`](Self::apply), without a tape.
    pub(crate) fn apply_in_place(self, m: &mut Matrix) {
        match self {
            Activation::Relu => m.map_in_place(relu),
            Activation::Tanh => m.map_in_place(f32::tanh),
            Activation::Sigmoid => m.map_in_place(sigmoid),
            Activation::Identity => {}
        }
    }
}

/// An affine layer `y = x·W + b`.
///
/// The paper's "MLP" inside Equation (6) "is a single linear layer"; this
/// type is that building block.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix (`in × out`).
    pub w: ParamId,
    /// Bias row (`1 × out`).
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a Glorot-initialized linear layer.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize, rng: &mut SmallRng) -> Self {
        Linear {
            w: store.add_glorot(in_dim, out_dim, rng),
            b: store.add_zeros(1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to an `n × in` node.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        x: NodeId,
    ) -> NodeId {
        let w = bind(tape, sess, store, self.w);
        let b = bind(tape, sess, store, self.b);
        let xw = tape.matmul(x, w);
        tape.add_row(xw, b)
    }

    /// [`forward`](Self::forward) evaluated without a tape, reading the
    /// weights straight from `store`.
    pub(crate) fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        x.matmul_bias(store.value(self.w), store.value(self.b))
    }
}

/// A multi-layer perceptron with a configurable hidden activation and an
/// identity output layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer widths, e.g. `&[32, 32, 1]`
    /// builds two linear layers 32→32→1 with the activation between them.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(
        store: &mut ParamStore,
        widths: &[usize],
        activation: Activation,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Applies the MLP.
    pub fn forward(
        &self,
        tape: &mut Tape,
        sess: &mut Session,
        store: &ParamStore,
        x: NodeId,
    ) -> NodeId {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, sess, store, h);
            if i + 1 < self.layers.len() {
                h = self.activation.apply(tape, h);
            }
        }
        h
    }

    /// [`forward`](Self::forward) evaluated without a tape, applying the
    /// activation in place.
    pub(crate) fn infer(&self, store: &ParamStore, x: &Matrix) -> Matrix {
        let (first, rest) = self
            .layers
            .split_first()
            .expect("an MLP has at least one layer");
        let mut h = first.infer(store, x);
        for layer in rest {
            self.activation.apply_in_place(&mut h);
            h = layer.infer(store, &h);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init_rng;

    #[test]
    fn linear_computes_affine_map() {
        let mut store = ParamStore::new();
        let mut rng = init_rng(0);
        let layer = Linear::new(&mut store, 2, 3, &mut rng);
        // overwrite with known values
        *store.value_mut(layer.w) = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, -1.0]]);
        *store.value_mut(layer.b) = Matrix::from_rows(&[&[0.5, 0.5, 0.5]]);
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let x = tape.leaf(Matrix::from_rows(&[&[2.0, 3.0]]));
        let y = layer.forward(&mut tape, &mut sess, &store, x);
        assert_eq!(tape.value(y).as_slice(), &[2.5, 3.5, 1.5]);
    }

    #[test]
    fn mlp_depth_and_shapes() {
        let mut store = ParamStore::new();
        let mut rng = init_rng(3);
        let mlp = Mlp::new(&mut store, &[4, 8, 8, 1], Activation::Relu, &mut rng);
        assert_eq!(mlp.depth(), 3);
        let mut tape = Tape::new();
        let mut sess = Session::new(&store);
        let x = tape.leaf(Matrix::zeros(5, 4));
        let y = mlp.forward(&mut tape, &mut sess, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 1));
    }

    #[test]
    fn mlp_can_learn_xor() {
        // classic sanity check that backprop works end-to-end
        let mut store = ParamStore::new();
        let mut rng = init_rng(5);
        let mlp = Mlp::new(&mut store, &[2, 8, 1], Activation::Tanh, &mut rng);
        let mut adam = crate::Adam::new(0.05);
        let data = [
            ([0.0f32, 0.0], 0.0f32),
            ([0.0, 1.0], 1.0),
            ([1.0, 0.0], 1.0),
            ([1.0, 1.0], 0.0),
        ];
        for _ in 0..400 {
            for (input, target) in data {
                let mut tape = Tape::new();
                let mut sess = Session::new(&store);
                let x = tape.leaf(Matrix::from_rows(&[&input]));
                let z = mlp.forward(&mut tape, &mut sess, &store, x);
                let loss = tape.bce_with_logits(z, target);
                let grads = tape.backward(loss);
                adam.step(&mut store, &tape, &sess, &grads);
            }
        }
        // verify all four points classified correctly
        for (input, target) in data {
            let mut tape = Tape::new();
            let mut sess = Session::new(&store);
            let x = tape.leaf(Matrix::from_rows(&[&input]));
            let z = mlp.forward(&mut tape, &mut sess, &store, x);
            let prob = 1.0 / (1.0 + (-tape.value(z).get(0, 0)).exp());
            assert_eq!(prob > 0.5, target > 0.5, "input {input:?} prob {prob}");
        }
    }

    #[test]
    fn activations_apply() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[-1.0, 1.0]]));
        let r = Activation::Relu.apply(&mut tape, x);
        assert_eq!(tape.value(r).as_slice(), &[0.0, 1.0]);
        let i = Activation::Identity.apply(&mut tape, x);
        assert_eq!(i, x);
    }
}
