//! Parameter storage, initialization, and the Adam optimizer.

use crate::{Gradients, Matrix, NodeId, Tape};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParamId(usize);

/// Owns all trainable parameters of a model plus their Adam moments.
///
/// Layers hold [`ParamId`]s; every forward pass binds the current values
/// onto a fresh [`Tape`] through a [`Session`], and after `backward` the
/// optimizer folds the leaf gradients back into the store.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    adam_m: Vec<Matrix>,
    adam_v: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with the given initial value.
    pub fn add(&mut self, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.values.push(value);
        self.adam_m.push(Matrix::zeros(r, c));
        self.adam_v.push(Matrix::zeros(r, c));
        ParamId(self.values.len() - 1)
    }

    /// Registers a parameter with Glorot/Xavier-uniform initialization
    /// (`U(-a, a)`, `a = sqrt(6 / (fan_in + fan_out))`).
    pub fn add_glorot(&mut self, rows: usize, cols: usize, rng: &mut SmallRng) -> ParamId {
        let a = (6.0 / (rows + cols) as f32).sqrt();
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-a..a)).collect();
        self.add(Matrix::from_vec(rows, cols, data))
    }

    /// Registers a zero-initialized parameter (the convention for biases).
    pub fn add_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add(Matrix::zeros(rows, cols))
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (used by loading / tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(|m| m.as_slice().len()).sum()
    }

    /// Iterates over `(id, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.values.iter().enumerate().map(|(i, m)| (ParamId(i), m))
    }

    /// Replaces every parameter value from an iterator (used by model
    /// loading).
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields a wrong number of matrices or any
    /// shape differs.
    pub fn load_values(&mut self, values: impl IntoIterator<Item = Matrix>) {
        let mut count = 0;
        for (slot, new) in self.values.iter_mut().zip(values) {
            assert_eq!(slot.shape(), new.shape(), "parameter shape mismatch");
            *slot = new;
            count += 1;
        }
        assert_eq!(count, self.values.len(), "wrong number of parameters");
    }
}

/// Binds parameters onto a tape for one forward/backward pass.
///
/// # Examples
///
/// ```
/// use neuro::{Adam, Matrix, ParamStore, Session, Tape};
/// let mut store = ParamStore::new();
/// let w = store.add(Matrix::from_rows(&[&[2.0]]));
/// let mut tape = Tape::new();
/// let mut session = Session::new(&store);
/// let w_node = session.bind_value(&mut tape, w, store.value(w).clone());
/// let sq = tape.mul(w_node, w_node);
/// let loss = tape.sum_all(sq); // loss = w², minimum at w = 0
/// let grads = tape.backward(loss);
/// let mut adam = Adam::new(0.1);
/// adam.step(&mut store, &tape, &session, &grads);
/// assert!(store.value(w).get(0, 0) < 2.0);
/// ```
#[derive(Debug, Default)]
pub struct Session {
    bindings: Vec<(ParamId, NodeId)>,
}

impl Session {
    /// Creates a session for the given store.
    ///
    /// The store reference only documents intent; sessions are cheap
    /// binding lists.
    pub fn new(_store: &ParamStore) -> Self {
        Session {
            bindings: Vec::new(),
        }
    }

    /// Binds parameter `id` (with its current `value`) as a leaf on `tape`.
    /// Binding the same parameter twice returns the existing node, so weight
    /// sharing accumulates gradients correctly.
    pub fn bind_value(&mut self, tape: &mut Tape, id: ParamId, value: Matrix) -> NodeId {
        if let Some(&(_, node)) = self.bindings.iter().find(|(p, _)| *p == id) {
            return node;
        }
        let node = tape.leaf(value);
        self.bindings.push((id, node));
        node
    }

    /// The recorded `(param, node)` bindings.
    pub fn bindings(&self) -> &[(ParamId, NodeId)] {
        &self.bindings
    }
}

/// The Adam optimizer (Kingma & Ba). The paper trains with Adam at
/// learning rate `1e-4`.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard betas
    /// (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to every parameter bound in `session`,
    /// using gradients from `grads`.
    pub fn step(
        &mut self,
        store: &mut ParamStore,
        tape: &Tape,
        session: &Session,
        grads: &Gradients,
    ) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for &(pid, node) in session.bindings() {
            let g = grads.get(node, tape);
            let m = &mut store.adam_m[pid.0];
            for (mi, &gi) in m.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
            }
            let v = &mut store.adam_v[pid.0];
            for (vi, &gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let m = store.adam_m[pid.0].clone();
            let v = store.adam_v[pid.0].clone();
            let w = store.values[pid.0].as_mut_slice();
            for ((wi, &mi), &vi) in w.iter_mut().zip(m.as_slice()).zip(v.as_slice()) {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *wi -= self.lr * (mhat / (vhat.sqrt() + self.eps));
            }
        }
    }
}

/// Convenience: a seeded RNG for reproducible initialization.
pub fn init_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize (w - 3)² from w = 0
        let mut store = ParamStore::new();
        let w = store.add(Matrix::zeros(1, 1));
        let mut adam = Adam::new(0.1);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let mut session = Session::new(&store);
            let wn = session.bind_value(&mut tape, w, store.value(w).clone());
            let c = tape.leaf(Matrix::from_vec(1, 1, vec![3.0]));
            let d = tape.sub(wn, c);
            let sq = tape.mul(d, d);
            let loss = tape.sum_all(sq);
            let grads = tape.backward(loss);
            adam.step(&mut store, &tape, &session, &grads);
        }
        assert!(
            (store.value(w).get(0, 0) - 3.0).abs() < 0.05,
            "w = {}",
            store.value(w).get(0, 0)
        );
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn shared_parameter_accumulates_gradient() {
        // loss = (w + w)·1 ⇒ dw = 2
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![1.0]));
        let mut tape = Tape::new();
        let mut session = Session::new(&store);
        let w1 = session.bind_value(&mut tape, w, store.value(w).clone());
        let w2 = session.bind_value(&mut tape, w, store.value(w).clone());
        assert_eq!(w1, w2, "same param binds to same node");
        let s = tape.add(w1, w2);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(w1, &tape).as_slice(), &[2.0]);
    }

    #[test]
    fn glorot_bounds() {
        let mut rng = init_rng(1);
        let mut store = ParamStore::new();
        let p = store.add_glorot(10, 30, &mut rng);
        let a = (6.0f32 / 40.0).sqrt();
        assert!(store.value(p).as_slice().iter().all(|x| x.abs() <= a));
        // non-degenerate
        assert!(store.value(p).as_slice().iter().any(|&x| x != 0.0));
        assert_eq!(store.num_weights(), 300);
    }

    #[test]
    fn load_values_checks_shapes() {
        let mut store = ParamStore::new();
        store.add(Matrix::zeros(2, 2));
        store.load_values(vec![Matrix::eye(2)]);
        assert_eq!(store.value(ParamId(0)), &Matrix::eye(2));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn load_values_rejects_wrong_shape() {
        let mut store = ParamStore::new();
        store.add(Matrix::zeros(2, 2));
        store.load_values(vec![Matrix::zeros(1, 2)]);
    }
}
