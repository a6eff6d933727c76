//! Bounded model checking: time-frame expansion of sequential circuits.
//!
//! A sequential circuit is modelled as a combinational *transition
//! function*: the first `num_state` inputs are the current state, the rest
//! are primary inputs; the first `num_state` outputs are the next state,
//! the remaining outputs are *bad-state* monitors. [`unroll`] expands `k`
//! time frames into one combinational circuit whose single output asserts
//! "some monitor fires within `k` steps" — exactly the SAT query bounded
//! model checkers pose. These unrollings are the canonical *industrial*
//! SAT workload alongside equivalence miters.

use crate::{Circuit, Gate, NodeId};

/// A sequential circuit encoded by its combinational transition function.
#[derive(Debug, Clone)]
pub struct SequentialCircuit {
    /// The transition function. Inputs: `num_state` state bits then primary
    /// inputs; outputs: `num_state` next-state bits then bad-state monitors.
    pub transition: Circuit,
    /// Width of the state register.
    pub num_state: usize,
}

impl SequentialCircuit {
    /// Creates the wrapper, validating the interface shape.
    ///
    /// # Panics
    ///
    /// Panics unless the transition circuit has at least `num_state` inputs
    /// and more than `num_state` outputs (≥ 1 monitor).
    pub fn new(transition: Circuit, num_state: usize) -> Self {
        assert!(
            transition.inputs().len() >= num_state,
            "transition needs {num_state} state inputs"
        );
        assert!(
            transition.outputs().len() > num_state,
            "transition needs next-state outputs plus at least one monitor"
        );
        SequentialCircuit {
            transition,
            num_state,
        }
    }

    /// Number of primary (non-state) inputs per time frame.
    pub fn num_primary_inputs(&self) -> usize {
        self.transition.inputs().len() - self.num_state
    }

    /// Simulates `steps` frames from `initial`, returning `true` if any
    /// monitor fires (reference semantics for the unrolling).
    ///
    /// # Panics
    ///
    /// Panics if `initial` or any frame's inputs have the wrong width.
    pub fn simulate(&self, initial: &[bool], frame_inputs: &[Vec<bool>]) -> bool {
        assert_eq!(initial.len(), self.num_state, "bad initial state width");
        let mut state = initial.to_vec();
        for inputs in frame_inputs {
            assert_eq!(inputs.len(), self.num_primary_inputs(), "bad frame width");
            let mut all: Vec<bool> = state.clone();
            all.extend_from_slice(inputs);
            let outs = self.transition.evaluate(&all);
            if outs[self.num_state..].iter().any(|&b| b) {
                return true;
            }
            state = outs[..self.num_state].to_vec();
        }
        false
    }
}

/// Copies `source` into `target`, wiring `input_nodes` as its inputs;
/// returns the mapped outputs.
fn instantiate(target: &mut Circuit, source: &Circuit, input_nodes: &[NodeId]) -> Vec<NodeId> {
    assert_eq!(input_nodes.len(), source.inputs().len());
    let mut map: Vec<NodeId> = Vec::with_capacity(source.len());
    let mut next_input = 0;
    for gate in source.gates() {
        let id = match *gate {
            Gate::Input => {
                let n = input_nodes[next_input];
                next_input += 1;
                n
            }
            Gate::Const(v) => target.constant(v),
            Gate::Not(x) => target.not_gate(map[x.index()]),
            Gate::And(x, y) => target.and_gate(map[x.index()], map[y.index()]),
            Gate::Or(x, y) => target.or(map[x.index()], map[y.index()]),
            Gate::Xor(x, y) => target.xor(map[x.index()], map[y.index()]),
            Gate::Nand(x, y) => target.nand(map[x.index()], map[y.index()]),
            Gate::Nor(x, y) => target.nor(map[x.index()], map[y.index()]),
            Gate::Xnor(x, y) => target.xnor(map[x.index()], map[y.index()]),
            Gate::Mux { sel, hi, lo } => {
                target.mux(map[sel.index()], map[hi.index()], map[lo.index()])
            }
        };
        map.push(id);
    }
    source.outputs().iter().map(|o| map[o.index()]).collect()
}

/// Unrolls `steps` time frames from the constant `initial` state.
///
/// The result is a combinational circuit whose inputs are the primary
/// inputs of every frame (frame 0 first) and whose single output is
/// "some bad-state monitor fires in some frame". Bounded model checking
/// asserts that output true and asks SAT.
///
/// # Panics
///
/// Panics if `initial` has the wrong width or `steps == 0`.
///
/// # Examples
///
/// ```
/// use logic_circuit::{encode, unroll, Circuit, SequentialCircuit};
/// use sat_solver::Solver;
///
/// // 1-bit toggle: state' = ¬state, bad = state
/// let mut t = Circuit::new();
/// let s = t.input();
/// let ns = t.not_gate(s);
/// t.set_outputs([ns, s]);
/// // note: zero primary inputs is fine — add a dummy monitor-only machine
/// let seq = SequentialCircuit::new(t, 1);
///
/// // from state 0 the monitor (state == 1) fires at frame 1, not frame 0
/// let k1 = unroll(&seq, 1, &[false]);
/// let mut e1 = encode(&k1);
/// e1.assert_node(k1.outputs()[0], true);
/// assert!(Solver::from_cnf(&e1.cnf).solve().is_unsat());
///
/// let k2 = unroll(&seq, 2, &[false]);
/// let mut e2 = encode(&k2);
/// e2.assert_node(k2.outputs()[0], true);
/// assert!(Solver::from_cnf(&e2.cnf).solve().is_sat());
/// ```
pub fn unroll(seq: &SequentialCircuit, steps: usize, initial: &[bool]) -> Circuit {
    assert!(steps > 0, "need at least one time frame");
    assert_eq!(initial.len(), seq.num_state, "bad initial state width");
    let mut out = Circuit::new();
    let mut state: Vec<NodeId> = initial.iter().map(|&b| out.constant(b)).collect();
    let mut bads: Vec<NodeId> = Vec::new();
    for _ in 0..steps {
        let mut frame_inputs = state.clone();
        for _ in 0..seq.num_primary_inputs() {
            frame_inputs.push(out.input());
        }
        let outs = instantiate(&mut out, &seq.transition, &frame_inputs);
        bads.extend_from_slice(&outs[seq.num_state..]);
        state = outs[..seq.num_state].to_vec();
    }
    let any_bad = out.or_many(&bads);
    out.set_outputs([any_bad]);
    out
}

/// Frame-at-a-time unrolling for incremental bounded model checking.
///
/// Where [`unroll`] rebuilds the whole expansion for every bound `k`
/// (total work quadratic in the final bound), `IncrementalUnroll` keeps
/// one growing circuit and appends a single time frame per
/// [`push_frame`](IncrementalUnroll::push_frame) call, returning that
/// frame's "some monitor fires here" node. Paired with
/// [`IncrementalEncoder`](crate::IncrementalEncoder) and an incremental
/// solver session, checking bounds `1..=k` costs one frame of encoding
/// per bound and reuses everything the solver learned at shallower
/// bounds.
///
/// # Examples
///
/// ```
/// use logic_circuit::{encode, Circuit, IncrementalUnroll, SequentialCircuit};
/// use sat_solver::{Budget, Solver};
///
/// // 1-bit toggle: state' = ¬state, bad = state
/// let mut t = Circuit::new();
/// let s = t.input();
/// let ns = t.not_gate(s);
/// t.set_outputs([ns, s]);
/// let seq = SequentialCircuit::new(t, 1);
///
/// let mut unroll = IncrementalUnroll::new(&seq, &[false]);
/// let bad1 = unroll.push_frame();
/// let bad2 = unroll.push_frame();
/// let enc = encode(unroll.circuit());
/// let mut solver = Solver::from_cnf(&enc.cnf);
/// // from state 0 the monitor first fires in the second frame
/// assert!(solver
///     .solve_with_assumptions(&[enc.lit(bad1, true)], Budget::unlimited())
///     .is_unsat());
/// assert!(solver
///     .solve_with_assumptions(&[enc.lit(bad2, true)], Budget::unlimited())
///     .is_sat());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalUnroll {
    seq: SequentialCircuit,
    circuit: Circuit,
    state: Vec<NodeId>,
    frames: usize,
}

impl IncrementalUnroll {
    /// Starts an unrolling from the constant `initial` state.
    ///
    /// # Panics
    ///
    /// Panics if `initial` has the wrong width.
    pub fn new(seq: &SequentialCircuit, initial: &[bool]) -> Self {
        assert_eq!(initial.len(), seq.num_state, "bad initial state width");
        let mut circuit = Circuit::new();
        let state = initial.iter().map(|&b| circuit.constant(b)).collect();
        IncrementalUnroll {
            seq: seq.clone(),
            circuit,
            state,
            frames: 0,
        }
    }

    /// Appends one time frame and returns the node asserting "some
    /// monitor fires in this frame". The node also becomes the
    /// circuit's output, so [`circuit`](IncrementalUnroll::circuit)
    /// stays evaluable after every push.
    pub fn push_frame(&mut self) -> NodeId {
        let mut frame_inputs = self.state.clone();
        for _ in 0..self.seq.num_primary_inputs() {
            frame_inputs.push(self.circuit.input());
        }
        let outs = instantiate(&mut self.circuit, &self.seq.transition, &frame_inputs);
        let bad = self.circuit.or_many(&outs[self.seq.num_state..]);
        self.state = outs[..self.seq.num_state].to_vec();
        self.circuit.set_outputs([bad]);
        self.frames += 1;
        bad
    }

    /// The unrolled circuit so far.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Time frames pushed so far.
    pub fn frames(&self) -> usize {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode;
    use sat_solver::Solver;

    /// An n-bit counter that increments when its single primary input is
    /// high; the monitor fires when all bits are 1.
    fn gated_counter(bits: usize) -> SequentialCircuit {
        let mut c = Circuit::new();
        let state: Vec<NodeId> = (0..bits).map(|_| c.input()).collect();
        let enable = c.input();
        // ripple increment gated by `enable`
        let mut carry = enable;
        let mut next = Vec::with_capacity(bits);
        for &s in &state {
            let sum = c.xor(s, carry);
            let new_carry = c.and_gate(s, carry);
            next.push(sum);
            carry = new_carry;
        }
        let all_ones = c.and_many(&state);
        let mut outputs = next;
        outputs.push(all_ones);
        c.set_outputs(outputs);
        SequentialCircuit::new(c, bits)
    }

    fn bmc_sat(seq: &SequentialCircuit, steps: usize, initial: &[bool]) -> bool {
        let u = unroll(seq, steps, initial);
        let mut enc = encode(&u);
        enc.assert_node(u.outputs()[0], true);
        Solver::from_cnf(&enc.cnf).solve().is_sat()
    }

    #[test]
    fn counter_reaches_all_ones_at_exact_depth() {
        let seq = gated_counter(3);
        let zero = [false; 3];
        // all-ones (7) needs 7 increments; it is *observed* at the frame
        // whose entry state is 7, i.e. frame index 7 ⇒ 8 frames.
        assert!(!bmc_sat(&seq, 7, &zero), "depth 7: monitor cannot fire yet");
        assert!(bmc_sat(&seq, 8, &zero), "depth 8: exactly reachable");
        assert!(bmc_sat(&seq, 12, &zero), "deeper bounds stay SAT");
    }

    #[test]
    fn counter_from_nonzero_start_is_faster() {
        let seq = gated_counter(3);
        let six = [false, true, true]; // LSB first: 6
        assert!(!bmc_sat(&seq, 1, &six));
        assert!(bmc_sat(&seq, 2, &six), "one increment reaches 7");
    }

    #[test]
    fn simulate_matches_bmc_witness_semantics() {
        let seq = gated_counter(2);
        // enable every frame: states 0,1,2,3 → monitor at frame with state 3
        let frames: Vec<Vec<bool>> = vec![vec![true]; 4];
        assert!(seq.simulate(&[false, false], &frames));
        let frames: Vec<Vec<bool>> = vec![vec![true]; 3];
        assert!(!seq.simulate(&[false, false], &frames));
        // never enabled: never fires
        let frames: Vec<Vec<bool>> = vec![vec![false]; 10];
        assert!(!seq.simulate(&[false, false], &frames));
    }

    #[test]
    fn interface_accessors() {
        let seq = gated_counter(4);
        assert_eq!(seq.num_primary_inputs(), 1);
    }

    #[test]
    fn incremental_unroll_agrees_with_monolithic_unroll() {
        use crate::IncrementalEncoder;
        use sat_solver::Budget;

        let seq = gated_counter(3);
        let zero = [false; 3];
        let mut unrolling = IncrementalUnroll::new(&seq, &zero);
        let mut enc = IncrementalEncoder::new();
        // One growing solver would be the production shape; a fresh
        // solver per bound keeps this test about *encoding* equality.
        for depth in 1..=10 {
            let bad = unrolling.push_frame();
            let _ = enc.encode_new(unrolling.circuit());
            assert_eq!(unrolling.frames(), depth);
            let full = encode(unrolling.circuit());
            let mut s = Solver::from_cnf(&full.cnf);
            let inc_sat = s
                .solve_with_assumptions(&[enc.lit(bad, true)], Budget::unlimited())
                .is_sat();
            // `unroll` asks "any frame ≤ depth"; the incremental bad
            // node asks "exactly this frame". For the counter the first
            // firing frame is 8, so both agree on every prefix bound.
            assert_eq!(
                inc_sat,
                bmc_sat(&seq, depth, &zero),
                "depth {depth}: incremental and monolithic unrollings disagree"
            );
        }
    }

    #[test]
    fn incremental_encoder_deltas_cover_the_full_encoding() {
        use crate::IncrementalEncoder;

        let seq = gated_counter(2);
        let mut unrolling = IncrementalUnroll::new(&seq, &[false, false]);
        let mut enc = IncrementalEncoder::new();
        let mut delta_clauses = 0;
        for _ in 0..5 {
            unrolling.push_frame();
            delta_clauses += enc.encode_new(unrolling.circuit()).num_clauses();
        }
        let full = encode(unrolling.circuit());
        assert_eq!(delta_clauses, full.cnf.num_clauses());
        assert_eq!(enc.num_vars(), full.cnf.num_vars());
    }

    #[test]
    #[should_panic(expected = "at least one time frame")]
    fn zero_steps_rejected() {
        let seq = gated_counter(2);
        let _ = unroll(&seq, 0, &[false, false]);
    }

    #[test]
    #[should_panic(expected = "monitor")]
    fn monitorless_transition_rejected() {
        let mut c = Circuit::new();
        let s = c.input();
        let ns = c.not_gate(s);
        c.set_outputs([ns]);
        let _ = SequentialCircuit::new(c, 1);
    }
}
