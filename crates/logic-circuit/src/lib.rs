//! Gate-level combinational circuits, Tseitin CNF encoding, and miter
//! construction for equivalence checking.
//!
//! This crate is the EDA substrate of the NeuroSelect reproduction: it
//! manufactures the *structured, industrial-style* SAT instances (circuit
//! equivalence miters) that complement the random instance families in
//! `sat-gen`, standing in for the verification workloads that dominate SAT
//! competition benchmarks.
//!
//! # Examples
//!
//! Prove that a random circuit is equivalent to its rewritten twin by
//! showing the miter unsatisfiable:
//!
//! ```
//! use logic_circuit::{encode, miter, random_circuit, rewrite, RandomCircuitSpec};
//! use sat_solver::Solver;
//!
//! let spec = RandomCircuitSpec { num_inputs: 6, num_gates: 25, num_outputs: 2 };
//! let original = random_circuit(spec, 7);
//! let optimized = rewrite(&original, 0.8, 8);
//! let m = miter(&original, &optimized);
//! let mut enc = encode(&m);
//! enc.assert_node(m.outputs()[0], true);
//! assert!(Solver::from_cnf(&enc.cnf).solve().is_unsat());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bmc;
mod circuit;
mod miter;
mod random;
mod tseitin;

pub use bmc::{unroll, IncrementalUnroll, SequentialCircuit};
pub use circuit::{Circuit, Gate, NodeId};
pub use miter::miter;
pub use random::{inject_fault, random_circuit, rewrite, RandomCircuitSpec};
pub use tseitin::{encode, Encoded, IncrementalEncoder};
