//! From-scratch neural network substrate for the NeuroSelect reproduction:
//! a reverse-mode autodiff tape over dense matrices, the paper's layers
//! (bipartite MPNN, linear attention, Hybrid Graph Transformer), the
//! baselines of Table 2 (GIN, NeuroSAT-style), and the Adam optimizer.
//!
//! Everything is CPU-only `f32` with no external ML dependencies, matching
//! the paper's claim that one-time inference "can be efficient even on
//! CPUs".
//!
//! Inference is tape-free: [`NeuroSelectModel::predict`] evaluates every
//! layer directly on [`Matrix`] values, reading the weights straight from
//! the [`ParamStore`], and drops each intermediate as soon as it has been
//! read. The tape exists for training only. Both paths run the same
//! kernels in the same order, so a prediction is bit-identical to the
//! sigmoid of the tape's logit. On nsbench's `select-large` workload (large
//! planted 3-SAT and miters, ~27k edges each) on a 2-vCPU x86-64 VM, the
//! deployed model's forward pass (hidden width 32) takes ~40 ms per
//! instance, against ~150 ms through the tape.
//!
//! # Architecture
//!
//! * [`Matrix`] — dense row-major values; the products accumulate each
//!   output row in register blocks of up to 32 columns.
//! * [`Tape`]/[`NodeId`] — records one forward pass for training;
//!   [`Tape::backward`] yields [`Gradients`].
//! * [`ParamStore`]/[`Session`]/[`Adam`] — parameter life cycle: stored
//!   values are bound as tape leaves each pass and updated from leaf
//!   gradients.
//! * [`BipartiteMpnn`] (Eq. 6–7), [`LinearAttention`] (Eq. 8–9),
//!   [`HgtLayer`] (Eq. 3–5), [`NeuroSelectModel`] (Eq. 10–11).
//! * [`GinModel`], [`NeuroSatModel`] — Table 2 baselines.
//!
//! # Examples
//!
//! Train the NeuroSelect classifier on one labelled formula:
//!
//! ```
//! use neuro::{Adam, GraphTensors, NeuroSelectConfig, NeuroSelectModel, ParamStore};
//! use sat_graph::BipartiteGraph;
//!
//! let f = cnf::parse_dimacs_str("p cnf 3 2\n1 -2 0\n2 3 0\n")?;
//! let graph = GraphTensors::new(&BipartiteGraph::from_cnf(&f));
//! let mut store = ParamStore::new();
//! let model = NeuroSelectModel::new(&mut store, NeuroSelectConfig {
//!     hidden_dim: 8, hgt_layers: 1, mpnn_per_hgt: 2, use_attention: true, seed: 0,
//! });
//! let mut adam = Adam::new(1e-2);
//! let loss = model.train_step(&mut store, &mut adam, &graph, 1);
//! assert!(loss.is_finite());
//! # Ok::<(), cnf::ParseDimacsError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod attention;
mod baselines;
mod layers;
mod matrix;
mod model;
mod mpnn;
mod params;
mod serialize;
mod tape;

pub use attention::LinearAttention;
pub use baselines::{BaselineConfig, GinModel, NeuroSatModel};
pub use layers::{Activation, Linear, Mlp};
pub use matrix::Matrix;
pub use model::{HgtLayer, NeuroSelectConfig, NeuroSelectModel};
pub use mpnn::{BipartiteMpnn, GraphTensors, LcgTensors};
pub use params::{init_rng, Adam, ParamId, ParamStore, Session};
pub use serialize::{load_params, save_params, LoadParamsError};
pub use tape::{Gradients, NodeId, Tape};
