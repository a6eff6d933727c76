//! A conflict-driven clause-learning (CDCL) SAT solver with the paper's
//! two clause-deletion policies.
//!
//! This crate is the solver substrate for the NeuroSelect reproduction
//! (DAC 2024). Its architecture mirrors the relevant parts of Kissat:
//!
//! * two-watched-literal Boolean constraint propagation,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * EVSIDS variable activities with phase saving,
//! * Luby restarts,
//! * tiered learned-clause reduction where low-glue clauses are
//!   non-reducible and the rest are scored by a [`PolicyKind`],
//! * one simplification engine (subsumption, self-subsuming resolution,
//!   bounded variable elimination, vivification) over the live clause
//!   database: periodic rounds during search when
//!   [`SolverConfig::inprocess`] is set, and rounds to a fixpoint before
//!   search through [`Solver::simplify`]. Both are DRAT-logged.
//!
//! The deletion policy is the paper's object of study:
//! [`PolicyKind::Default`] reproduces Kissat's `~glue | ~size` scoring and
//! [`PolicyKind::PropFreq`] implements the new propagation-frequency
//! criterion of Equation (2). Per-variable propagation counters are
//! exposed through [`Solver::propagation_frequencies`] (the data behind
//! the paper's Figure 3).
//!
//! # Examples
//!
//! ```
//! use sat_solver::{Budget, PolicyKind, Solver, SolverConfig};
//!
//! let formula = cnf::parse_dimacs_str("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")?;
//! let mut solver = Solver::new(&formula, SolverConfig::with_policy(PolicyKind::PropFreq));
//! let result = solver.solve_with_budget(Budget::conflicts(100_000));
//! if let Some(model) = result.model() {
//!     assert!(cnf::verify_model(&formula, model).is_ok());
//! }
//! # Ok::<(), cnf::ParseDimacsError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
mod clause_db;
mod config;
mod freq;
mod heap;
mod inprocess;
mod instrument;
mod lbool;
mod policy;
mod proof;
mod resilience;
mod restart;
mod solver;
mod varmap;

pub use check::{CheckError, CheckLevel};
pub use config::{Budget, SolveResult, SolverConfig, SolverStats, StopCause};
pub use freq::FrequencyTable;
pub use inprocess::InprocessStats;
pub use instrument::SolverTelemetry;
pub use lbool::LBool;
pub use policy::PolicyKind;
pub use proof::{check_proof, ProofError, ProofLogger, ProofStep};
pub use resilience::{run_isolated, WorkerCrash};
pub use restart::luby;
pub use solver::{solve_with_policy, solve_with_policy_recorded, Checkpoint, DbStats, Solver};

/// Test-only helpers shared across the crate's test modules.
#[cfg(test)]
pub(crate) mod tests_support {
    use cnf::{Clause, Cnf, Var};

    /// A tiny pigeonhole generator (duplicated from `sat-gen` to avoid a
    /// dependency cycle in tests).
    pub fn php(pigeons: u32, holes: u32) -> Cnf {
        let var = |p: u32, h: u32| Var::new(p * holes + h);
        let mut f = Cnf::new(pigeons * holes);
        for p in 0..pigeons {
            f.add_clause((0..holes).map(|h| var(p, h).positive()).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    f.add_clause(Clause::from_lits(vec![
                        var(p1, h).negative(),
                        var(p2, h).negative(),
                    ]));
                }
            }
        }
        f
    }
}
