//! Crash isolation: a panic in solver or pipeline code becomes a value
//! the caller handles instead of tearing down the process.
//!
//! [`run_isolated`] converts a panic into a [`WorkerCrash`]. Its callers
//! decide what a crash degrades to:
//!
//! * an `rsatd` session whose solve panicked is quarantined (its requests
//!   get a typed `crashed` error) while the daemon keeps serving the
//!   other sessions;
//! * a panic in model inference makes the pipeline's policy pick fall
//!   back to the static heuristic, and a panic there to the default
//!   policy (`neuroselect`'s degradation ladder).
//!
//! This module is the *only* place in the workspace allowed to re-raise a
//! caught panic (`resume_unwind`), enforced by the `no-unwind-escape`
//! xtask lint rule.
//!
//! The module also hosts the solver-side fault-injection points of the
//! `faults` feature (inprocessing corruption and stalls); they compile to
//! empty inline functions without it.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A caught panic, rendered for reports and telemetry.
#[derive(Debug)]
pub struct WorkerCrash {
    /// Human-readable panic message.
    pub message: String,
}

impl WorkerCrash {
    /// Wraps a raw panic payload (e.g. from `JoinHandle::join`).
    pub fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        WorkerCrash {
            message: panic_message(payload.as_ref()),
        }
    }
}

/// Renders a panic payload the way the default panic hook would.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Runs `f`, converting a panic into a [`WorkerCrash`].
///
/// `AssertUnwindSafe` is sound for the callers above because none of
/// them touches the crashed closure's state again: a panicked session's
/// solver is dropped mid-unwind and the session quarantined, and a
/// panicked inference drops its prepared tensors without having mutated
/// anything shared.
pub fn run_isolated<T>(f: impl FnOnce() -> T) -> Result<T, WorkerCrash> {
    catch_unwind(AssertUnwindSafe(f)).map_err(WorkerCrash::from_payload)
}

/// Fault point [`faults::site::INPROCESS_CORRUPT`]: reports the engine's
/// working state as corrupt once the round counter reaches the armed
/// threshold. The engine must skip the round cleanly.
#[cfg(feature = "faults")]
#[inline]
pub(crate) fn inject_inprocess_corruption(round: u64) -> bool {
    faults::fire(faults::site::INPROCESS_CORRUPT, &[("at", round)]).is_some()
}

#[cfg(not(feature = "faults"))]
#[inline]
pub(crate) fn inject_inprocess_corruption(_round: u64) -> bool {
    false
}

/// Fault point [`faults::site::INPROCESS_STALL`]: collapses the round's
/// step budget once the round counter reaches the armed threshold,
/// forcing a mid-round abort that must leave the solver consistent.
#[cfg(feature = "faults")]
#[inline]
pub(crate) fn inject_inprocess_stall(round: u64) -> bool {
    faults::fire(faults::site::INPROCESS_STALL, &[("at", round)]).is_some()
}

#[cfg(not(feature = "faults"))]
#[inline]
pub(crate) fn inject_inprocess_stall(_round: u64) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_isolated_passes_values_through() {
        assert_eq!(run_isolated(|| 41 + 1).expect("no panic"), 42);
    }

    #[test]
    fn run_isolated_catches_and_renders_panics() {
        let crash = run_isolated(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(crash.message, "boom 7");
        let crash = run_isolated(|| -> u32 { panic!("static boom") }).unwrap_err();
        assert_eq!(crash.message, "static boom");
    }
}
