//! Cold-start amortization benchmark for `rsatd` incremental sessions.
//!
//! Drives the same bounded-model-checking sweep (a gated counter checked
//! at every bound up to saturation) two ways through the daemon:
//!
//! - **fresh**: every bound opens a new session, ships the full unrolling,
//!   solves once, and closes — the cold-start baseline a stateless client
//!   pays.
//! - **session**: one session lives across the whole sweep; each bound
//!   ships only the delta clauses of the new time frame and re-solves
//!   under an assumption, reusing all learned state.
//!
//! The report feeds `exp_amortize` and the CI assertion that incremental
//! sessions amortize at least 2× over cold starts.

use logic_circuit::{Circuit, IncrementalEncoder, IncrementalUnroll, NodeId, SequentialCircuit};
use rsatd::{Daemon, DaemonConfig, Verdict};
use std::time::Instant;

/// Wall-clock and work totals for one sweep in both modes.
#[derive(Debug, Clone)]
pub struct AmortizeReport {
    /// Counter width; the sweep runs `2^bits` bounds.
    pub bits: usize,
    /// Number of bounds solved (the last one is SAT, the rest UNSAT).
    pub bounds: usize,
    /// Total wall-clock for the fresh-session-per-bound sweep, in ms.
    pub fresh_ms: f64,
    /// Total wall-clock for the single-session sweep, in ms.
    pub session_ms: f64,
    /// Summed solver propagations across the fresh sweep.
    pub fresh_propagations: u64,
    /// Summed solver propagations across the session sweep.
    pub session_propagations: u64,
    /// Per-bound wall-clock of each fresh solve, in ms (one per bound).
    pub fresh_latency_ms: Vec<f64>,
    /// Per-bound wall-clock of each session solve, in ms (one per bound).
    pub session_latency_ms: Vec<f64>,
}

impl AmortizeReport {
    /// Wall-clock speedup of the persistent session over cold starts.
    pub fn speedup_wall(&self) -> f64 {
        self.fresh_ms / self.session_ms.max(1e-9)
    }

    /// Propagation-count speedup (noise-free work measure).
    pub fn speedup_props(&self) -> f64 {
        self.fresh_propagations as f64 / (self.session_propagations.max(1)) as f64
    }

    /// The one-line summary printed by `exp_amortize` and quoted in docs.
    pub fn comparison_line(&self) -> String {
        format!(
            "amortize[{}-bit counter, {} bounds]: fresh {:.1} ms / {} props \
             vs session {:.1} ms / {} props — {:.1}x wall, {:.1}x props",
            self.bits,
            self.bounds,
            self.fresh_ms,
            self.fresh_propagations,
            self.session_ms,
            self.session_propagations,
            self.speedup_wall(),
            self.speedup_props(),
        )
    }

    /// Per-bound latency percentile lines for both modes, in the
    /// workspace's standard `p50 … | p90 … | p99 …` format.
    ///
    /// Tail latency is the whole point of the comparison: the fresh
    /// sweep's worst bounds re-pay the entire unrolling, while the
    /// session's worst bound only pays its delta.
    pub fn percentile_lines(&self) -> Vec<String> {
        [
            ("fresh", &self.fresh_latency_ms),
            ("session", &self.session_latency_ms),
        ]
        .into_iter()
        .filter_map(|(mode, lat)| {
            crate::percentile_line(lat.iter().copied())
                .map(|line| format!("  {mode:>7} per-bound latency: {line}"))
        })
        .collect()
    }
}

/// The gated-counter machine used across the BMC examples: `bits` state
/// bits, one enable input, monitor = "all bits 1".
fn gated_counter(bits: usize) -> SequentialCircuit {
    let mut c = Circuit::new();
    let state: Vec<NodeId> = (0..bits).map(|_| c.input()).collect();
    let enable = c.input();
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

fn dimacs_clauses(delta: &cnf::Cnf) -> Vec<Vec<i64>> {
    delta
        .clauses()
        .iter()
        .map(|c| c.lits().iter().map(|l| i64::from(l.to_dimacs())).collect())
        .collect()
}

/// Solves bound `k` cold: a brand-new session carrying the whole
/// `k`-frame unrolling. Returns (is_sat, propagations).
fn solve_fresh(
    daemon: &Daemon,
    seq: &SequentialCircuit,
    initial: &[bool],
    bound: usize,
) -> (bool, u64) {
    let mut unrolling = IncrementalUnroll::new(seq, initial);
    let mut bad = None;
    for _ in 0..bound {
        bad = Some(unrolling.push_frame());
    }
    let bad = bad.expect("bound >= 1");
    let mut enc = IncrementalEncoder::new();
    let cnf = enc.encode_new(unrolling.circuit());
    let probe = i64::from(enc.lit(bad, true).to_dimacs());

    let session = daemon.open_session(enc.num_vars(), false).expect("open");
    session.add_clauses(&dimacs_clauses(&cnf)).expect("seed");
    session.freeze(&[probe]).expect("freeze");
    let reply = session.solve(&[probe], None).expect("solve");
    session.close().expect("close");
    (matches!(reply.verdict, Verdict::Sat), reply.propagations)
}

/// Runs the full sweep in both modes and cross-checks their verdicts.
///
/// # Panics
///
/// Panics if the daemon degrades a solve or the two modes disagree on
/// any bound's verdict (they must both find SAT exactly at `2^bits`).
pub fn run(bits: usize) -> AmortizeReport {
    let seq = gated_counter(bits);
    let initial = vec![false; bits];
    let max_bound = 1usize << bits;
    let daemon = Daemon::start(DaemonConfig {
        // the fresh sweep holds at most one live session at a time, but
        // give headroom so admission never interferes with timing
        max_sessions: 8,
        ..DaemonConfig::default()
    });

    // -- fresh: cold start per bound ------------------------------------
    let started = Instant::now();
    let mut fresh_propagations = 0;
    let mut fresh_verdicts = Vec::with_capacity(max_bound);
    let mut fresh_latency_ms = Vec::with_capacity(max_bound);
    for bound in 1..=max_bound {
        let bound_started = Instant::now();
        let (sat, props) = solve_fresh(&daemon, &seq, &initial, bound);
        fresh_latency_ms.push(bound_started.elapsed().as_secs_f64() * 1e3);
        fresh_propagations += props;
        fresh_verdicts.push(sat);
    }
    let fresh_ms = started.elapsed().as_secs_f64() * 1e3;

    // -- session: one incremental session across the sweep --------------
    let mut scratch = IncrementalUnroll::new(&seq, &initial);
    for _ in 0..max_bound {
        scratch.push_frame();
    }
    let total_vars = scratch.circuit().len() as u32;

    let started = Instant::now();
    let mut session_propagations = 0;
    let mut session_verdicts = Vec::with_capacity(max_bound);
    let mut session_latency_ms = Vec::with_capacity(max_bound);
    let session = daemon.open_session(total_vars, false).expect("open");
    let mut unrolling = IncrementalUnroll::new(&seq, &initial);
    let mut enc = IncrementalEncoder::new();
    for _bound in 1..=max_bound {
        let bound_started = Instant::now();
        let bad = unrolling.push_frame();
        let delta = enc.encode_new(unrolling.circuit());
        session.add_clauses(&dimacs_clauses(&delta)).expect("delta");
        let probe = i64::from(enc.lit(bad, true).to_dimacs());
        session.freeze(&[probe]).expect("freeze");
        let reply = session.solve(&[probe], None).expect("solve");
        session_propagations += reply.propagations;
        session_verdicts.push(match reply.verdict {
            Verdict::Sat => true,
            Verdict::Unsat => false,
            Verdict::Unknown(cause) => panic!("session solve degraded: {cause}"),
        });
        session_latency_ms.push(bound_started.elapsed().as_secs_f64() * 1e3);
    }
    session.close().expect("close");
    let session_ms = started.elapsed().as_secs_f64() * 1e3;
    daemon.shutdown();

    assert_eq!(
        fresh_verdicts, session_verdicts,
        "both modes must agree on every bound"
    );
    assert!(
        session_verdicts.iter().rev().skip(1).all(|&sat| !sat),
        "every bound below saturation is UNSAT"
    );
    assert_eq!(
        session_verdicts.last(),
        Some(&true),
        "the counter saturates at bound 2^bits"
    );

    AmortizeReport {
        bits,
        bounds: max_bound,
        fresh_ms,
        session_ms,
        fresh_propagations,
        session_propagations,
        fresh_latency_ms,
        session_latency_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_mode_amortizes_at_least_2x() {
        // 2^6 = 64 bounds: enough sweep depth that the quadratic
        // re-shipping and re-solving of cold starts dominates noise.
        let report = run(6);
        println!("{}", report.comparison_line());
        assert_eq!(report.fresh_latency_ms.len(), report.bounds);
        assert_eq!(report.session_latency_ms.len(), report.bounds);
        let lines = report.percentile_lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(
            lines[0].contains("p50") && lines[0].contains("p99"),
            "{lines:?}"
        );
        assert!(
            report.speedup_wall() >= 2.0,
            "incremental session must amortize >= 2x over cold starts: {}",
            report.comparison_line()
        );
        assert!(
            report.speedup_props() >= 2.0,
            "propagation work must also amortize >= 2x: {}",
            report.comparison_line()
        );
    }
}
