//! Bounded model checking over one incremental `rsatd` session.
//!
//! A gated counter increments whenever its enable input is high; the safety
//! monitor fires when the counter saturates. Instead of re-encoding and
//! re-solving the whole unrolling at each bound, this drives a single
//! daemon session: every bound pushes one more time frame, feeds only the
//! *delta* clauses to the session, and re-solves under an assumption
//! selecting that frame's monitor. Learned clauses from bound `k` carry
//! into bound `k + 1`, which is exactly the cold-start amortization the
//! daemon's incremental sessions exist for. The first SAT bound yields a
//! concrete input trace (the counterexample), which we decode and replay
//! against the simulator.
//!
//! ```text
//! cargo run --release --example bounded_model_checking
//! ```

use logic_circuit::{Circuit, IncrementalEncoder, IncrementalUnroll, NodeId, SequentialCircuit};
use rsatd::{Daemon, DaemonConfig, Verdict};
use std::error::Error;
use std::time::Duration;

/// Builds the gated counter machine: `bits` state bits, one enable input,
/// monitor = "all bits 1".
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
    let saturated = c.and_many(&state);
    let mut outputs = next;
    outputs.push(saturated);
    c.set_outputs(outputs);
    SequentialCircuit::new(c, bits)
}

/// Converts one delta CNF into the daemon's wire clause shape.
fn dimacs_clauses(delta: &cnf::Cnf) -> Vec<Vec<i64>> {
    delta
        .clauses()
        .iter()
        .map(|c| c.lits().iter().map(|l| l.to_dimacs() as i64).collect())
        .collect()
}

fn main() -> Result<(), Box<dyn Error>> {
    const BITS: usize = 4;
    const MAX_BOUND: usize = 1 << BITS;
    let seq = gated_counter(BITS);
    let initial = vec![false; BITS];
    println!("machine: {BITS}-bit gated counter | property: counter never saturates\n");

    // A session's variable space is fixed at `open`, so size it for the
    // deepest bound up front. The incremental encoder numbers variables
    // by node index, which makes the total just the final node count.
    let mut scratch = IncrementalUnroll::new(&seq, &initial);
    for _ in 0..MAX_BOUND {
        scratch.push_frame();
    }
    let total_vars = scratch.circuit().len() as u32;

    let daemon = Daemon::start(DaemonConfig::default());
    let session = daemon.open_session(total_vars, false)?;

    let mut unrolling = IncrementalUnroll::new(&seq, &initial);
    let mut encoder = IncrementalEncoder::new();
    let mut violated_at = None;
    for bound in 1..=MAX_BOUND {
        // Grow by one frame and ship only the new clauses.
        let bad = unrolling.push_frame();
        let delta = encoder.encode_new(unrolling.circuit());
        session.add_clauses(&dimacs_clauses(&delta))?;

        // The probe literal must survive in-search simplification at
        // every later bound, so freeze it before assuming it.
        let probe = i64::from(encoder.lit(bad, true).to_dimacs());
        session.freeze(&[probe])?;
        let reply = session.solve(&[probe], Some(Duration::from_secs(30)))?;
        match reply.verdict {
            Verdict::Sat => {
                println!(
                    "bound {bound:>2}: SAT — property VIOLATED \
                     ({} conflicts, {} propagations, {} ms)",
                    reply.conflicts, reply.propagations, reply.duration_ms
                );
                violated_at = Some(bound);
                break;
            }
            Verdict::Unsat => println!(
                "bound {bound:>2}: UNSAT — property holds up to {bound} steps \
                 ({} conflicts)",
                reply.conflicts
            ),
            Verdict::Unknown(cause) => {
                return Err(format!("bound {bound}: solve degraded ({cause})").into())
            }
        }
    }
    let bound = violated_at.ok_or("counter must saturate within 2^bits frames")?;

    // Decode the counterexample trace: the model is signed DIMACS
    // literals; frame inputs appear in push order.
    let model = session.model()?;
    let assignment: Vec<bool> = model.iter().map(|&l| l > 0).collect();
    let inputs = encoder.input_values(unrolling.circuit(), &assignment);
    let per_frame: Vec<Vec<bool>> = inputs
        .chunks(seq.num_primary_inputs())
        .map(|c| c.to_vec())
        .collect();
    let trace: String = per_frame
        .iter()
        .map(|f| if f[0] { '1' } else { '0' })
        .collect();
    println!("counterexample enable trace: {trace}");
    // Replay against the reference simulator.
    assert!(
        seq.simulate(&initial, &per_frame),
        "decoded trace must reach the bad state in simulation"
    );
    println!("trace replayed in simulation: monitor fires ✓");
    assert_eq!(
        bound,
        1 << BITS,
        "saturation needs 2^bits - 1 increments, observed at frame 2^bits"
    );

    session.close()?;
    daemon.shutdown();
    Ok(())
}
