//! Incremental per-output equivalence checking over `rsatd` sessions.
//!
//! Instead of one monolithic miter, this encodes both circuits once into a
//! single daemon session and probes each output pair with a solver
//! *assumption* — the industrial methodology for localizing which outputs
//! a bug affects. All learned clauses are reused across the queries within
//! a session, and one daemon serves every candidate circuit in turn.
//!
//! ```text
//! cargo run --release --example incremental_equivalence
//! ```

use logic_circuit::{
    inject_fault, random_circuit, rewrite, Circuit, Gate, IncrementalEncoder, NodeId,
    RandomCircuitSpec,
};
use rsatd::{Daemon, DaemonConfig, DaemonError, Verdict};
use std::error::Error;

/// Appends a copy of `source` to `target`, reusing `shared_inputs` for its
/// primary inputs; returns the mapped output nodes.
fn append_circuit(target: &mut Circuit, source: &Circuit, shared_inputs: &[NodeId]) -> Vec<NodeId> {
    let mut map: Vec<NodeId> = Vec::with_capacity(source.len());
    let mut next_input = 0;
    for gate in source.gates() {
        let new_id = match *gate {
            Gate::Input => {
                let id = shared_inputs[next_input];
                next_input += 1;
                id
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
        map.push(new_id);
    }
    source.outputs().iter().map(|o| map[o.index()]).collect()
}

/// Encodes the two circuits side by side into one daemon session and
/// probes each output pair with one assumption per query. Returns, per
/// output, whether the pair is equivalent.
fn per_output_equivalence(
    daemon: &Daemon,
    golden: &Circuit,
    candidate: &Circuit,
) -> Result<Vec<bool>, DaemonError> {
    let mut paired = Circuit::new();
    let inputs: Vec<NodeId> = (0..golden.inputs().len()).map(|_| paired.input()).collect();
    let outs_a = append_circuit(&mut paired, golden, &inputs);
    let outs_b = append_circuit(&mut paired, candidate, &inputs);
    let diff_nodes: Vec<NodeId> = outs_a
        .iter()
        .zip(&outs_b)
        .map(|(&a, &b)| paired.xor(a, b))
        .collect();
    paired.set_outputs(diff_nodes.iter().copied());

    let mut enc = IncrementalEncoder::new();
    let cnf = enc.encode_new(&paired);
    let clauses: Vec<Vec<i64>> = cnf
        .clauses()
        .iter()
        .map(|c| c.lits().iter().map(|l| i64::from(l.to_dimacs())).collect())
        .collect();
    let probes: Vec<i64> = diff_nodes
        .iter()
        .map(|&d| i64::from(enc.lit(d, true).to_dimacs())) // "this output pair differs"
        .collect();

    let session = daemon.open_session(enc.num_vars(), false)?;
    session.add_clauses(&clauses)?;
    // Probe literals must survive in-search simplification across the
    // whole query sequence; freeze them all up front.
    session.freeze(&probes)?;
    let mut equivalent = Vec::with_capacity(probes.len());
    for probe in &probes {
        let reply = session.solve(&[*probe], None)?;
        equivalent.push(match reply.verdict {
            Verdict::Unsat => true,
            Verdict::Sat => false,
            Verdict::Unknown(cause) => {
                return Err(DaemonError::Internal(format!("probe degraded: {cause}")))
            }
        });
    }
    session.close()?;
    Ok(equivalent)
}

fn main() -> Result<(), Box<dyn Error>> {
    let spec = RandomCircuitSpec {
        num_inputs: 10,
        num_gates: 150,
        num_outputs: 8,
    };
    let golden = random_circuit(spec, 7);
    let optimized = rewrite(&golden, 0.8, 13);

    let daemon = Daemon::start(DaemonConfig::default());
    println!("checking {} output pairs incrementally…", spec.num_outputs);
    let clean = per_output_equivalence(&daemon, &golden, &optimized)?;
    println!("rewritten twin : {clean:?}");
    if !clean.iter().all(|&e| e) {
        return Err("rewrite broke an output — bug".into());
    }

    // Some faults are logically masked; try a few injection sites until
    // one is observable. Each candidate gets its own session from the
    // same daemon.
    for fault_seed in 0..20u64 {
        let Some(faulty) = inject_fault(&optimized, fault_seed) else {
            break;
        };
        let after_fault = per_output_equivalence(&daemon, &golden, &faulty)?;
        let affected: Vec<usize> = after_fault
            .iter()
            .enumerate()
            .filter(|(_, &ok)| !ok)
            .map(|(i, _)| i)
            .collect();
        if affected.is_empty() {
            println!("fault #{fault_seed}: masked at every output");
        } else {
            println!("fault #{fault_seed}: {after_fault:?}");
            println!(
                "observable at output(s) {affected:?} — assumption probing \
                 localized it without re-encoding"
            );
            daemon.shutdown();
            return Ok(());
        }
    }
    println!("every probed fault was masked (unusual but possible)");
    daemon.shutdown();
    Ok(())
}
