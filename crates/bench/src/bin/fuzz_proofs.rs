//! Fuzzer: generates random small CNFs, solves them with aggressive clause
//! reduction and proof logging, and verifies every verdict — SAT models are
//! replayed against the formula, UNSAT proofs through the built-in forward
//! RUP checker — plus a full invariant audit of the final solver state on
//! every case. Prints the offending formula and DRAT proof on failure.
//! (This harness caught a real duplicate-literal bug in the checker's unit
//! detection.)
//!
//! ```text
//! cargo run --release -p bench --bin fuzz_proofs [-- --cases N]
//! ```

use bench::ExpArgs;
use neuroselect::sat_solver::{
    check_proof, Checkpoint, PolicyKind, SolveResult, Solver, SolverConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = ExpArgs::from_env();
    let cases: u64 = args.get("cases", 50_000);
    let mut unsat = 0u64;
    for seed in 0..cases {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=7u32);
        let m = rng.gen_range(1..=40usize);
        let mut f = cnf::Cnf::new(n);
        for _ in 0..m {
            let len = rng.gen_range(1..=4usize);
            let c: Vec<i32> = (0..len)
                .map(|_| {
                    let v = rng.gen_range(1..=n as i32);
                    if rng.gen_bool(0.5) {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            f.add_dimacs(&c);
        }
        let mut s = Solver::new(
            &f,
            SolverConfig {
                policy: if seed % 2 == 0 {
                    PolicyKind::Default
                } else {
                    PolicyKind::PropFreq
                },
                tier1_glue: 0,
                reduce_init: 2,
                reduce_inc: 1,
                restart: 4,
                ..SolverConfig::default()
            },
        );
        s.enable_proof();
        let result = s.solve();
        if let Err(e) = s.audit_invariants(Checkpoint::PostPropagate) {
            println!("FAILURE at seed {seed}: invariant audit: {e}");
            println!("{}", cnf::to_dimacs_string(&f));
            std::process::exit(1);
        }
        match result {
            SolveResult::Sat(model) => {
                if let Err(e) = cnf::verify_model(&f, &model) {
                    println!("FAILURE at seed {seed}: model verification: {e}");
                    println!("{}", cnf::to_dimacs_string(&f));
                    std::process::exit(1);
                }
            }
            SolveResult::Unsat => {
                unsat += 1;
                let proof = s.take_proof().expect("proof enabled");
                if let Err(e) = check_proof(&f, &proof) {
                    println!("FAILURE at seed {seed}: {e}");
                    println!("{}", cnf::to_dimacs_string(&f));
                    let mut out = Vec::new();
                    proof.write_drat(&mut out).expect("in-memory write");
                    println!("proof:\n{}", String::from_utf8(out).expect("ascii"));
                    std::process::exit(1);
                }
            }
            SolveResult::Unknown => {}
        }
        if seed % 10_000 == 0 && seed > 0 {
            eprintln!("…{seed} cases ({unsat} UNSAT, all proofs valid)");
        }
    }
    println!("{cases} cases fuzzed; {unsat} UNSAT verdicts, every proof checked valid");
}
