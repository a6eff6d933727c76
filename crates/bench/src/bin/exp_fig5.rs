//! **Experiment F5 — Figure 5**: the clause scoring bit layouts of the
//! default and the propagation-frequency-guided policies, shown on worked
//! examples.
//!
//! ```text
//! cargo run -p bench --bin exp_fig5
//! ```

use cnf::{Lit, Var};
use neuroselect::sat_solver::{FrequencyTable, PolicyKind};

fn lits(ds: &[i32]) -> Vec<Lit> {
    ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
}

fn show(policy: PolicyKind, name: &str, lits: &[Lit], glue: u32, freq: &FrequencyTable) {
    let score = policy.score(lits, glue, freq);
    println!(
        "{name:<26} glue={glue:<3} size={:<3} score={score:#018x} ({score})",
        lits.len()
    );
}

fn main() {
    println!("Figure 5: clause scoring bit layouts\n");
    println!("default   : [ ~glue (32 bits) | ~size (32 bits) ]");
    println!("prop-freq : [ frequency (20 bits) | ~glue (20 bits) | ~size (24 bits) ]");
    println!("(lower glue/size ⇒ higher score; more hot variables ⇒ higher score)\n");

    // Build a frequency table where variables 1 and 2 are hot (f_v > 0.8·f_max).
    let mut freq = FrequencyTable::new(8);
    for _ in 0..100 {
        freq.bump(Var::new(0));
        freq.bump(Var::new(1));
    }
    for _ in 0..10 {
        freq.bump(Var::new(2));
    }
    println!(
        "frequency table: f(x1)=100 f(x2)=100 f(x3)=10, f_max=100, α=0.8 \
         ⇒ hot = {{x1, x2}}\n"
    );

    let examples: Vec<(&str, Vec<Lit>, u32)> = vec![
        ("hot clause, bad glue", lits(&[1, 2, 5]), 30),
        ("cold clause, good glue", lits(&[3, 4]), 3),
        ("cold clause, bad glue", lits(&[4, 5, 6, 7]), 30),
        ("half-hot clause", lits(&[1, 4]), 8),
    ];

    println!("--- default policy (Kissat) ---");
    for (name, ls, glue) in &examples {
        show(PolicyKind::Default, name, ls, *glue, &freq);
    }

    println!("\n--- propagation-frequency policy (Equation 2, α = 4/5) ---");
    for (name, ls, glue) in &examples {
        show(PolicyKind::PropFreq, name, ls, *glue, &freq);
    }

    println!(
        "\nnote the rank reversal: under the default policy the low-glue cold \
         clause outranks the hot clause, while the frequency-guided policy \
         protects the hot clause despite its glue of 30."
    );
}
