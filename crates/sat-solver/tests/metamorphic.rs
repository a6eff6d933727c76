//! Metamorphic property tests: satisfiability is invariant under
//! satisfiability-preserving transformations of the formula.
//!
//! Four transformations are exercised — variable renaming (a bijection on
//! variable indices), literal polarity flips (negating every occurrence of
//! a chosen variable set), clause shuffling, and duplicate-clause
//! injection — against both deletion policies, against the solver with
//! in-search inprocessing (subsumption, bounded variable elimination,
//! vivification) rewriting the clause database mid-search. The solver
//! never sees the "expected" answer: the oracle is the solver itself on
//! the untransformed formula, which makes these tests sensitive to
//! heuristic-dependent soundness bugs (e.g. a deletion policy or an
//! inprocessing rewrite corrupting the search) that a fixed-oracle test
//! could mask.

use cnf::{Clause, Cnf, Lit, Var};
use proptest::prelude::*;
use sat_solver::{PolicyKind, SolveResult, Solver, SolverConfig};

/// Deterministic xorshift64* stream; proptest supplies only the seed so
/// shrinking stays meaningful.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Random CNFs with clauses of length 1–4 (same shape as the brute-force
/// suite, but here no brute-force oracle caps the variable count).
fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    (2..=max_vars).prop_flat_map(move |n| {
        let lit = (1..=n as i32).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
        let clause = proptest::collection::vec(lit, 1..=4);
        proptest::collection::vec(clause, 1..=max_clauses).prop_map(move |clauses| {
            let mut f = Cnf::new(n);
            for c in clauses {
                f.add_dimacs(&c);
            }
            f
        })
    })
}

/// A Fisher–Yates permutation of `0..n` drawn from `rng`.
fn permutation(n: usize, rng: &mut XorShift) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Renames variables through the bijection `perm` (old index → new index).
fn rename_vars(f: &Cnf, perm: &[u32]) -> Cnf {
    let mut out = Cnf::new(f.num_vars());
    for clause in f.iter() {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|l| Var::new(perm[l.var().index() as usize]).lit(l.is_negated()))
            .collect();
        out.add_clause(Clause::from_lits(lits));
    }
    out
}

/// Negates every occurrence of the variables selected by `flip`.
fn flip_polarities(f: &Cnf, flip: &[bool]) -> Cnf {
    let mut out = Cnf::new(f.num_vars());
    for clause in f.iter() {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|l| {
                if flip[l.var().index() as usize] {
                    !*l
                } else {
                    *l
                }
            })
            .collect();
        out.add_clause(Clause::from_lits(lits));
    }
    out
}

/// Reorders clauses by a random permutation.
fn shuffle_clauses(f: &Cnf, rng: &mut XorShift) -> Cnf {
    let order = permutation(f.num_clauses(), rng);
    let mut out = Cnf::new(f.num_vars());
    for &i in &order {
        out.add_clause(f.clauses()[i as usize].clone());
    }
    out
}

/// Re-adds a random selection of existing clauses (duplicates change
/// nothing semantically but shift clause ids, watch order, and activity).
fn inject_duplicates(f: &Cnf, rng: &mut XorShift) -> Cnf {
    let mut out = f.clone();
    let extra = 1 + rng.below(f.num_clauses());
    for _ in 0..extra {
        let i = rng.below(f.num_clauses());
        out.add_clause(f.clauses()[i].clone());
    }
    out
}

/// Aggressive-reduction config so deletion policies actually fire on
/// instances this small.
fn config_with_tiny_reduce(policy: PolicyKind) -> SolverConfig {
    SolverConfig {
        policy,
        tier1_glue: 0,
        reduce_init: 2,
        reduce_inc: 1,
        restart: 4,
        ..SolverConfig::default()
    }
}

/// Like [`config_with_tiny_reduce`] but with inprocessing rounds firing
/// at every restart, so subsumption/BVE/vivification all get a chance to
/// rewrite these small formulas mid-search.
fn config_with_inprocessing(policy: PolicyKind) -> SolverConfig {
    SolverConfig {
        inprocess: true,
        inprocess_interval: 1,
        ..config_with_tiny_reduce(policy)
    }
}

fn is_sat(f: &Cnf, policy: PolicyKind) -> bool {
    let mut s = Solver::new(f, config_with_tiny_reduce(policy));
    match s.solve() {
        SolveResult::Sat(model) => {
            assert!(cnf::verify_model(f, &model).is_ok(), "invalid model");
            true
        }
        SolveResult::Unsat => false,
        SolveResult::Unknown => panic!("unlimited solve returned Unknown"),
    }
}

/// Solves with inprocessing enabled; SAT models are verified against the
/// *original* formula, so BVE model reconstruction is on the hook too.
fn is_sat_inprocessed(f: &Cnf, policy: PolicyKind) -> bool {
    let mut s = Solver::new(f, config_with_inprocessing(policy));
    match s.solve() {
        SolveResult::Sat(model) => {
            assert!(
                cnf::verify_model(f, &model).is_ok(),
                "invalid model after inprocessing"
            );
            true
        }
        SolveResult::Unsat => false,
        SolveResult::Unknown => panic!("unlimited solve returned Unknown"),
    }
}

/// All four transformations, tagged for failure messages.
fn transformed_variants(f: &Cnf, seed: u64) -> Vec<(&'static str, Cnf)> {
    let mut rng = XorShift::new(seed);
    let perm = permutation(f.num_vars() as usize, &mut rng);
    let flip: Vec<bool> = (0..f.num_vars()).map(|_| rng.next() & 1 == 1).collect();
    vec![
        ("rename", rename_vars(f, &perm)),
        ("flip", flip_polarities(f, &flip)),
        ("shuffle", shuffle_clauses(f, &mut rng)),
        ("duplicate", inject_duplicates(f, &mut rng)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn verdict_invariant_under_transformations_default(
        f in arb_cnf(20, 70),
        seed in any::<u64>(),
    ) {
        let expected = is_sat(&f, PolicyKind::Default);
        for (tag, g) in transformed_variants(&f, seed) {
            prop_assert_eq!(
                is_sat(&g, PolicyKind::Default),
                expected,
                "{} broke SAT-invariance under the default policy",
                tag
            );
        }
    }

    #[test]
    fn verdict_invariant_under_transformations_inprocessing(
        f in arb_cnf(20, 70),
        seed in any::<u64>(),
    ) {
        // Oracle is the plain solver; the transformed variants all run
        // with inprocessing rounds at every restart. Any unsound
        // subsumption, elimination, or vivification on a renamed/flipped/
        // shuffled/duplicated copy shows up as a verdict flip, and a bad
        // reconstruction shows up as an invalid model.
        let expected = is_sat(&f, PolicyKind::Default);
        prop_assert_eq!(
            is_sat_inprocessed(&f, PolicyKind::Default),
            expected,
            "inprocessing flipped the verdict on the untransformed formula"
        );
        for (tag, g) in transformed_variants(&f, seed) {
            prop_assert_eq!(
                is_sat_inprocessed(&g, PolicyKind::Default),
                expected,
                "{} broke SAT-invariance with inprocessing enabled",
                tag
            );
        }
    }

    #[test]
    fn verdict_invariant_under_transformations_propfreq(
        f in arb_cnf(20, 70),
        seed in any::<u64>(),
    ) {
        let expected = is_sat(&f, PolicyKind::PropFreq);
        for (tag, g) in transformed_variants(&f, seed) {
            prop_assert_eq!(
                is_sat(&g, PolicyKind::PropFreq),
                expected,
                "{} broke SAT-invariance under the prop-freq policy",
                tag
            );
        }
    }
}

#[test]
fn transformations_preserve_models_concretely() {
    // A deterministic sanity anchor independent of proptest: a satisfying
    // assignment maps through renaming and polarity flips as predicted.
    let mut f = Cnf::new(3);
    f.add_dimacs(&[1, 2]);
    f.add_dimacs(&[-1, 3]);
    f.add_dimacs(&[-2, -3]);
    let mut rng = XorShift::new(7);
    let perm = permutation(3, &mut rng);
    assert!(is_sat(&f, PolicyKind::Default));
    assert!(is_sat(&rename_vars(&f, &perm), PolicyKind::Default));
    assert!(is_sat(
        &flip_polarities(&f, &[true, false, true]),
        PolicyKind::Default
    ));
    // And an UNSAT core stays UNSAT through every transformation.
    let mut u = Cnf::new(2);
    u.add_dimacs(&[1, 2]);
    u.add_dimacs(&[1, -2]);
    u.add_dimacs(&[-1, 2]);
    u.add_dimacs(&[-1, -2]);
    for (tag, g) in transformed_variants(&u, 13) {
        assert!(!is_sat(&g, PolicyKind::Default), "{tag} flipped UNSAT");
        assert!(
            !is_sat_inprocessed(&g, PolicyKind::Default),
            "{tag} flipped UNSAT (inprocessing)"
        );
    }
}
