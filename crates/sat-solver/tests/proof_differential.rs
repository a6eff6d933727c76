//! Differential test of the watched-literal DRAT checker against a reference
//! oracle: a forward checker that rebuilds the assignment for every lemma and
//! sweeps every active clause until nothing changes. The oracle is slow but
//! obviously correct; the two must return the identical `Result` (down to
//! the `NotRup` index) on solver-emitted proofs of random small formulas and
//! on mutations of each proof: a dropped step, an injected random lemma
//! (sometimes the empty one) and an extra deletion of an input clause.

use cnf::{Cnf, Lit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sat_solver::{check_proof, ProofError, ProofLogger, ProofStep, Solver, SolverConfig};
use std::collections::HashMap;

/// Sorted, deduplicated literal codes: the multiset key for deletions.
fn clause_key(lits: &[Lit]) -> Vec<u32> {
    let mut key: Vec<u32> = lits.iter().map(|l| l.code()).collect();
    key.sort_unstable();
    key.dedup();
    key
}

/// The reference checker: same contract as [`check_proof`].
fn reference_check(formula: &Cnf, proof: &ProofLogger) -> Result<(), ProofError> {
    let mut active: Vec<Vec<Lit>> = formula
        .clauses()
        .iter()
        .map(|c| c.lits().to_vec())
        .collect();
    let mut index_of: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for (i, c) in active.iter().enumerate() {
        index_of.entry(clause_key(c)).or_default().push(i);
    }
    let mut deleted = vec![false; active.len()];

    for (step_idx, step) in proof.steps().iter().enumerate() {
        match step {
            ProofStep::Add(lits) => {
                if !reference_is_rup(&active, &deleted, lits) {
                    return Err(ProofError::NotRup { index: step_idx });
                }
                if lits.is_empty() {
                    return Ok(());
                }
                deleted.push(false);
                active.push(lits.clone());
                index_of
                    .entry(clause_key(lits))
                    .or_default()
                    .push(active.len() - 1);
            }
            ProofStep::Delete(lits) => {
                if let Some(slots) = index_of.get_mut(&clause_key(lits)) {
                    if let Some(pos) = slots.iter().position(|&i| !deleted[i]) {
                        deleted[slots[pos]] = true;
                        slots.swap_remove(pos);
                    }
                }
            }
        }
    }
    Err(ProofError::NoEmptyClause)
}

/// Asserts the negated lemma, then re-scans every active clause until no
/// clause is unit; RUP iff some clause ends up falsified.
fn reference_is_rup(active: &[Vec<Lit>], deleted: &[bool], lemma: &[Lit]) -> bool {
    let mut assign: HashMap<u32, bool> = HashMap::new();
    for &l in lemma {
        let neg = !l;
        match assign.get(&neg.var().index()) {
            Some(&v) if v != neg.polarity() => return true, // ¬lemma inconsistent
            _ => {
                assign.insert(neg.var().index(), neg.polarity());
            }
        }
    }
    loop {
        let mut changed = false;
        for (i, clause) in active.iter().enumerate() {
            if deleted[i] {
                continue;
            }
            let mut unassigned: Option<Lit> = None;
            let mut satisfied = false;
            let mut count_unassigned = 0;
            for &l in clause {
                match assign.get(&l.var().index()) {
                    Some(&v) if l.eval(v) => {
                        satisfied = true;
                        break;
                    }
                    Some(_) => {}
                    // a repeated literal is one unassigned literal, not two
                    None if unassigned != Some(l) => {
                        count_unassigned += 1;
                        unassigned = Some(l);
                    }
                    None => {}
                }
            }
            if satisfied {
                continue;
            }
            match count_unassigned {
                0 => return true,
                1 => {
                    let u = unassigned.expect("exactly one unassigned literal");
                    assign.insert(u.var().index(), u.polarity());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return false;
        }
    }
}

/// A random literal over variables `1..=max_var`.
fn random_lit(rng: &mut SmallRng, max_var: i32) -> Lit {
    let v = rng.gen_range(1..=max_var);
    Lit::from_dimacs(if rng.gen_bool(0.5) { v } else { -v })
}

/// A random formula of 2–9 variables with clauses of 1–4 literals
/// (duplicates and tautologies included), dense enough that about half
/// are UNSAT.
fn random_formula(rng: &mut SmallRng) -> Cnf {
    let n = rng.gen_range(2..=9);
    let m = rng.gen_range(2..=5 * n as usize);
    let mut f = Cnf::new(n as u32);
    for _ in 0..m {
        let len = rng.gen_range(1..=4);
        let c: Vec<i32> = (0..len).map(|_| random_lit(rng, n).to_dimacs()).collect();
        f.add_dimacs(&c);
    }
    f
}

/// The solver's proof for `f`, with reductions aggressive enough that it
/// carries deletions.
fn solver_proof(f: &Cnf) -> ProofLogger {
    let mut s = Solver::new(
        f,
        SolverConfig {
            tier1_glue: 0,
            reduce_init: 2,
            reduce_inc: 1,
            ..SolverConfig::default()
        },
    );
    s.enable_proof();
    s.solve();
    s.take_proof().expect("proof enabled")
}

fn logger_of(steps: &[ProofStep]) -> ProofLogger {
    let mut p = ProofLogger::new();
    for step in steps {
        match step {
            ProofStep::Add(lits) => p.add(lits),
            ProofStep::Delete(lits) => p.delete(lits),
        }
    }
    p
}

/// The solver's proof and three mutations of it.
fn proof_variants(rng: &mut SmallRng, f: &Cnf) -> Vec<ProofLogger> {
    let steps = solver_proof(f).steps().to_vec();
    let mut variants = vec![logger_of(&steps)];

    if !steps.is_empty() {
        let mut dropped = steps.clone();
        dropped.remove(rng.gen_range(0..steps.len()));
        variants.push(logger_of(&dropped));
    }

    // a lemma of 0–3 literals, sometimes over variables the formula lacks
    let max_var = f.num_vars() as i32 + 2;
    let lemma: Vec<Lit> = (0..rng.gen_range(0..=3))
        .map(|_| random_lit(rng, max_var))
        .collect();
    let mut injected = steps.clone();
    injected.insert(rng.gen_range(0..=steps.len()), ProofStep::Add(lemma));
    variants.push(logger_of(&injected));

    let input = &f.clauses()[rng.gen_range(0..f.num_clauses())];
    let mut deleted = steps.clone();
    deleted.insert(
        rng.gen_range(0..=steps.len()),
        ProofStep::Delete(input.lits().to_vec()),
    );
    variants.push(logger_of(&deleted));
    variants
}

#[test]
fn watched_checker_matches_the_reference_oracle() {
    let (mut ok, mut not_rup, mut no_empty) = (0, 0, 0);
    for seed in 0..1500u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = random_formula(&mut rng);
        for (variant, proof) in proof_variants(&mut rng, &f).iter().enumerate() {
            let expected = reference_check(&f, proof);
            assert_eq!(
                check_proof(&f, proof),
                expected,
                "seed {seed}, variant {variant}:\n{}",
                cnf::to_dimacs_string(&f)
            );
            match expected {
                Ok(()) => ok += 1,
                Err(ProofError::NotRup { .. }) => not_rup += 1,
                Err(ProofError::NoEmptyClause) => no_empty += 1,
            }
        }
    }
    // every verdict must be exercised, or the comparison proves little
    assert!(
        ok > 1000 && not_rup > 250 && no_empty > 1000,
        "verdict mix too thin: {ok} ok, {not_rup} not-RUP, {no_empty} no-empty"
    );
}
