//! DRAT proof logging and a forward RUP proof checker.
//!
//! When proof logging is enabled the solver records every learned clause
//! (addition) and every clause removed by database reduction (deletion).
//! [`check_proof`] replays the proof against the original formula and
//! verifies that each added clause is a *reverse unit propagation* (RUP)
//! consequence — the standard certificate for UNSAT results.
//!
//! The checker is drat-trim's forward mode: clauses of two or more literals
//! are watched on two of them, unit and empty clauses are kept on the side,
//! and the assignment is a dense per-literal array undone after each lemma.
//! A lemma therefore costs one pass over the active unit clauses plus the
//! watch-list visits its unit propagation makes, not a sweep of the whole
//! clause set; a deletion costs one hash lookup.

use cnf::{Cnf, Lit};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};

/// One step of a DRAT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// Addition of a (learned) clause. Empty literals = the empty clause.
    Add(Vec<Lit>),
    /// Deletion of a clause.
    Delete(Vec<Lit>),
}

/// Records proof steps emitted by the solver.
#[derive(Debug, Default, Clone)]
pub struct ProofLogger {
    steps: Vec<ProofStep>,
}

impl ProofLogger {
    /// Creates an empty proof.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a clause addition.
    pub fn add(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    /// Records addition of the empty clause (the UNSAT terminator).
    pub fn add_empty(&mut self) {
        self.steps.push(ProofStep::Add(Vec::new()));
    }

    /// Records a clause deletion.
    pub fn delete(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }

    /// The recorded steps in order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Whether the proof ends with the empty clause (claims UNSAT).
    pub fn claims_unsat(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(l) if l.is_empty()))
    }

    /// Writes the proof in textual DRAT format (`d` prefix for deletions,
    /// `0`-terminated clauses).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_drat<W: Write>(&self, mut w: W) -> io::Result<()> {
        for step in &self.steps {
            let (prefix, lits) = match step {
                ProofStep::Add(l) => ("", l),
                ProofStep::Delete(l) => ("d ", l),
            };
            write!(w, "{prefix}")?;
            for l in lits {
                write!(w, "{} ", l.to_dimacs())?;
            }
            writeln!(w, "0")?;
        }
        Ok(())
    }
}

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// Step `index` added a clause that is not a RUP consequence.
    NotRup {
        /// Index into the proof's steps.
        index: usize,
    },
    /// The proof never derives the empty clause.
    NoEmptyClause,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::NotRup { index } => {
                write!(f, "proof step {index} is not a RUP consequence")
            }
            ProofError::NoEmptyClause => write!(f, "proof does not derive the empty clause"),
        }
    }
}

impl std::error::Error for ProofError {}

/// A multiset key for clause deletion lookups: sorted literal codes.
fn clause_key(lits: &[Lit]) -> Vec<u32> {
    let mut key: Vec<u32> = lits.iter().map(|l| l.code()).collect();
    key.sort_unstable();
    key.dedup();
    key
}

/// Forward-checks a DRAT proof of unsatisfiability for `formula`.
///
/// Each added clause must be derivable by reverse unit propagation from the
/// current clause set; deletions remove clauses from consideration.
/// Deletion of an unknown clause is ignored (matching `drat-trim`'s
/// permissive behaviour, since solvers may delete simplified forms of input
/// clauses).
///
/// # Errors
///
/// Returns [`ProofError::NotRup`] for the first invalid step, or
/// [`ProofError::NoEmptyClause`] if the proof never reaches a contradiction.
///
/// # Examples
///
/// ```
/// use sat_solver::{check_proof, Solver};
/// let f = cnf::parse_dimacs_str("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")?;
/// let mut s = Solver::from_cnf(&f);
/// s.enable_proof();
/// assert!(s.solve().is_unsat());
/// let proof = s.take_proof().expect("proof enabled");
/// assert!(check_proof(&f, &proof).is_ok());
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
pub fn check_proof(formula: &Cnf, proof: &ProofLogger) -> Result<(), ProofError> {
    let mut checker = Checker::new(formula, proof);
    for (step_idx, step) in proof.steps().iter().enumerate() {
        match step {
            ProofStep::Add(lits) => {
                if !checker.is_rup(lits) {
                    return Err(ProofError::NotRup { index: step_idx });
                }
                if lits.is_empty() {
                    return Ok(()); // contradiction reached; proof complete
                }
                checker.store_clause(lits);
            }
            ProofStep::Delete(lits) => checker.delete_clause(lits),
        }
    }
    Err(ProofError::NoEmptyClause)
}

const UNDEF: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// An entry of a literal's watch list: `clause` watches that literal, and
/// `blocker` is another of its literals, tested first because a true
/// blocker means the clause is satisfied without reading it.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// The forward checker's clause database and assignment.
struct Checker {
    /// The literals of every stored clause, deduplicated, back to back.
    arena: Vec<Lit>,
    /// `(start, len)` of each stored clause in `arena`. A clause with two
    /// or more literals is watched on its first two.
    clauses: Vec<(usize, usize)>,
    /// Whether each stored clause is still active (not deleted).
    alive: Vec<bool>,
    /// Active stored clauses by [`clause_key`], for deletion lookups.
    index_of: HashMap<Vec<u32>, Vec<usize>>,
    /// The clauses watching each literal, by literal code. Deleted clauses
    /// are dropped when next visited.
    watches: Vec<Vec<Watch>>,
    /// Unit clauses. Deleted ones are dropped when next asserted.
    units: Vec<usize>,
    /// How many active clauses are empty.
    empties: usize,
    /// `TRUE`, `FALSE` or `UNDEF` for each literal, by literal code.
    vals: Vec<i8>,
    /// The literals made true while checking the current lemma.
    trail: Vec<Lit>,
}

impl Checker {
    /// Loads the formula's clauses, with the assignment sized for every
    /// variable the formula or the proof mentions.
    fn new(formula: &Cnf, proof: &ProofLogger) -> Self {
        let proof_lits = proof.steps().iter().flat_map(|step| match step {
            ProofStep::Add(lits) | ProofStep::Delete(lits) => lits.iter(),
        });
        let num_lits = formula
            .clauses()
            .iter()
            .flat_map(|c| c.lits())
            .chain(proof_lits)
            .map(|l| (l.code() | 1) as usize + 1)
            .fold(2 * formula.num_vars() as usize, usize::max);
        let mut checker = Checker {
            arena: Vec::new(),
            clauses: Vec::new(),
            alive: Vec::new(),
            index_of: HashMap::new(),
            watches: vec![Vec::new(); num_lits],
            units: Vec::new(),
            empties: 0,
            vals: vec![UNDEF; num_lits],
            trail: Vec::new(),
        };
        for c in formula.clauses() {
            checker.store_clause(c.lits());
        }
        checker
    }

    /// Stores `lits` as an active clause. A tautology is not stored: every
    /// assignment satisfies it, so it never propagates, and a later deletion
    /// of it is then just an ignored unknown deletion.
    fn store_clause(&mut self, lits: &[Lit]) {
        let key = clause_key(lits);
        // sorted codes put x (even) right before ¬x (odd)
        if key.windows(2).any(|w| w[0] ^ 1 == w[1]) {
            return;
        }
        let start = self.arena.len();
        if key.len() == lits.len() {
            self.arena.extend_from_slice(lits);
        } else {
            for &l in lits {
                if !self.arena[start..].contains(&l) {
                    self.arena.push(l);
                }
            }
        }
        let id = self.clauses.len();
        let len = key.len();
        self.clauses.push((start, len));
        self.alive.push(true);
        self.index_of.entry(key).or_default().push(id);
        match len {
            0 => self.empties += 1,
            1 => self.units.push(id),
            _ => {
                let (a, b) = (self.arena[start], self.arena[start + 1]);
                let clause = u32::try_from(id).expect("fewer than 2^32 clauses");
                self.watches[a.code() as usize].push(Watch { clause, blocker: b });
                self.watches[b.code() as usize].push(Watch { clause, blocker: a });
            }
        }
    }

    /// Deletes one active copy of `lits`; an unknown clause is ignored.
    fn delete_clause(&mut self, lits: &[Lit]) {
        let Some(id) = self.index_of.get_mut(&clause_key(lits)).and_then(Vec::pop) else {
            return;
        };
        self.alive[id] = false;
        if self.clauses[id].1 == 0 {
            self.empties -= 1;
        }
    }

    /// Checks that `lemma` follows from the active clauses by unit
    /// propagation after asserting the negation of each of its literals.
    fn is_rup(&mut self, lemma: &[Lit]) -> bool {
        if self.empties > 0 {
            return true;
        }
        let conflict = lemma.iter().any(|&l| !self.set_true(!l))
            || self.assign_units()
            || self.unit_propagate();
        self.undo_lemma();
        conflict
    }

    /// Makes `lit` true; returns `false` if it is already false.
    fn set_true(&mut self, lit: Lit) -> bool {
        match self.vals[lit.code() as usize] {
            FALSE => false,
            TRUE => true,
            _ => {
                self.vals[lit.code() as usize] = TRUE;
                self.vals[(!lit).code() as usize] = FALSE;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Asserts every active unit clause; returns whether one is falsified.
    fn assign_units(&mut self) -> bool {
        let alive = &self.alive;
        self.units.retain(|&id| alive[id]);
        for i in 0..self.units.len() {
            let lit = self.arena[self.clauses[self.units[i]].0];
            if !self.set_true(lit) {
                return true;
            }
        }
        false
    }

    /// Unit-propagates the trail over the watch lists; returns whether a
    /// clause became falsified.
    fn unit_propagate(&mut self) -> bool {
        let mut head = 0;
        while head < self.trail.len() {
            let false_lit = !self.trail[head];
            head += 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code() as usize]);
            let conflict = self.visit_watches(false_lit, &mut ws);
            self.watches[false_lit.code() as usize] = ws;
            if conflict {
                return true;
            }
        }
        false
    }

    /// Visits the clauses watching `false_lit`, which just became false.
    /// Each moves its watch to a non-false literal if it has one; otherwise
    /// its other watch is asserted, or the clause is falsified and the visit
    /// stops with `true`.
    fn visit_watches(&mut self, false_lit: Lit, ws: &mut Vec<Watch>) -> bool {
        let mut kept = 0;
        let mut i = 0;
        let mut conflict = false;
        while i < ws.len() {
            let w = ws[i];
            i += 1;
            let id = w.clause as usize;
            if !self.alive[id] {
                continue;
            }
            if self.vals[w.blocker.code() as usize] == TRUE {
                ws[kept] = w;
                kept += 1;
                continue;
            }
            let (start, len) = self.clauses[id];
            let clause = &mut self.arena[start..start + len];
            if clause[0] == false_lit {
                clause.swap(0, 1);
            }
            let other = clause[0];
            let other_val = self.vals[other.code() as usize];
            let keep = Watch {
                clause: w.clause,
                blocker: other,
            };
            if other_val != TRUE {
                if let Some(k) = (2..len).find(|&k| self.vals[clause[k].code() as usize] != FALSE) {
                    clause.swap(1, k);
                    self.watches[clause[1].code() as usize].push(keep);
                    continue;
                }
            }
            ws[kept] = keep;
            kept += 1;
            if other_val == FALSE {
                conflict = true;
                break;
            }
            if other_val == UNDEF {
                self.set_true(other);
            }
        }
        ws.copy_within(i.., kept);
        kept += ws.len() - i;
        ws.truncate(kept);
        conflict
    }

    /// Undoes every assignment made for the current lemma.
    fn undo_lemma(&mut self) {
        for lit in self.trail.drain(..) {
            self.vals[lit.code() as usize] = UNDEF;
            self.vals[(!lit).code() as usize] = UNDEF;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(ds: &[i32]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    fn cnf_of(clauses: &[&[i32]]) -> Cnf {
        let mut f = Cnf::new(0);
        for c in clauses {
            f.add_dimacs(c);
        }
        f
    }

    #[test]
    fn valid_manual_proof() {
        // (1 2)(1 -2)(-1 2)(-1 -2): derive (1), then empty.
        let f = cnf_of(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]);
        let mut p = ProofLogger::new();
        p.add(&lits(&[1]));
        p.add_empty();
        assert_eq!(check_proof(&f, &p), Ok(()));
    }

    #[test]
    fn bogus_lemma_rejected() {
        let f = cnf_of(&[&[1, 2]]);
        let mut p = ProofLogger::new();
        p.add(&lits(&[1])); // (1) is not RUP from (1 2)
        assert_eq!(check_proof(&f, &p), Err(ProofError::NotRup { index: 0 }));
    }

    #[test]
    fn missing_empty_clause_rejected() {
        let f = cnf_of(&[&[1], &[-1, 2]]);
        let mut p = ProofLogger::new();
        p.add(&lits(&[2])); // valid RUP but no contradiction
        assert_eq!(check_proof(&f, &p), Err(ProofError::NoEmptyClause));
    }

    #[test]
    fn deletion_weakens_the_database() {
        // With (1) deleted, lemma (2) is no longer RUP.
        let f = cnf_of(&[&[1], &[-1, 2]]);
        let mut p = ProofLogger::new();
        p.delete(&lits(&[1]));
        p.add(&lits(&[2]));
        assert_eq!(check_proof(&f, &p), Err(ProofError::NotRup { index: 1 }));
    }

    #[test]
    fn deleting_unknown_clause_is_ignored() {
        let f = cnf_of(&[&[1], &[-1]]);
        let mut p = ProofLogger::new();
        p.delete(&lits(&[5, 6]));
        p.add_empty();
        assert_eq!(check_proof(&f, &p), Ok(()));
    }

    #[test]
    fn tautological_negation_is_trivially_rup() {
        // lemma (1 -1): asserting ¬lemma assigns both 1:=false and 1:=true.
        let f = cnf_of(&[&[2]]);
        let mut p = ProofLogger::new();
        p.add(&lits(&[1, -1]));
        p.add(&lits(&[2, 3]));
        assert_eq!(check_proof(&f, &p), Err(ProofError::NoEmptyClause));
    }

    #[test]
    fn duplicate_literals_still_propagate() {
        // Regression: (x3 ∨ x3) must behave as the unit clause x3 during
        // RUP checking; duplicate occurrences were once double-counted.
        let f = cnf_of(&[&[3, 3], &[-3]]);
        let mut p = ProofLogger::new();
        p.add_empty();
        assert_eq!(check_proof(&f, &p), Ok(()));
    }

    #[test]
    fn variables_beyond_the_formula_are_checked() {
        // Only the lemmas over x10 (beyond num_vars = 2) justify (1) once
        // the input clauses that imply it are deleted.
        let f = cnf_of(&[&[1, 2], &[1, -2], &[-1]]);
        assert_eq!(f.num_vars(), 2);
        let mut p = ProofLogger::new();
        p.add(&lits(&[10, 1]));
        p.add(&lits(&[-10, 1]));
        p.delete(&lits(&[1, 2]));
        p.delete(&lits(&[1, -2]));
        p.delete(&lits(&[11, 12])); // unknown, and beyond every other step
        p.add(&lits(&[1]));
        p.add_empty();
        assert_eq!(check_proof(&f, &p), Ok(()));

        let mut p = ProofLogger::new();
        p.add(&lits(&[10, 1]));
        p.delete(&lits(&[1, 2]));
        p.delete(&lits(&[1, -2]));
        p.add(&lits(&[1]));
        assert_eq!(check_proof(&f, &p), Err(ProofError::NotRup { index: 3 }));
    }

    #[test]
    fn empty_input_clause_makes_every_lemma_rup() {
        let f = cnf_of(&[&[1, 2], &[]]);
        let mut p = ProofLogger::new();
        p.add(&lits(&[-1]));
        p.add(&lits(&[5, 6]));
        p.add_empty();
        assert_eq!(check_proof(&f, &p), Ok(()));
        // The proof must still derive the empty clause itself.
        assert_eq!(
            check_proof(&f, &ProofLogger::new()),
            Err(ProofError::NoEmptyClause)
        );
        // Deleting the empty clause takes its power away.
        let mut p = ProofLogger::new();
        p.delete(&[]);
        p.add(&lits(&[-1]));
        assert_eq!(check_proof(&f, &p), Err(ProofError::NotRup { index: 1 }));
    }

    #[test]
    fn deleted_input_unit_no_longer_propagates() {
        let f = cnf_of(&[&[1], &[-1, 2], &[-2, 3]]);
        let mut p = ProofLogger::new();
        p.add(&lits(&[3])); // RUP through the unit (1)
        p.delete(&lits(&[1]));
        p.add(&lits(&[2]));
        assert_eq!(check_proof(&f, &p), Err(ProofError::NotRup { index: 2 }));
    }

    #[test]
    fn tautological_input_clause_never_propagates() {
        // Read as (2) under ¬1, the tautology would make (1) RUP.
        let f = cnf_of(&[&[1, -1, 2], &[-2]]);
        for lemma in [[1], [-1]] {
            let mut p = ProofLogger::new();
            p.add(&lits(&lemma));
            assert_eq!(check_proof(&f, &p), Err(ProofError::NotRup { index: 0 }));
        }
        let mut p = ProofLogger::new();
        p.add_empty();
        assert_eq!(check_proof(&f, &p), Err(ProofError::NotRup { index: 0 }));
    }

    #[test]
    fn clause_added_twice_survives_one_deletion() {
        let f = cnf_of(&[&[1, 2], &[1, -2], &[-1, 3], &[-1, -3]]);
        let proof = |deletions: usize| {
            let mut p = ProofLogger::new();
            p.add(&lits(&[1]));
            p.add(&lits(&[1]));
            p.delete(&lits(&[1, 2]));
            p.delete(&lits(&[1, -2]));
            for _ in 0..deletions {
                p.delete(&lits(&[1]));
            }
            p.add(&lits(&[3])); // needs a live copy of (1)
            p.add(&lits(&[-3]));
            p.add_empty();
            p
        };
        assert_eq!(check_proof(&f, &proof(1)), Ok(()));
        assert_eq!(
            check_proof(&f, &proof(2)),
            Err(ProofError::NotRup { index: 6 })
        );
    }

    #[test]
    fn drat_text_format() {
        let mut p = ProofLogger::new();
        p.add(&lits(&[1, -2]));
        p.delete(&lits(&[3]));
        p.add_empty();
        let mut out = Vec::new();
        p.write_drat(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "1 -2 0\nd 3 0\n0\n");
        assert!(p.claims_unsat());
    }
}
