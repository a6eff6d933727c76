//! The answer oracle: something much smaller than the solver that checks
//! every verdict. SAT models are checked clause by clause against the
//! original formula; UNSAT verdicts against the status the family has by
//! construction (and, where a proof was asked for, by the proof checker).

use crate::inputs::Status;
use cnf::Cnf;
use sat_solver::SolveResult;

/// A checked, non-wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checked {
    /// A correct SAT or UNSAT verdict.
    Correct,
    /// No verdict (budget or deadline): a failed request, not a wrong one.
    Unknown,
}

/// Checks a verdict for `formula` against its known `status`.
///
/// # Errors
///
/// Returns a description of the wrong answer: a model that falsifies a
/// clause, or a verdict contradicting the family's status.
pub fn check(formula: &Cnf, status: Status, result: &SolveResult) -> Result<Checked, String> {
    match result {
        SolveResult::Unknown => Ok(Checked::Unknown),
        SolveResult::Sat(model) => {
            if status == Status::Unsat {
                return Err("SAT verdict on an UNSAT-by-construction formula".into());
            }
            check_model(formula, model)?;
            Ok(Checked::Correct)
        }
        SolveResult::Unsat => {
            if status == Status::Sat {
                return Err("UNSAT verdict on a SAT-by-construction formula".into());
            }
            Ok(Checked::Correct)
        }
    }
}

/// Checks that `model` satisfies every clause of `formula`.
///
/// # Errors
///
/// Names the first falsified clause.
pub fn check_model(formula: &Cnf, model: &[bool]) -> Result<(), String> {
    cnf::verify_model(formula, model).map_err(|i| format!("model falsifies clause {i}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn formula() -> Cnf {
        cnf::parse_dimacs_str("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n").unwrap()
    }

    #[test]
    fn a_flipped_model_literal_is_caught() {
        let f = formula();
        let model = vec![true, false, true];
        let good = SolveResult::Sat(model.clone());
        assert_eq!(check(&f, Status::Sat, &good), Ok(Checked::Correct));
        for i in 0..model.len() {
            let mut flipped = model.clone();
            flipped[i] = !flipped[i];
            let bad = SolveResult::Sat(flipped);
            assert!(check(&f, Status::Sat, &bad).is_err(), "flip of x{}", i + 1);
        }
    }

    #[test]
    fn a_false_unsat_status_is_caught() {
        let f = formula();
        assert!(check(&f, Status::Sat, &SolveResult::Unsat).is_err());
        assert_eq!(
            check(&f, Status::Unsat, &SolveResult::Unsat),
            Ok(Checked::Correct)
        );
        let model = SolveResult::Sat(vec![true, false, true]);
        assert!(check(&f, Status::Unsat, &model).is_err());
    }

    #[test]
    fn unknown_is_a_failure_not_a_wrong_answer() {
        let f = formula();
        assert_eq!(
            check(&f, Status::Unsat, &SolveResult::Unknown),
            Ok(Checked::Unknown)
        );
    }
}
