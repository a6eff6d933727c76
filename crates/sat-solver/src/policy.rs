//! Clause-deletion policies (Section 3 of the paper).
//!
//! When the learned-clause database is reduced, every *reducible* learned
//! clause is assigned a 64-bit score and the lowest-scoring half is deleted.
//! [`PolicyKind`] names the paper's two policies and computes their scores:
//!
//! * [`PolicyKind::Default`] — Kissat's default: glue (LBD) is the primary
//!   key and size the secondary key, both negated so that *lower* glue/size
//!   yield *higher* scores (Figure 5, top).
//! * [`PolicyKind::PropFreq`] — the paper's new policy: the clause's
//!   *propagation frequency* `c.frequency = Σ_{v∈c} [f_v > α·f_max]`
//!   (Equation 2) becomes the primary key, with negated glue and size as
//!   tie-breakers (Figure 5, bottom).
//!
//! The exact bit widths in the paper's Figure 5 are illegible in print; this
//! implementation uses `frequency(20) | ~glue(20) | ~size(24)` for the new
//! policy and `~glue(32) | ~size(32)` for the default, which preserves the
//! published key ordering.

use crate::FrequencyTable;
use cnf::Lit;
use std::fmt;

const GLUE32_MASK: u64 = 0xFFFF_FFFF;
const SIZE32_MASK: u64 = 0xFFFF_FFFF;
const FREQ20_MAX: u64 = (1 << 20) - 1;
const GLUE20_MASK: u64 = (1 << 20) - 1;
const SIZE24_MASK: u64 = (1 << 24) - 1;

/// The paper's hotness threshold α = 4/5 (Equation 2).
const PAPER_ALPHA: f64 = 0.8;

/// One of the paper's two clause-deletion policies.
///
/// This is the type the NeuroSelect classifier outputs: label `0` is the
/// default policy, label `1` the propagation-frequency policy.
///
/// # Examples
///
/// ```
/// use sat_solver::{FrequencyTable, PolicyKind};
/// use cnf::Lit;
/// let freq = FrequencyTable::new(4);
/// let lits: Vec<Lit> = [1, 2].iter().map(|&d| Lit::from_dimacs(d)).collect();
/// let low_glue = PolicyKind::Default.score(&lits, 2, &freq);
/// let high_glue = PolicyKind::Default.score(&lits, 9, &freq);
/// assert!(low_glue > high_glue);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PolicyKind {
    /// Kissat's default `~glue | ~size` scoring.
    #[default]
    Default,
    /// The propagation-frequency-guided scoring with α = 4/5.
    PropFreq,
    /// The propagation-frequency-guided scoring with a custom α, which
    /// belongs in `[0, 1]`: the command line and the record parser reject
    /// any other value.
    PropFreqAlpha(f64),
}

impl PolicyKind {
    /// The 64-bit keep-priority score of one clause (Figure 5): higher
    /// scores are kept, and a reduction deletes the lowest-scoring half of
    /// the reducible clauses. A pure function of its arguments, so
    /// reductions are reproducible.
    ///
    /// Under the propagation-frequency policies a clause containing more
    /// *hot* variables — variables whose propagation count since the last
    /// reduction exceeds `α · f_max` — outranks any glue/size combination
    /// among clauses with fewer hot variables.
    pub fn score(self, lits: &[Lit], glue: u32, freq: &FrequencyTable) -> u64 {
        let alpha = match self {
            PolicyKind::Default => {
                let neg_glue = !u64::from(glue) & GLUE32_MASK;
                let neg_size = !(lits.len() as u64) & SIZE32_MASK;
                return neg_glue << 32 | neg_size;
            }
            PolicyKind::PropFreq => PAPER_ALPHA,
            PolicyKind::PropFreqAlpha(alpha) => alpha,
        };
        // Equation (2): the number of literals whose variable is hot.
        let frequency = lits.iter().filter(|l| freq.is_hot(l.var(), alpha)).count() as u64;
        let neg_glue = !u64::from(glue) & GLUE20_MASK;
        let neg_size = !(lits.len() as u64) & SIZE24_MASK;
        frequency.min(FREQ20_MAX) << 44 | neg_glue << 24 | neg_size
    }

    /// The classifier label encoding used throughout the paper
    /// (`0` = default, `1` = propagation-frequency).
    pub fn label(self) -> u8 {
        match self {
            PolicyKind::Default => 0,
            PolicyKind::PropFreq | PolicyKind::PropFreqAlpha(_) => 1,
        }
    }
}

/// The policy's name in records and experiment output: `"default"`,
/// `"prop-freq"`, or `"prop-freq(α=…)"` for a custom α, which the record
/// parser reads back.
impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Default => f.write_str("default"),
            PolicyKind::PropFreq => f.write_str("prop-freq"),
            PolicyKind::PropFreqAlpha(a) => write!(f, "prop-freq(α={a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::Var;

    fn lits(ds: &[i32]) -> Vec<Lit> {
        ds.iter().map(|&d| Lit::from_dimacs(d)).collect()
    }

    #[test]
    fn default_orders_by_glue_then_size() {
        let freq = FrequencyTable::new(10);
        let short = lits(&[1, 2]);
        let long = lits(&[1, 2, 3, 4]);
        let p = PolicyKind::Default;
        // lower glue beats bigger glue regardless of size
        assert!(p.score(&long, 2, &freq) > p.score(&short, 3, &freq));
        // equal glue: smaller clause wins
        assert!(p.score(&short, 3, &freq) > p.score(&long, 3, &freq));
    }

    #[test]
    fn prop_freq_dominates_glue() {
        let mut freq = FrequencyTable::new(10);
        // make vars 1,2 hot: bump them a lot, var 3 barely
        for _ in 0..100 {
            freq.bump(Var::new(0));
            freq.bump(Var::new(1));
        }
        freq.bump(Var::new(2));
        let p = PolicyKind::PropFreq;
        let hot = lits(&[1, 2]); // both hot
        let cold = lits(&[3, 4]); // none hot
                                  // hot clause with terrible glue still outranks cold clause with glue 2
        assert!(p.score(&hot, 50, &freq) > p.score(&cold, 2, &freq));
    }

    #[test]
    fn prop_freq_ties_break_by_glue_then_size() {
        let freq = FrequencyTable::new(10); // nothing hot
        let p = PolicyKind::PropFreq;
        let short = lits(&[1, 2]);
        let long = lits(&[1, 2, 3]);
        assert!(p.score(&short, 2, &freq) > p.score(&short, 5, &freq));
        assert!(p.score(&short, 5, &freq) > p.score(&long, 5, &freq));
    }

    #[test]
    fn clause_frequency_counts_hot_vars() {
        let mut freq = FrequencyTable::new(4);
        for _ in 0..10 {
            freq.bump(Var::new(0));
        }
        for _ in 0..9 {
            freq.bump(Var::new(1));
        }
        freq.bump(Var::new(2));
        // f_max = 10; hot needs > 8: vars 0 (10) and 1 (9)
        let score = PolicyKind::PropFreqAlpha(0.8).score(&lits(&[1, 2, 3, 4]), 3, &freq);
        assert_eq!(score >> 44, 2);
        assert_eq!(
            score,
            PolicyKind::PropFreq.score(&lits(&[1, 2, 3, 4]), 3, &freq)
        );
    }

    /// The Figure 5 bit layouts, pinned word for word.
    #[test]
    fn scores_match_the_figure_5_layouts() {
        let mut freq = FrequencyTable::new(4);
        for _ in 0..10 {
            freq.bump(Var::new(0));
        }
        let clause = lits(&[1, 2, 3]);
        assert_eq!(
            PolicyKind::Default.score(&clause, 5, &freq),
            0xFFFF_FFFA_FFFF_FFFC
        );
        assert_eq!(
            PolicyKind::PropFreq.score(&clause, 5, &freq),
            0x0000_1FFF_FAFF_FFFC
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(PolicyKind::Default.to_string(), "default");
        assert_eq!(PolicyKind::PropFreq.to_string(), "prop-freq");
        assert_eq!(
            PolicyKind::PropFreqAlpha(0.7).to_string(),
            "prop-freq(α=0.7)"
        );
    }
}
