//! Property tests for graph encodings and CSR sparse algebra.

use cnf::{Cnf, Lit};
use proptest::prelude::*;
use sat_graph::{BipartiteGraph, CsrMatrix, LiteralClauseGraph};

fn arb_cnf() -> impl Strategy<Value = Cnf> {
    let lit = (1i32..=12).prop_flat_map(|v| prop_oneof![Just(v), Just(-v)]);
    let clause = proptest::collection::vec(lit, 1..5);
    proptest::collection::vec(clause, 1..25).prop_map(|clauses| {
        let mut f = Cnf::new(12);
        for c in clauses {
            f.add_clause(c.iter().copied().map(Lit::from_dimacs).collect());
        }
        f
    })
}

fn arb_csr(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix> {
    proptest::collection::vec(
        (0..rows as u32, 0..cols as u32, -2.0f32..2.0),
        0..rows * cols,
    )
    .prop_map(move |t| CsrMatrix::from_triplets(rows, cols, &t))
}

/// Dense reference of a CSR matrix.
fn densify(m: &CsrMatrix) -> Vec<Vec<f32>> {
    let mut out = vec![vec![0.0; m.cols()]; m.rows()];
    for (r, row) in out.iter_mut().enumerate() {
        for &(c, w) in m.row(r) {
            row[c as usize] += w;
        }
    }
    out
}

/// Random triplets over a few rows and columns, so duplicate `(row, col)`
/// pairs and empty rows are common.
fn arb_triplets() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (1usize..8, 1usize..6).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec((0..rows as u32, 0..cols as u32, -2.0f32..2.0), 0..3 * rows)
            .prop_map(move |t| (rows, cols, t))
    })
}

/// The per-row reference: each row's `(col, weight)` entries in input
/// order.
fn per_row(
    rows: usize,
    entries: impl IntoIterator<Item = (u32, u32, f32)>,
) -> Vec<Vec<(u32, f32)>> {
    let mut out = vec![Vec::new(); rows];
    for (r, c, w) in entries {
        out[r as usize].push((c, w));
    }
    out
}

fn rows_of(m: &CsrMatrix) -> Vec<Vec<(u32, f32)>> {
    (0..m.rows()).map(|r| m.row(r).to_vec()).collect()
}

proptest! {
    /// Counting-sort construction keeps every row's entries in triplet
    /// order, exactly as pushing them into per-row lists would.
    #[test]
    fn from_triplets_matches_per_row_reference((rows, cols, t) in arb_triplets()) {
        let m = CsrMatrix::from_triplets(rows, cols, &t);
        prop_assert_eq!((m.rows(), m.cols(), m.nnz()), (rows, cols, t.len()));
        prop_assert_eq!(rows_of(&m), per_row(rows, t.iter().copied()));
    }

    /// The transpose lists each column's entries in ascending source-row
    /// order, as re-bucketing row-major triplets by column would.
    #[test]
    fn transpose_matches_per_row_reference((rows, cols, t) in arb_triplets()) {
        let m = CsrMatrix::from_triplets(rows, cols, &t);
        let mt = m.transpose();
        let swapped = (0..rows).flat_map(|r| m.row(r).iter().map(move |&(c, w)| (c, r as u32, w)));
        prop_assert_eq!((mt.rows(), mt.cols(), mt.nnz()), (cols, rows, t.len()));
        prop_assert_eq!(rows_of(&mt), per_row(cols, swapped));
    }

    #[test]
    fn csr_matmul_matches_dense_reference(m in arb_csr(5, 4), x in proptest::collection::vec(-2.0f32..2.0, 4 * 3)) {
        let y = m.matmul_dense(&x, 3);
        let dense = densify(&m);
        for r in 0..5 {
            for c in 0..3 {
                let expected: f32 = (0..4).map(|k| dense[r][k] * x[k * 3 + c]).sum();
                prop_assert!((y[r * 3 + c] - expected).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn csr_transpose_is_involution(m in arb_csr(6, 5)) {
        // double transpose preserves the dense content
        prop_assert_eq!(densify(&m.transpose().transpose()), densify(&m));
    }

    #[test]
    fn bipartite_edge_count_bounds(f in arb_cnf()) {
        let g = BipartiteGraph::from_cnf(&f);
        prop_assert!(g.num_edges() <= f.num_lits());
        prop_assert_eq!(g.num_nodes(), f.num_vars() as usize + f.num_clauses());
        // transposes agree
        prop_assert_eq!(densify(&g.var_to_clause.transpose()), densify(&g.clause_to_var));
    }

    #[test]
    fn bipartite_signs_match_polarity(f in arb_cnf()) {
        let g = BipartiteGraph::from_cnf(&f);
        for (j, clause) in f.clauses().iter().enumerate() {
            for &l in clause.lits() {
                let row = g.var_to_clause.row(l.var().index() as usize);
                let expected = if l.is_negated() { -1.0 } else { 1.0 };
                prop_assert!(
                    row.iter().any(|&(c, w)| c as usize == j && w == expected),
                    "missing edge for {l} in clause {j}"
                );
            }
        }
    }

    #[test]
    fn row_normalized_rows_have_unit_l1(m in arb_csr(6, 6)) {
        let n = m.row_normalized();
        for r in 0..6 {
            let raw = m.row(r);
            if raw.is_empty() {
                continue;
            }
            // every entry was divided by the row's entry count
            for (a, b) in raw.iter().zip(n.row(r)) {
                prop_assert!((b.1 * raw.len() as f32 - a.1).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn literal_graph_has_twice_the_literal_nodes(f in arb_cnf()) {
        let g = LiteralClauseGraph::from_cnf(&f);
        prop_assert_eq!(g.num_nodes(), 2 * f.num_vars() as usize + f.num_clauses());
        // every literal edge references a valid clause
        for code in 0..2 * f.num_vars() as usize {
            for &(c, w) in g.lit_to_clause.row(code) {
                prop_assert!((c as usize) < f.num_clauses());
                prop_assert_eq!(w, 1.0);
            }
        }
    }
}
