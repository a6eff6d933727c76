//! Graph representations of CNF formulas (Section 4.2 of the paper).
//!
//! Two encodings are provided:
//!
//! * [`BipartiteGraph`] — the signed variable–clause graph used by
//!   NeuroSelect (adopted from NeuroComb): variable nodes `V1`, clause
//!   nodes `V2`, and an edge of weight `+1`/`-1` for each positive/negative
//!   occurrence. Initial features are `1` for variables and `0` for clauses.
//! * [`LiteralClauseGraph`] — the NeuroSAT-style literal–clause graph with
//!   a node per literal, used by the baseline model.
//!
//! Both expose CSR adjacency so message-passing layers can aggregate in
//! `O(|E|)`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use cnf::Cnf;

/// A sparse matrix in compressed-sparse-row form, used as a constant
/// (non-differentiable) operator inside neural layers.
///
/// # Examples
///
/// ```
/// use sat_graph::CsrMatrix;
/// // 2×3 matrix with entries (0,1)=2.0, (1,0)=-1.0
/// let m = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 0, -1.0)]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.row(0), &[(1, 2.0)][..]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    entries: Vec<(u32, f32)>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, weight)` triplets. Each row
    /// keeps its entries in triplet order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) < rows && (c as usize) < cols,
                "index out of bounds"
            );
        }
        let entries = triplets.iter().map(|&(r, c, w)| (r as usize, (c, w)));
        CsrMatrix::bucket_rows(rows, cols, triplets.len(), entries)
    }

    /// Counting sort of `nnz` `(row, entry)` pairs into CSR form: one pass
    /// counts each row's entries, a prefix sum turns the counts into row
    /// offsets, and a second pass places every entry at its row's cursor,
    /// so entries keep their input order within a row.
    fn bucket_rows<I>(rows: usize, cols: usize, nnz: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (usize, (u32, f32))> + Clone,
    {
        // `for_each` iterates internally, so a `flat_map` source runs as
        // plain nested loops.
        let mut offsets = vec![0usize; rows + 1];
        pairs.clone().for_each(|(r, _)| offsets[r + 1] += 1);
        for r in 0..rows {
            offsets[r + 1] += offsets[r];
        }
        let mut cursor = offsets[..rows].to_vec();
        let mut entries = vec![(0u32, 0.0f32); nnz];
        pairs.for_each(|(r, entry)| {
            entries[cursor[r]] = entry;
            cursor[r] += 1;
        });
        CsrMatrix {
            rows,
            cols,
            offsets,
            entries,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The `(col, weight)` entries of one row.
    pub fn row(&self, r: usize) -> &[(u32, f32)] {
        &self.entries[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Dense `y = self · x` where `x` is row-major `cols × d`;
    /// returns row-major `rows × d`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols * d`.
    pub fn matmul_dense(&self, x: &[f32], d: usize) -> Vec<f32> {
        assert_eq!(x.len(), self.cols * d, "dimension mismatch");
        let mut y = vec![0.0f32; self.rows * d];
        for r in 0..self.rows {
            let out = &mut y[r * d..(r + 1) * d];
            for &(c, w) in self.row(r) {
                let xr = &x[c as usize * d..(c as usize + 1) * d];
                for (o, xi) in out.iter_mut().zip(xr) {
                    *o += w * xi;
                }
            }
        }
        y
    }

    /// Dense `y = selfᵀ · x` where `x` is row-major `rows × d`; returns
    /// row-major `cols × d`, without building the transpose.
    ///
    /// Each row of `x` is scattered through the matching row of `self`, in
    /// ascending row order, so every output row sums its terms in the order
    /// [`transpose`](Self::transpose)`().matmul_dense(x, d)` does, and the
    /// two agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows * d`.
    pub fn transpose_matmul_dense(&self, x: &[f32], d: usize) -> Vec<f32> {
        assert_eq!(x.len(), self.rows * d, "dimension mismatch");
        let mut y = vec![0.0f32; self.cols * d];
        for r in 0..self.rows {
            let xr = &x[r * d..(r + 1) * d];
            for &(c, w) in self.row(r) {
                let out = &mut y[c as usize * d..(c as usize + 1) * d];
                for (o, xi) in out.iter_mut().zip(xr) {
                    *o += w * xi;
                }
            }
        }
        y
    }

    /// The transpose, as a new CSR matrix. Row `c` of the transpose lists
    /// the entries of column `c` in ascending source-row order.
    pub fn transpose(&self) -> CsrMatrix {
        let pairs = (0..self.rows).flat_map(|r| {
            self.row(r)
                .iter()
                .map(move |&(c, w)| (c as usize, (r as u32, w)))
        });
        CsrMatrix::bucket_rows(self.cols, self.rows, self.nnz(), pairs)
    }

    /// A copy with every stored weight replaced by `f(weight)`; the
    /// sparsity pattern and entry order are unchanged.
    pub fn map_weights(&self, f: impl Fn(f32) -> f32) -> CsrMatrix {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            offsets: self.offsets.clone(),
            entries: self.entries.iter().map(|&(c, w)| (c, f(w))).collect(),
        }
    }

    /// Grows the matrix to `rows × cols`: the added rows are empty and no
    /// entry refers to the added columns.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is smaller than the current shape.
    pub fn padded(mut self, rows: usize, cols: usize) -> CsrMatrix {
        assert!(
            rows >= self.rows && cols >= self.cols,
            "padding cannot shrink a matrix"
        );
        self.offsets.resize(rows + 1, self.entries.len());
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Returns a copy with each row scaled by `1 / max(1, row_degree)`
    /// (the mean aggregation of Equation 6).
    pub fn row_normalized(&self) -> CsrMatrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let (start, end) = (self.offsets[r], self.offsets[r + 1]);
            let deg = (end - start).max(1) as f32;
            for e in &mut out.entries[start..end] {
                e.1 /= deg;
            }
        }
        out
    }
}

/// The signed bipartite variable–clause graph of Section 4.2.
///
/// # Examples
///
/// ```
/// use sat_graph::BipartiteGraph;
/// let f = cnf::parse_dimacs_str("p cnf 3 2\n1 -2 0\n2 3 0\n")?;
/// let g = BipartiteGraph::from_cnf(&f);
/// assert_eq!(g.num_vars, 3);
/// assert_eq!(g.num_clauses, 2);
/// assert_eq!(g.num_nodes(), 5);
/// // x2 appears negated in clause 0 and positive in clause 1
/// assert_eq!(g.var_to_clause.row(1), &[(0, -1.0), (1, 1.0)][..]);
/// # Ok::<(), cnf::ParseDimacsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BipartiteGraph {
    /// `|V1|`: number of variable nodes.
    pub num_vars: usize,
    /// `|V2|`: number of clause nodes.
    pub num_clauses: usize,
    /// `|V1| × |V2|` signed incidence: `w(x_i, c_j) = ±1`.
    pub var_to_clause: CsrMatrix,
    /// The transpose of [`var_to_clause`](Self::var_to_clause).
    pub clause_to_var: CsrMatrix,
}

impl BipartiteGraph {
    /// Builds the graph from a formula.
    ///
    /// If a variable occurs both positively and negatively in the same
    /// clause (a tautological clause), both signed edges are kept; repeated
    /// same-sign occurrences collapse to one edge.
    pub fn from_cnf(formula: &Cnf) -> Self {
        let num_vars = formula.num_vars() as usize;
        let num_clauses = formula.num_clauses();
        let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(formula.num_lits());
        for (j, clause) in formula.clauses().iter().enumerate() {
            let mut seen: Vec<(u32, bool)> = Vec::with_capacity(clause.len());
            for &lit in clause.lits() {
                let key = (lit.var().index(), lit.is_negated());
                if !seen.contains(&key) {
                    seen.push(key);
                    triplets.push((
                        lit.var().index(),
                        j as u32,
                        if lit.is_negated() { -1.0 } else { 1.0 },
                    ));
                }
            }
        }
        let var_to_clause = CsrMatrix::from_triplets(num_vars, num_clauses, &triplets);
        let clause_to_var = var_to_clause.transpose();
        BipartiteGraph {
            num_vars,
            num_clauses,
            var_to_clause,
            clause_to_var,
        }
    }

    /// Total node count `|V1| + |V2|` (the paper's 400 000-node cutoff is
    /// measured on this quantity).
    pub fn num_nodes(&self) -> usize {
        self.num_vars + self.num_clauses
    }

    /// Total edge count.
    pub fn num_edges(&self) -> usize {
        self.var_to_clause.nnz()
    }
}

/// The NeuroSAT-style literal–clause graph: one node per literal
/// (positive literal of variable `v` at index `2v`, negative at `2v + 1`)
/// plus one node per clause.
#[derive(Debug, Clone, PartialEq)]
pub struct LiteralClauseGraph {
    /// Number of variables (literal nodes are `2 ×` this).
    pub num_vars: usize,
    /// Number of clause nodes.
    pub num_clauses: usize,
    /// `2|V| × |C|` unsigned incidence of literals in clauses.
    pub lit_to_clause: CsrMatrix,
    /// The transpose of [`lit_to_clause`](Self::lit_to_clause).
    pub clause_to_lit: CsrMatrix,
}

impl LiteralClauseGraph {
    /// Builds the literal–clause graph from a formula.
    pub fn from_cnf(formula: &Cnf) -> Self {
        let num_vars = formula.num_vars() as usize;
        let num_clauses = formula.num_clauses();
        let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(formula.num_lits());
        for (j, clause) in formula.clauses().iter().enumerate() {
            let mut seen: Vec<u32> = Vec::with_capacity(clause.len());
            for &lit in clause.lits() {
                if !seen.contains(&lit.code()) {
                    seen.push(lit.code());
                    triplets.push((lit.code(), j as u32, 1.0));
                }
            }
        }
        let lit_to_clause = CsrMatrix::from_triplets(2 * num_vars, num_clauses, &triplets);
        let clause_to_lit = lit_to_clause.transpose();
        LiteralClauseGraph {
            num_vars,
            num_clauses,
            lit_to_clause,
            clause_to_lit,
        }
    }

    /// Total node count (`2|V| + |C|`).
    pub fn num_nodes(&self) -> usize {
        2 * self.num_vars + self.num_clauses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Cnf {
        cnf::parse_dimacs_str("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap()
    }

    #[test]
    fn csr_matmul_dense() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, -1.0)]);
        // x is 3×2
        let x = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0];
        let y = m.matmul_dense(&x, 2);
        assert_eq!(y, vec![7.0, 70.0, -2.0, -20.0]);
    }

    #[test]
    fn transpose_matmul_matches_the_transpose_bit_for_bit() {
        // Column 1 collects three entries, two from the same row (a
        // tautological clause keeps both signed edges), so the order of
        // the sum matters.
        let m = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 0.1),
                (0, 3, -0.7),
                (1, 1, 0.3),
                (1, 0, 1.5),
                (1, 1, -0.9),
                (2, 2, 0.25),
            ],
        );
        let x = [1e-3, 7.0, -2.5, 0.3, 1e4, -1.1];
        let scattered = m.transpose_matmul_dense(&x, 2);
        let gathered = m.transpose().matmul_dense(&x, 2);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&scattered), bits(&gathered));
        assert_eq!(scattered.len(), 4 * 2);
    }

    #[test]
    fn csr_transpose_roundtrip() {
        let m = CsrMatrix::from_triplets(3, 2, &[(0, 1, 1.5), (2, 0, -0.5), (1, 1, 2.0)]);
        let t = m.transpose();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_normalization_divides_by_degree() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, -1.0)]);
        let n = m.row_normalized();
        assert_eq!(n.row(0), &[(0, 0.5), (1, 0.5)][..]);
        assert_eq!(n.row(1), &[(2, -1.0)][..]);
    }

    #[test]
    fn bipartite_edges_and_signs() {
        let g = BipartiteGraph::from_cnf(&example());
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.var_to_clause.row(0), &[(0, 1.0)][..]);
        assert_eq!(g.var_to_clause.row(1), &[(0, -1.0), (1, 1.0)][..]);
        assert_eq!(g.clause_to_var.row(1), &[(1, 1.0), (2, 1.0)][..]);
    }

    #[test]
    fn duplicate_occurrences_collapse() {
        let f = cnf::parse_dimacs_str("p cnf 2 1\n1 1 -1 2 0\n").unwrap();
        let g = BipartiteGraph::from_cnf(&f);
        // x1 positive (collapsed), x1 negative, x2 positive
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn literal_clause_graph_indices() {
        let g = LiteralClauseGraph::from_cnf(&example());
        assert_eq!(g.num_nodes(), 8);
        // clause 0 = {x1, ¬x2}: literal codes 0 and 3
        assert_eq!(g.clause_to_lit.row(0), &[(0, 1.0), (3, 1.0)][..]);
    }

    #[test]
    fn empty_formula_graphs() {
        let f = Cnf::new(2);
        let g = BipartiteGraph::from_cnf(&f);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 0);
    }
}
