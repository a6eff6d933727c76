//! Dense row-major `f32` matrices — the value type of the autodiff tape and
//! of tape-free inference.

use std::fmt;

/// Output columns per register block of [`Matrix::matmul`]: the model's
/// default hidden width, so one block covers a whole row.
const BLOCK: usize = 32;

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use neuro::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// Each output element is the sum over ascending `k` of
    /// `self[i][k] · other[k][j]`, starting from `0.0` and skipping terms
    /// whose `self[i][k]` is zero.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_rows(other, None)
    }

    /// The affine product `self · w + bias`: [`matmul`](Self::matmul)
    /// with the `1 × cols` row `bias` added to every output row after
    /// the full sum, in the same pass.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `bias` is not
    /// `1 × w.cols()`.
    pub fn matmul_bias(&self, w: &Matrix, bias: &Matrix) -> Matrix {
        assert_eq!(bias.shape(), (1, w.cols), "bias must be 1 × cols");
        self.matmul_rows(w, Some(&bias.data))
    }

    /// The kernel behind [`matmul`](Self::matmul) and
    /// [`matmul_bias`](Self::matmul_bias). Each output row is computed a
    /// block of columns at a time: `BLOCK`-wide blocks, then power-of-two
    /// blocks for the rest of the row. A block's partial sums stay in a
    /// fixed-size local array for the whole `k` loop and are written out
    /// once, instead of loading and storing the output row for every `k`.
    fn matmul_rows(&self, other: &Matrix, bias: Option<&[f32]>) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let n = other.cols;
        let mut out = Matrix::zeros(self.rows, n);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * n..(i + 1) * n];
            let mut j0 = 0;
            while j0 < n {
                j0 += match n - j0 {
                    BLOCK.. => write_block::<BLOCK>(orow, arow, other, bias, j0),
                    16.. => write_block::<16>(orow, arow, other, bias, j0),
                    8.. => write_block::<8>(orow, arow, other, bias, j0),
                    4.. => write_block::<4>(orow, arow, other, bias, j0),
                    2.. => write_block::<2>(orow, arow, other, bias, j0),
                    _ => write_block::<1>(orow, arow, other, bias, j0),
                };
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &other.data[k * other.cols..(k + 1) * other.cols];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..other.rows {
                let brow = &other.data[j * other.cols..(j + 1) * other.cols];
                out.data[i * other.rows + j] = arow.iter().zip(brow).map(|(&a, &b)| a * b).sum();
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    pub(crate) fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Divides the matrix by its Frobenius norm, floored at `1e-12` so the
    /// all-zero matrix stays finite, and returns the divisor.
    pub(crate) fn frob_normalize_in_place(&mut self) -> f32 {
        let norm = self.frob_norm().max(1e-12);
        self.map_in_place(|x| x / norm);
        norm
    }

    /// Divides every row `r` by `clamp_divisor(d[r])`, where `d` is
    /// `rows × 1`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not `rows × 1`.
    pub(crate) fn div_rows(&mut self, d: &Matrix) {
        assert_eq!(d.shape(), (self.rows, 1), "divisor must be n × 1");
        for (r, &dr) in d.data.iter().enumerate() {
            let dr = clamp_divisor(dr);
            for x in &mut self.data[r * self.cols..(r + 1) * self.cols] {
                *x /= dr;
            }
        }
    }

    /// Element-wise combination with another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place element-wise accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Frobenius norm `sqrt(Σ x²)`.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over rows: a `1 × cols` matrix.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        let n = self.rows.max(1) as f32;
        for v in &mut out.data {
            *v /= n;
        }
        out
    }
}

/// Clamps a divisor's magnitude to at least 1e-6, preserving its sign
/// (`0.0` counts as positive).
#[inline]
pub(crate) fn clamp_divisor(d: f32) -> f32 {
    if d.abs() >= 1e-6 {
        d
    } else if d.is_sign_negative() {
        -1e-6
    } else {
        1e-6
    }
}

/// Writes output columns `j0..j0 + W` of one row, `arow · b` (plus
/// `bias`), and returns `W`. Each sum runs over ascending `k` from `0.0`
/// and skips zero `arow[k]`; the bias is added after the full sum.
#[inline(always)]
fn write_block<const W: usize>(
    orow: &mut [f32],
    arow: &[f32],
    b: &Matrix,
    bias: Option<&[f32]>,
    j0: usize,
) -> usize {
    let mut acc = [0.0f32; W];
    for (&a, brow) in arow.iter().zip(b.data.chunks_exact(b.cols)) {
        if a == 0.0 {
            continue;
        }
        let brow: &[f32; W] = brow[j0..j0 + W].try_into().expect("a slice of W columns");
        for (s, &bv) in acc.iter_mut().zip(brow) {
            *s += a * bv;
        }
    }
    let out = &mut orow[j0..j0 + W];
    match bias {
        Some(bias) => {
            for ((o, s), &bv) in out.iter_mut().zip(acc).zip(&bias[j0..]) {
                *o = s + bv;
            }
        }
        None => out.copy_from_slice(&acc),
    }
    W
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_basic() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0]]);
        assert!(approx_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-6));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]);
        assert!(approx_eq(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn frobenius_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mean_rows_averages() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(a.mean_rows(), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(a.zip(&b, |x, y| x + y), Matrix::from_rows(&[&[11.0, 18.0]]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
