//! A dense, row-major `f64` matrix with the kernels the rest of the
//! workspace needs: multiplication, transpose, element-wise maps, row and
//! column access, and a handful of constructors.
//!
//! The compute-heavy entry points ([`Matrix::matmul`],
//! [`Matrix::matmul_transpose`], [`Matrix::transpose_matmul`],
//! [`Matrix::matvec`], [`Matrix::transpose_matvec`], [`Matrix::transpose`])
//! delegate to the cache-blocked, register-tiled kernels in
//! [`crate::kernel`]; the naive reference loops they replaced are retained
//! there (`kernel::naive_*`) for regression tests and benchmarks.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Create an identity matrix of size `n x n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build a matrix from a slice of rows.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Build a matrix by evaluating `f(row, col)` for every cell.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// A 1 x n row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// An n x 1 column vector.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
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

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Matrix transpose, cache-tiled: both the read and the write stream
    /// touch at most a `32 x 32` tile (8 KiB each) per pass instead of
    /// striding the whole matrix, which is what made the plain double
    /// loop (`kernel::naive_transpose`) an O(n²)-cache-miss hot spot in
    /// PCA and LSTM backward. The output is a pure permutation of the
    /// input — value-identical to the naive loop. Wraps
    /// [`Matrix::transpose_into`] with a fresh buffer.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Matrix multiplication `self * other` via the blocked GEMM kernel
    /// ([`crate::kernel::matmul`]); bitwise identical to the retained
    /// naive `i-k-j` loop for finite inputs.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        crate::kernel::matmul(self, other)
    }

    /// `self * other^T` without materializing the transpose
    /// ([`crate::kernel::matmul_transpose`]) — the dense-layer forward
    /// shape `x · Wᵀ`.
    ///
    /// # Panics
    /// Panics unless `self.cols() == other.cols()`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        crate::kernel::matmul_transpose(self, other)
    }

    /// `self^T * other` without materializing the transpose
    /// ([`crate::kernel::transpose_matmul`]) — the backprop shape
    /// `dzᵀ · x` and the covariance shape `DᵀD`.
    ///
    /// # Panics
    /// Panics unless `self.rows() == other.rows()`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        crate::kernel::transpose_matmul(self, other)
    }

    /// Multiply by a vector: `self * v`, returning a vector of length `rows`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        crate::kernel::matvec(self, v)
    }

    /// `self^T * v` without materializing the transpose.
    pub fn transpose_matvec(&self, v: &[f64]) -> Vec<f64> {
        crate::kernel::transpose_matvec(self, v)
    }

    /// [`Matrix::transpose`] into a caller-reused buffer: the one body of
    /// the cache-tiled permutation, no fresh allocation once `out` has
    /// grown to the steady-state shape. Every output cell is written, so the
    /// unspecified contents left by [`Matrix::reset`] never leak through.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TILE: usize = 32;
        out.reset(self.cols, self.rows);
        for ib in (0..self.rows).step_by(TILE) {
            let i_end = (ib + TILE).min(self.rows);
            for jb in (0..self.cols).step_by(TILE) {
                let j_end = (jb + TILE).min(self.cols);
                for i in ib..i_end {
                    let row = &self.data[i * self.cols..(i + 1) * self.cols];
                    for (j, &v) in row.iter().enumerate().take(j_end).skip(jb) {
                        out.data[j * self.rows + i] = v;
                    }
                }
            }
        }
    }

    /// Copy another matrix into this one, reusing the allocation
    /// (`reset` + one `copy_from_slice`) — the workspace-staging
    /// replacement for `x.clone()` in the training hot loops.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.reset(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect(),
        }
    }

    /// Scale every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// `self += other * s` (axpy), used by the optimizers.
    pub fn add_scaled(&mut self, other: &Matrix, s: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Outer product of two vectors: `a * b^T` giving `a.len() x b.len()`.
    pub fn outer(a: &[f64], b: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(a.len(), b.len());
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            let row = m.row_mut(i);
            for (r, &bj) in row.iter_mut().zip(b) {
                *r = ai * bj;
            }
        }
        m
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute value of any element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Reshape in place to `rows x cols`, reusing the existing allocation
    /// (growing it once if needed). Cell contents are unspecified after
    /// the call — every consumer must overwrite them, as the data-plane
    /// gather paths do with one `copy_from_slice` per row.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Copy the given rows into a caller-reused buffer: one
    /// `copy_from_slice` per selected row, no fresh allocation once `out`
    /// has grown to the steady-state batch shape.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.reset(indices.len(), self.cols);
        for (k, &i) in indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
    }

    /// Return a sub-matrix consisting of the given columns (copied).
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for &j in indices {
                data.push(row[j]);
            }
        }
        Matrix { rows: self.rows, cols: indices.len(), data }
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix — the placeholder shape of workspace
    /// buffers before their first `reset`.
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect(),
        }
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(i, j)])?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i), m);
        assert_eq!(i.matmul(&m), m);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = vec![1.0, 0.5, -1.0];
        let out = a.matvec(&v);
        let as_mat = a.matmul(&Matrix::col_vector(&v));
        assert_eq!(out, as_mat.col(0));
    }

    #[test]
    fn transpose_matvec_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = vec![1.0, -1.0, 2.0];
        assert_eq!(a.transpose_matvec(&v), a.transpose().matvec(&v));
    }

    #[test]
    fn matmul_transpose_variants_match_explicit_transpose() {
        let a = Matrix::from_fn(5, 7, |i, j| ((i * 7 + j) as f64 * 0.13).sin());
        let b = Matrix::from_fn(6, 7, |i, j| ((i + j * 3) as f64 * 0.21).cos());
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
        let c = Matrix::from_fn(5, 4, |i, j| ((i * 2 + j) as f64 * 0.17).sin());
        assert_eq!(a.transpose_matmul(&c), a.transpose().matmul(&c));
    }

    #[test]
    fn transpose_roundtrip_large_non_square() {
        // Exercises the tiled path with ragged edge tiles.
        let a = Matrix::from_fn(67, 41, |i, j| (i * 100 + j) as f64);
        let t = a.transpose();
        assert_eq!(t.shape(), (41, 67));
        assert_eq!(t[(40, 66)], a[(66, 40)]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn outer_product() {
        let m = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(a.hadamard(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_sub_ops() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Matrix::from_vec(3, 3, (1..=9).map(|x| x as f64).collect());
        let mut r = Matrix::default();
        a.select_rows_into(&[2, 0], &mut r);
        assert_eq!(r.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(r.row(1), &[1.0, 2.0, 3.0]);
        let c = a.select_cols(&[1]);
        assert_eq!(c.col(0), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    fn select_rows_into_matches_row_by_row_copy() {
        let a = Matrix::from_vec(4, 3, (1..=12).map(|x| x as f64).collect());
        let mut out = Matrix::zeros(0, 0);
        for indices in [vec![1, 3, 0], vec![2], vec![], vec![0, 0, 3]] {
            a.select_rows_into(&indices, &mut out);
            let want: Vec<f64> = indices.iter().flat_map(|&i| a.row(i).to_vec()).collect();
            assert_eq!(out.shape(), (indices.len(), 3));
            assert_eq!(out.as_slice(), &want[..]);
        }
    }

    #[test]
    fn reset_reshapes_and_reuses() {
        let mut m = Matrix::zeros(4, 5);
        m.reset(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.as_slice().len(), 6);
        m.reset(6, 2);
        assert_eq!(m.shape(), (6, 2));
        assert_eq!(m.as_slice().len(), 12);
    }

    #[test]
    fn sum_and_max_abs() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn from_rows_ragged_panics() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let result = std::panic::catch_unwind(|| Matrix::from_rows(&rows));
        assert!(result.is_err());
    }

    #[test]
    fn from_fn_builds_expected() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }
}
