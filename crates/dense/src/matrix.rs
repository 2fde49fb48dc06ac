//! Row-major dense matrix of `f64` values.
//!
//! This is the dense substrate underlying every activation, weight, and
//! gradient matrix in the paper (`H`, `W`, `Z`, `G`, `Y` of Table I).
//! Storage is a single contiguous row-major buffer, which is the layout
//! assumed by the blocked GEMM in [`crate::gemm`] and by the block
//! extraction/scatter routines used by the distributed partitioners.

use std::borrow::Borrow;
use std::fmt;

/// A dense row-major matrix of `f64`.
///
/// ```
/// use cagnet_dense::{matmul_with, Mat};
/// use cagnet_parallel::ParallelCtx;
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let i = Mat::eye(2);
/// assert_eq!(matmul_with(ParallelCtx::serial(), &a, &i), a);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a matrix of zeros with the given dimensions.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build a matrix from a row-major data buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Build a matrix from nested row slices (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Mat::from_vec(r, c, data)
    }

    /// Build an `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix by evaluating `f(row, col)` at each position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat::from_vec(rows, cols, data)
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of stored elements (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Elements the backing allocation can hold without growing — what a
    /// buffer pool keys on when it hands this matrix out for reuse.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Reshape to `rows x cols` of zeros, reusing the allocation when it
    /// is large enough. This is how a kept accumulator is re-armed: the
    /// result is indistinguishable from [`Mat::zeros`].
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.clear_for(rows * cols);
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Empty the buffer and make room for `len` elements — in one exact
    /// allocation when it has to grow, so a destination filled piecewise
    /// never goes through amortized doubling.
    fn clear_for(&mut self, len: usize) {
        self.data.clear();
        self.data.reserve_exact(len);
    }

    /// Overwrite with `rows x cols` values taken from `values` in
    /// row-major order, reusing the allocation — how a payload that
    /// arrives as bytes is decoded into a kept buffer.
    ///
    /// # Panics
    /// If `values` does not yield exactly `rows * cols` values.
    pub fn assign(&mut self, rows: usize, cols: usize, values: impl Iterator<Item = f64>) {
        self.clear_for(rows * cols);
        self.data.extend(values);
        assert_eq!(
            self.data.len(),
            rows * cols,
            "assign: value count differs from the {rows}x{cols} shape"
        );
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrite with a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &Mat) {
        self.clear_for(src.data.len());
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
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

    /// Out-of-place transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(0, 0);
        self.transpose_into(&mut t);
        t
    }

    /// [`Mat::transpose`] written over `out`, reusing its allocation.
    pub fn transpose_into(&self, out: &mut Mat) {
        out.reset(self.cols, self.rows);
        // Block the transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
    }

    /// Extract the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.block_into(r0, r1, c0, c1, &mut out);
        out
    }

    /// [`Mat::block`] written over `out`, reusing its allocation.
    pub fn block_into(&self, r0: usize, r1: usize, c0: usize, c1: usize, out: &mut Mat) {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        out.clear_for((r1 - r0) * (c1 - c0));
        for i in r0..r1 {
            out.data
                .extend_from_slice(&self.data[i * self.cols + c0..i * self.cols + c1]);
        }
        out.rows = r1 - r0;
        out.cols = c1 - c0;
    }

    /// Extract the given rows (in order) into a new matrix.
    pub fn select_rows(&self, rows: &[usize]) -> Mat {
        let mut out = Mat::zeros(0, 0);
        self.select_rows_into(rows.iter().copied(), &mut out);
        out
    }

    /// [`Mat::select_rows`] written over `out`, reusing its allocation.
    pub fn select_rows_into(&self, rows: impl ExactSizeIterator<Item = usize>, out: &mut Mat) {
        out.rows = rows.len();
        out.cols = self.cols;
        out.clear_for(out.rows * out.cols);
        for i in rows {
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Write `src` into the sub-matrix starting at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Mat) {
        assert!(r0 + src.rows <= self.rows, "row overflow in set_block");
        assert!(c0 + src.cols <= self.cols, "col overflow in set_block");
        for i in 0..src.rows {
            let dst_off = (r0 + i) * self.cols + c0;
            self.data[dst_off..dst_off + src.cols].copy_from_slice(src.row(i));
        }
    }

    /// Stack matrices vertically (all must share a column count). Parts
    /// are borrowed — owned matrices and shared handles both work — so
    /// gathered `Arc<Mat>` blocks stack without being cloned first.
    pub fn vstack<M: Borrow<Mat>>(parts: &[M]) -> Mat {
        let mut out = Mat::zeros(0, 0);
        Mat::vstack_into(parts, &mut out);
        out
    }

    /// [`Mat::vstack`] written over `out`, reusing its allocation.
    pub fn vstack_into<M: Borrow<Mat>>(parts: &[M], out: &mut Mat) {
        assert!(!parts.is_empty(), "vstack of zero parts");
        out.cols = parts[0].borrow().cols;
        out.rows = parts.iter().map(|p| p.borrow().rows).sum();
        out.clear_for(out.rows * out.cols);
        for p in parts {
            let p = p.borrow();
            assert_eq!(p.cols, out.cols, "vstack column mismatch");
            out.data.extend_from_slice(&p.data);
        }
    }

    /// Stack matrices horizontally (all must share a row count); parts
    /// are borrowed as in [`Mat::vstack`].
    pub fn hstack<M: Borrow<Mat>>(parts: &[M]) -> Mat {
        let mut out = Mat::zeros(0, 0);
        Mat::hstack_into(parts, &mut out);
        out
    }

    /// [`Mat::hstack`] written over `out`, reusing its allocation.
    pub fn hstack_into<M: Borrow<Mat>>(parts: &[M], out: &mut Mat) {
        assert!(!parts.is_empty(), "hstack of zero parts");
        out.rows = parts[0].borrow().rows;
        out.cols = 0;
        for p in parts {
            let p = p.borrow();
            assert_eq!(p.rows, out.rows, "hstack row mismatch");
            out.cols += p.cols;
        }
        out.clear_for(out.rows * out.cols);
        for i in 0..out.rows {
            for p in parts {
                out.data.extend_from_slice(p.borrow().row(i));
            }
        }
    }

    /// Apply `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        let mut out = Mat::zeros(0, 0);
        out.map_from(self, f);
        out
    }

    /// Overwrite with `f` applied elementwise to `src`, reusing the
    /// allocation ([`Mat::map`] into a kept destination).
    pub fn map_from(&mut self, src: &Mat, f: impl Fn(f64) -> f64) {
        self.clear_for(src.data.len());
        self.data.extend(src.data.iter().map(|&x| f(x)));
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute difference between two matrices of equal shape.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when every pairwise difference is at most `tol`.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn eye_diagonal() {
        let m = Mat::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(5, 7, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_correct_entries() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(0, 1)], 4.0);
        assert_eq!(t[(2, 0)], 3.0);
    }

    #[test]
    fn transpose_into_reuses_a_dirty_buffer_bit_for_bit() {
        // Shapes across the 32-wide cache blocks, and the empty edges;
        // signed zeros and NaN payloads must move as bits.
        let mut out = Mat::filled(40, 40, f64::NAN);
        for (rows, cols) in [(0, 5), (5, 0), (0, 0), (1, 1), (33, 7), (7, 65)] {
            let m = Mat::from_fn(rows, cols, |i, j| match (i + j) % 3 {
                0 => -0.0,
                1 => f64::from_bits(0x7ff8_0000_0000_0000 | (i * cols + j) as u64),
                _ => (i as f64) - 0.5 * j as f64,
            });
            m.transpose_into(&mut out);
            assert_eq!(out.shape(), (cols, rows));
            let want = Mat::from_fn(cols, rows, |j, i| m[(i, j)]);
            let bits = |x: &Mat| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "{rows}x{cols}");
            assert_eq!(bits(&m.transpose()), bits(&want), "{rows}x{cols}");
        }
    }

    #[test]
    fn block_extraction() {
        let m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = m.block(1, 3, 2, 4);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b[(0, 0)], 6.0);
        assert_eq!(b[(1, 1)], 11.0);
    }

    #[test]
    fn set_block_roundtrip() {
        let src = Mat::from_fn(6, 6, |i, j| (i * 6 + j) as f64);
        let mut dst = Mat::zeros(6, 6);
        for (r0, r1) in [(0usize, 3usize), (3, 6)] {
            for (c0, c1) in [(0usize, 2usize), (2, 6)] {
                let b = src.block(r0, r1, c0, c1);
                dst.set_block(r0, c0, &b);
            }
        }
        assert_eq!(dst, src);
    }

    #[test]
    fn vstack_hstack() {
        let a = Mat::filled(2, 3, 1.0);
        let b = Mat::filled(1, 3, 2.0);
        let v = Mat::vstack(&[a.clone(), b]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v[(2, 0)], 2.0);

        let c = Mat::filled(2, 2, 3.0);
        let h = Mat::hstack(&[a, c]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(0, 4)], 3.0);
    }

    #[test]
    fn select_rows_orders() {
        let m = Mat::from_fn(4, 2, |i, _| i as f64);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s[(0, 0)], 3.0);
        assert_eq!(s[(1, 0)], 1.0);
    }

    #[test]
    fn map_and_norms() {
        let m = Mat::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.frobenius(), 5.0);
        let n = m.map(|x| x * 2.0);
        assert_eq!(n[(0, 1)], 8.0);
        assert_eq!(m.max_abs_diff(&n), 4.0);
        assert!(!m.approx_eq(&n, 1.0));
        assert!(m.approx_eq(&n, 4.0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_len_panics() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn block_out_of_bounds_panics() {
        let m = Mat::zeros(2, 2);
        let _ = m.block(0, 3, 0, 1);
    }
}
