//! Compressed Sparse Row matrix.
//!
//! CSR is the computation format for the adjacency matrix `A` throughout
//! the project, matching the paper's use of cuSPARSE's CSR `csrmm2` for its
//! local SpMM calls (§V-C). Column indices within each row are kept sorted,
//! which makes equality, transpose, and sub-block extraction deterministic.

use crate::coo::Coo;
use cagnet_dense::Mat;

/// Compressed Sparse Row matrix of `f64`.
///
/// ```
/// use cagnet_sparse::{Coo, Csr};
/// let a = Csr::from_coo(Coo::from_entries(2, 3, vec![(0, 1, 5.0), (1, 2, 7.0)]));
/// assert_eq!(a.nnz(), 2);
/// assert_eq!(a.get(0, 1), 5.0);
/// assert_eq!(a.transpose().get(1, 0), 5.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Build from COO; duplicates are summed.
    pub fn from_coo(mut coo: Coo) -> Self {
        coo.sum_duplicates();
        let rows = coo.rows();
        let cols = coo.cols();
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in coo.entries() {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = coo.nnz();
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        // Entries are already row-major sorted by sum_duplicates.
        for &(_, c, v) in coo.entries() {
            col_idx.push(c);
            vals.push(v);
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Build directly from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, non-monotone
    /// `row_ptr`, unsorted or out-of-range column indices).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), vals.len(), "col/val length mismatch");
        assert_eq!(row_ptr.last().copied(), Some(col_idx.len()), "nnz mismatch");
        for i in 0..rows {
            assert!(row_ptr[i] <= row_ptr[i + 1], "row_ptr not monotone");
            let s = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in s.windows(2) {
                assert!(w[0] < w[1], "columns not strictly increasing in row {i}");
            }
            if let Some(&last) = s.last() {
                assert!(last < cols, "column index {last} out of bounds");
            }
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Empty matrix (no nonzeros) with the given dimensions.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// `n x n` identity.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
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

    /// Number of stored nonzeros — the paper's `nnz(A)`.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Average nonzeros per row — the paper's average degree `d = nnz/n`.
    pub fn avg_degree(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// Row-pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, row-major, sorted within each row.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Nonzero values, parallel to `col_idx`.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Iterate over the `(col, value)` pairs of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.vals[lo..hi].iter().copied())
    }

    /// Number of nonzeros in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Number of rows that contain at least one nonzero. The paper's §IV-A.3
    /// sparsity analysis is about exactly this count on 1D partitions of an
    /// Erdős–Rényi graph.
    pub fn non_empty_rows(&self) -> usize {
        (0..self.rows).filter(|&i| self.row_nnz(i) > 0).count()
    }

    /// Sorted distinct column indices that carry at least one nonzero —
    /// exactly the feature rows a rank multiplying this block needs from
    /// the owner of the corresponding row partition. This is the
    /// needed-row set of sparsity-aware communication (Mukhopadhyay et
    /// al.): a receiver holding `Aᵀ_{ij}` touches only these rows of
    /// `H_j`, so only they need to travel.
    pub fn needed_cols(&self) -> Vec<usize> {
        let mut seen = vec![false; self.cols];
        for &c in &self.col_idx {
            seen[c] = true;
        }
        seen.iter()
            .enumerate()
            .filter_map(|(c, &s)| s.then_some(c))
            .collect()
    }

    /// [`needed_cols`](Csr::needed_cols) of the sub-block
    /// `rows r0..r1 × cols c0..c1` without materializing it: the sorted
    /// distinct column indices (relative to `c0`) carrying a nonzero in
    /// that window. The 2D/3D trainers call this once per SUMMA stage at
    /// setup to derive the needed-row set of each stage panel.
    pub fn needed_cols_in(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Vec<usize> {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        let mut seen = vec![false; c1 - c0];
        for i in r0..r1 {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let cols_row = &self.col_idx[lo..hi];
            let start = cols_row.partition_point(|&c| c < c0);
            let end = cols_row.partition_point(|&c| c < c1);
            for &c in &cols_row[start..end] {
                seen[c - c0] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter_map(|(c, &s)| s.then_some(c))
            .collect()
    }

    /// Renumber column indices to their positions in `needed` (sorted
    /// distinct, a superset of [`needed_cols`](Csr::needed_cols)); the
    /// result has `needed.len()` columns and identical pattern/values.
    /// Multiplying the compact matrix against a matrix holding only the
    /// `needed` rows (in order) is bit-identical to multiplying the
    /// original against the full-height operand: the remap is monotone,
    /// so every row's accumulation order is unchanged.
    ///
    /// # Panics
    /// Panics if a stored column index is absent from `needed`.
    pub fn compact_cols(&self, needed: &[usize]) -> Csr {
        debug_assert!(needed.windows(2).all(|w| w[0] < w[1]), "needed not sorted");
        let col_idx = self
            .col_idx
            .iter()
            .map(|&c| match needed.binary_search(&c) {
                Ok(pos) => pos,
                Err(_) => panic!("column {c} not in the needed set"),
            })
            .collect();
        Csr {
            rows: self.rows,
            cols: needed.len(),
            row_ptr: self.row_ptr.clone(),
            col_idx,
            vals: self.vals.clone(),
        }
    }

    /// Value at `(i, j)` (0 if not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(pos) => self.vals[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Out-of-place transpose (CSR of `Aᵀ`), via counting sort — O(nnz + n).
    ///
    /// Distributed trainers use this to derive the `A`-blocks from stored
    /// `Aᵀ`-blocks and vice versa; the paper charges this under "trpose" in
    /// its Figure 3 breakdown.
    pub fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut cursor = row_ptr.clone();
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let dst = cursor[c];
                col_idx[dst] = r;
                vals[dst] = v;
                cursor[c] += 1;
            }
        }
        // Rows of the transpose are visited in increasing source-row order,
        // so each output row's columns are already sorted.
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Extract the sub-matrix of rows `r0..r1` and columns `c0..c1`,
    /// reindexed to local coordinates. This is the primitive behind every
    /// 1D/2D/3D distribution of `A`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Csr {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        let mut row_ptr = Vec::with_capacity(r1 - r0 + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for i in r0..r1 {
            let lo = self.row_ptr[i];
            let hi = self.row_ptr[i + 1];
            let cols_row = &self.col_idx[lo..hi];
            // Binary search the column window once per row.
            let start = cols_row.partition_point(|&c| c < c0);
            let end = cols_row.partition_point(|&c| c < c1);
            for k in lo + start..lo + end {
                col_idx.push(self.col_idx[k] - c0);
                vals.push(self.vals[k]);
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows: r1 - r0,
            cols: c1 - c0,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Densify into a [`Mat`] — test/debug helper; O(rows·cols) memory.
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (c, v) in self.row_entries(i) {
                m[(i, c)] = v;
            }
        }
        m
    }

    /// Convert back to COO triplets.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for i in 0..self.rows {
            for (c, v) in self.row_entries(i) {
                coo.push(i, c, v);
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::from_coo(Coo::from_entries(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        ))
    }

    #[test]
    fn from_coo_layout() {
        let a = sample();
        assert_eq!(a.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(a.col_idx(), &[0, 2, 0, 1]);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let a = Csr::from_coo(Coo::from_entries(2, 2, vec![(0, 0, 1.0), (0, 0, 4.0)]));
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 0), 5.0);
    }

    #[test]
    fn transpose_matches_dense() {
        let a = sample();
        let t = a.transpose();
        assert!(t.to_dense().approx_eq(&a.to_dense().transpose(), 0.0));
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn block_extraction_matches_dense() {
        let a = sample();
        let b = a.block(0, 2, 1, 3);
        let expect = a.to_dense().block(0, 2, 1, 3);
        assert!(b.to_dense().approx_eq(&expect, 0.0));
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 2);
    }

    #[test]
    fn blocks_reassemble_to_whole() {
        let a = sample();
        let mut total = 0;
        for (r0, r1) in [(0usize, 2usize), (2, 3)] {
            for (c0, c1) in [(0usize, 1usize), (1, 3)] {
                total += a.block(r0, r1, c0, c1).nnz();
            }
        }
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn identity_and_empty() {
        let i = Csr::identity(4);
        assert_eq!(i.nnz(), 4);
        assert!(i.to_dense().approx_eq(&Mat::eye(4), 0.0));
        let e = Csr::empty(3, 5);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.non_empty_rows(), 0);
    }

    #[test]
    fn degree_statistics() {
        let a = sample();
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.row_nnz(1), 0);
        assert_eq!(a.non_empty_rows(), 2);
        assert!((a.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn needed_cols_is_sorted_distinct() {
        let a = sample();
        // Columns 0 (rows 0, 2), 1 (row 2), 2 (row 0); never column 3+.
        assert_eq!(a.needed_cols(), vec![0, 1, 2]);
        // A block sees only its local column window.
        assert_eq!(a.block(0, 3, 1, 3).needed_cols(), vec![0, 1]);
        assert_eq!(Csr::empty(4, 5).needed_cols(), Vec::<usize>::new());
        // Duplicate columns across rows are reported once and sorted.
        let b = Csr::from_coo(Coo::from_entries(
            3,
            4,
            vec![(0, 3, 1.0), (1, 3, 1.0), (2, 0, 1.0)],
        ));
        assert_eq!(b.needed_cols(), vec![0, 3]);
    }

    #[test]
    fn needed_cols_in_matches_block_needed_cols() {
        let a = sample();
        for (r0, r1) in [(0usize, 3usize), (0, 2), (1, 3), (2, 2)] {
            for (c0, c1) in [(0usize, 3usize), (1, 3), (0, 1), (2, 2)] {
                assert_eq!(
                    a.needed_cols_in(r0, r1, c0, c1),
                    a.block(r0, r1, c0, c1).needed_cols(),
                    "window r{r0}..{r1} c{c0}..{c1}"
                );
            }
        }
    }

    #[test]
    fn compact_cols_is_monotone_renumbering() {
        let a = Csr::from_coo(Coo::from_entries(
            2,
            6,
            vec![(0, 1, 1.0), (0, 5, 2.0), (1, 3, 3.0), (1, 5, 4.0)],
        ));
        let needed = a.needed_cols();
        assert_eq!(needed, vec![1, 3, 5]);
        let c = a.compact_cols(&needed);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.row_ptr(), a.row_ptr());
        assert_eq!(c.vals(), a.vals());
        assert_eq!(c.col_idx(), &[0, 2, 1, 2]);
        // A strict superset is allowed; positions shift accordingly.
        let s = a.compact_cols(&[0, 1, 3, 5]);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.col_idx(), &[1, 3, 2, 3]);
        // The empty pattern compacts against an empty needed set.
        let e = Csr::empty(3, 4).compact_cols(&[]);
        assert_eq!(e.cols(), 0);
        assert_eq!(e.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "not in the needed set")]
    fn compact_cols_rejects_missing_column() {
        let a = sample();
        let _ = a.compact_cols(&[0, 2]); // column 1 is referenced by row 2
    }

    #[test]
    #[should_panic(expected = "columns not strictly increasing")]
    fn from_raw_rejects_unsorted() {
        let _ = Csr::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr not monotone")]
    fn from_raw_rejects_nonmonotone() {
        let _ = Csr::from_raw(3, 2, vec![0, 2, 1, 2], vec![0, 1], vec![1.0, 1.0]);
    }
}
