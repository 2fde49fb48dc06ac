//! Block partitioning of matrices onto 1D / 2D / 3D process geometries.
//!
//! Every trainer lays its blocks out on the balanced block distribution
//! of [`block_ranges`] (Tables III–V of the paper): uneven dimensions
//! give the first `n mod P` parts one extra row/column. The 2D helpers
//! here cut and reassemble `pr x pc` grid blocks; the 3D trainer slices
//! its own blocks from the same ranges.

use crate::csr::Csr;
use cagnet_dense::Mat;

/// Balanced 1D block ranges: splits `0..n` into `p` contiguous ranges whose
/// sizes differ by at most one (first `n % p` ranges get the extra item).
pub fn block_ranges(n: usize, p: usize) -> Vec<(usize, usize)> {
    assert!(p > 0, "cannot partition into zero parts");
    let base = n / p;
    let extra = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// The range owned by part `i` of `p` (convenience for `block_ranges`).
pub fn block_range(n: usize, p: usize, i: usize) -> (usize, usize) {
    assert!(i < p, "part index out of range");
    let base = n / p;
    let extra = n % p;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    (start, start + len)
}

/// 2D block of a sparse matrix for grid position `(i, j)` on a `pr x pc`
/// grid.
pub fn grid_block_sparse(a: &Csr, pr: usize, pc: usize, i: usize, j: usize) -> Csr {
    let (r0, r1) = block_range(a.rows(), pr, i);
    let (c0, c1) = block_range(a.cols(), pc, j);
    a.block(r0, r1, c0, c1)
}

/// 2D block of a dense matrix for grid position `(i, j)` on a `pr x pc`
/// grid.
pub fn grid_block_dense(h: &Mat, pr: usize, pc: usize, i: usize, j: usize) -> Mat {
    let (r0, r1) = block_range(h.rows(), pr, i);
    let (c0, c1) = block_range(h.cols(), pc, j);
    h.block(r0, r1, c0, c1)
}

/// Reassemble a full dense matrix from its `pr x pc` grid blocks (row-major
/// block order: `blocks[i * pc + j]`).
pub fn join_grid_dense(blocks: &[Mat], pr: usize, pc: usize) -> Mat {
    assert_eq!(blocks.len(), pr * pc, "block count mismatch");
    let rows: Vec<Mat> = (0..pr)
        .map(|i| Mat::hstack(&blocks[i * pc..(i + 1) * pc]))
        .collect();
    Mat::vstack(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::erdos_renyi;

    #[test]
    fn ranges_cover_and_balance() {
        for &(n, p) in &[(10usize, 3usize), (7, 7), (5, 8), (100, 6), (0, 4)] {
            let ranges = block_ranges(n, p);
            assert_eq!(ranges.len(), p);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[p - 1].1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges not contiguous");
            }
            let sizes: Vec<usize> = ranges.iter().map(|&(a, b)| b - a).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            assert!(max - min <= 1, "imbalanced: {sizes:?}");
        }
    }

    #[test]
    fn block_range_matches_block_ranges() {
        for &(n, p) in &[(13usize, 4usize), (9, 2), (6, 6)] {
            let all = block_ranges(n, p);
            for (i, expected) in all.iter().enumerate() {
                assert_eq!(block_range(n, p, i), *expected);
            }
        }
    }

    #[test]
    fn dense_grid_split_reassembles() {
        let h = Mat::from_fn(11, 7, |i, j| (i * 7 + j) as f64);
        let (pr, pc) = (3, 2);
        let blocks: Vec<Mat> = (0..pr)
            .flat_map(|i| (0..pc).map(move |j| (i, j)))
            .map(|(i, j)| grid_block_dense(&h, pr, pc, i, j))
            .collect();
        assert!(join_grid_dense(&blocks, pr, pc).approx_eq(&h, 0.0));
    }

    #[test]
    fn sparse_grid_blocks_conserve_nnz() {
        let a = erdos_renyi(40, 5.0, 3);
        let (pr, pc) = (4, 4);
        let total: usize = (0..pr)
            .flat_map(|i| (0..pc).map(move |j| (i, j)))
            .map(|(i, j)| grid_block_sparse(&a, pr, pc, i, j).nnz())
            .sum();
        assert_eq!(total, a.nnz());
    }
}
