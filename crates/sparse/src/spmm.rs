//! Sparse matrix × tall-skinny dense matrix multiplication (SpMM).
//!
//! This is the paper's dominant computational primitive: "the most time
//! consuming operations are the multiplication of a sparse matrix with a
//! dense matrix (SpMM) and dense matrix multiply" (§III-B). The paper uses
//! cuSPARSE `csrmm2`; this module is the from-scratch CPU equivalent, plus
//! a semiring-generic variant realizing the paper's §I note that the
//! algorithms "can be trivially extended to support arbitrary aggregate
//! operations" via an overloadable (⊕, ⊗) pair.

use crate::csr::Csr;
use cagnet_dense::Mat;
use cagnet_parallel::ParallelCtx;
use core::ops::Range;

/// `C = A · B` where `A` is CSR and `B` dense.
///
/// ```
/// use cagnet_dense::Mat;
/// use cagnet_sparse::{spmm, Csr};
/// let a = Csr::identity(3);
/// let b = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
/// assert_eq!(spmm(&a, &b), b);
/// ```
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn spmm(a: &Csr, b: &Mat) -> Mat {
    spmm_with(ParallelCtx::serial(), a, b)
}

/// `C = A · B`, row chunks forked across `ctx`'s thread budget.
///
/// Chunks are balanced by **nonzero count**, not row count — under the
/// power-law degree distributions of real graphs (and the hypersparse
/// blocks of high-`P` 2D partitions) row-balanced chunks can be wildly
/// work-imbalanced. Each chunk still owns a contiguous, disjoint range
/// of output rows processed by the identical serial row loop, so the
/// result is bit-for-bit equal to serial for every thread count.
pub fn spmm_with(ctx: ParallelCtx, a: &Csr, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    spmm_acc_with(ctx, a, b, &mut c);
    c
}

/// `C += A · B` with accumulation — the SUMMA-stage primitive.
pub fn spmm_acc(a: &Csr, b: &Mat, c: &mut Mat) {
    spmm_acc_with(ParallelCtx::serial(), a, b, c);
}

/// `C += A · B`, nnz-balanced row chunks forked across `ctx`.
///
/// The row loop is **width-specialized** (DESIGN.md §14): for the common
/// GCN feature widths the per-row accumulator is a fixed-size register
/// array — the `C` row is loaded once, all of the row's nonzeros
/// accumulate into registers with fully unrolled `f`-wide inner loops,
/// and the row is stored once. Other widths up to 128 stream the row's
/// nonzeros in a single generic-width pass; wider ones
/// take a column-tiled loop that keeps an L1-resident slice of the
/// skinny `B` operand hot across the whole CSR row range. All paths
/// fold each element's products in
/// stored-entry order with a single accumulator, so results are
/// bit-identical to the historical per-nonzero axpy loop (kept in
/// [`crate::reference`] for benchmarking) and to serial at every thread
/// count.
pub fn spmm_acc_with(ctx: ParallelCtx, a: &Csr, b: &Mat, c: &mut Mat) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "spmm: inner dims {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(c.shape(), (a.rows(), b.cols()), "spmm: output shape");
    let f = b.cols();
    if f == 0 {
        return;
    }
    let bv = b.as_slice();
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let vals = a.vals();
    let ranges = nnz_balanced_ranges(row_ptr, spmm_chunks(ctx, a));
    ctx.par_partitions(&ranges, f, c.as_mut_slice(), |rows, panel| {
        // Width dispatch happens per chunk, but every chunk of a given
        // SpMM sees the same `f`, so all chunks run the same kernel.
        match f {
            8 => spmm_rows_fixed::<8>(row_ptr, col_idx, vals, bv, panel, rows),
            16 => spmm_rows_fixed::<16>(row_ptr, col_idx, vals, bv, panel, rows),
            32 => spmm_rows_fixed::<32>(row_ptr, col_idx, vals, bv, panel, rows),
            64 => spmm_rows_fixed::<64>(row_ptr, col_idx, vals, bv, panel, rows),
            128 => spmm_rows_fixed::<128>(row_ptr, col_idx, vals, bv, panel, rows),
            _ if f <= SPMM_BUF_WIDTH => {
                spmm_rows_buffered(row_ptr, col_idx, vals, bv, panel, rows, f)
            }
            _ => spmm_rows_tiled(row_ptr, col_idx, vals, bv, panel, rows, f),
        }
    });
}

/// Width-specialized SpMM over one row chunk: `F` is a compile-time
/// constant, so the accumulator is `[f64; F]` in registers and the inner
/// loops unroll/vectorize with no length checks. The degree-specialized
/// nonzero loop walks four stored entries per step for high-degree rows
/// (four *sequential* accumulator updates — the per-element fold order
/// is exactly stored order, as in the scalar loop) with a short tail for
/// the remainder, so power-law rows and leaf rows both run well.
fn spmm_rows_fixed<const F: usize>(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &[f64],
    bv: &[f64],
    panel: &mut [f64],
    rows: Range<usize>,
) {
    let r0 = rows.start;
    for i in rows {
        let crow = &mut panel[(i - r0) * F..(i - r0 + 1) * F];
        let mut acc = [0.0f64; F];
        acc.copy_from_slice(crow);
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        let mut k = lo;
        while k + 8 <= hi {
            // Eight stored entries per step: the eight B-row gathers are
            // address-independent, so the loads overlap even though the
            // accumulator updates stay sequential (stored-entry order).
            for step in 0..8 {
                let aval = vals[k + step];
                let brow = &bv[col_idx[k + step] * F..col_idx[k + step] * F + F];
                for (cj, &bval) in acc.iter_mut().zip(brow) {
                    *cj += aval * bval;
                }
            }
            k += 8;
        }
        while k + 4 <= hi {
            for step in 0..4 {
                let aval = vals[k + step];
                let brow = &bv[col_idx[k + step] * F..col_idx[k + step] * F + F];
                for (cj, &bval) in acc.iter_mut().zip(brow) {
                    *cj += aval * bval;
                }
            }
            k += 4;
        }
        while k < hi {
            let aval = vals[k];
            let brow = &bv[col_idx[k] * F..col_idx[k] * F + F];
            for (cj, &bval) in acc.iter_mut().zip(brow) {
                *cj += aval * bval;
            }
            k += 1;
        }
        crow.copy_from_slice(&acc);
    }
}

/// Widest generic `f` served by the direct single-pass row loop. Beyond
/// this the active `B` working set outgrows L2 and tiling pays for its
/// repeated nonzero walk.
const SPMM_BUF_WIDTH: usize = 128;

/// Generic-width SpMM for `f ≤ SPMM_BUF_WIDTH` that isn't one of the
/// fixed-width arms: a single pass over the row's nonzeros streaming
/// each neighbor's `B` row against the L1-resident `C` row. With a
/// runtime `f` the accumulator cannot live in a fixed register file, so
/// this is deliberately the same memory scheme as the historical kernel
/// — uncommon widths perform no worse than before, and common widths
/// take the specialized arms above.
fn spmm_rows_buffered(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &[f64],
    bv: &[f64],
    panel: &mut [f64],
    rows: Range<usize>,
    f: usize,
) {
    debug_assert!(f <= SPMM_BUF_WIDTH);
    let r0 = rows.start;
    for i in rows {
        let crow = &mut panel[(i - r0) * f..(i - r0 + 1) * f];
        for k in row_ptr[i]..row_ptr[i + 1] {
            let aval = vals[k];
            let brow = &bv[col_idx[k] * f..(col_idx[k] + 1) * f];
            for (cj, &bval) in crow.iter_mut().zip(brow) {
                *cj += aval * bval;
            }
        }
    }
}

/// Column width of the tiled generic-`f` SpMM path: 64 f64 = 512 bytes
/// per touched `B` row, so a tile of a few hundred distinct neighbor
/// rows stays L1/L2-resident across the chunk.
const SPMM_COL_TILE: usize = 64;

/// Wide-`f` SpMM over one row chunk, column-tiled: each pass covers
/// `SPMM_COL_TILE` columns of `B`/`C` for the whole row range, so the
/// active slice of the skinny dense operand stays cache-resident even
/// when `f` is large. The CSR structure is re-walked per tile (index
/// arrays are small and stay hot); each output element still folds its
/// products in stored-entry order.
#[allow(clippy::too_many_arguments)]
fn spmm_rows_tiled(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &[f64],
    bv: &[f64],
    panel: &mut [f64],
    rows: Range<usize>,
    f: usize,
) {
    let r0 = rows.start;
    for jt in (0..f).step_by(SPMM_COL_TILE) {
        let tw = SPMM_COL_TILE.min(f - jt);
        for i in rows.clone() {
            let crow = &mut panel[(i - r0) * f + jt..(i - r0) * f + jt + tw];
            for k in row_ptr[i]..row_ptr[i + 1] {
                let aval = vals[k];
                let brow = &bv[col_idx[k] * f + jt..col_idx[k] * f + jt + tw];
                for (cj, &bval) in crow.iter_mut().zip(brow) {
                    *cj += aval * bval;
                }
            }
        }
    }
}

/// How many chunks an SpMM over `a` should fork into: one per thread,
/// but never so many that a chunk holds trivial work.
fn spmm_chunks(ctx: ParallelCtx, a: &Csr) -> usize {
    /// Minimum stored entries per forked chunk.
    const MIN_NNZ_PER_CHUNK: usize = 2048;
    let by_work = (a.nnz() / MIN_NNZ_PER_CHUNK).max(1);
    ctx.threads().min(a.rows().max(1)).min(by_work)
}

/// Split CSR rows into `chunks` contiguous ranges with approximately
/// equal nonzero counts. Pure function of `(row_ptr, chunks)`: boundary
/// `c` sits at the first row whose prefix nnz reaches `total·c/chunks`,
/// clamped so every chunk keeps at least one row.
fn nnz_balanced_ranges(row_ptr: &[usize], chunks: usize) -> Vec<Range<usize>> {
    let rows = row_ptr.len() - 1;
    let total = row_ptr[rows];
    let chunks = chunks.clamp(1, rows.max(1));
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for c in 0..chunks {
        let end = if c + 1 == chunks {
            rows
        } else {
            let target = total * (c + 1) / chunks;
            let cut = row_ptr.partition_point(|&p| p < target).saturating_sub(1);
            // Keep at least one row here and one for each later chunk.
            cut.clamp(start + 1, rows - (chunks - 1 - c))
        };
        out.push(start..end);
        start = end;
    }
    out
}

/// A semiring over `f64`: an additive monoid (`add`, `zero`) and a
/// multiplicative operation. `spmm` over the standard `(+, ×, 0)` semiring
/// recovers ordinary SpMM; `(min, +, ∞)` gives shortest-path relaxation,
/// `(max, ×, 0)` a max-pooling aggregation, etc.
///
/// `Sync` is a supertrait so semirings can be shared by the forked row
/// chunks of [`spmm_semiring_acc_with`]; semirings are stateless
/// operation tables, so this costs implementors nothing.
pub trait Semiring: Sync {
    /// Additive identity of the aggregation.
    fn zero(&self) -> f64;
    /// The aggregation ⊕.
    fn add(&self, a: f64, b: f64) -> f64;
    /// The combination ⊗.
    fn mul(&self, a: f64, b: f64) -> f64;
}

/// The standard arithmetic `(+, ×, 0)` semiring.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusTimes;

impl Semiring for PlusTimes {
    fn zero(&self) -> f64 {
        0.0
    }
    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }
}

/// The tropical `(min, +, +∞)` semiring.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinPlus;

impl Semiring for MinPlus {
    fn zero(&self) -> f64 {
        f64::INFINITY
    }
    fn add(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
    fn mul(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// The `(max, ×, 0)` semiring — max-aggregation over weighted neighbors
/// (assumes non-negative values, as in normalized adjacency matrices).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxTimes;

impl Semiring for MaxTimes {
    fn zero(&self) -> f64 {
        0.0
    }
    fn add(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }
    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }
}

/// SpMM over an arbitrary semiring: `C[i,j] = ⊕_k A[i,k] ⊗ B[k,j]`, where
/// the ⊕ ranges over the *stored* entries of row `i` (implicit zeros do
/// not participate, matching GraphBLAS semantics).
pub fn spmm_semiring<S: Semiring>(a: &Csr, b: &Mat, s: &S) -> Mat {
    let mut c = Mat::filled(a.rows(), b.cols(), s.zero());
    spmm_semiring_acc(a, b, s, &mut c);
    c
}

/// `C ⊕= A ⊗ B` over a semiring — the accumulating form used by block
/// algorithms (the distributed stages of `cagnet_core::propagate`). `c`
/// must have been initialized with `s.zero()` (or hold a previous
/// partial).
pub fn spmm_semiring_acc<S: Semiring>(a: &Csr, b: &Mat, s: &S, c: &mut Mat) {
    spmm_semiring_acc_with(ParallelCtx::serial(), a, b, s, c);
}

/// `C ⊕= A ⊗ B` over a semiring, nnz-balanced row chunks forked across
/// `ctx`. Disjoint output rows keep the ⊕ fold order per element
/// independent of the thread count, so non-associative-under-rounding
/// aggregations still produce serial-identical bits.
pub fn spmm_semiring_acc_with<S: Semiring>(ctx: ParallelCtx, a: &Csr, b: &Mat, s: &S, c: &mut Mat) {
    assert_eq!(a.cols(), b.rows(), "spmm_semiring: inner dims");
    assert_eq!(
        c.shape(),
        (a.rows(), b.cols()),
        "spmm_semiring: output shape"
    );
    let f = b.cols();
    if f == 0 {
        return;
    }
    let bv = b.as_slice();
    let ranges = nnz_balanced_ranges(a.row_ptr(), spmm_chunks(ctx, a));
    ctx.par_partitions(&ranges, f, c.as_mut_slice(), |rows, panel| {
        let r0 = rows.start;
        for i in rows {
            let crow = &mut panel[(i - r0) * f..(i - r0 + 1) * f];
            for (col, aval) in a.row_entries(i) {
                let brow = &bv[col * f..(col + 1) * f];
                for (cj, &bval) in crow.iter_mut().zip(brow) {
                    *cj = s.add(*cj, s.mul(aval, bval));
                }
            }
        }
    });
}

/// Sparse × dense outer-product style product used by the 1D backward pass:
/// `C = A(:, c0..c1) · B` where the caller holds only a *column block* of
/// `A` stored as the CSR of its transpose (`At_block`, shaped
/// `block_cols x n_rows_of_A`), and `B` has `block_cols` rows. The result is
/// the full-height `n x f` low-rank contribution that is then
/// reduce-scattered (paper §IV-A.3).
pub fn outer_product_from_transposed(at_block: &Csr, b: &Mat) -> Mat {
    let mut c = Mat::zeros(at_block.cols(), b.cols());
    outer_product_from_transposed_into(at_block, b, &mut c);
    c
}

/// [`outer_product_from_transposed`] accumulated onto a caller-kept
/// `n x f` destination: `C += A(:, c0..c1) · B`. Hand it zeros (a re-armed
/// accumulator, [`Mat::reset`]) for the plain product — every element
/// then folds the same products in the same order as a fresh result.
pub fn outer_product_from_transposed_into(at_block: &Csr, b: &Mat, c: &mut Mat) {
    assert_eq!(at_block.rows(), b.rows(), "outer product: inner dims");
    let f = b.cols();
    assert_eq!(
        c.shape(),
        (at_block.cols(), f),
        "outer product: output shape"
    );
    let cv = c.as_mut_slice();
    let bv = b.as_slice();
    for k in 0..at_block.rows() {
        let brow = &bv[k * f..(k + 1) * f];
        for (dst_row, aval) in at_block.row_entries(k) {
            let crow = &mut cv[dst_row * f..(dst_row + 1) * f];
            for (cj, &bval) in crow.iter_mut().zip(brow) {
                *cj += aval * bval;
            }
        }
    }
}

/// Flop count of `spmm` on this operand pair (2 flops per stored
/// multiply-add).
pub fn spmm_flops(a: &Csr, dense_cols: usize) -> u64 {
    2 * a.nnz() as u64 * dense_cols as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample_csr() -> Csr {
        Csr::from_coo(Coo::from_entries(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, -1.0),
                (2, 0, 0.5),
                (2, 2, 4.0),
            ],
        ))
    }

    fn sample_dense() -> Mat {
        Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64 - 4.0)
    }

    #[test]
    fn spmm_matches_densified_gemm() {
        let a = sample_csr();
        let b = sample_dense();
        let sparse = spmm(&a, &b);
        let dense = cagnet_dense::matmul(&a.to_dense(), &b);
        assert!(sparse.approx_eq(&dense, 1e-12));
    }

    #[test]
    fn spmm_acc_accumulates() {
        let a = sample_csr();
        let b = sample_dense();
        let mut c = spmm(&a, &b);
        spmm_acc(&a, &b, &mut c);
        let doubled = spmm(&a, &b).map(|x| 2.0 * x);
        assert!(c.approx_eq(&doubled, 1e-12));
    }

    #[test]
    fn empty_rows_produce_zero_rows() {
        let a = Csr::empty(3, 3);
        let b = Mat::filled(3, 2, 7.0);
        let c = spmm(&a, &b);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn plus_times_semiring_matches_plain_spmm() {
        let a = sample_csr();
        let b = sample_dense();
        let plain = spmm(&a, &b);
        let semi = spmm_semiring(&a, &b, &PlusTimes);
        assert!(plain.approx_eq(&semi, 1e-12));
    }

    #[test]
    fn min_plus_semiring_relaxation() {
        // One-step min-plus relaxation from a distance vector.
        let a = Csr::from_coo(Coo::from_entries(2, 2, vec![(0, 1, 1.0), (1, 0, 2.0)]));
        let d = Mat::from_rows(&[&[0.0], &[10.0]]);
        let r = spmm_semiring(&a, &d, &MinPlus);
        // r[0] = min over stored entries: a[0][1] + d[1] = 11
        // r[1] = a[1][0] + d[0] = 2
        assert_eq!(r[(0, 0)], 11.0);
        assert_eq!(r[(1, 0)], 2.0);
    }

    #[test]
    fn max_times_picks_largest_contribution() {
        let a = Csr::from_coo(Coo::from_entries(
            1,
            3,
            vec![(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
        ));
        let b = Mat::from_rows(&[&[3.0], &[9.0], &[5.0]]);
        let r = spmm_semiring(&a, &b, &MaxTimes);
        assert_eq!(r[(0, 0)], 9.0);
    }

    #[test]
    fn outer_product_matches_dense() {
        // A is 4x3; we hold the column block A(:, 1..3) as CSR of its
        // transpose, shaped 2x4.
        let a_full = Csr::from_coo(Coo::from_entries(
            4,
            3,
            vec![
                (0, 1, 1.0),
                (1, 2, 2.0),
                (2, 1, 3.0),
                (3, 0, 4.0),
                (3, 2, 5.0),
            ],
        ));
        let at = a_full.transpose(); // 3x4
        let at_block = at.block(1, 3, 0, 4); // rows 1..3 of Aᵀ = cols 1..3 of A
        let b = Mat::from_fn(2, 2, |i, j| (i + j) as f64 + 1.0);
        let got = outer_product_from_transposed(&at_block, &b);
        let a_cols = a_full.to_dense().block(0, 4, 1, 3);
        let expect = cagnet_dense::matmul(&a_cols, &b);
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn flops_counting() {
        let a = sample_csr();
        assert_eq!(spmm_flops(&a, 3), 2 * 5 * 3);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn spmm_dim_mismatch_panics() {
        let _ = spmm(&sample_csr(), &Mat::zeros(3, 2));
    }

    #[test]
    fn nnz_ranges_tile_rows_exactly() {
        // Skewed nnz: row 0 holds almost everything, plus empty rows.
        let row_ptr = vec![0usize, 90, 90, 95, 95, 100];
        for chunks in 1..=5 {
            let ranges = nnz_balanced_ranges(&row_ptr, chunks);
            assert_eq!(ranges.len(), chunks);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, 5);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        // Empty matrix.
        assert_eq!(nnz_balanced_ranges(&[0], 3), vec![0..0]);
    }

    #[test]
    fn specialized_kernels_match_reference_bits() {
        // Every dispatch arm — the fixed-width register kernels, and the
        // column-tiled generic path on either side of the tile width —
        // must be bit-identical to the historical scalar loop: same
        // stored-entry fold order per output element.
        let a = crate::generate::erdos_renyi(300, 6.0, 91);
        for f in [1usize, 3, 8, 16, 32, 63, 64, 65, 128, 130] {
            let b = Mat::from_fn(300, f, |i, j| {
                ((i * 37 + j * 101) % 17) as f64 * 0.125 - 1.0
            });
            let fast = spmm(&a, &b);
            let slow = crate::reference::spmm_reference(&a, &b);
            assert_eq!(fast, slow, "f={f} diverged from the reference kernel");
        }
    }

    #[test]
    fn parallel_spmm_is_bit_identical_to_serial() {
        let a = crate::generate::erdos_renyi(200, 5.0, 17);
        let b = Mat::from_fn(200, 7, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let serial = spmm(&a, &b);
        for threads in [2usize, 3, 4, 8] {
            let got = spmm_with(ParallelCtx::new(threads), &a, &b);
            assert_eq!(got, serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn parallel_semiring_bit_identical() {
        let a = crate::generate::erdos_renyi(150, 4.0, 23);
        let b = Mat::from_fn(150, 5, |i, j| (i + j) as f64 * 0.25);
        let mut serial = Mat::filled(150, 5, MinPlus.zero());
        spmm_semiring_acc(&a, &b, &MinPlus, &mut serial);
        for threads in [2usize, 5] {
            let mut par = Mat::filled(150, 5, MinPlus.zero());
            spmm_semiring_acc_with(ParallelCtx::new(threads), &a, &b, &MinPlus, &mut par);
            assert_eq!(par, serial);
        }
    }
}
