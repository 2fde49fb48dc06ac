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

/// `C = A · B` where `A` is CSR and `B` dense, row chunks forked across
/// `ctx`'s thread budget (`ParallelCtx::serial()` for one thread).
///
/// Chunks are balanced by **nonzero count**, not row count — under the
/// power-law degree distributions of real graphs (and the hypersparse
/// blocks of high-`P` 2D partitions) row-balanced chunks can be wildly
/// work-imbalanced. Each chunk still owns a contiguous, disjoint range
/// of output rows processed by the identical serial row loop, so the
/// result is bit-for-bit equal to serial for every thread count.
///
/// ```
/// use cagnet_dense::Mat;
/// use cagnet_sparse::spmm::spmm_with;
/// use cagnet_sparse::{Csr, ParallelCtx};
/// let a = Csr::identity(3);
/// let b = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
/// assert_eq!(spmm_with(ParallelCtx::serial(), &a, &b), b);
/// ```
///
/// No kernel has a serial twin that skips the thread budget:
///
/// ```compile_fail
/// use cagnet_dense::Mat;
/// use cagnet_sparse::Csr;
/// let b = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
/// let _ = cagnet_sparse::spmm(&Csr::identity(3), &b);
/// ```
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn spmm_with(ctx: ParallelCtx, a: &Csr, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    spmm_acc_with(ctx, a, b, &mut c);
    c
}

/// `C += A · B`, the SUMMA-stage primitive, nnz-balanced row chunks
/// forked across `ctx`:
/// [`spmm_acc_scratch`] with a pack buffer of its own and no row map.
/// Callers that multiply wide or row-mapped operands repeatedly keep one
/// and call that instead.
pub fn spmm_acc_with(ctx: ParallelCtx, a: &Csr, b: &Mat, c: &mut Mat) {
    spmm_acc_scratch(ctx, a, b, None, c, &mut Mat::zeros(0, 0));
}

/// Widest `f` multiplied straight out of `B`. Beyond it a row of `B` is
/// over 1 KiB, the rows a CSR row gathers lie in as many pages, and the
/// accumulator no longer fits the register file; at and below it the
/// hypersparse stage panels (4–9 nonzeros per row) gain nothing from
/// packing (measured at `f = 128`, DESIGN.md §14).
const SPMM_DIRECT_WIDTH: usize = 128;

/// Columns per packed tile of the wide path. 32 columns are 256 B per
/// operand row: the tile of an 8192-row operand is 2 MiB in 512 pages —
/// the size of the L2, a quarter of what the second-level TLB maps —
/// where the same columns of `B` in place are spread over `8·f`-byte
/// strides, a page per row from `f = 512`. The accumulator is eight
/// 256-bit registers. 64 columns ran no faster and double the buffer;
/// 16 re-walk the CSR twice as often and ran 20 % slower.
const SPMM_COL_TILE: usize = 32;

/// Rows of `C` warmed at a time ahead of the row kernel on the wide
/// path (see [`spmm_acc_scratch`]): 64 tile rows are at most 320 cache
/// lines, well inside L1.
const SPMM_WARM_ROWS: usize = 64;

/// Fewest operand rows worth a thread of their own when packing a tile.
const PACK_MIN_ROWS: usize = 1024;

/// Elements of pack buffer [`spmm_acc_scratch`] fills for an `inner x f`
/// operand — `inner` being `A`'s column count, read through a row map
/// when `mapped` — what to ask a buffer pool for: one tile of at most
/// `SPMM_COL_TILE` columns, and nothing up to `SPMM_DIRECT_WIDTH`
/// without a map, where nothing is packed.
pub fn spmm_scratch_len(inner: usize, f: usize, mapped: bool) -> usize {
    if f > SPMM_DIRECT_WIDTH || mapped {
        inner * SPMM_COL_TILE.min(f)
    } else {
        0
    }
}

/// `C += A · B[rows]`: with a row map, column `j` of `A` multiplies row
/// `rows[j]` of `B` — the rows a panel with columns numbered by a
/// needed-row list reads out of the whole block; without one, row `j`.
/// The pack buffer is the caller's (any shape, any contents; it is
/// reshaped and overwritten, and grows only if it holds fewer than
/// [`spmm_scratch_len`] elements).
///
/// Every width runs the one row kernel, `spmm_rows` (DESIGN.md §14):
/// the `C` row is loaded once into the accumulator, the row's nonzeros
/// fold into it in stored-entry order, and it is stored once. Up to
/// `SPMM_DIRECT_WIDTH` columns with no row map that is a single pass
/// reading `B` in place. Wider operands go `SPMM_COL_TILE` columns at a
/// time: the tile of `B` is first copied into `pack` as a contiguous
/// `cols(A) x tile` matrix, which all row chunks of the fork then read,
/// so the gathers of a pass stay inside those 256 bytes per row instead
/// of striding across the whole of `B`. The row map is applied there and
/// only there, and a mapped operand is packed tile by tile at every
/// width: its buffer is never wider than a tile, where a whole-width
/// copy of the mapped rows would add `needed × f` words to the peak.
/// Every output element folds the same products in the same order on
/// every path, so results are bit-identical to the historical
/// per-nonzero axpy loop (kept in [`crate::reference`]) on `B[rows]`,
/// and to serial at every thread count.
///
/// # Panics
/// Panics on inner-dimension or output-shape mismatch, and on a map
/// entry past the last row of `B`.
pub fn spmm_acc_scratch(
    ctx: ParallelCtx,
    a: &Csr,
    b: &Mat,
    rows: Option<&[usize]>,
    c: &mut Mat,
    pack: &mut Mat,
) {
    let inner = rows.map_or(b.rows(), <[usize]>::len);
    assert_eq!(
        a.cols(),
        inner,
        "spmm: inner dims {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        inner,
        b.cols()
    );
    assert_eq!(c.shape(), (a.rows(), b.cols()), "spmm: output shape");
    let f = b.cols();
    if f == 0 {
        return;
    }
    let (row_ptr, col_idx, vals) = (a.row_ptr(), a.col_idx(), a.vals());
    let ranges = nnz_balanced_ranges(row_ptr, spmm_chunks(ctx, a));
    let cv = c.as_mut_slice();
    // One pass of the row kernel over every chunk: the `w` columns of
    // `operand` into columns `col0..col0 + w` of `C`. All chunks of a
    // pass see the same `w` and run the same kernel.
    let mut pass = |operand: &[f64], col0: usize, w: usize| {
        ctx.par_partitions(&ranges, f, cv, |rows, panel| {
            let kernel = match w {
                8 => spmm_rows::<8>,
                16 => spmm_rows::<16>,
                32 => spmm_rows::<32>,
                64 => spmm_rows::<64>,
                128 => spmm_rows::<128>,
                _ => spmm_rows::<0>,
            };
            if w == f {
                return kernel(row_ptr, col_idx, vals, operand, panel, f, 0, w, rows);
            }
            // A tile of `C` is `w` columns out of rows `8·f` bytes apart
            // — too far for the hardware prefetcher to follow — and the
            // kernel can start a row only once its accumulator has
            // arrived, so it would wait out a memory latency per row and
            // tile (a fifth of the time at `f = 602`). Reading one
            // element per cache line of the next rows' tiles first puts
            // those misses in flight together; the sum is discarded.
            let starts = rows.clone().step_by(SPMM_WARM_ROWS);
            for (start, block) in starts.zip(panel.chunks_mut(SPMM_WARM_ROWS * f)) {
                let mut warmed = 0.0;
                for crow in block.chunks_exact(f) {
                    let tile = &crow[col0..col0 + w];
                    warmed += (0..w).step_by(8).map(|j| tile[j]).sum::<f64>() + tile[w - 1];
                }
                std::hint::black_box(warmed);
                let rows = start..start + block.len() / f;
                kernel(row_ptr, col_idx, vals, operand, block, f, col0, w, rows);
            }
        });
    };
    let bv = b.as_slice();
    if f <= SPMM_DIRECT_WIDTH && rows.is_none() {
        return pass(bv, 0, f);
    }
    for col0 in (0..f).step_by(SPMM_COL_TILE) {
        let w = SPMM_COL_TILE.min(f - col0);
        // Only the first and the ragged last tile change the shape;
        // the copy below overwrites every element either way.
        if pack.shape() != (inner, w) {
            pack.reset(inner, w);
        }
        let out = pack.as_mut_slice();
        ctx.par_rows(inner, w, out, PACK_MIN_ROWS, |range, out| {
            for (dst, j) in out.chunks_exact_mut(w).zip(range) {
                let i = rows.map_or(j, |rows| rows[j]);
                dst.copy_from_slice(&bv[i * f + col0..i * f + col0 + w]);
            }
        });
        pass(pack.as_slice(), col0, w);
    }
}

/// The SpMM row kernel, over one row chunk: `operand` is `w` columns
/// wide and contiguous, and its products go into columns
/// `col0..col0 + w` of `panel`, whose rows are `ldc` apart.
///
/// With `W = w` a compile-time constant — the common GCN widths, and
/// every full tile of the wide path — the accumulator is `[f64; W]`, in
/// registers up to 64, and the inner loops unroll with no length checks:
/// the `C` row is loaded once, the row's nonzeros fold in, and it is
/// stored once. `W = 0` serves any other `w`, folding into the `C` row
/// where it lies. The nonzero loop walks eight, then four stored entries
/// per step: their operand-row gathers are address-independent, so the
/// loads overlap even though the accumulator updates stay sequential
/// (the per-element fold order is exactly stored order), with a short
/// tail so power-law rows and leaf rows both run well.
///
/// Slices and scalars only, and never inlined into the dispatch: handed
/// the `Csr` or a parameter struct by reference, the accumulator was
/// compiled into stack memory (1.4x slower at `W = 64`).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn spmm_rows<const W: usize>(
    row_ptr: &[usize],
    col_idx: &[usize],
    vals: &[f64],
    operand: &[f64],
    panel: &mut [f64],
    ldc: usize,
    col0: usize,
    w: usize,
    rows: Range<usize>,
) {
    let w = if W > 0 { W } else { w };
    let r0 = rows.start;
    for i in rows {
        let crow = &mut panel[(i - r0) * ldc + col0..(i - r0) * ldc + col0 + w];
        let mut regs = [0.0f64; W];
        let acc: &mut [f64] = if W > 0 {
            regs.copy_from_slice(crow);
            &mut regs
        } else {
            &mut *crow
        };
        let mut fold = |k: usize| {
            let aval = vals[k];
            let brow = &operand[col_idx[k] * w..col_idx[k] * w + w];
            for (cj, &bval) in acc.iter_mut().zip(brow) {
                *cj += aval * bval;
            }
        };
        let (mut k, hi) = (row_ptr[i], row_ptr[i + 1]);
        while k + 8 <= hi {
            (k..k + 8).for_each(&mut fold);
            k += 8;
        }
        while k + 4 <= hi {
            (k..k + 4).for_each(&mut fold);
            k += 4;
        }
        (k..hi).for_each(&mut fold);
        if W > 0 {
            crow.copy_from_slice(&regs);
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
/// not participate, matching GraphBLAS semantics). Row chunks are forked
/// across `ctx` as in [`spmm_semiring_acc_with`].
pub fn spmm_semiring_with<S: Semiring>(ctx: ParallelCtx, a: &Csr, b: &Mat, s: &S) -> Mat {
    let mut c = Mat::filled(a.rows(), b.cols(), s.zero());
    spmm_semiring_acc_with(ctx, a, b, s, &mut c);
    c
}

/// `C ⊕= A ⊗ B` over a semiring — the accumulating form a block
/// algorithm runs once per stage; `c` must have been initialized with
/// `s.zero()` (or hold a previous partial). Nnz-balanced row chunks are
/// forked across `ctx`. Disjoint output rows keep the ⊕ fold order per
/// element independent of the thread count, so
/// non-associative-under-rounding aggregations still produce
/// serial-identical bits.
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
    outer_product_from_transposed_into(at_block, b, None, &mut c, 0);
    c
}

/// [`outer_product_from_transposed`] accumulated onto a caller-kept
/// destination with `f` columns, from row `row0` on: `C[row0 + rows[j]]
/// += (column j of A) · B` with a row map — the destination rows of a
/// column block whose columns are numbered by a needed-row list — else
/// `C[row0 + j]`. Hand it zeros (a re-armed accumulator, [`Mat::reset`])
/// for the plain product — every element then folds the same products
/// in the same order as a fresh result. Column blocks of one block row
/// written at their column offsets build that block row's product bit
/// for bit: each destination row lives in one column block and still
/// folds in ascending source-row order, and a monotone map keeps it so.
///
/// # Panics
/// Panics on inner-dimension mismatch, a map shorter than
/// `at_block.cols()`, or a destination row past `C`'s last or past the
/// map's last entry (a map is ascending, so that entry bounds the rest).
pub fn outer_product_from_transposed_into(
    at_block: &Csr,
    b: &Mat,
    rows: Option<&[usize]>,
    c: &mut Mat,
    row0: usize,
) {
    assert_eq!(at_block.rows(), b.rows(), "outer product: inner dims");
    let f = b.cols();
    let height = rows.map_or(at_block.cols(), |rows| rows.last().map_or(0, |&r| r + 1));
    assert!(
        c.cols() == f && row0 + height <= c.rows(),
        "outer product: output shape"
    );
    let cv = &mut c.as_mut_slice()[row0 * f..(row0 + height) * f];
    let bv = b.as_slice();
    for k in 0..at_block.rows() {
        let brow = &bv[k * f..(k + 1) * f];
        for (j, aval) in at_block.row_entries(k) {
            let dst_row = rows.map_or(j, |rows| rows[j]);
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
        let sparse = spmm_with(ParallelCtx::serial(), &a, &b);
        let dense = cagnet_dense::matmul_with(ParallelCtx::serial(), &a.to_dense(), &b);
        assert!(sparse.approx_eq(&dense, 1e-12));
    }

    #[test]
    fn spmm_acc_accumulates() {
        let a = sample_csr();
        let b = sample_dense();
        let mut c = spmm_with(ParallelCtx::serial(), &a, &b);
        spmm_acc_with(ParallelCtx::serial(), &a, &b, &mut c);
        let doubled = spmm_with(ParallelCtx::serial(), &a, &b).map(|x| 2.0 * x);
        assert!(c.approx_eq(&doubled, 1e-12));
    }

    #[test]
    fn empty_rows_produce_zero_rows() {
        let a = Csr::empty(3, 3);
        let b = Mat::filled(3, 2, 7.0);
        let c = spmm_with(ParallelCtx::serial(), &a, &b);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn plus_times_semiring_matches_plain_spmm() {
        let a = sample_csr();
        let b = sample_dense();
        let plain = spmm_with(ParallelCtx::serial(), &a, &b);
        let semi = spmm_semiring_with(ParallelCtx::serial(), &a, &b, &PlusTimes);
        assert!(plain.approx_eq(&semi, 1e-12));
    }

    #[test]
    fn min_plus_semiring_relaxation() {
        // One-step min-plus relaxation from a distance vector.
        let a = Csr::from_coo(Coo::from_entries(2, 2, vec![(0, 1, 1.0), (1, 0, 2.0)]));
        let d = Mat::from_rows(&[&[0.0], &[10.0]]);
        let r = spmm_semiring_with(ParallelCtx::serial(), &a, &d, &MinPlus);
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
        let r = spmm_semiring_with(ParallelCtx::serial(), &a, &b, &MaxTimes);
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
        let expect = cagnet_dense::matmul_with(ParallelCtx::serial(), &a_cols, &b);
        assert!(got.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn staged_outer_products_match_the_whole_block_bit_for_bit() {
        // A 6 x 11 block of Aᵀ split into column stages of widths 2, 5
        // and 4. Stage 0 has entries only in source rows 1 and 4, and
        // source row 3 is empty everywhere.
        let mut entries = Vec::new();
        for k in [0usize, 1, 2, 4, 5] {
            for c in 0..11 {
                if (k * 7 + c * 3) % 4 != 0 && (c >= 2 || k % 3 == 1) {
                    entries.push((k, c, 1.0 / (k * 11 + c + 3) as f64));
                }
            }
        }
        let at = Csr::from_coo(Coo::from_entries(6, 11, entries));
        let b = Mat::from_fn(6, 3, |i, j| ((i * 5 + j * 7) as f64).sin() / 3.0);
        let expect = outer_product_from_transposed(&at, &b);

        let mut got = Mat::zeros(11, 3);
        for (c0, c1) in [(0, 2), (2, 7), (7, 11)] {
            let stage = at.block(0, 6, c0, c1);
            if c0 == 0 {
                assert_eq!(stage.row_nnz(0), 0, "stage 0 keeps empty rows");
            }
            outer_product_from_transposed_into(&stage, &b, None, &mut got, c0);
        }
        let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&expect));
    }

    #[test]
    fn flops_counting() {
        let a = sample_csr();
        assert_eq!(spmm_flops(&a, 3), 2 * 5 * 3);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn spmm_dim_mismatch_panics() {
        let _ = spmm_with(ParallelCtx::serial(), &sample_csr(), &Mat::zeros(3, 2));
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
            let fast = spmm_with(ParallelCtx::serial(), &a, &b);
            let slow = crate::reference::spmm_reference(&a, &b);
            assert_eq!(fast, slow, "f={f} diverged from the reference kernel");
        }
    }

    /// Bit patterns, so that `-0.0 != 0.0` and a `NaN` equals itself —
    /// any `NaN` any other: which operand's sign and payload an
    /// addition of two `NaN`s keeps is the code generator's choice, in
    /// the reference loop as much as here.
    fn bits(m: &Mat) -> Vec<u64> {
        let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x };
        m.as_slice()
            .iter()
            .map(|x| canonical(x).to_bits())
            .collect()
    }

    #[test]
    fn wide_path_matches_reference_bits() {
        // The packed-tile path on either side of a tile boundary (192 is
        // six full tiles), with ragged tiles of 1, 22, 31, 12 and 26 columns,
        // forked or not, onto a fresh and onto a pre-filled `C`. The
        // graph is large enough for eight chunks, every seventh row is
        // empty, some stored entries are explicit zeros, and `B` carries
        // signed zeros, infinities (so `0·inf = NaN` must appear) and a
        // `NaN`. The pack buffer arrives too long and full of garbage.
        let n = 600;
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        let er = crate::generate::erdos_renyi(n, 36.0, 5);
        for i in (0..n).filter(|i| i % 7 != 3) {
            entries.extend(er.row_entries(i).map(|(j, _)| {
                let v = ((i * 13 + j * 7) % 11) as f64 * 0.25 - 1.0;
                (i, j, if (i + j) % 17 == 0 { 0.0 } else { v })
            }));
        }
        let a = Csr::from_coo(Coo::from_entries(n, n, entries));
        assert!(a.nnz() >= 8 * 2048, "too small to fork eight ways");
        assert!(a.vals().contains(&0.0));
        for f in [129usize, 150, 191, 192, 193, 300, 602] {
            let b = Mat::from_fn(n, f, |i, j| match (i * f + j) % 97 {
                0 => -0.0,
                1 => 0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 if i == 5 => f64::NAN,
                r => r as f64 * 0.125 - 6.0,
            });
            let filled = Mat::from_fn(n, f, |i, j| match (i + 3 * j) % 5 {
                0 => -0.0,
                r => r as f64 - 2.5,
            });
            let want_fresh = crate::reference::spmm_reference(&a, &b);
            let mut want_filled = filled.clone();
            crate::reference::spmm_acc_reference(&a, &b, &mut want_filled);
            assert!(want_fresh.as_slice().iter().any(|x| x.is_nan()));
            for threads in [1usize, 2, 3, 8] {
                let ctx = ParallelCtx::new(threads);
                let mut pack = Mat::filled(n + 9, 40, f64::NAN);
                let mut fresh = Mat::zeros(n, f);
                spmm_acc_scratch(ctx, &a, &b, None, &mut fresh, &mut pack);
                assert_eq!(bits(&fresh), bits(&want_fresh), "f={f} threads={threads}");
                let mut acc = filled.clone();
                spmm_acc_scratch(ctx, &a, &b, None, &mut acc, &mut pack);
                assert_eq!(bits(&acc), bits(&want_filled), "f={f} threads={threads}");
                assert_eq!(bits(&spmm_with(ctx, &a, &b)), bits(&want_fresh));
            }
            // A rank that owns no rows: nothing to do, nothing to read.
            let mut none = Mat::zeros(0, f);
            let mut pack = Mat::filled(3, 3, f64::NAN);
            spmm_acc_scratch(
                ParallelCtx::new(3),
                &Csr::empty(0, n),
                &b,
                None,
                &mut none,
                &mut pack,
            );
            assert_eq!(none.shape(), (0, f));
        }
    }

    #[test]
    fn scratch_len_is_zero_up_to_the_direct_width() {
        assert_eq!(spmm_scratch_len(1000, 128, false), 0);
        assert_eq!(spmm_scratch_len(1000, 16, true), 1000 * 16);
        assert_eq!(spmm_scratch_len(1000, 128, true), 1000 * SPMM_COL_TILE);
        assert_eq!(spmm_scratch_len(1000, 129, false), 1000 * SPMM_COL_TILE);
        assert_eq!(spmm_scratch_len(1000, 129, true), 1000 * SPMM_COL_TILE);
    }

    #[test]
    fn parallel_spmm_is_bit_identical_to_serial() {
        let a = crate::generate::erdos_renyi(200, 5.0, 17);
        let b = Mat::from_fn(200, 7, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let serial = spmm_with(ParallelCtx::serial(), &a, &b);
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
        spmm_semiring_acc_with(ParallelCtx::serial(), &a, &b, &MinPlus, &mut serial);
        for threads in [2usize, 5] {
            let mut par = Mat::filled(150, 5, MinPlus.zero());
            spmm_semiring_acc_with(ParallelCtx::new(threads), &a, &b, &MinPlus, &mut par);
            assert_eq!(par, serial);
        }
    }
}
