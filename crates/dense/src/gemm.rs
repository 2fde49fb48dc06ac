//! Dense matrix multiplication kernels.
//!
//! These are the local GEMM kernels called by every training algorithm for
//! the `T·W`, `G·Wᵀ`, and `Hᵀ·(AG)` products of the paper's §III-C/D
//! equations. The implementation is a cache-blocked loop nest with a
//! **register-blocked micro-kernel** (DESIGN.md §14); no BLAS is linked,
//! per the project's build-everything rule.
//!
//! Inside each `MC×KC×NC` cache panel, the micro-kernel computes a fixed
//! `MR×NR` tile of `C` held entirely in registers: the tile is loaded
//! once, accumulates all `KC` rank-1 updates of the panel, and is stored
//! once. The inner loops run over fixed-size arrays so rustc
//! autovectorizes them (lane = `C` column; no reassociation across the
//! shared dimension), and edge tiles fall back to a scalar loop with the
//! identical per-element accumulation order. Zero entries of `A` are
//! **not** skipped: `0.0 × inf` and `0.0 × NaN` must propagate per IEEE
//! 754, which the pre-register-blocking kernel got wrong (see
//! `nan_and_inf_propagate` in `tests/properties.rs` and the reference
//! kernels kept in [`crate::reference`] for benchmarking).
//!
//! Every kernel takes a [`ParallelCtx`] (`ParallelCtx::serial()` for one
//! thread) and forks the computation over contiguous panels of **output
//! rows**. Each panel runs the identical serial micro-kernel over its own
//! rows, and no thread touches another panel's rows, so the parallel
//! results are bit-for-bit identical to serial for every thread count —
//! the floating-point accumulation order per output element depends only
//! on the global `jc`/`pc` tile walk, never on panel or register-tile
//! boundaries.

use crate::matrix::Mat;
use cagnet_parallel::ParallelCtx;
use core::ops::Range;

/// Loop blocking sizes. `MC x KC` panels of `a` are streamed against `KC x
/// NC` panels of `b`; values chosen so the working set fits comfortably in
/// L2 for f64.
const MC: usize = 64;
const KC: usize = 128;
const NC: usize = 256;

/// Register-tile rows: `A` values per rank-1 step, each broadcast across
/// the `NR` lanes. `MR·NR` f64 accumulators (4·8 = four 512-bit or eight
/// 256-bit vectors) stay comfortably within the 16 SIMD registers of
/// x86-64 alongside the `B` row load.
const MR: usize = 4;
/// Register-tile columns: one or two hardware vectors of f64 lanes.
const NR: usize = 8;

/// Minimum output rows per forked chunk: below this the fork-join
/// overhead dwarfs the row's flops for GCN-width operands.
const MIN_PAR_ROWS: usize = 16;

/// `C = A · B`, row panels forked across `ctx`'s thread budget
/// (`ParallelCtx::serial()` for one thread).
///
/// ```
/// use cagnet_dense::{matmul_with, Mat};
/// use cagnet_parallel::ParallelCtx;
/// let a = Mat::eye(3);
/// assert_eq!(matmul_with(ParallelCtx::serial(), &a, &a), a);
/// ```
///
/// No kernel has a serial twin that skips the thread budget:
///
/// ```compile_fail
/// use cagnet_dense::Mat;
/// let a = Mat::eye(3);
/// let _ = cagnet_dense::matmul(&a, &a);
/// ```
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_with(ctx: ParallelCtx, a: &Mat, b: &Mat) -> Mat {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut c = Mat::zeros(a.rows(), b.cols());
    matmul_acc_with(ctx, a, b, &mut c);
    c
}

/// `C += A · B`, row panels forked across `ctx`'s thread budget. This is
/// the primitive used by the SUMMA stages, where every stage adds a
/// rank-`b` update into the running local block.
pub fn matmul_acc_with(ctx: ParallelCtx, a: &Mat, b: &Mat, c: &mut Mat) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_acc: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_acc: output shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let av = a.as_slice();
    let bv = b.as_slice();
    let cv = c.as_mut_slice();

    ctx.par_rows(m, n, cv, MIN_PAR_ROWS, |rows, panel| {
        matmul_acc_panel(av, bv, panel, rows, k, n)
    });
}

/// The blocked serial kernel over one panel of output rows
/// `rows.start..rows.end`; `cpanel` holds exactly those rows. The `jc`
/// (B column tile) and `pc` (shared-dimension tile) loops are identical
/// for every panel, so each `C[i][j]` accumulates its `k` products in
/// the same order — a single accumulator fed in ascending `p` — whether
/// the element lands in a full `MR×NR` register tile, an edge tile, or a
/// different row panel.
fn matmul_acc_panel(
    av: &[f64],
    bv: &[f64],
    cpanel: &mut [f64],
    rows: Range<usize>,
    k: usize,
    n: usize,
) {
    let r0 = rows.start;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let mut ic = rows.start;
            while ic < rows.end {
                let mc = MC.min(rows.end - ic);
                // Register-blocked walk of this MC×nc block: full MR×NR
                // tiles through the micro-kernel, edges through the
                // scalar fallback with the same per-element order.
                let mut i = ic;
                while i + MR <= ic + mc {
                    let mut j = jc;
                    while j + NR <= jc + nc {
                        microkernel(av, bv, cpanel, i - r0, i, j, pc, kc, k, n);
                        j += NR;
                    }
                    if j < jc + nc {
                        edge_tile(av, bv, cpanel, i - r0, i, MR, j, jc + nc - j, pc, kc, k, n);
                    }
                    i += MR;
                }
                if i < ic + mc {
                    edge_tile(av, bv, cpanel, i - r0, i, ic + mc - i, jc, nc, pc, kc, k, n);
                }
                ic += mc;
            }
        }
    }
}

/// `MR×NR` register tile at output rows `i..i+MR`, columns `j..j+NR`:
/// load the tile, accumulate the `kc` rank-1 updates of the current
/// cache panel with `p` ascending, store the tile. The fixed-size
/// accumulator array lives in SIMD registers and the `NR`-lane inner
/// loops autovectorize; every product `a·b` is added to exactly one
/// lane, so there is no reassociation and the result is bit-identical
/// to the scalar fallback.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn microkernel(
    av: &[f64],
    bv: &[f64],
    cpanel: &mut [f64],
    pr: usize, // panel-relative row of the tile's first row
    i: usize,  // absolute row in A
    j: usize,  // absolute column in B/C
    pc: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (r, accr) in acc.iter_mut().enumerate() {
        accr.copy_from_slice(&cpanel[(pr + r) * n + j..(pr + r) * n + j + NR]);
    }
    for p in pc..pc + kc {
        let brow = &bv[p * n + j..p * n + j + NR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let aval = av[(i + r) * k + p];
            for (cj, &bval) in accr.iter_mut().zip(brow) {
                *cj += aval * bval;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        cpanel[(pr + r) * n + j..(pr + r) * n + j + NR].copy_from_slice(accr);
    }
}

/// Edge-tile fallback for the rows/columns left over after the `MR×NR`
/// walk: one scalar accumulator per element, `p` ascending — the exact
/// accumulation order of the micro-kernel, so full and edge tiles are
/// indistinguishable bit-for-bit.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn edge_tile(
    av: &[f64],
    bv: &[f64],
    cpanel: &mut [f64],
    pr: usize,
    i: usize,
    mr: usize,
    j: usize,
    nr: usize,
    pc: usize,
    kc: usize,
    k: usize,
    n: usize,
) {
    for r in 0..mr {
        let arow = &av[(i + r) * k + pc..(i + r) * k + pc + kc];
        for c in 0..nr {
            let mut acc = cpanel[(pr + r) * n + j + c];
            for (p, &aval) in arow.iter().enumerate() {
                acc += aval * bv[(pc + p) * n + j + c];
            }
            cpanel[(pr + r) * n + j + c] = acc;
        }
    }
}

/// `C = Aᵀ · B` without materializing `Aᵀ`, output-row panels forked
/// across `ctx`. Used for the weight-gradient product
/// `Y = (H^{l-1})ᵀ (A G^l)` (paper Eq. 3), where `H` is tall-skinny and
/// the output is a small `f x f` matrix.
pub fn matmul_tn_with(ctx: ParallelCtx, a: &Mat, b: &Mat) -> Mat {
    let (k, m) = a.shape(); // logical op is (m x k) = (a.cols x a.rows)
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_tn: inner dimension mismatch");
    let mut c = Mat::zeros(m, n);
    matmul_tn_acc_with(ctx, a, b, &mut c);
    c
}

/// `C += Aᵀ · B`, output-row panels (columns of `A`) forked across
/// `ctx`. Every worker scans the full shared dimension `k` in the same
/// ascending order, restricted to its own C rows, so accumulation order
/// per element is thread-count independent.
pub fn matmul_tn_acc_with(ctx: ParallelCtx, a: &Mat, b: &Mat, c: &mut Mat) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_tn_acc: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_tn_acc: output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let av = a.as_slice();
    let bv = b.as_slice();
    let cv = c.as_mut_slice();
    // The output here is small (f x f); forking pays off only when A is
    // wide enough that each worker still owns several columns.
    ctx.par_rows(m, n, cv, 4, |rows, panel| {
        let r0 = rows.start;
        // Outer-product accumulation over the shared dimension: each row
        // p of A scatters into the C rows this panel owns, with both A
        // and B rows read unit-stride.
        // No zero-skip here either: `0.0 × inf` must produce NaN per
        // IEEE 754, the same contract as `matmul_acc_panel`.
        for p in 0..k {
            let arow = &av[p * m..(p + 1) * m];
            let brow = &bv[p * n..(p + 1) * n];
            for i in rows.clone() {
                let aval = arow[i];
                let crow = &mut panel[(i - r0) * n..(i - r0 + 1) * n];
                for (cj, &bval) in crow.iter_mut().zip(brow) {
                    *cj += aval * bval;
                }
            }
        }
    });
}

/// `C = A · Bᵀ` without materializing `Bᵀ`, row panels forked across
/// `ctx`. Used for the backpropagation product `G^l (W^l)ᵀ` (paper
/// Eq. 2).
pub fn matmul_nt_with(ctx: ParallelCtx, a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.rows());
    matmul_nt_acc_with(ctx, a, b, &mut c);
    c
}

/// `C += A · Bᵀ`, row panels forked across `ctx`. Each output element
/// is one dot product folded in ascending `k` from a `+0.0` seed and
/// then added to `C` once, so this parallelizes with no ordering
/// hazards at all.
pub fn matmul_nt_acc_with(ctx: ParallelCtx, a: &Mat, b: &Mat, c: &mut Mat) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "matmul_nt: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_nt_acc: output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let av = a.as_slice();
    let bv = b.as_slice();
    let cv = c.as_mut_slice();
    ctx.par_rows(m, n, cv, MIN_PAR_ROWS, |rows, panel| {
        let r0 = rows.start;
        for i in rows {
            let arow = &av[i * k..(i + 1) * k];
            let crow = &mut panel[(i - r0) * n..(i - r0 + 1) * n];
            for (j, cval) in crow.iter_mut().enumerate() {
                let brow = &bv[j * k..(j + 1) * k];
                let mut acc = 0.0;
                for (&x, &y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                *cval += acc;
            }
        }
    });
}

/// Reference triple-loop GEMM used only to validate the blocked kernels.
pub fn matmul_naive(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows(), "matmul_naive: inner dims");
    let mut c = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for p in 0..a.cols() {
                acc += a[(i, p)] * b[(p, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Flop count of an `m x k · k x n` GEMM (multiply-adds counted as 2 flops).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * (m as u64) * (k as u64) * (n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(r: usize, c: usize, seed: u64) -> Mat {
        // Small deterministic LCG keeps this test free of external deps.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mat::from_fn(r, c, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    #[test]
    fn blocked_matches_naive() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (64, 64, 64),
            (65, 130, 33),
            (100, 1, 100),
        ] {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let fast = matmul_with(ParallelCtx::serial(), &a, &b);
            let slow = matmul_naive(&a, &b);
            assert!(
                fast.approx_eq(&slow, 1e-10),
                "mismatch at {m}x{k}x{n}: {}",
                fast.max_abs_diff(&slow)
            );
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let a = rand_mat(40, 17, 3);
        let b = rand_mat(40, 23, 4);
        let direct = matmul_tn_with(ParallelCtx::serial(), &a, &b);
        let explicit = matmul_with(ParallelCtx::serial(), &a.transpose(), &b);
        assert!(direct.approx_eq(&explicit, 1e-10));
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let a = rand_mat(21, 34, 5);
        let b = rand_mat(19, 34, 6);
        let direct = matmul_nt_with(ParallelCtx::serial(), &a, &b);
        let explicit = matmul_with(ParallelCtx::serial(), &a, &b.transpose());
        assert!(direct.approx_eq(&explicit, 1e-10));
    }

    #[test]
    fn acc_accumulates() {
        let a = rand_mat(8, 8, 7);
        let b = rand_mat(8, 8, 8);
        let mut c = matmul_with(ParallelCtx::serial(), &a, &b);
        matmul_acc_with(ParallelCtx::serial(), &a, &b, &mut c);
        let doubled = matmul_with(ParallelCtx::serial(), &a, &b).map(|x| 2.0 * x);
        assert!(c.approx_eq(&doubled, 1e-10));
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_mat(12, 12, 9);
        assert!(matmul_with(ParallelCtx::serial(), &a, &Mat::eye(12)).approx_eq(&a, 1e-12));
        assert!(matmul_with(ParallelCtx::serial(), &Mat::eye(12), &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn empty_dims_ok() {
        let a = Mat::zeros(0, 5);
        let b = Mat::zeros(5, 3);
        assert_eq!(matmul_with(ParallelCtx::serial(), &a, &b).shape(), (0, 3));
        let a = Mat::zeros(4, 0);
        let b = Mat::zeros(0, 3);
        assert_eq!(matmul_with(ParallelCtx::serial(), &a, &b).shape(), (4, 3));
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dim_mismatch_panics() {
        let _ = matmul_with(ParallelCtx::serial(), &Mat::zeros(2, 3), &Mat::zeros(4, 2));
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Awkward shapes spanning multiple MC/KC/NC tiles, plus the
        // degenerate single-row case.
        for &(m, k, n) in &[(1usize, 7usize, 9usize), (67, 131, 258), (130, 40, 70)] {
            let a = rand_mat(m, k, 21);
            let b = rand_mat(k, n, 22);
            let serial = matmul_with(ParallelCtx::serial(), &a, &b);
            for threads in [2usize, 3, 5, 8] {
                let ctx = ParallelCtx::new(threads);
                let par = matmul_with(ctx, &a, &b);
                assert_eq!(
                    par, serial,
                    "matmul diverged at {m}x{k}x{n}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_tn_nt_bit_identical() {
        let a = rand_mat(90, 37, 31);
        let b = rand_mat(90, 53, 32);
        let serial_tn = matmul_tn_with(ParallelCtx::serial(), &a, &b);
        let c = rand_mat(44, 37, 33);
        let d = rand_mat(29, 37, 34);
        let serial_nt = matmul_nt_with(ParallelCtx::serial(), &c, &d);
        for threads in [2usize, 4, 7] {
            let ctx = ParallelCtx::new(threads);
            assert_eq!(matmul_tn_with(ctx, &a, &b), serial_tn);
            assert_eq!(matmul_nt_with(ctx, &c, &d), serial_nt);
        }
    }

    #[test]
    fn parallel_acc_accumulates_identically() {
        let a = rand_mat(70, 33, 41);
        let b = rand_mat(33, 48, 42);
        let mut serial = rand_mat(70, 48, 43);
        let mut par = serial.clone();
        matmul_acc_with(ParallelCtx::serial(), &a, &b, &mut serial);
        matmul_acc_with(ParallelCtx::new(6), &a, &b, &mut par);
        assert_eq!(par, serial);
    }
}
