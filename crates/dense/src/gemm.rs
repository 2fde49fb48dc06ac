//! Dense matrix multiplication kernels.
//!
//! These are the local GEMM kernels called by every training algorithm for
//! the `T·W`, `G·Wᵀ`, and `Hᵀ·(AG)` products of the paper's §III-C/D
//! equations. No BLAS is linked, per the project's build-everything rule.
//!
//! All three products — `A·B` (NN), `Aᵀ·B` (TN) and `A·Bᵀ` (NT) — run
//! one **register tile** (`Operands::tile`, DESIGN.md §14): an `R × W`
//! block of `C` held in locals the compiler keeps in SIMD registers, fed
//! one rank-1 update per shared-dimension step `p`, in ascending `p`.
//! Tiles are `MR = 4` rows by 16, then 8, then 1 columns, with single-row
//! tiles for the rows left over (`walk`). The products differ only in
//! where a step's `R` values of `A` and `W` values of `B` come from
//! (`Operands`):
//!
//! - NN: `R` rows of `A` at column `p`; row `p` of `B`. The tile folds the
//!   whole shared dimension when `n ≤ 64` (trainers' `T·W`, 8192 × 602 ×
//!   16), and `KC`-step blocks of `NC`-column panels above it.
//! - TN: `R` adjacent elements of row `p` of `A`; row `p` of `B`. `A` is
//!   read in storage order, `TN_KC` = 16 rows at a time.
//! - NT: `R` rows of `A` at column `p`; row `p` of a transposed block of
//!   the small operand `B`, kept on the stack.
//!
//! Every element keeps the fold order of the loops it replaced, which
//! [`crate::reference`] keeps as oracles: NN and TN load `C` and add the
//! products in ascending `p`; NT folds the products from `+0.0` and then
//! adds the sum to `C` once. rustc neither contracts `x * y + c` into an
//! FMA nor reassociates, so every element is bit-identical to its
//! reference whatever the tile, block or panel it lands in. Zero entries
//! of `A` are **not** skipped: `0.0 × inf` and `0.0 × NaN` must propagate
//! per IEEE 754 (`nan_and_inf_propagate` in `tests/properties.rs`).
//!
//! Every kernel takes a [`ParallelCtx`] (`ParallelCtx::serial()` for one
//! thread) and forks the computation over contiguous panels of **output
//! rows**. Each panel runs the identical serial walk over its own rows and
//! no thread touches another panel's rows, so the parallel results are
//! bit-for-bit identical to serial for every thread count.

use crate::matrix::Mat;
use cagnet_parallel::ParallelCtx;
use core::ops::Range;

/// Register-tile rows: `A` values per rank-1 step, each broadcast across
/// the tile's columns.
const MR: usize = 4;
/// Widest register tile: `MR × NR` = 64 `f64` accumulators, eight 512-bit
/// or sixteen 256-bit vectors, leaving registers for the `B` row.
const NR: usize = 16;

/// NN folds the whole shared dimension into each tile up to this many
/// output columns: the `k × n` operand `B` stays in L2 while the tiles
/// walk down the rows of `A`, and `A` streams through once.
const WHOLE_K_N: usize = 64;
/// Wider NN products fold `KC`-step blocks of `NC`-column panels, so the
/// `KC × NC` block of `B` a tile row reuses stays in L2.
const KC: usize = 128;
const NC: usize = 256;

/// TN folds this many rows of `A` into every tile of `C` before moving on,
/// so `A` is read in storage order through a block that stays in L1 while
/// the tiles walk across it, and `C` is loaded and stored once per block
/// rather than once per row of `A`. Tiles that instead fold all of `k`
/// read a wide `A` down its columns, a new page every row.
const TN_KC: usize = 16;

/// NT transposes `NT_KC` columns by `NT_NC` rows of `B` into a stack block
/// and keeps the partial sums of `NT_MB` rows of `C` beside it.
const NT_KC: usize = 128;
const NT_NC: usize = 32;
const NT_MB: usize = 64;

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
    let (a, b) = (a.as_slice(), b.as_slice());
    let (kc, nc) = if n <= WHOLE_K_N { (k, n) } else { (KC, NC) };
    ctx.par_rows(m, n, c.as_mut_slice(), MIN_PAR_ROWS, |rows, c| {
        for jc in (0..n).step_by(nc) {
            for pc in (0..k).step_by(kc) {
                let steps = pc..k.min(pc + kc);
                let mut nn = Operands {
                    a: (a, k, 1),
                    b: (b, 0),
                    c: (c, rows.start),
                    ld: n,
                    j0: 0,
                    steps,
                };
                walk(&mut nn, rows.clone(), jc..n.min(jc + nc));
            }
        }
    });
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
/// `ctx`. Every worker reads all `k` rows of `A` in storage order,
/// restricted to its own columns.
pub fn matmul_tn_acc_with(ctx: ParallelCtx, a: &Mat, b: &Mat, c: &mut Mat) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_tn_acc: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_tn_acc: output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let (a, b) = (a.as_slice(), b.as_slice());
    // The output here is small (f x f); forking pays off only when A is
    // wide enough that each worker still owns several columns.
    ctx.par_rows(m, n, c.as_mut_slice(), MR, |rows, c| {
        for pc in (0..k).step_by(TN_KC) {
            let steps = pc..k.min(pc + TN_KC);
            let mut tn = Operands {
                a: (a, 1, m),
                b: (b, 0),
                c: (c, rows.start),
                ld: n,
                j0: 0,
                steps,
            };
            walk(&mut tn, rows.clone(), 0..n);
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
/// then added to `C` once, so `k = 0` still adds `+0.0`.
pub fn matmul_nt_acc_with(ctx: ParallelCtx, a: &Mat, b: &Mat, c: &mut Mat) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "matmul_nt: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_nt_acc: output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let (a, b) = (a.as_slice(), b.as_slice());
    ctx.par_rows(m, n, c.as_mut_slice(), MIN_PAR_ROWS, |rows, c| {
        let mut bt = [0.0; NT_KC * NT_NC];
        let mut sums = [0.0; NT_MB * NT_NC];
        for jc in (0..n).step_by(NT_NC) {
            let nc = NT_NC.min(n - jc);
            for ib in rows.clone().step_by(NT_MB) {
                let mb = NT_MB.min(rows.end - ib);
                let sums = &mut sums[..mb * nc];
                sums.fill(0.0);
                for pc in (0..k).step_by(NT_KC) {
                    let kc = NT_KC.min(k - pc);
                    // `bt[q·nc + t] = B[jc + t][pc + q]`: a `kc × nc` block of `Bᵀ`.
                    for t in 0..nc {
                        let row = &b[(jc + t) * k + pc..(jc + t) * k + pc + kc];
                        for (q, &x) in row.iter().enumerate() {
                            bt[q * nc + t] = x;
                        }
                    }
                    let mut nt = Operands {
                        a: (a, k, 1),
                        b: (&bt[..kc * nc], pc),
                        c: (&mut *sums, ib),
                        ld: nc,
                        j0: jc,
                        steps: pc..pc + kc,
                    };
                    walk(&mut nt, ib..ib + mb, jc..jc + nc);
                }
                for (r, part) in sums.chunks_exact(nc).enumerate() {
                    let at = (ib + r - rows.start) * n + jc;
                    for (cv, &s) in c[at..at + nc].iter_mut().zip(part) {
                        *cv += s;
                    }
                }
            }
        }
    });
}

/// One product as `walk` sees it, in the logical terms of `C += A·B`
/// over the output rows and columns it is handed:
///
/// - `a = (a, row, step)`: `A[i][p]` is `a[i·row + p·step]` — NN and NT
///   read a row-major `A`, TN reads it transposed;
/// - `b = (b, p0)`: row `p` of `B` starts at `b[(p − p0)·ld]`;
/// - `c = (c, i0)`: `C[i][j]` is `c[(i − i0)·ld + j − j0]`, and column `j`
///   of `B` lies `j − j0` into its row;
/// - `steps`: the shared-dimension steps every tile folds.
struct Operands<'a> {
    a: (&'a [f64], usize, usize),
    b: (&'a [f64], usize),
    c: (&'a mut [f64], usize),
    ld: usize,
    j0: usize,
    steps: Range<usize>,
}

impl Operands<'_> {
    /// Loads the `R × W` tile of `C` at row `i`, column `j`, folds
    /// `steps` into it and stores it back.
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(&mut self, i: usize, j: usize) {
        let ((a, row, step), (b, p0)) = (self.a, self.b);
        let (ld, t) = (self.ld, j - self.j0);
        let at = (i - self.c.1) * ld + t;
        let mut acc: [[f64; W]; R] = core::array::from_fn(|r| {
            let mut lane = [0.0; W];
            lane.copy_from_slice(&self.c.0[at + r * ld..at + r * ld + W]);
            lane
        });
        for p in self.steps.clone() {
            let b = &b[(p - p0) * ld + t..(p - p0) * ld + t + W];
            for (r, lane) in acc.iter_mut().enumerate() {
                let x = a[(i + r) * row + p * step];
                for (cv, &y) in lane.iter_mut().zip(b) {
                    *cv += x * y;
                }
            }
        }
        for (r, lane) in acc.iter().enumerate() {
            self.c.0[at + r * ld..at + r * ld + W].copy_from_slice(lane);
        }
    }
}

/// Covers `rows × cols` with tiles: `MR`-row tiles, then single rows;
/// along each, `NR`-column tiles, then one of `NR / 2`, then single
/// columns.
fn walk(ops: &mut Operands, rows: Range<usize>, cols: Range<usize>) {
    let mut i = rows.start;
    while i + MR <= rows.end {
        strip::<MR>(ops, i, cols.clone());
        i += MR;
    }
    for i in i..rows.end {
        strip::<1>(ops, i, cols.clone());
    }
}

#[inline(always)]
fn strip<const R: usize>(ops: &mut Operands, i: usize, cols: Range<usize>) {
    let mut j = cols.start;
    while j + NR <= cols.end {
        ops.tile::<R, NR>(i, j);
        j += NR;
    }
    if j + NR / 2 <= cols.end {
        ops.tile::<R, { NR / 2 }>(i, j);
        j += NR / 2;
    }
    for j in j..cols.end {
        ops.tile::<R, 1>(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::matmul_reference;

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
            (37, 300, 200),
        ] {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let fast = matmul_with(ParallelCtx::serial(), &a, &b);
            assert_eq!(fast, matmul_reference(&a, &b), "mismatch at {m}x{k}x{n}");
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
        // `k = 0` leaves NN and TN alone, and NT adds its `+0.0` sum.
        let one = ParallelCtx::serial();
        let mut c = Mat::filled(4, 3, -0.0);
        matmul_acc_with(one, &a, &b, &mut c);
        matmul_tn_acc_with(one, &Mat::zeros(0, 4), &b, &mut c);
        assert!(c
            .as_slice()
            .iter()
            .all(|x| x.to_bits() == (-0.0f64).to_bits()));
        matmul_nt_acc_with(one, &a, &Mat::zeros(3, 0), &mut c);
        assert!(c.as_slice().iter().all(|x| x.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn dim_mismatch_panics() {
        let _ = matmul_with(ParallelCtx::serial(), &Mat::zeros(2, 3), &Mat::zeros(4, 2));
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Awkward shapes spanning multiple KC/NC blocks, plus the
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
