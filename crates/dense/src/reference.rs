//! Pre-optimization reference kernels, kept for differential tests.
//!
//! These are the scalar loops `gemm.rs` shipped before the register tile
//! served its three products (DESIGN.md §14) — the cache-blocked NN loop,
//! minus the IEEE-breaking `aval == 0.0` skip, the TN outer-product loop
//! and the NT dot-product loop — and the `log_softmax` / `softmax` pair
//! the trainers called before the one-`exp` output-layer kernel replaced
//! it. Tests are their only users: a second, structurally different
//! implementation the optimized kernels must match to the bit. They are
//! **not** called by any trainer.

use crate::matrix::Mat;

/// Blocking sizes matching the historical kernel.
const MC: usize = 64;
const KC: usize = 128;
const NC: usize = 256;

/// `C += A · B` with the pre-register-blocking scalar kernel: the
/// cache-blocked i-k-j loop streaming one `B` row against one `C` row per
/// shared-dimension step.
pub fn matmul_acc_reference(a: &Mat, b: &Mat, c: &mut Mat) {
    let (m, k) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_acc_reference: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_acc_reference: output shape");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let av = a.as_slice();
    let bv = b.as_slice();
    let cv = c.as_mut_slice();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for i in ic..ic + mc {
                    let arow = &av[i * k + pc..i * k + pc + kc];
                    let crow = &mut cv[i * n + jc..i * n + jc + nc];
                    for (p, &aval) in arow.iter().enumerate() {
                        let brow = &bv[(pc + p) * n + jc..(pc + p) * n + jc + nc];
                        for (cj, &bval) in crow.iter_mut().zip(brow) {
                            *cj += aval * bval;
                        }
                    }
                }
            }
        }
    }
}

/// `C = A · B` through [`matmul_acc_reference`].
pub fn matmul_reference(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    matmul_acc_reference(a, b, &mut c);
    c
}

/// `C += Aᵀ · B` as `gemm.rs` computed it before the register tile: an
/// outer-product loop that adds row `p` of `A` times row `p` of `B` into
/// every row of `C`, `p` ascending.
pub fn matmul_tn_acc_reference(a: &Mat, b: &Mat, c: &mut Mat) {
    let (k, m) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(k, kb, "matmul_tn_acc_reference: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_tn_acc_reference: output shape");
    let av = a.as_slice();
    let bv = b.as_slice();
    let cv = c.as_mut_slice();
    for p in 0..k {
        let arow = &av[p * m..(p + 1) * m];
        let brow = &bv[p * n..(p + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            let crow = &mut cv[i * n..(i + 1) * n];
            for (cj, &bval) in crow.iter_mut().zip(brow) {
                *cj += aval * bval;
            }
        }
    }
}

/// `C += A · Bᵀ` as `gemm.rs` computed it before the register tile: one
/// dot product per element, folded from `+0.0` in ascending `p` and then
/// added to `C`.
pub fn matmul_nt_acc_reference(a: &Mat, b: &Mat, c: &mut Mat) {
    let (m, k) = a.shape();
    let (n, kb) = b.shape();
    assert_eq!(k, kb, "matmul_nt_acc_reference: inner dimension mismatch");
    assert_eq!(c.shape(), (m, n), "matmul_nt_acc_reference: output shape");
    let av = a.as_slice();
    let bv = b.as_slice();
    let cv = c.as_mut_slice();
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let crow = &mut cv[i * n..(i + 1) * n];
        for (j, cval) in crow.iter_mut().enumerate() {
            let brow = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *cval += acc;
        }
    }
}

/// Row-wise softmax as the trainers computed it before
/// [`crate::activation`]'s one-`exp` row kernel: a denominator pass and a
/// normalizing pass, each evaluating `exp(z − max)`.
pub fn softmax_rows_into(z: &Mat, out: &mut Mat) {
    out.copy_from(z);
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0;
        for &x in row.iter() {
            denom += (x - m).exp();
        }
        for x in row.iter_mut() {
            *x = (*x - m).exp() / denom;
        }
    }
}

/// Row-wise `log_softmax` as the trainers computed it next to
/// [`softmax_rows_into`]: a third `exp(z − max)` per element.
pub fn log_softmax_rows_into(z: &Mat, out: &mut Mat) {
    out.copy_from(z);
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f64>().ln();
        for x in row.iter_mut() {
            *x -= lse;
        }
    }
}
