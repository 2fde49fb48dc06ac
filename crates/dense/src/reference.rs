//! Pre-optimization reference kernels, kept for benchmarking.
//!
//! These are the scalar cache-blocked loops that `gemm.rs` shipped before
//! the `MR×NR` micro-kernel landed (DESIGN.md §14), minus the IEEE-breaking
//! `aval == 0.0` skip, and the `log_softmax` / `softmax` pair the trainers
//! called before the one-`exp` output-layer kernel replaced it. They exist
//! so `kernel_bench` can report an honest old-vs-new wall-clock ratio on
//! the same shapes, and as a second, structurally different implementation
//! for differential tests. They are **not** called by any trainer.
//!
//! This module is a blessed micro-kernel module for the `scalar-hot-loop`
//! lint (see `crates/check/src/lint/rules.rs`): raw multiply-accumulate
//! loops are expected here.

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
