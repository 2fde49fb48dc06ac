//! Pre-specialization reference SpMM kernel, kept for differential tests.
//!
//! This is the per-nonzero axpy row loop that `spmm.rs` shipped before
//! the width-specialized / column-tiled kernels landed (DESIGN.md §14).
//! Tests are its only users: a structurally different implementation
//! whose results the new kernels must match bit for bit, since they fold
//! each output element's products in the same stored-entry order. It is
//! **not** called by any trainer.

use crate::csr::Csr;
use cagnet_dense::Mat;

/// `C += A · B` with the historical scalar row loop: stream each stored
/// entry's `B` row against the `C` row in memory.
pub fn spmm_acc_reference(a: &Csr, b: &Mat, c: &mut Mat) {
    assert_eq!(a.cols(), b.rows(), "spmm_acc_reference: inner dims");
    assert_eq!(
        c.shape(),
        (a.rows(), b.cols()),
        "spmm_acc_reference: output shape"
    );
    let f = b.cols();
    if f == 0 {
        return;
    }
    let bv = b.as_slice();
    let cv = c.as_mut_slice();
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let vals = a.vals();
    for i in 0..a.rows() {
        let crow = &mut cv[i * f..(i + 1) * f];
        for k in row_ptr[i]..row_ptr[i + 1] {
            let aval = vals[k];
            let brow = &bv[col_idx[k] * f..(col_idx[k] + 1) * f];
            for (cj, &bval) in crow.iter_mut().zip(brow) {
                *cj += aval * bval;
            }
        }
    }
}

/// `C = A · B` through [`spmm_acc_reference`].
pub fn spmm_reference(a: &Csr, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.rows(), b.cols());
    spmm_acc_reference(a, b, &mut c);
    c
}
