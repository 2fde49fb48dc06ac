//! Superseded implementations, kept as oracles for differential tests.
//!
//! * The per-nonzero axpy row loop that `spmm.rs` shipped before the
//!   width-specialized / column-tiled kernels landed (DESIGN.md §14). The
//!   new kernels must match it bit for bit, since they fold each output
//!   element's products in the same stored-entry order.
//! * The triplet-sorting graph builders that [`Csr::from_coo`],
//!   [`crate::generate`] and [`crate::normalize`] used before assembly
//!   went straight to CSR (DESIGN.md §11): every graph went to COO, was
//!   sorted row-major with duplicates summed, and came back. The direct
//!   builders must reproduce their output bit for bit.
//!
//! Tests are the only users; **no** trainer or generator calls these.

use crate::coo::Coo;
use crate::csr::Csr;
use crate::generate::{rmat_edges, RmatParams};
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

/// [`Csr::from_coo`] by sorting: triplets sorted row-major (unstable),
/// duplicate coordinates summed, then laid out as CSR.
pub fn from_coo_reference(coo: Coo) -> Csr {
    let (rows, cols) = (coo.rows(), coo.cols());
    let mut entries = coo.entries().to_vec();
    entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
    let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
    for (r, c, v) in entries {
        match merged.last_mut() {
            Some(last) if last.0 == r && last.1 == c => last.2 += v,
            _ => merged.push((r, c, v)),
        }
    }
    let mut row_ptr = vec![0usize; rows + 1];
    for &(r, _, _) in &merged {
        row_ptr[r + 1] += 1;
    }
    for i in 0..rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    let col_idx = merged.iter().map(|e| e.1).collect();
    let vals = merged.iter().map(|e| e.2).collect();
    Csr::from_raw(rows, cols, row_ptr, col_idx, vals)
}

/// [`crate::generate::rmat`] by sorting: the same sampled edges pushed
/// as unit triplets and sorted.
pub fn rmat_reference(scale: u32, edges_per_vertex: usize, params: RmatParams, seed: u64) -> Csr {
    let (n, pairs) = rmat_edges(scale, edges_per_vertex, params, seed);
    let mut coo = Coo::new(n, n);
    for (r, c) in pairs {
        coo.push(r, c, 1.0);
    }
    from_coo_reference(coo)
}

/// `A + Aᵀ` (diagonal once) by mirroring every off-diagonal triplet and
/// re-sorting: the old `rmat_symmetric` / `planted_partition` tail.
pub fn symmetrize_reference(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "symmetrize requires square");
    let mut coo = a.to_coo();
    let mirrored: Vec<(usize, usize, f64)> = coo
        .entries()
        .iter()
        .filter(|&&(r, c, _)| r != c)
        .map(|&(r, c, v)| (c, r, v))
        .collect();
    for (r, c, v) in mirrored {
        coo.push(r, c, v);
    }
    from_coo_reference(coo)
}

/// `P A Pᵀ` by pushing every relabeled triplet and re-sorting.
pub fn apply_permutation_reference(a: &Csr, perm: &[usize]) -> Csr {
    assert_eq!(a.rows(), perm.len(), "permutation length mismatch");
    let mut coo = Coo::new(a.rows(), a.cols());
    for i in 0..a.rows() {
        for (j, v) in a.row_entries(i) {
            coo.push(perm[i], perm[j], v);
        }
    }
    from_coo_reference(coo)
}

/// `D^{-1/2}(A + I)D^{-1/2}` through two triplet round trips: one to add
/// the self-loops, one to scale every entry.
pub fn gcn_normalize_reference(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "self-loops require a square matrix");
    let n = a.rows();
    let mut coo = a.to_coo();
    for i in 0..n {
        coo.push(i, i, 1.0);
    }
    let m = from_coo_reference(coo);
    let mut deg = vec![0.0f64; n];
    for (i, d) in deg.iter_mut().enumerate() {
        for (_, v) in m.row_entries(i) {
            *d += v;
        }
    }
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { d.powf(-0.5) } else { 0.0 })
        .collect();
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        for (j, v) in m.row_entries(i) {
            coo.push(i, j, inv_sqrt[i] * v * inv_sqrt[j]);
        }
    }
    from_coo_reference(coo)
}
