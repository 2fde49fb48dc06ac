//! GCN adjacency normalization.
//!
//! The paper (§III-B, following Kipf & Welling) forms the modified
//! adjacency matrix `Â = D^{-1/2} (A + I) D^{-1/2}` where the self-loops
//! "ensure that each node does not forget its embedding" and `D` is the
//! diagonal of modified degrees. All training algorithms operate on `Â`,
//! which the paper continues to call `A`.
//!
//! Both steps keep the input's CSR layout: the self-loops are merged into
//! each sorted row, and the scaling rewrites values over the unchanged
//! pattern (DESIGN.md §11).

use crate::csr::Csr;

/// Add self-loops: `A + I`. Entries already on the diagonal get `+1`.
pub fn add_self_loops(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "self-loops require a square matrix");
    let n = a.rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::with_capacity(a.nnz() + n);
    let mut vals = Vec::with_capacity(a.nnz() + n);
    for i in 0..n {
        let (lo, hi) = (a.row_ptr()[i], a.row_ptr()[i + 1]);
        let (cols, row_vals) = (&a.col_idx()[lo..hi], &a.vals()[lo..hi]);
        // Columns below the diagonal, the diagonal (+1, or a new 1), the rest.
        let at = cols.partition_point(|&j| j < i);
        let (diag, rest) = match cols.get(at) {
            Some(&j) if j == i => (row_vals[at] + 1.0, at + 1),
            _ => (1.0, at),
        };
        col_idx.extend_from_slice(&cols[..at]);
        vals.extend_from_slice(&row_vals[..at]);
        col_idx.push(i);
        vals.push(diag);
        col_idx.extend_from_slice(&cols[rest..]);
        vals.extend_from_slice(&row_vals[rest..]);
        row_ptr.push(col_idx.len());
    }
    Csr::from_raw(n, n, row_ptr, col_idx, vals)
}

/// Symmetric GCN normalization of an adjacency matrix *that already
/// includes self-loops*: `D^{-1/2} M D^{-1/2}`, with `D[i] = Σ_j M[i,j]`.
///
/// With self-loops present every row sum is ≥ 1, so no division by zero can
/// occur.
pub fn sym_normalize(m: &Csr) -> Csr {
    scale_symmetric(m.clone())
}

/// [`sym_normalize`] in place: `inv[i] · v · inv[j]` over `m`'s pattern,
/// each degree summed along its row in column order.
fn scale_symmetric(m: Csr) -> Csr {
    assert_eq!(m.rows(), m.cols(), "normalization requires square");
    let inv_sqrt: Vec<f64> = (0..m.rows())
        .map(|i| {
            let d: f64 = m.row_entries(i).fold(0.0, |d, (_, v)| d + v);
            if d > 0.0 {
                d.powf(-0.5)
            } else {
                0.0
            }
        })
        .collect();
    m.map_entries(|i, j, v| inv_sqrt[i] * v * inv_sqrt[j])
}

/// The full GCN preprocessing pipeline: `Â = D^{-1/2}(A + I)D^{-1/2}`.
pub fn gcn_normalize(a: &Csr) -> Csr {
    scale_symmetric(add_self_loops(a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn path_graph(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        Csr::from_coo(coo)
    }

    #[test]
    fn self_loops_add_diagonal() {
        let a = path_graph(3);
        let al = add_self_loops(&a);
        assert_eq!(al.nnz(), a.nnz() + 3);
        for i in 0..3 {
            assert_eq!(al.get(i, i), 1.0);
        }
    }

    #[test]
    fn self_loops_increment_existing_diagonal() {
        let a = Csr::from_coo(Coo::from_entries(2, 2, vec![(0, 0, 2.0)]));
        let al = add_self_loops(&a);
        assert_eq!(al.get(0, 0), 3.0);
        assert_eq!(al.get(1, 1), 1.0);
    }

    #[test]
    fn normalized_matrix_is_symmetric_for_undirected_input() {
        let ahat = gcn_normalize(&path_graph(5));
        let t = ahat.transpose();
        assert!(ahat.to_dense().approx_eq(&t.to_dense(), 1e-14));
    }

    #[test]
    fn normalization_values_on_path() {
        // Path of 2 vertices + self loops: each row sum of A+I is 2, so
        // every entry becomes 1/2.
        let ahat = gcn_normalize(&path_graph(2));
        for i in 0..2 {
            for j in 0..2 {
                assert!((ahat.get(i, j) - 0.5).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn isolated_vertex_is_safe() {
        // Vertex 2 has no edges; with self-loop its degree is 1.
        let a = Csr::from_coo(Coo::from_entries(3, 3, vec![(0, 1, 1.0), (1, 0, 1.0)]));
        let ahat = gcn_normalize(&a);
        assert_eq!(ahat.get(2, 2), 1.0);
        assert!(ahat.vals().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn spectral_radius_at_most_one() {
        // Power iteration: ||Âx|| / ||x|| should stay <= 1 for the GCN
        // normalization (its spectrum lies in [-1, 1]).
        let ahat = gcn_normalize(&path_graph(16));
        let mut x = cagnet_dense::Mat::filled(16, 1, 1.0);
        for _ in 0..30 {
            let y = crate::spmm::spmm_with(crate::ParallelCtx::serial(), &ahat, &x);
            let ny = y.frobenius();
            let nx = x.frobenius();
            assert!(ny <= nx * (1.0 + 1e-12), "norm grew: {ny} > {nx}");
            x = y;
            if x.frobenius() == 0.0 {
                break;
            }
        }
    }
}
