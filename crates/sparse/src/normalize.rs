//! GCN adjacency normalization.
//!
//! The paper (§III-B, following Kipf & Welling) forms the modified
//! adjacency matrix `Â = D^{-1/2} (A + I) D^{-1/2}` where the self-loops
//! "ensure that each node does not forget its embedding" and `D` is the
//! diagonal of modified degrees. All training algorithms operate on `Â`,
//! which the paper continues to call `A`.

use crate::coo::Coo;
use crate::csr::Csr;

/// Add self-loops: `A + I`. Entries already on the diagonal get `+1`.
pub fn add_self_loops(a: &Csr) -> Csr {
    assert_eq!(a.rows(), a.cols(), "self-loops require a square matrix");
    let mut coo = a.to_coo();
    for i in 0..a.rows() {
        coo.push(i, i, 1.0);
    }
    Csr::from_coo(coo)
}

/// Symmetric GCN normalization of an adjacency matrix *that already
/// includes self-loops*: `D^{-1/2} M D^{-1/2}`, with `D[i] = Σ_j M[i,j]`.
///
/// With self-loops present every row sum is ≥ 1, so no division by zero can
/// occur.
pub fn sym_normalize(m: &Csr) -> Csr {
    assert_eq!(m.rows(), m.cols(), "normalization requires square");
    let n = m.rows();
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
    Csr::from_coo(coo)
}

/// The full GCN preprocessing pipeline: `Â = D^{-1/2}(A + I)D^{-1/2}`.
pub fn gcn_normalize(a: &Csr) -> Csr {
    sym_normalize(&add_self_loops(a))
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
