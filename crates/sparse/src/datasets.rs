//! Synthetic stand-ins for the paper's datasets (Table VI).
//!
//! | Name    | Vertices  | Edges         | Features | Labels |
//! |---------|-----------|---------------|----------|--------|
//! | Reddit  | 232,965   | 114,848,857   | 602      | 41     |
//! | Amazon  | 9,430,088 | 231,594,310   | 300      | 24     |
//! | Protein | 8,745,542 | 1,058,120,062 | 128      | 256    |
//!
//! We cannot ship the original data, and this substrate is a single-node
//! simulator, so each dataset is realized as a seeded symmetric R-MAT graph
//! whose **average degree, feature length, and label count match the paper**
//! while the vertex count is scaled down by a configurable factor. The
//! paper itself replaces Amazon/Protein feature values with random numbers
//! (§V-C), so random features lose nothing. What the relative-cost results
//! depend on — `n`, `nnz = d·n`, `f`, `L`, `P` — is preserved in ratio.

use crate::csr::Csr;
use crate::generate::{permute_symmetric, rmat_symmetric, RmatParams};
use crate::normalize::gcn_normalize;

/// Shape parameters of a dataset in the paper's Table VI sense.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Paper's vertex count.
    pub paper_vertices: usize,
    /// Paper's (directed) edge count.
    pub paper_edges: usize,
    /// Input feature length `f⁰`.
    pub features: usize,
    /// Output label count.
    pub labels: usize,
    /// Hidden-layer width of the 3-layer GCN used in the paper's runs
    /// (16, the Kipf–Welling default).
    pub hidden: usize,
}

impl DatasetSpec {
    /// Paper average degree `d = nnz / n`.
    pub fn paper_avg_degree(&self) -> f64 {
        self.paper_edges as f64 / self.paper_vertices as f64
    }
}

/// Reddit (Table VI row 1): 232,965 vertices, 114.8M edges, d ≈ 493,
/// f = 602, 41 labels.
pub const REDDIT: DatasetSpec = DatasetSpec {
    name: "reddit",
    paper_vertices: 232_965,
    paper_edges: 114_848_857,
    features: 602,
    labels: 41,
    hidden: 16,
};

/// Amazon (Table VI row 2): 9,430,088 vertices, 231.6M edges, d ≈ 24.6,
/// f = 300, 24 labels.
pub const AMAZON: DatasetSpec = DatasetSpec {
    name: "amazon",
    paper_vertices: 9_430_088,
    paper_edges: 231_594_310,
    features: 300,
    labels: 24,
    hidden: 16,
};

/// Protein (Table VI row 3): 8,745,542 vertices, 1.058B edges, d ≈ 121,
/// f = 128, 256 labels.
pub const PROTEIN: DatasetSpec = DatasetSpec {
    name: "protein",
    paper_vertices: 8_745_542,
    paper_edges: 1_058_120_062,
    features: 128,
    labels: 256,
    hidden: 16,
};

/// All three paper datasets.
pub const ALL: [DatasetSpec; 3] = [REDDIT, AMAZON, PROTEIN];

/// A generated dataset instance: normalized adjacency plus its shape
/// metadata.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which spec this instance realizes.
    pub spec: DatasetSpec,
    /// GCN-normalized adjacency `Â = D^{-1/2}(A+I)D^{-1/2}`, randomly
    /// vertex-permuted (the paper's load-balancing step).
    pub adj: Csr,
    /// Actual vertex count of this (possibly scaled) instance.
    pub vertices: usize,
    /// Average degree of the *raw* generated graph (before self loops).
    pub avg_degree: f64,
}

/// Generate a scaled instance of a dataset spec.
///
/// `scale_down` divides the paper vertex count; the vertex count is then
/// rounded to the nearest power of two for R-MAT, and the edges-per-vertex
/// target is the paper's average degree (capped by `max_degree` to keep
/// single-node instances tractable for Reddit's d≈493).
pub fn generate(spec: &DatasetSpec, scale_down: usize, max_degree: usize, seed: u64) -> Dataset {
    assert!(scale_down >= 1, "scale_down must be >= 1");
    let target_n = (spec.paper_vertices / scale_down).max(64);
    let scale = (usize::BITS - 1 - target_n.leading_zeros()).max(6);
    let d = (spec.paper_avg_degree().round() as usize)
        .clamp(1, max_degree)
        // Symmetrization roughly doubles edges; halve the per-vertex target
        // so the realized average degree tracks the paper's d.
        .div_ceil(2)
        .max(1);
    let raw = rmat_symmetric(scale, d, RmatParams::default(), seed);
    let (permuted, _) = permute_symmetric(&raw, seed ^ 0x5eed);
    // Freed before the normalized copy is built, so the three graphs are
    // never resident at once.
    drop(raw);
    let avg_degree = permuted.avg_degree();
    let adj = gcn_normalize(&permuted);
    Dataset {
        spec: *spec,
        vertices: adj.rows(),
        adj,
        avg_degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_table6() {
        assert_eq!(REDDIT.paper_vertices, 232_965);
        assert_eq!(AMAZON.paper_edges, 231_594_310);
        assert_eq!(PROTEIN.labels, 256);
        assert!((REDDIT.paper_avg_degree() - 493.0).abs() < 1.0);
        assert!((AMAZON.paper_avg_degree() - 24.6).abs() < 0.1);
        assert!((PROTEIN.paper_avg_degree() - 121.0).abs() < 1.0);
    }

    #[test]
    fn generate_scaled_amazon() {
        let ds = generate(&AMAZON, 1024, 64, 1);
        assert_eq!(ds.adj.rows(), ds.vertices);
        assert!(ds.vertices >= 4096, "vertices {} too small", ds.vertices);
        // Average degree in the right ballpark (R-MAT dedup loses some).
        assert!(
            ds.avg_degree > 5.0 && ds.avg_degree < 50.0,
            "avg degree {} out of range",
            ds.avg_degree
        );
        // Normalized adjacency is symmetric with self loops.
        assert!(ds.adj.get(0, 0) > 0.0);
    }

    #[test]
    fn generate_is_deterministic() {
        let a = generate(&REDDIT, 4096, 32, 9);
        let b = generate(&REDDIT, 4096, 32, 9);
        assert_eq!(a.adj, b.adj);
    }

    #[test]
    fn degree_cap_respected_in_target() {
        // Reddit's paper degree is ~493; the cap keeps instance tractable.
        let ds = generate(&REDDIT, 4096, 16, 2);
        // Post-symmetrization realized degree stays within a small factor
        // of the cap.
        assert!(ds.avg_degree <= 2.5 * 16.0);
    }
}
