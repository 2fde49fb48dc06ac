//! Seeded random graph generators.
//!
//! Two families, matching the paper's analysis and datasets:
//!
//! * **Erdős–Rényi** `G(n, d/n)` — the model the paper uses for its §IV-A.3
//!   sparsity analysis of 1D outer products ("let us assume we have an
//!   Erdős–Rényi graph G(n, d/n) where each possible directed edge occurs
//!   with probability d/n").
//! * **R-MAT / Kronecker** — scale-free graphs with heavy-tailed degree
//!   distributions, standing in for the paper's Reddit / Amazon / Protein
//!   datasets (§V-A); the power-law structure is what produces the load
//!   imbalance and hypersparsity effects the paper discusses (§VI).
//!
//! All generators take explicit seeds and are deterministic. They draw
//! their edges as `(row, col)` pairs and assemble CSR directly — bucketed
//! by row, each row sorted, repeats counted — and undirected graphs are
//! the sum with the counting-sort transpose ([`Csr::symmetrized`]); no
//! triplet list is ever sorted (DESIGN.md §11).

use crate::csr::{Csr, RowBuckets};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Erdős–Rényi digraph `G(n, p)` with `p = avg_degree / n`; expected
/// `avg_degree · n` directed edges, weight 1.0, no self loops.
///
/// Uses geometric skipping, so the cost is O(edges), not O(n²).
pub fn erdos_renyi(n: usize, avg_degree: f64, seed: u64) -> Csr {
    assert!(n > 0, "empty graph");
    let p = (avg_degree / n as f64).clamp(0.0, 1.0);
    let mut pairs = Vec::new();
    if p > 0.0 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let total = (n as u128) * (n as u128);
        let log1mp = (1.0 - p).ln();
        let mut idx: u128 = 0;
        loop {
            // Geometric gap to the next present edge.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = if p >= 1.0 {
                1
            } else {
                (u.ln() / log1mp).floor() as u128 + 1
            };
            idx = idx.saturating_add(gap);
            if idx > total {
                break;
            }
            let flat = (idx - 1) as usize;
            let r = flat / n;
            let c = flat % n;
            if r != c {
                pairs.push((r, c));
            }
        }
    }
    count_matrix(n, &pairs)
}

/// The `n x n` count matrix of `pairs`: entry `(r, c)` is how often the
/// pair occurs (1.0 per occurrence, summed).
fn count_matrix(n: usize, pairs: &[(usize, usize)]) -> Csr {
    let mut buckets = RowBuckets::new(n, pairs.iter().map(|&(r, _)| r));
    for &(r, c) in pairs {
        buckets.push(r, c, 1.0);
    }
    buckets.assemble(n)
}

/// Parameters of the R-MAT recursive quadrant distribution. The classic
/// "nice" parameters `(0.57, 0.19, 0.19, 0.05)` give a scale-free graph.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
}

impl Default for RmatParams {
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Vertex and sampled-edge counts of an R-MAT draw: `2^scale` vertices
/// and `edges_per_vertex · 2^scale` edges — the limits [`rmat`] checks.
///
/// # Errors
/// `"scale must be below {usize::BITS}, got {scale}"` when `2^scale`
/// does not fit a `usize`, and `"2^{scale} · {edges_per_vertex} edges
/// overflow usize"` when the edge count does not.
pub fn rmat_size(scale: u32, edges_per_vertex: usize) -> Result<(usize, usize), String> {
    if scale >= usize::BITS {
        return Err(format!("scale must be below {}, got {scale}", usize::BITS));
    }
    let n = 1usize << scale;
    match n.checked_mul(edges_per_vertex) {
        Some(m) => Ok((n, m)),
        None => Err(format!(
            "2^{scale} · {edges_per_vertex} edges overflow usize"
        )),
    }
}

/// R-MAT (Kronecker) graph on `2^scale` vertices with `edges_per_vertex ·
/// 2^scale` sampled directed edges (duplicates merged, self-loops dropped,
/// weight 1.0). Optionally symmetrized by the caller.
///
/// # Panics
/// Panics with [`rmat_size`]'s message when the vertex or edge count
/// overflows `usize`.
pub fn rmat(scale: u32, edges_per_vertex: usize, params: RmatParams, seed: u64) -> Csr {
    let (n, pairs) = rmat_edges(scale, edges_per_vertex, params, seed);
    count_matrix(n, &pairs)
}

/// The vertex count and the directed edges [`rmat`] samples, in draw
/// order, self-loops dropped.
///
/// # Panics
/// As [`rmat`].
pub(crate) fn rmat_edges(
    scale: u32,
    edges_per_vertex: usize,
    params: RmatParams,
    seed: u64,
) -> (usize, Vec<(usize, usize)>) {
    let (n, m) = match rmat_size(scale, edges_per_vertex) {
        Ok(size) => size,
        Err(e) => panic!("rmat: {e}"),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pairs = Vec::with_capacity(m);
    // Slight per-level noise decorrelates the quadrant probabilities, the
    // standard trick to avoid exactly-repeating Kronecker structure.
    for _ in 0..m {
        let mut r = 0usize;
        let mut c = 0usize;
        for level in 0..scale {
            let bit = 1usize << (scale - 1 - level);
            let u: f64 = rng.gen();
            let noise = 0.9 + 0.2 * rng.gen::<f64>();
            let a = params.a * noise;
            let b = params.b * noise;
            let cc = params.c * noise;
            let total = a + b + cc + (1.0 - params.a - params.b - params.c) * noise;
            let u = u * total;
            // Quadrants a | b / c | d: the lower half is c or d, the
            // right half b or d. Branch-free: the draws are random, so
            // each branch would be a coin flip for the predictor.
            let lower = u >= a + b;
            let right = (u >= a && !lower) || u >= a + b + cc;
            r |= bit * usize::from(lower);
            c |= bit * usize::from(right);
        }
        if r != c {
            pairs.push((r, c));
        }
    }
    (n, pairs)
}

/// Undirected (symmetrized) R-MAT graph — the common benchmark shape:
/// the count matrix plus its transpose.
///
/// # Panics
/// As [`rmat`].
pub fn rmat_symmetric(scale: u32, edges_per_vertex: usize, params: RmatParams, seed: u64) -> Csr {
    rmat(scale, edges_per_vertex, params, seed).symmetrized()
}

/// Parameters for [`planted_partition`].
#[derive(Clone, Copy, Debug)]
pub struct PlantedPartitionParams {
    /// Number of equally-sized communities.
    pub communities: usize,
    /// Average intra-community degree per vertex.
    pub degree_in: f64,
    /// Average inter-community degree per vertex.
    pub degree_out: f64,
    /// Number of global hub vertices, each wired to `hub_degree` random
    /// vertices anywhere in the graph — the scale-free ingredient that
    /// caps how much a partitioner can reduce the *max*-per-part cut.
    pub hubs: usize,
    /// Edges per hub.
    pub hub_degree: usize,
}

/// Planted-partition (stochastic block model) graph with optional hubs,
/// symmetrized. Community `c` owns the contiguous vertex range
/// `[c·n/k, (c+1)·n/k)`; callers typically permute afterwards so block
/// baselines cannot see the planted structure.
///
/// This models graphs like the paper's Reddit where METIS finds real
/// community structure (−72% total edgecut) while hub vertices keep the
/// max-per-process cut high (only −29%), §IV-A.8.
pub fn planted_partition(n: usize, params: PlantedPartitionParams, seed: u64) -> Csr {
    let k = params.communities.max(1);
    assert!(n >= k, "need at least one vertex per community");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    let comm_of = |v: usize| v * k / n; // contiguous equal-ish communities
    let comm_range = |c: usize| ((c * n) / k, ((c + 1) * n) / k);
    for v in 0..n {
        let c = comm_of(v);
        let (lo, hi) = comm_range(c);
        let d_in = params.degree_in / 2.0; // symmetrization doubles
        let d_out = params.degree_out / 2.0;
        let n_in = poisson_like(&mut rng, d_in);
        for _ in 0..n_in {
            let u = rng.gen_range(lo..hi);
            if u != v {
                pairs.push((v, u));
            }
        }
        let n_out = poisson_like(&mut rng, d_out);
        for _ in 0..n_out {
            let u = rng.gen_range(0..n);
            if u != v && comm_of(u) != c {
                pairs.push((v, u));
            }
        }
    }
    for h in 0..params.hubs.min(n) {
        for _ in 0..params.hub_degree {
            let u = rng.gen_range(0..n);
            if u != h {
                pairs.push((h, u));
            }
        }
    }
    count_matrix(n, &pairs).symmetrized()
}

/// Crude integer sample with the given mean (uniform on `[0, 2·mean]`) —
/// adequate for degree targets in synthetic generators.
fn poisson_like(rng: &mut ChaCha8Rng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    rng.gen_range(0.0..2.0 * mean).round() as usize
}

/// Apply the same random permutation to rows and columns of a square
/// matrix: `P A Pᵀ`. The paper's 2D/3D algorithms rely on "random vertex
/// permutations" for load balance (§I), exactly this operation.
pub fn permute_symmetric(a: &Csr, seed: u64) -> (Csr, Vec<usize>) {
    assert_eq!(a.rows(), a.cols(), "permutation requires square");
    let n = a.rows();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    (apply_permutation(a, &perm), perm)
}

/// Apply a given row+column relabeling: vertex `v` becomes `perm[v]`.
/// Old row `i` lands whole in bucket `perm[i]`, its columns renamed and
/// re-sorted.
pub fn apply_permutation(a: &Csr, perm: &[usize]) -> Csr {
    assert_eq!(a.rows(), perm.len(), "permutation length mismatch");
    let mut counts = vec![0usize; a.rows()];
    for (i, &p) in perm.iter().enumerate() {
        counts[p] += a.row_nnz(i);
    }
    let mut buckets = RowBuckets::with_counts(counts);
    for (i, &p) in perm.iter().enumerate() {
        for (j, v) in a.row_entries(i) {
            buckets.push(p, perm[j], v);
        }
    }
    buckets.assemble(a.cols())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_expected_density() {
        let n = 2000;
        let d = 8.0;
        let g = erdos_renyi(n, d, 42);
        let got = g.nnz() as f64;
        let expect = d * n as f64;
        assert!(
            (got - expect).abs() < 0.15 * expect,
            "nnz {got} far from expected {expect}"
        );
        assert_eq!(g.rows(), n);
    }

    #[test]
    fn erdos_renyi_no_self_loops_and_deterministic() {
        let g1 = erdos_renyi(500, 4.0, 7);
        let g2 = erdos_renyi(500, 4.0, 7);
        assert_eq!(g1, g2);
        for i in 0..500 {
            assert_eq!(g1.get(i, i), 0.0);
        }
    }

    #[test]
    fn erdos_renyi_zero_degree_is_empty() {
        let g = erdos_renyi(100, 0.0, 1);
        assert_eq!(g.nnz(), 0);
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let g1 = rmat(8, 8, RmatParams::default(), 1);
        let g2 = rmat(8, 8, RmatParams::default(), 1);
        assert_eq!(g1, g2);
        assert_eq!(g1.rows(), 256);
        // Duplicates merged, so nnz <= sampled edges.
        assert!(g1.nnz() <= 256 * 8);
        assert!(g1.nnz() > 256); // but not degenerately few
    }

    #[test]
    fn rmat_is_skewed() {
        // Scale-free: max degree should far exceed the average.
        let g = rmat(10, 16, RmatParams::default(), 3);
        let max_deg = (0..g.rows()).map(|i| g.row_nnz(i)).max().unwrap();
        let avg = g.avg_degree();
        assert!(
            max_deg as f64 > 4.0 * avg,
            "max {max_deg} vs avg {avg} — not heavy-tailed"
        );
    }

    #[test]
    fn rmat_symmetric_is_symmetric() {
        let g = rmat_symmetric(7, 4, RmatParams::default(), 9);
        assert_eq!(g, g.transpose());
    }

    #[test]
    fn planted_partition_has_community_structure() {
        let params = PlantedPartitionParams {
            communities: 8,
            degree_in: 10.0,
            degree_out: 1.0,
            hubs: 0,
            hub_degree: 0,
        };
        let g = planted_partition(800, params, 4);
        // Count intra- vs inter-community edges.
        let comm = |v: usize| v * 8 / 800;
        let mut intra = 0usize;
        let mut inter = 0usize;
        for i in 0..g.rows() {
            for (j, _) in g.row_entries(i) {
                if comm(i) == comm(j) {
                    intra += 1;
                } else {
                    inter += 1;
                }
            }
        }
        assert!(
            intra > 5 * inter,
            "planted structure too weak: intra {intra}, inter {inter}"
        );
    }

    #[test]
    fn planted_partition_hubs_have_high_degree() {
        let params = PlantedPartitionParams {
            communities: 4,
            degree_in: 4.0,
            degree_out: 1.0,
            hubs: 2,
            hub_degree: 100,
        };
        let g = planted_partition(400, params, 5);
        let avg = g.avg_degree();
        assert!(g.row_nnz(0) as f64 > 5.0 * avg, "hub 0 not hub-like");
        assert!(g.row_nnz(1) as f64 > 5.0 * avg, "hub 1 not hub-like");
        // Symmetric despite hubs.
        assert_eq!(g, g.transpose());
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = rmat_symmetric(6, 4, RmatParams::default(), 11);
        let (pg, perm) = permute_symmetric(&g, 5);
        assert_eq!(pg.nnz(), g.nnz());
        // Spot-check: edge (i,j) maps to (perm[i], perm[j]).
        for i in 0..g.rows() {
            for (j, v) in g.row_entries(i) {
                assert_eq!(pg.get(perm[i], perm[j]), v);
            }
        }
    }

    #[test]
    fn permutation_is_bijection() {
        let g = erdos_renyi(64, 3.0, 2);
        let (_, perm) = permute_symmetric(&g, 13);
        let mut seen = [false; 64];
        for &p in &perm {
            assert!(!seen[p], "duplicate target {p}");
            seen[p] = true;
        }
    }

    #[test]
    fn identity_permutation_is_noop() {
        let g = erdos_renyi(32, 3.0, 4);
        let perm: Vec<usize> = (0..32).collect();
        assert_eq!(apply_permutation(&g, &perm), g);
    }
}
