//! Vertex relabeling: turn an arbitrary partition into the contiguous
//! block layout the trainers consume.
//!
//! Every trainer distributes rows by [`crate::partition::block_ranges`]:
//! rank `i` owns a contiguous id range. A partitioner's assignment
//! (`part[v]` = owning part) is therefore wired into training by
//! *renumbering* vertices part-major — all of part 0's vertices first,
//! then part 1's, and so on, old-id order preserved within a part — and
//! permuting the adjacency, features, labels, and masks to match. This is
//! the same `P A Pᵀ` operation as [`crate::generate::permute_symmetric`],
//! just with a partition-derived permutation instead of a random one, and
//! the two compose: permute first to hide structure, partition, then
//! relabel.
//!
//! Relabeling changes *nothing* about the computation: training the
//! relabeled problem is bit-identical to training the original after
//! accounting for the id permutation, because every trainer is
//! row-order-agnostic up to the block boundaries. What changes is which
//! rows are remote to each rank — that is the entire point.

use crate::csr::Csr;
use crate::generate::apply_permutation;
use cagnet_dense::Mat;

/// An old↔new vertex id mapping produced from a partition, plus the
/// contiguous new-id range each part occupies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relabeling {
    /// `old_to_new[v]` = new id of old vertex `v` (a permutation).
    pub old_to_new: Vec<usize>,
    /// `new_to_old[i]` = old id of new vertex `i` (the inverse).
    pub new_to_old: Vec<usize>,
    /// `part_ranges[q]` = the half-open new-id range `[lo, hi)` owned by
    /// part `q`. Ranges are contiguous, in order, and cover `0..n`.
    pub part_ranges: Vec<(usize, usize)>,
}

impl Relabeling {
    /// Build the part-major renumbering for `part` (a stable counting
    /// sort by `(part[v], v)`): vertices of part 0 keep their relative
    /// order and occupy new ids `[0, |part 0|)`, and so on. Empty parts
    /// yield empty ranges.
    pub fn from_partition(part: &[usize], num_parts: usize) -> Relabeling {
        assert!(num_parts > 0, "need at least one part");
        let n = part.len();
        let mut counts = vec![0usize; num_parts];
        for &q in part {
            assert!(q < num_parts, "part id {q} out of range");
            counts[q] += 1;
        }
        let mut part_ranges = Vec::with_capacity(num_parts);
        let mut cursor = vec![0usize; num_parts];
        let mut lo = 0usize;
        for q in 0..num_parts {
            cursor[q] = lo;
            part_ranges.push((lo, lo + counts[q]));
            lo += counts[q];
        }
        let mut old_to_new = vec![0usize; n];
        let mut new_to_old = vec![0usize; n];
        for (v, &q) in part.iter().enumerate() {
            let i = cursor[q];
            cursor[q] += 1;
            old_to_new[v] = i;
            new_to_old[i] = v;
        }
        Relabeling {
            old_to_new,
            new_to_old,
            part_ranges,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.old_to_new.len()
    }

    /// True when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.old_to_new.is_empty()
    }

    /// The partition re-expressed in new ids (`result[i]` = part of new
    /// vertex `i`) — block-shaped by construction.
    pub fn part_of_new(&self) -> Vec<usize> {
        let mut part = vec![0usize; self.len()];
        for (q, &(lo, hi)) in self.part_ranges.iter().enumerate() {
            part[lo..hi].fill(q);
        }
        part
    }

    /// Reorder per-vertex data from old-id order into new-id order.
    pub fn permute<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        assert_eq!(xs.len(), self.len(), "relabel length mismatch");
        self.new_to_old.iter().map(|&v| xs[v].clone()).collect()
    }

    /// Reorder per-vertex data from new-id order back into old-id order.
    pub fn unpermute<T: Clone>(&self, xs: &[T]) -> Vec<T> {
        assert_eq!(xs.len(), self.len(), "relabel length mismatch");
        self.old_to_new.iter().map(|&i| xs[i].clone()).collect()
    }

    /// Reorder matrix rows from old-id order into new-id order
    /// (features, labels-as-one-hot, ...).
    pub fn permute_rows(&self, m: &Mat) -> Mat {
        assert_eq!(m.rows(), self.len(), "relabel row-count mismatch");
        m.select_rows(&self.new_to_old)
    }

    /// Reorder matrix rows from new-id order back into old-id order —
    /// the inverse of [`Relabeling::permute_rows`], used to hand
    /// embeddings computed on a relabeled problem back in original ids.
    pub fn unpermute_rows(&self, m: &Mat) -> Mat {
        assert_eq!(m.rows(), self.len(), "relabel row-count mismatch");
        m.select_rows(&self.old_to_new)
    }
}

/// Relabel `a` part-major under `part`: returns `P A Pᵀ` with each part's
/// vertices occupying a contiguous id block, plus the [`Relabeling`] used.
/// Composes with [`crate::generate::permute_symmetric`] — relabeling a
/// permuted graph under a partition of the permuted ids gives the same
/// result as relabeling the original under the composed map.
pub fn apply_partition(a: &Csr, part: &[usize], num_parts: usize) -> (Csr, Relabeling) {
    assert_eq!(a.rows(), part.len(), "partition length mismatch");
    assert_eq!(a.rows(), a.cols(), "relabel requires square adjacency");
    let rl = Relabeling::from_partition(part, num_parts);
    let relabeled = apply_permutation(a, &rl.old_to_new);
    (relabeled, rl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgecut::evaluate_partition;
    use crate::generate::{erdos_renyi, permute_symmetric};
    use crate::partitioner::{partition_greedy_bfs, PartitionConfig, PartitionObjective};

    #[test]
    fn relabeling_is_a_permutation_with_contiguous_parts() {
        let part = vec![2usize, 0, 2, 1, 0, 2, 1, 0];
        let rl = Relabeling::from_partition(&part, 3);
        // Bijection.
        for v in 0..part.len() {
            assert_eq!(rl.new_to_old[rl.old_to_new[v]], v);
        }
        assert_eq!(rl.part_ranges, vec![(0, 3), (3, 5), (5, 8)]);
        // Part-major, old order preserved within a part.
        assert_eq!(rl.part_of_new(), vec![0, 0, 0, 1, 1, 2, 2, 2]);
        assert_eq!(&rl.new_to_old[0..3], &[1, 4, 7]); // part 0's vertices
        assert_eq!(&rl.new_to_old[3..5], &[3, 6]); // part 1's
        assert_eq!(&rl.new_to_old[5..8], &[0, 2, 5]); // part 2's
    }

    #[test]
    fn empty_parts_get_empty_ranges() {
        let part = vec![0usize, 2, 2];
        let rl = Relabeling::from_partition(&part, 4);
        assert_eq!(rl.part_ranges, vec![(0, 1), (1, 1), (1, 3), (3, 3)]);
    }

    #[test]
    fn permute_roundtrips() {
        let part = vec![1usize, 0, 1, 0, 1];
        let rl = Relabeling::from_partition(&part, 2);
        let xs: Vec<usize> = (100..105).collect();
        assert_eq!(rl.unpermute(&rl.permute(&xs)), xs);
        let m = Mat::from_fn(5, 3, |i, j| (10 * i + j) as f64);
        let back = rl.unpermute_rows(&rl.permute_rows(&m));
        for i in 0..5 {
            assert_eq!(back.row(i), m.row(i));
        }
        // permute_rows really moves old row new_to_old[i] into slot i.
        let pm = rl.permute_rows(&m);
        for i in 0..5 {
            assert_eq!(pm.row(i), m.row(rl.new_to_old[i]));
        }
    }

    #[test]
    fn cut_report_invariant_under_relabeling() {
        let g = erdos_renyi(60, 4.0, 17);
        let cfg = PartitionConfig {
            num_parts: 4,
            objective: PartitionObjective::Volume,
            ..Default::default()
        };
        let part = partition_greedy_bfs(&g, &cfg);
        let before = evaluate_partition(&g, &part, 4);
        let (rg, rl) = apply_partition(&g, &part, 4);
        let after = evaluate_partition(&rg, &rl.part_of_new(), 4);
        assert_eq!(before, after);
        assert_eq!(rg.nnz(), g.nnz());
    }

    #[test]
    fn composes_with_permute_symmetric() {
        let g = erdos_renyi(40, 3.0, 23);
        let (pg, perm) = permute_symmetric(&g, 24);
        // Partition the permuted graph, relabel it...
        let part = partition_greedy_bfs(&pg, &PartitionConfig::default());
        let (rg, rl) = apply_partition(&pg, &part, 2);
        // ...equals relabeling the original under the composed map.
        let composed: Vec<usize> = (0..g.rows()).map(|v| rl.old_to_new[perm[v]]).collect();
        let direct = crate::generate::apply_permutation(&g, &composed);
        assert_eq!(direct.nnz(), rg.nnz());
        for i in 0..rg.rows() {
            let a: Vec<_> = direct.row_entries(i).collect();
            let b: Vec<_> = rg.row_entries(i).collect();
            assert_eq!(a, b, "row {i} differs");
        }
    }

    #[test]
    #[should_panic(expected = "part id")]
    fn out_of_range_part_id_panics() {
        let _ = Relabeling::from_partition(&[0, 3], 2);
    }
}
