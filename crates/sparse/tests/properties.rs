//! Property-based tests of the sparse substrate: SpMM vs densified GEMM,
//! transpose identities, partition conservation, normalization and
//! edge-cut invariants — for arbitrary random graphs.

use cagnet_dense::Mat;
use cagnet_parallel::ParallelCtx;
use cagnet_sparse::edgecut::{block_partition, evaluate_partition};
use cagnet_sparse::generate::{apply_permutation, erdos_renyi};
use cagnet_sparse::normalize::gcn_normalize;
use cagnet_sparse::partition::{
    block_ranges, grid_block_dense, grid_block_sparse, join_grid_dense,
};
use cagnet_sparse::spmm::{
    outer_product_from_transposed, spmm_acc_with, spmm_semiring_acc_with, spmm_with, MinPlus,
    Semiring,
};
use cagnet_sparse::{Coo, Csr};
use proptest::prelude::*;

/// Random sparse matrix as triplets.
fn sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    proptest::collection::vec((0..rows, 0..cols, -5.0f64..5.0), 0..max_nnz.max(1)).prop_map(
        move |entries| {
            // Filter exact zeros so nnz counts stay meaningful.
            let entries: Vec<_> = entries.into_iter().filter(|&(_, _, v)| v != 0.0).collect();
            Csr::from_coo(Coo::from_entries(rows, cols, entries))
        },
    )
}

fn dense(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |v| Mat::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn spmm_matches_densified_gemm(
        (a, b) in (1usize..16, 1usize..16, 1usize..8)
            .prop_flat_map(|(m, k, f)| (sparse(m, k, 40), dense(k, f)))
    ) {
        let fast = spmm_with(ParallelCtx::serial(), &a, &b);
        let reference = cagnet_dense::matmul_with(ParallelCtx::serial(), &a.to_dense(), &b);
        prop_assert!(fast.approx_eq(&reference, 1e-10));
    }

    #[test]
    fn parallel_spmm_is_bit_identical_to_serial(
        (a, b) in (1usize..96, 1usize..96, 1usize..=200)
            .prop_flat_map(|(m, k, f)| (sparse(m, k, 12_000), dense(k, f))),
        threads in 1usize..=8,
    ) {
        // Exact equality: the nnz-balanced row chunking never splits a
        // row, so each output element keeps its serial accumulation
        // order. Widths run past 128 into the packed-tile path, and the
        // denser draws hold the 4096 entries it takes to fork at all.
        // Random matrices here routinely contain empty rows (the 0 x k
        // degenerate block has its own test below).
        let ctx = ParallelCtx::new(threads);
        prop_assert_eq!(spmm_with(ctx, &a, &b), spmm_with(ParallelCtx::serial(), &a, &b));
        let mut acc_s = Mat::filled(a.rows(), b.cols(), 0.25);
        let mut acc_p = acc_s.clone();
        spmm_acc_with(ParallelCtx::serial(), &a, &b, &mut acc_s);
        spmm_acc_with(ctx, &a, &b, &mut acc_p);
        prop_assert_eq!(acc_p, acc_s);
    }

    #[test]
    fn parallel_semiring_spmm_bit_identical(
        (a, b) in (1usize..32, 1usize..12, 1usize..6)
            .prop_flat_map(|(m, k, f)| (sparse(m, k, 80), dense(k, f))),
        threads in 1usize..=8,
    ) {
        let ctx = ParallelCtx::new(threads);
        let mut acc_s = Mat::filled(a.rows(), b.cols(), MinPlus.zero());
        let mut acc_p = acc_s.clone();
        spmm_semiring_acc_with(ParallelCtx::serial(), &a, &b, &MinPlus, &mut acc_s);
        spmm_semiring_acc_with(ctx, &a, &b, &MinPlus, &mut acc_p);
        prop_assert_eq!(acc_p, acc_s);
    }

    #[test]
    fn transpose_involution(a in sparse(12, 9, 50)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_matches_dense(a in sparse(10, 14, 60)) {
        prop_assert!(a
            .transpose()
            .to_dense()
            .approx_eq(&a.to_dense().transpose(), 0.0));
    }

    #[test]
    fn outer_product_matches_dense_path(
        (at, b) in (1usize..10, 1usize..12, 1usize..6)
            .prop_flat_map(|(bl, n, f)| (sparse(bl, n, 30), dense(bl, f)))
    ) {
        // at is the transpose of a column block; reference: atᵀ · b.
        let got = outer_product_from_transposed(&at, &b);
        let a_dense = at.to_dense().transpose();
        let reference = cagnet_dense::matmul_with(ParallelCtx::serial(), &a_dense, &b);
        prop_assert!(got.approx_eq(&reference, 1e-10));
    }

    #[test]
    fn grid_blocks_reassemble(
        (a, pr, pc) in (4usize..16).prop_flat_map(|n| (sparse(n, n, 60), 1usize..5, 1usize..5))
    ) {
        let blocks: Vec<Mat> = (0..pr)
            .flat_map(|i| (0..pc).map(move |j| (i, j)))
            .map(|(i, j)| grid_block_sparse(&a, pr, pc, i, j).to_dense())
            .collect();
        prop_assert!(join_grid_dense(&blocks, pr, pc).approx_eq(&a.to_dense(), 0.0));
        // Dense grid split agrees with the sparse one.
        let dblocks: Vec<Mat> = (0..pr)
            .flat_map(|i| (0..pc).map(move |j| (i, j)))
            .map(|(i, j)| grid_block_dense(&a.to_dense(), pr, pc, i, j))
            .collect();
        for (s, d) in blocks.iter().zip(&dblocks) {
            prop_assert!(s.approx_eq(d, 0.0));
        }
    }

    #[test]
    fn block_ranges_partition_exactly(n in 0usize..100, p in 1usize..20) {
        let ranges = block_ranges(n, p);
        let total: usize = ranges.iter().map(|&(a, b)| b - a).sum();
        prop_assert_eq!(total, n);
        let sizes: Vec<usize> = ranges.iter().map(|&(a, b)| b - a).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    #[test]
    fn normalization_keeps_symmetry_and_bounds(n in 2usize..24, d in 0.5f64..6.0, seed in 0u64..500) {
        let mut coo = erdos_renyi(n, d, seed).to_coo();
        coo.symmetrize();
        let a = Csr::from_coo(coo);
        let ahat = gcn_normalize(&a);
        // Symmetric in, symmetric out.
        prop_assert!(ahat.to_dense().approx_eq(&ahat.transpose().to_dense(), 1e-12));
        // All entries in (0, 1] (normalized weights with self loops).
        prop_assert!(ahat.vals().iter().all(|&v| v > 0.0 && v <= 1.0 + 1e-12));
    }

    #[test]
    fn edgecut_zero_for_one_part_and_conserved_under_permutation(
        n in 4usize..40, d in 0.5f64..5.0, seed in 0u64..500, p in 2usize..6,
    ) {
        let a = erdos_renyi(n, d, seed);
        let one = evaluate_partition(&a, &block_partition(n, 1), 1);
        prop_assert_eq!(one.total_cut_edges, 0);
        // Permuting vertices and permuting the partition labels the same
        // way leaves every cut statistic unchanged.
        let perm: Vec<usize> = {
            let (_, perm) = cagnet_sparse::generate::permute_symmetric(&a, seed ^ 1);
            perm
        };
        let pa = apply_permutation(&a, &perm);
        let part = block_partition(n, p);
        let mut permuted_part = vec![0usize; n];
        for v in 0..n {
            permuted_part[perm[v]] = part[v];
        }
        let orig = evaluate_partition(&a, &part, p);
        let moved = evaluate_partition(&pa, &permuted_part, p);
        prop_assert_eq!(orig.total_cut_edges, moved.total_cut_edges);
        prop_assert_eq!(orig.edgecut_max(), moved.edgecut_max());
    }
}

#[test]
fn parallel_spmm_handles_zero_row_block() {
    // A 0 x k block (a rank that owns no rows at high P) must be a no-op
    // under every thread budget.
    let a = Csr::from_coo(Coo::from_entries(0, 7, vec![]));
    let b = Mat::filled(7, 3, 1.5);
    for threads in 1..=8 {
        let ctx = ParallelCtx::new(threads);
        let got = spmm_with(ctx, &a, &b);
        assert_eq!(got.shape(), (0, 3));
        let mut acc = Mat::zeros(0, 3);
        spmm_acc_with(ctx, &a, &b, &mut acc);
        assert_eq!(acc.shape(), (0, 3));
    }
}
