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
    outer_product_from_transposed, outer_product_from_transposed_into, spmm_acc_scratch,
    spmm_acc_with, spmm_semiring_acc_with, spmm_with, MinPlus, Semiring,
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

/// Operand widths on both sides of the SpMM's direct width (128) and of
/// a 32-column tile edge.
const MAP_WIDTHS: [usize; 8] = [1, 8, 16, 33, 64, 128, 129, 300];

/// A stage panel cut whole — `rows × span`, every fifth row empty — and
/// a needed-row list for it: its own needed columns (empty for an empty
/// panel), those plus some span rows it does not read, or the whole
/// span.
fn stage_panel() -> impl Strategy<Value = (Csr, Vec<usize>)> {
    (1usize..96, 1usize..128, 0usize..3)
        .prop_flat_map(|(rows, span, kind)| {
            let extra = proptest::collection::vec(0usize..3, span);
            (sparse(rows, span, 8000), extra, Just(kind))
        })
        .prop_map(|(whole, extra, kind)| {
            let entries = (0..whole.rows())
                .filter(|i| i % 5 != 2)
                .flat_map(|i| whole.row_entries(i).map(move |(j, v)| (i, j, v)))
                .collect();
            let whole = Csr::from_coo(Coo::from_entries(whole.rows(), whole.cols(), entries));
            let own = whole.needed_cols();
            let needed = match kind {
                0 => own,
                1 => (0..whole.cols())
                    .filter(|c| extra[*c] == 0 || own.contains(c))
                    .collect(),
                _ => (0..whole.cols()).collect(),
            };
            (whole, needed)
        })
}

/// A deterministic operand with no two equal neighbours, so a misplaced
/// row shows in the bits.
fn operand(rows: usize, f: usize, seed: u64) -> Mat {
    Mat::from_fn(rows, f, |i, j| {
        let x = (i as u64 * 1_000_003 + j as u64 * 7919 + seed) % 65_521;
        x as f64 / 4096.0 - 7.9
    })
}

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The row-mapped kernels against the full-panel ones, bit for bit: the
/// panel with its columns numbered by `needed`, times the whole block
/// read through `needed` (SpMM), and its transpose product written
/// through `needed` (outer product), on `threads` threads.
fn assert_map_matches_whole(whole: &Csr, needed: &[usize], threads: usize, seed: u64) {
    let ctx = ParallelCtx::new(threads);
    let compact = whole.compact_cols(needed);
    let (rows, span) = (whole.rows(), whole.cols());
    for f in MAP_WIDTHS {
        let d = operand(span, f, seed);
        let start = operand(rows, f, seed + 1);
        let mut want = start.clone();
        spmm_acc_with(ctx, whole, &d, &mut want);
        let mut got = start.clone();
        let mut pack = Mat::filled(3, 5, f64::NAN);
        spmm_acc_scratch(ctx, &compact, &d, Some(needed), &mut got, &mut pack);
        assert_eq!(bits(&got), bits(&want), "spmm f={f} threads={threads}");
        // The compact rows, as a gather delivers them, need no map.
        let mut got = start.clone();
        let rows_of_d = d.select_rows(needed);
        spmm_acc_scratch(ctx, &compact, &rows_of_d, None, &mut got, &mut pack);
        assert_eq!(
            bits(&got),
            bits(&want),
            "compact spmm f={f} threads={threads}"
        );

        let g = operand(rows, f, seed + 2);
        let (row0, height) = (3, span + 5);
        let start = operand(height, f, seed + 3);
        let mut want = start.clone();
        outer_product_from_transposed_into(whole, &g, None, &mut want, row0);
        let mut got = start.clone();
        outer_product_from_transposed_into(&compact, &g, Some(needed), &mut got, row0);
        assert_eq!(bits(&got), bits(&want), "outer product f={f}");
    }
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
    fn row_map_matches_the_whole_panel_bit_for_bit(
        (whole, needed) in stage_panel(),
        threads in 1usize..=3,
        seed in 0u64..1000,
    ) {
        assert_map_matches_whole(&whole, &needed, threads, seed);
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
        let a = erdos_renyi(n, d, seed).symmetrized();
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
fn row_map_edge_cases_match_the_whole_panel() {
    // An empty panel against an empty list and against the whole span; a
    // panel with an empty list of rows it reads; and one large enough to
    // fork the SpMM and the pack (over 4096 nonzeros, over 1024 needed
    // rows), reading every other span row.
    let big = {
        let entries = (0..200usize)
            .flat_map(|i| (0..40).map(move |t| (i, (i * 37 + t * 151) % 1500 * 2, 0.5 + t as f64)))
            .collect();
        Csr::from_coo(Coo::from_entries(200, 3000, entries))
    };
    let cases = [
        (Csr::empty(4, 9), vec![]),
        (Csr::empty(4, 9), (0..9).collect()),
        (Csr::empty(0, 5), vec![1, 3]),
        (big.clone(), big.needed_cols()),
    ];
    for (whole, needed) in cases {
        for threads in 1..=3 {
            assert_map_matches_whole(&whole, &needed, threads, 11);
        }
    }
    assert!(big.nnz() > 4096 && big.needed_cols().len() > 1024);
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
