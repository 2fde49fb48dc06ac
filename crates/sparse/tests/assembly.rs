//! The direct CSR builders against the triplet-sorting builders they
//! replaced (`cagnet_sparse::reference`), bit for bit: pattern, row
//! pointers and every value's bits — on duplicates, empty rows, `n = 1`
//! and with the diagonal present or absent.
//!
//! Where duplicate coordinates carry values, the values are small
//! integers: the old builder summed duplicates in whatever order an
//! unstable sort left them, so only exact sums have one right answer. The
//! insertion-order fold itself is pinned by
//! `coo::tests::duplicates_fold_in_insertion_order`.

use cagnet_sparse::generate::{
    apply_permutation, permute_symmetric, rmat, rmat_symmetric, RmatParams,
};
use cagnet_sparse::normalize::gcn_normalize;
use cagnet_sparse::reference::{
    apply_permutation_reference, from_coo_reference, gcn_normalize_reference, rmat_reference,
    symmetrize_reference,
};
use cagnet_sparse::{Coo, Csr};
use proptest::prelude::*;

/// Equal shape, row pointers, columns and value bits.
fn same_bits(a: &Csr, b: &Csr) -> bool {
    let bits = |m: &Csr| m.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.row_ptr() == b.row_ptr()
        && a.col_idx() == b.col_idx()
        && bits(a) == bits(b)
}

/// `(rows, cols, triplets)` with repeated coordinates and integer values.
fn triplets_with_duplicates() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..10, 1usize..10).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols.min(3), -4i64..5).prop_map(|(r, c, v)| (r, c, v as f64));
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(entry, 0..40),
        )
    })
}

/// A square matrix with arbitrary finite values and no duplicates;
/// `diag` 0 strips the diagonal, 1 keeps what was drawn, 2 fills it.
fn square(max_n: usize) -> impl Strategy<Value = Csr> {
    (1usize..max_n, 0usize..3).prop_flat_map(|(n, diag)| {
        let entry = (0..n, 0..n, -3.0f64..3.0);
        proptest::collection::vec(entry, 0..4 * n).prop_map(move |entries| {
            let mut seen = std::collections::HashSet::new();
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                if (diag != 0 || r != c) && seen.insert((r, c)) {
                    coo.push(r, c, v);
                }
            }
            if diag == 2 {
                for i in (0..n).filter(|&i| !seen.contains(&(i, i))) {
                    coo.push(i, i, 0.5 + i as f64);
                }
            }
            Csr::from_coo(coo)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn from_coo_matches_the_sorting_oracle((rows, cols, entries) in triplets_with_duplicates()) {
        let direct = Csr::from_coo(Coo::from_entries(rows, cols, entries.clone()));
        let oracle = from_coo_reference(Coo::from_entries(rows, cols, entries));
        prop_assert!(same_bits(&direct, &oracle), "{:?} vs {:?}", direct, oracle);
    }

    #[test]
    fn symmetrized_matches_the_mirroring_oracle(a in square(12)) {
        prop_assert!(same_bits(&a.symmetrized(), &symmetrize_reference(&a)));
    }

    #[test]
    fn apply_permutation_matches_the_sorting_oracle(a in square(12), seed in 0u64..1000) {
        let (permuted, perm) = permute_symmetric(&a, seed);
        prop_assert!(same_bits(&permuted, &apply_permutation_reference(&a, &perm)));
        prop_assert!(same_bits(&apply_permutation(&a, &perm), &permuted));
    }

    #[test]
    fn gcn_normalize_matches_the_two_round_trip_oracle(a in square(12)) {
        prop_assert!(same_bits(&gcn_normalize(&a), &gcn_normalize_reference(&a)));
    }

    #[test]
    fn rmat_matches_the_sorting_oracle(scale in 0u32..8, degree in 0usize..6, seed in 0u64..1000) {
        let params = RmatParams::default();
        let oracle = rmat_reference(scale, degree, params, seed);
        prop_assert!(same_bits(&rmat(scale, degree, params, seed), &oracle));
        prop_assert!(same_bits(
            &rmat_symmetric(scale, degree, params, seed),
            &symmetrize_reference(&oracle)
        ));
    }
}

#[test]
fn one_vertex_graphs_assemble() {
    // R-MAT at scale 0 draws only self-loops, all dropped.
    assert_eq!(rmat_symmetric(0, 5, RmatParams::default(), 3).nnz(), 0);
    let empty = Csr::empty(1, 1);
    assert!(same_bits(&gcn_normalize(&empty), &Csr::identity(1)));
    let looped = Csr::from_coo(Coo::from_entries(1, 1, vec![(0, 0, 3.0)]));
    assert!(same_bits(
        &gcn_normalize(&looped),
        &gcn_normalize_reference(&looped)
    ));
    assert_eq!(gcn_normalize(&looped).vals(), &[1.0]);
}

#[test]
#[should_panic(expected = "2^62 · 8 edges overflow usize")]
fn rmat_refuses_an_edge_count_that_overflows() {
    let _ = rmat(62, 8, RmatParams::default(), 1);
}
