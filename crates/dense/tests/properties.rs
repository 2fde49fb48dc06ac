//! Property-based tests of the dense kernels: algebraic identities that
//! must hold for arbitrary shapes and contents.

use cagnet_dense::activation::{log_softmax_probs_into, log_softmax_rows, softmax_rows};
use cagnet_dense::ops::{add, hadamard, scale, sub};
use cagnet_dense::{
    matmul, matmul_acc, matmul_acc_with, matmul_nt, matmul_nt_with, matmul_tn, matmul_tn_with,
    matmul_with, Mat,
};
use cagnet_parallel::ParallelCtx;
use proptest::prelude::*;

/// A random matrix of the given shape with entries in ±10.
fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Mat::from_vec(rows, cols, v))
}

/// Three chained random matrices `(m x k, k x n, n x j)`.
fn chain3() -> impl Strategy<Value = (Mat, Mat, Mat)> {
    (1usize..10, 1usize..10, 1usize..10, 1usize..8)
        .prop_flat_map(|(m, k, n, j)| (mat(m, k), mat(k, n), mat(n, j)))
}

/// A pair of equal-shape random matrices.
fn pair() -> impl Strategy<Value = (Mat, Mat)> {
    (1usize..10, 1usize..10).prop_flat_map(|(r, c)| (mat(r, c), mat(r, c)))
}

/// Widths the output layer meets: one column, the benchmark's class
/// counts (16, 24, 41, 256) and a few ragged ones.
const WIDTHS: [usize; 8] = [1, 2, 5, 16, 24, 41, 100, 256];

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The one-`exp` kernels against the `log_softmax` + `softmax` pair they
/// replaced, bit for bit: both public functions over all of `z`, and the
/// fused form emitting columns `c0..c1` of the probabilities.
fn assert_output_layer_matches_reference(z: &Mat, c0: usize, c1: usize) {
    let (mut lp_ref, mut p_ref) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
    cagnet_dense::reference::log_softmax_rows_into(z, &mut lp_ref);
    cagnet_dense::reference::softmax_rows_into(z, &mut p_ref);
    assert_eq!(log_softmax_rows(z).shape(), z.shape());
    assert_eq!(
        bits(&log_softmax_rows(z)),
        bits(&lp_ref),
        "log_softmax_rows"
    );
    assert_eq!(bits(&softmax_rows(z)), bits(&p_ref), "softmax_rows");
    // Destinations arrive holding another shape's leftovers.
    let (mut lp, mut p) = (Mat::filled(3, 2, 7.0), Mat::filled(1, 9, 7.0));
    log_softmax_probs_into(z, c0..c1, &mut lp, &mut p);
    assert_eq!(bits(&lp), bits(&lp_ref), "fused log p");
    assert_eq!(p.shape(), (z.rows(), c1 - c0));
    assert_eq!(
        bits(&p),
        bits(&p_ref.block(0, z.rows(), c0, c1)),
        "fused p, columns {c0}..{c1}"
    );
}

#[test]
fn output_layer_edge_shapes_and_values_match_the_reference_bits() {
    let ramp = |rows: usize, cols: usize| {
        Mat::from_fn(rows, cols, |i, j| {
            ((i * 31 + j * 17) % 23) as f64 * 0.37 - 4.0
        })
    };
    // 1 x 1, a single column, no rows, no rows and no columns.
    for (rows, cols) in [(1, 1), (5, 1), (0, 4), (0, 0)] {
        assert_output_layer_matches_reference(&ramp(rows, cols), 0, cols);
    }
    for cols in WIDTHS {
        let z = ramp(7, cols);
        assert_output_layer_matches_reference(&z, 0, cols);
        assert_output_layer_matches_reference(&z, cols / 2, cols);
        assert_output_layer_matches_reference(&z, cols / 3, cols / 3);
    }
    // What the pair returned on non-finite rows is the contract.
    let inf = f64::INFINITY;
    let z = Mat::from_rows(&[
        &[1000.0, 0.0, -1000.0],
        &[-1000.0, -1000.0, -1000.0],
        &[0.5, -inf, 0.25],
        &[-inf, -inf, -inf],
        &[0.5, f64::NAN, 0.25],
        &[inf, 0.0, 1.0],
    ]);
    for (c0, c1) in [(0, 3), (1, 2), (2, 3)] {
        assert_output_layer_matches_reference(&z, c0, c1);
    }
    let (lp, p) = (log_softmax_rows(&z), softmax_rows(&z));
    assert_eq!(lp.row(0), [0.0, -1000.0, -2000.0]);
    assert_eq!(p.row(0), [1.0, 0.0, 0.0]);
    assert!(lp.row(1).iter().all(|&x| (x + 3.0f64.ln()).abs() < 1e-12));
    // A `-inf` logit is an impossible class, not an error ...
    assert_eq!((lp[(2, 1)], p[(2, 1)]), (-inf, 0.0));
    assert!(lp[(2, 0)].is_finite() && p[(2, 0)] > 0.0);
    // ... but a row of them, a NaN, or a `+inf` poisons its whole row,
    // and only that row.
    for i in [3, 4, 5] {
        assert!(
            lp.row(i).iter().chain(p.row(i)).all(|x| x.is_nan()),
            "row {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn matmul_distributes_over_addition(
        (a, b, c2) in (1usize..10, 1usize..10, 1usize..10)
            .prop_flat_map(|(m, k, n)| (mat(m, k), mat(k, n), mat(k, n)))
    ) {
        let lhs = matmul(&a, &add(&b, &c2));
        let rhs = add(&matmul(&a, &b), &matmul(&a, &c2));
        prop_assert!(lhs.approx_eq(&rhs, 1e-8), "distributivity failed");
    }

    #[test]
    fn transpose_reverses_products((a, b, _c) in chain3()) {
        let lhs = matmul(&a, &b).transpose();
        let rhs = matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn matmul_is_associative((a, b, c) in chain3()) {
        let lhs = matmul(&matmul(&a, &b), &c);
        let rhs = matmul(&a, &matmul(&b, &c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-6 * (1.0 + lhs.frobenius())));
    }

    #[test]
    fn tn_agrees_with_explicit_transpose(
        (a, b) in (1usize..10, 1usize..10, 1usize..10)
            .prop_flat_map(|(k, m, n)| (mat(k, m), mat(k, n)))
    ) {
        prop_assert!(matmul_tn(&a, &b).approx_eq(&matmul(&a.transpose(), &b), 1e-9));
    }

    #[test]
    fn nt_agrees_with_explicit_transpose(
        (c, d) in (1usize..10, 1usize..10, 1usize..10)
            .prop_flat_map(|(m, k, n)| (mat(m, k), mat(n, k)))
    ) {
        prop_assert!(matmul_nt(&c, &d).approx_eq(&matmul(&c, &d.transpose()), 1e-9));
    }

    #[test]
    fn elementwise_algebra((a, b) in pair()) {
        // a + b - b == a
        prop_assert!(sub(&add(&a, &b), &b).approx_eq(&a, 1e-10));
        // hadamard commutes
        prop_assert!(hadamard(&a, &b).approx_eq(&hadamard(&b, &a), 0.0));
        // scale(2a) == a + a
        prop_assert!(scale(&a, 2.0).approx_eq(&add(&a, &a), 0.0));
    }

    #[test]
    fn transpose_involution(m in (1usize..16, 1usize..16).prop_flat_map(|(r, c)| mat(r, c))) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn log_softmax_properties(
        z in (1usize..8, 2usize..8).prop_flat_map(|(r, c)| mat(r, c)),
        shift in -50.0f64..50.0,
    ) {
        let ls = log_softmax_rows(&z);
        // exp-rows sum to one.
        for i in 0..z.rows() {
            let s: f64 = ls.row(i).iter().map(|&x| x.exp()).sum();
            prop_assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
        // shift invariance.
        let shifted = log_softmax_rows(&z.map(|x| x + shift));
        prop_assert!(ls.approx_eq(&shifted, 1e-8));
        // consistency with softmax.
        let sm = softmax_rows(&z);
        prop_assert!(ls.map(f64::exp).approx_eq(&sm, 1e-9));
    }

    #[test]
    fn output_layer_matches_the_reference_bits(
        (z, c0, c1) in (0usize..6, 0usize..WIDTHS.len()).prop_flat_map(|(r, w)| {
            let cols = WIDTHS[w];
            (mat(r, cols), 0..cols + 1, 0..cols + 1)
        }),
        poison in 0usize..6,
        at in 0usize..256,
    ) {
        // One row in some draws carries a value the logits of a diverged
        // run would: a huge magnitude, an infinity, a NaN.
        let mut z = z;
        if z.rows() > 0 {
            let (i, j) = (at % z.rows(), at % z.cols());
            match poison {
                0 => z[(i, j)] = 1000.0,
                1 => z[(i, j)] = -1000.0,
                2 => z[(i, j)] = f64::NEG_INFINITY,
                3 => z.row_mut(i).fill(f64::NEG_INFINITY),
                4 => z[(i, j)] = f64::NAN,
                _ => {}
            }
        }
        assert_output_layer_matches_reference(&z, c0.min(c1), c0.max(c1));
    }

    #[test]
    fn parallel_matmul_is_bit_identical_to_serial(
        (a, b) in (0usize..40, 1usize..20, 1usize..20)
            .prop_flat_map(|(m, k, n)| (mat(m, k), mat(k, n))),
        threads in 1usize..=8,
    ) {
        // Exact equality, not approx: the panel decomposition preserves
        // the serial accumulation order per output element. `m` may be 0
        // (a rank owning no rows).
        let ctx = ParallelCtx::new(threads);
        prop_assert_eq!(matmul_with(ctx, &a, &b), matmul(&a, &b));
    }

    #[test]
    fn parallel_tn_nt_acc_bit_identical(
        (a, b, c0) in (0usize..24, 1usize..12, 1usize..12)
            .prop_flat_map(|(m, k, n)| (mat(m, k), mat(k, n), mat(m, n))),
        threads in 1usize..=8,
    ) {
        let ctx = ParallelCtx::new(threads);
        // NT: (m x k) · (n x k)ᵀ — reuse shapes: a · (aᵀ rows) needs
        // second operand with k columns; b.transpose() is (n x k).
        let bt = b.transpose();
        prop_assert_eq!(matmul_nt_with(ctx, &a, &bt), matmul_nt(&a, &bt));
        // TN: (m x k)ᵀ · (m x n).
        prop_assert_eq!(matmul_tn_with(ctx, &a, &c0), matmul_tn(&a, &c0));
        // ACC: both paths accumulate into identical non-zero state.
        let mut acc_s = c0.clone();
        let mut acc_p = c0.clone();
        matmul_acc(&a, &b, &mut acc_s);
        matmul_acc_with(ctx, &a, &b, &mut acc_p);
        prop_assert_eq!(acc_p, acc_s);
    }

    #[test]
    fn nan_and_inf_propagate(
        (a, b, row, col) in (2usize..12, 1usize..12, 2usize..12)
            .prop_flat_map(|(m, k, n)| {
                (mat(m, k), mat(k, n), 0..m, 0..n)
            }),
        poison_pick in 0usize..2,
        threads in 1usize..=4,
    ) {
        // IEEE 754: any product chain touching a NaN — including
        // `0.0 × inf` — must yield NaN. The pre-register-blocking kernel
        // skipped zero entries of A, silently laundering `0 × inf` into
        // finite output; the micro-kernel must not.
        let mut a = a;
        let mut b = b;
        let poison_zero = poison_pick == 0;
        if poison_zero {
            // A zero in A meeting an inf in B: 0 × inf = NaN.
            for p in 0..a.cols() {
                a[(row, p)] = 0.0;
            }
            b[(0, col)] = f64::INFINITY;
        } else {
            b[(0, col)] = f64::NAN;
        }
        type MatMulFn<'a> = &'a dyn Fn(&Mat, &Mat) -> Mat;
        let fns: [MatMulFn; 2] = [
            &matmul,
            &|x, y| matmul_with(ParallelCtx::new(threads), x, y),
        ];
        for f in fns {
            let c = f(&a, &b);
            prop_assert!(
                c[(row, col)].is_nan(),
                "expected NaN at ({row},{col}), got {}",
                c[(row, col)]
            );
            // Rows of A without the poisoned entries stay finite-driven:
            // no cross-element contamination from the register tiles.
            for i in 0..c.rows() {
                for j in 0..c.cols() {
                    if j != col {
                        prop_assert!(!c[(i, j)].is_nan(), "NaN leaked to ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn microkernel_matches_reference_bits(
        (a, b) in (1usize..24, 1usize..24, 1usize..24)
            .prop_flat_map(|(m, k, n)| (mat(m, k), mat(k, n))),
    ) {
        // The register-blocked kernel accumulates each element's products
        // with a single accumulator in ascending shared-dimension order
        // inside every cache panel — the same order as the scalar
        // reference kernel — so on these sub-panel shapes the results are
        // bit-identical, not merely approximately equal.
        prop_assert_eq!(matmul(&a, &b), cagnet_dense::reference::matmul_reference(&a, &b));
    }

    #[test]
    fn block_quadrant_roundtrip(
        (m, rsplit, csplit) in (2usize..12, 2usize..12)
            .prop_flat_map(|(r, c)| (mat(r, c), 1..r.max(2), 1..c.max(2)))
    ) {
        let (rows, cols) = m.shape();
        let tl = m.block(0, rsplit, 0, csplit);
        let tr = m.block(0, rsplit, csplit, cols);
        let bl = m.block(rsplit, rows, 0, csplit);
        let br = m.block(rsplit, rows, csplit, cols);
        let top = Mat::hstack(&[tl, tr]);
        let bottom = Mat::hstack(&[bl, br]);
        prop_assert!(Mat::vstack(&[top, bottom]).approx_eq(&m, 0.0));
    }
}
