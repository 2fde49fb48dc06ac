//! Masked negative log-likelihood loss and its gradient.
//!
//! The output layer applies row-wise `log_softmax`; the training loss is
//! the mean negative log-probability of the true class over the training
//! mask. Its gradient with respect to the pre-activation `Z^L` is the
//! paper's `G^L = ∇_{H^L} L ⊙ σ'(Z^L)` (Eq. 1) which for
//! log-softmax + NLL collapses to the classic `softmax(Z) − onehot`,
//! scaled by `1/|train|` on masked rows and zero elsewhere.

use cagnet_dense::activation::softmax_rows_into;
use cagnet_dense::Mat;

/// Mean NLL over the masked rows of a log-probability matrix.
///
/// `row_offset` maps local row `i` to global vertex `row_offset + i`, so
/// distributed trainers can evaluate their block's contribution; pass 0
/// with full matrices. Returns the *sum* over local masked rows — divide
/// by the global train count (or all-reduce first).
pub fn nll_sum(log_probs: &Mat, labels: &[usize], mask: &[bool], row_offset: usize) -> f64 {
    let mut total = 0.0;
    for i in 0..log_probs.rows() {
        let g = row_offset + i;
        if mask[g] {
            total -= log_probs[(i, labels[g])];
        }
    }
    total
}

/// Gradient `G^L = ∂L/∂Z^L` for log-softmax + masked mean NLL, evaluated
/// on a row block: `(softmax(Z) − onehot) / train_count` on masked rows,
/// zero rows elsewhere.
pub fn output_gradient(
    z: &Mat,
    labels: &[usize],
    mask: &[bool],
    row_offset: usize,
    train_count: usize,
) -> Mat {
    let mut g = Mat::zeros(0, 0);
    output_gradient_into(z, labels, mask, row_offset, train_count, &mut g);
    g
}

/// [`output_gradient`] written over `g`, reusing its allocation.
pub fn output_gradient_into(
    z: &Mat,
    labels: &[usize],
    mask: &[bool],
    row_offset: usize,
    train_count: usize,
    g: &mut Mat,
) {
    softmax_rows_into(z, g);
    output_gradient_from_probs(g, labels, mask, row_offset, 0, train_count);
}

/// [`output_gradient`] in place over the probabilities a training forward
/// already produced: `g` holds columns `col0..col0 + g.cols()` of
/// `softmax(Z)` for the row block on entry and the same block of `G^L` on
/// return.
pub fn output_gradient_from_probs(
    g: &mut Mat,
    labels: &[usize],
    mask: &[bool],
    row_offset: usize,
    col0: usize,
    train_count: usize,
) {
    assert!(train_count > 0, "train_count must be positive");
    let scale = 1.0 / train_count as f64;
    for i in 0..g.rows() {
        let gv = row_offset + i;
        let row = g.row_mut(i);
        if mask[gv] {
            for x in row.iter_mut() {
                *x *= scale;
            }
            if let Some(x) = labels[gv].checked_sub(col0).and_then(|c| row.get_mut(c)) {
                *x -= scale;
            }
        } else {
            row.fill(0.0);
        }
    }
}

/// Classification accuracy over masked rows: fraction of rows whose argmax
/// log-probability matches the label. Returns `(correct, considered)`.
pub fn accuracy_counts(
    log_probs: &Mat,
    labels: &[usize],
    mask: &[bool],
    row_offset: usize,
) -> (usize, usize) {
    let mut correct = 0;
    let mut total = 0;
    for i in 0..log_probs.rows() {
        let g = row_offset + i;
        if mask[g] {
            total += 1;
            let row = log_probs.row(i);
            // total_cmp gives NaN a defined order, so no unwrap is needed
            // and a NaN logit cannot panic the accuracy pass.
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .unwrap_or(0);
            if argmax == labels[g] {
                correct += 1;
            }
        }
    }
    (correct, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_dense::activation::log_softmax_rows;

    #[test]
    fn nll_of_perfect_prediction_is_near_zero() {
        // Logits strongly favoring the true class.
        let z = Mat::from_rows(&[&[100.0, 0.0], &[0.0, 100.0]]);
        let lp = log_softmax_rows(&z);
        let loss = nll_sum(&lp, &[0, 1], &[true, true], 0) / 2.0;
        assert!(loss < 1e-10);
    }

    #[test]
    fn nll_of_uniform_prediction_is_log_k() {
        let z = Mat::zeros(3, 4);
        let lp = log_softmax_rows(&z);
        let loss = nll_sum(&lp, &[0, 1, 2], &[true, true, true], 0) / 3.0;
        assert!((loss - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn mask_excludes_rows() {
        let z = Mat::zeros(2, 2);
        let lp = log_softmax_rows(&z);
        let loss = nll_sum(&lp, &[0, 0], &[true, false], 0);
        assert!((loss - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_rows_sum_to_zero_on_masked() {
        let z = Mat::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 0.0, 0.0]]);
        let g = output_gradient(&z, &[2, 1], &[true, true], 0, 2);
        for i in 0..2 {
            let s: f64 = g.row(i).iter().sum();
            assert!(s.abs() < 1e-12, "row {i} sums to {s}");
        }
        // True-class entry is negative (push up its probability).
        assert!(g[(0, 2)] < 0.0);
    }

    #[test]
    fn gradient_zero_on_unmasked() {
        let z = Mat::from_rows(&[&[1.0, 2.0]]);
        let g = output_gradient(&z, &[0, 0], &[false, true], 1, 1);
        // row_offset=1 => local row 0 is global vertex 1 which IS masked...
        // global vertex 1 has mask true, so gradient nonzero; check the
        // offset plumbing by flipping.
        assert!(g.row(0).iter().any(|&x| x != 0.0));
        let g2 = output_gradient(&z, &[0, 0], &[true, false], 1, 1);
        assert!(g2.row(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // d(NLL mean)/dZ via central differences on a tiny instance.
        let z = Mat::from_rows(&[&[0.3, -0.7, 0.1], &[1.0, 0.2, -0.5]]);
        let labels = [1usize, 0usize];
        let mask = [true, true];
        let g = output_gradient(&z, &labels, &mask, 0, 2);
        let eps = 1e-6;
        for i in 0..2 {
            for j in 0..3 {
                let mut zp = z.clone();
                zp[(i, j)] += eps;
                let mut zm = z.clone();
                zm[(i, j)] -= eps;
                let lp = nll_sum(&log_softmax_rows(&zp), &labels, &mask, 0) / 2.0;
                let lm = nll_sum(&log_softmax_rows(&zm), &labels, &mask, 0) / 2.0;
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - g[(i, j)]).abs() < 1e-6,
                    "fd {fd} vs analytic {} at ({i},{j})",
                    g[(i, j)]
                );
            }
        }
    }

    #[test]
    fn accuracy_counting() {
        let lp = Mat::from_rows(&[&[-0.1, -3.0], &[-2.0, -0.2], &[-0.5, -0.6]]);
        let (c, t) = accuracy_counts(&lp, &[0, 1, 1], &[true, true, true], 0);
        assert_eq!((c, t), (2, 3));
        let (c, t) = accuracy_counts(&lp, &[0, 1, 1], &[true, false, false], 0);
        assert_eq!((c, t), (1, 1));
    }
}
