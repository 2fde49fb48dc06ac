//! Activation functions and their derivatives.
//!
//! The paper's 3-layer GCN (Kipf–Welling architecture, §V-A) uses ReLU on
//! hidden layers and row-wise `log_softmax` on the output layer. The paper
//! singles out `log_softmax` as the one activation that is *not*
//! elementwise and therefore forces an extra all-gather in the 2D/3D
//! distributions (§IV-C.2, §IV-D.2): a row of `Z` must be assembled before
//! its log-sum-exp can be computed. The row-wise kernels here operate on
//! full rows so that the distributed trainers can apply them after their
//! row all-gathers, and share one row kernel that evaluates a single `exp`
//! per logit whichever of `log p` and `p` is asked for.

use crate::matrix::Mat;
use std::ops::Range;

/// An elementwise hidden-layer activation, selectable per model. The
/// paper's architecture uses ReLU; the others are the common GCN-variant
/// choices, all elementwise and therefore communication-free in every
/// distribution (§IV-A.2's observation generalizes to any elementwise σ).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// `max(0, x)` — the paper's σ.
    Relu,
    /// `max(αx, x)` with slope `α` on the negative side.
    LeakyRelu(f64),
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// `σ(x)` for one element.
    #[inline]
    fn value(self, x: f64) -> f64 {
        match self {
            Activation::Relu => positive_or(x, x, 0.0),
            Activation::LeakyRelu(a) => positive_or(x, x, a * x),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// `σ'(x)` for one element (subgradient 0 at ReLU's kink).
    #[inline]
    fn slope(self, x: f64) -> f64 {
        match self {
            Activation::Relu => positive_or(x, 1.0, 0.0),
            Activation::LeakyRelu(a) => positive_or(x, 1.0, a),
            Activation::Tanh => 1.0 - x.tanh().powi(2),
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 - s)
            }
        }
    }

    /// Apply elementwise.
    pub fn apply(&self, z: &Mat) -> Mat {
        let mut h = Mat::zeros(0, 0);
        self.apply_into(z, &mut h);
        h
    }

    /// [`Activation::apply`] written over `h`, reusing its allocation.
    pub fn apply_into(&self, z: &Mat, h: &mut Mat) {
        let act = *self;
        h.map_from(z, |x| act.value(x));
    }

    /// Derivative evaluated at the pre-activation `z`, elementwise.
    pub fn prime(&self, z: &Mat) -> Mat {
        let act = *self;
        z.map(|x| act.slope(x))
    }

    /// `g ⊙= σ'(z)` in place — the backpropagation factor of the paper's
    /// Eq. 1–2 without materializing `σ'(Z)`. Each element is the same
    /// single product `g · σ'(z)` as `hadamard_assign(g, &prime(z))`.
    pub fn mul_prime_assign(&self, g: &mut Mat, z: &Mat) {
        assert_eq!(g.shape(), z.shape(), "mul_prime_assign: shape mismatch");
        let act = *self;
        for (x, &zv) in g.as_mut_slice().iter_mut().zip(z.as_slice()) {
            *x *= act.slope(zv);
        }
    }
}

/// `pos` where `x > 0`, else `neg` (so NaN and `-0.0` take `neg`).
#[inline]
fn positive_or(x: f64, pos: f64, neg: f64) -> f64 {
    if x > 0.0 {
        pos
    } else {
        neg
    }
}

/// ReLU, elementwise: `max(0, x)`.
pub fn relu(z: &Mat) -> Mat {
    Activation::Relu.apply(z)
}

/// Derivative of ReLU evaluated at `z`, elementwise (subgradient 0 at 0).
pub fn relu_prime(z: &Mat) -> Mat {
    Activation::Relu.prime(z)
}

/// The output layer's row kernel (DESIGN.md §14): `e_j = exp(z_j − m)`
/// with `m = max_j z_j`, written to `e` while `Σ_j e_j` is folded in
/// column order — one `exp` per logit, after which `log p_j` and `p_j` are
/// both one cheap operation away. Returns `(m, Σ_j e_j)`.
fn exp_shifted_row(z: &[f64], e: &mut [f64]) -> (f64, f64) {
    let m = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut denom = 0.0;
    for (e, &x) in e.iter_mut().zip(z) {
        *e = (x - m).exp();
        denom += *e;
    }
    (m, denom)
}

/// Shape `out` like `z`, then per row: [`exp_shifted_row`] into the row
/// of `out`, and `finish(i, z_row, out_row, m, denom)` to turn the `e_j`
/// there into the row's result.
fn for_each_exp_row(
    z: &Mat,
    out: &mut Mat,
    mut finish: impl FnMut(usize, &[f64], &mut [f64], f64, f64),
) {
    out.copy_from(z);
    for i in 0..z.rows() {
        let (z_row, out_row) = (z.row(i), out.row_mut(i));
        let (m, denom) = exp_shifted_row(z_row, out_row);
        finish(i, z_row, out_row, m, denom);
    }
}

/// `log p_j = z_j − (m + ln Σ e)` over a row holding the `e_j`.
fn finish_log_row(z_row: &[f64], out_row: &mut [f64], m: f64, denom: f64) {
    let lse = m + denom.ln();
    for (o, &x) in out_row.iter_mut().zip(z_row) {
        *o = x - lse;
    }
}

/// Numerically-stable row-wise softmax.
pub fn softmax_rows(z: &Mat) -> Mat {
    let mut out = Mat::zeros(0, 0);
    softmax_rows_into(z, &mut out);
    out
}

/// [`softmax_rows`] written over `out`, reusing its allocation.
pub fn softmax_rows_into(z: &Mat, out: &mut Mat) {
    for_each_exp_row(z, out, |_, _, out_row, _, denom| {
        for e in out_row {
            *e /= denom;
        }
    });
}

/// Numerically-stable row-wise `log_softmax`.
pub fn log_softmax_rows(z: &Mat) -> Mat {
    let mut out = Mat::zeros(0, 0);
    log_softmax_rows_into(z, &mut out);
    out
}

/// [`log_softmax_rows`] written over `out`, reusing its allocation.
pub fn log_softmax_rows_into(z: &Mat, out: &mut Mat) {
    for_each_exp_row(z, out, |_, z_row, out_row, m, denom| {
        finish_log_row(z_row, out_row, m, denom)
    });
}

/// The training forward's output layer in one pass: [`log_softmax_rows`]
/// of `z` over `log_p` and columns `cols` of [`softmax_rows`] of `z` over
/// `p` (`z.rows() x cols.len()`), both bit-identical to those functions,
/// from a single `exp` per logit. Each row of `log_p` holds the `e_j`
/// until its probabilities are out, so no third buffer is needed.
///
/// # Panics
/// When `cols` reaches past `z.cols()`.
pub fn log_softmax_probs_into(z: &Mat, cols: Range<usize>, log_p: &mut Mat, p: &mut Mat) {
    assert!(
        cols.start <= cols.end && cols.end <= z.cols(),
        "log_softmax_probs_into: column range out of bounds"
    );
    p.reset(z.rows(), cols.len());
    for_each_exp_row(z, log_p, |i, z_row, out_row, m, denom| {
        for (p, &e) in p.row_mut(i).iter_mut().zip(&out_row[cols.clone()]) {
            *p = e / denom;
        }
        finish_log_row(z_row, out_row, m, denom);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let z = Mat::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let h = relu(&z);
        assert_eq!(h.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_prime_is_indicator() {
        let z = Mat::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let d = relu_prime(&z);
        assert_eq!(d.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let z = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&z);
        for i in 0..2 {
            let sum: f64 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(s.row(i).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let z = Mat::from_rows(&[&[1.0, 2.0, 3.0]]);
        let shifted = z.map(|x| x + 100.0);
        assert!(softmax_rows(&z).approx_eq(&softmax_rows(&shifted), 1e-12));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let z = Mat::from_rows(&[&[0.3, -1.2, 2.5, 0.0]]);
        let ls = log_softmax_rows(&z);
        let s = softmax_rows(&z).map(f64::ln);
        assert!(ls.approx_eq(&s, 1e-12));
    }

    #[test]
    fn activation_enum_matches_free_functions() {
        let z = Mat::from_rows(&[&[-2.0, -0.5, 0.0, 0.5, 2.0]]);
        assert!(Activation::Relu.apply(&z).approx_eq(&relu(&z), 0.0));
        assert!(Activation::Relu.prime(&z).approx_eq(&relu_prime(&z), 0.0));
    }

    #[test]
    fn activation_derivatives_match_finite_differences() {
        let z = Mat::from_rows(&[&[-1.5, -0.3, 0.2, 1.7]]);
        let eps = 1e-6;
        for act in [
            Activation::LeakyRelu(0.1),
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let d = act.prime(&z);
            for j in 0..z.cols() {
                let mut zp = z.clone();
                zp[(0, j)] += eps;
                let mut zm = z.clone();
                zm[(0, j)] -= eps;
                let fd = (act.apply(&zp)[(0, j)] - act.apply(&zm)[(0, j)]) / (2.0 * eps);
                assert!(
                    (fd - d[(0, j)]).abs() < 1e-6,
                    "{act:?} at col {j}: fd {fd} vs {}",
                    d[(0, j)]
                );
            }
        }
    }

    #[test]
    fn activation_ranges() {
        let z = Mat::from_rows(&[&[-10.0, 0.0, 10.0]]);
        let s = Activation::Sigmoid.apply(&z);
        assert!(s.as_slice().iter().all(|&x| (0.0..=1.0).contains(&x)));
        let t = Activation::Tanh.apply(&z);
        assert!(t.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
        let l = Activation::LeakyRelu(0.01).apply(&z);
        assert_eq!(l[(0, 0)], -0.1);
        assert_eq!(l[(0, 2)], 10.0);
    }

    #[test]
    fn log_softmax_handles_extreme_values() {
        let z = Mat::from_rows(&[&[1000.0, 0.0], &[-1000.0, -1000.0]]);
        let ls = log_softmax_rows(&z);
        assert!(ls.as_slice().iter().all(|x| x.is_finite()));
        // Row of equal values -> uniform distribution.
        assert!((ls[(1, 0)] - (0.5f64).ln()).abs() < 1e-12);
    }
}
