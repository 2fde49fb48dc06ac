//! Activation functions and their derivatives.
//!
//! The paper's 3-layer GCN (Kipf–Welling architecture, §V-A) uses ReLU on
//! hidden layers and row-wise `log_softmax` on the output layer. The paper
//! singles out `log_softmax` as the one activation that is *not*
//! elementwise and therefore forces an extra all-gather in the 2D/3D
//! distributions (§IV-C.2, §IV-D.2): a row of `Z` must be assembled before
//! its log-sum-exp can be computed. The row-wise kernels here operate on
//! full rows so that the distributed trainers can apply them after their
//! row all-gathers.

use crate::matrix::Mat;

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

/// Numerically-stable row-wise softmax.
pub fn softmax_rows(z: &Mat) -> Mat {
    let mut out = Mat::zeros(0, 0);
    softmax_rows_into(z, &mut out);
    out
}

/// [`softmax_rows`] written over `out`, reusing its allocation.
pub fn softmax_rows_into(z: &Mat, out: &mut Mat) {
    out.copy_from(z);
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut denom = 0.0;
        for &x in row.iter() {
            denom += (x - m).exp();
        }
        for x in row.iter_mut() {
            *x = (*x - m).exp() / denom;
        }
    }
}

/// Numerically-stable row-wise `log_softmax`.
pub fn log_softmax_rows(z: &Mat) -> Mat {
    let mut out = Mat::zeros(0, 0);
    log_softmax_rows_into(z, &mut out);
    out
}

/// [`log_softmax_rows`] written over `out`, reusing its allocation.
pub fn log_softmax_rows_into(z: &Mat, out: &mut Mat) {
    out.copy_from(z);
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = m + row.iter().map(|&x| (x - m).exp()).sum::<f64>().ln();
        for x in row.iter_mut() {
            *x -= lse;
        }
    }
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
