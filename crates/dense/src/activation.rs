//! Activation functions and their derivatives.
//!
//! The paper's 3-layer GCN (Kipf–Welling architecture, §V-A) uses ReLU on
//! hidden layers and row-wise `log_softmax` on the output layer. The paper
//! singles out `log_softmax` as the one activation that is *not*
//! elementwise and therefore forces an extra all-gather in the 2D/3D
//! distributions (§IV-C.2, §IV-D.2), where each rank holds a column block
//! of a row of `Z`. The row-wise kernels here operate on full rows and
//! share one row kernel that evaluates a single `exp` per logit whichever
//! of `log p` and `p` is asked for; the split log-sum-exp (`lse_*`) gets
//! the same results from per-block statistics, so the distributed
//! trainers exchange three numbers per row instead of the row.

use crate::matrix::Mat;
use std::borrow::Borrow;
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

/// The predicted class of a row of log-probabilities (or of logits —
/// `log p = z − lse` keeps their order): the last index of its largest
/// value, a `NaN` ranking below every number and level with every other
/// `NaN`, so that a row whose log-sum-exp is `NaN` answers its last index
/// whatever bits its `NaN`s carry. 0 for an empty row.
pub fn row_argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (j, &x) in row.iter().enumerate().skip(1) {
        if x >= row[best] || row[best].is_nan() {
            best = j;
        }
    }
    best
}

/// The split log-sum-exp (DESIGN.md §14), step one: per row of the
/// column block `z`, `[m, s, a]` written over `stats` — the block max `m`
/// (`−inf` when the block holds no number), `s = Σ_j exp(z_j − k)` folded
/// in column order and its argmax `a` ([`row_argmax`], local column).
/// The shift `k` is `m`, or 0 when `m = −inf`, so that a block of `−inf`s
/// sums to 0 instead of `NaN` while a `NaN` or a `+inf` still makes `s`
/// `NaN`. `e`, when given, receives the `exp(z_j − k)`, shaped like `z`.
pub fn lse_block_stats(z: &Mat, mut e: Option<&mut Mat>, stats: &mut Vec<f64>) {
    stats.clear();
    if let Some(e) = e.as_deref_mut() {
        e.reset(z.rows(), z.cols());
    }
    for i in 0..z.rows() {
        let row = z.row(i);
        let a = row_argmax(row);
        let m = row.get(a).copied().filter(|x| !x.is_nan());
        let m = m.unwrap_or(f64::NEG_INFINITY);
        let k = if m == f64::NEG_INFINITY { 0.0 } else { m };
        let mut s = 0.0;
        match e.as_deref_mut() {
            Some(e) => {
                for (e, &x) in e.row_mut(i).iter_mut().zip(row) {
                    *e = (x - k).exp();
                    s += *e;
                }
            }
            None => row.iter().for_each(|&x| s += (x - k).exp()),
        }
        stats.extend([m, s, a as f64]);
    }
}

/// The split log-sum-exp, step two: fold the [`lse_block_stats`] of the
/// `q` column blocks of the same rows — `parts[r]` of member `r`, whose
/// block is `widths[r]` columns wide, in column order — into
/// `[M, S, argmax]` per row over `out`: `M = max_r m_r`,
/// `S = Σ_r s_r·exp(m_r − M)` in member order, so `lse = M + ln S`, and
/// the row's global argmax by [`row_argmax`]'s rule on `log p` (the last
/// column when `S` is `NaN`, which makes every `log p` `NaN`; else the
/// argmax of the last non-empty member whose max is `M`). Every member
/// folding the same parts gets the same bits.
pub fn lse_combine<V: Borrow<Vec<f64>>>(parts: &[V], widths: &[usize], out: &mut Vec<f64>) {
    assert_eq!(parts.len(), widths.len(), "lse_combine: one width per part");
    let rows = parts.first().map_or(0, |p| p.borrow().len() / 3);
    let last = widths.iter().sum::<usize>().saturating_sub(1);
    out.clear();
    for i in 0..rows {
        let stat = |r: usize| &parts[r].borrow()[3 * i..3 * i + 3];
        let big_m = (0..parts.len()).fold(f64::NEG_INFINITY, |acc, r| acc.max(stat(r)[0]));
        let big_s = (0..parts.len()).fold(0.0, |acc, r| {
            let (m, s) = (stat(r)[0], stat(r)[1]);
            acc + s * (m - big_m).exp()
        });
        let argmax = if big_s.is_nan() {
            last
        } else {
            let mut offset = 0;
            let mut best = last;
            for (r, &w) in widths.iter().enumerate() {
                if w > 0 && stat(r)[0] == big_m {
                    best = offset + stat(r)[2] as usize;
                }
                offset += w;
            }
            best
        };
        out.extend([big_m, big_s, argmax as f64]);
    }
}

/// Row `i`'s log-sum-exp `M + ln S` from the [`lse_combine`] output
/// `combined`.
pub fn lse_row(combined: &[f64], i: usize) -> f64 {
    combined[3 * i] + combined[3 * i + 1].ln()
}

/// Row `i`'s predicted class from the [`lse_combine`] output `combined`.
pub fn lse_argmax(combined: &[f64], i: usize) -> usize {
    combined[3 * i + 2] as usize
}

/// The split log-sum-exp, step three: `log p = z − lse` over `log_p`,
/// per row of `z` and of the [`lse_combine`] output `combined`.
pub fn lse_log_probs_into(z: &Mat, combined: &[f64], log_p: &mut Mat) {
    log_p.reset(z.rows(), z.cols());
    for i in 0..z.rows() {
        let lse = lse_row(combined, i);
        for (o, &x) in log_p.row_mut(i).iter_mut().zip(z.row(i)) {
            *o = x - lse;
        }
    }
}

/// The split log-sum-exp's probabilities, in place: `e` holds a block's
/// `exp(z_j − k)` from [`lse_block_stats`] (whose `stats` are `block`) on
/// entry and `p_j = e_j·exp(m − M) / S` on return. A lone block, where
/// `exp(m − M) = 1`, gets [`log_softmax_probs_into`]'s bits.
pub fn lse_probs_assign(e: &mut Mat, block: &[f64], combined: &[f64]) {
    for i in 0..e.rows() {
        let (big_m, big_s) = (combined[3 * i], combined[3 * i + 1]);
        let scale = (block[3 * i] - big_m).exp();
        for p in e.row_mut(i) {
            *p = *p * scale / big_s;
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

    /// Rows of width `w`: the non-finite cases of the split log-sum-exp's
    /// contract, then drawn rows in `[-4, 4)`.
    fn split_rows(w: usize) -> Mat {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ w as u64;
        let mut draw = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
        };
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let mut rows: Vec<Vec<f64>> = (0..16).map(|_| (0..w).map(|_| draw()).collect()).collect();
        // A −inf logit under a finite max.
        rows[0][w / 2] = -inf;
        // The tail all −inf, so the last blocks are while the first is not.
        rows[1][w.div_ceil(2)..].fill(-inf);
        rows[2].fill(-inf);
        rows[3][w / 2] = nan;
        rows[4][w - 1] = inf;
        // Equal maxima at both ends: in two blocks whenever q > 1.
        rows[5][0] = 5.0;
        rows[5][w - 1] = 5.0;
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        Mat::from_rows(&refs)
    }

    #[test]
    fn split_log_sum_exp_matches_the_row_kernel() {
        for w in [1, 3, 7, 10] {
            let z = split_rows(w);
            let (mut log_p, mut p) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
            log_softmax_probs_into(&z, 0..w, &mut log_p, &mut p);
            let mut whole = Mat::zeros(0, 0);
            log_softmax_rows_into(&z, &mut whole);
            assert_eq!(whole.as_slice().len(), log_p.as_slice().len());
            for q in [1, 2, 3, 4, 7] {
                // Member r's columns; some are empty when q > w.
                let bounds: Vec<(usize, usize)> =
                    (0..q).map(|r| (r * w / q, (r + 1) * w / q)).collect();
                let blocks: Vec<Mat> = bounds
                    .iter()
                    .map(|&(c0, c1)| z.block(0, z.rows(), c0, c1))
                    .collect();
                let (mut parts, mut es) = (Vec::new(), Vec::new());
                for b in &blocks {
                    let (mut e, mut stats) = (Mat::zeros(0, 0), Vec::new());
                    lse_block_stats(b, Some(&mut e), &mut stats);
                    let mut bare = Vec::new();
                    lse_block_stats(b, None, &mut bare);
                    assert_eq!(bits(&bare), bits(&stats), "w={w} q={q}");
                    parts.push(stats);
                    es.push(e);
                }
                let widths: Vec<usize> = bounds.iter().map(|&(c0, c1)| c1 - c0).collect();
                let mut combined = Vec::new();
                lse_combine(&parts, &widths, &mut combined);
                let (mut lp_parts, mut p_parts) = (Vec::new(), Vec::new());
                for ((b, mut e), stats) in blocks.iter().zip(es).zip(&parts) {
                    let mut lp = Mat::zeros(0, 0);
                    lse_log_probs_into(b, &combined, &mut lp);
                    lse_probs_assign(&mut e, stats, &combined);
                    lp_parts.push(lp);
                    p_parts.push(e);
                }
                let (split_lp, split_p) = (Mat::hstack(&lp_parts), Mat::hstack(&p_parts));
                for (got, want) in [(&split_lp, &log_p), (&split_p, &p)] {
                    for (k, (&a, &b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                        let at = (k / w, k % w);
                        assert_eq!(a.is_nan(), b.is_nan(), "w={w} q={q} {at:?}: {a} vs {b}");
                        if q == 1 && !b.is_nan() {
                            assert_eq!(a.to_bits(), b.to_bits(), "w={w} {at:?}");
                        } else if b.is_infinite() {
                            assert_eq!(a, b, "w={w} q={q} {at:?}");
                        } else if !b.is_nan() {
                            let err = (a - b).abs();
                            assert!(err <= 1e-12 * b.abs(), "w={w} q={q} {at:?}: {a} vs {b}");
                        }
                    }
                }
                for i in 0..z.rows() {
                    let want = row_argmax(log_p.row(i));
                    assert_eq!(lse_argmax(&combined, i), want, "w={w} q={q} row {i}");
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn row_argmax_takes_the_last_maximum_and_ranks_nan_lowest() {
        let nan = f64::NAN;
        assert_eq!(row_argmax(&[]), 0);
        assert_eq!(row_argmax(&[1.0, 3.0, 3.0, 2.0]), 2);
        assert_eq!(row_argmax(&[nan, 1.0, nan]), 1);
        assert_eq!(row_argmax(&[nan, -nan, nan]), 2);
        assert_eq!(row_argmax(&[f64::NEG_INFINITY, nan]), 0);
        assert_eq!(row_argmax(&[0.0, -0.0]), 1);
    }
}
