//! Deterministic, layout-independent dropout.
//!
//! Kipf & Welling's GCN (the architecture the paper trains, §V-A) uses
//! dropout on hidden activations. In a distributed setting the subtlety
//! is that every rank must draw the *same* mask the serial model would —
//! regardless of which row block or column slice of `H^l` it owns —
//! or the parallel == serial property (§V-A) breaks. The mask here is a
//! pure function of `(base seed, epoch, layer, global row)`: any rank
//! reconstructs exactly its local window of the global mask with no
//! communication.
//!
//! Inverted dropout: kept entries are scaled by `1/(1-rate)` so
//! evaluation needs no rescaling.

use cagnet_dense::Mat;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Identifies one mask draw.
#[derive(Clone, Copy, Debug)]
pub struct DropoutKey {
    /// Model-level seed.
    pub base_seed: u64,
    /// Epoch counter (fresh mask every epoch).
    pub epoch: u64,
    /// Layer index.
    pub layer: usize,
}

fn row_rng(key: DropoutKey, global_row: usize) -> ChaCha8Rng {
    // Mix the coordinates; any fixed injective-ish mixing works since
    // ChaCha decorrelates the stream.
    let s = key
        .base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key.epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((key.layer as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(global_row as u64);
    ChaCha8Rng::seed_from_u64(s)
}

/// Build the local window of the global dropout mask: rows
/// `[row_offset, row_offset + rows)` and columns `[c0, c1)` of a global
/// `? x f_total` mask. Entries are `0` (dropped) or `1/(1-rate)` (kept).
///
/// # Panics
/// Panics unless `0 <= rate < 1` and the column window fits.
pub fn mask_block(
    key: DropoutKey,
    rate: f64,
    row_offset: usize,
    rows: usize,
    f_total: usize,
    c0: usize,
    c1: usize,
) -> Mat {
    let mut out = Mat::zeros(0, 0);
    mask_block_into(key, rate, row_offset, rows, f_total, c0, c1, &mut out);
    out
}

/// [`mask_block`] written over `out`, reusing its allocation.
#[allow(clippy::too_many_arguments)]
pub fn mask_block_into(
    key: DropoutKey,
    rate: f64,
    row_offset: usize,
    rows: usize,
    f_total: usize,
    c0: usize,
    c1: usize,
    out: &mut Mat,
) {
    assert!((0.0..1.0).contains(&rate), "rate must be in [0, 1)");
    assert!(c0 <= c1 && c1 <= f_total, "column window out of range");
    let keep_scale = 1.0 / (1.0 - rate);
    out.reset(rows, c1 - c0);
    for r in 0..rows {
        let mut rng = row_rng(key, row_offset + r);
        // Draw the full global row so column slices are consistent.
        let orow = out.row_mut(r);
        for c in 0..f_total {
            let u: f64 = rng.gen();
            if c >= c0 && c < c1 {
                orow[c - c0] = if u < rate { 0.0 } else { keep_scale };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: DropoutKey = DropoutKey {
        base_seed: 7,
        epoch: 3,
        layer: 1,
    };

    #[test]
    fn values_are_zero_or_scaled() {
        let m = mask_block(KEY, 0.4, 0, 20, 10, 0, 10);
        let scale = 1.0 / 0.6;
        for &x in m.as_slice() {
            assert!(x == 0.0 || (x - scale).abs() < 1e-12);
        }
    }

    #[test]
    fn rate_zero_keeps_everything() {
        let m = mask_block(KEY, 0.0, 0, 5, 4, 0, 4);
        assert!(m.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn row_blocks_tile_the_global_mask() {
        let full = mask_block(KEY, 0.5, 0, 30, 8, 0, 8);
        let top = mask_block(KEY, 0.5, 0, 13, 8, 0, 8);
        let bottom = mask_block(KEY, 0.5, 13, 17, 8, 0, 8);
        assert!(Mat::vstack(&[top, bottom]).approx_eq(&full, 0.0));
    }

    #[test]
    fn column_slices_tile_the_global_mask() {
        let full = mask_block(KEY, 0.5, 4, 10, 9, 0, 9);
        let left = mask_block(KEY, 0.5, 4, 10, 9, 0, 4);
        let right = mask_block(KEY, 0.5, 4, 10, 9, 4, 9);
        assert!(Mat::hstack(&[left, right]).approx_eq(&full, 0.0));
    }

    #[test]
    fn different_epochs_layers_rows_differ() {
        let a = mask_block(KEY, 0.5, 0, 8, 16, 0, 16);
        let mut k2 = KEY;
        k2.epoch += 1;
        let b = mask_block(k2, 0.5, 0, 8, 16, 0, 16);
        assert_ne!(a, b, "epoch must refresh the mask");
        let mut k3 = KEY;
        k3.layer += 1;
        let c = mask_block(k3, 0.5, 0, 8, 16, 0, 16);
        assert_ne!(a, c, "layers draw independent masks");
    }

    #[test]
    fn keep_rate_is_approximately_honored() {
        let m = mask_block(KEY, 0.3, 0, 200, 50, 0, 50);
        let kept = m.as_slice().iter().filter(|&&x| x > 0.0).count();
        let frac = kept as f64 / (200.0 * 50.0);
        assert!((frac - 0.7).abs() < 0.03, "keep fraction {frac}");
    }

    #[test]
    fn expectation_is_preserved() {
        // E[mask] = 1 elementwise under inverted dropout.
        let m = mask_block(KEY, 0.4, 0, 400, 25, 0, 25);
        let mean = m.sum() / m.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }
}
