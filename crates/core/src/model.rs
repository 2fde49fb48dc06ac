//! GCN model configuration and weights.
//!
//! The paper trains the 3-layer GCN architecture of Kipf & Welling (§V-A):
//! per layer `l`, `Z^l = Aᵀ H^{l-1} W^l` and `H^l = σ(Z^l)` with ReLU on
//! hidden layers and row-wise `log_softmax` on the output layer.

use cagnet_dense::init::glorot_uniform;
use cagnet_dense::Mat;

/// Model hyperparameters shared by the serial and all distributed
/// trainers.
#[derive(Clone, Debug)]
pub struct GcnConfig {
    /// Layer widths `[f⁰, f¹, ..., f^L]`: `f⁰` is the input feature
    /// length, `f^L` the label count; the GCN has `L = dims.len() - 1`
    /// layers.
    pub dims: Vec<usize>,
    /// Gradient-descent learning rate `η` (`W ← W − η·Y`).
    pub lr: f64,
    /// Seed for weight initialization. Identical seeds give identical
    /// weights in every trainer — the basis of the parallel == serial
    /// verification (§V-A).
    pub seed: u64,
}

impl GcnConfig {
    /// The paper's 3-layer shape: `features → hidden → hidden → labels`.
    pub fn three_layer(features: usize, hidden: usize, labels: usize) -> Self {
        GcnConfig {
            dims: vec![features, hidden, hidden, labels],
            lr: 0.01,
            seed: 0xCA61E7,
        }
    }

    /// Number of layers `L`.
    pub fn layers(&self) -> usize {
        assert!(self.dims.len() >= 2, "need at least one layer");
        self.dims.len() - 1
    }

    /// Input feature width `f⁰`.
    pub fn f_in(&self) -> usize {
        assert!(self.dims.len() >= 2, "need at least one layer");
        self.dims[0]
    }

    /// Output width `f^L` (the label count).
    pub fn f_out(&self) -> usize {
        assert!(self.dims.len() >= 2, "need at least one layer");
        self.dims[self.dims.len() - 1]
    }

    /// Initialize the weight stack `W¹..W^L` deterministically.
    pub fn init_weights(&self) -> Vec<Mat> {
        (0..self.layers())
            .map(|l| {
                glorot_uniform(
                    self.dims[l],
                    self.dims[l + 1],
                    self.seed.wrapping_add(l as u64),
                )
            })
            .collect()
    }

    /// The paper's "average feature vector length" `f` used in its
    /// simplified cost formulas.
    pub fn avg_width(&self) -> f64 {
        self.dims.iter().sum::<usize>() as f64 / self.dims.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_layer_shape() {
        let cfg = GcnConfig::three_layer(602, 16, 41);
        assert_eq!(cfg.dims, vec![602, 16, 16, 41]);
        assert_eq!(cfg.layers(), 3);
    }

    #[test]
    fn weights_match_dims_and_are_deterministic() {
        let cfg = GcnConfig::three_layer(10, 4, 3);
        let w1 = cfg.init_weights();
        let w2 = cfg.init_weights();
        assert_eq!(w1.len(), 3);
        assert_eq!(w1[0].shape(), (10, 4));
        assert_eq!(w1[1].shape(), (4, 4));
        assert_eq!(w1[2].shape(), (4, 3));
        for (a, b) in w1.iter().zip(&w2) {
            assert_eq!(a, b);
        }
        // Layers get distinct seeds.
        assert_ne!(w1[0].as_slice()[0], w1[1].as_slice()[0]);
    }

    #[test]
    fn avg_width() {
        let cfg = GcnConfig {
            dims: vec![8, 4, 4],
            lr: 0.1,
            seed: 0,
        };
        assert!((cfg.avg_width() - 16.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn degenerate_dims_panics() {
        let cfg = GcnConfig {
            dims: vec![5],
            lr: 0.1,
            seed: 0,
        };
        let _ = cfg.layers();
    }
}
