//! Serial reference GCN trainer.
//!
//! Implements the paper's forward (§III-C) and backpropagation (§III-D)
//! equations directly on full matrices:
//!
//! ```text
//! forward:   Z^l = Aᵀ H^{l-1} W^l ;  H^l = σ(Z^l)
//! backward:  G^L = ∇_{H^L} L ⊙ σ'(Z^L)
//!            G^{l-1} = A G^l (W^l)ᵀ ⊙ σ'(Z^{l-1})
//!            Y^l = (H^{l-1})ᵀ A G^l ;  W^l ← W^l − η Y^l
//! ```
//!
//! Every distributed trainer is verified against this implementation: the
//! paper states its parallel runs "output the same embeddings up to
//! floating point accumulation errors" as serial PyTorch (§V-A), and the
//! integration tests assert the same property here.

use crate::dist::{output_gradient_rows, output_layer, Workspace};
use crate::loss::{accuracy_counts, nll_sum};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_dense::activation::Activation;
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::ParallelCtx;

/// Serial full-batch GCN trainer (the correctness reference).
pub struct SerialTrainer<'p> {
    problem: &'p Problem,
    cfg: GcnConfig,
    weights: Vec<Mat>,
    opt: Optimizer,
    act: Activation,
    dropout: f64,
    training: bool,
    epoch_counter: u64,
    drop_masks: Vec<Option<Mat>>,
    /// Stored pre-activations `Z^1..Z^L` from the last forward pass.
    zs: Vec<Mat>,
    /// Stored activations `H⁰..H^L` from the last forward pass.
    hs: Vec<Mat>,
    /// Output probabilities of the stored `Z^L`, kept by a training
    /// forward for the backward to turn into `G^L`; `None` once consumed
    /// and after an inference forward.
    probs: Option<Mat>,
    /// Large scratch matrices kept across epochs, as in the distributed
    /// trainers (DESIGN.md §16), so the single-worker baseline pays for
    /// the same kernels and nothing else.
    ws: Workspace,
}

impl<'p> SerialTrainer<'p> {
    /// New trainer with freshly initialized weights.
    pub fn new(problem: &'p Problem, cfg: GcnConfig) -> Self {
        assert_eq!(cfg.f_in(), problem.features.cols(), "input width mismatch");
        assert_eq!(cfg.f_out(), problem.num_classes, "output width mismatch");
        let weights = cfg.init_weights();
        let opt = Optimizer::for_weights(OptimizerKind::Sgd, cfg.lr, &weights);
        SerialTrainer {
            problem,
            cfg,
            weights,
            opt,
            act: Activation::Relu,
            dropout: 0.0,
            training: false,
            epoch_counter: 0,
            drop_masks: Vec::new(),
            zs: Vec::new(),
            hs: Vec::new(),
            probs: None,
            ws: Workspace::default(),
        }
    }

    /// Forward pass; stores intermediates for backprop and returns the
    /// mean masked NLL loss.
    pub fn forward(&mut self) -> f64 {
        let l_total = self.cfg.layers();
        // The last pass's stored matrices go back to the workspace; this
        // pass rebuilds them in the same buffers.
        let ws = &mut self.ws;
        self.zs.drain(..).for_each(|z| ws.give(z));
        if self.hs.is_empty() {
            self.hs.push(self.problem.features.clone());
        }
        self.hs.drain(1..).for_each(|h| ws.give(h));
        self.drop_masks.drain(..).flatten().for_each(|m| ws.give(m));
        self.drop_masks.resize(l_total, None);
        for l in 0..l_total {
            let f_out = self.cfg.dims[l + 1];
            let mut t = self.ws.zeros(self.hs[l].rows(), self.hs[l].cols());
            self.ws.spmm_acc_with(
                ParallelCtx::serial(),
                &self.problem.adj_t,
                &self.hs[l],
                &mut t,
            );
            let mut z = self.ws.keep_zeros(t.rows(), f_out);
            matmul_acc_with(ParallelCtx::serial(), &t, &self.weights[l], &mut z);
            self.ws.give(t);
            let mut h = self.ws.keep(z.len());
            if l + 1 == l_total {
                self.probs = output_layer(&mut self.ws, self.training, &z, 0..f_out, &mut h);
            } else {
                self.act.apply_into(&z, &mut h);
                self.apply_dropout(l, 0, f_out, 0, f_out, &mut h);
            }
            self.zs.push(z);
            self.hs.push(h);
        }
        nll_sum(
            self.embeddings(),
            &self.problem.labels,
            &self.problem.train_mask,
            0,
        ) / self.problem.train_count() as f64
    }

    /// Backward pass + gradient-descent step. Must follow [`Self::forward`].
    pub fn backward(&mut self) {
        for (l, y) in self.backprop().into_iter().enumerate().rev() {
            self.opt.step(l, &mut self.weights[l], &y);
        }
    }

    /// The weight gradients `Y^1..Y^L` at the current point, from the
    /// intermediates of the last forward pass.
    fn backprop(&mut self) -> Vec<Mat> {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        let mut grads = vec![Mat::zeros(0, 0); l_total];
        let mut g = output_gradient_rows(
            &mut self.ws,
            self.probs.take(),
            &self.zs[l_total - 1],
            &self.problem.labels,
            &self.problem.train_mask,
            0,
            self.problem.train_count(),
        );
        for l in (0..l_total).rev() {
            // Shared intermediate A G^l (reused by both Y and G^{l-1}, as
            // the paper's §IV-A.4 notes).
            let mut ag = self.ws.zeros(g.rows(), g.cols());
            self.ws
                .spmm_acc_with(ParallelCtx::serial(), &self.problem.adj, &g, &mut ag);
            grads[l] = matmul_tn_with(ParallelCtx::serial(), &self.hs[l], &ag);
            if l > 0 {
                g.reset(ag.rows(), self.cfg.dims[l]);
                matmul_nt_acc_with(ParallelCtx::serial(), &ag, &self.weights[l], &mut g);
                self.act.mul_prime_assign(&mut g, &self.zs[l - 1]);
                if let Some(mask) = self.drop_masks[l - 1].take() {
                    hadamard_assign(&mut g, &mask);
                    self.ws.give(mask);
                }
            }
            self.ws.give(ag);
        }
        self.ws.give(g);
        grads
    }

    /// One full epoch (forward + backward); returns the pre-update loss.
    pub fn epoch(&mut self) -> f64 {
        self.training = true;
        self.epoch_counter += 1;
        let loss = self.forward();
        self.backward();
        self.training = false;
        loss
    }

    /// Train for `epochs` epochs; returns the per-epoch losses.
    pub fn train(&mut self, epochs: usize) -> Vec<f64> {
        (0..epochs).map(|_| self.epoch()).collect()
    }

    /// Training-set accuracy of the current model.
    pub fn accuracy(&mut self) -> f64 {
        let _ = self.forward();
        let (c, t) = accuracy_counts(
            self.embeddings(),
            &self.problem.labels,
            &self.problem.train_mask,
            0,
        );
        c as f64 / t.max(1) as f64
    }

    /// Current weights.
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }

    /// Output embeddings `H^L` from the last forward pass.
    pub fn embeddings(&self) -> &Mat {
        match self.hs.last() {
            Some(h) => h,
            None => panic!("run forward first"),
        }
    }

    /// Gradients of the current point, without updating weights — used by
    /// the finite-difference gradient check.
    pub fn gradients(&mut self) -> Vec<Mat> {
        let _ = self.forward();
        self.backprop()
    }

    /// Mean NLL of the current model over an arbitrary vertex mask (runs
    /// a forward pass).
    pub fn loss_on(&mut self, mask: &[bool]) -> f64 {
        let _ = self.forward();
        let count = mask.iter().filter(|&&m| m).count().max(1);
        nll_sum(self.embeddings(), &self.problem.labels, mask, 0) / count as f64
    }

    /// Accuracy of the current model over an arbitrary vertex mask (runs
    /// a forward pass).
    pub fn accuracy_on(&mut self, mask: &[bool]) -> f64 {
        let _ = self.forward();
        let (c, t) = accuracy_counts(self.embeddings(), &self.problem.labels, mask, 0);
        c as f64 / t.max(1) as f64
    }

    /// Train with validation-based early stopping: run up to `max_epochs`
    /// epochs, tracking mean NLL on `val_mask`; stop once the validation
    /// loss has not improved by at least `min_delta` for `patience`
    /// consecutive epochs, and restore the best-validation weights.
    /// Returns `(epochs_run, best_val_loss)`.
    pub fn fit_early_stopping(
        &mut self,
        val_mask: &[bool],
        max_epochs: usize,
        patience: usize,
        min_delta: f64,
    ) -> (usize, f64) {
        assert!(patience >= 1, "patience must be positive");
        assert!(min_delta >= 0.0, "min_delta must be non-negative");
        let mut best = f64::INFINITY;
        let mut best_weights = self.weights.clone();
        let mut since_best = 0usize;
        let mut run = 0usize;
        for _ in 0..max_epochs {
            self.epoch();
            run += 1;
            let vl = self.loss_on(val_mask);
            if vl < best - min_delta {
                best = vl;
                best_weights = self.weights.clone();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= patience {
                    break;
                }
            }
        }
        self.weights = best_weights;
        (run, best)
    }

    fn apply_dropout(
        &mut self,
        layer: usize,
        row_offset: usize,
        f_total: usize,
        c0: usize,
        c1: usize,
        h: &mut Mat,
    ) {
        if self.training && self.dropout > 0.0 {
            let mut mask = self.ws.keep(h.len());
            crate::dropout::mask_block_into(
                crate::dropout::DropoutKey {
                    base_seed: self.cfg.seed,
                    epoch: self.epoch_counter,
                    layer,
                },
                self.dropout,
                row_offset,
                h.rows(),
                f_total,
                c0,
                c1,
                &mut mask,
            );
            cagnet_dense::ops::hadamard_assign(h, &mask);
            self.drop_masks[layer] = Some(mask);
        }
    }

    /// Set the hidden-layer dropout rate (inverted dropout; a fresh
    /// deterministic mask per epoch, identical across layouts and ranks —
    /// see [`crate::dropout`]). 0 disables it; evaluation forwards never
    /// apply it.
    pub fn set_dropout(&mut self, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        self.dropout = rate;
    }

    /// Select the hidden-layer activation (default ReLU, the paper's σ;
    /// the output layer stays log-softmax). Elementwise, so it changes no
    /// communication. Must be set identically on every rank.
    pub fn set_hidden_activation(&mut self, act: Activation) {
        self.act = act;
    }

    /// Select the optimizer; resets accumulated state.
    pub fn set_optimizer(&mut self, kind: OptimizerKind) {
        self.opt = Optimizer::for_weights(kind, self.cfg.lr, &self.weights);
    }

    /// Replace the weights (test hook for gradient checking).
    pub fn set_weights(&mut self, weights: Vec<Mat>) {
        assert_eq!(weights.len(), self.cfg.layers());
        self.weights = weights;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_sparse::generate::erdos_renyi;

    fn small_problem(seed: u64) -> Problem {
        let g = erdos_renyi(24, 3.0, seed);
        Problem::synthetic(&g, 6, 3, 1.0, seed + 1)
    }

    #[test]
    fn loss_decreases_over_training() {
        let p = small_problem(1);
        let mut t = SerialTrainer::new(&p, GcnConfig::three_layer(6, 8, 3));
        let losses = t.train(30);
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss did not decrease: {losses:?}"
        );
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn initial_loss_near_log_k() {
        // With random init, predictions are near-uniform: loss ≈ ln(3).
        let p = small_problem(2);
        let mut t = SerialTrainer::new(&p, GcnConfig::three_layer(6, 8, 3));
        let l0 = t.forward();
        assert!((l0 - (3.0f64).ln()).abs() < 0.5, "l0 = {l0}");
    }

    #[test]
    fn accuracy_improves_with_training() {
        let p = small_problem(3);
        // The optimizer captures lr at construction, so the raised lr
        // must be set before building the trainer to take effect.
        let mut cfg = GcnConfig::three_layer(6, 12, 3);
        cfg.lr = 0.5;
        let mut t = SerialTrainer::new(&p, cfg);
        let before = t.accuracy();
        t.train(200);
        let after = t.accuracy();
        assert!(after >= before, "accuracy regressed: {before} -> {after}");
        assert!(after > 0.4, "final accuracy too low: {after}");
    }

    #[test]
    fn gradient_check_finite_differences() {
        // Central-difference check of dL/dW for every weight entry of a
        // tiny 2-layer model.
        let g = erdos_renyi(10, 2.0, 5);
        let p = Problem::synthetic(&g, 3, 2, 1.0, 6);
        let cfg = GcnConfig {
            dims: vec![3, 4, 2],
            lr: 0.1,
            seed: 7,
        };
        let mut t = SerialTrainer::new(&p, cfg.clone());
        let base_weights: Vec<Mat> = t.weights().to_vec();
        let grads = t.gradients();
        let eps = 1e-6;
        for l in 0..cfg.layers() {
            for i in 0..base_weights[l].rows() {
                for j in 0..base_weights[l].cols() {
                    let mut wp = base_weights.clone();
                    wp[l][(i, j)] += eps;
                    t.set_weights(wp);
                    let lp = t.forward();
                    let mut wm = base_weights.clone();
                    wm[l][(i, j)] -= eps;
                    t.set_weights(wm);
                    let lm = t.forward();
                    let fd = (lp - lm) / (2.0 * eps);
                    let an = grads[l][(i, j)];
                    assert!(
                        (fd - an).abs() < 1e-5 * (1.0 + an.abs()),
                        "layer {l} ({i},{j}): fd {fd} vs analytic {an}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let p = small_problem(8);
        let cfg = GcnConfig::three_layer(6, 8, 3);
        let mut t1 = SerialTrainer::new(&p, cfg.clone());
        let mut t2 = SerialTrainer::new(&p, cfg);
        let l1 = t1.train(5);
        let l2 = t2.train(5);
        assert_eq!(l1, l2);
        for (a, b) in t1.weights().iter().zip(t2.weights()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn embeddings_are_log_probabilities() {
        let p = small_problem(9);
        let mut t = SerialTrainer::new(&p, GcnConfig::three_layer(6, 8, 3));
        let _ = t.forward();
        let emb = t.embeddings();
        // Each row exponentiates and sums to 1.
        for i in 0..emb.rows() {
            let s: f64 = emb.row(i).iter().map(|&x| x.exp()).sum();
            assert!((s - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn config_mismatch_panics() {
        let p = small_problem(10);
        let _ = SerialTrainer::new(&p, GcnConfig::three_layer(7, 8, 3));
    }
}
