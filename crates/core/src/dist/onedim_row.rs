//! The alternative 1D algorithm of §IV-A.7: `A` partitioned by block
//! *rows* instead of block columns.
//!
//! With `A` row-partitioned, forward propagation becomes the (large) 1D
//! outer product (`Aᵀ`'s column block times my `H` block, reduce-scattered)
//! and the first backpropagation product becomes the block-row multiply
//! (`P` broadcast stages) — exactly the mirror image of
//! [`super::onedim`]. The paper argues the swap changes nothing: "we
//! would still be performing 1 large outer product, 1 small outer
//! product, and 1 block row multiplication as before, resulting in the
//! same total communication cost." `tests/onedim_variants.rs` verifies
//! that claim on measured word counters.

use crate::loss::{accuracy_counts, nll_sum};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::activation::Activation;
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::outer_product_from_transposed_into;
use cagnet_sparse::Csr;
use std::cell::RefCell;
use std::sync::Arc;

/// Per-rank state of the row-partitioned 1D trainer.
pub struct OneDimRowTrainer {
    cfg: GcnConfig,
    train_count: usize,
    /// My global row range start.
    r0: usize,
    /// `A`'s block row `A_i` (`n_i x n`) — used directly by the forward
    /// outer product (it is the CSR-of-transpose of `Aᵀ`'s column block).
    a_row: Csr,
    /// `A_i` split into `P` column blocks for the backward block-row
    /// multiply.
    a_blocks: Vec<Csr>,
    /// Per stage `j`: the sorted distinct columns of `A_{ij}` — the rows
    /// of `G_j` this rank actually reads (sparsity-aware mode).
    needed: Vec<Vec<usize>>,
    /// Column-compacted copies of `a_blocks` (columns renumbered to
    /// `needed[j]` order) for multiplying compact gathered operands.
    /// Built lazily on the first switch to sparsity-aware mode.
    a_compact: Vec<Csr>,
    /// Dense broadcast vs sparsity-aware row exchange for the backward
    /// stages.
    comm_mode: super::CommMode,
    /// Cached-mode halo cache: one slot per (layer, stage) backward
    /// gradient fetch (see [`super::HaloCache`]; DESIGN.md §13).
    cache: RefCell<super::HaloCache>,
    /// Issue-ahead pipelining: prefetch stage `j+1`'s gradient block with
    /// a nonblocking collective while stage `j` computes (DESIGN.md §10).
    overlap: bool,
    labels: Arc<Vec<usize>>,
    mask: Arc<Vec<bool>>,
    weights: Vec<Mat>,
    opt: Optimizer,
    act: Activation,
    dropout: f64,
    training: bool,
    epoch_counter: u64,
    drop_masks: Vec<Option<Mat>>,
    zs: Vec<Mat>,
    /// Stored activations, shared so blocks enter broadcast stages
    /// without a copy.
    hs: Vec<Arc<Mat>>,
    /// Output probabilities of the stored `Z^L`, kept by a training
    /// forward for the backward to turn into `G^L` (DESIGN.md §14); `None`
    /// once consumed and after an inference forward.
    probs: Option<Mat>,
    /// Large scratch matrices kept across epochs (see
    /// [`super::Workspace`]; DESIGN.md §16).
    ws: RefCell<super::Workspace>,
}

impl OneDimRowTrainer {
    /// Slice this rank's blocks out of the shared problem.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg) {
            Ok(t) => t,
            Err(e) => panic!("1D row trainer setup: {e}"),
        }
    }

    /// Fallible constructor: returns [`super::SetupError`] instead of
    /// panicking when the cluster does not fit the problem.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
    ) -> Result<Self, super::SetupError> {
        let n = problem.vertices();
        let p = ctx.size;
        if p > n {
            return Err(super::SetupError::TooManyRanks {
                ranks: p,
                vertices: n,
            });
        }
        let (r0, r1) = block_range(n, p, ctx.rank);
        let a_row = problem.adj.block(r0, r1, 0, n);
        let a_blocks: Vec<Csr> = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| a_row.block(0, r1 - r0, c0, c1))
            .collect();
        let needed = a_blocks.iter().map(Csr::needed_cols).collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        Ok(OneDimRowTrainer {
            cfg: cfg.clone(),
            train_count: problem.train_count(),
            r0,
            a_row,
            a_blocks,
            needed,
            a_compact: Vec::new(),
            comm_mode: super::CommMode::Dense,
            cache: RefCell::new(super::HaloCache::default()),
            overlap: true,
            labels: Arc::new(problem.labels.clone()),
            mask: Arc::new(problem.train_mask.clone()),
            opt: {
                let w = cfg.init_weights();
                Optimizer::for_weights(OptimizerKind::Sgd, cfg.lr, &w)
            },
            act: Activation::Relu,
            dropout: 0.0,
            training: false,
            epoch_counter: 0,
            drop_masks: Vec::new(),
            weights: cfg.init_weights(),
            zs: Vec::new(),
            hs: vec![Arc::new(h0)],
            probs: None,
            ws: RefCell::default(),
        })
    }

    /// Root-side dims of stage `j`'s gradient block — known to every
    /// rank from the balanced partition (`a_blocks[j]` has one column per
    /// root row), fingerprinted by receivers under CheckMode.
    fn stage_dims(&self, g: &Mat, j: usize) -> (usize, usize) {
        (self.a_blocks[j].cols(), g.cols())
    }

    /// Cache slot of the (layer `l`, stage `j`) backward fetch.
    fn slot(&self, l: usize, j: usize) -> usize {
        l * self.a_blocks.len() + j
    }

    /// Forward pass (outer-product formulation); returns the global mean
    /// masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        // The last pass's stored blocks go back to the workspace; this
        // pass rebuilds them in the same buffers.
        let ws = self.ws.get_mut();
        ws.reclaim();
        self.zs.drain(..).for_each(|z| ws.give(z));
        self.hs.drain(1..).for_each(|h| ws.give_shared(h));
        self.drop_masks.drain(..).flatten().for_each(|m| ws.give(m));
        self.drop_masks.resize(l_total, None);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // Large outer product: Aᵀ(:, my block) · H_i, reduce-scattered
            // back to block rows.
            ctx.charge_spmm(self.a_row.nnz(), self.a_row.rows(), f_in);
            let mut contrib = self.ws.borrow_mut().zeros(self.a_row.cols(), f_in);
            outer_product_from_transposed_into(&self.a_row, &self.hs[l], &mut contrib);
            let contrib = self.ws.borrow_mut().lend(contrib);
            let mut t = self.ws.borrow_mut().take(self.hs[l].len());
            ctx.world
                .reduce_scatter_rows(contrib, &mut t, Cat::DenseComm);
            ctx.charge_gemm(t.rows(), f_in, f_out);
            let mut z = self.ws.borrow_mut().keep_zeros(t.rows(), f_out);
            matmul_acc_with(ctx.parallel(), &t, &self.weights[l], &mut z);
            self.ws.borrow_mut().give(t);
            let mut h = self.ws.borrow_mut().keep(z.len());
            if l + 1 == l_total {
                self.probs =
                    super::output_layer(self.ws.get_mut(), self.training, &z, 0..f_out, &mut h);
            } else {
                self.act.apply_into(&z, &mut h);
                self.apply_dropout(l, self.r0, f_out, 0, f_out, &mut h);
            }
            ctx.charge_elementwise(z.len());
            self.zs.push(z);
            self.hs.push(Arc::new(h));
            self.ws.get_mut().end_layer();
        }
        let local = nll_sum(
            super::output_block(&self.hs),
            &self.labels,
            &self.mask,
            self.r0,
        );
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// Backward pass (block-row formulation) + replicated update.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        let p = ctx.size;
        self.ws.get_mut().reclaim();
        let g = super::output_gradient_rows(
            self.ws.get_mut(),
            self.probs.take(),
            &self.zs[l_total - 1],
            &self.labels,
            &self.mask,
            self.r0,
            self.train_count,
        );
        // Shared so my block enters the broadcast stages without a copy.
        let mut g = self.ws.borrow_mut().lend(g);
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // Block-row multiply: AG_i = Σ_j A_ij G_j via P broadcasts.
            // Issue-ahead pipeline: stage j+1's gradient block is in
            // flight while stage j's SpMM computes (mirror of the column
            // variant's forward loop).
            let mut ag = self.ws.borrow_mut().zeros(self.a_row.rows(), f_out);
            let fetcher = super::Fetcher {
                mode: self.comm_mode,
                training: self.training,
                cache: &self.cache,
                ws: &self.ws,
            };
            let issue = |j: usize| {
                let payload = (j == ctx.rank).then(|| g.clone());
                let dims = self.stage_dims(&g, j);
                fetcher.fetch(
                    &ctx.world,
                    j,
                    payload,
                    &self.needed[j],
                    dims,
                    self.slot(l, j),
                )
            };
            super::pipeline(self.overlap, p, issue, |j, fetch| {
                let gj = fetch.wait();
                // Same nnz/rows either way (compact only renumbers
                // columns): identical charged cost and accumulation order.
                let a = if self.comm_mode.sparse_exchange() {
                    &self.a_compact[j]
                } else {
                    &self.a_blocks[j]
                };
                ctx.charge_spmm(a.nnz(), a.rows(), f_out);
                self.ws
                    .borrow_mut()
                    .spmm_acc_with(ctx.parallel(), a, &gj, &mut ag);
                gj.release(&self.ws);
            });
            // Small outer product for Y (unchanged from the column
            // variant). With overlap on, the f x f all-reduce is in
            // flight while the next layer's gradient GEMM computes.
            ctx.charge_gemm(f_in, ag.rows(), f_out);
            let y_partial = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag);
            let reduce_y = || ctx.world.iallreduce_mat(&y_partial, Cat::DenseComm);
            let y_op = self.overlap.then(reduce_y);
            if l > 0 {
                ctx.charge_gemm(ag.rows(), f_out, f_in);
                let mut next_g = self.ws.borrow_mut().zeros(ag.rows(), f_in);
                matmul_nt_acc_with(ctx.parallel(), &ag, &self.weights[l], &mut next_g);
                self.act.mul_prime_assign(&mut next_g, &self.zs[l - 1]);
                if let Some(mask) = self.drop_masks[l - 1].take() {
                    hadamard_assign(&mut next_g, &mask);
                    self.ws.borrow_mut().give(mask);
                }
                ctx.charge_elementwise(next_g.len());
                g = self.ws.borrow_mut().lend(next_g);
            }
            let y = y_op.unwrap_or_else(reduce_y).wait();
            self.opt.step(l, &mut self.weights[l], &y);
            ctx.charge_elementwise(y.len());
            // Every rank entered the Y all-reduce after its last use of
            // this layer's payloads: they are free again.
            let ws = self.ws.get_mut();
            ws.give(ag);
            ws.reclaim();
        }
    }

    /// One epoch; returns the pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        self.training = true;
        self.epoch_counter += 1;
        if let Some(refresh) = self.comm_mode.cached_refresh() {
            self.cache.borrow_mut().begin_epoch(
                refresh,
                self.epoch_counter as usize,
                self.ws.get_mut(),
            );
        }
        let loss = self.forward(ctx);
        self.backward(ctx);
        self.training = false;
        loss
    }

    /// Global training accuracy of the current model.
    pub fn accuracy(&mut self, ctx: &Ctx) -> f64 {
        let _ = self.forward(ctx);
        let (c, t) = accuracy_counts(
            super::output_block(&self.hs),
            &self.labels,
            &self.mask,
            self.r0,
        );
        super::global_accuracy(ctx, c, t)
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
            let mut mask = self.ws.get_mut().keep(h.len());
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

    /// Choose dense broadcasts, the sparsity-aware row exchange, or the
    /// cached tier for the backward stages (see [`super::CommMode`]).
    /// `Dense` and `SparsityAware` train bit-identically; `Cached` is
    /// bit-identical only at `refresh: 1` (DESIGN.md §13). Must be set
    /// identically on every rank. Always drops any halo cache, so a mode
    /// change can never serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        if mode.sparse_exchange() && self.a_compact.is_empty() {
            self.a_compact = self
                .a_blocks
                .iter()
                .zip(&self.needed)
                .map(|(a, nd)| a.compact_cols(nd))
                .collect();
        }
        self.cache.borrow_mut().invalidate();
        self.comm_mode = mode;
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, stage fetches and the weight-gradient all-reduce
    /// run as nonblocking collectives pipelined against compute; losses,
    /// weights, and metered words are bit-identical either way — only
    /// modeled (and wall-clock) time changes. Must be set identically on
    /// every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.overlap = overlap;
    }

    /// Select the hidden-layer activation (default ReLU, the paper's σ;
    /// the output layer stays log-softmax). Elementwise, so it changes no
    /// communication. Must be set identically on every rank.
    pub fn set_hidden_activation(&mut self, act: Activation) {
        self.act = act;
    }

    /// Select the optimizer (replicated state; no communication). Resets
    /// any accumulated moments. Must be called identically on every rank,
    /// before training.
    pub fn set_optimizer(&mut self, kind: OptimizerKind) {
        self.opt = Optimizer::for_weights(kind, self.cfg.lr, &self.weights);
    }

    /// Replace the replicated weights (e.g. with a trained model for
    /// inference). Must be called identically on every rank.
    pub fn set_weights(&mut self, weights: Vec<Mat>) {
        assert_eq!(weights.len(), self.cfg.layers(), "weight stack length");
        for (l, w) in weights.iter().enumerate() {
            assert_eq!(
                w.shape(),
                (self.cfg.dims[l], self.cfg.dims[l + 1]),
                "weight {l} shape"
            );
        }
        self.weights = weights;
    }

    /// Replicated weights.
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }

    /// Per-rank storage footprint (run after a forward pass). See
    /// [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        super::StorageReport {
            adjacency: super::csr_words(&self.a_row)
                + self.a_blocks.iter().map(super::csr_words).sum::<usize>()
                + self.a_compact.iter().map(super::csr_words).sum::<usize>(),
            dense_state: super::mats_words(&self.hs)
                + super::mats_words(&self.zs)
                // The probabilities a training forward keeps next to
                // `Z^L`, block for block the same shape.
                + self.zs.last().map_or(0, |z| z.len()),
            // The forward outer product materializes the full n x f
            // contribution here (mirror of the column variant's backward).
            intermediate: self.a_row.cols() * f_max,
        }
    }

    /// Assemble the full output embedding matrix on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let blocks = ctx
            .world
            .allgather_shared(super::output_block_shared(&self.hs), Cat::DenseComm);
        Mat::vstack(&blocks)
    }
}
