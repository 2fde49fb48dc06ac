//! 1D block-row parallel GCN training — the paper's Algorithm 1 (§IV-A).
//!
//! Data distribution (Table III): `A` partitioned by block *columns*
//! (equivalently, `Aᵀ` by block rows — one block row of `Aᵀ` per rank),
//! `H^l` and `G^l` by block rows, `W^l` fully replicated.
//!
//! Per layer, forward runs `P` broadcast stages
//! (`T_i ← T_i + Aᵀ_{ij} H_j`), then a local GEMM against the replicated
//! `W`. Backward computes the large 1D outer product `A_i G_i` (a
//! full-height `n x f` low-rank contribution per rank), reduce-scatters it
//! back into block rows (§IV-A.3), reuses the scattered intermediate
//! `A G` for the weight gradient `Y = (H^{l-1})ᵀ (A G)` via an `f x f`
//! all-reduce (§IV-A.4), and finishes with the replicated gradient-descent
//! step.

use crate::loss::{accuracy_counts, nll_sum};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx, GatheredRows};
use cagnet_dense::activation::Activation;
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::outer_product_from_transposed_into;
use cagnet_sparse::Csr;
use std::cell::RefCell;
use std::sync::Arc;

/// Per-rank state of the 1D trainer.
pub struct OneDimTrainer {
    cfg: GcnConfig,
    n: usize,
    train_count: usize,
    /// My global row range `[r0, r1)`.
    r0: usize,
    /// Block row `i` of `Aᵀ` split into `P` column blocks
    /// (`Aᵀ_{ij}`, each `n_i x n_j`).
    at_blocks: Vec<Csr>,
    /// Per stage `j`: the sorted distinct columns of `Aᵀ_{ij}` — the rows
    /// of `H_j` this rank actually reads (sparsity-aware mode).
    needed: Vec<Vec<usize>>,
    /// Column-compacted copies of `at_blocks` (columns renumbered to
    /// `needed[j]` order) for multiplying compact gathered operands.
    /// Built lazily on the first switch to sparsity-aware mode.
    at_compact: Vec<Csr>,
    /// Dense broadcast vs sparsity-aware row exchange for the forward
    /// stages.
    comm_mode: super::CommMode,
    /// Cached-mode halo cache: one slot per (layer, stage) forward fetch
    /// (see [`super::HaloCache`]; DESIGN.md §13). Interior-mutable so the
    /// `&self` fetch helpers can store refreshed blocks.
    cache: RefCell<super::HaloCache>,
    /// Issue-ahead pipelining: prefetch stage `j+1`'s block with a
    /// nonblocking collective while stage `j` computes (DESIGN.md §10).
    overlap: bool,
    /// The full block row `Aᵀ_i` (`n_i x n`) — the CSR-of-transpose of
    /// `A`'s column block `i`, used directly by the backward outer
    /// product.
    at_row: Csr,
    labels: Arc<Vec<usize>>,
    mask: Arc<Vec<bool>>,
    /// Replicated weights.
    weights: Vec<Mat>,
    opt: Optimizer,
    act: Activation,
    dropout: f64,
    training: bool,
    epoch_counter: u64,
    drop_masks: Vec<Option<Mat>>,
    /// Stored block-row pre-activations from the last forward pass.
    zs: Vec<Mat>,
    /// Stored block-row activations (`hs\[0\]` = my feature block),
    /// shared so the owner's block enters broadcast stages without a
    /// copy.
    hs: Vec<Arc<Mat>>,
    /// Output probabilities of the stored `Z^L`, kept by a training
    /// forward for the backward to turn into `G^L` (DESIGN.md §14); `None`
    /// once consumed and after an inference forward.
    probs: Option<Mat>,
    /// Large scratch matrices kept across epochs (see
    /// [`super::Workspace`]; DESIGN.md §16). Interior-mutable for the
    /// `&self` fetch helpers, like `cache`.
    ws: RefCell<super::Workspace>,
}

impl OneDimTrainer {
    /// Slice this rank's blocks out of the shared problem (uncharged
    /// setup, like the paper's data loading).
    ///
    /// # Panics
    /// When the geometry is invalid; see [`OneDimTrainer::try_setup`] for
    /// the fallible variant.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg) {
            Ok(t) => t,
            Err(e) => panic!("1D trainer setup: {e}"),
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
        let at_row = problem.adj_t.block(r0, r1, 0, n);
        let at_blocks: Vec<Csr> = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| at_row.block(0, r1 - r0, c0, c1))
            .collect();
        let needed = at_blocks.iter().map(Csr::needed_cols).collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        Ok(OneDimTrainer {
            cfg: cfg.clone(),
            n,
            train_count: problem.train_count(),
            r0,
            at_blocks,
            needed,
            at_compact: Vec::new(),
            comm_mode: super::CommMode::Dense,
            cache: RefCell::new(super::HaloCache::default()),
            overlap: true,
            at_row,
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

    fn my_rows(&self) -> usize {
        self.at_row.rows()
    }

    /// Root-side dims of stage `j`'s broadcast block — every rank knows
    /// them from the balanced partition (`at_blocks[j]` has one column
    /// per root row), so receivers fingerprint them and a wrong-shaped
    /// panel is attributed to the root (CheckMode).
    fn stage_dims(&self, l: usize, j: usize) -> (usize, usize) {
        (self.at_blocks[j].cols(), self.hs[l].cols())
    }

    /// Cache slot of the (layer `l`, stage `j`) forward fetch.
    fn slot(&self, l: usize, j: usize) -> usize {
        l * self.at_blocks.len() + j
    }

    /// Whether the current pass serves stage operands from the halo cache
    /// (cached mode, training, non-refresh epoch). Evaluation forwards
    /// always gather fresh.
    fn cached_serving(&self) -> bool {
        matches!(self.comm_mode, super::CommMode::Cached { .. })
            && self.training
            && !self.cache.borrow().refreshing()
    }

    /// Whether the current pass must store its gathered blocks into the
    /// halo cache (cached mode, training, refresh epoch).
    fn cached_refreshing(&self) -> bool {
        matches!(self.comm_mode, super::CommMode::Cached { .. })
            && self.training
            && self.cache.borrow().refreshing()
    }

    /// Serve stage `j` of layer `l` without any collective: the rank's
    /// own block compacts fresh from local state (zero words, like the
    /// root of the skipped gather); remote blocks come from the cache,
    /// metering the words the skipped gather would have moved under
    /// [`Cat::CacheHit`].
    fn serve_cached(&self, ctx: &Ctx, l: usize, j: usize) -> super::Fetch<'static> {
        if j == ctx.rank {
            super::Fetch::Gathered(GatheredRows::full(self.hs[l].clone()))
        } else {
            let row_words = self.hs[l].cols() as u64 + 1;
            ctx.world.cache_hit(self.needed[j].len() as u64 * row_words);
            let block = self.cache.borrow().get(self.slot(l, j));
            super::Fetch::Ready(super::Operand::shared(block))
        }
    }

    /// Store a freshly gathered compact block on refresh epochs (remote
    /// stages only — the rank's own block is always served fresh).
    fn maybe_store(&self, ctx: &Ctx, l: usize, j: usize, block: &super::Operand) {
        if self.cached_refreshing() && j != ctx.rank {
            self.cache
                .borrow_mut()
                .store(self.slot(l, j), block.handle().clone());
        }
    }

    /// Issue the stage-`j` fetch of layer `l`'s activation block as a
    /// nonblocking collective (dense broadcast or sparsity-aware row
    /// gather, per [`Self::set_comm_mode`]). In cached mode, refresh
    /// epochs gather through the `igather_rows_refresh` prefetch lane and
    /// serve epochs return the resident block with no collective at all.
    fn issue_fetch<'c>(&self, ctx: &'c Ctx, l: usize, j: usize) -> super::Fetch<'c> {
        let payload = (j == ctx.rank).then(|| self.hs[l].clone());
        match self.comm_mode {
            super::CommMode::Dense => {
                super::Fetch::Dense(ctx.world.ibcast_shared(j, payload, Cat::DenseComm))
            }
            super::CommMode::SparsityAware => super::Fetch::Sparse(ctx.world.igather_rows(
                j,
                payload,
                &self.needed[j],
                Some(self.stage_dims(l, j)),
                Cat::DenseComm,
            )),
            super::CommMode::Cached { .. } => {
                if self.cached_serving() {
                    self.serve_cached(ctx, l, j)
                } else if self.training {
                    super::Fetch::Sparse(ctx.world.igather_rows_refresh(
                        j,
                        payload,
                        &self.needed[j],
                        Some(self.stage_dims(l, j)),
                        Cat::DenseComm,
                    ))
                } else {
                    super::Fetch::Sparse(ctx.world.igather_rows(
                        j,
                        payload,
                        &self.needed[j],
                        Some(self.stage_dims(l, j)),
                        Cat::DenseComm,
                    ))
                }
            }
        }
    }

    /// Forward pass (Algorithm 1 per layer); returns the global mean
    /// masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        let p = ctx.size;
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
            let mut t = self.ws.borrow_mut().zeros(self.my_rows(), f_in);
            // Issue-ahead pipeline: stage j+1's block is in flight while
            // stage j's SpMM computes, so its α–β cost hides behind the
            // compute lane. Every rank issues and waits in the same
            // order, so results stay bit-identical to the blocking loop.
            let mut pending = self.overlap.then(|| self.issue_fetch(ctx, l, 0));
            for j in 0..p {
                let hj = match pending.take() {
                    Some(op) => {
                        if j + 1 < p {
                            pending = Some(self.issue_fetch(ctx, l, j + 1));
                        }
                        op.wait(&self.needed[j], &self.ws)
                    }
                    None => {
                        // Arc clone only — the owner's resident block is
                        // never deep-copied, root or not.
                        let payload = (j == ctx.rank).then(|| self.hs[l].clone());
                        match self.comm_mode {
                            super::CommMode::Dense => super::Fetch::Ready(super::Operand::shared(
                                ctx.world.bcast_shared(j, payload, Cat::DenseComm),
                            )),
                            super::CommMode::SparsityAware => {
                                super::Fetch::Gathered(ctx.world.gather_rows(
                                    j,
                                    payload,
                                    &self.needed[j],
                                    Some(self.stage_dims(l, j)),
                                    Cat::DenseComm,
                                ))
                            }
                            super::CommMode::Cached { .. } => {
                                if self.cached_serving() {
                                    self.serve_cached(ctx, l, j)
                                } else if self.training {
                                    super::Fetch::Gathered(ctx.world.gather_rows_refresh(
                                        j,
                                        payload,
                                        &self.needed[j],
                                        Some(self.stage_dims(l, j)),
                                        Cat::DenseComm,
                                    ))
                                } else {
                                    super::Fetch::Gathered(ctx.world.gather_rows(
                                        j,
                                        payload,
                                        &self.needed[j],
                                        Some(self.stage_dims(l, j)),
                                        Cat::DenseComm,
                                    ))
                                }
                            }
                        }
                        .wait(&self.needed[j], &self.ws)
                    }
                };
                self.maybe_store(ctx, l, j, &hj);
                // The compact panel has the same nnz/rows as the full
                // block (columns are only renumbered), so the charged
                // SpMM cost — and the accumulation order — is identical
                // in both modes.
                let a = if self.comm_mode.sparse_exchange() {
                    &self.at_compact[j]
                } else {
                    &self.at_blocks[j]
                };
                ctx.charge_spmm(a.nnz(), a.rows(), f_in);
                self.ws
                    .borrow_mut()
                    .spmm_acc_with(ctx.parallel(), a, &hj, &mut t);
                hj.release(&self.ws);
            }
            let mut z = self.ws.borrow_mut().keep_zeros(t.rows(), f_out);
            matmul_acc_with(ctx.parallel(), &t, &self.weights[l], &mut z);
            ctx.charge_gemm(t.rows(), f_in, f_out);
            self.ws.borrow_mut().give(t);
            // In the 1D distribution H is row-partitioned, so even the
            // non-elementwise log_softmax needs no communication
            // (§IV-A.2).
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
        }
        let local = nll_sum(
            super::output_block(&self.hs),
            &self.labels,
            &self.mask,
            self.r0,
        );
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// Backward pass + replicated gradient-descent step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        self.ws.get_mut().reclaim();
        let mut g = super::output_gradient_rows(
            self.ws.get_mut(),
            self.probs.take(),
            &self.zs[l_total - 1],
            &self.labels,
            &self.mask,
            self.r0,
            self.train_count,
        );
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_out = self.cfg.dims[l + 1];
            let f_in = self.cfg.dims[l];
            // Large 1D outer product: A(:, my block) · G_i, a full-height
            // low-rank contribution (§IV-A.3), built in the buffer it
            // rides into the reduce-scatter in.
            ctx.charge_spmm(self.at_row.nnz(), self.at_row.rows(), f_out);
            let mut contrib = self.ws.borrow_mut().zeros(self.n, f_out);
            outer_product_from_transposed_into(&self.at_row, &g, &mut contrib);
            let contrib = self.ws.borrow_mut().lend(contrib);
            // G^l has done its work; A·G^l is reduced into its buffer.
            let mut ag = std::mem::replace(&mut g, Mat::zeros(0, 0));
            ctx.world
                .reduce_scatter_rows(contrib, &mut ag, Cat::DenseComm);
            // Small 1D outer product for Y (§IV-A.4), reusing A·G. With
            // overlap on, the f x f all-reduce is in flight while the
            // next layer's gradient GEMM computes; the weight update only
            // needs Y afterwards.
            ctx.charge_gemm(f_in, ag.rows(), f_out);
            let y_partial = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag);
            let y_op = self
                .overlap
                .then(|| ctx.world.iallreduce_mat(&y_partial, Cat::DenseComm));
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
                g = next_g;
            }
            let y = match y_op {
                Some(op) => op.wait(),
                None => ctx.world.allreduce_mat(&y_partial, Cat::DenseComm),
            };
            self.opt.step(l, &mut self.weights[l], &y);
            ctx.charge_elementwise(y.len());
            // Every rank entered the Y all-reduce after its
            // reduce-scatter: the contribution is free again.
            let ws = self.ws.get_mut();
            ws.give(ag);
            ws.reclaim();
        }
    }

    /// One epoch (forward + backward); returns the pre-update loss.
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

    /// Global training accuracy of the current model (runs a forward
    /// pass).
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
    /// cached tier for the forward stages (see [`super::CommMode`]).
    /// `Dense` and `SparsityAware` train bit-identically; `Cached` is
    /// bit-identical only at `refresh: 1` (DESIGN.md §13). Must be set
    /// identically on every rank. Always drops any halo cache, so a mode
    /// change (or re-set after mutating state) can never serve stale
    /// blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        if mode.sparse_exchange() && self.at_compact.is_empty() {
            self.at_compact = self
                .at_blocks
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

    /// Replicated weights (identical on every rank).
    pub fn weights(&self) -> &[Mat] {
        &self.weights
    }

    /// Per-rank storage footprint (run after at least one forward pass so
    /// the stored activations exist). See [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        super::StorageReport {
            adjacency: super::csr_words(&self.at_row)
                + self.at_blocks.iter().map(super::csr_words).sum::<usize>()
                + self.at_compact.iter().map(super::csr_words).sum::<usize>(),
            dense_state: super::mats_words(&self.hs)
                + super::mats_words(&self.zs)
                // The probabilities a training forward keeps next to
                // `Z^L`, block for block the same shape.
                + self.zs.last().map_or(0, |z| z.len()),
            // The §IV-A.3 full-height low-rank product: n x f, regardless
            // of P — 1D's memory-scalability problem.
            intermediate: self.n * f_max,
        }
    }

    /// Assemble the full output embedding matrix `H^L` on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let blocks = ctx
            .world
            .allgather_shared(super::output_block_shared(&self.hs), Cat::DenseComm);
        Mat::vstack(&blocks)
    }
}
