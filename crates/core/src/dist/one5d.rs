//! 1.5D replicated block-row GCN training — the paper's §IV-B.
//!
//! The paper discusses 1.5D algorithms (after Koanantakool et al. \[20\]) as
//! the middle ground between 1D (no replication, most communication) and
//! 2D: a replication factor `c` buys a `c`-fold reduction in the dominant
//! broadcast volume at the price of `c`-fold memory replication. The paper
//! chose not to implement it because for GNNs `d = O(f)` makes the
//! replication burden unattractive (§IV-B) — we implement it anyway so
//! the trade-off can be *measured* (bench `comm_volume`, ablation over
//! `c`).
//!
//! Geometry: `P = p₁·c` ranks on a `p₁ x c` grid; rank `(i, r)` has world
//! id `i·c + r`. `Aᵀ` is partitioned into `p₁` *coarse* block rows whose
//! work is shared by the team `(i, ·)`; each replica stores only the
//! column slices it multiplies (the fine blocks `≡ r (mod c)`), so
//! per-rank adjacency storage stays `O(nnz/P)`. The §IV-B memory premium
//! appears instead in the *intermediates*: the forward partial sum spans
//! the whole coarse block (`c` fine blocks tall) and the backward
//! outer-product contribution spans `n/c` rows —
//! `tests/memory_replication.rs` pins this down. Dense matrices are
//! partitioned into `P` *fine* block rows, fine block `b = i·c + r`
//! living on rank `(i, r)`.
//!
//! Forward: replica `r` accumulates only the stages `b ≡ r (mod c)`
//! (column-group broadcasts of fine `H` blocks — each rank receives
//! `≈ n·f/c` words instead of 1D's `n·f`), then the team reduce-scatters
//! the coarse partial back to fine blocks. Backward mirrors it: team
//! all-gather of `G`, a column-sliced outer product per replica, and a
//! replica-group reduce-scatter back to fine blocks.

use crate::loss::{accuracy_counts, nll_sum};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx, GatheredRows};
use cagnet_dense::activation::Activation;
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_ranges;
use cagnet_sparse::spmm::outer_product_from_transposed_into;
use cagnet_sparse::Csr;
use std::cell::RefCell;
use std::sync::Arc;

/// Per-rank state of the 1.5D trainer.
pub struct One5DTrainer {
    cfg: GcnConfig,
    /// Replication factor `c`.
    c: usize,
    /// Team count `p₁ = P / c`.
    p1: usize,
    /// My team index `i`.
    ti: usize,
    /// Team communicator `(i, ·)` of size `c`.
    team: Communicator,
    /// Replica-group communicator `(·, r)` of size `p₁`.
    rep: Communicator,
    train_count: usize,
    /// Global start of my fine row block.
    fine_r0: usize,
    /// Forward stage operands: `Aᵀ(coarse rows i, fine cols i'·c + r)`
    /// for `i' = 0..p₁`.
    at_fwd: Vec<Csr>,
    /// Per forward stage `i'`: the sorted distinct columns of
    /// `at_fwd[i']` — the rows of the broadcast fine `H` block this rank
    /// actually reads (sparsity-aware mode).
    needed: Vec<Vec<usize>>,
    /// Column-compacted copies of `at_fwd` (columns renumbered to
    /// `needed[i']` order) for multiplying compact gathered operands.
    /// Built lazily on the first switch to sparsity-aware mode.
    at_compact: Vec<Csr>,
    /// Dense broadcast vs sparsity-aware row exchange for the forward
    /// stages.
    comm_mode: super::CommMode,
    /// Cached-mode halo cache: one slot per (layer, forward stage)
    /// replica-group fetch (see [`super::HaloCache`]; DESIGN.md §13).
    cache: RefCell<super::HaloCache>,
    /// Issue-ahead pipelining: prefetch stage `i'+1`'s fine block with a
    /// nonblocking collective while stage `i'` computes (DESIGN.md §10).
    overlap: bool,
    /// Backward operand: `Aᵀ(coarse rows i, ·)` restricted to the columns
    /// of all fine blocks `≡ r (mod c)`, concatenated in team order.
    at_bwd: Csr,
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
    /// [`super::Workspace`]; DESIGN.md §16). Interior-mutable for the
    /// `&self` stage helpers, like `cache`.
    ws: RefCell<super::Workspace>,
}

impl One5DTrainer {
    /// Slice this rank's blocks from the shared problem. `c` must divide
    /// the world size.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig, c: usize) -> Self {
        match Self::try_setup(ctx, problem, cfg, c) {
            Ok(t) => t,
            Err(e) => panic!("1.5D trainer setup: {e}"),
        }
    }

    /// Fallible constructor: returns [`super::SetupError`] instead of
    /// panicking when `c` does not divide `P` or the cluster does not
    /// fit the problem.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        c: usize,
    ) -> Result<Self, super::SetupError> {
        let p = ctx.size;
        if c < 1 || !p.is_multiple_of(c) {
            return Err(super::SetupError::Geometry(format!(
                "replication factor {c} must divide P={p}"
            )));
        }
        let p1 = p / c;
        let n = problem.vertices();
        if p > n {
            return Err(super::SetupError::TooManyRanks {
                ranks: p,
                vertices: n,
            });
        }
        let ti = ctx.rank / c;
        let tr = ctx.rank % c;
        let team = ctx.world.split(ti as u64);
        let rep = ctx.world.split((p1 + tr) as u64); // offset to avoid color clash
        debug_assert_eq!(team.size(), c);
        debug_assert_eq!(rep.size(), p1);

        let fine = block_ranges(n, p);
        // Coarse block i = union of its fine blocks (alignment with the
        // balanced fine split is what makes the reduce-scatters land
        // exactly on fine blocks).
        let coarse = |i: usize| (fine[i * c].0, fine[(i + 1) * c - 1].1);
        let (cr0, cr1) = coarse(ti);
        let at_coarse = problem.adj_t.block(cr0, cr1, 0, n);
        let at_fwd: Vec<Csr> = (0..p1)
            .map(|ip| {
                let (b0, b1) = fine[ip * c + tr];
                at_coarse.block(0, cr1 - cr0, b0, b1)
            })
            .collect();
        let needed = at_fwd.iter().map(Csr::needed_cols).collect();
        // Backward: same column slices, concatenated in team order i'.
        let at_bwd = {
            let mut coo = cagnet_sparse::Coo::new(
                cr1 - cr0,
                (0..p1)
                    .map(|ip| {
                        let (b0, b1) = fine[ip * c + tr];
                        b1 - b0
                    })
                    .sum(),
            );
            let mut col_off = 0;
            for ip in 0..p1 {
                let (b0, b1) = fine[ip * c + tr];
                let blk = at_coarse.block(0, cr1 - cr0, b0, b1);
                for row in 0..blk.rows() {
                    for (col, v) in blk.row_entries(row) {
                        coo.push(row, col_off + col, v);
                    }
                }
                col_off += b1 - b0;
            }
            Csr::from_coo(coo)
        };

        let (fr0, fr1) = fine[ctx.rank];
        let h0 = problem.features.block(fr0, fr1, 0, problem.features.cols());
        Ok(One5DTrainer {
            cfg: cfg.clone(),
            c,
            p1,
            ti,
            team,
            rep,
            train_count: problem.train_count(),
            fine_r0: fr0,
            at_fwd,
            needed,
            at_compact: Vec::new(),
            comm_mode: super::CommMode::Dense,
            cache: RefCell::new(super::HaloCache::default()),
            overlap: true,
            at_bwd,
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

    /// Root-side dims of stage `i'`'s fine `H` block — known to every
    /// replica-group member from the balanced partition (`at_fwd[i']`
    /// has one column per root row), fingerprinted by receivers under
    /// CheckMode.
    fn stage_dims(&self, l: usize, ip: usize) -> (usize, usize) {
        (self.at_fwd[ip].cols(), self.hs[l].cols())
    }

    /// Cache slot of the (layer `l`, forward stage `ip`) fetch.
    fn slot(&self, l: usize, ip: usize) -> usize {
        l * self.p1 + ip
    }

    /// Whether the current pass serves stage operands from the halo cache
    /// (cached mode, training, non-refresh epoch).
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

    /// Serve stage `ip` of layer `l` with no replica-group collective:
    /// the team's own fine block compacts fresh locally (zero words);
    /// remote blocks come from the cache, metering the skipped gather's
    /// words under [`Cat::CacheHit`].
    fn serve_cached(&self, l: usize, ip: usize) -> super::Fetch<'static> {
        if ip == self.ti {
            super::Fetch::Gathered(GatheredRows::full(self.hs[l].clone()))
        } else {
            let row_words = self.hs[l].cols() as u64 + 1;
            self.rep.cache_hit(self.needed[ip].len() as u64 * row_words);
            let block = self.cache.borrow().get(self.slot(l, ip));
            super::Fetch::Ready(super::Operand::shared(block))
        }
    }

    /// Store a freshly gathered compact block on refresh epochs (remote
    /// stages only).
    fn maybe_store(&self, l: usize, ip: usize, block: &super::Operand) {
        if self.cached_refreshing() && ip != self.ti {
            self.cache
                .borrow_mut()
                .store(self.slot(l, ip), block.handle().clone());
        }
    }

    /// Issue the stage-`ip` replica-group fetch of layer `l`'s fine `H`
    /// block as a nonblocking collective (dense broadcast or
    /// sparsity-aware row gather, per [`Self::set_comm_mode`]). In cached
    /// mode, refresh epochs gather through the `igather_rows_refresh`
    /// prefetch lane and serve epochs return the resident block with no
    /// collective.
    fn issue_fetch(&self, l: usize, ip: usize) -> super::Fetch<'_> {
        let payload = (ip == self.ti).then(|| self.hs[l].clone());
        match self.comm_mode {
            super::CommMode::Dense => {
                super::Fetch::Dense(self.rep.ibcast_shared(ip, payload, Cat::DenseComm))
            }
            super::CommMode::SparsityAware => super::Fetch::Sparse(self.rep.igather_rows(
                ip,
                payload,
                &self.needed[ip],
                Some(self.stage_dims(l, ip)),
                Cat::DenseComm,
            )),
            super::CommMode::Cached { .. } => {
                if self.cached_serving() {
                    self.serve_cached(l, ip)
                } else if self.training {
                    super::Fetch::Sparse(self.rep.igather_rows_refresh(
                        ip,
                        payload,
                        &self.needed[ip],
                        Some(self.stage_dims(l, ip)),
                        Cat::DenseComm,
                    ))
                } else {
                    super::Fetch::Sparse(self.rep.igather_rows(
                        ip,
                        payload,
                        &self.needed[ip],
                        Some(self.stage_dims(l, ip)),
                        Cat::DenseComm,
                    ))
                }
            }
        }
    }

    /// Accumulate the coarse partial sum for layer `l`: replica `r`'s
    /// stages `b ≡ r (mod c)` via replica-group broadcasts of fine `H`
    /// blocks. With overlap on, stage `i'+1`'s block is in flight while
    /// stage `i'`'s SpMM computes (the pending op borrows `self.rep`, so
    /// the pipeline lives in this `&self` helper).
    fn coarse_partial(&self, ctx: &Ctx, l: usize, f_in: usize) -> Mat {
        let coarse_rows = self.at_fwd[0].rows();
        let mut partial = self.ws.borrow_mut().zeros(coarse_rows, f_in);
        let mut pending = self.overlap.then(|| self.issue_fetch(l, 0));
        for ip in 0..self.p1 {
            let h_b = match pending.take() {
                Some(op) => {
                    if ip + 1 < self.p1 {
                        pending = Some(self.issue_fetch(l, ip + 1));
                    }
                    op.wait(&self.needed[ip], &self.ws)
                }
                None => {
                    let payload = (ip == self.ti).then(|| self.hs[l].clone());
                    match self.comm_mode {
                        super::CommMode::Dense => super::Fetch::Ready(super::Operand::shared(
                            self.rep.bcast_shared(ip, payload, Cat::DenseComm),
                        )),
                        super::CommMode::SparsityAware => {
                            super::Fetch::Gathered(self.rep.gather_rows(
                                ip,
                                payload,
                                &self.needed[ip],
                                Some(self.stage_dims(l, ip)),
                                Cat::DenseComm,
                            ))
                        }
                        super::CommMode::Cached { .. } => {
                            if self.cached_serving() {
                                self.serve_cached(l, ip)
                            } else if self.training {
                                super::Fetch::Gathered(self.rep.gather_rows_refresh(
                                    ip,
                                    payload,
                                    &self.needed[ip],
                                    Some(self.stage_dims(l, ip)),
                                    Cat::DenseComm,
                                ))
                            } else {
                                super::Fetch::Gathered(self.rep.gather_rows(
                                    ip,
                                    payload,
                                    &self.needed[ip],
                                    Some(self.stage_dims(l, ip)),
                                    Cat::DenseComm,
                                ))
                            }
                        }
                    }
                    .wait(&self.needed[ip], &self.ws)
                }
            };
            self.maybe_store(l, ip, &h_b);
            // Same nnz/rows either way (compact only renumbers columns):
            // identical charged cost and accumulation order.
            let a = if self.comm_mode.sparse_exchange() {
                &self.at_compact[ip]
            } else {
                &self.at_fwd[ip]
            };
            ctx.charge_spmm(a.nnz(), coarse_rows, f_in);
            self.ws
                .borrow_mut()
                .spmm_acc_with(ctx.parallel(), a, &h_b, &mut partial);
            h_b.release(&self.ws);
        }
        partial
    }

    /// Forward pass; returns global mean masked NLL loss.
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
            let partial = self.coarse_partial(ctx, l, f_in);
            // Team reduce-scatter: coarse partials → my fine block of T.
            let partial = self.ws.borrow_mut().lend(partial);
            let mut t = self.ws.borrow_mut().take(self.hs[l].len());
            self.team
                .reduce_scatter_rows(partial, &mut t, Cat::DenseComm);
            ctx.charge_gemm(t.rows(), f_in, f_out);
            let mut z = self.ws.borrow_mut().keep_zeros(t.rows(), f_out);
            matmul_acc_with(ctx.parallel(), &t, &self.weights[l], &mut z);
            self.ws.borrow_mut().give(t);
            // Dense matrices are fine-block row partitioned: even
            // log_softmax is local, as in 1D.
            let mut h = self.ws.borrow_mut().keep(z.len());
            if l + 1 == l_total {
                self.probs =
                    super::output_layer(self.ws.get_mut(), self.training, &z, 0..f_out, &mut h);
            } else {
                self.act.apply_into(&z, &mut h);
                self.apply_dropout(l, self.fine_r0, f_out, 0, f_out, &mut h);
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
            self.fine_r0,
        );
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// Backward pass + replicated gradient-descent step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        self.ws.get_mut().reclaim();
        let g = super::output_gradient_rows(
            self.ws.get_mut(),
            self.probs.take(),
            &self.zs[l_total - 1],
            &self.labels,
            &self.mask,
            self.fine_r0,
            self.train_count,
        );
        // Shared so my block enters the team all-gather without a copy.
        let mut g = self.ws.borrow_mut().lend(g);
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // Team all-gather: assemble the coarse G block (every replica
            // needs it for its column slice of the outer product). The
            // gathered handles go before the next collective, so the
            // peers' blocks are free again when they expect them to be.
            let mut g_coarse = self.ws.borrow_mut().take(self.at_bwd.rows() * f_out);
            {
                let parts = self.team.allgather_shared(g.clone(), Cat::DenseComm);
                Mat::vstack_into(&parts, &mut g_coarse);
            }
            // Outer product restricted to output fine blocks ≡ r (mod c),
            // stacked in team order.
            ctx.charge_spmm(self.at_bwd.nnz(), self.at_bwd.rows(), f_out);
            let mut contrib = self.ws.borrow_mut().zeros(self.at_bwd.cols(), f_out);
            outer_product_from_transposed_into(&self.at_bwd, &g_coarse, &mut contrib);
            self.ws.borrow_mut().give(g_coarse);
            // Replica-group reduce-scatter: piece i' sums across teams and
            // lands on rank (i', r) — exactly my fine block of A G.
            let contrib = self.ws.borrow_mut().lend(contrib);
            let mut ag = self.ws.borrow_mut().take(g.len());
            self.rep
                .reduce_scatter_rows(contrib, &mut ag, Cat::DenseComm);
            debug_assert_eq!(ag.rows(), self.hs[l].rows());
            // With overlap on, the f x f all-reduce is in flight while
            // the next layer's gradient GEMM computes.
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
                g = self.ws.borrow_mut().lend(next_g);
            }
            let y = match y_op {
                Some(op) => op.wait(),
                None => ctx.world.allreduce_mat(&y_partial, Cat::DenseComm),
            };
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
            self.fine_r0,
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
    /// change can never serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        if mode.sparse_exchange() && self.at_compact.is_empty() {
            self.at_compact = self
                .at_fwd
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

    /// Replication factor in effect.
    pub fn replication(&self) -> usize {
        self.c
    }

    /// Per-rank storage footprint (run after a forward pass). The
    /// adjacency term carries the `c`-fold replication of §IV-B. See
    /// [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        let coarse_rows = self.at_fwd[0].rows();
        super::StorageReport {
            adjacency: self.at_fwd.iter().map(super::csr_words).sum::<usize>()
                + self.at_compact.iter().map(super::csr_words).sum::<usize>()
                + super::csr_words(&self.at_bwd),
            dense_state: super::mats_words(&self.hs)
                + super::mats_words(&self.zs)
                // The probabilities a training forward keeps next to
                // `Z^L`, block for block the same shape.
                + self.zs.last().map_or(0, |z| z.len()),
            // Forward coarse partial + backward sliced outer product and
            // team-gathered G.
            intermediate: (coarse_rows * f_max)
                .max(self.at_bwd.cols() * f_max + coarse_rows * f_max),
        }
    }

    /// Assemble the full output embedding matrix on every rank (world rank
    /// order equals fine-block order by construction).
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let blocks = ctx
            .world
            .allgather_shared(super::output_block_shared(&self.hs), Cat::DenseComm);
        Mat::vstack(&blocks)
    }
}
