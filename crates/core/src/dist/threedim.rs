//! Split-3D-SpMM parallel GCN training — the paper's §IV-D.
//!
//! The paper derives this algorithm's cost (another `O(P^{1/6})` reduction
//! in words over 2D) but does not implement it, citing high constants,
//! complexity, and the `∛P` memory replication of intermediates. This
//! module implements it, which both verifies the §IV-D analysis
//! empirically (bench `comm_volume`) and exercises the replication
//! behaviour the paper warns about.
//!
//! Geometry (Table V, "Block Split 3D"): `P = q³` ranks on a `q x q x q`
//! mesh; each 2D plane is a *layer*. The adjacency block `A_{ij}` of the
//! `q x q` grid is split along columns into `q` slices, slice `k` living
//! on layer `k` (`n/q x n/q²` per rank). Dense matrices are split along
//! rows across layers (`n/q² x f/q` per rank). Forward per layer `k` runs
//! an independent 2D SUMMA producing an `n/q x f/q` partial sum, which is
//! then reduce-scattered along the *fiber* dimension — the `∛P`-factor
//! intermediate replication the paper highlights — yielding the Block
//! Split 3D result.

use crate::loss::{accuracy_counts, nll_sum, output_gradient_from_probs};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::grid::int_cbrt;
use cagnet_comm::{Cat, Ctx, GatheredRows, Grid3D};
use cagnet_dense::activation::{log_softmax_probs_into, Activation};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use cagnet_sparse::Csr;
use std::cell::RefCell;
use std::sync::Arc;

/// Per-rank state of the 3D trainer.
pub struct ThreeDimTrainer {
    cfg: GcnConfig,
    grid: Grid3D,
    /// Communicator over all ranks sharing my grid column `j` (size `q²`),
    /// used for the weight-gradient reduction.
    jgroup: Communicator,
    train_count: usize,
    /// Global row offset of my Block Split rows (block `i`, sub-block
    /// `k`).
    r0: usize,
    /// `Aᵀ(rows i, cols j, col-split k)` — `n/q x ~n/q²`. Shared so the
    /// stage broadcasts move a handle, not a copy of the block.
    at_ijk: Arc<Csr>,
    /// `A(rows i, cols j, col-split k)`.
    a_ijk: Arc<Csr>,
    /// Column-compacted `at_ijk` (columns renumbered to my stage's
    /// needed set) served on the row broadcast in sparsity-aware mode.
    /// Built lazily on the first switch to that mode.
    at_compact: Option<Arc<Csr>>,
    /// Same for `a_ijk` (backward stages).
    a_compact: Option<Arc<Csr>>,
    /// Per SUMMA stage `s`: the sorted distinct nonzero columns of my
    /// fiber's `Aᵀ` panel for stage `s` — the rows of the broadcast `D`
    /// block this rank actually reads (sparsity-aware mode). Derived at
    /// setup from the global adjacency; identical across each row
    /// communicator because its members share the panel.
    needed_fwd: Vec<Vec<usize>>,
    /// Same, from the `A` panels of the backward stages.
    needed_bwd: Vec<Vec<usize>>,
    /// Per stage `s`: rows of the stage's dense `D` block (known to all
    /// ranks from the balanced partition; fingerprinted by gather
    /// receivers under CheckMode).
    stage_rows: Vec<usize>,
    /// Dense block broadcasts vs sparsity-aware row exchange for the
    /// SUMMA stages.
    comm_mode: super::CommMode,
    /// Cached-mode halo cache: one slot per (layer, stage) `D` block
    /// fetch, forward layers first, backward layers after (see
    /// [`super::HaloCache`]; DESIGN.md §13). `S` broadcasts, partial-W
    /// stages, and the fiber/j-group reductions are never cached.
    /// Interior-mutable so the `&self` stage helpers can store refreshed
    /// blocks.
    cache: RefCell<super::HaloCache>,
    /// Issue-ahead pipelining: prefetch the next SUMMA stage's panels
    /// with nonblocking broadcasts while the current stage's SpMM
    /// computes (DESIGN.md §10).
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
    /// Stored pre-activation blocks, shared so the output layer's block
    /// enters the row all-gather without a copy.
    zs: Vec<Arc<Mat>>,
    /// Stored activation blocks, shared so whole blocks enter the stage
    /// broadcasts without a copy.
    hs: Vec<Arc<Mat>>,
    /// Output log-probabilities over my Block Split rows, all classes;
    /// shared so `gather_embeddings` moves it without a copy.
    h_out_row: Arc<Mat>,
    /// My column block of the output probabilities of the stored `Z^L`
    /// (the only columns `G^L_ij` reads), kept by a training forward for
    /// the backward to turn into `G^L` (DESIGN.md §14); `None` once
    /// consumed and after an inference forward.
    probs: Option<Mat>,
    /// Large scratch matrices kept across epochs (see
    /// [`super::Workspace`]; DESIGN.md §16). Interior-mutable for the
    /// `&self` stage helpers, like `cache`.
    ws: RefCell<super::Workspace>,
}

impl ThreeDimTrainer {
    /// Slice this rank's mesh blocks from the shared problem. World size
    /// must be a perfect cube.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg) {
            Ok(t) => t,
            Err(e) => panic!("3D trainer setup: {e}"),
        }
    }

    /// Fallible constructor: returns [`super::SetupError`] instead of
    /// panicking on an invalid geometry. Validation happens before the
    /// mesh's communicator splits, so on error every rank returns without
    /// touching the collectives.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
    ) -> Result<Self, super::SetupError> {
        let Some(q) = int_cbrt(ctx.size) else {
            return Err(super::SetupError::Geometry(format!(
                "3D trainer needs a cubic process count, got {}",
                ctx.size
            )));
        };
        let n = problem.vertices();
        if q * q > n {
            return Err(super::SetupError::Geometry(
                "mesh too fine for vertex count".into(),
            ));
        }
        let grid = Grid3D::new(ctx, q);
        let jgroup = ctx.world.split(grid.j as u64);
        let (i, j, k) = (grid.i, grid.j, grid.k);
        // A blocks: rows block i; columns = sub-block k of column block j.
        let (r0b, r1b) = block_range(n, q, i);
        let (c0, c1) = block_range(n, q, j);
        let sub = block_range(c1 - c0, q, k);
        let at_ijk = problem.adj_t.block(r0b, r1b, c0 + sub.0, c0 + sub.1);
        let a_ijk = problem.adj.block(r0b, r1b, c0 + sub.0, c0 + sub.1);
        // Per-stage needed sets and stage block heights for
        // sparsity-aware mode (uncharged setup, like the slicing above).
        let mut needed_fwd = Vec::with_capacity(q);
        let mut needed_bwd = Vec::with_capacity(q);
        let mut stage_rows = Vec::with_capacity(q);
        for s in 0..q {
            let (cs0, cs1) = block_range(n, q, s);
            let ssub = block_range(cs1 - cs0, q, k);
            stage_rows.push(ssub.1 - ssub.0);
            needed_fwd.push(
                problem
                    .adj_t
                    .needed_cols_in(r0b, r1b, cs0 + ssub.0, cs0 + ssub.1),
            );
            needed_bwd.push(
                problem
                    .adj
                    .needed_cols_in(r0b, r1b, cs0 + ssub.0, cs0 + ssub.1),
            );
        }
        // Dense blocks: rows = sub-block k of row block i; cols block j of f.
        let rsub = block_range(r1b - r0b, q, k);
        let r0 = r0b + rsub.0;
        let f0 = problem.features.cols();
        let (fc0, fc1) = block_range(f0, q, j);
        let h0 = problem.features.block(r0, r0b + rsub.1, fc0, fc1);
        Ok(ThreeDimTrainer {
            cfg: cfg.clone(),
            grid,
            jgroup,
            train_count: problem.train_count(),
            r0,
            at_ijk: Arc::new(at_ijk),
            a_ijk: Arc::new(a_ijk),
            at_compact: None,
            a_compact: None,
            needed_fwd,
            needed_bwd,
            stage_rows,
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
            h_out_row: Arc::new(Mat::zeros(0, 0)),
            probs: None,
            ws: RefCell::default(),
        })
    }

    /// Rows of my Block Split dense pieces (`≈ n/q²`).
    fn my_rows(&self) -> usize {
        self.hs[0].rows()
    }

    /// The sparse block to serve as stage owner on the row broadcast:
    /// the full block in dense mode, the column-compacted one (same nnz,
    /// identical SparseComm words) in the sparse-exchange modes.
    fn bcast_block<'a>(
        &'a self,
        full: &'a Arc<Csr>,
        compact: &'a Option<Arc<Csr>>,
    ) -> &'a Arc<Csr> {
        match (self.comm_mode.sparse_exchange(), compact) {
            (true, Some(c)) => c,
            _ => full,
        }
    }

    /// Cache slot base of layer `l`'s forward Split-3D-SpMM (`q` stage
    /// slots per layer).
    fn fwd_slot_base(&self, l: usize) -> usize {
        l * self.grid.q
    }

    /// Cache slot base of layer `l`'s backward Split-3D-SpMM (after all
    /// forward layers).
    fn bwd_slot_base(&self, l: usize) -> usize {
        (self.cfg.layers() + l) * self.grid.q
    }

    /// Whether the current pass serves `D` blocks from the halo cache
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

    /// Serve stage `s`'s `D` block without any collective: the owning
    /// mesh row compacts fresh from its resident block (zero words, like
    /// the root of the skipped gather); other rows read the cache,
    /// metering the words the skipped gather would have moved under
    /// [`Cat::CacheHit`].
    fn serve_cached(
        &self,
        d_mine: &Arc<Mat>,
        needed: &[usize],
        s: usize,
        slot: usize,
    ) -> super::Fetch<'static> {
        if self.grid.i == s {
            super::Fetch::Gathered(GatheredRows::full(d_mine.clone()))
        } else {
            let row_words = d_mine.cols() as u64 + 1;
            self.grid.col.cache_hit(needed.len() as u64 * row_words);
            super::Fetch::Ready(super::Operand::shared(self.cache.borrow().get(slot)))
        }
    }

    /// Store a freshly gathered compact `D` block on refresh epochs
    /// (blocks owned by other mesh rows only — the owner's block is
    /// always served fresh).
    fn maybe_store(&self, s: usize, slot: usize, block: &super::Operand) {
        if self.cached_refreshing() && self.grid.i != s {
            self.cache.borrow_mut().store(slot, block.handle().clone());
        }
    }

    /// One full Split-3D-SpMM: per-layer 2D SUMMA (`q` stages of paired
    /// row/column exchanges) followed by a fiber reduce-scatter of the
    /// `n/q x f/q` partial sums. In sparsity-aware mode the dense block
    /// moves as a row gather of each receiver's needed rows instead of a
    /// full broadcast; `s_mine` is then the compact panel, so the SpMM's
    /// accumulation order — and its charged cost — matches dense mode
    /// bit for bit.
    fn split3d_spmm(
        &self,
        ctx: &Ctx,
        s_mine: &Arc<Csr>,
        d_mine: &Arc<Mat>,
        needed_tbl: &[Vec<usize>],
        slot_base: usize,
    ) -> Mat {
        let q = self.grid.q;
        let f_cols = d_mine.cols();
        let mut partial = self.ws.borrow_mut().zeros(self.at_ijk.rows(), f_cols);
        // Issue-ahead pipeline: stage s+1's panels are in flight while
        // stage s's SpMM computes. Arc payloads: the owner's resident
        // block is never deep-copied into the collective.
        let issue = |s: usize| {
            let a_op = self.grid.row.ibcast_shared(
                s,
                (self.grid.j == s).then(|| s_mine.clone()),
                Cat::SparseComm,
            );
            let d_payload = || (self.grid.i == s).then(|| d_mine.clone());
            let dims = Some((self.stage_rows[s], f_cols));
            let d_op = match self.comm_mode {
                super::CommMode::Dense => {
                    super::Fetch::Dense(self.grid.col.ibcast_shared(s, d_payload(), Cat::DenseComm))
                }
                super::CommMode::SparsityAware => super::Fetch::Sparse(self.grid.col.igather_rows(
                    s,
                    d_payload(),
                    &needed_tbl[s],
                    dims,
                    Cat::DenseComm,
                )),
                super::CommMode::Cached { .. } => {
                    if self.cached_serving() {
                        self.serve_cached(d_mine, &needed_tbl[s], s, slot_base + s)
                    } else if self.training {
                        super::Fetch::Sparse(self.grid.col.igather_rows_refresh(
                            s,
                            d_payload(),
                            &needed_tbl[s],
                            dims,
                            Cat::DenseComm,
                        ))
                    } else {
                        super::Fetch::Sparse(self.grid.col.igather_rows(
                            s,
                            d_payload(),
                            &needed_tbl[s],
                            dims,
                            Cat::DenseComm,
                        ))
                    }
                }
            };
            (a_op, d_op)
        };
        let mut pending = self.overlap.then(|| issue(0));
        for (s, needed) in needed_tbl.iter().enumerate().take(q) {
            let (a_hat, d_hat) = match pending.take() {
                Some((a_op, d_op)) => {
                    if s + 1 < q {
                        pending = Some(issue(s + 1));
                    }
                    (a_op.wait(), d_op.wait(needed, &self.ws))
                }
                None => {
                    let a_hat = self.grid.row.bcast_shared(
                        s,
                        (self.grid.j == s).then(|| s_mine.clone()),
                        Cat::SparseComm,
                    );
                    let d_payload = || (self.grid.i == s).then(|| d_mine.clone());
                    let dims = Some((self.stage_rows[s], f_cols));
                    let d_hat = match self.comm_mode {
                        super::CommMode::Dense => super::Fetch::Ready(super::Operand::shared(
                            self.grid.col.bcast_shared(s, d_payload(), Cat::DenseComm),
                        )),
                        super::CommMode::SparsityAware => super::Fetch::Gathered(
                            self.grid
                                .col
                                .gather_rows(s, d_payload(), needed, dims, Cat::DenseComm),
                        ),
                        super::CommMode::Cached { .. } => {
                            if self.cached_serving() {
                                self.serve_cached(d_mine, needed, s, slot_base + s)
                            } else if self.training {
                                super::Fetch::Gathered(self.grid.col.gather_rows_refresh(
                                    s,
                                    d_payload(),
                                    needed,
                                    dims,
                                    Cat::DenseComm,
                                ))
                            } else {
                                super::Fetch::Gathered(self.grid.col.gather_rows(
                                    s,
                                    d_payload(),
                                    needed,
                                    dims,
                                    Cat::DenseComm,
                                ))
                            }
                        }
                    }
                    .wait(needed, &self.ws);
                    (a_hat, d_hat)
                }
            };
            self.maybe_store(s, slot_base + s, &d_hat);
            ctx.charge_spmm(a_hat.nnz(), a_hat.rows(), d_hat.cols());
            self.ws
                .borrow_mut()
                .spmm_acc_with(ctx.parallel(), &a_hat, &d_hat, &mut partial);
            d_hat.release(&self.ws);
        }
        // Fiber reduction: the ∛P-replicated partials collapse into the
        // Block Split 3D distribution.
        let partial = self.ws.borrow_mut().lend(partial);
        let mut out = self.ws.borrow_mut().take(self.my_rows() * f_cols);
        self.grid
            .fiber
            .reduce_scatter_rows(partial, &mut out, Cat::DenseComm);
        out
    }

    /// Partial Split-3D-SpMM against the replicated `W` (within-layer row
    /// broadcasts only, §IV-D.1). These stages stay dense broadcasts in
    /// every [`super::CommMode`]: the stage GEMM reads *all* rows of the
    /// broadcast `T` block, so a row gather would request every row and
    /// only add the per-row index words.
    fn partial_w(
        &self,
        ctx: &Ctx,
        t_mine: &Arc<Mat>,
        w: &Mat,
        f_in: usize,
        f_out: usize,
        transpose_w: bool,
    ) -> Mat {
        let q = self.grid.q;
        let (oc0, oc1) = block_range(f_out, q, self.grid.j);
        // The result is stored as `Z`.
        let mut out = self.ws.borrow_mut().keep_zeros(self.my_rows(), oc1 - oc0);
        // Issue-ahead pipeline over the q broadcast stages, as in
        // split3d_spmm. Arc payloads: my own T block is never
        // deep-copied into the collective.
        let issue = |s: usize| {
            self.grid.row.ibcast_shared(
                s,
                (self.grid.j == s).then(|| t_mine.clone()),
                Cat::DenseComm,
            )
        };
        let mut pending = self.overlap.then(|| issue(0));
        for s in 0..q {
            let t_hat = match pending.take() {
                Some(op) => {
                    if s + 1 < q {
                        pending = Some(issue(s + 1));
                    }
                    op.wait()
                }
                None => self.grid.row.bcast_shared(
                    s,
                    (self.grid.j == s).then(|| t_mine.clone()),
                    Cat::DenseComm,
                ),
            };
            let (ic0, ic1) = block_range(f_in, q, s);
            debug_assert_eq!(ic1 - ic0, t_hat.cols(), "stage width mismatch");
            if ic1 == ic0 || oc1 == oc0 {
                continue;
            }
            ctx.charge_gemm(t_hat.rows(), ic1 - ic0, oc1 - oc0);
            if transpose_w {
                let w_slice = w.block(oc0, oc1, ic0, ic1);
                matmul_nt_acc_with(ctx.parallel(), &t_hat, &w_slice, &mut out);
            } else {
                let w_slice = w.block(ic0, ic1, oc0, oc1);
                matmul_acc_with(ctx.parallel(), &t_hat, &w_slice, &mut out);
            }
        }
        out
    }

    /// Forward pass; returns the global mean masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        let q = self.grid.q;
        // The last pass's stored blocks go back to the workspace; this
        // pass rebuilds them in the same buffers.
        let ws = self.ws.get_mut();
        ws.reclaim();
        self.zs.drain(..).for_each(|z| ws.give_shared(z));
        self.hs.drain(1..).for_each(|h| ws.give_shared(h));
        ws.give_shared(std::mem::replace(
            &mut self.h_out_row,
            Arc::new(Mat::zeros(0, 0)),
        ));
        self.drop_masks.drain(..).flatten().for_each(|m| ws.give(m));
        self.drop_masks.resize(l_total, None);
        for l in 0..l_total {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            let t = self.split3d_spmm(
                ctx,
                self.bcast_block(&self.at_ijk, &self.at_compact),
                &self.hs[l],
                &self.needed_fwd,
                self.fwd_slot_base(l),
            );
            let t = self.ws.borrow_mut().lend(t);
            let z = Arc::new(self.partial_w(ctx, &t, &self.weights[l], f_in, f_out, false));
            let mut h = self.ws.borrow_mut().keep(z.len());
            if l + 1 == l_total {
                // log_softmax: within-layer row all-gather assembles full
                // class rows; no cross-layer communication (§IV-D.2).
                let z_row = self.gather_class_rows(&z);
                ctx.charge_elementwise(2 * z_row.len());
                let mut h_row = self.ws.borrow_mut().keep(z_row.len());
                let (oc0, oc1) = block_range(f_out, q, self.grid.j);
                self.probs = super::output_layer(
                    self.ws.get_mut(),
                    self.training,
                    &z_row,
                    oc0..oc1,
                    &mut h_row,
                );
                self.h_out_row = Arc::new(h_row);
                self.h_out_row.block_into(0, z_row.rows(), oc0, oc1, &mut h);
                self.ws.borrow_mut().give(z_row);
            } else {
                ctx.charge_elementwise(z.len());
                self.act.apply_into(&z, &mut h);
                let (dc0, dc1) = block_range(f_out, self.grid.q, self.grid.j);
                self.apply_dropout(l, self.r0, f_out, dc0, dc1, &mut h);
            }
            self.zs.push(z);
            self.hs.push(Arc::new(h));
            self.ws.get_mut().end_layer();
        }
        let local = if self.grid.j == 0 {
            nll_sum(&self.h_out_row, &self.labels, &self.mask, self.r0)
        } else {
            0.0
        };
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.train_count as f64
    }

    /// All-gather a `Z^L` block along the process row into whole class
    /// rows, in a workspace buffer.
    fn gather_class_rows(&self, z: &Arc<Mat>) -> Mat {
        let mut z_row = self.ws.borrow_mut().take(z.rows() * self.cfg.f_out());
        let parts = self.grid.row.allgather_shared(z.clone(), Cat::DenseComm);
        Mat::hstack_into(&parts, &mut z_row);
        z_row
    }

    /// Output-layer gradient block `G^L_ij`, in the buffer of the
    /// probabilities block the forward kept. When the stored `Z^L` came
    /// from a pass that kept none (a bare inference `forward`), its class
    /// rows are gathered once more and go through the same row kernel:
    /// one extra row all-gather, the same bits.
    fn output_gradient_block(&mut self) -> Mat {
        let (oc0, oc1) = block_range(self.cfg.f_out(), self.grid.q, self.grid.j);
        let mut g = self.probs.take().unwrap_or_else(|| {
            let z_row = self.gather_class_rows(&self.zs[self.zs.len() - 1]);
            let ws = self.ws.get_mut();
            let mut log_p = ws.take(z_row.len());
            let mut p = ws.take(z_row.rows() * (oc1 - oc0));
            log_softmax_probs_into(&z_row, oc0..oc1, &mut log_p, &mut p);
            ws.give(log_p);
            ws.give(z_row);
            p
        });
        output_gradient_from_probs(
            &mut g,
            &self.labels,
            &self.mask,
            self.r0,
            oc0,
            self.train_count,
        );
        g
    }

    /// Backward pass + replicated gradient-descent step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let l_total = self.cfg.layers();
        assert_eq!(self.zs.len(), l_total, "forward must run before backward");
        self.ws.get_mut().reclaim();
        let g = self.output_gradient_block();
        let mut g = self.ws.borrow_mut().lend(g);
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // A G via full Split-3D-SpMM; saved and reused (§IV-D.4).
            let ag = self.split3d_spmm(
                ctx,
                self.bcast_block(&self.a_ijk, &self.a_compact),
                &g,
                &self.needed_bwd,
                self.bwd_slot_base(l),
            );
            // The gathered handles go before the next collective, so the
            // peers' blocks are free again when they expect them to be.
            let ag = self.ws.borrow_mut().lend(ag);
            let mut ag_row = self.ws.borrow_mut().take(self.my_rows() * f_out);
            {
                let parts = self.grid.row.allgather_shared(ag, Cat::DenseComm);
                Mat::hstack_into(&parts, &mut ag_row);
            }
            debug_assert_eq!(ag_row.shape(), (self.my_rows(), f_out));
            // Y = (H^{l-1})ᵀ A G: local slab product, reduction over all
            // ranks sharing grid column j, then row replication.
            ctx.charge_gemm(self.hs[l].cols(), self.my_rows(), f_out);
            let y_local = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag_row);
            // With overlap on, the j-group Y reduction is in flight while
            // the G^{l-1} GEMM computes (both read only ag_row and
            // replicated state). The dropout mask is taken up front so
            // no &mut self is needed while the op borrows the jgroup.
            let drop_mask = (l > 0).then(|| self.drop_masks[l - 1].take()).flatten();
            let y_op = self
                .overlap
                .then(|| self.jgroup.iallreduce_mat(&y_local, Cat::DenseComm));
            if l > 0 {
                let (jc0, jc1) = block_range(f_in, self.grid.q, self.grid.j);
                let w_slice = self.weights[l].block(jc0, jc1, 0, f_out);
                ctx.charge_gemm(self.my_rows(), f_out, jc1 - jc0);
                let mut next_g = self.ws.borrow_mut().zeros(self.my_rows(), jc1 - jc0);
                matmul_nt_acc_with(ctx.parallel(), &ag_row, &w_slice, &mut next_g);
                self.act.mul_prime_assign(&mut next_g, &self.zs[l - 1]);
                if let Some(mask) = drop_mask {
                    hadamard_assign(&mut next_g, &mask);
                    self.ws.borrow_mut().give(mask);
                }
                ctx.charge_elementwise(next_g.len());
                g = self.ws.borrow_mut().lend(next_g);
            }
            let y_j = match y_op {
                Some(op) => op.wait(),
                None => self.jgroup.allreduce_mat(&y_local, Cat::DenseComm),
            };
            let y_parts = self.grid.row.allgather(y_j, Cat::DenseComm);
            let y = Mat::vstack(&y_parts);
            debug_assert_eq!(y.shape(), (f_in, f_out));
            self.opt.step(l, &mut self.weights[l], &y);
            ctx.charge_elementwise(y.len());
            let ws = self.ws.get_mut();
            ws.give(ag_row);
            ws.end_layer();
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
        let (c, t) = if self.grid.j == 0 {
            accuracy_counts(&self.h_out_row, &self.labels, &self.mask, self.r0)
        } else {
            (0, 0)
        };
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

    /// Select the hidden-layer activation (default ReLU, the paper's σ;
    /// the output layer stays log-softmax). Elementwise, so it changes no
    /// communication. Must be set identically on every rank.
    pub fn set_hidden_activation(&mut self, act: Activation) {
        self.act = act;
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, SUMMA panel broadcasts and the j-group Y
    /// reduction run as nonblocking collectives pipelined against
    /// compute; losses, weights, and metered words are bit-identical
    /// either way — only modeled (and wall-clock) time changes. Must be
    /// set identically on every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.overlap = overlap;
    }

    /// Select how Split-3D-SpMM stages move the dense operand. Under
    /// [`CommMode::SparsityAware`](super::CommMode::SparsityAware) each
    /// stage's dense block broadcast becomes a `gather_rows` of only the
    /// rows the receivers' sparse blocks touch, and the stage owner ships
    /// the column-compacted sparse block (same nnz — identical SparseComm
    /// words). The trailing weight product (`partial_w`) stays dense in
    /// every mode: the GEMM reads all rows of the broadcast T block, so a
    /// gather would add index words for zero savings. `Dense` and
    /// `SparsityAware` train bit-identically; `Cached` is bit-identical
    /// only at `refresh: 1` (DESIGN.md §13). Must be set identically on
    /// every rank. Always drops any halo cache, so a mode change (or
    /// re-set after mutating state) can never serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        self.cache.borrow_mut().invalidate();
        self.comm_mode = mode;
        if mode.sparse_exchange() {
            if self.at_compact.is_none() {
                self.at_compact = Some(Arc::new(
                    self.at_ijk.compact_cols(&self.needed_fwd[self.grid.j]),
                ));
            }
            if self.a_compact.is_none() {
                self.a_compact = Some(Arc::new(
                    self.a_ijk.compact_cols(&self.needed_bwd[self.grid.j]),
                ));
            }
        }
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

    /// Per-rank storage footprint (run after a forward pass). The
    /// intermediate term is the §IV-D replication: each SUMMA partial is
    /// `n/q x f/q` — `q = ∛P` times larger than the rank's own
    /// `n/q² x f/q` state blocks.
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        let q = self.grid.q;
        super::StorageReport {
            adjacency: super::csr_words(&self.at_ijk)
                + super::csr_words(&self.a_ijk)
                + self.at_compact.as_ref().map_or(0, |c| super::csr_words(c))
                + self.a_compact.as_ref().map_or(0, |c| super::csr_words(c)),
            dense_state: super::mats_words(&self.hs)
                + super::mats_words(&self.zs)
                + self.h_out_row.len()
                // The probabilities a training forward keeps next to
                // `Z^L`, block for block the same shape.
                + self.zs.last().map_or(0, |z| z.len()),
            // Pre-fiber-reduction partial: n/q rows x ~f/q cols.
            intermediate: self.at_ijk.rows() * f_max.div_ceil(q) + self.my_rows() * f_max,
        }
    }

    /// Assemble the full output embedding matrix on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let q = self.grid.q;
        let blocks = ctx
            .world
            .allgather_shared(self.h_out_row.clone(), Cat::DenseComm);
        // Global row order: row block i, then sub-block k; contributed by
        // rank (i, j=0, k) = k·q² + i·q.
        let mut parts = Vec::with_capacity(q * q);
        for i in 0..q {
            for k in 0..q {
                parts.push(blocks[k * q * q + i * q].clone());
            }
        }
        Mat::vstack(&parts)
    }
}
