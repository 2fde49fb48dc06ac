//! 2D SUMMA parallel GCN training — the paper's Algorithm 2 (§IV-C), the
//! variant the paper implements and evaluates on up to 100 GPUs — on
//! square **or rectangular** process grids (§IV-C.6).
//!
//! Data distribution (Table IV): `A`, `H^l`, `G^l` all block-2D on a
//! `Pr x Pc` grid; `W^l` fully replicated.
//!
//! Per layer, forward runs a SUMMA SpMM over the shared vertex dimension,
//! then a "partial SUMMA" against the replicated `W` (only `T` blocks
//! move, along process rows). The output layer's `log_softmax` is not
//! elementwise, so each process row all-gathers its `Z` blocks before
//! applying it (§IV-C.2). Backward runs the SUMMA SpMM for `A G^l`,
//! reuses the row-all-gathered `A G` for both the weight gradient
//! `Y = (H^{l-1})ᵀ A G` (§IV-C.4) and the `A G (W^l)ᵀ` product, and
//! finishes with the replicated update.
//!
//! **Stage structure.** The vertex dimension is partitioned into
//! `K = lcm(Pr, Pc)` *fine* blocks; `A`'s column groups and `H`'s row
//! groups are unions of consecutive fine blocks, so each SUMMA stage
//! broadcasts one fine panel from its (column-group, row-group) owners.
//! On a square grid `K = Pr = Pc` and this is exactly Algorithm 2's
//! per-process staging. The `stages_per_block` knob subdivides each fine
//! stage into narrower panels — the paper's blocking parameter `b`:
//! volume is unchanged but latency scales with the stage count (swept by
//! the ablation bench).
//!
//! §IV-C.6's trade-off is observable here: growing `Pr/Pc` shrinks the
//! sparse-matrix traffic (`nnz/Pr`) at the cost of the dense terms — see
//! `tests/rect_grid.rs`.

use crate::analysis::gcf;
use crate::loss::{accuracy_counts, nll_sum, output_gradient_from_probs};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use cagnet_comm::grid::int_sqrt;
use cagnet_comm::{Cat, Ctx, Grid2D};
use cagnet_dense::activation::{log_softmax_probs_into, Activation};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_acc_with, matmul_nt_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::Csr;
use std::cell::RefCell;
use std::sync::Arc;

/// Tuning knobs of the 2D trainer.
#[derive(Clone, Copy, Debug)]
pub struct TwoDimConfig {
    /// SUMMA sub-stages per fine block (the blocking parameter `b` of
    /// Algorithm 2 expressed as a divisor). 1 = one stage per fine block
    /// (widest panels, fewest messages).
    pub stages_per_block: usize,
    /// Charge the paper-implementation's per-epoch matrix-transpose cost
    /// ("trpose" in Figure 3): two local sparse transposes per epoch.
    pub charge_transpose: bool,
}

impl Default for TwoDimConfig {
    fn default() -> Self {
        TwoDimConfig {
            stages_per_block: 1,
            charge_transpose: true,
        }
    }
}

/// Per-rank state of the 2D SUMMA trainer.
pub struct TwoDimTrainer {
    cfg: GcnConfig,
    tcfg: TwoDimConfig,
    grid: Grid2D,
    train_count: usize,
    /// Fine vertex blocks (`K = lcm(Pr, Pc)` of them).
    fine: Vec<(usize, usize)>,
    /// My global vertex-row range (a union of `K/Pr` fine blocks).
    r0: usize,
    r1: usize,
    /// My global vertex-column range (a union of `K/Pc` fine blocks).
    c0: usize,
    /// `Aᵀ` block `(i, j)`, shared so a SUMMA stage spanning the whole
    /// block broadcasts the block itself.
    at_ij: Arc<Csr>,
    /// `A` block `(i, j)` (equal to `at_ij` for undirected graphs, sliced
    /// independently to support directed input).
    a_ij: Arc<Csr>,
    /// Per SUMMA stage `(k, t)` (index `k·stages_per_block + t`): the
    /// sorted distinct nonzero columns of my grid row's `Aᵀ` panel,
    /// relative to the stage's column range — the rows of the stage `D`
    /// panel this grid row actually reads (sparsity-aware mode). Derived
    /// at setup from the global adjacency: only the owning grid column
    /// holds the panel locally, but every rank of a grid row shares the
    /// same panel and therefore the same needed set.
    needed_fwd: Vec<Vec<usize>>,
    /// Same, from the `A` panels of the backward SUMMA.
    needed_bwd: Vec<Vec<usize>>,
    /// Dense panel broadcasts vs sparsity-aware row exchange for the
    /// SUMMA stages.
    comm_mode: super::CommMode,
    /// Cached-mode halo cache: one slot per (layer, SUMMA stage) `D`
    /// panel fetch, forward layers first, backward layers after (see
    /// [`super::HaloCache`]; DESIGN.md §13). `S` panels (adjacency) and
    /// the partial-W/reduction stages are never cached. Interior-mutable
    /// so the `&self` stage helpers can store refreshed panels.
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
    /// Stored pre-activation blocks from the last forward pass, shared
    /// so the output layer's block enters the row all-gather without a
    /// copy.
    zs: Vec<Arc<Mat>>,
    /// Stored activation blocks (`hs\[0\]` = my feature block), shared
    /// so a SUMMA stage spanning the whole block broadcasts the block
    /// itself.
    hs: Vec<Arc<Mat>>,
    /// Full-width row block of output log-probabilities (valid after
    /// forward; identical across a process row), shared so
    /// `gather_embeddings` moves it without a copy.
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

/// Vertex ranges of the `Pr` row groups and `Pc` column groups derived
/// from the fine partition (`group i` = union of its consecutive fine
/// blocks). Using unions keeps every coarse boundary on a fine boundary
/// even when `n` is not divisible.
fn coarse_ranges(fine: &[(usize, usize)], parts: usize) -> Vec<(usize, usize)> {
    let per = fine.len() / parts;
    (0..parts)
        .map(|g| (fine[g * per].0, fine[(g + 1) * per - 1].1))
        .collect()
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcf(a, b) * b
}

impl TwoDimTrainer {
    /// Square-grid setup (Algorithm 2 as the paper runs it). World size
    /// must be a perfect square.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig, tcfg: TwoDimConfig) -> Self {
        match Self::try_setup(ctx, problem, cfg, tcfg) {
            Ok(t) => t,
            Err(e) => panic!("2D trainer setup: {e}"),
        }
    }

    /// Fallible square-grid constructor: returns [`super::SetupError`]
    /// instead of panicking on an invalid geometry.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
    ) -> Result<Self, super::SetupError> {
        let Some(q) = int_sqrt(ctx.size) else {
            return Err(super::SetupError::Geometry(format!(
                "2D trainer needs a square process count, got {}",
                ctx.size
            )));
        };
        Self::try_setup_rect(ctx, problem, cfg, tcfg, q, q)
    }

    /// Rectangular-grid setup (§IV-C.6). `pr * pc` must equal the world
    /// size.
    pub fn setup_rect(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
        pr: usize,
        pc: usize,
    ) -> Self {
        match Self::try_setup_rect(ctx, problem, cfg, tcfg, pr, pc) {
            Ok(t) => t,
            Err(e) => panic!("2D trainer setup: {e}"),
        }
    }

    /// Fallible rectangular-grid constructor. Validation happens before
    /// the grid's communicator splits, so on error every rank returns
    /// without touching the collectives.
    pub fn try_setup_rect(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
        pr: usize,
        pc: usize,
    ) -> Result<Self, super::SetupError> {
        if tcfg.stages_per_block < 1 {
            return Err(super::SetupError::Config(
                "stages_per_block must be >= 1".into(),
            ));
        }
        let n = problem.vertices();
        let k = lcm(pr, pc);
        if k > n {
            return Err(super::SetupError::Geometry(
                "stage count exceeds vertex count".into(),
            ));
        }
        let grid = Grid2D::new(ctx, pr, pc);
        let fine = block_ranges(n, k);
        let rows = coarse_ranges(&fine, pr);
        let cols = coarse_ranges(&fine, pc);
        let (r0, r1) = rows[grid.i];
        let (c0, c1) = cols[grid.j];
        let at_ij = Arc::new(problem.adj_t.block(r0, r1, c0, c1));
        let a_ij = Arc::new(problem.adj.block(r0, r1, c0, c1));
        // Per-stage needed sets for sparsity-aware mode (uncharged setup,
        // like the slicing above).
        let sub = tcfg.stages_per_block;
        let mut needed_fwd = Vec::with_capacity(k * sub);
        let mut needed_bwd = Vec::with_capacity(k * sub);
        for &(fk0, fk1) in &fine {
            for t in 0..sub {
                let (t0, t1) = block_range(fk1 - fk0, sub, t);
                needed_fwd.push(problem.adj_t.needed_cols_in(r0, r1, fk0 + t0, fk0 + t1));
                needed_bwd.push(problem.adj.needed_cols_in(r0, r1, fk0 + t0, fk0 + t1));
            }
        }
        let f0 = problem.features.cols();
        let (fc0, fc1) = block_range(f0, pc, grid.j);
        let h0 = problem.features.block(r0, r1, fc0, fc1);
        Ok(TwoDimTrainer {
            cfg: cfg.clone(),
            tcfg,
            grid,
            train_count: problem.train_count(),
            fine,
            r0,
            r1,
            c0,
            at_ij,
            a_ij,
            needed_fwd,
            needed_bwd,
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

    fn my_rows(&self) -> usize {
        self.r1 - self.r0
    }

    /// Cache slot base of layer `l`'s forward SUMMA (`K·sub` slots per
    /// layer, one per `(k, t)` stage).
    fn fwd_slot_base(&self, l: usize) -> usize {
        l * self.fine.len() * self.tcfg.stages_per_block
    }

    /// Cache slot base of layer `l`'s backward SUMMA (after all forward
    /// layers).
    fn bwd_slot_base(&self, l: usize) -> usize {
        (self.cfg.layers() + l) * self.fine.len() * self.tcfg.stages_per_block
    }

    /// Columns `c0..c1` of my resident sparse block as a stage payload —
    /// column-compacted to `needed` in the sparse-exchange modes: the
    /// block itself when a dense-mode stage spans all of it, else a
    /// fresh slice (`nnz`-proportional, not workspace material).
    fn s_panel(&self, s_mine: &Arc<Csr>, c0: usize, c1: usize, needed: &[usize]) -> Arc<Csr> {
        let whole = c0 == 0 && c1 == s_mine.cols();
        match (self.comm_mode.sparse_exchange(), whole) {
            (false, true) => s_mine.clone(),
            (false, false) => Arc::new(s_mine.block(0, s_mine.rows(), c0, c1)),
            (true, true) => Arc::new(s_mine.compact_cols(needed)),
            (true, false) => Arc::new(s_mine.block(0, s_mine.rows(), c0, c1).compact_cols(needed)),
        }
    }

    /// Rows `r0..r1` of my resident dense block as a stage payload: the
    /// block itself when the stage spans all of it (square grids at one
    /// stage per block), else a copy in a workspace buffer lent for the
    /// broadcast.
    fn d_panel(&self, d_mine: &Arc<Mat>, r0: usize, r1: usize) -> Arc<Mat> {
        if r0 == 0 && r1 == d_mine.rows() {
            return d_mine.clone();
        }
        let mut ws = self.ws.borrow_mut();
        let mut panel = ws.take((r1 - r0) * d_mine.cols());
        d_mine.block_into(r0, r1, 0, d_mine.cols(), &mut panel);
        ws.lend(panel)
    }

    /// Issue SUMMA stage `(k, t)`'s two panel exchanges: the `S` panel
    /// along the process row, then the `D` panel along the process
    /// column through the trainer's [`super::Fetcher`]. In the sparse
    /// tiers the owner serves the column-compacted `S` panel (same nnz —
    /// identical SparseComm words) and the `D` panel moves as a row
    /// gather of each grid row's needed rows instead of a full broadcast.
    fn issue_summa_stage<'s>(
        &'s self,
        fetcher: super::Fetcher<'s>,
        s_mine: &Arc<Csr>,
        d_mine: &Arc<Mat>,
        needed_tbl: &'s [Vec<usize>],
        slot_base: usize,
        stage: usize,
    ) -> (super::Lead<'s, Arc<Csr>>, super::Fetch<'s>) {
        let sub = self.tcfg.stages_per_block;
        let (k, t) = (stage / sub, stage % sub);
        let k_total = self.fine.len();
        let owner_col = k / (k_total / self.grid.pc);
        let owner_row = k / (k_total / self.grid.pr);
        let (fk0, fk1) = self.fine[k];
        let (t0, t1) = block_range(fk1 - fk0, sub, t);
        let needed = &needed_tbl[stage];
        let a_op = self.grid.row.ibcast_shared(
            owner_col,
            (self.grid.j == owner_col).then(|| {
                // Local slice of my Aᵀ block covering fine stage k.
                let lo = fk0 - self.c0;
                self.s_panel(s_mine, lo + t0, lo + t1, needed)
            }),
            Cat::SparseComm,
        );
        let a_op = super::Lead::new(a_op, self.overlap);
        let d_payload = (self.grid.i == owner_row).then(|| {
            let lo = fk0 - self.r0;
            self.d_panel(d_mine, lo + t0, lo + t1)
        });
        let dims = (t1 - t0, d_mine.cols());
        let d_op = fetcher.fetch(
            &self.grid.col,
            owner_row,
            d_payload,
            needed,
            dims,
            slot_base + stage,
        );
        (a_op, d_op)
    }

    /// SUMMA SpMM: `out_ij += Σ_k SPMM(S(:, fine k), D(fine k, :))` over
    /// the `K` fine stages, each owned by one grid column (the `S` panel)
    /// and one grid row (the `D` panel). Sub-blocked into
    /// `stages_per_block` panels per fine stage. With overlap on, the
    /// next stage's panels are in flight while the current stage's SpMM
    /// computes.
    fn summa_spmm(
        &self,
        ctx: &Ctx,
        s_mine: &Arc<Csr>,
        d_mine: &Arc<Mat>,
        f_cols: usize,
        needed_tbl: &[Vec<usize>],
        slot_base: usize,
    ) -> Mat {
        let mut out = self.ws.borrow_mut().zeros(self.my_rows(), f_cols);
        let fetcher = super::Fetcher {
            mode: self.comm_mode,
            training: self.training,
            cache: &self.cache,
            ws: &self.ws,
        };
        let stages = self.fine.len() * self.tcfg.stages_per_block;
        let issue =
            |stage| self.issue_summa_stage(fetcher, s_mine, d_mine, needed_tbl, slot_base, stage);
        super::pipeline(self.overlap, stages, issue, |_, (a_op, d_op)| {
            let a_panel = a_op.wait();
            let d_panel = d_op.wait();
            // In sparse mode both panels are compact: the S panel's
            // columns are renumbered to needed order (same nnz/rows) and
            // the D panel holds exactly those rows, so the accumulation
            // order — and the charged cost — matches dense mode bit for
            // bit.
            ctx.charge_spmm(a_panel.nnz(), a_panel.rows(), d_panel.cols());
            self.ws
                .borrow_mut()
                .spmm_acc_with(ctx.parallel(), &a_panel, &d_panel, &mut out);
            d_panel.release(&self.ws);
        });
        out
    }

    /// Partial SUMMA against the replicated `W`: `out_ij += Σ_s T_is ·
    /// W[in-block s, out-block j]`, with `Wᵀ` slices when `transpose_w`
    /// (the backward product). These stages stay dense broadcasts in
    /// every [`super::CommMode`]: the stage GEMM reads *all* rows of the
    /// broadcast `T` block, so a row gather would request every row and
    /// only add the per-row index words.
    fn partial_summa_w(
        &self,
        ctx: &Ctx,
        t_mine: &Arc<Mat>,
        w: &Mat,
        f_in: usize,
        f_out: usize,
        transpose_w: bool,
    ) -> Mat {
        let pc = self.grid.pc;
        let (oc0, oc1) = block_range(f_out, pc, self.grid.j);
        // The result is stored as `Z`.
        let mut out = self.ws.borrow_mut().keep_zeros(self.my_rows(), oc1 - oc0);
        // Issue-ahead pipeline over the pc broadcast stages, as in
        // summa_spmm. Arc payloads: my own T block is never deep-copied
        // into the collective.
        let issue = |s: usize| {
            self.grid.row.ibcast_shared(
                s,
                (self.grid.j == s).then(|| t_mine.clone()),
                Cat::DenseComm,
            )
        };
        super::pipeline(self.overlap, pc, issue, |s, op| {
            let t_hat = op.wait();
            let (ic0, ic1) = block_range(f_in, pc, s);
            debug_assert_eq!(ic1 - ic0, t_hat.cols(), "stage width mismatch");
            if ic1 == ic0 || oc1 == oc0 {
                return;
            }
            ctx.charge_gemm(t_hat.rows(), ic1 - ic0, oc1 - oc0);
            if transpose_w {
                // out += t_hat · (W[oc, ic])ᵀ
                let w_slice = w.block(oc0, oc1, ic0, ic1);
                matmul_nt_acc_with(ctx.parallel(), &t_hat, &w_slice, &mut out);
            } else {
                let w_slice = w.block(ic0, ic1, oc0, oc1);
                matmul_acc_with(ctx.parallel(), &t_hat, &w_slice, &mut out);
            }
        });
        out
    }

    /// Forward pass; returns global mean masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let l_total = self.cfg.layers();
        let pc = self.grid.pc;
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
            // Phase 1: T = Aᵀ H (SUMMA SpMM).
            let t = self.summa_spmm(
                ctx,
                &self.at_ij,
                &self.hs[l],
                self.hs[l].cols(),
                &self.needed_fwd,
                self.fwd_slot_base(l),
            );
            let t = self.ws.borrow_mut().lend(t);
            // Phase 2: Z = T W (partial SUMMA; W replicated).
            let z = Arc::new(self.partial_summa_w(ctx, &t, &self.weights[l], f_in, f_out, false));
            let mut h = self.ws.borrow_mut().keep(z.len());
            if l + 1 == l_total {
                // log_softmax is not elementwise: all-gather Z along the
                // process row to assemble full rows (§IV-C.2).
                let z_row = self.gather_class_rows(&z);
                ctx.charge_elementwise(2 * z_row.len());
                let mut h_row = self.ws.borrow_mut().keep(z_row.len());
                let (oc0, oc1) = block_range(f_out, pc, self.grid.j);
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
                let (dc0, dc1) = block_range(f_out, self.grid.pc, self.grid.j);
                self.apply_dropout(l, self.r0, f_out, dc0, dc1, &mut h);
            }
            self.zs.push(z);
            self.hs.push(Arc::new(h));
            self.ws.get_mut().end_layer();
        }
        // Loss: one rank per process row contributes its row block.
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
        let (oc0, oc1) = block_range(self.cfg.f_out(), self.grid.pc, self.grid.j);
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
        if self.tcfg.charge_transpose {
            // The paper's implementation pays local transposes twice per
            // epoch (cf. §IV-A.7 "only twice per epoch"); Figure 3 reports
            // them as "trpose".
            ctx.charge_transpose(2 * self.a_ij.nnz());
        }
        self.ws.get_mut().reclaim();
        let g = self.output_gradient_block();
        // Shared, like `hs`, for the whole-block SUMMA stages.
        let mut g = self.ws.borrow_mut().lend(g);
        ctx.charge_elementwise(g.len());
        for l in (0..l_total).rev() {
            let f_in = self.cfg.dims[l];
            let f_out = self.cfg.dims[l + 1];
            // SUMMA SpMM: AG = A G (saved and reused, §IV-C.4).
            let ag = self.summa_spmm(
                ctx,
                &self.a_ij,
                &g,
                g.cols(),
                &self.needed_bwd,
                self.bwd_slot_base(l),
            );
            // Row all-gather of AG: serves both Y and A G Wᵀ. The local
            // block moves into the collective, not a copy of it, and the
            // gathered handles go before the next collective, so the
            // peers' blocks are free again when they expect them to be.
            let ag = self.ws.borrow_mut().lend(ag);
            let mut ag_row = self.ws.borrow_mut().take(self.my_rows() * f_out);
            {
                let parts = self.grid.row.allgather_shared(ag, Cat::DenseComm);
                Mat::hstack_into(&parts, &mut ag_row);
            }
            debug_assert_eq!(ag_row.shape(), (self.my_rows(), f_out));
            // Y = (H^{l-1})ᵀ (A G): local slab product, column-group
            // reduction, row replication (2D dense SUMMA + all-gather in
            // the paper's terms).
            ctx.charge_gemm(self.hs[l].cols(), self.my_rows(), f_out);
            let y_local = matmul_tn_with(ctx.parallel(), &self.hs[l], &ag_row);
            // With overlap on, the column-group Y reduction is in flight
            // while the G^{l-1} GEMM computes (both read only ag_row and
            // replicated state). The dropout mask is taken up front so
            // no &mut self is needed while the op borrows the grid.
            let drop_mask = (l > 0).then(|| self.drop_masks[l - 1].take()).flatten();
            let reduce_y = || self.grid.col.iallreduce_mat(&y_local, Cat::DenseComm);
            let y_op = self.overlap.then(reduce_y);
            if l > 0 {
                // G^{l-1} = A G (W^l)ᵀ ⊙ σ'(Z^{l-1}): local against
                // replicated W using the already-gathered AG row slab.
                let (jc0, jc1) = block_range(f_in, self.grid.pc, self.grid.j);
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
            let y_j = y_op.unwrap_or_else(reduce_y).wait();
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

    /// Choose dense panel broadcasts, the sparsity-aware row exchange,
    /// or the cached tier for the SUMMA stages (see
    /// [`super::CommMode`]): in the sparse modes the stage `D` panel
    /// moves as a per-grid-row gather of the rows its `Aᵀ`/`A` panel
    /// references, and the `S` panel is served column-compacted (same
    /// nnz, so SparseComm words are unchanged). Partial-W stages and
    /// reductions stay dense — every row is needed there — and are never
    /// cached. `Dense` and `SparsityAware` train bit-identically;
    /// `Cached` is bit-identical only at `refresh: 1` (DESIGN.md §13).
    /// Must be set identically on every rank. Always drops any halo
    /// cache, so a mode change (or re-set after mutating state) can
    /// never serve stale panels.
    pub fn set_comm_mode(&mut self, mode: super::CommMode) {
        self.cache.borrow_mut().invalidate();
        self.comm_mode = mode;
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, SUMMA panel broadcasts and the column-group Y
    /// reduction run as nonblocking collectives pipelined against
    /// compute; losses, weights, and metered words are bit-identical
    /// either way — only modeled (and wall-clock) time changes. Must be
    /// set identically on every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.overlap = overlap;
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

    /// Per-rank storage footprint (run after a forward pass). 2D is the
    /// memory-optimal distribution (§I): every term scales as 1/P or
    /// 1/√P. See [`super::StorageReport`].
    pub fn storage_words(&self) -> super::StorageReport {
        let f_max = self.cfg.f_max();
        super::StorageReport {
            adjacency: super::csr_words(&self.at_ij) + super::csr_words(&self.a_ij),
            dense_state: super::mats_words(&self.hs)
                + super::mats_words(&self.zs)
                + self.h_out_row.len()
                // The probabilities a training forward keeps next to
                // `Z^L`, block for block the same shape.
                + self.zs.last().map_or(0, |z| z.len()),
            // Row-all-gathered AG slab (n/Pr x f) dominates transients.
            intermediate: self.my_rows() * f_max,
        }
    }

    /// Assemble the full output embedding matrix on every rank.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let pc = self.grid.pc;
        let blocks = ctx
            .world
            .allgather_shared(self.h_out_row.clone(), Cat::DenseComm);
        let parts: Vec<Arc<Mat>> = (0..self.grid.pr).map(|i| blocks[i * pc].clone()).collect();
        Mat::vstack(&parts)
    }
}
