//! The trainer shell the five distributed algorithms share (DESIGN.md §3).
//!
//! A [`Trainer`] owns everything the algorithms have in common — model
//! config, replicated weights and optimizer, activation and dropout, the
//! stored `Z`/`H` blocks and output probabilities, the comm tier, the
//! overlap switch, the halo cache and the workspace — and implements the
//! epoch, every setter and the forward hand-back prologue once. Its
//! [`Layout`] supplies only geometry: which blocks of `A` this rank
//! holds, what each stage fetches, and the stage loops its family's
//! shared body calls ([`super::rows`] for 1D / 1D-row / 1.5D,
//! [`super::grid`] for 2D / 3D).

use super::grid::{self, Grid};
use super::rows::{self, RowLayout};
use super::{CommMode, HaloCache, StorageReport, Workspace};
use crate::dropout::{mask_block_into, DropoutKey};
use crate::loss::{nll_sum_block, output_gradient_from_probs};
use crate::model::GcnConfig;
use crate::optimizer::{Optimizer, OptimizerKind};
use crate::problem::Problem;
use crate::trainer::TrainConfig;
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::activation::{
    lse_argmax, lse_block_stats, lse_combine, lse_log_probs_into, lse_probs_assign, lse_row,
    Activation,
};
use cagnet_dense::ops::hadamard_assign;
use cagnet_dense::{matmul_nt_acc_with, Mat};
use cagnet_sparse::partition::block_range;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// A distributed GCN trainer: one rank's share of the model and data,
/// laid out by `L` ([`OneDim`](super::onedim::OneDim),
/// [`OneDimRow`](super::onedim_row::OneDimRow),
/// [`One5D`](super::one5d::One5D), [`TwoDim`](super::twodim::TwoDim),
/// [`ThreeDim`](super::threedim::ThreeDim), or `Box<dyn Layout>` for any
/// of them behind one type).
pub struct Trainer<L> {
    layout: L,
    state: State,
}

/// Per-algorithm geometry of a [`Trainer`]. Sealed: the five layouts of
/// this module (and `Box<dyn Layout>` over them) are all there is.
pub trait Layout: sealed::Sealed {
    /// The family body this layout's passes run through.
    fn family(&self) -> Family<'_>;

    /// Build the stage panels this rank multiplies or serves under comm
    /// tier `mode`; called by [`Trainer::set_comm_mode`]. Returns the
    /// words of the sparse blocks the layout then holds, copies counted
    /// ([`StorageReport::adjacency`]).
    fn set_panels(&mut self, mode: CommMode) -> usize;
}

/// Which shared body runs a layout's passes.
pub enum Family<'a> {
    /// Row-distributed `H`/`G` with whole class rows per rank.
    Rows(&'a dyn RowLayout),
    /// `H`/`G` block-2D over a process grid (one grid layer of it in 3D).
    Grid(&'a Grid),
}

impl Family<'_> {
    /// This rank's columns of the `f_out` classes: all of them in the row
    /// family, its column block in the grid family. A rank counts the
    /// loss and accuracy of the rows whose label falls among them.
    fn class_cols(&self, f_out: usize) -> Range<usize> {
        match self {
            Family::Rows(_) => 0..f_out,
            Family::Grid(g) => g.cols(f_out),
        }
    }
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

impl sealed::Sealed for Box<dyn Layout> {}

impl Layout for Box<dyn Layout> {
    fn family(&self) -> Family<'_> {
        (**self).family()
    }

    fn set_panels(&mut self, mode: CommMode) -> usize {
        (**self).set_panels(mode)
    }
}

/// Everything a trainer keeps besides its layout's geometry.
pub struct State {
    pub(crate) cfg: GcnConfig,
    /// Words of the layout's sparse blocks, as its last
    /// [`Layout::set_panels`] left them.
    pub(crate) adjacency: usize,
    /// Global index of the first row of this rank's `H` block.
    pub(crate) r0: usize,
    pub(crate) train_count: usize,
    pub(crate) labels: Vec<usize>,
    pub(crate) mask: Vec<bool>,
    /// Replicated weights.
    pub(crate) weights: Vec<Mat>,
    pub(crate) opt: Optimizer,
    pub(crate) act: Activation,
    pub(crate) dropout: f64,
    /// Inside [`Trainer::epoch`]: the pass trains (dropout on, the
    /// output layer keeps its probabilities, the halo cache is live).
    pub(crate) training: bool,
    pub(crate) epoch_counter: u64,
    pub(crate) drop_masks: Vec<Option<Mat>>,
    /// Stored pre-activation blocks from the last forward pass.
    pub(crate) zs: Vec<Arc<Mat>>,
    /// Stored activation blocks (`hs[0]` = my feature block), shared so
    /// the owner's block enters stage fetches without a copy. The output
    /// layer's `log p` is not stored: it is `Z^L − lse`, from `zs` and
    /// [`State::lse_stats`], wherever it is read.
    pub(crate) hs: Vec<Arc<Mat>>,
    /// `[M, S, argmax]` per row of the last forward's `Z^L`, combined
    /// over the ranks sharing the rows ([`lse_combine`]): `lse = M + ln S`
    /// and the predicted class, identical on each of those ranks.
    pub(crate) lse_stats: Vec<f64>,
    /// This rank's own `[m, s, a]` per row of the last forward's `Z^L`
    /// block ([`lse_block_stats`]), kept so the next pass refills the
    /// same buffer. `Arc::make_mut` copies it only while a peer still
    /// holds it, and the row members it was sent to drop theirs before
    /// the world all-reduce that ends every forward.
    pub(crate) block_stats: Arc<Vec<f64>>,
    /// The rank's block of the output probabilities of the stored `Z^L`,
    /// kept by a training forward for the backward to turn into `G^L`
    /// (DESIGN.md §14); `None` once consumed and after an inference
    /// forward.
    pub(crate) probs: Option<Mat>,
    pub(crate) mode: CommMode,
    /// Issue-ahead pipelining of stage fetches and weight-gradient
    /// reductions (DESIGN.md §10).
    pub(crate) overlap: bool,
    /// Cached-tier halo cache (DESIGN.md §13). Interior-mutable, like
    /// `ws`, so the `&State` stage loops can store refreshed blocks.
    pub(crate) cache: RefCell<HaloCache>,
    /// Large scratch matrices kept across epochs (DESIGN.md §16).
    pub(crate) ws: RefCell<Workspace>,
}

impl<L: Layout> Trainer<L> {
    /// Wrap `layout` for a rank whose `H` block starts at global row `r0`
    /// and holds features `h0`, with the initial weights, SGD, ReLU, no
    /// dropout, the dense tier and overlap on.
    pub(crate) fn new(
        mut layout: L,
        problem: &Problem,
        cfg: &GcnConfig,
        r0: usize,
        h0: Mat,
    ) -> Self {
        let weights = cfg.init_weights();
        let adjacency = layout.set_panels(CommMode::Dense);
        Trainer {
            layout,
            state: State {
                cfg: cfg.clone(),
                adjacency,
                r0,
                train_count: problem.train_count(),
                labels: problem.labels.clone(),
                mask: problem.train_mask.clone(),
                opt: Optimizer::for_weights(OptimizerKind::Sgd, cfg.lr, &weights),
                weights,
                act: Activation::Relu,
                dropout: 0.0,
                training: false,
                epoch_counter: 0,
                drop_masks: Vec::new(),
                zs: Vec::new(),
                hs: vec![Arc::new(h0)],
                lse_stats: Vec::new(),
                block_stats: Arc::default(),
                probs: None,
                mode: CommMode::Dense,
                overlap: true,
                cache: RefCell::default(),
                ws: RefCell::default(),
            },
        }
    }

    /// Forward pass; returns the global mean masked NLL loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        let local = self.forward_layers(ctx);
        ctx.world.allreduce_scalar(local, Cat::DenseComm) / self.state.train_count as f64
    }

    /// The layers of a forward pass; returns this rank's share of the
    /// summed NLL: its masked rows whose label is among its class columns.
    fn forward_layers(&mut self, ctx: &Ctx) -> f64 {
        let s = &mut self.state;
        s.hand_back();
        match self.layout.family() {
            Family::Rows(r) => rows::forward(r, s, ctx),
            Family::Grid(g) => grid::forward(g, s, ctx),
        }
    }

    /// Backward pass + replicated gradient-descent step.
    pub fn backward(&mut self, ctx: &Ctx) {
        let s = &mut self.state;
        assert_eq!(
            s.zs.len(),
            s.cfg.layers(),
            "forward must run before backward"
        );
        match self.layout.family() {
            Family::Rows(r) => rows::backward(r, s, ctx),
            Family::Grid(g) => grid::backward(g, s, ctx),
        }
    }

    /// One epoch (forward + backward); returns the pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        let s = &mut self.state;
        s.training = true;
        s.epoch_counter += 1;
        if let Some(refresh) = s.mode.cached_refresh() {
            s.cache
                .get_mut()
                .begin_epoch(refresh, s.epoch_counter as usize, s.ws.get_mut());
        }
        let loss = self.forward(ctx);
        self.backward(ctx);
        self.state.training = false;
        loss
    }

    /// Global training accuracy of the current model (runs a forward
    /// pass). Each rank counts its masked rows whose label is among its
    /// class columns and the output layer predicts; one world all-reduce
    /// sums the counts over the known training-row count.
    pub fn accuracy(&mut self, ctx: &Ctx) -> f64 {
        let _ = self.forward_layers(ctx);
        let s = &self.state;
        let cols = self.layout.family().class_cols(s.cfg.f_out());
        let correct = (0..s.hs[0].rows())
            .filter(|&i| {
                let (g, label) = (s.r0 + i, s.labels[s.r0 + i]);
                s.mask[g] && cols.contains(&label) && lse_argmax(&s.lse_stats, i) == label
            })
            .count();
        let c = ctx.world.allreduce_scalar(correct as f64, Cat::DenseComm);
        if s.train_count == 0 {
            0.0
        } else {
            c / s.train_count as f64
        }
    }

    /// Set the hidden-layer dropout rate (inverted dropout; a fresh
    /// deterministic mask per epoch, identical across layouts and ranks —
    /// see [`crate::dropout`]). 0 disables it; evaluation forwards never
    /// apply it.
    pub fn set_dropout(&mut self, rate: f64) {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        self.state.dropout = rate;
    }

    /// Choose dense broadcasts, the sparsity-aware row exchange, or the
    /// cached tier for the stage fetches (see [`CommMode`]). `Dense` and
    /// `SparsityAware` train bit-identically; `Cached` is bit-identical
    /// only at `refresh: 1` (DESIGN.md §13). Must be set identically on
    /// every rank. Always drops any halo cache, so a mode change (or
    /// re-set after mutating state) can never serve stale blocks.
    pub fn set_comm_mode(&mut self, mode: CommMode) {
        self.state.adjacency = self.layout.set_panels(mode);
        self.state.cache.get_mut().invalidate();
        self.state.mode = mode;
    }

    /// Enable or disable communication/computation overlap (default on).
    /// With overlap on, stage fetches and the weight-gradient reduction
    /// run as nonblocking collectives pipelined against compute; losses,
    /// weights, and metered words are bit-identical either way — only
    /// modeled (and wall-clock) time changes. Must be set identically on
    /// every rank.
    pub fn set_overlap(&mut self, overlap: bool) {
        self.state.overlap = overlap;
    }

    /// Select the hidden-layer activation (default ReLU, the paper's σ;
    /// the output layer stays log-softmax). Elementwise, so it changes no
    /// communication. Must be set identically on every rank.
    pub fn set_hidden_activation(&mut self, act: Activation) {
        self.state.act = act;
    }

    /// Select the optimizer (replicated state; no communication). Resets
    /// any accumulated moments. Must be called identically on every rank,
    /// before training.
    pub fn set_optimizer(&mut self, kind: OptimizerKind) {
        let s = &mut self.state;
        s.opt = Optimizer::for_weights(kind, s.cfg.lr, &s.weights);
    }

    /// Apply a run's options — optimizer, hidden activation, dropout,
    /// comm tier and overlap — as [`crate::trainer::train_distributed`]
    /// and [`crate::trainer::infer_distributed`] do. Must be called
    /// identically on every rank, before training.
    pub fn configure(&mut self, tc: &TrainConfig) {
        self.set_optimizer(tc.optimizer);
        self.set_hidden_activation(tc.activation);
        self.set_dropout(tc.dropout);
        self.set_comm_mode(tc.comm_mode);
        self.set_overlap(tc.overlap);
    }

    /// Replace the replicated weights (e.g. with a trained model for
    /// inference). Must be called identically on every rank.
    pub fn set_weights(&mut self, weights: Vec<Mat>) {
        let cfg = &self.state.cfg;
        assert_eq!(weights.len(), cfg.layers(), "weight stack length");
        for (l, w) in weights.iter().enumerate() {
            let shape = (cfg.dims[l], cfg.dims[l + 1]);
            assert_eq!(w.shape(), shape, "weight {l} shape");
        }
        self.state.weights = weights;
    }

    /// Replicated weights (identical on every rank).
    pub fn weights(&self) -> &[Mat] {
        &self.state.weights
    }

    /// Per-rank storage footprint, measured: the sparse blocks the layout
    /// holds, the stored dense blocks, and the largest workspace buffer
    /// served since setup. Read it after an [`epoch`](Self::epoch): a
    /// forward alone leaves out the backward's buffers, and before any
    /// pass only the feature block and the sparse blocks count. See
    /// [`StorageReport`].
    pub fn storage_words(&self) -> StorageReport {
        let s = &self.state;
        let stored: usize = s.hs.iter().chain(&s.zs).map(|m| m.len()).sum();
        StorageReport {
            adjacency: s.adjacency,
            // The probabilities a training forward keeps next to `Z^L`
            // are block for block the same shape.
            dense_state: stored + s.zs.last().map_or(0, |z| z.len()),
            intermediate: s.ws.borrow().peak,
        }
    }

    /// Assemble the full output embedding matrix `H^L` on every rank,
    /// from each rank's block `log p = Z^L − lse` of the last forward.
    pub fn gather_embeddings(&self, ctx: &Ctx) -> Mat {
        let s = &self.state;
        let mut log_p = Mat::zeros(0, 0);
        if let Some(z) = s.zs.last() {
            lse_log_probs_into(z, &s.lse_stats, &mut log_p);
        }
        let blocks = ctx.world.allgather(Arc::new(log_p), Cat::DenseComm);
        match self.layout.family() {
            Family::Rows(_) => Mat::vstack(&blocks),
            Family::Grid(g) => {
                let rows: Vec<Mat> = g
                    .output_ranks
                    .chunks(g.row.size())
                    .map(|row| Mat::hstack(&row.iter().map(|&r| &*blocks[r]).collect::<Vec<_>>()))
                    .collect();
                Mat::vstack(&rows)
            }
        }
    }

    /// This trainer with its layout behind `Box<dyn Layout>`.
    pub(crate) fn boxed(self) -> Trainer<Box<dyn Layout>>
    where
        L: 'static,
    {
        Trainer {
            layout: Box::new(self.layout),
            state: self.state,
        }
    }

    /// The layout (per-algorithm accessors).
    pub(crate) fn layout(&self) -> &L {
        &self.layout
    }
}

/// Panic with a trainer's setup error, naming the algorithm.
pub(crate) fn expect_setup<L>(r: Result<Trainer<L>, super::SetupError>, algo: &str) -> Trainer<L> {
    r.unwrap_or_else(|e| panic!("{algo} trainer setup: {e}"))
}

impl State {
    /// The forward hand-back prologue: the last pass's stored blocks go
    /// back to the workspace, and this pass rebuilds them in the same
    /// buffers.
    fn hand_back(&mut self) {
        let ws = self.ws.get_mut();
        ws.reclaim();
        self.zs.drain(..).for_each(|z| ws.give_shared(z));
        self.hs.drain(1..).for_each(|h| ws.give_shared(h));
        self.drop_masks.drain(..).flatten().for_each(|m| ws.give(m));
        self.drop_masks.resize(self.cfg.layers(), None);
    }

    /// The output layer (DESIGN.md §14) on this rank's block `z` of `Z^L`
    /// as a split log-sum-exp: the block's `[m, s, a]` per row go to the
    /// ranks of `row`, which hold the other column blocks of the same rows
    /// in member order (`None`: this rank holds whole rows), and every one
    /// of them folds the same parts into the same [`State::lse_stats`]. A
    /// training pass also keeps the block's probabilities, from the same
    /// single `exp` per logit, for the backward to turn into `G^L`.
    /// Returns the rank's share of the summed NLL ([`nll_sum_block`]).
    pub(crate) fn output_layer(&mut self, row: Option<&Communicator>, z: &Mat) -> f64 {
        let mut p = self.training.then(|| self.ws.get_mut().take(z.len()));
        lse_block_stats(z, p.as_mut(), Arc::make_mut(&mut self.block_stats));
        let mine = Arc::clone(&self.block_stats);
        let parts = match row {
            Some(row) => row.allgather(mine, Cat::DenseComm),
            None => vec![mine],
        };
        let (f_out, q) = (self.cfg.f_out(), parts.len());
        let me = row.map_or(0, Communicator::my_idx);
        let widths: Vec<usize> = (0..q)
            .map(|r| block_range(f_out, q, r))
            .map(|(c0, c1)| c1 - c0)
            .collect();
        lse_combine(&parts, &widths, &mut self.lse_stats);
        if let Some(p) = &mut p {
            lse_probs_assign(p, &parts[me], &self.lse_stats);
        }
        self.probs = p;
        let lse = |i| lse_row(&self.lse_stats, i);
        let col0 = widths[..me].iter().sum();
        nll_sum_block(z, lse, &self.labels, &self.mask, self.r0, col0)
    }

    /// `G^L` on this rank's block — the classes from column `col0` on — in
    /// the buffer of the probabilities the forward kept. When the stored
    /// `Z^L` came from a pass that kept none (a bare inference `forward`),
    /// they are rebuilt from it and the kept [`State::lse_stats`]: the
    /// same bits, and no communication.
    pub(crate) fn output_gradient(&mut self, col0: usize) -> Mat {
        let mut g = match self.probs.take() {
            Some(p) => p,
            None => {
                let z = &self.zs[self.zs.len() - 1];
                let mut p = self.ws.get_mut().take(z.len());
                let mine = Arc::make_mut(&mut self.block_stats);
                lse_block_stats(z, Some(&mut p), mine);
                lse_probs_assign(&mut p, mine, &self.lse_stats);
                p
            }
        };
        let (labels, mask) = (&self.labels, &self.mask);
        output_gradient_from_probs(&mut g, labels, mask, self.r0, col0, self.train_count);
        g
    }

    /// Apply layer `layer`'s dropout to `h`, this rank's columns `cols`
    /// of an `f_total`-wide activation starting at global row `r0`, and
    /// keep the mask for the backward.
    pub(crate) fn apply_dropout(
        &mut self,
        layer: usize,
        f_total: usize,
        cols: Range<usize>,
        h: &mut Mat,
    ) {
        if self.training && self.dropout > 0.0 {
            let mut mask = self.ws.get_mut().keep(h.len());
            let key = DropoutKey {
                base_seed: self.cfg.seed,
                epoch: self.epoch_counter,
                layer,
            };
            let rows = h.rows();
            mask_block_into(
                key,
                self.dropout,
                self.r0,
                rows,
                f_total,
                cols.start,
                cols.end,
                &mut mask,
            );
            hadamard_assign(h, &mask);
            self.drop_masks[layer] = Some(mask);
        }
    }

    /// `G^{l-1} = (A·Gˡ)(Wˡ)ᵀ ⊙ σ′(Z^{l-1})`, masked by layer `l − 1`'s
    /// dropout: columns `cols` of it on this rank's rows, from those rows
    /// of `A·Gˡ` at full width (`ag`), in a workspace buffer.
    pub(crate) fn next_gradient(
        &mut self,
        ctx: &Ctx,
        l: usize,
        ag: &Mat,
        cols: Range<usize>,
    ) -> Mat {
        let w = &self.weights[l];
        let slice;
        let w = if cols.len() == w.rows() {
            w
        } else {
            slice = w.block(cols.start, cols.end, 0, w.cols());
            &slice
        };
        ctx.charge_gemm(ag.rows(), w.cols(), w.rows());
        let mut g = self.ws.get_mut().zeros(ag.rows(), w.rows());
        matmul_nt_acc_with(ctx.parallel(), ag, w, &mut g);
        self.gradient_tail(ctx, l, &mut g);
        g
    }

    /// The elementwise tail of [`State::next_gradient`]: `g ⊙ σ′(Z^{l-1})`
    /// on this rank's block of `Z^{l-1}`, masked by layer `l − 1`'s
    /// dropout, in place.
    pub(crate) fn gradient_tail(&mut self, ctx: &Ctx, l: usize, g: &mut Mat) {
        self.act.mul_prime_assign(g, &self.zs[l - 1]);
        if let Some(mask) = self.drop_masks[l - 1].take() {
            hadamard_assign(g, &mask);
            self.ws.get_mut().give(mask);
        }
        ctx.charge_elementwise(g.len());
    }
}
