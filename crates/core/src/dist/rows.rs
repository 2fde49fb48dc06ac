//! The shared body of the row-distributed family — 1D (Algorithm 1),
//! 1D-row (§IV-A.7) and 1.5D (§IV-B). `H` and `G` are partitioned by
//! block rows and `W` is replicated, so everything but the sparse
//! aggregation is local: a layer's forward is `Z = (AᵀH)W` then the
//! activation (or the row-local output layer, §IV-A.2), and its backward
//! is `Y = Hᵀ(AG)` with an `f x f` world all-reduce (§IV-A.4) plus the
//! next `G`. The layouts differ only in how they aggregate — stage
//! fetches ([`Stages::multiply`]) or a large outer product
//! reduce-scattered back to block rows ([`Stages::outer_product`],
//! [`reduce`]) — in each direction. Either way a rank holds its block
//! once, as the stage blocks both directions read.

use super::shell::State;
use super::{pipeline, CommMode, SetupError};
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use cagnet_sparse::spmm::outer_product_from_transposed_into;
use cagnet_sparse::Csr;
use std::sync::Arc;

/// How a row-family layout aggregates over the graph.
pub trait RowLayout {
    /// This rank's block of `AᵀHˡ` (`rows × f_in`), in a workspace
    /// buffer.
    fn aggregate(&self, s: &State, ctx: &Ctx, l: usize) -> Mat;

    /// This rank's block of `A·Gˡ` from its block `g` of `Gˡ`, in a
    /// workspace buffer (`g`'s own, where the layout can reuse it).
    fn aggregate_grad(&self, s: &State, ctx: &Ctx, l: usize, g: Mat) -> Mat;
}

/// The layers of a forward pass; returns the rank's share of the summed
/// NLL.
pub(crate) fn forward(r: &dyn RowLayout, s: &mut State, ctx: &Ctx) -> f64 {
    let l_total = s.cfg.layers();
    let mut nll = 0.0;
    for l in 0..l_total {
        let (f_in, f_out) = (s.cfg.dims[l], s.cfg.dims[l + 1]);
        let t = r.aggregate(s, ctx, l);
        let ws = s.ws.get_mut();
        let mut z = ws.keep_zeros(t.rows(), f_out);
        matmul_acc_with(ctx.parallel(), &t, &s.weights[l], &mut z);
        ctx.charge_gemm(t.rows(), f_in, f_out);
        ws.give(t);
        if l + 1 == l_total {
            // H is row-partitioned, so even the non-elementwise
            // log_softmax needs no communication (§IV-A.2).
            nll = s.output_layer(None, &z);
        } else {
            let mut h = ws.keep(z.len());
            s.act.apply_into(&z, &mut h);
            s.apply_dropout(l, f_out, 0..f_out, &mut h);
            s.hs.push(Arc::new(h));
        }
        ctx.charge_elementwise(z.len());
        s.zs.push(Arc::new(z));
        s.ws.get_mut().end_layer();
    }
    nll
}

/// The layers of a backward pass and the replicated update.
pub(crate) fn backward(r: &dyn RowLayout, s: &mut State, ctx: &Ctx) {
    let l_total = s.cfg.layers();
    s.ws.get_mut().reclaim();
    let mut g = s.output_gradient(0);
    ctx.charge_elementwise(g.len());
    for l in (0..l_total).rev() {
        let (f_in, f_out) = (s.cfg.dims[l], s.cfg.dims[l + 1]);
        let ag = r.aggregate_grad(s, ctx, l, std::mem::replace(&mut g, Mat::zeros(0, 0)));
        // Small outer product for Y (§IV-A.4), reusing A·G. With overlap
        // on, the f x f all-reduce is in flight while the next layer's
        // gradient GEMM computes; the weight update only needs Y
        // afterwards.
        ctx.charge_gemm(f_in, ag.rows(), f_out);
        let y_partial = matmul_tn_with(ctx.parallel(), &s.hs[l], &ag);
        let reduce_y = || ctx.world.iallreduce_mat(&y_partial, Cat::DenseComm);
        let y_op = s.overlap.then(reduce_y);
        if l > 0 {
            g = s.next_gradient(ctx, l, &ag, 0..f_in);
        }
        let y = y_op.unwrap_or_else(reduce_y).wait();
        s.opt.step(l, &mut s.weights[l], &y);
        ctx.charge_elementwise(y.len());
        // Every rank entered the Y all-reduce after its last use of this
        // layer's payloads: they are free again.
        let ws = s.ws.get_mut();
        ws.give(ag);
        ws.reclaim();
    }
}

/// A block row of a sparse operand split into stage column blocks, the
/// `j`-th multiplying the dense block member `j` of a communicator owns:
/// `out += Σ_j blocks[j] · D_j`. It is the only copy of the block row a
/// layout holds: the outer product of the other direction runs over the
/// same blocks.
pub(crate) struct Stages {
    blocks: Vec<Csr>,
    /// Per stage: the sorted distinct columns of `blocks[j]` — the rows
    /// of `D_j` this rank actually reads (sparse tiers), and so the rows
    /// of member `j`'s block that an outer product through the transpose
    /// of this block row can make nonzero.
    needed: Arc<Vec<Vec<usize>>>,
    /// Column-compacted copies of `blocks` (columns renumbered to
    /// `needed[j]` order) for multiplying compact gathered operands.
    /// Built on the first switch to a sparse tier.
    compact: Vec<Csr>,
}

impl Stages {
    pub(crate) fn new(blocks: Vec<Csr>) -> Self {
        let needed = Arc::new(blocks.iter().map(Csr::needed_cols).collect());
        Stages {
            blocks,
            needed,
            compact: Vec::new(),
        }
    }

    /// Per stage `j`, the sorted distinct columns of `blocks[j]`.
    pub(crate) fn needed(&self) -> &Arc<Vec<Vec<usize>>> {
        &self.needed
    }

    /// Rows of every stage block.
    pub(crate) fn rows(&self) -> usize {
        self.blocks[0].rows()
    }

    /// The large outer product through the transpose of this block row
    /// (§IV-A.3): stage `j`'s product `blocks[j]ᵀ · d` fills rows
    /// `off_j .. off_j + blocks[j].cols()` of the contribution, `off_j`
    /// being the widths of the stages before it. Built in a workspace
    /// buffer and lent to the reduce-scatter it rides into, whose send
    /// sets are [`Stages::needed`].
    pub(crate) fn outer_product(&self, s: &State, ctx: &Ctx, d: &Mat) -> Arc<Mat> {
        let nnz = self.blocks.iter().map(Csr::nnz).sum();
        ctx.charge_spmm(nnz, self.rows(), d.cols());
        let height = self.blocks.iter().map(Csr::cols).sum();
        let mut contrib = s.ws.borrow_mut().zeros(height, d.cols());
        let mut off = 0;
        for a in &self.blocks {
            outer_product_from_transposed_into(a, d, &mut contrib, off);
            off += a.cols();
        }
        s.ws.borrow_mut().lend(contrib)
    }

    /// Build the compact copies the sparse tiers serve; returns the
    /// storage words of the stage blocks and their compact copies.
    pub(crate) fn set_panels(&mut self, mode: CommMode) -> usize {
        if mode.sparse_exchange() && self.compact.is_empty() {
            self.compact = self
                .blocks
                .iter()
                .zip(self.needed.iter())
                .map(|(a, nd)| a.compact_cols(nd))
                .collect();
        }
        self.blocks
            .iter()
            .chain(&self.compact)
            .map(super::csr_words)
            .sum()
    }

    /// `out += Σ_j blocks[j] · D_j` for layer `l`'s stages, where `mine`
    /// is this rank's `D` block on `comm`: one stage fetch per member,
    /// pipelined against the stage SpMMs.
    pub(crate) fn multiply(
        &self,
        s: &State,
        ctx: &Ctx,
        comm: &Communicator,
        mine: &Arc<Mat>,
        l: usize,
        out: &mut Mat,
    ) {
        let f = mine.cols();
        // Stage j fetches D_j from member j — an Arc clone only: the
        // owner's resident block is never deep-copied, root or not.
        let issue = |j: usize| {
            let payload = (j == comm.my_idx()).then(|| mine.clone());
            let dims = (self.blocks[j].cols(), f);
            let slot = l * self.blocks.len() + j;
            s.fetch(comm, j, payload, &self.needed[j], dims, slot)
        };
        pipeline(s.overlap, self.blocks.len(), issue, |j, fetch| {
            let d = fetch.wait();
            // The compact panel has the same nnz/rows as the full block
            // (columns are only renumbered), so the charged SpMM cost —
            // and the accumulation order — is identical in every tier.
            let a = if s.mode.sparse_exchange() {
                &self.compact[j]
            } else {
                &self.blocks[j]
            };
            ctx.charge_spmm(a.nnz(), a.rows(), f);
            s.ws.borrow_mut().spmm_acc_with(ctx.parallel(), a, &d, out);
            d.release(&s.ws);
        });
    }
}

/// Reduce-scatter `m` over `comm` into `out`. In the sparse tiers each
/// member `j` is sent only the rows `sends[j]` of its block that `m` can
/// make nonzero (DESIGN.md §9); `Dense` sends every member its whole
/// block.
pub(crate) fn reduce(
    s: &State,
    comm: &Communicator,
    m: Arc<Mat>,
    sends: &Arc<Vec<Vec<usize>>>,
    out: &mut Mat,
) {
    let sends = s.mode.sparse_exchange().then_some(sends);
    comm.reduce_scatter_rows(m, sends, out, Cat::DenseComm);
}

/// The prologue of every row layout's `try_setup`: refuse more ranks
/// than vertices, else this rank's block `r0..r1` of the balanced
/// `P`-way row split and its layer-0 feature block.
pub(crate) fn block_row(ctx: &Ctx, problem: &Problem) -> Result<(usize, usize, Mat), SetupError> {
    let (n, p) = (problem.vertices(), ctx.size);
    if p > n {
        return Err(SetupError::TooManyRanks {
            ranks: p,
            vertices: n,
        });
    }
    let (r0, r1) = block_range(n, p, ctx.rank);
    let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
    Ok((r0, r1, h0))
}
