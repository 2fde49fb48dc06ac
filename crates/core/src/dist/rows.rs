//! The shared body of the row-distributed family — 1D (Algorithm 1),
//! 1D-row (§IV-A.7) and 1.5D (§IV-B). `H` and `G` are partitioned by
//! block rows and `W` is replicated, so everything but the sparse
//! aggregation is local: a layer's forward is `Z = (AᵀH)W` then the
//! activation (or the row-local output layer, §IV-A.2), and its backward
//! is `Y = Hᵀ(AG)` with an `f x f` world all-reduce (§IV-A.4) plus the
//! next `G`. The layouts differ only in how they aggregate — the stage
//! loop ([`Stages::aggregate`]) or a large outer product reduce-scattered
//! back to block rows ([`Stages::outer_product`]) — in each direction.
//! Either way a rank holds its block once, as the stage panels of one
//! table ([`stages`]) that both directions read.

use super::shell::State;
use super::stages::{Stage, Stages};
use super::SetupError;
use crate::problem::Problem;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
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

    /// Storage words of the stage panels ([`Stages::words`]).
    fn adjacency(&self) -> usize;
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

/// The row family's stage table over rows `r0..r1` of `a`: stage `j`
/// spans columns `spans[j]` and multiplies the `D` block of member `j` of
/// the communicator on which this rank is member `me`. Every panel is
/// this rank's own.
pub(crate) fn stages(
    a: &Csr,
    rows: (usize, usize),
    spans: Vec<(usize, usize)>,
    me: usize,
) -> Stages {
    let stages = (spans.into_iter().enumerate())
        .map(|(j, span)| Stage {
            s_root: me,
            d_root: j,
            span,
        })
        .collect();
    Stages::new(a, rows, stages, me)
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
