//! The shared body of the SUMMA family — 2D (Algorithm 2, §IV-C) and
//! Split-3D-SpMM (§IV-D). `A`, `H` and `G` are block-2D over a process
//! grid (in 3D, over each layer of the mesh) and `W` is replicated. Per
//! layer, forward runs a SUMMA SpMM `T = AᵀH`, then the product against
//! `W` along the process row; the output layer's `log_softmax` is not
//! elementwise (§IV-C.2, §IV-D.2), so the process row all-gathers three
//! numbers per row of its `Z` blocks, a split log-sum-exp (DESIGN.md
//! §14). Backward runs the SUMMA SpMM for `AG`, row-all-
//! gathers one slab for both the weight gradient `Y = Hᵀ(AG)` (§IV-C.4)
//! and `AG·Wᵀ`, and reduces `Y` over the ranks sharing the rank's feature
//! columns.
//!
//! Each dense-weight product moves its narrow side across the process
//! row ([`reduce_z`], [`gather_h`]): forward broadcasts the `f_in`-wide
//! `T` blocks (the paper's partial SUMMA) unless the layer narrows, when
//! each rank multiplies its own `T` block at width `f_out` and the row
//! reduce-scatters the terms; backward gathers the `f_out`-wide `AG`
//! unless the layer widens past what gathering `Hˡ` and reduce-scattering
//! the `f_in`-wide next gradient move. Ties keep the paper's form.
//!
//! The `S` panels of `A` never change, so they move once: each table's
//! first stage loop (the first forward for `Aᵀ`, the first backward for
//! `A`) broadcasts every panel along the process row, each member keeps
//! what it receives, and every later loop multiplies the held panels
//! with no row collective (DESIGN.md §9).
//!
//! The two layouts differ only in data: the stage tables ([`Stages`]), the
//! `Y` reduction group, 3D's fiber reduce-scatter after each SpMM, 2D's
//! transpose charge and the row order of the gathered embeddings.

use super::shell::State;
use super::stages::{Comms, Stages};
use super::{pipeline, Spmm, Workspace};
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// Whether layer `l`'s forward sums `T·W` by reduce-scattering the
/// `f_out`-wide terms `T_ij · W[in-block j, :]` over a process row of `q`
/// members, instead of broadcasting the `f_in`-wide `T` blocks: exactly
/// when the layer narrows and the row moves anything at all.
pub(crate) fn reduce_z(dims: &[usize], l: usize, q: usize) -> bool {
    q > 1 && dims[l + 1] < dims[l]
}

/// Whether layer `l`'s backward row-gathers `Hˡ` (`f_in` wide) — and,
/// above layer 0, reduce-scatters the `f_in`-wide terms of the next
/// gradient — instead of row-gathering `AG` (`f_out` wide): exactly when
/// that moves fewer columns over a process row of `q > 1` members.
pub(crate) fn gather_h(dims: &[usize], l: usize, q: usize) -> bool {
    let moved = if l > 0 { 2 * dims[l] } else { dims[l] };
    q > 1 && moved < dims[l + 1]
}

/// The geometry of a SUMMA-family layout.
pub struct Grid {
    /// Process row: `S` panels (a table's first loop only), partial-`W`
    /// `T` blocks, the output layer's row statistics and the `AG` and `Y`
    /// all-gathers. Its size is the number of feature-column blocks and
    /// this rank's index in it its own.
    pub(crate) row: Communicator,
    /// Process column: `D` panels.
    pub(crate) col: Communicator,
    /// The `Y` reduction group when it is not `col` (3D: all ranks of the
    /// mesh sharing the grid column).
    pub(crate) jgroup: Option<Communicator>,
    /// 3D: the fiber each SpMM's partial sums reduce-scatter over.
    pub(crate) fiber: Option<Communicator>,
    /// This rank's block rows of `Aᵀ` (forward) and of `A` (backward) as
    /// stage panels over the same stage geometry: those of its grid
    /// column from setup, its grid row's once the table has run a loop.
    pub(crate) fwd: Stages,
    pub(crate) bwd: Stages,
    /// 2D: the nnz to charge as two local transposes per backward (the
    /// paper implementation's "trpose" in Figure 3).
    pub(crate) transpose_nnz: Option<usize>,
    /// Every world rank, ordered so that consecutive runs of a process
    /// row's size are the members of one process row in member order, and
    /// the runs stack in global row order: the output blocks, joined
    /// across each run and stacked, are `H^L`.
    pub(crate) output_ranks: Vec<usize>,
}

impl Grid {
    /// This rank's columns of an `f`-wide dense matrix.
    pub(crate) fn cols(&self, f: usize) -> Range<usize> {
        let (c0, c1) = block_range(f, self.row.size(), self.row.my_idx());
        c0..c1
    }

    /// Storage words of both directions' stage panels held now.
    pub(crate) fn words(&self) -> usize {
        self.fwd.words() + self.bwd.words()
    }

    /// The communicators of a SUMMA stage loop: `S` panels along the
    /// process row, `D` panels along the process column, and in 3D the
    /// fiber reduce-scatter of the `∛P`-replicated partial sums.
    fn comms(&self) -> Comms<'_> {
        Comms {
            row: Some(&self.row),
            col: &self.col,
            reduce: self.fiber.as_ref().map(|fiber| (fiber, None)),
        }
    }

    /// `Z_ij = Σ_k T_ik · W[in-block k, out-block j]` over the process
    /// row, against the replicated `Wˡ`. When the layer narrows
    /// ([`reduce_z`]), each rank forms its own term at the full output
    /// width and the row reduce-scatters the terms. Otherwise this is the
    /// paper's partial SUMMA: `q` stages, each broadcasting one `T` block.
    /// Either way the exchange is dense in every tier: the GEMM reads
    /// *all* rows of a `T` block, so a row gather would request every row
    /// and only add the per-row index words.
    fn partial_w(&self, s: &State, ctx: &Ctx, t_mine: &Arc<Mat>, l: usize) -> Mat {
        let (f_in, f_out) = (s.cfg.dims[l], s.cfg.dims[l + 1]);
        let q = self.row.size();
        let oc = self.cols(f_out);
        // The result is stored as `Z`.
        let mut out = s.ws.borrow_mut().keep_zeros(t_mine.rows(), oc.len());
        if reduce_z(&s.cfg.dims, l, q) {
            let ic = self.cols(f_in);
            ctx.charge_gemm(t_mine.rows(), ic.len(), f_out);
            let w_slice = s.weights[l].block(ic.start, ic.end, 0, f_out);
            let mut term = s.ws.borrow_mut().zeros(t_mine.rows(), f_out);
            matmul_acc_with(ctx.parallel(), t_mine, &w_slice, &mut term);
            self.reduce_scatter_cols(&s.ws, term, &mut out);
            return out;
        }
        let issue = |k: usize| {
            let payload = (self.row.my_idx() == k).then(|| t_mine.clone());
            self.row.ibcast_shared(k, payload, Cat::DenseComm)
        };
        pipeline(s.overlap, q, issue, |k, op| {
            let t_hat = op.wait();
            let (ic0, ic1) = block_range(f_in, q, k);
            debug_assert_eq!(ic1 - ic0, t_hat.cols(), "stage width mismatch");
            if ic1 == ic0 || oc.is_empty() {
                return;
            }
            ctx.charge_gemm(t_hat.rows(), ic1 - ic0, oc.len());
            let w_slice = s.weights[l].block(ic0, ic1, oc.start, oc.end);
            matmul_acc_with(ctx.parallel(), &t_hat, &w_slice, &mut out);
        });
        out
    }

    /// Sum `term` — this rank's `rows x f` term of a product the process
    /// row splits by columns — over the row, writing this rank's columns
    /// [`Grid::cols`]`(f)` of the sum over `out`. Laid out as `f x rows`,
    /// the terms go through the dense row reduce-scatter, which delivers
    /// member `j` exactly rows `block_range(f, q, j)`; the two transposes
    /// are local and uncharged, like `hstack_into`.
    fn reduce_scatter_cols(&self, ws: &RefCell<Workspace>, term: Mat, out: &mut Mat) {
        let mut pool = ws.borrow_mut();
        let mut term_t = pool.take(term.len());
        term.transpose_into(&mut term_t);
        pool.give(term);
        let term_t = pool.lend(term_t);
        let mut mine = pool.take(self.cols(term_t.rows()).len() * term_t.cols());
        drop(pool);
        self.row
            .reduce_scatter_rows(term_t, None, &mut mine, Cat::DenseComm);
        mine.transpose_into(out);
        ws.borrow_mut().give(mine);
    }

    /// `G^{l-1}` on this rank's block when layer `l`'s backward gathered
    /// `Hˡ` ([`gather_h`]): the term `AG_ij · W[:, out-block j]ᵀ` at the
    /// full input width, summed over the process row, then the σ′ and
    /// dropout tail of [`State::next_gradient`].
    fn next_gradient_reduced(&self, s: &mut State, ctx: &Ctx, l: usize, ag: &Mat) -> Mat {
        let f_in = s.cfg.dims[l];
        let oc = self.cols(s.cfg.dims[l + 1]);
        ctx.charge_gemm(ag.rows(), oc.len(), f_in);
        let ws = s.ws.get_mut();
        let mut w_t = ws.take(oc.len() * f_in);
        s.weights[l]
            .block(0, f_in, oc.start, oc.end)
            .transpose_into(&mut w_t);
        let mut term = ws.zeros(ag.rows(), f_in);
        matmul_acc_with(ctx.parallel(), ag, &w_t, &mut term);
        ws.give(w_t);
        let mut g = ws.take(ag.rows() * self.cols(f_in).len());
        self.reduce_scatter_cols(&s.ws, term, &mut g);
        s.gradient_tail(ctx, l, &mut g);
        g
    }

    /// The `Y` reduction group: the ranks sharing this rank's feature
    /// columns.
    fn y_comm(&self) -> &Communicator {
        self.jgroup.as_ref().unwrap_or(&self.col)
    }
}

/// The layers of a forward pass; returns the rank's share of the summed
/// NLL.
pub(crate) fn forward(g: &Grid, s: &mut State, ctx: &Ctx) -> f64 {
    let l_total = s.cfg.layers();
    let mut nll = 0.0;
    for l in 0..l_total {
        let f_out = s.cfg.dims[l + 1];
        let t = g
            .fwd
            .aggregate(s, ctx, &g.comms(), &s.hs[l], Spmm::forward(l));
        let t = s.ws.get_mut().lend(t);
        let z = Arc::new(g.partial_w(s, ctx, &t, l));
        if l + 1 == l_total {
            ctx.charge_elementwise(2 * z.len());
            nll = s.output_layer(Some(&g.row), &z);
        } else {
            ctx.charge_elementwise(z.len());
            let mut h = s.ws.get_mut().keep(z.len());
            s.act.apply_into(&z, &mut h);
            s.apply_dropout(l, f_out, g.cols(f_out), &mut h);
            s.hs.push(Arc::new(h));
        }
        s.zs.push(z);
        s.ws.get_mut().end_layer();
    }
    nll
}

/// The layers of a backward pass and the replicated update.
pub(crate) fn backward(g: &Grid, s: &mut State, ctx: &Ctx) {
    let l_total = s.cfg.layers();
    if let Some(nnz) = g.transpose_nnz {
        // The paper's implementation pays local transposes twice per
        // epoch (cf. §IV-A.7 "only twice per epoch").
        ctx.charge_transpose(2 * nnz);
    }
    s.ws.get_mut().reclaim();
    let grad = s.output_gradient(g.cols(s.cfg.f_out()).start);
    // Shared, like `hs`, for the whole-block SUMMA stages.
    let mut grad = s.ws.get_mut().lend(grad);
    ctx.charge_elementwise(grad.len());
    let my_rows = s.hs[0].rows();
    for l in (0..l_total).rev() {
        let (f_in, f_out) = (s.cfg.dims[l], s.cfg.dims[l + 1]);
        // AG = A G, saved and reused (§IV-C.4, §IV-D.4).
        let ag = g
            .bwd
            .aggregate(s, ctx, &g.comms(), &grad, Spmm::Pass(l_total + l));
        let ag = s.ws.get_mut().lend(ag);
        // One row all-gather serves both Y and the next gradient: of AG,
        // or of Hˡ when the layer widens. The local block rides into the
        // collective as a shared handle, and the gathered handles go
        // before the next collective, so the peers' blocks are free again
        // when they expect them to be.
        let h_side = gather_h(&s.cfg.dims, l, g.row.size());
        let (mine, width) = if h_side {
            (s.hs[l].clone(), f_in)
        } else {
            (ag.clone(), f_out)
        };
        let mut slab = s.ws.get_mut().take(my_rows * width);
        {
            let parts = g.row.allgather(mine, Cat::DenseComm);
            Mat::hstack_into(&parts, &mut slab);
        }
        // Y = (Hˡ)ᵀ (A G): a local product giving a block of Y's rows (AG
        // slab) or columns (Hˡ slab), reduced over the ranks sharing my
        // feature columns, then row-gathered. With overlap on, the
        // reduction is in flight while the G^{l-1} GEMM computes (both
        // read only local blocks and replicated state).
        let (h, a) = if h_side {
            (&slab, &*ag)
        } else {
            (&*s.hs[l], &slab)
        };
        ctx.charge_gemm(h.cols(), my_rows, a.cols());
        let y_local = matmul_tn_with(ctx.parallel(), h, a);
        let reduce_y = || g.y_comm().iallreduce_mat(&y_local, Cat::DenseComm);
        let y_op = s.overlap.then(reduce_y);
        if l > 0 {
            let next = if h_side {
                g.next_gradient_reduced(s, ctx, l, &ag)
            } else {
                s.next_gradient(ctx, l, &slab, g.cols(f_in))
            };
            grad = s.ws.get_mut().lend(next);
        }
        let y_parts = g.row.allgather(
            Arc::new(y_op.unwrap_or_else(reduce_y).wait()),
            Cat::DenseComm,
        );
        let y = if h_side {
            Mat::hstack(&y_parts)
        } else {
            Mat::vstack(&y_parts)
        };
        debug_assert_eq!(y.shape(), (f_in, f_out));
        s.opt.step(l, &mut s.weights[l], &y);
        ctx.charge_elementwise(y.len());
        let ws = s.ws.get_mut();
        ws.give(slab);
        ws.end_layer();
    }
}
