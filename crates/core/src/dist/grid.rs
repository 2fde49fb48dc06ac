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
//! The two layouts differ only in data: the stage table ([`Stage`]), the
//! `Y` reduction group, 3D's fiber reduce-scatter after each SpMM, 2D's
//! transpose charge and the row order of the gathered embeddings.

use super::shell::State;
use super::{pipeline, CommMode, Lead, Workspace};
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::{matmul_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use cagnet_sparse::Csr;
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

/// One SUMMA stage as every rank sees it.
pub(crate) struct Stage {
    /// Member of the process row that broadcasts the stage's `S` panel.
    pub(crate) s_root: usize,
    /// Member of the process column that holds the stage's `D` panel.
    pub(crate) d_root: usize,
    /// Rows of the `D` panel — known to every rank from the balanced
    /// partition, fingerprinted by gather receivers.
    pub(crate) d_rows: usize,
    /// Where this rank is the `S` root: the panel's columns of its
    /// resident sparse block.
    pub(crate) s_cols: Option<(usize, usize)>,
    /// Where this rank is the `D` root: the panel's rows of its resident
    /// dense block.
    pub(crate) d_local: Option<(usize, usize)>,
}

/// One direction's sparse operand: this rank's block of `Aᵀ` (forward)
/// or `A` (backward), and per stage the rows of the `D` panel its
/// process row's `S` panel references (sparse tiers).
pub(crate) struct Side {
    block: Arc<Csr>,
    needed: Vec<Vec<usize>>,
    /// Per stage, `Some` exactly where this rank is the `S` root: the
    /// panel it serves, built for the current tier by
    /// [`Grid::set_panels`] — the block itself when a dense-tier stage
    /// spans all of it, else a column slice, compacted to the stage's
    /// needed rows in the sparse tiers (same nnz, so the same SparseComm
    /// words).
    panels: Vec<Option<Arc<Csr>>>,
}

impl Side {
    pub(crate) fn new(block: Csr, needed: Vec<Vec<usize>>) -> Self {
        Side {
            block: Arc::new(block),
            needed,
            panels: Vec::new(),
        }
    }

    /// Rows of the sparse block (of a SpMM's partial sum).
    pub(crate) fn rows(&self) -> usize {
        self.block.rows()
    }
}

/// The geometry of a SUMMA-family layout.
pub struct Grid {
    /// Process row: `S` panels, partial-`W` `T` blocks, the output
    /// layer's row statistics and the `AG` and `Y` all-gathers. Its size
    /// is the number of feature-column blocks and this rank's index in it
    /// its own.
    pub(crate) row: Communicator,
    /// Process column: `D` panels.
    pub(crate) col: Communicator,
    /// The `Y` reduction group when it is not `col` (3D: all ranks of the
    /// mesh sharing the grid column).
    pub(crate) jgroup: Option<Communicator>,
    /// 3D: the fiber each SpMM's partial sums reduce-scatter over.
    pub(crate) fiber: Option<Communicator>,
    pub(crate) stages: Vec<Stage>,
    pub(crate) fwd: Side,
    pub(crate) bwd: Side,
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

    /// Build both sides' stage panels under comm tier `mode`; returns the
    /// storage words of both sparse blocks and of every served panel that
    /// is a copy rather than the block itself.
    pub(crate) fn set_panels(&mut self, mode: CommMode) -> usize {
        let mut words = 0;
        for side in [&mut self.fwd, &mut self.bwd] {
            let block = &side.block;
            side.panels = self
                .stages
                .iter()
                .zip(&side.needed)
                .map(|(st, needed)| {
                    let (c0, c1) = st.s_cols?;
                    let whole = c0 == 0 && c1 == block.cols();
                    Some(match (mode.sparse_exchange(), whole) {
                        (false, true) => block.clone(),
                        (false, false) => Arc::new(block.block(0, block.rows(), c0, c1)),
                        (true, true) => Arc::new(block.compact_cols(needed)),
                        (true, false) => {
                            Arc::new(block.block(0, block.rows(), c0, c1).compact_cols(needed))
                        }
                    })
                })
                .collect();
            let copies = side.panels.iter().flatten();
            words += super::csr_words(&side.block)
                + copies
                    .filter(|p| !Arc::ptr_eq(p, &side.block))
                    .map(|p| super::csr_words(p))
                    .sum::<usize>();
        }
        words
    }

    /// One SpMM `side · D`, `d_mine` being this rank's `D` block: the
    /// stages of a SUMMA (each an `S` panel along the process row, then a
    /// `D` panel through the shell's stage fetch along the process
    /// column), pipelined against the stage SpMMs; in 3D followed by the
    /// fiber reduce-scatter of the `∛P`-replicated partial sums. `slot` is
    /// the SpMM's index among a pass's SpMMs (forward layers first), for
    /// the halo cache.
    fn aggregate(&self, s: &State, ctx: &Ctx, side: &Side, d_mine: &Arc<Mat>, slot: usize) -> Mat {
        let f = d_mine.cols();
        let mut out = s.ws.borrow_mut().zeros(side.rows(), f);
        let slot_base = slot * self.stages.len();
        let issue = |k: usize| {
            let st = &self.stages[k];
            let s_op = self
                .row
                .ibcast_shared(st.s_root, side.panels[k].clone(), Cat::SparseComm);
            let s_op = Lead::new(s_op, s.overlap);
            let d_payload = st.d_local.map(|(r0, r1)| d_panel(&s.ws, d_mine, r0, r1));
            let dims = (st.d_rows, f);
            let d_op = s.fetch(
                &self.col,
                st.d_root,
                d_payload,
                &side.needed[k],
                dims,
                slot_base + k,
            );
            (s_op, d_op)
        };
        pipeline(s.overlap, self.stages.len(), issue, |_, (s_op, d_op)| {
            let a = s_op.wait();
            let d = d_op.wait();
            // In the sparse tiers both panels are compact: the S panel's
            // columns are renumbered to needed order (same nnz/rows) and
            // the D panel holds exactly those rows, so the accumulation
            // order — and the charged cost — matches the dense tier bit
            // for bit.
            ctx.charge_spmm(a.nnz(), a.rows(), d.cols());
            s.ws.borrow_mut()
                .spmm_acc_with(ctx.parallel(), &a, &d, &mut out);
            d.release(&s.ws);
        });
        let Some(fiber) = &self.fiber else {
            return out;
        };
        let partial = s.ws.borrow_mut().lend(out);
        let mut out = s.ws.borrow_mut().take(s.hs[0].rows() * f);
        fiber.reduce_scatter_rows(partial, None, &mut out, Cat::DenseComm);
        out
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

/// Rows `r0..r1` of my resident dense block as a stage payload: the block
/// itself when the stage spans all of it, else a copy in a workspace
/// buffer lent for the fetch.
fn d_panel(ws: &RefCell<Workspace>, d_mine: &Arc<Mat>, r0: usize, r1: usize) -> Arc<Mat> {
    if r0 == 0 && r1 == d_mine.rows() {
        return d_mine.clone();
    }
    let mut ws = ws.borrow_mut();
    let mut panel = ws.take((r1 - r0) * d_mine.cols());
    d_mine.block_into(r0, r1, 0, d_mine.cols(), &mut panel);
    ws.lend(panel)
}

/// The layers of a forward pass; returns the rank's share of the summed
/// NLL.
pub(crate) fn forward(g: &Grid, s: &mut State, ctx: &Ctx) -> f64 {
    let l_total = s.cfg.layers();
    let mut nll = 0.0;
    for l in 0..l_total {
        let f_out = s.cfg.dims[l + 1];
        let t = g.aggregate(s, ctx, &g.fwd, &s.hs[l], l);
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
        let ag = g.aggregate(s, ctx, &g.bwd, &grad, l_total + l);
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
