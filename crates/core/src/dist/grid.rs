//! The shared body of the SUMMA family — 2D (Algorithm 2, §IV-C) and
//! Split-3D-SpMM (§IV-D). `A`, `H` and `G` are block-2D over a process
//! grid (in 3D, over each layer of the mesh) and `W` is replicated. Per
//! layer, forward runs a SUMMA SpMM `T = AᵀH`, then a partial SUMMA
//! against `W` (only `T` blocks move, along the process row); the output
//! layer's `log_softmax` is not elementwise, so the process row
//! all-gathers its `Z` blocks first (§IV-C.2, §IV-D.2). Backward runs the
//! SUMMA SpMM for `AG`, row-all-gathers it once for both the weight
//! gradient `Y = Hᵀ(AG)` (§IV-C.4) and `AG·Wᵀ`, and reduces `Y` over the
//! ranks sharing the rank's feature columns.
//!
//! The two layouts differ only in data: the stage table ([`Stage`]), the
//! `Y` reduction group, 3D's fiber reduce-scatter after each SpMM, 2D's
//! transpose charge and the row order of the gathered embeddings.

use super::shell::State;
use super::{output_layer, pipeline, CommMode, Lead, Workspace};
use crate::loss::output_gradient_from_probs;
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::activation::log_softmax_probs_into;
use cagnet_dense::{matmul_acc_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use cagnet_sparse::Csr;
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

/// One SUMMA stage as every rank sees it.
pub(crate) struct Stage {
    /// Member of the process row that broadcasts the stage's `S` panel.
    pub(crate) s_root: usize,
    /// Member of the process column that holds the stage's `D` panel.
    pub(crate) d_root: usize,
    /// Rows of the `D` panel — known to every rank from the balanced
    /// partition, fingerprinted by gather receivers under CheckMode.
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
    /// Process row: `S` panels, partial-`W` `T` blocks and the `Z`, `AG`
    /// and `Y` all-gathers. Its size is the number of feature-column
    /// blocks and this rank's index in it its own.
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
    /// World ranks whose output row blocks, stacked in this order, are
    /// the global output rows.
    pub(crate) output_ranks: Vec<usize>,
}

impl Grid {
    /// This rank's columns of an `f`-wide dense matrix.
    pub(crate) fn cols(&self, f: usize) -> Range<usize> {
        let (c0, c1) = block_range(f, self.row.size(), self.row.my_idx());
        c0..c1
    }

    pub(crate) fn owns_output(&self) -> bool {
        self.row.my_idx() == 0
    }

    pub(crate) fn set_panels(&mut self, mode: CommMode) {
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
        }
    }

    /// Storage words of both sparse blocks and of every served panel that
    /// is a copy rather than the block itself.
    pub(crate) fn adjacency_words(&self) -> usize {
        [&self.fwd, &self.bwd]
            .into_iter()
            .map(|side| {
                let copies = side.panels.iter().flatten();
                super::csr_words(&side.block)
                    + copies
                        .filter(|p| !Arc::ptr_eq(p, &side.block))
                        .map(|p| super::csr_words(p))
                        .sum::<usize>()
            })
            .sum()
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

    /// Partial SUMMA against the replicated `Wˡ`: `Z_ij = Σ_k T_ik ·
    /// W[in-block k, out-block j]` over the process row. These stages stay
    /// dense broadcasts in every tier: the stage GEMM reads *all* rows of
    /// the broadcast `T` block, so a row gather would request every row
    /// and only add the per-row index words.
    fn partial_w(&self, s: &State, ctx: &Ctx, t_mine: &Arc<Mat>, l: usize) -> Mat {
        let (f_in, f_out) = (s.cfg.dims[l], s.cfg.dims[l + 1]);
        let q = self.row.size();
        let oc = self.cols(f_out);
        // The result is stored as `Z`.
        let mut out = s.ws.borrow_mut().keep_zeros(t_mine.rows(), oc.len());
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

    /// All-gather a `Z^L` block along the process row into whole class
    /// rows, in a workspace buffer.
    fn gather_class_rows(&self, s: &State, z: &Arc<Mat>) -> Mat {
        let mut z_row = s.ws.borrow_mut().take(z.rows() * s.cfg.f_out());
        let parts = self.row.allgather_shared(z.clone(), Cat::DenseComm);
        Mat::hstack_into(&parts, &mut z_row);
        z_row
    }

    /// Output-layer gradient block `G^L_ij`, in the buffer of the
    /// probabilities block the forward kept. When the stored `Z^L` came
    /// from a pass that kept none (a bare inference `forward`), its class
    /// rows are gathered once more and go through the same row kernel:
    /// one extra row all-gather, the same bits.
    fn output_gradient_block(&self, s: &mut State) -> Mat {
        let cols = self.cols(s.cfg.f_out());
        let mut g = match s.probs.take() {
            Some(p) => p,
            None => {
                let z_row = self.gather_class_rows(s, &s.zs[s.zs.len() - 1]);
                let ws = s.ws.get_mut();
                let mut log_p = ws.take(z_row.len());
                let mut p = ws.take(z_row.rows() * cols.len());
                log_softmax_probs_into(&z_row, cols.clone(), &mut log_p, &mut p);
                ws.give(log_p);
                ws.give(z_row);
                p
            }
        };
        output_gradient_from_probs(&mut g, &s.labels, &s.mask, s.r0, cols.start, s.train_count);
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

/// The layers of a forward pass.
pub(crate) fn forward(g: &Grid, s: &mut State, ctx: &Ctx) {
    let l_total = s.cfg.layers();
    for l in 0..l_total {
        let f_out = s.cfg.dims[l + 1];
        let t = g.aggregate(s, ctx, &g.fwd, &s.hs[l], l);
        let t = s.ws.get_mut().lend(t);
        let z = Arc::new(g.partial_w(s, ctx, &t, l));
        let mut h = s.ws.get_mut().keep(z.len());
        let cols = g.cols(f_out);
        if l + 1 == l_total {
            let z_row = g.gather_class_rows(s, &z);
            ctx.charge_elementwise(2 * z_row.len());
            let ws = s.ws.get_mut();
            let mut h_row = ws.keep(z_row.len());
            s.probs = output_layer(ws, s.training, &z_row, cols.clone(), &mut h_row);
            s.out_row = Arc::new(h_row);
            s.out_row
                .block_into(0, z_row.rows(), cols.start, cols.end, &mut h);
            s.ws.get_mut().give(z_row);
        } else {
            ctx.charge_elementwise(z.len());
            s.act.apply_into(&z, &mut h);
            s.apply_dropout(l, f_out, cols, &mut h);
        }
        s.zs.push(z);
        s.hs.push(Arc::new(h));
        s.ws.get_mut().end_layer();
    }
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
    let grad = g.output_gradient_block(s);
    // Shared, like `hs`, for the whole-block SUMMA stages.
    let mut grad = s.ws.get_mut().lend(grad);
    ctx.charge_elementwise(grad.len());
    let my_rows = s.hs[0].rows();
    for l in (0..l_total).rev() {
        let (f_in, f_out) = (s.cfg.dims[l], s.cfg.dims[l + 1]);
        // AG = A G, saved and reused (§IV-C.4, §IV-D.4).
        let ag = g.aggregate(s, ctx, &g.bwd, &grad, l_total + l);
        // Row all-gather of AG: serves both Y and A G Wᵀ. The local block
        // moves into the collective, not a copy of it, and the gathered
        // handles go before the next collective, so the peers' blocks are
        // free again when they expect them to be.
        let ag = s.ws.get_mut().lend(ag);
        let mut ag_row = s.ws.get_mut().take(my_rows * f_out);
        {
            let parts = g.row.allgather_shared(ag, Cat::DenseComm);
            Mat::hstack_into(&parts, &mut ag_row);
        }
        // Y = (H^{l-1})ᵀ (A G): local slab product, reduction over the
        // ranks sharing my feature columns, then row replication. With
        // overlap on, the reduction is in flight while the G^{l-1} GEMM
        // computes (both read only ag_row and replicated state).
        ctx.charge_gemm(s.hs[l].cols(), my_rows, f_out);
        let y_local = matmul_tn_with(ctx.parallel(), &s.hs[l], &ag_row);
        let reduce_y = || g.y_comm().iallreduce_mat(&y_local, Cat::DenseComm);
        let y_op = s.overlap.then(reduce_y);
        if l > 0 {
            let next = s.next_gradient(ctx, l, &ag_row, g.cols(f_in));
            grad = s.ws.get_mut().lend(next);
        }
        let y_j = y_op.unwrap_or_else(reduce_y).wait();
        let y = Mat::vstack(&g.row.allgather(y_j, Cat::DenseComm));
        debug_assert_eq!(y.shape(), (f_in, f_out));
        s.opt.step(l, &mut s.weights[l], &y);
        ctx.charge_elementwise(y.len());
        let ws = s.ws.get_mut();
        ws.give(ag_row);
        ws.end_layer();
    }
}
