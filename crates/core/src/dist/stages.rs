//! The stage table every layout builds at setup (DESIGN.md §3, §9): a
//! sparse-times-dense product `S · D` as a loop of stages, each an `S`
//! panel — columns of this rank's block rows of `Aᵀ` or `A` — times the
//! `D` block holding those columns' rows. The row family (1D, 1D-row,
//! 1.5D) holds every panel it multiplies; the grid family (2D, 3D) holds
//! the panels of its grid column and broadcasts each along the process
//! row. One [`Stages::aggregate`] runs the loop for all five layouts, and
//! the row family's outer product reads the same panels.

use super::shell::State;
use super::{pipeline, CommMode, Lead, Operand, Spmm, Workspace};
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::Mat;
use cagnet_sparse::spmm::outer_product_from_transposed_into;
use cagnet_sparse::Csr;
use std::cell::RefCell;
use std::sync::Arc;

/// Per member of a communicator, rows of its block: the needed-row sets
/// of a stage table, the send sets of a sparse reduce-scatter.
pub(crate) type RowSets = Arc<Vec<Vec<usize>>>;

/// One stage's geometry as every rank sees it.
#[derive(Clone)]
pub(crate) struct Stage {
    /// Member of the process row that holds the stage's `S` panel and
    /// broadcasts it; in the row family, which has no process row, the
    /// `me` its table is built with.
    pub(crate) s_root: usize,
    /// Member of the `D` communicator that holds the stage's `D` block.
    pub(crate) d_root: usize,
    /// The columns `g0..g1` of `Aᵀ` (of `A`) the panel spans: the global
    /// rows of the `D` block, whose height every rank knows from the
    /// balanced partition and gather receivers fingerprint.
    pub(crate) span: (usize, usize),
}

/// The stages of one sparse operand: this rank's block rows of `Aᵀ`
/// (forward) or `A` (backward) cut into stage panels.
pub(crate) struct Stages {
    stages: Vec<Stage>,
    /// Rows of every panel: of the stage loop's partial sum.
    rows: usize,
    /// Per stage, the sorted distinct columns of the panel — the rows of
    /// the `D` block it reads (sparse tiers), and so the rows of that
    /// block an outer product through the panel's transpose can make
    /// nonzero.
    needed: RowSets,
    /// Per stage, `Some` exactly where this rank holds the panel.
    panels: Vec<Option<Arc<Csr>>>,
    /// While a sparse tier is on, per held panel its copy with columns
    /// renumbered to the stage's needed rows ([`Csr::compact_cols`]: same
    /// nnz, so the same `SparseComm` words and accumulation order).
    compact: Vec<Option<Arc<Csr>>>,
}

/// The communicators one stage loop runs over.
pub(crate) struct Comms<'a> {
    /// The process row, whose member `s_root` broadcasts each `S` panel;
    /// `None` in the row family, which multiplies its own.
    pub(crate) row: Option<&'a Communicator>,
    /// The communicator whose member `d_root` holds each `D` block.
    pub(crate) col: &'a Communicator,
    /// Where ranks sum replicated partial products (1.5D's team, 3D's
    /// fiber): the communicator the sum is reduce-scattered over, and the
    /// rows each member is sent in the sparse tiers (`None`: all).
    pub(crate) reduce: Option<(&'a Communicator, Option<&'a RowSets>)>,
}

impl<'a> Comms<'a> {
    /// A row-family loop: `D` blocks along `col`, no reduce-scatter.
    pub(crate) fn along(col: &'a Communicator) -> Self {
        Comms {
            row: None,
            col,
            reduce: None,
        }
    }
}

impl Stages {
    /// Cut `stages` from rows `r0..r1` of `a`; this rank holds the panels
    /// whose `s_root` is `me`. A needed-row set comes from the panel where
    /// this rank holds it, else from the global `a` (uncharged setup).
    pub(crate) fn new(a: &Csr, (r0, r1): (usize, usize), stages: Vec<Stage>, me: usize) -> Self {
        let (needed, panels) = stages
            .iter()
            .map(|st| {
                let (g0, g1) = st.span;
                if st.s_root != me {
                    return (a.needed_cols_in(r0, r1, g0, g1), None);
                }
                let panel = a.block(r0, r1, g0, g1);
                (panel.needed_cols(), Some(Arc::new(panel)))
            })
            .unzip();
        Stages {
            rows: r1 - r0,
            needed: Arc::new(needed),
            panels,
            compact: vec![None; stages.len()],
            stages,
        }
    }

    /// Per stage, the sorted distinct columns of its panel.
    pub(crate) fn needed(&self) -> &RowSets {
        &self.needed
    }

    /// Rows of every panel.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Whether a panel this rank holds stores entries in row `v`.
    pub(crate) fn row_occupied(&self, v: usize) -> bool {
        (self.panels.iter().flatten()).any(|p| p.row_nnz(v) > 0)
    }

    /// Nonzeros of the panels this rank holds.
    pub(crate) fn nnz(&self) -> usize {
        self.panels.iter().flatten().map(|p| p.nnz()).sum()
    }

    /// Keep the panels comm tier `mode` multiplies and serves: the compact
    /// copies while a sparse tier is on, none under `Dense`. Returns the
    /// storage words of the held panels and their compact copies.
    pub(crate) fn set_panels(&mut self, mode: CommMode) -> usize {
        let held = self
            .panels
            .iter()
            .map(|p| p.as_ref().filter(|_| mode.sparse_exchange()));
        self.compact = (held.zip(self.needed.iter()))
            .map(|(p, needed)| Some(Arc::new(p?.compact_cols(needed))))
            .collect();
        (self.panels.iter().chain(&self.compact).flatten())
            .map(|a| super::csr_words(a))
            .sum()
    }

    /// `S · D` for this rank's rows, `d_mine` being its `D` block on
    /// `comms.col`: per stage the `S` panel — broadcast along the process
    /// row, or this rank's own — then the `D` block through the shell's
    /// stage fetch ([`State::fetch`]), pipelined against the stage SpMMs;
    /// where the sums are partial, then their reduce-scatter. `spmm` says
    /// which of a pass's SpMMs this is, for what the fetches keep. The
    /// result is in a workspace buffer.
    pub(crate) fn aggregate(
        &self,
        s: &State,
        ctx: &Ctx,
        comms: &Comms<'_>,
        d_mine: &Arc<Mat>,
        spmm: Spmm,
    ) -> Mat {
        let f = d_mine.cols();
        let mut out = s.ws.borrow_mut().zeros(self.rows, f);
        // In the sparse tiers both operands are compact: the panel's
        // columns renumbered to needed order, the D block holding exactly
        // those rows — the dense tier's accumulation order and charged
        // cost, bit for bit. A stage's D root holds its block whole, and
        // where it holds the panel whole too it multiplies both as they
        // are: the renumbering is monotone, so that is the same product
        // in the same order, with no compact copy of the block.
        let mine = |k: usize| self.stages[k].d_root == comms.col.my_idx();
        let whole = |k: usize| mine(k) && self.panels[k].is_some();
        let issue = |k: usize| {
            let st = &self.stages[k];
            let served = self.compact[k]
                .as_ref()
                .or(self.panels[k].as_ref())
                .cloned();
            let s_op = match (comms.row, served) {
                (Some(row), a) => {
                    let op = row.ibcast_shared(st.s_root, a, Cat::SparseComm);
                    Lead::new(op, s.overlap)
                }
                (None, Some(a)) => Lead::Landed(a),
                (None, None) => unreachable!("a layout without a process row holds every panel"),
            };
            let (g0, g1) = st.span;
            let payload = mine(k).then(|| d_panel(&s.ws, d_mine, g0 - s.r0, g1 - s.r0));
            let dims = (g1 - g0, f);
            let slot = spmm.slot(k, self.stages.len());
            let d_op = s.fetch(comms.col, st.d_root, payload, &self.needed[k], dims, slot);
            (s_op, d_op)
        };
        let sparse = s.mode.sparse_exchange();
        pipeline(s.overlap, self.stages.len(), issue, |k, (s_op, d_op)| {
            let a = s_op.wait();
            let a = match &self.panels[k] {
                Some(panel) if whole(k) => panel.clone(),
                _ => a,
            };
            let mut d = d_op.wait();
            if sparse && mine(k) && !whole(k) {
                let needed = &self.needed[k];
                let block = d;
                d = Operand::pooled(&s.ws, needed.len() * f, |m| {
                    block.select_rows_into(needed.iter().copied(), m)
                });
            }
            ctx.charge_spmm(a.nnz(), a.rows(), f);
            s.ws.borrow_mut()
                .spmm_acc_with(ctx.parallel(), &a, &d, &mut out);
            d.release(&s.ws);
        });
        let Some((comm, sends)) = comms.reduce else {
            return out;
        };
        let partial = s.ws.borrow_mut().lend(out);
        let mut out = s.ws.borrow_mut().take(d_mine.len());
        reduce(s, comm, partial, sends, &mut out);
        out
    }

    /// The large outer product through the transpose of this rank's
    /// panels (§IV-A.3), all of which it holds: stage `k`'s product
    /// `panelₖᵀ · d` fills the rows of its span, stacked in stage order.
    /// Built in a workspace buffer and lent to the reduce-scatter it rides
    /// into, whose send sets are [`Stages::needed`].
    pub(crate) fn outer_product(&self, s: &State, ctx: &Ctx, d: &Mat) -> Arc<Mat> {
        ctx.charge_spmm(self.nnz(), self.rows, d.cols());
        let spans = self.stages.iter().map(|st| st.span.1 - st.span.0);
        let mut contrib = s.ws.borrow_mut().zeros(spans.clone().sum(), d.cols());
        let mut off = 0;
        for (p, height) in self.panels.iter().zip(spans) {
            if let Some(p) = p {
                outer_product_from_transposed_into(p, d, &mut contrib, off);
            }
            off += height;
        }
        s.ws.borrow_mut().lend(contrib)
    }
}

/// Reduce-scatter `m` over `comm` into `out`. In the sparse tiers each
/// member `j` is sent only the rows `sends[j]` of its block that `m` can
/// make nonzero (DESIGN.md §9); `Dense`, or no `sends`, sends every member
/// its whole block.
pub(crate) fn reduce(
    s: &State,
    comm: &Communicator,
    m: Arc<Mat>,
    sends: Option<&RowSets>,
    out: &mut Mat,
) {
    let sends = sends.filter(|_| s.mode.sparse_exchange());
    comm.reduce_scatter_rows(m, sends, out, Cat::DenseComm);
}

/// Rows `r0..r1` of my resident dense block as a stage payload: the block
/// itself — an `Arc` clone, never a deep copy — when the stage spans all
/// of it, else a copy in a workspace buffer lent for the fetch.
fn d_panel(ws: &RefCell<Workspace>, d_mine: &Arc<Mat>, r0: usize, r1: usize) -> Arc<Mat> {
    if r0 == 0 && r1 == d_mine.rows() {
        return d_mine.clone();
    }
    let mut ws = ws.borrow_mut();
    let mut panel = ws.take((r1 - r0) * d_mine.cols());
    d_mine.block_into(r0, r1, 0, d_mine.cols(), &mut panel);
    ws.lend(panel)
}
