//! The stage table every layout builds at setup (DESIGN.md §3, §9): a
//! sparse-times-dense product `S · D` as a loop of stages, each an `S`
//! panel — columns of this rank's block rows of `Aᵀ` or `A` — times the
//! `D` block holding those columns' rows. The row family (1D, 1D-row,
//! 1.5D) holds every panel it multiplies; the grid family (2D, 3D) cuts
//! the panels of its grid column, the first stage loop over a table
//! broadcasts each along the process row, and every member keeps what it
//! receives, so later loops multiply held panels with no row collective.
//! One [`Stages::aggregate`] runs the loop for all five layouts, and the
//! row family's outer product reads the same panels. Each panel is cut
//! once, at setup, with its columns numbered by the stage's needed-row
//! list, and that list is its column map in every comm tier.

use super::shell::State;
use super::{pipeline, Lead, Spmm, Workspace};
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::Mat;
use cagnet_sparse::spmm::outer_product_from_transposed_into;
use cagnet_sparse::Csr;
use std::cell::{OnceCell, RefCell};
use std::sync::Arc;

/// Per member of a communicator, rows of its block: the needed-row sets
/// of a stage table, the send sets of a sparse reduce-scatter.
pub(crate) type RowSets = Arc<Vec<Vec<usize>>>;

/// One stage's geometry as every rank sees it.
#[derive(Clone)]
pub(crate) struct Stage {
    /// Member of the process row that cuts the stage's `S` panel and
    /// broadcasts it in the table's first loop; in the row family, which
    /// has no process row, the `me` its table is built with.
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
    /// Per stage, the sorted distinct columns of the panel, relative to
    /// its span — the rows of the `D` block it reads, and so the rows of
    /// that block an outer product through the panel's transpose can make
    /// nonzero. It is the panel's column map: panel column `j` is span
    /// row `needed[k][j]`.
    needed: RowSets,
    /// Per stage, the panel once this rank holds it, its columns
    /// numbered by `needed` ([`Csr::compact_cols`]: a monotone
    /// renumbering, so every row folds the same products in the same
    /// order, and the same nnz, so the same `SparseComm` words). Setup
    /// fills the rank's own; the first stage loop keeps the rest as they
    /// arrive.
    panels: Vec<OnceCell<Arc<Csr>>>,
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
    /// Cut `stages` from rows `r0..r1` of `a`; this rank starts out
    /// holding the panels whose `s_root` is `me`, each with its columns
    /// numbered by its needed-row set. That set comes from the panel
    /// where this rank cuts it, else from the global `a` (uncharged
    /// setup).
    pub(crate) fn new(a: &Csr, (r0, r1): (usize, usize), stages: Vec<Stage>, me: usize) -> Self {
        let (needed, panels) = stages
            .iter()
            .map(|st| {
                let (g0, g1) = st.span;
                if st.s_root != me {
                    return (a.needed_cols_in(r0, r1, g0, g1), OnceCell::new());
                }
                let panel = a.block(r0, r1, g0, g1);
                let needed = panel.needed_cols();
                let panel = panel.compact_cols(&needed);
                (needed, OnceCell::from(Arc::new(panel)))
            })
            .unzip();
        Stages {
            rows: r1 - r0,
            needed: Arc::new(needed),
            panels,
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

    /// The panels this rank holds.
    fn held(&self) -> impl Iterator<Item = &Arc<Csr>> {
        self.panels.iter().filter_map(OnceCell::get)
    }

    /// Whether a panel this rank holds stores entries in row `v`.
    pub(crate) fn row_occupied(&self, v: usize) -> bool {
        self.held().any(|p| p.row_nnz(v) > 0)
    }

    /// Nonzeros of the panels this rank holds.
    pub(crate) fn nnz(&self) -> usize {
        self.held().map(|p| p.nnz()).sum()
    }

    /// Storage words of the panels this rank holds: values, column
    /// indices and row pointers.
    pub(crate) fn words(&self) -> usize {
        self.held().map(|a| 2 * a.nnz() + a.rows() + 1).sum()
    }

    /// `S · D` for this rank's rows, `d_mine` being its `D` block on
    /// `comms.col`: per stage the `S` panel, then the `D` block through
    /// the shell's stage fetch ([`State::fetch`]), pipelined against the
    /// stage SpMMs; where the sums are partial, then their
    /// reduce-scatter. `spmm` says which of a pass's SpMMs this is, for
    /// what the fetches keep. The result is in a workspace buffer.
    ///
    /// Until this rank holds every panel of the table, each `S` panel is
    /// broadcast along the process row and kept where it lands; from then
    /// on the held panel is read with no collective and nothing metered:
    /// `A` never changes, so the first loop's `SparseComm` words are all
    /// a table ever moves. No member holds every panel before a row's
    /// first loop ends unless the row is one rank, so every member takes
    /// the same branch.
    ///
    /// A stage's `D` operand arrives compact — gathered, served or cached
    /// rows, exactly the needed ones in needed order — or whole: a
    /// `Dense` broadcast, the root's own block, a kept layer-0 block. A
    /// whole block is read through the panel's column map; the shapes
    /// alone tell the two apart. Either way each row folds the products
    /// of the full block in the same order: the same bits and the same
    /// charged cost in every tier.
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
        let held = self.panels.iter().all(|p| p.get().is_some());
        let issue = |k: usize| {
            let st = &self.stages[k];
            let s_op = match (self.panels[k].get(), comms.row) {
                (Some(a), _) if held => Lead::Landed(Arc::clone(a)),
                (a, Some(row)) => {
                    let op = row.ibcast_shared(st.s_root, a.cloned(), Cat::SparseComm);
                    Lead::new(op, s.overlap)
                }
                (_, None) => unreachable!("a layout without a process row holds every panel"),
            };
            let (g0, g1) = st.span;
            let mine = st.d_root == comms.col.my_idx();
            let payload = mine.then(|| d_panel(&s.ws, d_mine, g0 - s.r0, g1 - s.r0));
            let dims = (g1 - g0, f);
            let slot = spmm.slot(k, self.stages.len());
            let d_op = s.fetch(comms.col, st.d_root, payload, &self.needed[k], dims, slot);
            (s_op, d_op)
        };
        pipeline(s.overlap, self.stages.len(), issue, |k, (s_op, d_op)| {
            let (a, d) = (s_op.wait(), d_op.wait());
            if !held {
                // The root's own panel is already there.
                let _ = self.panels[k].set(Arc::clone(&a));
            }
            let map = (d.rows() != a.cols()).then_some(&self.needed[k][..]);
            ctx.charge_spmm(a.nnz(), a.rows(), f);
            s.ws.borrow_mut()
                .spmm_acc_with(ctx.parallel(), &a, &d, map, &mut out);
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
    /// `panelₖᵀ · d` fills the rows of its span, stacked in stage order,
    /// written through the panel's column map where it skips span rows.
    /// Built in a workspace buffer and lent to the reduce-scatter it rides
    /// into, whose send sets are [`Stages::needed`].
    pub(crate) fn outer_product(&self, s: &State, ctx: &Ctx, d: &Mat) -> Arc<Mat> {
        ctx.charge_spmm(self.nnz(), self.rows, d.cols());
        let spans = self.stages.iter().map(|st| st.span.1 - st.span.0);
        let mut contrib = s.ws.borrow_mut().zeros(spans.clone().sum(), d.cols());
        let mut off = 0;
        for ((p, height), needed) in self.panels.iter().zip(spans).zip(self.needed.iter()) {
            if let Some(p) = p.get() {
                let map = (p.cols() != height).then_some(&needed[..]);
                outer_product_from_transposed_into(p, d, map, &mut contrib, off);
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
