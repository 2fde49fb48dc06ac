//! 1.5D replicated block-row GCN training — the paper's §IV-B.
//!
//! The paper discusses 1.5D algorithms (after Koanantakool et al. \[20\]) as
//! the middle ground between 1D (no replication, most communication) and
//! 2D: a replication factor `c` buys a `c`-fold reduction in the dominant
//! broadcast volume at the price of `c`-fold memory replication. The paper
//! chose not to implement it because for GNNs `d = O(f)` makes the
//! replication burden unattractive (§IV-B) — we implement it anyway so
//! the trade-off can be *measured* (bench `comm_volume`, ablation over
//! `c`).
//!
//! Geometry: `P = p₁·c` ranks on a `p₁ x c` grid; rank `(i, r)` has world
//! id `i·c + r`. `Aᵀ` is partitioned into `p₁` *coarse* block rows whose
//! work is shared by the team `(i, ·)`; each replica stores only the
//! column slices it multiplies (the fine blocks `≡ r (mod c)`), so
//! per-rank adjacency storage stays `O(nnz/P)`. The §IV-B memory premium
//! appears instead in the *intermediates*: the forward partial sum spans
//! the whole coarse block (`c` fine blocks tall) and the backward
//! outer-product contribution spans `n/c` rows —
//! `tests/memory_replication.rs` pins this down. Dense matrices are
//! partitioned into `P` *fine* block rows, fine block `b = i·c + r`
//! living on rank `(i, r)`.
//!
//! Forward: replica `r` accumulates only the stages `b ≡ r (mod c)`
//! (column-group broadcasts of fine `H` blocks — each rank receives
//! `≈ n·f/c` words instead of 1D's `n·f`), then the team reduce-scatters
//! the coarse partial back to fine blocks. Backward mirrors it: team
//! all-gather of `G`, a column-sliced outer product per replica, and a
//! replica-group reduce-scatter back to fine blocks.

use super::rows::{outer_product, reduce, RowLayout, Stages};
use super::shell::{expect_setup, sealed, Family, State};
use super::{CommMode, Layout, SetupError, Trainer};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx};
use cagnet_dense::Mat;
use cagnet_sparse::partition::block_ranges;
use cagnet_sparse::Csr;
use std::sync::Arc;

/// The 1.5D trainer.
pub type One5DTrainer = Trainer<One5D>;

/// The 1.5D layout: a `p₁ x c` grid of teams and replica groups, and
/// this replica's column slices of its team's coarse block row of `Aᵀ`.
pub struct One5D {
    /// Replication factor `c`.
    c: usize,
    /// Team communicator `(i, ·)` of size `c`.
    team: Communicator,
    /// Replica-group communicator `(·, r)` of size `p₁`.
    rep: Communicator,
    /// Forward stage operands: `Aᵀ(coarse rows i, fine cols i'·c + r)`
    /// for `i' = 0..p₁`, stage `i'` multiplying the fine `H` block of
    /// replica-group member `i'`.
    stages: Stages,
    /// Backward operand: `Aᵀ(coarse rows i, ·)` restricted to the columns
    /// of all fine blocks `≡ r (mod c)`, concatenated in team order.
    at_bwd: Csr,
    /// Per team member, the rows of its fine block that the coarse
    /// partial can make nonzero: the rows `at_bwd` stores entries in.
    team_sends: Arc<Vec<Vec<usize>>>,
}

impl Trainer<One5D> {
    /// Slice this rank's blocks from the shared problem. `c` must divide
    /// the world size.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig, c: usize) -> Self {
        expect_setup(Self::try_setup(ctx, problem, cfg, c), "1.5D")
    }

    /// Fallible constructor: returns [`SetupError`] instead of panicking
    /// when `c` does not divide `P` or the cluster does not fit the
    /// problem.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        c: usize,
    ) -> Result<Self, SetupError> {
        let p = ctx.size;
        if c < 1 || !p.is_multiple_of(c) {
            return Err(SetupError::Geometry(format!(
                "replication factor {c} must divide P={p}"
            )));
        }
        let p1 = p / c;
        let n = problem.vertices();
        if p > n {
            return Err(SetupError::TooManyRanks {
                ranks: p,
                vertices: n,
            });
        }
        let ti = ctx.rank / c;
        let tr = ctx.rank % c;
        let team = ctx.world.split(ti as u64);
        let rep = ctx.world.split((p1 + tr) as u64); // offset to avoid color clash
        debug_assert_eq!(team.size(), c);
        debug_assert_eq!(rep.size(), p1);

        let fine = block_ranges(n, p);
        // Coarse block i = union of its fine blocks (alignment with the
        // balanced fine split is what makes the reduce-scatters land
        // exactly on fine blocks).
        let (cr0, cr1) = (fine[ti * c].0, fine[(ti + 1) * c - 1].1);
        let at_coarse = problem.adj_t.block(cr0, cr1, 0, n);
        let at_fwd: Vec<Csr> = (0..p1)
            .map(|ip| {
                let (b0, b1) = fine[ip * c + tr];
                at_coarse.block(0, cr1 - cr0, b0, b1)
            })
            .collect();
        // Backward: same column slices, concatenated in team order i'.
        let at_bwd = {
            let cols = at_fwd.iter().map(Csr::cols).sum();
            let mut coo = cagnet_sparse::Coo::new(cr1 - cr0, cols);
            let mut col_off = 0;
            for blk in &at_fwd {
                for row in 0..blk.rows() {
                    for (col, v) in blk.row_entries(row) {
                        coo.push(row, col_off + col, v);
                    }
                }
                col_off += blk.cols();
            }
            Csr::from_coo(coo)
        };

        let team_sends = block_ranges(cr1 - cr0, c)
            .into_iter()
            .map(|(b0, b1)| {
                (b0..b1)
                    .filter(|&v| at_bwd.row_nnz(v) > 0)
                    .map(|v| v - b0)
                    .collect()
            })
            .collect();

        let (fr0, fr1) = fine[ctx.rank];
        let h0 = problem.features.block(fr0, fr1, 0, problem.features.cols());
        let layout = One5D {
            c,
            team,
            rep,
            stages: Stages::new(at_fwd),
            at_bwd,
            team_sends: Arc::new(team_sends),
        };
        Ok(Trainer::new(layout, problem, cfg, fr0, h0))
    }

    /// Replication factor in effect.
    pub fn replication(&self) -> usize {
        self.layout().c
    }
}

impl RowLayout for One5D {
    fn aggregate(&self, s: &State, ctx: &Ctx, l: usize) -> Mat {
        // The coarse partial sum: replica r's stages b ≡ r (mod c) via
        // replica-group fetches of fine H blocks.
        let mut partial = s.ws.borrow_mut().zeros(self.stages.rows(), s.hs[l].cols());
        self.stages
            .multiply(s, ctx, &self.rep, &s.hs[l], l, &mut partial);
        // Team reduce-scatter: coarse partials → my fine block of T.
        let partial = s.ws.borrow_mut().lend(partial);
        let mut t = s.ws.borrow_mut().take(s.hs[l].len());
        reduce(s, &self.team, partial, &self.team_sends, &mut t);
        t
    }

    fn aggregate_grad(&self, s: &State, ctx: &Ctx, _l: usize, g: Mat) -> Mat {
        // Shared so my block enters the team all-gather without a copy.
        let g = s.ws.borrow_mut().lend(g);
        // Team all-gather: assemble the coarse G block (every replica
        // needs it for its column slice of the outer product). The
        // gathered handles go before the next collective, so the peers'
        // blocks are free again when they expect them to be.
        let mut g_coarse = s.ws.borrow_mut().take(self.at_bwd.rows() * g.cols());
        {
            let parts = self.team.allgather(g.clone(), Cat::DenseComm);
            Mat::vstack_into(&parts, &mut g_coarse);
        }
        // Outer product restricted to output fine blocks ≡ r (mod c),
        // stacked in team order.
        let contrib = outer_product(s, ctx, &self.at_bwd, &g_coarse);
        s.ws.borrow_mut().give(g_coarse);
        // Replica-group reduce-scatter: piece i' sums across teams and
        // lands on rank (i', r) — exactly my fine block of A G, sent only
        // the columns of stage block i'.
        let mut ag = s.ws.borrow_mut().take(g.len());
        reduce(s, &self.rep, contrib, self.stages.needed(), &mut ag);
        ag
    }
}

impl sealed::Sealed for One5D {}

impl Layout for One5D {
    fn family(&self) -> Family<'_> {
        Family::Rows(self)
    }

    fn set_panels(&mut self, mode: CommMode) -> usize {
        self.stages.set_panels(mode) + super::csr_words(&self.at_bwd)
    }
}
