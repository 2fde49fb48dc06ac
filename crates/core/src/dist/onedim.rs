//! 1D block-row parallel GCN training — the paper's Algorithm 1 (§IV-A).
//!
//! Data distribution (Table III): `A` partitioned by block *columns*
//! (equivalently, `Aᵀ` by block rows — one block row of `Aᵀ` per rank),
//! `H^l` and `G^l` by block rows, `W^l` fully replicated.
//!
//! Per layer, forward runs `P` broadcast stages
//! (`T_i ← T_i + Aᵀ_{ij} H_j`), then a local GEMM against the replicated
//! `W`. Backward computes the large 1D outer product `A_i G_i` (a
//! full-height `n x f` low-rank contribution per rank), reduce-scatters it
//! back into block rows (§IV-A.3), reuses the scattered intermediate
//! `A G` for the weight gradient `Y = (H^{l-1})ᵀ (A G)` via an `f x f`
//! all-reduce (§IV-A.4), and finishes with the replicated gradient-descent
//! step.

use super::rows::{outer_product, reduce, RowLayout, Stages};
use super::shell::{expect_setup, sealed, Family, State};
use super::{CommMode, Layout, SetupError, Trainer};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::Ctx;
use cagnet_dense::Mat;
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::Csr;

/// The 1D trainer.
pub type OneDimTrainer = Trainer<OneDim>;

/// The 1D layout: this rank's block row of `Aᵀ`, whole and split into
/// the `P` stage blocks of the forward.
pub struct OneDim {
    /// The full block row `Aᵀ_i` (`n_i x n`) — the CSR-of-transpose of
    /// `A`'s column block `i`, used directly by the backward outer
    /// product.
    at_row: Csr,
    /// `Aᵀ_i` split into `P` column blocks `Aᵀ_{ij}`, stage `j`
    /// multiplying rank `j`'s `H` block.
    stages: Stages,
}

impl Trainer<OneDim> {
    /// Slice this rank's blocks out of the shared problem (uncharged
    /// setup, like the paper's data loading).
    ///
    /// # Panics
    /// When the geometry is invalid; see [`OneDimTrainer::try_setup`] for
    /// the fallible variant.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        expect_setup(Self::try_setup(ctx, problem, cfg), "1D")
    }

    /// Fallible constructor: returns [`SetupError`] instead of panicking
    /// when the cluster does not fit the problem.
    pub fn try_setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Result<Self, SetupError> {
        let n = problem.vertices();
        let p = ctx.size;
        if p > n {
            return Err(SetupError::TooManyRanks {
                ranks: p,
                vertices: n,
            });
        }
        let (r0, r1) = block_range(n, p, ctx.rank);
        let at_row = problem.adj_t.block(r0, r1, 0, n);
        let blocks = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| at_row.block(0, r1 - r0, c0, c1))
            .collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        let layout = OneDim {
            at_row,
            stages: Stages::new(blocks),
        };
        Ok(Trainer::new(layout, problem, cfg, r0, h0))
    }
}

impl RowLayout for OneDim {
    fn aggregate(&self, s: &State, ctx: &Ctx, l: usize) -> Mat {
        let mut t = s.ws.borrow_mut().zeros(self.at_row.rows(), s.hs[l].cols());
        self.stages
            .multiply(s, ctx, &ctx.world, &s.hs[l], l, &mut t);
        t
    }

    fn aggregate_grad(&self, s: &State, ctx: &Ctx, _l: usize, g: Mat) -> Mat {
        let contrib = outer_product(s, ctx, &self.at_row, &g);
        // G^l has done its work; A·G^l is reduced into its buffer. Row v
        // of the contribution is nonzero only where Aᵀ_i has column v:
        // member j is sent the columns of stage block j.
        let mut ag = g;
        reduce(s, &ctx.world, contrib, self.stages.needed(), &mut ag);
        ag
    }
}

impl sealed::Sealed for OneDim {}

impl Layout for OneDim {
    fn family(&self) -> Family<'_> {
        Family::Rows(self)
    }

    fn set_panels(&mut self, mode: CommMode) -> usize {
        super::csr_words(&self.at_row) + self.stages.set_panels(mode)
    }
}
