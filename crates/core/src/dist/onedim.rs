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

use super::rows::{block_row, stages, RowLayout};
use super::shell::{expect_setup, sealed, Family, State};
use super::stages::{reduce, Comms, Stages};
use super::{Layout, SetupError, Spmm, Trainer};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::Ctx;
use cagnet_dense::Mat;
use cagnet_sparse::partition::block_ranges;

/// The 1D trainer.
pub type OneDimTrainer = Trainer<OneDim>;

/// The 1D layout: this rank's block row `Aᵀ_i` (`n_i x n`, the
/// CSR-of-transpose of `A`'s column block `i`), held once as the `P`
/// stage blocks `Aᵀ_{ij}`. Stage `j` multiplies rank `j`'s `H` block in
/// the forward; the backward outer product runs over the same blocks.
pub struct OneDim {
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
        let (r0, r1, h0) = block_row(ctx, problem)?;
        let spans = block_ranges(problem.vertices(), ctx.size);
        let layout = OneDim {
            stages: stages(&problem.adj_t, (r0, r1), spans, ctx.rank),
        };
        Ok(Trainer::new(layout, problem, cfg, r0, h0))
    }
}

impl RowLayout for OneDim {
    fn aggregate(&self, s: &State, ctx: &Ctx, l: usize) -> Mat {
        let comms = Comms::along(&ctx.world);
        self.stages
            .aggregate(s, ctx, &comms, &s.hs[l], Spmm::forward(l))
    }

    fn aggregate_grad(&self, s: &State, ctx: &Ctx, _l: usize, g: Mat) -> Mat {
        let contrib = self.stages.outer_product(s, ctx, &g);
        // G^l has done its work; A·G^l is reduced into its buffer. Row v
        // of the contribution is nonzero only where Aᵀ_i has column v:
        // member j is sent the columns of stage block j.
        let mut ag = g;
        reduce(s, &ctx.world, contrib, Some(self.stages.needed()), &mut ag);
        ag
    }

    fn adjacency(&self) -> usize {
        self.stages.words()
    }
}

impl sealed::Sealed for OneDim {}

impl Layout for OneDim {
    fn family(&self) -> Family<'_> {
        Family::Rows(self)
    }
}
