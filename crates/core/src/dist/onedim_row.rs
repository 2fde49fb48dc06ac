//! The alternative 1D algorithm of §IV-A.7: `A` partitioned by block
//! *rows* instead of block columns.
//!
//! With `A` row-partitioned, forward propagation becomes the (large) 1D
//! outer product (`Aᵀ`'s column block times my `H` block, reduce-scattered)
//! and the first backpropagation product becomes the block-row multiply
//! (`P` broadcast stages) — exactly the mirror image of
//! [`super::onedim`]. The paper argues the swap changes nothing: "we
//! would still be performing 1 large outer product, 1 small outer
//! product, and 1 block row multiplication as before, resulting in the
//! same total communication cost." `tests/onedim_variants.rs` verifies
//! that claim on measured word counters.

use super::rows::{block_row, stages, RowLayout};
use super::shell::{expect_setup, sealed, Family, State};
use super::stages::{reduce, Comms, Stages};
use super::{Layout, SetupError, Spmm, Trainer};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::Ctx;
use cagnet_dense::Mat;
use cagnet_sparse::partition::block_ranges;

/// The row-partitioned 1D trainer.
pub type OneDimRowTrainer = Trainer<OneDimRow>;

/// The 1D-row layout: this rank's block row `A_i` (`n_i x n`, the
/// CSR-of-transpose of `Aᵀ`'s column block `i`), held once as the `P`
/// stage blocks `A_{ij}`. The forward outer product runs over them, and
/// stage `j` multiplies rank `j`'s `G` block in the backward.
pub struct OneDimRow {
    stages: Stages,
}

impl Trainer<OneDimRow> {
    /// Slice this rank's blocks out of the shared problem.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        expect_setup(Self::try_setup(ctx, problem, cfg), "1D row")
    }

    /// Fallible constructor: returns [`SetupError`] instead of panicking
    /// when the cluster does not fit the problem.
    pub fn try_setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Result<Self, SetupError> {
        let (r0, r1, h0) = block_row(ctx, problem)?;
        let spans = block_ranges(problem.vertices(), ctx.size);
        let layout = OneDimRow {
            stages: stages(&problem.adj, (r0, r1), spans, ctx.rank),
        };
        Ok(Trainer::new(layout, problem, cfg, r0, h0))
    }
}

impl RowLayout for OneDimRow {
    fn aggregate(&self, s: &State, ctx: &Ctx, l: usize) -> Mat {
        // Large outer product: Aᵀ(:, my block) · H_i, reduce-scattered
        // back to block rows — member j is sent the rows of its block
        // that are columns of stage block j.
        let contrib = self.stages.outer_product(s, ctx, &s.hs[l]);
        let mut t = s.ws.borrow_mut().take(s.hs[l].len());
        reduce(s, &ctx.world, contrib, Some(self.stages.needed()), &mut t);
        t
    }

    fn aggregate_grad(&self, s: &State, ctx: &Ctx, l: usize, g: Mat) -> Mat {
        // Block-row multiply: AG_i = Σ_j A_ij G_j via P fetches, my block
        // shared so it enters its stage without a copy.
        let g = s.ws.borrow_mut().lend(g);
        let comms = Comms::along(&ctx.world);
        self.stages.aggregate(s, ctx, &comms, &g, Spmm::Pass(l))
    }

    fn adjacency(&self) -> usize {
        self.stages.words()
    }
}

impl sealed::Sealed for OneDimRow {}

impl Layout for OneDimRow {
    fn family(&self) -> Family<'_> {
        Family::Rows(self)
    }
}
