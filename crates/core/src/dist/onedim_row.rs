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

use super::rows::{outer_product, reduce, RowLayout, Stages};
use super::shell::{expect_setup, sealed, Family, State};
use super::{CommMode, Layout, SetupError, Trainer};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::Ctx;
use cagnet_dense::Mat;
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::Csr;

/// The row-partitioned 1D trainer.
pub type OneDimRowTrainer = Trainer<OneDimRow>;

/// The 1D-row layout: this rank's block row of `A`, whole and split into
/// the `P` stage blocks of the backward.
pub struct OneDimRow {
    /// `A`'s block row `A_i` (`n_i x n`) — used directly by the forward
    /// outer product (it is the CSR-of-transpose of `Aᵀ`'s column block).
    a_row: Csr,
    /// `A_i` split into `P` column blocks for the backward block-row
    /// multiply, stage `j` multiplying rank `j`'s `G` block.
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
        let n = problem.vertices();
        let p = ctx.size;
        if p > n {
            return Err(SetupError::TooManyRanks {
                ranks: p,
                vertices: n,
            });
        }
        let (r0, r1) = block_range(n, p, ctx.rank);
        let a_row = problem.adj.block(r0, r1, 0, n);
        let blocks = block_ranges(n, p)
            .into_iter()
            .map(|(c0, c1)| a_row.block(0, r1 - r0, c0, c1))
            .collect();
        let h0 = problem.features.block(r0, r1, 0, problem.features.cols());
        let layout = OneDimRow {
            a_row,
            stages: Stages::new(blocks),
        };
        Ok(Trainer::new(layout, problem, cfg, r0, h0))
    }
}

impl RowLayout for OneDimRow {
    fn aggregate(&self, s: &State, ctx: &Ctx, l: usize) -> Mat {
        // Large outer product: Aᵀ(:, my block) · H_i, reduce-scattered
        // back to block rows — member j is sent the rows of its block
        // that are columns of stage block j.
        let contrib = outer_product(s, ctx, &self.a_row, &s.hs[l]);
        let mut t = s.ws.borrow_mut().take(s.hs[l].len());
        reduce(s, &ctx.world, contrib, self.stages.needed(), &mut t);
        t
    }

    fn aggregate_grad(&self, s: &State, ctx: &Ctx, l: usize, g: Mat) -> Mat {
        // Block-row multiply: AG_i = Σ_j A_ij G_j via P fetches, my block
        // shared so it enters its stage without a copy.
        let g = s.ws.borrow_mut().lend(g);
        let mut ag = s.ws.borrow_mut().zeros(self.a_row.rows(), g.cols());
        self.stages.multiply(s, ctx, &ctx.world, &g, l, &mut ag);
        ag
    }
}

impl sealed::Sealed for OneDimRow {}

impl Layout for OneDimRow {
    fn family(&self) -> Family<'_> {
        Family::Rows(self)
    }

    fn set_panels(&mut self, mode: CommMode) -> usize {
        super::csr_words(&self.a_row) + self.stages.set_panels(mode)
    }
}
