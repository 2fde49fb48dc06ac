//! 2D SUMMA parallel GCN training — the paper's Algorithm 2 (§IV-C), the
//! variant the paper implements and evaluates on up to 100 GPUs — on
//! square **or rectangular** process grids (§IV-C.6).
//!
//! Data distribution (Table IV): `A`, `H^l`, `G^l` all block-2D on a
//! `Pr x Pc` grid; `W^l` fully replicated. The layer body is the SUMMA
//! family's (`dist/grid.rs`): SUMMA SpMM, partial SUMMA against `W`, a
//! process-row exchange of three numbers per row of `Z^L` for the
//! non-elementwise `log_softmax`, and a grid-column reduction of `Y`.
//!
//! **Stage structure.** The vertex dimension is partitioned into
//! `K = lcm(Pr, Pc)` *fine* blocks; `A`'s column groups and `H`'s row
//! groups are unions of consecutive fine blocks, so each SUMMA stage
//! broadcasts one fine panel from its (column-group, row-group) owners —
//! the `S` panel in the first pass over its table only, since every rank
//! keeps the `S` panels it receives.
//! On a square grid `K = Pr = Pc` and this is exactly Algorithm 2's
//! per-process staging. The `stages_per_block` knob subdivides each fine
//! stage into narrower panels — the paper's blocking parameter `b`:
//! volume is unchanged but latency scales with the stage count (swept by
//! the ablation bench).
//!
//! §IV-C.6's trade-off is observable here: growing `Pr/Pc` shrinks the
//! sparse-matrix traffic (`nnz/Pr`) at the cost of the dense terms — see
//! `tests/rect_grid.rs`.

use super::grid::Grid;
use super::shell::{expect_setup, sealed, Family};
use super::stages::{Stage, Stages};
use super::{Layout, SetupError, Trainer};
use crate::analysis::gcf;
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::grid::int_sqrt;
use cagnet_comm::{Ctx, Grid2D};
use cagnet_sparse::partition::{block_range, block_ranges};

/// Tuning knobs of the 2D trainer.
#[derive(Clone, Copy, Debug)]
pub struct TwoDimConfig {
    /// SUMMA sub-stages per fine block (the blocking parameter `b` of
    /// Algorithm 2 expressed as a divisor). 1 = one stage per fine block
    /// (widest panels, fewest messages).
    pub stages_per_block: usize,
}

impl Default for TwoDimConfig {
    fn default() -> Self {
        TwoDimConfig {
            stages_per_block: 1,
        }
    }
}

/// The 2D SUMMA trainer.
pub type TwoDimTrainer = Trainer<TwoDim>;

/// The 2D layout: a `Pr x Pc` grid, this rank's `Aᵀ` and `A` blocks, and
/// the `K·stages_per_block` SUMMA stages.
pub struct TwoDim(Grid);

/// Vertex ranges of the `Pr` row groups and `Pc` column groups derived
/// from the fine partition (`group i` = union of its consecutive fine
/// blocks). Using unions keeps every coarse boundary on a fine boundary
/// even when `n` is not divisible.
fn coarse_ranges(fine: &[(usize, usize)], parts: usize) -> Vec<(usize, usize)> {
    let per = fine.len() / parts;
    (0..parts)
        .map(|g| (fine[g * per].0, fine[(g + 1) * per - 1].1))
        .collect()
}

impl Trainer<TwoDim> {
    /// Square-grid setup (Algorithm 2 as the paper runs it). World size
    /// must be a perfect square.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig, tcfg: TwoDimConfig) -> Self {
        expect_setup(Self::try_setup(ctx, problem, cfg, tcfg), "2D")
    }

    /// Fallible square-grid constructor: returns [`SetupError`] instead of
    /// panicking on an invalid geometry.
    pub fn try_setup(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
    ) -> Result<Self, SetupError> {
        let Some(q) = int_sqrt(ctx.size) else {
            return Err(SetupError::Geometry(format!(
                "2D trainer needs a square process count, got {}",
                ctx.size
            )));
        };
        Self::try_setup_rect(ctx, problem, cfg, tcfg, q, q)
    }

    /// Rectangular-grid setup (§IV-C.6). `pr * pc` must equal the world
    /// size.
    pub fn setup_rect(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
        pr: usize,
        pc: usize,
    ) -> Self {
        expect_setup(Self::try_setup_rect(ctx, problem, cfg, tcfg, pr, pc), "2D")
    }

    /// Fallible rectangular-grid constructor. Validation happens before
    /// the grid's communicator splits, so on error every rank returns
    /// without touching the collectives.
    pub fn try_setup_rect(
        ctx: &Ctx,
        problem: &Problem,
        cfg: &GcnConfig,
        tcfg: TwoDimConfig,
        pr: usize,
        pc: usize,
    ) -> Result<Self, SetupError> {
        let sub = tcfg.stages_per_block;
        if sub < 1 {
            return Err(SetupError::Config("stages_per_block must be >= 1".into()));
        }
        let n = problem.vertices();
        let k_total = pr / gcf(pr, pc) * pc;
        if k_total > n {
            return Err(SetupError::Geometry(
                "stage count exceeds vertex count".into(),
            ));
        }
        let Grid2D { i, j, row, col, .. } = Grid2D::new(ctx, pr, pc);
        let fine = block_ranges(n, k_total);
        let (r0, r1) = coarse_ranges(&fine, pr)[i];
        // SUMMA stage (k, t), index k·sub + t: fine block k's t-th
        // sub-panel, its S panel owned by grid column k / (K/Pc) and its
        // D panel by grid row k / (K/Pr).
        let mut stages = Vec::with_capacity(k_total * sub);
        for (k, &(fk0, fk1)) in fine.iter().enumerate() {
            let (s_root, d_root) = (k / (k_total / pc), k / (k_total / pr));
            for t in 0..sub {
                let (t0, t1) = block_range(fk1 - fk0, sub, t);
                stages.push(Stage {
                    s_root,
                    d_root,
                    span: (fk0 + t0, fk0 + t1),
                });
            }
        }
        let bwd = Stages::new(&problem.adj, (r0, r1), stages.clone(), j);
        let grid = Grid {
            row,
            col,
            jgroup: None,
            fiber: None,
            transpose_nnz: Some(bwd.nnz()),
            fwd: Stages::new(&problem.adj_t, (r0, r1), stages, j),
            bwd,
            output_ranks: (0..pr * pc).collect(),
        };
        let (fc0, fc1) = block_range(problem.features.cols(), pc, j);
        let h0 = problem.features.block(r0, r1, fc0, fc1);
        Ok(Trainer::new(TwoDim(grid), problem, cfg, r0, h0))
    }
}

impl sealed::Sealed for TwoDim {}

impl Layout for TwoDim {
    fn family(&self) -> Family<'_> {
        Family::Grid(&self.0)
    }
}
