//! Split-3D-SpMM parallel GCN training — the paper's §IV-D.
//!
//! The paper derives this algorithm's cost (another `O(P^{1/6})` reduction
//! in words over 2D) but does not implement it, citing high constants,
//! complexity, and the `∛P` memory replication of intermediates. This
//! module implements it, which both verifies the §IV-D analysis
//! empirically (bench `comm_volume`) and exercises the replication
//! behaviour the paper warns about.
//!
//! Geometry (Table V, "Block Split 3D"): `P = q³` ranks on a `q x q x q`
//! mesh; each 2D plane is a *layer*. The adjacency block `A_{ij}` of the
//! `q x q` grid is split along columns into `q` slices, slice `k` living
//! on layer `k` (`n/q x n/q²` per rank). Dense matrices are split along
//! rows across layers (`n/q² x f/q` per rank). Forward per layer `k` runs
//! an independent 2D SUMMA producing an `n/q x f/q` partial sum, which is
//! then reduce-scattered along the *fiber* dimension — the `∛P`-factor
//! intermediate replication the paper highlights — yielding the Block
//! Split 3D result. The rest of the layer body is the SUMMA family's
//! (`dist/grid.rs`), with `Y` reduced over all ranks sharing the grid
//! column.

use super::grid::Grid;
use super::shell::{expect_setup, sealed, Family};
use super::stages::{Stage, Stages};
use super::{Layout, SetupError, Trainer};
use crate::model::GcnConfig;
use crate::problem::Problem;
use cagnet_comm::grid::int_cbrt;
use cagnet_comm::{Ctx, Grid3D};
use cagnet_sparse::partition::block_range;

/// The 3D trainer.
pub type ThreeDimTrainer = Trainer<ThreeDim>;

/// The 3D layout: a `q x q x q` mesh, this rank's column slices of the
/// `Aᵀ` and `A` blocks of its grid position, and the `q` SUMMA stages of
/// its mesh layer.
pub struct ThreeDim(Grid);

impl Trainer<ThreeDim> {
    /// Slice this rank's mesh blocks from the shared problem. World size
    /// must be a perfect cube.
    pub fn setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Self {
        expect_setup(Self::try_setup(ctx, problem, cfg), "3D")
    }

    /// Fallible constructor: returns [`SetupError`] instead of panicking
    /// on an invalid geometry. Validation happens before the mesh's
    /// communicator splits, so on error every rank returns without
    /// touching the collectives.
    pub fn try_setup(ctx: &Ctx, problem: &Problem, cfg: &GcnConfig) -> Result<Self, SetupError> {
        let Some(q) = int_cbrt(ctx.size) else {
            return Err(SetupError::Geometry(format!(
                "3D trainer needs a cubic process count, got {}",
                ctx.size
            )));
        };
        let n = problem.vertices();
        if q * q > n {
            return Err(SetupError::Geometry(
                "mesh too fine for vertex count".into(),
            ));
        }
        let Grid3D {
            i,
            j,
            k,
            row,
            col,
            fiber,
            ..
        } = Grid3D::new(ctx, q);
        // All ranks sharing my grid column j (size q²): the Y reduction.
        let jgroup = ctx.world.split(j as u64);
        // A blocks: rows block i, columns sub-block k of each column
        // block. Dense blocks: rows sub-block k of row block i, columns
        // block j of f.
        let (r0b, r1b) = block_range(n, q, i);
        let rsub = block_range(r1b - r0b, q, k);
        let (r0, r1) = (r0b + rsub.0, r0b + rsub.1);
        // SUMMA stage s of my mesh layer: the S block of grid column s,
        // the D block of grid row s.
        let stages: Vec<Stage> = (0..q)
            .map(|s| {
                let (cs0, cs1) = block_range(n, q, s);
                let ssub = block_range(cs1 - cs0, q, k);
                Stage {
                    s_root: s,
                    d_root: s,
                    span: (cs0 + ssub.0, cs0 + ssub.1),
                }
            })
            .collect();
        // Global row order: row block i, then sub-block k; the process row
        // of (i, k) is ranks k·q² + i·q + j over j.
        let output_ranks = (0..q)
            .flat_map(|i| (0..q).flat_map(move |k| (0..q).map(move |j| k * q * q + i * q + j)))
            .collect();
        let grid = Grid {
            row,
            col,
            jgroup: Some(jgroup),
            fiber: Some(fiber),
            fwd: Stages::new(&problem.adj_t, (r0b, r1b), stages.clone(), j),
            bwd: Stages::new(&problem.adj, (r0b, r1b), stages, j),
            transpose_nnz: None,
            output_ranks,
        };
        let (fc0, fc1) = block_range(problem.features.cols(), q, j);
        let h0 = problem.features.block(r0, r1, fc0, fc1);
        Ok(Trainer::new(ThreeDim(grid), problem, cfg, r0, h0))
    }
}

impl sealed::Sealed for ThreeDim {}

impl Layout for ThreeDim {
    fn family(&self) -> Family<'_> {
        Family::Grid(&self.0)
    }
}
