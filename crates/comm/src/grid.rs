//! Process-grid geometries and their sub-communicators.
//!
//! The 2D algorithm (§IV-C) organizes `P = Pr × Pc` ranks on a grid with
//! per-row and per-column broadcast groups (SUMMA); the 3D algorithm
//! (§IV-D) uses a `q × q × q` mesh whose 2D planes are "layers" and whose
//! third-dimension groups are "fibers".

use crate::cluster::Ctx;
use crate::comm::Communicator;

/// A 2D process grid: rank `r` sits at row `i = r / pc`, column
/// `j = r % pc`.
pub struct Grid2D {
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// This rank's grid row.
    pub i: usize,
    /// This rank's grid column.
    pub j: usize,
    /// Communicator over this rank's grid row (size `pc`) — used for
    /// `BCAST(A_ic, P(i, :))`.
    pub row: Communicator,
    /// Communicator over this rank's grid column (size `pr`) — used for
    /// `BCAST(H_rj, P(:, j))`.
    pub col: Communicator,
}

impl Grid2D {
    /// Build the grid from a context. All ranks must call this at the same
    /// point. `pr * pc` must equal the world size.
    pub fn new(ctx: &Ctx, pr: usize, pc: usize) -> Self {
        assert_eq!(pr * pc, ctx.size, "grid {pr}x{pc} != world {}", ctx.size);
        let i = ctx.rank / pc;
        let j = ctx.rank % pc;
        // Two splits, same order on every rank.
        let row = ctx.world.split(i as u64);
        let col = ctx.world.split(j as u64);
        debug_assert_eq!(row.size(), pc);
        debug_assert_eq!(col.size(), pr);
        Grid2D {
            pr,
            pc,
            i,
            j,
            row,
            col,
        }
    }

    /// Square grid of side `√P`; panics if `P` is not a perfect square.
    pub fn square(ctx: &Ctx) -> Self {
        let q = int_sqrt(ctx.size)
            .unwrap_or_else(|| panic!("world size {} is not a perfect square", ctx.size));
        Self::new(ctx, q, q)
    }
}

/// A 3D process mesh of side `q` (`P = q³`): rank
/// `r = k·q² + i·q + j` sits at layer `k`, layer-row `i`, layer-column
/// `j`.
pub struct Grid3D {
    /// Mesh side.
    pub q: usize,
    /// Layer-row index.
    pub i: usize,
    /// Layer-column index.
    pub j: usize,
    /// Layer index.
    pub k: usize,
    /// Communicator over the layer row `(i, :, k)` (size `q`).
    pub row: Communicator,
    /// Communicator over the layer column `(:, j, k)` (size `q`).
    pub col: Communicator,
    /// Communicator over the fiber `(i, j, :)` (size `q`) — the
    /// third-dimension reduction group of Split-3D-SpMM.
    pub fiber: Communicator,
}

impl Grid3D {
    /// Build the mesh; `q³` must equal the world size.
    pub fn new(ctx: &Ctx, q: usize) -> Self {
        assert_eq!(q * q * q, ctx.size, "mesh {q}^3 != world {}", ctx.size);
        let k = ctx.rank / (q * q);
        let rem = ctx.rank % (q * q);
        let i = rem / q;
        let j = rem % q;
        let row = ctx.world.split((k * q + i) as u64);
        let col = ctx.world.split((k * q + j) as u64);
        let fiber = ctx.world.split((i * q + j) as u64);
        debug_assert_eq!(row.size(), q);
        debug_assert_eq!(col.size(), q);
        debug_assert_eq!(fiber.size(), q);
        Grid3D {
            q,
            i,
            j,
            k,
            row,
            col,
            fiber,
        }
    }

    /// Cube mesh from the world size; panics if `P` is not a perfect cube.
    pub fn cube(ctx: &Ctx) -> Self {
        let q = int_cbrt(ctx.size)
            .unwrap_or_else(|| panic!("world size {} is not a perfect cube", ctx.size));
        Self::new(ctx, q)
    }
}

/// Exact integer square root, if `n` is a perfect square.
pub fn int_sqrt(n: usize) -> Option<usize> {
    let r = (n as f64).sqrt().round() as usize;
    (r.saturating_sub(1)..=r + 1).find(|&c| c * c == n)
}

/// Exact integer cube root, if `n` is a perfect cube.
pub fn int_cbrt(n: usize) -> Option<usize> {
    let r = (n as f64).cbrt().round() as usize;
    (r.saturating_sub(1)..=r + 1).find(|&c| c * c * c == n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::cost::Cat;
    use std::sync::Arc;

    #[test]
    fn int_roots() {
        assert_eq!(int_sqrt(36), Some(6));
        assert_eq!(int_sqrt(35), None);
        assert_eq!(int_sqrt(1), Some(1));
        assert_eq!(int_cbrt(27), Some(3));
        assert_eq!(int_cbrt(26), None);
        assert_eq!(int_cbrt(64), Some(4));
    }

    #[test]
    fn grid2d_row_col_membership() {
        let results = Cluster::new(6).run(|ctx| {
            let g = Grid2D::new(ctx, 2, 3);
            let row_members = g
                .row
                .allgather(Arc::new(vec![ctx.rank as f64]), Cat::DenseComm)
                .iter()
                .map(|v| v[0] as usize)
                .collect::<Vec<_>>();
            let col_members = g
                .col
                .allgather(Arc::new(vec![ctx.rank as f64]), Cat::DenseComm)
                .iter()
                .map(|v| v[0] as usize)
                .collect::<Vec<_>>();
            (g.i, g.j, row_members, col_members)
        });
        for (rank, ((i, j, row, col), _)) in results.iter().enumerate() {
            assert_eq!(rank, i * 3 + j);
            let expect_row: Vec<usize> = (0..3).map(|jj| i * 3 + jj).collect();
            let expect_col: Vec<usize> = (0..2).map(|ii| ii * 3 + j).collect();
            assert_eq!(*row, expect_row);
            assert_eq!(*col, expect_col);
        }
    }

    #[test]
    fn grid3d_fiber_membership() {
        let results = Cluster::new(8).run(|ctx| {
            let g = Grid3D::new(ctx, 2);
            let fiber = g
                .fiber
                .allgather(Arc::new(vec![ctx.rank as f64]), Cat::DenseComm)
                .iter()
                .map(|v| v[0] as usize)
                .collect::<Vec<_>>();
            (g.i, g.j, g.k, fiber)
        });
        for (rank, ((i, j, k, fiber), _)) in results.iter().enumerate() {
            assert_eq!(rank, k * 4 + i * 2 + j);
            let expect: Vec<usize> = (0..2).map(|kk| kk * 4 + i * 2 + j).collect();
            assert_eq!(*fiber, expect);
        }
    }

    #[test]
    #[should_panic(expected = "not a perfect square")]
    fn square_grid_rejects_nonsquare() {
        Cluster::new(3).run(|ctx| {
            let _ = Grid2D::square(ctx);
        });
    }
}
