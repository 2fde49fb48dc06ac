//! What rank 0 of each trainer computes and moves in one epoch, as a list
//! of kernel calls at its local block shapes.
//!
//! The trainers give no per-kernel wall-clock, and this benchmark adds no
//! instrumentation inside `crates/`, so the kernel layers are measured by
//! replaying these calls in isolation. Each list mirrors the `charge_spmm`
//! / `charge_gemm` calls of the trainer it describes, so the decomposition
//! is written down twice. `modeled_seconds` prices a plan with the same
//! cost model, and the traced run fails (so does `tests/schema.rs`) when
//! that no longer `prices_to` what the trainer charged rank 0: a stale
//! plan cannot pass for a measurement.

use crate::workloads::Workload;
use cagnet_comm::CostModel;
use cagnet_core::trainer::Algorithm;
use cagnet_core::{GcnConfig, Problem};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::{Coo, Csr};

/// One kind of local kernel call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// `spmm_acc(panel, B)` with `B` of `panel.cols() x width`.
    SpmmAcc { panel: usize, width: usize },
    /// `outer_product_from_transposed(panel, G)` with `G` of
    /// `panel.rows() x width`.
    OuterT { panel: usize, width: usize },
    /// `matmul_acc(A, B)`: `m x k` by `k x n`.
    Matmul { m: usize, k: usize, n: usize },
    /// `matmul_tn(A, B)`: `A` is `r x m`, `B` is `r x n`.
    MatmulTn { r: usize, m: usize, n: usize },
    /// `matmul_nt(A, B)`: `A` is `m x k`, `B` is `n x k`.
    MatmulNt { m: usize, k: usize, n: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub kernel: Kernel,
    pub per_epoch: usize,
}

/// Shapes of the collectives the trainer's forward stages issue.
#[derive(Clone, Debug)]
pub struct CommShapes {
    /// The dense block one forward stage broadcasts at layer 0.
    pub block: (usize, usize),
    /// Rows of that block rank 0 reads from a remote stage (what
    /// `gather_rows` requests).
    pub needed: Vec<usize>,
    /// The weight-gradient matrix the backward pass all-reduces.
    pub grad: (usize, usize),
}

pub struct Plan {
    pub panels: Vec<Csr>,
    pub calls: Vec<Call>,
    pub comm: CommShapes,
    /// Rank 0's resident adjacency block (what set-up transposes).
    pub local_block: usize,
}

impl Plan {
    fn panel(&mut self, p: Csr) -> usize {
        self.panels.push(p);
        self.panels.len() - 1
    }

    fn add(&mut self, kernel: Kernel) {
        match self.calls.iter_mut().find(|c| c.kernel == kernel) {
            Some(c) => c.per_epoch += 1,
            None => self.calls.push(Call {
                kernel,
                per_epoch: 1,
            }),
        }
    }

    /// Floating-point operations of one call (multiply-add = 2).
    pub fn flops(&self, k: Kernel) -> f64 {
        match k {
            Kernel::SpmmAcc { panel, width } | Kernel::OuterT { panel, width } => {
                2.0 * self.panels[panel].nnz() as f64 * width as f64
            }
            Kernel::Matmul { m, k, n } | Kernel::MatmulNt { m, k, n } => {
                2.0 * m as f64 * k as f64 * n as f64
            }
            Kernel::MatmulTn { r, m, n } => 2.0 * r as f64 * m as f64 * n as f64,
        }
    }

    pub fn is_sparse(k: Kernel) -> bool {
        matches!(k, Kernel::SpmmAcc { .. } | Kernel::OuterT { .. })
    }

    /// `(spmm, gemm)` seconds per epoch the cost model charges for this
    /// plan: equal to rank 0's `Cat::Spmm` / `Cat::Gemm` timeline seconds
    /// when the plan matches the trainer.
    pub fn modeled_seconds(&self, model: &CostModel) -> (f64, f64) {
        let (mut spmm, mut gemm) = (0.0, 0.0);
        for c in &self.calls {
            let n = c.per_epoch as f64;
            match c.kernel {
                Kernel::SpmmAcc { panel, width } | Kernel::OuterT { panel, width } => {
                    let a = &self.panels[panel];
                    spmm += n * model.spmm_time(a.nnz(), a.rows(), width);
                }
                Kernel::Matmul { m, k, n: cols } => gemm += n * model.gemm_time(m, k, cols),
                Kernel::MatmulTn { r, m, n: cols } => gemm += n * model.gemm_time(m, r, cols),
                Kernel::MatmulNt { m, k, n: cols } => gemm += n * model.gemm_time(m, k, cols),
            }
        }
        (spmm, gemm)
    }
}

/// Whether a plan's modeled seconds equal the seconds the trainer charged
/// rank 0, up to the order the terms were summed in.
pub fn prices_to(planned: f64, charged: f64) -> bool {
    (planned - charged).abs() <= 1e-6 * charged.abs()
}

/// In the sparse-exchange tiers the trainers multiply column-compacted
/// panels against the gathered rows only.
fn stage_panel(wl: &Workload, a: Csr) -> Csr {
    if matches!(wl.comm_mode, cagnet_core::CommMode::Dense) {
        a
    } else {
        let needed = a.needed_cols();
        a.compact_cols(&needed)
    }
}

/// Rank 0's per-epoch kernel calls for `wl` on `problem` (the problem the
/// trainer actually sees, i.e. after any relabeling).
pub fn rank0_plan(wl: &Workload, problem: &Problem, gcn: &GcnConfig) -> Plan {
    let n = problem.vertices();
    let p = wl.ranks;
    let dims = &gcn.dims;
    let layers = gcn.layers();
    let mut plan = Plan {
        panels: Vec::new(),
        calls: Vec::new(),
        comm: CommShapes {
            block: (0, 0),
            needed: Vec::new(),
            grad: (dims[0], dims[1]),
        },
        local_block: 0,
    };
    match wl.algo {
        // onedim.rs: P broadcast stages of Aᵀ_{0j} H_j, one GEMM against W;
        // backward is the full-height outer product plus two GEMMs.
        Algorithm::OneD => {
            let (r0, r1) = block_range(n, p, 0);
            let rows = r1 - r0;
            let at_row = problem.adj_t.block(r0, r1, 0, n);
            let stages: Vec<usize> = block_ranges(n, p)
                .into_iter()
                .map(|(c0, c1)| {
                    let a = at_row.block(0, rows, c0, c1);
                    if c0 == block_range(n, p, 1 % p).0 {
                        plan.comm.needed = a.needed_cols();
                        plan.comm.block = (c1 - c0, dims[0]);
                    }
                    plan.panel(stage_panel(wl, a))
                })
                .collect();
            let full = plan.panel(at_row);
            plan.local_block = full;
            for l in 0..layers {
                let (f_in, f_out) = (dims[l], dims[l + 1]);
                for &s in &stages {
                    plan.add(Kernel::SpmmAcc {
                        panel: s,
                        width: f_in,
                    });
                }
                plan.add(Kernel::Matmul {
                    m: rows,
                    k: f_in,
                    n: f_out,
                });
                plan.add(Kernel::OuterT {
                    panel: full,
                    width: f_out,
                });
                plan.add(Kernel::MatmulTn {
                    r: rows,
                    m: f_in,
                    n: f_out,
                });
                if l > 0 {
                    plan.add(Kernel::MatmulNt {
                        m: rows,
                        k: f_out,
                        n: f_in,
                    });
                }
            }
        }
        // one5d.rs: rank 0 is team 0, replica 0. P/c stages over the fine
        // column blocks ≡ 0 (mod c) of its coarse row block; the backward
        // outer product uses the same column slices concatenated.
        Algorithm::One5D { c } => {
            let p1 = p / c;
            let fine = block_ranges(n, p);
            let (cr0, cr1) = (fine[0].0, fine[c - 1].1);
            let coarse_rows = cr1 - cr0;
            let fine_rows = fine[0].1 - fine[0].0;
            let at_coarse = problem.adj_t.block(cr0, cr1, 0, n);
            let slices: Vec<Csr> = (0..p1)
                .map(|ip| {
                    let (b0, b1) = fine[ip * c];
                    at_coarse.block(0, coarse_rows, b0, b1)
                })
                .collect();
            let remote = &slices[1 % p1];
            plan.comm.needed = remote.needed_cols();
            plan.comm.block = (remote.cols(), dims[0]);
            let mut coo = Coo::new(coarse_rows, slices.iter().map(Csr::cols).sum());
            let mut col_off = 0;
            for blk in &slices {
                for row in 0..blk.rows() {
                    for (col, v) in blk.row_entries(row) {
                        coo.push(row, col_off + col, v);
                    }
                }
                col_off += blk.cols();
            }
            let at_bwd = plan.panel(Csr::from_coo(coo));
            let stages: Vec<usize> = slices
                .into_iter()
                .map(|a| plan.panel(stage_panel(wl, a)))
                .collect();
            plan.local_block = plan.panel(at_coarse);
            for l in 0..layers {
                let (f_in, f_out) = (dims[l], dims[l + 1]);
                for &s in &stages {
                    plan.add(Kernel::SpmmAcc {
                        panel: s,
                        width: f_in,
                    });
                }
                plan.add(Kernel::Matmul {
                    m: fine_rows,
                    k: f_in,
                    n: f_out,
                });
                plan.add(Kernel::OuterT {
                    panel: at_bwd,
                    width: f_out,
                });
                plan.add(Kernel::MatmulTn {
                    r: fine_rows,
                    m: f_in,
                    n: f_out,
                });
                if l > 0 {
                    plan.add(Kernel::MatmulNt {
                        m: fine_rows,
                        k: f_out,
                        n: f_in,
                    });
                }
            }
        }
        // twodim.rs / threedim.rs: rank 0 is grid position (0,0[,0]). Both
        // run `q` SUMMA stages of (sparse panel) x (dense panel of width
        // f/q) forward with Aᵀ and backward with A, `q` partial-W GEMM
        // stages, and two slab GEMMs per backward layer. 2D panels are
        // n/q x n/q and its dense rows n/q; 3D splits both once more.
        Algorithm::TwoD | Algorithm::ThreeD => {
            let q = wl.algo.row_groups(p);
            let three_d = wl.algo == Algorithm::ThreeD;
            let (r0, r1) = block_range(n, q, 0);
            let stage_cols = |s: usize| {
                let (c0, c1) = block_range(n, q, s);
                if three_d {
                    let sub = block_range(c1 - c0, q, 0);
                    (c0 + sub.0, c0 + sub.1)
                } else {
                    (c0, c1)
                }
            };
            let my_rows = if three_d {
                let sub = block_range(r1 - r0, q, 0);
                sub.1 - sub.0
            } else {
                r1 - r0
            };
            let f_part = |f: usize, j: usize| {
                let (a, b) = block_range(f, q, j);
                b - a
            };
            let mut fwd = Vec::new();
            let mut bwd = Vec::new();
            for s in 0..q {
                let (c0, c1) = stage_cols(s);
                let at = problem.adj_t.block(r0, r1, c0, c1);
                if s == 1 % q {
                    plan.comm.needed = at.needed_cols();
                    plan.comm.block = (c1 - c0, f_part(dims[0], 0));
                }
                if s == 0 {
                    plan.local_block = plan.panel(at.clone());
                }
                fwd.push(plan.panel(stage_panel(wl, at)));
                bwd.push(plan.panel(stage_panel(wl, problem.adj.block(r0, r1, c0, c1))));
            }
            plan.comm.grad = (f_part(dims[0], 0), dims[1]);
            for l in 0..layers {
                let (f_in, f_out) = (dims[l], dims[l + 1]);
                for s in 0..q {
                    plan.add(Kernel::SpmmAcc {
                        panel: fwd[s],
                        width: f_part(f_in, 0),
                    });
                    plan.add(Kernel::SpmmAcc {
                        panel: bwd[s],
                        width: f_part(f_out, 0),
                    });
                    plan.add(Kernel::Matmul {
                        m: my_rows,
                        k: f_part(f_in, s),
                        n: f_part(f_out, 0),
                    });
                }
                plan.add(Kernel::MatmulTn {
                    r: my_rows,
                    m: f_part(f_in, 0),
                    n: f_out,
                });
                if l > 0 {
                    plan.add(Kernel::MatmulNt {
                        m: my_rows,
                        k: f_out,
                        n: f_part(f_in, 0),
                    });
                }
            }
        }
        other => panic!("no workload trains with {}", other.name()),
    }
    plan
}
