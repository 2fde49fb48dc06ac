//! # cagnet-sparse
//!
//! Sparse-matrix and graph substrate for the CAGNET reproduction: COO/CSR
//! formats, SpMM (plain and semiring-generic), GCN normalization, seeded
//! Erdős–Rényi and R-MAT generators, block partitioning onto 1D/2D/3D
//! process geometries, edge-cut metrics, a from-scratch graph partitioner
//! (the METIS stand-in for the paper's §IV-A.8 experiment), and synthetic
//! stand-ins for the paper's Table VI datasets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coo;
pub mod csr;
pub mod datasets;
pub mod dcsr;
pub mod edgecut;
pub mod generate;
pub mod io;
pub mod normalize;
pub mod partition;
pub mod partitioner;
pub mod reference;
pub mod relabel;
pub mod spgemm;
pub mod spmm;

/// The thread budget the `_with` / `_scratch` kernels take.
pub use cagnet_parallel::ParallelCtx;
pub use coo::Coo;
pub use csr::Csr;
pub use dcsr::Dcsr;
pub use spgemm::spgemm;
pub use spmm::{spmm, spmm_acc, spmm_semiring};
