//! # cagnet-dense
//!
//! Dense linear-algebra substrate for the CAGNET reproduction: a row-major
//! `f64` matrix type, cache-blocked GEMM kernels (NN / TN / NT), elementwise
//! operations, the GCN activation functions, and seeded initializers.
//!
//! Everything is built from scratch (no BLAS): the paper's local dense
//! kernels are cuBLAS calls on V100s; here they are portable CPU kernels
//! whose costs are *modeled* by `cagnet-comm`'s compute model when run
//! inside the simulated cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod gemm;
pub mod init;
pub mod matrix;
pub mod ops;
pub mod reference;

pub use gemm::{
    matmul, matmul_acc, matmul_acc_with, matmul_nt, matmul_nt_acc, matmul_nt_acc_with,
    matmul_nt_with, matmul_tn, matmul_tn_acc, matmul_tn_acc_with, matmul_tn_with, matmul_with,
};
pub use matrix::Mat;
