//! # cagnet-core
//!
//! The paper's primary contribution, reimplemented in Rust: the CAGNET
//! family of communication-avoiding parallel GCN training algorithms —
//! 1D block-row (Alg. 1), 1.5D replicated block-row (§IV-B), 2D SUMMA
//! (Alg. 2), and Split-3D-SpMM (§IV-D) — plus the serial reference
//! trainer, the masked-NLL loss, closed-form α–β communication-cost
//! analysis for every variant, and a uniform training driver running on
//! the simulated cluster of `cagnet-comm`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analysis;
pub mod checkpoint;
pub mod dist;
pub mod dropout;
pub mod loss;
pub mod model;
pub mod optimizer;
pub mod problem;
pub mod sampling;
pub mod serial;
pub mod trainer;

pub use model::GcnConfig;
pub use optimizer::{Optimizer, OptimizerKind};
pub use problem::Problem;
pub use serial::SerialTrainer;
pub use trainer::{
    train_distributed, Algorithm, CommMode, DistTrainResult, PartitionSpec, TrainConfig,
};
