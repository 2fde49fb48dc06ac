//! # cagnet-comm
//!
//! A deterministic simulated distributed runtime: `P` ranks as threads,
//! MPI-style communicators with split, bulk-synchronous collectives
//! (broadcast, row gather, all-gather, all-reduce, reduce-scatter,
//! barrier), 2D/3D process grids, and an α–β + local-kernel cost model
//! that meters every operation onto per-rank timelines.
//!
//! This substrate replaces the paper's Summit + NCCL + torch.distributed
//! stack (see DESIGN.md §1 for the substitution argument): the algorithms
//! execute their real data movement through shared memory, while modeled
//! time and word counters reproduce the quantities the paper analyzes and
//! plots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cluster;
pub mod comm;
pub mod cost;
mod diag;
pub mod frame;
pub mod grid;
mod lock;
#[cfg(unix)]
mod proc;
pub mod timeline;
pub mod trace;
pub mod transport;

pub use cagnet_check::CheckMode;
pub use cluster::{Cluster, Ctx};
pub use comm::{Communicator, GatheredRows, PendingOp};
pub use cost::{Cat, CommWords, CostModel, ALL_CATS, NUM_CATS};
pub use frame::{PackedMat, Precision, Wire};
pub use grid::{Grid2D, Grid3D};
#[cfg(unix)]
pub use proc::connect_with_retry;
pub use timeline::{Timeline, TimelineReport};
pub use transport::TransportKind;
