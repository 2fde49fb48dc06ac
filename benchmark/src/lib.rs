//! The pieces of the repository benchmark; `main.rs` is the command line
//! over them and `tests/schema.rs` checks them against BENCHMARK.json.
//! See README.md in this directory.

pub mod child;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod plan;
mod proc;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
