//! Cached-mode collectives under the watchdog: every rank must agree,
//! epoch by epoch, on whether a halo exchange is a *refresh* gather
//! (`gather_rows_refresh` / `igather_rows_refresh` fingerprint kinds) or
//! skipped entirely — over both the shared-memory and socket transports.
//! A rank serving stale cache while a peer refreshes would be a
//! fingerprint mismatch, not a silent numeric divergence; these runs
//! must complete clean and bit-identically across backends.
//!
//! `CAGNET_CHECK` is set process-wide here: every test in this binary
//! wants the watchdog on, and socket workers (re-executions of this binary)
//! inherit it.

#![cfg(unix)]

use cagnet::comm::{CostModel, TransportKind};
use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet::core::{CommMode, GcnConfig, Problem};
use cagnet::sparse::generate::erdos_renyi;

fn checked_cached_run(algo: Algorithm, p: usize, refresh: usize) {
    std::env::set_var("CAGNET_CHECK", "1");
    let g = erdos_renyi(48, 3.0, 0xBEEF);
    let problem = Problem::synthetic(&g, 6, 3, 1.0, 7);
    let gcn = GcnConfig::three_layer(6, 8, 3);
    let run = |transport| {
        let tc = TrainConfig {
            epochs: 4,
            comm_mode: CommMode::Cached { refresh },
            transport: Some(transport),
            ..TrainConfig::default()
        };
        train_distributed(&problem, &gcn, algo, p, CostModel::summit_like(), &tc)
    };
    let shared = run(TransportKind::Shared);
    let socket = run(TransportKind::Socket);
    assert_eq!(shared.losses, socket.losses, "losses diverged");
    assert_eq!(shared.accuracy, socket.accuracy, "accuracy diverged");
    assert_eq!(shared.weights, socket.weights, "weights diverged");
    for (rank, (a, b)) in shared.reports.iter().zip(socket.reports.iter()).enumerate() {
        assert_eq!(a, b, "rank {rank} timeline diverged");
    }
}

#[test]
fn oned_cached_checkmode_both_transports() {
    checked_cached_run(Algorithm::OneD, 2, 2);
}

#[test]
fn oned_row_cached_checkmode_both_transports() {
    checked_cached_run(Algorithm::OneDRow, 4, 2);
}

#[test]
fn one5d_cached_checkmode_both_transports() {
    checked_cached_run(Algorithm::One5D { c: 2 }, 4, 3);
}

#[test]
fn twod_cached_checkmode_both_transports() {
    checked_cached_run(Algorithm::TwoD, 4, 2);
}

#[test]
fn threed_cached_checkmode_both_transports() {
    checked_cached_run(Algorithm::ThreeD, 8, 2);
}
