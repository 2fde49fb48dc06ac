//! Cross-backend bit-identity: every trainer must produce *identical*
//! losses, weights, accuracy, and per-rank timelines (words, messages,
//! modeled seconds) whether ranks are threads sharing memory or real
//! worker processes exchanging framed bytes over Unix sockets.
//!
//! This is the socket transport's correctness contract: all collective
//! semantics live above the transport trait, and every `f64` crosses
//! the wire as its exact bit pattern, so nothing — not one ULP — may
//! differ. Each comparison runs a full training job twice (shared, then
//! socket) and asserts exact equality with `==`.

#![cfg(unix)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cagnet_comm::{Cat, CheckMode, Cluster, Precision, TransportKind};
use cagnet_core::dist::CommMode;
use cagnet_core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet_core::{GcnConfig, Problem};
use cagnet_dense::Mat;
use cagnet_sparse::generate::erdos_renyi;

fn small_problem() -> (Problem, GcnConfig) {
    let g = erdos_renyi(48, 3.0, 0xC0FFEE);
    let problem = Problem::synthetic(&g, 6, 3, 1.0, 7);
    let gcn = GcnConfig::three_layer(6, 8, 3);
    (problem, gcn)
}

/// Train once per backend and assert the results are bit-identical.
fn assert_bit_identical(algo: Algorithm, p: usize, comm_mode: CommMode, overlap: bool) {
    let (problem, gcn) = small_problem();
    assert_bit_identical_on(&problem, &gcn, algo, p, comm_mode, overlap);
}

fn assert_bit_identical_on(
    problem: &Problem,
    gcn: &GcnConfig,
    algo: Algorithm,
    p: usize,
    comm_mode: CommMode,
    overlap: bool,
) {
    let run = |transport| {
        let tc = TrainConfig {
            epochs: 3,
            comm_mode,
            overlap,
            transport: Some(transport),
            ..TrainConfig::default()
        };
        train_distributed(
            problem,
            gcn,
            algo,
            p,
            cagnet_comm::CostModel::summit_like(),
            &tc,
        )
    };
    let shared = run(TransportKind::Shared);
    let socket = run(TransportKind::Socket);

    // Losses and accuracy: exact equality, not tolerance.
    assert_eq!(shared.losses, socket.losses, "losses diverged");
    assert_eq!(shared.accuracy, socket.accuracy, "accuracy diverged");

    // Final weights, element-for-element.
    assert_eq!(shared.weights.len(), socket.weights.len());
    for (layer, (a, b)) in shared.weights.iter().zip(socket.weights.iter()).enumerate() {
        assert_eq!(a, b, "weights diverged at layer {layer}");
    }
    assert_eq!(shared.embeddings, socket.embeddings, "embeddings diverged");

    // Per-rank timelines: modeled clock, seconds, words, and messages
    // per category all compare equal (TimelineReport's PartialEq).
    assert_eq!(shared.reports.len(), socket.reports.len());
    for (rank, (a, b)) in shared.reports.iter().zip(socket.reports.iter()).enumerate() {
        assert_eq!(a, b, "rank {rank} timeline diverged");
        assert_eq!(
            a.clock.to_bits(),
            b.clock.to_bits(),
            "rank {rank} clock not bit-exact"
        );
    }
}

// ------------------------------------------------------------------
// 1D (column) trainer.
// ------------------------------------------------------------------

#[test]
fn oned_dense_p2() {
    assert_bit_identical(Algorithm::OneD, 2, CommMode::Dense, true);
}

#[test]
fn oned_dense_p4_no_overlap() {
    assert_bit_identical(Algorithm::OneD, 4, CommMode::Dense, false);
}

#[test]
fn oned_sparsity_aware_p4() {
    assert_bit_identical(Algorithm::OneD, 4, CommMode::SparsityAware, true);
}

/// Three receivers per gather on the world communicator, each sent only
/// the rows it asked for.
#[test]
fn oned_sparsity_aware_p4_no_overlap() {
    assert_bit_identical(Algorithm::OneD, 4, CommMode::SparsityAware, false);
}

/// `n = P`: every rank owns one vertex, and most requests are empty.
#[test]
fn oned_sparsity_aware_one_vertex_per_rank() {
    let g = erdos_renyi(4, 1.5, 0xD1CE);
    let problem = Problem::synthetic(&g, 6, 3, 1.0, 7);
    let gcn = GcnConfig::three_layer(6, 8, 3);
    for overlap in [true, false] {
        assert_bit_identical_on(
            &problem,
            &gcn,
            Algorithm::OneD,
            4,
            CommMode::SparsityAware,
            overlap,
        );
    }
}

// ------------------------------------------------------------------
// 1D (row) trainer.
// ------------------------------------------------------------------

#[test]
fn oned_row_dense_p2() {
    assert_bit_identical(Algorithm::OneDRow, 2, CommMode::Dense, true);
}

#[test]
fn oned_row_sparsity_aware_p4_no_overlap() {
    assert_bit_identical(Algorithm::OneDRow, 4, CommMode::SparsityAware, false);
}

// ------------------------------------------------------------------
// 1.5D trainer (replication factor 2).
// ------------------------------------------------------------------

#[test]
fn one5d_dense_p4() {
    assert_bit_identical(Algorithm::One5D { c: 2 }, 4, CommMode::Dense, true);
}

#[test]
fn one5d_sparsity_aware_p4() {
    assert_bit_identical(Algorithm::One5D { c: 2 }, 4, CommMode::SparsityAware, true);
}

#[test]
fn one5d_cached_p4() {
    let cached = CommMode::Cached { refresh: 2 };
    assert_bit_identical(Algorithm::One5D { c: 2 }, 4, cached, true);
    assert_bit_identical(Algorithm::One5D { c: 2 }, 4, cached, false);
}

// ------------------------------------------------------------------
// 2D (square and rectangular) trainer.
// ------------------------------------------------------------------

#[test]
fn twod_dense_p4() {
    assert_bit_identical(Algorithm::TwoD, 4, CommMode::Dense, true);
    assert_checked_split_collectives_bit_identical();
}

/// The hub sends no rank its own payload back; the client puts the
/// `Arc` it kept in that place. Pin that off the world communicator and
/// with fingerprints riding along (`CAGNET_CHECK=1` semantics): on two
/// split groups of two, every rank is root once — so it both keeps its
/// own block and decodes its peer's — across a broadcast, a row gather
/// and an all-reduce, bit-identically to the thread backend.
fn assert_checked_split_collectives_bit_identical() {
    let run = |transport| {
        Cluster::new(4)
            .with_transport(transport)
            .with_check(CheckMode::On)
            .run_wire(|ctx| {
                let sub = ctx.world.split((ctx.rank % 2) as u64);
                let me = sub.my_idx();
                let block = Arc::new(Mat::from_fn(6, 3, |i, j| {
                    (ctx.rank * 100 + i * 3 + j) as f64 / 7.0
                }));
                let mut seen = Vec::new();
                for root in 0..sub.size() {
                    let mine = (me == root).then(|| block.clone());
                    let got = sub.bcast_shared(root, mine.clone(), Cat::DenseComm);
                    if me == root {
                        assert!(Arc::ptr_eq(&got, &block), "root gets its own Arc back");
                    }
                    seen.extend_from_slice(got.as_slice());
                    let rows = sub.gather_rows(root, mine, &[1, 4], Some((6, 3)), Cat::DenseComm);
                    seen.extend_from_slice(rows.mat().as_slice());
                }
                let sum = sub.allreduce_mat(&block, Cat::DenseComm);
                seen.extend_from_slice(sum.as_slice());
                seen.push(
                    ctx.world
                        .allreduce_scalar(seen.iter().sum(), Cat::DenseComm),
                );
                seen.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
            })
    };
    let shared = run(TransportKind::Shared);
    let socket = run(TransportKind::Socket);
    assert_eq!(shared.len(), socket.len());
    for (rank, ((a, arep), (b, brep))) in shared.iter().zip(socket.iter()).enumerate() {
        assert_eq!(a, b, "rank {rank} values diverged");
        assert_eq!(arep, brep, "rank {rank} timeline diverged");
        assert_eq!(arep.clock.to_bits(), brep.clock.to_bits());
    }
}

#[test]
fn twod_sparsity_aware_p4_no_overlap() {
    assert_bit_identical(Algorithm::TwoD, 4, CommMode::SparsityAware, false);
}

#[test]
fn twod_sparsity_aware_p4() {
    assert_bit_identical(Algorithm::TwoD, 4, CommMode::SparsityAware, true);
}

#[test]
fn twod_rect_dense_p2() {
    assert_bit_identical(
        Algorithm::TwoDRect { pr: 2, pc: 1 },
        2,
        CommMode::Dense,
        true,
    );
}

// ------------------------------------------------------------------
// 3D trainer.
// ------------------------------------------------------------------

#[test]
fn threed_dense_p8() {
    assert_bit_identical(Algorithm::ThreeD, 8, CommMode::Dense, true);
}

#[test]
fn threed_sparsity_aware_p8() {
    assert_bit_identical(Algorithm::ThreeD, 8, CommMode::SparsityAware, true);
}

// ------------------------------------------------------------------
// Degenerate world: P=1 never spawns processes but must still work
// through the socket-configured path.
// ------------------------------------------------------------------

#[test]
fn single_rank_socket_config_runs_in_process() {
    assert_bit_identical(Algorithm::OneD, 1, CommMode::Dense, true);
}

// ------------------------------------------------------------------
// Served row gathers, collective by collective.
// ------------------------------------------------------------------

/// Every rank serves a 7 × 3 block once, blocking and nonblocking, to
/// receivers whose requests differ — one of them empty — at `precision`;
/// the rows, and the timelines, must match the thread backend bit for
/// bit.
fn assert_served_rows_bit_identical(precision: Precision) {
    let run = |transport| {
        Cluster::new(4)
            .with_transport(transport)
            .with_precision(precision)
            .run_wire(|ctx| {
                let block = Arc::new(Mat::from_fn(7, 3, |i, j| {
                    (ctx.rank * 100 + i * 3 + j) as f64 / 7.0
                }));
                let mut seen = Vec::new();
                for root in 0..4 {
                    // Rank (root + 2) % 4 asks for nothing.
                    let needed: Vec<usize> = match (ctx.rank + 4 - root) % 4 {
                        2 => vec![],
                        d => (0..7).filter(|r| r % d.max(1) == 0).collect(),
                    };
                    let mine = (ctx.rank == root).then(|| block.clone());
                    let a = ctx.world.gather_rows(
                        root,
                        mine.clone(),
                        &needed,
                        Some((7, 3)),
                        Cat::DenseComm,
                    );
                    let b = ctx
                        .world
                        .igather_rows(root, mine, &needed, Some((7, 3)), Cat::DenseComm)
                        .wait();
                    for got in [a, b] {
                        let mut rows = Mat::zeros(0, 0);
                        got.compact_into(&needed, &mut rows);
                        assert_eq!(rows.shape(), (needed.len(), 3));
                        seen.extend(rows.as_slice().iter().map(|x| x.to_bits()));
                    }
                }
                seen
            })
    };
    let shared = run(TransportKind::Shared);
    let socket = run(TransportKind::Socket);
    for (rank, ((a, arep), (b, brep))) in shared.iter().zip(socket.iter()).enumerate() {
        assert_eq!(a, b, "{precision:?}: rank {rank} rows diverged");
        assert_eq!(arep, brep, "{precision:?}: rank {rank} timeline diverged");
        assert_eq!(arep.clock.to_bits(), brep.clock.to_bits());
    }
}

#[test]
fn served_rows_are_bit_identical_at_every_precision() {
    for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
        assert_served_rows_bit_identical(precision);
    }
}

/// A receiver that declared the wrong block dims is stopped by the
/// runtime check even with `CheckMode` off, from the head of its part.
#[test]
#[should_panic(expected = "receiver-declared dims")]
fn gather_rows_rejects_wrong_expected_dims_over_sockets() {
    Cluster::new(2)
        .with_transport(TransportKind::Socket)
        .with_check(CheckMode::Off)
        .run_wire(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(4, 3)));
            let expect = Some(if ctx.rank == 0 { (4, 3) } else { (5, 3) });
            ctx.world
                .gather_rows(0, payload, &[1], expect, Cat::DenseComm);
        });
}

/// A root serving a wrong-shaped panel is named by the fingerprints of
/// the request round, before a row is served.
#[test]
fn gather_rows_root_shape_mismatch_is_caught_over_sockets() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        Cluster::new(4)
            .with_transport(TransportKind::Socket)
            .with_check(CheckMode::On)
            .run_wire(|ctx| {
                let payload = (ctx.rank == 1).then(|| Arc::new(Mat::zeros(5, 3)));
                ctx.world
                    .gather_rows(1, payload, &[0, 2], Some((6, 3)), Cat::DenseComm);
            })
    }))
    .expect_err("a mis-shaped root panel must fail the checked run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "(non-string panic)".to_string());
    assert!(msg.contains("collective fingerprint mismatch"), "{msg}");
    assert!(
        msg.contains("gather_rows") && msg.contains("rank 1"),
        "{msg}"
    );
}
