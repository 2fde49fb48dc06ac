//! Determinism, edge cases, and failure injection across the stack.

use cagnet::comm::{Cat, Cluster, CostModel};
use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet::core::{GcnConfig, Problem};
use cagnet::dense::Mat;
use cagnet::sparse::generate::erdos_renyi;
use cagnet::sparse::{Coo, Csr};
use std::time::Duration;

fn problem(n: usize, seed: u64) -> Problem {
    let g = erdos_renyi(n, 4.0, seed);
    Problem::synthetic(&g, 8, 3, 1.0, seed + 1)
}

fn gcn() -> GcnConfig {
    GcnConfig::three_layer(8, 6, 3)
}

#[test]
fn distributed_training_is_bitwise_deterministic_across_runs() {
    let p = problem(48, 1);
    let tc = TrainConfig {
        epochs: 4,
        ..Default::default()
    };
    let r1 = train_distributed(
        &p,
        &gcn(),
        Algorithm::TwoD,
        4,
        CostModel::summit_like(),
        &tc,
    );
    let r2 = train_distributed(
        &p,
        &gcn(),
        Algorithm::TwoD,
        4,
        CostModel::summit_like(),
        &tc,
    );
    // Bitwise equality: same summation orders in a deterministic runtime.
    assert_eq!(r1.losses, r2.losses);
    for (a, b) in r1.weights.iter().zip(&r2.weights) {
        assert_eq!(a, b);
    }
    assert_eq!(r1.embeddings, r2.embeddings);
    // And the modeled timelines are identical too.
    for (a, b) in r1.reports.iter().zip(&r2.reports) {
        assert_eq!(a.clock, b.clock);
        assert_eq!(a.comm_words(), b.comm_words());
    }
}

#[test]
fn weights_are_replicated_identically_across_ranks() {
    // Train, then verify every rank holds bitwise-identical weights by
    // checking the gathered embedding assembly agrees with a rank-0-only
    // forward (implicitly covered) — here we directly compare reports of
    // a run where each rank hashes its weights into a scalar allreduce.
    let p = problem(40, 2);
    let results = Cluster::new(4).run(|ctx| {
        let mut tr = cagnet::core::dist::onedim::OneDimTrainer::setup(ctx, &p, &gcn());
        for _ in 0..3 {
            tr.epoch(ctx);
        }
        // Checksum of local weights.
        tr.weights()
            .iter()
            .map(|w| w.as_slice().iter().sum::<f64>())
            .sum::<f64>()
    });
    let first = results[0].0;
    for (r, _) in &results {
        assert_eq!(*r, first, "weight checksum differs across ranks");
    }
}

#[test]
fn graph_with_isolated_vertices_trains() {
    // Isolated vertices produce empty adjacency rows/columns in some
    // blocks; self-loops from normalization keep them trainable.
    let mut coo = Coo::new(30, 30);
    for i in 0..10 {
        coo.push(i, i + 1, 1.0);
        coo.push(i + 1, i, 1.0);
    }
    // Vertices 12..30 are isolated.
    let g = Csr::from_coo(coo);
    let p = Problem::synthetic(&g, 5, 2, 1.0, 3);
    let cfg = GcnConfig {
        dims: vec![5, 4, 2],
        lr: 0.05,
        seed: 1,
    };
    let tc = TrainConfig {
        epochs: 3,
        ..Default::default()
    };
    for (algo, ranks) in [
        (Algorithm::OneD, 5),
        (Algorithm::TwoD, 9),
        (Algorithm::ThreeD, 8),
        (Algorithm::One5D { c: 2 }, 6),
    ] {
        let r = train_distributed(&p, &cfg, algo, ranks, CostModel::summit_like(), &tc);
        assert!(
            r.losses.iter().all(|l| l.is_finite()),
            "{}: non-finite loss",
            algo.name()
        );
    }
}

#[test]
fn single_vertex_per_rank_extreme() {
    // P == n: every rank owns exactly one vertex row.
    let p = problem(8, 5);
    let tc = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let r = train_distributed(
        &p,
        &gcn(),
        Algorithm::OneD,
        8,
        CostModel::summit_like(),
        &tc,
    );
    assert!(r.losses.iter().all(|l| l.is_finite()));
}

#[test]
fn unsupported_geometries_are_rejected() {
    assert!(!Algorithm::TwoD.supports(6));
    assert!(!Algorithm::ThreeD.supports(9));
    assert!(!Algorithm::One5D { c: 3 }.supports(8));
    assert!(Algorithm::TwoD.supports(49));
    assert!(Algorithm::ThreeD.supports(27));
    assert!(Algorithm::OneD.supports(13));
    // Zero ranks fit no geometry, though int_sqrt(0) == int_cbrt(0) ==
    // Some(0) and 0 is a multiple of every c.
    for algo in [
        Algorithm::OneD,
        Algorithm::OneDRow,
        Algorithm::One5D { c: 1 },
        Algorithm::One5D { c: 2 },
        Algorithm::TwoD,
        Algorithm::TwoDRect { pr: 0, pc: 0 },
        Algorithm::TwoDRect { pr: 0, pc: 3 },
        Algorithm::ThreeD,
    ] {
        assert!(!algo.supports(0), "{} must not support P=0", algo.name());
    }
}

#[test]
#[should_panic(expected = "does not support")]
fn wrong_geometry_panics() {
    let p = problem(30, 7);
    let tc = TrainConfig::default();
    let _ = train_distributed(
        &p,
        &gcn(),
        Algorithm::TwoD,
        6,
        CostModel::summit_like(),
        &tc,
    );
}

#[test]
fn misordered_collectives_are_detected() {
    // Rank 0 broadcasts while rank 1 tries an allreduce first: payload
    // type mismatch or deadlock must be detected, not silently wrong.
    let cluster = Cluster::new(2).with_timeout(Duration::from_millis(200));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster.run(|ctx| {
            if ctx.rank == 0 {
                let _ = ctx.world.bcast(0, Some(Mat::zeros(2, 2)), Cat::DenseComm);
            } else {
                let _ = ctx.world.allreduce_scalar(1.0, Cat::DenseComm);
            }
        })
    }));
    assert!(result.is_err(), "mismatched collective must panic");
}

#[test]
fn cost_model_variants_change_time_not_results() {
    let p = problem(36, 9);
    let tc = TrainConfig {
        epochs: 3,
        ..Default::default()
    };
    let fast = train_distributed(
        &p,
        &gcn(),
        Algorithm::TwoD,
        4,
        CostModel::free_network(),
        &tc,
    );
    let slow = train_distributed(
        &p,
        &gcn(),
        Algorithm::TwoD,
        4,
        CostModel::slow_network(),
        &tc,
    );
    // Numerics identical under any cost model...
    assert_eq!(fast.losses, slow.losses);
    // ...but the modeled clocks differ.
    let tf: f64 = fast.reports.iter().map(|r| r.clock).sum();
    let ts: f64 = slow.reports.iter().map(|r| r.clock).sum();
    assert!(ts > tf, "slow network should cost more modeled time");
}

#[test]
fn epoch_counters_reset_between_runs() {
    // Two sequential runs in fresh clusters must not leak state.
    let p = problem(30, 11);
    let tc = TrainConfig {
        epochs: 1,
        collect_outputs: false,
        ..Default::default()
    };
    let a = train_distributed(
        &p,
        &gcn(),
        Algorithm::OneD,
        3,
        CostModel::summit_like(),
        &tc,
    );
    let b = train_distributed(
        &p,
        &gcn(),
        Algorithm::OneD,
        3,
        CostModel::summit_like(),
        &tc,
    );
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.comm_words(), rb.comm_words());
        assert_eq!(ra.clock, rb.clock);
    }
}
