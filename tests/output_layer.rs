//! The backward never reads probabilities that belong to another `Z^L`
//! (DESIGN.md §14).
//!
//! A training forward keeps the output probabilities for its backward;
//! an inference forward — `forward()` called directly, or inside
//! `accuracy()` — computes `log p` only. `forward` and `backward` are
//! both public, so a bare `forward(); backward()` must still take the
//! same step as `epoch()`: the backward finds no kept probabilities and
//! rebuilds them from the stored `Z^L` through the same row kernel. Three
//! trainers per geometry — `epoch()` only, bare `forward(); backward()`,
//! and `epoch()` with `accuracy()` / `forward()` passes in between — must
//! report the same losses and end on the same weight bits.

mod common;

use cagnet::comm::Cluster;
use cagnet::core::trainer::Algorithm;
use cagnet::core::{GcnConfig, Problem, SerialTrainer};
use cagnet::dense::Mat;
use cagnet::sparse::generate::erdos_renyi;
use common::{AnyTrainer, Setup};

const STEPS: usize = 3;

fn bits(weights: &[Mat]) -> Vec<Vec<u64>> {
    weights
        .iter()
        .map(|w| w.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn problem() -> (Problem, GcnConfig) {
    // 6 classes: two or three columns per 2D / 3D block.
    let problem = Problem::synthetic(&erdos_renyi(48, 4.0, 21), 7, 6, 0.8, 22);
    (problem, GcnConfig::three_layer(7, 5, 6))
}

#[test]
fn bare_forward_backward_and_interleaved_inference_match_epoch() {
    let (problem, gcn) = problem();
    let geometries = [
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
        (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
        (Algorithm::ThreeD, 8),
    ];
    for (algo, p) in geometries {
        let per_rank = Cluster::new(p).run(|ctx| {
            let setup = || AnyTrainer::setup(ctx, algo, &problem, &gcn);
            let (mut by_epoch, mut bare, mut interleaved) = (setup(), setup(), setup());
            let mut same = true;
            for _ in 0..STEPS {
                let loss = by_epoch.epoch(ctx).to_bits();
                let bare_loss = bare.forward(ctx).to_bits();
                bare.backward(ctx);
                let _ = interleaved.accuracy(ctx);
                let interleaved_loss = interleaved.epoch(ctx).to_bits();
                let _ = interleaved.forward(ctx);
                same &= loss == bare_loss && loss == interleaved_loss;
            }
            let want = bits(by_epoch.weights());
            same && want == bits(bare.weights()) && want == bits(interleaved.weights())
        });
        for (rank, (same, _)) in per_rank.iter().enumerate() {
            assert!(same, "{} P={p}, rank {rank}", algo.name());
        }
    }
}

#[test]
fn serial_bare_forward_backward_matches_epoch() {
    let (problem, gcn) = problem();
    let mut by_epoch = SerialTrainer::new(&problem, gcn.clone());
    let mut bare = SerialTrainer::new(&problem, gcn);
    for _ in 0..STEPS {
        let loss = by_epoch.epoch();
        let _ = bare.accuracy();
        assert_eq!(bare.forward().to_bits(), loss.to_bits());
        bare.backward();
    }
    assert_eq!(bits(bare.weights()), bits(by_epoch.weights()));
}
