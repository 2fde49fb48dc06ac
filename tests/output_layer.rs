//! The backward never reads probabilities that belong to another `Z^L`
//! (DESIGN.md §14).
//!
//! A training forward keeps the output probabilities for its backward;
//! an inference forward — `forward()` called directly, or inside
//! `accuracy()` — computes `log p` only. `forward` and `backward` are
//! both public, so a bare `forward(); backward()` must still take the
//! same step as `epoch()`: the backward finds no kept probabilities and
//! rebuilds them from the stored `Z^L` and the per-row statistics the
//! forward kept, through the same kernel and without communicating. Three
//! trainers per geometry — `epoch()` only, bare `forward(); backward()`,
//! and `epoch()` with `accuracy()` / `forward()` passes in between — must
//! report the same losses and end on the same weight bits, and the bare
//! path must meter no more `DenseComm` messages than `epoch()`.
//!
//! 2D and 3D split each row's classes over a process row and evaluate the
//! output layer as a split log-sum-exp; with fewer classes than members
//! some members hold none, and must still train like serial.

mod common;

use cagnet::comm::{Cat, Cluster, Ctx};
use cagnet::core::trainer::Algorithm;
use cagnet::core::{GcnConfig, Problem, SerialTrainer};
use cagnet::dense::Mat;
use cagnet::sparse::generate::erdos_renyi;
use common::{AnyTrainer, Setup};

const STEPS: usize = 3;

/// Every trainer with its process count: two / three class columns per
/// 2D / 3D block of the six-class problem.
const GEOMETRIES: [(Algorithm, usize); 6] = [
    (Algorithm::OneD, 4),
    (Algorithm::OneDRow, 4),
    (Algorithm::One5D { c: 2 }, 4),
    (Algorithm::TwoD, 4),
    (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
    (Algorithm::ThreeD, 8),
];

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
    for (algo, p) in GEOMETRIES {
        let per_rank = Cluster::new(p).run(|ctx| {
            let setup = || AnyTrainer::setup(ctx, algo, &problem, &gcn);
            let (mut by_epoch, mut bare, mut interleaved) = (setup(), setup(), setup());
            let (mut same, mut fewer_messages) = (true, true);
            for _ in 0..STEPS {
                let (loss, epoch_msgs) = messages(ctx, || by_epoch.epoch(ctx));
                let (bare_loss, bare_msgs) = messages(ctx, || {
                    let loss = bare.forward(ctx);
                    bare.backward(ctx);
                    loss
                });
                let _ = interleaved.accuracy(ctx);
                let interleaved_loss = interleaved.epoch(ctx).to_bits();
                let _ = interleaved.forward(ctx);
                same &= loss.to_bits() == bare_loss.to_bits() && loss.to_bits() == interleaved_loss;
                fewer_messages &= bare_msgs <= epoch_msgs;
            }
            let want = bits(by_epoch.weights());
            let same = same && want == bits(bare.weights()) && want == bits(interleaved.weights());
            (same, fewer_messages)
        });
        for (rank, ((same, fewer_messages), _)) in per_rank.iter().enumerate() {
            assert!(same, "{} P={p}, rank {rank}", algo.name());
            assert!(
                fewer_messages,
                "{} P={p}, rank {rank}: bare forward/backward metered more DenseComm messages",
                algo.name()
            );
        }
    }
}

/// `f()` and the `DenseComm` messages this rank metered while it ran.
fn messages(ctx: &Ctx, f: impl FnOnce() -> f64) -> (f64, u64) {
    let before = ctx.report().messages(Cat::DenseComm);
    let out = f();
    (out, ctx.report().messages(Cat::DenseComm) - before)
}

#[test]
fn accuracy_reduces_once_and_reads_zero_without_training_rows() {
    // Each rank counts the rows whose label falls in its class columns
    // and one world all-reduce sums the counts over `train_count`: an
    // accuracy pass meters the messages of a forward, whose loss
    // all-reduce it replaces. Only the first pass fetches layer 0's `H⁰`
    // blocks, one broadcast per forward stage of layer 0 (none in 1D-row,
    // whose forward is an outer product), so both are set against a
    // second forward.
    let (problem, gcn) = problem();
    let mut untrained = problem.clone();
    untrained.train_mask.fill(false);
    // Layer 0's forward stages: P (1D), P/c (1.5D), lcm(Pr, Pc) (2D), ∛P (3D).
    let input_stages = [4, 0, 2, 2, 6, 2];
    for ((algo, p), stages) in GEOMETRIES.into_iter().zip(input_stages) {
        let per_rank = Cluster::new(p).run(|ctx| {
            let mut t = AnyTrainer::setup(ctx, algo, &problem, &gcn);
            let (_, first_msgs) = messages(ctx, || t.forward(ctx));
            let (_, forward_msgs) = messages(ctx, || t.forward(ctx));
            let (acc, accuracy_msgs) = messages(ctx, || t.accuracy(ctx));
            let none = AnyTrainer::setup(ctx, algo, &untrained, &gcn).accuracy(ctx);
            let same_msgs = forward_msgs == accuracy_msgs;
            (same_msgs, first_msgs - forward_msgs == stages, acc, none)
        });
        let acc0 = per_rank[0].0 .2;
        for (rank, ((same_msgs, once, acc, none), _)) in per_rank.iter().enumerate() {
            let name = algo.name();
            assert!(same_msgs, "{name} P={p}, rank {rank}: accuracy messages");
            assert!(
                once,
                "{name} P={p}, rank {rank}: first-pass layer-0 messages"
            );
            assert_eq!(acc.to_bits(), acc0.to_bits(), "{name} P={p}, rank {rank}");
            assert_eq!(*none, 0.0, "{name} P={p}, rank {rank}: no training rows");
        }
    }
}

#[test]
fn grid_members_without_a_class_column_train_like_serial() {
    // Two classes over a 2 x 3 grid: member 2 of each process row holds
    // no class column, so its row statistics are empty and every row's
    // loss and prediction belong to members 0 and 1.
    let problem = Problem::synthetic(&erdos_renyi(48, 4.0, 23), 7, 2, 0.8, 24);
    let gcn = GcnConfig::three_layer(7, 5, 2);
    let mut serial = SerialTrainer::new(&problem, gcn.clone());
    let want: Vec<f64> = (0..STEPS).map(|_| serial.epoch()).collect();
    let want_acc = serial.accuracy();
    let algo = Algorithm::TwoDRect { pr: 2, pc: 3 };
    let per_rank = Cluster::new(6).run(|ctx| {
        let mut t = AnyTrainer::setup(ctx, algo, &problem, &gcn);
        let losses: Vec<f64> = (0..STEPS).map(|_| t.epoch(ctx)).collect();
        (losses, t.accuracy(ctx))
    });
    for (rank, ((losses, acc), _)) in per_rank.iter().enumerate() {
        for (e, (a, b)) in losses.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-8 * b.abs(),
                "rank {rank} epoch {e}: {a} vs {b}"
            );
        }
        assert_eq!(*acc, want_acc, "rank {rank}: accuracy");
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
