//! Reused buffers never leak state between passes (DESIGN.md §16).
//!
//! Every trainer keeps its large scratch matrices across epochs, so a
//! buffer read before it is fully rewritten would show up as numbers
//! that depend on what the trainer did *before*. This suite gives two
//! trainers different pasts and requires identical bits.
//!
//! The **reused** trainer runs one long script: segments that flip
//! `set_comm_mode` Dense → SparsityAware → Cached{2} → Dense, toggle
//! `set_overlap`, replace the weights with `set_weights`, and train under
//! dropout 0.5, with `accuracy()` and stand-alone `forward()` passes
//! interleaved between the epochs. For each segment a **fresh** trainer
//! is set up, advanced to the same epoch count on the initial weights
//! (the dropout mask and the cache schedule are functions of the epoch
//! counter), restored with the weights the reused trainer had at that
//! point, and run through the segment's epochs alone. Losses and
//! weights must be bit-equal. Segments start at `set_comm_mode`, which
//! drops the halo cache, so the cached tier's deliberate staleness is
//! the same on both sides.
//!
//! Shapes include the degenerate ones — one row per block (`n = P`),
//! stage blocks with no nonzeros (isolated vertices), `f = 1`, and
//! non-square 2D grids — so 0-row, 0-column and 1-column workspace
//! requests are exercised — and one wide enough (`f = 300`) for the
//! SpMM pack buffer to be among the pooled ones.

mod common;

use cagnet::comm::Cluster;
use cagnet::core::trainer::Algorithm;
use cagnet::core::{CommMode, GcnConfig, Problem};
use cagnet::dense::Mat;
use cagnet::sparse::generate::erdos_renyi;
use cagnet::sparse::{Coo, Csr};
use common::AnyTrainer;

const DROPOUT: f64 = 0.5;

struct Segment {
    mode: CommMode,
    overlap: bool,
    /// Replace the weights at the start of the segment (scaled copies of
    /// the initial stack), or keep training the current ones.
    reweight: Option<f64>,
    epochs: usize,
}

const SCRIPT: [Segment; 4] = [
    Segment {
        mode: CommMode::Dense,
        overlap: true,
        reweight: None,
        epochs: 2,
    },
    Segment {
        mode: CommMode::SparsityAware,
        overlap: false,
        reweight: None,
        epochs: 1,
    },
    // Epochs 4-6: refresh (cache dropped), refresh (schedule), serve.
    Segment {
        mode: CommMode::Cached { refresh: 2 },
        overlap: true,
        reweight: Some(0.5),
        epochs: 3,
    },
    Segment {
        mode: CommMode::Dense,
        overlap: false,
        reweight: None,
        epochs: 1,
    },
];

fn apply(trainer: &mut AnyTrainer, seg: &Segment, weights: Vec<Mat>) {
    trainer.set_comm_mode(seg.mode);
    trainer.set_overlap(seg.overlap);
    trainer.set_weights(weights);
}

fn bits(weights: &[Mat]) -> Vec<Vec<u64>> {
    weights
        .iter()
        .map(|w| w.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Run the script on `p` ranks and compare, segment by segment, against
/// fresh trainers restored at the segment starts.
fn check(name: &str, algo: Algorithm, p: usize, problem: &Problem, gcn: &GcnConfig) {
    let per_rank = Cluster::new(p).run(|ctx| {
        let mut reused = AnyTrainer::setup(ctx, algo, problem, gcn);
        reused.set_dropout(DROPOUT);
        let initial = reused.weights().to_vec();
        let mut epochs_before = 0;
        let mut mismatches = Vec::new();
        for (s, seg) in SCRIPT.iter().enumerate() {
            let start = match seg.reweight {
                Some(scale) => initial.iter().map(|w| w.map(|x| scale * x)).collect(),
                None => reused.weights().to_vec(),
            };
            apply(&mut reused, seg, start.clone());
            let mut losses = Vec::new();
            for _ in 0..seg.epochs {
                losses.push(reused.epoch(ctx).to_bits());
                // Evaluation passes recycle the stored blocks of the
                // epoch and must leave no trace in the next one.
                let _ = reused.accuracy(ctx);
                let _ = reused.forward(ctx);
            }

            let mut fresh = AnyTrainer::setup(ctx, algo, problem, gcn);
            fresh.set_dropout(DROPOUT);
            for _ in 0..epochs_before {
                fresh.set_weights(initial.clone());
                fresh.epoch(ctx);
            }
            apply(&mut fresh, seg, start);
            let fresh_losses: Vec<u64> = (0..seg.epochs)
                .map(|_| fresh.epoch(ctx).to_bits())
                .collect();
            if losses != fresh_losses {
                mismatches.push(format!("segment {s}: losses differ"));
            }
            if bits(reused.weights()) != bits(fresh.weights()) {
                mismatches.push(format!("segment {s}: weights differ"));
            }
            epochs_before += seg.epochs;
        }
        mismatches
    });
    for (rank, (mismatches, _)) in per_rank.iter().enumerate() {
        assert!(
            mismatches.is_empty(),
            "{name}, {} P={p}, rank {rank}: {}",
            algo.name(),
            mismatches.join("; ")
        );
    }
}

/// The five geometries at `p`-rank sizes that fit them.
fn geometries() -> Vec<(Algorithm, usize)> {
    vec![
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 8),
    ]
}

#[test]
fn regular_shapes() {
    let problem = Problem::synthetic(&erdos_renyi(48, 4.0, 3), 7, 4, 0.8, 4);
    let gcn = GcnConfig::three_layer(7, 5, 4);
    for (algo, p) in geometries() {
        check("regular", algo, p, &problem, &gcn);
    }
}

#[test]
fn wide_input_layer() {
    // 300 input features: every geometry's layer-0 stage operand (150
    // columns on the 2D and 3D grids) is past the 128 where SpMM packs
    // it tile by tile into a pooled buffer, which between products is
    // anybody's — and whose last tile must not outlive the product.
    let problem = Problem::synthetic(&erdos_renyi(48, 4.0, 15), 300, 4, 0.8, 16);
    let gcn = GcnConfig::three_layer(300, 5, 4);
    for (algo, p) in geometries() {
        check("wide", algo, p, &problem, &gcn);
    }
}

#[test]
fn one_row_per_block() {
    // n = P: every dense block is a single row (3D: n = q^3 too).
    let gcn = GcnConfig::three_layer(5, 4, 3);
    for (algo, p) in geometries() {
        let problem = Problem::synthetic(&erdos_renyi(p, 2.0, 5), 5, 3, 1.0, 6);
        check("n = P", algo, p, &problem, &gcn);
    }
}

#[test]
fn isolated_vertices_leave_stage_blocks_empty() {
    // Edges only among the first 8 of 32 vertices: every other vertex
    // keeps just its normalisation self-loop, so whole off-diagonal
    // stage blocks hold no nonzero and their needed-row sets are empty
    // (0-row compact panels).
    let mut coo = Coo::new(32, 32);
    for v in 0..8 {
        coo.push(v, (v + 1) % 8, 1.0);
        coo.push((v + 1) % 8, v, 1.0);
    }
    let problem = Problem::synthetic(&Csr::from_coo(coo), 6, 3, 1.0, 8);
    let gcn = GcnConfig::three_layer(6, 4, 3);
    for (algo, p) in geometries() {
        check("isolated", algo, p, &problem, &gcn);
    }
}

#[test]
fn single_feature_column() {
    // f = 1 in every hidden layer: 2D and 3D split it into one 1-column
    // and otherwise 0-column blocks.
    let problem = Problem::synthetic(&erdos_renyi(40, 3.0, 9), 1, 2, 1.0, 10);
    let gcn = GcnConfig::three_layer(1, 1, 2);
    for (algo, p) in geometries() {
        check("f = 1", algo, p, &problem, &gcn);
    }
}

#[test]
fn non_square_grids() {
    // Rectangular grids split a rank's dense block over several SUMMA
    // stages, so stage panels are workspace copies, not the block itself.
    let problem = Problem::synthetic(&erdos_renyi(45, 4.0, 13), 7, 4, 0.9, 14);
    let gcn = GcnConfig::three_layer(7, 5, 4);
    for (pr, pc) in [(2, 3), (3, 2), (1, 4)] {
        check(
            "rectangular",
            Algorithm::TwoDRect { pr, pc },
            pr * pc,
            &problem,
            &gcn,
        );
    }
}
