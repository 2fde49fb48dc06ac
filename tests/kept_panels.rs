//! 2D and 3D keep the `S` panels of `A` they receive (DESIGN.md §9): a
//! stage table's first loop broadcasts each panel along the process row,
//! and every later loop over it multiplies the kept panels with no row
//! collective. The forward table (`Aᵀ`) is first run by the first
//! forward, the backward table (`A`) by the first backward, so an
//! inference run never moves the backward table, and a training run's
//! `SparseComm` words are all in its first epoch, whatever the stage
//! count or grid shape.

use cagnet::comm::{Cat, Cluster, CostModel};
use cagnet::core::dist::Trainer;
use cagnet::core::trainer::{infer_distributed, Algorithm, TrainConfig, TwoDimConfig};
use cagnet::core::{CommMode, GcnConfig, Problem};
use cagnet::sparse::generate::erdos_renyi;
use cagnet::sparse::partition::{block_range, block_ranges};

fn problem() -> (Problem, GcnConfig) {
    let g = erdos_renyi(60, 4.0, 61);
    (
        Problem::synthetic(&g, 6, 3, 0.8, 62),
        GcnConfig::three_layer(6, 5, 3),
    )
}

#[test]
fn steady_epochs_move_no_panel_at_any_stage_count_or_grid_shape() {
    let (problem, gcn) = problem();
    let cells = [
        (Algorithm::TwoD, 4, 2),
        (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6, 1),
        (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6, 2),
    ];
    let modes = [
        CommMode::Dense,
        CommMode::SparsityAware,
        CommMode::Cached { refresh: 2 },
    ];
    for (algo, p, sub) in cells {
        for mode in modes {
            for overlap in [true, false] {
                let per_rank = Cluster::new(p).run(|ctx| {
                    let twod = TwoDimConfig {
                        stages_per_block: sub,
                    };
                    let mut t = Trainer::for_algorithm(ctx, &problem, &gcn, algo, twod);
                    t.set_comm_mode(mode);
                    t.set_overlap(overlap);
                    let words = || ctx.report().words(Cat::SparseComm);
                    (0..4)
                        .map(|_| {
                            let before = words();
                            t.epoch(ctx);
                            words() - before
                        })
                        .collect::<Vec<_>>()
                });
                for (rank, (epochs, _)) in per_rank.into_iter().enumerate() {
                    let case = format!(
                        "{} sub={sub} {mode:?} overlap={overlap} rank {rank}",
                        algo.name()
                    );
                    assert!(epochs[0] > 0, "{case}: the first epoch moves the panels");
                    assert_eq!(epochs[1..], [0, 0, 0], "{case}: steady epochs");
                }
            }
        }
    }
}

/// `SparseComm` words the forward table's first loop meters at `rank`:
/// `2·nnz` of every `Aᵀ` panel of its process row, its own included.
fn forward_panel_words(problem: &Problem, algo: Algorithm, rank: usize) -> u64 {
    let n = problem.vertices();
    let nnz = |(r0, r1): (usize, usize), (c0, c1): (usize, usize)| {
        problem.adj_t.block(r0, r1, c0, c1).nnz() as u64
    };
    match algo {
        Algorithm::TwoD => 2 * nnz(block_range(n, 2, rank / 2), (0, n)),
        _ => {
            // q = 2: rank (i, j, k) multiplies sub-block k of each column
            // block of its row block i.
            let (k, i) = (rank / 4, rank % 4 / 2);
            let rows = block_range(n, 2, i);
            (block_ranges(n, 2).into_iter())
                .map(|(c0, c1)| {
                    let (s0, s1) = block_range(c1 - c0, 2, k);
                    2 * nnz(rows, (c0 + s0, c0 + s1))
                })
                .sum()
        }
    }
}

#[test]
fn inference_never_moves_the_backward_table() {
    // `infer_distributed` meters one forward; a serving loop runs more
    // (`accuracy` is one), and they move nothing after the first.
    let (problem, gcn) = problem();
    let weights = gcn.init_weights();
    for (algo, p) in [(Algorithm::TwoD, 4), (Algorithm::ThreeD, 8)] {
        for comm_mode in [CommMode::Dense, CommMode::SparsityAware] {
            let tc = TrainConfig {
                comm_mode,
                ..TrainConfig::default()
            };
            let model = CostModel::summit_like();
            let r = infer_distributed(&problem, &gcn, &weights, algo, p, model, &tc);
            let served = Cluster::new(p).run(|ctx| {
                let twod = TwoDimConfig::default();
                let mut t = Trainer::for_algorithm(ctx, &problem, &gcn, algo, twod);
                t.set_comm_mode(comm_mode);
                t.forward(ctx);
                t.accuracy(ctx);
                t.forward(ctx);
                ctx.report().words(Cat::SparseComm)
            });
            for (rank, (report, (words, _))) in r.reports.iter().zip(served).enumerate() {
                let want = forward_panel_words(&problem, algo, rank);
                let case = format!("{} {comm_mode:?} rank {rank}", algo.name());
                assert_eq!(report.words(Cat::SparseComm), want, "{case}: inference");
                assert_eq!(words, want, "{case}: three forwards");
            }
        }
    }
}
