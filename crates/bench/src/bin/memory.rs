//! Per-rank memory footprints across algorithms and process counts — the
//! quantities behind the paper's memory arguments: 2D's state shrinks
//! with P (§I), 1D's backward materializes O(nf) low-rank intermediates
//! (§IV-A.3), 1.5D trades intermediate growth for broadcast volume
//! (§IV-B), and 3D's pre-reduction partials carry the ∛P replication that
//! made the paper skip implementing it (§IV-D).
//!
//! Each footprint is measured after one epoch — the sparse blocks a rank
//! holds, its stored dense blocks and the largest workspace buffer it was
//! served — as the max and the mean over ranks, and printed next to
//! `analysis`'s closed form for the same quantity (1D-row, which swaps
//! 1D's passes, against 1D's). The closed forms assume a balanced split,
//! so they model the mean: on a skewed R-MAT graph the heaviest rank's
//! blocks hold several times the mean nonzeros.
//! The dense state holds, besides the `2L + 1` stored blocks, the remote
//! `H⁰` blocks of layer 0's forward stages that the first pass keeps so
//! later passes need not fetch them: `(P−1)/P · n·f₀` in 1D, `(p₁−1)/P ·
//! n·f₀` in 1.5D, `(√P−1)/P · n·f₀` in 2D and `(∛P−1)/P · n·f₀` in 3D,
//! and none in 1D-row, whose stage loop is the backward's. The 2D and 3D
//! adjacency is the grid row's `S` panels, which the first forward and
//! backward broadcast and every rank keeps: `4nnz/√P` and
//! `4nnz/P^{2/3}` words.
//!
//! Every layout is measured a second time in the `SparsityAware` tier. A
//! rank holds one copy of each stage panel, the same in every tier, so
//! the bin exits non-zero when any rank's adjacency there
//! differs from its `Dense` adjacency.
//!
//! Run with: `cargo run --release -p cagnet-bench --bin memory`

use cagnet_comm::Cluster;
use cagnet_core::analysis::{self, Shape};
use cagnet_core::dist::{StorageReport, Trainer};
use cagnet_core::trainer::{Algorithm, CommMode, TwoDimConfig};
use cagnet_core::{GcnConfig, Problem};
use cagnet_sparse::generate::{rmat_symmetric, RmatParams};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    processes: usize,
    adjacency_words: usize,
    dense_state_words: usize,
    intermediate_words: usize,
    total_words: usize,
    sparse_adjacency_words: usize,
    mean_adjacency_words: f64,
    mean_dense_state_words: f64,
    mean_intermediate_words: f64,
    mean_total_words: f64,
    model_adjacency_words: f64,
    model_dense_state_words: f64,
    model_intermediate_words: f64,
    model_total_words: f64,
}

fn main() {
    const F: usize = 32;
    let g = rmat_symmetric(11, 12, RmatParams::default(), 93); // 2048 vertices
    let problem = Problem::synthetic(&g, F, F, 1.0, 94);
    let gcn = GcnConfig {
        dims: vec![F, F, F],
        lr: 0.01,
        seed: 17,
    };
    let shape = Shape::new(problem.vertices(), problem.adj.nnz(), F, gcn.layers());
    println!(
        "PER-RANK MEMORY (words, measured after one epoch: max / mean over \
         ranks; model = analysis::memory_*, a balanced split) — n={}, nnz={}, f={F}\n",
        problem.vertices(),
        problem.adj.nnz()
    );
    println!("algorithm       P       adjacency     dense state    intermediate           total    model adj   model st  model int  model tot");

    use Algorithm::{One5D, OneD, OneDRow, ThreeD, TwoD};
    let groups = [
        [(OneD, 4), (OneD, 16), (OneD, 64)],
        [(OneDRow, 4), (OneDRow, 16), (OneDRow, 64)],
        [
            (One5D { c: 2 }, 16),
            (One5D { c: 4 }, 16),
            (One5D { c: 8 }, 16),
        ],
        [(TwoD, 4), (TwoD, 16), (TwoD, 64)],
        [(ThreeD, 8), (ThreeD, 27), (ThreeD, 64)],
    ];
    let mut rows = Vec::new();
    let mut tier_dependent = Vec::new();
    for group in groups {
        for (algo, p) in group {
            let tiers: Vec<[StorageReport; 2]> = Cluster::new(p)
                .run(|ctx| {
                    [CommMode::Dense, CommMode::SparsityAware].map(|mode| {
                        let twod = TwoDimConfig::default();
                        let mut t = Trainer::for_algorithm(ctx, &problem, &gcn, algo, twod);
                        t.set_comm_mode(mode);
                        t.epoch(ctx);
                        t.storage_words()
                    })
                })
                .into_iter()
                .map(|(r, _)| r)
                .collect();
            let reports: Vec<StorageReport> = tiers.iter().map(|[dense, _]| *dense).collect();
            for (rank, [dense, sparse]) in tiers.iter().enumerate() {
                if sparse.adjacency != dense.adjacency {
                    tier_dependent.push(format!(
                        "{} P={p} rank {rank}: {} words in SparsityAware, {} in Dense",
                        algo.name(),
                        sparse.adjacency,
                        dense.adjacency
                    ));
                }
            }
            let s = reports
                .iter()
                .fold(StorageReport::default(), |a, r| StorageReport {
                    adjacency: a.adjacency.max(r.adjacency),
                    dense_state: a.dense_state.max(r.dense_state),
                    intermediate: a.intermediate.max(r.intermediate),
                });
            let mean = |word: fn(&StorageReport) -> usize| {
                reports.iter().map(word).sum::<usize>() as f64 / p as f64
            };
            let mean = [
                mean(|r| r.adjacency),
                mean(|r| r.dense_state),
                mean(|r| r.intermediate),
                mean(StorageReport::total),
            ];
            let m = match algo {
                OneD | OneDRow => analysis::memory_one_d(&shape, p),
                One5D { c } => analysis::memory_one5_d(&shape, p, c),
                TwoD => analysis::memory_two_d(&shape, p),
                _ => analysis::memory_three_d(&shape, p),
            };
            let name = algo.name();
            let max = [s.adjacency, s.dense_state, s.intermediate, s.total()];
            let cells: Vec<String> = (max.iter().zip(mean))
                .map(|(max, mean)| format!("{max}/{mean:.0}"))
                .collect();
            let [adj, st, int, tot] = [&cells[0], &cells[1], &cells[2], &cells[3]];
            let model = [m.adjacency, m.dense_state, m.intermediate, m.total()];
            let model = model.map(|w| format!("{w:>10.0}")).join(" ");
            println!("{name:<12} {p:>4} {adj:>15} {st:>15} {int:>15} {tot:>15}   {model}");
            rows.push(Row {
                algorithm: name,
                processes: p,
                adjacency_words: s.adjacency,
                sparse_adjacency_words: tiers.iter().map(|[_, r]| r.adjacency).max().unwrap_or(0),
                dense_state_words: s.dense_state,
                intermediate_words: s.intermediate,
                total_words: s.total(),
                mean_adjacency_words: mean[0],
                mean_dense_state_words: mean[1],
                mean_intermediate_words: mean[2],
                mean_total_words: mean[3],
                model_adjacency_words: m.adjacency,
                model_dense_state_words: m.dense_state,
                model_intermediate_words: m.intermediate,
                model_total_words: m.total(),
            });
        }
        println!();
    }
    println!(
        "1D's intermediate column stays flat at n·f while everything in the\n\
         2D rows shrinks with P (the kept grid-row panels as 1/√P); 3D\n\
         intermediates carry the ∛P pre-reduction replication relative to\n\
         its own state blocks."
    );
    cagnet_bench::emit_json(&rows);
    if !tier_dependent.is_empty() {
        eprintln!("adjacency depends on the comm tier:");
        tier_dependent.iter().for_each(|line| eprintln!("  {line}"));
        std::process::exit(1);
    }
    println!("SparsityAware adjacency equals Dense adjacency on every rank of every layout.");
}
