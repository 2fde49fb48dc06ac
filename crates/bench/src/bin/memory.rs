//! Per-rank memory footprints across algorithms and process counts — the
//! quantities behind the paper's memory arguments: 2D is memory-optimal
//! (§I), 1D's backward materializes O(nf) low-rank intermediates
//! (§IV-A.3), 1.5D trades intermediate growth for broadcast volume
//! (§IV-B), and 3D's pre-reduction partials carry the ∛P replication that
//! made the paper skip implementing it (§IV-D).
//!
//! Each footprint is measured after one epoch — the sparse blocks a rank
//! holds, its stored dense blocks and the largest workspace buffer it was
//! served — and printed next to `analysis`'s closed form for the same
//! quantity.
//!
//! Run with: `cargo run --release -p cagnet-bench --bin memory`

use cagnet_comm::Cluster;
use cagnet_core::analysis::{self, Shape};
use cagnet_core::dist::{StorageReport, Trainer};
use cagnet_core::trainer::{Algorithm, TwoDimConfig};
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
        "PER-RANK MEMORY (words, max over ranks, measured after one epoch; \
         model = analysis::memory_*) — n={}, nnz={}, f={F}\n",
        problem.vertices(),
        problem.adj.nnz()
    );
    println!(
        "{:<12} {:>4} {:>12} {:>12} {:>13} {:>12}   {:>10} {:>10} {:>10} {:>10}",
        "algorithm",
        "P",
        "adjacency",
        "dense state",
        "intermediate",
        "total",
        "model adj",
        "model st",
        "model int",
        "model tot"
    );

    use Algorithm::{One5D, OneD, ThreeD, TwoD};
    let groups = [
        [(OneD, 4), (OneD, 16), (OneD, 64)],
        [
            (One5D { c: 2 }, 16),
            (One5D { c: 4 }, 16),
            (One5D { c: 8 }, 16),
        ],
        [(TwoD, 4), (TwoD, 16), (TwoD, 64)],
        [(ThreeD, 8), (ThreeD, 27), (ThreeD, 64)],
    ];
    let mut rows = Vec::new();
    for group in groups {
        for (algo, p) in group {
            let s = Cluster::new(p)
                .run(|ctx| {
                    let twod = TwoDimConfig::default();
                    let mut t = Trainer::for_algorithm(ctx, &problem, &gcn, algo, twod);
                    t.epoch(ctx);
                    t.storage_words()
                })
                .into_iter()
                .fold(StorageReport::default(), |a, (r, _)| StorageReport {
                    adjacency: a.adjacency.max(r.adjacency),
                    dense_state: a.dense_state.max(r.dense_state),
                    intermediate: a.intermediate.max(r.intermediate),
                });
            let m = match algo {
                OneD => analysis::memory_one_d(&shape, p),
                One5D { c } => analysis::memory_one5_d(&shape, p, c),
                TwoD => analysis::memory_two_d(&shape, p),
                _ => analysis::memory_three_d(&shape, p),
            };
            let name = algo.name();
            println!(
                "{:<12} {:>4} {:>12} {:>12} {:>13} {:>12}   {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
                name,
                p,
                s.adjacency,
                s.dense_state,
                s.intermediate,
                s.total(),
                m.adjacency,
                m.dense_state,
                m.intermediate,
                m.total()
            );
            rows.push(Row {
                algorithm: name,
                processes: p,
                adjacency_words: s.adjacency,
                dense_state_words: s.dense_state,
                intermediate_words: s.intermediate,
                total_words: s.total(),
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
         2D rows shrinks with P (memory-optimal); 3D intermediates carry the\n\
         ∛P pre-reduction replication relative to its own state blocks."
    );
    cagnet_bench::emit_json(&rows);
}
