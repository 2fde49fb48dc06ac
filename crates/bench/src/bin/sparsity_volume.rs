//! Dense vs sparsity-aware communication, measured by execution
//! (DESIGN.md §9): for every trainer — the row-distributed family and
//! the 2D/3D SUMMA family — run identical training in both
//! [`CommMode`]s and compare the metered `Cat::DenseComm` words.
//!
//! Run with: `cargo run --release -p cagnet-bench --bin sparsity_volume`
//! — writes the measurement rows to `BENCH_sparsity.json` (override with
//! `--out <path>`) so CI can archive the volume history as an artifact.
//!
//! The binary is also a CI smoke check: it *asserts* that sparsity-aware
//! metering never exceeds dense, that it wins strictly on the low-degree
//! generator, and that losses are bit-identical across modes — exiting
//! nonzero on any violation.

use cagnet_comm::{Cat, CostModel};
use cagnet_core::trainer::{
    train_distributed, Algorithm, PartitionConfig, PartitionObjective, PartitionSpec, TrainConfig,
};
use cagnet_core::{CommMode, GcnConfig, Problem};
use cagnet_sparse::edgecut::{block_partition, evaluate_partition};
use cagnet_sparse::generate::{
    erdos_renyi, permute_symmetric, planted_partition, rmat_symmetric, PlantedPartitionParams,
    RmatParams,
};
use cagnet_sparse::partitioner::partition_greedy_bfs;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: String,
    algorithm: String,
    processes: usize,
    dense_words: u64,
    sparse_words: u64,
    /// `sparse_words / dense_words` — below 1.0 means the mode pays off.
    ratio: f64,
}

/// One partitioned-vs-block measurement (ROADMAP item 2): the same
/// sparsity-aware training run under the natural-id block distribution
/// and under relabeling by each partitioner objective, plus the static
/// max-per-part gathered-row metric for the three layouts.
#[derive(Serialize)]
struct PartRow {
    graph: String,
    algorithm: String,
    processes: usize,
    row_groups: usize,
    block_words: u64,
    edgecut_words: u64,
    volume_words: u64,
    block_max_rows: usize,
    edgecut_max_rows: usize,
    volume_max_rows: usize,
}

fn run(
    problem: &Problem,
    gcn: &GcnConfig,
    algo: Algorithm,
    p: usize,
    mode: CommMode,
) -> (Vec<f64>, u64) {
    let tc = TrainConfig {
        epochs: 2,
        collect_outputs: false,
        comm_mode: mode,
        ..Default::default()
    };
    let r = train_distributed(problem, gcn, algo, p, CostModel::summit_like(), &tc);
    let words = r.reports.iter().map(|rep| rep.words(Cat::DenseComm)).sum();
    (r.losses, words)
}

/// Sparsity-aware DenseComm words under an optional partition objective
/// (`None` = the natural-id block distribution).
fn run_partitioned(
    problem: &Problem,
    gcn: &GcnConfig,
    algo: Algorithm,
    p: usize,
    objective: Option<PartitionObjective>,
) -> u64 {
    let tc = TrainConfig {
        epochs: 2,
        collect_outputs: false,
        comm_mode: CommMode::SparsityAware,
        partition: objective.map(|objective| {
            PartitionSpec::Auto(PartitionConfig {
                objective,
                ..Default::default()
            })
        }),
        ..Default::default()
    };
    let r = train_distributed(problem, gcn, algo, p, CostModel::summit_like(), &tc);
    r.reports.iter().map(|rep| rep.words(Cat::DenseComm)).sum()
}

fn main() {
    const F: usize = 16;
    let out_path = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.iter().position(|a| a == "--out") {
            Some(i) => args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for --out");
                std::process::exit(2);
            }),
            None => "BENCH_sparsity.json".to_string(),
        }
    };
    let graphs = vec![
        // Low degree: requested-row sets are tiny, sparsity-aware must
        // win strictly.
        ("er(d=2)", erdos_renyi(256, 2.0, 91), true),
        // Denser power-law graph: the win shrinks but metering must never
        // exceed dense.
        (
            "rmat",
            rmat_symmetric(9, 10, RmatParams::default(), 92),
            false,
        ),
    ];
    println!("SPARSITY-AWARE COMMUNICATION — dense vs gathered rows (f={F}, L=2)\n");
    println!(
        "{:<10} {:<12} {:>3} {:>14} {:>14} {:>7}",
        "graph", "algorithm", "P", "dense words", "sparse words", "ratio"
    );

    let mut rows = Vec::new();
    for (name, g, expect_strict_win) in graphs {
        let problem = Problem::synthetic(&g, F, F, 1.0, 93);
        let gcn = GcnConfig {
            dims: vec![F, F, F],
            lr: 0.01,
            seed: 11,
        };
        // (algorithm, process counts): the SUMMA family needs square /
        // rectangular / cubic grids, so it carries its own P list.
        let cells: Vec<(Algorithm, Vec<usize>)> = vec![
            (Algorithm::OneD, vec![2, 4, 8]),
            (Algorithm::OneDRow, vec![2, 4, 8]),
            (Algorithm::One5D { c: 2 }, vec![2, 4, 8]),
            (Algorithm::TwoD, vec![4]),
            (Algorithm::TwoDRect { pr: 3, pc: 3 }, vec![9]),
            (Algorithm::ThreeD, vec![8]),
        ];
        for (algo, ps) in &cells {
            let algo = *algo;
            for &p in ps {
                if !algo.supports(p) {
                    continue;
                }
                let (dense_losses, dense_words) = run(&problem, &gcn, algo, p, CommMode::Dense);
                let (sparse_losses, sparse_words) =
                    run(&problem, &gcn, algo, p, CommMode::SparsityAware);
                assert_eq!(
                    dense_losses,
                    sparse_losses,
                    "{name} {} P={p}: losses must be bit-identical across modes",
                    algo.name()
                );
                assert!(
                    sparse_words <= dense_words,
                    "{name} {} P={p}: sparsity-aware metered {sparse_words} words, \
                     above dense {dense_words}",
                    algo.name()
                );
                // The specialized stages run over the broadcast group:
                // all P ranks for 1D/1D-row, the replica group of p/c
                // for 1.5D, the stage grid communicators for 2D/3D. A
                // singleton group moves nothing either way.
                let bcast_group = match algo {
                    Algorithm::One5D { c } => p / c,
                    _ => p,
                };
                if expect_strict_win && bcast_group > 1 {
                    assert!(
                        sparse_words < dense_words,
                        "{name} {} P={p}: expected a strict win on the low-degree \
                         graph ({sparse_words} vs {dense_words})",
                        algo.name()
                    );
                }
                let ratio = sparse_words as f64 / dense_words as f64;
                println!(
                    "{:<10} {:<12} {:>3} {:>14} {:>14} {:>7.3}",
                    name,
                    algo.name(),
                    p,
                    dense_words,
                    sparse_words,
                    ratio
                );
                rows.push(Row {
                    graph: name.to_string(),
                    algorithm: algo.name(),
                    processes: p,
                    dense_words,
                    sparse_words,
                    ratio,
                });
            }
        }
        println!();
    }
    println!("all modes bit-identical; sparsity-aware words <= dense everywhere");

    // ---- partitioned vs block row distribution (§IV-A.8, wired in) ----
    // A permuted planted-partition graph: real community structure the
    // partitioner can recover, invisible to the natural-id block layout.
    let g = planted_partition(
        256,
        PlantedPartitionParams {
            communities: 8,
            degree_in: 8.0,
            degree_out: 0.5,
            hubs: 2,
            hub_degree: 24,
        },
        96,
    );
    let (g, _) = permute_symmetric(&g, 97);
    let pname = "planted";
    let problem = Problem::synthetic(&g, F, F, 1.0, 98);
    let gcn = GcnConfig {
        dims: vec![F, F, F],
        lr: 0.01,
        seed: 11,
    };
    println!("\nPARTITIONED vs BLOCK ROW DISTRIBUTION — sparsity-aware words (f={F}, L=2)\n");
    println!(
        "{:<10} {:<12} {:>3} {:>12} {:>14} {:>13} {:>17}",
        "graph", "algorithm", "P", "block words", "edgecut words", "volume words", "max rows b/e/v"
    );
    let mut part_rows = Vec::new();
    let part_cells: Vec<(Algorithm, Vec<usize>)> = vec![
        (Algorithm::OneD, vec![2, 4, 8]),
        (Algorithm::OneDRow, vec![4]),
        (Algorithm::One5D { c: 2 }, vec![4, 8]),
        (Algorithm::TwoD, vec![4]),
    ];
    for (algo, ps) in &part_cells {
        let algo = *algo;
        for &p in ps {
            let groups = algo.row_groups(p);
            let block_words = run_partitioned(&problem, &gcn, algo, p, None);
            let edgecut_words =
                run_partitioned(&problem, &gcn, algo, p, Some(PartitionObjective::EdgeCut));
            let volume_words =
                run_partitioned(&problem, &gcn, algo, p, Some(PartitionObjective::Volume));
            // Static §IV-A.8 metric at the same row-group granularity.
            let metric = |objective| {
                let cfg = PartitionConfig {
                    num_parts: groups,
                    objective,
                    ..Default::default()
                };
                evaluate_partition(&g, &partition_greedy_bfs(&g, &cfg), groups).edgecut_max()
            };
            let block_max =
                evaluate_partition(&g, &block_partition(g.rows(), groups), groups).edgecut_max();
            let edgecut_max = metric(PartitionObjective::EdgeCut);
            let volume_max = metric(PartitionObjective::Volume);
            assert!(
                edgecut_words <= block_words && volume_words <= block_words,
                "{pname} {} P={p}: partitioned words (e={edgecut_words}, v={volume_words}) \
                 above block {block_words}",
                algo.name()
            );
            if groups > 1 {
                assert!(
                    volume_words < block_words,
                    "{pname} {} P={p}: volume partition must win strictly over block \
                     ({volume_words} vs {block_words})",
                    algo.name()
                );
                assert!(
                    volume_max < block_max,
                    "{pname} {} P={p}: volume max rows {volume_max} not below block {block_max}",
                    algo.name()
                );
                assert!(
                    volume_max <= edgecut_max,
                    "{pname} {} P={p}: volume max rows {volume_max} above edgecut {edgecut_max}",
                    algo.name()
                );
            }
            println!(
                "{:<10} {:<12} {:>3} {:>12} {:>14} {:>13} {:>7}/{}/{}",
                pname,
                algo.name(),
                p,
                block_words,
                edgecut_words,
                volume_words,
                block_max,
                edgecut_max,
                volume_max
            );
            part_rows.push(PartRow {
                graph: pname.to_string(),
                algorithm: algo.name(),
                processes: p,
                row_groups: groups,
                block_words,
                edgecut_words,
                volume_words,
                block_max_rows: block_max,
                edgecut_max_rows: edgecut_max,
                volume_max_rows: volume_max,
            });
        }
    }
    println!("\npartitioned gathered-row volume <= block at P>1, volume max < block max");

    #[derive(Serialize)]
    struct Output {
        modes: Vec<Row>,
        partition: Vec<PartRow>,
    }
    let output = Output {
        modes: rows,
        partition: part_rows,
    };
    let json = serde_json::to_string(&output).expect("serialize");
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {} mode rows + {} partition rows to {out_path}",
        output.modes.len(),
        output.partition.len()
    );
    cagnet_bench::emit_json(&output.modes);
    cagnet_bench::emit_json(&output.partition);
}
