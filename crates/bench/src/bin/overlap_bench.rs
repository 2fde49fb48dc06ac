//! Overlap benchmark (DESIGN.md §10): modeled epoch time and harness
//! wall-clock time with nonblocking communication/computation overlap on
//! vs off, for every trainer × P ∈ {1, 2, 4, 8} (respecting each
//! algorithm's process geometry). Writes the full measurement set to
//! `BENCH_overlap.json` (override with `--out <path>`) so CI can archive
//! the perf history as an artifact.
//!
//! With `--transport socket` the same grid runs over the multi-process
//! socket backend at P ∈ {2, 4} on a smaller graph: ranks are real
//! worker processes, so the `wall_seconds_*` columns become the repo's
//! first true wall-clock epoch timings (modeled columns are bit-identical
//! to the shared backend by construction).
//!
//! With `--precision f32|bf16` the dense collectives ride the
//! compressed wire (DESIGN.md §14), so the overlap grid doubles as a
//! wire-width ablation; the default `f64` is the exact historical
//! behaviour.
//!
//! ```text
//! cargo run --release -p cagnet-bench --bin overlap_bench \
//!     [-- --out <path>] [-- --transport shared|socket] \
//!     [-- --precision f64|f32|bf16]
//! ```

use cagnet_bench::measure_epochs_cfg;
use cagnet_comm::{Precision, TransportKind};
use cagnet_core::trainer::{Algorithm, TrainConfig};
use cagnet_core::{GcnConfig, Problem};
use cagnet_sparse::generate::{rmat_symmetric, RmatParams};
use serde::Serialize;
use std::time::Instant;

const EPOCHS: usize = 3;
const PROCESS_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Socket-transport process counts (matches the CI `socket-tests` job).
const SOCKET_PROCESS_COUNTS: [usize; 2] = [2, 4];

/// One overlap-on/off measurement pair for a (trainer, P) cell.
#[derive(Serialize)]
struct OverlapRow {
    algorithm: String,
    processes: usize,
    /// Which transport carried the collectives (`shared` or `socket`).
    transport: String,
    /// Wire precision of the dense collectives (`f64`, `f32`, `bf16`).
    precision: String,
    /// Modeled seconds per epoch, overlap off / on.
    epoch_seconds_off: f64,
    epoch_seconds_on: f64,
    /// Modeled speedup from overlap (off / on).
    modeled_speedup: f64,
    /// Mean communication seconds per rank-epoch hidden behind compute.
    hidden_seconds: f64,
    /// Harness wall-clock seconds for the whole run, overlap off / on.
    wall_seconds_off: f64,
    wall_seconds_on: f64,
}

/// Every algorithm whose geometry admits `p` ranks.
fn algorithms(p: usize) -> Vec<Algorithm> {
    [
        Algorithm::OneD,
        Algorithm::OneDRow,
        Algorithm::One5D {
            c: if p.is_multiple_of(2) { 2 } else { 1 },
        },
        Algorithm::TwoD,
        Algorithm::ThreeD,
    ]
    .into_iter()
    .filter(|a| a.supports(p))
    .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        })
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_overlap.json".to_string());
    let transport = match flag_value("--transport").as_deref() {
        None | Some("shared") => TransportKind::Shared,
        Some("socket") => TransportKind::Socket,
        Some(other) => {
            eprintln!("--transport must be shared|socket, got '{other}'");
            std::process::exit(2);
        }
    };
    let precision = match flag_value("--precision").as_deref() {
        None => Precision::F64,
        Some(s) => Precision::parse(s).unwrap_or_else(|e| {
            eprintln!("--precision: {e}");
            std::process::exit(2);
        }),
    };
    // Socket runs pay real process spawns and replay per worker, so they
    // measure a smaller graph at the CI process counts.
    let (scale, process_counts): (u32, &[usize]) = match transport {
        TransportKind::Shared => (11, &PROCESS_COUNTS),
        TransportKind::Socket => (9, &SOCKET_PROCESS_COUNTS),
    };

    // Mid-size R-MAT with the figure-scale network balance: large enough
    // that the broadcast pipelines have stages to hide, small enough for
    // a CI smoke job.
    let g = rmat_symmetric(scale, 8, RmatParams::default(), 7);
    let f = 64;
    let classes = 16;
    let problem = Problem::synthetic(&g, f, classes, 1.0, 8);
    let gcn = GcnConfig::three_layer(f, 16, classes);
    let model = cagnet_bench::figure_model();

    println!(
        "overlap bench [{} transport, {} wire]: n={}, nnz={}, dims={:?}, {EPOCHS} epochs, \
         P in {:?}",
        match transport {
            TransportKind::Shared => "shared",
            TransportKind::Socket => "socket",
        },
        precision.name(),
        problem.vertices(),
        problem.adj.nnz(),
        gcn.dims,
        process_counts
    );
    println!(
        "{:<10} {:>3}  {:>12} {:>12} {:>8} {:>10}  {:>9} {:>9}",
        "algo", "P", "off ms/ep", "on ms/ep", "speedup", "hidden ms", "wall off", "wall on"
    );

    let mut rows = Vec::new();
    for &p in process_counts {
        for algo in algorithms(p) {
            let run = |overlap: bool| {
                let tc = TrainConfig {
                    epochs: EPOCHS,
                    collect_outputs: false,
                    overlap,
                    transport: Some(transport),
                    precision,
                    ..Default::default()
                };
                let start = Instant::now();
                let row = measure_epochs_cfg(&problem, &gcn, "rmat", algo, p, model.clone(), &tc);
                (row, start.elapsed().as_secs_f64())
            };
            let (off, wall_off) = run(false);
            let (on, wall_on) = run(true);
            assert!(
                on.epoch_seconds <= off.epoch_seconds + 1e-12,
                "{} P={p}: overlap must never increase modeled epoch time",
                algo.name()
            );
            let row = OverlapRow {
                algorithm: algo.name(),
                processes: p,
                transport: match transport {
                    TransportKind::Shared => "shared".to_string(),
                    TransportKind::Socket => "socket".to_string(),
                },
                precision: precision.name().to_string(),
                epoch_seconds_off: off.epoch_seconds,
                epoch_seconds_on: on.epoch_seconds,
                modeled_speedup: off.epoch_seconds / on.epoch_seconds.max(1e-12),
                hidden_seconds: on.breakdown.ovlp,
                wall_seconds_off: wall_off,
                wall_seconds_on: wall_on,
            };
            println!(
                "{:<10} {:>3}  {:>12.4} {:>12.4} {:>7.3}x {:>10.4}  {:>8.2}s {:>8.2}s",
                row.algorithm,
                row.processes,
                row.epoch_seconds_off * 1e3,
                row.epoch_seconds_on * 1e3,
                row.modeled_speedup,
                row.hidden_seconds * 1e3,
                row.wall_seconds_off,
                row.wall_seconds_on
            );
            rows.push(row);
        }
    }

    let json = serde_json::to_string(&rows).expect("serialize");
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} rows to {out_path}", rows.len());
    cagnet_bench::emit_json(&rows);
}
