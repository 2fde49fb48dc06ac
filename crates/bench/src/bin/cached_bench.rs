//! Convergence and volume harness for the cached halo tier (DESIGN.md
//! §13): train identical problems under `CommMode::SparsityAware`
//! (exact) and `CommMode::Cached { refresh }` for refresh ∈ {1, 2, 4, 8}
//! and record the full loss curve, final accuracy, and metered word
//! counts of every run.
//!
//! Run with: `cargo run --release -p cagnet-bench --bin cached_bench`
//! — writes the measurement document to `BENCH_cached.json` (override
//! with `--out <path>`).
//!
//! The binary is also a CI smoke check and *asserts*:
//!
//! 1. `refresh: 1` is bit-identical to `SparsityAware` — same losses,
//!    same accuracy, same `DenseComm` words, zero `CacheHit` words.
//! 2. Honest metering: the `DenseComm` words a cached run saves over
//!    exact are exactly its `CacheHit` words (skipped traffic never
//!    disappears from the books).
//! 3. Gather collapse: the *gather-attributable* `DenseComm` words at
//!    `refresh: k` are ≤ 1/k of the exact gather words. The run is
//!    8 epochs, so every k here divides the epoch count and no refresh
//!    epoch is amortized away — the non-refresh-dominated regime the
//!    acceptance bar asks for. (Total `DenseComm` cannot collapse by
//!    1/k on the SUMMA family: its S-panel broadcasts are never cached.
//!    The gather share is isolated from the meters; see below.)
//! 4. Staleness stays bounded: the relative final-loss gap vs exact at
//!    `refresh` ≤ 4 is within [`STALENESS_BOUND`], which the JSON
//!    document records next to the measured worst case.
//!
//! Gather isolation: with E epochs, exact volume S = O + G where O is
//! the never-cached share (SUMMA S-panels) and G the gather share. The
//! `refresh: E` run gathers exactly once, so C_E = O + G/E, giving
//! G = (S − C_E)·E/(E−1) and O = S − G without instrumenting anything —
//! the identity is cross-checked against the `CacheHit` meter.

use cagnet_comm::{Cat, CostModel};
use cagnet_core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet_core::{CommMode, DistTrainResult, GcnConfig, Problem};
use cagnet_sparse::generate::erdos_renyi;
use serde::Serialize;

const EPOCHS: usize = 8;
const REFRESHES: [usize; 4] = [1, 2, 4, 8];

/// Documented staleness bound (also written into the JSON document):
/// on this harness's problems, training with halos up to 3 epochs stale
/// (`refresh: 4`) lands within 25% of the exact final loss. DistGNN
/// (arXiv:2104.06700) reports the same qualitative behaviour — bounded
/// staleness delays but does not destroy convergence.
const STALENESS_BOUND: f64 = 0.25;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    processes: usize,
    /// 0 encodes the exact `SparsityAware` baseline.
    refresh: usize,
    losses: Vec<f64>,
    accuracy: f64,
    dense_words: u64,
    cache_hit_words: u64,
    /// Gather-attributable share of `dense_words` (isolated, see module
    /// docs); equals `dense_words` minus the never-cached overhead.
    gather_words: u64,
    /// `|final_loss − exact_final_loss| / exact_final_loss`.
    rel_final_loss_gap: f64,
}

#[derive(Serialize)]
struct Document {
    epochs: usize,
    /// Documented bound on `rel_final_loss_gap` for `refresh <= 4`.
    staleness_bound: f64,
    /// Worst measured `rel_final_loss_gap` at `refresh <= 4`.
    worst_gap_refresh_le_4: f64,
    rows: Vec<Row>,
}

fn train(problem: &Problem, gcn: &GcnConfig, algo: Algorithm, p: usize, mode: CommMode) -> Run {
    let tc = TrainConfig {
        epochs: EPOCHS,
        collect_outputs: false,
        comm_mode: mode,
        ..Default::default()
    };
    let r = train_distributed(problem, gcn, algo, p, CostModel::summit_like(), &tc);
    Run {
        dense: words(&r, Cat::DenseComm),
        hits: words(&r, Cat::CacheHit),
        result: r,
    }
}

struct Run {
    result: DistTrainResult,
    dense: u64,
    hits: u64,
}

fn words(r: &DistTrainResult, cat: Cat) -> u64 {
    r.reports.iter().map(|rep| rep.words(cat)).sum()
}

fn main() {
    let out_path = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match args.iter().position(|a| a == "--out") {
            Some(i) => args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for --out");
                std::process::exit(2);
            }),
            None => "BENCH_cached.json".to_string(),
        }
    };
    let g = erdos_renyi(128, 4.0, 91);
    let problem = Problem::synthetic(&g, 16, 4, 0.9, 92);
    let gcn = GcnConfig {
        dims: vec![16, 16, 4],
        lr: 0.01,
        seed: 11,
    };
    let cells: [(Algorithm, usize); 5] = [
        (Algorithm::OneD, 2),
        (Algorithm::OneD, 4),
        (Algorithm::OneDRow, 4),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
    ];

    println!("CACHED HALO TIER — staleness vs volume (E={EPOCHS})\n");
    println!(
        "{:<10} {:>3} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "algorithm", "P", "refresh", "dense wds", "gather wds", "hit wds", "loss gap"
    );

    let mut rows = Vec::new();
    let mut worst_gap: f64 = 0.0;
    for (algo, p) in cells {
        let exact = train(&problem, &gcn, algo, p, CommMode::SparsityAware);
        // Isolate the gather share of the exact volume from the
        // refresh: E run (one refresh epoch out of E).
        let c_e = train(
            &problem,
            &gcn,
            algo,
            p,
            CommMode::Cached { refresh: EPOCHS },
        );
        let e = EPOCHS as u64;
        let gather_total = (exact.dense - c_e.dense) * e / (e - 1);
        let overhead = exact.dense - gather_total;
        assert_eq!(
            gather_total % e,
            0,
            "{} P={p}: per-epoch gather volume must be uniform",
            algo.name()
        );
        let exact_final = *exact.result.losses.last().expect("loss curve");
        push_row(&mut rows, algo, p, 0, &exact, gather_total, 0.0);
        println!(
            "{:<10} {:>3} {:>8} {:>12} {:>12} {:>12} {:>10}",
            algo.name(),
            p,
            "exact",
            exact.dense,
            gather_total,
            exact.hits,
            "-"
        );

        for k in REFRESHES {
            let run = if k == EPOCHS {
                // Reuse the isolation run rather than training again.
                Run {
                    dense: c_e.dense,
                    hits: c_e.hits,
                    result: c_e.result.clone(),
                }
            } else {
                train(&problem, &gcn, algo, p, CommMode::Cached { refresh: k })
            };
            if k == 1 {
                assert_eq!(
                    exact.result.losses,
                    run.result.losses,
                    "{} P={p}: refresh:1 must be bit-identical to exact",
                    algo.name()
                );
                assert_eq!(exact.result.accuracy, run.result.accuracy);
                assert_eq!(exact.dense, run.dense);
                assert_eq!(run.hits, 0);
            }
            // Honest metering: saved DenseComm words == CacheHit words.
            assert_eq!(
                exact.dense - run.dense,
                run.hits,
                "{} P={p} refresh:{k}: the DenseComm drop must equal CacheHit",
                algo.name()
            );
            // Gather collapse: the gather share at refresh k is ≤ 1/k of
            // the exact gather share (exact equality when k | E).
            let gather_k = run.dense - overhead;
            assert!(
                gather_k <= gather_total / k as u64,
                "{} P={p} refresh:{k}: gather words {gather_k} exceed 1/{k} \
                 of exact {gather_total}",
                algo.name()
            );
            let final_k = *run.result.losses.last().expect("loss curve");
            assert!(
                run.result.losses.iter().all(|l| l.is_finite()),
                "{} P={p} refresh:{k}: stale training must stay finite",
                algo.name()
            );
            let gap = (final_k - exact_final).abs() / exact_final;
            if k <= 4 {
                worst_gap = worst_gap.max(gap);
                assert!(
                    gap <= STALENESS_BOUND,
                    "{} P={p} refresh:{k}: final-loss gap {gap:.4} breaches the \
                     documented staleness bound {STALENESS_BOUND}",
                    algo.name()
                );
            }
            println!(
                "{:<10} {:>3} {:>8} {:>12} {:>12} {:>12} {:>10.4}",
                algo.name(),
                p,
                k,
                run.dense,
                gather_k,
                run.hits,
                gap
            );
            push_row(&mut rows, algo, p, k, &run, gather_k, gap);
        }
        println!();
    }

    println!(
        "refresh:1 bit-identical; gather words collapse by 1/k; \
         worst refresh<=4 loss gap {worst_gap:.4} within bound {STALENESS_BOUND}"
    );
    let doc = Document {
        epochs: EPOCHS,
        staleness_bound: STALENESS_BOUND,
        worst_gap_refresh_le_4: worst_gap,
        rows,
    };
    let json = serde_json::to_string(&doc).expect("serialize");
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} rows to {out_path}", doc.rows.len());
}

fn push_row(
    rows: &mut Vec<Row>,
    algo: Algorithm,
    p: usize,
    refresh: usize,
    run: &Run,
    gather: u64,
    gap: f64,
) {
    rows.push(Row {
        algorithm: algo.name(),
        processes: p,
        refresh,
        losses: run.result.losses.clone(),
        accuracy: run.result.accuracy,
        dense_words: run.dense,
        cache_hit_words: run.hits,
        gather_words: gather,
        rel_final_loss_gap: gap,
    });
}
