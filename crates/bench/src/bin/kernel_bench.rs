//! Wall-clock micro-benchmark of the local compute kernels: the
//! register-blocked GEMM, the width-specialized / packed-tile SpMM and
//! the output layer against the pre-optimization reference kernels
//! (`cagnet_dense::reference`, `cagnet_sparse::reference`), at
//! representative GCN shapes across a thread axis (DESIGN.md §14).
//!
//! ```text
//! cargo run --release -p cagnet-bench --bin kernel_bench -- [--out BENCH_kernels.json]
//!
//! options:
//!   --out <path>   where to write the JSON rows (default BENCH_kernels.json)
//!   --quick        smallest shape set (CI smoke uses the default set)
//! ```
//!
//! Each row records best-of-repetition times for the old and new kernel
//! and their ratio. The binary asserts that the single-thread speedup at
//! the representative shapes reaches the 1.5x acceptance floor — and,
//! separately, that the packed-tile SpMM path (`f = 300`, `602`) and
//! the fused output-layer kernel (one `exp` per logit against the
//! `log_softmax` + `softmax` pair's three) reach their own — so a
//! kernel regression fails CI rather than silently flattening the perf
//! trajectory, and that new-kernel results stay bit-identical to the
//! reference on every measured operand.

use cagnet_dense::Mat;
use cagnet_parallel::ParallelCtx;
use cagnet_sparse::generate::{erdos_renyi, rmat_symmetric, RmatParams};
use cagnet_sparse::Csr;
use serde::Serialize;
use std::time::Instant;

/// One measured kernel configuration.
#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    /// GEMM: `m x k · k x n`. SpMM: `n x n` graph times `n x f`. Output
    /// layer: `n x f` logits.
    shape: String,
    threads: usize,
    old_seconds: f64,
    new_seconds: f64,
    /// `old_seconds / new_seconds` — above 1.0 means the new kernel wins.
    speedup: f64,
}

/// Shape tag of the wide-operand SpMM rows (8192 vertices, degree ≈ 35).
const WIDE_TAG: &str = "er8192d35";

fn parse_args() -> (String, bool) {
    let mut out = "BENCH_kernels.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(v) => out = v,
                None => {
                    eprintln!("missing value for --out");
                    std::process::exit(2);
                }
            },
            "--quick" => quick = true,
            other => {
                eprintln!("unknown flag '{other}' (kernel_bench takes --out <path> | --quick)");
                std::process::exit(2);
            }
        }
    }
    (out, quick)
}

/// Best-of-`reps` wall-clock seconds of `old` and `new`, measured
/// alternately within each repetition so frequency drift and scheduler
/// noise hit both kernels equally — the *ratio* is what CI gates on.
fn time_pair<F1: FnMut(), F2: FnMut()>(reps: usize, mut old: F1, mut new: F2) -> (f64, f64) {
    let (mut best_old, mut best_new) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t = Instant::now();
        old();
        best_old = best_old.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        new();
        best_new = best_new.min(t.elapsed().as_secs_f64());
    }
    (best_old, best_new)
}

fn lcg_mat(rows: usize, cols: usize, seed: u64) -> Mat {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Mat::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    })
}

/// Repetitions scaled so small shapes are measured more often.
fn reps_for(flops: u64) -> usize {
    (2e9 / flops as f64).clamp(3.0, 40.0) as usize
}

fn bench_gemm(rows: &mut Vec<KernelRow>, m: usize, k: usize, n: usize, threads: &[usize]) {
    let a = lcg_mat(m, k, 1);
    let b = lcg_mat(k, n, 2);
    let reps = reps_for(cagnet_dense::gemm::gemm_flops(m, k, n));
    for &t in threads {
        let ctx = ParallelCtx::new(t);
        let mut c_old = Mat::zeros(m, n);
        let mut c_new = Mat::zeros(m, n);
        let (old, new) = time_pair(
            reps,
            || {
                c_old = Mat::zeros(m, n);
                cagnet_dense::reference::matmul_acc_reference(&a, &b, &mut c_old);
            },
            || {
                c_new = Mat::zeros(m, n);
                cagnet_dense::matmul_acc_with(ctx, &a, &b, &mut c_new);
            },
        );
        assert_eq!(
            c_new, c_old,
            "gemm {m}x{k}x{n} at {t} threads diverged from the reference kernel"
        );
        rows.push(KernelRow {
            kernel: "gemm".into(),
            shape: format!("{m}x{k}x{n}"),
            threads: t,
            old_seconds: old,
            new_seconds: new,
            speedup: old / new,
        });
    }
}

fn bench_spmm(rows: &mut Vec<KernelRow>, graph: &Csr, tag: &str, f: usize, threads: &[usize]) {
    let b = lcg_mat(graph.cols(), f, 3);
    let reps = reps_for(cagnet_sparse::spmm::spmm_flops(graph, f));
    for &t in threads {
        let ctx = ParallelCtx::new(t);
        // As the trainers call it: accumulator and pack buffer are kept
        // and re-armed, not allocated per product — a fresh 39 MB
        // accumulator at f = 602 would put ~10k first-touch page faults
        // inside each timed call.
        let mut c_old = Mat::zeros(graph.rows(), f);
        let mut c_new = Mat::zeros(graph.rows(), f);
        let mut pack = Mat::zeros(0, 0);
        let (old, new) = time_pair(
            reps,
            || {
                c_old.reset(graph.rows(), f);
                cagnet_sparse::reference::spmm_acc_reference(graph, &b, &mut c_old);
            },
            || {
                c_new.reset(graph.rows(), f);
                cagnet_sparse::spmm::spmm_acc_scratch(ctx, graph, &b, &mut c_new, &mut pack);
            },
        );
        assert_eq!(
            c_new, c_old,
            "spmm {tag} f={f} at {t} threads diverged from the reference kernel"
        );
        rows.push(KernelRow {
            kernel: "spmm".into(),
            shape: format!("{tag}xf{f}"),
            threads: t,
            old_seconds: old,
            new_seconds: new,
            speedup: old / new,
        });
    }
}

/// The output layer as a training forward + backward evaluate it, at
/// `n x f` logits: the three-`exp` `log_softmax` + `softmax` pair the
/// trainers called before (`cagnet_dense::reference`) against the fused
/// one-`exp` kernel, destinations kept across calls as in the trainers.
fn bench_output_layer(rows: &mut Vec<KernelRow>, n: usize, f: usize) {
    let z = lcg_mat(n, f, 4);
    let [mut lp_old, mut p_old, mut lp_new, mut p_new] = [(); 4].map(|_| Mat::zeros(0, 0));
    let (old, new) = time_pair(
        reps_for(40 * (n * f) as u64),
        || {
            cagnet_dense::reference::log_softmax_rows_into(&z, &mut lp_old);
            cagnet_dense::reference::softmax_rows_into(&z, &mut p_old);
        },
        || cagnet_dense::activation::log_softmax_probs_into(&z, 0..f, &mut lp_new, &mut p_new),
    );
    let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&lp_new) == bits(&lp_old) && bits(&p_new) == bits(&p_old),
        "output layer {n}x{f}: fused kernel diverged from the reference pair"
    );
    // One `exp` per logit instead of three; `ln`, the divide and the
    // stores are what keeps the ratio under 3x.
    let logits = (n * f) as f64;
    println!(
        "output layer {n}x{f}: {:.2} -> {:.2} ns/logit",
        old * 1e9 / logits,
        new * 1e9 / logits
    );
    rows.push(KernelRow {
        kernel: "out_layer".into(),
        shape: format!("{n}x{f}"),
        threads: 1,
        old_seconds: old,
        new_seconds: new,
        speedup: old / new,
    });
}

fn main() {
    let (out_path, quick) = parse_args();
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let mut rows: Vec<KernelRow> = Vec::new();

    // GEMM at GCN shapes: tall-skinny activations times small weight
    // blocks (m = local vertices, k/n = feature widths).
    let gemm_shapes: &[(usize, usize, usize)] = if quick {
        &[(512, 64, 64), (2048, 128, 16)]
    } else {
        &[
            (512, 64, 64),
            (1024, 16, 16),
            (2048, 128, 16),
            (2048, 128, 128),
            (4096, 64, 64),
        ]
    };
    for &(m, k, n) in gemm_shapes {
        bench_gemm(&mut rows, m, k, n, threads);
    }

    // SpMM on power-law graphs at the common GCN widths (the
    // full-width register arms) plus one odd width (96: the direct pass
    // with a partly filled accumulator).
    let scale = if quick { 11 } else { 13 };
    let graph = rmat_symmetric(scale, 16, RmatParams::default(), 7);
    let tag = format!("rmat{scale}d16");
    let widths: &[usize] = if quick { &[16, 64] } else { &[16, 64, 128, 96] };
    for &f in widths {
        bench_spmm(&mut rows, &graph, &tag, f, threads);
    }

    // The packed-tile path (f > 128) at the dataset input widths — Amazon
    // 300, Reddit 602 = 18 full tiles and a ragged one — on a graph the
    // size and degree of the benchmark's Reddit panels, so `B` (39 MB at
    // 602) is far out of cache as it is there.
    let wide = erdos_renyi(8192, 35.0, 11);
    for &f in &[300usize, 602] {
        bench_spmm(&mut rows, &wide, WIDE_TAG, f, threads);
    }

    // The output layer at the benchmark workloads' per-rank logit shapes
    // (protein 3D, Reddit 1D, Amazon 1D / 2D, planted 1.5D).
    for &(n, f) in &[(4096usize, 256usize), (8192, 41), (8192, 24), (16384, 16)] {
        bench_output_layer(&mut rows, n, f);
    }

    // Report, then gate: ≥1.5x single-thread on the representative GCN
    // shapes for both kernels (acceptance floor; the max over shapes is
    // what the trajectory tracks, individual small shapes may be lower).
    println!("kernel              threads   old(ms)    new(ms)   speedup");
    for r in &rows {
        println!(
            "{:10} {:>12} {:>5}  {:>9.3} {:>9.3}  {:>7.2}x",
            r.kernel,
            r.shape,
            r.threads,
            r.old_seconds * 1e3,
            r.new_seconds * 1e3,
            r.speedup
        );
    }
    // The wide SpMM rows are judged below, not here, so that neither
    // group can carry the other's floor.
    let best1 = |kernel: &str| -> f64 {
        rows.iter()
            .filter(|r| r.kernel == kernel && r.threads == 1 && !r.shape.starts_with(WIDE_TAG))
            .map(|r| r.speedup)
            .fold(0.0, f64::max)
    };
    let (g, s) = (best1("gemm"), best1("spmm"));
    println!("single-thread best: gemm {g:.2}x, spmm {s:.2}x");
    assert!(
        g >= 1.5,
        "register-blocked GEMM regressed: best single-thread speedup {g:.2}x < 1.5x"
    );
    assert!(
        s >= 1.5,
        "specialized SpMM regressed: best single-thread speedup {s:.2}x < 1.5x"
    );
    // The packed-tile path's own floor: 1.5x on its better width, and
    // no less than 1.3x at Reddit's 602 (a host in a slow period reads
    // 1.4-1.55x there; the unpacked loop it replaced reads 0.7x).
    let wide1 = |f: usize| -> f64 {
        rows.iter()
            .find(|r| r.shape == format!("{WIDE_TAG}xf{f}") && r.threads == 1)
            .map_or(0.0, |r| r.speedup)
    };
    let (w300, w602) = (wide1(300), wide1(602));
    println!("single-thread packed-tile spmm: f=300 {w300:.2}x, f=602 {w602:.2}x");
    assert!(
        w300.max(w602) >= 1.5 && w602 >= 1.3,
        "packed-tile SpMM regressed: single-thread speedup {w300:.2}x at f = 300, \
         {w602:.2}x at f = 602 (floors: best 1.5x, f = 602 1.3x)"
    );
    // The fused output layer's floor, at the widest benchmark shape
    // (protein's 256 classes; 2.3-2.5x measured).
    let out_wide = rows
        .iter()
        .find(|r| r.kernel == "out_layer" && r.shape == "4096x256")
        .map_or(0.0, |r| r.speedup);
    assert!(
        out_wide >= 1.8,
        "fused output layer regressed: {out_wide:.2}x over the log_softmax + softmax pair \
         at 4096x256 (floor 1.8x)"
    );

    let json = serde_json::to_string(&rows).expect("serialize");
    if let Err(e) = std::fs::write(&out_path, format!("{json}\n")) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("rows written to {out_path}");
    cagnet_bench::emit_json(&rows);
}
