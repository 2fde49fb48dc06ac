//! Wall-clock microbenchmarks of the local kernels (the simulator charges
//! *modeled* time; these measure the real Rust kernels so the cost-model
//! constants can be sanity-checked against actual throughput).
//!
//! The hypersparsity sweep mirrors Yang et al. [33] as cited in §VI: same
//! nonzero count, decreasing density — sustained flop rate should fall as
//! the average degree drops.

use cagnet_dense::{activation, init, matmul, matmul_nt, matmul_tn, matmul_with, Mat};
use cagnet_parallel::ParallelCtx;
use cagnet_sparse::generate::erdos_renyi;
use cagnet_sparse::spmm::{spmm, spmm_with};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_spmm_hypersparsity(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmm_hypersparsity");
    let f = 64;
    // Fixed nnz ≈ 2^17, varying rows => average degree 64, 16, 4.
    for (rows, degree) in [(2048usize, 64.0f64), (8192, 16.0), (32768, 4.0)] {
        let a = erdos_renyi(rows, degree, 1);
        let h = init::uniform(rows, f, -1.0, 1.0, 2);
        let flops = 2 * a.nnz() as u64 * f as u64;
        g.throughput(Throughput::Elements(flops));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("d{}", degree as usize)),
            &(a, h),
            |b, (a, h)| b.iter(|| spmm(a, h)),
        );
    }
    g.finish();
}

fn bench_spmm_skinny(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmm_skinny");
    let a = erdos_renyi(8192, 16.0, 3);
    // Same sparse matrix, narrowing dense operand (the 2D-partitioning
    // effect of §VI-a item 2).
    for f in [128usize, 16, 2] {
        let h = init::uniform(8192, f, -1.0, 1.0, 4);
        let flops = 2 * a.nnz() as u64 * f as u64;
        g.throughput(Throughput::Elements(flops));
        g.bench_with_input(BenchmarkId::from_parameter(f), &h, |b, h| {
            b.iter(|| spmm(&a, h))
        });
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for n in [64usize, 128, 256] {
        let a = init::uniform(n, n, -1.0, 1.0, 5);
        let b_ = init::uniform(n, n, -1.0, 1.0, 6);
        g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
        g.bench_with_input(
            BenchmarkId::new("nn", n),
            &(a.clone(), b_.clone()),
            |b, (x, y)| b.iter(|| matmul(x, y)),
        );
        g.bench_with_input(
            BenchmarkId::new("tn", n),
            &(a.clone(), b_.clone()),
            |b, (x, y)| b.iter(|| matmul_tn(x, y)),
        );
        g.bench_with_input(BenchmarkId::new("nt", n), &(a, b_), |b, (x, y)| {
            b.iter(|| matmul_nt(x, y))
        });
    }
    g.finish();
}

fn bench_tall_skinny_gemm(c: &mut Criterion) {
    // The actual GCN shape: (n x f_in) · (f_in x f_out).
    let mut g = c.benchmark_group("gemm_gcn_shape");
    let n = 16384;
    for (fin, fout) in [(602usize, 16usize), (16, 16), (16, 41)] {
        let t = init::uniform(n, fin, -1.0, 1.0, 7);
        let w = init::uniform(fin, fout, -1.0, 1.0, 8);
        g.throughput(Throughput::Elements(2 * (n * fin * fout) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{fin}x{fout}")),
            &(t, w),
            |b, (t, w)| b.iter(|| matmul(t, w)),
        );
    }
    g.finish();
}

fn bench_parallel_gemm_threads(c: &mut Criterion) {
    // Serial vs threaded GEMM over a threads axis. The parallel kernels
    // are bit-identical to serial, so this measures pure fork-join
    // speedup (and overhead at small sizes).
    let mut g = c.benchmark_group("gemm_threads");
    let n = 384usize;
    let a = init::uniform(n, n, -1.0, 1.0, 15);
    let b_ = init::uniform(n, n, -1.0, 1.0, 16);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));
    g.bench_function("serial", |b| b.iter(|| matmul(&a, &b_)));
    for threads in [2usize, 4, 8] {
        let ctx = ParallelCtx::new(threads);
        g.bench_with_input(BenchmarkId::new("threads", threads), &ctx, |b, ctx| {
            b.iter(|| matmul_with(*ctx, &a, &b_))
        });
    }
    g.finish();
}

fn bench_parallel_spmm_threads(c: &mut Criterion) {
    // Serial vs threaded SpMM at a GCN-like shape (16k rows, degree 16,
    // f = 64), with the nnz-balanced deterministic row chunking.
    let mut g = c.benchmark_group("spmm_threads");
    let a = erdos_renyi(16384, 16.0, 17);
    let h = init::uniform(16384, 64, -1.0, 1.0, 18);
    let flops = 2 * a.nnz() as u64 * 64;
    g.throughput(Throughput::Elements(flops));
    g.bench_function("serial", |b| b.iter(|| spmm(&a, &h)));
    for threads in [2usize, 4, 8] {
        let ctx = ParallelCtx::new(threads);
        g.bench_with_input(BenchmarkId::new("threads", threads), &ctx, |b, ctx| {
            b.iter(|| spmm_with(*ctx, &a, &h))
        });
    }
    g.finish();
}

fn bench_transpose_and_activations(c: &mut Criterion) {
    let a = erdos_renyi(16384, 16.0, 9);
    c.bench_function("csr_transpose_262k_nnz", |b| b.iter(|| a.transpose()));
    let z = init::uniform(16384, 41, -1.0, 1.0, 10);
    c.bench_function("log_softmax_16k_x_41", |b| {
        b.iter(|| activation::log_softmax_rows(&z))
    });
    // The training forward's form: `log p` and `p` from one `exp` each.
    let (mut log_p, mut p) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
    c.bench_function("log_softmax_probs_16k_x_41", |b| {
        b.iter(|| activation::log_softmax_probs_into(&z, 0..41, &mut log_p, &mut p))
    });
    let z2 = init::uniform(16384, 16, -1.0, 1.0, 11);
    c.bench_function("relu_16k_x_16", |b| b.iter(|| activation::relu(&z2)));
    let m = init::uniform(1024, 1024, -1.0, 1.0, 12);
    c.bench_function("dense_transpose_1k", |b| b.iter(|| Mat::transpose(&m)));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_spmm_hypersparsity, bench_spmm_skinny, bench_gemm,
              bench_tall_skinny_gemm, bench_parallel_gemm_threads,
              bench_parallel_spmm_threads, bench_transpose_and_activations
}
criterion_main!(benches);
