//! Wall-clock overhead of the simulated collectives (the runtime's own
//! cost, not the modeled α–β time): rendezvous, Arc movement, and
//! reductions across thread counts.

use cagnet_comm::{Cat, Cluster};
use cagnet_dense::Mat;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

fn bench_bcast(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_bcast_64kB");
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                Cluster::new(p).run(|ctx| {
                    for _ in 0..8 {
                        let data = (ctx.rank == 0).then(|| Mat::zeros(64, 128));
                        let _ = ctx.world.bcast(0, data, Cat::DenseComm);
                    }
                })
            })
        });
    }
    g.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_allreduce_16kB");
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                Cluster::new(p).run(|ctx| {
                    let m = Mat::filled(32, 64, ctx.rank as f64);
                    for _ in 0..8 {
                        let _ = ctx.world.allreduce_mat(&m, Cat::DenseComm);
                    }
                })
            })
        });
    }
    g.finish();
}

fn bench_reduce_scatter(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_reduce_scatter_64kB");
    for p in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                Cluster::new(p).run(|ctx| {
                    let m = Arc::new(Mat::filled(128, 64, ctx.rank as f64));
                    let mut out = Mat::zeros(0, 0);
                    for _ in 0..8 {
                        ctx.world
                            .reduce_scatter_rows(m.clone(), &mut out, Cat::DenseComm);
                    }
                })
            })
        });
    }
    g.finish();
}

fn bench_cluster_spawn(c: &mut Criterion) {
    // Fixed cost of standing a simulated cluster up and down.
    let mut g = c.benchmark_group("cluster_spawn");
    for p in [4usize, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| Cluster::new(p).run(|ctx| ctx.world.barrier()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_bcast, bench_allreduce, bench_reduce_scatter, bench_cluster_spawn
}
criterion_main!(benches);
