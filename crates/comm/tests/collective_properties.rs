//! Property-based tests of the simulated collectives: semantic identities
//! (reduce-scatter ∘ all-gather == all-reduce), exact cost-formula
//! charging, and word-counter consistency for arbitrary group sizes and
//! payload shapes.

use cagnet_comm::{Cat, Cluster, CostModel};
use cagnet_dense::Mat;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn reduce_scatter_then_allgather_equals_allreduce(
        p in 1usize..7,
        rows in 1usize..12,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let results = Cluster::new(p).run(|ctx| {
            let m = Mat::from_fn(rows, cols, |i, j| {
                ((ctx.rank * 31 + i * 7 + j) as f64 + seed as f64).sin()
            });
            let direct = ctx.world.allreduce_mat(&m, Cat::DenseComm);
            let mut scattered = Mat::zeros(0, 0);
            ctx.world
                .reduce_scatter_rows(Arc::new(m), None, &mut scattered, Cat::DenseComm);
            let parts = ctx.world.allgather(Arc::new(scattered), Cat::DenseComm);
            let composed = Mat::vstack(&parts);
            (direct, composed)
        });
        for (rank, ((direct, composed), _)) in results.iter().enumerate() {
            prop_assert!(
                direct.approx_eq(composed, 1e-12),
                "rank {rank}: composition mismatch"
            );
        }
    }

    #[test]
    fn bcast_cost_matches_model_exactly(
        p in 2usize..8,
        rows in 1usize..16,
        cols in 1usize..8,
        root in 0usize..8,
    ) {
        let root = root % p;
        let model = CostModel::summit_like();
        let expect = model.bcast_time(p, (rows * cols) as u64);
        let results = Cluster::new(p).with_model(model).run(|ctx| {
            let data = (ctx.rank == root).then(|| Mat::zeros(rows, cols));
            let _ = ctx.world.bcast(root, data, Cat::DenseComm);
            ctx.clock()
        });
        for (clock, _) in results {
            prop_assert!((clock - expect).abs() < 1e-15, "clock {clock} vs {expect}");
        }
    }

    #[test]
    fn allreduce_cost_and_words_match_model(
        p in 2usize..8,
        rows in 1usize..12,
        cols in 1usize..6,
    ) {
        let model = CostModel::summit_like();
        let w = (rows * cols) as u64;
        let expect_t = model.allreduce_time(p, w);
        let expect_w = 2 * w * (p as u64 - 1) / p as u64;
        let results = Cluster::new(p).with_model(model).run(|ctx| {
            let m = Mat::filled(rows, cols, ctx.rank as f64);
            let _ = ctx.world.allreduce_mat(&m, Cat::DenseComm);
            ctx.report()
        });
        for (rep, _) in results {
            prop_assert!((rep.clock - expect_t).abs() < 1e-15);
            prop_assert_eq!(rep.words(Cat::DenseComm), expect_w);
        }
    }

    #[test]
    fn allgather_preserves_all_contributions(p in 1usize..8, len in 1usize..20) {
        let results = Cluster::new(p).run(|ctx| {
            let data: Vec<f64> = (0..len).map(|i| (ctx.rank * 1000 + i) as f64).collect();
            let got = ctx.world.allgather(Arc::new(data), Cat::DenseComm);
            got.iter().map(|v| (**v).clone()).collect::<Vec<Vec<f64>>>()
        });
        for (got, _) in results {
            prop_assert_eq!(got.len(), p);
            for (src, v) in got.iter().enumerate() {
                for (i, &x) in v.iter().enumerate() {
                    prop_assert_eq!(x, (src * 1000 + i) as f64);
                }
            }
        }
    }

    #[test]
    fn split_then_collectives_stay_isolated(
        p1 in 1usize..4,
        p2 in 1usize..4,
        val in -100.0f64..100.0,
    ) {
        // Two color groups run different numbers of collectives without
        // interfering.
        let p = p1 + p2;
        let results = Cluster::new(p).run(|ctx| {
            let color = u64::from(ctx.rank >= p1);
            let sub = ctx.world.split(color);
            let mut acc = 0.0;
            let rounds = if color == 0 { 2 } else { 3 };
            for _ in 0..rounds {
                acc = sub.allreduce_scalar(val, Cat::DenseComm);
            }
            (color, acc)
        });
        for (rank, ((color, acc), _)) in results.iter().enumerate() {
            let group = if *color == 0 { p1 } else { p2 };
            prop_assert!(
                (acc - val * group as f64).abs() < 1e-9,
                "rank {rank}: {acc} vs {}",
                val * group as f64
            );
        }
    }

    #[test]
    fn bsp_clock_is_max_plus_cost(p in 2usize..6, work in 0.0f64..10.0) {
        let model = CostModel::summit_like();
        let barrier = model.barrier_time(p);
        let results = Cluster::new(p).with_model(model).run(|ctx| {
            // Rank r does r * work seconds of local compute.
            ctx.charge(Cat::Misc, ctx.rank as f64 * work);
            ctx.world.barrier();
            ctx.clock()
        });
        let expect = (p - 1) as f64 * work + barrier;
        for (clock, _) in results {
            prop_assert!((clock - expect).abs() < 1e-12);
        }
    }
}

/// Values a sparse reduce-scatter must carry through bit for bit: signed
/// zeros, infinities, NaN and ordinary numbers.
const EDGES: [f64; 8] = [
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    1.5,
    -2.25,
    1e300,
    -1e-300,
];

#[test]
fn sparse_reduce_matches_dense_bit_for_bit_at_the_edges() {
    use cagnet_comm::{Precision, TransportKind};
    use cagnet_sparse::partition::block_range;
    // Rank r's contribution is +0.0 outside the rows v with
    // (v + r) mod (r + 2) ≠ 0, which it names as its send sets: about
    // half of each block at rank 0 (sent indexed), four fifths at rank 3
    // (sent whole, the indexed form not being smaller at f = 3). Its
    // other rows hold −0.0, ±inf, NaN and ordinary values.
    let (n, f) = (11, 3);
    let live = |rank: usize, v: usize| !(v + rank).is_multiple_of(rank + 2);
    let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let transports = if cfg!(unix) {
        vec![TransportKind::Shared, TransportKind::Socket]
    } else {
        vec![TransportKind::Shared]
    };
    for p in 2..=4 {
        for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
            let mut first: Option<Vec<Vec<u64>>> = None;
            for &transport in &transports {
                let results = Cluster::new(p)
                    .with_transport(transport)
                    .with_precision(precision)
                    .run_wire(|ctx| {
                        let m = Arc::new(Mat::from_fn(n, f, |v, c| {
                            if live(ctx.rank, v) {
                                EDGES[(v * f + c + ctx.rank) % EDGES.len()]
                            } else {
                                0.0
                            }
                        }));
                        let sends: Vec<Vec<usize>> = (0..p)
                            .map(|j| {
                                let (r0, r1) = block_range(n, p, j);
                                (r0..r1)
                                    .filter(|&v| live(ctx.rank, v))
                                    .map(|v| v - r0)
                                    .collect()
                            })
                            .collect();
                        let (mut sparse, mut dense) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
                        ctx.world.reduce_scatter_rows(
                            m.clone(),
                            Some(&Arc::new(sends)),
                            &mut sparse,
                            Cat::DenseComm,
                        );
                        ctx.world
                            .reduce_scatter_rows(m, None, &mut dense, Cat::DenseComm);
                        vec![sparse, dense]
                    });
                let mut seen = Vec::new();
                for (rank, (pair, _)) in results.iter().enumerate() {
                    let case = format!("P={p} {precision:?} {transport:?} rank {rank}");
                    assert_eq!(pair[0].shape(), pair[1].shape(), "{case}");
                    assert_eq!(bits(&pair[0]), bits(&pair[1]), "{case}: sparse vs dense");
                    seen.push(bits(&pair[0]));
                }
                match &first {
                    None => first = Some(seen),
                    Some(shared) => assert_eq!(shared, &seen, "P={p} {precision:?}: transports"),
                }
            }
        }
    }
}

#[test]
fn sparse_reduce_meters_what_each_rank_receives() {
    use cagnet_sparse::partition::block_range;
    // Every row of every block is named, so every part goes whole. On
    // balanced blocks that is the dense form's words and clock; on
    // unbalanced ones each rank meters its own block from p − 1 peers,
    // against the dense form's floored average.
    let model = CostModel::summit_like();
    for (n, p, sparse_words, dense_words) in [
        (8, 4, vec![6, 6, 6, 6], 6),
        (10, 4, vec![9, 9, 6, 6], 7),
        (7, 3, vec![6, 4, 4], 4),
    ] {
        let results = Cluster::new(p).run(|ctx| {
            let m = Arc::new(Mat::from_fn(n, 1, |v, _| (v + ctx.rank) as f64));
            let sends: Vec<Vec<usize>> = (0..p)
                .map(|j| {
                    let (r0, r1) = block_range(n, p, j);
                    (0..r1 - r0).collect()
                })
                .collect();
            let (mut sparse, mut dense) = (Mat::zeros(0, 0), Mat::zeros(0, 0));
            ctx.world.reduce_scatter_rows(
                m.clone(),
                Some(&Arc::new(sends)),
                &mut sparse,
                Cat::DenseComm,
            );
            let after_sparse = ctx.report();
            ctx.world
                .reduce_scatter_rows(m, None, &mut dense, Cat::DenseComm);
            assert_eq!(sparse, dense, "n={n} P={p} rank {}", ctx.rank);
            (after_sparse, ctx.report())
        });
        for (rank, ((sparse, both), _)) in results.iter().enumerate() {
            let case = format!("n={n} P={p} rank {rank}");
            let w = sparse.words(Cat::DenseComm);
            assert_eq!(w, sparse_words[rank], "{case}: sparse words");
            assert_eq!(
                both.words(Cat::DenseComm) - w,
                dense_words,
                "{case}: dense words"
            );
            let lg = (p as f64).log2().ceil();
            let sparse_cost = model.alpha * lg + model.beta * w as f64;
            assert!(
                (sparse.seconds(Cat::DenseComm) - sparse_cost).abs() <= 1e-15,
                "{case}: sparse clock"
            );
        }
        if n % p == 0 {
            let (sparse, both) = &results[0].0;
            assert_eq!(
                sparse.seconds(Cat::DenseComm),
                both.seconds(Cat::DenseComm) - sparse.seconds(Cat::DenseComm),
                "n={n} P={p}: balanced blocks price both forms alike"
            );
        }
        let total: u64 = sparse_words.iter().sum();
        assert!(total - (p as u64 * dense_words) < p as u64, "n={n} P={p}");
    }
}
