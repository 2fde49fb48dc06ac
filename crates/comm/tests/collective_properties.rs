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
                .reduce_scatter_rows(Arc::new(m), &mut scattered, Cat::DenseComm);
            let parts = ctx.world.allgather(scattered, Cat::DenseComm);
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
            let got = ctx.world.allgather(data, Cat::DenseComm);
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
