//! Integration tests for compressed wire precision (DESIGN.md §14):
//! `f64` mode must be bit-identical to the historical behaviour, packed
//! modes must replicate identically on every rank, halve (f32) or
//! quarter (bf16) the metered dense words under their own categories,
//! keep root-resident data exact, and fail CheckMode with a *named*
//! dtype when ranks disagree on the wire precision.

use cagnet_comm::{Cat, CheckMode, Cluster, CostModel, Precision};
use cagnet_dense::Mat;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A deterministic matrix of values that are *not* exactly representable
/// in f32, so rounding is observable.
fn irr_mat(rows: usize, cols: usize, salt: u64) -> Mat {
    Mat::from_fn(rows, cols, |i, j| {
        ((salt as f64 + 1.0) * (i as f64 + 0.1) - (j as f64 + 0.7)).sin() / 3.0
    })
}

/// What a rank receives after one f32 round trip: rounded exactly once
/// at the sender, widened exactly at every receiver.
fn round_f32(m: &Mat) -> Mat {
    Mat::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] as f32 as f64)
}

#[test]
fn f64_mode_is_bitwise_identical_to_default() {
    let workload = |cluster: Cluster| {
        cluster.run(|ctx| {
            let m = irr_mat(6, 5, ctx.rank as u64);
            let summed = ctx.world.allreduce_mat(&m, Cat::DenseComm);
            let payload = (ctx.rank == 0).then(|| irr_mat(4, 3, 99));
            let b = ctx.world.bcast(0, payload, Cat::DenseComm);
            // Into a dirty, wrong-shaped destination: it must come back
            // as the reduced block and nothing else.
            let mut part = Mat::filled(2, 9, f64::NAN);
            ctx.world
                .reduce_scatter_rows(Arc::new(m), &mut part, Cat::DenseComm);
            (summed, (*b).clone(), part, ctx.report())
        })
    };
    let base = workload(Cluster::new(3));
    let explicit = workload(Cluster::new(3).with_precision(Precision::F64));
    for ((s0, b0, p0, r0), (s1, b1, p1, r1)) in base
        .iter()
        .map(|(v, _)| v)
        .zip(explicit.iter().map(|(v, _)| v))
    {
        assert_eq!(s0, s1);
        assert_eq!(b0, b1);
        assert_eq!(p0, p1);
        assert_eq!(r0.clock, r1.clock);
        assert_eq!(r0.words(Cat::DenseComm), r1.words(Cat::DenseComm));
        assert_eq!(r0.words(Cat::DenseComm32), 0);
        assert_eq!(r1.words(Cat::DenseComm32), 0);
    }
}

#[test]
fn f32_bcast_replicates_rounded_values_on_every_rank() {
    let src = irr_mat(7, 3, 5);
    let expect = round_f32(&src);
    let results = Cluster::new(4).with_precision(Precision::F32).run(|ctx| {
        let payload = (ctx.rank == 1).then(|| src.clone());
        let got = ctx.world.bcast(1, payload, Cat::DenseComm);
        ((*got).clone(), ctx.report())
    });
    for (rank, ((got, rep), _)) in results.iter().enumerate() {
        // The replication invariant: the *root included*, every rank
        // holds the widened packed payload, never the original.
        assert_eq!(got, &expect, "rank {rank} diverged");
        assert_ne!(got, &src, "rounding must be observable");
        assert_eq!(rep.words(Cat::DenseComm), 0);
    }
    // Word metering: every rank (root included, matching the f64 bcast
    // convention) records ceil(n·4/8) packed words under the f32
    // category — half the 21 words the uncompressed payload moves.
    let packed_words = (7u64 * 3 * 4).div_ceil(8);
    for (rank, ((_, rep), _)) in results.iter().enumerate() {
        assert_eq!(rep.words(Cat::DenseComm32), packed_words, "rank {rank}");
    }
}

#[test]
fn f32_allreduce_sums_widened_parts_in_member_order() {
    let p = 4;
    let mats: Vec<Mat> = (0..p).map(|r| irr_mat(5, 4, r as u64)).collect();
    // Every rank's contribution rounds once at its sender; the sum runs
    // over the widened f64 values in member order.
    let mut expect = Mat::zeros(5, 4);
    for m in &mats {
        cagnet_dense::ops::add_assign(&mut expect, &round_f32(m));
    }
    let mats = Arc::new(mats);
    let results = Cluster::new(p).with_precision(Precision::F32).run(|ctx| {
        let summed = ctx.world.allreduce_mat(&mats[ctx.rank], Cat::DenseComm);
        (summed, ctx.report())
    });
    let w = (5u64 * 4 * 4).div_ceil(8);
    let expect_words = 2 * w * (p as u64 - 1) / p as u64;
    let expect_t = CostModel::summit_like().allreduce_time(p, w);
    for (rank, ((summed, rep), _)) in results.iter().enumerate() {
        assert_eq!(summed, &expect, "rank {rank} sum diverged");
        assert_eq!(rep.words(Cat::DenseComm32), expect_words);
        assert_eq!(rep.words(Cat::DenseComm), 0);
        assert!((rep.clock - expect_t).abs() < 1e-15);
        // The dual-lane reconciliation invariant holds for the new
        // categories: Σ per-category seconds == clock.
        assert!((rep.busy_seconds() - rep.clock).abs() < 1e-12);
    }
}

#[test]
fn bf16_quarters_the_dense_words() {
    let p = 2;
    let (rows, cols) = (8, 8);
    let words_at = |prec: Precision| -> u64 {
        let results = Cluster::new(p).with_precision(prec).run(|ctx| {
            let m = irr_mat(rows, cols, ctx.rank as u64);
            let _ = ctx.world.allreduce_mat(&m, Cat::DenseComm);
            ctx.report()
        });
        let (rep, _) = &results[0];
        rep.words(Cat::DenseComm) + rep.words(Cat::DenseComm32) + rep.words(Cat::DenseComm16)
    };
    let full = words_at(Precision::F64);
    let half = words_at(Precision::F32);
    let quarter = words_at(Precision::Bf16);
    assert_eq!(half * 2, full);
    assert_eq!(quarter * 4, full);
}

#[test]
fn f32_gather_rows_keeps_root_exact_and_rounds_receivers() {
    let block = irr_mat(8, 3, 17);
    let block2 = block.clone();
    let needed: &[usize] = &[1, 3, 6];
    let results = Cluster::new(3).with_precision(Precision::F32).run(|ctx| {
        let payload = (ctx.rank == 0).then(|| block2.clone());
        let got = ctx.world.gather_rows(
            0,
            payload.map(Arc::new),
            needed,
            Some((8, 3)),
            Cat::DenseComm,
        );
        ((**got.mat()).clone(), got.rows().is_some(), ctx.report())
    });
    // Root-resident data never rides the wire, so it is never rounded.
    let (root_mat, root_compact, root_rep) = &results[0].0;
    assert_eq!(root_mat, &block);
    assert!(!root_compact);
    assert_eq!(root_rep.words(Cat::DenseComm32), 0);
    // Receivers hold the f32-rounded requested rows, metered at packed
    // row width plus one full-price index word per row.
    let rounded = round_f32(&block);
    let row_words = 1 + (3u64 * 4).div_ceil(8);
    for (rank, result) in results.iter().enumerate().skip(1) {
        let (mat, compact, rep) = &result.0;
        assert!(*compact);
        assert_eq!(mat.rows(), needed.len());
        for (i, &r) in needed.iter().enumerate() {
            assert_eq!(mat.row(i), rounded.row(r), "rank {rank} row {r}");
        }
        assert_eq!(rep.words(Cat::DenseComm32), needed.len() as u64 * row_words);
        assert_eq!(rep.words(Cat::DenseComm), 0);
    }
}

#[test]
fn packed_nonblocking_forms_match_blocking() {
    let results = Cluster::new(3).with_precision(Precision::F32).run(|ctx| {
        let m = irr_mat(6, 4, ctx.rank as u64);
        let blocking = ctx.world.allreduce_mat(&m, Cat::DenseComm);
        let pending = ctx.world.iallreduce_mat(&m, Cat::DenseComm);
        let nonblocking = pending.wait();
        let payload = (ctx.rank == 2).then(|| irr_mat(3, 3, 8));
        let b = ctx.world.bcast(2, payload.clone(), Cat::DenseComm);
        let ib = ctx.world.ibcast(2, payload, Cat::DenseComm).wait();
        let ig = ctx
            .world
            .igather_rows(
                2,
                (ctx.rank == 2).then(|| Arc::new(irr_mat(5, 2, 4))),
                &[0, 4],
                Some((5, 2)),
                Cat::DenseComm,
            )
            .wait();
        (
            blocking,
            nonblocking,
            (*b).clone(),
            (*ib).clone(),
            (**ig.mat()).clone(),
        )
    });
    let ig_expect_receiver = {
        let rounded = round_f32(&irr_mat(5, 2, 4));
        let mut m = Mat::zeros(2, 2);
        m.row_mut(0).copy_from_slice(rounded.row(0));
        m.row_mut(1).copy_from_slice(rounded.row(4));
        m
    };
    for (rank, ((blocking, nonblocking, b, ib, ig), _)) in results.iter().enumerate() {
        assert_eq!(blocking, nonblocking, "rank {rank} iallreduce diverged");
        assert_eq!(b, ib, "rank {rank} ibcast diverged");
        if rank == 2 {
            assert_eq!(*ig, irr_mat(5, 2, 4), "igather root must stay exact");
        } else {
            assert_eq!(*ig, ig_expect_receiver, "rank {rank} igather diverged");
        }
    }
}

#[test]
fn non_dense_categories_and_scalars_stay_full_precision() {
    let results = Cluster::new(2).with_precision(Precision::Bf16).run(|ctx| {
        // Misc-category dense payloads (e.g. label shards) and scalar
        // reductions are off the dense hot path and must stay exact.
        let m = irr_mat(4, 4, ctx.rank as u64);
        let exact = ctx.world.allreduce_mat(&m, Cat::Misc);
        let s = ctx
            .world
            .allreduce_scalar(0.1 + ctx.rank as f64, Cat::DenseComm);
        (exact, s, ctx.report())
    });
    let mut expect = irr_mat(4, 4, 0);
    cagnet_dense::ops::add_assign(&mut expect, &irr_mat(4, 4, 1));
    for ((exact, s, rep), _) in &results {
        assert_eq!(exact, &expect);
        assert_eq!(*s, 0.1 + (0.1 + 1.0));
        assert_eq!(rep.words(Cat::DenseComm16), 0);
    }
}

#[test]
fn precision_mismatch_fails_check_with_named_dtype() {
    let err = catch_unwind(AssertUnwindSafe(|| {
        Cluster::new(2).with_check(CheckMode::On).run(|ctx| {
            // Rank 0 silently flips its wire precision — the classic
            // misconfigured-rank fault. CheckMode must name the packed
            // dtype, not die in a payload downcast.
            if ctx.rank == 0 {
                ctx.world.set_precision(Precision::F32);
            }
            let m = irr_mat(3, 3, ctx.rank as u64);
            let _ = ctx.world.allreduce_mat(&m, Cat::DenseComm);
        });
    }))
    .expect_err("mismatched wire precisions must fail the fingerprint check");
    let msg = match err.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => *other
            .downcast::<&'static str>()
            .map(|s| Box::new(s.to_string()))
            .unwrap(),
    };
    assert!(msg.contains("collective fingerprint mismatch"), "{msg}");
    assert!(msg.contains("packed-f32"), "{msg}");
}

#[test]
fn single_rank_runs_never_round() {
    let results = Cluster::new(1).with_precision(Precision::Bf16).run(|ctx| {
        let m = irr_mat(5, 5, 3);
        let summed = ctx.world.allreduce_mat(&m, Cat::DenseComm);
        let b = ctx.world.bcast(0, Some(m.clone()), Cat::DenseComm);
        (summed, (*b).clone())
    });
    let (summed, b) = &results[0].0;
    // Compression is a wire property; with no wire there is no rounding.
    assert_eq!(summed, &irr_mat(5, 5, 3));
    assert_eq!(b, &irr_mat(5, 5, 3));
}
