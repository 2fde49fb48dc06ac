//! CheckMode must be free: on matching collectives the checked runtime
//! publishes and verifies fingerprints but charges nothing, so results,
//! cost totals, and traces are bit-identical with the check on and off.

use cagnet_comm::trace::TraceEvent;
use cagnet_comm::{Cat, CheckMode, Cluster, TimelineReport};
use cagnet_dense::Mat;
use std::sync::Arc;

/// A workload touching every collective (and a sub-communicator); returns
/// a result checksum plus the rank's trace.
fn workload(p: usize, check: CheckMode) -> Vec<((f64, Vec<TraceEvent>), TimelineReport)> {
    Cluster::new(p).with_check(check).run(move |ctx| {
        ctx.enable_tracing();
        let r = ctx.rank;
        let mut sum = 0.0;

        let b = ctx
            .world
            .bcast(0, (r == 0).then(|| vec![1.0, 2.0]), Cat::DenseComm);
        sum += b.iter().sum::<f64>();

        let m = Mat::from_fn(2 * p, 3, |i, j| (r + i * 5 + j) as f64);
        sum += ctx.world.allreduce_mat(&m, Cat::DenseComm).as_slice()[0];
        sum += ctx.world.allreduce_scalar(r as f64, Cat::DenseComm);
        let mut block = Mat::zeros(0, 0);
        ctx.world
            .reduce_scatter_rows(Arc::new(m), &mut block, Cat::DenseComm);
        sum += block.as_slice()[0];

        let parts = ctx.world.allgather(vec![r as f64], Cat::SparseComm);
        sum += parts.iter().map(|v| v[0]).sum::<f64>();

        let swapped = ctx
            .world
            .alltoall((0..p).map(|j| (r * p + j) as f64).collect(), Cat::DenseComm);
        sum += swapped.iter().sum::<f64>();

        if let Some(all) = ctx.world.gather(0, r as f64, Cat::DenseComm) {
            sum += all.iter().map(|v| **v).sum::<f64>();
        }
        sum += ctx.world.scatter(
            0,
            (r == 0).then(|| (0..p).map(|j| j as f64).collect::<Vec<_>>()),
            Cat::DenseComm,
        );

        if p > 1 {
            let partner = r ^ 1;
            let got = ctx
                .world
                .sendrecv(Some(partner), Some(vec![r as f64]), Cat::DenseComm);
            if let Some(v) = got {
                sum += v[0];
            }
        }

        let sub = ctx.world.split((r % 2) as u64);
        sub.barrier();
        sum += sub.allreduce_scalar(1.0, Cat::DenseComm);
        ctx.world.barrier();

        (sum, ctx.take_trace())
    })
}

#[test]
fn check_mode_is_a_bit_identical_noop() {
    for p in [1usize, 2, 4, 8] {
        let off = workload(p, CheckMode::Off);
        let on = workload(p, CheckMode::On);
        assert_eq!(off.len(), on.len());
        for (rank, (((s_off, t_off), rep_off), ((s_on, t_on), rep_on))) in
            off.iter().zip(&on).enumerate()
        {
            assert_eq!(
                s_off.to_bits(),
                s_on.to_bits(),
                "P={p} rank {rank}: results differ"
            );
            assert_eq!(rep_off, rep_on, "P={p} rank {rank}: cost totals differ");
            assert_eq!(t_off, t_on, "P={p} rank {rank}: traces differ");
        }
    }
}

#[test]
fn check_mode_adds_no_modeled_cost() {
    for p in [2usize, 4] {
        for check in [CheckMode::Off, CheckMode::On] {
            let reports = workload(p, check);
            let clock0 = reports[0].1.clock;
            for (rank, (_, rep)) in reports.iter().enumerate() {
                assert_eq!(
                    rep.clock.to_bits(),
                    clock0.to_bits(),
                    "P={p} {check:?} rank {rank}: BSP clocks diverge"
                );
            }
        }
    }
}
