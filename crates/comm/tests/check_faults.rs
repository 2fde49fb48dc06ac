//! Fault-injection tests for the checked runtime: deliberately
//! mismatched collectives, deadlocks, and rank panics must each die with
//! a diagnostic naming the offending rank and collective — never hang
//! and never corrupt silently. Fingerprints are verified on every run,
//! so mismatches fail alike under either `CheckMode`; the deadlock cases
//! need the watchdog of `CheckMode::On`.

use cagnet_comm::{Cat, CheckMode, Cluster, Communicator};
use cagnet_dense::Mat;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

const BOTH: [CheckMode; 2] = [CheckMode::On, CheckMode::Off];

/// Run `f`, require it to panic, and return the panic message.
fn panic_text<F: FnOnce()>(f: F) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
    match err.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => match other.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => panic!("non-string panic payload"),
        },
    }
}

#[test]
fn root_mismatch_names_offender() {
    for check in BOTH {
        let msg = panic_text(|| {
            Cluster::new(2).with_check(check).run(|ctx| {
                // Each rank believes itself the broadcast root: same slot,
                // different root fields.
                let root = ctx.rank;
                let payload = Some(vec![ctx.rank as f64]);
                let _ = ctx.world.bcast(root, payload, Cat::DenseComm);
            });
        });
        assert!(
            msg.contains("collective fingerprint mismatch"),
            "{check:?}: {msg}"
        );
        assert!(msg.contains("bcast"), "{check:?}: {msg}");
        assert!(msg.contains("offending rank(s)"), "{check:?}: {msg}");
    }
}

#[test]
fn shape_mismatch_names_offender() {
    let msg = panic_text(|| {
        Cluster::new(4).with_check(CheckMode::On).run(|ctx| {
            // Rank 2 contributes a differently-shaped matrix.
            let rows = if ctx.rank == 2 { 3 } else { 2 };
            let m = Mat::zeros(rows, 2);
            let _ = ctx.world.allreduce_mat(&m, Cat::DenseComm);
        });
    });
    assert!(msg.contains("collective fingerprint mismatch"), "{msg}");
    assert!(msg.contains("allreduce"), "{msg}");
    assert!(msg.contains("rank 2"), "{msg}");
}

#[test]
fn kind_mismatch_names_both_collectives() {
    // Same communicator, same sequence number, different collectives —
    // the classic mismatched-call-order bug. A broadcast met by an
    // all-gather of the same type would otherwise complete on both
    // ranks, each with a plausible result.
    type Calls = fn(&Communicator, usize);
    let cases: [(&str, &str, Calls); 2] = [
        ("barrier", "allreduce_scalar", |world, rank| {
            if rank == 0 {
                world.barrier();
            } else {
                let _ = world.allreduce_scalar(1.0, Cat::DenseComm);
            }
        }),
        ("bcast", "allgather", |world, rank| {
            if rank == 0 {
                let _ = world.bcast(0, Some(vec![0.0]), Cat::DenseComm);
            } else {
                let _ = world.allgather(Arc::new(vec![1.0]), Cat::DenseComm);
            }
        }),
    ];
    for check in BOTH {
        for (first, second, calls) in cases {
            let msg = panic_text(|| {
                Cluster::new(2)
                    .with_check(check)
                    .run(|ctx| calls(&ctx.world, ctx.rank));
            });
            let case = format!("{first} vs {second}, {check:?}");
            assert!(
                msg.contains("collective fingerprint mismatch"),
                "{case}: {msg}"
            );
            assert!(msg.contains(first) && msg.contains(second), "{case}: {msg}");
        }
    }
}

#[test]
fn gather_rows_wrong_root_panel_shape_names_offender() {
    // The root serves a panel with the wrong dimensions mid-"SUMMA":
    // receivers fingerprint the dims they expect, so the checked run
    // attributes the bad panel to the root instead of mis-slicing.
    let msg = panic_text(|| {
        Cluster::new(4).with_check(CheckMode::On).run(|ctx| {
            use std::sync::Arc;
            // Everyone expects a 6x3 block; the root deposits 5x3.
            let payload = (ctx.rank == 1).then(|| Arc::new(Mat::zeros(5, 3)));
            let _ = ctx
                .world
                .gather_rows(1, payload, &[0, 2], Some((6, 3)), Cat::DenseComm);
        });
    });
    assert!(msg.contains("collective fingerprint mismatch"), "{msg}");
    assert!(msg.contains("gather_rows"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
}

#[test]
fn igather_rows_wrong_root_panel_shape_names_offender() {
    // Same fault through the nonblocking path: fingerprints deposit at
    // issue, so the mismatch surfaces at wait() with the same attribution.
    let msg = panic_text(|| {
        Cluster::new(4).with_check(CheckMode::On).run(|ctx| {
            use std::sync::Arc;
            let payload = (ctx.rank == 2).then(|| Arc::new(Mat::zeros(8, 2)));
            let _ = ctx
                .world
                .igather_rows(2, payload, &[1], Some((4, 2)), Cat::DenseComm)
                .wait();
        });
    });
    assert!(msg.contains("collective fingerprint mismatch"), "{msg}");
    assert!(msg.contains("rank 2"), "{msg}");
}

#[test]
fn cross_communicator_deadlock_is_detected() {
    // 2x2 grid: row comms {0,1} {2,3}, column comms {0,2} {1,3}. The
    // barrier orderings below form a 4-cycle in the wait-for graph
    // (0→1→3→2→0), which no timeout-free schedule can resolve.
    let msg = panic_text(|| {
        Cluster::new(4).with_check(CheckMode::On).run(|ctx| {
            let row = ctx.world.split((ctx.rank / 2) as u64);
            let col = ctx.world.split((ctx.rank % 2) as u64);
            match ctx.rank {
                0 | 3 => {
                    row.barrier();
                    col.barrier();
                }
                _ => {
                    col.barrier();
                    row.barrier();
                }
            }
        });
    });
    assert!(msg.contains("deadlock detected"), "{msg}");
    assert!(msg.contains("wait cycle"), "{msg}");
    assert!(msg.contains("blocked in barrier"), "{msg}");
}

#[test]
fn orphaned_collective_is_detected() {
    // Rank 1 exits without matching rank 0's barrier: not a cycle, but
    // still unresolvable — the watchdog reports the lone blocked rank.
    let msg = panic_text(|| {
        Cluster::new(2).with_check(CheckMode::On).run(|ctx| {
            if ctx.rank == 0 {
                ctx.world.barrier();
            }
        });
    });
    assert!(msg.contains("deadlock detected"), "{msg}");
    assert!(msg.contains("rank 0: blocked in barrier"), "{msg}");
}

#[test]
fn unchecked_timeout_still_reports_order_mismatch() {
    // With the watchdog off, the rendezvous timeout is the backstop; its
    // message must still explain the likely cause.
    let msg = panic_text(|| {
        Cluster::new(2)
            .with_check(CheckMode::Off)
            .with_timeout(Duration::from_millis(300))
            .run(|ctx| {
                if ctx.rank == 0 {
                    ctx.world.barrier();
                }
            });
    });
    assert!(msg.contains("collective deadlock"), "{msg}");
    assert!(msg.contains("different orders"), "{msg}");
}

#[test]
fn peer_panic_unblocks_waiters_and_names_first_failure() {
    // Rank 1 dies before its collective; rank 0 is already blocked in the
    // allreduce. The harness must name rank 1's original panic rather
    // than hanging rank 0 or burying the cause under follow-on errors.
    let msg = panic_text(|| {
        Cluster::new(2).with_check(CheckMode::On).run(|ctx| {
            if ctx.rank == 1 {
                panic!("injected fault on rank 1");
            }
            let _ = ctx.world.allreduce_scalar(1.0, Cat::DenseComm);
        });
    });
    assert!(msg.contains("rank 1 panicked first"), "{msg}");
    assert!(msg.contains("injected fault on rank 1"), "{msg}");
}
