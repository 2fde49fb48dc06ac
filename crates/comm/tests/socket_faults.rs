//! Socket-transport behaviour under faults: worker death mid-collective
//! must surface as a named-rank error (not a hang), hostile frames must
//! be rejected before any allocation, and connecting to a dead hub must
//! fail promptly instead of blocking forever.
//!
//! Every test here forces `TransportKind::Socket` explicitly, so the
//! suite exercises real worker processes regardless of
//! `CAGNET_TRANSPORT`.

#![cfg(unix)]

use std::time::{Duration, Instant};

use cagnet_comm::{Cat, Cluster, Grid2D, TransportKind};
use cagnet_dense::Mat;

/// Sanity: a collective round-trips over real processes with the same
/// value the shared backend computes.
#[test]
fn socket_allreduce_matches_shared() {
    let run = |transport| {
        Cluster::new(3).with_transport(transport).run_wire(|ctx| {
            ctx.world
                .allreduce_scalar(ctx.rank as f64 + 1.0, Cat::DenseComm)
        })
    };
    let shared = run(TransportKind::Shared);
    let socket = run(TransportKind::Socket);
    for ((s, srep), (k, krep)) in shared.iter().zip(socket.iter()) {
        assert_eq!(s, k);
        assert_eq!(s, &6.0);
        assert_eq!(srep.clock.to_bits(), krep.clock.to_bits());
    }
}

/// Derived (split) communicators must rendezvous correctly across
/// processes: distinct comm ids, correct sub-group membership.
#[test]
fn socket_split_communicators_work() {
    let results = Cluster::new(4)
        .with_transport(TransportKind::Socket)
        .run_wire(|ctx| {
            let color = (ctx.rank % 2) as u64;
            let sub = ctx.world.split(color);
            sub.allreduce_scalar(ctx.rank as f64, Cat::DenseComm)
        });
    // Evens sum to 0 + 2, odds to 1 + 3.
    let expect = [2.0, 4.0, 2.0, 4.0];
    for (rank, (sum, _)) in results.iter().enumerate() {
        assert_eq!(*sum, expect[rank], "rank {rank}");
    }
}

/// A worker killed mid-collective must take the run down with an error
/// naming the dead rank — peers must not hang until the collective
/// timeout.
#[test]
fn killed_worker_fails_run_with_named_rank() {
    let start = Instant::now();
    let result = std::panic::catch_unwind(|| {
        Cluster::new(3)
            .with_transport(TransportKind::Socket)
            // Generous timeout: the failure must come from death
            // detection, not from this expiring.
            .with_timeout(Duration::from_secs(60))
            .run_wire(|ctx| {
                if ctx.rank == 1 {
                    // Simulate a crashed worker process. This closure
                    // only runs rank 1 inside a spawned worker, so the
                    // launcher (and the test harness) survive.
                    std::process::exit(7);
                }
                ctx.world.barrier();
            })
    });
    let err = result.expect_err("run must fail when a worker dies");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "(non-string panic)".to_string());
    assert!(
        msg.contains("rank 1"),
        "error must name the dead rank: {msg}"
    );
    assert!(
        msg.contains("died"),
        "error must say the worker died: {msg}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "death must be detected well before the collective timeout"
    );
}

/// Connecting to a socket nobody is listening on must fail with a clear
/// error once the retry budget is spent — the fallback path a worker
/// takes when its launcher is already gone.
#[test]
fn connect_to_dead_hub_fails_promptly() {
    let path = std::env::temp_dir().join("cagnet-test-dead-hub.sock");
    let _ = std::fs::remove_file(&path);
    let start = Instant::now();
    let err = cagnet_comm::connect_with_retry(&path, Duration::from_millis(100))
        .expect_err("no listener — the connect must fail");
    assert!(err.contains("could not connect"), "got: {err}");
    assert!(start.elapsed() < Duration::from_secs(5));
}

/// Fingerprints piggyback on every deposit frame: with every rank
/// agreeing, a socket run succeeds and produces the same bits with the
/// deadlock watchdog on and off.
#[test]
fn checkmode_piggybacks_cleanly_over_socket() {
    let run = |check| {
        Cluster::new(2)
            .with_transport(TransportKind::Socket)
            .with_check(check)
            .run_wire(|ctx| ctx.world.allreduce_scalar(ctx.rank as f64, Cat::DenseComm))
    };
    let unchecked = run(cagnet_comm::CheckMode::Off);
    let checked = run(cagnet_comm::CheckMode::On);
    assert_eq!(unchecked, checked, "checking must never change results");
}

/// A collective mismatch (different broadcast roots) must be caught by
/// the fingerprint verifier — the fingerprints crossed
/// the wire on the deposit frames.
#[test]
fn checkmode_catches_mismatch_over_socket() {
    let result = std::panic::catch_unwind(|| {
        Cluster::new(2)
            .with_transport(TransportKind::Socket)
            .with_check(cagnet_comm::CheckMode::On)
            .run_wire(|ctx| {
                // Each rank names itself root: same collective, same
                // slot, conflicting fingerprints.
                let root = ctx.rank;
                let data = Some(vec![ctx.rank as f64]);
                ctx.world.bcast(root, data, Cat::DenseComm).len()
            })
    });
    let err = result.expect_err("mismatched roots must fail the checked run");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "(non-string panic)".to_string());
    assert!(
        msg.contains("collective check failed"),
        "expected a fingerprint verdict, got: {msg}"
    );
}

/// The deadlock watchdog runs in the launcher over the hub's mirrored
/// rank states: a worker that returns while rank 0 still waits must be
/// declared a quiescent deadlock long before the collective timeout.
#[test]
fn watchdog_detects_deadlock_over_socket() {
    let start = Instant::now();
    let result = std::panic::catch_unwind(|| {
        Cluster::new(2)
            .with_transport(TransportKind::Socket)
            .with_check(cagnet_comm::CheckMode::On)
            // Generous timeout: the watchdog, not this, must fire.
            .with_timeout(Duration::from_secs(60))
            .run_wire(|ctx| {
                if ctx.rank == 0 {
                    ctx.world.barrier(); // rank 1 never joins
                }
            })
    });
    let err = result.expect_err("a deadlocked run must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "(non-string panic)".to_string());
    assert!(
        msg.contains("deadlock"),
        "expected a deadlock report: {msg}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "the watchdog must beat the collective timeout"
    );
}

/// With the watchdog off, the rendezvous timeout is the backstop. Both
/// transports count the arrivals in the waiting rank's own mailbox — a
/// socket client files its own deposit and every forwarded one — so
/// both name the comm, the seq and the count.
#[test]
fn rendezvous_timeout_claims_only_what_the_transport_knows() {
    let run = |transport| {
        let err = std::panic::catch_unwind(|| {
            Cluster::new(2)
                .with_transport(transport)
                .with_check(cagnet_comm::CheckMode::Off)
                .with_timeout(Duration::from_millis(300))
                .run_wire(|ctx| {
                    if ctx.rank == 0 {
                        ctx.world.barrier(); // rank 1 skips it
                    }
                })
        })
        .expect_err("an unmatched barrier must time out");
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "(non-string panic)".to_string())
    };
    // The socket run first: a worker re-executes this test and must
    // reach it as its target run.
    let socket = run(TransportKind::Socket);
    let threads = run(TransportKind::Shared);
    for msg in [socket, threads] {
        assert!(
            msg.contains("collective deadlock: comm 1 seq 0: only 1/2 ranks arrived"),
            "{msg}"
        );
    }
}

/// Both transports name a split-off communicator by the same derived id,
/// so a failure reads the same wherever the program runs: on a 2 × 2
/// grid, a rank that panics inside a row-communicator collective is
/// reported at the same `comm C seq S` in three thread runs and one
/// socket run.
#[test]
fn a_failing_row_collective_names_the_same_comm_on_both_transports() {
    let run = |transport| {
        let err = std::panic::catch_unwind(|| {
            Cluster::new(4)
                .with_transport(transport)
                .with_timeout(Duration::from_secs(30))
                .run_wire(|ctx| {
                    let grid = Grid2D::new(ctx, 2, 2);
                    // Rank 3's row peer broadcasts a vector; rank 3 reads
                    // it as a matrix and panics extracting it.
                    if ctx.rank == 3 {
                        grid.row.bcast::<Mat>(0, None, Cat::DenseComm).len()
                    } else {
                        let data = (grid.j == 0).then(|| vec![0.5f64; 3]);
                        grid.row.bcast(0, data, Cat::DenseComm).len()
                    }
                })
        })
        .expect_err("a panicking rank fails the run");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "(non-string panic)".to_string());
        let at = msg
            .find("bcast on comm ")
            .unwrap_or_else(|| panic!("{msg}"));
        let slot = &msg[at + "bcast on ".len()..];
        slot[..slot.find(':').unwrap_or_else(|| panic!("{msg}"))].to_string()
    };
    // The socket run first: a worker re-executes this test and must
    // reach it as its target run.
    let socket = run(TransportKind::Socket);
    assert_ne!(socket, "comm 1 seq 0", "a row communicator, not the world");
    for _ in 0..3 {
        assert_eq!(run(TransportKind::Shared), socket);
    }
}

/// Hostile frame headers are rejected by `read_frame` before any body
/// allocation: a corrupt magic, a bogus length, and a truncated header
/// each produce a typed error, never an allocation or a hang.
#[test]
fn corrupt_frames_rejected_before_allocation() {
    use cagnet_comm::frame::{read_frame, FrameError, MAX_FRAME, VERSION};

    // Corrupt magic.
    let mut bad_magic = vec![b'X', b'Y', b'Z', b'W', 1, 1];
    bad_magic.extend_from_slice(&8u32.to_le_bytes());
    match read_frame(&mut &bad_magic[..]) {
        Err(FrameError::BadMagic(_)) => {}
        other => panic!("bad magic must be rejected, got {other:?}"),
    }

    // Oversize body length: only the 10 header bytes exist, so an
    // attempted allocation of the claimed body would fail the test by
    // OOM or error — the length check must fire first.
    let mut oversize = vec![b'C', b'G', b'N', b'T', VERSION, 2];
    oversize.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    match read_frame(&mut &oversize[..]) {
        Err(FrameError::Oversize(_)) => {}
        other => panic!("oversize header must be rejected, got {other:?}"),
    }

    // Truncated header.
    let truncated = [b'C', b'G', b'N'];
    match read_frame(&mut &truncated[..]) {
        Err(FrameError::Io(_)) => {}
        other => panic!("truncated header must be rejected, got {other:?}"),
    }
}
