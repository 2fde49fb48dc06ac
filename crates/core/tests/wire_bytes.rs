//! What the meters say moved is what moved on the wire. Over sockets, a
//! row-gather receiver is sent its `k` requested rows — `8·k·f` payload
//! bytes — and the root its receivers' requests — `8·k` bytes each —
//! plus a fixed head per message; summed over ranks, the payload bytes
//! of a gather are 8 × its metered words within that head budget.
//!
//! The received bytes come from `TimelineReport::rx_bytes`: for every
//! completed collective, the payload bytes the link handed the rank (0 on
//! threads). Every test here forces the socket transport, and asserts
//! only after its last socket run: a worker process reaches its run by
//! replaying the earlier ones on threads, where no byte moves.

#![cfg(unix)]

use std::sync::Arc;

use cagnet_comm::{Cat, Cluster, CostModel, Precision, TimelineReport, TransportKind};
use cagnet_core::dist::CommMode;
use cagnet_core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet_core::{GcnConfig, Problem};
use cagnet_dense::Mat;
use cagnet_sparse::generate::erdos_renyi;

/// Payload bytes one rank may receive per gather message beyond its row
/// and index words: the served part's head (precision tag, block dims,
/// row count), the request's count word and the one-byte unit deposits
/// of the other members.
const HEAD: u64 = 64;

/// `(received bytes, metered words, messages)` of one rank under
/// `DenseComm` between two reports.
fn delta(before: &TimelineReport, after: &TimelineReport) -> (u64, u64, u64) {
    let cat = Cat::DenseComm;
    (
        after.rx_bytes(cat) - before.rx_bytes(cat),
        after.words(cat) - before.words(cat),
        after.messages(cat) - before.messages(cat),
    )
}

#[test]
fn each_gather_receives_its_rows_and_the_root_its_requests() {
    // P = 4, root 1 of a 9 × 5 block: rank 0 requests three rows, rank 2
    // none, rank 3 six — receivers' requests differ, one is empty.
    let (p, f) = (4, 5);
    let request = |rank: usize| -> Vec<usize> {
        match rank {
            0 => vec![0, 4, 8],
            2 => vec![],
            _ => vec![0, 1, 2, 5, 6, 7],
        }
    };
    let results = Cluster::new(p)
        .with_transport(TransportKind::Socket)
        .run_wire(|ctx| {
            let block = Arc::new(Mat::from_fn(9, f, |i, j| (i * f + j) as f64));
            let mut seen = Vec::new();
            for refresh in [false, true] {
                let needed = request(ctx.rank);
                let payload = (ctx.rank == 1).then(|| block.clone());
                let before = ctx.report();
                let got = if refresh {
                    ctx.world
                        .igather_rows_refresh(1, payload, &needed, Some((9, f)), Cat::DenseComm)
                        .wait()
                } else {
                    ctx.world
                        .gather_rows(1, payload, &needed, Some((9, f)), Cat::DenseComm)
                };
                let mut rows = Mat::zeros(0, 0);
                got.compact_into(&needed, &mut rows);
                assert_eq!(rows, block.select_rows(&needed));
                let (bytes, words, msgs) = delta(&before, &ctx.report());
                seen.push(vec![bytes, words, msgs]);
            }
            seen
        });
    let k = |rank| request(rank).len() as u64;
    for refresh in 0..2 {
        let (mut bytes, mut words) = (0, 0);
        for (rank, (seen, _)) in results.iter().enumerate() {
            let (b, w, m) = (seen[refresh][0], seen[refresh][1], seen[refresh][2]);
            assert_eq!(m, 1, "rank {rank}: one message per gather");
            let rows = if rank == 1 {
                // The root is sent every request: a word per row.
                (0..p).filter(|&r| r != 1).map(|r| 8 * k(r)).sum::<u64>()
            } else {
                assert_eq!(w, k(rank) * (f as u64 + 1), "rank {rank} words");
                8 * k(rank) * f as u64
            };
            let heads = if rank == 1 {
                (p as u64 - 1) * HEAD
            } else {
                HEAD
            };
            assert!(
                (rows..=rows + heads).contains(&b),
                "rank {rank}: {b} bytes for {rows} bytes of rows"
            );
            bytes += b;
            words += w;
        }
        assert!(
            (8 * words..=8 * words + p as u64 * HEAD).contains(&bytes),
            "{bytes} bytes received for {words} words"
        );
    }
}

#[test]
fn packed_gathers_receive_their_rows_at_the_wire_precision() {
    let precisions = [(Precision::F32, 4), (Precision::Bf16, 2)];
    let runs: Vec<_> = precisions
        .iter()
        .map(|&(precision, _)| {
            Cluster::new(3)
                .with_transport(TransportKind::Socket)
                .with_precision(precision)
                .run_wire(|ctx| {
                    let payload = (ctx.rank == 0).then(|| Arc::new(Mat::filled(10, 6, 0.1)));
                    let needed: Vec<usize> = (0..2 * ctx.rank).collect();
                    let got =
                        ctx.world
                            .gather_rows(0, payload, &needed, Some((10, 6)), Cat::DenseComm);
                    assert_eq!(
                        got.rows().map(<[usize]>::len),
                        (ctx.rank > 0).then_some(2 * ctx.rank)
                    );
                    let rep = ctx.report();
                    let cat = precision.dense_cat();
                    (rep.rx_bytes(cat), rep.words(cat))
                })
        })
        .collect();
    for (&(precision, bytes_per_value), results) in precisions.iter().zip(&runs) {
        for (rank, ((bytes, words), _)) in results.iter().enumerate().skip(1) {
            let rows = 2 * rank as u64 * 6 * bytes_per_value;
            assert!(
                (rows..=rows + HEAD).contains(bytes) && *bytes <= 8 * words + HEAD,
                "{precision:?} rank {rank}: {bytes} bytes for {words} words"
            );
        }
    }
}

/// Per-rank reports, summed, of `epochs` training epochs over sockets.
fn trained(algo: Algorithm, p: usize, comm_mode: CommMode, epochs: usize) -> TimelineReport {
    let g = erdos_renyi(64, 3.0, 0xB17E5);
    let problem = Problem::synthetic(&g, 6, 3, 1.0, 7);
    let gcn = GcnConfig::three_layer(6, 8, 3);
    let tc = TrainConfig {
        epochs,
        comm_mode,
        transport: Some(TransportKind::Socket),
        collect_outputs: false,
        ..TrainConfig::default()
    };
    let res = train_distributed(&problem, &gcn, algo, p, CostModel::summit_like(), &tc);
    TimelineReport::sum_over(&res.reports)
}

/// A trainer's gathers in one epoch, summed over ranks. A refresh epoch
/// of `Cached{2}` and a cache-serving one run the same collectives but
/// the stage gathers, and so does an epoch of `mode` (`SparsityAware`,
/// or `Cached{2}` itself, whose first epoch refreshes); the gathers are
/// the difference.
fn gather_traffic(algo: Algorithm, p: usize, mode: CommMode) -> (u64, u64, u64) {
    let cached = CommMode::Cached { refresh: 2 };
    let with_gathers = delta(&trained(algo, p, mode, 0), &trained(algo, p, mode, 1));
    let served = delta(&trained(algo, p, cached, 1), &trained(algo, p, cached, 2));
    (
        with_gathers.0 - served.0,
        with_gathers.1 - served.1,
        with_gathers.2 - served.2,
    )
}

fn assert_meter_equals_wire(algo: Algorithm, p: usize) {
    let modes = [CommMode::SparsityAware, CommMode::Cached { refresh: 2 }];
    let traffic: Vec<_> = modes.iter().map(|&m| gather_traffic(algo, p, m)).collect();
    for (mode, (bytes, words, msgs)) in modes.into_iter().zip(traffic) {
        assert!(words > 0 && msgs > 0, "{algo:?} {mode:?}: no gathers seen");
        assert!(
            (8 * words..=8 * words + msgs * HEAD).contains(&bytes),
            "{algo:?} {mode:?}: {bytes} bytes received for {words} metered words in {msgs} \
             messages"
        );
    }
}

#[test]
fn oned_gathers_move_their_metered_words() {
    assert_meter_equals_wire(Algorithm::OneD, 4);
}

#[test]
fn one5d_gathers_move_their_metered_words() {
    assert_meter_equals_wire(Algorithm::One5D { c: 2 }, 4);
}

#[test]
fn twod_gathers_move_their_metered_words() {
    assert_meter_equals_wire(Algorithm::TwoD, 4);
}
