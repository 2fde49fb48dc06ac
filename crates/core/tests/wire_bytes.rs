//! What the meters say moved is what moved on the wire. Over sockets, a
//! row-gather receiver is sent its `k` requested rows — `8·k·f` payload
//! bytes — and the root its receivers' requests — `8·k` bytes each —
//! plus a fixed head per message; summed over ranks, the payload bytes
//! of a gather are 8 × its metered words within that head budget. A
//! reduce-scatter member is sent one part per peer: that peer's rows of
//! its block and, in the sparse form, their indices — exactly 8 × its
//! metered words plus a fixed head per part.
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
use cagnet_sparse::partition::block_range;

/// Payload bytes one rank may receive per gather message beyond its row
/// and index words: the served part's head (precision tag, block dims,
/// row count), the request's count word and the one-byte unit deposits
/// of the other members.
const HEAD: u64 = 64;

/// Payload bytes of each reduce-scatter part beyond its row and index
/// words: precision tag, block dims, row count and index flag.
const PART_HEAD: u64 = 26;

/// `(received bytes, metered words, messages)` of one rank under
/// `DenseComm` between two reports.
fn delta(before: &TimelineReport, after: &TimelineReport) -> (u64, u64, u64) {
    delta_in(Cat::DenseComm, before, after)
}

/// [`delta`] under `cat`.
fn delta_in(cat: Cat, before: &TimelineReport, after: &TimelineReport) -> (u64, u64, u64) {
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
    trained_at(algo, p, comm_mode, Precision::F64, 3, epochs)
}

/// [`trained`] at a wire precision, with `labels` output columns.
fn trained_at(
    algo: Algorithm,
    p: usize,
    comm_mode: CommMode,
    precision: Precision,
    labels: usize,
    epochs: usize,
) -> TimelineReport {
    let g = erdos_renyi(64, 3.0, 0xB17E5);
    let problem = Problem::synthetic(&g, 6, labels, 1.0, 7);
    let gcn = GcnConfig::three_layer(6, 8, labels);
    let tc = TrainConfig {
        epochs,
        comm_mode,
        precision,
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

#[test]
fn each_reduce_receives_its_peers_rows_and_their_indices() {
    // P = 4 over a 12 × 6 contribution, three rows per block. Rank r can
    // make nonzero only the rows v with (v + r) mod 3 = 0, one per block:
    // the sparse form sends each peer that row and its index (7 words at
    // f64, 4 at f32) where the dense form sends the whole block (18 and
    // 9 words).
    let (p, n, f) = (4, 12, 6);
    let live = |rank: usize, v: usize| (v + rank).is_multiple_of(3);
    let precisions = [Precision::F64, Precision::F32];
    let runs: Vec<_> = precisions
        .iter()
        .map(|&precision| {
            Cluster::new(p)
                .with_transport(TransportKind::Socket)
                .with_precision(precision)
                .run_wire(|ctx| {
                    let m = Arc::new(Mat::from_fn(n, f, |v, c| {
                        if live(ctx.rank, v) {
                            (v * f + c) as f64 + 0.5
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
                    let sends = Arc::new(sends);
                    let mut seen = Vec::new();
                    for sparse in [false, true] {
                        let before = ctx.report();
                        let mut out = Mat::zeros(0, 0);
                        let sends = sparse.then_some(&sends);
                        ctx.world
                            .reduce_scatter_rows(m.clone(), sends, &mut out, Cat::DenseComm);
                        let (bytes, words, msgs) =
                            delta_in(precision.dense_cat(), &before, &ctx.report());
                        seen.push(vec![bytes, words, msgs]);
                    }
                    seen
                })
        })
        .collect();
    for (&precision, results) in precisions.iter().zip(&runs) {
        let row = match precision {
            Precision::F64 => f as u64,
            _ => (f as u64).div_ceil(2),
        };
        for (rank, (seen, _)) in results.iter().enumerate() {
            for (form, expect_words) in [("dense", 3 * 3 * row), ("sparse", 3 * (row + 1))] {
                let at = usize::from(form == "sparse");
                let (b, w, m) = (seen[at][0], seen[at][1], seen[at][2]);
                let case = format!("{precision:?} {form} rank {rank}");
                assert_eq!(m, 1, "{case}: one message per reduce");
                assert_eq!(w, expect_words, "{case}: words");
                assert_eq!(b, 8 * w + (p as u64 - 1) * PART_HEAD, "{case}: bytes");
            }
        }
    }
}

/// One steady epoch — the second — of `mode` at `precision`, summed
/// over ranks: `(received bytes, metered words, messages)` under the
/// precision's dense category. Four output columns keep every width
/// even, so packed f32 rows fill whole words.
fn epoch_traffic(
    algo: Algorithm,
    p: usize,
    mode: CommMode,
    precision: Precision,
) -> (u64, u64, u64) {
    let at = |epochs| trained_at(algo, p, mode, precision, 4, epochs);
    delta_in(precision.dense_cat(), &at(1), &at(2))
}

#[test]
fn reducing_epochs_move_their_metered_words() {
    // At P = 2 every collective of an epoch receives 8 × its metered
    // words within a fixed head per message: the reduce-scatters exactly
    // (one part head each), the gathers and the f × f all-reduces within
    // their heads, the loss all-reduce a word short. Only a dense
    // broadcast's root meters words it never receives — 1D's forward
    // stage roots, n·f per layer above layer 0, taken off below: layer 0's
    // `H⁰` blocks cross once, in the first epoch, and the second serves
    // them. 1.5D at c = 2 runs its team reduce-scatter forward; at c = 1,
    // its replica-group one backward.
    let p = 2;
    let cached = CommMode::Cached { refresh: 2 };
    let cases = [
        (Algorithm::OneD, CommMode::Dense, Precision::F64),
        (Algorithm::OneD, CommMode::SparsityAware, Precision::F64),
        (Algorithm::OneD, cached, Precision::F64),
        (Algorithm::OneD, CommMode::Dense, Precision::F32),
        (Algorithm::OneD, CommMode::SparsityAware, Precision::F32),
        (Algorithm::OneDRow, CommMode::SparsityAware, Precision::F64),
        (Algorithm::One5D { c: 2 }, CommMode::Dense, Precision::F64),
        (
            Algorithm::One5D { c: 2 },
            CommMode::SparsityAware,
            Precision::F64,
        ),
        (
            Algorithm::One5D { c: 2 },
            CommMode::SparsityAware,
            Precision::F32,
        ),
        (
            Algorithm::One5D { c: 1 },
            CommMode::SparsityAware,
            Precision::F64,
        ),
    ];
    // The input widths of layers 1 and 2.
    let dims = [8u64, 8];
    let traffic: Vec<_> = cases
        .iter()
        .map(|&(algo, mode, precision)| epoch_traffic(algo, p, mode, precision))
        .collect();
    let mut sparse_over_dense = Vec::new();
    for ((algo, mode, precision), (bytes, mut words, msgs)) in cases.into_iter().zip(traffic) {
        if mode == CommMode::Dense && algo == Algorithm::OneD {
            let bytes_per_value = precision.bytes_per_value() as u64;
            words -= dims
                .iter()
                .map(|f| 64 * f * bytes_per_value / 8)
                .sum::<u64>();
        }
        let case = format!("{} {mode:?} {precision:?}", algo.name());
        assert!(words > 0 && msgs > 0, "{case}: nothing moved");
        assert!(
            bytes.abs_diff(8 * words) <= msgs * HEAD,
            "{case}: {bytes} bytes received for {words} metered words in {msgs} messages"
        );
        if algo == Algorithm::OneD && precision == Precision::F64 {
            sparse_over_dense.push((mode, bytes));
        }
    }
    let dense = sparse_over_dense[0].1 as f64;
    for (mode, bytes) in &sparse_over_dense[1..] {
        let ratio = *bytes as f64 / dense;
        println!("1d P=2 socket epoch: {mode:?} / Dense received bytes = {ratio:.3}");
        assert!(
            ratio < 1.0,
            "{mode:?}: the sparse tiers receive fewer bytes"
        );
    }
}

#[test]
fn steady_epochs_receive_no_layer_zero_bytes() {
    // 1D at P = 2 over sockets: the first epoch fetches the two 32 × 6
    // blocks of H⁰ — broadcast whole, or gathered by needed rows — and
    // the second serves them from what it kept. What the second epoch no
    // longer meters under DenseComm it meters under CacheHit, and the
    // bytes it no longer receives are 8 × the receivers' share of those
    // words within a head per message: a Dense broadcast's root meters
    // its own block, which never crosses. Every run comes before the
    // first assertion (socket workers replay earlier runs on threads).
    let (n, f0) = (64u64, 6u64);
    let modes = [CommMode::Dense, CommMode::SparsityAware];
    let runs: Vec<_> = modes
        .iter()
        .map(|&mode| [0, 1, 2].map(|epochs| trained(Algorithm::OneD, 2, mode, epochs)))
        .collect();
    for (mode, [r0, r1, r2]) in modes.into_iter().zip(runs) {
        let (first, second) = (delta(&r0, &r1), delta(&r1, &r2));
        let words = first.1 - second.1;
        let hits = r2.words(Cat::CacheHit) - r1.words(Cat::CacheHit);
        assert_eq!(hits, words, "{mode:?}: served words");
        assert_eq!(
            r1.words(Cat::CacheHit),
            0,
            "{mode:?}: the first epoch serves nothing"
        );
        let received = if mode == CommMode::Dense {
            assert_eq!(words, 2 * n * f0, "{mode:?}: both ranks meter both blocks");
            words - n * f0
        } else {
            words
        };
        let (bytes, msgs) = (first.0 - second.0, first.2 - second.2);
        assert!(
            received > 0 && (8 * received..=8 * received + msgs * HEAD).contains(&bytes),
            "{mode:?}: {bytes} fewer bytes for {received} fewer received words in {msgs} messages"
        );
    }
}

#[test]
fn steady_epochs_receive_no_adjacency_bytes() {
    // 2D at P = 4 over sockets: the first forward broadcasts each S panel
    // of Aᵀ along the process row and the first backward each panel of A,
    // every member metering a panel's 2·nnz words, so the four ranks
    // meter 2 members × 2 tables × 2 words per nonzero of A. The ranks
    // keep what they receive: the second epoch receives no SparseComm
    // byte, word or message. Its DenseComm drop is the layer-0 inputs it
    // serves, metered under CacheHit; its SparseComm drop is the panels,
    // which the first epoch's words already cover. A receiver's bytes
    // are 8 × its words plus each panel's 33 row pointers and a head.
    let g = erdos_renyi(64, 3.0, 0xB17E5);
    let nnz = Problem::synthetic(&g, 6, 3, 1.0, 7).adj.nnz() as u64;
    let modes = [CommMode::Dense, CommMode::SparsityAware];
    let runs: Vec<_> = modes
        .iter()
        .map(|&mode| [0, 1, 2].map(|epochs| trained(Algorithm::TwoD, 4, mode, epochs)))
        .collect();
    for (mode, [r0, r1, r2]) in modes.into_iter().zip(runs) {
        let (first, second) = (
            delta_in(Cat::SparseComm, &r0, &r1),
            delta_in(Cat::SparseComm, &r1, &r2),
        );
        assert_eq!(first.1, 8 * nnz, "{mode:?}: the first epoch's panel words");
        assert_eq!(second, (0, 0, 0), "{mode:?}: a steady epoch moves no panel");
        let dense = delta(&r0, &r1).1 - delta(&r1, &r2).1;
        let hits = r2.words(Cat::CacheHit) - r1.words(Cat::CacheHit);
        assert_eq!(hits, dense, "{mode:?}: served layer-0 words");
        // Half of every broadcast's metered words are its root's own.
        let (bytes, received, msgs) = (first.0, first.1 / 2, first.2);
        assert!(
            (8 * received..=8 * received + msgs * (8 * 33 + HEAD)).contains(&bytes),
            "{mode:?}: {bytes} bytes received for {received} received panel words in {msgs} \
             messages"
        );
    }
}
