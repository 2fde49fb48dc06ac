//! Compressed wire precision across the full training stack: every
//! trainer must (a) keep f64 runs bit-identical to the default, (b)
//! converge at f32 wire precision with a final loss close to the f64
//! run, (c) roughly halve the metered dense-communication words (exact
//! halving is per-payload `ceil`, so the aggregate lands near 0.5), and
//! (d) keep the per-category seconds reconciled with the clock.

use cagnet_comm::{Cat, Precision};
use cagnet_core::dist::CommMode;
use cagnet_core::trainer::{train_distributed, Algorithm, DistTrainResult, TrainConfig};
use cagnet_core::{GcnConfig, Problem};
use cagnet_sparse::generate::erdos_renyi;
use cagnet_sparse::partition::block_ranges;

fn small_problem() -> (Problem, GcnConfig) {
    let g = erdos_renyi(48, 3.0, 0xC0FFEE);
    let problem = Problem::synthetic(&g, 6, 3, 1.0, 7);
    let gcn = GcnConfig::three_layer(6, 8, 3);
    (problem, gcn)
}

/// Training epochs of every [`run`].
const EPOCHS: usize = 8;

fn run(algo: Algorithm, p: usize, comm_mode: CommMode, precision: Precision) -> DistTrainResult {
    let (problem, gcn) = small_problem();
    let tc = TrainConfig {
        epochs: EPOCHS,
        comm_mode,
        precision,
        ..TrainConfig::default()
    };
    train_distributed(
        &problem,
        &gcn,
        algo,
        p,
        cagnet_comm::CostModel::summit_like(),
        &tc,
    )
}

/// Index words a sparsity-aware 1D run of `small_problem` meters over
/// its training epochs at wire precision `prec`. Per layer, rank `i`
/// fetches the `k` rows stage `j` needs with one index each, and on the
/// way back sends member `j` those rows of its outer product with their
/// indices — unless the `k` indexed rows are not fewer words than `j`'s
/// whole block, which then goes without indices.
fn oned_index_words(p: usize, prec: Precision) -> u64 {
    let (problem, gcn) = small_problem();
    let n = problem.vertices();
    let blocks = block_ranges(n, p);
    let packed = |values: usize| (values * prec.bytes_per_value()).div_ceil(8);
    let mut words = 0;
    for (i, &(r0, r1)) in blocks.iter().enumerate() {
        let at_row = problem.adj_t.block(r0, r1, 0, n);
        for &(c0, c1) in blocks.iter().take(i).chain(&blocks[i + 1..]) {
            let k = at_row.block(0, r1 - r0, c0, c1).needed_cols().len();
            for f_out in &gcn.dims[1..] {
                let indexed = k * (packed(*f_out) + 1) < packed((c1 - c0) * f_out);
                words += (k + if indexed { k } else { 0 }) as u64;
            }
        }
    }
    EPOCHS as u64 * words
}

/// Total dense words at the given packed category across ranks.
fn words(r: &DistTrainResult, cat: Cat) -> u64 {
    r.reports.iter().map(|rep| rep.words(cat)).sum()
}

/// The f32-parity contract for one trainer: convergence close to f64,
/// dense payload words halved into the `dcomm32` category, timeline
/// reconciliation intact.
fn assert_f32_parity(algo: Algorithm, p: usize, comm_mode: CommMode) {
    let full = run(algo, p, comm_mode, Precision::F64);
    let packed = run(algo, p, comm_mode, Precision::F32);

    // Both runs train: the loss drops from the first epoch to the last.
    let (f0, fl) = (full.losses[0], *full.losses.last().unwrap());
    let (p0, pl) = (packed.losses[0], *packed.losses.last().unwrap());
    assert!(fl < f0, "f64 run did not train: {f0} -> {fl}");
    assert!(pl < p0, "f32 run did not train: {p0} -> {pl}");

    // Convergence parity: the f32 wire rounds activations and gradients
    // once per hop, so losses drift slightly but must track the f64
    // trajectory closely on this well-conditioned problem.
    let gap = (fl - pl).abs() / fl.abs().max(1e-9);
    assert!(
        gap < 0.05,
        "{} P={p}: f32 final loss {pl} strays {gap:.4} (rel) from f64's {fl}",
        algo.name()
    );

    // Word halving: the Mat payloads that moved under DenseComm at f64
    // move under DenseComm32 at half width (per-payload ceil keeps the
    // aggregate within a whisker of exactly half). Scalar reductions
    // and sparse payloads stay where they were.
    let full_dense = words(&full, Cat::DenseComm);
    let unpacked_remainder = words(&packed, Cat::DenseComm);
    let halved = words(&packed, Cat::DenseComm32);
    assert_eq!(words(&full, Cat::DenseComm32), 0);
    assert_eq!(words(&packed, Cat::DenseComm16), 0);
    assert!(halved > 0, "no packed dense words metered");
    // The sparse tier also meters one index word per row that a stage
    // fetch or a backward reduce-scatter part carries, and an index word
    // does not shrink with the values; both runs' index words come out
    // before the ratio is taken.
    let (index_full, index_packed) = match comm_mode {
        CommMode::Dense => (0, 0),
        _ => {
            assert!(
                matches!(algo, Algorithm::OneD),
                "index words are counted for 1D only"
            );
            (
                oned_index_words(p, Precision::F64),
                oned_index_words(p, Precision::F32),
            )
        }
    };
    let mat_words = full_dense - unpacked_remainder - index_full;
    let ratio = (halved - index_packed) as f64 / mat_words as f64;
    assert!(
        (0.45..=0.55).contains(&ratio),
        "{} P={p}: packed/full dense ratio {ratio:.3} outside [0.45, 0.55] \
         ({halved} packed vs {mat_words} full-width payload words, less \
         {index_packed} / {index_full} index words)",
        algo.name()
    );

    // Σ per-category seconds still equals the clock with the new
    // categories in play.
    for (rank, rep) in packed.reports.iter().enumerate() {
        assert!(
            (rep.busy_seconds() - rep.clock).abs() <= 1e-9 * rep.clock.max(1.0),
            "rank {rank}: categories do not reconcile with the clock"
        );
    }
}

#[test]
fn f64_precision_is_bitwise_identical_to_default() {
    let (problem, gcn) = small_problem();
    let tc_default = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let tc_explicit = TrainConfig {
        precision: Precision::F64,
        ..tc_default.clone()
    };
    let model = cagnet_comm::CostModel::summit_like;
    let a = train_distributed(&problem, &gcn, Algorithm::OneD, 4, model(), &tc_default);
    let b = train_distributed(&problem, &gcn, Algorithm::OneD, 4, model(), &tc_explicit);
    assert_eq!(a.losses, b.losses);
    assert_eq!(a.weights, b.weights);
    assert_eq!(a.embeddings, b.embeddings);
    assert_eq!(a.reports, b.reports);
}

#[test]
fn oned_f32_parity() {
    assert_f32_parity(Algorithm::OneD, 4, CommMode::Dense);
}

#[test]
fn oned_row_f32_parity() {
    assert_f32_parity(Algorithm::OneDRow, 4, CommMode::Dense);
}

#[test]
fn one5d_f32_parity() {
    assert_f32_parity(Algorithm::One5D { c: 2 }, 4, CommMode::Dense);
}

#[test]
fn twod_f32_parity() {
    assert_f32_parity(Algorithm::TwoD, 4, CommMode::Dense);
}

#[test]
fn threed_f32_parity() {
    assert_f32_parity(Algorithm::ThreeD, 8, CommMode::Dense);
}

#[test]
fn oned_sparsity_aware_f32_parity() {
    assert_f32_parity(Algorithm::OneD, 4, CommMode::SparsityAware);
}

#[cfg(unix)]
#[test]
fn f32_socket_transport_is_bit_identical_to_shared() {
    use cagnet_comm::TransportKind;
    let (problem, gcn) = small_problem();
    let run = |transport| {
        let tc = TrainConfig {
            epochs: 3,
            precision: Precision::F32,
            transport: Some(transport),
            ..TrainConfig::default()
        };
        train_distributed(
            &problem,
            &gcn,
            Algorithm::OneD,
            2,
            cagnet_comm::CostModel::summit_like(),
            &tc,
        )
    };
    // The packed bytes cross the socket verbatim and widen identically,
    // so even rounded runs stay bit-identical across backends.
    let shared = run(TransportKind::Shared);
    let socket = run(TransportKind::Socket);
    assert_eq!(shared.losses, socket.losses);
    assert_eq!(shared.weights, socket.weights);
    assert_eq!(shared.embeddings, socket.embeddings);
    assert_eq!(shared.reports, socket.reports);
}
