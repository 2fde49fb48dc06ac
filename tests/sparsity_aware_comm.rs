//! Acceptance for sparsity-aware feature communication (DESIGN.md §9):
//! on every trainer — the row-distributed family (1D, 1D-row, 1.5D) and
//! the SUMMA family (2D, 2D-rect, 3D) — `CommMode::SparsityAware` must
//! train *bit-identically* to `CommMode::Dense` — same per-epoch losses,
//! same final weights, same accuracy — while metering strictly fewer
//! `Cat::DenseComm` words on a low-degree graph whenever the exchanging
//! communicators are non-singleton. In the row family both directions
//! count: the stage fetches and the reduce-scatters of the outer
//! products, which send each member only the rows its edges touch.

use cagnet::comm::{Cat, CostModel, Precision};
use cagnet::core::trainer::{
    infer_distributed, train_distributed, Algorithm, TrainConfig, TwoDimConfig,
};
use cagnet::core::{CommMode, DistTrainResult, GcnConfig, Problem, SerialTrainer};
use cagnet::sparse::generate::erdos_renyi;
use cagnet::sparse::{Coo, Csr};

fn low_degree_problem() -> (Problem, GcnConfig) {
    // Average degree ~2 on 64 vertices: each sparse block references only
    // a small fraction of the peer block's rows, so the requested-row
    // sets stay far below the full dense blocks.
    let g = erdos_renyi(64, 2.0, 71);
    let problem = Problem::synthetic(&g, 12, 4, 0.9, 72);
    let cfg = GcnConfig::three_layer(12, 8, 4);
    (problem, cfg)
}

/// The three row-distributed algorithms, with a 1.5D replication factor
/// that fits `p`.
fn algorithms(p: usize) -> Vec<Algorithm> {
    vec![
        Algorithm::OneD,
        Algorithm::OneDRow,
        Algorithm::One5D {
            c: if p.is_multiple_of(2) { 2 } else { 1 },
        },
    ]
}

fn dense_words(r: &DistTrainResult) -> u64 {
    r.reports.iter().map(|rep| rep.words(Cat::DenseComm)).sum()
}

fn config(mode: CommMode) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        comm_mode: mode,
        ..Default::default()
    }
}

#[test]
fn sparsity_aware_is_bit_identical_and_strictly_cheaper() {
    let (problem, cfg) = low_degree_problem();
    for p in [1usize, 2, 4, 8] {
        for algo in algorithms(p) {
            let dense = train_distributed(
                &problem,
                &cfg,
                algo,
                p,
                CostModel::summit_like(),
                &config(CommMode::Dense),
            );
            let sparse = train_distributed(
                &problem,
                &cfg,
                algo,
                p,
                CostModel::summit_like(),
                &config(CommMode::SparsityAware),
            );
            assert_eq!(
                dense.losses,
                sparse.losses,
                "{} P={p}: per-epoch losses must be bit-identical across modes",
                algo.name()
            );
            assert_eq!(
                dense.weights,
                sparse.weights,
                "{} P={p}: final weights must be bit-identical across modes",
                algo.name()
            );
            assert_eq!(
                dense.accuracy,
                sparse.accuracy,
                "{} P={p}: accuracy must be bit-identical across modes",
                algo.name()
            );
            let (dw, sw) = (dense_words(&dense), dense_words(&sparse));
            // Every P > 1 exchanges over a non-singleton group: the stage
            // fetches run over all P ranks for 1D/1D-row and over the
            // replica group of p/c for 1.5D, whose team reduce-scatter
            // runs over c ranks even when the replica group is a
            // singleton.
            if p > 1 {
                assert!(
                    sw < dw,
                    "{} P={p}: sparsity-aware DenseComm words {sw} must be strictly \
                     below dense {dw} on a low-degree graph",
                    algo.name()
                );
            } else {
                assert_eq!(sw, dw, "{} P={p}: modes must meter equally", algo.name());
            }
        }
    }
}

#[test]
fn row_family_sparse_tiers_match_dense_at_every_precision() {
    // The sparse reduce-scatters fold only the rows each contribution
    // can make nonzero, in member order from +0.0: losses, weights and
    // embeddings must equal Dense bit for bit on every row-family
    // trainer, with and without overlap, at every wire precision.
    //
    // Under a narrow precision the *fetches* differ by design (DESIGN.md
    // §14): a broadcast root widens its own rounded block, a gather root
    // keeps its block exact. 1.5D with c = P fetches over a singleton
    // replica group, so there the tiers differ in the team reduce-scatter
    // alone and must agree at every precision; elsewhere a narrow run is
    // held to the other sparse tier.
    let (problem, cfg) = low_degree_problem();
    for p in [2usize, 3, 4] {
        let mut algos = algorithms(p);
        algos.push(Algorithm::One5D { c: p });
        for algo in algos {
            for overlap in [false, true] {
                for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
                    let run = |mode| {
                        let tc = TrainConfig {
                            overlap,
                            precision,
                            ..config(mode)
                        };
                        train_distributed(&problem, &cfg, algo, p, CostModel::summit_like(), &tc)
                    };
                    let case = format!("{} P={p} overlap={overlap} {precision:?}", algo.name());
                    let same_fetches = precision == Precision::F64
                        || matches!(algo, Algorithm::One5D { c } if c == p);
                    let reference = if same_fetches {
                        run(CommMode::Dense)
                    } else {
                        run(CommMode::SparsityAware)
                    };
                    for mode in [CommMode::SparsityAware, CommMode::Cached { refresh: 1 }] {
                        let r = run(mode);
                        assert_eq!(r.losses, reference.losses, "{case} {mode:?}: losses");
                        assert_eq!(r.weights, reference.weights, "{case} {mode:?}: weights");
                        assert_eq!(
                            r.embeddings, reference.embeddings,
                            "{case} {mode:?}: embeddings"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn modes_agree_bit_for_bit_under_dropout() {
    // Dropout masks are keyed by (seed, epoch, layer, global position),
    // never by communication layout — so the two modes must stay
    // bit-identical even with per-epoch mask refresh in play.
    let (problem, cfg) = low_degree_problem();
    let tc = |mode| TrainConfig {
        epochs: 4,
        dropout: 0.4,
        comm_mode: mode,
        ..Default::default()
    };
    for algo in algorithms(4) {
        let dense = train_distributed(
            &problem,
            &cfg,
            algo,
            4,
            CostModel::summit_like(),
            &tc(CommMode::Dense),
        );
        let sparse = train_distributed(
            &problem,
            &cfg,
            algo,
            4,
            CostModel::summit_like(),
            &tc(CommMode::SparsityAware),
        );
        assert_eq!(
            dense.losses,
            sparse.losses,
            "{}: dropout losses must be bit-identical across modes",
            algo.name()
        );
        assert_eq!(
            dense.weights,
            sparse.weights,
            "{}: dropout weights must be bit-identical across modes",
            algo.name()
        );
        // The masks really were live: consecutive epochs see different
        // masks, hence different losses.
        for w in sparse.losses.windows(2) {
            assert_ne!(w[0], w[1], "{}: masks must refresh per epoch", algo.name());
        }
    }
}

#[test]
fn inference_honors_comm_mode() {
    let (problem, cfg) = low_degree_problem();
    let trained = train_distributed(
        &problem,
        &cfg,
        Algorithm::OneD,
        2,
        CostModel::summit_like(),
        &config(CommMode::Dense),
    );
    for algo in algorithms(4) {
        let tc = |mode| TrainConfig {
            comm_mode: mode,
            ..Default::default()
        };
        let dense = infer_distributed(
            &problem,
            &cfg,
            &trained.weights,
            algo,
            4,
            CostModel::summit_like(),
            &tc(CommMode::Dense),
        );
        let sparse = infer_distributed(
            &problem,
            &cfg,
            &trained.weights,
            algo,
            4,
            CostModel::summit_like(),
            &tc(CommMode::SparsityAware),
        );
        assert_eq!(dense.loss, sparse.loss, "{}: inference loss", algo.name());
        assert_eq!(
            dense.embeddings,
            sparse.embeddings,
            "{}: inference embeddings",
            algo.name()
        );
        let dw: u64 = dense.reports.iter().map(|r| r.words(Cat::DenseComm)).sum();
        let sw: u64 = sparse.reports.iter().map(|r| r.words(Cat::DenseComm)).sum();
        // 1D-row's forward is the reduce-scatter of its outer product,
        // which is sparse too.
        assert!(
            sw < dw,
            "{}: sparsity-aware inference words {sw} must beat dense {dw}",
            algo.name()
        );
    }
}

/// The 2D/3D SUMMA cases: square, rectangular, and cubic grids,
/// including the degenerate single-rank grids where both modes are free.
fn summa_cases() -> Vec<(Algorithm, usize)> {
    vec![
        (Algorithm::TwoD, 1),
        (Algorithm::TwoD, 4),
        (Algorithm::TwoDRect { pr: 3, pc: 3 }, 9),
        (Algorithm::ThreeD, 1),
        (Algorithm::ThreeD, 8),
    ]
}

#[test]
fn summa_trainers_honor_comm_mode() {
    // Tentpole acceptance for the 2D/3D stage-panel specialization: each
    // SUMMA stage's dense-panel broadcast becomes a gather of only the
    // rows the receivers' sparse panels touch. Must be bit-identical to
    // dense mode — with and without comm/compute overlap — while
    // metering strictly fewer DenseComm words whenever the stage
    // communicators are non-singleton.
    let (problem, cfg) = low_degree_problem();
    for (algo, p) in summa_cases() {
        for overlap in [true, false] {
            let tc = |mode| TrainConfig {
                epochs: 3,
                comm_mode: mode,
                overlap,
                ..Default::default()
            };
            let dense = train_distributed(
                &problem,
                &cfg,
                algo,
                p,
                CostModel::summit_like(),
                &tc(CommMode::Dense),
            );
            let sparse = train_distributed(
                &problem,
                &cfg,
                algo,
                p,
                CostModel::summit_like(),
                &tc(CommMode::SparsityAware),
            );
            assert_eq!(
                dense.losses,
                sparse.losses,
                "{} P={p} overlap={overlap}: per-epoch losses must be bit-identical",
                algo.name()
            );
            assert_eq!(
                dense.weights,
                sparse.weights,
                "{} P={p} overlap={overlap}: final weights must be bit-identical",
                algo.name()
            );
            assert_eq!(
                dense.accuracy,
                sparse.accuracy,
                "{} P={p} overlap={overlap}: accuracy must be bit-identical",
                algo.name()
            );
            let (dw, sw) = (dense_words(&dense), dense_words(&sparse));
            if p > 1 {
                assert!(
                    sw < dw,
                    "{} P={p} overlap={overlap}: sparsity-aware DenseComm words {sw} must \
                     be strictly below dense {dw} on a low-degree graph",
                    algo.name()
                );
            } else {
                // Single-rank grid: every collective is a local no-op.
                assert_eq!(
                    sw,
                    dw,
                    "{} P={p}: modes must meter equally on one rank",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn summa_empty_needed_sets_are_handled() {
    // An edge-free graph normalizes to the identity (self-loops only), so
    // every off-diagonal SUMMA panel has *zero* nonzero columns: the
    // sparsity-aware gather requests no rows at all for those stages.
    // Zero-row gathers must still rendezvous (the fingerprint and α cost
    // remain) and produce bit-identical results.
    let raw = Csr::from_coo(Coo::new(12, 12));
    let problem = Problem::synthetic(&raw, 8, 3, 1.0, 17);
    let cfg = GcnConfig::three_layer(8, 6, 3);
    for (algo, p) in summa_cases() {
        if p == 1 {
            continue;
        }
        let dense = train_distributed(
            &problem,
            &cfg,
            algo,
            p,
            CostModel::summit_like(),
            &config(CommMode::Dense),
        );
        let sparse = train_distributed(
            &problem,
            &cfg,
            algo,
            p,
            CostModel::summit_like(),
            &config(CommMode::SparsityAware),
        );
        assert_eq!(
            dense.losses,
            sparse.losses,
            "{} P={p}: identity-graph losses must be bit-identical",
            algo.name()
        );
        assert_eq!(
            dense.weights,
            sparse.weights,
            "{} P={p}: identity-graph weights must be bit-identical",
            algo.name()
        );
        let (dw, sw) = (dense_words(&dense), dense_words(&sparse));
        assert!(
            sw < dw,
            "{} P={p}: zero-row gathers must undercut full broadcasts ({sw} vs {dw})",
            algo.name()
        );
    }
}

#[test]
fn sub_staged_summa_is_bit_identical_across_tiers() {
    // `stages_per_block > 1` splits every fine SUMMA stage into narrower
    // sub-panels: sliced S panels, sliced D panels, per-sub-stage needed
    // sets and cache slots. Every tier must train bit-identically on
    // them, with and without overlap, on square and rectangular grids,
    // and match the serial reference.
    let (problem, cfg) = low_degree_problem();
    let mut serial = SerialTrainer::new(&problem, cfg.clone());
    let s_losses = serial.train(3);
    for (algo, p) in [
        (Algorithm::TwoD, 4),
        (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
    ] {
        for stages_per_block in [2, 3] {
            for overlap in [true, false] {
                let run = |mode| {
                    let tc = TrainConfig {
                        epochs: 3,
                        comm_mode: mode,
                        overlap,
                        twod: TwoDimConfig { stages_per_block },
                        ..Default::default()
                    };
                    train_distributed(&problem, &cfg, algo, p, CostModel::summit_like(), &tc)
                };
                let case = format!("{} sub={stages_per_block} overlap={overlap}", algo.name());
                let dense = run(CommMode::Dense);
                for mode in [CommMode::SparsityAware, CommMode::Cached { refresh: 1 }] {
                    let r = run(mode);
                    assert_eq!(r.losses, dense.losses, "{case} {mode:?}: losses");
                    assert_eq!(r.weights, dense.weights, "{case} {mode:?}: weights");
                    assert!(
                        dense_words(&r) < dense_words(&dense),
                        "{case} {mode:?}: sparse tiers must move fewer DenseComm words"
                    );
                }
                for (e, (a, b)) in s_losses.iter().zip(&dense.losses).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-8,
                        "{case}: epoch {e} loss {b} vs serial {a}"
                    );
                }
                for (l, (sw, dw)) in serial.weights().iter().zip(&dense.weights).enumerate() {
                    let d = sw.max_abs_diff(dw);
                    assert!(d < 1e-8, "{case}: weight {l} differs from serial by {d}");
                }
            }
        }
    }
}
