//! Measured communication volumes vs the paper's §IV closed-form analysis.
//!
//! These tests run real epochs on the simulated cluster and compare the
//! metered per-rank word counts against the α–β formulas: absolute values
//! within an implementation-constant factor, and — the paper's actual
//! claims — the *scaling* with `P` (flat for 1D, `1/√P` for 2D,
//! `1/P^{2/3}` for 3D, `1/c` for the 1.5D broadcast term).

use cagnet::comm::{Cat, CostModel};
use cagnet::core::analysis::{self, Shape};
use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet::core::{GcnConfig, Problem};
use cagnet::sparse::generate::{rmat_symmetric, RmatParams};
use cagnet_bench::{epoch_dense_words, grid_epoch_words};

const F: usize = 16;
const CLASSES: usize = 16;
const EPOCHS: usize = 2;

fn problem() -> Problem {
    let g = rmat_symmetric(8, 8, RmatParams::default(), 21); // 256 vertices
    Problem::synthetic(&g, F, CLASSES, 1.0, 22)
}

fn gcn() -> GcnConfig {
    // Uniform width F everywhere so the paper's "average f" is exact.
    GcnConfig {
        dims: vec![F, F, F],
        lr: 0.01,
        seed: 5,
    }
}

/// Mean measured comm words per rank per epoch.
fn measured_words(problem: &Problem, algo: Algorithm, p: usize) -> f64 {
    let tc = TrainConfig {
        epochs: EPOCHS,
        collect_outputs: false,
        ..Default::default()
    };
    let r = train_distributed(problem, &gcn(), algo, p, CostModel::summit_like(), &tc);
    let total: u64 = r.reports.iter().map(|rep| rep.comm_words()).sum();
    total as f64 / (p as f64 * EPOCHS as f64)
}

fn shape(problem: &Problem) -> Shape {
    Shape::new(problem.vertices(), problem.adj.nnz(), F, 2)
}

#[test]
fn one_d_words_are_flat_in_p() {
    let p = problem();
    let w4 = measured_words(&p, Algorithm::OneD, 4);
    let w16 = measured_words(&p, Algorithm::OneD, 16);
    // 1D volume barely grows with P (the (P-1)/P factors saturate).
    let ratio = w16 / w4;
    assert!(
        (0.8..1.4).contains(&ratio),
        "1D words should be ~flat: {w4} -> {w16} (ratio {ratio})"
    );
}

#[test]
fn one_d_matches_closed_form_within_constant() {
    let p = problem();
    let s = shape(&p);
    for ranks in [4, 8, 16] {
        let measured = measured_words(&p, Algorithm::OneD, ranks);
        let formula = analysis::one_d(&s, ranks, None).words;
        let ratio = measured / formula;
        assert!(
            (0.3..2.0).contains(&ratio),
            "1D P={ranks}: measured {measured} vs formula {formula} (ratio {ratio})"
        );
    }
}

#[test]
fn two_d_words_scale_as_inverse_sqrt_p() {
    let p = problem();
    let w4 = measured_words(&p, Algorithm::TwoD, 4);
    let w16 = measured_words(&p, Algorithm::TwoD, 16);
    let w64 = measured_words(&p, Algorithm::TwoD, 64);
    // 4x ranks => ~2x fewer words per rank (f² terms blur it slightly).
    let r1 = w4 / w16;
    let r2 = w16 / w64;
    assert!(
        (1.5..2.6).contains(&r1),
        "2D 4->16 ratio {r1} (w4={w4}, w16={w16})"
    );
    assert!(
        (1.4..2.6).contains(&r2),
        "2D 16->64 ratio {r2} (w16={w16}, w64={w64})"
    );
}

#[test]
fn two_d_matches_closed_form_within_constant() {
    let p = problem();
    let s = shape(&p);
    for ranks in [4, 16, 64] {
        let measured = measured_words(&p, Algorithm::TwoD, ranks);
        let formula = analysis::two_d(&s, ranks).words;
        let ratio = measured / formula;
        // Our implementation reuses the all-gathered AG slab (saving one
        // partial-SUMMA pass the paper charges), so it sits below the
        // formula but well within a small constant.
        assert!(
            (0.2..1.5).contains(&ratio),
            "2D P={ranks}: measured {measured} vs formula {formula} (ratio {ratio})"
        );
    }
}

#[test]
fn three_d_words_scale_as_inverse_p_two_thirds() {
    let p = problem();
    let w8 = measured_words(&p, Algorithm::ThreeD, 8);
    let w64 = measured_words(&p, Algorithm::ThreeD, 64);
    // 8x ranks => ~4x fewer words per rank.
    let ratio = w8 / w64;
    assert!(
        (2.2..5.5).contains(&ratio),
        "3D 8->64 ratio {ratio} (w8={w8}, w64={w64})"
    );
}

#[test]
fn two_d_beats_one_d_at_scale_but_not_small_p() {
    // The paper's headline: 2D moves ~(5/√P)x the 1D words — better only
    // once √P > 5. At P=64 2D should already communicate clearly less.
    let p = problem();
    let w1d = measured_words(&p, Algorithm::OneD, 64);
    let w2d = measured_words(&p, Algorithm::TwoD, 64);
    assert!(w2d < w1d, "2D ({w2d}) should beat 1D ({w1d}) at P=64");
    // And at P=4 the 2D advantage must be gone (2D moves more).
    let w1d4 = measured_words(&p, Algorithm::OneD, 4);
    let w2d4 = measured_words(&p, Algorithm::TwoD, 4);
    assert!(
        w2d4 > 0.8 * w1d4,
        "at P=4 2D ({w2d4}) should not dominate 1D ({w1d4})"
    );
}

#[test]
fn one5d_replication_reduces_broadcast_volume() {
    let p = problem();
    let w_c1 = measured_words(&p, Algorithm::One5D { c: 1 }, 16);
    let w_c4 = measured_words(&p, Algorithm::One5D { c: 4 }, 16);
    assert!(
        w_c4 < w_c1,
        "replication c=4 ({w_c4}) should reduce words vs c=1 ({w_c1})"
    );
}

#[test]
fn sparse_traffic_only_in_2d_and_3d() {
    // 1D/1.5D communicate only dense matrices (A never moves); 2D/3D
    // broadcast A blocks in every SUMMA stage.
    let p = problem();
    let tc = TrainConfig {
        epochs: 1,
        collect_outputs: false,
        ..Default::default()
    };
    let model = CostModel::summit_like;
    let r1 = train_distributed(&p, &gcn(), Algorithm::OneD, 8, model(), &tc);
    assert!(r1.reports.iter().all(|r| r.words(Cat::SparseComm) == 0));
    let r15 = train_distributed(&p, &gcn(), Algorithm::One5D { c: 2 }, 8, model(), &tc);
    assert!(r15.reports.iter().all(|r| r.words(Cat::SparseComm) == 0));
    let r2 = train_distributed(&p, &gcn(), Algorithm::TwoD, 16, model(), &tc);
    assert!(r2.reports.iter().any(|r| r.words(Cat::SparseComm) > 0));
    let r3 = train_distributed(&p, &gcn(), Algorithm::ThreeD, 8, model(), &tc);
    assert!(r3.reports.iter().any(|r| r.words(Cat::SparseComm) > 0));
}

#[test]
fn narrow_side_drop_matches_closed_form_to_the_word() {
    // Every dense-weight product of the grid family moves its narrow side
    // across the process row, and only the first pass fetches layer 0's
    // `H⁰` panels. The metered steady-state Dense-tier epoch must equal
    // the paper's broadcast form less the layer-0 fetch and the
    // closed-form saving, word for word at every rank; with uniform
    // widths nothing fires and the saving is zero.
    let g = rmat_symmetric(8, 8, RmatParams::default(), 41); // 256 vertices
    let shapes: [&[usize]; 3] = [
        // Layer 0 and the output layer narrow; layer 1 widens past 2·f_in.
        &[24, 7, 20, 5],
        // Only layer 0's Y side fires.
        &[5, 16, 16],
        &[F, F, F],
    ];
    for dims in shapes {
        let problem = Problem::synthetic(&g, dims[0], dims[dims.len() - 1], 1.0, 42);
        let cfg = GcnConfig {
            dims: dims.to_vec(),
            lr: 0.01,
            seed: 5,
        };
        for (algo, p) in [
            (Algorithm::TwoD, 4),
            (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
            (Algorithm::ThreeD, 8),
        ] {
            let want = grid_epoch_words(problem.vertices(), dims, algo, p);
            let metered = epoch_dense_words(&problem, &cfg, algo, p);
            let uniform = dims.iter().all(|&f| f == dims[0]);
            for (r, &m) in metered.iter().enumerate() {
                let drop = want.broadcast_form[r] as i64 - m as i64;
                assert_eq!(
                    drop,
                    want.saved[r] + want.input_fetch[r] as i64,
                    "{} P={p} {dims:?} rank {r}: metered {m}, broadcast form {}",
                    algo.name(),
                    want.broadcast_form[r]
                );
                assert_eq!(uniform, want.saved[r] == 0, "{dims:?} rank {r}");
            }
        }
    }
}

#[test]
fn modeled_epoch_time_improves_with_scale_for_2d() {
    // Figure 2's qualitative content: epoch throughput grows with device
    // count for the 2D implementation — *provided* the instance is
    // compute/bandwidth-dominated. (On tiny latency-bound instances it
    // does not, which is exactly the paper's Reddit finding; the
    // `latency_bound_small_graphs_do_not_scale` test covers that side.)
    let g = rmat_symmetric(10, 16, RmatParams::default(), 31); // 1024 vertices
    let p = Problem::synthetic(&g, 64, 16, 1.0, 32);
    let cfg = GcnConfig {
        dims: vec![64, 64, 16],
        lr: 0.01,
        seed: 5,
    };
    let model = CostModel {
        alpha: 1e-6, // NVLink-class latency => bandwidth/compute regime
        ..CostModel::summit_like()
    };
    let tc = TrainConfig {
        epochs: 2,
        collect_outputs: false,
        ..Default::default()
    };
    let t4 = train_distributed(&p, &cfg, Algorithm::TwoD, 4, model.clone(), &tc).epoch_seconds(2);
    let t16 = train_distributed(&p, &cfg, Algorithm::TwoD, 16, model, &tc).epoch_seconds(2);
    assert!(
        t16 < t4,
        "modeled epoch time should drop 4->16 ranks: {t4} -> {t16}"
    );
}

#[test]
fn latency_bound_small_graphs_do_not_scale() {
    // The paper's Reddit observation (§VI-b): on a small graph with
    // Summit-class latency, broadcasts are latency-bound and adding
    // devices does not reduce (modeled) communication time.
    let p = problem(); // 256 vertices
    let tc = TrainConfig {
        epochs: 2,
        collect_outputs: false,
        ..Default::default()
    };
    let t4 = train_distributed(
        &p,
        &gcn(),
        Algorithm::TwoD,
        4,
        CostModel::summit_like(),
        &tc,
    )
    .epoch_seconds(2);
    let t64 = train_distributed(
        &p,
        &gcn(),
        Algorithm::TwoD,
        64,
        CostModel::summit_like(),
        &tc,
    )
    .epoch_seconds(2);
    assert!(
        t64 > t4,
        "tiny graph + high alpha should be latency-bound: {t4} -> {t64}"
    );
}
