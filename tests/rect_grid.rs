//! Rectangular-grid 2D SUMMA (§IV-C.6): correctness on non-square grids
//! and the paper's sparse-vs-dense communication trade-off — "increasing
//! the Pr/Pc ratio" saves sparse matrix communication (`nnz/Pr`) "at the
//! expense of increasing the sum of the other two [dense] terms".

use cagnet::comm::{Cat, CostModel};
use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet::core::{GcnConfig, Problem, SerialTrainer};
use cagnet::sparse::generate::{erdos_renyi, rmat_symmetric, RmatParams};

fn gcn() -> GcnConfig {
    GcnConfig::three_layer(12, 8, 4)
}

#[test]
fn rect_grids_match_serial() {
    let g = erdos_renyi(60, 4.0, 31);
    // The uniform-ish default, then shapes where a dense-weight product
    // moves its narrow side along the process row: only layer 0 narrows;
    // layers 0 and 2 narrow and hidden layer 1 widens past 2·f_in; only
    // layer 0's Y side fires.
    let shapes = [
        gcn().dims,
        vec![12, 5, 5, 7],
        vec![12, 5, 11, 7],
        vec![5, 11, 11],
    ];
    for dims in shapes {
        let problem = Problem::synthetic(&g, dims[0], dims[dims.len() - 1], 0.8, 32);
        let cfg = GcnConfig { dims, ..gcn() };
        let mut s = SerialTrainer::new(&problem, cfg.clone());
        let s_losses = s.train(4);
        let tc = TrainConfig {
            epochs: 4,
            ..Default::default()
        };
        for (pr, pc) in [(2, 3), (3, 2), (1, 6), (6, 1), (4, 2), (2, 6), (5, 3)] {
            let r = train_distributed(
                &problem,
                &cfg,
                Algorithm::TwoDRect { pr, pc },
                pr * pc,
                CostModel::summit_like(),
                &tc,
            );
            let case = format!("grid {pr}x{pc} {:?}", cfg.dims);
            for (e, (a, b)) in s_losses.iter().zip(&r.losses).enumerate() {
                assert!(
                    (a - b).abs() < 1e-8,
                    "{case}: loss diverges at epoch {e}: {a} vs {b}"
                );
            }
            for (l, (sw, dw)) in s.weights().iter().zip(&r.weights).enumerate() {
                assert!(sw.max_abs_diff(dw) < 1e-8, "{case}: weight {l} differs");
            }
        }
    }
}

#[test]
fn square_rect_equals_square() {
    // The rectangular path with pr == pc must reproduce the square
    // implementation bit for bit.
    let g = erdos_renyi(50, 4.0, 33);
    let problem = Problem::synthetic(&g, 12, 4, 1.0, 34);
    let tc = TrainConfig {
        epochs: 3,
        ..Default::default()
    };
    let a = train_distributed(
        &problem,
        &gcn(),
        Algorithm::TwoD,
        9,
        CostModel::summit_like(),
        &tc,
    );
    let b = train_distributed(
        &problem,
        &gcn(),
        Algorithm::TwoDRect { pr: 3, pc: 3 },
        9,
        CostModel::summit_like(),
        &tc,
    );
    assert_eq!(a.losses, b.losses);
    for (x, y) in a.weights.iter().zip(&b.weights) {
        assert_eq!(x, y);
    }
    // Identical communication ledgers too.
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.comm_words(), rb.comm_words());
    }
}

#[test]
fn taller_grid_trades_sparse_for_dense_traffic() {
    // §IV-C.6: sparse words scale with 1/Pr; a 16x1 grid should move far
    // fewer sparse words than 1x16, and more dense words.
    let g = rmat_symmetric(9, 8, RmatParams::default(), 35); // 512 vertices
    let problem = Problem::synthetic(&g, 16, 16, 1.0, 36);
    let cfg = GcnConfig {
        dims: vec![16, 16, 16],
        lr: 0.01,
        seed: 3,
    };
    let tc = TrainConfig {
        epochs: 1,
        collect_outputs: false,
        ..Default::default()
    };
    let run = |pr: usize, pc: usize| {
        let r = train_distributed(
            &problem,
            &cfg,
            Algorithm::TwoDRect { pr, pc },
            pr * pc,
            CostModel::summit_like(),
            &tc,
        );
        let s: u64 = r.reports.iter().map(|rep| rep.words(Cat::SparseComm)).sum();
        let d: u64 = r.reports.iter().map(|rep| rep.words(Cat::DenseComm)).sum();
        (s as f64 / 16.0, d as f64 / 16.0)
    };
    let (s_tall, d_tall) = run(16, 1);
    let (s_sq, d_sq) = run(4, 4);
    let (s_wide, d_wide) = run(1, 16);
    // Sparse traffic: tall < square < wide. A Pc=1 grid broadcasts A
    // panels to rows of size 1 — zero sparse words.
    assert!(s_tall < s_sq, "tall {s_tall} !< square {s_sq}");
    assert!(s_sq < s_wide, "square {s_sq} !< wide {s_wide}");
    // Dense traffic goes the other way between the extremes.
    assert!(
        d_tall > d_sq || d_wide > d_sq,
        "square grid should minimize dense sum: tall {d_tall}, sq {d_sq}, wide {d_wide}"
    );
}

#[test]
fn degenerate_grids_are_valid() {
    // 1xP and Px1 grids are degenerate 2D distributions that must still
    // train correctly (they reduce to column/row 1D-like layouts).
    let g = erdos_renyi(40, 3.0, 37);
    let problem = Problem::synthetic(&g, 8, 3, 1.0, 38);
    let cfg = GcnConfig {
        dims: vec![8, 6, 3],
        lr: 0.05,
        seed: 4,
    };
    let mut s = SerialTrainer::new(&problem, cfg.clone());
    let s_losses = s.train(2);
    let tc = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    for (pr, pc) in [(1, 5), (5, 1), (1, 1)] {
        let r = train_distributed(
            &problem,
            &cfg,
            Algorithm::TwoDRect { pr, pc },
            pr * pc,
            CostModel::summit_like(),
            &tc,
        );
        for (a, b) in s_losses.iter().zip(&r.losses) {
            assert!((a - b).abs() < 1e-8, "grid {pr}x{pc}: {a} vs {b}");
        }
    }
}
