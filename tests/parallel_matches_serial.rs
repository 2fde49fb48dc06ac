//! The paper's §V-A verification, reproduced: every distributed algorithm
//! must "not only achieve the same training accuracy in the same number of
//! epochs as the serial implementation, but also output the same
//! embeddings up to floating point accumulation errors".

use cagnet::comm::{CostModel, Precision};
use cagnet::core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet::core::{CommMode, GcnConfig, Problem, SerialTrainer};
use cagnet::sparse::generate::{erdos_renyi, rmat_symmetric, RmatParams};

const EPOCHS: usize = 5;
const TOL: f64 = 1e-8;

fn problem(n: usize, seed: u64) -> Problem {
    let g = erdos_renyi(n, 4.0, seed);
    Problem::synthetic(&g, 10, 4, 0.7, seed + 100)
}

fn gcn() -> GcnConfig {
    GcnConfig::three_layer(10, 7, 4)
}

/// Shapes where a grid-family dense-weight product moves its narrow side
/// (`dist/grid.rs`), every width past the input indivisible by 2 and 3:
/// only layer 0 narrows; layers 0 and 2 narrow and hidden layer 1 widens
/// past `2·f_in`; only layer 0's `Y` side fires.
fn narrow_side_shapes() -> Vec<(Problem, GcnConfig)> {
    [vec![10, 5, 5, 7], vec![10, 5, 11, 7], vec![5, 11, 11]]
        .into_iter()
        .map(|dims| {
            let g = erdos_renyi(58, 4.0, 13);
            let problem = Problem::synthetic(&g, dims[0], dims[dims.len() - 1], 0.7, 113);
            let cfg = GcnConfig {
                dims,
                lr: 0.05,
                seed: 17,
            };
            (problem, cfg)
        })
        .collect()
}

fn serial_reference(
    p: &Problem,
    cfg: &GcnConfig,
) -> (Vec<f64>, Vec<cagnet::dense::Mat>, cagnet::dense::Mat) {
    let mut t = SerialTrainer::new(p, cfg.clone());
    let losses = t.train(EPOCHS);
    let _ = t.forward(); // refresh embeddings at the final weights
    (losses, t.weights().to_vec(), t.embeddings().clone())
}

fn check(algo: Algorithm, p: usize, problem: &Problem) {
    check_shape(algo, p, problem, &gcn());
}

fn check_shape(algo: Algorithm, p: usize, problem: &Problem, cfg: &GcnConfig) {
    let (s_losses, s_weights, s_emb) = serial_reference(problem, cfg);
    let tc = TrainConfig {
        epochs: EPOCHS,
        ..Default::default()
    };
    let r = train_distributed(problem, cfg, algo, p, CostModel::summit_like(), &tc);
    for (e, (a, b)) in s_losses.iter().zip(&r.losses).enumerate() {
        assert!(
            (a - b).abs() < TOL,
            "{} P={p}: loss diverges at epoch {e}: serial {a} vs dist {b}",
            algo.name()
        );
    }
    for (l, (sw, dw)) in s_weights.iter().zip(&r.weights).enumerate() {
        let d = sw.max_abs_diff(dw);
        assert!(d < TOL, "{} P={p}: weight {l} differs by {d}", algo.name());
    }
    let d = s_emb.max_abs_diff(&r.embeddings);
    assert!(d < TOL, "{} P={p}: embeddings differ by {d}", algo.name());
}

#[test]
fn one_d_matches_serial_across_process_counts() {
    let p = problem(61, 1);
    for ranks in [1, 2, 3, 4, 5, 8] {
        check(Algorithm::OneD, ranks, &p);
    }
}

#[test]
fn one5_d_matches_serial_across_replication_factors() {
    let p = problem(60, 2);
    for (ranks, c) in [(4, 1), (4, 2), (4, 4), (6, 2), (6, 3), (8, 2), (12, 4)] {
        check(Algorithm::One5D { c }, ranks, &p);
    }
}

/// Every comm tier and overlap setting trains `algo` bit-identically at
/// each wire precision. At f64 all six runs agree; under a narrow wire a
/// broadcast root widens its own rounded block where a gather root keeps
/// it exact, so there Dense agrees with itself across overlap and the two
/// sparse tiers with each other.
fn tiers_agree(algo: Algorithm, p: usize, problem: &Problem, cfg: &GcnConfig) {
    for precision in [Precision::F64, Precision::F32, Precision::Bf16] {
        let mut reference: Vec<(bool, cagnet::core::trainer::DistTrainResult)> = Vec::new();
        for mode in [
            CommMode::Dense,
            CommMode::SparsityAware,
            CommMode::Cached { refresh: 1 },
        ] {
            for overlap in [true, false] {
                let tc = TrainConfig {
                    epochs: 3,
                    comm_mode: mode,
                    overlap,
                    precision,
                    dropout: 0.25,
                    ..Default::default()
                };
                let r = train_distributed(problem, cfg, algo, p, CostModel::summit_like(), &tc);
                let sparse = mode != CommMode::Dense && precision != Precision::F64;
                let case = format!(
                    "{} P={p} {:?} {mode:?} overlap={overlap} {precision:?}",
                    algo.name(),
                    cfg.dims
                );
                match reference.iter().find(|(s, _)| *s == sparse) {
                    Some((_, want)) => {
                        assert_eq!(r.losses, want.losses, "{case}: losses");
                        assert_eq!(r.weights, want.weights, "{case}: weights");
                        assert_eq!(r.embeddings, want.embeddings, "{case}: embeddings");
                    }
                    None => reference.push((sparse, r)),
                }
            }
        }
    }
}

#[test]
fn two_d_matches_serial_across_grids() {
    let p = problem(58, 3);
    for ranks in [1, 4, 9, 16] {
        check(Algorithm::TwoD, ranks, &p);
    }
    for (problem, cfg) in narrow_side_shapes() {
        for (algo, ranks) in [
            (Algorithm::TwoD, 4),
            (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
            (Algorithm::TwoDRect { pr: 3, pc: 2 }, 6),
        ] {
            check_shape(algo, ranks, &problem, &cfg);
            tiers_agree(algo, ranks, &problem, &cfg);
        }
    }
}

#[test]
fn three_d_matches_serial_across_meshes() {
    let p = problem(64, 4);
    for ranks in [1, 8, 27] {
        check(Algorithm::ThreeD, ranks, &p);
    }
    for (problem, cfg) in narrow_side_shapes() {
        check_shape(Algorithm::ThreeD, 8, &problem, &cfg);
        tiers_agree(Algorithm::ThreeD, 8, &problem, &cfg);
    }
}

#[test]
fn all_algorithms_agree_on_scale_free_graph() {
    // R-MAT (heavy-tailed) instead of Erdős–Rényi: exercises imbalanced
    // blocks, including nearly-empty ones.
    let g = rmat_symmetric(6, 4, RmatParams::default(), 9);
    let problem = Problem::synthetic(&g, 10, 4, 1.0, 11);
    check(Algorithm::OneD, 4, &problem);
    check(Algorithm::One5D { c: 2 }, 4, &problem);
    check(Algorithm::TwoD, 4, &problem);
    check(Algorithm::ThreeD, 8, &problem);
}

#[test]
fn uneven_dimensions_are_handled() {
    // n = 47 (prime), hidden width 5, classes 3: nothing divides evenly
    // on a 3x3 grid or 2x2x2 mesh.
    let g = erdos_renyi(47, 3.0, 5);
    let problem = Problem::synthetic(&g, 9, 3, 0.5, 6);
    let cfg = GcnConfig {
        dims: vec![9, 5, 3],
        lr: 0.05,
        seed: 77,
    };
    let mut s = SerialTrainer::new(&problem, cfg.clone());
    let s_losses = s.train(3);
    for (algo, ranks) in [
        (Algorithm::OneD, 7),
        (Algorithm::One5D { c: 3 }, 9),
        (Algorithm::TwoD, 9),
        (Algorithm::ThreeD, 8),
    ] {
        let tc = TrainConfig {
            epochs: 3,
            ..Default::default()
        };
        let r = train_distributed(&problem, &cfg, algo, ranks, CostModel::summit_like(), &tc);
        for (a, b) in s_losses.iter().zip(&r.losses) {
            assert!((a - b).abs() < TOL, "{} P={ranks}: {a} vs {b}", algo.name());
        }
    }
}

#[test]
fn intra_rank_threads_are_bit_identical() {
    // The intra-rank parallel kernels are deterministic by construction:
    // running every local GEMM/SpMM on 4 threads must reproduce the
    // 1-thread run bit for bit — exact equality, not a tolerance.
    let p = problem(59, 21);
    for (algo, ranks) in [
        (Algorithm::OneD, 3),
        (Algorithm::OneDRow, 3),
        (Algorithm::One5D { c: 2 }, 4),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 8),
    ] {
        let run = |threads: usize| {
            let tc = TrainConfig {
                epochs: 4,
                threads_per_rank: threads,
                ..Default::default()
            };
            train_distributed(&p, &gcn(), algo, ranks, CostModel::summit_like(), &tc)
        };
        let serial = run(1);
        let threaded = run(4);
        assert_eq!(
            serial.losses,
            threaded.losses,
            "{}: losses drift with threads",
            algo.name()
        );
        for (l, (sw, tw)) in serial.weights.iter().zip(&threaded.weights).enumerate() {
            assert_eq!(
                sw.max_abs_diff(tw),
                0.0,
                "{}: weight {l} drifts with threads",
                algo.name()
            );
        }
        assert_eq!(
            serial.embeddings.max_abs_diff(&threaded.embeddings),
            0.0,
            "{}: embeddings drift with threads",
            algo.name()
        );
    }
}

#[test]
fn accuracy_is_identical_across_algorithms() {
    let p = problem(50, 12);
    let tc = TrainConfig {
        epochs: 8,
        ..Default::default()
    };
    let mut accs = Vec::new();
    for (algo, ranks) in [
        (Algorithm::OneD, 5),
        (Algorithm::One5D { c: 2 }, 6),
        (Algorithm::TwoD, 4),
        (Algorithm::ThreeD, 8),
    ] {
        let r = train_distributed(&p, &gcn(), algo, ranks, CostModel::summit_like(), &tc);
        accs.push(r.accuracy);
    }
    let mut s = SerialTrainer::new(&p, gcn());
    s.train(8);
    let s_acc = s.accuracy();
    for a in accs {
        assert!(
            (a - s_acc).abs() < 1e-12,
            "accuracy mismatch: {a} vs serial {s_acc}"
        );
    }
}
