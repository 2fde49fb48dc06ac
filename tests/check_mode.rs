//! End-to-end CheckMode coverage: every distributed trainer runs clean
//! under the watchdog (its collectives all match), produces the same
//! losses as the run without it, and the `try_setup` constructors
//! report geometry errors as values instead of panics.

use cagnet::comm::{CheckMode, Cluster};
use cagnet::core::dist::{
    one5d::One5DTrainer, onedim::OneDimTrainer, onedim_row::OneDimRowTrainer,
    threedim::ThreeDimTrainer, twodim::TwoDimTrainer, SetupError,
};
use cagnet::core::trainer::TwoDimConfig;
use cagnet::core::{GcnConfig, Problem};
use cagnet::sparse::generate::erdos_renyi;

const EPOCHS: usize = 3;

fn problem() -> Problem {
    let g = erdos_renyi(60, 4.0, 7);
    Problem::synthetic(&g, 10, 4, 0.7, 107)
}

fn gcn() -> GcnConfig {
    GcnConfig::three_layer(10, 6, 4)
}

/// Train under the given mode and return each epoch's global loss.
fn losses(p: usize, check: CheckMode, algo: &str) -> Vec<f64> {
    let prob = problem();
    let per_rank = Cluster::new(p).with_check(check).run(|ctx| match algo {
        "1d" => {
            let mut t = OneDimTrainer::setup(ctx, &prob, &gcn());
            (0..EPOCHS).map(|_| t.epoch(ctx)).collect::<Vec<f64>>()
        }
        "1d-row" => {
            let mut t = OneDimRowTrainer::setup(ctx, &prob, &gcn());
            (0..EPOCHS).map(|_| t.epoch(ctx)).collect()
        }
        "1.5d" => {
            let mut t = One5DTrainer::setup(ctx, &prob, &gcn(), 2);
            (0..EPOCHS).map(|_| t.epoch(ctx)).collect()
        }
        "2d" => {
            let mut t = TwoDimTrainer::setup(ctx, &prob, &gcn(), TwoDimConfig::default());
            (0..EPOCHS).map(|_| t.epoch(ctx)).collect()
        }
        "3d" => {
            let mut t = ThreeDimTrainer::setup(ctx, &prob, &gcn());
            (0..EPOCHS).map(|_| t.epoch(ctx)).collect()
        }
        other => panic!("unknown algo {other}"),
    });
    per_rank[0].0.clone()
}

#[test]
fn all_trainers_run_clean_and_unchanged_under_check() {
    for (algo, p) in [("1d", 4), ("1d-row", 4), ("1.5d", 4), ("2d", 4), ("3d", 8)] {
        let off = losses(p, CheckMode::Off, algo);
        let on = losses(p, CheckMode::On, algo);
        assert_eq!(off.len(), EPOCHS);
        for (e, (a, b)) in off.iter().zip(&on).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{algo} P={p}: checked loss differs at epoch {e}"
            );
        }
    }
}

#[test]
fn try_setup_reports_geometry_errors_as_values() {
    let prob = problem();
    // Non-square world for 2D.
    let errs = Cluster::new(3).run(|ctx| {
        TwoDimTrainer::try_setup(ctx, &prob, &gcn(), TwoDimConfig::default())
            .err()
            .map(|e| e.to_string())
    });
    for (e, _) in errs {
        assert_eq!(
            e.as_deref(),
            Some("2D trainer needs a square process count, got 3")
        );
    }
    // Non-cubic world for 3D.
    let errs = Cluster::new(4).run(|ctx| {
        ThreeDimTrainer::try_setup(ctx, &prob, &gcn())
            .err()
            .map(|e| e.to_string())
    });
    for (e, _) in errs {
        assert_eq!(
            e.as_deref(),
            Some("3D trainer needs a cubic process count, got 4")
        );
    }
    // Replication factor not dividing P for 1.5D.
    let errs = Cluster::new(4).run(|ctx| One5DTrainer::try_setup(ctx, &prob, &gcn(), 3).err());
    for (e, _) in errs {
        assert_eq!(
            e,
            Some(SetupError::Geometry(
                "replication factor 3 must divide P=4".into()
            ))
        );
    }
    // More ranks than vertices for 1D: the tiny problem has 60 vertices.
    let tiny = {
        let g = erdos_renyi(3, 1.0, 5);
        Problem::synthetic(&g, 4, 2, 1.0, 9)
    };
    let errs = Cluster::new(4)
        .run(|ctx| OneDimTrainer::try_setup(ctx, &tiny, &GcnConfig::three_layer(4, 3, 2)).err());
    for (e, _) in errs {
        let e = e.expect("setup on 4 ranks x 3 vertices should fail");
        assert_eq!(
            e,
            SetupError::TooManyRanks {
                ranks: 4,
                vertices: 3
            }
        );
        assert!(e.to_string().contains("more ranks than vertices"));
    }
}
