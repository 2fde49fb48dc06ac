//! The five distributed trainers behind one type, for tests that drive
//! `epoch` / `forward` / `backward` / `accuracy` one at a time inside
//! their own `Cluster::run` closure (`train_distributed` only runs whole
//! trainings).

use cagnet::comm::Ctx;
use cagnet::core::dist::{Layout, Trainer};
use cagnet::core::trainer::{Algorithm, TwoDimConfig};
use cagnet::core::{GcnConfig, Problem};

pub type AnyTrainer = Trainer<Box<dyn Layout>>;

/// `AnyTrainer::setup`: `algo`'s trainer with the default 2D knobs.
pub trait Setup {
    fn setup(ctx: &Ctx, algo: Algorithm, problem: &Problem, gcn: &GcnConfig) -> Self;
}

impl Setup for AnyTrainer {
    fn setup(ctx: &Ctx, algo: Algorithm, problem: &Problem, gcn: &GcnConfig) -> Self {
        Trainer::for_algorithm(ctx, problem, gcn, algo, TwoDimConfig::default())
    }
}
