//! The five distributed trainers behind one set of calls, for tests that
//! drive `epoch` / `forward` / `backward` / `accuracy` one at a time
//! inside their own `Cluster::run` closure (`train_distributed` only runs
//! whole trainings).

use cagnet::comm::Ctx;
use cagnet::core::dist::one5d::One5DTrainer;
use cagnet::core::dist::onedim::OneDimTrainer;
use cagnet::core::dist::onedim_row::OneDimRowTrainer;
use cagnet::core::dist::threedim::ThreeDimTrainer;
use cagnet::core::dist::twodim::{TwoDimConfig, TwoDimTrainer};
use cagnet::core::trainer::Algorithm;
use cagnet::core::{CommMode, GcnConfig, Problem};
use cagnet::dense::Mat;

pub enum AnyTrainer {
    OneD(OneDimTrainer),
    OneDRow(OneDimRowTrainer),
    One5D(One5DTrainer),
    TwoD(Box<TwoDimTrainer>),
    ThreeD(Box<ThreeDimTrainer>),
}

macro_rules! each {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyTrainer::OneD($t) => $body,
            AnyTrainer::OneDRow($t) => $body,
            AnyTrainer::One5D($t) => $body,
            AnyTrainer::TwoD($t) => $body,
            AnyTrainer::ThreeD($t) => $body,
        }
    };
}

// Each test binary uses its own subset of these.
#[allow(dead_code)]
impl AnyTrainer {
    pub fn setup(ctx: &Ctx, algo: Algorithm, problem: &Problem, gcn: &GcnConfig) -> Self {
        let twod = TwoDimConfig::default();
        match algo {
            Algorithm::OneD => AnyTrainer::OneD(OneDimTrainer::setup(ctx, problem, gcn)),
            Algorithm::OneDRow => AnyTrainer::OneDRow(OneDimRowTrainer::setup(ctx, problem, gcn)),
            Algorithm::One5D { c } => AnyTrainer::One5D(One5DTrainer::setup(ctx, problem, gcn, c)),
            Algorithm::TwoD => {
                AnyTrainer::TwoD(Box::new(TwoDimTrainer::setup(ctx, problem, gcn, twod)))
            }
            Algorithm::TwoDRect { pr, pc } => AnyTrainer::TwoD(Box::new(
                TwoDimTrainer::setup_rect(ctx, problem, gcn, twod, pr, pc),
            )),
            Algorithm::ThreeD => {
                AnyTrainer::ThreeD(Box::new(ThreeDimTrainer::setup(ctx, problem, gcn)))
            }
        }
    }

    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.epoch(ctx))
    }

    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.forward(ctx))
    }

    pub fn backward(&mut self, ctx: &Ctx) {
        each!(self, t => t.backward(ctx))
    }

    pub fn accuracy(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.accuracy(ctx))
    }

    pub fn set_comm_mode(&mut self, mode: CommMode) {
        each!(self, t => t.set_comm_mode(mode))
    }

    pub fn set_overlap(&mut self, overlap: bool) {
        each!(self, t => t.set_overlap(overlap))
    }

    pub fn set_dropout(&mut self, rate: f64) {
        each!(self, t => t.set_dropout(rate))
    }

    pub fn set_weights(&mut self, weights: Vec<Mat>) {
        each!(self, t => t.set_weights(weights))
    }

    pub fn weights(&self) -> &[Mat] {
        each!(self, t => t.weights())
    }
}
