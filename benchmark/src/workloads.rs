//! The six workloads: what each trains, on how many ranks, over which
//! transport, and why it is in the set. `BENCHMARK.json` repeats the names
//! and reasons; `tests/schema.rs` keeps the two in step.

use cagnet_comm::{Ctx, TransportKind};
use cagnet_core::dist::one5d::One5DTrainer;
use cagnet_core::dist::onedim::OneDimTrainer;
use cagnet_core::dist::threedim::ThreeDimTrainer;
use cagnet_core::dist::twodim::{TwoDimConfig, TwoDimTrainer};
use cagnet_core::dist::StorageReport;
use cagnet_core::trainer::Algorithm;
use cagnet_core::{CommMode, GcnConfig, Problem};
use cagnet_sparse::datasets::{self, DatasetSpec};
use cagnet_sparse::generate::{permute_symmetric, planted_partition, PlantedPartitionParams};

/// Default workload seed (the repo's historical bench seed).
pub const DEFAULT_SEED: u64 = 0xBE7C;

/// Where the graph comes from.
#[derive(Clone, Copy, Debug)]
pub enum Graph {
    /// `datasets::generate(spec, scale_down, max_degree, seed)`.
    Dataset {
        spec: &'static DatasetSpec,
        scale_down: usize,
        max_degree: usize,
    },
    /// `planted_partition` + `permute_symmetric`, synthetic features.
    Planted {
        n: usize,
        params: PlantedPartitionParams,
        features: usize,
        classes: usize,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: Graph,
    /// Which distributed trainer runs, with its geometry. The workloads
    /// use four of the library's six.
    pub algo: Algorithm,
    pub ranks: usize,
    pub transport: TransportKind,
    pub comm_mode: CommMode,
    /// Relabel with `partition_greedy_bfs(.., Volume)` before launch.
    pub partition: bool,
    /// Relative tolerance of the first two losses against the serial
    /// reference: accumulation-order noise for exact tiers, the
    /// documented staleness bound for the cached tier.
    pub loss_tol: f64,
}

const PLANTED: PlantedPartitionParams = PlantedPartitionParams {
    communities: 64,
    degree_in: 12.0,
    degree_out: 1.0,
    hubs: 8,
    hub_degree: 200,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "reddit_1d_p2",
        why: "Most kernel-heavy: dense Reddit stand-in on 1D P=2 threads, where SpMM and GEMM take \
              their largest share of any workload and the thread transport almost none; kernel changes show here.",
        graph: Graph::Dataset {
            spec: &datasets::REDDIT,
            scale_down: 14,
            max_degree: 96,
        },
        algo: Algorithm::OneD,
        ranks: 2,
        transport: TransportKind::Shared,
        comm_mode: CommMode::Dense,
        partition: false,
        loss_tol: 1e-8,
    },
    Workload {
        name: "amazon_2d_p4",
        why: "The paper's 2D SUMMA on a 2x2 thread grid: most collectives per epoch, so trainer \
              orchestration and communicator bookkeeping get their largest share.",
        graph: Graph::Dataset {
            spec: &datasets::AMAZON,
            scale_down: 288,
            max_degree: 25,
        },
        algo: Algorithm::TwoD,
        ranks: 4,
        transport: TransportKind::Shared,
        comm_mode: CommMode::Dense,
        partition: false,
        loss_tol: 1e-8,
    },
    Workload {
        name: "amazon_1d_p2_socket_dense",
        why: "1D P=2 over real worker processes with dense broadcasts: the socket hub and frame \
              codec dominate the epoch, kernels are the minority.",
        graph: Graph::Dataset {
            spec: &datasets::AMAZON,
            scale_down: 288,
            max_degree: 25,
        },
        algo: Algorithm::OneD,
        ranks: 2,
        transport: TransportKind::Socket,
        comm_mode: CommMode::Dense,
        partition: false,
        loss_tol: 1e-8,
    },
    Workload {
        name: "amazon_1d_p2_socket_sparse",
        why: "Same run with the sparsity-aware row exchange: far fewer metered words through the \
              gather_rows path, so a transport change that helps one path and costs the other splits here.",
        graph: Graph::Dataset {
            spec: &datasets::AMAZON,
            scale_down: 288,
            max_degree: 25,
        },
        algo: Algorithm::OneD,
        ranks: 2,
        transport: TransportKind::Socket,
        comm_mode: CommMode::SparsityAware,
        partition: false,
        loss_tol: 1e-8,
    },
    Workload {
        name: "planted_1p5d_p4_cached",
        why: "Everything-on tier: volume partition, relabel, 1.5D c=2 and the halo cache on a \
              community graph, so set-up does the most work and cache serve/refresh paths run.",
        graph: Graph::Planted {
            n: 32_768,
            params: PLANTED,
            features: 128,
            classes: 16,
        },
        algo: Algorithm::One5D { c: 2 },
        ranks: 4,
        transport: TransportKind::Shared,
        comm_mode: CommMode::Cached { refresh: 4 },
        partition: true,
        loss_tol: 1e-4,
    },
    Workload {
        name: "protein_3d_p8",
        why: "Only coverage of the 3D trainer and 8-rank rendezvous; oversubscribed on small boxes, \
              so its metered words and modeled time are the primary guard.",
        graph: Graph::Dataset {
            spec: &datasets::PROTEIN,
            scale_down: 267,
            max_degree: 48,
        },
        algo: Algorithm::ThreeD,
        ranks: 8,
        transport: TransportKind::Shared,
        comm_mode: CommMode::Dense,
        partition: false,
        loss_tol: 1e-8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Generate the problem from `seed`. `quick` shrinks every graph to
    /// about a thousand vertices (schema self-test only, never measured).
    pub fn build(&self, seed: u64, quick: bool) -> (Problem, GcnConfig) {
        match self.graph {
            Graph::Dataset {
                spec,
                scale_down,
                max_degree,
            } => {
                let scale_down = if quick { scale_down * 16 } else { scale_down };
                let ds = datasets::generate(spec, scale_down, max_degree, seed);
                let problem = Problem::from_dataset(&ds, seed);
                let gcn = GcnConfig::three_layer(spec.features, spec.hidden, spec.labels);
                (problem, gcn)
            }
            Graph::Planted {
                n,
                params,
                features,
                classes,
            } => {
                let (n, params) = if quick {
                    (
                        n / 32,
                        PlantedPartitionParams {
                            communities: 8,
                            hub_degree: 40,
                            ..params
                        },
                    )
                } else {
                    (n, params)
                };
                let raw = planted_partition(n, params, seed);
                let (g, _) = permute_symmetric(&raw, seed ^ 0x5eed);
                let problem = Problem::synthetic(&g, features, classes, 1.0, seed);
                (problem, GcnConfig::three_layer(features, 16, classes))
            }
        }
    }

    /// The refresh period of the cached tier (1 otherwise): epoch counts
    /// are kept a multiple of it so per-epoch words and modeled time do
    /// not depend on how many epochs a run happened to fit.
    pub fn epoch_granularity(&self) -> usize {
        self.comm_mode.cached_refresh().unwrap_or(1)
    }
}

/// The four trainers behind one set of calls. The library keeps the
/// equivalent enum private to `train_distributed`, which this benchmark
/// does not use because it needs to time `setup`, `epoch`, `forward` and
/// `accuracy` separately.
pub enum AnyTrainer {
    OneD(OneDimTrainer),
    One5D(One5DTrainer),
    TwoD(Box<TwoDimTrainer>),
    ThreeD(Box<ThreeDimTrainer>),
}

macro_rules! each {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyTrainer::OneD($t) => $body,
            AnyTrainer::One5D($t) => $body,
            AnyTrainer::TwoD($t) => $body,
            AnyTrainer::ThreeD($t) => $body,
        }
    };
}

impl AnyTrainer {
    pub fn setup(ctx: &Ctx, wl: &Workload, problem: &Problem, gcn: &GcnConfig) -> AnyTrainer {
        let mut t = match wl.algo {
            Algorithm::OneD => AnyTrainer::OneD(OneDimTrainer::setup(ctx, problem, gcn)),
            Algorithm::One5D { c } => AnyTrainer::One5D(One5DTrainer::setup(ctx, problem, gcn, c)),
            Algorithm::TwoD => AnyTrainer::TwoD(Box::new(TwoDimTrainer::setup(
                ctx,
                problem,
                gcn,
                TwoDimConfig::default(),
            ))),
            Algorithm::ThreeD => {
                AnyTrainer::ThreeD(Box::new(ThreeDimTrainer::setup(ctx, problem, gcn)))
            }
            other => panic!("no workload trains with {}", other.name()),
        };
        each!(&mut t, t => {
            t.set_comm_mode(wl.comm_mode);
            t.set_overlap(true);
        });
        t
    }

    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.epoch(ctx))
    }

    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.forward(ctx))
    }

    pub fn accuracy(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.accuracy(ctx))
    }

    pub fn storage_words(&self) -> StorageReport {
        each!(self, t => t.storage_words())
    }
}
