//! Training and inference entry points: run a GCN with any of the five
//! distributed algorithms on a simulated cluster and collect losses,
//! accuracy, weights, embeddings, and per-rank timeline reports.

use crate::dist::{
    one5d::One5DTrainer, onedim::OneDimTrainer, onedim_row::OneDimRowTrainer,
    threedim::ThreeDimTrainer, twodim::TwoDimTrainer, Layout, Trainer,
};
use crate::model::GcnConfig;
use crate::optimizer::OptimizerKind;
use crate::problem::Problem;
use cagnet_comm::trace::TraceEvent;
use cagnet_comm::{Cluster, CostModel, Ctx, Precision, TimelineReport, TransportKind, Wire};
use cagnet_dense::activation::Activation;
use cagnet_dense::Mat;

pub use crate::dist::twodim::TwoDimConfig;
pub use crate::dist::CommMode;
pub use cagnet_sparse::partitioner::{PartitionConfig, PartitionObjective};
pub use cagnet_sparse::relabel::Relabeling;

/// Which parallel algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// 1D block row (Algorithm 1).
    OneD,
    /// 1D with `A` partitioned by block rows instead (§IV-A.7) — same
    /// total communication, mirrored forward/backward patterns.
    OneDRow,
    /// 1.5D replicated block row with replication factor `c` (§IV-B).
    One5D {
        /// Replication factor; must divide the process count.
        c: usize,
    },
    /// 2D SUMMA on a square grid (Algorithm 2) — the paper's implemented
    /// variant.
    TwoD,
    /// 2D SUMMA on a rectangular `pr x pc` grid (§IV-C.6): taller grids
    /// shrink sparse traffic (`nnz/pr`) at the cost of the dense terms.
    TwoDRect {
        /// Grid rows.
        pr: usize,
        /// Grid columns.
        pc: usize,
    },
    /// Split-3D-SpMM on a cubic mesh (§IV-D).
    ThreeD,
}

impl Algorithm {
    /// Short name used in bench output.
    pub fn name(&self) -> String {
        match self {
            Algorithm::OneD => "1d".into(),
            Algorithm::OneDRow => "1d-row".into(),
            Algorithm::One5D { c } => format!("1.5d(c={c})"),
            Algorithm::TwoD => "2d".into(),
            Algorithm::TwoDRect { pr, pc } => format!("2d({pr}x{pc})"),
            Algorithm::ThreeD => "3d".into(),
        }
    }

    /// Whether `p` ranks fit this algorithm's process geometry. No
    /// algorithm runs on zero ranks.
    pub fn supports(&self, p: usize) -> bool {
        p >= 1
            && match self {
                Algorithm::OneD | Algorithm::OneDRow => true,
                Algorithm::One5D { c } => *c >= 1 && p.is_multiple_of(*c),
                Algorithm::TwoD => cagnet_comm::grid::int_sqrt(p).is_some(),
                Algorithm::TwoDRect { pr, pc } => pr * pc == p,
                Algorithm::ThreeD => cagnet_comm::grid::int_cbrt(p).is_some(),
            }
    }

    /// Number of contiguous row blocks this algorithm's geometry splits
    /// `A`/`H` into at `p` ranks — the part count a vertex partition must
    /// target so that relabeled parts land on whole row blocks: `p` for
    /// the 1D family, `p/c` coarse blocks for 1.5D, grid rows for
    /// 2D/SUMMA, the cube side for 3D. Requires `supports(p)`.
    pub fn row_groups(&self, p: usize) -> usize {
        debug_assert!(self.supports(p), "{} does not support P={p}", self.name());
        match self {
            Algorithm::OneD | Algorithm::OneDRow => p,
            Algorithm::One5D { c } => p / (*c).max(1),
            Algorithm::TwoD => cagnet_comm::grid::int_sqrt(p).unwrap_or(1),
            Algorithm::TwoDRect { pr, .. } => *pr,
            Algorithm::ThreeD => cagnet_comm::grid::int_cbrt(p).unwrap_or(1),
        }
    }
}

impl Trainer<Box<dyn Layout>> {
    /// Set up `algo`'s trainer on this rank (with 2D knobs `twod`), its
    /// layout behind one type.
    ///
    /// # Panics
    /// When `algo` does not fit the cluster or the problem (see
    /// [`Algorithm::supports`]).
    pub fn for_algorithm(
        ctx: &Ctx,
        problem: &Problem,
        gcn: &GcnConfig,
        algo: Algorithm,
        twod: TwoDimConfig,
    ) -> Self {
        match algo {
            Algorithm::OneD => OneDimTrainer::setup(ctx, problem, gcn).boxed(),
            Algorithm::OneDRow => OneDimRowTrainer::setup(ctx, problem, gcn).boxed(),
            Algorithm::One5D { c } => One5DTrainer::setup(ctx, problem, gcn, c).boxed(),
            Algorithm::TwoD => TwoDimTrainer::setup(ctx, problem, gcn, twod).boxed(),
            Algorithm::TwoDRect { pr, pc } => {
                TwoDimTrainer::setup_rect(ctx, problem, gcn, twod, pr, pc).boxed()
            }
            Algorithm::ThreeD => ThreeDimTrainer::setup(ctx, problem, gcn).boxed(),
        }
    }
}

/// How [`train_distributed`] obtains the vertex partition that drives
/// its relabeling pass (see [`TrainConfig::partition`]).
#[derive(Clone, Debug)]
pub enum PartitionSpec {
    /// Run [`partition_greedy_bfs`](cagnet_sparse::partitioner::partition_greedy_bfs) on the problem's adjacency with this
    /// configuration. `num_parts` is overridden with the algorithm's
    /// [`Algorithm::row_groups`] so parts land on whole row blocks.
    Auto(PartitionConfig),
    /// A precomputed assignment: `part[v]` = owning part of vertex `v`.
    /// Length must equal the vertex count and every id must be below
    /// [`Algorithm::row_groups`] for the run's algorithm and `p`.
    Explicit(Vec<usize>),
}

/// Run-level options.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Epochs to run (timed).
    pub epochs: usize,
    /// 2D tuning knobs (ignored by the other algorithms).
    pub twod: TwoDimConfig,
    /// Gather final embeddings/weights (skip for pure benchmarking runs).
    pub collect_outputs: bool,
    /// Update rule for the replicated weight step (default: the paper's
    /// plain gradient descent).
    pub optimizer: OptimizerKind,
    /// Hidden-layer activation (default ReLU, the paper's σ).
    pub activation: Activation,
    /// Hidden-layer dropout rate (inverted dropout, deterministic and
    /// layout-independent; 0 disables).
    pub dropout: f64,
    /// Intra-rank compute threads for local GEMM/SpMM kernels (default 1
    /// = serial). Results are bit-for-bit independent of this knob; only
    /// wall-clock and the modeled compute terms change.
    pub threads_per_rank: usize,
    /// How every trainer moves dense blocks: full broadcasts, or the
    /// sparsity-aware exchange that ships only the rows the receivers'
    /// sparse blocks touch (per-stage SUMMA panels for 2D/3D). Results
    /// are bit-for-bit independent of this knob; only the metered
    /// communication changes.
    pub comm_mode: CommMode,
    /// Pipeline stage fetches and weight-gradient reductions as
    /// nonblocking collectives overlapped with compute (default on).
    /// Results are bit-for-bit independent of this knob; only modeled
    /// (and wall-clock) time changes. See DESIGN.md §10.
    pub overlap: bool,
    /// Record per-rank execution traces over the timed epochs (export
    /// with [`cagnet_comm::trace::to_chrome_json`]). Off by default —
    /// tracing retains every charged interval in memory.
    pub trace: bool,
    /// Transport backend for the distributed run: `None` (default)
    /// defers to the `CAGNET_TRANSPORT` environment variable (shared
    /// memory when unset); `Some(TransportKind::Socket)` forces real
    /// worker processes over Unix domain sockets. Results are
    /// bit-identical across backends.
    pub transport: Option<TransportKind>,
    /// Wire precision for dense collectives (default [`Precision::F64`],
    /// the exact historical behaviour). `F32`/`Bf16` round dense payloads
    /// at the communicator boundary only — local compute and reduction
    /// accumulation stay f64 — halving (or quartering) the metered
    /// dense-comm words. See DESIGN.md §14.
    pub precision: Precision,
    /// Vertex partition wired into the row distribution (default `None` =
    /// the historical natural-id block distribution). When set, the
    /// problem is relabeled part-major before the cluster launches (see
    /// [`cagnet_sparse::relabel`]): losses, weights, and accuracy are
    /// bit-identical to training the relabeled problem directly, returned
    /// embeddings are mapped back to original vertex ids, and under
    /// [`CommMode::SparsityAware`]/[`CommMode::Cached`] a good partition
    /// strictly lowers the metered DenseComm words at `P > 1`. See
    /// DESIGN.md §15.
    pub partition: Option<PartitionSpec>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            twod: TwoDimConfig::default(),
            collect_outputs: true,
            optimizer: OptimizerKind::Sgd,
            activation: Activation::Relu,
            dropout: 0.0,
            threads_per_rank: 1,
            comm_mode: CommMode::default(),
            overlap: true,
            trace: false,
            transport: None,
            precision: Precision::default(),
            partition: None,
        }
    }
}

/// Result of a distributed training run.
#[derive(Clone, Debug)]
pub struct DistTrainResult {
    /// Pre-update loss per epoch (identical on every rank).
    pub losses: Vec<f64>,
    /// Final global training accuracy.
    pub accuracy: f64,
    /// Per-rank timeline reports covering exactly the timed epochs.
    pub reports: Vec<TimelineReport>,
    /// Final replicated weights (empty if `collect_outputs` is false).
    pub weights: Vec<Mat>,
    /// Final output embeddings `H^L` (empty if `collect_outputs` is
    /// false).
    pub embeddings: Mat,
    /// Process count used.
    pub world: usize,
    /// Per-rank execution traces over the timed epochs (empty unless
    /// `TrainConfig::trace` was set).
    pub traces: Vec<Vec<TraceEvent>>,
    /// The vertex relabeling applied when [`TrainConfig::partition`] was
    /// set (`None` otherwise). `embeddings` are already mapped back to
    /// original vertex ids; this exposes the id maps and per-part ranges
    /// for callers that want to inspect the partition itself.
    pub relabeling: Option<Relabeling>,
}

impl DistTrainResult {
    /// Modeled seconds per epoch: max final clock over ranks divided by
    /// the epoch count (the BSP epoch time of the paper's Figure 2, whose
    /// y-axis is its reciprocal, epochs/second).
    pub fn epoch_seconds(&self, epochs: usize) -> f64 {
        let max_clock = self.reports.iter().map(|r| r.clock).fold(0.0f64, f64::max);
        max_clock / epochs.max(1) as f64
    }
}

/// Result of a distributed inference run.
#[derive(Clone, Debug)]
pub struct InferResult {
    /// Output embeddings `H^L` (log-probabilities), assembled on every
    /// rank and returned once.
    pub embeddings: Mat,
    /// Global mean masked NLL of the supplied model.
    pub loss: f64,
    /// Global accuracy of the supplied model.
    pub accuracy: f64,
    /// Per-rank timeline reports for the single forward pass.
    pub reports: Vec<TimelineReport>,
}

/// Resolve `tc.partition` into a relabeled problem plus the id maps
/// (`None` when no partition was requested). Runs *before* the cluster
/// launches, so the relabeling is deterministic and identical across
/// transport backends — socket workers re-derive it when they replay the
/// binary.
fn prepare_partition(
    problem: &Problem,
    algo: Algorithm,
    p: usize,
    tc: &TrainConfig,
) -> Option<(Problem, Relabeling)> {
    let spec = tc.partition.as_ref()?;
    let groups = algo.row_groups(p);
    let part = match spec {
        PartitionSpec::Auto(cfg) => {
            let cfg = PartitionConfig {
                num_parts: groups,
                ..*cfg
            };
            cagnet_sparse::partitioner::partition_greedy_bfs(&problem.adj, &cfg)
        }
        PartitionSpec::Explicit(part) => {
            assert_eq!(
                part.len(),
                problem.vertices(),
                "explicit partition length does not match vertex count"
            );
            for &q in part.iter() {
                assert!(
                    q < groups,
                    "explicit partition id {q} out of range for {groups} row groups"
                );
            }
            part.clone()
        }
    };
    Some(problem.relabeled(&part, groups))
}

/// What [`infer_distributed`] and [`train_distributed`] share: check that
/// `algo` fits `p`, relabel the problem as `tc.partition` asks, and run
/// `body` on every rank of the cluster `model` and `tc` describe, on
/// `algo`'s trainer set up and configured. `body` returns its result and
/// the rank's embeddings. Returns every rank's result, rank 0's embeddings
/// in original vertex ids (an empty matrix passes through) and the
/// relabeling.
fn run_ranks<R: Send + Wire>(
    problem: &Problem,
    gcn: &GcnConfig,
    algo: Algorithm,
    p: usize,
    model: CostModel,
    tc: &TrainConfig,
    body: impl Fn(&Ctx, &mut Trainer<Box<dyn Layout>>) -> (R, Mat) + Send + Sync,
) -> (Vec<R>, Mat, Option<Relabeling>) {
    assert!(algo.supports(p), "{} does not support P={p}", algo.name());
    let prepared = prepare_partition(problem, algo, p, tc);
    let problem = prepared.as_ref().map_or(problem, |(prob, _)| prob);
    let mut cluster = Cluster::new(p)
        .with_model(model)
        .with_threads_per_rank(tc.threads_per_rank)
        .with_precision(tc.precision);
    if let Some(t) = tc.transport {
        cluster = cluster.with_transport(t);
    }
    let mut per_rank = cluster.run_wire(|ctx| {
        let mut t = Trainer::for_algorithm(ctx, problem, gcn, algo, tc.twod);
        t.configure(tc);
        body(ctx, &mut t)
    });
    let relabeling = prepared.map(|(_, rl)| rl);
    let embeddings = std::mem::replace(&mut per_rank[0].0 .1, Mat::zeros(0, 0));
    let embeddings = match &relabeling {
        Some(rl) if embeddings.rows() == rl.len() => rl.unpermute_rows(&embeddings),
        _ => embeddings,
    };
    let results = per_rank.into_iter().map(|((r, _), _)| r).collect();
    (results, embeddings, relabeling)
}

/// Distributed inference: one forward pass of `algo` on `p` ranks with a
/// *given* weight stack (e.g. from a prior training run). The paper notes
/// all of its algorithms apply unchanged to inference (§I); this is that
/// path, with the same communication accounting as training forward
/// passes. When [`TrainConfig::partition`] is set the problem is
/// relabeled exactly as in [`train_distributed`] (the weight stack is
/// row-id-agnostic, so weights trained either way apply) and the returned
/// embeddings are mapped back to original vertex ids.
pub fn infer_distributed(
    problem: &Problem,
    gcn: &GcnConfig,
    weights: &[Mat],
    algo: Algorithm,
    p: usize,
    model: CostModel,
    tc: &TrainConfig,
) -> InferResult {
    let (per_rank, embeddings, _) = run_ranks(problem, gcn, algo, p, model, tc, |ctx, t| {
        t.set_weights(weights.to_vec());
        let loss = t.forward(ctx);
        let report = ctx.report();
        let accuracy = t.accuracy(ctx);
        ((loss, accuracy, report), t.gather_embeddings(ctx))
    });
    let (loss, accuracy, _) = per_rank[0];
    InferResult {
        embeddings,
        loss,
        accuracy,
        reports: per_rank.iter().map(|r| r.2).collect(),
    }
}

/// Train `problem` with `algo` on `p` simulated ranks.
///
/// # Panics
/// Panics if `p` does not fit the algorithm's geometry (see
/// [`Algorithm::supports`]).
pub fn train_distributed(
    problem: &Problem,
    gcn: &GcnConfig,
    algo: Algorithm,
    p: usize,
    model: CostModel,
    tc: &TrainConfig,
) -> DistTrainResult {
    let (mut per_rank, embeddings, relabeling) =
        run_ranks(problem, gcn, algo, p, model, tc, |ctx, t| {
            if tc.trace {
                ctx.enable_tracing();
            }
            let losses: Vec<f64> = (0..tc.epochs).map(|_| t.epoch(ctx)).collect();
            // Snapshot the timed-epoch ledger (and trace) before the
            // (untimed-in-spirit) evaluation pass.
            let report = ctx.report();
            let trace = if tc.trace {
                ctx.take_trace()
            } else {
                Vec::new()
            };
            let accuracy = t.accuracy(ctx);
            // Weights are row-id-agnostic and need no mapping back.
            let (weights, embeddings) = if tc.collect_outputs {
                (t.weights().to_vec(), t.gather_embeddings(ctx))
            } else {
                (Vec::new(), Mat::zeros(0, 0))
            };
            ((losses, accuracy, report, trace, weights), embeddings)
        });
    let reports = per_rank.iter().map(|r| r.2).collect();
    let traces = per_rank
        .iter_mut()
        .map(|r| std::mem::take(&mut r.3))
        .collect();
    let (losses, accuracy, _, _, weights) = per_rank.swap_remove(0);
    DistTrainResult {
        losses,
        accuracy,
        reports,
        weights,
        embeddings,
        world: p,
        traces,
        relabeling,
    }
}
