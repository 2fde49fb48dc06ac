//! What runs inside one child process: exactly one `Cluster::run_wire`.
//!
//! The socket transport starts its workers by re-executing this binary
//! with the same arguments; a worker repeats everything up to its
//! `run_wire` call and never returns from it. So a child does nothing
//! before `run_wire` except rebuild the inputs, prints only after it (a
//! worker's stdout is discarded), and the launcher starts a fresh child
//! for every repetition.

use crate::json::Json;
use crate::plan;
use crate::trace::{self, Recorder};
use crate::workloads::{AnyTrainer, Workload};
use cagnet_check::CheckMode;
use cagnet_comm::{Cat, Cluster, CostModel, Ctx, TimelineReport, TransportKind};
use cagnet_core::trainer::{PartitionConfig, PartitionObjective};
use cagnet_core::{GcnConfig, Problem};
use cagnet_dense::init::uniform;
use cagnet_sparse::partitioner::partition_greedy_bfs;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed epochs before the timeline is reset and timing starts.
pub const WARMUP_EPOCHS: usize = 2;
/// Fewest timed epochs a child runs, however small its budget.
const MIN_EPOCHS: usize = 3;
/// Epochs the traced phase records.
const TRACED_EPOCHS: usize = 5;
/// Stand-alone forward and accuracy passes the traced phase records.
const TRACED_PASSES: usize = 3;
/// Calls per collective in the replay: as many as fit in
/// `COLLECTIVE_BUDGET` after the first, within these limits. A 20 MB
/// socket broadcast takes a quarter of a second, a thread one 20 us.
const COLLECTIVE_CALLS: std::ops::RangeInclusive<usize> = 5..=50;
const COLLECTIVE_BUDGET: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug)]
pub struct TrainArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub quick: bool,
    pub transport: TransportKind,
    pub check: CheckMode,
    /// Wall-clock budget for the timed epochs; the epoch count is chosen
    /// to fill it.
    pub budget: Duration,
    /// Expected epoch time, from an earlier child of the same run. Without
    /// it the last warm-up epoch stands in, which runs slow (cold caches,
    /// first-touch page faults) and so under-fills the budget.
    pub epoch_hint: Option<Duration>,
    pub traced: bool,
}

/// The problem the trainer sees: relabeled under the volume partition
/// when the workload asks for one (what `TrainConfig::partition` does
/// inside `train_distributed`), untouched otherwise.
fn prepare(wl: &Workload, problem: Problem, host: &mut Recorder) -> Problem {
    if !wl.partition {
        return problem;
    }
    let groups = wl.algo.row_groups(wl.ranks);
    let (part, _) = host.span("partition", None, || {
        partition_greedy_bfs(&problem.adj, &volume_config(groups))
    });
    let ((relabeled, _), _) = host.span("relabel", None, || problem.relabeled(&part, groups));
    relabeled
}

pub fn volume_config(groups: usize) -> PartitionConfig {
    PartitionConfig {
        num_parts: groups,
        objective: PartitionObjective::Volume,
        ..PartitionConfig::default()
    }
}

fn cluster(wl: &Workload, transport: TransportKind, check: CheckMode) -> Cluster {
    // Transport and checking are explicit so CAGNET_TRANSPORT /
    // CAGNET_CHECK in the environment cannot change what is measured.
    Cluster::new(wl.ranks)
        .with_model(CostModel::summit_like())
        .with_transport(transport)
        .with_check(check)
        .with_timeout(Duration::from_secs(100))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one rank hands back through `run_wire`: losses, per-phase
/// durations in ns, a few scalars, its spans, and the timeline of the
/// timed epochs.
type RankOut = (Vec<f64>, Vec<Vec<u64>>, Vec<f64>, Vec<u64>, TimelineReport);

/// Indices into the per-phase duration lists of [`RankOut`].
const PH_WARM: usize = 0;
const PH_EPOCH: usize = 1;
const PH_TRACED_EPOCH: usize = 2;
const PH_FORWARD: usize = 3;
const PH_ACCURACY: usize = 4;

/// Indices into the scalar list of [`RankOut`].
const SC_LAUNCH_MS: usize = 0;
const SC_SETUP_MS: usize = 1;
const SC_SETUP_S: usize = 2;
const SC_STORAGE: usize = 3;

/// Reference points taken in the child's main thread before `run_wire`.
#[derive(Clone, Copy)]
struct Origins {
    /// The generated problem is in memory (set-up time starts here).
    in_memory: Instant,
    /// `run_wire` is about to be called.
    launched: Instant,
}

fn timed(phase: &mut Vec<u64>, f: &mut dyn FnMut() -> f64) -> f64 {
    let t = Instant::now();
    let loss = f();
    phase.push(t.elapsed().as_nanos() as u64);
    loss
}

fn rank_body(
    ctx: &mut Ctx,
    args: &TrainArgs,
    problem: &Problem,
    gcn: &GcnConfig,
    origins: Origins,
) -> RankOut {
    let wl = args.workload;
    let mut rec = Recorder::new(ctx.rank);
    // One span over everything this rank does, begun when `run_wire` was
    // called; everything below is its child.
    rec.begin("run", None, origins.launched.elapsed());
    // First barrier: every worker process exists, has rebuilt its inputs
    // and is connected.
    rec.begin("launch", None, origins.launched.elapsed());
    ctx.world.barrier();
    let launch = rec.end();
    let (mut trainer, setup) = rec.span("setup", None, || {
        let t = AnyTrainer::setup(ctx, wl, problem, gcn);
        ctx.world.barrier();
        t
    });
    let setup_s = origins.in_memory.elapsed().as_secs_f64();

    let mut losses = Vec::new();
    let mut phases: Vec<Vec<u64>> = vec![Vec::new(); 5];
    for _ in 0..WARMUP_EPOCHS {
        losses.push(timed(&mut phases[PH_WARM], &mut || trainer.epoch(ctx)));
    }
    // Rank 0 sizes the timed region and tells the others, before the reset
    // so the broadcast is not metered.
    let gran = wl.epoch_granularity();
    let epochs = {
        let est = args
            .epoch_hint
            .map_or(phases[PH_WARM][WARMUP_EPOCHS - 1], |d| d.as_nanos() as u64)
            .max(1) as f64;
        let fit = (args.budget.as_nanos() as f64 / est / gran as f64).round() as usize * gran;
        let mine = fit.max(MIN_EPOCHS.next_multiple_of(gran));
        *ctx.world
            .bcast(0, (ctx.rank == 0).then_some(mine as f64), Cat::Misc) as usize
    };
    ctx.world.barrier();
    ctx.reset_timeline();
    for _ in 0..epochs {
        losses.push(timed(&mut phases[PH_EPOCH], &mut || trainer.epoch(ctx)));
    }
    let report = ctx.report();

    if args.traced {
        for e in 0..TRACED_EPOCHS {
            let (loss, dt) = rec.span("epoch", Some(e), || trainer.epoch(ctx));
            losses.push(loss);
            phases[PH_TRACED_EPOCH].push(dt.as_nanos() as u64);
        }
        for _ in 0..TRACED_PASSES {
            let (_, dt) = rec.span("forward", None, || trainer.forward(ctx));
            phases[PH_FORWARD].push(dt.as_nanos() as u64);
        }
        for _ in 0..TRACED_PASSES {
            let (_, dt) = rec.span("accuracy", None, || trainer.accuracy(ctx));
            phases[PH_ACCURACY].push(dt.as_nanos() as u64);
        }
    }
    rec.end();
    let scalars = vec![
        ms(launch),
        ms(setup),
        setup_s,
        trainer.storage_words().total() as f64,
    ];
    (losses, phases, scalars, trace::to_rows(&rec.spans), report)
}

fn to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&x| x as f64 / 1e6).collect()
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one training child and print its record as the only stdout line.
pub fn train(args: &TrainArgs) {
    let wl = args.workload;
    let (problem, gcn) = wl.build(args.seed, args.quick);
    let in_memory = Instant::now();
    let mut host = Recorder::new(trace::HOST_LANE);
    let problem = &prepare(wl, problem, &mut host);
    let origins = Origins {
        in_memory,
        launched: Instant::now(),
    };
    let per_rank = cluster(wl, args.transport, args.check)
        .run_wire(|ctx| rank_body(ctx, args, problem, &gcn, origins));

    let (losses, phases, scalars, _, _) = &per_rank[0].0;
    let epochs = phases[PH_EPOCH].len();
    let reports: Vec<TimelineReport> = per_rank.iter().map(|(out, _)| out.4).collect();
    let per_epoch = |total: f64| total / epochs as f64;
    let mean = |f: &dyn Fn(&TimelineReport) -> f64| {
        per_epoch(reports.iter().map(f).sum::<f64>() / reports.len() as f64)
    };
    let dcomm = [Cat::DenseComm, Cat::DenseComm32, Cat::DenseComm16];
    let max_clock = reports.iter().map(|r| r.clock).fold(0.0f64, f64::max);

    let mut timeline = Json::obj();
    let seconds: [(&str, &[Cat]); 8] = [
        ("spmm_ms", &[Cat::Spmm]),
        ("gemm_ms", &[Cat::Gemm]),
        ("dcomm_ms", &dcomm),
        ("scomm_ms", &[Cat::SparseComm]),
        ("trpose_ms", &[Cat::Transpose]),
        ("misc_ms", &[Cat::Misc]),
        ("idle_ms", &[Cat::Idle]),
        ("ovlp_ms", &[Cat::Overlapped]),
    ];
    for (name, cats) in seconds {
        timeline.set(
            name,
            mean(&|r| cats.iter().map(|c| r.seconds(*c)).sum::<f64>() * 1e3),
        );
    }
    let words: [(&str, &[Cat]); 3] = [
        ("dcomm_words", &dcomm),
        ("scomm_words", &[Cat::SparseComm]),
        ("cache_hit_words", &[Cat::CacheHit]),
    ];
    for (name, cats) in words {
        timeline.set(
            name,
            mean(&|r| cats.iter().map(|c| r.words(*c)).sum::<u64>() as f64),
        );
    }
    timeline
        .set(
            "dcomm_msgs",
            mean(&|r| dcomm.iter().map(|c| r.messages(*c)).sum::<u64>() as f64),
        )
        .set("scomm_msgs", mean(&|r| r.messages(Cat::SparseComm) as f64))
        .set(
            "max_rank_words",
            per_epoch(reports.iter().map(|r| r.comm_words()).max().unwrap_or(0) as f64),
        )
        .set("rank0_spmm_s", per_epoch(reports[0].seconds(Cat::Spmm)))
        .set("rank0_gemm_s", per_epoch(reports[0].seconds(Cat::Gemm)));

    let mut spans: Vec<Json> = host.spans.iter().map(trace::span_to_json).collect();
    for (rank, (out, _)) in per_rank.iter().enumerate() {
        spans.extend(
            trace::from_rows(rank, &out.3)
                .iter()
                .map(trace::span_to_json),
        );
    }

    let mut o = Json::obj();
    o.set("epochs", epochs)
        .set("losses", losses.clone())
        .set("warm_ms", to_ms(&phases[PH_WARM]))
        .set("epoch_ms", to_ms(&phases[PH_EPOCH]))
        .set("traced_epoch_ms", to_ms(&phases[PH_TRACED_EPOCH]))
        .set("forward_ms", to_ms(&phases[PH_FORWARD]))
        .set("accuracy_ms", to_ms(&phases[PH_ACCURACY]))
        .set("launch_ms", scalars[SC_LAUNCH_MS])
        .set("dist_setup_ms", scalars[SC_SETUP_MS])
        .set("setup_s", scalars[SC_SETUP_S])
        .set("storage_words", scalars[SC_STORAGE])
        .set("comm_words_per_epoch", mean(&|r| r.comm_words() as f64))
        .set("modeled_epoch_ms", per_epoch(max_clock) * 1e3)
        .set("peak_rss_mb", peak_rss_mb())
        .set("timeline", timeline)
        .set("spans", spans);
    println!("{o}");
}

/// Replay the forward-stage collectives of `wl` on its own transport at
/// its own payload shapes and print per-call times.
pub fn collectives(wl: &'static Workload, seed: u64, quick: bool) {
    let (problem, gcn) = wl.build(seed, quick);
    let mut host = Recorder::new(trace::HOST_LANE);
    let shapes = {
        let problem = prepare(wl, problem, &mut host);
        plan::rank0_plan(wl, &problem, &gcn).comm
    };
    let (rows, cols) = shapes.block;
    let needed = &shapes.needed;
    // Rank 1 is the root so that rank 0, where the clock is read, is a
    // receiver: over sockets its time covers encode, hub and decode.
    let root = 1 % wl.ranks;
    let per_rank = cluster(wl, wl.transport, CheckMode::Off).run_wire(|ctx| {
        let mut rec = Recorder::new(ctx.rank);
        let block = (ctx.rank == root).then(|| Arc::new(uniform(rows, cols, -1.0, 1.0, seed)));
        let grad = uniform(shapes.grad.0, shapes.grad.1, -1.0, 1.0, seed ^ 1);
        let world = &ctx.world;
        let mut out = Vec::new();
        let mut run = |name: &str, call: &dyn Fn()| {
            let first = Instant::now();
            call();
            let fit = COLLECTIVE_BUDGET.as_nanos() / first.elapsed().as_nanos().max(1);
            let mine = (fit as usize).clamp(*COLLECTIVE_CALLS.start(), *COLLECTIVE_CALLS.end());
            let calls = *world.bcast(0, (ctx.rank == 0).then_some(mine as f64), Cat::Misc) as usize;
            let (_, total) = rec.span(name, None, || {
                for _ in 0..calls {
                    call();
                }
            });
            out.push(total.as_nanos() as f64 / 1e3 / calls as f64);
        };
        run("bcast", &|| {
            world.bcast_shared(root, block.clone(), Cat::DenseComm);
        });
        run("gather_rows", &|| {
            world.gather_rows(
                root,
                block.clone(),
                needed,
                Some((rows, cols)),
                Cat::DenseComm,
            );
        });
        run("allreduce", &|| {
            world.allreduce_mat(&grad, Cat::DenseComm);
        });
        run("barrier", &|| world.barrier());
        (out, trace::to_rows(&rec.spans))
    });
    let mut o = Json::obj();
    let mut spans = Vec::new();
    for (rank, ((us, rows), _)) in per_rank.iter().enumerate() {
        let rank_spans = trace::from_rows(rank, rows);
        if rank == 0 {
            for (span, v) in rank_spans.iter().zip(us) {
                o.set(&format!("{}_us", span.name), *v);
            }
        }
        spans.extend(rank_spans.iter().map(trace::span_to_json));
    }
    o.set("bcast_bytes", rows * cols * 8)
        .set("gather_rows_bytes", needed.len() * (cols + 1) * 8)
        .set("spans", spans);
    println!("{o}");
}
