//! The launcher: builds the reference, starts one child per repetition,
//! checks their outputs and folds their records into named metrics.

use crate::child::{self, WARMUP_EPOCHS};
use crate::json::Json;
use crate::metrics::{self, Metrics, END_TO_END};
use crate::plan;
use crate::proc::run_child;
use crate::replay;
use crate::stats::median;
use crate::trace::{self, Recorder, Span};
use crate::workloads::Workload;
use cagnet_comm::{CostModel, TransportKind};
use cagnet_core::{GcnConfig, Problem, SerialTrainer};
use cagnet_sparse::edgecut::evaluate_partition;
use cagnet_sparse::partitioner::partition_greedy_bfs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Training children per untraced run: each contributes one set-up time
/// and a third of the timed epochs.
const REPETITIONS: usize = 3;
/// Epochs compared against the serial reference: the warm-up epochs, which
/// are the first the trainer runs.
const REFERENCE_EPOCHS: usize = WARMUP_EPOCHS;
/// A child that runs longer than this is killed and its epochs failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);
/// The whole invocation must return well inside the driver's 180 s.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// The result line of one workload run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Rank 0's wall-clock ms of every timed epoch, one list per training
    /// child (kept in results.json so a reader can re-derive the medians).
    pub epoch_samples: Vec<Vec<f64>>,
}

impl Outcome {
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("correct", self.correct)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", self.metrics.to_json());
        o
    }
}

/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn transport_name(t: TransportKind) -> &'static str {
    match t {
        TransportKind::Shared => "shared",
        TransportKind::Socket => "socket",
    }
}

struct Reference {
    losses: Vec<f64>,
    epoch_ms: f64,
    gen_ms: f64,
}

/// Generate the problem and train the plain single-worker reference.
fn reference(wl: &Workload, args: &RunArgs) -> (Problem, GcnConfig, Reference) {
    let t = Instant::now();
    let (problem, gcn) = wl.build(args.seed, args.quick);
    let gen_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut times = Vec::new();
    let losses = {
        let mut serial = SerialTrainer::new(&problem, gcn.clone());
        (0..REFERENCE_EPOCHS)
            .map(|_| {
                let t = Instant::now();
                let loss = serial.epoch();
                times.push(t.elapsed().as_secs_f64() * 1e3);
                loss
            })
            .collect()
    };
    let reference = Reference {
        losses,
        epoch_ms: median(&times),
        gen_ms,
    };
    (problem, gcn, reference)
}

struct Launcher<'a> {
    wl: &'a Workload,
    args: &'a RunArgs,
    started: Instant,
}

impl Launcher<'_> {
    fn common(&self, mode: &str) -> Vec<String> {
        let mut v = vec![
            mode.to_string(),
            "--workload".into(),
            self.wl.name.into(),
            "--seed".into(),
            self.args.seed.to_string(),
        ];
        if self.args.quick {
            v.push("--quick".into());
        }
        v
    }

    fn spawn(&self, argv: &[String]) -> Result<Json, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let deadline = (Instant::now() + CHILD_TIMEOUT).min(self.started + RUN_DEADLINE);
        run_child(&exe, argv, deadline, &out_dir().join("tmp"))
    }

    /// One training child. `budget_s` is the wall-clock its timed epochs
    /// should fill, `hint_ms` the epoch time an earlier child measured.
    fn train(
        &self,
        transport: TransportKind,
        check: bool,
        budget_s: f64,
        hint_ms: Option<f64>,
        traced: bool,
    ) -> Result<Json, String> {
        let mut argv = self.common("child");
        argv.extend([
            "--transport".into(),
            transport_name(transport).into(),
            "--check".into(),
            if check { "on" } else { "off" }.into(),
            "--budget-ms".into(),
            format!("{:.0}", budget_s * 1e3),
            "--trace".into(),
            u8::from(traced).to_string(),
        ]);
        if let Some(ms) = hint_ms {
            argv.extend(["--epoch-ms-hint".into(), ms.to_string()]);
        }
        self.spawn(&argv)
    }

    fn collectives(&self) -> Result<Json, String> {
        self.spawn(&self.common("child-collectives"))
    }
}

/// Count a training child's operations (every epoch after the warm-up:
/// the timed ones and, in a traced child, the traced ones) and which of
/// them failed. A loss the child could only write as `null` was not
/// finite and fails its epoch; a mismatch of the first epochs against the
/// serial reference means the run computed something else, so all of its
/// epochs fail. A record that does not hold one loss per epoch is an
/// error: the child did not do what it reports.
fn judge(wl: &Workload, rec: &Json, reference: &Reference) -> Result<(usize, usize), String> {
    let losses = rec.opt_nums("losses")?;
    let expected = WARMUP_EPOCHS + rec.num("epochs")? as usize + rec.nums("traced_epoch_ms")?.len();
    if losses.len() != expected {
        return Err(format!(
            "record holds {} losses for {expected} epochs",
            losses.len()
        ));
    }
    let operations = losses.len() - WARMUP_EPOCHS;
    let matches = losses
        .iter()
        .zip(&reference.losses)
        .all(|(got, want)| got.is_some_and(|got| ((got - want) / want).abs() <= wl.loss_tol));
    if !matches {
        eprintln!(
            "{}: first losses {:?} differ from the serial reference {:?} by more than {:e}",
            wl.name,
            &losses[..REFERENCE_EPOCHS],
            reference.losses,
            wl.loss_tol
        );
        return Ok((operations, operations));
    }
    let failed = losses[WARMUP_EPOCHS..]
        .iter()
        .filter(|l| l.is_none())
        .count();
    Ok((operations, failed))
}

/// Close a run: a metric that is not a finite number is a failure of its
/// own, whatever the epochs did.
fn finish(
    wl: &Workload,
    mut attempted: usize,
    mut failed: usize,
    consistent: bool,
    metrics: Metrics,
    epoch_samples: Vec<Vec<f64>>,
) -> Outcome {
    for name in metrics.non_finite() {
        eprintln!("{}: {name} is not a finite number", wl.name);
        attempted += 1;
        failed += 1;
    }
    Outcome {
        correct: failed == 0 && consistent,
        attempted: attempted.max(1),
        failed,
        metrics,
        epoch_samples,
    }
}

/// The untraced run: end-to-end metrics only.
pub fn run_timed(wl: &Workload, args: &RunArgs) -> Outcome {
    let started = Instant::now();
    let (problem, gcn, reference) = reference(wl, args);
    drop((problem, gcn));
    let launcher = Launcher { wl, args, started };
    let reps = if args.quick { 1 } else { REPETITIONS };
    let mut records = Vec::new();
    let (mut attempted, mut failed, mut crashed) = (0, 0, 0);
    let mut epochs = Vec::new();
    // Each child gets an equal share of the seconds still unmeasured, so
    // a first child that under-filled its share is made up for.
    let mut unmeasured = args.seconds;
    let mut hint_ms = None;
    let mut epoch_samples = Vec::new();
    for rep in 0..reps {
        let child = launcher
            .train(
                wl.transport,
                false,
                unmeasured / (reps - rep) as f64,
                hint_ms,
                false,
            )
            .and_then(|rec| {
                let judged = judge(wl, &rec, &reference)?;
                // A value the child measured as NaN or infinite came back
                // as `null`; such a record measures nothing.
                for m in &END_TO_END[1..] {
                    rec.num(m.name)?;
                }
                let epoch_ms = rec.nums("epoch_ms")?;
                Ok((rec, judged, epoch_ms))
            });
        match child {
            Ok((rec, (n, bad), epoch_ms)) => {
                unmeasured = (unmeasured - epoch_ms.iter().sum::<f64>() / 1e3).max(0.0);
                hint_ms = Some(median(&epoch_ms));
                attempted += n;
                failed += bad;
                epochs.push(n);
                epoch_samples.push(epoch_ms);
                records.push(rec);
            }
            Err(why) => {
                eprintln!("{}: training child failed: {why}", wl.name);
                crashed += 1;
            }
        }
    }
    // A child that died ran an unknown number of epochs; charge it what
    // its siblings ran (at least one) and fail them all.
    let typical = epochs.iter().copied().max().unwrap_or(1);
    attempted += crashed * typical;
    failed += crashed * typical;

    let all = |key: &str| -> Vec<f64> { records.iter().filter_map(|r| r.num(key).ok()).collect() };
    let words = all("comm_words_per_epoch");
    // The meters are exact: repetitions of one seed must agree to the bit.
    let exact = words.windows(2).all(|w| w[0] == w[1]);
    if !exact {
        eprintln!(
            "{}: metered words differ between repetitions: {words:?}",
            wl.name
        );
    }
    let mut metrics = Metrics::default();
    metrics.set("epoch_wall_ms", median(&epoch_samples.concat()));
    for m in &END_TO_END[1..] {
        metrics.set(m.name, median(&all(m.name)));
    }
    finish(
        wl,
        attempted,
        failed,
        exact && !records.is_empty(),
        metrics,
        epoch_samples,
    )
}

fn spans_of(rec: &Json) -> Vec<Span> {
    rec.get("spans")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(trace::span_from_json).collect())
        .unwrap_or_default()
}

/// The traced run: per-layer metrics only, plus the Chrome trace. What a
/// metric's registry entry scopes to other workloads is not run here.
pub fn run_traced(wl: &Workload, args: &RunArgs) -> Outcome {
    let started = Instant::now();
    let (problem, gcn, reference) = reference(wl, args);
    let mut host = Recorder::new(trace::HOST_LANE);
    let mut m = Metrics::default();
    let applies = |name: &str| metrics::applies(name, wl.name);

    // sparse::partitioner / sparse::relabel: what the child does before
    // launch, repeated here where it can be timed step by step.
    let trained = if wl.partition {
        let groups = wl.algo.row_groups(wl.ranks);
        let (part, partition) = host.span("partition", None, || {
            partition_greedy_bfs(&problem.adj, &child::volume_config(groups))
        });
        let cut = evaluate_partition(&problem.adj, &part, groups);
        let ((relabeled, _), relabel) =
            host.span("relabel", None, || problem.relabeled(&part, groups));
        m.set("partitioner.partition_ms", partition.as_secs_f64() * 1e3);
        m.set(
            "partitioner.max_gathered_rows",
            cut.remote_rows_per_part.iter().copied().max().unwrap_or(0) as f64,
        );
        m.set("partitioner.edgecut_total", cut.total_cut_edges as f64);
        m.set("relabel.apply_ms", relabel.as_secs_f64() * 1e3);
        relabeled
    } else {
        problem
    };
    let plan = plan::rank0_plan(wl, &trained, &gcn);
    drop(trained);

    let launcher = Launcher { wl, args, started };
    // The traced run spends its seconds on breadth: a sixth on the main
    // child's untraced epochs, and a brief comparison run on the thread
    // transport (socket workloads) or with checking on.
    let brief = args.seconds / 8.0;
    let main = launcher.train(wl.transport, false, args.seconds / 6.0, None, true);
    let on_threads = (wl.transport == TransportKind::Socket)
        .then(|| launcher.train(TransportKind::Shared, false, brief, None, false));
    let checked = applies("check.epoch_overhead_pct")
        .then(|| launcher.train(wl.transport, true, brief, None, false));
    let collectives = launcher.collectives();

    let (mut attempted, mut failed) = (0, 0);
    for (label, rec) in [
        ("main", Some(&main)),
        ("thread-transport", on_threads.as_ref()),
        ("checked", checked.as_ref()),
    ] {
        let Some(rec) = rec else { continue };
        match rec
            .as_ref()
            .map_err(String::clone)
            .and_then(|r| judge(wl, r, &reference))
        {
            Ok((n, bad)) => {
                attempted += n;
                failed += bad;
            }
            Err(why) => {
                eprintln!("{}: {label} child failed: {why}", wl.name);
                attempted += 1;
                failed += 1;
            }
        }
    }
    if let Err(why) = &collectives {
        eprintln!("{}: collectives child failed: {why}", wl.name);
        attempted += 1;
        failed += 1;
    }
    // A field a child did not deliver as a number reads NaN, which
    // `finish` reports against the metric built from it.
    let num = |rec: &Result<Json, String>, key: &str| {
        rec.as_ref()
            .ok()
            .and_then(|r| r.num(key).ok())
            .unwrap_or(f64::NAN)
    };
    let med = |rec: &Result<Json, String>, key: &str| {
        rec.as_ref()
            .ok()
            .and_then(|r| r.nums(key).ok())
            .map_or(f64::NAN, |xs| median(&xs))
    };
    let pct = |over: f64, base: f64| (over / base - 1.0) * 100.0;

    // core::dist, from the main child's spans.
    let epoch_ms = med(&main, "epoch_ms");
    let forward_ms = med(&main, "forward_ms");
    m.set("dist.setup_ms", num(&main, "dist_setup_ms"));
    m.set("dist.epoch_ms", epoch_ms);
    m.set("dist.infer_forward_ms", forward_ms);
    m.set("dist.backward_ms", epoch_ms - forward_ms);
    m.set("dist.accuracy_ms", med(&main, "accuracy_ms"));
    m.set("dist.storage_words", num(&main, "storage_words"));
    m.set(
        "trace.overhead_pct",
        pct(med(&main, "traced_epoch_ms"), epoch_ms),
    );

    // Kernels, replayed here now that every child has exited. Ranks
    // beyond the cores queue behind one another, so the share of the
    // epoch the cores spend in a kernel is rank 0's time times ranks per
    // core.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let per_core = wl.ranks.div_ceil(cores) as f64;
    let share = |ms: f64| 100.0 * ms * per_core / epoch_ms;
    let kernels = replay::kernels(&plan, &mut host);
    m.set("spmm.ms_per_epoch", kernels.spmm_ms_per_epoch);
    m.set("spmm.gflops", kernels.spmm_gflops);
    m.set("spmm.share_pct", share(kernels.spmm_ms_per_epoch));
    m.set("gemm.ms_per_epoch", kernels.gemm_ms_per_epoch);
    m.set("gemm.gflops", kernels.gemm_gflops);
    m.set("gemm.share_pct", share(kernels.gemm_ms_per_epoch));
    m.set("csr.transpose_ms", kernels.transpose_ms);
    if applies("parallel.spmm_t2_speedup") {
        let (spmm, gemm) = replay::two_thread_speedups(&plan, &mut host);
        m.set("parallel.spmm_t2_speedup", spmm);
        m.set("parallel.gemm_t2_speedup", gemm);
    }

    // comm::comm, from the collectives child.
    for (name, key) in [
        ("comm.bcast_us", "bcast_us"),
        ("comm.gather_rows_us", "gather_rows_us"),
        ("comm.allreduce_us", "allreduce_us"),
        ("comm.barrier_us", "barrier_us"),
    ] {
        m.set(name, num(&collectives, key));
    }
    // Bytes per microsecond is MB/s.
    m.set(
        "comm.bcast_mb_s",
        num(&collectives, "bcast_bytes") / num(&collectives, "bcast_us"),
    );
    m.set(
        "comm.gather_rows_mb_s",
        num(&collectives, "gather_rows_bytes") / num(&collectives, "gather_rows_us"),
    );

    // comm::proc: the same configuration on both transports.
    m.set("proc.launch_ms", num(&main, "launch_ms"));
    if let Some(on_threads) = &on_threads {
        m.set(
            "proc.socket_vs_shared_ratio",
            epoch_ms / med(on_threads, "epoch_ms"),
        );
    }

    let codec = replay::codec(plan.comm.block, &mut host);
    m.set("frame.encode_mb_s", codec.encode_mb_s);
    m.set("frame.decode_mb_s", codec.decode_mb_s);
    m.set("frame.pack_f32_mb_s", codec.pack_f32_mb_s);
    m.set("frame.widen_f32_mb_s", codec.widen_f32_mb_s);
    m.set("frame.pack_bf16_mb_s", codec.pack_bf16_mb_s);
    m.set("frame.bytes_per_word", codec.bytes_per_word);

    // comm::timeline / comm::cost: the program's own ledger.
    let timeline = main.as_ref().map_err(String::clone).and_then(|r| {
        r.get("timeline")
            .cloned()
            .ok_or_else(|| "no timeline".to_string())
    });
    for (name, key) in [
        ("timeline.spmm_ms", "spmm_ms"),
        ("timeline.gemm_ms", "gemm_ms"),
        ("timeline.dcomm_ms", "dcomm_ms"),
        ("timeline.scomm_ms", "scomm_ms"),
        ("timeline.trpose_ms", "trpose_ms"),
        ("timeline.misc_ms", "misc_ms"),
        ("timeline.idle_ms", "idle_ms"),
        ("timeline.ovlp_ms", "ovlp_ms"),
        ("timeline.dcomm_words", "dcomm_words"),
        ("timeline.scomm_words", "scomm_words"),
        ("timeline.cache_hit_words", "cache_hit_words"),
        ("timeline.max_rank_words", "max_rank_words"),
        ("timeline.dcomm_msgs", "dcomm_msgs"),
        ("timeline.scomm_msgs", "scomm_msgs"),
    ] {
        m.set(name, num(&timeline, key));
    }
    m.set(
        "timeline.wall_over_model",
        epoch_ms / num(&main, "modeled_epoch_ms"),
    );
    // The kernel plan must price to what the trainer charged rank 0;
    // otherwise the replayed shapes describe a trainer that no longer
    // exists and spmm.* / gemm.* mean nothing, so the run fails.
    let (plan_spmm, plan_gemm) = plan.modeled_seconds(&CostModel::summit_like());
    for (what, planned, charged) in [
        ("spmm", plan_spmm, num(&timeline, "rank0_spmm_s")),
        ("gemm", plan_gemm, num(&timeline, "rank0_gemm_s")),
    ] {
        if main.is_ok() && !plan::prices_to(planned, charged) {
            eprintln!(
                "{}: kernel plan is stale: models {what} at {planned:e} s/epoch, trainer charged {charged:e}",
                wl.name
            );
            attempted += 1;
            failed += 1;
        }
    }

    if let Some(checked) = &checked {
        m.set(
            "check.epoch_overhead_pct",
            pct(med(checked, "epoch_ms"), epoch_ms),
        );
    }
    m.set("serial.epoch_ms", reference.epoch_ms);
    if applies("serial.speedup") {
        m.set("serial.speedup", reference.epoch_ms / epoch_ms);
    }
    m.set("input.gen_ms", reference.gen_ms);

    let spans = |rec: &Result<Json, String>| rec.as_ref().map(spans_of).unwrap_or_default();
    let mut groups = vec![("host", host.spans), ("train", spans(&main))];
    if let Some(rec) = &on_threads {
        groups.push(("train-thread-transport", spans(rec)));
    }
    if let Some(rec) = &checked {
        groups.push(("train-checked", spans(rec)));
    }
    groups.push(("collectives", spans(&collectives)));
    let path = out_dir().join(format!("{}.trace.json", wl.name));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, trace::to_chrome_json(&groups)))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let traced_epochs = main
        .as_ref()
        .ok()
        .and_then(|r| r.nums("traced_epoch_ms").ok())
        .unwrap_or_default();
    finish(
        wl,
        attempted,
        failed,
        true,
        m.per_layer_line(wl.name),
        vec![traced_epochs],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn reference() -> Reference {
        Reference {
            losses: vec![3.7, 3.5],
            epoch_ms: 1.0,
            gen_ms: 1.0,
        }
    }

    /// A training child's record as `judge` reads it: two warm-up losses,
    /// then the timed ones.
    fn record(losses: &str, epochs: usize) -> Json {
        Json::parse(&format!(
            "{{\"epochs\": {epochs}, \"losses\": {losses}, \"traced_epoch_ms\": []}}"
        ))
        .expect("test record parses")
    }

    #[test]
    fn a_loss_written_as_null_fails_its_epoch() {
        let wl = &WORKLOADS[0];
        let clean = record("[3.7, 3.5, 3.3, 3.1, 2.9]", 3);
        assert_eq!(judge(wl, &clean, &reference()), Ok((3, 0)));
        // The run matched the reference and then diverged to NaN, which
        // the child can only print as null.
        let diverged = record("[3.7, 3.5, 3.3, null, null]", 3);
        assert_eq!(judge(wl, &diverged, &reference()), Ok((3, 2)));
        // The same through the writer, as a child produces it.
        let mut written = Json::obj();
        written
            .set("epochs", 3usize)
            .set("losses", vec![3.7, 3.5, f64::NAN, 3.1, f64::INFINITY])
            .set("traced_epoch_ms", Vec::<f64>::new());
        let read_back = Json::parse(&written.to_string()).expect("parse");
        assert_eq!(judge(wl, &read_back, &reference()), Ok((3, 2)));
    }

    #[test]
    fn a_run_that_computed_something_else_fails_every_epoch() {
        let wl = &WORKLOADS[0];
        let off = record("[3.7, 3.6, 3.3, 3.1, 2.9]", 3);
        assert_eq!(judge(wl, &off, &reference()), Ok((3, 3)));
        let nan_at_once = record("[3.7, null, 3.3, 3.1, 2.9]", 3);
        assert_eq!(judge(wl, &nan_at_once, &reference()), Ok((3, 3)));
    }

    #[test]
    fn a_metric_that_is_not_a_number_fails_the_run() {
        let wl = &WORKLOADS[0];
        let mut m = Metrics::default();
        m.set("epoch_wall_ms", 450.0);
        let clean = finish(wl, 30, 0, true, m.clone(), Vec::new());
        assert!(clean.correct && clean.failed == 0);
        m.set("setup_s", f64::NAN);
        let broken = finish(wl, 30, 0, true, m, Vec::new());
        assert_eq!(
            (broken.correct, broken.attempted, broken.failed),
            (false, 31, 1)
        );
    }

    #[test]
    fn a_record_short_of_losses_is_refused() {
        let wl = &WORKLOADS[0];
        let short = record("[3.7, 3.5, 3.3]", 3);
        assert!(judge(wl, &short, &reference()).is_err());
        assert!(judge(wl, &Json::obj(), &reference()).is_err());
    }
}
