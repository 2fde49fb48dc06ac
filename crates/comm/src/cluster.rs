//! Simulated cluster driver: spawn `P` ranks as threads and run a closure
//! on each, returning per-rank results plus timeline reports.
//!
//! This replaces the paper's `torch.distributed` process group: ranks are
//! OS threads, "GPUs" are the rank-local kernels, and the interconnect is
//! the α–β model. One rank per simulated GPU, exactly like the paper's one
//! process per GPU on Summit.
//!
//! Both transports run a rank through one body, `Cluster::run_rank`:
//! the thread runner here, and the socket launcher's rank 0 and each
//! socket worker (`proc.rs`) differ only in the leg their deposits take
//! to the other members' mailboxes and in what a panic does — resume it
//! on the thread, fail the launch, or ship a `PANIC` frame and exit.

use std::any::Any;
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use crate::comm::{Communicator, Registry};
use crate::cost::{Cat, CostModel};
use crate::diag::FirstPanic;
use crate::frame::{Precision, Wire};
use crate::timeline::{Meter, TimelineReport};
use crate::transport::{Leg, TransportKind};
use cagnet_check::waitgraph::{deadlock_report, is_quiescent_deadlock, RankPhase};
use cagnet_check::CheckMode;
use cagnet_parallel::ParallelCtx;

/// Watchdog poll period; a deadlock must hold across
/// [`STABLE_POLLS`] consecutive polls before it is declared.
const WATCHDOG_TICK: Duration = Duration::from_millis(25);
const STABLE_POLLS: usize = 3;

/// Per-rank execution context handed to the rank closure.
pub struct Ctx {
    /// This rank's id in `0..size`.
    pub rank: usize,
    /// Total rank count.
    pub size: usize,
    /// World communicator over all ranks.
    pub world: Communicator,
    /// Intra-rank thread budget for local compute kernels.
    parallel: ParallelCtx,
    meter: Rc<RefCell<Meter>>,
}

impl Ctx {
    pub(crate) fn for_rank(
        rank: usize,
        size: usize,
        world: Communicator,
        parallel: ParallelCtx,
        meter: Rc<RefCell<Meter>>,
    ) -> Self {
        Ctx {
            rank,
            size,
            world,
            parallel,
            meter,
        }
    }

    /// Charge `dt` modeled seconds to `cat` on this rank.
    pub fn charge(&self, cat: Cat, dt: f64) {
        self.meter.borrow_mut().timeline.charge(cat, dt);
    }

    /// Charge a local SpMM (`nnz` entries over `rows` rows, dense operand
    /// `width` columns wide) under [`Cat::Spmm`].
    pub fn charge_spmm(&self, nnz: usize, rows: usize, width: usize) {
        self.meter.borrow_mut().charge_spmm(nnz, rows, width);
    }

    /// Charge a local `m x k · k x n` GEMM under [`Cat::Gemm`].
    pub fn charge_gemm(&self, m: usize, k: usize, n: usize) {
        self.meter.borrow_mut().charge_gemm(m, k, n);
    }

    /// Charge a transpose of `nnz` entries under [`Cat::Transpose`].
    pub fn charge_transpose(&self, nnz: usize) {
        self.meter.borrow_mut().charge_transpose(nnz);
    }

    /// Charge elementwise work over `n` elements under [`Cat::Misc`].
    pub fn charge_elementwise(&self, n: usize) {
        self.meter.borrow_mut().charge_elementwise(n);
    }

    /// Current modeled clock of this rank.
    pub fn clock(&self) -> f64 {
        self.meter.borrow().timeline.clock()
    }

    /// Snapshot this rank's timeline.
    pub fn report(&self) -> TimelineReport {
        self.meter.borrow().timeline.report()
    }

    /// Reset this rank's timeline (e.g., after warm-up epochs). Callers
    /// should barrier first so all ranks reset at a common point.
    pub fn reset_timeline(&self) {
        self.meter.borrow_mut().timeline.reset();
    }

    /// Start recording a per-rank execution trace (see
    /// [`crate::trace::to_chrome_json`]).
    pub fn enable_tracing(&self) {
        self.meter.borrow_mut().timeline.enable_tracing();
    }

    /// Take the recorded trace events.
    pub fn take_trace(&self) -> Vec<crate::trace::TraceEvent> {
        self.meter.borrow_mut().timeline.take_trace()
    }

    /// The cost model in effect.
    pub fn model(&self) -> Arc<CostModel> {
        self.meter.borrow().model.clone()
    }

    /// The intra-rank parallel context: pass it to the `_with` kernel
    /// variants (`matmul_with`, `spmm_with`, ...) to fork local compute
    /// across this rank's thread budget. Results are bit-for-bit
    /// identical to serial regardless of the budget.
    pub fn parallel(&self) -> ParallelCtx {
        self.parallel
    }
}

/// Builder/driver for a simulated cluster run.
///
/// ```
/// use cagnet_comm::{Cat, Cluster};
/// // Sum each rank's id with an all-reduce on a 4-rank cluster.
/// let results = Cluster::new(4).run(|ctx| {
///     ctx.world.allreduce_scalar(ctx.rank as f64, Cat::DenseComm)
/// });
/// for (sum, report) in results {
///     assert_eq!(sum, 6.0);
///     assert!(report.clock > 0.0); // α–β time was charged
/// }
/// ```
pub struct Cluster {
    pub(crate) size: usize,
    pub(crate) model: Arc<CostModel>,
    pub(crate) timeout: Duration,
    pub(crate) threads_per_rank: usize,
    pub(crate) check: CheckMode,
    pub(crate) transport: TransportKind,
    pub(crate) precision: Precision,
}

impl Cluster {
    /// A cluster of `size` ranks with the default (Summit-like) cost model
    /// and a serial (1-thread) per-rank compute budget. Every collective's
    /// fingerprint is verified on every run; the deadlock watchdog
    /// defaults to the `CAGNET_CHECK` environment variable (see
    /// [`CheckMode::from_env`]); override with [`Cluster::with_check`].
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "cluster needs at least one rank");
        Cluster {
            size,
            model: Arc::new(CostModel::summit_like()),
            timeout: Duration::from_secs(120),
            threads_per_rank: 1,
            check: CheckMode::from_env(),
            transport: TransportKind::from_env(),
            precision: Precision::default(),
        }
    }

    /// Select the wire precision for dense collectives (default
    /// [`Precision::F64`], the exact pre-compression behaviour). Sub-f64
    /// precisions round dense payloads at the communicator boundary only
    /// — local compute and reduction accumulation stay f64 throughout
    /// (DESIGN.md §14).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Select the transport backend explicitly (default: the
    /// `CAGNET_TRANSPORT` environment variable, shared memory when
    /// unset). Only [`Cluster::run_wire`] dispatches on it —
    /// [`Cluster::run`] always uses the in-process thread backend
    /// because its results never cross a process boundary.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Enable or disable the deadlock watchdog, which declares a run
    /// whose ranks wait on each other deadlocked long before the
    /// collective timeout. Fingerprints are verified either way. The
    /// watchdog never changes modeled results: timelines and traces are
    /// bit-identical with it on and off.
    pub fn with_check(mut self, check: CheckMode) -> Self {
        self.check = check;
        self
    }

    /// Use a specific cost model. Call before
    /// [`Cluster::with_threads_per_rank`] — the thread budget is folded
    /// into the model's compute term at `run` time.
    pub fn with_model(mut self, model: CostModel) -> Self {
        self.model = Arc::new(model);
        self
    }

    /// Give every rank `threads` compute threads: local kernels invoked
    /// through [`Ctx::parallel`] fork across them, and the cost model's
    /// GEMM/SpMM terms divide by the budget. Results stay bit-for-bit
    /// identical to `threads = 1`.
    pub fn with_threads_per_rank(mut self, threads: usize) -> Self {
        self.threads_per_rank = threads.max(1);
        self
    }

    /// Override the collective-deadlock timeout (mainly for tests).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Run `f` on every rank; returns `(result, timeline report)` per rank,
    /// indexed by rank.
    ///
    /// # Panics
    /// On any rank failure, panics with the **first** rank's panic —
    /// naming the rank and the collective it was in — rather than a
    /// cascade of follow-on errors from its peers.
    pub fn run<R, F>(&self, f: F) -> Vec<(R, TimelineReport)>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Send + Sync,
    {
        self.run_threads(f)
    }

    /// Like [`Cluster::run`], but dispatches on the configured
    /// [`TransportKind`]: the shared-memory backend runs ranks as
    /// threads exactly like `run`, while the socket backend launches
    /// `size - 1` worker processes (re-executions of the current
    /// binary) connected over a Unix domain socket and ships each
    /// rank's `(result, report)` back as framed bytes — hence the
    /// [`Wire`] bound on `R`. Single-rank runs never spawn.
    ///
    /// Results are bit-identical across backends: all collective
    /// semantics live above the per-rank link, and every `f64`
    /// crosses the wire as its exact bit pattern.
    pub fn run_wire<R, F>(&self, f: F) -> Vec<(R, TimelineReport)>
    where
        R: Send + Wire,
        F: Fn(&mut Ctx) -> R + Send + Sync,
    {
        match self.transport {
            TransportKind::Shared => self.run_threads(f),
            #[cfg(unix)]
            TransportKind::Socket => {
                // Count socket-dispatched runs per test/caller thread so
                // a spawned worker (which replays the same code path)
                // can find the run it was forked for.
                let idx = crate::proc::next_socket_run_idx();
                if self.size == 1 {
                    return self.run_threads(f);
                }
                match crate::proc::worker_env() {
                    Some(env) if env.run == idx => crate::proc::run_worker(self, &env, f),
                    // Earlier runs replay deterministically in-process
                    // so the worker reaches its target run with
                    // identical state.
                    Some(_) => self.run_threads(f),
                    None => crate::proc::run_launcher(self, idx, f),
                }
            }
            #[cfg(not(unix))]
            TransportKind::Socket => {
                panic!("the socket transport requires a Unix platform")
            }
        }
    }

    /// The cost model with the cluster's thread budget folded in.
    pub(crate) fn effective_model(&self) -> Arc<CostModel> {
        if self.threads_per_rank == self.model.threads_per_rank {
            self.model.clone()
        } else {
            let mut m = (*self.model).clone();
            m.threads_per_rank = self.threads_per_rank;
            Arc::new(m)
        }
    }

    /// Run `f` as world rank `rank`, whose deposits take `leg` to its
    /// peers — the one rank body of both transports: build the meter,
    /// world communicator and [`Ctx`], run `f` under `catch_unwind`, and
    /// record the rank `Done` or, on a panic, its first-panic entry, its
    /// `Panicked` phase and the abort flag, so peers stop within one wait
    /// tick. Returns the result and timeline report, or what was recorded
    /// of the panic and its payload; the caller decides what a panic does
    /// to its process.
    pub(crate) fn run_rank<R, F>(
        &self,
        registry: &Arc<Registry>,
        leg: Leg,
        rank: usize,
        f: &F,
    ) -> RankRun<R>
    where
        F: Fn(&mut Ctx) -> R,
    {
        let meter = Rc::new(RefCell::new(Meter::new(self.effective_model())));
        let world = Communicator::new_world(registry.clone(), leg, self.size, rank, meter.clone());
        let parallel = ParallelCtx::new(self.threads_per_rank);
        let mut ctx = Ctx::for_rank(rank, self.size, world, parallel, meter.clone());
        let diag = &registry.diag;
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(out) => {
                diag.set_phase(rank, RankPhase::Done);
                let report = meter.borrow().timeline.report();
                Ok((out, report))
            }
            Err(payload) => {
                let first = FirstPanic {
                    rank,
                    during: diag.last_collective_label(rank),
                    message: panic_message(payload.as_ref()),
                };
                diag.record_first_panic(first.clone());
                diag.set_phase(rank, RankPhase::Panicked);
                diag.set_abort(format!("rank {rank} panicked during {}", first.during));
                Err((first, payload))
            }
        }
    }

    fn run_threads<R, F>(&self, f: F) -> Vec<(R, TimelineReport)>
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Send + Sync,
    {
        let registry = Registry::for_run(self);
        let leg = Leg::Threads(registry.clone());
        let f = &f;
        std::thread::scope(|scope| {
            // The watchdog polls rank states and declares quiescent
            // deadlock (every rank done or parked, no rendezvous
            // completable) long before the collective timeout would fire.
            if self.check.is_on() {
                let registry = registry.clone();
                scope.spawn(move || watchdog(&registry));
            }
            let handles: Vec<_> = (0..self.size)
                .map(|rank| {
                    let (registry, leg) = (&registry, leg.clone());
                    scope.spawn(move || match self.run_rank(registry, leg, rank, f) {
                        Ok(done) => done,
                        Err((_, payload)) => std::panic::resume_unwind(payload),
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(self.size);
            let mut first_err = None;
            for joined in handles.into_iter().map(|h| h.join()) {
                match joined {
                    Ok(v) => out.push(v),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = first_err {
                // Prefer the recorded first failure: one clear error that
                // names the offending rank and collective (and embeds the
                // original panic message) instead of whichever follow-on
                // abort happened to be joined first.
                match registry.diag.first_panic_render() {
                    Some(msg) => panic!("{msg}"),
                    None => std::panic::resume_unwind(e),
                }
            }
            out
        })
    }
}

/// How one rank's run ended: its result and timeline report, or what the
/// diagnostics recorded of its panic plus the panic payload.
pub(crate) type RankRun<R> = Result<(R, TimelineReport), (FirstPanic, Box<dyn Any + Send>)>;

/// Extract a readable message from a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "(non-string panic payload)".to_string(),
        }
    }
}

/// Deadlock watchdog: exits once every rank is done or panicked (or the
/// run is already aborting); raises the abort flag with a full
/// wait-for-graph report when the rank states and deposits show a
/// quiescent deadlock stable across [`STABLE_POLLS`] polls.
pub(crate) fn watchdog(registry: &Registry) {
    let mut stable = 0usize;
    let mut last = None;
    loop {
        std::thread::sleep(WATCHDOG_TICK);
        if registry.diag.abort_message().is_some() {
            return;
        }
        let snap = registry.diag.snapshot();
        if snap
            .iter()
            .all(|s| matches!(s.phase, RankPhase::Done | RankPhase::Panicked))
        {
            return;
        }
        // Deposits are read after the states, so none a parked rank made
        // is missed.
        let state = (snap, registry.diag.deposited());
        if is_quiescent_deadlock(&state.0, &state.1) && last.as_ref() == Some(&state) {
            stable += 1;
            if stable >= STABLE_POLLS {
                let report = deadlock_report(&state.0, &state.1, &registry.diag.histories());
                registry.diag.set_abort(report);
                return;
            }
        } else {
            stable = 0;
        }
        last = Some(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let results = Cluster::new(5).run(|ctx| (ctx.rank, ctx.size));
        for (rank, ((r, s), _)) in results.iter().enumerate() {
            assert_eq!(*r, rank);
            assert_eq!(*s, 5);
        }
    }

    #[test]
    fn reports_capture_charges() {
        let results = Cluster::new(2).run(|ctx| {
            ctx.charge(Cat::Spmm, 1.0);
            ctx.charge_gemm(10, 10, 10);
        });
        for (_, rep) in results {
            assert_eq!(rep.seconds(Cat::Spmm), 1.0);
            assert!(rep.seconds(Cat::Gemm) > 0.0);
            assert!(rep.clock > 1.0);
        }
    }

    #[test]
    fn reset_clears_timeline() {
        let results = Cluster::new(2).run(|ctx| {
            ctx.charge(Cat::Spmm, 2.0);
            ctx.world.barrier();
            ctx.reset_timeline();
            ctx.charge(Cat::Gemm, 0.5);
            ctx.report()
        });
        for (rep, _) in results {
            assert_eq!(rep.seconds(Cat::Spmm), 0.0);
            assert_eq!(rep.seconds(Cat::Gemm), 0.5);
            assert_eq!(rep.clock, 0.5);
        }
    }

    #[test]
    fn charged_compute_is_modeled_not_wallclock() {
        // A 1-flop charge must not cost wall time proportional to model
        // time: just verify the modeled clock is tiny but nonzero.
        let results = Cluster::new(1).run(|ctx| {
            ctx.charge_gemm(1, 1, 1);
            ctx.clock()
        });
        assert!(results[0].0 > 0.0 && results[0].0 < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Cluster::new(0);
    }

    #[test]
    fn thread_budget_reaches_ctx_and_model() {
        let results = Cluster::new(2)
            .with_threads_per_rank(4)
            .run(|ctx| (ctx.parallel().threads(), ctx.model().threads_per_rank));
        for ((kernel_threads, model_threads), _) in results {
            assert_eq!(kernel_threads, 4);
            assert_eq!(model_threads, 4);
        }
    }

    #[test]
    fn default_cluster_is_serial() {
        let results = Cluster::new(1).run(|ctx| ctx.parallel().threads());
        assert_eq!(results[0].0, 1);
    }

    #[test]
    fn threads_speed_up_modeled_gemm() {
        let charge = |threads: usize| {
            let results = Cluster::new(1).with_threads_per_rank(threads).run(|ctx| {
                ctx.charge_gemm(64, 64, 64);
                ctx.clock()
            });
            results[0].0
        };
        let serial = charge(1);
        let quad = charge(4);
        assert!((serial / quad - 4.0).abs() < 1e-9);
    }
}
