//! Distributed GCN training algorithms — the paper's §IV.
//!
//! One trainer, [`Trainer`], over five layouts. The shell owns what every
//! algorithm shares — weights, optimizer, activation, dropout, the stored
//! `Z`/`H` blocks, the comm tier, overlap, the halo cache and the
//! workspace — and implements the epoch, the setters and the stage fetch
//! (`State::fetch`) once. A [`Layout`] supplies only its geometry and
//! stage loops, and runs through one of two shared bodies:
//!
//! * the row family (`H`/`G` by block rows, whole class rows per rank):
//!   - [`onedim`] — 1D block-row (Algorithm 1): `A` by block columns.
//!     Forward is a block-row SpMM over `P` broadcasts; backward is a
//!     large 1D outer product reduce-scattered into block rows plus a
//!     small `f x f` all-reduce.
//!   - [`onedim_row`] — the §IV-A.7 mirror: `A` by block rows, swapping
//!     the outer-product and block-row roles of forward and backward at
//!     equal total communication.
//!   - [`one5d`] — 1.5D replicated block-row (§IV-B): interpolates
//!     between 1D and 2D with a replication factor `c`, trading `c`-fold
//!     replication for a `c`-fold reduction of the dense broadcast volume.
//! * the grid family (`A`, `H`, `G` block-2D):
//!   - [`twodim`] — 2D SUMMA (Algorithm 2) on square or rectangular
//!     grids: SUMMA SpMM stages plus "partial SUMMA" against the
//!     replicated `W`, and the non-elementwise `log_softmax` as a
//!     split log-sum-exp: three numbers per row across the process row.
//!   - [`threedim`] — Split-3D-SpMM (§IV-D): a `∛P`-sided mesh;
//!     independent 2D SUMMAs per mesh layer followed by fiber
//!     reduce-scatters. The paper analyzes but does not implement this
//!     algorithm; here it is implemented and verified.
//!
//! All five produce the same weights and embeddings as the serial
//! reference up to floating-point accumulation order, for any process
//! count that fits their geometry.

mod grid;
pub mod one5d;
pub mod onedim;
pub mod onedim_row;
mod rows;
mod shell;
pub mod threedim;
pub mod twodim;

pub(crate) use shell::State;
pub use shell::{Layout, Trainer};

use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, GatheredRows, PendingOp};
use cagnet_dense::Mat;
use cagnet_sparse::spmm::{spmm_acc_scratch, spmm_scratch_len};
use cagnet_sparse::{Csr, ParallelCtx};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// How the distributed trainers move dense feature/gradient blocks
/// between ranks.
///
/// The broadcast stages of these algorithms send an *entire* dense block
/// every stage, but a receiver multiplying a sparse panel only reads the
/// rows matching that panel's nonzero columns. `SparsityAware` switches
/// the stages to [`gather_rows`], which moves only the requested rows
/// (plus their indices) — bit-identical training at a fraction of the
/// metered `Cat::DenseComm` words on sparse graphs. All five trainers
/// honor it: the row-distributed family (1D, 1D-row, 1.5D) on their
/// block broadcasts, and the grid family (2D, 3D) on the dense-panel
/// side of every SUMMA stage. See DESIGN.md §9 for the cost accounting,
/// the per-stage needed-row derivation, and when `Dense` still wins.
///
/// `Cached` layers DistGNN-style halo caching (arXiv:2104.06700) on top
/// of the sparsity-aware exchange: each rank keeps an epoch-stamped cache
/// of the compact row blocks it fetched, refreshes them every `refresh`
/// training epochs through the nonblocking prefetch lane, and on the
/// epochs in between skips the collective entirely, serving the (stale)
/// cached rows. Remote rows are then up to `refresh − 1` epochs stale;
/// the rank's own block is always fresh. Training results are **not**
/// bit-identical to exact training for `refresh > 1` — see DESIGN.md §13
/// for the staleness semantics and the bound `tests/cached_comm.rs`
/// holds them to. `refresh: 1` refreshes every epoch and is
/// bit-identical to `SparsityAware`. Evaluation forward passes never
/// read or write the cache.
///
/// [`gather_rows`]: cagnet_comm::comm::Communicator::igather_rows
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommMode {
    /// Broadcast full dense blocks every stage (the paper's baseline).
    #[default]
    Dense,
    /// Exchange only the rows each receiver's sparse block references.
    SparsityAware,
    /// Sparsity-aware exchange with rank-local halo caching: gather
    /// fresh rows every `refresh` training epochs, serve the cache on
    /// the epochs in between. `refresh` must be ≥ 1.
    Cached {
        /// Refresh period in training epochs (1 = refresh every epoch,
        /// bit-identical to [`CommMode::SparsityAware`]).
        refresh: usize,
    },
}

impl CommMode {
    /// The cached tier's refresh period, if this is [`CommMode::Cached`].
    pub fn cached_refresh(self) -> Option<usize> {
        match self {
            CommMode::Cached { refresh } => Some(refresh),
            _ => None,
        }
    }

    /// Whether stage operands move as compact needed-row sets (the
    /// sparsity-aware and cached tiers) rather than full-block
    /// broadcasts. Trainers use this to decide when to build and
    /// multiply against column-compacted sparse panels.
    pub(crate) fn sparse_exchange(self) -> bool {
        !matches!(self, CommMode::Dense)
    }
}

/// Why a distributed trainer cannot be constructed on this cluster
/// geometry and problem. Returned by the trainers' `try_setup`
/// constructors; the panicking `setup` wrappers render it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetupError {
    /// The block distribution would leave ranks without vertices.
    TooManyRanks {
        /// World size `P`.
        ranks: usize,
        /// Vertex count `n`.
        vertices: usize,
    },
    /// The rank count does not fit the algorithm's process geometry
    /// (square grid, cubic mesh, replication factor dividing `P`, ...).
    Geometry(String),
    /// A trainer-specific configuration parameter is invalid.
    Config(String),
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the historic "more ranks than vertices" wording —
            // callers and tests match on it.
            SetupError::TooManyRanks { ranks, vertices } => {
                write!(f, "more ranks than vertices (P={ranks}, n={vertices})")
            }
            SetupError::Geometry(msg) | SetupError::Config(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SetupError {}

/// A trainer's large scratch matrices, kept across epochs (DESIGN.md
/// §16). Every `n x f`-proportional buffer an epoch needs — stage
/// accumulators, outer-product contributions, compact panels, stacked
/// slabs, `Z`/`H`/`G` blocks, dropout masks — is taken from here and
/// given back when its pass is done with it, so once the first two
/// epochs have filled the pool an epoch allocates none of them. The pool
/// belongs to the trainer and dies with it; nothing is created before
/// the first epoch asks for it.
///
/// A buffer shared with peers (a collective payload behind an `Arc`)
/// cannot be reused until they have dropped their handles, and *when*
/// they do depends on thread timing. It is therefore [lent](Self::lend)
/// and only taken back at points where the collectives completed since
/// prove every peer is done with it: one [layer](Self::end_layer) later,
/// or at the next [world-wide rendezvous](Self::reclaim). Reuse is then
/// the same on every run, not a race.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// Buffers nobody is using, any shape.
    free: Vec<Mat>,
    /// Payloads lent during the layer in progress.
    lent: Vec<Arc<Mat>>,
    /// Payloads lent during the layer before it.
    lent_before: Vec<Arc<Mat>>,
    /// The largest request [`take`](Self::take) has served: the
    /// trainer's measured [`StorageReport::intermediate`].
    pub(crate) peak: usize,
}

impl Workspace {
    /// A free buffer that can hold `len` elements without growing — the
    /// tightest fit, so small requests leave the large buffers to the
    /// large requests — or an empty matrix to grow when none can. Shape
    /// and contents are whatever the last user left: overwrite it through
    /// an `_into` kernel or [`Mat::reset`] before reading.
    pub(crate) fn take(&mut self, len: usize) -> Mat {
        self.peak = self.peak.max(len);
        self.tightest(len, usize::MAX)
    }

    /// A buffer for a block that will be *stored* — a `Z`, an `H`, a
    /// dropout mask, kept until the next pass hands it back: the tightest
    /// free fit of at most `2·len` elements. Stored blocks have the same
    /// sizes every epoch, so from the second epoch on each mostly finds
    /// its own; the bound rules out a small stored block sitting in, and
    /// for a whole pass withholding, a buffer many times its size while
    /// the large requests it was made for allocate anew, and the slack
    /// spares a stored block whose own buffer a smaller request borrowed
    /// from allocating another.
    pub(crate) fn keep(&mut self, len: usize) -> Mat {
        self.tightest(len, len.saturating_mul(2))
    }

    /// The first of the smallest free buffers holding `len..=max`
    /// elements, or an empty matrix to grow when there is none.
    fn tightest(&mut self, len: usize, max: usize) -> Mat {
        let fit = (0..self.free.len())
            .filter(|&i| (len..=max).contains(&self.free[i].capacity()))
            .min_by_key(|&i| self.free[i].capacity());
        match fit.filter(|_| len > 0) {
            Some(i) => self.free.swap_remove(i),
            None => Mat::zeros(0, 0),
        }
    }

    /// A `rows x cols` accumulator of zeros, as [`Mat::zeros`] would
    /// build it.
    pub(crate) fn zeros(&mut self, rows: usize, cols: usize) -> Mat {
        let mut m = self.take(rows * cols);
        m.reset(rows, cols);
        m
    }

    /// [`Workspace::zeros`] for an accumulator that will be stored (see
    /// [`Workspace::keep`]).
    pub(crate) fn keep_zeros(&mut self, rows: usize, cols: usize) -> Mat {
        let mut m = self.keep(rows * cols);
        m.reset(rows, cols);
        m
    }

    /// `c += a · b` on `par` threads, the wide kernel's pack buffer
    /// ([`spmm_acc_scratch`]) drawn from the pool and handed back: zero
    /// elements, so no buffer at all, for operands up to 128 columns.
    pub(crate) fn spmm_acc_with(&mut self, par: ParallelCtx, a: &Csr, b: &Mat, c: &mut Mat) {
        let mut pack = self.take(spmm_scratch_len(b.rows(), b.cols()));
        spmm_acc_scratch(par, a, b, c, &mut pack);
        self.give(pack);
    }

    /// Hand a buffer back for reuse.
    pub(crate) fn give(&mut self, m: Mat) {
        if m.capacity() > 0 {
            self.free.push(m);
        }
    }

    /// Hand back a buffer this rank built and shared. If a peer still
    /// holds it, it is simply dropped — the pool forgets it and a later
    /// request allocates afresh.
    pub(crate) fn give_shared(&mut self, m: Arc<Mat>) {
        if let Ok(m) = Arc::try_unwrap(m) {
            self.give(m);
        }
    }

    /// Put `m` behind an `Arc` to ride a collective as this rank's
    /// payload, remembering the handle so the buffer comes back once the
    /// peers are provably done with it.
    pub(crate) fn lend(&mut self, m: Mat) -> Arc<Mat> {
        let m = Arc::new(m);
        self.lent.push(m.clone());
        m
    }

    /// A layer of a pass is complete: every collective it issued has
    /// been waited on. Peers entered those collectives only after they
    /// were done with whatever this rank had lent before the layer
    /// began, so that comes back now; what was lent during this layer
    /// waits one more. A payload this rank itself still holds (the last
    /// gradient block of a backward pass) stays lent until it is let go.
    pub(crate) fn end_layer(&mut self) {
        let done = std::mem::replace(&mut self.lent_before, std::mem::take(&mut self.lent));
        for m in done {
            match Arc::try_unwrap(m) {
                Ok(m) => self.give(m),
                Err(m) => self.lent.push(m),
            }
        }
    }

    /// Everything lent comes back. For the points where a collective has
    /// just completed that *every* peer entered after its last use of
    /// anything this rank lent: the top of a pass (the pass before ended
    /// in one), and a world-wide reduction inside one.
    pub(crate) fn reclaim(&mut self) {
        self.end_layer();
        self.end_layer();
    }
}

/// A stage operand ready for its SpMM: either a block this rank merely
/// holds a handle on (a peer's broadcast payload, its own resident
/// block, a halo-cache slot) or a compact panel it built in a
/// [`Workspace`] buffer, which goes back there afterwards.
pub(crate) struct Operand {
    mat: Arc<Mat>,
    pooled: bool,
}

impl Operand {
    /// An operand owned elsewhere; dropping it releases only the handle.
    pub(crate) fn shared(mat: Arc<Mat>) -> Self {
        Operand { mat, pooled: false }
    }

    /// A compact panel of `len` elements, written by `fill` into a
    /// workspace buffer.
    pub(crate) fn pooled(ws: &RefCell<Workspace>, len: usize, fill: impl FnOnce(&mut Mat)) -> Self {
        let mut m = ws.borrow_mut().take(len);
        fill(&mut m);
        Operand {
            mat: Arc::new(m),
            pooled: true,
        }
    }

    /// The shared handle (what the halo cache stores on refresh epochs).
    pub(crate) fn handle(&self) -> &Arc<Mat> {
        &self.mat
    }

    /// Done multiplying: a workspace panel goes back to the pool unless
    /// the halo cache kept a handle on it, in which case it is the
    /// cache's until the next refresh replaces it.
    pub(crate) fn release(self, ws: &RefCell<Workspace>) {
        if self.pooled {
            ws.borrow_mut().give_shared(self.mat);
        }
    }
}

impl std::ops::Deref for Operand {
    type Target = Mat;
    fn deref(&self) -> &Mat {
        &self.mat
    }
}

/// Run a stage loop of `stages` stages as a pipeline of depth
/// `overlap as usize` (DESIGN.md §10): `issue(j)` starts stage `j`'s
/// fetches and `run(j, fetch)` waits on them and computes. With overlap
/// on, stage `j + 1` is issued before stage `j` runs, so its fetch is in
/// flight — its α–β cost hidden behind the compute lane — while `j`
/// computes; at depth 0 each stage is issued and run before the next is
/// issued. Every rank issues and waits in the same order either way, so
/// results are bit-identical.
pub(crate) fn pipeline<S>(
    overlap: bool,
    stages: usize,
    mut issue: impl FnMut(usize) -> S,
    mut run: impl FnMut(usize, S),
) {
    let mut ahead = None;
    for j in 0..stages {
        let stage = ahead.take().unwrap_or_else(|| issue(j));
        if overlap && j + 1 < stages {
            ahead = Some(issue(j + 1));
        }
        run(j, stage);
    }
}

/// A stage's leading collective when the stage issues two — the SUMMA
/// `S` panel ahead of its `D` panel: in flight when the stage is issued
/// ahead, already waited on at pipeline depth 0, so that unpipelined the
/// `D` panel is asked for only once the `S` panel has landed — the order,
/// and so the clocks, of a stage that blocks on each fetch in turn.
#[must_use = "a stage's leading collective must be wait()ed"]
pub(crate) enum Lead<'c, T> {
    InFlight(PendingOp<'c, T>),
    Landed(T),
}

impl<'c, T> Lead<'c, T> {
    pub(crate) fn new(op: PendingOp<'c, T>, overlap: bool) -> Self {
        if overlap {
            Lead::InFlight(op)
        } else {
            Lead::Landed(op.wait())
        }
    }

    pub(crate) fn wait(self) -> T {
        match self {
            Lead::InFlight(op) => op.wait(),
            Lead::Landed(v) => v,
        }
    }
}

impl State {
    /// Issue one stage fetch: member `root` of `comm` holds the stage's
    /// `dims`-shaped block (`payload`, `Some` exactly at the root) and
    /// this rank multiplies rows `needed` of it. `Dense` broadcasts the
    /// whole block; the sparse tiers gather the needed rows. In cached
    /// mode a training pass either refreshes — gathers through the
    /// `igather_rows_refresh` kind and keeps remote blocks in cache slot
    /// `slot` — or serves: no collective at all, the rank's own block
    /// compacted fresh and remote blocks read from the cache. Evaluation
    /// passes always gather fresh. Every stage fetch of every trainer
    /// goes through here.
    pub(crate) fn fetch<'a>(
        &'a self,
        comm: &'a Communicator,
        root: usize,
        payload: Option<Arc<Mat>>,
        needed: &'a [usize],
        dims: (usize, usize),
        slot: usize,
    ) -> Fetch<'a> {
        let expect = Some(dims);
        let cached_serving = self.training && !self.cache.borrow().refreshing();
        let mut keep = None;
        let op = match self.mode {
            CommMode::Dense => FetchOp::Bcast(comm.ibcast_shared(root, payload, Cat::DenseComm)),
            CommMode::SparsityAware => {
                FetchOp::Gather(comm.igather_rows(root, payload, needed, expect, Cat::DenseComm))
            }
            CommMode::Cached { .. } => {
                if cached_serving {
                    FetchOp::Served(self.serve_cached(comm, payload, needed, dims.1, slot))
                } else if self.training {
                    keep = (root != comm.my_idx()).then_some(slot);
                    FetchOp::Gather(comm.igather_rows_refresh(
                        root,
                        payload,
                        needed,
                        expect,
                        Cat::DenseComm,
                    ))
                } else {
                    FetchOp::Gather(comm.igather_rows(
                        root,
                        payload,
                        needed,
                        expect,
                        Cat::DenseComm,
                    ))
                }
            }
        };
        Fetch {
            op,
            needed,
            keep,
            state: self,
        }
    }

    /// Serve a stage from the halo cache, with no collective: the root's
    /// own block compacts fresh from local state (zero words, like the
    /// root of the skipped gather); a remote block is the cached one,
    /// metering the words the skipped gather would have moved under
    /// [`Cat::CacheHit`].
    fn serve_cached(
        &self,
        comm: &Communicator,
        payload: Option<Arc<Mat>>,
        needed: &[usize],
        cols: usize,
        slot: usize,
    ) -> Operand {
        match payload {
            Some(block) => Operand::pooled(&self.ws, needed.len() * cols, |m| {
                block.select_rows_into(needed.iter().copied(), m)
            }),
            None => {
                comm.cache_hit(needed.len() as u64 * (cols as u64 + 1));
                Operand::shared(self.cache.borrow().get(slot))
            }
        }
    }
}

/// A stage fetch issued by [`State::fetch`], in flight or already
/// served.
#[must_use = "a stage fetch must be wait()ed"]
pub(crate) struct Fetch<'a> {
    op: FetchOp<'a>,
    needed: &'a [usize],
    /// On a refresh epoch, the cache slot a remote block is kept in.
    keep: Option<usize>,
    state: &'a State,
}

enum FetchOp<'c> {
    /// Full-block broadcast.
    Bcast(PendingOp<'c, Arc<Mat>>),
    /// Row gather.
    Gather(PendingOp<'c, GatheredRows>),
    /// Served by the cached tier with no collective.
    Served(Operand),
}

impl Fetch<'_> {
    /// Block until the stage operand is available. In the sparse tiers it
    /// holds exactly the `needed` rows in request order, written into a
    /// workspace buffer — pair it with the column-compacted sparse panel
    /// ([`cagnet_sparse::Csr::compact_cols`]) so accumulation order, and
    /// therefore every bit of the result, matches the dense path.
    pub(crate) fn wait(self) -> Operand {
        let operand = match self.op {
            FetchOp::Bcast(op) => Operand::shared(op.wait()),
            FetchOp::Gather(op) => {
                let gathered = op.wait();
                Operand::pooled(&self.state.ws, self.needed.len() * gathered.cols(), |m| {
                    gathered.compact_into(self.needed, m)
                })
            }
            FetchOp::Served(operand) => operand,
        };
        if let Some(slot) = self.keep {
            let block = operand.handle().clone();
            self.state.cache.borrow_mut().store(slot, block);
        }
        operand
    }
}

/// Rank-local cache of the compact stage operands a trainer fetched on
/// its last refresh epoch (`CommMode::Cached`, DESIGN.md §13). One slot
/// per (layer, stage) — trainers compute the slot index. The
/// refresh-vs-serve decision is taken **once per training epoch**
/// ([`HaloCache::begin_epoch`]) and replicated across ranks (epoch
/// counters and refresh periods are identical everywhere), so on serve
/// epochs no rank issues the collective and the BSP sequence stays
/// aligned; on refresh epochs every rank gathers through the
/// `igather_rows_refresh`-fingerprinted collective.
#[derive(Debug, Default)]
pub(crate) struct HaloCache {
    slots: Vec<Option<Arc<Mat>>>,
    /// Whether the current training epoch refreshes (gathers fresh rows)
    /// instead of serving the cache.
    refresh_now: bool,
    /// A refresh epoch has completed since construction/invalidation.
    valid: bool,
}

impl HaloCache {
    /// Decide once, at the top of training epoch `epoch` (1-based), and
    /// for the whole forward+backward pass, whether this epoch refreshes.
    /// Refresh is due when the cache has never been filled (or was
    /// invalidated) or when the periodic schedule hits: epochs `1`,
    /// `1 + refresh`, `1 + 2·refresh`, ...
    pub(crate) fn begin_epoch(&mut self, refresh: usize, epoch: usize, ws: &mut Workspace) {
        assert!(refresh >= 1, "CommMode::Cached refresh must be >= 1");
        self.refresh_now = !self.valid || (epoch.max(1) - 1).is_multiple_of(refresh);
        // The pass ahead repopulates every slot it will later serve, and
        // while `refresh_now` holds no slot is read — so the cache can be
        // declared valid immediately, and the blocks it held go back to
        // the workspace for the fresh ones to be gathered into: a slot is
        // swapped, never written through while a stage multiplies it.
        if self.refresh_now {
            self.valid = true;
            self.slots
                .drain(..)
                .flatten()
                .for_each(|b| ws.give_shared(b));
        }
    }

    /// Whether the current epoch gathers fresh rows (true) or serves the
    /// cache (false). Stable for the whole pass.
    pub(crate) fn refreshing(&self) -> bool {
        self.refresh_now
    }

    /// Drop every cached block and force the next training epoch to
    /// refresh — required whenever the precomputed needed-row sets or the
    /// adjacency may have changed (re-setup, `set_comm_mode`).
    pub(crate) fn invalidate(&mut self) {
        self.slots.clear();
        self.valid = false;
        self.refresh_now = false;
    }

    /// Store the compact block fetched for `slot` on a refresh epoch.
    pub(crate) fn store(&mut self, slot: usize, block: Arc<Mat>) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        self.slots[slot] = Some(block);
    }

    /// Serve the cached compact block for `slot`.
    pub(crate) fn get(&self, slot: usize) -> Arc<Mat> {
        match self.slots.get(slot) {
            Some(Some(b)) => b.clone(),
            _ => panic!(
                "halo cache: serve of slot {slot} before any refresh epoch populated it \
                 (cache invalidation or refresh scheduling bug)"
            ),
        }
    }
}

/// Per-rank storage footprint, in 8-byte words — the quantity behind the
/// paper's memory arguments: 2D "consumes optimal memory" (§I), 1.5D pays
/// `c`-fold replication (§IV-B), the 1D backward materializes `O(nf)`
/// low-rank intermediates (§IV-A.3), and 3D replicates intermediates by
/// `∛P` (§IV-D).
///
/// Every term is measured from what the trainer holds, not computed from
/// a per-layout formula, so read it ([`Trainer::storage_words`]) after an
/// epoch: the backward's buffers count only once a backward has run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageReport {
    /// Sparse adjacency blocks held by this rank (2 words per stored
    /// nonzero + row pointers), counting replicas and the compact copies
    /// the sparse tiers serve.
    pub adjacency: usize,
    /// Stored dense blocks after the last pass: feature block plus
    /// stored activations `H^l` and pre-activations `Z^l` for backprop,
    /// and the output probabilities a training forward keeps.
    pub dense_state: usize,
    /// Largest transient buffer the trainer's workspace has served since
    /// setup (outer-product contributions, SUMMA partial sums, stage
    /// accumulators, row-gathered slabs). Stored blocks are not counted
    /// here: they are `dense_state`.
    pub intermediate: usize,
}

impl StorageReport {
    /// Total words.
    pub fn total(&self) -> usize {
        self.adjacency + self.dense_state + self.intermediate
    }
}

/// Storage words of a CSR block: values + column indices + row pointers.
pub(crate) fn csr_words(a: &cagnet_sparse::Csr) -> usize {
    2 * a.nnz() + a.rows() + 1
}
