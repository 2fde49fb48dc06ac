//! MPI-style communicators, generic over the transport backend.
//!
//! Every rank of a simulated cluster holds a [`Communicator`] handle per
//! process group (world, grid row, grid column, fiber, ...). Collectives
//! are **bulk-synchronous**: all members must call the same collectives in
//! the same order, exactly as the paper's NCCL-backed implementation
//! requires. Payloads move through a [`CommLink`] — `Arc` pointer copies
//! on the shared-memory backend, framed bytes over Unix sockets on the
//! multi-process backend (see [`crate::transport`]) — while all *costs*
//! are charged through the α–β model of [`crate::cost::CostModel`] onto
//! each rank's [`crate::timeline::Timeline`].
//!
//! Collective time semantics (BSP): on completion every participant's
//! clock becomes `max(entry clocks) + modeled collective cost`, and the
//! bandwidth-term word count is recorded under the caller-supplied
//! category ([`Cat::DenseComm`] or [`Cat::SparseComm`]). Entry clocks,
//! fingerprint verification, and deterministic member-order reductions
//! all live here, above the transport trait, which is why results are
//! bit-identical across backends.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use crate::cost::{Cat, CommWords, CostModel};
use crate::diag::Diagnostics;
use crate::frame::{PackedMat, Precision, RowsPart, Wire};
use crate::timeline::Meter;
use crate::transport::{CollectError, CommInner, CommLink, RxPayload, TxDeposit, TxPayload};
use cagnet_check::fingerprint::{self, CollectiveKind, Fingerprint, Shape};
use cagnet_check::waitgraph::{deadlock_report, HistoryEntry, SlotId, WaitSlot};
use cagnet_check::CheckMode;
use cagnet_dense::Mat;
use cagnet_sparse::partition::block_range;

/// A row gather's second round at the root (DESIGN.md §9): the resident
/// block, and every member's request from round one in member order
/// (`None` at the root). Shared-memory receivers read their rows from
/// the block itself; over sockets the payload is encoded as one
/// [`RowsPart`] per receiver, holding only that receiver's rows, straight
/// from the block, and the hub forwards each receiver its own part.
struct ServedRows {
    block: Arc<Mat>,
    requests: Vec<Option<Arc<Vec<usize>>>>,
    /// Wire precision of the served values; `None` serves them exact.
    prec: Option<Precision>,
}

impl ServedRows {
    fn precision(&self) -> Precision {
        self.prec.unwrap_or(Precision::F64)
    }

    /// Encoded length of each member's part.
    fn part_lens(&self) -> Vec<usize> {
        let (cols, prec) = (self.block.cols(), self.precision());
        self.requests
            .iter()
            .map(|r| {
                r.as_ref()
                    .map_or(0, |r| RowsPart::encoded_len(r.len(), cols, prec))
            })
            .collect()
    }

    fn into_payload(self) -> TxPayload {
        let lens = self.part_lens();
        TxPayload::parted(Arc::new(self), &lens, |served, out| {
            out.reserve(served.part_lens().iter().sum());
            for rows in served.requests.iter().flatten() {
                RowsPart::put(out, &served.block, rows, served.precision());
            }
        })
    }
}

/// Result of a [`Communicator::gather_rows`] /
/// [`Communicator::igather_rows`].
///
/// A receiver's view is the **compact** form: a `k × f` matrix whose row
/// `i` is row `needed[i]` of the root's block (`rows() == Some(needed)`).
/// It is extracted on demand — [`GatheredRows::compact_into`] writes it
/// straight into a caller-kept buffer, [`GatheredRows::mat`] /
/// [`GatheredRows::compact`] allocate it once — so the receiver never
/// allocates more than `O(k·f)`; until then it holds either a handle on
/// the root's block (shared memory) or its still-encoded part of the
/// root's served payload (sockets). The root — and every rank at
/// `P = 1` — gets its own full block back without a copy
/// (`rows() == None`).
#[derive(Clone)]
pub struct GatheredRows {
    src: Source,
    /// A receiver's allocated compact copy, built on first use.
    compact: OnceLock<Arc<Mat>>,
}

#[derive(Clone)]
enum Source {
    /// The root's own block.
    Full(Arc<Mat>),
    /// A receiver: the rows it requested, as the root served them.
    Requested {
        rows: Arc<Vec<usize>>,
        served: Served,
    },
}

/// The rows a root served one receiver, not yet extracted.
#[derive(Clone)]
enum Served {
    /// In shared memory: the root's block itself, read through the
    /// requested rows and rounded to the wire precision, if any.
    Shared {
        block: Arc<Mat>,
        prec: Option<Precision>,
    },
    /// Over sockets: the receiver's part of the root's payload, still
    /// encoded, at `at` in the received body.
    Wire {
        body: Arc<Vec<u8>>,
        at: Range<usize>,
        part: RowsPart,
    },
}

impl Served {
    fn cols(&self) -> usize {
        match self {
            Served::Shared { block, .. } => block.cols(),
            Served::Wire { part, .. } => part.block.1,
        }
    }

    /// Write the requested `rows` over `out`, reusing its allocation.
    fn write_into(&self, rows: &[usize], out: &mut Mat) {
        match self {
            Served::Shared { block, prec } => {
                block.select_rows_into(rows.iter().copied(), out);
                if let Some(p) = prec {
                    out.map_inplace(|x| p.round_trip(x));
                }
            }
            Served::Wire { body, at, part } => part.widen_into(&body[at.clone()], out),
        }
    }
}

impl GatheredRows {
    /// Wrap a rank-resident full block with the identity row map — the
    /// same payload the root of a [`Communicator::gather_rows`] receives.
    /// Cached-mode serve epochs use this to compact the rank's own fresh
    /// block through the exact code path of a root-side gather result.
    pub fn full(mat: Arc<Mat>) -> Self {
        GatheredRows {
            src: Source::Full(mat),
            compact: OnceLock::new(),
        }
    }

    /// A receiver's view of the root's round-two payload, checked
    /// against its request `rows`, the dims it declared and the wire
    /// precision it gathers at; the error names the violation.
    fn served(
        payload: &RxPayload,
        rows: Arc<Vec<usize>>,
        expect: Option<(usize, usize)>,
        prec: Option<Precision>,
    ) -> Result<Self, String> {
        let (served, precision, block) = match payload {
            RxPayload::Local(p) => {
                let Ok(root) = p.clone().downcast::<ServedRows>() else {
                    return Err("collective payload type mismatch across ranks".into());
                };
                let served = Served::Shared {
                    block: root.block.clone(),
                    prec: root.prec,
                };
                (served, root.precision(), root.block.shape())
            }
            RxPayload::Remote { body, range } => {
                let part = RowsPart::parse(&body[range.clone()])
                    .map_err(|e| format!("protocol error: served rows do not decode: {e}"))?;
                if part.rows != rows.len() {
                    return Err(format!(
                        "protocol error: the root served {} rows for a {}-row request",
                        part.rows,
                        rows.len()
                    ));
                }
                let (precision, block) = (part.precision, part.block);
                let served = Served::Wire {
                    body: body.clone(),
                    at: range.clone(),
                    part,
                };
                (served, precision, block)
            }
        };
        if expect.is_some_and(|e| e != block) {
            return Err("root block shape differs from the receiver-declared dims".into());
        }
        let want = prec.unwrap_or(Precision::F64);
        if precision != want {
            return Err(format!(
                "protocol error: the root served {} rows to a rank gathering at {}",
                precision.name(),
                want.name()
            ));
        }
        Ok(GatheredRows {
            src: Source::Requested { rows, served },
            compact: OnceLock::new(),
        })
    }

    /// The gathered payload: compact `k × f` at receivers, the root's
    /// full block at the root and at `P = 1`.
    pub fn mat(&self) -> &Arc<Mat> {
        match &self.src {
            Source::Full(block) => block,
            Source::Requested { rows, served } => self.compact.get_or_init(|| {
                let mut m = Mat::zeros(0, 0);
                served.write_into(rows, &mut m);
                Arc::new(m)
            }),
        }
    }

    /// Width `f` of the gathered rows.
    pub fn cols(&self) -> usize {
        match &self.src {
            Source::Full(block) => block.cols(),
            Source::Requested { served, .. } => served.cols(),
        }
    }

    /// Row indices of the root block that [`GatheredRows::mat`]'s rows
    /// correspond to, in order; `None` means the identity map (the full
    /// block).
    pub fn rows(&self) -> Option<&[usize]> {
        match &self.src {
            Source::Full(_) => None,
            Source::Requested { rows, .. } => Some(rows),
        }
    }

    /// The compact `needed.len() × f` operand for an SpMM against a
    /// column-compacted sparse panel ([`cagnet_sparse::Csr::compact_cols`]).
    /// A receiver's copy is built once and shared; the root and `P = 1`
    /// extract their needed rows locally — unmetered local work on a
    /// block the rank already owns, like any slice of its own data.
    /// `needed` must be the same list passed to the collective.
    pub fn compact(&self, needed: &[usize]) -> Arc<Mat> {
        match &self.src {
            Source::Full(block) => Arc::new(block.select_rows(needed)),
            Source::Requested { .. } => {
                self.check_request(needed);
                self.mat().clone()
            }
        }
    }

    /// [`GatheredRows::compact`] written over `out`, reusing its
    /// allocation: the same rows in the same order, on the root and on
    /// receivers alike, with nothing allocated when `out` is large
    /// enough. A socket receiver decodes its part straight into `out`.
    pub fn compact_into(&self, needed: &[usize], out: &mut Mat) {
        match &self.src {
            Source::Full(block) => block.select_rows_into(needed.iter().copied(), out),
            Source::Requested { rows, served } => {
                self.check_request(needed);
                served.write_into(rows, out);
            }
        }
    }

    fn check_request(&self, needed: &[usize]) {
        debug_assert_eq!(
            self.rows(),
            Some(needed),
            "gather_rows: compact() called with a different needed set"
        );
    }
}

/// Global registry: creates communicator state on first touch so that
/// `split` needs no out-of-band coordination.
pub struct Registry {
    comms: Mutex<HashMap<(u64, u64, u64), Arc<CommInner>>>,
    next_id: AtomicU64,
    /// How long a rank waits at a collective before declaring the program
    /// deadlocked (collective order mismatch across ranks).
    pub timeout: Duration,
    /// Whether collective fingerprint verification is enabled.
    pub(crate) check: CheckMode,
    /// Wire precision every rank's communicators start with.
    pub(crate) precision: Precision,
    /// Run-wide rank states, histories, first-panic record, abort flag.
    pub(crate) diag: Diagnostics,
}

impl Registry {
    /// New registry; `timeout` bounds collective waits. Verification is
    /// off; see [`Registry::with_check`].
    pub fn new(timeout: Duration) -> Self {
        Registry {
            comms: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            timeout,
            check: CheckMode::Off,
            precision: Precision::F64,
            diag: Diagnostics::default(),
        }
    }

    /// Enable or disable collective fingerprint verification.
    pub fn with_check(mut self, check: CheckMode) -> Self {
        self.check = check;
        self
    }

    /// Select the wire precision of dense collectives (DESIGN.md §14).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    pub(crate) fn fresh_world(&self, size: usize) -> Arc<CommInner> {
        Arc::new(CommInner::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            size,
        ))
    }

    pub(crate) fn get_or_create(&self, key: (u64, u64, u64), size: usize) -> Arc<CommInner> {
        // The table stays consistent across a poisoning panic (plain
        // entry/insert), so recover the guard rather than cascading.
        let mut comms = self.comms.lock().unwrap_or_else(PoisonError::into_inner);
        comms
            .entry(key)
            .or_insert_with(|| {
                Arc::new(CommInner::new(
                    self.next_id.fetch_add(1, Ordering::Relaxed),
                    size,
                ))
            })
            .clone()
    }
}

/// A per-thread handle to one process group.
///
/// Cloning is cheap; the handle is deliberately `!Send` (it carries the
/// rank-local meter) — create communicators inside the rank closure.
pub struct Communicator {
    link: Arc<dyn CommLink>,
    registry: Arc<Registry>,
    /// World ranks of the members, ascending.
    members: Arc<Vec<usize>>,
    my_idx: usize,
    meter: Rc<RefCell<Meter>>,
    seq: Cell<u64>,
    /// Wire precision of dense-matrix collectives on this handle.
    /// Per-handle and mutable so fault-injection tests can desynchronize
    /// one rank; normal runs inherit the registry-wide setting.
    precision: Cell<Precision>,
}

impl Communicator {
    pub(crate) fn new_world(
        registry: Arc<Registry>,
        link: Arc<dyn CommLink>,
        size: usize,
        rank: usize,
        meter: Rc<RefCell<Meter>>,
    ) -> Self {
        let precision = Cell::new(registry.precision);
        Communicator {
            link,
            registry,
            members: Arc::new((0..size).collect()),
            my_idx: rank,
            meter,
            seq: Cell::new(0),
            precision,
        }
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator (0-based, dense).
    pub fn my_idx(&self) -> usize {
        self.my_idx
    }

    /// World ranks of all members.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The cost model used for charging.
    pub fn model(&self) -> Arc<CostModel> {
        self.meter.borrow().model.clone()
    }

    /// Wire precision of this handle's dense collectives.
    pub fn precision(&self) -> Precision {
        self.precision.get()
    }

    /// Override the wire precision on this handle. Every member of the
    /// communicator must make the same change before the next dense
    /// collective — under `CheckMode` a mismatched pair is caught by the
    /// fingerprint dtype cross-check (the override exists for exactly
    /// that fault-injection test, and for trainers that want a lower
    /// precision on one sub-communicator only).
    pub fn set_precision(&self, precision: Precision) {
        self.precision.set(precision);
    }

    /// The active compression, if any, for a collective carrying `T`
    /// metered under `cat`: packing engages exactly when the handle's
    /// precision is narrow, the payload is a [`Mat`], the traffic is
    /// dense-matrix communication ([`Cat::DenseComm`] — weights and
    /// control payloads under other categories stay exact), and the
    /// group actually crosses the wire (`size > 1`). Decidable on every
    /// rank without payload inspection, so all members take the same
    /// branch.
    fn packed_precision<T: Any>(&self, cat: Cat) -> Option<Precision> {
        let p = self.precision.get();
        (p != Precision::F64
            && cat == Cat::DenseComm
            && self.size() > 1
            && std::any::TypeId::of::<T>() == std::any::TypeId::of::<Mat>())
        .then_some(p)
    }

    /// `Arc<T> -> Arc<Mat>` when [`Communicator::packed_precision`] has
    /// already proven `T == Mat` via `TypeId`.
    fn arc_as_mat<T: Any + Send + Sync>(data: Arc<T>) -> Arc<Mat> {
        let any: Arc<dyn Any + Send + Sync> = data;
        match any.downcast::<Mat>() {
            Ok(m) => m,
            Err(_) => unreachable!("packed dispatch proved T == Mat by TypeId"),
        }
    }

    /// The inverse coercion of [`Communicator::arc_as_mat`].
    fn arc_from_mat<T: Any + Send + Sync>(mat: Arc<Mat>) -> Arc<T> {
        let any: Arc<dyn Any + Send + Sync> = mat;
        match any.downcast::<T>() {
            Ok(t) => t,
            Err(_) => unreachable!("packed dispatch proved T == Mat by TypeId"),
        }
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// This rank's world rank.
    fn world_rank(&self) -> usize {
        self.members[self.my_idx]
    }

    /// Build this collective's fingerprint when verification is on.
    /// `root`/`partner` are member indices and are translated to world
    /// ranks so diagnostics stay meaningful across sub-communicators.
    fn fingerprint(
        &self,
        kind: CollectiveKind,
        root: Option<usize>,
        partner: Option<usize>,
        dtype: &'static str,
        shape: Shape,
    ) -> Option<Fingerprint> {
        self.registry.check.is_on().then(|| Fingerprint {
            kind,
            root: root.map(|i| self.members[i]),
            partner: partner.map(|i| self.members[i]),
            dtype,
            shape,
        })
    }

    /// Abort this rank because the transport reported a failure. Each
    /// [`CollectError`] variant maps onto the exact panic the
    /// shared-memory backend has always raised — abort cascades name the
    /// rank/collective that failed first, rendezvous timeouts carry the
    /// wait-for-graph deadlock report — so failures read identically on
    /// both backends.
    fn link_failure(&self, kind: CollectiveKind, seq: u64, err: CollectError) -> ! {
        let slot_id = SlotId {
            comm: self.link.id(),
            seq,
        };
        let my_world = self.world_rank();
        match err {
            CollectError::Abort(why) => {
                panic!("rank {my_world} aborting {kind} at {slot_id}: {why}")
            }
            CollectError::Timeout { arrived } => {
                let diag = &self.registry.diag;
                let report = deadlock_report(&diag.snapshot(), &diag.histories());
                panic!(
                    "collective deadlock: comm {} seq {seq}: only {arrived}/{} ranks \
                     arrived within {:?} — ranks are calling collectives in different \
                     orders\n{report}",
                    self.link.id(),
                    self.size(),
                    self.registry.timeout
                );
            }
            CollectError::Transport(detail) => {
                // Prefer the recorded first failure (names the rank and
                // collective that panicked first) over the raw transport
                // detail, matching the old poisoned-mutex path.
                let why = self.registry.diag.first_panic_render().unwrap_or(detail);
                panic!("rank {my_world} aborting {kind} at {slot_id}: {why}")
            }
        }
    }

    /// Core rendezvous: deposit `payload` (with this rank's collective
    /// fingerprint when checking), wait for all members, verify that
    /// everyone entered the same collective, and return all deposits (in
    /// member order) plus the maximum entry clock.
    ///
    /// Fingerprints ride along with the payload deposits, so checked mode
    /// adds no synchronization and charges no modeled cost — timelines
    /// are bit-identical with checking on and off.
    fn exchange_raw(
        &self,
        kind: CollectiveKind,
        fp: Option<Fingerprint>,
        payload: TxPayload,
    ) -> (Vec<RxPayload>, Arrival) {
        let size = self.size();
        let entry = self.meter.borrow().timeline.clock();
        if size == 1 {
            let at = Arrival {
                tmax: entry,
                rx_bytes: 0,
            };
            return (vec![RxPayload::Local(payload.local)], at);
        }
        let seq = self.next_seq();
        let slot_id = SlotId {
            comm: self.link.id(),
            seq,
        };
        let diag = &self.registry.diag;
        let my_world = self.world_rank();
        diag.record_history(
            my_world,
            HistoryEntry {
                slot: slot_id,
                kind,
                clock: entry,
            },
        );
        // Register the wait BEFORE depositing: the watchdog must never
        // observe a deposit from a rank it still considers running, or a
        // rendezvous one arrival short could be misread as stuck.
        let _wait = diag.enter_wait(
            my_world,
            WaitSlot {
                slot: slot_id,
                kind,
                members: self.members.as_ref().clone(),
            },
        );
        self.deposit(kind, seq, entry, fp, payload);
        self.await_and_collect(kind, seq)
    }

    /// Issue half of a split-phase collective: deposit this rank's
    /// payload and return the op's sequence number — without registering
    /// a wait or blocking. The rank stays `Running`, which the deadlock
    /// watchdog treats as progress, so an in-flight pending op can never
    /// be misread as a stuck rendezvous; the wait registration happens in
    /// [`Communicator::complete_raw`] when the op is actually awaited.
    fn issue_raw(&self, kind: CollectiveKind, fp: Option<Fingerprint>, payload: TxPayload) -> u64 {
        let entry = self.meter.borrow().timeline.clock();
        let seq = self.next_seq();
        self.registry.diag.record_history(
            self.world_rank(),
            HistoryEntry {
                slot: SlotId {
                    comm: self.link.id(),
                    seq,
                },
                kind,
                clock: entry,
            },
        );
        self.deposit(kind, seq, entry, fp, payload);
        seq
    }

    /// Wait half of a split-phase collective: register the wait (for
    /// deadlock diagnostics) and block until every member's deposit for
    /// `seq` is present. Returns all deposits plus their arrival.
    fn complete_raw(&self, kind: CollectiveKind, seq: u64) -> (Vec<RxPayload>, Arrival) {
        let _wait = self.registry.diag.enter_wait(
            self.world_rank(),
            WaitSlot {
                slot: SlotId {
                    comm: self.link.id(),
                    seq,
                },
                kind,
                members: self.members.as_ref().clone(),
            },
        );
        self.await_and_collect(kind, seq)
    }

    /// Place this rank's deposit (entry clock, fingerprint, payload) into
    /// the rendezvous slot for `seq` through the transport link, waking
    /// (or notifying) the group when it is the last arrival.
    fn deposit(
        &self,
        kind: CollectiveKind,
        seq: u64,
        entry: f64,
        fp: Option<Fingerprint>,
        payload: TxPayload,
    ) {
        let dep = TxDeposit { entry, fp, payload };
        if let Err(e) = self
            .link
            .deposit(kind, seq, self.my_idx, &self.members, dep)
        {
            self.link_failure(kind, seq, e);
        }
    }

    /// Block until the rendezvous for `seq` is full, then consume it:
    /// returns all payloads in member order plus their [`Arrival`], and
    /// verifies fingerprints when checking is on. The caller must have
    /// already deposited (and, for diagnostics, registered its wait).
    ///
    /// Fingerprint verification runs here — above the transport — so
    /// CheckMode gives the identical guarantee whether the fingerprints
    /// arrived through shared memory or piggybacked on socket frames.
    fn await_and_collect(&self, kind: CollectiveKind, seq: u64) -> (Vec<RxPayload>, Arrival) {
        let size = self.size();
        let slot_id = SlotId {
            comm: self.link.id(),
            seq,
        };
        let diag = &self.registry.diag;
        let deposits = match self.link.collect(
            kind,
            seq,
            self.my_idx,
            &self.members,
            &|| diag.abort_message(),
            self.registry.timeout,
        ) {
            Ok(d) => d,
            Err(e) => self.link_failure(kind, seq, e),
        };
        debug_assert_eq!(
            deposits.len(),
            size,
            "collect returned a partial rendezvous"
        );
        let mut out = Vec::with_capacity(size);
        let mut fps = Vec::with_capacity(size);
        let mut at = Arrival {
            tmax: f64::NEG_INFINITY,
            rx_bytes: 0,
        };
        for (idx, d) in deposits.into_iter().enumerate() {
            at.tmax = at.tmax.max(d.entry);
            at.rx_bytes += d.payload.wire_len() as u64;
            if let Some(f) = d.fp {
                fps.push((self.members[idx], f));
            }
            out.push(d.payload);
        }
        if fps.len() == size {
            if let Err(mismatch) = fingerprint::verify(&fps) {
                panic!(
                    "collective check failed at {slot_id}:\n{}",
                    mismatch.message
                );
            }
        }
        (out, at)
    }

    fn downcast<T: Any + Send + Sync + Wire>(p: RxPayload) -> Arc<T> {
        p.extract()
    }

    /// Settle a blocking collective: align the clock to the group max
    /// (and the network lane), then charge `cost` seconds and `words`
    /// bandwidth-term words under `cat`, next to the bytes that arrived.
    fn settle(&self, at: Arrival, cat: Cat, cost: f64, words: u64) {
        let mut m = self.meter.borrow_mut();
        m.timeline.settle_blocking(at.tmax, cat, cost);
        if words > 0 || cost > 0.0 {
            m.timeline.record_traffic(cat, words);
        }
        m.timeline.record_rx(cat, at.rx_bytes);
    }

    /// Settle a nonblocking collective at `wait()`: network-lane charging
    /// (only the remainder not hidden behind compute advances the clock)
    /// plus the same traffic bookkeeping as the blocking collectives, so
    /// word and message counts are identical with overlap on and off.
    fn settle_overlapped(&self, at: Arrival, cat: Cat, cost: f64, words: u64) {
        let mut m = self.meter.borrow_mut();
        m.timeline.settle_pending(at.tmax, cat, cost);
        if words > 0 || cost > 0.0 {
            m.timeline.record_traffic(cat, words);
        }
        m.timeline.record_rx(cat, at.rx_bytes);
    }

    /// Barrier across the group.
    pub fn barrier(&self) {
        let fp = self.fingerprint(CollectiveKind::Barrier, None, None, "()", Shape::Words(0));
        let (_, at) = self.exchange_raw(CollectiveKind::Barrier, fp, TxPayload::unit());
        let cost = self.model().barrier_time(self.size());
        self.settle(at, Cat::Misc, cost, 0);
    }

    /// Broadcast from member `root_idx`. The root passes `Some(data)`;
    /// everyone receives the root's payload.
    ///
    /// Charged `α + β·w` (pipelined) or `α·lg p + β·w` per the model.
    pub fn bcast<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<T>,
        cat: Cat,
    ) -> Arc<T> {
        self.bcast_shared(root_idx, data.map(Arc::new), cat)
    }

    /// Broadcast an already-shared payload: like [`Communicator::bcast`],
    /// but the root hands over an `Arc` instead of an owned value, so a
    /// block a trainer keeps resident (its own `H` slice) rides into the
    /// rendezvous without being copied. Fingerprinting and charging are
    /// identical to `bcast`.
    pub fn bcast_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<Arc<T>>,
        cat: Cat,
    ) -> Arc<T> {
        assert!(root_idx < self.size(), "bcast root out of range");
        assert_eq!(
            data.is_some(),
            root_idx == self.my_idx,
            "bcast: exactly the root must supply data"
        );
        if let Some(prec) = self.packed_precision::<T>(cat) {
            let mat = data.map(Self::arc_as_mat);
            return Self::arc_from_mat(self.bcast_packed(root_idx, mat, prec));
        }
        // The root declares the payload size; everyone else cannot know
        // it yet and declares a wildcard shape.
        let shape = match &data {
            Some(d) => Shape::Words(d.comm_words()),
            None => Shape::Unknown,
        };
        let fp = self.fingerprint(
            CollectiveKind::Bcast,
            Some(root_idx),
            None,
            std::any::type_name::<T>(),
            shape,
        );
        let payload = match data {
            Some(d) => TxPayload::of(d),
            None => TxPayload::unit(),
        };
        let (items, at) = self.exchange_raw(CollectiveKind::Bcast, fp, payload);
        let out = Self::downcast::<T>(items[root_idx].clone());
        let words = out.comm_words();
        let cost = self.model().bcast_time(self.size(), words);
        self.settle(at, cat, cost, if self.size() > 1 { words } else { 0 });
        out
    }

    /// Compressed-precision broadcast: the root rounds its matrix to the
    /// wire precision once, and **every** rank — the root included —
    /// widens the packed payload back to `f64`, so all members hold
    /// bit-identical replicas (the replication invariant every dense
    /// collective keeps). Metered under the precision's own category
    /// with the packed word count, so the β term halves (f32) or
    /// quarters (bf16).
    fn bcast_packed(&self, root_idx: usize, data: Option<Arc<Mat>>, prec: Precision) -> Arc<Mat> {
        let packed = data.map(|m| Arc::new(PackedMat::pack(&m, prec)));
        let shape = match &packed {
            Some(d) => Shape::Words(d.comm_words()),
            None => Shape::Unknown,
        };
        let fp = self.fingerprint(
            CollectiveKind::Bcast,
            Some(root_idx),
            None,
            prec.packed_dtype(),
            shape,
        );
        let payload = match packed {
            Some(d) => TxPayload::of(d),
            None => TxPayload::unit(),
        };
        let (items, at) = self.exchange_raw(CollectiveKind::Bcast, fp, payload);
        let packed = Self::downcast::<PackedMat>(items[root_idx].clone());
        let out = Arc::new(packed.widen());
        let words = packed.comm_words();
        let cost = self.model().bcast_time(self.size(), words);
        self.settle(at, prec.dense_cat(), cost, words);
        out
    }

    /// Sparsity-aware row broadcast: member `root_idx` holds a dense row
    /// block, and every other member receives **only** the rows named in
    /// its `needed` list (sorted, distinct row indices into the root's
    /// block), as a compact `k × f` [`GatheredRows`] in request order —
    /// receiver-side memory is `O(k·f)`. An SpMM of a column-compacted
    /// sparse panel against the compact result is bit-identical to the
    /// full-block product, because the compaction is a monotone
    /// renumbering. The root gets its own block back without a copy.
    ///
    /// The exchange is request-then-serve, in two rendezvous at the same
    /// entry clock: in the first, each receiver's request reaches the
    /// root; in the second, the root deposits one payload holding, per
    /// receiver, only that receiver's rows — over sockets each receiver
    /// is sent its own part and nothing else, so the bytes that cross
    /// are the words metered below (DESIGN.md §9).
    ///
    /// `expect` is each receiver's declaration of the root block's
    /// dimensions, cross-checked against the root's deposit both at
    /// runtime and — under `CheckMode` — through the collective
    /// fingerprint (`Shape::Dims`), so a root broadcasting a
    /// wrong-shaped panel mid-SUMMA is caught and attributed instead of
    /// silently mis-slicing. Pass `None` only when the receiver
    /// genuinely cannot know the dims (fingerprints then use the
    /// `Shape::Unknown` wildcard).
    ///
    /// Cost accounting (see DESIGN.md §9): every transferred word is
    /// recorded at exactly one rank. A receiver requesting `k` rows of
    /// width `f` pays `2α + β·k·(f+1)` and records `k·(f+1)` words (`k·f`
    /// row data plus `k` request-index words). The root pays the serving
    /// time `α·(P−1) + β·Σ_r k_r·(f+1)` and records no words. Compare a
    /// dense [`Communicator::bcast`], where all `P` ranks record the full
    /// `w` — on low-degree graphs `k ≪ rows` and this wins by a large
    /// factor; on near-complete graphs the `+1` index words and the
    /// serialized serving term make dense mode cheaper.
    pub fn gather_rows(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> GatheredRows {
        self.gather_rows_kind(
            CollectiveKind::GatherRows,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    /// Cached-mode refresh epoch variant of [`Communicator::gather_rows`]:
    /// identical exchange, costs, and words, but fingerprinted as
    /// `gather_rows_refresh` so — under CheckMode — a rank serving its
    /// stale cache while a peer refreshes is reported as a kind mismatch
    /// instead of hanging or silently diverging (DESIGN.md §13).
    pub fn gather_rows_refresh(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> GatheredRows {
        self.gather_rows_kind(
            CollectiveKind::GatherRowsRefresh,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    fn gather_rows_kind(
        &self,
        kind: CollectiveKind,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> GatheredRows {
        let g = match self.issue_gather(kind, root_idx, data, needed, expect, cat) {
            GatherIssue::Ready(single) => return single,
            GatherIssue::Served(g) => g,
        };
        let (items, mut at) = self.complete_raw(kind, g.seq);
        at.rx_bytes += g.rx_bytes;
        let (out, cost, words) = self.finish_gather(kind, g.end, g.prec, items);
        self.settle(at, g.cat, cost, words);
        out
    }

    /// Issue a row gather: check the request, run round one — each
    /// receiver's rows reach the root, nothing is charged — and deposit
    /// round two at the same entry clock, the root serving every
    /// receiver its rows and the receivers a unit. At `P = 1` the root
    /// has its block and nothing moves.
    fn issue_gather(
        &self,
        kind: CollectiveKind,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> GatherIssue {
        assert!(root_idx < self.size(), "{kind} root out of range");
        assert_eq!(
            data.is_some(),
            root_idx == self.my_idx,
            "{kind}: exactly the root must supply data"
        );
        for w in needed.windows(2) {
            assert!(
                w[0] < w[1],
                "{kind}: needed rows must be sorted and distinct"
            );
        }
        if self.size() == 1 {
            let Some(block) = data else {
                unreachable!("single-rank {kind} root missing its own data")
            };
            return GatherIssue::Ready(GatheredRows::full(block));
        }
        let prec = self.packed_precision::<Mat>(cat);
        let dtype = prec.map_or(std::any::type_name::<Mat>(), Precision::packed_dtype);
        let fp = self.fingerprint(
            kind,
            Some(root_idx),
            None,
            dtype,
            Self::gather_rows_shape(&data, expect),
        );
        let rows = Arc::new(needed.to_vec());
        let request = if self.my_idx == root_idx {
            TxPayload::unit()
        } else {
            // Only the root reads a request: a count word, then one word
            // per row.
            let mut lens = vec![0; self.size()];
            lens[root_idx] = 8 * (1 + needed.len());
            TxPayload::parted(rows.clone(), &lens, |rows, out| rows.put(out))
        };
        let (items, round_one) = self.exchange_raw(kind, fp.clone(), request);
        let (payload, end) = match data {
            Some(block) => {
                if let Some(e) = expect {
                    assert_eq!(
                        block.shape(),
                        e,
                        "{kind}: root block shape differs from the receiver-declared dims"
                    );
                }
                let requests = self.gather_requests(kind, root_idx, &block, items);
                let served = requests.iter().flatten().map(|r| r.len() as u64).sum();
                let payload = ServedRows {
                    block: block.clone(),
                    requests,
                    prec,
                }
                .into_payload();
                (payload, GatherEnd::Root { block, served })
            }
            None => (
                TxPayload::unit(),
                GatherEnd::Receiver {
                    root_idx,
                    rows,
                    expect,
                },
            ),
        };
        GatherIssue::Served(ServedGather {
            seq: self.issue_raw(kind, fp, payload),
            rx_bytes: round_one.rx_bytes,
            cat: prec.map_or(cat, Precision::dense_cat),
            prec,
            end,
        })
    }

    /// The root's view of round one: each receiver's request, checked
    /// against the block it is served from (`None` at the root).
    fn gather_requests(
        &self,
        kind: CollectiveKind,
        root_idx: usize,
        block: &Mat,
        items: Vec<RxPayload>,
    ) -> Vec<Option<Arc<Vec<usize>>>> {
        items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| {
                (idx != root_idx).then(|| {
                    let rows = Self::downcast::<Vec<usize>>(item);
                    if let Some(bad) = rows.iter().find(|&&r| r >= block.rows()) {
                        panic!(
                            "{kind}: rank {} requested row {bad} out of range for the {}-row \
                             block",
                            self.members[idx],
                            block.rows()
                        );
                    }
                    rows
                })
            })
            .collect()
    }

    /// Fingerprint shape for `gather_rows`/`igather_rows`: the root
    /// declares its block's dims; receivers declare the dims they expect
    /// (their request sizes legitimately differ, so `needed.len()` never
    /// enters the cross-checked shape).
    fn gather_rows_shape(data: &Option<Arc<Mat>>, expect: Option<(usize, usize)>) -> Shape {
        match (data, expect) {
            (Some(d), _) => Shape::Dims(d.rows(), d.cols()),
            (None, Some((r, c))) => Shape::Dims(r, c),
            (None, None) => Shape::Unknown,
        }
    }

    /// Wire words per gathered row: the row — packed values share words,
    /// and each row is rounded up to whole words — plus its index word.
    fn row_words(cols: usize, prec: Option<Precision>) -> u64 {
        let row = match prec {
            None => cols,
            Some(p) => (cols * p.bytes_per_value()).div_ceil(8),
        };
        row as u64 + 1
    }

    /// Complete a row gather from its round-two deposits: this rank's
    /// result, and its cost and words per the α–β formulas of DESIGN.md
    /// §9. The root's result is its own full-precision block — data
    /// that never crossed the wire is never rounded (DESIGN.md §14).
    fn finish_gather(
        &self,
        kind: CollectiveKind,
        end: GatherEnd,
        prec: Option<Precision>,
        items: Vec<RxPayload>,
    ) -> (GatheredRows, f64, u64) {
        let m = self.model();
        match end {
            GatherEnd::Root { block, served } => {
                let words = served * Self::row_words(block.cols(), prec);
                let cost = m.alpha * (self.size() - 1) as f64 + m.beta * words as f64;
                (GatheredRows::full(block), cost, 0)
            }
            GatherEnd::Receiver {
                root_idx,
                rows,
                expect,
            } => {
                let k = rows.len() as u64;
                let got = GatheredRows::served(&items[root_idx], rows, expect, prec)
                    .unwrap_or_else(|why| panic!("{kind}: {why}"));
                let words = k * Self::row_words(got.cols(), prec);
                (got, 2.0 * m.alpha + m.beta * words as f64, words)
            }
        }
    }

    /// Nonblocking [`Communicator::bcast`]: the rendezvous deposit
    /// happens now (so CheckMode fingerprints, sequence alignment, and
    /// determinism are unchanged) and the payload plus α–β charge arrive
    /// at [`PendingOp::wait`]. Fingerprinted as `ibcast`, so every rank
    /// must agree on blocking vs. nonblocking at each call site.
    pub fn ibcast<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<T>,
        cat: Cat,
    ) -> PendingOp<'_, Arc<T>> {
        self.ibcast_shared(root_idx, data.map(Arc::new), cat)
    }

    /// Nonblocking [`Communicator::bcast_shared`]: issue now, receive at
    /// [`PendingOp::wait`]. Identical results, words, and messages to the
    /// blocking form; the cost lands on the network lane, so compute
    /// charged between issue and wait hides it (see DESIGN.md §10).
    pub fn ibcast_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<Arc<T>>,
        cat: Cat,
    ) -> PendingOp<'_, Arc<T>> {
        assert!(root_idx < self.size(), "ibcast root out of range");
        assert_eq!(
            data.is_some(),
            root_idx == self.my_idx,
            "ibcast: exactly the root must supply data"
        );
        if self.size() == 1 {
            let Some(d) = data else {
                unreachable!("single-rank ibcast root missing its own data")
            };
            return PendingOp::ready(self, CollectiveKind::IBcast, cat, d);
        }
        if let Some(prec) = self.packed_precision::<T>(cat) {
            return self.ibcast_packed(root_idx, data.map(Self::arc_as_mat), prec);
        }
        let shape = match &data {
            Some(d) => Shape::Words(d.comm_words()),
            None => Shape::Unknown,
        };
        let fp = self.fingerprint(
            CollectiveKind::IBcast,
            Some(root_idx),
            None,
            std::any::type_name::<T>(),
            shape,
        );
        let payload = match data {
            Some(d) => TxPayload::of(d),
            None => TxPayload::unit(),
        };
        let seq = self.issue_raw(CollectiveKind::IBcast, fp, payload);
        PendingOp::in_flight(
            self,
            CollectiveKind::IBcast,
            cat,
            seq,
            0,
            Box::new(move |comm, items| {
                let out = Communicator::downcast::<T>(items[root_idx].clone());
                let words = out.comm_words();
                let cost = comm.model().bcast_time(comm.size(), words);
                (out, cost, words)
            }),
        )
    }

    /// Compressed-precision [`Communicator::ibcast_shared`]: the root
    /// packs at issue, every rank (root included) widens at `wait()` —
    /// identical rounding to the blocking [`Communicator::bcast_packed`]
    /// — and the packed word count settles under the precision's
    /// category on the network lane.
    fn ibcast_packed<T: Any + Send + Sync>(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        prec: Precision,
    ) -> PendingOp<'_, Arc<T>> {
        let packed = data.map(|m| Arc::new(PackedMat::pack(&m, prec)));
        let shape = match &packed {
            Some(d) => Shape::Words(d.comm_words()),
            None => Shape::Unknown,
        };
        let fp = self.fingerprint(
            CollectiveKind::IBcast,
            Some(root_idx),
            None,
            prec.packed_dtype(),
            shape,
        );
        let payload = match packed {
            Some(d) => TxPayload::of(d),
            None => TxPayload::unit(),
        };
        let seq = self.issue_raw(CollectiveKind::IBcast, fp, payload);
        PendingOp::in_flight(
            self,
            CollectiveKind::IBcast,
            prec.dense_cat(),
            seq,
            0,
            Box::new(move |comm, items| {
                let packed = Communicator::downcast::<PackedMat>(items[root_idx].clone());
                let out = Communicator::arc_from_mat::<T>(Arc::new(packed.widen()));
                let words = packed.comm_words();
                let cost = comm.model().bcast_time(comm.size(), words);
                (out, cost, words)
            }),
        )
    }

    /// Nonblocking [`Communicator::gather_rows`]: the request round runs
    /// at issue — a small rendezvous, so issuing waits for the group —
    /// and the served rows are deposited then too; dim validation, cost,
    /// and word accounting (identical to the blocking form, DESIGN.md
    /// §9) happen at [`PendingOp::wait`].
    pub fn igather_rows(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        self.igather_rows_kind(
            CollectiveKind::IGatherRows,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    /// Cached-mode refresh epoch variant of
    /// [`Communicator::igather_rows`]: identical exchange, costs, and
    /// words, fingerprinted as `igather_rows_refresh` (see
    /// [`Communicator::gather_rows_refresh`]).
    pub fn igather_rows_refresh(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        self.igather_rows_kind(
            CollectiveKind::IGatherRowsRefresh,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    fn igather_rows_kind(
        &self,
        kind: CollectiveKind,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        match self.issue_gather(kind, root_idx, data, needed, expect, cat) {
            GatherIssue::Ready(single) => PendingOp::ready(self, kind, cat, single),
            GatherIssue::Served(g) => PendingOp::in_flight(
                self,
                kind,
                g.cat,
                g.seq,
                g.rx_bytes,
                Box::new(move |comm, items| comm.finish_gather(kind, g.end, g.prec, items)),
            ),
        }
    }

    /// Meter a cache-served stage operand: record the words the skipped
    /// gather would have moved (plus one message) under [`Cat::CacheHit`].
    /// Purely bookkeeping — no rendezvous, no clock movement, and no
    /// effect on `comm_words()`, so the dense-word collapse of cached
    /// training stays honest (DESIGN.md §13).
    pub fn cache_hit(&self, words: u64) {
        self.meter
            .borrow_mut()
            .timeline
            .record_traffic(Cat::CacheHit, words);
    }

    /// Nonblocking [`Communicator::allreduce_mat`]: deposit now, sum (in
    /// member order, deterministic) and charge at [`PendingOp::wait`].
    pub fn iallreduce_mat(&self, m: &Mat, cat: Cat) -> PendingOp<'_, Mat> {
        if self.size() == 1 {
            return PendingOp::ready(self, CollectiveKind::IAllreduceMat, cat, m.clone());
        }
        if let Some(prec) = self.packed_precision::<Mat>(cat) {
            return self.iallreduce_mat_packed(m, prec);
        }
        let fp = self.fingerprint(
            CollectiveKind::IAllreduceMat,
            None,
            None,
            std::any::type_name::<Mat>(),
            Shape::Dims(m.rows(), m.cols()),
        );
        let seq = self.issue_raw(
            CollectiveKind::IAllreduceMat,
            fp,
            TxPayload::of(Arc::new(m.clone())),
        );
        PendingOp::in_flight(
            self,
            CollectiveKind::IAllreduceMat,
            cat,
            seq,
            0,
            Box::new(move |comm, items| {
                let mut acc: Option<Mat> = None;
                for p in items {
                    let part = Communicator::downcast::<Mat>(p);
                    match &mut acc {
                        None => acc = Some((*part).clone()),
                        Some(a) => cagnet_dense::ops::add_assign(a, &part),
                    }
                }
                let Some(out) = acc else {
                    unreachable!("iallreduce over an empty communicator")
                };
                let p = comm.size();
                let w = out.len() as u64;
                let cost = comm.model().allreduce_time(p, w);
                let words = 2 * w * (p as u64 - 1) / p as u64;
                (out, cost, words)
            }),
        )
    }

    /// Compressed-precision [`Communicator::iallreduce_mat`]: pack at
    /// issue, widen-and-sum in `f64` member order at `wait()` — the same
    /// rounding as the blocking form.
    fn iallreduce_mat_packed(&self, m: &Mat, prec: Precision) -> PendingOp<'_, Mat> {
        let packed = Arc::new(PackedMat::pack(m, prec));
        let w = packed.comm_words();
        let fp = self.fingerprint(
            CollectiveKind::IAllreduceMat,
            None,
            None,
            prec.packed_dtype(),
            Shape::Dims(m.rows(), m.cols()),
        );
        let seq = self.issue_raw(CollectiveKind::IAllreduceMat, fp, TxPayload::of(packed));
        PendingOp::in_flight(
            self,
            CollectiveKind::IAllreduceMat,
            prec.dense_cat(),
            seq,
            0,
            Box::new(move |comm, items| {
                let mut acc: Option<Mat> = None;
                for p in items {
                    let part = Communicator::downcast::<PackedMat>(p).widen();
                    match &mut acc {
                        None => acc = Some(part),
                        Some(a) => cagnet_dense::ops::add_assign(a, &part),
                    }
                }
                let Some(out) = acc else {
                    unreachable!("iallreduce over an empty communicator")
                };
                let p = comm.size();
                let cost = comm.model().allreduce_time(p, w);
                let words = 2 * w * (p as u64 - 1) / p as u64;
                (out, cost, words)
            }),
        )
    }

    /// All-gather: every member contributes `data`; returns all
    /// contributions in member order.
    pub fn allgather<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        data: T,
        cat: Cat,
    ) -> Vec<Arc<T>> {
        self.allgather_shared(Arc::new(data), cat)
    }

    /// All-gather of an already-shared payload: like
    /// [`Communicator::allgather`], but each member hands over an `Arc`
    /// instead of an owned value, so a block a trainer keeps resident
    /// (its activation slice, its output row block) rides into the
    /// rendezvous without being copied. Fingerprinting and charging are
    /// identical to `allgather`.
    pub fn allgather_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        data: Arc<T>,
        cat: Cat,
    ) -> Vec<Arc<T>> {
        if let Some(prec) = self.packed_precision::<T>(cat) {
            return self
                .allgather_packed(Self::arc_as_mat(data), prec)
                .into_iter()
                .map(Self::arc_from_mat)
                .collect();
        }
        // Contribution sizes are legitimately rank-dependent: wildcard.
        let fp = self.fingerprint(
            CollectiveKind::Allgather,
            None,
            None,
            std::any::type_name::<T>(),
            Shape::Unknown,
        );
        let (items, at) = self.exchange_raw(CollectiveKind::Allgather, fp, TxPayload::of(data));
        let out: Vec<Arc<T>> = items.into_iter().map(Self::downcast::<T>).collect();
        let p = self.size();
        let total: u64 = out.iter().map(|x| x.comm_words()).sum();
        let cost = self.model().allgather_time(p, total);
        let words = if p > 1 {
            total * (p as u64 - 1) / p as u64
        } else {
            0
        };
        self.settle(at, cat, cost, words);
        out
    }

    /// Compressed-precision all-gather: every member packs its own
    /// contribution, and every member widens **all** contributions —
    /// its own included — so the gathered vector is replicated
    /// bit-identically across ranks.
    fn allgather_packed(&self, data: Arc<Mat>, prec: Precision) -> Vec<Arc<Mat>> {
        let packed = Arc::new(PackedMat::pack(&data, prec));
        let fp = self.fingerprint(
            CollectiveKind::Allgather,
            None,
            None,
            prec.packed_dtype(),
            Shape::Unknown,
        );
        let (items, at) = self.exchange_raw(CollectiveKind::Allgather, fp, TxPayload::of(packed));
        let parts: Vec<Arc<PackedMat>> =
            items.into_iter().map(Self::downcast::<PackedMat>).collect();
        let p = self.size();
        let total: u64 = parts.iter().map(|x| x.comm_words()).sum();
        let out: Vec<Arc<Mat>> = parts.iter().map(|x| Arc::new(x.widen())).collect();
        let cost = self.model().allgather_time(p, total);
        let words = total * (p as u64 - 1) / p as u64;
        self.settle(at, prec.dense_cat(), cost, words);
        out
    }

    /// All-reduce (sum) of equally-shaped matrices; every rank returns the
    /// same sum, accumulated in member order (deterministic).
    ///
    /// Under a narrow wire precision (and `cat == DenseComm`), each
    /// contribution is rounded once by its sender and widened back to
    /// `f64` by every receiver; the sum itself is always accumulated in
    /// `f64` member order, so all ranks still return identical bits.
    pub fn allreduce_mat(&self, m: &Mat, cat: Cat) -> Mat {
        if let Some(prec) = self.packed_precision::<Mat>(cat) {
            return self.allreduce_mat_packed(m, prec);
        }
        let fp = self.fingerprint(
            CollectiveKind::AllreduceMat,
            None,
            None,
            std::any::type_name::<Mat>(),
            Shape::Dims(m.rows(), m.cols()),
        );
        let (items, at) = self.exchange_raw(
            CollectiveKind::AllreduceMat,
            fp,
            TxPayload::of(Arc::new(m.clone())),
        );
        let mut acc: Option<Mat> = None;
        for p in items {
            let part = Self::downcast::<Mat>(p);
            match &mut acc {
                None => acc = Some((*part).clone()),
                Some(a) => cagnet_dense::ops::add_assign(a, &part),
            }
        }
        let Some(out) = acc else {
            unreachable!("allreduce over an empty communicator")
        };
        let p = self.size();
        let w = out.len() as u64;
        let cost = self.model().allreduce_time(p, w);
        let words = if p > 1 {
            2 * w * (p as u64 - 1) / p as u64
        } else {
            0
        };
        self.settle(at, cat, cost, words);
        out
    }

    /// Compressed-precision [`Communicator::allreduce_mat`]: narrow on
    /// the wire, `f64` accumulation on receipt, every rank sums the
    /// identical widened parts in member order.
    fn allreduce_mat_packed(&self, m: &Mat, prec: Precision) -> Mat {
        let packed = Arc::new(PackedMat::pack(m, prec));
        let w = packed.comm_words();
        let fp = self.fingerprint(
            CollectiveKind::AllreduceMat,
            None,
            None,
            prec.packed_dtype(),
            Shape::Dims(m.rows(), m.cols()),
        );
        let (items, at) =
            self.exchange_raw(CollectiveKind::AllreduceMat, fp, TxPayload::of(packed));
        let mut acc: Option<Mat> = None;
        for p in items {
            let part = Self::downcast::<PackedMat>(p).widen();
            match &mut acc {
                None => acc = Some(part),
                Some(a) => cagnet_dense::ops::add_assign(a, &part),
            }
        }
        let Some(out) = acc else {
            unreachable!("allreduce over an empty communicator")
        };
        let p = self.size();
        let cost = self.model().allreduce_time(p, w);
        let words = 2 * w * (p as u64 - 1) / p as u64;
        self.settle(at, prec.dense_cat(), cost, words);
        out
    }

    /// All-reduce (sum) of scalars.
    pub fn allreduce_scalar(&self, x: f64, cat: Cat) -> f64 {
        let fp = self.fingerprint(
            CollectiveKind::AllreduceScalar,
            None,
            None,
            "f64",
            Shape::Words(1),
        );
        let (items, at) = self.exchange_raw(
            CollectiveKind::AllreduceScalar,
            fp,
            TxPayload::of(Arc::new(x)),
        );
        let sum: f64 = items.into_iter().map(|p| *Self::downcast::<f64>(p)).sum();
        let cost = self.model().allreduce_time(self.size(), 1);
        self.settle(at, cat, cost, if self.size() > 1 { 2 } else { 0 });
        sum
    }

    /// Reduce-scatter over block rows: every member contributes an equally
    /// shaped `n x f` matrix; member `i` receives row block `i` (balanced
    /// block distribution) of the elementwise sum, accumulated in member
    /// order from zeros.
    ///
    /// This is the primitive of the 1D backward pass (§IV-A.3): the
    /// low-rank outer products `A_i G_i` are reduce-scattered into block
    /// rows. Both ends are copy-free: the contribution enters the
    /// rendezvous as the shared handle the caller built it in (peers read
    /// their rows from it in place), and the reduced block is written
    /// over `out`, reusing its allocation.
    pub fn reduce_scatter_rows(&self, m: Arc<Mat>, out: &mut Mat, cat: Cat) {
        let p = self.size();
        let (r0, r1) = block_range(m.rows(), p, self.my_idx);
        out.reset(r1 - r0, m.cols());
        let mut fold = |part: &Mat| {
            assert_eq!(part.shape(), m.shape(), "reduce_scatter shape mismatch");
            for (oi, gi) in (r0..r1).enumerate() {
                for (d, s) in out.row_mut(oi).iter_mut().zip(part.row(gi)) {
                    *d += s;
                }
            }
        };
        if let Some(prec) = self.packed_precision::<Mat>(cat) {
            // Each contribution is rounded once by its sender; every rank
            // widens all parts and sums its own block rows in `f64`, so a
            // later all-gather of the blocks reassembles a
            // replica-consistent matrix.
            let packed = Arc::new(PackedMat::pack(&m, prec));
            let w = packed.comm_words();
            let fp = self.fingerprint(
                CollectiveKind::ReduceScatterRows,
                None,
                None,
                prec.packed_dtype(),
                Shape::Dims(m.rows(), m.cols()),
            );
            let (items, at) =
                self.exchange_raw(CollectiveKind::ReduceScatterRows, fp, TxPayload::of(packed));
            for item in items {
                fold(&Self::downcast::<PackedMat>(item).widen());
            }
            let cost = self.model().reduce_scatter_time(p, w);
            let words = w * (p as u64 - 1) / p as u64;
            self.settle(at, prec.dense_cat(), cost, words);
            return;
        }
        let fp = self.fingerprint(
            CollectiveKind::ReduceScatterRows,
            None,
            None,
            std::any::type_name::<Mat>(),
            Shape::Dims(m.rows(), m.cols()),
        );
        let (items, at) = self.exchange_raw(
            CollectiveKind::ReduceScatterRows,
            fp,
            TxPayload::of(m.clone()),
        );
        for item in items {
            fold(&Self::downcast::<Mat>(item));
        }
        let w = m.len() as u64;
        let cost = self.model().reduce_scatter_time(p, w);
        let words = if p > 1 {
            w * (p as u64 - 1) / p as u64
        } else {
            0
        };
        self.settle(at, cat, cost, words);
    }

    /// All-to-all personalized exchange: `parts[j]` is sent to member `j`;
    /// returns what each member sent to me, in member order. `parts` must
    /// have exactly `size` entries.
    pub fn alltoall<T: Any + Send + Sync + CommWords + Clone + Wire>(
        &self,
        parts: Vec<T>,
        cat: Cat,
    ) -> Vec<T> {
        assert_eq!(
            parts.len(),
            self.size(),
            "alltoall needs one part per member"
        );
        let fp = self.fingerprint(
            CollectiveKind::Alltoall,
            None,
            None,
            std::any::type_name::<T>(),
            Shape::Count(parts.len()),
        );
        let (items, at) =
            self.exchange_raw(CollectiveKind::Alltoall, fp, TxPayload::of(Arc::new(parts)));
        let all: Vec<Arc<Vec<T>>> = items.into_iter().map(Self::downcast::<Vec<T>>).collect();
        let out: Vec<T> = all.iter().map(|v| v[self.my_idx].clone()).collect();
        let p = self.size();
        let recv_words: u64 = out
            .iter()
            .enumerate()
            .filter(|(src, _)| *src != self.my_idx)
            .map(|(_, x)| x.comm_words())
            .sum();
        let cost = if p > 1 {
            self.model().alpha * (p - 1) as f64 + self.model().beta * recv_words as f64
        } else {
            0.0
        };
        self.settle(at, cat, cost, recv_words);
        out
    }

    /// Gather: every member contributes; only `root_idx` receives the
    /// full vector (others get `None`). Charged like an all-gather's
    /// bandwidth at the root, `α + β·w` at leaves.
    pub fn gather<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: T,
        cat: Cat,
    ) -> Option<Vec<Arc<T>>> {
        assert!(root_idx < self.size(), "gather root out of range");
        let fp = self.fingerprint(
            CollectiveKind::Gather,
            Some(root_idx),
            None,
            std::any::type_name::<T>(),
            Shape::Unknown,
        );
        let (items, at) =
            self.exchange_raw(CollectiveKind::Gather, fp, TxPayload::of(Arc::new(data)));
        let out: Vec<Arc<T>> = items.into_iter().map(Self::downcast::<T>).collect();
        let p = self.size();
        let total: u64 = out.iter().map(|x| x.comm_words()).sum();
        let mine = out[self.my_idx].comm_words();
        let (cost, words) = if p <= 1 {
            (0.0, 0)
        } else if self.my_idx == root_idx {
            (self.model().allgather_time(p, total), total - mine)
        } else {
            (self.model().p2p_time(mine), mine)
        };
        self.settle(at, cat, cost, words);
        (self.my_idx == root_idx).then_some(out)
    }

    /// Scatter: `root_idx` supplies one part per member (`Some(parts)` of
    /// length `size`); every member receives its part.
    pub fn scatter<T: Any + Send + Sync + CommWords + Clone + Wire>(
        &self,
        root_idx: usize,
        parts: Option<Vec<T>>,
        cat: Cat,
    ) -> T {
        assert!(root_idx < self.size(), "scatter root out of range");
        assert_eq!(
            parts.is_some(),
            root_idx == self.my_idx,
            "scatter: exactly the root must supply parts"
        );
        if let Some(p) = &parts {
            assert_eq!(p.len(), self.size(), "scatter needs one part per member");
        }
        let shape = match &parts {
            Some(p) => Shape::Count(p.len()),
            None => Shape::Unknown,
        };
        let fp = self.fingerprint(
            CollectiveKind::Scatter,
            Some(root_idx),
            None,
            std::any::type_name::<T>(),
            shape,
        );
        let payload = match parts {
            Some(p) => TxPayload::of(Arc::new(p)),
            None => TxPayload::unit(),
        };
        let (items, at) = self.exchange_raw(CollectiveKind::Scatter, fp, payload);
        let all = Self::downcast::<Vec<T>>(items[root_idx].clone());
        let mine = all[self.my_idx].clone();
        let p = self.size();
        let (cost, words) = if p <= 1 {
            (0.0, 0)
        } else if self.my_idx == root_idx {
            // `allgather_time` takes *total* words and applies the
            // (p−1)/p bandwidth discount itself, so the root charges the
            // full vector (its own part included, mirroring `gather`) and
            // records only the words actually sent to the leaves.
            let total: u64 = all.iter().map(|x| x.comm_words()).sum();
            let sent = total - all[root_idx].comm_words();
            (self.model().allgather_time(p, total), sent)
        } else {
            let w = mine.comm_words();
            (self.model().p2p_time(w), w)
        };
        self.settle(at, cat, cost, words);
        mine
    }

    /// Paired point-to-point exchange: send `outgoing` to `partner_idx`
    /// and receive its message. Both partners must call this at the same
    /// collective step; the rest of the group passes `None` as partner
    /// and participates only in the rendezvous (zero payload, zero
    /// charge).
    ///
    /// This is the bulk-synchronous send/recv used e.g. for pairwise
    /// block swaps in a distributed transpose (§IV-A.7).
    pub fn sendrecv<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        partner_idx: Option<usize>,
        outgoing: Option<T>,
        cat: Cat,
    ) -> Option<Arc<T>> {
        assert_eq!(
            partner_idx.is_some(),
            outgoing.is_some(),
            "sendrecv: payload must accompany a partner"
        );
        if let Some(p) = partner_idx {
            assert!(p < self.size(), "sendrecv partner out of range");
        }
        let fp = self.fingerprint(
            CollectiveKind::Sendrecv,
            None,
            partner_idx,
            std::any::type_name::<T>(),
            Shape::Unknown,
        );
        let payload = match outgoing {
            Some(d) => TxPayload::of(Arc::new(d)),
            None => TxPayload::unit(),
        };
        let (items, at) = self.exchange_raw(CollectiveKind::Sendrecv, fp, payload);
        match partner_idx {
            Some(partner) => {
                let msg = Self::downcast::<T>(items[partner].clone());
                let words = msg.comm_words();
                let cost = self.model().p2p_time(words);
                self.settle(at, cat, cost, words);
                Some(msg)
            }
            None => {
                self.settle(at, cat, 0.0, 0);
                None
            }
        }
    }

    /// Split into sub-communicators by color (MPI `comm_split` without the
    /// key argument: member order within a color follows parent order).
    pub fn split(&self, color: u64) -> Communicator {
        let seq_for_key = self.seq.get(); // same at every member pre-exchange
                                          // Colors are legitimately rank-dependent: wildcard shape.
        let fp = self.fingerprint(CollectiveKind::Split, None, None, "u64", Shape::Unknown);
        let (items, _) =
            self.exchange_raw(CollectiveKind::Split, fp, TxPayload::of(Arc::new(color)));
        let colors: Vec<u64> = items
            .into_iter()
            .map(|p| *Self::downcast::<u64>(p))
            .collect();
        let group: Vec<usize> = (0..self.size())
            .filter(|&i| colors[i] == color)
            .map(|i| self.members[i])
            .collect();
        let Some(my_pos) = group.iter().position(|&w| w == self.members[self.my_idx]) else {
            unreachable!("split: own color missing from own group")
        };
        let link = self.link.derive(seq_for_key, color, group.len());
        Communicator {
            link,
            registry: self.registry.clone(),
            members: Arc::new(group),
            my_idx: my_pos,
            meter: self.meter.clone(),
            seq: Cell::new(0),
            // Sub-communicators inherit the parent handle's *current*
            // precision, so a grid built after set_precision stays
            // consistent across all of its row/column groups.
            precision: Cell::new(self.precision.get()),
        }
    }
}

/// How a rendezvous completed for this rank: the group's latest entry
/// clock, where the collective's cost starts, and the payload bytes that
/// reached this rank over the wire (0 in shared memory).
#[derive(Clone, Copy)]
struct Arrival {
    tmax: f64,
    rx_bytes: u64,
}

/// What issuing a row gather leaves to do.
enum GatherIssue {
    /// `P = 1`: the root's own block, free.
    Ready(GatheredRows),
    /// Round one done, round two deposited.
    Served(ServedGather),
}

/// A row gather whose round two — the served rows — is in flight.
struct ServedGather {
    /// Round two's sequence number.
    seq: u64,
    /// Payload bytes received in round one.
    rx_bytes: u64,
    /// Metering category: the caller's, or the wire precision's.
    cat: Cat,
    prec: Option<Precision>,
    end: GatherEnd,
}

/// This rank's side of a row gather, as its completion needs it.
enum GatherEnd {
    /// The root: its own block, and how many rows it served.
    Root { block: Arc<Mat>, served: u64 },
    /// A receiver: its request and the dims it declared.
    Receiver {
        root_idx: usize,
        rows: Arc<Vec<usize>>,
        expect: Option<(usize, usize)>,
    },
}

/// Maps the full set of rendezvous deposits to this rank's result plus
/// the op's α–β cost and recordable words.
type Finisher<'c, T> = Box<dyn FnOnce(&Communicator, Vec<RxPayload>) -> (T, f64, u64) + 'c>;

enum PendingState<'c, T> {
    /// Single-rank fast path: the result was available at issue and the
    /// op is free, exactly like the blocking forms at `P = 1`.
    Ready(T),
    /// Rendezvous in flight: deposit made, completion pending.
    /// `rx_bytes` arrived at issue (a row gather's requests).
    InFlight {
        seq: u64,
        rx_bytes: u64,
        finish: Finisher<'c, T>,
    },
}

/// A nonblocking collective in flight, returned by
/// [`Communicator::ibcast`], [`Communicator::ibcast_shared`],
/// [`Communicator::igather_rows`], and [`Communicator::iallreduce_mat`].
///
/// The rendezvous deposit happened at issue time — peers can already
/// consume it, and CheckMode fingerprints ride along exactly as in the
/// blocking forms — so issuing is free and, for every collective but the
/// row gathers, never blocks: an issued row gather first runs its small
/// request rendezvous (round one, unmetered), because the root can serve
/// only rows it has been asked for.
/// [`PendingOp::wait`] blocks for the group, returns the payload, and
/// settles the α–β cost on the network lane: compute charged between
/// issue and wait covers the cost, and only the uncovered remainder
/// advances the clock (metered split: [`Cat::Overlapped`] vs. the op's
/// category; see DESIGN.md §10).
///
/// Every issued op **must** be waited on every control-flow path:
/// dropping a `PendingOp` without `wait()` panics with a diagnostic,
/// because the unconsumed rendezvous slot and the uncharged cost would
/// silently corrupt the run.
#[must_use = "a nonblocking collective must be wait()ed"]
pub struct PendingOp<'c, T> {
    comm: &'c Communicator,
    kind: CollectiveKind,
    cat: Cat,
    state: Option<PendingState<'c, T>>,
}

impl<'c, T> PendingOp<'c, T> {
    fn ready(comm: &'c Communicator, kind: CollectiveKind, cat: Cat, value: T) -> Self {
        PendingOp {
            comm,
            kind,
            cat,
            state: Some(PendingState::Ready(value)),
        }
    }

    fn in_flight(
        comm: &'c Communicator,
        kind: CollectiveKind,
        cat: Cat,
        seq: u64,
        rx_bytes: u64,
        finish: Finisher<'c, T>,
    ) -> Self {
        PendingOp {
            comm,
            kind,
            cat,
            state: Some(PendingState::InFlight {
                seq,
                rx_bytes,
                finish,
            }),
        }
    }

    /// Which collective this handle belongs to (diagnostic label).
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// Complete the op: block until every member's deposit is present,
    /// verify fingerprints (when checking), settle the uncovered
    /// remainder of the α–β cost, and return the payload.
    pub fn wait(mut self) -> T {
        let Some(state) = self.state.take() else {
            unreachable!("PendingOp waited twice")
        };
        match state {
            PendingState::Ready(v) => v,
            PendingState::InFlight {
                seq,
                rx_bytes,
                finish,
            } => {
                let (items, mut at) = self.comm.complete_raw(self.kind, seq);
                at.rx_bytes += rx_bytes;
                let (out, cost, words) = finish(self.comm, items);
                self.comm.settle_overlapped(at, self.cat, cost, words);
                out
            }
        }
    }
}

impl<T> Drop for PendingOp<'_, T> {
    fn drop(&mut self) {
        let Some(state) = &self.state else { return };
        if std::thread::panicking() {
            return;
        }
        let at = match state {
            PendingState::Ready(_) => String::from("single-rank"),
            PendingState::InFlight { seq, .. } => format!("seq {seq}"),
        };
        panic!(
            "rank {} dropped a pending {} on comm {} ({at}) without wait(): every \
             nonblocking collective must be completed on all control-flow paths",
            self.comm.world_rank(),
            self.kind,
            self.comm.link.id()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn bcast_delivers_root_payload() {
        let results = Cluster::new(4).run(|ctx| {
            let data = if ctx.world.my_idx() == 2 {
                Some(vec![1.0, 2.0, 3.0])
            } else {
                None
            };
            let got = ctx.world.bcast(2, data, Cat::DenseComm);
            got.as_ref().clone()
        });
        for (r, _) in results {
            assert_eq!(r, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn allgather_orders_by_member() {
        let results = Cluster::new(3).run(|ctx| {
            let got = ctx.world.allgather(vec![ctx.rank as f64], Cat::DenseComm);
            got.iter().map(|v| v[0]).collect::<Vec<f64>>()
        });
        for (r, _) in results {
            assert_eq!(r, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn allreduce_mat_sums() {
        let results = Cluster::new(4).run(|ctx| {
            let m = Mat::filled(2, 2, (ctx.rank + 1) as f64);
            ctx.world.allreduce_mat(&m, Cat::DenseComm)
        });
        for (r, _) in results {
            assert!(r.approx_eq(&Mat::filled(2, 2, 10.0), 1e-12));
        }
    }

    #[test]
    fn allreduce_scalar_sums() {
        let results =
            Cluster::new(5).run(|ctx| ctx.world.allreduce_scalar(ctx.rank as f64, Cat::DenseComm));
        for (r, _) in results {
            assert_eq!(r, 10.0);
        }
    }

    #[test]
    fn reduce_scatter_rows_gives_block_of_sum() {
        let results = Cluster::new(2).run(|ctx| {
            // Both ranks contribute a 4x1 matrix of their rank+1.
            let m = Arc::new(Mat::filled(4, 1, (ctx.rank + 1) as f64));
            let mut out = Mat::zeros(0, 0);
            ctx.world.reduce_scatter_rows(m, &mut out, Cat::DenseComm);
            out
        });
        // Sum is all-3s; rank 0 gets rows 0..2, rank 1 rows 2..4.
        for (r, _) in &results {
            assert_eq!(r.shape(), (2, 1));
            assert!(r.approx_eq(&Mat::filled(2, 1, 3.0), 1e-12));
        }
    }

    #[test]
    fn alltoall_routes_parts() {
        let results = Cluster::new(3).run(|ctx| {
            let parts: Vec<f64> = (0..3).map(|j| (ctx.rank * 10 + j) as f64).collect();
            ctx.world.alltoall(parts, Cat::DenseComm)
        });
        for (rank, (r, _)) in results.iter().enumerate() {
            // From src j I receive j*10 + my_rank.
            let expect: Vec<f64> = (0..3).map(|j| (j * 10 + rank) as f64).collect();
            assert_eq!(*r, expect);
        }
    }

    #[test]
    fn split_forms_correct_groups() {
        let results = Cluster::new(6).run(|ctx| {
            let color = (ctx.rank % 2) as u64;
            let sub = ctx.world.split(color);
            // Members of my subgroup, via allgather on the subgroup.
            let got = sub.allgather(vec![ctx.rank as f64], Cat::DenseComm);
            (
                sub.size(),
                sub.my_idx(),
                got.iter().map(|v| v[0] as usize).collect::<Vec<_>>(),
            )
        });
        for (rank, ((size, idx, members), _)) in results.iter().enumerate() {
            assert_eq!(*size, 3);
            let expect: Vec<usize> = (0..6).filter(|r| r % 2 == rank % 2).collect();
            assert_eq!(*members, expect);
            assert_eq!(expect[*idx], rank);
        }
    }

    #[test]
    fn gather_collects_at_root_only() {
        let results = Cluster::new(4).run(|ctx| {
            let got = ctx.world.gather(1, vec![ctx.rank as f64], Cat::DenseComm);
            got.map(|v| v.iter().map(|x| x[0]).collect::<Vec<f64>>())
        });
        for (rank, (r, _)) in results.iter().enumerate() {
            if rank == 1 {
                assert_eq!(r.as_deref(), Some(&[0.0, 1.0, 2.0, 3.0][..]));
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes_parts() {
        let results = Cluster::new(3).run(|ctx| {
            let parts = (ctx.rank == 2).then(|| vec![10.0f64, 20.0, 30.0]);
            ctx.world.scatter(2, parts, Cat::DenseComm)
        });
        assert_eq!(results[0].0, 10.0);
        assert_eq!(results[1].0, 20.0);
        assert_eq!(results[2].0, 30.0);
    }

    #[test]
    fn sendrecv_pairs_exchange() {
        let results = Cluster::new(4).run(|ctx| {
            // 0<->1 swap; 2 and 3 sit out.
            let partner = match ctx.rank {
                0 => Some(1),
                1 => Some(0),
                _ => None,
            };
            let payload = partner.map(|_| vec![ctx.rank as f64 * 100.0]);
            ctx.world
                .sendrecv(partner, payload, Cat::DenseComm)
                .map(|m| m[0])
        });
        assert_eq!(results[0].0, Some(100.0));
        assert_eq!(results[1].0, Some(0.0));
        assert_eq!(results[2].0, None);
        assert_eq!(results[3].0, None);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let results = Cluster::new(4).run(|ctx| {
            let gathered = ctx
                .world
                .gather(0, vec![(ctx.rank + 1) as f64], Cat::DenseComm);
            let parts = gathered.map(|g| g.iter().map(|v| v.as_ref().clone()).collect::<Vec<_>>());
            let back = ctx.world.scatter(0, parts, Cat::DenseComm);
            back[0]
        });
        for (rank, (r, _)) in results.iter().enumerate() {
            assert_eq!(*r, (rank + 1) as f64);
        }
    }

    #[test]
    fn bsp_clock_takes_group_max() {
        let results = Cluster::new(2).run(|ctx| {
            // Rank 1 does more local work before the barrier.
            if ctx.rank == 1 {
                ctx.charge(Cat::Misc, 5.0);
            }
            ctx.world.barrier();
            ctx.clock()
        });
        let barrier_cost = CostModel::summit_like().barrier_time(2);
        for (clock, _) in results {
            assert!((clock - (5.0 + barrier_cost)).abs() < 1e-12);
        }
    }

    #[test]
    fn traffic_words_match_formulas() {
        let results = Cluster::new(4).run(|ctx| {
            let data = if ctx.rank == 0 {
                Some(Mat::zeros(10, 10))
            } else {
                None
            };
            ctx.world.bcast(0, data, Cat::DenseComm);
            ctx.report()
        });
        for (rep, _) in results {
            assert_eq!(rep.words(Cat::DenseComm), 100);
            assert_eq!(rep.messages(Cat::DenseComm), 1);
        }
    }

    #[test]
    fn single_rank_runs_without_cost() {
        let results = Cluster::new(1).run(|ctx| {
            ctx.world.barrier();
            let m = ctx
                .world
                .allreduce_mat(&Mat::filled(2, 2, 3.0), Cat::DenseComm);
            (m, ctx.clock())
        });
        let ((m, clock), rep) = &results[0];
        assert!(m.approx_eq(&Mat::filled(2, 2, 3.0), 0.0));
        assert_eq!(*clock, 0.0);
        assert_eq!(rep.comm_words(), 0);
    }

    #[test]
    fn bcast_shared_skips_root_copy() {
        let results = Cluster::new(3).run(|ctx| {
            let mine = Arc::new(Mat::filled(4, 2, ctx.rank as f64));
            let payload = (ctx.rank == 1).then(|| mine.clone());
            let got = ctx.world.bcast_shared(1, payload, Cat::DenseComm);
            (Arc::ptr_eq(&got, &mine), got.as_ref().clone())
        });
        for (rank, ((same_alloc, m), _)) in results.iter().enumerate() {
            // The root's own allocation travels; no clone anywhere.
            assert_eq!(*same_alloc, rank == 1);
            assert!(m.approx_eq(&Mat::filled(4, 2, 1.0), 0.0));
        }
    }

    #[test]
    fn bcast_shared_charges_like_bcast() {
        let run = |shared: bool| {
            Cluster::new(4).run(move |ctx| {
                if shared {
                    let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(10, 10)));
                    ctx.world.bcast_shared(0, payload, Cat::DenseComm);
                } else {
                    let payload = (ctx.rank == 0).then(|| Mat::zeros(10, 10));
                    ctx.world.bcast(0, payload, Cat::DenseComm);
                }
                ctx.report()
            })
        };
        for ((a, _), (b, _)) in run(true).iter().zip(run(false).iter()) {
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.words(Cat::DenseComm), b.words(Cat::DenseComm));
            assert_eq!(a.messages(Cat::DenseComm), b.messages(Cat::DenseComm));
        }
    }

    #[test]
    fn allgather_shared_skips_contributor_copies() {
        let results = Cluster::new(3).run(|ctx| {
            let mine = Arc::new(Mat::filled(2, 2, ctx.rank as f64));
            let got = ctx.world.allgather_shared(mine.clone(), Cat::DenseComm);
            (
                Arc::ptr_eq(&got[ctx.rank], &mine),
                got.iter().map(|m| m[(0, 0)]).collect::<Vec<f64>>(),
            )
        });
        for ((same_alloc, vals), _) in results {
            // Every rank's own allocation travels; no clone anywhere.
            assert!(same_alloc);
            assert_eq!(vals, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn allgather_shared_charges_like_allgather() {
        let run = |shared: bool| {
            Cluster::new(4).run(move |ctx| {
                if shared {
                    let m = Arc::new(Mat::zeros(5, 3));
                    ctx.world.allgather_shared(m, Cat::DenseComm);
                } else {
                    ctx.world.allgather(Mat::zeros(5, 3), Cat::DenseComm);
                }
                ctx.report()
            })
        };
        for ((a, _), (b, _)) in run(true).iter().zip(run(false).iter()) {
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.words(Cat::DenseComm), b.words(Cat::DenseComm));
            assert_eq!(a.messages(Cat::DenseComm), b.messages(Cat::DenseComm));
        }
    }

    #[test]
    fn gather_rows_delivers_compact_requested_rows() {
        let results = Cluster::new(3).run(|ctx| {
            let block = Arc::new(Mat::from_fn(6, 2, |i, j| (10 * i + j) as f64));
            let payload = (ctx.rank == 1).then(|| block.clone());
            let needed: Vec<usize> = vec![ctx.rank, ctx.rank + 3];
            let got = ctx
                .world
                .gather_rows(1, payload, &needed, Some((6, 2)), Cat::DenseComm);
            (
                Arc::ptr_eq(got.mat(), &block),
                got.rows().map(|r| r.to_vec()),
                got.mat().as_ref().clone(),
            )
        });
        for (rank, ((same_alloc, rows, m), _)) in results.iter().enumerate() {
            if rank == 1 {
                // Root keeps its own allocation, fully populated.
                assert!(*same_alloc);
                assert!(rows.is_none());
                assert!(m.approx_eq(&Mat::from_fn(6, 2, |i, j| (10 * i + j) as f64), 0.0));
            } else {
                // Receivers hold exactly the requested rows, in order.
                assert!(!*same_alloc);
                assert_eq!(m.shape(), (2, 2));
                assert_eq!(rows.as_deref(), Some(&[rank, rank + 3][..]));
                for (pos, src) in [rank, rank + 3].into_iter().enumerate() {
                    for j in 0..2 {
                        assert_eq!(m[(pos, j)], (10 * src + j) as f64, "rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_rows_receiver_allocation_is_compact() {
        // Regression (receiver memory = O(k·f), not O(n·f)): against a
        // 512-row block, a 3-row request must come back as a 3-row
        // matrix, and compact() must be the identity on it.
        let results = Cluster::new(2).run(|ctx| {
            let block = Arc::new(Mat::from_fn(512, 4, |i, j| (i * 4 + j) as f64));
            let payload = (ctx.rank == 0).then(|| block.clone());
            let needed: Vec<usize> = vec![7, 100, 511];
            let got = ctx
                .world
                .gather_rows(0, payload, &needed, Some((512, 4)), Cat::DenseComm);
            let compact = got.compact(&needed);
            (
                got.mat().shape(),
                Arc::ptr_eq(&compact, got.mat()),
                compact.as_ref().clone(),
            )
        });
        let ((shape, identity, compact), _) = &results[1];
        assert_eq!(*shape, (3, 4), "receiver must not allocate the full block");
        assert!(*identity, "compact() on a compact result must not copy");
        for (pos, src) in [7usize, 100, 511].into_iter().enumerate() {
            for j in 0..4 {
                assert_eq!(compact[(pos, j)], (src * 4 + j) as f64);
            }
        }
        // The root's compact() extracts the same operand from its block.
        let ((root_shape, _, root_compact), _) = &results[0];
        assert_eq!(*root_shape, (512, 4));
        assert!(root_compact.approx_eq(compact, 0.0));
    }

    #[test]
    #[should_panic(expected = "receiver-declared dims")]
    fn gather_rows_rejects_wrong_expected_dims() {
        // CheckMode off: this pins the runtime assert, which guards even
        // unchecked runs (the fingerprint path has its own test in
        // crates/comm/tests/check_faults.rs).
        Cluster::new(2).with_check(CheckMode::Off).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(4, 3)));
            // Receiver declares the wrong row count; caught even with
            // CheckMode off.
            let expect = Some(if ctx.rank == 0 { (4, 3) } else { (5, 3) });
            ctx.world
                .gather_rows(0, payload, &[1], expect, Cat::DenseComm);
        });
    }

    #[test]
    fn gather_rows_words_counted_once_at_receivers() {
        // 8x4 block; rank r != 0 requests r+1 rows: words = k·(cols+1).
        let results = Cluster::new(3).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(8, 4)));
            let needed: Vec<usize> = (0..=ctx.rank).collect();
            ctx.world
                .gather_rows(0, payload, &needed, Some((8, 4)), Cat::DenseComm);
            ctx.report()
        });
        assert_eq!(results[0].0.words(Cat::DenseComm), 0); // root serves, records nothing
        assert_eq!(results[1].0.words(Cat::DenseComm), 2 * 5);
        assert_eq!(results[2].0.words(Cat::DenseComm), 3 * 5);
        for (rep, _) in &results {
            assert_eq!(rep.messages(Cat::DenseComm), 1);
        }
    }

    #[test]
    fn gather_rows_cost_matches_alpha_beta_formulas() {
        let model = CostModel::summit_like();
        let (alpha, beta) = (model.alpha, model.beta);
        let results = Cluster::new(4).with_model(model).run(|ctx| {
            let payload = (ctx.rank == 2).then(|| Arc::new(Mat::zeros(10, 5)));
            let needed: Vec<usize> = (0..2 * ctx.rank + 1).collect();
            ctx.world
                .gather_rows(2, payload, &needed, Some((10, 5)), Cat::DenseComm);
            ctx.clock()
        });
        // Served rows from ranks 0, 1, 3: 1 + 3 + 7 = 11, each 6 words.
        let root_cost = alpha * 3.0 + beta * (11.0 * 6.0);
        for (rank, (clock, _)) in results.iter().enumerate() {
            let expect = if rank == 2 {
                root_cost
            } else {
                alpha * 2.0 + beta * ((2 * rank + 1) as f64 * 6.0)
            };
            assert!(
                (clock - expect).abs() < 1e-15,
                "rank {rank}: clock {clock} vs {expect}"
            );
        }
    }

    #[test]
    fn gather_rows_single_rank_is_free() {
        let results = Cluster::new(1).run(|ctx| {
            let block = Arc::new(Mat::filled(3, 3, 7.0));
            let got = ctx.world.gather_rows(
                0,
                Some(block.clone()),
                &[0, 2],
                Some((3, 3)),
                Cat::DenseComm,
            );
            (Arc::ptr_eq(got.mat(), &block), ctx.clock(), ctx.report())
        });
        let ((same, clock, rep), _) = &results[0];
        assert!(same);
        assert_eq!(*clock, 0.0);
        assert_eq!(rep.comm_words(), 0);
    }

    #[test]
    fn gather_rows_verifies_under_check_mode() {
        use cagnet_check::CheckMode;
        let results = Cluster::new(3).with_check(CheckMode::On).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::filled(4, 2, 1.0)));
            let got = ctx
                .world
                .gather_rows(0, payload, &[ctx.rank], Some((4, 2)), Cat::DenseComm);
            got.compact(&[ctx.rank])[(0, 0)]
        });
        for (v, _) in results {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn gather_rows_serves_an_empty_request() {
        let model = CostModel::summit_like();
        let alpha = model.alpha;
        let results = Cluster::new(3).with_model(model).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::filled(5, 2, 3.0)));
            let needed: Vec<usize> = if ctx.rank == 2 { vec![] } else { vec![4] };
            let got = ctx
                .world
                .gather_rows(0, payload, &needed, Some((5, 2)), Cat::DenseComm);
            let mut out = Mat::filled(7, 7, 1.0);
            got.compact_into(&needed, &mut out);
            (out, ctx.report())
        });
        let ((empty, rep), _) = &results[2];
        assert_eq!(empty.shape(), (0, 2));
        // No rows, no words — but the rendezvous still costs 2α.
        assert_eq!(rep.words(Cat::DenseComm), 0);
        assert_eq!(rep.messages(Cat::DenseComm), 1);
        assert_eq!(rep.clock, 2.0 * alpha);
        assert!(results[1].0 .0.approx_eq(&Mat::filled(1, 2, 3.0), 0.0));
    }

    #[test]
    #[should_panic(expected = "requested row 4 out of range for the 4-row block")]
    fn gather_rows_root_refuses_rows_past_its_block() {
        Cluster::new(2).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(4, 2)));
            ctx.world
                .gather_rows(0, payload, &[1, 4], None, Cat::DenseComm);
        });
    }

    /// A socket receiver's part as it arrives: at `at` in a larger body.
    fn received_part(block: &Mat, rows: &[usize], prec: Precision) -> RxPayload {
        let mut body = vec![0xEE; 5];
        RowsPart::put(&mut body, block, rows, prec);
        let range = 5..body.len();
        body.extend_from_slice(&[0xEE; 3]);
        RxPayload::Remote {
            body: Arc::new(body),
            range,
        }
    }

    #[test]
    fn served_parts_that_disagree_with_the_request_are_named_protocol_errors() {
        let block = Mat::from_fn(6, 3, |i, j| (i * 3 + j) as f64);
        let request = |rows: &[usize]| Arc::new(rows.to_vec());
        let refused = |payload: &RxPayload, rows: &[usize], expect, prec| match GatheredRows::served(
            payload,
            request(rows),
            expect,
            prec,
        ) {
            Err(why) => why,
            Ok(_) => panic!("a mismatched part must be refused"),
        };
        let two_rows = received_part(&block, &[1, 5], Precision::F64);
        let why = refused(&two_rows, &[1, 2, 5], Some((6, 3)), None);
        assert!(
            why.contains("protocol error") && why.contains("2 rows for a 3-row request"),
            "{why}"
        );
        let why = refused(&two_rows, &[1, 5], Some((7, 3)), None);
        assert!(why.contains("receiver-declared dims"), "{why}");
        let why = refused(&two_rows, &[1, 5], None, Some(Precision::F32));
        assert!(
            why.contains("protocol error") && why.contains("f64"),
            "{why}"
        );
        let mut garbled = received_part(&block, &[1, 5], Precision::F64);
        if let RxPayload::Remote { range, .. } = &mut garbled {
            range.end -= 1;
        }
        let why = refused(&garbled, &[1, 5], None, None);
        assert!(why.contains("do not decode"), "{why}");

        // An agreeing part decodes straight into the caller's buffer.
        let Ok(got) = GatheredRows::served(&two_rows, request(&[1, 5]), Some((6, 3)), None) else {
            panic!("an agreeing part is accepted")
        };
        let mut out = Mat::zeros(0, 0);
        got.compact_into(&[1, 5], &mut out);
        assert_eq!(out, block.select_rows(&[1, 5]));
        assert_eq!((got.cols(), got.rows()), (3, Some(&[1usize, 5][..])));
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn gather_rows_rejects_unsorted_request() {
        Cluster::new(1).run(|ctx| {
            let block = Arc::new(Mat::zeros(4, 1));
            ctx.world
                .gather_rows(0, Some(block), &[2, 1], None, Cat::DenseComm);
        });
    }

    #[test]
    fn scatter_root_charges_full_allgather_volume() {
        // Audit pin: the root passes *total* words (its own part included)
        // to allgather_time; the (p−1)/p discount is applied exactly once.
        let model = CostModel::summit_like();
        let expect = model.allgather_time(4, 4 * 6);
        let results = Cluster::new(4).with_model(model).run(|ctx| {
            let parts = (ctx.rank == 0).then(|| vec![vec![0.0f64; 6]; 4]);
            ctx.world.scatter(0, parts, Cat::DenseComm);
            (ctx.clock(), ctx.report())
        });
        let ((root_clock, root_rep), _) = &results[0];
        assert!((root_clock - expect).abs() < 1e-15);
        // Root records only the 3 parts actually sent.
        assert_eq!(root_rep.words(Cat::DenseComm), 3 * 6);
    }

    #[test]
    fn ibcast_hides_cost_behind_compute() {
        let results = Cluster::new(2).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(100, 100)));
            let op = ctx.world.ibcast_shared(0, payload, Cat::DenseComm);
            ctx.charge(Cat::Spmm, 1.0); // far larger than the bcast cost
            let got = op.wait();
            (got.as_ref().clone(), ctx.report())
        });
        let cost = CostModel::summit_like().bcast_time(2, 100 * 100);
        for (rank, ((m, rep), _)) in results.iter().enumerate() {
            assert_eq!(m.shape(), (100, 100), "rank {rank}");
            // Fully hidden: no clock movement beyond compute, full cost
            // metered as Overlapped, words recorded as in blocking mode.
            assert!((rep.seconds(Cat::Overlapped) - cost).abs() < 1e-15);
            assert_eq!(rep.seconds(Cat::DenseComm), 0.0);
            assert!((rep.clock - 1.0).abs() < 1e-12);
            assert_eq!(rep.words(Cat::DenseComm), 100 * 100);
            assert_eq!(rep.messages(Cat::DenseComm), 1);
        }
    }

    #[test]
    fn immediate_wait_charges_like_blocking() {
        // With no compute between issue and wait, the nonblocking forms
        // must charge exactly like their blocking counterparts.
        let run = |nonblocking: bool| {
            Cluster::new(4).run(move |ctx| {
                let payload = (ctx.rank == 1).then(|| Arc::new(Mat::zeros(10, 10)));
                if nonblocking {
                    let _ = ctx.world.ibcast_shared(1, payload, Cat::DenseComm).wait();
                    let m = Mat::filled(3, 3, ctx.rank as f64);
                    let _ = ctx.world.iallreduce_mat(&m, Cat::DenseComm).wait();
                } else {
                    ctx.world.bcast_shared(1, payload, Cat::DenseComm);
                    let m = Mat::filled(3, 3, ctx.rank as f64);
                    ctx.world.allreduce_mat(&m, Cat::DenseComm);
                }
                ctx.report()
            })
        };
        for ((a, _), (b, _)) in run(true).iter().zip(run(false).iter()) {
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.seconds(Cat::DenseComm), b.seconds(Cat::DenseComm));
            assert_eq!(a.seconds(Cat::Overlapped), 0.0);
            assert_eq!(a.words(Cat::DenseComm), b.words(Cat::DenseComm));
            assert_eq!(a.messages(Cat::DenseComm), b.messages(Cat::DenseComm));
        }
    }

    #[test]
    fn iallreduce_mat_sums_in_member_order() {
        let results = Cluster::new(4).run(|ctx| {
            let m = Mat::filled(2, 2, (ctx.rank + 1) as f64);
            let op = ctx.world.iallreduce_mat(&m, Cat::DenseComm);
            ctx.charge(Cat::Gemm, 1.0);
            (op.wait(), ctx.report())
        });
        for ((sum, rep), _) in results {
            assert!(sum.approx_eq(&Mat::filled(2, 2, 10.0), 1e-12));
            assert!(rep.seconds(Cat::Overlapped) > 0.0);
        }
    }

    #[test]
    fn igather_rows_matches_blocking_form() {
        let run = |nonblocking: bool| {
            Cluster::new(3).run(move |ctx| {
                let block = Arc::new(Mat::from_fn(6, 2, |i, j| (10 * i + j) as f64));
                let payload = (ctx.rank == 1).then(|| block.clone());
                let needed: Vec<usize> = vec![ctx.rank, ctx.rank + 3];
                let got = if nonblocking {
                    ctx.world
                        .igather_rows(1, payload, &needed, Some((6, 2)), Cat::DenseComm)
                        .wait()
                } else {
                    ctx.world
                        .gather_rows(1, payload, &needed, Some((6, 2)), Cat::DenseComm)
                };
                (got.compact(&needed).as_ref().clone(), ctx.report())
            })
        };
        for ((a, ra), (b, rb)) in run(true)
            .into_iter()
            .map(|(r, _)| r)
            .zip(run(false).into_iter().map(|(r, _)| r))
        {
            assert!(a.approx_eq(&b, 0.0));
            assert_eq!(ra.clock, rb.clock);
            assert_eq!(ra.words(Cat::DenseComm), rb.words(Cat::DenseComm));
        }
    }

    #[test]
    fn multiple_pending_ops_share_the_network_lane() {
        // Two ops in flight at once: the modeled NIC serializes their
        // costs, both hide behind a long compute charge.
        let results = Cluster::new(2).run(|ctx| {
            let p0 = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(50, 50)));
            let op0 = ctx.world.ibcast_shared(0, p0, Cat::DenseComm);
            let p1 = (ctx.rank == 1).then(|| Arc::new(Mat::zeros(50, 50)));
            let op1 = ctx.world.ibcast_shared(1, p1, Cat::DenseComm);
            ctx.charge(Cat::Spmm, 1.0);
            let a = op0.wait();
            let b = op1.wait();
            (a.shape(), b.shape(), ctx.report())
        });
        let cost = CostModel::summit_like().bcast_time(2, 2500);
        for ((sa, sb, rep), _) in results {
            assert_eq!(sa, (50, 50));
            assert_eq!(sb, (50, 50));
            assert!((rep.seconds(Cat::Overlapped) - 2.0 * cost).abs() < 1e-12);
            assert!((rep.clock - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_rank_pending_ops_are_free() {
        let results = Cluster::new(1).run(|ctx| {
            let block = Arc::new(Mat::filled(3, 3, 7.0));
            let a = ctx
                .world
                .ibcast_shared(0, Some(block.clone()), Cat::DenseComm)
                .wait();
            let b = ctx
                .world
                .igather_rows(
                    0,
                    Some(block.clone()),
                    &[0, 2],
                    Some((3, 3)),
                    Cat::DenseComm,
                )
                .wait();
            let c = ctx
                .world
                .iallreduce_mat(&Mat::filled(2, 2, 3.0), Cat::DenseComm)
                .wait();
            (
                Arc::ptr_eq(&a, &block),
                Arc::ptr_eq(b.mat(), &block),
                c,
                ctx.clock(),
            )
        });
        let ((a_same, b_same, c, clock), rep) = &results[0];
        assert!(*a_same && *b_same);
        assert!(c.approx_eq(&Mat::filled(2, 2, 3.0), 0.0));
        assert_eq!(*clock, 0.0);
        assert_eq!(rep.comm_words(), 0);
    }

    #[test]
    fn ibcast_verifies_under_check_mode() {
        use cagnet_check::CheckMode;
        let results = Cluster::new(3).with_check(CheckMode::On).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::filled(4, 2, 1.0)));
            let op = ctx.world.ibcast_shared(0, payload, Cat::DenseComm);
            ctx.charge(Cat::Spmm, 1e-3);
            op.wait()[(0, 0)]
        });
        for (v, _) in results {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn dropped_pending_op_aborts_with_diagnostic() {
        let cluster = Cluster::new(2).with_timeout(Duration::from_secs(5));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(2, 2)));
                let op = ctx.world.ibcast_shared(0, payload, Cat::DenseComm);
                drop(op);
            })
        }));
        let err = result.expect_err("dropping a pending op must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("without wait()"),
            "diagnostic should name the dropped pending op, got: {msg}"
        );
    }

    #[test]
    fn deadlock_detection_panics() {
        let cluster = Cluster::new(2).with_timeout(Duration::from_millis(100));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                if ctx.rank == 0 {
                    ctx.world.barrier(); // rank 1 never joins
                }
            })
        }));
        assert!(result.is_err(), "mismatched collectives must panic");
    }
}
