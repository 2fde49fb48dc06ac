//! MPI-style communicators, generic over the transport backend.
//!
//! Every rank of a simulated cluster holds a [`Communicator`] handle per
//! process group (world, grid row, grid column, fiber, ...). Collectives
//! are **bulk-synchronous**: all members must call the same collectives in
//! the same order, exactly as the paper's NCCL-backed implementation
//! requires. Payloads move through each rank's link into the members'
//! mailboxes — `Arc` pointer copies on the shared-memory backend, framed
//! bytes over Unix sockets on the multi-process backend (see
//! [`crate::transport`]) — while all *costs*
//! are charged through the α–β model of [`crate::cost::CostModel`] onto
//! each rank's [`crate::timeline::Timeline`].
//!
//! Every collective runs one path: *issue* deposits this rank's payload
//! at its entry clock, *wait* collects every member's deposit, and one
//! settle charges the cost (DESIGN.md §10). Time semantics (BSP): the
//! cost occupies the network lane from `max(entry clocks)`, so a
//! collective waited on at once leaves every participant's clock at
//! `max(entry clocks) + modeled cost`, and compute charged between issue
//! and wait hides it. The bandwidth-term word count is recorded under
//! the caller-supplied category ([`Cat::DenseComm`] or
//! [`Cat::SparseComm`]). Entry clocks, fingerprint verification, and
//! deterministic member-order reductions all live here, above the link,
//! which is why results are bit-identical across backends.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::cluster::Cluster;
use crate::cost::{Cat, CommWords, CostModel};
use crate::diag::Diagnostics;
use crate::frame::{PackedMat, Precision, RowsPart, Wire};
use crate::timeline::Meter;
use crate::transport::{
    CollectError, Leg, Link, Mailbox, RxPayload, TxDeposit, TxPayload, WORLD_COMM_ID,
};
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
                    .map_or(0, |r| RowsPart::encoded_len(r.len(), cols, prec, false))
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

/// A reduce-scatter contribution in the rendezvous (DESIGN.md §9): the
/// sender's whole matrix, cut into one part per member — that member's
/// row block or, given send sets, only the rows of it the matrix can make
/// nonzero. Shared-memory members read their part from the matrix
/// itself; over sockets each member is sent its part as a [`RowsPart`]
/// encoded straight from the matrix, and the sender's own part is empty.
struct ReducedRows {
    m: Arc<Mat>,
    /// Per member, the rows of its block the matrix can make nonzero.
    sends: Option<Arc<Vec<Vec<usize>>>>,
    /// Wire precision of the values; `None` sends them exact.
    prec: Option<Precision>,
    /// Members of the communicator.
    p: usize,
    /// The sender's member index.
    from: usize,
}

impl ReducedRows {
    fn block(&self, j: usize) -> Range<usize> {
        let (r0, r1) = block_range(self.m.rows(), self.p, j);
        r0..r1
    }

    /// The rows of member `j`'s block its part carries with their
    /// indices: its send set, unless the whole block is not more words.
    fn index(&self, j: usize) -> Option<&[usize]> {
        let rows = &self.sends.as_ref()?[j];
        let f = self.m.cols();
        (part_words(rows.len(), true, f, self.prec)
            < part_words(self.block(j).len(), false, f, self.prec))
        .then_some(rows)
    }

    /// Encoded length of each member's part.
    fn part_lens(&self) -> Vec<usize> {
        let (f, prec) = (self.m.cols(), self.prec.unwrap_or(Precision::F64));
        (0..self.p)
            .map(|j| match (j == self.from, self.index(j)) {
                (true, _) => 0,
                (false, Some(rows)) => RowsPart::encoded_len(rows.len(), f, prec, true),
                (false, None) => RowsPart::encoded_len(self.block(j).len(), f, prec, false),
            })
            .collect()
    }

    fn into_payload(self) -> TxPayload {
        let lens = self.part_lens();
        let total = lens.iter().sum();
        TxPayload::parted(Arc::new(self), &lens, move |c, out| {
            out.reserve(total);
            let prec = c.prec.unwrap_or(Precision::F64);
            for j in (0..c.p).filter(|&j| j != c.from) {
                RowsPart::put_block(out, &c.m, c.block(j), c.index(j), prec);
            }
        })
    }

    /// Add this contribution's part for member `to` into `to`'s block
    /// `out`, each value rounded to the wire precision; returns the words
    /// the part carries.
    fn add_into(&self, to: usize, out: &mut Mat) -> u64 {
        let (block, f) = (self.block(to), self.m.cols());
        let src = &self.m.as_slice()[block.start * f..block.end * f];
        match self.index(to) {
            Some(rows) => {
                for &r in rows {
                    add_rounded(out.row_mut(r), &src[r * f..(r + 1) * f], self.prec);
                }
                part_words(rows.len(), true, f, self.prec)
            }
            None => {
                add_rounded(out.as_mut_slice(), src, self.prec);
                part_words(block.len(), false, f, self.prec)
            }
        }
    }
}

/// `dst += src`, each `src` value rounded to the wire precision, if any.
fn add_rounded(dst: &mut [f64], src: &[f64], prec: Option<Precision>) {
    match prec {
        None => dst.iter_mut().zip(src).for_each(|(d, s)| *d += s),
        Some(p) => dst
            .iter_mut()
            .zip(src)
            .for_each(|(d, &s)| *d += p.round_trip(s)),
    }
}

/// Wire words of `values` values: packed values share words.
fn packed_words(values: usize, prec: Option<Precision>) -> u64 {
    prec.map_or(values, |p| (values * p.bytes_per_value()).div_ceil(8)) as u64
}

/// Metered words of a row part: `rows` rows of width `cols`, each rounded
/// up to whole words plus an index word when `indexed`, else the packed
/// block.
fn part_words(rows: usize, indexed: bool, cols: usize, prec: Option<Precision>) -> u64 {
    if indexed {
        rows as u64 * (packed_words(cols, prec) + 1)
    } else {
        packed_words(rows * cols, prec)
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

/// One run's registry: its settings, its diagnostics, and one mailbox
/// per world rank, which every communicator of the rank files into.
pub(crate) struct Registry {
    /// Each world rank's mailbox, by rank.
    pub(crate) mailboxes: Vec<Arc<Mailbox>>,
    /// How long a rank waits at a collective before declaring the program
    /// deadlocked (collective order mismatch across ranks).
    pub(crate) timeout: Duration,
    /// Whether collective fingerprint verification is enabled.
    pub(crate) check: CheckMode,
    /// Wire precision every rank's communicators start with.
    pub(crate) precision: Precision,
    /// Run-wide rank states, histories, first-panic record, abort flag.
    pub(crate) diag: Diagnostics,
}

impl Registry {
    /// The registry of a fresh run of `cluster`: its collective timeout,
    /// check mode and wire precision, with diagnostics sized to its ranks.
    pub(crate) fn for_run(cluster: &Cluster) -> Arc<Self> {
        let registry = Registry {
            mailboxes: (0..cluster.size).map(|_| Arc::default()).collect(),
            timeout: cluster.timeout,
            check: cluster.check,
            precision: cluster.precision,
            diag: Diagnostics::default(),
        };
        registry.diag.init(cluster.size);
        Arc::new(registry)
    }
}

/// A per-thread handle to one process group.
///
/// Cloning is cheap; the handle is deliberately `!Send` (it carries the
/// rank-local meter) — create communicators inside the rank closure.
pub struct Communicator {
    link: Link,
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
    /// World rank `rank`'s world communicator, whose deposits take `leg`
    /// to the other ranks.
    pub(crate) fn new_world(
        registry: Arc<Registry>,
        leg: Leg,
        size: usize,
        rank: usize,
        meter: Rc<RefCell<Meter>>,
    ) -> Self {
        let precision = Cell::new(registry.precision);
        let link = Link {
            id: WORLD_COMM_ID,
            mailbox: registry.mailboxes[rank].clone(),
            leg,
        };
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

    /// How a collective carrying `T` metered under `cat` crosses: packing
    /// engages exactly when the handle's precision is narrow, the payload
    /// is a [`Mat`], the traffic is dense-matrix communication
    /// ([`Cat::DenseComm`] — weights and control payloads under other
    /// categories stay exact), and the group actually crosses the wire
    /// (`size > 1`). Decidable on every rank without payload inspection,
    /// so all members take the same branch.
    fn carry<T: Any>(&self, cat: Cat) -> Carry {
        let p = self.precision.get();
        if p != Precision::F64
            && cat == Cat::DenseComm
            && self.size() > 1
            && std::any::TypeId::of::<T>() == std::any::TypeId::of::<Mat>()
        {
            Carry::Packed(p)
        } else {
            Carry::Exact
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
    /// `root` is a member index and is translated to a world rank so
    /// diagnostics stay meaningful across sub-communicators.
    fn fingerprint(
        &self,
        kind: CollectiveKind,
        root: Option<usize>,
        dtype: &'static str,
        shape: Shape,
    ) -> Option<Fingerprint> {
        self.registry.check.is_on().then(|| Fingerprint {
            kind,
            root: root.map(|i| self.members[i]),
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
            comm: self.link.id,
            seq,
        };
        let my_world = self.world_rank();
        match err {
            CollectError::Abort(why) => {
                panic!("rank {my_world} aborting {kind} at {slot_id}: {why}")
            }
            CollectError::Timeout { arrived } => {
                let diag = &self.registry.diag;
                let report =
                    deadlock_report(&diag.snapshot(), &diag.deposited(), &diag.histories());
                panic!(
                    "collective deadlock: comm {} seq {seq}: only {arrived}/{} ranks arrived \
                     within {:?} — ranks are calling collectives in different orders\n{report}",
                    self.link.id,
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

    /// Issue half of every collective: deposit this rank's payload (with
    /// its fingerprint when checking) under the next sequence number and
    /// return that number, without blocking. The rank stays `Running`,
    /// and its deposit is on record (DESIGN.md §8), so the watchdog never
    /// misreads an issued op as a stuck rendezvous; the wait registration
    /// happens in [`Communicator::complete_raw`].
    ///
    /// Fingerprints ride along with the payload deposits, so checked mode
    /// adds no synchronization and charges no modeled cost — timelines
    /// are bit-identical with checking on and off.
    fn issue_raw(&self, kind: CollectiveKind, fp: Option<Fingerprint>, payload: TxPayload) -> u64 {
        let entry = self.meter.borrow().timeline.clock();
        let seq = self.next_seq();
        self.registry.diag.record_deposit(
            self.world_rank(),
            HistoryEntry {
                slot: SlotId {
                    comm: self.link.id,
                    seq,
                },
                kind,
                clock: entry,
            },
        );
        let dep = TxDeposit { entry, fp, payload };
        if let Err(e) = self
            .link
            .deposit(kind, seq, self.my_idx, &self.members, dep)
        {
            self.link_failure(kind, seq, e);
        }
        seq
    }

    /// Wait half of every collective: register the wait (for deadlock
    /// diagnostics), block until every member's deposit for `seq` is
    /// present, and consume it: returns all payloads in member order plus
    /// their [`Arrival`], and verifies fingerprints when checking is on.
    ///
    /// Fingerprint verification runs here — above the transport — so
    /// CheckMode gives the identical guarantee whether the fingerprints
    /// arrived through shared memory or piggybacked on socket frames.
    fn complete_raw(&self, kind: CollectiveKind, seq: u64) -> (Vec<RxPayload>, Arrival) {
        let size = self.size();
        let slot_id = SlotId {
            comm: self.link.id,
            seq,
        };
        let diag = &self.registry.diag;
        let _wait = diag.enter_wait(
            self.world_rank(),
            WaitSlot {
                slot: slot_id,
                kind,
                members: self.members.as_ref().clone(),
            },
        );
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

    /// Settle a completed collective (DESIGN.md §10): its α–β `cost`
    /// occupies the network lane from the group's latest entry clock, and
    /// only the remainder not hidden behind compute charged since issue
    /// advances the clock — all of it for a collective waited on at once,
    /// which lands on `max(tmax, net_free) + cost`. Records `words`
    /// bandwidth-term words and one message under `cat`, next to the
    /// bytes that arrived, so counts do not depend on when the op is
    /// waited.
    fn settle(&self, at: Arrival, cat: Cat, cost: f64, words: u64) {
        let mut m = self.meter.borrow_mut();
        m.timeline.settle_pending(at.tmax, cat, cost);
        if words > 0 || cost > 0.0 {
            m.timeline.record_traffic(cat, words);
        }
        m.timeline.record_rx(cat, at.rx_bytes);
    }

    /// Issue a `kind` collective: deposit `payload` now; the returned op
    /// completes it through `finish` at [`PendingOp::wait`].
    fn issue<'c, T>(
        &'c self,
        kind: CollectiveKind,
        cat: Cat,
        fp: Option<Fingerprint>,
        payload: TxPayload,
        finish: Finisher<'c, T>,
    ) -> PendingOp<'c, T> {
        let seq = self.issue_raw(kind, fp, payload);
        PendingOp::in_flight(self, kind, cat, seq, 0, finish)
    }

    /// A collective waited on at once: [`Communicator::issue`], then
    /// [`PendingOp::wait`]. At `P = 1` nothing is issued or settled —
    /// `finish` reads this rank's own payload, and its cost and words,
    /// which are zero there, are dropped.
    fn issue_and_wait<'c, T>(
        &'c self,
        kind: CollectiveKind,
        cat: Cat,
        fp: Option<Fingerprint>,
        payload: TxPayload,
        finish: impl FnOnce(&Communicator, Vec<RxPayload>) -> (T, f64, u64) + 'c,
    ) -> T {
        if self.size() == 1 {
            return finish(self, vec![RxPayload::Local(payload.local)]).0;
        }
        self.issue(kind, cat, fp, payload, Box::new(finish)).wait()
    }

    /// Barrier across the group.
    pub fn barrier(&self) {
        let fp = self.fingerprint(CollectiveKind::Barrier, None, "()", Shape::Words(0));
        self.issue_and_wait(
            CollectiveKind::Barrier,
            Cat::Misc,
            fp,
            TxPayload::unit(),
            |comm, _| ((), comm.model().barrier_time(comm.size()), 0),
        );
    }

    /// Broadcast from member `root_idx`: [`Communicator::ibcast_shared`],
    /// waited on at once. The root passes `Some(data)`; everyone receives
    /// the root's payload.
    pub fn bcast<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<T>,
        cat: Cat,
    ) -> Arc<T> {
        self.ibcast_shared(root_idx, data.map(Arc::new), cat).wait()
    }

    /// [`Communicator::bcast`] of an already-shared payload, so a block a
    /// trainer keeps resident rides into the rendezvous without a copy.
    pub fn bcast_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<Arc<T>>,
        cat: Cat,
    ) -> Arc<T> {
        self.ibcast_shared(root_idx, data, cat).wait()
    }

    /// Broadcast from member `root_idx`, split-phase: the root's deposit
    /// happens now, and the payload plus the α–β charge — `α + β·w`
    /// (pipelined) or `α·lg p + β·w` per the model — arrive at
    /// [`PendingOp::wait`]. The root hands over an `Arc`, so a block a
    /// trainer keeps resident (its own `H` slice) rides into the
    /// rendezvous without being copied. The cost lands on the network
    /// lane, so compute charged between issue and wait hides it (see
    /// DESIGN.md §10).
    ///
    /// Under a narrow wire precision (a [`Mat`] under
    /// [`Cat::DenseComm`]), the root rounds its matrix once and **every**
    /// rank — the root included — widens the packed payload back to
    /// `f64`, so all members hold bit-identical replicas. It is metered
    /// under the precision's own category with the packed word count, so
    /// the β term halves (f32) or quarters (bf16).
    pub fn ibcast_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<Arc<T>>,
        cat: Cat,
    ) -> PendingOp<'_, Arc<T>> {
        assert!(root_idx < self.size(), "bcast root out of range");
        assert_eq!(
            data.is_some(),
            root_idx == self.my_idx,
            "bcast: exactly the root must supply data"
        );
        if self.size() == 1 {
            let Some(d) = data else {
                unreachable!("single-rank bcast root missing its own data")
            };
            return PendingOp::ready(self, CollectiveKind::Bcast, cat, d);
        }
        let carry = self.carry::<T>(cat);
        // The root declares the payload size; everyone else cannot know
        // it yet and declares a wildcard shape.
        let (payload, shape) = match data {
            Some(d) => {
                let (payload, words) = carry.tx(d);
                (payload, Shape::Words(words))
            }
            None => (TxPayload::unit(), Shape::Unknown),
        };
        let fp = self.fingerprint(
            CollectiveKind::Bcast,
            Some(root_idx),
            carry.dtype::<T>(),
            shape,
        );
        self.issue(
            CollectiveKind::Bcast,
            carry.cat(cat),
            fp,
            payload,
            Box::new(move |comm, mut items| {
                let (out, words) = carry.rx::<T>(items.swap_remove(root_idx));
                (out, comm.model().bcast_time(comm.size(), words), words)
            }),
        )
    }

    /// Sparsity-aware row broadcast, split-phase: member `root_idx` holds a dense row
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
    /// are the words metered below (DESIGN.md §9). Issuing runs the
    /// request round — a small rendezvous, so issuing waits for the
    /// group — and deposits the served rows; dim validation, cost and
    /// word accounting happen at [`PendingOp::wait`].
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
    pub fn igather_rows(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        self.igather_rows_kind(
            CollectiveKind::GatherRows,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    /// [`Communicator::igather_rows`], waited on at once.
    pub fn gather_rows(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> GatheredRows {
        self.igather_rows(root_idx, data, needed, expect, cat)
            .wait()
    }

    /// Cached-mode refresh epoch variant of
    /// [`Communicator::igather_rows`]: identical exchange, costs, and
    /// words, but fingerprinted as `gather_rows_refresh` so — under
    /// CheckMode — a rank serving its stale cache while a peer refreshes
    /// is reported as a kind mismatch instead of hanging or silently
    /// diverging (DESIGN.md §13).
    pub fn igather_rows_refresh(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        self.igather_rows_kind(
            CollectiveKind::GatherRowsRefresh,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    /// Issue a row gather: check the request, run round one — each
    /// receiver's rows reach the root, nothing is charged — and deposit
    /// round two at the same entry clock, the root serving every
    /// receiver its rows and the receivers a unit. At `P = 1` the root
    /// has its block and nothing moves.
    fn igather_rows_kind(
        &self,
        kind: CollectiveKind,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
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
            return PendingOp::ready(self, kind, cat, GatheredRows::full(block));
        }
        let carry = self.carry::<Mat>(cat);
        let prec = carry.precision();
        let fp = self.fingerprint(
            kind,
            Some(root_idx),
            carry.dtype::<Mat>(),
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
        let seq = self.issue_raw(kind, fp.clone(), request);
        let (items, round_one) = self.complete_raw(kind, seq);
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
                let served = requests.iter().flatten().map(|r| r.len()).sum();
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
        let seq = self.issue_raw(kind, fp, payload);
        PendingOp::in_flight(
            self,
            kind,
            carry.cat(cat),
            seq,
            round_one.rx_bytes,
            Box::new(move |comm, items| comm.finish_gather(kind, end, prec, items)),
        )
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
                    let rows = item.extract::<Vec<usize>>();
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
                let words = part_words(served, true, block.cols(), prec);
                let cost = m.alpha * (self.size() - 1) as f64 + m.beta * words as f64;
                (GatheredRows::full(block), cost, 0)
            }
            GatherEnd::Receiver {
                root_idx,
                rows,
                expect,
            } => {
                let k = rows.len();
                let got = GatheredRows::served(&items[root_idx], rows, expect, prec)
                    .unwrap_or_else(|why| panic!("{kind}: {why}"));
                let words = part_words(k, true, got.cols(), prec);
                (got, 2.0 * m.alpha + m.beta * words as f64, words)
            }
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

    /// All-reduce (sum) of equally-shaped matrices, split-phase: deposit
    /// now, sum and charge at [`PendingOp::wait`]. Every rank returns the
    /// same sum, accumulated in member order (deterministic).
    ///
    /// Under a narrow wire precision (and `cat == DenseComm`), each
    /// contribution is rounded once by its sender and widened back to
    /// `f64` by every receiver; the sum itself is always accumulated in
    /// `f64` member order, so all ranks still return identical bits.
    pub fn iallreduce_mat(&self, m: &Mat, cat: Cat) -> PendingOp<'_, Mat> {
        if self.size() == 1 {
            return PendingOp::ready(self, CollectiveKind::AllreduceMat, cat, m.clone());
        }
        let carry = self.carry::<Mat>(cat);
        let (payload, w) = carry.tx(Arc::new(m.clone()));
        let fp = self.fingerprint(
            CollectiveKind::AllreduceMat,
            None,
            carry.dtype::<Mat>(),
            Shape::Dims(m.rows(), m.cols()),
        );
        self.issue(
            CollectiveKind::AllreduceMat,
            carry.cat(cat),
            fp,
            payload,
            Box::new(move |comm, items| {
                let mut parts = items.into_iter().map(|p| carry.rx::<Mat>(p).0);
                let Some(first) = parts.next() else {
                    unreachable!("allreduce over an empty communicator")
                };
                let mut out = Arc::unwrap_or_clone(first);
                parts.for_each(|part| cagnet_dense::ops::add_assign(&mut out, &part));
                let p = comm.size();
                let cost = comm.model().allreduce_time(p, w);
                (out, cost, 2 * w * (p as u64 - 1) / p as u64)
            }),
        )
    }

    /// [`Communicator::iallreduce_mat`], waited on at once.
    pub fn allreduce_mat(&self, m: &Mat, cat: Cat) -> Mat {
        self.iallreduce_mat(m, cat).wait()
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
    /// identical to `allgather`. Under a narrow wire precision every
    /// member packs its own contribution and widens **all** of them — its
    /// own included — so the gathered vector is replicated bit-identically
    /// across ranks.
    pub fn allgather_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        data: Arc<T>,
        cat: Cat,
    ) -> Vec<Arc<T>> {
        let carry = self.carry::<T>(cat);
        let (payload, _) = carry.tx(data);
        // Contribution sizes are legitimately rank-dependent: wildcard.
        let fp = self.fingerprint(
            CollectiveKind::Allgather,
            None,
            carry.dtype::<T>(),
            Shape::Unknown,
        );
        self.issue_and_wait(
            CollectiveKind::Allgather,
            carry.cat(cat),
            fp,
            payload,
            |comm, items| {
                let mut total = 0;
                let out = items
                    .into_iter()
                    .map(|item| {
                        let (part, words) = carry.rx::<T>(item);
                        total += words;
                        part
                    })
                    .collect();
                let p = comm.size();
                let cost = comm.model().allgather_time(p, total);
                (out, cost, total * (p as u64 - 1) / p as u64)
            },
        )
    }

    /// All-reduce (sum) of scalars.
    pub fn allreduce_scalar(&self, x: f64, cat: Cat) -> f64 {
        let fp = self.fingerprint(
            CollectiveKind::AllreduceScalar,
            None,
            "f64",
            Shape::Words(1),
        );
        self.issue_and_wait(
            CollectiveKind::AllreduceScalar,
            cat,
            fp,
            TxPayload::of(Arc::new(x)),
            |comm, items| {
                let sum = items.into_iter().map(|p| *p.extract::<f64>()).sum();
                (sum, comm.model().allreduce_time(comm.size(), 1), 2)
            },
        )
    }

    /// Reduce-scatter over block rows: every member contributes an
    /// equally shaped `n x f` matrix; member `i` receives row block `i`
    /// (balanced block distribution) of the elementwise sum, accumulated
    /// in member order from `+0.0` and written over `out`, reusing its
    /// allocation.
    ///
    /// This is the primitive of the 1D backward pass (§IV-A.3): the
    /// low-rank outer products `A_i G_i` are reduce-scattered into block
    /// rows. The contribution enters the rendezvous as the shared handle
    /// the caller built it in, cut into one part per member: in shared
    /// memory member `j` reads its part from the handle in place; over
    /// sockets only `j`'s part crosses to `j`, and `j` adds it into its
    /// block straight from the received bytes (DESIGN.md §9).
    ///
    /// Without `sends`, each part is the member's whole block, and a
    /// rank is charged the dense [`CostModel::reduce_scatter_time`] of
    /// the `n·f` words of `m`. With `sends` — the sparsity-aware form —
    /// `sends[j]` lists, ascending, the rows of member `j`'s block
    /// (offsets into it) that `m` can make nonzero; every other row of
    /// that block must be exactly `+0.0`. The part for `j` then holds
    /// only those `k` rows and their indices, `k·(f+1)` words, or the
    /// whole block whenever that is not more words, and a rank is
    /// charged [`CostModel::sparse_reduce_scatter_time`] of the words it
    /// receives.
    ///
    /// Either way the sum is bit-identical to the dense one: it starts at
    /// `+0.0`, so it is never `−0.0`, and adding an absent row's `+0.0`
    /// leaves every other value unchanged.
    ///
    /// Under a narrow wire precision every row is rounded once on its
    /// way to the member that sums it (its own rows included), and the
    /// sums are accumulated in `f64`, so a later all-gather of the blocks
    /// reassembles a replica-consistent matrix.
    pub fn reduce_scatter_rows(
        &self,
        m: Arc<Mat>,
        sends: Option<&Arc<Vec<Vec<usize>>>>,
        out: &mut Mat,
        cat: Cat,
    ) {
        let (p, me) = (self.size(), self.my_idx);
        let (n, f) = m.shape();
        if let Some(sends) = sends {
            assert_eq!(
                sends.len(),
                p,
                "reduce_scatter_rows needs one send set per member"
            );
            for (j, rows) in sends.iter().enumerate() {
                let (r0, r1) = block_range(n, p, j);
                let sorted = rows.windows(2).all(|w| w[0] < w[1]);
                assert!(
                    sorted && rows.last().is_none_or(|&r| r < r1 - r0),
                    "reduce_scatter_rows: the send set of member {j} must be sorted, distinct \
                     and inside its block"
                );
            }
        }
        let carry = self.carry::<Mat>(cat);
        let prec = carry.precision();
        let fp = self.fingerprint(
            CollectiveKind::ReduceScatterRows,
            None,
            carry.dtype::<Mat>(),
            Shape::Dims(n, f),
        );
        let contribution = ReducedRows {
            m,
            sends: sends.cloned(),
            prec,
            p,
            from: me,
        };
        let sparse = sends.is_some();
        self.issue_and_wait(
            CollectiveKind::ReduceScatterRows,
            carry.cat(cat),
            fp,
            contribution.into_payload(),
            move |comm, items| {
                let (r0, r1) = block_range(n, p, me);
                out.reset(r1 - r0, f);
                let mut received = 0;
                for (i, item) in items.into_iter().enumerate() {
                    let words = comm.fold_part(item, (n, f), prec, out);
                    if i != me {
                        received += words;
                    }
                }
                let model = comm.model();
                if sparse {
                    ((), model.sparse_reduce_scatter_time(p, received), received)
                } else {
                    let w = packed_words(n * f, prec);
                    let words = w * (p as u64 - 1) / p as u64;
                    ((), model.reduce_scatter_time(p, w), words)
                }
            },
        )
    }

    /// Add one member's part of a reduce-scatter into this rank's block
    /// `out`, checked against the `dims` of the contributions and the wire
    /// precision; returns the words the part carried.
    fn fold_part(
        &self,
        item: RxPayload,
        dims: (usize, usize),
        prec: Option<Precision>,
        out: &mut Mat,
    ) -> u64 {
        match item {
            RxPayload::Local(p) => {
                let Ok(c) = p.downcast::<ReducedRows>() else {
                    panic!("reduce_scatter_rows: collective payload type mismatch across ranks");
                };
                assert_eq!(c.m.shape(), dims, "reduce_scatter shape mismatch");
                c.add_into(self.my_idx, out)
            }
            RxPayload::Remote { body, range } => {
                let bytes = &body[range];
                let part = RowsPart::parse(bytes).unwrap_or_else(|e| {
                    panic!("reduce_scatter_rows: protocol error: a part does not decode: {e}")
                });
                let want = prec.unwrap_or(Precision::F64);
                assert!(
                    part.precision == want && part.block == out.shape(),
                    "reduce_scatter_rows: protocol error: a {} part of a {:?} block reached a \
                     rank reducing a {:?} block at {}",
                    part.precision.name(),
                    part.block,
                    out.shape(),
                    want.name()
                );
                // Gather parts may be short without indices; a reduce
                // part without them is its whole block.
                assert!(
                    part.index.is_some() || part.rows == part.block.0,
                    "reduce_scatter_rows: protocol error: an unindexed part holds {} of its \
                     block's {} rows",
                    part.rows,
                    part.block.0
                );
                part.add_into(bytes, out);
                part_words(part.rows, part.index.is_some(), part.block.1, prec)
            }
        }
    }

    /// Split into sub-communicators by color (MPI `comm_split` without the
    /// key argument: member order within a color follows parent order).
    pub fn split(&self, color: u64) -> Communicator {
        let seq_for_key = self.seq.get(); // same at every member pre-exchange
        let colors: Vec<u64> = if self.size() == 1 {
            vec![color]
        } else {
            // Colors are legitimately rank-dependent: wildcard shape. The
            // exchange is bookkeeping, so it settles nothing.
            let fp = self.fingerprint(CollectiveKind::Split, None, "u64", Shape::Unknown);
            let seq = self.issue_raw(CollectiveKind::Split, fp, TxPayload::of(Arc::new(color)));
            let (items, _) = self.complete_raw(CollectiveKind::Split, seq);
            items.into_iter().map(|p| *p.extract::<u64>()).collect()
        };
        let group: Vec<usize> = (0..self.size())
            .filter(|&i| colors[i] == color)
            .map(|i| self.members[i])
            .collect();
        let Some(my_pos) = group.iter().position(|&w| w == self.members[self.my_idx]) else {
            unreachable!("split: own color missing from own group")
        };
        let link = self.link.derive(seq_for_key, color);
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

/// How a collective's payload crosses the wire (DESIGN.md §14): as the
/// caller's value, or — a [`Mat`] under a narrow wire precision
/// ([`Communicator::carry`]) — packed once by its sender and widened back
/// to `f64` by every receiver, the sender included, so all members hold
/// bit-identical replicas. Fingerprint, rendezvous and settle are the same
/// either way: only the payload, its dtype label, its word count and its
/// metering category differ.
#[derive(Clone, Copy)]
enum Carry {
    Exact,
    Packed(Precision),
}

impl Carry {
    /// The wire precision of a packed payload.
    fn precision(self) -> Option<Precision> {
        match self {
            Carry::Exact => None,
            Carry::Packed(p) => Some(p),
        }
    }

    /// The dtype a fingerprint declares for a `T` payload.
    fn dtype<T>(self) -> &'static str {
        match self {
            Carry::Exact => std::any::type_name::<T>(),
            Carry::Packed(p) => p.packed_dtype(),
        }
    }

    /// The category the traffic is metered under: the caller's, or the
    /// wire precision's own.
    fn cat(self, cat: Cat) -> Cat {
        match self {
            Carry::Exact => cat,
            Carry::Packed(p) => p.dense_cat(),
        }
    }

    /// A sender's payload, and its wire words.
    fn tx<T: Any + Send + Sync + CommWords + Wire>(self, data: Arc<T>) -> (TxPayload, u64) {
        match self {
            Carry::Exact => {
                let words = data.comm_words();
                (TxPayload::of(data), words)
            }
            Carry::Packed(p) => {
                let any: Arc<dyn Any + Send + Sync> = data;
                let Ok(mat) = any.downcast::<Mat>() else {
                    unreachable!("packed dispatch proved T == Mat by TypeId")
                };
                let packed = Arc::new(PackedMat::pack(&mat, p));
                let words = packed.comm_words();
                (TxPayload::of(packed), words)
            }
        }
    }

    /// A received payload as the caller's type, and its wire words.
    fn rx<T: Any + Send + Sync + CommWords + Wire>(self, item: RxPayload) -> (Arc<T>, u64) {
        match self {
            Carry::Exact => {
                let value: Arc<T> = item.extract();
                let words = value.comm_words();
                (value, words)
            }
            Carry::Packed(_) => {
                let packed: Arc<PackedMat> = item.extract();
                let any: Arc<dyn Any + Send + Sync> = Arc::new(packed.widen());
                let Ok(value) = any.downcast::<T>() else {
                    unreachable!("packed dispatch proved T == Mat by TypeId")
                };
                (value, packed.comm_words())
            }
        }
    }
}

/// This rank's side of a row gather, as its completion needs it.
enum GatherEnd {
    /// The root: its own block, and how many rows it served.
    Root { block: Arc<Mat>, served: usize },
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
    /// op is free, like every collective at `P = 1`.
    Ready(T),
    /// Rendezvous in flight: deposit made, completion pending.
    /// `rx_bytes` arrived at issue (a row gather's requests).
    InFlight {
        seq: u64,
        rx_bytes: u64,
        finish: Finisher<'c, T>,
    },
}

/// A collective in flight, returned by [`Communicator::ibcast_shared`],
/// [`Communicator::igather_rows`], [`Communicator::igather_rows_refresh`]
/// and [`Communicator::iallreduce_mat`]. Every collective completes
/// through one: the blocking names (`bcast`, `gather_rows`, `barrier`,
/// `allgather`, `reduce_scatter_rows`, ...) issue and wait at once.
///
/// The rendezvous deposit happened at issue time — peers can already
/// consume it, and CheckMode fingerprints ride along with it — so
/// issuing is free and, for every collective but the row gathers, never
/// blocks: an issued row gather first runs its small
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
                self.comm.settle(at, self.cat, cost, words);
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
            self.comm.link.id
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
            ctx.world
                .reduce_scatter_rows(m, None, &mut out, Cat::DenseComm);
            out
        });
        // Sum is all-3s; rank 0 gets rows 0..2, rank 1 rows 2..4.
        for (r, _) in &results {
            assert_eq!(r.shape(), (2, 1));
            assert!(r.approx_eq(&Mat::filled(2, 1, 3.0), 1e-12));
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
    #[should_panic(expected = "protocol error: an unindexed part holds 2 of its block's 4 rows")]
    fn reduce_scatter_rows_refuses_a_short_unindexed_part() {
        // A gather's served rows: two rows of a 4-row block, no indices.
        let part = received_part(&Mat::zeros(4, 3), &[1, 3], Precision::F64);
        Cluster::new(1).run(|ctx| {
            let mut out = Mat::zeros(4, 3);
            ctx.world.fold_part(part.clone(), (8, 3), None, &mut out);
        });
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
    fn blocking_names_charge_closed_form() {
        // Every blocking name is an issue waited on at once. Pin, per name
        // x wire precision x P, the closed-form α–β charge — cost, words,
        // one message, no received bytes on threads, nothing overlapped —
        // and the clock: max(tmax, net_free) + cost. Ranks enter at
        // staggered clocks; the second pass enters behind a pending
        // broadcast whose uncovered remainder has moved the network lane
        // on.
        let model = CostModel::summit_like();
        let (alpha, beta) = (model.alpha, model.beta);
        let (rows, cols, needed) = (6, 5, [1usize, 4]);
        for p in [1usize, 2, 4] {
            let ahead = model.bcast_time(p, 16);
            for prec in [Precision::F64, Precision::F32, Precision::Bf16] {
                // Wire words of `n` values; packing engages only at P > 1.
                let wire = |n: usize| match (p, prec) {
                    (1, _) | (_, Precision::F64) => n as u64,
                    _ => (n * prec.bytes_per_value()).div_ceil(8) as u64,
                };
                let packed = if p > 1 {
                    prec.dense_cat()
                } else {
                    Cat::DenseComm
                };
                // Sparse reduce-scatter: each member's send set is the
                // first row of its block, the only nonzero row there.
                let sends = Arc::new(vec![vec![0]; p]);
                let block_start = |i: usize| (0..p).any(|j| block_range(rows, p, j).0 == i);
                let names = [
                    "bcast",
                    "bcast_shared",
                    "gather_rows",
                    "allreduce_mat",
                    "barrier",
                    "allgather",
                    "allgather_shared",
                    "allreduce_scalar",
                    "reduce_scatter_rows",
                    "reduce_scatter_rows_sparse",
                ];
                for name in names {
                    for behind_pending in [false, true] {
                        let cluster = Cluster::new(p)
                            .with_model(CostModel::summit_like())
                            .with_precision(prec);
                        let runs = cluster.run(|ctx| {
                            if behind_pending {
                                let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(4, 4)));
                                let op = ctx.world.ibcast_shared(0, payload, Cat::Misc);
                                ctx.charge(Cat::Spmm, ahead * ctx.rank as f64 / 8.0);
                                op.wait();
                            }
                            ctx.charge(Cat::Gemm, 1e-6 * ctx.rank as f64);
                            let before = ctx.report();
                            let block = Arc::new(Mat::filled(rows, cols, 1.5));
                            let root = (ctx.rank == 0).then(|| block.clone());
                            let (world, dense) = (&ctx.world, Cat::DenseComm);
                            let mut out = Mat::zeros(0, 0);
                            match name {
                                "bcast" => {
                                    world.bcast(0, root.map(|b| (*b).clone()), dense);
                                }
                                "bcast_shared" => {
                                    world.bcast_shared(0, root, dense);
                                }
                                "gather_rows" => {
                                    let dims = Some((rows, cols));
                                    world.gather_rows(0, root, &needed, dims, dense);
                                }
                                "allreduce_mat" => {
                                    world.allreduce_mat(&block, dense);
                                }
                                "barrier" => world.barrier(),
                                "allgather" => {
                                    world.allgather((*block).clone(), dense);
                                }
                                "allgather_shared" => {
                                    world.allgather_shared(block, dense);
                                }
                                "allreduce_scalar" => {
                                    world.allreduce_scalar(1.5, dense);
                                }
                                "reduce_scatter_rows" => {
                                    world.reduce_scatter_rows(block, None, &mut out, dense)
                                }
                                _ => {
                                    let m = Mat::from_fn(rows, cols, |i, _| {
                                        if block_start(i) {
                                            1.5
                                        } else {
                                            0.0
                                        }
                                    });
                                    world.reduce_scatter_rows(
                                        Arc::new(m),
                                        Some(&sends),
                                        &mut out,
                                        dense,
                                    )
                                }
                            }
                            (before, ctx.report())
                        });
                        let tmax = runs.iter().map(|((b, _), _)| b.clock).fold(0.0, f64::max);
                        let net_free = if behind_pending { ahead } else { 0.0 };
                        for (rank, ((before, after), _)) in runs.iter().enumerate() {
                            let case = format!(
                                "{name} {prec:?} P={p} pending={behind_pending} rank {rank}"
                            );
                            let k = needed.len() as u64;
                            let others = p as u64 - 1;
                            let cat = match name {
                                "barrier" => Cat::Misc,
                                "allreduce_scalar" => Cat::DenseComm,
                                _ => packed,
                            };
                            let (cost, words) = match name {
                                _ if p == 1 => (0.0, 0),
                                "bcast" | "bcast_shared" => {
                                    let w = wire(rows * cols);
                                    (model.bcast_time(p, w), w)
                                }
                                "gather_rows" if rank == 0 => {
                                    let served = others * k * (wire(cols) + 1);
                                    (alpha * others as f64 + beta * served as f64, 0)
                                }
                                "gather_rows" => {
                                    let w = k * (wire(cols) + 1);
                                    (2.0 * alpha + beta * w as f64, w)
                                }
                                "allreduce_mat" => {
                                    let w = wire(rows * cols);
                                    (model.allreduce_time(p, w), 2 * w * others / p as u64)
                                }
                                "barrier" => (model.barrier_time(p), 0),
                                "allgather" | "allgather_shared" => {
                                    let total = p as u64 * wire(rows * cols);
                                    (model.allgather_time(p, total), total * others / p as u64)
                                }
                                "allreduce_scalar" => (model.allreduce_time(p, 1), 2),
                                "reduce_scatter_rows" => {
                                    let w = wire(rows * cols);
                                    (model.reduce_scatter_time(p, w), w * others / p as u64)
                                }
                                _ => {
                                    // Each peer's part: the indexed row, or
                                    // the whole block when not more words.
                                    let (r0, r1) = block_range(rows, p, rank);
                                    let part = (wire(cols) + 1).min(wire((r1 - r0) * cols));
                                    let w = others * part;
                                    (model.sparse_reduce_scatter_time(p, w), w)
                                }
                            };
                            assert_eq!(after.clock, tmax.max(net_free) + cost, "{case}");
                            let charged = after.seconds(cat) - before.seconds(cat);
                            assert!((charged - cost).abs() <= 1e-12 * cost, "{case}");
                            assert_eq!(after.words(cat) - before.words(cat), words, "{case}");
                            let messages = after.messages(cat) - before.messages(cat);
                            assert_eq!(messages, u64::from(p > 1), "{case}");
                            assert_eq!(after.rx_bytes(cat), 0, "{case}");
                            let overlapped = Cat::Overlapped;
                            assert_eq!(
                                after.seconds(overlapped),
                                before.seconds(overlapped),
                                "{case}"
                            );
                        }
                    }
                }
            }
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
