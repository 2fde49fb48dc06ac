//! The multi-process socket transport: real worker processes behind
//! [`CommLink`].
//!
//! Topology is hub-and-spoke. The launcher (the process that called
//! [`Cluster::run_wire`](crate::cluster::Cluster::run_wire)) binds a
//! Unix domain socket, spawns `size - 1` worker processes by
//! re-executing the current binary, and runs a **hub** that owns every
//! rendezvous: clients send `DEPOSIT` and `WAIT` frames, the hub
//! answers each `WAIT` with exactly one `COLLECT` (the member-ordered
//! deposit set, minus the waiter's own payload, which it already
//! holds) or `ERROR`. Rank 0 itself participates as an ordinary client
//! over the same socket, so the protocol is exercised uniformly.
//!
//! A payload is copied once per process it passes through: the sender
//! encodes it straight into its `DEPOSIT` body, the hub keeps that
//! received body as one shared buffer and writes each `COLLECT` from
//! the stored buffers in place, and the receiver decodes on demand from
//! a range of the one `COLLECT` body it read (DESIGN.md §11).
//!
//! Everything above [`CommLink`] is shared with the thread backend:
//! entry clocks travel as exact `f64` bit patterns, CheckMode
//! fingerprints piggyback on `DEPOSIT` frames, and the deadlock
//! watchdog runs unmodified in the launcher because the hub mirrors
//! every remote deposit/wait/result/panic into the launcher's
//! [`Diagnostics`](crate::diag) tables.
//!
//! Workers are re-executions of the current binary (test runner or
//! bench binary) with `CAGNET_WORKER_*` environment variables. A worker
//! replays every socket-dispatched run before its target index through
//! the deterministic thread backend, so it reaches the target run with
//! identical program state; at the target it connects, runs its rank
//! through the same body as every other rank of either transport
//! ([`Cluster::run_rank`](crate::cluster::Cluster::run_rank)), ships
//! `(result, timeline report)` back as a `RESULT` frame, and exits
//! without returning to the caller.
//!
//! All wire I/O in this module goes through [`frame::read_frame`] /
//! [`frame::write_frame`] / [`frame::write_frame_parts`] — the
//! `raw-socket-io` lint rule keeps raw socket reads/writes confined to
//! `frame.rs`.

use std::cell::Cell;
use std::collections::HashMap;
use std::net::Shutdown;
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use cagnet_check::fingerprint::Fingerprint;
use cagnet_check::waitgraph::{HistoryEntry, RankPhase, SlotId, WaitSlot};

use crate::cluster::{watchdog, Cluster, Ctx};
use crate::comm::Registry;
use crate::diag::FirstPanic;
use crate::frame::{
    self, CollectMsg, DepositMsg, ErrorMsg, Frame, FrameError, FrameKind, HelloMsg, PanicMsg,
    WaitMsg, Wire,
};
use crate::timeline::TimelineReport;
use crate::transport::{
    CollectError, CommLink, Payload, RxDeposit, RxPayload, TxDeposit, WAIT_TICK,
};
use cagnet_check::fingerprint::CollectiveKind;

/// How long clients retry connecting to the hub socket (covers worker
/// process startup and run replay).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(60);

/// The world communicator's id on the socket backend — matches the
/// first id the shared backend's registry hands out, so slot labels in
/// diagnostics read identically across transports.
const WORLD_COMM_ID: u64 = 1;

// ---------------------------------------------------------------------
// Run indexing and worker identity.
// ---------------------------------------------------------------------

thread_local! {
    static SOCKET_RUN_IDX: Cell<u64> = const { Cell::new(0) };
}

/// Next socket-dispatched run index for this thread. Thread-local, not
/// global: `cargo test` executes many tests concurrently in one
/// process, and each test's sequence of socket runs must be counted
/// independently for worker replay to find the right run.
pub(crate) fn next_socket_run_idx() -> u64 {
    SOCKET_RUN_IDX.with(|c| {
        let v = c.get();
        c.set(v + 1);
        v
    })
}

/// A worker process's identity, decoded from the `CAGNET_WORKER_*`
/// environment variables set by [`spawn_workers`].
pub(crate) struct WorkerEnv {
    /// This worker's world rank (`1..size`).
    pub rank: usize,
    /// Expected world size.
    pub world: usize,
    /// Path of the launcher's hub socket.
    pub socket: PathBuf,
    /// Index of the socket run this worker was forked for.
    pub run: u64,
}

/// Decode the worker identity, or `None` when this process is a
/// launcher (the variables are unset).
pub(crate) fn worker_env() -> Option<WorkerEnv> {
    let rank = std::env::var("CAGNET_WORKER_RANK").ok()?.parse().ok()?;
    let world = std::env::var("CAGNET_WORKER_WORLD").ok()?.parse().ok()?;
    let socket = PathBuf::from(std::env::var("CAGNET_WORKER_SOCKET").ok()?);
    let run = std::env::var("CAGNET_WORKER_RUN").ok()?.parse().ok()?;
    Some(WorkerEnv {
        rank,
        world,
        socket,
        run,
    })
}

// ---------------------------------------------------------------------
// Client side: one socket connection per rank.
// ---------------------------------------------------------------------

/// Connect to `path`, retrying until `timeout` — the listener may not
/// be bound yet when a freshly spawned worker first tries.
pub fn connect_with_retry(path: &Path, timeout: Duration) -> Result<UnixStream, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!(
                        "could not connect to {} within {timeout:?}: {e}",
                        path.display()
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// What the reader thread hands the collecting rank.
enum Event {
    Frame(Frame),
    Closed(String),
}

/// One rank's connection to the hub: a writer half guarded by a mutex
/// plus a dedicated reader thread feeding a channel. The reader thread
/// exists so blocked collects can poll the abort flag every wait tick
/// without read timeouts ever landing mid-frame on the socket.
struct SocketClient {
    rank: usize,
    writer: Mutex<UnixStream>,
    rx: Mutex<Receiver<Event>>,
    /// This rank's own deposits, keyed by `(comm, seq)`: handed back as
    /// the same `Arc` at collect time so a rank's view of its own
    /// payload is zero-copy, exactly like the shared backend.
    pending: Mutex<HashMap<(u64, u64), Payload>>,
}

impl SocketClient {
    fn connect(
        path: &Path,
        rank: usize,
        world: usize,
        run: u64,
        timeout: Duration,
    ) -> Result<Arc<Self>, String> {
        let stream = connect_with_retry(path, timeout)?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("rank {rank}: could not clone socket: {e}"))?;
        frame::write_frame(
            &mut writer,
            FrameKind::Hello,
            &frame::encode(&HelloMsg { rank, world, run }),
        )
        .map_err(|e| format!("rank {rank}: hello failed: {e}"))?;
        let (tx, rx) = mpsc::channel();
        let mut reader = stream;
        std::thread::spawn(move || loop {
            match frame::read_frame(&mut reader) {
                Ok(f) => {
                    if tx.send(Event::Frame(f)).is_err() {
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Event::Closed(format!("{e}")));
                    return;
                }
            }
        });
        Ok(Arc::new(SocketClient {
            rank,
            writer: Mutex::new(writer),
            rx: Mutex::new(rx),
            pending: Mutex::new(HashMap::new()),
        }))
    }

    fn send(&self, kind: FrameKind, body: &[u8]) -> Result<(), String> {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        frame::write_frame(&mut *w, kind, body)
            .map_err(|e| format!("rank {}: sending {kind:?} frame failed: {e}", self.rank))
    }

    /// Shut the connection down so the hub's per-connection thread (and
    /// our reader thread) unblock; used by rank 0, whose result never
    /// travels through the hub.
    fn close(&self) {
        let w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.shutdown(Shutdown::Both);
    }
}

/// [`CommLink`] over a [`SocketClient`]. Splitting a communicator
/// derives a new id deterministically from `(parent id, key seq,
/// color)` — every member computes the same id with no extra round
/// trip, and the hub just sees a fresh `(comm, seq)` keyspace.
struct SocketLink {
    id: u64,
    client: Arc<SocketClient>,
}

impl SocketLink {
    fn world(client: Arc<SocketClient>) -> Arc<dyn CommLink> {
        Arc::new(SocketLink {
            id: WORLD_COMM_ID,
            client,
        })
    }
}

/// FNV-1a over the three split coordinates, with the top bit forced so
/// derived ids can never collide with the small world id.
fn derived_id(parent: u64, key_seq: u64, color: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [parent, key_seq, color] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h | (1 << 63)
}

impl CommLink for SocketLink {
    fn id(&self) -> u64 {
        self.id
    }

    fn deposit(
        &self,
        kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        dep: TxDeposit,
    ) -> Result<(), CollectError> {
        let body = DepositMsg {
            comm: self.id,
            seq,
            kind,
            my_idx,
            members: members.to_vec(),
            entry: dep.entry,
            dtype: dep.payload.dtype.to_string(),
            fp: dep.fp,
            parts: dep.payload.parts.clone(),
        }
        .encode(|out| dep.payload.encode_into(out));
        self.client
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((self.id, seq), dep.payload.local);
        self.client
            .send(FrameKind::Deposit, &body)
            .map_err(CollectError::Transport)
    }

    fn collect(
        &self,
        kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        abort: &dyn Fn() -> Option<String>,
        timeout: Duration,
    ) -> Result<Vec<RxDeposit>, CollectError> {
        let msg = WaitMsg {
            comm: self.id,
            seq,
            kind,
            my_idx,
            members: members.to_vec(),
        };
        self.client
            .send(FrameKind::Wait, &frame::encode(&msg))
            .map_err(CollectError::Transport)?;
        let rx = self
            .client
            .rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut waited = Duration::ZERO;
        loop {
            match rx.recv_timeout(WAIT_TICK) {
                Ok(Event::Frame(fr)) => {
                    return match fr.kind {
                        FrameKind::Collect => self.accept_collect(fr, seq, my_idx, members.len()),
                        FrameKind::Error => match frame::decode::<ErrorMsg>(&fr.body) {
                            Ok(e) => Err(CollectError::Transport(e.message)),
                            Err(e) => Err(CollectError::Transport(format!("bad error frame: {e}"))),
                        },
                        kind @ (FrameKind::Hello
                        | FrameKind::Deposit
                        | FrameKind::Wait
                        | FrameKind::Result
                        | FrameKind::Panic) => Err(CollectError::Transport(format!(
                            "protocol error: unexpected {kind:?} frame while awaiting a collect"
                        ))),
                    };
                }
                Ok(Event::Closed(why)) => {
                    return Err(CollectError::Transport(format!(
                        "connection to the launcher hub lost: {why}"
                    )));
                }
                Err(RecvTimeoutError::Timeout) => {
                    if let Some(why) = abort() {
                        return Err(CollectError::Abort(why));
                    }
                    waited += WAIT_TICK;
                    if waited >= timeout {
                        // The hub holds the arrival counts; a socket
                        // client only knows its own wait expired.
                        return Err(CollectError::Timeout { arrived: None });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CollectError::Transport(
                        "connection to the launcher hub lost".to_string(),
                    ));
                }
            }
        }
    }

    fn derive(&self, key_seq: u64, color: u64, _size: usize) -> Arc<dyn CommLink> {
        Arc::new(SocketLink {
            id: derived_id(self.id, key_seq, color),
            client: self.client.clone(),
        })
    }
}

impl SocketLink {
    /// Turn a `COLLECT` frame into member-ordered deposits. The hub
    /// sends this rank's own payload with length 0; its stored `Arc`
    /// takes that place, and every remote payload stays a range of the
    /// one received body until a collective extracts it.
    fn accept_collect(
        &self,
        fr: Frame,
        seq: u64,
        my_idx: usize,
        size: usize,
    ) -> Result<Vec<RxDeposit>, CollectError> {
        let msg = CollectMsg::parse(&fr.body)
            .map_err(|e| CollectError::Transport(format!("bad collect frame: {e}")))?;
        if msg.comm != self.id || msg.seq != seq {
            return Err(CollectError::Transport(format!(
                "protocol error: collect for comm {} seq {} while awaiting comm {} seq {seq}",
                msg.comm, msg.seq, self.id
            )));
        }
        if msg.deposits.len() != size {
            return Err(CollectError::Transport(format!(
                "protocol error: collect carried {} deposits for a {size}-member rendezvous",
                msg.deposits.len()
            )));
        }
        let own = self
            .client
            .pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&(self.id, seq));
        let Some(own) = own else {
            return Err(CollectError::Transport(format!(
                "protocol error: collect for comm {} seq {seq}, where this rank has no deposit \
                 pending",
                self.id
            )));
        };
        let body = Arc::new(fr.body);
        Ok(msg
            .deposits
            .into_iter()
            .enumerate()
            .map(|(idx, d)| RxDeposit {
                entry: d.entry,
                fp: d.fp,
                payload: if idx == my_idx {
                    RxPayload::Local(own.clone())
                } else {
                    RxPayload::Remote {
                        body: body.clone(),
                        range: d.payload,
                    }
                },
            })
            .collect())
    }
}

// ---------------------------------------------------------------------
// Hub: the launcher-side rendezvous broker.
// ---------------------------------------------------------------------

/// A rank's contribution as the hub stores it: the received `DEPOSIT`
/// body, whole and shared, plus what was parsed out of its head. The
/// payload is never copied out of `body` — every `COLLECT` that carries
/// it is written from this one buffer.
struct HubDeposit {
    entry: f64,
    fp: Option<Fingerprint>,
    body: Arc<Vec<u8>>,
    payload: Range<usize>,
    /// Each member's part of the payload, as ranges of `body`, when the
    /// deposit is parted.
    parts: Option<Vec<Range<usize>>>,
}

impl HubDeposit {
    /// The bytes of this deposit that member `idx` is forwarded.
    fn part_for(&self, idx: usize) -> Range<usize> {
        match &self.parts {
            None => self.payload.clone(),
            Some(parts) => parts
                .get(idx)
                .cloned()
                .unwrap_or(self.payload.start..self.payload.start),
        }
    }
}

/// One `COLLECT` ready to be written: the small pieces (rendezvous key,
/// then each member's clock, fingerprint and payload length) in one
/// buffer, cut where a payload goes between them, and the payloads as
/// references into the stored deposit bodies. Built under the state
/// lock — a few dozen bytes and `Arc` clones — and written after it is
/// released.
struct Collect {
    heads: Vec<u8>,
    cuts: Vec<usize>,
    payloads: Vec<(Arc<Vec<u8>>, Range<usize>)>,
}

impl Collect {
    /// The frame body as the byte runs to write, in order.
    fn parts(&self) -> Vec<&[u8]> {
        let mut parts = Vec::with_capacity(2 * self.cuts.len());
        let mut from = 0;
        for (&cut, (body, range)) in self.cuts.iter().zip(&self.payloads) {
            parts.push(&self.heads[from..cut]);
            parts.push(&body[range.clone()]);
            from = cut;
        }
        parts
    }
}

/// One in-flight rendezvous on the hub.
struct HubSlot {
    members: Vec<usize>,
    deposits: Vec<Option<HubDeposit>>,
    /// World ranks whose `WAIT` arrived before the slot completed.
    waiters: Vec<usize>,
    /// How many `COLLECT`s have been served; the slot is dropped when
    /// every member has been answered.
    served: usize,
}

impl HubSlot {
    fn complete(&self) -> bool {
        self.deposits.iter().all(|d| d.is_some())
    }

    /// The `COLLECT` answering `rank`'s wait on this complete slot:
    /// everyone's clock and fingerprint, everyone's payload — or, of a
    /// parted payload, `rank`'s part — but `rank`'s own, for which the
    /// client substitutes the `Arc` it kept.
    fn collect_for(&self, key: (u64, u64), rank: usize) -> Collect {
        let mut c = Collect {
            heads: Vec::new(),
            cuts: Vec::with_capacity(self.members.len()),
            payloads: Vec::with_capacity(self.members.len()),
        };
        CollectMsg::put_head(&mut c.heads, key.0, key.1, self.members.len());
        let me = self.members.iter().position(|&m| m == rank);
        for (idx, dep) in self.deposits.iter().flatten().enumerate() {
            let payload = match me {
                Some(me) if me != idx => dep.part_for(me),
                _ => dep.payload.start..dep.payload.start,
            };
            CollectMsg::put_entry(&mut c.heads, dep.entry, &dep.fp, payload.len());
            c.cuts.push(c.heads.len());
            c.payloads.push((dep.body.clone(), payload));
        }
        c
    }
}

struct HubState {
    slots: HashMap<(u64, u64), HubSlot>,
    /// Encoded `(result, report)` per worker rank; index 0 is unused
    /// (rank 0's result never travels through the hub).
    results: Vec<Option<Vec<u8>>>,
    /// Death reason per rank, for fail-fast answers to later waits.
    dead: Vec<Option<String>>,
}

/// What the hub owes after a `DEPOSIT` or `WAIT`: the `COLLECT`s to
/// write (none while the rendezvous is incomplete), or why the frame
/// is refused.
type Outcome = Result<Vec<(usize, Collect)>, String>;

impl HubState {
    /// Store `rank`'s deposit in its slot, opening the slot on the
    /// first arrival; the last arrival answers every parked waiter.
    fn deposit(
        &mut self,
        rank: usize,
        msg: DepositMsg,
        body: Arc<Vec<u8>>,
        payload: Range<usize>,
    ) -> Outcome {
        let key = (msg.comm, msg.seq);
        let at = || format!("comm {} seq {}", msg.comm, msg.seq);
        match msg.members.get(msg.my_idx) {
            Some(&m) if m == rank => {}
            Some(&m) => {
                return Err(format!(
                    "protocol error: deposit at {} names member index {}, which is rank {m}, \
                     not the depositing rank {rank}",
                    at(),
                    msg.my_idx
                ))
            }
            None => {
                return Err(format!(
                    "protocol error: deposit at {} names member index {} of a {}-member group",
                    at(),
                    msg.my_idx,
                    msg.members.len()
                ))
            }
        }
        let slot = self.slots.entry(key).or_insert_with(|| HubSlot {
            members: msg.members.clone(),
            deposits: msg.members.iter().map(|_| None).collect(),
            waiters: Vec::new(),
            served: 0,
        });
        if slot.members != msg.members {
            return Err(format!(
                "protocol error: deposit at {} lists members {:?} but the rendezvous was opened \
                 with {:?}",
                at(),
                msg.members,
                slot.members
            ));
        }
        if slot.deposits[msg.my_idx].is_some() {
            return Err(format!(
                "rank deposited twice at {} — collective misuse",
                at()
            ));
        }
        let parts = msg.parts.map(|parts| {
            parts
                .into_iter()
                .map(|p| payload.start + p.start..payload.start + p.end)
                .collect()
        });
        slot.deposits[msg.my_idx] = Some(HubDeposit {
            entry: msg.entry,
            fp: msg.fp,
            body,
            payload,
            parts,
        });
        if !slot.complete() {
            return Ok(Vec::new());
        }
        let waiters = std::mem::take(&mut slot.waiters);
        Ok(self.serve(key, waiters))
    }

    /// `rank` waits on `key`: answer at once when the rendezvous is
    /// complete, park the rank otherwise.
    fn wait(&mut self, rank: usize, key: (u64, u64)) -> Outcome {
        // The waiter deposits before waiting, so its slot must still
        // exist and list it; otherwise the protocol was violated.
        let Some(slot) = self.slots.get_mut(&key) else {
            return Err(format!(
                "protocol error: wait for unknown rendezvous comm {} seq {}",
                key.0, key.1
            ));
        };
        if !slot.members.contains(&rank) {
            return Err(format!(
                "protocol error: rank {rank} waits on comm {} seq {}, a rendezvous of ranks {:?}",
                key.0, key.1, slot.members
            ));
        }
        if !slot.complete() {
            slot.waiters.push(rank);
            return Ok(Vec::new());
        }
        Ok(self.serve(key, vec![rank]))
    }

    /// Build the `COLLECT` for each of `ranks` from `key`'s complete
    /// slot, and retire the slot once every member has been answered.
    fn serve(&mut self, key: (u64, u64), ranks: Vec<usize>) -> Vec<(usize, Collect)> {
        let Some(slot) = self.slots.get_mut(&key) else {
            return Vec::new();
        };
        slot.served += ranks.len();
        let ready = ranks
            .into_iter()
            .map(|rank| (rank, slot.collect_for(key, rank)))
            .collect();
        if slot.served == slot.members.len() {
            self.slots.remove(&key);
        }
        ready
    }
}

/// The rendezvous broker. Mirrors every remote rank's protocol traffic
/// into the launcher's diagnostics so the watchdog and failure reports
/// work identically to the thread backend; rank 0's own thread
/// maintains its diagnostics directly, so its frames are not mirrored.
///
/// Lock discipline: `state` guards the rendezvous tables and is held
/// only to decide what to send; every socket write happens after it is
/// released, under the target connection's own writer lock. A peer that
/// stops draining its socket therefore blocks writes to itself and
/// nothing else — not other ranks' rendezvous, not abort delivery.
struct Hub {
    registry: Arc<Registry>,
    size: usize,
    /// Write half of each rank's connection, set once at its `HELLO`.
    /// The lock is held for one whole frame so frames to a rank never
    /// interleave.
    conns: Vec<OnceLock<Mutex<UnixStream>>>,
    state: Mutex<HubState>,
}

impl Hub {
    fn new(registry: Arc<Registry>, size: usize) -> Self {
        Hub {
            registry,
            size,
            conns: (0..size).map(|_| OnceLock::new()).collect(),
            state: Mutex::new(HubState {
                slots: HashMap::new(),
                results: vec![None; size],
                dead: vec![None; size],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register_conn(&self, rank: usize, writer: UnixStream) {
        if let Some(conn) = self.conns.get(rank) {
            // One connection per rank per run; a second claimant of the
            // same rank is ignored.
            let _ = conn.set(Mutex::new(writer));
        }
    }

    /// Write one frame to `rank`, taking only that connection's writer
    /// lock. Must not be called with the state lock held.
    fn send(&self, rank: usize, kind: FrameKind, parts: &[&[u8]]) -> Result<(), FrameError> {
        let Some(peer_writer) = self.conns.get(rank).and_then(OnceLock::get) else {
            return Ok(());
        };
        let mut w = peer_writer.lock().unwrap_or_else(PoisonError::into_inner);
        frame::write_frame_parts(&mut *w, kind, parts)
    }

    fn send_error(&self, rank: usize, why: String) {
        let body = frame::encode(&ErrorMsg { message: why });
        // A send failure means the peer died; the connection reader
        // will notice and take the run down with a named error.
        let _ = self.send(rank, FrameKind::Error, &[&body]);
    }

    /// Act on an [`Outcome`] decided under the state lock, now that it
    /// is released: write the `COLLECT`s, or refuse `rank`'s frame.
    fn answer(&self, rank: usize, key: (u64, u64), outcome: Outcome) {
        let ready = match outcome {
            Ok(ready) => ready,
            Err(why) => return self.send_error(rank, why),
        };
        for (waiter, collect) in ready {
            // Only a refusal to send is answered; an I/O failure means
            // the peer died, which its connection reader reports.
            if let Err(e @ FrameError::Oversize(_)) =
                self.send(waiter, FrameKind::Collect, &collect.parts())
            {
                self.send_error(
                    waiter,
                    format!(
                        "collect for comm {} seq {} cannot be sent: {e}",
                        key.0, key.1
                    ),
                );
            }
            if waiter != 0 {
                self.registry.diag.set_phase(waiter, RankPhase::Running);
            }
        }
    }

    fn on_frame(&self, rank: usize, fr: Frame) {
        match fr.kind {
            FrameKind::Deposit => match DepositMsg::parse(&fr.body) {
                Ok((m, payload)) => self.on_deposit(rank, m, Arc::new(fr.body), payload),
                Err(e) => self.send_error(rank, format!("bad deposit frame: {e}")),
            },
            FrameKind::Wait => match frame::decode::<WaitMsg>(&fr.body) {
                Ok(m) => self.on_wait(rank, m),
                Err(e) => self.send_error(rank, format!("bad wait frame: {e}")),
            },
            FrameKind::Result => self.on_result(rank, fr.body),
            FrameKind::Panic => match frame::decode::<PanicMsg>(&fr.body) {
                Ok(m) => self.on_panic(rank, m),
                Err(e) => self.send_error(rank, format!("bad panic frame: {e}")),
            },
            kind @ (FrameKind::Hello | FrameKind::Collect | FrameKind::Error) => {
                self.send_error(rank, format!("unexpected {kind:?} frame from a client"))
            }
        }
    }

    fn on_deposit(&self, rank: usize, msg: DepositMsg, body: Arc<Vec<u8>>, payload: Range<usize>) {
        if rank != 0 {
            self.registry.diag.record_deposit(
                rank,
                HistoryEntry {
                    slot: SlotId {
                        comm: msg.comm,
                        seq: msg.seq,
                    },
                    kind: msg.kind,
                    clock: msg.entry,
                },
            );
        }
        let key = (msg.comm, msg.seq);
        let outcome = self.lock().deposit(rank, msg, body, payload);
        self.answer(rank, key, outcome);
    }

    fn on_wait(&self, rank: usize, msg: WaitMsg) {
        if rank != 0 {
            self.registry.diag.set_blocked(
                rank,
                WaitSlot {
                    slot: SlotId {
                        comm: msg.comm,
                        seq: msg.seq,
                    },
                    kind: msg.kind,
                    members: msg.members.clone(),
                },
            );
        }
        let key = (msg.comm, msg.seq);
        let outcome = {
            let mut state = self.lock();
            match self.wait_error(&state, &msg.members) {
                Some(why) => Err(why),
                None => state.wait(rank, key),
            }
        };
        self.answer(rank, key, outcome);
    }

    fn wait_error(&self, state: &HubState, members: &[usize]) -> Option<String> {
        if let Some(why) = self.registry.diag.abort_message() {
            return Some(why);
        }
        for &m in members {
            if let Some(reason) = state.dead.get(m).and_then(|d| d.as_ref()) {
                return Some(format!("rank {m} worker process died ({reason})"));
            }
        }
        None
    }

    fn on_result(&self, rank: usize, body: Vec<u8>) {
        {
            let mut state = self.lock();
            if let Some(slot) = state.results.get_mut(rank) {
                *slot = Some(body);
            }
        }
        if rank != 0 {
            self.registry.diag.set_phase(rank, RankPhase::Done);
        }
    }

    fn on_panic(&self, rank: usize, msg: PanicMsg) {
        let diag = &self.registry.diag;
        diag.record_first_panic(FirstPanic {
            rank,
            during: msg.during.clone(),
            message: msg.message,
        });
        diag.set_phase(rank, RankPhase::Panicked);
        let why = format!("rank {rank} panicked during {}", msg.during);
        diag.set_abort(why.clone());
        self.flush_waiters(&why);
    }

    /// A client connection closed (or its process exited) without a
    /// result: record the death, raise the abort flag, and answer every
    /// parked waiter with a named error so no peer hangs until timeout.
    /// Rank 0 lives in the launcher process, so its connection closing
    /// is never a death. Idempotent.
    fn rank_closed(&self, rank: usize, reason: String) {
        if rank == 0 {
            return;
        }
        {
            let mut state = self.lock();
            let finished = state.results.get(rank).is_some_and(|r| r.is_some());
            let already = state.dead.get(rank).is_some_and(|d| d.is_some());
            if finished || already {
                return;
            }
            if let Some(slot) = state.dead.get_mut(rank) {
                *slot = Some(reason.clone());
            }
        }
        let diag = &self.registry.diag;
        let during = diag.last_collective_label(rank);
        diag.record_first_panic(FirstPanic {
            rank,
            during,
            message: format!("worker process died ({reason})"),
        });
        diag.set_phase(rank, RankPhase::Panicked);
        let why = format!("rank {rank} worker process died ({reason})");
        diag.set_abort(why.clone());
        self.flush_waiters(&why);
    }

    /// Answer every parked waiter with `why`. Called on panic, death,
    /// and whenever the abort flag is observed by the monitor thread
    /// (covering rank-0 panics and watchdog-declared deadlocks).
    fn flush_waiters(&self, why: &str) {
        let waiters: Vec<usize> = {
            let mut state = self.lock();
            state
                .slots
                .values_mut()
                .flat_map(|slot| std::mem::take(&mut slot.waiters))
                .collect()
        };
        if waiters.is_empty() {
            return;
        }
        let body = frame::encode(&ErrorMsg {
            message: why.to_string(),
        });
        for w in waiters {
            // As in `send_error`: a failed send is a dead peer.
            let _ = self.send(w, FrameKind::Error, &[&body]);
        }
    }

    fn all_worker_results(&self) -> bool {
        let state = self.lock();
        state.results.iter().skip(1).all(|r| r.is_some())
    }

    fn take_results(&self) -> Vec<Option<Vec<u8>>> {
        std::mem::take(&mut self.lock().results)
    }
}

// ---------------------------------------------------------------------
// Connection handling.
// ---------------------------------------------------------------------

fn accept_loop(listener: UnixListener, hub: Arc<Hub>) {
    for _ in 0..hub.size {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let hub = hub.clone();
        std::thread::spawn(move || handle_conn(stream, hub));
    }
}

fn handle_conn(mut stream: UnixStream, hub: Arc<Hub>) {
    let hello: HelloMsg = match frame::read_frame(&mut stream) {
        Ok(fr) if fr.kind == FrameKind::Hello => match frame::decode(&fr.body) {
            Ok(h) => h,
            Err(_) => return,
        },
        _ => return,
    };
    let rank = hello.rank;
    if rank >= hub.size || hello.world != hub.size {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    hub.register_conn(rank, writer);
    loop {
        match frame::read_frame(&mut stream) {
            Ok(fr) => hub.on_frame(rank, fr),
            Err(e) => {
                hub.rank_closed(rank, format!("connection lost: {e}"));
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Worker processes.
// ---------------------------------------------------------------------

static SOCKET_SALT: AtomicU64 = AtomicU64::new(0);

fn socket_path() -> PathBuf {
    let n = SOCKET_SALT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cagnet-{}-{n}.sock", std::process::id()))
}

/// Removes the hub's socket file when the launcher exits, even by
/// panic.
struct SocketGuard(PathBuf);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Spawn `size - 1` worker processes by re-executing the current binary
/// with the original arguments. Under `cargo test` (detected by the
/// thread name libtest assigns), the re-execution is narrowed to
/// exactly the current test on one thread, so the worker replays only
/// the runs that matter. Worker output is discarded — their panics
/// travel back over the socket as `PANIC` frames.
fn spawn_workers(sock: &Path, size: usize, run_idx: u64) -> std::io::Result<Vec<(usize, Child)>> {
    let exe = std::env::current_exe()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let test_filter = std::thread::current()
        .name()
        .filter(|n| !n.is_empty() && *n != "main")
        .map(str::to_string);
    let mut children = Vec::with_capacity(size - 1);
    for rank in 1..size {
        let mut cmd = Command::new(&exe);
        cmd.args(&args);
        if let Some(name) = &test_filter {
            cmd.arg("--exact").arg(name).arg("--test-threads").arg("1");
        }
        cmd.env("CAGNET_WORKER_RANK", rank.to_string())
            .env("CAGNET_WORKER_WORLD", size.to_string())
            .env("CAGNET_WORKER_SOCKET", sock.as_os_str())
            .env("CAGNET_WORKER_RUN", run_idx.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        children.push((rank, cmd.spawn()?));
    }
    Ok(children)
}

/// Kill (when the run failed) and reap every worker, with a bounded
/// wait so a wedged child can never hang the launcher.
fn reap_children(children: &Mutex<Vec<(usize, Child)>>, kill: bool) {
    let mut kids = children.lock().unwrap_or_else(PoisonError::into_inner);
    if kill {
        for (_, child) in kids.iter_mut() {
            let _ = child.kill();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for (_, child) in kids.iter_mut() {
        loop {
            match child.try_wait() {
                Ok(Some(_)) | Err(_) => break,
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
    kids.clear();
}

/// The monitor thread: pumps the abort flag out to parked waiters
/// (covering rank-0 panics and watchdog verdicts, which never pass
/// through the hub) and detects worker processes that exit without
/// reporting.
fn monitor_loop(
    hub: &Hub,
    children: &Mutex<Vec<(usize, Child)>>,
    registry: &Registry,
    stop: &AtomicBool,
) {
    // When a child exits its RESULT frame may still be in flight: the
    // connection reader observes EOF only after draining every buffered
    // frame, so it — not `try_wait` — is the authoritative death signal
    // for ranks that connected. The exit observation here is a delayed
    // backstop for workers that die before ever reaching the hub.
    const EXIT_GRACE: Duration = Duration::from_secs(1);
    let mut exited_at: HashMap<usize, (Instant, String)> = HashMap::new();
    while !stop.load(Ordering::Relaxed) {
        if let Some(why) = registry.diag.abort_message() {
            hub.flush_waiters(&why);
        }
        {
            let mut kids = children.lock().unwrap_or_else(PoisonError::into_inner);
            for (rank, child) in kids.iter_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    exited_at
                        .entry(*rank)
                        .or_insert_with(|| (Instant::now(), format!("{status}")));
                }
            }
        }
        for (rank, (seen, status)) in &exited_at {
            if seen.elapsed() >= EXIT_GRACE {
                hub.rank_closed(*rank, format!("exited with {status} before reporting"));
            }
        }
        std::thread::sleep(WAIT_TICK);
    }
}

// ---------------------------------------------------------------------
// Launcher and worker entry points.
// ---------------------------------------------------------------------

/// Run a socket-transport cluster from the launcher side: bind the hub,
/// spawn workers, run rank 0 in-process as an ordinary socket client,
/// and assemble every rank's `(result, report)` — decoding the workers'
/// from their `RESULT` frames — in rank order, exactly like
/// `run_threads`.
pub(crate) fn run_launcher<R, F>(cl: &Cluster, run_idx: u64, f: F) -> Vec<(R, TimelineReport)>
where
    R: Send + Wire,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    let size = cl.size;
    let registry = Registry::for_run(cl);
    let sock_path = socket_path();
    let _ = std::fs::remove_file(&sock_path);
    let _guard = SocketGuard(sock_path.clone());
    let listener = match UnixListener::bind(&sock_path) {
        Ok(l) => l,
        Err(e) => panic!("socket transport: bind {} failed: {e}", sock_path.display()),
    };
    let hub = Arc::new(Hub::new(registry.clone(), size));
    {
        let hub = hub.clone();
        std::thread::spawn(move || accept_loop(listener, hub));
    }
    let children = match spawn_workers(&sock_path, size, run_idx) {
        Ok(c) => Arc::new(Mutex::new(c)),
        Err(e) => panic!("socket transport: spawning workers failed: {e}"),
    };
    let stop = Arc::new(AtomicBool::new(false));
    {
        let hub = hub.clone();
        let children = children.clone();
        let registry = registry.clone();
        let stop = stop.clone();
        std::thread::spawn(move || monitor_loop(&hub, &children, &registry, &stop));
    }

    let f = &f;
    let registry_ref = &registry;
    let sock_ref = &sock_path;
    let rank0_res: Option<(R, TimelineReport)> = std::thread::scope(|scope| {
        if cl.check.is_on() {
            let registry = registry.clone();
            scope.spawn(move || watchdog(&registry));
        }
        let handle = scope.spawn(move || {
            let client = match SocketClient::connect(sock_ref, 0, size, run_idx, CONNECT_TIMEOUT) {
                Ok(c) => c,
                Err(e) => {
                    registry_ref
                        .diag
                        .set_abort(format!("rank 0 could not reach its own hub: {e}"));
                    return None;
                }
            };
            let out = cl
                .run_rank(registry_ref, SocketLink::world(client.clone()), 0, f)
                .ok();
            // Unblock the hub's reader for rank 0 — the launcher keeps
            // no long-lived client once rank 0 is finished.
            client.close();
            out
        });
        handle.join().ok().flatten()
    });

    // Wait for every worker's RESULT (bounded by the collective timeout
    // plus reporting slack), unless the run already failed.
    let failed = rank0_res.is_none();
    let mut aborted = registry.diag.abort_message();
    if !failed && aborted.is_none() {
        let deadline = Instant::now() + cl.timeout + Duration::from_secs(10);
        loop {
            if hub.all_worker_results() {
                break;
            }
            aborted = registry.diag.abort_message();
            if aborted.is_some() {
                break;
            }
            if Instant::now() >= deadline {
                registry
                    .diag
                    .set_abort("timed out waiting for worker results".to_string());
                aborted = registry.diag.abort_message();
                break;
            }
            std::thread::sleep(WAIT_TICK);
        }
    }
    stop.store(true, Ordering::Relaxed);
    reap_children(&children, failed || aborted.is_some());

    if failed || aborted.is_some() {
        let why = registry
            .diag
            .first_panic_render()
            .or(aborted)
            .unwrap_or_else(|| "socket transport run failed".to_string());
        panic!("{why}");
    }
    let mut results = hub.take_results();
    let mut out = Vec::with_capacity(size);
    match rank0_res {
        Some(r0) => out.push(r0),
        None => panic!("socket transport run failed"),
    }
    for (rank, slot) in results.iter_mut().enumerate().skip(1) {
        let Some(bytes) = slot.take() else {
            panic!("rank {rank} produced no result despite a clean run");
        };
        match frame::decode::<(R, TimelineReport)>(&bytes) {
            Ok(pair) => out.push(pair),
            Err(e) => panic!("rank {rank}: result frame failed to decode: {e}"),
        }
    }
    out
}

/// Run this process's rank closure as a socket worker and exit. Never
/// returns: a worker exists only to serve one rank of one run, so on
/// success it ships `(result, report)` back as a `RESULT` frame and
/// exits 0, and on panic it ships a `PANIC` frame and exits nonzero.
pub(crate) fn run_worker<R, F>(cl: &Cluster, env: &WorkerEnv, f: F) -> !
where
    R: Send + Wire,
    F: Fn(&mut Ctx) -> R + Send + Sync,
{
    assert_eq!(
        cl.size, env.world,
        "socket worker run {}: cluster size {} != spawned world size {}",
        env.run, cl.size, env.world
    );
    let client =
        match SocketClient::connect(&env.socket, env.rank, env.world, env.run, CONNECT_TIMEOUT) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cagnet socket worker rank {}: {e}", env.rank);
                std::process::exit(3);
            }
        };
    let link = SocketLink::world(client.clone());
    match cl.run_rank(&Registry::for_run(cl), link, env.rank, &f) {
        Ok(done) => match client.send(FrameKind::Result, &frame::encode(&done)) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("cagnet socket worker rank {}: {e}", env.rank);
                std::process::exit(4);
            }
        },
        Err((first, _)) => {
            let msg = PanicMsg {
                during: first.during,
                message: first.message,
            };
            let _ = client.send(FrameKind::Panic, &frame::encode(&msg));
            std::process::exit(101);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A hub for `size` ranks whose connections are socket pairs:
    /// `hub.on_frame(rank, ..)` stands in for `rank`'s connection
    /// thread, and the hub's answers arrive on `peers[rank]`.
    struct Rig {
        hub: Arc<Hub>,
        peers: Vec<UnixStream>,
    }

    fn rig(size: usize) -> Rig {
        let registry = Registry::for_run(&Cluster::new(size).with_timeout(Duration::from_secs(5)));
        let hub = Arc::new(Hub::new(registry, size));
        let peers = (0..size)
            .map(|rank| {
                let (hub_end, peer) = UnixStream::pair().expect("socket pair");
                peer.set_read_timeout(Some(Duration::from_secs(5)))
                    .expect("read timeout");
                hub.register_conn(rank, hub_end);
                peer
            })
            .collect();
        Rig { hub, peers }
    }

    fn deposit_head(key: (u64, u64), my_idx: usize, members: &[usize]) -> DepositMsg {
        DepositMsg {
            comm: key.0,
            seq: key.1,
            kind: CollectiveKind::Bcast,
            my_idx,
            members: members.to_vec(),
            entry: 0.5,
            dtype: "test".to_string(),
            fp: None,
            parts: None,
        }
    }

    fn deposit(key: (u64, u64), my_idx: usize, members: &[usize], payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::Deposit,
            body: deposit_head(key, my_idx, members).encode(|out| out.extend_from_slice(payload)),
        }
    }

    /// A deposit whose head carries the part table `parts`, valid or not.
    fn deposit_with_parts(
        key: (u64, u64),
        my_idx: usize,
        members: &[usize],
        payload: &[u8],
        parts: Vec<Range<usize>>,
    ) -> Frame {
        let head = DepositMsg {
            parts: Some(parts),
            ..deposit_head(key, my_idx, members)
        };
        Frame {
            kind: FrameKind::Deposit,
            body: head.encode(|out| out.extend_from_slice(payload)),
        }
    }

    /// A deposit cut into consecutive parts of the byte lengths `lens`.
    fn parted_deposit(
        key: (u64, u64),
        my_idx: usize,
        members: &[usize],
        payload: &[u8],
        lens: &[usize],
    ) -> Frame {
        let mut at = 0;
        let parts = lens
            .iter()
            .map(|&n| {
                at += n;
                at - n..at
            })
            .collect();
        deposit_with_parts(key, my_idx, members, payload, parts)
    }

    /// Each member's payload bytes in a `COLLECT`.
    fn payloads(fr: &Frame) -> Vec<Vec<u8>> {
        assert_eq!(fr.kind, FrameKind::Collect);
        let msg = CollectMsg::parse(&fr.body).expect("collect body");
        msg.deposits
            .iter()
            .map(|d| fr.body[d.payload.clone()].to_vec())
            .collect()
    }

    /// A deposit whose `payload_len` payload bytes are zero pages the
    /// test never touches, so it can be huge without costing memory.
    fn untouched_deposit(
        key: (u64, u64),
        my_idx: usize,
        members: &[usize],
        payload_len: usize,
    ) -> Frame {
        let head = deposit_head(key, my_idx, members).encode(|_| {});
        let mut body = vec![0u8; head.len() + payload_len];
        body[..head.len()].copy_from_slice(&head);
        body[head.len() - 8..head.len()].copy_from_slice(&(payload_len as u64).to_le_bytes());
        Frame {
            kind: FrameKind::Deposit,
            body,
        }
    }

    fn wait(key: (u64, u64), my_idx: usize, members: &[usize]) -> Frame {
        Frame {
            kind: FrameKind::Wait,
            body: frame::encode(&WaitMsg {
                comm: key.0,
                seq: key.1,
                kind: CollectiveKind::Bcast,
                my_idx,
                members: members.to_vec(),
            }),
        }
    }

    fn answer_to(peer: &UnixStream) -> Frame {
        let mut peer = peer;
        frame::read_frame(&mut peer).expect("the hub answers")
    }

    fn error_to(peer: &UnixStream) -> String {
        let fr = answer_to(peer);
        assert_eq!(fr.kind, FrameKind::Error);
        frame::decode::<ErrorMsg>(&fr.body)
            .expect("error body")
            .message
    }

    #[test]
    fn stalled_peer_blocks_neither_other_rendezvous_nor_abort_delivery() {
        let Rig { hub, peers } = rig(4);
        // Rank 0 broadcasts 8 MiB to rank 1, whose socket nobody drains:
        // the COLLECT write to it stalls once the socket buffer is full.
        let pair = [0, 1];
        hub.on_frame(0, deposit((1, 0), 0, &pair, &vec![7u8; 8 << 20]));
        hub.on_frame(1, deposit((1, 0), 1, &pair, &[0]));
        let stalled = {
            let hub = hub.clone();
            std::thread::spawn(move || hub.on_frame(1, wait((1, 0), 1, &pair)))
        };
        // The frame header arriving proves that write is in flight.
        let mut header = [0u8; frame::HEADER_LEN];
        (&peers[1]).read_exact(&mut header).expect("collect header");

        // Meanwhile ranks 2 and 3 rendezvous on another communicator and
        // an abort is flushed — on a thread, so a hub that queues them
        // behind the stalled write fails this test instead of hanging it.
        let (done_tx, done_rx) = mpsc::channel();
        {
            let hub = hub.clone();
            std::thread::spawn(move || {
                let others = [2, 3];
                for idx in 0..2 {
                    hub.on_frame(others[idx], deposit((9, 0), idx, &others, &[0]));
                }
                for idx in 0..2 {
                    hub.on_frame(others[idx], wait((9, 0), idx, &others));
                }
                hub.flush_waiters("abort");
                let _ = done_tx.send(());
            });
        }
        done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("served within a second of the stall");
        for rank in [2, 3] {
            assert_eq!(answer_to(&peers[rank]).kind, FrameKind::Collect);
        }

        // Drain rank 1 so the stalled write, and its thread, finish.
        let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
        let mut rest = vec![0u8; len as usize];
        (&peers[1]).read_exact(&mut rest).expect("collect body");
        stalled.join().expect("stalled writer thread");
    }

    #[test]
    fn frames_sent_to_the_wrong_side_are_named_protocol_errors() {
        // Client-only kinds at the hub, after the handshake.
        let Rig { hub, peers } = rig(2);
        for kind in [FrameKind::Hello, FrameKind::Collect, FrameKind::Error] {
            hub.on_frame(1, Frame { kind, body: vec![] });
            let why = error_to(&peers[1]);
            assert_eq!(why, format!("unexpected {kind:?} frame from a client"));
        }

        // Anything but a collect or an error at a client awaiting a collect.
        let (ours, _theirs) = UnixStream::pair().expect("socket pair");
        let (tx, rx) = mpsc::channel();
        let link = SocketLink {
            id: 7,
            client: Arc::new(SocketClient {
                rank: 1,
                writer: Mutex::new(ours),
                rx: Mutex::new(rx),
                pending: Mutex::new(HashMap::new()),
            }),
        };
        for kind in [
            FrameKind::Hello,
            FrameKind::Deposit,
            FrameKind::Wait,
            FrameKind::Result,
            FrameKind::Panic,
        ] {
            tx.send(Event::Frame(Frame { kind, body: vec![] }))
                .expect("reader channel");
            let got = link.collect(
                CollectiveKind::Bcast,
                0,
                1,
                &[0, 1],
                &|| None,
                Duration::from_secs(5),
            );
            let Err(CollectError::Transport(why)) = got else {
                panic!("a {kind:?} frame must fail the collect by name");
            };
            assert_eq!(
                why,
                format!("protocol error: unexpected {kind:?} frame while awaiting a collect")
            );
        }
    }

    #[test]
    fn collect_omits_the_waiters_own_payload_and_forwards_the_stored_buffer() {
        let Rig { hub, peers } = rig(2);
        let (key, pair, n) = ((1, 3), [0, 1], 64 << 10);
        let root = deposit(key, 0, &pair, &vec![0xAB; n]);
        let root_buf = root.body.as_ptr();
        hub.on_frame(0, root);
        hub.on_frame(1, deposit(key, 1, &pair, &frame::encode(&())));
        {
            let state = hub.lock();
            let slot = &state.slots[&key];
            let stored = slot.deposits[0].as_ref().expect("root deposit stored");
            // Ingest copied nothing: the hub holds the very buffer the
            // frame arrived in, once.
            assert_eq!(stored.body.as_ptr(), root_buf);
            assert_eq!(Arc::strong_count(&stored.body), 1);
            // And what goes out to the receiver is that buffer's bytes.
            let collect = slot.collect_for(key, 1);
            assert!(Arc::ptr_eq(&collect.payloads[0].0, &stored.body));
            assert_eq!(
                collect.parts()[1].as_ptr(),
                stored.body[stored.payload.clone()].as_ptr()
            );
        }
        hub.on_frame(0, wait(key, 0, &pair));
        hub.on_frame(1, wait(key, 1, &pair));
        let to_root = answer_to(&peers[0]);
        let to_receiver = answer_to(&peers[1]);
        assert_eq!(to_root.kind, FrameKind::Collect);
        assert_eq!(to_receiver.kind, FrameKind::Collect);
        assert!(to_root.body.len() < 256, "root was echoed its own payload");
        // Same heads both ways; the root's carries the 1-byte bystander
        // payload, the receiver's the n-byte root payload.
        assert_eq!(to_receiver.body.len() - n, to_root.body.len() - 1);

        let at_root = CollectMsg::parse(&to_root.body).expect("root collect");
        assert!(at_root.deposits[0].payload.is_empty());
        assert_eq!(at_root.deposits[1].payload.len(), 1);
        let at_receiver = CollectMsg::parse(&to_receiver.body).expect("receiver collect");
        let got = &to_receiver.body[at_receiver.deposits[0].payload.clone()];
        assert!(got.len() == n && got.iter().all(|&b| b == 0xAB));
        assert!(at_receiver.deposits[1].payload.is_empty());
        for d in at_root.deposits.iter().chain(&at_receiver.deposits) {
            assert_eq!((d.entry, &d.fp), (0.5, &None), "clocks travel to everyone");
        }
        assert!(hub.lock().slots.is_empty(), "slot retired once all served");
    }

    #[test]
    fn served_gathers_route_each_member_only_its_part() {
        let Rig { hub, peers } = rig(3);
        let all = [0, 1, 2];
        let (requests, serve) = ((1, 0), (1, 1));

        // Round one: each receiver's request is parted to reach only the
        // root, member 0, which deposits a unit.
        hub.on_frame(0, deposit(requests, 0, &all, &[0]));
        hub.on_frame(1, parted_deposit(requests, 1, &all, &[1; 16], &[16, 0, 0]));
        hub.on_frame(2, parted_deposit(requests, 2, &all, &[2; 24], &[24, 0, 0]));
        for (idx, &rank) in all.iter().enumerate() {
            hub.on_frame(rank, wait(requests, idx, &all));
        }
        let to_root = payloads(&answer_to(&peers[0]));
        assert_eq!(
            to_root,
            [vec![], vec![1; 16], vec![2; 24]],
            "only the requests"
        );
        for rank in [1, 2] {
            let got = payloads(&answer_to(&peers[rank]));
            assert_eq!(
                got,
                [vec![0], vec![], vec![]],
                "rank {rank} sees no request"
            );
        }

        // Round two: the root serves 3000 bytes to member 1 and 5000 to
        // member 2 in one deposit; the receivers deposit units.
        let mut served = vec![0xA1; 3000];
        served.extend_from_slice(&[0xA2; 5000]);
        hub.on_frame(0, parted_deposit(serve, 0, &all, &served, &[0, 3000, 5000]));
        hub.on_frame(1, deposit(serve, 1, &all, &[0]));
        hub.on_frame(2, deposit(serve, 2, &all, &[0]));
        {
            let state = hub.lock();
            let slot = &state.slots[&serve];
            let stored = slot.deposits[0].as_ref().expect("root deposit stored");
            let at = stored.payload.start;
            for (rank, part) in [(1, at..at + 3000), (2, at + 3000..at + 8000)] {
                // Each part goes out from the one stored body, in place.
                let collect = slot.collect_for(serve, rank);
                assert!(Arc::ptr_eq(&collect.payloads[0].0, &stored.body));
                let sent = collect.parts()[1];
                assert_eq!(sent.as_ptr(), stored.body[part.clone()].as_ptr());
                assert_eq!(sent.len(), part.len());
            }
        }
        for (idx, &rank) in all.iter().enumerate() {
            hub.on_frame(rank, wait(serve, idx, &all));
        }
        assert_eq!(payloads(&answer_to(&peers[0])), [vec![], vec![0], vec![0]]);
        let to_one = answer_to(&peers[1]);
        assert_eq!(payloads(&to_one), [vec![0xA1; 3000], vec![], vec![0]]);
        let to_two = answer_to(&peers[2]);
        assert_eq!(payloads(&to_two), [vec![0xA2; 5000], vec![0], vec![]]);
        // Nothing but the part and the heads: the same heads both ways.
        assert_eq!(to_one.body.len() - 3000, to_two.body.len() - 5000);
        assert!(to_one.body.len() < 3000 + 128, "{}", to_one.body.len());
        assert!(hub.lock().slots.is_empty(), "both slots retired");
    }

    #[test]
    fn malformed_part_tables_are_refused_by_name() {
        let Rig { hub, peers } = rig(3);
        let all = [0, 1, 2];
        for (parts, why) in [
            (vec![0..4, 2..6, 6..6], "part ranges overlap"),
            (
                vec![0..2, 2..6],
                "part table length differs from member count",
            ),
            (
                vec![0..2, 2..2, 2..2, 2..6],
                "part table length differs from member count",
            ),
            (vec![0..2, 2..6, 6..9], "part range runs past the payload"),
            (vec![0..2, 3..6, 6..6], "part ranges leave a gap"),
        ] {
            hub.on_frame(1, deposit_with_parts((1, 0), 1, &all, &[7; 6], parts));
            let got = error_to(&peers[1]);
            assert!(
                got.contains("bad deposit frame") && got.contains(why),
                "got: {got}"
            );
        }
        assert!(hub.lock().slots.is_empty(), "refused deposits open no slot");
    }

    #[test]
    fn misaddressed_deposits_are_named_as_such() {
        let Rig { hub, peers } = rig(3);
        let all = [0, 1, 2];
        hub.on_frame(1, deposit((1, 0), 5, &all, &[0]));
        let why = error_to(&peers[1]);
        assert!(
            why.contains("member index 5 of a 3-member group"),
            "got: {why}"
        );
        hub.on_frame(1, deposit((1, 0), 2, &all, &[0]));
        let why = error_to(&peers[1]);
        assert!(
            why.contains("which is rank 2, not the depositing rank 1"),
            "got: {why}"
        );
        assert!(hub.lock().slots.is_empty(), "refused deposits open no slot");

        hub.on_frame(0, deposit((1, 0), 0, &all, &[0]));
        hub.on_frame(1, deposit((1, 0), 1, &[0, 1], &[0]));
        let why = error_to(&peers[1]);
        assert!(
            why.contains("lists members [0, 1] but the rendezvous was opened with [0, 1, 2]"),
            "got: {why}"
        );
        // A genuine double deposit still reads as one.
        hub.on_frame(0, deposit((1, 0), 0, &all, &[0]));
        let why = error_to(&peers[0]);
        assert!(why.contains("deposited twice"), "got: {why}");
    }

    #[test]
    fn oversize_collect_is_refused_with_a_named_error() {
        let Rig { hub, peers } = rig(3);
        let (key, all) = ((1, 0), [0, 1, 2]);
        // Two deposits of just over half the frame cap each: either fits
        // a frame, their sum in one COLLECT does not.
        let half = (frame::MAX_FRAME as usize >> 1) + 1;
        hub.on_frame(0, untouched_deposit(key, 0, &all, half));
        hub.on_frame(1, untouched_deposit(key, 1, &all, half));
        hub.on_frame(2, deposit(key, 2, &all, &[0]));
        hub.on_frame(2, wait(key, 2, &all));
        let why = error_to(&peers[2]);
        assert!(
            why.contains("collect for comm 1 seq 0 cannot be sent")
                && why.contains(&format!("{}-byte cap", frame::MAX_FRAME)),
            "got: {why}"
        );
    }

    #[test]
    fn client_substitutes_its_own_deposit_and_refuses_a_collect_without_one() {
        let (ours, _theirs) = UnixStream::pair().expect("socket pair");
        let link = SocketLink {
            id: 7,
            client: Arc::new(SocketClient {
                rank: 1,
                writer: Mutex::new(ours),
                rx: Mutex::new(mpsc::channel().1),
                pending: Mutex::new(HashMap::new()),
            }),
        };
        let collect = || {
            let mut body = Vec::new();
            CollectMsg::put_head(&mut body, 7, 4, 2);
            CollectMsg::put_entry(&mut body, 1.0, &None, 8);
            body.extend_from_slice(&frame::encode(&42u64));
            CollectMsg::put_entry(&mut body, 2.0, &None, 0);
            Frame {
                kind: FrameKind::Collect,
                body,
            }
        };
        let Err(CollectError::Transport(why)) = link.accept_collect(collect(), 4, 1, 2) else {
            panic!("a collect with no pending own deposit must be refused");
        };
        assert!(
            why.contains("protocol error") && why.contains("no deposit pending"),
            "got: {why}"
        );

        let own: Payload = Arc::new(9u64);
        link.client
            .pending
            .lock()
            .expect("pending")
            .insert((7, 4), own.clone());
        let Ok(deposits) = link.accept_collect(collect(), 4, 1, 2) else {
            panic!("collect with a pending own deposit");
        };
        assert_eq!(*deposits[0].payload.extract::<u64>(), 42);
        match &deposits[1].payload {
            RxPayload::Local(p) => assert!(Arc::ptr_eq(p, &own)),
            RxPayload::Remote { .. } => panic!("own slot must be the stored Arc"),
        }
    }

    #[test]
    fn derived_ids_are_stable_and_distinct() {
        let a = derived_id(1, 7, 0);
        assert_eq!(a, derived_id(1, 7, 0));
        assert_ne!(a, derived_id(1, 7, 1));
        assert_ne!(a, derived_id(1, 8, 0));
        assert_ne!(a, WORLD_COMM_ID);
        // The top bit keeps derived ids clear of small world ids.
        assert!(a & (1 << 63) != 0);
    }

    #[test]
    fn run_indices_count_per_thread() {
        let first = next_socket_run_idx();
        assert_eq!(next_socket_run_idx(), first + 1);
        let other = std::thread::spawn(next_socket_run_idx)
            .join()
            .expect("counter thread");
        assert_eq!(other, 0, "each thread counts its own socket runs");
    }

    #[test]
    fn connect_with_retry_reports_timeout() {
        let path = std::env::temp_dir().join("cagnet-no-such-hub.sock");
        let err = connect_with_retry(&path, Duration::from_millis(50))
            .expect_err("dead socket must not connect");
        assert!(err.contains("could not connect"), "got: {err}");
    }
}
