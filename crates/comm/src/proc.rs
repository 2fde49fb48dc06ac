//! The multi-process socket transport: real worker processes behind
//! [`CommLink`].
//!
//! Topology is hub-and-spoke. The launcher (the process that called
//! [`Cluster::run_wire`](crate::cluster::Cluster::run_wire)) binds a
//! Unix domain socket, spawns `size - 1` worker processes by
//! re-executing the current binary, and runs a **hub** that routes
//! frames between them and keeps no rendezvous state: a client's
//! `DEPOSIT` is checked, mirrored, and forwarded at once to every other
//! member of its group. Each client files its own deposits and the
//! forwarded ones into its [`Mailbox`], and completes every collective
//! from it exactly as threads do — so a prefetched stage's bytes move
//! while the rank computes. A `WAIT` is a one-way notice for the
//! watchdog mirror; an `ERROR` fails the rank's waiting and later
//! collects. Rank 0 itself is a client too and receives over its own
//! socket, but shares the hub's process, so it hands the hub its frames
//! by a call instead of copying them through the socket.
//!
//! A payload is copied once per process it passes through: the sender
//! encodes it straight into its `DEPOSIT` body, the hub keeps that
//! received body as one shared buffer and writes each forward's part
//! from it in place, and the receiver decodes on demand from a range of
//! the forwarded body it read (DESIGN.md §11).
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
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cagnet_check::waitgraph::{HistoryEntry, RankPhase, SlotId, WaitSlot};

use crate::cluster::{watchdog, Cluster, Ctx};
use crate::comm::Registry;
use crate::diag::FirstPanic;
use crate::frame::{
    self, DepositMsg, ErrorMsg, Frame, FrameError, FrameKind, HelloMsg, PanicMsg, WaitMsg, Wire,
};
use crate::timeline::TimelineReport;
use crate::transport::{
    derived_id, CollectError, CommLink, Mailbox, RxDeposit, RxPayload, TxDeposit, WAIT_TICK,
    WORLD_COMM_ID,
};
use cagnet_check::fingerprint::CollectiveKind;

/// How long clients retry connecting to the hub socket (covers worker
/// process startup and run replay).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the hub waits for a fresh connection's `HELLO` before
/// refusing it and accepting the next.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

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

/// One rank's connection to the hub: a writer half guarded by a mutex,
/// and the rank's [`Mailbox`], which a dedicated reader thread fills with
/// the deposits the hub forwards. Collects wait on the mailbox, so they
/// poll the abort flag every wait tick without a read timeout ever
/// landing mid-frame on the socket.
struct SocketClient {
    rank: usize,
    writer: Mutex<UnixStream>,
    /// The hub itself, for the launcher's rank 0, which shares its
    /// process: that rank's frames are handed to the hub in the buffers
    /// they were encoded into instead of being copied through the socket.
    hub: Option<Arc<Hub>>,
    mailbox: Arc<Mailbox>,
}

impl SocketClient {
    fn connect(
        path: &Path,
        rank: usize,
        world: usize,
        run: u64,
        timeout: Duration,
        hub: Option<Arc<Hub>>,
    ) -> Result<Arc<Self>, String> {
        let mut stream = connect_with_retry(path, timeout)?;
        frame::write_frame(
            &mut stream,
            FrameKind::Hello,
            &frame::encode(&HelloMsg { rank, world, run }),
        )
        .map_err(|e| format!("rank {rank}: hello failed: {e}"))?;
        Self::start(rank, stream, hub)
    }

    /// The client of `rank` over a connection that has said `HELLO`: start
    /// the reader thread that files what arrives into the mailbox.
    fn start(rank: usize, stream: UnixStream, hub: Option<Arc<Hub>>) -> Result<Arc<Self>, String> {
        let reader = stream
            .try_clone()
            .map_err(|e| format!("rank {rank}: could not clone socket: {e}"))?;
        let mailbox = Arc::new(Mailbox::default());
        {
            let mailbox = mailbox.clone();
            std::thread::spawn(move || read_loop(rank, reader, &mailbox));
        }
        Ok(Arc::new(SocketClient {
            rank,
            writer: Mutex::new(stream),
            hub,
            mailbox,
        }))
    }

    fn send(&self, kind: FrameKind, body: Vec<u8>) -> Result<(), String> {
        if let Some(hub) = &self.hub {
            hub.on_frame(self.rank, Frame { kind, body });
            return Ok(());
        }
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        frame::write_frame(&mut *w, kind, &body)
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

/// A client's reader thread: file every deposit the hub forwards into
/// `mailbox`, and poison it — so the waiting collect and every later one
/// fail by name — on an `ERROR`, a frame that breaks the protocol, or a
/// lost connection.
fn read_loop(rank: usize, mut stream: UnixStream, mailbox: &Mailbox) {
    loop {
        match frame::read_frame(&mut stream) {
            Ok(fr) => {
                if let Err(why) = file_forwarded(rank, fr, mailbox) {
                    mailbox.poison(why);
                }
            }
            Err(e) => {
                return mailbox.poison(format!("connection to the launcher hub lost: {e}"));
            }
        }
    }
}

/// File one frame from the hub into `rank`'s mailbox. The `Err` is why
/// the mailbox must be poisoned: an `ERROR`'s own message, or a named
/// protocol error.
fn file_forwarded(rank: usize, fr: Frame, mailbox: &Mailbox) -> Result<(), String> {
    match fr.kind {
        FrameKind::Deposit => {
            let (msg, payload) =
                DepositMsg::parse(&fr.body).map_err(|e| format!("bad deposit frame: {e}"))?;
            let at = format!("comm {} seq {}", msg.comm, msg.seq);
            match msg.members.iter().position(|&m| m == rank) {
                None => {
                    return Err(format!(
                        "protocol error: deposit at {at} for ranks {:?} was forwarded to rank \
                         {rank}",
                        msg.members
                    ))
                }
                Some(me) if me == msg.my_idx => {
                    return Err(format!(
                        "protocol error: deposit at {at} forwarded to rank {rank} names its own \
                         member index {me}"
                    ))
                }
                Some(_) => {}
            }
            let dep = RxDeposit {
                entry: msg.entry,
                fp: msg.fp,
                payload: RxPayload::Remote {
                    body: Arc::new(fr.body),
                    range: payload,
                },
            };
            mailbox.file((msg.comm, msg.seq), &msg.members, msg.my_idx, dep)
        }
        FrameKind::Error => Err(match frame::decode::<ErrorMsg>(&fr.body) {
            Ok(e) => e.message,
            Err(e) => format!("bad error frame: {e}"),
        }),
        kind @ (FrameKind::Hello | FrameKind::Wait | FrameKind::Result | FrameKind::Panic) => Err(
            format!("protocol error: unexpected {kind:?} frame from the hub"),
        ),
    }
}

/// [`CommLink`] over a [`SocketClient`]. Every communicator of the rank
/// shares the client's one mailbox, keyed by communicator id, and a
/// split derives its id with [`derived_id`] exactly as the thread
/// backend does.
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
            fp: dep.fp.clone(),
            parts: dep.payload.parts.clone(),
        }
        .encode(|out| dep.payload.encode_into(out));
        // The rank's own deposit stays the same `Arc`, so its view of its
        // own payload is zero-copy, exactly like the shared backend.
        let own = RxDeposit {
            entry: dep.entry,
            fp: dep.fp,
            payload: RxPayload::Local(dep.payload.local),
        };
        self.client
            .mailbox
            .file((self.id, seq), members, my_idx, own)
            .map_err(CollectError::Transport)?;
        self.client
            .send(FrameKind::Deposit, body)
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
        let key = (self.id, seq);
        // The notice feeds the launcher's watchdog mirror of a worker; a
        // complete slot is collected without a wait, and rank 0, beside
        // the hub, keeps its own diagnostics.
        if self.client.hub.is_none() && !self.client.mailbox.is_complete(key) {
            let msg = WaitMsg {
                comm: self.id,
                seq,
                kind,
                my_idx,
                members: members.to_vec(),
            };
            self.client
                .send(FrameKind::Wait, frame::encode(&msg))
                .map_err(CollectError::Transport)?;
        }
        self.client.mailbox.collect(key, 1, abort, timeout)
    }

    fn derive(&self, key_seq: u64, color: u64) -> Arc<dyn CommLink> {
        Arc::new(SocketLink {
            id: derived_id(self.id, key_seq, color),
            client: self.client.clone(),
        })
    }
}

// ---------------------------------------------------------------------
// Hub: the launcher-side router.
// ---------------------------------------------------------------------

/// One frame on a connection's queue.
#[derive(Clone)]
struct Outgoing {
    kind: FrameKind,
    /// The leading bytes of the body.
    head: Vec<u8>,
    /// The rest of the body: a range of a received body, written from
    /// where it lies.
    payload: Option<(Arc<Vec<u8>>, Range<usize>)>,
}

impl Outgoing {
    fn error(why: &str) -> Self {
        Outgoing {
            kind: FrameKind::Error,
            head: frame::encode(&ErrorMsg {
                message: why.to_string(),
            }),
            payload: None,
        }
    }
}

/// The `DEPOSIT` frames that forward `msg`, whose payload lies at
/// `payload` in the received `body`, to every member but its sender: the
/// same head without a part table, then the member's part — or the whole
/// payload, unparted — written from `body` in place.
fn forwards(
    mut msg: DepositMsg,
    body: &Arc<Vec<u8>>,
    payload: Range<usize>,
) -> Vec<(usize, Outgoing)> {
    let parts = msg.parts.take();
    let head = msg.head(0);
    let len_at = head.len() - 8;
    let mut out = Vec::with_capacity(msg.members.len().saturating_sub(1));
    for (idx, &member) in msg.members.iter().enumerate() {
        if idx == msg.my_idx {
            continue;
        }
        let part = match &parts {
            None => payload.clone(),
            Some(parts) => payload.start + parts[idx].start..payload.start + parts[idx].end,
        };
        let mut head = head.clone();
        head[len_at..].copy_from_slice(&(part.len() as u64).to_le_bytes());
        out.push((
            member,
            Outgoing {
                kind: FrameKind::Deposit,
                head,
                payload: Some((body.clone(), part)),
            },
        ));
    }
    out
}

/// A connection's writer thread: write every queued frame, in order, to
/// `stream`, until the queue closes or a write fails (the peer is gone,
/// which its connection reader reports).
fn write_loop(mut stream: UnixStream, queue: Receiver<Outgoing>) {
    for out in queue {
        let payload = out
            .payload
            .as_ref()
            .map_or(&[][..], |(buf, at)| &buf[at.clone()]);
        if frame::write_frame_parts(&mut stream, out.kind, &[&out.head, payload]).is_err() {
            return;
        }
    }
}

struct HubState {
    /// Encoded `(result, report)` per worker rank; index 0 is unused
    /// (rank 0's result never travels through the hub).
    results: Vec<Option<Vec<u8>>>,
    /// Which ranks' deaths have been recorded.
    dead: Vec<bool>,
}

/// The router between the ranks' connections. It keeps no rendezvous
/// state: each `DEPOSIT` is forwarded at once to the other members, whose
/// mailboxes complete the rendezvous. It mirrors every remote rank's
/// deposits, waits, results and panics into the launcher's diagnostics so
/// the watchdog and failure reports work identically to the thread
/// backend; rank 0's own thread maintains its diagnostics directly, so
/// its frames are not mirrored.
///
/// Writes: each rank's frames go onto its own queue, which one writer
/// thread per connection drains, so a peer that stops draining its
/// socket stalls its own queue and nothing else — not other ranks'
/// forwards, not abort delivery. The queues exist from the start, so
/// frames for a rank that has not connected yet wait for it. `state`
/// guards results and deaths only and is never held across a send.
struct Hub {
    registry: Arc<Registry>,
    size: usize,
    /// Index of the socket run this hub serves; a `HELLO` must name it.
    run: u64,
    queues: Vec<Sender<Outgoing>>,
    /// The draining end of each rank's queue until that rank's `HELLO`
    /// claims it; a second `HELLO` for the rank finds it taken.
    unclaimed: Mutex<Vec<Option<Receiver<Outgoing>>>>,
    /// Set once the abort `ERROR` has been queued to every rank.
    aborted: AtomicBool,
    state: Mutex<HubState>,
}

impl Hub {
    fn new(registry: Arc<Registry>, size: usize, run: u64) -> Self {
        let (queues, unclaimed) = (0..size)
            .map(|_| {
                let (tx, rx) = mpsc::channel();
                (tx, Some(rx))
            })
            .unzip();
        Hub {
            registry,
            size,
            run,
            queues,
            unclaimed: Mutex::new(unclaimed),
            aborted: AtomicBool::new(false),
            state: Mutex::new(HubState {
                results: vec![None; size],
                dead: vec![false; size],
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_unclaimed(&self) -> MutexGuard<'_, Vec<Option<Receiver<Outgoing>>>> {
        self.unclaimed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit a connection's `HELLO`: check it names this run's world and
    /// a rank not yet connected, and start the rank's writer thread on
    /// `stream`. The `Err` says why the `HELLO` is refused.
    fn admit(&self, hello: &HelloMsg, stream: UnixStream) -> Result<(), String> {
        let rank = hello.rank;
        if hello.world != self.size {
            return Err(format!(
                "HELLO expects a {}-rank world, but this run has {}",
                hello.world, self.size
            ));
        }
        if hello.run != self.run {
            return Err(format!(
                "HELLO is for socket run {}, but this hub serves run {}",
                hello.run, self.run
            ));
        }
        let queue = match self.lock_unclaimed().get_mut(rank) {
            None => {
                return Err(format!(
                    "HELLO names rank {rank} of a {}-rank world",
                    self.size
                ))
            }
            Some(slot) => slot.take(),
        };
        let Some(queue) = queue else {
            return Err(format!("rank {rank} is already connected"));
        };
        std::thread::spawn(move || write_loop(stream, queue));
        Ok(())
    }

    fn all_admitted(&self) -> bool {
        self.lock_unclaimed().iter().all(Option::is_none)
    }

    /// Queue one frame for `rank`. A closed queue means its writer
    /// stopped because the peer died, which its connection reader
    /// reports.
    fn send(&self, rank: usize, out: Outgoing) {
        if let Some(queue) = self.queues.get(rank) {
            let _ = queue.send(out);
        }
    }

    fn send_error(&self, rank: usize, why: String) {
        self.send(rank, Outgoing::error(&why));
    }

    /// Queue one `ERROR` carrying `why` to every rank, the first time
    /// only. Called on panic, death, and whenever the monitor thread
    /// observes the abort flag (covering rank-0 panics and
    /// watchdog-declared deadlocks).
    fn abort(&self, why: &str) {
        if self.aborted.swap(true, Ordering::Relaxed) {
            return;
        }
        let error = Outgoing::error(why);
        for rank in 0..self.size {
            self.send(rank, error.clone());
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
            kind @ (FrameKind::Hello | FrameKind::Error) => {
                self.send_error(rank, format!("unexpected {kind:?} frame from a client"))
            }
        }
    }

    /// Check that `rank`'s deposit names it as its sender and only ranks
    /// of this world as members, mirror it, and forward it.
    fn on_deposit(&self, rank: usize, msg: DepositMsg, body: Arc<Vec<u8>>, payload: Range<usize>) {
        let at = || format!("comm {} seq {}", msg.comm, msg.seq);
        let refusal = match msg.members.get(msg.my_idx) {
            Some(&m) if m != rank => Some(format!(
                "protocol error: deposit at {} names member index {}, which is rank {m}, not the \
                 depositing rank {rank}",
                at(),
                msg.my_idx
            )),
            Some(_) => msg.members.iter().find(|&&m| m >= self.size).map(|m| {
                format!(
                    "protocol error: deposit at {} lists rank {m} of a {}-rank world",
                    at(),
                    self.size
                )
            }),
            None => Some(format!(
                "protocol error: deposit at {} names member index {} of a {}-member group",
                at(),
                msg.my_idx,
                msg.members.len()
            )),
        };
        if let Some(why) = refusal {
            return self.send_error(rank, why);
        }
        if rank != 0 {
            let diag = &self.registry.diag;
            diag.set_phase(rank, RankPhase::Running);
            diag.record_deposit(
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
        for (member, out) in forwards(msg, &body, payload) {
            self.send(member, out);
        }
    }

    /// Mirror a worker's `WAIT` notice; it is never answered, and the
    /// rank reads as running again from its next `DEPOSIT`.
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
                    members: msg.members,
                },
            );
        }
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
        self.abort(&why);
    }

    /// A client connection closed (or its process exited) without a
    /// result: record the death, raise the abort flag, and tell every
    /// rank by name so no peer hangs until timeout. Rank 0 lives in the
    /// launcher process, so its connection closing is never a death.
    /// Idempotent.
    fn rank_closed(&self, rank: usize, reason: String) {
        if rank == 0 {
            return;
        }
        {
            let mut state = self.lock();
            let finished = state.results.get(rank).is_some_and(|r| r.is_some());
            let already = state.dead.get(rank).copied().unwrap_or(true);
            if finished || already {
                return;
            }
            state.dead[rank] = true;
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
        self.abort(&why);
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

/// Accept connections until every rank has been admitted. Each `HELLO`
/// is read here, one connection at a time and for at most
/// [`HELLO_TIMEOUT`]; a refused one is answered with an `ERROR` naming
/// why, its frames are never dispatched, and it takes no rank's place.
fn accept_loop(listener: UnixListener, hub: Arc<Hub>) {
    while !hub.all_admitted() {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let admitted = read_hello(&mut stream).and_then(|hello| {
            let writer = stream
                .try_clone()
                .map_err(|e| format!("could not clone socket: {e}"))?;
            hub.admit(&hello, writer)?;
            Ok(hello.rank)
        });
        match admitted {
            Ok(rank) => {
                let hub = hub.clone();
                std::thread::spawn(move || handle_conn(rank, stream, &hub));
            }
            Err(why) => {
                let body = frame::encode(&ErrorMsg { message: why });
                let _ = frame::write_frame(&mut stream, FrameKind::Error, &body);
            }
        }
    }
}

/// Read a fresh connection's `HELLO`, waiting at most [`HELLO_TIMEOUT`].
fn read_hello(stream: &mut UnixStream) -> Result<HelloMsg, String> {
    let fr = stream
        .set_read_timeout(Some(HELLO_TIMEOUT))
        .map_err(FrameError::Io)
        .and_then(|()| frame::read_frame(stream))
        .map_err(|e| format!("expected a HELLO frame: {e}"))?;
    if fr.kind != FrameKind::Hello {
        return Err(format!("expected a HELLO frame, got {:?}", fr.kind));
    }
    let hello = frame::decode(&fr.body).map_err(|e| format!("bad hello frame: {e}"))?;
    stream
        .set_read_timeout(None)
        .map_err(|e| format!("could not clear the read timeout: {e}"))?;
    Ok(hello)
}

/// Dispatch an admitted rank's frames until its connection closes.
fn handle_conn(rank: usize, mut stream: UnixStream, hub: &Hub) {
    loop {
        match frame::read_frame(&mut stream) {
            Ok(fr) => hub.on_frame(rank, fr),
            Err(e) => return hub.rank_closed(rank, format!("connection lost: {e}")),
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

/// The monitor thread: sends the abort flag out to every rank (covering
/// rank-0 panics and watchdog verdicts, which never pass through the
/// hub) and detects worker processes that exit without reporting.
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
            hub.abort(&why);
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
    let hub = Arc::new(Hub::new(registry.clone(), size, run_idx));
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
    let hub_ref = &hub;
    let rank0_res: Option<(R, TimelineReport)> = std::thread::scope(|scope| {
        if cl.check.is_on() {
            let registry = registry.clone();
            scope.spawn(move || watchdog(&registry));
        }
        let handle = scope.spawn(move || {
            let beside = Some(hub_ref.clone());
            let client =
                match SocketClient::connect(sock_ref, 0, size, run_idx, CONNECT_TIMEOUT, beside) {
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
    let client = match SocketClient::connect(
        &env.socket,
        env.rank,
        env.world,
        env.run,
        CONNECT_TIMEOUT,
        None,
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cagnet socket worker rank {}: {e}", env.rank);
            std::process::exit(3);
        }
    };
    let link = SocketLink::world(client.clone());
    match cl.run_rank(&Registry::for_run(cl), link, env.rank, &f) {
        Ok(done) => match client.send(FrameKind::Result, frame::encode(&done)) {
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
            let _ = client.send(FrameKind::Panic, frame::encode(&msg));
            std::process::exit(101);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{SharedLink, TxPayload};
    use std::io::{ErrorKind, Read};

    /// A hub for `size` ranks whose connections are socket pairs:
    /// `hub.on_frame(rank, ..)` stands in for `rank`'s connection
    /// thread, and what the hub sends `rank` arrives on `peers[rank]`.
    struct Rig {
        hub: Arc<Hub>,
        peers: Vec<UnixStream>,
    }

    fn rig(size: usize) -> Rig {
        let registry = Registry::for_run(&Cluster::new(size).with_timeout(Duration::from_secs(5)));
        let hub = Arc::new(Hub::new(registry, size, 0));
        let peers = (0..size)
            .map(|rank| {
                let (hub_end, peer) = UnixStream::pair().expect("socket pair");
                peer.set_read_timeout(Some(Duration::from_secs(5)))
                    .expect("read timeout");
                let hello = HelloMsg {
                    rank,
                    world: size,
                    run: 0,
                };
                hub.admit(&hello, hub_end).expect("admitted");
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

    fn answer_to(peer: &UnixStream) -> Frame {
        let mut peer = peer;
        frame::read_frame(&mut peer).expect("the hub sends a frame")
    }

    /// The next frame to `peer`, which must be a forwarded deposit: its
    /// head and its payload bytes.
    fn forward_to(peer: &UnixStream) -> (DepositMsg, Vec<u8>) {
        let fr = answer_to(peer);
        assert_eq!(fr.kind, FrameKind::Deposit);
        let (msg, payload) = DepositMsg::parse(&fr.body).expect("forwarded body");
        (msg, fr.body[payload].to_vec())
    }

    fn error_to(peer: &UnixStream) -> String {
        let fr = answer_to(peer);
        assert_eq!(fr.kind, FrameKind::Error);
        frame::decode::<ErrorMsg>(&fr.body)
            .expect("error body")
            .message
    }

    /// Whether nothing reaches `peer` for a tenth of a second.
    fn silent(peer: &UnixStream) -> bool {
        peer.set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let mut peer_ref = peer;
        let got = frame::read_frame(&mut peer_ref);
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        matches!(got, Err(FrameError::Io(e)) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut))
    }

    /// A client of `rank` whose hub end is the returned stream.
    fn client(rank: usize) -> (Arc<SocketClient>, UnixStream) {
        let (ours, hub_end) = UnixStream::pair().expect("socket pair");
        hub_end
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        (
            SocketClient::start(rank, ours, None).expect("client"),
            hub_end,
        )
    }

    fn send_to_client(hub_end: &UnixStream, fr: &Frame) {
        let mut hub_end = hub_end;
        frame::write_frame(&mut hub_end, fr.kind, &fr.body).expect("write to client");
    }

    fn collect(
        link: &dyn CommLink,
        seq: u64,
        my_idx: usize,
        members: &[usize],
    ) -> Result<Vec<RxDeposit>, CollectError> {
        let bcast = CollectiveKind::Bcast;
        link.collect(
            bcast,
            seq,
            my_idx,
            members,
            &|| None,
            Duration::from_secs(5),
        )
    }

    fn transport_error(got: Result<Vec<RxDeposit>, CollectError>) -> String {
        match got {
            Err(CollectError::Transport(why)) => why,
            Ok(_) => panic!("the collect must fail"),
            Err(_) => panic!("the collect must fail on the transport"),
        }
    }

    fn unit_deposit() -> TxDeposit {
        TxDeposit {
            entry: 0.0,
            fp: None,
            payload: TxPayload::unit(),
        }
    }

    #[test]
    fn stalled_peer_blocks_neither_other_rendezvous_nor_abort_delivery() {
        let Rig { hub, peers } = rig(4);
        // Rank 0 broadcasts 8 MiB to ranks 1 and 2. Nobody drains rank
        // 1's socket, so the forward to it stalls once the socket buffer
        // is full; the frame header arriving proves that write is in
        // flight.
        let n = 8 << 20;
        hub.on_frame(0, deposit((1, 0), 0, &[0, 1, 2], &vec![7u8; n]));
        let mut header = [0u8; frame::HEADER_LEN];
        (&peers[1]).read_exact(&mut header).expect("forward header");

        // Meanwhile ranks 2 and 3 deposit on another communicator and
        // the run aborts — on a thread, so a hub that writes them behind
        // the stalled forward fails this test instead of hanging it.
        let (done_tx, done_rx) = mpsc::channel();
        {
            let hub = hub.clone();
            std::thread::spawn(move || {
                let others = [2, 3];
                for idx in 0..2 {
                    hub.on_frame(others[idx], deposit((9, 0), idx, &others, &[idx as u8]));
                }
                hub.abort("abort");
                let _ = done_tx.send(());
            });
        }
        done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("handled within a second of the stall");
        // The other member of the stalled deposit gets its forward, the
        // other rendezvous its forwards, everyone the error.
        let (msg, payload) = forward_to(&peers[2]);
        assert_eq!((msg.comm, msg.my_idx, payload.len()), (1, 0, n));
        assert_eq!(forward_to(&peers[2]).1, [1]);
        assert_eq!(forward_to(&peers[3]).1, [0]);
        for rank in [0, 2, 3] {
            assert_eq!(error_to(&peers[rank]), "abort");
        }
        // Abort is sent once.
        hub.abort("again");
        assert!(silent(&peers[0]));

        // Drain rank 1: the stalled forward completes, then its error.
        let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
        let mut rest = vec![0u8; len as usize];
        (&peers[1]).read_exact(&mut rest).expect("forward body");
        assert_eq!(error_to(&peers[1]), "abort");
    }

    #[test]
    fn frames_sent_to_the_wrong_side_are_named_protocol_errors() {
        // Client-only kinds at the hub, after the handshake.
        let Rig { hub, peers } = rig(2);
        for kind in [FrameKind::Hello, FrameKind::Error] {
            hub.on_frame(1, Frame { kind, body: vec![] });
            let why = error_to(&peers[1]);
            assert_eq!(why, format!("unexpected {kind:?} frame from a client"));
        }

        // Anything but a deposit or an error at a client fails its
        // collects by name.
        for kind in [
            FrameKind::Hello,
            FrameKind::Wait,
            FrameKind::Result,
            FrameKind::Panic,
        ] {
            let (client, hub_end) = client(1);
            let link = SocketLink { id: 7, client };
            send_to_client(&hub_end, &Frame { kind, body: vec![] });
            let why = transport_error(collect(&link, 0, 1, &[0, 1]));
            assert_eq!(
                why,
                format!("protocol error: unexpected {kind:?} frame from the hub")
            );
        }
    }

    #[test]
    fn deposits_are_forwarded_to_every_other_member_from_the_received_buffer() {
        let Rig { hub, peers } = rig(3);
        let (key, all, n) = ((1, 3), [0, 1, 2], 64 << 10);
        let root = deposit(key, 0, &all, &vec![0xAB; n]);
        let (head, payload) = DepositMsg::parse(&root.body).expect("root deposit");
        // What goes out is the received buffer's bytes, in place: one
        // forward per other member, each holding that very buffer.
        let body = Arc::new(root.body.clone());
        let outs = forwards(head.clone(), &body, payload.clone());
        assert_eq!(outs.iter().map(|(m, _)| *m).collect::<Vec<_>>(), [1, 2]);
        for (_, out) in &outs {
            let Some((buf, at)) = &out.payload else {
                panic!("a forward carries the payload");
            };
            assert!(Arc::ptr_eq(buf, &body));
            assert_eq!(*at, payload);
        }
        assert_eq!(Arc::strong_count(&body), 3);

        hub.on_frame(0, root);
        for rank in [1, 2] {
            let (msg, got) = forward_to(&peers[rank]);
            assert_eq!(msg, head, "the head travels as sent");
            assert!(got.len() == n && got.iter().all(|&b| b == 0xAB));
        }
        assert!(silent(&peers[0]), "the root was echoed its own deposit");

        // The launcher's rank 0, beside the hub, hands its deposit over in
        // memory; it is forwarded alike.
        let (ours, _unused) = UnixStream::pair().expect("socket pair");
        let client = SocketClient::start(0, ours, Some(hub.clone())).expect("client");
        let beside = SocketLink { id: 1, client };
        let tx = TxDeposit {
            entry: 0.5,
            fp: None,
            payload: TxPayload::of(Arc::new(7u64)),
        };
        beside
            .deposit(CollectiveKind::Bcast, 4, 0, &all, tx)
            .unwrap_or_else(|_| panic!("deposit beside the hub"));
        for rank in [1, 2] {
            let (msg, got) = forward_to(&peers[rank]);
            assert_eq!((msg.comm, msg.seq, msg.my_idx), (1, 4, 0));
            assert_eq!(frame::decode::<u64>(&got).ok(), Some(7));
        }
        assert!(silent(&peers[0]));
    }

    #[test]
    fn served_gathers_route_each_member_only_its_part() {
        let Rig { hub, peers } = rig(3);
        let all = [0, 1, 2];
        let (requests, serve) = ((1, 0), (1, 1));

        // Round one: each receiver's request is parted to reach only the
        // root, member 0.
        hub.on_frame(1, parted_deposit(requests, 1, &all, &[1; 16], &[16, 0, 0]));
        hub.on_frame(2, parted_deposit(requests, 2, &all, &[2; 24], &[24, 0, 0]));
        for (from, bytes) in [(1, vec![1; 16]), (2, vec![2; 24])] {
            let (msg, got) = forward_to(&peers[0]);
            assert_eq!((msg.my_idx, msg.parts, got), (from, None, bytes));
        }
        for (rank, other) in [(1, 2), (2, 1)] {
            let (msg, got) = forward_to(&peers[rank]);
            assert_eq!(msg.my_idx, other);
            assert!(got.is_empty(), "rank {rank} sees no request");
        }

        // Round two: the root serves 3000 bytes to member 1 and 5000 to
        // member 2 in one deposit; each part goes out from the one
        // received body, in place.
        let mut served = vec![0xA1; 3000];
        served.extend_from_slice(&[0xA2; 5000]);
        let root = parted_deposit(serve, 0, &all, &served, &[0, 3000, 5000]);
        let (head, payload) = DepositMsg::parse(&root.body).expect("serve deposit");
        let body = Arc::new(root.body.clone());
        let at = payload.start;
        let outs = forwards(head, &body, payload);
        for ((member, out), part) in outs.iter().zip([at..at + 3000, at + 3000..at + 8000]) {
            let Some((buf, at)) = &out.payload else {
                panic!("member {member}: a forward carries its part");
            };
            assert!(Arc::ptr_eq(buf, &body), "member {member}");
            assert_eq!(*at, part);
        }
        hub.on_frame(0, root);
        let (to_one, one) = forward_to(&peers[1]);
        let (to_two, two) = forward_to(&peers[2]);
        assert_eq!((one, two), (vec![0xA1; 3000], vec![0xA2; 5000]));
        // Nothing but the part after the head: the same head both ways,
        // with no part table.
        assert_eq!(to_one, to_two);
        assert_eq!(to_one.parts, None);
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
        assert!(
            silent(&peers[0]) && silent(&peers[2]),
            "refused deposits forward nothing"
        );
    }

    #[test]
    fn misaddressed_deposits_are_named_as_such() {
        let Rig { hub, peers } = rig(3);
        let all = [0, 1, 2];
        for (frame, expect) in [
            (
                deposit((1, 0), 5, &all, &[0]),
                "member index 5 of a 3-member group",
            ),
            (
                deposit((1, 0), 2, &all, &[0]),
                "which is rank 2, not the depositing rank 1",
            ),
            (
                deposit((1, 0), 1, &[0, 1, 4], &[0]),
                "lists rank 4 of a 3-rank world",
            ),
        ] {
            hub.on_frame(1, frame);
            let why = error_to(&peers[1]);
            assert!(why.contains(expect), "got: {why}");
        }
        assert!(
            silent(&peers[0]) && silent(&peers[2]),
            "refused deposits forward nothing"
        );
    }

    #[test]
    fn refused_hellos_are_named_and_take_no_ranks_place() {
        let path = socket_path();
        let _guard = SocketGuard(path.clone());
        let listener = UnixListener::bind(&path).expect("bind");
        let registry = Registry::for_run(&Cluster::new(2).with_timeout(Duration::from_secs(5)));
        let hub = Arc::new(Hub::new(registry.clone(), 2, 0));
        {
            let hub = hub.clone();
            std::thread::spawn(move || accept_loop(listener, hub));
        }
        let connect = |fr: Frame| {
            let mut s = UnixStream::connect(&path).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            frame::write_frame(&mut s, fr.kind, &fr.body).expect("hello");
            s
        };
        let hello = |rank, world, run| Frame {
            kind: FrameKind::Hello,
            body: frame::encode(&HelloMsg { rank, world, run }),
        };

        let one = connect(hello(1, 2, 0));
        // A second claimant of rank 1 is refused by name, and closing it
        // is no death of rank 1.
        let duplicate = connect(hello(1, 2, 0));
        assert_eq!(error_to(&duplicate), "rank 1 is already connected");
        drop(duplicate);
        for (fr, why) in [
            (hello(7, 2, 0), "HELLO names rank 7 of a 2-rank world"),
            (
                hello(0, 3, 0),
                "HELLO expects a 3-rank world, but this run has 2",
            ),
            (
                hello(0, 2, 9),
                "HELLO is for socket run 9, but this hub serves run 0",
            ),
            (
                deposit((1, 0), 0, &[0, 1], &[0]),
                "expected a HELLO frame, got Deposit",
            ),
        ] {
            assert_eq!(error_to(&connect(fr)), why);
        }

        // Rank 0 still gets in, and its deposit reaches the first
        // claimant of rank 1.
        let zero = connect(hello(0, 2, 0));
        let mut zero_ref = &zero;
        let dep = deposit((1, 0), 0, &[0, 1], &[5]);
        frame::write_frame(&mut zero_ref, dep.kind, &dep.body).expect("deposit");
        assert_eq!(forward_to(&one).1, [5]);
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(registry.diag.abort_message(), None, "the run goes on");
    }

    #[test]
    fn client_hands_back_its_own_deposit_and_refuses_a_forward_in_its_place() {
        let (client, hub_end) = client(1);
        let link = SocketLink { id: 7, client };
        let pair = [0, 1];
        let own = Arc::new(9u64);
        let tx = TxDeposit {
            entry: 2.0,
            fp: None,
            payload: TxPayload::of(own.clone()),
        };
        link.deposit(CollectiveKind::Bcast, 4, 1, &pair, tx)
            .unwrap_or_else(|_| panic!("own deposit"));
        // The deposit went to the hub whole, as this rank's.
        let (sent, payload) = forward_to(&hub_end);
        assert_eq!((sent.comm, sent.seq, sent.my_idx), (7, 4, 1));
        assert_eq!(frame::decode::<u64>(&payload).ok(), Some(9));

        send_to_client(&hub_end, &deposit((7, 4), 0, &pair, &frame::encode(&42u64)));
        let Ok(deposits) = collect(&link, 4, 1, &pair) else {
            panic!("collect with both deposits");
        };
        assert_eq!(*deposits[0].payload.extract::<u64>(), 42);
        assert_eq!(deposits[0].payload.wire_len(), 8);
        assert_eq!((deposits[0].entry, deposits[1].entry), (0.5, 2.0));
        match &deposits[1].payload {
            RxPayload::Local(p) => assert!(Arc::ptr_eq(
                &p.clone().downcast::<u64>().expect("u64"),
                &own
            )),
            RxPayload::Remote { .. } => panic!("own slot must be the stored Arc"),
        }

        // A forward naming this rank's own member index is a protocol
        // error.
        send_to_client(&hub_end, &deposit((7, 5), 1, &pair, &[0]));
        let why = transport_error(collect(&link, 5, 1, &pair));
        assert_eq!(
            why,
            "protocol error: deposit at comm 7 seq 5 forwarded to rank 1 names its own member \
             index 1"
        );
    }

    #[test]
    fn mailbox_refuses_a_second_deposit_and_another_member_list_on_both_transports() {
        let twice = "rank deposited twice at comm 1 seq 0 — collective misuse";
        let mismatch = "protocol error: deposit at comm 1 seq 0 lists members [0, 2] but the \
                        rendezvous was opened with [0, 1, 2]";

        // Threads: the depositing rank is refused.
        let registry = Registry::for_run(&Cluster::new(3));
        let link = SharedLink::world(&registry);
        let put = |idx, members: &[usize]| match link.deposit(
            CollectiveKind::Bcast,
            0,
            idx,
            members,
            unit_deposit(),
        ) {
            Ok(()) => None,
            Err(CollectError::Transport(why)) => Some(why),
            Err(_) => panic!("a refused deposit is a transport error"),
        };
        assert_eq!(put(0, &[0, 1, 2]), None);
        assert_eq!(put(0, &[0, 1, 2]).as_deref(), Some(twice));
        assert_eq!(put(1, &[0, 2]).as_deref(), Some(mismatch));

        // Sockets: the rank the deposit was forwarded to fails its
        // collects by name.
        for (second, why) in [
            (deposit((1, 0), 0, &[0, 1, 2], &[0]), twice),
            (deposit((1, 0), 0, &[0, 2], &[0]), mismatch),
        ] {
            let (client, hub_end) = client(2);
            let link = SocketLink::world(client);
            send_to_client(&hub_end, &deposit((1, 0), 0, &[0, 1, 2], &[0]));
            send_to_client(&hub_end, &second);
            assert_eq!(transport_error(collect(&*link, 0, 2, &[0, 1, 2])), why);
        }
    }

    #[test]
    fn an_error_fails_the_waiting_collect_and_the_next_and_waits_are_noticed_once() {
        let (client, hub_end) = client(1);
        let link = Arc::new(SocketLink { id: 3, client });
        let pair = [0, 1];
        // A complete slot is collected without a notice.
        link.deposit(CollectiveKind::Bcast, 0, 1, &pair, unit_deposit())
            .unwrap_or_else(|_| panic!("deposit"));
        assert_eq!(answer_to(&hub_end).kind, FrameKind::Deposit);
        send_to_client(&hub_end, &deposit((3, 0), 0, &pair, &frame::encode(&())));
        while !link.client.mailbox.is_complete((3, 0)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(collect(&*link, 0, 1, &pair).is_ok());
        assert!(silent(&hub_end), "no notice for a complete slot");

        // An incomplete one is noticed, and an ERROR fails it.
        let waiting = {
            let link = link.clone();
            std::thread::spawn(move || transport_error(collect(&*link, 1, 1, &[0, 1])))
        };
        let notice = answer_to(&hub_end);
        assert_eq!(notice.kind, FrameKind::Wait);
        let wait = frame::decode::<WaitMsg>(&notice.body).expect("wait body");
        assert_eq!((wait.comm, wait.seq, wait.my_idx), (3, 1, 1));
        let error = Frame {
            kind: FrameKind::Error,
            body: frame::encode(&ErrorMsg {
                message: "rank 0 panicked during bcast".to_string(),
            }),
        };
        send_to_client(&hub_end, &error);
        assert_eq!(
            waiting.join().expect("waiting collect"),
            "rank 0 panicked during bcast"
        );
        let next = transport_error(collect(&*link, 2, 1, &pair));
        assert_eq!(next, "rank 0 panicked during bcast");
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
