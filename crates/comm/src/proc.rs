//! The multi-process socket transport: real worker processes behind
//! the same per-rank link and mailbox as threads.
//!
//! Topology is hub-and-spoke. The launcher (the process that called
//! [`Cluster::run_wire`](crate::cluster::Cluster::run_wire)) binds a
//! Unix domain socket, spawns `size - 1` worker processes by
//! re-executing the current binary, runs rank 0 itself, and runs a
//! **hub** that routes deposits and keeps no rendezvous state: a
//! deposit is checked, mirrored, and delivered at once to every other
//! member of its group. Every rank files its own deposits into its
//! [`Mailbox`] and completes every collective from it exactly as threads
//! do — so a prefetched stage's bytes move while the rank computes.
//!
//! Only the delivery differs by rank. A worker sends its deposit to the
//! hub as a `DEPOSIT` frame, and its reader thread files what the hub
//! forwards it into its mailbox; a `WAIT` is a one-way notice for the
//! watchdog mirror, and an `ERROR` fails the rank's waiting and later
//! collects. Rank 0 shares the hub's process and has no socket: it hands
//! the hub its deposit by a call, and the hub files what rank 0 receives
//! straight into rank 0's mailbox and delivers its errors by poisoning
//! that mailbox.
//!
//! A payload is copied once per process it passes through: the sender
//! encodes it straight into its `DEPOSIT` body, the hub keeps that
//! received body as one shared buffer — writing each worker's part from
//! it in place, and filing rank 0's as a range of it — and a worker
//! decodes on demand from a range of the forwarded body it read
//! (DESIGN.md §11).
//!
//! Everything above the link is shared with the thread backend: entry
//! clocks travel as exact `f64` bit patterns, collective fingerprints
//! piggyback on `DEPOSIT` frames, and the deadlock watchdog runs
//! unmodified in the launcher because the hub mirrors every worker's
//! deposit/wait/result/panic into the launcher's
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
//! Every socket is wrapped in a [`Conn`] the moment it is connected or
//! accepted. A `Conn` moves whole frames only, so all wire I/O in this
//! module goes through the framed codec in `frame.rs`.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cagnet_check::waitgraph::{HistoryEntry, RankPhase, SlotId, WaitSlot};

use crate::cluster::{watchdog, Cluster, Ctx};
use crate::comm::Registry;
use crate::diag::FirstPanic;
use crate::frame::{
    self, Conn, DepositMsg, ErrorMsg, Frame, FrameError, FrameKind, HelloMsg, PanicMsg, WaitMsg,
    Wire,
};
use crate::lock::Lock;
use crate::timeline::TimelineReport;
use crate::transport::{Leg, Mailbox, RxDeposit, RxPayload, WAIT_TICK};

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
pub fn connect_with_retry(path: &Path, timeout: Duration) -> Result<Conn, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(Conn::new(s)),
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

/// A worker's connection to the hub: a writer half behind a lock,
/// and a dedicated reader thread that files the deposits the hub forwards
/// into the rank's mailbox. Collects wait on the mailbox, so they poll
/// the abort flag every wait tick without a read timeout ever landing
/// mid-frame on the socket.
pub(crate) struct SocketClient {
    rank: usize,
    writer: Lock<Conn>,
}

impl SocketClient {
    /// Connect worker `env` to its launcher's hub and say `HELLO`.
    fn connect(env: &WorkerEnv, mailbox: Arc<Mailbox>) -> Result<Arc<Self>, String> {
        let (rank, world, run) = (env.rank, env.world, env.run);
        let mut conn = connect_with_retry(&env.socket, CONNECT_TIMEOUT)?;
        let hello = frame::encode(&HelloMsg { rank, world, run });
        conn.write_frame(FrameKind::Hello, &hello)
            .map_err(|e| format!("rank {rank}: hello failed: {e}"))?;
        Self::start(rank, conn, mailbox)
    }

    /// The client of `rank` over a connection that has said `HELLO`: start
    /// the reader thread that files what arrives into `mailbox`.
    fn start(rank: usize, conn: Conn, mailbox: Arc<Mailbox>) -> Result<Arc<Self>, String> {
        let reader = conn
            .try_clone()
            .map_err(|e| format!("rank {rank}: could not clone socket: {e}"))?;
        std::thread::spawn(move || read_loop(rank, reader, &mailbox));
        Ok(Arc::new(SocketClient {
            rank,
            writer: Lock::new("client.writer", conn),
        }))
    }

    pub(crate) fn send(&self, kind: FrameKind, body: Vec<u8>) -> Result<(), String> {
        self.writer
            .with(|w| w.write_frame(kind, &body))
            .map_err(|e| format!("rank {}: sending {kind:?} frame failed: {e}", self.rank))
    }
}

/// A client's reader thread: file every deposit the hub forwards into
/// `mailbox`, and poison it — so the waiting collect and every later one
/// fail by name — on an `ERROR`, a frame that breaks the protocol, or a
/// lost connection.
fn read_loop(rank: usize, mut conn: Conn, mailbox: &Mailbox) {
    loop {
        match conn.read_frame() {
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
            file_remote(mailbox, &msg, Arc::new(fr.body), payload)
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

/// File `msg`'s deposit, whose payload lies at `range` in the received
/// `body`, into `mailbox`.
fn file_remote(
    mailbox: &Mailbox,
    msg: &DepositMsg,
    body: Arc<Vec<u8>>,
    range: Range<usize>,
) -> Result<(), String> {
    let payload = RxPayload::Remote { body, range };
    let dep = RxDeposit {
        entry: msg.entry,
        fp: msg.fp.clone(),
        payload,
    };
    mailbox.file((msg.comm, msg.seq), &msg.members, msg.my_idx, dep)
}

// ---------------------------------------------------------------------
// Hub: the launcher-side router.
// ---------------------------------------------------------------------

/// One frame on a connection's queue.
struct Outgoing {
    kind: FrameKind,
    /// The leading bytes of the body.
    head: Vec<u8>,
    /// The rest of the body: a range of a received body, written from
    /// where it lies.
    payload: Option<(Arc<Vec<u8>>, Range<usize>)>,
}

/// A connection's writer thread: write every queued frame, in order, to
/// `conn`, until the queue closes or a write fails (the peer is gone,
/// which its connection reader reports).
fn write_loop(mut conn: Conn, queue: Receiver<Outgoing>) {
    for out in queue {
        let payload = out
            .payload
            .as_ref()
            .map_or(&[][..], |(buf, at)| &buf[at.clone()]);
        if conn
            .write_frame_parts(out.kind, &[&out.head, payload])
            .is_err()
        {
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

/// The router between the workers' connections and the launcher's
/// rank 0. It keeps no rendezvous state: each `DEPOSIT` is delivered at
/// once to the other members, whose mailboxes complete the rendezvous —
/// rank 0's by filing into it directly, a worker's by a forwarded frame.
/// It mirrors every worker's deposits, waits, results and panics into the
/// launcher's diagnostics so the watchdog and failure reports work
/// identically to the thread backend; rank 0's own thread maintains its
/// diagnostics directly, so its deposits are not mirrored.
///
/// Writes: each worker's frames go onto its own queue, which one writer
/// thread per connection drains, so a peer that stops draining its
/// socket stalls its own queue and nothing else — not other ranks'
/// forwards, not abort delivery. The queues exist from the start, so
/// frames for a worker that has not connected yet wait for it. `state`
/// guards results and deaths only and is never held across a send or
/// while filing.
pub(crate) struct Hub {
    registry: Arc<Registry>,
    size: usize,
    /// Index of the socket run this hub serves; a `HELLO` must name it.
    run: u64,
    /// Each worker's queue, by rank; rank 0's is never used.
    queues: Vec<Sender<Outgoing>>,
    /// The draining end of each worker's queue until that worker's
    /// `HELLO` claims it; a second `HELLO` for the rank finds it taken.
    unclaimed: Lock<Vec<Option<Receiver<Outgoing>>>>,
    /// Set once the abort has been delivered to every rank.
    aborted: AtomicBool,
    state: Lock<HubState>,
}

impl Hub {
    fn new(registry: Arc<Registry>, size: usize, run: u64) -> Self {
        let (queues, unclaimed) = (0..size)
            .map(|rank| {
                let (tx, rx) = mpsc::channel();
                (tx, (rank != 0).then_some(rx))
            })
            .unzip();
        Hub {
            registry,
            size,
            run,
            queues,
            unclaimed: Lock::new("hub.unclaimed", unclaimed),
            aborted: AtomicBool::new(false),
            state: Lock::new(
                "hub.state",
                HubState {
                    results: vec![None; size],
                    dead: vec![false; size],
                },
            ),
        }
    }

    /// Admit a connection's `HELLO`: check it names this run's world and
    /// a worker not yet connected, and start the worker's writer thread on
    /// `conn`. The `Err` says why the `HELLO` is refused.
    fn admit(&self, hello: &HelloMsg, conn: Conn) -> Result<(), String> {
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
        if rank == 0 {
            return Err("HELLO names rank 0, which the launcher runs itself".to_string());
        }
        let Some(queue) = self.unclaimed.with(|u| u.get_mut(rank).map(Option::take)) else {
            return Err(format!(
                "HELLO names rank {rank} of a {}-rank world",
                self.size
            ));
        };
        let Some(queue) = queue else {
            return Err(format!("rank {rank} is already connected"));
        };
        std::thread::spawn(move || write_loop(conn, queue));
        Ok(())
    }

    fn all_admitted(&self) -> bool {
        self.unclaimed.with(|u| u.iter().all(Option::is_none))
    }

    /// The mailbox of the launcher's rank 0, into which the hub files.
    fn rank0(&self) -> &Mailbox {
        &self.registry.mailboxes[0]
    }

    /// Queue one frame for worker `rank`. A closed queue means its writer
    /// stopped because the peer died, which its connection reader
    /// reports.
    fn send(&self, rank: usize, out: Outgoing) {
        if let Some(queue) = self.queues.get(rank) {
            let _ = queue.send(out);
        }
    }

    /// Fail `rank`'s waiting and later collects with `why`: poison rank
    /// 0's mailbox, or queue an `ERROR` to a worker.
    fn send_error(&self, rank: usize, why: String) {
        if rank == 0 {
            return self.rank0().poison(why);
        }
        let head = frame::encode(&ErrorMsg { message: why });
        self.send(
            rank,
            Outgoing {
                kind: FrameKind::Error,
                head,
                payload: None,
            },
        );
    }

    /// Deliver `why` as an error to every rank, the first time only.
    /// Called on panic, death, and whenever the monitor thread observes
    /// the abort flag (covering rank-0 panics and watchdog-declared
    /// deadlocks).
    fn abort(&self, why: &str) {
        if self.aborted.swap(true, Ordering::Relaxed) {
            return;
        }
        for rank in 0..self.size {
            self.send_error(rank, why.to_string());
        }
    }

    /// Dispatch one frame from `rank`: a worker's, read off its
    /// connection, or a deposit of rank 0's, handed over by a call.
    pub(crate) fn on_frame(&self, rank: usize, fr: Frame) {
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
    /// of this world as members, mirror it, and deliver it to every other
    /// member: rank 0's part is filed into its mailbox as a range of the
    /// received `body`; a worker's is forwarded as a `DEPOSIT` frame with
    /// the same head, without a part table, written from `body` in place.
    fn on_deposit(
        &self,
        rank: usize,
        mut msg: DepositMsg,
        body: Arc<Vec<u8>>,
        payload: Range<usize>,
    ) {
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
                    kind: msg.fp.kind,
                    clock: msg.entry,
                },
            );
        }
        let parts = msg.parts.take();
        for (idx, &member) in msg.members.iter().enumerate() {
            if idx == msg.my_idx {
                continue;
            }
            let part = match &parts {
                None => payload.clone(),
                Some(parts) => payload.start + parts[idx].start..payload.start + parts[idx].end,
            };
            if member == 0 {
                if let Err(why) = file_remote(self.rank0(), &msg, body.clone(), part) {
                    self.rank0().poison(why);
                }
            } else {
                let out = Outgoing {
                    kind: FrameKind::Deposit,
                    head: msg.head(part.len()),
                    payload: Some((body.clone(), part)),
                };
                self.send(member, out);
            }
        }
    }

    /// Mirror a worker's `WAIT` notice; it is never answered, and the
    /// rank reads as running again from its next `DEPOSIT`.
    fn on_wait(&self, rank: usize, msg: WaitMsg) {
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

    fn on_result(&self, rank: usize, body: Vec<u8>) {
        self.state.with(|state| {
            if let Some(slot) = state.results.get_mut(rank) {
                *slot = Some(body);
            }
        });
        self.registry.diag.set_phase(rank, RankPhase::Done);
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

    /// A worker's connection closed (or its process exited) without a
    /// result: record the death, raise the abort flag, and tell every
    /// rank by name so no peer hangs until timeout. Idempotent.
    fn rank_closed(&self, rank: usize, reason: String) {
        let newly_dead = self.state.with(|state| {
            let finished = state.results.get(rank).is_some_and(Option::is_some);
            match state.dead.get_mut(rank) {
                Some(dead) if !*dead && !finished => {
                    *dead = true;
                    true
                }
                _ => false,
            }
        });
        if !newly_dead {
            return;
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
        self.state
            .with(|state| state.results.iter().skip(1).all(|r| r.is_some()))
    }

    fn take_results(&self) -> Vec<Option<Vec<u8>>> {
        self.state.with(|state| std::mem::take(&mut state.results))
    }
}

// ---------------------------------------------------------------------
// Connection handling.
// ---------------------------------------------------------------------

/// Accept connections until every worker has been admitted. Each `HELLO`
/// is read here, one connection at a time and for at most
/// [`HELLO_TIMEOUT`]; a refused one is answered with an `ERROR` naming
/// why, its frames are never dispatched, and it takes no rank's place.
fn accept_loop(listener: UnixListener, hub: Arc<Hub>) {
    while !hub.all_admitted() {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let mut conn = Conn::new(stream);
        let admitted = read_hello(&mut conn).and_then(|hello| {
            let writer = conn
                .try_clone()
                .map_err(|e| format!("could not clone socket: {e}"))?;
            hub.admit(&hello, writer)?;
            Ok(hello.rank)
        });
        match admitted {
            Ok(rank) => {
                let hub = hub.clone();
                std::thread::spawn(move || handle_conn(rank, conn, &hub));
            }
            Err(why) => {
                let body = frame::encode(&ErrorMsg { message: why });
                let _ = conn.write_frame(FrameKind::Error, &body);
            }
        }
    }
}

/// Read a fresh connection's `HELLO`, waiting at most [`HELLO_TIMEOUT`].
fn read_hello(conn: &mut Conn) -> Result<HelloMsg, String> {
    let fr = conn
        .set_read_timeout(Some(HELLO_TIMEOUT))
        .map_err(FrameError::Io)
        .and_then(|()| conn.read_frame())
        .map_err(|e| format!("expected a HELLO frame: {e}"))?;
    if fr.kind != FrameKind::Hello {
        return Err(format!("expected a HELLO frame, got {:?}", fr.kind));
    }
    let hello = frame::decode(&fr.body).map_err(|e| format!("bad hello frame: {e}"))?;
    conn.set_read_timeout(None)
        .map_err(|e| format!("could not clear the read timeout: {e}"))?;
    Ok(hello)
}

/// Dispatch an admitted rank's frames until its connection closes.
fn handle_conn(rank: usize, mut conn: Conn, hub: &Hub) {
    loop {
        match conn.read_frame() {
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
fn reap_children(children: &Lock<Vec<(usize, Child)>>, kill: bool) {
    children.with(|kids| {
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
    });
}

/// The monitor thread: sends the abort flag out to every rank (covering
/// rank-0 panics and watchdog verdicts, which never pass through the
/// hub) and detects worker processes that exit without reporting.
fn monitor_loop(
    hub: &Hub,
    children: &Lock<Vec<(usize, Child)>>,
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
        children.with(|kids| {
            for (rank, child) in kids.iter_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    exited_at
                        .entry(*rank)
                        .or_insert_with(|| (Instant::now(), format!("{status}")));
                }
            }
        });
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
/// spawn workers, run rank 0 in-process — its deposits handed to the hub
/// by a call, and the hub filing into its mailbox — and assemble every rank's `(result, report)` — decoding the workers'
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
        Ok(c) => Arc::new(Lock::new("children", c)),
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
    let leg = Leg::Hub(hub.clone());
    let rank0_res: Option<(R, TimelineReport)> = std::thread::scope(|scope| {
        if cl.check.is_on() {
            let registry = registry.clone();
            scope.spawn(move || watchdog(&registry));
        }
        let handle = scope.spawn(move || cl.run_rank(registry_ref, leg, 0, f).ok());
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
    assert!(
        env.rank < env.world,
        "socket worker run {}: rank {} is outside a {}-rank world",
        env.run,
        env.rank,
        env.world
    );
    let registry = Registry::for_run(cl);
    let client = match SocketClient::connect(env, registry.mailboxes[env.rank].clone()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cagnet socket worker rank {}: {e}", env.rank);
            std::process::exit(3);
        }
    };
    match cl.run_rank(&registry, Leg::Socket(client.clone()), env.rank, &f) {
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
    use crate::transport::{derived_id, CollectError, Link, TxDeposit, TxPayload, WORLD_COMM_ID};
    use cagnet_check::fingerprint::{CollectiveKind, Fingerprint, Shape};
    use std::io::{ErrorKind, Read};

    /// A hub for `size` ranks whose workers' connections are socket
    /// pairs: `hub.on_frame(rank, ..)` stands in for `rank`'s connection
    /// thread, what the hub sends worker `rank` arrives on `peer(rank)`,
    /// and what it delivers to rank 0 lands in rank 0's mailbox.
    struct Rig {
        hub: Arc<Hub>,
        peers: Vec<UnixStream>,
    }

    impl Rig {
        fn peer(&self, rank: usize) -> &UnixStream {
            &self.peers[rank - 1]
        }
    }

    fn rig(size: usize) -> Rig {
        let registry = Registry::for_run(&Cluster::new(size).with_timeout(Duration::from_secs(5)));
        let hub = Arc::new(Hub::new(registry, size, 0));
        let peers = (1..size)
            .map(|rank| {
                let (hub_end, peer) = UnixStream::pair().expect("socket pair");
                peer.set_read_timeout(Some(Duration::from_secs(5)))
                    .expect("read timeout");
                let hello = HelloMsg {
                    rank,
                    world: size,
                    run: 0,
                };
                hub.admit(&hello, Conn::new(hub_end)).expect("admitted");
                peer
            })
            .collect();
        Rig { hub, peers }
    }

    fn deposit_head(key: (u64, u64), my_idx: usize, members: &[usize]) -> DepositMsg {
        DepositMsg {
            comm: key.0,
            seq: key.1,
            my_idx,
            members: members.to_vec(),
            entry: 0.5,
            fp: test_fp(),
            parts: None,
        }
    }

    fn test_fp() -> Fingerprint {
        Fingerprint {
            kind: CollectiveKind::Bcast,
            root: None,
            dtype: "test",
            shape: Shape::Unknown,
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

    fn unit_rx() -> RxDeposit {
        RxDeposit {
            entry: 0.0,
            fp: test_fp(),
            payload: RxPayload::Local(Arc::new(())),
        }
    }

    /// Rank 0's collect of the rendezvous `key` of `members`, in which it
    /// is member 0, once it has filed its own deposit.
    fn rank0_collect(hub: &Hub, key: (u64, u64), members: &[usize]) -> Vec<RxDeposit> {
        hub.rank0()
            .file(key, members, 0, unit_rx())
            .unwrap_or_else(|why| panic!("{why}"));
        match hub.rank0().collect(key, &|| None, Duration::from_secs(5)) {
            Ok(deposits) => deposits,
            Err(_) => panic!("{key:?} must complete at rank 0"),
        }
    }

    /// How many deposits rank 0's mailbox holds for `key`, which must
    /// stay incomplete.
    fn rank0_arrived(hub: &Hub, key: (u64, u64)) -> usize {
        match hub
            .rank0()
            .collect(key, &|| None, Duration::from_millis(50))
        {
            Err(CollectError::Timeout { arrived }) => arrived,
            _ => panic!("{key:?} must time out at rank 0"),
        }
    }

    /// Why rank 0's collects fail.
    fn rank0_error(hub: &Hub) -> String {
        transport_error(
            hub.rank0()
                .collect((u64::MAX, 0), &|| None, Duration::from_secs(5)),
        )
    }

    /// The bytes of a payload that arrived over the wire.
    fn remote_bytes(dep: &RxDeposit) -> &[u8] {
        match &dep.payload {
            RxPayload::Remote { body, range } => &body[range.clone()],
            RxPayload::Local(_) => panic!("a forwarded payload is remote"),
        }
    }

    /// A worker link of `rank` to communicator `id`, whose hub end is the
    /// returned stream.
    fn client(rank: usize, id: u64) -> (Link, UnixStream) {
        let (ours, hub_end) = UnixStream::pair().expect("socket pair");
        hub_end
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mailbox = Arc::new(Mailbox::default());
        let client = SocketClient::start(rank, Conn::new(ours), mailbox.clone()).expect("client");
        let link = Link {
            id,
            mailbox,
            leg: Leg::Socket(client),
        };
        (link, hub_end)
    }

    /// World rank `rank`'s link to the world communicator of
    /// `registry`'s run.
    fn world_link(registry: &Registry, rank: usize, leg: Leg) -> Link {
        Link {
            id: WORLD_COMM_ID,
            mailbox: registry.mailboxes[rank].clone(),
            leg,
        }
    }

    fn send_to_client(hub_end: &UnixStream, fr: &Frame) {
        let mut hub_end = hub_end;
        frame::write_frame(&mut hub_end, fr.kind, &fr.body).expect("write to client");
    }

    fn collect(
        link: &Link,
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
            fp: test_fp(),
            payload: TxPayload::unit(),
        }
    }

    #[test]
    fn stalled_peer_blocks_neither_other_rendezvous_nor_abort_delivery() {
        let rig = rig(4);
        let hub = &rig.hub;
        // Rank 2 broadcasts 8 MiB to ranks 0 and 1, after rank 1's
        // bystander deposit. Nobody drains rank 1's socket, so the
        // forward to it stalls once the socket buffer is full; the frame
        // header arriving proves that write is in flight.
        let (all, n) = ([0, 1, 2], 8 << 20);
        hub.on_frame(1, deposit((1, 0), 1, &all, &[]));
        hub.on_frame(2, deposit((1, 0), 2, &all, &vec![7u8; n]));
        let mut header = [0u8; frame::HEADER_LEN];
        rig.peer(1).read_exact(&mut header).expect("forward header");

        // Meanwhile ranks 2 and 3 deposit to rank 0 on another
        // communicator and the run aborts — on a thread, so a hub that
        // delivers them behind the stalled forward fails this test
        // instead of hanging it.
        let (done_tx, done_rx) = mpsc::channel();
        {
            let hub = hub.clone();
            std::thread::spawn(move || {
                let others = [0, 2, 3];
                for idx in 1..3 {
                    hub.on_frame(others[idx], deposit((9, 0), idx, &others, &[idx as u8]));
                }
                hub.abort("abort");
                let _ = done_tx.send(());
            });
        }
        done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("handled within a second of the stall");
        // Rank 0's mailbox holds both rendezvous, and the abort poisons
        // it; the other workers get their forwards and the error.
        let bcast = rank0_collect(hub, (1, 0), &all);
        assert_eq!(remote_bytes(&bcast[2]).len(), n);
        let other = rank0_collect(hub, (9, 0), &[0, 2, 3]);
        assert_eq!(
            (remote_bytes(&other[1]), remote_bytes(&other[2])),
            (&[1u8][..], &[2u8][..])
        );
        assert_eq!(rank0_error(hub), "abort");
        assert_eq!(forward_to(rig.peer(2)).0.my_idx, 1);
        assert_eq!(forward_to(rig.peer(2)).1, [2]);
        assert_eq!(forward_to(rig.peer(3)).1, [1]);
        for rank in [2, 3] {
            assert_eq!(error_to(rig.peer(rank)), "abort");
        }
        // Abort is sent once.
        hub.abort("again");
        assert!(silent(rig.peer(2)));

        // Drain rank 1: the stalled forward completes, then its error.
        let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
        let mut rest = vec![0u8; len as usize];
        rig.peer(1).read_exact(&mut rest).expect("forward body");
        assert_eq!(error_to(rig.peer(1)), "abort");
    }

    #[test]
    fn frames_sent_to_the_wrong_side_are_named_protocol_errors() {
        // Client-only kinds at the hub, after the handshake.
        let rig = rig(2);
        for kind in [FrameKind::Hello, FrameKind::Error] {
            rig.hub.on_frame(1, Frame { kind, body: vec![] });
            let why = error_to(rig.peer(1));
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
            let (link, hub_end) = client(1, 7);
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
        // No worker has connected, so what the hub forwards them waits on
        // their queues as it was sent.
        let registry = Registry::for_run(&Cluster::new(3).with_timeout(Duration::from_secs(5)));
        let hub = Arc::new(Hub::new(registry.clone(), 3, 0));
        let queue = |rank: usize| hub.unclaimed.with(|u| u[rank].take()).expect("unclaimed");
        let (to_one, to_two) = (queue(1), queue(2));

        let (key, all, n) = ((1, 3), [0, 1, 2], 64 << 10);
        let sent = deposit(key, 1, &all, &vec![0xAB; n]);
        let (head, payload) = DepositMsg::parse(&sent.body).expect("deposit");
        let body = Arc::new(sent.body);
        hub.on_deposit(1, head.clone(), body.clone(), payload.clone());
        // Rank 2's forward is the received buffer's bytes, in place, after
        // the head as sent.
        let out = to_two.try_recv().expect("a forward to rank 2");
        let Some((buf, at)) = &out.payload else {
            panic!("a forward carries the payload");
        };
        assert!(Arc::ptr_eq(buf, &body));
        assert_eq!(*at, payload);
        let forwarded = [&out.head[..], &buf[at.clone()]].concat();
        assert_eq!(DepositMsg::parse(&forwarded).expect("forward").0, head);
        assert!(
            to_one.try_recv().is_err(),
            "the sender was echoed its deposit"
        );

        // Rank 0's copy is filed into its mailbox as a range of that very
        // buffer: no socket, no second copy.
        hub.on_frame(2, deposit(key, 2, &all, &[]));
        to_one.try_recv().expect("rank 2's deposit reaches rank 1");
        let deposits = rank0_collect(&hub, key, &all);
        match &deposits[1].payload {
            RxPayload::Remote { body: got, range } => {
                assert!(Arc::ptr_eq(got, &body));
                assert_eq!(*range, payload);
            }
            RxPayload::Local(_) => panic!("a forwarded payload is remote"),
        }
        assert_eq!(
            (deposits[1].entry, deposits[1].payload.wire_len()),
            (0.5, n)
        );

        // The launcher's rank 0 hands its deposit to the hub by a call; it
        // is forwarded alike.
        let beside = world_link(&registry, 0, Leg::Hub(hub.clone()));
        let tx = TxDeposit {
            entry: 0.5,
            fp: test_fp(),
            payload: TxPayload::of(Arc::new(7u64)),
        };
        beside
            .deposit(4, 0, &all, tx)
            .unwrap_or_else(|_| panic!("deposit beside the hub"));
        for queue in [&to_one, &to_two] {
            let out = queue.try_recv().expect("a forward from rank 0");
            let forwarded = match &out.payload {
                Some((buf, at)) => [&out.head[..], &buf[at.clone()]].concat(),
                None => out.head.clone(),
            };
            let (msg, at) = DepositMsg::parse(&forwarded).expect("forward");
            assert_eq!((msg.comm, msg.seq, msg.my_idx), (1, 4, 0));
            assert_eq!(frame::decode::<u64>(&forwarded[at]).ok(), Some(7));
        }
    }

    #[test]
    fn served_gathers_route_each_member_only_its_part() {
        let rig = rig(3);
        let hub = &rig.hub;
        let all = [0, 1, 2];
        let (requests, serve) = ((1, 0), (1, 1));

        // Round one: each receiver's request is parted to reach only the
        // root, rank 0.
        hub.on_frame(1, parted_deposit(requests, 1, &all, &[1; 16], &[16, 0, 0]));
        hub.on_frame(2, parted_deposit(requests, 2, &all, &[2; 24], &[24, 0, 0]));
        let got = rank0_collect(hub, requests, &all);
        assert_eq!(remote_bytes(&got[1]), [1; 16]);
        assert_eq!(remote_bytes(&got[2]), [2; 24]);
        for (rank, other) in [(1, 2), (2, 1)] {
            let (msg, got) = forward_to(rig.peer(rank));
            assert_eq!(msg.my_idx, other);
            assert!(got.is_empty(), "rank {rank} sees no request");
        }

        // Round two: the root serves 3000 bytes to member 1 and 5000 to
        // member 2 in one deposit, and each receives only its part.
        let mut served = vec![0xA1; 3000];
        served.extend_from_slice(&[0xA2; 5000]);
        hub.on_frame(0, parted_deposit(serve, 0, &all, &served, &[0, 3000, 5000]));
        let (to_one, one) = forward_to(rig.peer(1));
        let (to_two, two) = forward_to(rig.peer(2));
        assert_eq!((one, two), (vec![0xA1; 3000], vec![0xA2; 5000]));
        // Nothing but the part after the head: the same head both ways,
        // with no part table.
        assert_eq!(to_one, to_two);
        assert_eq!(to_one.parts, None);
    }

    #[test]
    fn malformed_part_tables_are_refused_by_name() {
        let rig = rig(3);
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
            rig.hub
                .on_frame(1, deposit_with_parts((1, 0), 1, &all, &[7; 6], parts));
            let got = error_to(rig.peer(1));
            assert!(
                got.contains("bad deposit frame") && got.contains(why),
                "got: {got}"
            );
        }
        assert_eq!(rank0_arrived(&rig.hub, (1, 0)), 0);
        assert!(silent(rig.peer(2)), "refused deposits forward nothing");
    }

    #[test]
    fn misaddressed_deposits_are_named_as_such() {
        let rig = rig(3);
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
            rig.hub.on_frame(1, frame);
            let why = error_to(rig.peer(1));
            assert!(why.contains(expect), "got: {why}");
        }
        assert_eq!(rank0_arrived(&rig.hub, (1, 0)), 0);
        assert!(silent(rig.peer(2)), "refused deposits forward nothing");
    }

    #[test]
    fn refused_hellos_are_named_and_take_no_ranks_place() {
        let path = socket_path();
        let _guard = SocketGuard(path.clone());
        let listener = UnixListener::bind(&path).expect("bind");
        let registry = Registry::for_run(&Cluster::new(3).with_timeout(Duration::from_secs(5)));
        let hub = Arc::new(Hub::new(registry.clone(), 3, 0));
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

        for (fr, why) in [
            (
                hello(0, 3, 0),
                "HELLO names rank 0, which the launcher runs itself",
            ),
            (hello(7, 3, 0), "HELLO names rank 7 of a 3-rank world"),
            (
                hello(1, 2, 0),
                "HELLO expects a 2-rank world, but this run has 3",
            ),
            (
                hello(1, 3, 9),
                "HELLO is for socket run 9, but this hub serves run 0",
            ),
            (
                deposit((1, 0), 1, &[0, 1], &[0]),
                "expected a HELLO frame, got Deposit",
            ),
        ] {
            assert_eq!(error_to(&connect(fr)), why);
        }

        // Rank 1 still gets in; a second claimant of it is refused by
        // name, and closing that one is no death of rank 1.
        let one = connect(hello(1, 3, 0));
        let duplicate = connect(hello(1, 3, 0));
        assert_eq!(error_to(&duplicate), "rank 1 is already connected");
        drop(duplicate);

        // Rank 1's deposit reaches rank 0's mailbox.
        let mut one_ref = &one;
        let dep = deposit((1, 0), 1, &[0, 1], &[5]);
        frame::write_frame(&mut one_ref, dep.kind, &dep.body).expect("deposit");
        assert_eq!(remote_bytes(&rank0_collect(&hub, (1, 0), &[0, 1])[1]), [5]);
        assert_eq!(registry.diag.abort_message(), None, "the run goes on");
        // The last worker lets the accept loop finish.
        let _two = connect(hello(2, 3, 0));
    }

    #[test]
    fn client_hands_back_its_own_deposit_and_refuses_a_forward_in_its_place() {
        let (link, hub_end) = client(1, 7);
        let pair = [0, 1];
        let own = Arc::new(9u64);
        let tx = TxDeposit {
            entry: 2.0,
            fp: test_fp(),
            payload: TxPayload::of(own.clone()),
        };
        link.deposit(4, 1, &pair, tx)
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
        let twice = |seq| format!("rank deposited twice at comm 1 seq {seq} — collective misuse");
        let mismatch = |seq| {
            format!(
                "protocol error: deposit at comm 1 seq {seq} lists members [0, 2] but the \
                 rendezvous was opened with [0, 1, 2]"
            )
        };

        // Threads: the depositing rank is refused, by its own mailbox ...
        let registry = Registry::for_run(&Cluster::new(3));
        let put = |rank, seq, idx, members: &[usize]| {
            let link = world_link(&registry, rank, Leg::Threads(registry.clone()));
            match link.deposit(seq, idx, members, unit_deposit()) {
                Ok(()) => None,
                Err(CollectError::Transport(why)) => Some(why),
                Err(_) => panic!("a refused deposit is a transport error"),
            }
        };
        assert_eq!(put(0, 0, 0, &[0, 1, 2]), None);
        assert_eq!(put(0, 0, 0, &[0, 1, 2]), Some(twice(0)));
        assert_eq!(put(0, 0, 1, &[0, 2]), Some(mismatch(0)));
        // ... or by a peer's: rank 1's deposit at seq 1 has reached rank
        // 0's mailbox, not yet rank 2's, when rank 2 files one for another
        // group.
        registry.mailboxes[0]
            .file((1, 1), &[0, 1, 2], 1, unit_rx())
            .unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(put(2, 1, 1, &[0, 2]), Some(mismatch(1)));

        // Sockets: the rank the deposit was forwarded to fails its
        // collects by name.
        for (second, why) in [
            (deposit((1, 0), 0, &[0, 1, 2], &[0]), twice(0)),
            (deposit((1, 0), 0, &[0, 2], &[0]), mismatch(0)),
        ] {
            let (link, hub_end) = client(2, WORLD_COMM_ID);
            send_to_client(&hub_end, &deposit((1, 0), 0, &[0, 1, 2], &[0]));
            send_to_client(&hub_end, &second);
            assert_eq!(transport_error(collect(&link, 0, 2, &[0, 1, 2])), why);
        }
    }

    #[test]
    fn an_error_fails_the_waiting_collect_and_the_next_and_waits_are_noticed_once() {
        let (link, hub_end) = client(1, 3);
        let link = Arc::new(link);
        let pair = [0, 1];
        // A complete slot is collected without a notice.
        link.deposit(0, 1, &pair, unit_deposit())
            .unwrap_or_else(|_| panic!("deposit"));
        assert_eq!(answer_to(&hub_end).kind, FrameKind::Deposit);
        send_to_client(&hub_end, &deposit((3, 0), 0, &pair, &frame::encode(&())));
        while !link.mailbox.is_complete((3, 0)) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(collect(&link, 0, 1, &pair).is_ok());
        assert!(silent(&hub_end), "no notice for a complete slot");

        // An incomplete one is noticed, and an ERROR fails it.
        let waiting = {
            let link = link.clone();
            std::thread::spawn(move || transport_error(collect(&link, 1, 1, &[0, 1])))
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
        let next = transport_error(collect(&link, 2, 1, &pair));
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

    /// Connecting to a socket nobody is listening on fails with a clear
    /// error once the retry budget is spent — the path a worker takes
    /// when its launcher is already gone.
    #[test]
    fn connect_with_retry_reports_timeout() {
        let path = std::env::temp_dir().join("cagnet-no-such-hub.sock");
        let start = Instant::now();
        let err = connect_with_retry(&path, Duration::from_millis(50))
            .expect_err("dead socket must not connect");
        assert!(err.contains("could not connect"), "got: {err}");
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
