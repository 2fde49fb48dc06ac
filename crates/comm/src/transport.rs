//! The transport layer under the collective layer.
//!
//! [`Communicator`](crate::comm::Communicator) implements every
//! collective — BSP entry-clock maximisation, α–β charging, CheckMode
//! fingerprint verification, deterministic member-order reduction —
//! above one crate-private `Link` per rank and communicator. A link only
//! moves opaque deposits: it accepts its rank's `(entry clock,
//! fingerprint, payload)` triple and hands back the full member-ordered
//! set once the rendezvous is complete.
//!
//! Every rank has one mailbox, shared by all its communicators: deposits
//! are filed under `(comm, seq)` as they arrive, in any order, and a
//! collect waits on the rank's own mailbox until the slot holds one
//! deposit per member. A deposit is filed into its rank's own mailbox
//! first and then delivered to the other members' — the one step in
//! which the transports differ:
//!
//! * [`TransportKind::Shared`] — ranks are threads of one process, and a
//!   thread files its deposit's `Arc` into each member's mailbox itself.
//!   Deterministic, dependency-free, the CI fast path and the default.
//! * [`TransportKind::Socket`] — ranks are worker processes connected
//!   over Unix domain sockets to a hub in the launcher, and deposits
//!   travel as length-prefixed binary frames (`frame.rs`). A worker sends
//!   its deposit to the hub as a `DEPOSIT` frame, and the launcher's
//!   rank 0 hands it over by a call. The hub forwards each worker its
//!   part as a frame and files rank 0's straight into rank 0's mailbox,
//!   as a range of the body it received.
//!
//! Communicators are named alike on both: the world by id 1, and a
//! split-off group by a hash of its parent's id, the parent's sequence
//! number at the split, and the group's color. Because everything above
//! the link is shared code operating on bit-exact inputs (entry clocks
//! cross the wire as `f64::to_bits`), losses, weights, word counts, and
//! timelines are bit-identical across backends — pinned by
//! `crates/core/tests/socket_transport.rs`.

use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use cagnet_check::fingerprint::{CollectiveKind, Fingerprint};

use crate::comm::Registry;
use crate::frame::Wire;
#[cfg(unix)]
use crate::frame::{DepositMsg, Frame, FrameKind, WaitMsg};
use crate::lock::Lock;
#[cfg(unix)]
use crate::proc::{Hub, SocketClient};

/// An `Arc`-boxed collective payload as it lives in shared memory.
pub(crate) type Payload = Arc<dyn Any + Send + Sync>;

/// Poll granularity of blocked collective waits: how quickly a parked
/// rank observes the run-wide abort flag.
pub(crate) const WAIT_TICK: Duration = Duration::from_millis(25);

/// Which transport backend a [`Cluster`](crate::cluster::Cluster) run
/// uses for its collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Ranks are threads of this process; deposits are `Arc` pointer
    /// copies (deterministic default, CI fast path).
    Shared,
    /// Ranks are worker processes spawned by rank 0, connected over
    /// Unix domain sockets speaking the framed protocol of
    /// [`crate::frame`]. Requires [`Cluster::run_wire`]
    /// (results must be [`Wire`]-serializable).
    ///
    /// [`Cluster::run_wire`]: crate::cluster::Cluster::run_wire
    Socket,
}

impl TransportKind {
    /// Resolve the backend from `CAGNET_TRANSPORT`: `socket` selects the
    /// multi-process backend, `shared` (or unset) the in-process
    /// simulator.
    ///
    /// # Panics
    /// On an unrecognised value, so CI typos fail loudly instead of
    /// silently testing the wrong backend.
    pub fn from_env() -> Self {
        match std::env::var("CAGNET_TRANSPORT") {
            Err(_) => TransportKind::Shared,
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "" | "shared" | "thread" | "threads" => TransportKind::Shared,
                "socket" | "sockets" | "process" => TransportKind::Socket,
                other => panic!("CAGNET_TRANSPORT must be 'shared' or 'socket', got '{other}'"),
            },
        }
    }
}

/// A payload on its way into a rendezvous: the local `Arc` (for
/// zero-copy shared-memory delivery) plus a deferred encoder the socket
/// backend invokes to append the payload's bytes to a frame body. The
/// encoder is only called when the deposit actually crosses a process
/// boundary.
pub(crate) struct TxPayload {
    /// The payload as shared-memory ranks will receive it.
    pub local: Payload,
    /// `std::any::type_name` of the concrete payload type.
    pub dtype: &'static str,
    /// Each member's part of the encoding, as byte ranges tiling it in
    /// member order: over sockets member `i` is forwarded only part `i`.
    /// `None` sends everyone the whole payload.
    pub parts: Option<Vec<Range<usize>>>,
    encode: WireEncoder,
}

/// Deferred payload-to-bytes encoder, invoked only when a deposit
/// actually crosses a process boundary.
type WireEncoder = Box<dyn Fn(&mut Vec<u8>) + Send>;

impl TxPayload {
    /// Wrap a typed payload for deposit on either backend.
    pub fn of<T: Any + Send + Sync + Wire>(data: Arc<T>) -> Self {
        let local: Payload = data.clone();
        TxPayload {
            local,
            dtype: std::any::type_name::<T>(),
            parts: None,
            encode: Box::new(move |out| data.put(out)),
        }
    }

    /// A payload whose encoding `encode` writes as consecutive parts of
    /// the byte lengths `lens`, one per member in member order: each
    /// member receives only its own part over sockets, and the whole
    /// `Arc` in shared memory.
    pub fn parted<T: Any + Send + Sync>(
        data: Arc<T>,
        lens: &[usize],
        encode: impl Fn(&T, &mut Vec<u8>) + Send + 'static,
    ) -> Self {
        let mut at = 0;
        let parts = lens
            .iter()
            .map(|&len| {
                at += len;
                at - len..at
            })
            .collect();
        let local: Payload = data.clone();
        TxPayload {
            local,
            dtype: std::any::type_name::<T>(),
            parts: Some(parts),
            encode: Box::new(move |out| encode(&data, out)),
        }
    }

    /// The empty bystander payload (non-root ranks of rooted
    /// collectives).
    pub fn unit() -> Self {
        TxPayload::of(Arc::new(()))
    }

    /// Append the wire encoding to `out` (socket backend only).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        (self.encode)(out);
        debug_assert!(
            self.parts
                .as_ref()
                .is_none_or(|parts| parts.last().map_or(0, |p| p.end) == out.len() - start),
            "a parted payload's encoding must be exactly its parts"
        );
    }
}

/// One rank's full deposit into a rendezvous.
pub(crate) struct TxDeposit {
    /// The depositor's modeled entry clock.
    pub entry: f64,
    /// CheckMode fingerprint, present exactly when checking is on — it
    /// piggybacks on the deposit (and, over sockets, on the frame), so
    /// checked mode adds no synchronization on either backend.
    pub fp: Option<Fingerprint>,
    /// The payload.
    pub payload: TxPayload,
}

/// A received payload: either the depositor's own `Arc` (shared memory,
/// or a socket rank's own deposit handed back locally) or undecoded
/// frame bytes. Decoding is demand-driven — bystander `()` deposits are
/// never decoded because no collective extracts them.
#[derive(Clone)]
pub(crate) enum RxPayload {
    /// Zero-copy local delivery.
    Local(Payload),
    /// Encoded bytes from a remote rank: a range of the received frame
    /// body, which all payloads of one collect share.
    Remote {
        /// The whole received body.
        body: Arc<Vec<u8>>,
        /// Where this member's payload lies in it.
        range: Range<usize>,
    },
}

impl RxPayload {
    /// Payload bytes that reached this rank over the wire (0 for a local
    /// `Arc`).
    pub fn wire_len(&self) -> usize {
        match self {
            RxPayload::Local(_) => 0,
            RxPayload::Remote { range, .. } => range.len(),
        }
    }

    /// Recover the typed payload: downcast the local `Arc` or decode the
    /// wire bytes.
    ///
    /// # Panics
    /// On a type mismatch or undecodable bytes — both mean ranks
    /// disagreed about the collective being executed.
    pub fn extract<T: Any + Send + Sync + Wire>(&self) -> Arc<T> {
        match self {
            RxPayload::Local(p) => p
                .clone()
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("collective payload type mismatch across ranks")),
            RxPayload::Remote { body, range } => {
                match crate::frame::decode::<T>(&body[range.clone()]) {
                    Ok(v) => Arc::new(v),
                    Err(e) => panic!(
                        "collective payload failed to decode as {}: {e}",
                        std::any::type_name::<T>()
                    ),
                }
            }
        }
    }
}

/// One member's deposit as handed back by [`Link::collect`].
#[derive(Clone)]
pub(crate) struct RxDeposit {
    /// The depositor's modeled entry clock (bit-exact on both backends).
    pub entry: f64,
    /// The depositor's CheckMode fingerprint, when checking is on.
    pub fp: Option<Fingerprint>,
    /// The payload.
    pub payload: RxPayload,
}

/// Why a deposit or collect could not complete. The
/// [`Communicator`](crate::comm::Communicator) maps each variant onto
/// one panic, so failure modes read identically on both transports.
pub(crate) enum CollectError {
    /// The run-wide abort flag was raised (peer panic, watchdog).
    Abort(String),
    /// The rendezvous stayed incomplete past the collective timeout.
    Timeout {
        /// How many members had arrived when time ran out.
        arrived: usize,
    },
    /// The link itself failed: a refused deposit, a dead peer process,
    /// a socket error. The string names the cause (and the rank, where
    /// known).
    Transport(String),
}

/// The world communicator's id on both transports.
pub(crate) const WORLD_COMM_ID: u64 = 1;

/// The id of the communicator split off `parent` at its sequence number
/// `key_seq` with group color `color`: FNV-1a over the three, with the
/// top bit forced so derived ids never collide with the world id. Both
/// transports name a communicator by it, so deadlock reports, panic
/// labels and fingerprints read the same for the same program.
pub(crate) fn derived_id(parent: u64, key_seq: u64, color: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in [parent, key_seq, color] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h | (1 << 63)
}

/// One rendezvous in a [`Mailbox`]: the member list it was opened with
/// and the deposits filed so far, in member order.
struct Slot {
    members: Vec<usize>,
    deposits: Vec<Option<RxDeposit>>,
    arrived: usize,
}

impl Slot {
    fn complete(&self) -> bool {
        self.arrived == self.deposits.len()
    }
}

#[derive(Default)]
struct Slots {
    open: HashMap<(u64, u64), Slot>,
    /// Why every collect not yet complete fails from now on.
    poisoned: Option<String>,
}

impl Slots {
    /// A collect's outcome for `key`, once decided: the rendezvous'
    /// deposits in member order (retiring it) when complete, else the
    /// poison reason.
    fn settle(&mut self, key: (u64, u64)) -> Option<Result<Vec<RxDeposit>, CollectError>> {
        if self.open.get(&key).is_some_and(Slot::complete) {
            let slot = self.open.remove(&key)?;
            return Some(Ok(slot.deposits.into_iter().flatten().collect()));
        }
        self.poisoned
            .as_ref()
            .map(|why| Err(CollectError::Transport(why.clone())))
    }
}

/// One rank's rendezvous, on either transport: deposits filed under
/// `(comm, seq)` in whatever order they arrive — the rank's own and every
/// peer's — and collects that wait for one deposit per member. Only its
/// rank collects from it.
pub(crate) struct Mailbox {
    slots: Lock<Slots>,
    cv: Condvar,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox {
            slots: Lock::new("mailbox.slots", Slots::default()),
            cv: Condvar::new(),
        }
    }
}

impl Mailbox {
    /// File member `idx`'s deposit into the rendezvous `key` of the group
    /// `members`, opening it at the first arrival. Refuses, by name, an
    /// index outside the group, a member list other than the one the
    /// rendezvous was opened with, and a second deposit for one member.
    pub(crate) fn file(
        &self,
        key: (u64, u64),
        members: &[usize],
        idx: usize,
        dep: RxDeposit,
    ) -> Result<(), String> {
        let at = || format!("comm {} seq {}", key.0, key.1);
        if idx >= members.len() {
            return Err(format!(
                "protocol error: deposit at {} names member index {idx} of a {}-member group",
                at(),
                members.len()
            ));
        }
        self.slots.with(|slots| {
            let slot = slots.open.entry(key).or_insert_with(|| Slot {
                members: members.to_vec(),
                deposits: vec![None; members.len()],
                arrived: 0,
            });
            if slot.members != members {
                return Err(format!(
                    "protocol error: deposit at {} lists members {members:?} but the rendezvous \
                     was opened with {:?}",
                    at(),
                    slot.members
                ));
            }
            if slot.deposits[idx].is_some() {
                return Err(format!(
                    "rank deposited twice at {} — collective misuse",
                    at()
                ));
            }
            slot.deposits[idx] = Some(dep);
            slot.arrived += 1;
            if slot.complete() {
                self.cv.notify_all();
            }
            Ok(())
        })
    }

    /// Whether the rendezvous `key` already holds every member's deposit.
    pub(crate) fn is_complete(&self, key: (u64, u64)) -> bool {
        self.slots
            .with(|slots| slots.open.get(&key).is_some_and(Slot::complete))
    }

    /// Fail every collect that is waiting, or will wait, on this mailbox
    /// with `why`. The first reason stands.
    pub(crate) fn poison(&self, why: String) {
        self.slots.with(|slots| {
            slots.poisoned.get_or_insert(why);
        });
        self.cv.notify_all();
    }

    /// Block until the rendezvous `key` is complete, retire it and return
    /// its deposits in member order. Waking every [`WAIT_TICK`], it fails
    /// with the poison reason, with `abort`'s message once that returns
    /// one, or with the arrival count once `timeout` has passed. `abort`
    /// runs with the slots unlocked, and completion is re-checked under
    /// the lock before every wait, so no `notify_all` is lost.
    pub(crate) fn collect(
        &self,
        key: (u64, u64),
        abort: &dyn Fn() -> Option<String>,
        timeout: Duration,
    ) -> Result<Vec<RxDeposit>, CollectError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(done) = self
                .slots
                .wait_tick(&self.cv, WAIT_TICK, |slots| slots.settle(key))
            {
                return done;
            }
            if let Some(why) = abort() {
                return Err(CollectError::Abort(why));
            }
            if Instant::now() >= deadline {
                let arrived = self
                    .slots
                    .with(|slots| slots.open.get(&key).map_or(0, |s| s.arrived));
                return Err(CollectError::Timeout { arrived });
            }
        }
    }
}

/// How a rank's deposit reaches the other members' mailboxes — the one
/// step in which the transports differ.
#[derive(Clone)]
pub(crate) enum Leg {
    /// A thread: it files the deposit into each member's mailbox itself,
    /// from the run's registry.
    Threads(Arc<Registry>),
    /// A socket worker: it sends the deposit to the hub as a `DEPOSIT`
    /// frame, and the hub forwards it.
    #[cfg(unix)]
    Socket(Arc<SocketClient>),
    /// The launcher's rank 0: it hands the deposit to the hub in its
    /// process with a call.
    #[cfg(unix)]
    Hub(Arc<Hub>),
}

/// A rank's channel into the rendezvous of one communicator: the
/// communicator's id, the rank's mailbox, and the leg its deposits take
/// to the other members.
#[derive(Clone)]
pub(crate) struct Link {
    /// Stable id of the communicator (keys mailbox slots and diagnostic
    /// slot ids).
    pub(crate) id: u64,
    /// The rank's mailbox, shared by all its communicators.
    pub(crate) mailbox: Arc<Mailbox>,
    /// How deposits reach the other members.
    pub(crate) leg: Leg,
}

impl Link {
    /// File `my_idx`'s deposit for `seq` into this rank's mailbox, then
    /// deliver it to the other members. `members` are the world ranks of
    /// the group, ascending.
    pub(crate) fn deposit(
        &self,
        kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        dep: TxDeposit,
    ) -> Result<(), CollectError> {
        let key = (self.id, seq);
        let file = |mailbox: &Mailbox, dep| {
            mailbox
                .file(key, members, my_idx, dep)
                .map_err(CollectError::Transport)
        };
        // The rank's own deposit stays the same `Arc`, so its view of its
        // own payload is zero-copy on both transports.
        let own = RxDeposit {
            entry: dep.entry,
            fp: dep.fp.clone(),
            payload: RxPayload::Local(dep.payload.local.clone()),
        };
        file(&self.mailbox, own.clone())?;
        #[cfg(unix)]
        let body = || {
            DepositMsg {
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
            .encode(|out| dep.payload.encode_into(out))
        };
        match &self.leg {
            // One mailbox at a time: no mailbox lock is held while
            // another is taken.
            Leg::Threads(registry) => members
                .iter()
                .enumerate()
                .filter(|&(idx, _)| idx != my_idx)
                .try_for_each(|(_, &rank)| file(&registry.mailboxes[rank], own.clone())),
            #[cfg(unix)]
            Leg::Socket(client) => client
                .send(FrameKind::Deposit, body())
                .map_err(CollectError::Transport),
            #[cfg(unix)]
            Leg::Hub(hub) => {
                let (kind, body) = (FrameKind::Deposit, body());
                hub.on_frame(0, Frame { kind, body });
                Ok(())
            }
        }
    }

    /// Block until this rank's mailbox holds one deposit per member for
    /// `seq` and return them in member order. Polls `abort` every wait
    /// tick so one failing rank stops the whole run quickly; gives up
    /// after `timeout`.
    pub(crate) fn collect(
        &self,
        kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        abort: &dyn Fn() -> Option<String>,
        timeout: Duration,
    ) -> Result<Vec<RxDeposit>, CollectError> {
        let key = (self.id, seq);
        // A worker's notice feeds the launcher's watchdog mirror; a
        // complete slot is collected without one, and ranks in the
        // launcher's process keep their own diagnostics.
        #[cfg(unix)]
        if let Leg::Socket(client) = &self.leg {
            if !self.mailbox.is_complete(key) {
                let msg = WaitMsg {
                    comm: self.id,
                    seq,
                    kind,
                    my_idx,
                    members: members.to_vec(),
                };
                client
                    .send(FrameKind::Wait, crate::frame::encode(&msg))
                    .map_err(CollectError::Transport)?;
            }
        }
        self.mailbox.collect(key, abort, timeout)
    }

    /// The link for a sub-communicator split off this one: `key_seq` is
    /// the parent's sequence number at the split and `color` the group
    /// color, so every member derives the same id, with [`derived_id`],
    /// without out-of-band coordination. It files into the same mailbox.
    pub(crate) fn derive(&self, key_seq: u64, color: u64) -> Self {
        Link {
            id: derived_id(self.id, key_seq, color),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_parses_env_values() {
        // from_env reads the live environment; exercise the match arms
        // through a local copy of the mapping instead of mutating env.
        let map = |v: &str| match v {
            "" | "shared" | "thread" | "threads" => TransportKind::Shared,
            "socket" | "sockets" | "process" => TransportKind::Socket,
            other => panic!("unexpected {other}"),
        };
        assert_eq!(map("shared"), TransportKind::Shared);
        assert_eq!(map("socket"), TransportKind::Socket);
    }

    #[test]
    fn tx_payload_encodes_and_keeps_local_arc() {
        let data = Arc::new(vec![1.0f64, 2.0, 3.0]);
        let tx = TxPayload::of(data.clone());
        assert!(tx.dtype.contains("Vec<f64>"));
        let mut bytes = vec![0xAA];
        tx.encode_into(&mut bytes);
        let back: Vec<f64> = crate::frame::decode(&bytes[1..]).expect("decode");
        assert_eq!(back, *data);
        let local = RxPayload::Local(tx.local.clone());
        assert!(Arc::ptr_eq(&local.extract::<Vec<f64>>(), &data));
    }

    /// A remote payload lying at `at` inside a larger received body.
    fn remote_at(at: usize, payload: &[u8]) -> RxPayload {
        let mut body = vec![0xEE; at];
        body.extend_from_slice(payload);
        body.extend_from_slice(&[0xEE; 3]);
        RxPayload::Remote {
            body: Arc::new(body),
            range: at..at + payload.len(),
        }
    }

    #[test]
    fn remote_payload_decodes_on_extract() {
        let data = vec![0usize, 7, 42];
        let rx = remote_at(5, &crate::frame::encode(&data));
        assert_eq!(*rx.extract::<Vec<usize>>(), data);
    }

    #[test]
    #[should_panic(expected = "failed to decode")]
    fn remote_payload_rejects_wrong_type() {
        let rx = remote_at(0, &crate::frame::encode(&3u8));
        let _ = rx.extract::<Vec<f64>>();
    }

    fn dep(tag: u64) -> RxDeposit {
        RxDeposit {
            entry: tag as f64,
            fp: None,
            payload: RxPayload::Local(Arc::new(tag)),
        }
    }

    fn tags(deposits: &[RxDeposit]) -> Vec<u64> {
        deposits
            .iter()
            .map(|d| *d.payload.extract::<u64>())
            .collect()
    }

    fn collect(mailbox: &Mailbox, key: (u64, u64)) -> Vec<RxDeposit> {
        match mailbox.collect(key, &|| None, Duration::from_secs(5)) {
            Ok(deposits) => deposits,
            Err(_) => panic!("{key:?} must complete"),
        }
    }

    #[test]
    fn mailbox_files_deposits_in_any_order() {
        let mailbox = Mailbox::default();
        let pair = [0, 1];
        let file = |key, idx, tag| {
            mailbox
                .file(key, &pair, idx, dep(tag))
                .unwrap_or_else(|why| panic!("{why}"));
        };
        // A later seq and another comm arrive ahead of the current
        // collect, and a peer's deposit ahead of the rank's own: all are
        // held, none refused.
        file((7, 1), 0, 71);
        file((9, 0), 0, 90);
        file((7, 0), 0, 70);
        assert!(!mailbox.is_complete((7, 0)));
        file((7, 0), 1, 170);
        assert!(mailbox.is_complete((7, 0)));
        assert_eq!(tags(&collect(&mailbox, (7, 0))), [70, 170]);
        assert!(!mailbox.is_complete((7, 0)), "the collect retires the slot");
        file((7, 1), 1, 171);
        file((9, 0), 1, 190);
        assert_eq!(tags(&collect(&mailbox, (9, 0))), [90, 190]);
        assert_eq!(tags(&collect(&mailbox, (7, 1))), [71, 171]);
        assert!(mailbox.slots.with(|slots| slots.open.is_empty()));
    }

    #[test]
    fn mailbox_fails_collects_by_poison_abort_and_timeout() {
        let mailbox = Mailbox::default();
        let pair = [0, 1];
        let fail = |key, abort: &dyn Fn() -> Option<String>| match mailbox.collect(
            key,
            abort,
            Duration::from_millis(60),
        ) {
            Ok(_) => panic!("{key:?} cannot complete"),
            Err(CollectError::Abort(why)) => format!("abort: {why}"),
            Err(CollectError::Timeout { arrived }) => format!("timeout: {arrived}"),
            Err(CollectError::Transport(why)) => format!("transport: {why}"),
        };
        mailbox
            .file((1, 0), &pair, 1, dep(1))
            .unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(fail((1, 0), &|| None), "timeout: 1");
        assert_eq!(fail((1, 1), &|| Some("stop".into())), "abort: stop");
        mailbox.poison("hub lost".into());
        mailbox.poison("later".into());
        assert_eq!(fail((1, 0), &|| None), "transport: hub lost");
        // A slot that completes still completes.
        mailbox
            .file((1, 0), &pair, 0, dep(0))
            .unwrap_or_else(|why| panic!("{why}"));
        assert_eq!(tags(&collect(&mailbox, (1, 0))), [0, 1]);
    }
}
