//! The transport abstraction under the collective layer.
//!
//! [`Communicator`](crate::comm::Communicator) implements every
//! collective — BSP entry-clock maximisation, α–β charging, CheckMode
//! fingerprint verification, deterministic member-order reduction —
//! **above** the [`CommLink`] trait defined here. A link only moves
//! opaque deposits: it accepts one `(entry clock, fingerprint, payload)`
//! triple per member and hands back the full member-ordered set once the
//! rendezvous is complete.
//!
//! Both implementations complete that rendezvous in one place, the
//! [`Mailbox`]: deposits are filed under `(comm, seq)` as they arrive, in
//! any order, and a collect waits until its slot holds one per member.
//!
//! * [`SharedLink`] — the shared-memory simulator: the member threads of
//!   a communicator file `Arc` pointer copies into one mailbox.
//!   Deterministic, dependency-free, the CI fast path and the default.
//! * `SocketLink` (in `proc.rs`) — real multi-process transport: rank 0
//!   spawns worker processes connected over Unix domain sockets, and
//!   deposits travel as length-prefixed binary frames (`frame.rs`). Each
//!   rank's mailbox holds its own deposits and those the launcher's hub
//!   forwards to it.
//!
//! Communicators are named alike on both: the world is
//! [`WORLD_COMM_ID`] and a split-off group [`derived_id`] of its parent.
//! Because everything above the trait is shared code operating on
//! bit-exact inputs (entry clocks cross the wire as `f64::to_bits`),
//! losses, weights, word counts, and timelines are bit-identical across
//! backends — pinned by `crates/core/tests/socket_transport.rs`.

use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cagnet_check::fingerprint::{CollectiveKind, Fingerprint};

use crate::comm::Registry;
use crate::frame::Wire;

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

/// One member's deposit as handed back by [`CommLink::collect`].
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

/// A communicator's rendezvous channel. Object-safe so the collective
/// layer can hold `Arc<dyn CommLink>` and stay byte-for-byte identical
/// across backends.
pub(crate) trait CommLink: Send + Sync {
    /// Stable id of this communicator (keys diagnostic slot ids).
    fn id(&self) -> u64;

    /// Place `my_idx`'s deposit into the rendezvous for `seq`.
    /// `members` are the world ranks of the group, ascending.
    fn deposit(
        &self,
        kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        dep: TxDeposit,
    ) -> Result<(), CollectError>;

    /// Block until the rendezvous for `seq` holds one deposit per
    /// member and return them in member order. Polls `abort` every wait
    /// tick so one failing rank stops the whole run quickly; gives up
    /// after `timeout`.
    fn collect(
        &self,
        kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        abort: &dyn Fn() -> Option<String>,
        timeout: Duration,
    ) -> Result<Vec<RxDeposit>, CollectError>;

    /// The link for a sub-communicator split off this one: `key_seq` is
    /// the parent's sequence number at the split and `color` the group
    /// color, so every member derives the same link, with the id
    /// [`derived_id`] gives, without out-of-band coordination.
    fn derive(&self, key_seq: u64, color: u64) -> Arc<dyn CommLink>;
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
    /// How many collects have taken the complete slot.
    consumed: usize,
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

/// The rendezvous both transports complete collectives from: deposits
/// filed under `(comm, seq)` in whatever order they arrive, and collects
/// that wait for one deposit per member. The member threads of one
/// shared-memory communicator share one mailbox; each socket client owns
/// one, into which its rank files its own deposits and its reader thread
/// the deposits the hub forwards.
#[derive(Default)]
pub(crate) struct Mailbox {
    slots: Mutex<Slots>,
    cv: Condvar,
}

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, Slots> {
        // Nothing panics under this lock, so a poisoned one still holds
        // consistent slots.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

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
        let mut slots = self.lock();
        let slot = slots.open.entry(key).or_insert_with(|| Slot {
            members: members.to_vec(),
            deposits: vec![None; members.len()],
            arrived: 0,
            consumed: 0,
        });
        if slot.members != members {
            return Err(format!(
                "protocol error: deposit at {} lists members {members:?} but the rendezvous was \
                 opened with {:?}",
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
    }

    /// Whether the rendezvous `key` already holds every member's deposit.
    pub(crate) fn is_complete(&self, key: (u64, u64)) -> bool {
        self.lock().open.get(&key).is_some_and(Slot::complete)
    }

    /// Fail every collect that is waiting, or will wait, on this mailbox
    /// with `why`. The first reason stands.
    pub(crate) fn poison(&self, why: String) {
        self.lock().poisoned.get_or_insert(why);
        self.cv.notify_all();
    }

    /// Block until the rendezvous `key` is complete and return its
    /// deposits in member order; the `readers`-th collect of it retires
    /// it. Waking every [`WAIT_TICK`], it fails with the poison reason,
    /// with `abort`'s message once that returns one, or with the arrival
    /// count once `timeout` has passed.
    pub(crate) fn collect(
        &self,
        key: (u64, u64),
        readers: usize,
        abort: &dyn Fn() -> Option<String>,
        timeout: Duration,
    ) -> Result<Vec<RxDeposit>, CollectError> {
        let deadline = Instant::now() + timeout;
        let mut slots = self.lock();
        loop {
            if let Some(slot) = slots.open.get_mut(&key).filter(|s| s.complete()) {
                slot.consumed += 1;
                if slot.consumed < readers {
                    return Ok(slot.deposits.iter().flatten().cloned().collect());
                }
                let Some(slot) = slots.open.remove(&key) else {
                    unreachable!("the slot was just found")
                };
                return Ok(slot.deposits.into_iter().flatten().collect());
            }
            if let Some(why) = &slots.poisoned {
                return Err(CollectError::Transport(why.clone()));
            }
            if let Some(why) = abort() {
                return Err(CollectError::Abort(why));
            }
            if Instant::now() >= deadline {
                let arrived = slots.open.get(&key).map_or(0, |s| s.arrived);
                return Err(CollectError::Timeout { arrived });
            }
            slots = match self.cv.wait_timeout(slots, WAIT_TICK) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// The shared-memory transport: the member threads of a communicator
/// file `Arc` deposits into one [`Mailbox`]. "Communication" is a
/// pointer copy; all costs are modeled.
pub(crate) struct SharedLink {
    id: u64,
    mailbox: Arc<Mailbox>,
    registry: Arc<Registry>,
}

impl SharedLink {
    /// The world link of a fresh run.
    pub(crate) fn world(registry: &Arc<Registry>) -> Arc<dyn CommLink> {
        Self::at(registry, WORLD_COMM_ID)
    }

    fn at(registry: &Arc<Registry>, id: u64) -> Arc<dyn CommLink> {
        Arc::new(SharedLink {
            id,
            mailbox: registry.mailbox(id),
            registry: registry.clone(),
        })
    }
}

impl CommLink for SharedLink {
    fn id(&self) -> u64 {
        self.id
    }

    fn deposit(
        &self,
        _kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        dep: TxDeposit,
    ) -> Result<(), CollectError> {
        let dep = RxDeposit {
            entry: dep.entry,
            fp: dep.fp,
            payload: RxPayload::Local(dep.payload.local),
        };
        self.mailbox
            .file((self.id, seq), members, my_idx, dep)
            .map_err(CollectError::Transport)
    }

    fn collect(
        &self,
        _kind: CollectiveKind,
        seq: u64,
        _my_idx: usize,
        members: &[usize],
        abort: &dyn Fn() -> Option<String>,
        timeout: Duration,
    ) -> Result<Vec<RxDeposit>, CollectError> {
        // Every member thread collects the one slot.
        self.mailbox
            .collect((self.id, seq), members.len(), abort, timeout)
    }

    fn derive(&self, key_seq: u64, color: u64) -> Arc<dyn CommLink> {
        Self::at(&self.registry, derived_id(self.id, key_seq, color))
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

    fn collect(mailbox: &Mailbox, key: (u64, u64), readers: usize) -> Vec<RxDeposit> {
        match mailbox.collect(key, readers, &|| None, Duration::from_secs(5)) {
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
        assert_eq!(tags(&collect(&mailbox, (7, 0), 1)), [70, 170]);
        assert!(!mailbox.is_complete((7, 0)), "one reader retires the slot");
        file((7, 1), 1, 171);
        file((9, 0), 1, 190);
        // With two readers, both get the deposits in member order and the
        // second retires the slot.
        for _ in 0..2 {
            assert_eq!(tags(&collect(&mailbox, (9, 0), 2)), [90, 190]);
        }
        assert_eq!(tags(&collect(&mailbox, (7, 1), 1)), [71, 171]);
        assert!(mailbox.lock().open.is_empty());
    }

    #[test]
    fn mailbox_fails_collects_by_poison_abort_and_timeout() {
        let mailbox = Mailbox::default();
        let pair = [0, 1];
        let fail = |key, abort: &dyn Fn() -> Option<String>| match mailbox.collect(
            key,
            1,
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
        assert_eq!(tags(&collect(&mailbox, (1, 0), 1)), [0, 1]);
    }
}
