//! The transport abstraction under the collective layer.
//!
//! [`Communicator`](crate::comm::Communicator) implements every
//! collective — BSP entry-clock maximisation, α–β charging, CheckMode
//! fingerprint verification, deterministic member-order reduction —
//! **above** the [`CommLink`] trait defined here. A link only moves
//! opaque deposits: it accepts one `(entry clock, fingerprint, payload)`
//! triple per member and hands back the full member-ordered set once the
//! rendezvous is complete. Two implementations exist:
//!
//! * [`SharedLink`] — the original shared-memory simulator: deposits are
//!   `Arc` pointer copies through a generation-keyed mailbox guarded by
//!   a mutex + condvar. Deterministic, dependency-free, the CI fast
//!   path and the default.
//! * `SocketLink` (in `proc.rs`) — real multi-process transport: rank 0
//!   spawns worker processes connected over Unix domain sockets, and
//!   deposits travel as length-prefixed binary frames (`frame.rs`).
//!
//! Because everything above the trait is shared code operating on
//! bit-exact inputs (entry clocks cross the wire as `f64::to_bits`),
//! losses, weights, word counts, and timelines are bit-identical across
//! backends — pinned by `crates/core/tests/socket_transport.rs`.

use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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
/// the exact panic the shared-memory backend has always raised, so
/// failure modes read identically on both transports.
pub(crate) enum CollectError {
    /// The run-wide abort flag was raised (peer panic, watchdog).
    Abort(String),
    /// The rendezvous stayed incomplete past the collective timeout.
    Timeout {
        /// How many members had arrived when time ran out, when the
        /// transport knows.
        arrived: Option<usize>,
    },
    /// The link itself failed: poisoned rendezvous, dead peer process,
    /// socket error. The string names the cause (and the rank, where
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
    /// color, so every member derives the same link without out-of-band
    /// coordination. `size` is the sub-group's member count.
    fn derive(&self, key_seq: u64, color: u64, size: usize) -> Arc<dyn CommLink>;
}

struct CallSlot {
    deposits: Vec<Option<(f64, Option<Fingerprint>, Payload)>>,
    arrived: usize,
    consumed: usize,
}

/// State shared by all member threads of one shared-memory communicator.
pub(crate) struct CommInner {
    pub(crate) id: u64,
    pub(crate) size: usize,
    slots: Mutex<HashMap<u64, CallSlot>>,
    cv: Condvar,
}

impl CommInner {
    pub(crate) fn new(id: u64, size: usize) -> Self {
        CommInner {
            id,
            size,
            slots: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
        }
    }
}

/// The shared-memory transport: a generation-keyed mailbox of `Arc`
/// deposits guarded by a mutex + condvar. "Communication" is a pointer
/// copy; all costs are modeled.
pub(crate) struct SharedLink {
    inner: Arc<CommInner>,
    registry: Arc<Registry>,
}

impl SharedLink {
    /// The world link of a fresh run.
    pub(crate) fn world(registry: &Arc<Registry>, size: usize) -> Arc<dyn CommLink> {
        Arc::new(SharedLink {
            inner: registry.fresh_world(size),
            registry: registry.clone(),
        })
    }

    fn poisoned() -> CollectError {
        CollectError::Transport("a peer rank panicked inside a collective".to_string())
    }
}

impl CommLink for SharedLink {
    fn id(&self) -> u64 {
        self.inner.id
    }

    fn deposit(
        &self,
        _kind: CollectiveKind,
        seq: u64,
        my_idx: usize,
        members: &[usize],
        dep: TxDeposit,
    ) -> Result<(), CollectError> {
        let size = members.len();
        let mut slots = self.inner.slots.lock().map_err(|_| Self::poisoned())?;
        let slot = slots.entry(seq).or_insert_with(|| CallSlot {
            deposits: vec![None; size],
            arrived: 0,
            consumed: 0,
        });
        assert!(
            slot.deposits[my_idx].is_none(),
            "rank deposited twice at comm {} seq {seq} — collective misuse",
            self.inner.id
        );
        slot.deposits[my_idx] = Some((dep.entry, dep.fp, dep.payload.local));
        slot.arrived += 1;
        if slot.arrived == size {
            self.inner.cv.notify_all();
        }
        Ok(())
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
        let size = members.len();
        let mut slots = self.inner.slots.lock().map_err(|_| Self::poisoned())?;
        // Wait for the full group, waking every WAIT_TICK to observe the
        // run-wide abort flag (set when a peer panics or the watchdog
        // declares deadlock) so one failure stops the whole run quickly.
        let mut waited = Duration::ZERO;
        loop {
            let ready = slots.get(&seq).map(|s| s.arrived == size).unwrap_or(false);
            if ready {
                break;
            }
            if let Some(why) = abort() {
                return Err(CollectError::Abort(why));
            }
            let (guard, result) = match self.inner.cv.wait_timeout(slots, WAIT_TICK) {
                Ok(pair) => pair,
                Err(_) => return Err(Self::poisoned()),
            };
            slots = guard;
            if result.timed_out() {
                waited += WAIT_TICK;
                if waited >= timeout {
                    // A spurious-looking timeout can race the final
                    // arrival; recheck under the lock before giving up.
                    if slots.get(&seq).map(|s| s.arrived == size).unwrap_or(false) {
                        break;
                    }
                    let arrived = slots.get(&seq).map(|s| s.arrived).unwrap_or(0);
                    return Err(CollectError::Timeout {
                        arrived: Some(arrived),
                    });
                }
            }
        }
        let (out, done) = {
            let Some(slot) = slots.get_mut(&seq) else {
                unreachable!(
                    "comm {} seq {seq}: slot vanished before consumption",
                    self.inner.id
                )
            };
            let mut out = Vec::with_capacity(size);
            for (idx, d) in slot.deposits.iter().enumerate() {
                let Some((t, fp, p)) = d.as_ref() else {
                    unreachable!(
                        "comm {} seq {seq}: member {idx} deposit missing",
                        self.inner.id
                    )
                };
                out.push(RxDeposit {
                    entry: *t,
                    fp: fp.clone(),
                    payload: RxPayload::Local(p.clone()),
                });
            }
            slot.consumed += 1;
            (out, slot.consumed == size)
        };
        if done {
            slots.remove(&seq);
        }
        Ok(out)
    }

    fn derive(&self, key_seq: u64, color: u64, size: usize) -> Arc<dyn CommLink> {
        let inner = self
            .registry
            .get_or_create((self.inner.id, key_seq, color), size);
        assert_eq!(inner.size, size, "split group size disagreement");
        Arc::new(SharedLink {
            inner,
            registry: self.registry.clone(),
        })
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
}
