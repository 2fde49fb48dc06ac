//! Shared run-wide diagnostics: rank lifecycle states, wait
//! registrations and deposits for the watchdog, per-rank collective
//! histories, the first-panic record, and the abort flag that lets one
//! failing rank take the whole run down with a single clear error
//! instead of leaving its peers parked until the collective timeout.
//!
//! Every lock here recovers from poisoning (`PoisonError::into_inner`):
//! this state is diagnostic metadata that must stay readable precisely
//! when some rank has panicked.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, PoisonError};

use cagnet_check::waitgraph::{HistoryEntry, RankPhase, RankSnapshot, WaitSlot};

/// How many collective history entries are kept per rank for deadlock
/// and timeout reports.
pub(crate) const HISTORY_LEN: usize = 16;

/// The first rank-level failure of a run: which rank, what it was doing,
/// and the original panic message. Recorded once; later failures (the
/// abort cascade) keep the original.
#[derive(Clone, Debug)]
pub(crate) struct FirstPanic {
    pub rank: usize,
    pub during: String,
    pub message: String,
}

impl FirstPanic {
    pub fn render(&self) -> String {
        format!(
            "rank {} panicked first during {}: {}",
            self.rank, self.during, self.message
        )
    }
}

/// Run-wide diagnostic state shared by all ranks and the watchdog.
#[derive(Debug, Default)]
pub(crate) struct Diagnostics {
    states: Mutex<Vec<RankSnapshot>>,
    logs: Mutex<Vec<RankLog>>,
    first_panic: Mutex<Option<FirstPanic>>,
    abort: Mutex<Option<String>>,
}

impl Diagnostics {
    /// Size the per-rank tables; called once per cluster run.
    pub fn init(&self, size: usize) {
        *lock(&self.states) = vec![RankSnapshot::running(); size];
        *lock(&self.logs) = vec![RankLog::default(); size];
    }

    /// Record that `rank` deposited into `entry.slot`: the entry joins its
    /// history ring, and the slot's seq becomes its highest deposited on
    /// that communicator (deposits on one communicator are in seq order).
    pub fn record_deposit(&self, rank: usize, entry: HistoryEntry) {
        if let Some(log) = lock(&self.logs).get_mut(rank) {
            if log.history.len() == HISTORY_LEN {
                log.history.pop_front();
            }
            log.history.push_back(entry);
            log.highest.insert(entry.slot.comm, entry.slot.seq);
        }
    }

    /// Set a rank's lifecycle phase (clears any wait registration).
    ///
    /// `Done` and `Panicked` are terminal: no later update moves a rank
    /// out of them. The watchdog only exits when every rank is terminal,
    /// so a terminal phase overwritten by a late update — a worker's
    /// mirrored frame handled after the monitor recorded its death, say —
    /// would hang the launcher.
    pub fn set_phase(&self, rank: usize, phase: RankPhase) {
        let mut s = lock(&self.states);
        if let Some(snap) = s.get_mut(rank) {
            if terminal(snap.phase) {
                return;
            }
            snap.phase = phase;
            snap.wait = None;
        }
    }

    /// Mark `rank` blocked on `wait`; the returned guard restores it to
    /// running when the collective completes (or unwinds).
    pub fn enter_wait<'d>(&'d self, rank: usize, wait: WaitSlot) -> WaitGuard<'d> {
        {
            let mut s = lock(&self.states);
            if let Some(snap) = s.get_mut(rank) {
                snap.phase = RankPhase::Blocked;
                snap.wait = Some(wait);
            }
        }
        WaitGuard { diag: self, rank }
    }

    /// Mark `rank` blocked on `wait` with no guard: used by the socket
    /// hub to mirror a remote worker's `WAIT` notice into the launcher's
    /// diagnostics (the rank reads as running again from its next
    /// `DEPOSIT`, and done from its `RESULT`).
    pub fn set_blocked(&self, rank: usize, wait: WaitSlot) {
        let mut s = lock(&self.states);
        if let Some(snap) = s.get_mut(rank) {
            if terminal(snap.phase) {
                return;
            }
            snap.phase = RankPhase::Blocked;
            snap.wait = Some(wait);
        }
    }

    /// Clone the current rank states.
    pub fn snapshot(&self) -> Vec<RankSnapshot> {
        lock(&self.states).clone()
    }

    /// Clone the per-rank collective histories.
    pub fn histories(&self) -> Vec<Vec<HistoryEntry>> {
        lock(&self.logs)
            .iter()
            .map(|log| log.history.iter().copied().collect())
            .collect()
    }

    /// Per rank, the highest seq it has deposited on each communicator.
    pub fn deposited(&self) -> Vec<HashMap<u64, u64>> {
        lock(&self.logs)
            .iter()
            .map(|log| log.highest.clone())
            .collect()
    }

    /// The label of the collective `rank` most recently entered, for
    /// "panicked during ..." context.
    pub fn last_collective_label(&self, rank: usize) -> String {
        if let Some(w) = lock(&self.states).get(rank).and_then(|s| s.wait.clone()) {
            return format!("{} on {}", w.kind, w.slot);
        }
        match lock(&self.logs)
            .get(rank)
            .and_then(|log| log.history.back())
        {
            Some(e) => format!("{} on {}", e.kind, e.slot),
            None => "(no collective in flight)".to_string(),
        }
    }

    /// Record the run's first panic; later records are ignored.
    pub fn record_first_panic(&self, fp: FirstPanic) {
        let mut slot = lock(&self.first_panic);
        if slot.is_none() {
            *slot = Some(fp);
        }
    }

    /// The first panic, rendered, if any rank has failed.
    pub fn first_panic_render(&self) -> Option<String> {
        lock(&self.first_panic).as_ref().map(FirstPanic::render)
    }

    /// Raise the abort flag (first writer wins). Blocked ranks observe
    /// it within one wait tick and panic with the message.
    pub fn set_abort(&self, message: String) {
        let mut slot = lock(&self.abort);
        if slot.is_none() {
            *slot = Some(message);
        }
    }

    /// The abort message, if the run is being taken down.
    pub fn abort_message(&self) -> Option<String> {
        lock(&self.abort).clone()
    }
}

/// One rank's deposits: the last [`HISTORY_LEN`] collectives it entered,
/// and the highest seq it deposited per communicator id.
#[derive(Clone, Debug, Default)]
struct RankLog {
    history: VecDeque<HistoryEntry>,
    highest: HashMap<u64, u64>,
}

/// RAII wait registration: restores the rank to running on drop, even
/// when the collective panics out of the rendezvous.
pub(crate) struct WaitGuard<'d> {
    diag: &'d Diagnostics,
    rank: usize,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.diag.set_phase(self.rank, RankPhase::Running);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a phase is terminal: the rank has reported a result or a
/// failure and can never re-enter the run.
fn terminal(phase: RankPhase) -> bool {
    matches!(phase, RankPhase::Done | RankPhase::Panicked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_check::fingerprint::CollectiveKind;
    use cagnet_check::waitgraph::SlotId;

    #[test]
    fn wait_guard_restores_running() {
        let d = Diagnostics::default();
        d.init(2);
        {
            let _g = d.enter_wait(
                1,
                WaitSlot {
                    slot: SlotId { comm: 1, seq: 0 },
                    kind: CollectiveKind::Barrier,
                    members: vec![0, 1],
                },
            );
            assert_eq!(d.snapshot()[1].phase, RankPhase::Blocked);
        }
        assert_eq!(d.snapshot()[1].phase, RankPhase::Running);
    }

    #[test]
    fn history_ring_caps_length() {
        let d = Diagnostics::default();
        d.init(1);
        for seq in 0..(HISTORY_LEN as u64 + 5) {
            d.record_deposit(
                0,
                HistoryEntry {
                    slot: SlotId { comm: 1, seq },
                    kind: CollectiveKind::Barrier,
                    clock: 0.0,
                },
            );
        }
        let h = d.histories();
        assert_eq!(h[0].len(), HISTORY_LEN);
        assert_eq!(h[0][0].slot.seq, 5);
    }

    #[test]
    fn done_and_panicked_are_terminal() {
        // The socket hub's lost-update race: a rank reports its RESULT
        // (→ Done) while the peer thread that completed its last
        // collective is about to mark it Running. The late transition
        // must lose, or the CheckMode watchdog waits forever.
        let d = Diagnostics::default();
        d.init(2);
        d.set_phase(1, RankPhase::Done);
        d.set_phase(1, RankPhase::Running);
        assert_eq!(d.snapshot()[1].phase, RankPhase::Done);
        d.set_blocked(
            1,
            WaitSlot {
                slot: SlotId { comm: 1, seq: 3 },
                kind: CollectiveKind::Barrier,
                members: vec![0, 1],
            },
        );
        assert_eq!(d.snapshot()[1].phase, RankPhase::Done);
        assert!(d.snapshot()[1].wait.is_none());
        d.set_phase(0, RankPhase::Panicked);
        d.set_phase(0, RankPhase::Running);
        assert_eq!(d.snapshot()[0].phase, RankPhase::Panicked);
    }

    #[test]
    fn first_panic_is_sticky() {
        let d = Diagnostics::default();
        d.record_first_panic(FirstPanic {
            rank: 2,
            during: "bcast on comm 1 seq 0".into(),
            message: "boom".into(),
        });
        d.record_first_panic(FirstPanic {
            rank: 3,
            during: "barrier on comm 1 seq 1".into(),
            message: "later".into(),
        });
        let r = d.first_panic_render().expect("recorded");
        assert!(r.contains("rank 2"));
        assert!(r.contains("boom"));
    }

    #[test]
    fn abort_first_writer_wins() {
        let d = Diagnostics::default();
        assert!(d.abort_message().is_none());
        d.set_abort("first".into());
        d.set_abort("second".into());
        assert_eq!(d.abort_message().as_deref(), Some("first"));
    }
}
