//! Wait-for-graph deadlock analysis over blocked ranks.
//!
//! The runtime reports, per world rank, whether it is running, blocked
//! at a collective rendezvous (and on which communicator slot), done, or
//! panicked, and how far it has deposited on each communicator. This
//! module is the pure half: given that snapshot it decides whether the
//! system is deadlocked (no rank can ever make progress), extracts the
//! wait-for edges and any cycle, and renders a report that names every
//! blocked rank's collective and dumps each rank's last-N collective
//! history.
//!
//! Every rank deposits into a rendezvous before it waits on it, so a
//! rendezvous can complete exactly when every member has deposited into
//! it — whether or not those members are still parked there. The
//! deposit record is a slice indexed by world rank of maps from
//! communicator id to the highest seq that rank has deposited on it.

use crate::fingerprint::CollectiveKind;
use std::collections::HashMap;
use std::fmt;

/// Identity of one rendezvous: communicator id plus per-communicator
/// call sequence number (the "epoch" of the collective).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId {
    /// Communicator id.
    pub comm: u64,
    /// Call sequence number on that communicator.
    pub seq: u64,
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comm {} seq {}", self.comm, self.seq)
    }
}

/// Where a blocked rank is waiting.
#[derive(Clone, Debug, PartialEq)]
pub struct WaitSlot {
    /// The rendezvous it is parked on.
    pub slot: SlotId,
    /// The collective it called.
    pub kind: CollectiveKind,
    /// World ranks of all members of that communicator.
    pub members: Vec<usize>,
}

/// Lifecycle phase of one rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankPhase {
    /// Executing user code between collectives.
    Running,
    /// Parked at a collective rendezvous.
    Blocked,
    /// Rank closure returned normally.
    Done,
    /// Rank closure panicked.
    Panicked,
}

/// One rank's state as seen by the watchdog.
#[derive(Clone, Debug, PartialEq)]
pub struct RankSnapshot {
    /// Lifecycle phase.
    pub phase: RankPhase,
    /// Present iff `phase == Blocked`.
    pub wait: Option<WaitSlot>,
}

impl RankSnapshot {
    /// A running rank (initial state).
    pub fn running() -> Self {
        RankSnapshot {
            phase: RankPhase::Running,
            wait: None,
        }
    }
}

/// One entry of a rank's collective history ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistoryEntry {
    /// The rendezvous.
    pub slot: SlotId,
    /// The collective called.
    pub kind: CollectiveKind,
    /// The rank's modeled clock at entry (seconds).
    pub clock: f64,
}

impl fmt::Display for HistoryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} (t={:.3e}s)", self.kind, self.slot, self.clock)
    }
}

/// Whether world rank `m` has deposited into `slot`: its highest seq on
/// the slot's communicator is at or past the slot's.
fn deposited(deposits: &[HashMap<u64, u64>], m: usize, slot: SlotId) -> bool {
    deposits
        .get(m)
        .and_then(|d| d.get(&slot.comm))
        .is_some_and(|&seq| seq >= slot.seq)
}

/// True when the system can never make progress again: every rank is
/// done or blocked, at least one is blocked, and no blocked rendezvous
/// can still complete (each is missing the deposit of a member that is
/// done or parked elsewhere).
///
/// A slot every member has deposited into is completable even while a
/// member is parked on a later slot — a finished rendezvous whose waiter
/// has not woken yet, or a prefetched stage collected ahead of it. The
/// caller samples `deposits` after `snapshot` (deposits only grow, so
/// none a parked rank made is missed) and acts only on a verdict stable
/// across a few polls.
pub fn is_quiescent_deadlock(snapshot: &[RankSnapshot], deposits: &[HashMap<u64, u64>]) -> bool {
    let mut any_blocked = false;
    for s in snapshot {
        match s.phase {
            RankPhase::Blocked => any_blocked = true,
            RankPhase::Done => {}
            RankPhase::Running | RankPhase::Panicked => return false,
        }
    }
    if !any_blocked {
        return false;
    }
    // No blocked slot may be completable: a slot every member has
    // deposited into is about to complete, so the system is not stuck.
    !snapshot.iter().filter_map(|s| s.wait.as_ref()).any(|wait| {
        wait.members
            .iter()
            .all(|&m| deposited(deposits, m, wait.slot))
    })
}

/// Wait-for edges: each blocked rank paired with the sorted member ranks
/// it is still waiting on (members that have not deposited into its
/// rendezvous).
pub fn wait_edges(
    snapshot: &[RankSnapshot],
    deposits: &[HashMap<u64, u64>],
) -> Vec<(usize, Vec<usize>)> {
    let mut edges = Vec::new();
    for (rank, s) in snapshot.iter().enumerate() {
        let Some(wait) = &s.wait else { continue };
        if s.phase != RankPhase::Blocked {
            continue;
        }
        let mut missing: Vec<usize> = wait
            .members
            .iter()
            .copied()
            .filter(|&m| m != rank && !deposited(deposits, m, wait.slot))
            .collect();
        missing.sort_unstable();
        edges.push((rank, missing));
    }
    edges
}

/// Find one cycle in the wait-for graph, as a rank sequence with the
/// start repeated at the end (`[0, 1, 3, 0]`). `None` for pure stalls
/// (e.g. an orphaned barrier waiting on a rank that already exited).
pub fn find_cycle(edges: &[(usize, Vec<usize>)]) -> Option<Vec<usize>> {
    let successor = |r: usize| -> &[usize] {
        edges
            .iter()
            .find(|(rank, _)| *rank == r)
            .map(|(_, m)| m.as_slice())
            .unwrap_or(&[])
    };
    for &(start, _) in edges {
        // Walk successors depth-first, tracking the path for cycle
        // extraction.
        let mut path = vec![start];
        let mut stack = vec![(start, 0usize)];
        let mut visited = vec![start];
        while let Some((node, child)) = stack.pop() {
            let succ = successor(node);
            if child >= succ.len() {
                path.pop();
                continue;
            }
            stack.push((node, child + 1));
            let next = succ[child];
            if let Some(pos) = path.iter().position(|&p| p == next) {
                let mut cycle: Vec<usize> = path[pos..].to_vec();
                cycle.push(next);
                return Some(cycle);
            }
            if !visited.contains(&next) {
                visited.push(next);
                path.push(next);
                stack.push((next, 0));
            }
        }
    }
    None
}

/// Render the full deadlock report: per-rank wait states, the wait-for
/// edges, any cycle, and each rank's last-N collective history.
pub fn deadlock_report(
    snapshot: &[RankSnapshot],
    deposits: &[HashMap<u64, u64>],
    histories: &[Vec<HistoryEntry>],
) -> String {
    let blocked = snapshot
        .iter()
        .filter(|s| s.phase == RankPhase::Blocked)
        .count();
    let mut out = format!(
        "deadlock detected: {blocked}/{} rank(s) blocked with no possible progress\n",
        snapshot.len()
    );
    let edges = wait_edges(snapshot, deposits);
    for (rank, s) in snapshot.iter().enumerate() {
        match (&s.phase, &s.wait) {
            (RankPhase::Blocked, Some(w)) => {
                let missing = edges
                    .iter()
                    .find(|(r, _)| *r == rank)
                    .map(|(_, m)| m.as_slice())
                    .unwrap_or(&[]);
                out.push_str(&format!(
                    "  rank {rank}: blocked in {} on {} (members {:?}), waiting on rank(s) {:?}\n",
                    w.kind, w.slot, w.members, missing
                ));
            }
            (RankPhase::Done, _) => out.push_str(&format!("  rank {rank}: done\n")),
            (RankPhase::Panicked, _) => out.push_str(&format!("  rank {rank}: panicked\n")),
            _ => out.push_str(&format!("  rank {rank}: running\n")),
        }
    }
    if let Some(cycle) = find_cycle(&edges) {
        let rendered: Vec<String> = cycle.iter().map(|r| format!("rank {r}")).collect();
        out.push_str(&format!("  wait cycle: {}\n", rendered.join(" -> ")));
    }
    if histories.iter().any(|h| !h.is_empty()) {
        out.push_str("  recent collectives per rank (oldest first):\n");
        for (rank, h) in histories.iter().enumerate() {
            if h.is_empty() {
                continue;
            }
            let entries: Vec<String> = h.iter().map(|e| e.to_string()).collect();
            out.push_str(&format!("    rank {rank}: {}\n", entries.join(" -> ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocked(slot: SlotId, kind: CollectiveKind, members: Vec<usize>) -> RankSnapshot {
        RankSnapshot {
            phase: RankPhase::Blocked,
            wait: Some(WaitSlot {
                slot,
                kind,
                members,
            }),
        }
    }

    fn done() -> RankSnapshot {
        RankSnapshot {
            phase: RankPhase::Done,
            wait: None,
        }
    }

    /// The deposits of `snap` alone: each parked rank has deposited into
    /// the slot it is parked on, and nothing else.
    fn parked(snap: &[RankSnapshot]) -> Vec<HashMap<u64, u64>> {
        snap.iter()
            .map(|s| s.wait.iter().map(|w| (w.slot.comm, w.slot.seq)).collect())
            .collect()
    }

    const A: SlotId = SlotId { comm: 1, seq: 0 };
    const B: SlotId = SlotId { comm: 2, seq: 0 };

    #[test]
    fn completable_slot_is_not_deadlock() {
        // Both ranks parked on the same slot: it is about to complete.
        let snap = vec![
            blocked(A, CollectiveKind::Barrier, vec![0, 1]),
            blocked(A, CollectiveKind::Barrier, vec![0, 1]),
        ];
        assert!(!is_quiescent_deadlock(&snap, &parked(&snap)));
    }

    #[test]
    fn prefetched_stage_collected_ahead_is_not_deadlock() {
        // Rank 1 deposited S0 and S1 (a prefetched stage) and is parked on
        // S0; rank 0 already collected S0 and is parked on S1. Neither
        // slot has every member parked on it, yet both can complete.
        let s1 = SlotId { comm: 1, seq: 1 };
        let snap = vec![
            blocked(s1, CollectiveKind::GatherRows, vec![0, 1]),
            blocked(A, CollectiveKind::GatherRows, vec![0, 1]),
        ];
        let both_at_s1: Vec<HashMap<u64, u64>> = vec![HashMap::from([(1, 1)]); 2];
        assert!(!is_quiescent_deadlock(&snap, &both_at_s1));
        assert_eq!(
            wait_edges(&snap, &both_at_s1),
            vec![(0, vec![]), (1, vec![])]
        );
        // Had rank 1 not issued S1, rank 0 would wait on it, but S0 could
        // still complete and wake rank 1.
        let only_s0 = vec![HashMap::from([(1, 1)]), HashMap::from([(1, 0)])];
        assert!(!is_quiescent_deadlock(&snap, &only_s0));
        assert_eq!(wait_edges(&snap, &only_s0), vec![(0, vec![1]), (1, vec![])]);
    }

    #[test]
    fn running_rank_means_no_deadlock() {
        let snap = vec![
            blocked(A, CollectiveKind::Barrier, vec![0, 1]),
            RankSnapshot::running(),
        ];
        assert!(!is_quiescent_deadlock(&snap, &parked(&snap)));
    }

    #[test]
    fn orphaned_barrier_is_deadlock() {
        let snap = vec![blocked(A, CollectiveKind::Barrier, vec![0, 1]), done()];
        assert!(is_quiescent_deadlock(&snap, &parked(&snap)));
        let edges = wait_edges(&snap, &parked(&snap));
        assert_eq!(edges, vec![(0, vec![1])]);
        assert!(find_cycle(&edges).is_none());
        let report = deadlock_report(&snap, &parked(&snap), &[vec![], vec![]]);
        assert!(report.contains("rank 0: blocked in barrier"));
        assert!(report.contains("rank 1: done"));
    }

    #[test]
    fn cross_communicator_cycle_detected() {
        // 0 waits for 1 on slot A; 1 waits for 0 on slot B.
        let snap = vec![
            blocked(A, CollectiveKind::Barrier, vec![0, 1]),
            blocked(B, CollectiveKind::Bcast, vec![0, 1]),
        ];
        assert!(is_quiescent_deadlock(&snap, &parked(&snap)));
        let edges = wait_edges(&snap, &parked(&snap));
        let cycle = find_cycle(&edges).expect("cycle exists");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
        let report = deadlock_report(&snap, &parked(&snap), &[vec![], vec![]]);
        assert!(report.contains("wait cycle"));
    }

    #[test]
    fn four_rank_ring_cycle() {
        // rows {0,1} comm 10, {2,3} comm 11; cols {0,2} comm 20, {1,3}
        // comm 21. 0 in row, 1 in col, 2 in col, 3 in row: 4-cycle.
        let row0 = SlotId { comm: 10, seq: 0 };
        let row1 = SlotId { comm: 11, seq: 0 };
        let col0 = SlotId { comm: 20, seq: 0 };
        let col1 = SlotId { comm: 21, seq: 0 };
        let snap = vec![
            blocked(row0, CollectiveKind::Barrier, vec![0, 1]),
            blocked(col1, CollectiveKind::Barrier, vec![1, 3]),
            blocked(col0, CollectiveKind::Barrier, vec![0, 2]),
            blocked(row1, CollectiveKind::Barrier, vec![2, 3]),
        ];
        assert!(is_quiescent_deadlock(&snap, &parked(&snap)));
        let cycle = find_cycle(&wait_edges(&snap, &parked(&snap))).expect("ring cycle");
        assert!(cycle.len() >= 3);
    }

    #[test]
    fn history_appears_in_report() {
        let snap = vec![blocked(A, CollectiveKind::Allgather, vec![0, 1]), done()];
        let hist = vec![
            vec![HistoryEntry {
                slot: A,
                kind: CollectiveKind::Bcast,
                clock: 1.5e-5,
            }],
            vec![],
        ];
        let report = deadlock_report(&snap, &parked(&snap), &hist);
        assert!(report.contains("recent collectives"));
        assert!(report.contains("bcast@comm 1 seq 0"));
    }
}
