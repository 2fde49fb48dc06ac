//! Per-rank modeled-time accounting.
//!
//! Every rank carries a [`Timeline`]: a bulk-synchronous-parallel clock
//! plus per-category accumulators of modeled seconds, words moved, and
//! message counts. Collectives synchronize the clock to the maximum entry
//! time across participants before adding the collective's modeled cost —
//! which makes an epoch's final clock exactly the BSP bound
//! `Σ_phases max_ranks (compute + comm)` that governs the runtime of the
//! paper's bulk-synchronous implementation (§IV-A.8 discusses precisely
//! this max-vs-total distinction).
//!
//! The timeline is **dual-lane** (DESIGN.md §10): the clock is the
//! *compute lane*, while `net_free` tracks when the *network lane* next
//! becomes free. A collective's α–β cost occupies the network lane from
//! the group's latest entry onward, so local charges made between its
//! issue and its `wait()` run concurrently — the covered portion is
//! metered as [`Cat::Overlapped`] and only the uncovered remainder
//! advances the clock, making a pipelined stage cost `max(compute,
//! comm)` instead of their sum. A collective waited on at once hides
//! nothing, and its cost advances both lanes together.

use crate::cost::{Cat, CostModel, ALL_CATS, NUM_CATS};
use crate::trace::TraceEvent;

/// Modeled-time ledger for one rank.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// The clock and per-category counters, as [`Timeline::report`]
    /// hands them out.
    ledger: TimelineReport,
    /// Time at which the single modeled NIC is next free — the network
    /// lane of the dual-lane model. Never ahead of the clock unless a
    /// pending op is in flight.
    net_free: f64,
    /// When `Some`, every charge/wait is recorded as a trace event.
    trace: Option<Vec<TraceEvent>>,
}

impl Timeline {
    /// Fresh timeline at clock 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current BSP clock (seconds).
    pub fn clock(&self) -> f64 {
        self.ledger.clock
    }

    /// Advance the clock by `dt` seconds, attributing them to `cat`.
    pub fn charge(&mut self, cat: Cat, dt: f64) {
        debug_assert!(dt >= 0.0, "negative charge");
        let l = &mut self.ledger;
        if let Some(tr) = &mut self.trace {
            if dt > 0.0 {
                tr.push(TraceEvent {
                    name: cat.label(),
                    cat,
                    start: l.clock,
                    end: l.clock + dt,
                });
            }
        }
        l.clock += dt;
        l.seconds[cat.index()] += dt;
    }

    /// Start recording trace events (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Take the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// Record `w` words moved and one message under `cat` (bookkeeping
    /// only; time is charged separately via [`Timeline::charge`]).
    pub fn record_traffic(&mut self, cat: Cat, w: u64) {
        self.ledger.words[cat.index()] += w;
        self.ledger.messages[cat.index()] += 1;
    }

    /// Record `bytes` payload bytes received over the wire for a
    /// collective metered under `cat` — the measured counterpart of
    /// [`Timeline::record_traffic`]'s modeled words (0 on shared memory,
    /// where payloads move as pointers).
    pub fn record_rx(&mut self, cat: Cat, bytes: u64) {
        self.ledger.rx_bytes[cat.index()] += bytes;
    }

    /// Synchronize the clock up to `t` (BSP max at a collective); no-op if
    /// already past `t`.
    pub fn sync_to(&mut self, t: f64) {
        let l = &mut self.ledger;
        if t > l.clock {
            // Waiting-at-barrier time is attributed to Idle: it is load
            // imbalance, not any kernel — and keeping it out of Misc lets
            // reports separate real work from rendezvous blocking.
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent {
                    name: "wait",
                    cat: Cat::Idle,
                    start: l.clock,
                    end: t,
                });
            }
            l.seconds[Cat::Idle.index()] += t - l.clock;
            l.clock = t;
        }
    }

    /// Settle a collective at `wait()` time: its α–β `cost` occupies the
    /// network lane from `max(ready, net_free)`, where `ready` is the
    /// rendezvous' max entry clock. The portion the compute lane has
    /// already covered is metered as [`Cat::Overlapped`] without
    /// advancing the clock; only the uncovered remainder (plus any gap
    /// until the op could start) moves the clock, so a fully hidden op
    /// costs zero modeled time. An op waited on at its issue clock hides
    /// nothing: the gap to `max(ready, net_free)` is idle, and the clock
    /// lands on `max(ready, net_free) + cost`.
    pub fn settle_pending(&mut self, ready: f64, cat: Cat, cost: f64) {
        debug_assert!(cost >= 0.0, "negative pending cost");
        let net_start = ready.max(self.net_free);
        let finish = net_start + cost;
        self.net_free = finish;
        let hidden = (self.clock() - net_start).clamp(0.0, cost);
        if hidden > 0.0 {
            // Overlapped intervals overlay compute events on the trace:
            // the network lane is busy concurrently with the clock lane.
            if let Some(tr) = &mut self.trace {
                tr.push(TraceEvent {
                    name: "ovlp",
                    cat: Cat::Overlapped,
                    start: net_start,
                    end: net_start + hidden,
                });
            }
            self.ledger.seconds[Cat::Overlapped.index()] += hidden;
        }
        // If every participant only became ready after our compute ended,
        // the gap is rendezvous idle time.
        self.sync_to(net_start);
        let remainder = (finish - self.clock()).max(0.0);
        self.charge(cat, remainder);
    }

    /// Immutable snapshot for reporting.
    pub fn report(&self) -> TimelineReport {
        self.ledger
    }

    /// Reset all accumulators (used between warmup and measured epochs).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Plain-data snapshot of a [`Timeline`], returned from cluster runs.
///
/// Equality compares the modeled ledger — clock, seconds, words and
/// messages — and not the received wire bytes, which measure the
/// transport (0 on shared memory), so a run's reports compare equal
/// across backends exactly when the model charged the same bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimelineReport {
    /// Final BSP clock.
    pub clock: f64,
    seconds: [f64; NUM_CATS],
    words: [u64; NUM_CATS],
    messages: [u64; NUM_CATS],
    rx_bytes: [u64; NUM_CATS],
}

impl PartialEq for TimelineReport {
    fn eq(&self, other: &Self) -> bool {
        self.clock == other.clock
            && self.seconds == other.seconds
            && self.words == other.words
            && self.messages == other.messages
    }
}

impl crate::frame::Wire for TimelineReport {
    // Lives here (not in frame.rs) because the per-category arrays are
    // private; f64 fields cross as exact bit patterns, preserving the
    // cross-backend bit-identity of reports.
    fn put(&self, out: &mut Vec<u8>) {
        self.clock.put(out);
        for v in self.seconds {
            v.put(out);
        }
        for v in self.words {
            v.put(out);
        }
        for v in self.messages {
            v.put(out);
        }
        for v in self.rx_bytes {
            v.put(out);
        }
    }
    fn take(r: &mut crate::frame::Reader<'_>) -> Result<Self, crate::frame::FrameError> {
        let clock = f64::take(r)?;
        let mut rep = TimelineReport {
            clock,
            ..TimelineReport::default()
        };
        for v in rep.seconds.iter_mut() {
            *v = f64::take(r)?;
        }
        for v in rep.words.iter_mut() {
            *v = u64::take(r)?;
        }
        for v in rep.messages.iter_mut() {
            *v = u64::take(r)?;
        }
        for v in rep.rx_bytes.iter_mut() {
            *v = u64::take(r)?;
        }
        Ok(rep)
    }
}

impl TimelineReport {
    /// Seconds attributed to a category.
    pub fn seconds(&self, cat: Cat) -> f64 {
        self.seconds[cat.index()]
    }

    /// Words moved under a category.
    pub fn words(&self, cat: Cat) -> u64 {
        self.words[cat.index()]
    }

    /// Messages counted under a category.
    pub fn messages(&self, cat: Cat) -> u64 {
        self.messages[cat.index()]
    }

    /// Payload bytes received over the wire under a category: for each
    /// completed collective, the payload bytes the transport handed this
    /// rank (0 on shared memory).
    pub fn rx_bytes(&self, cat: Cat) -> u64 {
        self.rx_bytes[cat.index()]
    }

    /// Total communication words (dense + sparse).
    pub fn comm_words(&self) -> u64 {
        self.words(Cat::DenseComm)
            + self.words(Cat::DenseComm32)
            + self.words(Cat::DenseComm16)
            + self.words(Cat::SparseComm)
    }

    /// Seconds that advanced the clock: every category except
    /// [`Cat::Overlapped`] (which meters hidden communication running
    /// concurrently with compute). Always equals `clock` exactly —
    /// the reconciliation invariant of the dual-lane model.
    pub fn busy_seconds(&self) -> f64 {
        ALL_CATS
            .iter()
            .filter(|c| **c != Cat::Overlapped)
            .map(|c| self.seconds(*c))
            .sum()
    }

    /// Elementwise-maximum reduction over per-rank reports: max clock and
    /// per-category maxima — the "slowest rank" view.
    pub fn max_over(reports: &[TimelineReport]) -> TimelineReport {
        let mut out = TimelineReport::default();
        for r in reports {
            out.clock = out.clock.max(r.clock);
            for c in ALL_CATS {
                let i = c.index();
                out.seconds[i] = out.seconds[i].max(r.seconds[i]);
                out.words[i] = out.words[i].max(r.words[i]);
                out.messages[i] = out.messages[i].max(r.messages[i]);
                out.rx_bytes[i] = out.rx_bytes[i].max(r.rx_bytes[i]);
            }
        }
        out
    }

    /// Mean over per-rank reports (per-category arithmetic means).
    pub fn mean_over(reports: &[TimelineReport]) -> TimelineReport {
        let n = reports.len().max(1) as f64;
        let mut out = TimelineReport::default();
        for r in reports {
            out.clock += r.clock / n;
            for c in ALL_CATS {
                let i = c.index();
                out.seconds[i] += r.seconds[i] / n;
                out.words[i] += r.words[i] / (n as u64).max(1);
                out.messages[i] += r.messages[i] / (n as u64).max(1);
                out.rx_bytes[i] += r.rx_bytes[i] / (n as u64).max(1);
            }
        }
        out
    }

    /// Sum over per-rank reports (aggregate traffic view).
    pub fn sum_over(reports: &[TimelineReport]) -> TimelineReport {
        let mut out = TimelineReport::default();
        for r in reports {
            out.clock += r.clock;
            for c in ALL_CATS {
                let i = c.index();
                out.seconds[i] += r.seconds[i];
                out.words[i] += r.words[i];
                out.messages[i] += r.messages[i];
                out.rx_bytes[i] += r.rx_bytes[i];
            }
        }
        out
    }
}

/// Convenience bundle of a timeline and the model that prices its charges.
#[derive(Clone, Debug)]
pub struct Meter {
    /// Cost model for pricing.
    pub model: std::sync::Arc<CostModel>,
    /// The ledger.
    pub timeline: Timeline,
}

impl Meter {
    /// New meter over a model.
    pub fn new(model: std::sync::Arc<CostModel>) -> Self {
        Meter {
            model,
            timeline: Timeline::new(),
        }
    }

    /// Charge a local SpMM (`nnz` stored entries, `rows` rows, dense
    /// operand `width` columns) under [`Cat::Spmm`].
    pub fn charge_spmm(&mut self, nnz: usize, rows: usize, width: usize) {
        let dt = self.model.spmm_time(nnz, rows, width);
        self.timeline.charge(Cat::Spmm, dt);
    }

    /// Charge a local GEMM under [`Cat::Gemm`].
    pub fn charge_gemm(&mut self, m: usize, k: usize, n: usize) {
        let dt = self.model.gemm_time(m, k, n);
        self.timeline.charge(Cat::Gemm, dt);
    }

    /// Charge a transpose of `nnz` entries under [`Cat::Transpose`].
    pub fn charge_transpose(&mut self, nnz: usize) {
        let dt = self.model.transpose_time(nnz);
        self.timeline.charge(Cat::Transpose, dt);
    }

    /// Charge elementwise work over `n` elements under [`Cat::Misc`].
    pub fn charge_elementwise(&mut self, n: usize) {
        let dt = self.model.elementwise_time(n);
        self.timeline.charge(Cat::Misc, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_clock_and_category() {
        let mut t = Timeline::new();
        t.charge(Cat::Spmm, 1.5);
        t.charge(Cat::DenseComm, 0.5);
        t.charge(Cat::Spmm, 1.0);
        assert_eq!(t.clock(), 3.0);
        assert_eq!(t.report().seconds(Cat::Spmm), 2.5);
        assert_eq!(t.report().seconds(Cat::DenseComm), 0.5);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let mut t = Timeline::new();
        t.charge(Cat::Misc, 2.0);
        t.sync_to(1.0);
        assert_eq!(t.clock(), 2.0);
        t.sync_to(5.0);
        assert_eq!(t.clock(), 5.0);
        // Wait time lands in Idle; the original Misc charge is untouched.
        assert_eq!(t.report().seconds(Cat::Misc), 2.0);
        assert_eq!(t.report().seconds(Cat::Idle), 3.0);
    }

    #[test]
    fn settle_pending_waited_at_issue_is_sync_then_charge() {
        // A collective waited on at its issue clock hides nothing: with
        // no other op in flight, the settle is sync_to + charge.
        let mut a = Timeline::new();
        a.charge(Cat::Spmm, 1.0);
        a.settle_pending(3.0, Cat::DenseComm, 0.5);
        let mut b = Timeline::new();
        b.charge(Cat::Spmm, 1.0);
        b.sync_to(3.0);
        b.charge(Cat::DenseComm, 0.5);
        assert_eq!(a.clock(), b.clock());
        assert_eq!(a.report().seconds(Cat::Idle), b.report().seconds(Cat::Idle));
        assert_eq!(
            a.report().seconds(Cat::DenseComm),
            b.report().seconds(Cat::DenseComm)
        );
    }

    #[test]
    fn settle_pending_fully_hidden_costs_nothing() {
        let mut t = Timeline::new();
        // Op became ready at 1.0; compute ran to 5.0; cost 2.0 fits
        // entirely under the compute: no clock movement, all Overlapped.
        t.charge(Cat::Spmm, 5.0);
        t.settle_pending(1.0, Cat::DenseComm, 2.0);
        assert_eq!(t.clock(), 5.0);
        assert_eq!(t.report().seconds(Cat::Overlapped), 2.0);
        assert_eq!(t.report().seconds(Cat::DenseComm), 0.0);
    }

    #[test]
    fn settle_pending_charges_uncovered_remainder() {
        let mut t = Timeline::new();
        // Ready at 1.0, compute to 3.0, cost 4.0: hidden 2.0, remainder
        // 2.0 → stage time max(compute, comm) = 5.0 from readiness.
        t.charge(Cat::Spmm, 3.0);
        t.settle_pending(1.0, Cat::DenseComm, 4.0);
        assert_eq!(t.clock(), 5.0);
        assert_eq!(t.report().seconds(Cat::Overlapped), 2.0);
        assert_eq!(t.report().seconds(Cat::DenseComm), 2.0);
    }

    #[test]
    fn settle_pending_waits_for_late_peers_as_idle() {
        let mut t = Timeline::new();
        // Peers only became ready at 4.0 (> our clock 1.0): the gap is
        // idle, the full cost is charged, nothing is hidden.
        t.charge(Cat::Spmm, 1.0);
        t.settle_pending(4.0, Cat::DenseComm, 2.0);
        assert_eq!(t.clock(), 6.0);
        assert_eq!(t.report().seconds(Cat::Idle), 3.0);
        assert_eq!(t.report().seconds(Cat::Overlapped), 0.0);
        assert_eq!(t.report().seconds(Cat::DenseComm), 2.0);
    }

    #[test]
    fn network_lane_serializes_pending_ops() {
        let mut t = Timeline::new();
        t.charge(Cat::Spmm, 10.0);
        // Two ops both ready at 0.0, cost 4.0 each: the single NIC
        // serializes them (0→4, 4→8); both fit under compute.
        t.settle_pending(0.0, Cat::DenseComm, 4.0);
        t.settle_pending(0.0, Cat::DenseComm, 4.0);
        assert_eq!(t.clock(), 10.0);
        assert_eq!(t.report().seconds(Cat::Overlapped), 8.0);
        // A third op spills past the compute cover: 8→12, 2 uncovered.
        t.settle_pending(0.0, Cat::DenseComm, 4.0);
        assert_eq!(t.clock(), 12.0);
        assert_eq!(t.report().seconds(Cat::Overlapped), 10.0);
        assert_eq!(t.report().seconds(Cat::DenseComm), 2.0);
    }

    #[test]
    fn busy_seconds_reconciles_with_clock() {
        let mut t = Timeline::new();
        t.charge(Cat::Spmm, 2.0);
        t.settle_pending(0.5, Cat::DenseComm, 3.0);
        t.settle_pending(7.0, Cat::Misc, 0.25);
        let rep = t.report();
        assert!((rep.busy_seconds() - rep.clock).abs() < 1e-12);
        assert!(rep.seconds(Cat::Overlapped) > 0.0);
    }

    #[test]
    fn traffic_recording() {
        let mut t = Timeline::new();
        t.record_traffic(Cat::SparseComm, 100);
        t.record_traffic(Cat::SparseComm, 50);
        t.record_traffic(Cat::DenseComm, 10);
        assert_eq!(t.report().words(Cat::SparseComm), 150);
        assert_eq!(t.report().messages(Cat::SparseComm), 2);
        assert_eq!(t.report().comm_words(), 160);
        // Traffic does not advance the clock.
        assert_eq!(t.clock(), 0.0);
    }

    #[test]
    fn cache_hits_meter_words_but_not_clock_or_comm_words() {
        let mut t = Timeline::new();
        t.record_traffic(Cat::CacheHit, 500);
        t.record_traffic(Cat::DenseComm, 10);
        assert_eq!(t.report().words(Cat::CacheHit), 500);
        assert_eq!(t.report().messages(Cat::CacheHit), 1);
        // Served stages cost no modeled time and stay out of the
        // dense+sparse wire total — the collapse remains visible.
        assert_eq!(t.clock(), 0.0);
        assert_eq!(t.report().comm_words(), 10);
        let rep = t.report();
        assert_eq!(rep.words(Cat::CacheHit), 500);
        assert!((rep.busy_seconds() - rep.clock).abs() < 1e-12);
    }

    #[test]
    fn received_bytes_are_reported_but_not_compared() {
        let mut t = Timeline::new();
        t.record_traffic(Cat::DenseComm, 10);
        let modeled = t.report();
        t.record_rx(Cat::DenseComm, 80);
        t.record_rx(Cat::DenseComm, 9);
        let measured = t.report();
        assert_eq!(measured.rx_bytes(Cat::DenseComm), 89);
        assert_eq!(measured.rx_bytes(Cat::SparseComm), 0);
        // Equality is the modeled ledger: the same charges on a
        // transport that moved bytes and one that moved pointers.
        assert_eq!(measured, modeled);
        assert_eq!(t.clock(), 0.0);
        // The bytes travel home with the report and reduce like words.
        let back: TimelineReport =
            crate::frame::decode(&crate::frame::encode(&measured)).expect("decode");
        assert_eq!(back.rx_bytes(Cat::DenseComm), 89);
        let sum = TimelineReport::sum_over(&[measured, back]);
        assert_eq!(sum.rx_bytes(Cat::DenseComm), 178);
        assert_eq!(
            TimelineReport::max_over(&[measured, modeled]).rx_bytes(Cat::DenseComm),
            89
        );
    }

    #[test]
    fn report_reductions() {
        let mut a = Timeline::new();
        a.charge(Cat::Spmm, 1.0);
        a.record_traffic(Cat::DenseComm, 10);
        let mut b = Timeline::new();
        b.charge(Cat::Spmm, 3.0);
        b.record_traffic(Cat::DenseComm, 30);
        let reports = [a.report(), b.report()];
        let mx = TimelineReport::max_over(&reports);
        assert_eq!(mx.clock, 3.0);
        assert_eq!(mx.words(Cat::DenseComm), 30);
        let sm = TimelineReport::sum_over(&reports);
        assert_eq!(sm.words(Cat::DenseComm), 40);
        assert_eq!(sm.seconds(Cat::Spmm), 4.0);
        let mean = TimelineReport::mean_over(&reports);
        assert!((mean.clock - 2.0).abs() < 1e-12);
    }

    #[test]
    fn meter_charges_via_model() {
        let model = std::sync::Arc::new(CostModel::summit_like());
        let mut m = Meter::new(model.clone());
        m.charge_gemm(10, 20, 30);
        let expect = model.gemm_time(10, 20, 30);
        assert!((m.timeline.report().seconds(Cat::Gemm) - expect).abs() < 1e-18);
        m.charge_spmm(100, 10, 8);
        assert!(m.timeline.report().seconds(Cat::Spmm) > 0.0);
    }
}
