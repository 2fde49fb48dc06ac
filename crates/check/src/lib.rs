//! # cagnet-check
//!
//! Verification subsystem for the simulated distributed runtime, in the
//! spirit of MPI correctness checkers like MUST but built into our own
//! simulator. Two layers:
//!
//! 1. **Checked collectives** ([`fingerprint`]): on every run, every rank
//!    publishes a fingerprint of the collective it is entering (kind,
//!    root, payload type, shape) as its deposit's only description of
//!    it; the communicator verifies all participants agree before
//!    proceeding, turning silent corruption (e.g. two ranks broadcasting
//!    with different roots) into an immediate per-rank diagnostic.
//! 2. **Deadlock detection** ([`waitgraph`]): pure analysis of a wait-for
//!    graph over blocked ranks — cycle/stall detection plus a report that
//!    dumps each rank's last-N collective history, so cross-communicator
//!    ordering bugs are caught in milliseconds instead of by CI timeout.
//!    The watchdog that feeds it runs under [`CheckMode::On`].
//!
//! Static checks are the compiler's and clippy's (DESIGN.md §12).
//!
//! This crate is dependency-free and is depended on *by* `cagnet-comm`
//! (never the reverse): the runtime feeds it plain data, it returns
//! verdicts and diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod fingerprint;
pub mod waitgraph;

pub use fingerprint::{CollectiveKind, Fingerprint, Mismatch, Shape};
pub use waitgraph::{HistoryEntry, RankPhase, RankSnapshot, SlotId, WaitSlot};

/// Whether the runtime runs the deadlock watchdog. Collective
/// fingerprints are verified on every run, in either mode. Off by
/// default; [`CheckMode::from_env`] reads the `CAGNET_CHECK` environment
/// variable so CI can run the whole test suite watched without code
/// changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// No watchdog: a deadlock (ranks calling collectives in different
    /// orders across communicators) surfaces only at the wait timeout.
    #[default]
    Off,
    /// Run the wait-for-graph watchdog, which declares a quiescent
    /// deadlock within milliseconds. Modeled costs, traces, and results
    /// are bit-identical to [`CheckMode::Off`] on correct programs.
    On,
}

impl CheckMode {
    /// True when the watchdog is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, CheckMode::On)
    }

    /// Read the mode from the `CAGNET_CHECK` environment variable:
    /// `1`, `true`, or `on` (case-insensitive) enable it.
    pub fn from_env() -> Self {
        match std::env::var("CAGNET_CHECK") {
            Ok(v) if matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on") => {
                CheckMode::On
            }
            _ => CheckMode::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert_eq!(CheckMode::default(), CheckMode::Off);
        assert!(!CheckMode::Off.is_on());
        assert!(CheckMode::On.is_on());
    }
}
