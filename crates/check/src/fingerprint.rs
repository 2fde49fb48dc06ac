//! Collective fingerprints: what each rank claims it is doing at a
//! rendezvous, and the matching rules that decide whether the
//! participants agree.
//!
//! A fingerprint rides along with the payload deposit, so verification
//! needs no extra synchronization: once the rendezvous is full, every
//! rank sees all fingerprints and checks them against its own. The rules
//! are collective-specific — an all-reduce must agree on the matrix
//! shape, an all-gather legitimately mixes contribution sizes, a
//! send/recv pair must name each other.

use std::fmt;

/// The collective a rank is entering. One variant per collective of the
/// communicator — a blocking name and the split-phase form it waits on
/// are one collective — plus [`CollectiveKind::Split`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// `barrier()`.
    Barrier,
    /// `ibcast_shared(root, data, cat)`, and `bcast` / `bcast_shared`.
    Bcast,
    /// `allgather(data, cat)`.
    Allgather,
    /// `iallreduce_mat(m, cat)`, and `allreduce_mat`.
    AllreduceMat,
    /// `allreduce_scalar(x, cat)`.
    AllreduceScalar,
    /// `reduce_scatter_rows(m, cat)`.
    ReduceScatterRows,
    /// `alltoall(parts, cat)`.
    Alltoall,
    /// `gather(root, data, cat)`.
    Gather,
    /// `scatter(root, parts, cat)`.
    Scatter,
    /// `sendrecv(partner, outgoing, cat)`.
    Sendrecv,
    /// `igather_rows(root, data, needed, expect, cat)`, and
    /// `gather_rows` — the sparsity-aware variable-sized row exchange.
    GatherRows,
    /// `split(color)`.
    Split,
    /// `igather_rows_refresh(...)` — the cached-mode refresh-epoch
    /// variant of [`CollectiveKind::GatherRows`]. A distinct kind so a
    /// rank serving stale cache while a peer refreshes is a fingerprint
    /// mismatch, not a silent divergence.
    GatherRowsRefresh,
}

impl CollectiveKind {
    /// Short label used in diagnostics and histories.
    pub fn label(self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Bcast => "bcast",
            CollectiveKind::Allgather => "allgather",
            CollectiveKind::AllreduceMat => "allreduce_mat",
            CollectiveKind::AllreduceScalar => "allreduce_scalar",
            CollectiveKind::ReduceScatterRows => "reduce_scatter_rows",
            CollectiveKind::Alltoall => "alltoall",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Sendrecv => "sendrecv",
            CollectiveKind::GatherRows => "gather_rows",
            CollectiveKind::Split => "split",
            CollectiveKind::GatherRowsRefresh => "gather_rows_refresh",
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Payload geometry a rank declares for a collective. `Unknown` is a
/// wildcard: ranks that cannot know the geometry (a non-root in a
/// broadcast, contributors to a variable-size all-gather) declare it and
/// are exempt from the shape comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Geometry unknown to this rank, or legitimately rank-dependent.
    Unknown,
    /// Total wire words of the payload.
    Words(u64),
    /// Dense matrix dimensions (rows, cols).
    Dims(usize, usize),
    /// Element count (e.g. parts in a scatter/all-to-all).
    Count(usize),
}

impl Shape {
    /// Two declared shapes agree when either is a wildcard or both are
    /// identical.
    pub fn compatible(self, other: Shape) -> bool {
        matches!(self, Shape::Unknown) || matches!(other, Shape::Unknown) || self == other
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Unknown => write!(f, "?"),
            Shape::Words(w) => write!(f, "{w} words"),
            Shape::Dims(r, c) => write!(f, "{r}x{c}"),
            Shape::Count(n) => write!(f, "{n} parts"),
        }
    }
}

/// What one rank claims about the collective it is entering. Roots and
/// partners are **world** ranks so diagnostics across sub-communicators
/// name globally meaningful ids.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    /// Which collective.
    pub kind: CollectiveKind,
    /// Root (world rank) for rooted collectives.
    pub root: Option<usize>,
    /// Send/recv partner (world rank); `None` for bystanders.
    pub partner: Option<usize>,
    /// `std::any::type_name` of the payload element type.
    pub dtype: &'static str,
    /// Declared payload geometry.
    pub shape: Shape,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.kind)?;
        let mut sep = "";
        if let Some(r) = self.root {
            write!(f, "root=rank {r}")?;
            sep = ", ";
        }
        if let Some(p) = self.partner {
            write!(f, "{sep}partner=rank {p}")?;
            sep = ", ";
        }
        write!(
            f,
            "{sep}shape={}, dtype={})",
            self.shape,
            short_type(self.dtype)
        )
    }
}

/// Trim a `std::any::type_name` to its final path segments for readable
/// diagnostics (`alloc::vec::Vec<f64>` → `Vec<f64>`).
fn short_type(full: &str) -> String {
    // Drop module paths segment by segment, but keep generic arguments:
    // split on '<' first so we only strip paths outside/inside brackets.
    let mut out = String::with_capacity(full.len());
    let mut segment = String::new();
    for ch in full.chars() {
        match ch {
            ':' => segment.clear(),
            '<' | '>' | ',' | ' ' | '(' | ')' | '[' | ']' | ';' | '&' => {
                out.push_str(&segment);
                segment.clear();
                out.push(ch);
            }
            _ => segment.push(ch),
        }
    }
    out.push_str(&segment);
    out
}

/// A verification failure: which world ranks deviate from the consensus,
/// and a rendered diagnostic listing every participant's claim.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// World ranks whose fingerprints deviate from the majority view.
    pub offenders: Vec<usize>,
    /// Human-readable diagnostic naming each rank and its collective.
    pub message: String,
}

/// Verify that all participants of one rendezvous agree. `participants`
/// pairs each member's **world rank** with its fingerprint, in member
/// order. Returns `Ok(())` when the collective is consistent.
pub fn verify(participants: &[(usize, Fingerprint)]) -> Result<(), Mismatch> {
    if participants.len() <= 1 {
        return Ok(());
    }
    let mut offenders: Vec<usize> = Vec::new();

    // Majority signature over (kind, root, dtype): each rank votes; the
    // most common signature (lowest-rank tiebreak) is the reference.
    type Signature = (CollectiveKind, Option<usize>, &'static str);
    let signature = |fp: &Fingerprint| -> Signature { (fp.kind, fp.root, fp.dtype) };
    let mut best: Option<(Signature, usize)> = None;
    for (_, fp) in participants {
        let sig = signature(fp);
        let count = participants
            .iter()
            .filter(|(_, other)| signature(other) == sig)
            .count();
        let better = match &best {
            None => true,
            Some((_, best_count)) => count > *best_count,
        };
        if better {
            best = Some((sig, count));
        }
    }
    let Some((ref_sig, _)) = best else {
        return Ok(());
    };
    for (rank, fp) in participants {
        if signature(fp) != ref_sig {
            offenders.push(*rank);
        }
    }

    // Shape consensus among ranks that declared one (wildcards exempt).
    let known: Vec<(usize, Shape)> = participants
        .iter()
        .filter(|(_, fp)| fp.shape != Shape::Unknown)
        .map(|(r, fp)| (*r, fp.shape))
        .collect();
    if let Some((_, ref_shape)) = known.first() {
        let majority = known
            .iter()
            .map(|(_, s)| *s)
            .max_by_key(|s| known.iter().filter(|(_, o)| o == s).count())
            .unwrap_or(*ref_shape);
        for (rank, shape) in &known {
            if !shape.compatible(majority) && !offenders.contains(rank) {
                offenders.push(*rank);
            }
        }
    }

    // Send/recv reciprocity: my partner must name me back.
    for (rank, fp) in participants {
        if fp.kind != CollectiveKind::Sendrecv {
            continue;
        }
        let Some(partner) = fp.partner else { continue };
        let reciprocal = participants
            .iter()
            .find(|(r, _)| *r == partner)
            .is_some_and(|(_, pfp)| pfp.partner == Some(*rank));
        if (partner == *rank || !reciprocal) && !offenders.contains(rank) {
            offenders.push(*rank);
        }
    }

    if offenders.is_empty() {
        return Ok(());
    }
    offenders.sort_unstable();
    let mut message = String::from("collective fingerprint mismatch:\n");
    for (rank, fp) in participants {
        let marker = if offenders.contains(rank) {
            "  !! "
        } else {
            "     "
        };
        message.push_str(&format!("{marker}rank {rank} called {fp}\n"));
    }
    message.push_str(&format!(
        "  offending rank(s): {}",
        offenders
            .iter()
            .map(|r| format!("rank {r}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Err(Mismatch { offenders, message })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(kind: CollectiveKind, root: Option<usize>, shape: Shape) -> Fingerprint {
        Fingerprint {
            kind,
            root,
            partner: None,
            dtype: "f64",
            shape,
        }
    }

    #[test]
    fn matching_collective_passes() {
        let parts = vec![
            (0, fp(CollectiveKind::AllreduceMat, None, Shape::Dims(4, 2))),
            (1, fp(CollectiveKind::AllreduceMat, None, Shape::Dims(4, 2))),
        ];
        assert!(verify(&parts).is_ok());
    }

    #[test]
    fn root_mismatch_names_minority() {
        let parts = vec![
            (0, fp(CollectiveKind::Bcast, Some(0), Shape::Words(10))),
            (1, fp(CollectiveKind::Bcast, Some(0), Shape::Unknown)),
            (2, fp(CollectiveKind::Bcast, Some(2), Shape::Words(10))),
        ];
        let err = verify(&parts).unwrap_err();
        assert_eq!(err.offenders, vec![2]);
        assert!(err.message.contains("rank 2"));
        assert!(err.message.contains("bcast"));
    }

    #[test]
    fn kind_mismatch_detected() {
        let parts = vec![
            (0, fp(CollectiveKind::Barrier, None, Shape::Words(0))),
            (1, fp(CollectiveKind::Barrier, None, Shape::Words(0))),
            (3, fp(CollectiveKind::Allgather, None, Shape::Unknown)),
        ];
        let err = verify(&parts).unwrap_err();
        assert_eq!(err.offenders, vec![3]);
        assert!(err.message.contains("allgather"));
    }

    #[test]
    fn shape_mismatch_detected() {
        let parts = vec![
            (0, fp(CollectiveKind::AllreduceMat, None, Shape::Dims(2, 3))),
            (1, fp(CollectiveKind::AllreduceMat, None, Shape::Dims(3, 2))),
            (2, fp(CollectiveKind::AllreduceMat, None, Shape::Dims(2, 3))),
        ];
        let err = verify(&parts).unwrap_err();
        assert_eq!(err.offenders, vec![1]);
        assert!(err.message.contains("3x2"));
    }

    #[test]
    fn wildcard_shapes_are_exempt() {
        let parts = vec![
            (0, fp(CollectiveKind::Bcast, Some(0), Shape::Words(64))),
            (1, fp(CollectiveKind::Bcast, Some(0), Shape::Unknown)),
        ];
        assert!(verify(&parts).is_ok());
    }

    #[test]
    fn sendrecv_reciprocity_enforced() {
        let sr = |partner: Option<usize>| Fingerprint {
            kind: CollectiveKind::Sendrecv,
            root: None,
            partner,
            dtype: "f64",
            shape: Shape::Unknown,
        };
        // 0 names 1, 1 names 0: fine; 2 and 3 sit out.
        let ok = vec![
            (0, sr(Some(1))),
            (1, sr(Some(0))),
            (2, sr(None)),
            (3, sr(None)),
        ];
        assert!(verify(&ok).is_ok());
        // 0 names 1, but 1 names 3.
        let bad = vec![(0, sr(Some(1))), (1, sr(Some(3))), (3, sr(None))];
        let err = verify(&bad).unwrap_err();
        assert!(err.offenders.contains(&0) || err.offenders.contains(&1));
    }

    #[test]
    fn single_participant_trivially_ok() {
        let parts = vec![(0, fp(CollectiveKind::Barrier, None, Shape::Words(0)))];
        assert!(verify(&parts).is_ok());
    }

    #[test]
    fn short_type_trims_paths() {
        assert_eq!(short_type("alloc::vec::Vec<f64>"), "Vec<f64>");
        assert_eq!(short_type("f64"), "f64");
        assert_eq!(short_type("cagnet_dense::matrix::Mat"), "Mat".to_string());
    }
}
