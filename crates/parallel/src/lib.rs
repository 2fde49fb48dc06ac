//! Deterministic intra-rank fork-join parallelism.
//!
//! CAGNET's ranks are GPUs driving cuBLAS/cuSPARSE kernels; this
//! simulator's ranks are OS threads driving Rust kernels. A
//! [`ParallelCtx`] gives each rank a *thread budget* for its local
//! compute, mirroring the intra-device parallelism of the real system
//! while keeping the simulation's defining property: **bit-for-bit
//! deterministic results**.
//!
//! Determinism comes from the decomposition, not from synchronization:
//! work is split into contiguous chunks of *output rows*, every chunk is
//! written by exactly one worker, and each worker runs the identical
//! serial per-row code over its chunk. No worker ever accumulates into
//! another worker's rows, so there are no atomics, no reduction trees,
//! and no dependence of floating-point summation order on the thread
//! count. `threads = 1` and `threads = N` produce the same bits.
//!
//! The entry point is [`ParallelCtx::par_rows`]: hand it a flat
//! row-major output buffer and a kernel over a row range, and it splits
//! the buffer into disjoint `&mut` panels via `split_at_mut` (safe
//! Rust, no aliasing) and runs the kernel on scoped threads.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::num::NonZeroUsize;
use std::ops::Range;

/// Per-rank thread budget for local compute kernels.
///
/// Cheap to copy; plumb it by value. A budget of 1 (the default) makes
/// every kernel run serially on the calling thread with zero overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelCtx {
    threads: NonZeroUsize,
}

impl Default for ParallelCtx {
    fn default() -> Self {
        ParallelCtx::serial()
    }
}

impl ParallelCtx {
    /// A budget of `threads` (values below 1 are clamped to 1).
    pub fn new(threads: usize) -> Self {
        ParallelCtx {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The serial context: one thread, no spawning ever.
    pub fn serial() -> Self {
        ParallelCtx::new(1)
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Whether kernels will actually fork.
    pub fn is_parallel(&self) -> bool {
        self.threads.get() > 1
    }

    /// Run `kernel` over `rows` rows of a row-major buffer `out`
    /// (`rows * row_len` elements), splitting the rows into at most
    /// `threads` contiguous chunks of at least `min_rows` rows each.
    ///
    /// The kernel receives the *global* row range of its chunk and the
    /// mutable sub-slice of `out` holding exactly those rows. Chunk
    /// boundaries depend only on `(rows, threads, min_rows)` — never on
    /// timing — and each output element is written by exactly one
    /// chunk, so results are identical to `kernel(0..rows, out)` as
    /// long as the kernel computes each row independently of the chunk
    /// it lands in.
    pub fn par_rows<F>(
        &self,
        rows: usize,
        row_len: usize,
        out: &mut [f64],
        min_rows: usize,
        kernel: F,
    ) where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        assert_eq!(
            out.len(),
            rows * row_len,
            "par_rows: buffer is {} elements, expected {rows} x {row_len}",
            out.len()
        );
        if rows == 0 {
            return;
        }
        let chunks = self.chunk_count(rows, min_rows);
        if chunks <= 1 {
            kernel(0..rows, out);
            return;
        }
        let ranges = split_rows(rows, chunks);
        std::thread::scope(|scope| {
            let kernel = &kernel;
            let mut rest = out;
            let mut panels = Vec::with_capacity(ranges.len());
            for r in &ranges {
                let (panel, tail) = rest.split_at_mut((r.end - r.start) * row_len);
                rest = tail;
                panels.push(panel);
            }
            let mut iter = ranges.into_iter().zip(panels);
            // Keep one chunk for the calling thread; fork the rest.
            let Some(local) = iter.next() else {
                return; // chunks > 1 guarantees a first chunk
            };
            for (r, panel) in iter {
                scope.spawn(move || kernel(r, panel));
            }
            kernel(local.0, local.1);
        });
    }

    /// Like [`ParallelCtx::par_rows`], but with caller-chosen chunk
    /// boundaries: `ranges` must be contiguous, ascending, and cover
    /// `0..rows` exactly. This lets kernels balance chunks by *work*
    /// (e.g. CSR nonzeros per row) instead of row count while keeping
    /// the same disjoint-output-rows determinism guarantee — results
    /// never depend on the boundaries, only performance does.
    pub fn par_partitions<F>(
        &self,
        ranges: &[Range<usize>],
        row_len: usize,
        out: &mut [f64],
        kernel: F,
    ) where
        F: Fn(Range<usize>, &mut [f64]) + Sync,
    {
        let rows = ranges.last().map(|r| r.end).unwrap_or(0);
        assert_eq!(
            out.len(),
            rows * row_len,
            "par_partitions: buffer is {} elements, expected {rows} x {row_len}",
            out.len()
        );
        let mut expect = 0;
        for r in ranges {
            assert_eq!(r.start, expect, "par_partitions: ranges must tile 0..rows");
            assert!(r.end >= r.start, "par_partitions: descending range");
            expect = r.end;
        }
        if rows == 0 {
            return;
        }
        if ranges.len() <= 1 {
            kernel(0..rows, out);
            return;
        }
        std::thread::scope(|scope| {
            let kernel = &kernel;
            let mut rest = out;
            let mut panels = Vec::with_capacity(ranges.len());
            for r in ranges {
                let (panel, tail) = rest.split_at_mut((r.end - r.start) * row_len);
                rest = tail;
                panels.push(panel);
            }
            let mut iter = ranges.iter().cloned().zip(panels);
            let Some(local) = iter.next() else {
                return; // ranges.len() > 1 guarantees a first chunk
            };
            for (r, panel) in iter {
                scope.spawn(move || kernel(r, panel));
            }
            kernel(local.0, local.1);
        });
    }

    fn chunk_count(&self, rows: usize, min_rows: usize) -> usize {
        if rows == 0 {
            return 0;
        }
        let by_min = if min_rows <= 1 {
            rows
        } else {
            rows.div_ceil(min_rows)
        };
        self.threads.get().min(rows).min(by_min.max(1))
    }
}

/// Split `rows` into `chunks` contiguous balanced ranges (first
/// `rows % chunks` ranges get one extra row). Pure function of its
/// arguments — this is what makes chunking reproducible.
pub fn split_rows(rows: usize, chunks: usize) -> Vec<Range<usize>> {
    assert!(chunks >= 1 && chunks <= rows.max(1));
    let base = rows / chunks;
    let extra = rows % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rows_is_balanced_and_exhaustive() {
        for rows in [1usize, 2, 7, 64, 1000] {
            for chunks in 1..=rows.min(9) {
                let ranges = split_rows(rows, chunks);
                assert_eq!(ranges.len(), chunks);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, rows);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let max = ranges.iter().map(|r| r.len()).max().unwrap();
                let min = ranges.iter().map(|r| r.len()).min().unwrap();
                assert!(max - min <= 1, "unbalanced: {ranges:?}");
            }
        }
    }

    #[test]
    fn par_rows_covers_every_row_once() {
        for threads in [1usize, 2, 3, 8] {
            let ctx = ParallelCtx::new(threads);
            let rows = 37;
            let row_len = 5;
            let mut out = vec![0.0f64; rows * row_len];
            ctx.par_rows(rows, row_len, &mut out, 1, |range, panel| {
                assert_eq!(panel.len(), range.len() * row_len);
                for (local, global) in range.enumerate() {
                    for j in 0..row_len {
                        panel[local * row_len + j] += (global * row_len + j) as f64;
                    }
                }
            });
            let expect: Vec<f64> = (0..rows * row_len).map(|x| x as f64).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_rows_empty_is_a_noop() {
        let ctx = ParallelCtx::new(4);
        let mut out: Vec<f64> = vec![];
        ctx.par_rows(0, 7, &mut out, 1, |_r, _p| panic!("no chunks expected"));
    }

    #[test]
    fn min_rows_limits_forking() {
        // 10 rows with min_rows 8 → at most 2 chunks even with 8 threads.
        let ranges = split_rows(10, ParallelCtx::new(8).chunk_count(10, 8));
        assert_eq!(ranges.len(), 2);
    }

    #[test]
    fn clamps_zero_threads() {
        assert_eq!(ParallelCtx::new(0).threads(), 1);
        assert!(!ParallelCtx::new(0).is_parallel());
        assert!(ParallelCtx::new(2).is_parallel());
    }
}
