//! The α–β communication cost model and the local-kernel compute model.
//!
//! The paper analyzes every algorithm in the α–β model (§III-A): a message
//! of `n` words costs `α + β·n` seconds. Collectives are charged the
//! standard tree/pipeline formulas (Chan et al. \[11\], Thakur et al. \[28\],
//! both cited by the paper):
//!
//! * broadcast: `α·lg p + β·w`, or `α + β·w` when pipelined — the paper
//!   notes SUMMA "can avoid the lg P factor in the latency term through
//!   pipelining" (§IV-C), so the 2D/3D trainers enable the pipelined form.
//! * reduce-scatter / all-gather: `α·lg p + β·w·(p−1)/p` (the paper rounds
//!   the bandwidth term up to `β·w` "to reduce clutter").
//! * all-reduce: reduce-scatter followed by all-gather.
//!
//! The compute model charges local kernels by flop count over a sustained
//! rate. SpMM's rate additionally degrades with
//! (1) **hypersparsity**: following the paper's §VI discussion of Yang et
//! al. \[33\] — dropping the average row degree from 62 to 8 cuts sustained
//! GFlops by ≈3× for cuSPARSE `csrmm2` — modeled as a saturating
//! `d/(d + d_half)` efficiency with `d_half ≈ 26` (which reproduces the
//! 62→8 ⇒ 3× datum exactly), and
//! (2) **skinny dense operands**: 2D/3D partitioning narrows the dense
//! matrix by `√P`, hurting SpMM (§VI-a item 2); modeled as
//! `f/(f + f_half)`.

/// Communication/computation categories, matching the stacked bars of the
/// paper's Figure 3 breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cat {
    /// Local sparse × dense multiplies ("spmm").
    Spmm,
    /// Communication of dense matrices ("dcomm").
    DenseComm,
    /// Communication of sparse matrices ("scomm").
    SparseComm,
    /// Matrix transposition work ("trpose").
    Transpose,
    /// Local dense GEMM — the paper reports these under "misc" because
    /// they are inexpensive; kept separate here and merged by the Figure 3
    /// harness.
    Gemm,
    /// Everything else ("misc"): activations, loss, weight updates.
    Misc,
    /// Communication hidden behind compute by a nonblocking collective
    /// ("ovlp"): the portion of a pending op's α–β cost that the compute
    /// lane had already covered by `wait()` time. Metered for visibility
    /// only — it never advances the clock (see DESIGN.md §10).
    Overlapped,
    /// Time spent blocked in a rendezvous waiting for slower peers
    /// ("idle"): load imbalance, not any kernel. Advances the clock, so
    /// per-category seconds (excluding [`Cat::Overlapped`]) reconcile
    /// with [`crate::timeline::Timeline::clock`].
    Idle,
    /// Stage operand served from a rank-local halo cache ("cache"):
    /// meters the words the skipped gather *would* have moved and one
    /// message per served stage, but never charges seconds — a cache hit
    /// costs no modeled time, so `Σ categories == clock()` holds
    /// trivially. Populated only by cached-mode training (DESIGN.md §13);
    /// excluded from `comm_words()` so the dense-word collapse stays
    /// visible.
    CacheHit,
    /// Dense-matrix collectives carried at f32 wire precision
    /// ("dcomm32"): same traffic as [`Cat::DenseComm`] but each payload
    /// word packs two converted values, so the β term — and the metered
    /// word count — halves (DESIGN.md §14). Kept distinct from `dcomm`
    /// so compressed and full-precision traffic never blur in reports.
    DenseComm32,
    /// Dense-matrix collectives carried at software-bf16 wire precision
    /// ("dcomm16"): four converted values per payload word.
    DenseComm16,
}

/// Number of categories (array-backed accumulators are sized by this).
pub const NUM_CATS: usize = 11;

/// All categories, for iteration. New categories are appended, never
/// reordered: [`Cat`]'s wire form is its index in this array.
pub const ALL_CATS: [Cat; NUM_CATS] = [
    Cat::Spmm,
    Cat::DenseComm,
    Cat::SparseComm,
    Cat::Transpose,
    Cat::Gemm,
    Cat::Misc,
    Cat::Overlapped,
    Cat::Idle,
    Cat::CacheHit,
    Cat::DenseComm32,
    Cat::DenseComm16,
];

impl Cat {
    /// Stable index for array-backed per-category accumulators.
    pub fn index(self) -> usize {
        match self {
            Cat::Spmm => 0,
            Cat::DenseComm => 1,
            Cat::SparseComm => 2,
            Cat::Transpose => 3,
            Cat::Gemm => 4,
            Cat::Misc => 5,
            Cat::Overlapped => 6,
            Cat::Idle => 7,
            Cat::CacheHit => 8,
            Cat::DenseComm32 => 9,
            Cat::DenseComm16 => 10,
        }
    }

    /// Paper label used in Figure 3.
    pub fn label(self) -> &'static str {
        match self {
            Cat::Spmm => "spmm",
            Cat::DenseComm => "dcomm",
            Cat::SparseComm => "scomm",
            Cat::Transpose => "trpose",
            Cat::Gemm => "gemm",
            Cat::Misc => "misc",
            Cat::Overlapped => "ovlp",
            Cat::Idle => "idle",
            Cat::CacheHit => "cache",
            Cat::DenseComm32 => "dcomm32",
            Cat::DenseComm16 => "dcomm16",
        }
    }
}

/// Cost model parameters. All times in seconds, sizes in 8-byte words.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Per-message latency (seconds).
    pub alpha: f64,
    /// Per-word inverse bandwidth (seconds/word).
    pub beta: f64,
    /// Use the pipelined broadcast cost `α + β·w` instead of
    /// `α·lg p + β·w` (the SUMMA optimization the paper invokes in §IV-C).
    pub pipelined_bcast: bool,
    /// Sustained GEMM rate (flops/second).
    pub gemm_rate: f64,
    /// Peak sustained SpMM rate (flops/second) before sparsity penalties.
    pub spmm_rate: f64,
    /// Degree at which SpMM reaches half its peak rate (hypersparsity
    /// knee; 26 reproduces Yang et al.'s 62→8 ⇒ 3× slowdown).
    pub spmm_degree_half: f64,
    /// Dense-operand width at which SpMM reaches half its peak rate
    /// (skinny-matrix knee).
    pub spmm_width_half: f64,
    /// Rate for transpose/permute traffic (words/second).
    pub transpose_rate: f64,
    /// Rate for miscellaneous elementwise work (elements/second).
    pub elementwise_rate: f64,
    /// Intra-rank compute threads: the parallelized local kernels (GEMM,
    /// SpMM) are charged `flops / (threads_per_rank · rate)`. Models the
    /// per-device parallelism of the real system's GPU kernels; 1 (the
    /// default) reproduces the original serial charging exactly.
    pub threads_per_rank: usize,
}

impl CostModel {
    /// Parameters loosely calibrated to a Summit-class GPU cluster: EDR
    /// InfiniBand-ish latency and bandwidth per GPU endpoint, V100-class
    /// local kernel rates. Only *relative* magnitudes matter for the
    /// reproduction; see EXPERIMENTS.md.
    pub fn summit_like() -> Self {
        CostModel {
            alpha: 15e-6,
            beta: 8.0 / 10e9, // 10 GB/s effective per endpoint, 8-byte words
            pipelined_bcast: true,
            gemm_rate: 2.0e12,
            spmm_rate: 60.0e9,
            spmm_degree_half: 26.0,
            spmm_width_half: 8.0,
            transpose_rate: 5.0e9,
            elementwise_rate: 50.0e9,
            threads_per_rank: 1,
        }
    }

    /// Same model with an intra-rank thread budget for local compute.
    pub fn with_threads_per_rank(mut self, threads: usize) -> Self {
        self.threads_per_rank = threads.max(1);
        self
    }

    /// A latency-dominated network (slow interconnect) — used by ablation
    /// benches; the paper argues reduced-communication algorithms help
    /// *more* on slower networks (§I).
    pub fn slow_network() -> Self {
        CostModel {
            alpha: 100e-6,
            beta: 8.0 / 1e9,
            ..Self::summit_like()
        }
    }

    /// Zero-cost communication — isolates compute in ablations.
    pub fn free_network() -> Self {
        CostModel {
            alpha: 0.0,
            beta: 0.0,
            ..Self::summit_like()
        }
    }

    fn lg(p: usize) -> f64 {
        (p.max(1) as f64).log2().ceil().max(1.0)
    }

    /// Broadcast of `w` words among `p` ranks.
    pub fn bcast_time(&self, p: usize, w: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let lat = if self.pipelined_bcast {
            self.alpha
        } else {
            self.alpha * Self::lg(p)
        };
        lat + self.beta * w as f64
    }

    /// Reduce-scatter of `w` total words among `p` ranks.
    pub fn reduce_scatter_time(&self, p: usize, w: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.alpha * Self::lg(p) + self.beta * w as f64 * (p - 1) as f64 / p as f64
    }

    /// Sparsity-aware reduce-scatter among `p` ranks at a rank that
    /// receives `w` words: the dense form's latency, and only the words
    /// that reach this rank. With every part dense and the blocks
    /// balanced, `w = n·f·(p−1)/p` and this is [`Self::reduce_scatter_time`].
    pub fn sparse_reduce_scatter_time(&self, p: usize, w: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.alpha * Self::lg(p) + self.beta * w as f64
    }

    /// All-gather producing `w` total words among `p` ranks.
    pub fn allgather_time(&self, p: usize, w: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        self.alpha * Self::lg(p) + self.beta * w as f64 * (p - 1) as f64 / p as f64
    }

    /// All-reduce of `w` words among `p` ranks (reduce-scatter +
    /// all-gather).
    pub fn allreduce_time(&self, p: usize, w: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        2.0 * self.alpha * Self::lg(p) + 2.0 * self.beta * w as f64 * (p - 1) as f64 / p as f64
    }

    /// Barrier among `p` ranks.
    pub fn barrier_time(&self, p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            self.alpha * Self::lg(p)
        }
    }

    /// SpMM efficiency multiplier in `(0, 1]` for local average degree `d`
    /// and dense width `f`.
    pub fn spmm_efficiency(&self, avg_degree: f64, width: usize) -> f64 {
        let sd = avg_degree / (avg_degree + self.spmm_degree_half);
        let sf = width as f64 / (width as f64 + self.spmm_width_half);
        (sd * sf).max(1e-6)
    }

    /// Modeled time of a local SpMM: CSR with `nnz` nonzeros over `rows`
    /// rows, times a dense operand of `width` columns.
    pub fn spmm_time(&self, nnz: usize, rows: usize, width: usize) -> f64 {
        if nnz == 0 || width == 0 {
            return 0.0;
        }
        let flops = 2.0 * nnz as f64 * width as f64;
        let d = nnz as f64 / rows.max(1) as f64;
        flops / (self.compute_threads() * self.spmm_rate * self.spmm_efficiency(d, width))
    }

    /// Modeled time of a local `m x k · k x n` GEMM.
    pub fn gemm_time(&self, m: usize, k: usize, n: usize) -> f64 {
        2.0 * m as f64 * k as f64 * n as f64 / (self.compute_threads() * self.gemm_rate)
    }

    fn compute_threads(&self) -> f64 {
        self.threads_per_rank.max(1) as f64
    }

    /// Modeled time of transposing `nnz` stored entries (sparse) or
    /// elements (dense).
    pub fn transpose_time(&self, nnz: usize) -> f64 {
        nnz as f64 / self.transpose_rate
    }

    /// Modeled time of elementwise work over `n` elements (activations,
    /// Hadamard products, weight updates).
    pub fn elementwise_time(&self, n: usize) -> f64 {
        n as f64 / self.elementwise_rate
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::summit_like()
    }
}

/// Payload word counts for communication charging: one word per `f64`,
/// two words per sparse nonzero (column index + value).
pub trait CommWords {
    /// Number of 8-byte words this payload occupies on the wire.
    fn comm_words(&self) -> u64;
}

impl CommWords for f64 {
    fn comm_words(&self) -> u64 {
        1
    }
}

impl CommWords for () {
    fn comm_words(&self) -> u64 {
        0
    }
}

impl CommWords for cagnet_dense::Mat {
    fn comm_words(&self) -> u64 {
        self.len() as u64
    }
}

impl CommWords for cagnet_sparse::Csr {
    fn comm_words(&self) -> u64 {
        2 * self.nnz() as u64
    }
}

impl CommWords for crate::frame::PackedMat {
    fn comm_words(&self) -> u64 {
        self.wire_words()
    }
}

impl<T: CommWords> CommWords for Option<T> {
    fn comm_words(&self) -> u64 {
        self.as_ref().map_or(0, CommWords::comm_words)
    }
}

impl<A: CommWords, B: CommWords> CommWords for (A, B) {
    fn comm_words(&self) -> u64 {
        self.0.comm_words() + self.1.comm_words()
    }
}

impl<T: CommWords> CommWords for Vec<T> {
    fn comm_words(&self) -> u64 {
        self.iter().map(CommWords::comm_words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_pipelined_vs_tree() {
        let mut m = CostModel::summit_like();
        m.pipelined_bcast = false;
        let tree = m.bcast_time(16, 1000);
        m.pipelined_bcast = true;
        let pipe = m.bcast_time(16, 1000);
        assert!(pipe < tree);
        assert!((tree - pipe - m.alpha * 3.0).abs() < 1e-12); // lg16=4 vs 1
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let m = CostModel::summit_like();
        assert_eq!(m.bcast_time(1, 100), 0.0);
        assert_eq!(m.allreduce_time(1, 100), 0.0);
        assert_eq!(m.reduce_scatter_time(1, 100), 0.0);
        assert_eq!(m.barrier_time(1), 0.0);
    }

    #[test]
    fn allreduce_is_rs_plus_ag() {
        let m = CostModel::summit_like();
        let p = 8;
        let w = 4096;
        let combined = m.reduce_scatter_time(p, w) + m.allgather_time(p, w);
        assert!((m.allreduce_time(p, w) - combined).abs() < 1e-15);
    }

    #[test]
    fn table_ii_formulas_pinned_exactly() {
        // Direct pins of the paper's Table II α–β expressions, evaluated
        // against the closed forms with no tolerance games. `w` is always
        // the *total* vector size; callers must never pre-divide by P.
        let m = CostModel {
            alpha: 3.0,
            beta: 0.5,
            pipelined_bcast: false,
            ..CostModel::summit_like()
        };
        let lg = |p: usize| (p as f64).log2().ceil();
        for p in [2usize, 3, 4, 5, 7, 8, 16, 63] {
            for w in [1u64, 80, 4096] {
                let wf = w as f64;
                let pm1 = p as f64 - 1.0;
                // broadcast (tree): α·⌈lg P⌉ + β·w
                assert_eq!(m.bcast_time(p, w), 3.0 * lg(p) + 0.5 * wf, "bcast p={p}");
                // reduce-scatter: α·⌈lg P⌉ + β·w·(P−1)/P, associated
                // exactly as written (β·w, then ·(P−1), then /P).
                assert_eq!(
                    m.reduce_scatter_time(p, w),
                    3.0 * lg(p) + 0.5 * wf * pm1 / p as f64,
                    "rs p={p} w={w}"
                );
                // all-gather: identical form to reduce-scatter
                assert_eq!(
                    m.allgather_time(p, w),
                    3.0 * lg(p) + 0.5 * wf * pm1 / p as f64,
                    "ag p={p} w={w}"
                );
                // all-reduce = reduce-scatter + all-gather, doubled
                // term by term
                assert_eq!(
                    m.allreduce_time(p, w),
                    2.0 * 3.0 * lg(p) + 2.0 * 0.5 * wf * pm1 / p as f64,
                    "ar p={p} w={w}"
                );
            }
        }
        // Pipelined broadcast drops the ⌈lg P⌉ latency factor only.
        let pipe = CostModel {
            pipelined_bcast: true,
            ..m.clone()
        };
        assert_eq!(pipe.bcast_time(64, 1000), 3.0 + 0.5 * 1000.0);
    }

    #[test]
    fn non_power_of_two_latency_rounds_up() {
        // ⌈lg P⌉: 5 ranks need 3 communication rounds, not log2(5)≈2.32.
        let m = CostModel {
            alpha: 1.0,
            beta: 0.0,
            pipelined_bcast: false,
            ..CostModel::summit_like()
        };
        assert_eq!(m.bcast_time(5, 0), 3.0);
        assert_eq!(m.reduce_scatter_time(9, 0), 4.0);
        assert_eq!(m.barrier_time(2), 1.0);
    }

    #[test]
    fn hypersparsity_reproduces_yang_ratio() {
        // Yang et al.: degree 62 -> 8 cuts sustained rate ~3x.
        let m = CostModel::summit_like();
        let wide = 128;
        let r = m.spmm_efficiency(62.0, wide) / m.spmm_efficiency(8.0, wide);
        assert!((r - 3.0).abs() < 0.15, "ratio {r} not ≈ 3");
    }

    #[test]
    fn skinny_operand_slows_spmm() {
        let m = CostModel::summit_like();
        // Same flops, narrower dense operand => more modeled time per flop.
        let per_flop_wide = m.spmm_time(1000, 100, 64) / (2.0 * 1000.0 * 64.0);
        let per_flop_skinny = m.spmm_time(1000, 100, 2) / (2.0 * 1000.0 * 2.0);
        assert!(per_flop_skinny > 2.0 * per_flop_wide);
    }

    #[test]
    fn spmm_time_zero_cases() {
        let m = CostModel::summit_like();
        assert_eq!(m.spmm_time(0, 10, 16), 0.0);
        assert_eq!(m.spmm_time(10, 10, 0), 0.0);
    }

    #[test]
    fn comm_words_impls() {
        assert_eq!(vec![1.0f64; 7].comm_words(), 7);
        assert_eq!(().comm_words(), 0);
        assert_eq!(Some(3.0f64).comm_words(), 1);
        assert_eq!((2.0f64, vec![0.0f64; 3]).comm_words(), 4);
        let m = cagnet_dense::Mat::zeros(3, 4);
        assert_eq!(m.comm_words(), 12);
        let c = cagnet_sparse::Csr::identity(5);
        assert_eq!(c.comm_words(), 10);
    }

    #[test]
    fn threads_divide_compute_time_only() {
        let serial = CostModel::summit_like();
        let four = CostModel::summit_like().with_threads_per_rank(4);
        assert!((serial.gemm_time(64, 64, 64) / four.gemm_time(64, 64, 64) - 4.0).abs() < 1e-12);
        assert!(
            (serial.spmm_time(1000, 100, 16) / four.spmm_time(1000, 100, 16) - 4.0).abs() < 1e-12
        );
        // Communication and unparallelized local work are unaffected.
        assert_eq!(serial.bcast_time(8, 100), four.bcast_time(8, 100));
        assert_eq!(serial.transpose_time(100), four.transpose_time(100));
        assert_eq!(serial.elementwise_time(100), four.elementwise_time(100));
        // Zero is clamped like ParallelCtx does.
        assert_eq!(
            CostModel::summit_like()
                .with_threads_per_rank(0)
                .gemm_time(8, 8, 8),
            serial.gemm_time(8, 8, 8)
        );
    }

    #[test]
    fn cat_indices_unique() {
        let mut seen = [false; NUM_CATS];
        for c in ALL_CATS {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
    }
}
