//! Closed-form per-epoch communication costs — the paper's §IV formulas.
//!
//! Each function returns a [`CommCost`] splitting the α–β expression into
//! a latency multiplier (the coefficient of α) and a bandwidth word count
//! (the coefficient of β), per process, per **epoch** (the paper presents
//! per-epoch totals).
//!
//! The paper's forms fetch `Hˡ` for every one of the `L` layers of every
//! epoch. Layer 0's `H⁰ = X` never changes, so the trainers fetch it once,
//! in the first pass, and serve it from then on (DESIGN.md §9): a
//! steady-state epoch pays the `H` fetch of `L − 1` layers, and the first
//! pass pays layer 0's on top. Neither does `A`: 2D and 3D broadcast each
//! `S` panel along the process row in the first forward (`Aᵀ`) and the
//! first backward (`A`) only, and keep it, so the paper's per-layer
//! `2nnz/√P` (`2nnz/P^{2/3}`) is paid once per trainer. The paper counts
//! one word per nonzero; a broadcast `Csr` meters two (index and value),
//! so the kept panels of `Aᵀ` and `A` meter `4nnz/√P` (`4nnz/P^{2/3}`).
//! Both are in [`CommCost::one_time_words`].
//!
//! The `comm_volume` bench cross-checks these closed forms against the
//! word counters *measured* from the executing implementations, and the
//! property tests in this module check internal consistency (e.g. the 2D /
//! 1D ratio approaches the paper's `5/√P` figure under the paper's own
//! assumptions).

/// Problem-shape parameters for cost evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Vertices `n`.
    pub n: f64,
    /// Nonzeros of the (normalized) adjacency, `nnz(A) = d·n`.
    pub nnz: f64,
    /// Average feature-vector length `f` across layers.
    pub f: f64,
    /// Layer count `L`.
    pub layers: f64,
}

impl Shape {
    /// Shape from integer sizes.
    pub fn new(n: usize, nnz: usize, f: usize, layers: usize) -> Self {
        Shape {
            n: n as f64,
            nnz: nnz as f64,
            f: f as f64,
            layers: layers as f64,
        }
    }

    /// Average degree `d = nnz/n`.
    pub fn avg_degree(&self) -> f64 {
        self.nnz / self.n
    }
}

/// An α–β cost: `latency_units · α + words · β` seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommCost {
    /// Coefficient of α (number of latency units).
    pub latency_units: f64,
    /// Coefficient of β (words moved per process) in a steady-state
    /// epoch.
    pub words: f64,
    /// Words per process that only a trainer's first passes pay, on top
    /// of `words`: layer 0's `H⁰` fetch (the first forward) and, in 2D
    /// and 3D, the `S` panels of `A` (the first forward and backward).
    pub one_time_words: f64,
}

impl CommCost {
    /// Evaluate under a concrete α and β.
    pub fn time(&self, alpha: f64, beta: f64) -> f64 {
        self.latency_units * alpha + self.words * beta
    }
}

fn lg(p: f64) -> f64 {
    p.max(2.0).log2()
}

/// A steady-state epoch of `L` layers that each cost `layer`, given as
/// `(latency units, words)`: layer 0's `H` fetch, `fetch`, is the first
/// pass's alone, and the `once` words of the kept `A` panels are on top.
fn epoch(s: &Shape, layer: (f64, f64), fetch: (f64, f64), once: f64) -> CommCost {
    CommCost {
        latency_units: s.layers * layer.0 - fetch.0,
        words: s.layers * layer.1 - fetch.1,
        one_time_words: fetch.1 + once,
    }
}

/// §IV-A.5: 1D block-row algorithm, general (directed) case:
/// `T = L(α·3·lg P + β(edgecut·f + n·f + f²))`, less layer 0's forward
/// broadcast of `H⁰` (`α·lg P + β·n·f`).
///
/// `edgecut` defaults to the paper's non-adversarial random-partition
/// bound `n(P−1)/P` when `None`.
pub fn one_d(s: &Shape, p: usize, edgecut: Option<f64>) -> CommCost {
    let pf = p as f64;
    let cut = edgecut.unwrap_or(s.n * (pf - 1.0) / pf);
    let layer = (3.0 * lg(pf), cut * s.f + s.n * s.f + s.f * s.f);
    epoch(s, layer, (lg(pf), s.n * s.f), 0.0)
}

/// §IV-A.6: 1D symmetric case (`A = Aᵀ` usable interchangeably):
/// `T = L(α·3·lg P + β(2·edgecut·f + f²))`, less layer 0's forward fetch
/// of the `edgecut` rows of `H⁰` (`α·lg P + β·edgecut·f`).
pub fn one_d_symmetric(s: &Shape, p: usize, edgecut: Option<f64>) -> CommCost {
    let pf = p as f64;
    let cut = edgecut.unwrap_or(s.n * (pf - 1.0) / pf);
    let layer = (3.0 * lg(pf), 2.0 * cut * s.f + s.f * s.f);
    epoch(s, layer, (lg(pf), cut * s.f), 0.0)
}

/// §IV-A.7: the transposing 1D variant — pays two transposes per epoch
/// (`α·P² + β·nnz/P` each) to run the symmetric-case bound on directed
/// inputs.
pub fn one_d_transposing(s: &Shape, p: usize, edgecut: Option<f64>) -> CommCost {
    let pf = p as f64;
    let base = one_d_symmetric(s, p, edgecut);
    CommCost {
        latency_units: base.latency_units + 2.0 * pf * pf,
        words: base.words + 2.0 * s.nnz / pf,
        ..base
    }
}

/// §IV-B (our implemented variant): 1.5D replicated block row with
/// replication factor `c` on a `p₁ x c` grid (`p₁ = P/c`):
/// per layer ≈ `β(2nf/c + 2nf/p₁ + 2f²)` with latency
/// `p₁ + lg c + lg p₁ + 2·lg P` (broadcast stages + the
/// reduce-scatter/all-gather trees), less layer 0's `p₁` forward stage
/// broadcasts of `H⁰` (`α·p₁ + β·nf/c`).
pub fn one5_d(s: &Shape, p: usize, c: usize) -> CommCost {
    assert!(c >= 1 && p.is_multiple_of(c), "c must divide P");
    let p1 = (p / c) as f64;
    let cf = c as f64;
    let pf = p as f64;
    let layer = (
        p1 + lg(cf) + lg(p1) + 2.0 * lg(pf),
        2.0 * s.n * s.f / cf + 2.0 * s.n * s.f / p1 + 2.0 * s.f * s.f,
    );
    epoch(s, layer, (p1, s.n * s.f / cf), 0.0)
}

/// §IV-C.5: 2D SUMMA on a `√P x √P` grid:
/// `T ≈ L(α(5√P + 3 lg P) + β(8nf/√P + 2nnz/√P + f²))`, less layer 0's
/// `√P` forward `H⁰` panel broadcasts (`α·√P + β·nf/√P`) and the `2√P`
/// `S` panel broadcasts of each layer (`α·2√P + β·2nnz/√P`): the panels
/// move once per trainer. The paper counts one word per nonzero, but a
/// broadcast `Csr` meters two, so `one_time_words` holds `4nnz/√P`.
pub fn two_d(s: &Shape, p: usize) -> CommCost {
    let pf = p as f64;
    let rp = pf.sqrt();
    let layer = (3.0 * rp + 3.0 * lg(pf), 8.0 * s.n * s.f / rp + s.f * s.f);
    epoch(s, layer, (rp, s.n * s.f / rp), 4.0 * s.nnz / rp)
}

/// §IV-C.6: rectangular-grid 2D forward propagation only:
/// `α·gcf(Pr,Pc) + β(nnz/Pr + nf/Pc + nf/Pr)`. One layer, as the paper
/// gives it, so no first-pass term.
pub fn two_d_rect_forward(s: &Shape, pr: usize, pc: usize) -> CommCost {
    let g = gcf(pr, pc) as f64;
    CommCost {
        latency_units: g,
        words: s.nnz / pr as f64 + s.n * s.f / pc as f64 + s.n * s.f / pr as f64,
        one_time_words: 0.0,
    }
}

/// §IV-D.5: Split-3D-SpMM on a `∛P`-sided mesh:
/// `T ≈ L(α·4·P^{1/3} + β(2nnz/P^{2/3} + 12nf/P^{2/3}))`, less layer 0's
/// `∛P` forward `H⁰` panel broadcasts (`α·∛P + β·nf/P^{2/3}`) and the
/// `2∛P` `S` panel broadcasts of each layer (`α·2∛P + β·2nnz/P^{2/3}`):
/// the panels move once per trainer. The paper counts one word per
/// nonzero, but a broadcast `Csr` meters two, so `one_time_words` holds
/// `4nnz/P^{2/3}`.
pub fn three_d(s: &Shape, p: usize) -> CommCost {
    let pf = p as f64;
    let p13 = pf.cbrt();
    let p23 = p13 * p13;
    let layer = (2.0 * p13, 12.0 * s.n * s.f / p23);
    epoch(s, layer, (p13, s.n * s.f / p23), 4.0 * s.nnz / p23)
}

/// Closed-form per-rank memory estimates (words), the counterparts of the
/// measured `dist::StorageReport` of a Dense-tier trainer after an epoch.
/// `layers` counts stored activation + pre-activation stacks (`2L + 1`
/// dense state blocks of average width `f`); the dense state also holds
/// the remote `H⁰` blocks of layer 0's forward stages, which the first
/// pass keeps so that later passes need not fetch them again.
#[derive(Clone, Copy, Debug)]
pub struct MemoryEstimate {
    /// Sparse adjacency words (2 per nonzero, pointers ignored).
    pub adjacency: f64,
    /// Persistent dense state words.
    pub dense_state: f64,
    /// Peak transient words.
    pub intermediate: f64,
}

impl MemoryEstimate {
    /// Total words.
    pub fn total(&self) -> f64 {
        self.adjacency + self.dense_state + self.intermediate
    }
}

/// The `2L + 1` stored blocks of a rank's `n·f/P` dense state.
fn stored_blocks(s: &Shape, p: f64) -> f64 {
    (2.0 * s.layers + 1.0) * s.n * s.f / p
}

/// 1D memory (§IV-A.3): state scales with `1/P` but the backward holds a
/// full-height `n x f` low-rank product, and the kept `H⁰` blocks of the
/// other `P − 1` ranks add `(P−1)/P · n·f`.
pub fn memory_one_d(s: &Shape, p: usize) -> MemoryEstimate {
    let pf = p as f64;
    MemoryEstimate {
        adjacency: 2.0 * s.nnz / pf,
        dense_state: stored_blocks(s, pf) + (pf - 1.0) / pf * s.n * s.f,
        intermediate: s.n * s.f,
    }
}

/// 1.5D memory: adjacency stays `nnz/P` nonzeros (sliced, not replicated
/// in our variant, and held once for both directions); the premium is the
/// larger of the coarse forward partial (`n/p₁ x f`) and the backward
/// contribution (`n/c x f`), which live in different passes. The kept
/// `H⁰` blocks of the other `p₁ − 1` replica-group members add
/// `(p₁−1)/P · n·f`.
pub fn memory_one5_d(s: &Shape, p: usize, c: usize) -> MemoryEstimate {
    assert!(c >= 1 && p.is_multiple_of(c), "c must divide P");
    let p1 = (p / c) as f64;
    let cf = c as f64;
    let pf = p as f64;
    MemoryEstimate {
        adjacency: 2.0 * s.nnz / pf,
        dense_state: stored_blocks(s, pf) + (p1 - 1.0) / pf * s.n * s.f,
        intermediate: (s.n / p1).max(s.n / cf) * s.f,
    }
}

/// 2D memory: the dense state and intermediates scale with `P` or `√P`.
/// The adjacency is the grid row's `S` panels of `Aᵀ` and of `A`, which
/// the first forward and backward broadcast and every rank keeps:
/// `4nnz/√P` words, `√P` times the `4nnz/P` of the rank's own blocks,
/// traded for the `2nnz/√P` per layer per epoch the paper's form
/// re-broadcasts ([`two_d`]), which counts one word per nonzero where a
/// stored or broadcast `Csr` takes two. The kept `H⁰` panels of the other `√P − 1`
/// grid rows add `(√P−1)/P · n·f`.
pub fn memory_two_d(s: &Shape, p: usize) -> MemoryEstimate {
    let pf = p as f64;
    let rp = pf.sqrt();
    MemoryEstimate {
        adjacency: 2.0 * 2.0 * s.nnz / rp, // the grid row of A and of Aᵀ
        dense_state: stored_blocks(s, pf) + (rp - 1.0) / pf * s.n * s.f,
        intermediate: s.n * s.f / rp,
    }
}

/// 3D memory (§IV-D): the pre-fiber-reduction partial is `∛P` times the
/// rank's own state block — the replication that made the paper skip the
/// implementation.
///
/// The largest intermediate is one of two buffers that never coexist:
/// the SUMMA partial sum (`n/∛P x f/∛P`, built by both passes' stage
/// loops and reduce-scattered along the fiber) and the backward's row
/// slab (`n/∛P² x f`, the all-gathered `AG` or `Hˡ` of a process row).
/// Both are `n·f/∛P²` words; the model takes the larger, not the sum.
/// The kept `H⁰` panels of the other `∛P − 1` stages of the rank's mesh
/// layer add `(∛P−1)/P · n·f`.
///
/// The adjacency is the `S` panels of the rank's process row, of `Aᵀ`
/// and of `A`, kept from the first forward and backward: `4nnz/P^{2/3}`
/// words, `∛P` times the rank's own slices, traded for the
/// `2nnz/P^{2/3}` per layer per epoch the paper's form re-broadcasts
/// ([`three_d`]), which counts one word per nonzero where a stored or
/// broadcast `Csr` takes two.
pub fn memory_three_d(s: &Shape, p: usize) -> MemoryEstimate {
    let pf = p as f64;
    let p13 = pf.cbrt();
    let partial = (s.n / p13) * (s.f / p13);
    let slab = s.n / (p13 * p13) * s.f;
    MemoryEstimate {
        adjacency: 2.0 * 2.0 * s.nnz / (p13 * p13),
        dense_state: stored_blocks(s, pf) + (p13 - 1.0) / pf * s.n * s.f,
        intermediate: partial.max(slab),
    }
}

/// Greatest common factor.
pub fn gcf(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a.max(1)
}

/// The paper's headline ratio (§IV-C.5): under random partitioning
/// (`edgecut ≈ n`), `d ≈ f` (`nnz ≈ nf`) and `f ≪ n`, the 2D algorithm
/// moves `(5/√P)×` the words of the 1D algorithm. Returns
/// `words_2d / words_1d` under exactly those assumptions.
pub fn ratio_2d_over_1d(p: usize) -> f64 {
    // 1D: edgecut·f + nf ≈ 2nf (dropping f²); 2D: 8nf/√P + 2nf/√P.
    let rp = (p as f64).sqrt();
    (10.0 / rp) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        // Amazon-like: n = 9.43M, d ≈ 24.6, f ≈ 113 (paper's stated
        // average), L = 3.
        Shape {
            n: 9.43e6,
            nnz: 231.6e6,
            f: 113.0,
            layers: 3.0,
        }
    }

    #[test]
    fn gcf_basics() {
        assert_eq!(gcf(12, 18), 6);
        assert_eq!(gcf(7, 13), 1);
        assert_eq!(gcf(0, 5), 5);
        assert_eq!(gcf(36, 6), 6);
    }

    #[test]
    fn two_d_scales_with_sqrt_p() {
        let s = shape();
        let w16 = two_d(&s, 16).words;
        let w64 = two_d(&s, 64).words;
        // 4x processes => 2x fewer words (up to the f² constant).
        let ratio = w16 / w64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn three_d_scales_with_p_two_thirds() {
        let s = shape();
        let w8 = three_d(&s, 8).words;
        let w64 = three_d(&s, 64).words;
        // 8x processes => 4x fewer words.
        let ratio = w8 / w64;
        assert!((ratio - 4.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn one_d_does_not_scale() {
        let s = shape();
        let w4 = one_d(&s, 4, None).words;
        let w64 = one_d(&s, 64, None).words;
        // 1D words are essentially flat in P.
        assert!(
            (w4 / w64 - 1.0).abs() < 0.2,
            "1D should be flat: {w4} vs {w64}"
        );
    }

    #[test]
    fn headline_ratio_matches_paper() {
        // §IV-C.5: the 2D algorithm moves (5/√P)x the 1D data. At P = 25
        // they break even exactly under the paper's assumptions.
        assert!((ratio_2d_over_1d(25) - 1.0).abs() < 1e-12);
        assert!(ratio_2d_over_1d(100) < 1.0);
        assert!(ratio_2d_over_1d(16) > 1.0);
    }

    #[test]
    fn three_d_beats_two_d_by_sixth_root() {
        let s = shape();
        // Paper §I: 3D reduces words by another O(P^{1/6}). Compare
        // dominant terms at large P (drop f² constants).
        let p = 4096;
        let w2 = two_d(&s, p).words;
        let w3 = three_d(&s, p).words;
        let expect = (p as f64).powf(1.0 / 6.0);
        let got = w2 / w3;
        // Constant factors differ (8 vs 12); allow a wide band around the
        // asymptotic ratio.
        assert!(
            got > 0.4 * expect && got < 2.5 * expect,
            "2d/3d ratio {got} vs P^(1/6) = {expect}"
        );
    }

    #[test]
    fn one5d_interpolates_1d_and_2d() {
        let s = shape();
        let p = 64;
        let w_c1 = one5_d(&s, p, 1).words;
        let w_c8 = one5_d(&s, p, 8).words;
        // More replication, fewer words.
        assert!(w_c8 < w_c1);
        // c = √P lands in the 2D regime: within a small factor of 2D.
        let w2 = two_d(&s, p).words;
        assert!(w_c8 < 2.0 * w2 && w_c8 > 0.1 * w2);
    }

    #[test]
    fn rect_grid_square_minimizes_dense_sum() {
        let s = shape();
        // Dense terms nf/pc + nf/pr minimized at pr = pc for fixed
        // product (the paper's "square has the smallest perimeter").
        let sq = two_d_rect_forward(&s, 8, 8);
        let rect = two_d_rect_forward(&s, 16, 4);
        let dense = |c: &CommCost, pr: f64| c.words - s.nnz / pr;
        assert!(dense(&sq, 8.0) < dense(&rect, 16.0));
        // But the taller grid reduces the sparse term.
        assert!(s.nnz / 16.0 < s.nnz / 8.0);
    }

    #[test]
    fn transposing_variant_adds_transpose_cost() {
        let s = shape();
        let base = one_d_symmetric(&s, 16, None);
        let tr = one_d_transposing(&s, 16, None);
        assert!(tr.latency_units > base.latency_units);
        assert!((tr.words - base.words - 2.0 * s.nnz / 16.0).abs() < 1e-6);
    }

    #[test]
    fn memory_estimates_reflect_the_papers_claims() {
        let s = shape();
        // 1D intermediate is flat in P; 2D's shrinks.
        let m1_16 = memory_one_d(&s, 16);
        let m1_64 = memory_one_d(&s, 64);
        assert_eq!(m1_16.intermediate, m1_64.intermediate);
        let m2_16 = memory_two_d(&s, 16);
        let m2_64 = memory_two_d(&s, 64);
        assert!(m2_64.intermediate < m2_16.intermediate);
        // 2D total strictly beats 1D total at scale (memory-optimal).
        assert!(m2_64.total() < m1_64.total());
        // 3D intermediate exceeds its own per-rank state by ~∛P on the
        // replicated partial.
        let m3 = memory_three_d(&s, 64);
        let state_block = s.n * s.f / 64.0;
        assert!(m3.intermediate > 3.9 * state_block);
        // 1.5D intermediate is minimized near c = √P.
        let i2 = memory_one5_d(&s, 64, 2).intermediate;
        let i8 = memory_one5_d(&s, 64, 8).intermediate;
        let i32 = memory_one5_d(&s, 64, 32).intermediate;
        assert!(i8 < i2 && i8 < i32);
    }

    #[test]
    fn first_pass_pays_the_layer_zero_fetch_once() {
        // Each form is the paper's `L` layers less layer 0's `H⁰` fetch,
        // which the first pass pays on top, and in 2D and 3D less every
        // layer's `A` panel words, which the first forward and backward
        // pay once: metered at two words per nonzero, twice the paper's
        // per-layer term.
        let s = shape();
        let (n, f, nnz, l) = (s.n, s.f, s.nnz, s.layers);
        let cut = s.n * 15.0 / 16.0;
        let cases = [
            (
                one_d(&s, 16, None),
                l * (cut * f + n * f + f * f),
                n * f,
                0.0,
            ),
            (
                one_d_symmetric(&s, 16, None),
                l * (2.0 * cut * f + f * f),
                cut * f,
                0.0,
            ),
            (
                one5_d(&s, 16, 4),
                l * (2.0 * n * f / 4.0 + 2.0 * n * f / 4.0 + 2.0 * f * f),
                n * f / 4.0,
                0.0,
            ),
            (
                two_d(&s, 16),
                l * (8.0 * n * f / 4.0 + 2.0 * nnz / 4.0 + f * f),
                n * f / 4.0,
                2.0 * nnz / 4.0,
            ),
            (
                three_d(&s, 64),
                l * (2.0 * nnz / 16.0 + 12.0 * n * f / 16.0),
                n * f / 16.0,
                2.0 * nnz / 16.0,
            ),
        ];
        for (i, (cost, paper, fetch, panels)) in cases.into_iter().enumerate() {
            let tol = 1e-9 * paper;
            assert!(
                (cost.one_time_words - fetch - 2.0 * panels).abs() < tol,
                "case {i}"
            );
            assert!(
                (cost.words + fetch + l * panels - paper).abs() < tol,
                "case {i}"
            );
        }
        let t = one_d_transposing(&s, 16, None);
        assert_eq!(
            t.one_time_words,
            one_d_symmetric(&s, 16, None).one_time_words
        );
    }

    #[test]
    fn cost_time_combines_terms() {
        let c = CommCost {
            latency_units: 10.0,
            words: 1000.0,
            one_time_words: 0.0,
        };
        assert!((c.time(1e-6, 1e-9) - (1e-5 + 1e-6)).abs() < 1e-18);
    }
}
