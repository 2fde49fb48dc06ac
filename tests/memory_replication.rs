//! Per-rank memory footprints — the paper's replication arguments made
//! measurable: 2D is memory-optimal (§I), the 1D backward holds an O(nf)
//! intermediate regardless of P (§IV-A.3), 1.5D replicates `A` by `c`
//! (§IV-B), and 3D replicates intermediates by ∛P (§IV-D, the paper's
//! stated reason for not implementing it). Every footprint is the
//! measured one — the sparse blocks a rank holds, its stored dense
//! blocks and the largest workspace buffer it was served — read after an
//! epoch, so the backward's buffers count.

use cagnet::comm::Cluster;
use cagnet::core::dist::{
    one5d::One5DTrainer, onedim::OneDimTrainer, threedim::ThreeDimTrainer, twodim::TwoDimTrainer,
    StorageReport,
};
use cagnet::core::trainer::TwoDimConfig;
use cagnet::core::{GcnConfig, Problem};
use cagnet::sparse::generate::{rmat_symmetric, RmatParams};

const F: usize = 32;

fn problem() -> Problem {
    let g = rmat_symmetric(10, 8, RmatParams::default(), 81); // 1024 vertices
    Problem::synthetic(&g, F, F, 1.0, 82)
}

fn gcn() -> GcnConfig {
    GcnConfig {
        dims: vec![F, F, F],
        lr: 0.01,
        seed: 8,
    }
}

fn storage_1d(p: usize) -> Vec<StorageReport> {
    let prob = problem();
    Cluster::new(p)
        .run(|ctx| {
            let mut t = OneDimTrainer::setup(ctx, &prob, &gcn());
            t.epoch(ctx);
            t.storage_words()
        })
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

#[test]
fn one_d_intermediate_does_not_shrink_with_p() {
    let s4 = storage_1d(4);
    let s16 = storage_1d(16);
    let n = problem().vertices();
    for s in s4.iter().chain(&s16) {
        assert_eq!(
            s.intermediate,
            n * F,
            "1D outer-product intermediate must be n x f"
        );
    }
    // While the per-rank state does shrink.
    assert!(s16[0].dense_state < s4[0].dense_state);
}

#[test]
fn one_d_intermediate_at_paper_widths() {
    // Reddit-like widths [602, 16, 16, 41]: the largest buffer is the
    // forward stage accumulator (n/P x 602) while it outweighs the
    // backward outer product (n x f_out, whatever P), and the outer
    // product once P is large enough.
    let g = rmat_symmetric(10, 8, RmatParams::default(), 81);
    let dims = vec![602, 16, 16, 41];
    let prob = Problem::synthetic(&g, dims[0], dims[3], 1.0, 82);
    let cfg = GcnConfig { dims, ..gcn() };
    let n = prob.vertices();
    for (p, expect) in [(2, (n / 2) * 602), (16, n * 41)] {
        let reports = Cluster::new(p).run(|ctx| {
            let mut t = OneDimTrainer::setup(ctx, &prob, &cfg);
            t.epoch(ctx);
            t.storage_words().intermediate
        });
        for (i, _) in reports {
            assert_eq!(i, expect, "1D intermediate at P = {p}");
        }
    }
}

#[test]
fn two_d_memory_scales_with_p() {
    let prob = problem();
    let run = |p: usize| -> StorageReport {
        Cluster::new(p)
            .run(|ctx| {
                let mut t = TwoDimTrainer::setup(ctx, &prob, &gcn(), TwoDimConfig::default());
                t.epoch(ctx);
                t.storage_words()
            })
            .into_iter()
            .map(|(r, _)| r)
            .fold(StorageReport::default(), |acc, r| StorageReport {
                adjacency: acc.adjacency.max(r.adjacency),
                dense_state: acc.dense_state.max(r.dense_state),
                intermediate: acc.intermediate.max(r.intermediate),
            })
    };
    let s4 = run(4);
    let s16 = run(16);
    let s64 = run(64);
    // Every component shrinks as P grows (memory-optimal, §I).
    assert!(s16.total() < s4.total(), "{s4:?} -> {s16:?}");
    assert!(s64.total() < s16.total(), "{s16:?} -> {s64:?}");
    // Intermediates scale ~1/√P (row slabs).
    let ratio = s4.intermediate as f64 / s16.intermediate as f64;
    assert!((1.5..3.0).contains(&ratio), "2D intermediate ratio {ratio}");
}

#[test]
fn grid_intermediate_is_the_widest_row_gathered_slab() {
    // What crosses a process row is bounded by the narrow side of each
    // layer (`gather_h` in `dist/grid.rs`): on an Amazon-like
    // [300, 16, 16, 24] nothing gathered is wider than 24 columns. That
    // rule does not bound the SUMMA partial a rank holds, though: the
    // layer-0 forward partial is n/2 rows x 300/2 columns, so the largest
    // buffer is rows x 150. A hidden layer widening 8 → 40 gathers `H¹`
    // at 8, but its forward partial is rows x 40/2 = rows x 20. Uniform
    // widths keep rows x f.
    let g = rmat_symmetric(10, 8, RmatParams::default(), 81);
    for (dims, widest) in [
        (vec![300, 16, 16, 24], 150),
        (vec![16, 8, 40, 12], 20),
        (vec![F, F, F], F),
    ] {
        let prob = Problem::synthetic(&g, dims[0], dims[dims.len() - 1], 1.0, 82);
        let cfg = GcnConfig { dims, ..gcn() };
        let reports = Cluster::new(4).run(|ctx| {
            let mut t = TwoDimTrainer::setup(ctx, &prob, &cfg, TwoDimConfig::default());
            t.epoch(ctx);
            (t.storage_words(), prob.vertices() / 2)
        });
        for ((s, rows), _) in reports {
            assert_eq!(s.intermediate, rows * widest, "{:?}", cfg.dims);
        }
    }
}

#[test]
fn one5_d_memory_lives_in_partial_sums_not_adjacency() {
    // Our 1.5D variant stores only the A column slices each replica
    // actually multiplies, so per-rank adjacency stays ~nnz/P for every
    // c; the §IV-B memory cost shows up as the forward partial sum
    // (coarse_rows x f = c fine state blocks) and the backward
    // outer-product contribution (n/c x f) instead.
    let prob = problem();
    let n = prob.vertices();
    let run = |c: usize| -> StorageReport {
        Cluster::new(16)
            .run(|ctx| {
                let mut t = One5DTrainer::setup(ctx, &prob, &gcn(), c);
                t.epoch(ctx);
                t.storage_words()
            })
            .into_iter()
            .map(|(r, _)| r)
            .fold(StorageReport::default(), |acc, r| StorageReport {
                adjacency: acc.adjacency.max(r.adjacency),
                dense_state: acc.dense_state.max(r.dense_state),
                intermediate: acc.intermediate.max(r.intermediate),
            })
    };
    let s1 = run(1);
    let s4 = run(4);
    let s16 = run(16);
    // Adjacency storage is flat in c (sliced, not replicated).
    let adj_ratio = s4.adjacency as f64 / s1.adjacency as f64;
    assert!(
        (0.8..1.3).contains(&adj_ratio),
        "adjacency should not replicate: {adj_ratio}"
    );
    // c = 1 degenerates to the 1D outer product: intermediate ≈ n·f.
    assert!(
        s1.intermediate >= n * F,
        "c=1 must pay the 1D-style full-height contribution"
    );
    // Larger c shrinks the backward contribution (n/c rows)...
    assert!(s4.intermediate < s1.intermediate);
    // ...but the forward partial (coarse block, n/p1 rows) grows again as
    // p1 = P/c shrinks: c = P is worse than the balanced c = √P.
    assert!(
        s16.intermediate > s4.intermediate,
        "c=P should inflate the coarse partial: {} vs {}",
        s16.intermediate,
        s4.intermediate
    );
}

#[test]
fn dense_state_grows_linearly_with_depth() {
    // §VII: "the memory costs become O(nfL), which is prohibitive for
    // deep networks" — stored activations + pre-activations scale with
    // the layer count.
    let prob = problem();
    let run = |layers: usize| -> usize {
        let cfg = GcnConfig {
            dims: vec![F; layers + 1],
            lr: 0.01,
            seed: 8,
        };
        Cluster::new(4)
            .run(|ctx| {
                let mut t = OneDimTrainer::setup(ctx, &prob, &cfg);
                t.epoch(ctx);
                t.storage_words().dense_state
            })
            .into_iter()
            .map(|(r, _)| r)
            .max()
            .unwrap()
    };
    let d2 = run(2);
    let d4 = run(4);
    let d8 = run(8);
    // dense_state ≈ (2L + 1) state blocks: ratios ~ (2·4+1)/(2·2+1) etc.
    let r1 = d4 as f64 / d2 as f64;
    let r2 = d8 as f64 / d4 as f64;
    assert!((1.6..2.0).contains(&r1), "L 2->4 ratio {r1}");
    assert!((1.7..2.1).contains(&r2), "L 4->8 ratio {r2}");
}

#[test]
fn three_d_intermediate_replicates_by_cube_root_p() {
    let prob = problem();
    let run = |p: usize| -> (usize, usize) {
        Cluster::new(p)
            .run(|ctx| {
                let mut t = ThreeDimTrainer::setup(ctx, &prob, &gcn());
                t.epoch(ctx);
                let s = t.storage_words();
                (s.intermediate, s.dense_state)
            })
            .into_iter()
            .map(|(r, _)| r)
            .max()
            .unwrap()
    };
    let (i8, d8) = run(8);
    // q = 2: the pre-reduction partial holds n/q rows where the rank's
    // own state holds n/q² — a q-fold blow-up on the dominant buffer.
    // dense_state includes all layers' stored blocks, so compare against
    // a single state block at its real shape, n/q² x f/q:
    let n = prob.vertices();
    let q = 2;
    let single_block = (n / (q * q)) * (F / q);
    assert!(
        i8 >= q * single_block,
        "3D partial ({i8}) should be ≥ q x a state block ({single_block})"
    );
    let _ = d8;
    // And it still shrinks with P overall (P^{2/3} in the denominator).
    let (i64, _) = run(64);
    assert!(
        i64 < i8,
        "3D intermediate should shrink with P: {i8} -> {i64}"
    );
}
