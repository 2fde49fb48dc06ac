//! Layer 0's input features move once (DESIGN.md §9).
//!
//! `H⁰ = X` never changes, so the first pass fetches layer 0's forward
//! stage operands through the tier's collective and every later pass
//! serves them with no collective, metering the skipped words under
//! `Cat::CacheHit`. Per rank, on 1D, 1.5D, 2D and 3D under each tier and
//! with overlap on and off, a steady epoch meters exactly the first
//! epoch's words less the closed-form layer-0 fetch, and its `CacheHit`
//! words are that difference. `set_comm_mode` drops the kept operands:
//! the next pass fetches them again, and training stays bit-identical to
//! a trainer that never dropped them. 1D-row's forward is an outer
//! product with no stage fetch, and its backward stages reuse the forward
//! slot numbers, so it must move the same words every epoch.

mod common;

use cagnet::comm::{Cat, Cluster, Ctx, Precision, TimelineReport};
use cagnet::core::trainer::Algorithm;
use cagnet::core::{CommMode, GcnConfig, Problem};
use cagnet::dense::Mat;
use cagnet::sparse::generate::erdos_renyi;
use cagnet::sparse::partition::{block_range, block_ranges};
use common::{AnyTrainer, Setup};

/// Input width, odd so the grid's column blocks differ.
const F0: usize = 7;

fn problem() -> (Problem, GcnConfig) {
    let problem = Problem::synthetic(&erdos_renyi(60, 3.0, 0x1F), F0, 4, 0.8, 0x20);
    (problem, GcnConfig::three_layer(F0, 6, 4))
}

/// Dense, the sparse tier, and the cached one at `refresh: 2`, whose
/// epochs 1 and 3 both refresh the halo cache.
const MODES: [CommMode; 3] = [
    CommMode::Dense,
    CommMode::SparsityAware,
    CommMode::Cached { refresh: 2 },
];

const GEOMETRIES: [(Algorithm, usize); 6] = [
    (Algorithm::OneD, 3),
    (Algorithm::OneDRow, 3),
    (Algorithm::One5D { c: 2 }, 4),
    (Algorithm::TwoD, 4),
    (Algorithm::TwoD, 9),
    (Algorithm::ThreeD, 8),
];

/// One stage of layer 0's forward SpMM at a rank: the global columns of
/// `Aᵀ` it spans (the rows of the `D` block), the rank's block rows of
/// `Aᵀ`, the block's width, and whether the rank is the block's root.
struct InputStage {
    span: (usize, usize),
    rows: (usize, usize),
    width: usize,
    root: bool,
}

/// Layer 0's forward stages at `rank`, from the trainers' block
/// partitions; empty where the fetching group has one member (nothing
/// moves) and in 1D-row, whose forward fetches nothing.
fn input_stages(n: usize, algo: Algorithm, p: usize, rank: usize) -> Vec<InputStage> {
    let stage = |span, rows, width, root| InputStage {
        span,
        rows,
        width,
        root,
    };
    match algo {
        Algorithm::OneD => (block_ranges(n, p).into_iter().enumerate())
            .map(|(j, span)| stage(span, block_range(n, p, rank), F0, j == rank))
            .collect(),
        Algorithm::One5D { c } => {
            let (p1, fine) = (p / c, block_ranges(n, p));
            let (t, r) = (rank / c, rank % c);
            let coarse = (fine[t * c].0, fine[(t + 1) * c - 1].1);
            (0..p1)
                .filter(|_| p1 > 1)
                .map(|i| stage(fine[i * c + r], coarse, F0, i == t))
                .collect()
        }
        Algorithm::TwoD => {
            let q = (1..=p).find(|q| q * q == p).unwrap();
            let (i, j) = (rank / q, rank % q);
            let width = block_range(F0, q, j);
            (block_ranges(n, q).into_iter().enumerate())
                .map(|(k, span)| stage(span, block_range(n, q, i), width.1 - width.0, k == i))
                .collect()
        }
        Algorithm::ThreeD => {
            let q = (1..=p).find(|q| q * q * q == p).unwrap();
            let (k, i, j) = (rank / (q * q), rank % (q * q) / q, rank % q);
            let width = block_range(F0, q, j);
            (0..q)
                .map(|s| {
                    let (c0, c1) = block_range(n, q, s);
                    let (s0, s1) = block_range(c1 - c0, q, k);
                    let span = (c0 + s0, c0 + s1);
                    stage(span, block_range(n, q, i), width.1 - width.0, s == i)
                })
                .collect()
        }
        _ => Vec::new(),
    }
}

/// Closed-form `DenseComm` words of layer 0's forward fetch at `rank`:
/// under `Dense` every member of a broadcast meters the whole block; in
/// the sparse tiers a receiver meters its needed rows and their indices,
/// and the root nothing.
fn input_fetch_words(
    problem: &Problem,
    algo: Algorithm,
    p: usize,
    mode: CommMode,
    rank: usize,
) -> u64 {
    input_stages(problem.vertices(), algo, p, rank)
        .iter()
        .map(|st| {
            let (g0, g1) = st.span;
            if mode == CommMode::Dense {
                ((g1 - g0) * st.width) as u64
            } else if st.root {
                0
            } else {
                let (r0, r1) = st.rows;
                let k = problem.adj_t.block(r0, r1, g0, g1).needed_cols().len();
                (k * (st.width + 1)) as u64
            }
        })
        .sum()
}

fn run<T: Send>(
    algo: Algorithm,
    p: usize,
    mode: CommMode,
    overlap: bool,
    body: impl Fn(&Ctx, &mut AnyTrainer) -> T + Sync,
) -> Vec<T> {
    run_at(algo, p, mode, overlap, Precision::F64, body)
}

/// [`run`] at a wire precision.
fn run_at<T: Send>(
    algo: Algorithm,
    p: usize,
    mode: CommMode,
    overlap: bool,
    precision: Precision,
    body: impl Fn(&Ctx, &mut AnyTrainer) -> T + Sync,
) -> Vec<T> {
    let (problem, gcn) = problem();
    Cluster::new(p)
        .with_precision(precision)
        .run(|ctx| {
            let mut t = AnyTrainer::setup(ctx, algo, &problem, &gcn);
            t.set_comm_mode(mode);
            t.set_overlap(overlap);
            body(ctx, &mut t)
        })
        .into_iter()
        .map(|(out, _)| out)
        .collect()
}

/// `(DenseComm words, CacheHit words)` this rank metered during `f`.
fn metered(ctx: &Ctx, f: impl FnOnce()) -> (u64, u64) {
    let words = |r: &TimelineReport| (r.words(Cat::DenseComm), r.words(Cat::CacheHit));
    let before = words(&ctx.report());
    f();
    let after = words(&ctx.report());
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn later_epochs_skip_exactly_the_layer_zero_fetch() {
    let (problem, _) = problem();
    for (algo, p) in GEOMETRIES {
        for mode in MODES {
            for overlap in [true, false] {
                let per_rank = run(algo, p, mode, overlap, |ctx, t| {
                    let first = metered(ctx, || {
                        t.epoch(ctx);
                    });
                    let _ = metered(ctx, || {
                        t.epoch(ctx);
                    });
                    let third = metered(ctx, || {
                        t.epoch(ctx);
                    });
                    (first, third)
                });
                for (rank, (first, third)) in per_rank.into_iter().enumerate() {
                    let case = format!(
                        "{} P={p} {mode:?} overlap={overlap} rank {rank}",
                        algo.name()
                    );
                    let want = input_fetch_words(&problem, algo, p, mode, rank);
                    assert_eq!(first.1, 0, "{case}: the first epoch serves nothing");
                    assert_eq!(first.0 - third.0, want, "{case}: layer-0 fetch words");
                    assert_eq!(third.1, want, "{case}: CacheHit words");
                    if algo != Algorithm::OneDRow && p > 1 {
                        assert!(want > 0, "{case}: the layer-0 fetch moves words");
                    }
                }
            }
        }
    }
}

#[test]
fn set_comm_mode_fetches_again_and_training_stays_bit_identical() {
    // Under a narrow wire precision too: a packed broadcast's root
    // multiplies the rounded block, so a served root must round its own.
    let (problem, _) = problem();
    for (algo, p) in GEOMETRIES {
        for mode in MODES {
            for precision in [Precision::F64, Precision::Bf16] {
                // Epoch 3 refreshes the Cached{2} halo cache either way, so
                // only the kept inputs differ between the two trainers.
                let train = |reset: bool| {
                    run_at(algo, p, mode, true, precision, |ctx, t| {
                        let mut losses = vec![t.epoch(ctx), t.epoch(ctx)];
                        if reset {
                            t.set_comm_mode(mode);
                        }
                        let (words, _) = metered(ctx, || losses.push(t.epoch(ctx)));
                        losses.push(t.epoch(ctx));
                        (losses, t.accuracy(ctx), t.weights().to_vec(), words)
                    })
                };
                let (reset, kept) = (train(true), train(false));
                for (rank, (a, b)) in reset.iter().zip(&kept).enumerate() {
                    let case = format!("{} P={p} {mode:?} {precision:?} rank {rank}", algo.name());
                    let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a.0), bits(&b.0), "{case}: losses");
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{case}: accuracy");
                    assert!(same_bits(&a.2, &b.2), "{case}: weights");
                    if precision == Precision::F64 {
                        let want = input_fetch_words(&problem, algo, p, mode, rank);
                        assert_eq!(
                            a.3 - b.3,
                            want,
                            "{case}: the dropped inputs are fetched again"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn evaluation_passes_keep_and_serve_the_inputs_too() {
    // The first pass may be an evaluation: an accuracy pass ahead of
    // training fetches the inputs, and the first epoch then serves them
    // (and refreshes the Cached{2} halo cache, serving nothing else).
    let (problem, _) = problem();
    for (algo, p) in GEOMETRIES {
        for mode in MODES {
            let per_rank = run(algo, p, mode, true, |ctx, t| {
                let eval = metered(ctx, || {
                    t.accuracy(ctx);
                });
                let again = metered(ctx, || {
                    t.accuracy(ctx);
                });
                let epoch = metered(ctx, || {
                    t.epoch(ctx);
                });
                (eval, again, epoch)
            });
            for (rank, (eval, again, epoch)) in per_rank.into_iter().enumerate() {
                let case = format!("{} P={p} {mode:?} rank {rank}", algo.name());
                let want = input_fetch_words(&problem, algo, p, mode, rank);
                assert_eq!(eval.0 - again.0, want, "{case}: evaluation fetches once");
                assert_eq!((eval.1, again.1), (0, want), "{case}: CacheHit words");
                assert_eq!(epoch.1, want, "{case}: the first epoch serves the inputs");
            }
        }
    }
}

fn same_bits(a: &[Mat], b: &[Mat]) -> bool {
    let bits = |w: &[Mat]| -> Vec<u64> {
        w.iter()
            .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
            .collect()
    };
    bits(a) == bits(b)
}
