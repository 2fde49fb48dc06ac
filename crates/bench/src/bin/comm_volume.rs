//! §IV cost analysis, verified by execution: per-rank words moved by every
//! algorithm across process counts, measured from the running
//! implementations and set against the paper's closed-form α–β bounds.
//!
//! Headline checks (§I, §IV-C.5): the 2D algorithm communicates
//! `O(√P)` fewer words than 1D; the 3D algorithm another `O(P^{1/6})`
//! fewer than 2D; 1.5D interpolates with its replication factor `c`. The
//! measured words are a two-epoch mean, so the formula column is a
//! steady-state epoch plus half of what only the first passes pay: the
//! layer-0 `H⁰` fetch and, in 2D and 3D, the `S` panels of `A`
//! ([`analysis::CommCost::one_time_words`]).
//!
//! Table II's scaling is gated on that sweep, one `PASS|FAIL` line each:
//! the least-squares exponent of measured words per rank against P must
//! lie within 0.15 of Table II's (1D 0, 2D −1/2, 3D −2/3), and 1D/2D at
//! P = 64 must reach the paper's √P/5. The tolerance covers what the
//! asymptotic exponents drop at n = 2048: the P-independent `f²` weight
//! all-reduce and the loss's words per row, the one-time panels averaged
//! over two epochs, and 1D's edge cut `n(P−1)/P`, which grows over the
//! sweep (+0.05 in the closed form itself). √P/5 assumes `d ≈ f`; here
//! `d < f` and 2D's panels move once, so 1D/2D only has a floor.
//!
//! Kept-panel section: for 2D (2×2, 2×3) and 3D (`P = 8`) in the Dense
//! and sparse tiers, the `SparseComm` words of the first epoch at every
//! rank are set against the words of the process row's panels, from the
//! block partitions ([`cagnet_bench::grid_panel_words`]), and a
//! steady-state epoch must meter none. On the square and cubic grids the
//! per-rank mean must also equal the closed form's panel term,
//! `4nnz/√P` and `4nnz/P^{2/3}` (`one_time_words` less the `H⁰` fetch).
//!
//! Sparse-tier section: for 1D and 1.5D at `P = 4`, the reduce-scatter
//! words a `SparsityAware` epoch meters are set against the prediction
//! from the needed-row sets — `Σ min(k·(f+1), rows·f)` over every part a
//! rank receives. The binary exits non-zero on any mismatch in this
//! section or the two others.
//!
//! Narrow-side section: for 2D (2×2, 2×3) and 3D (`P = 8`), the
//! `DenseComm` words a Dense-tier epoch meters at every rank are set
//! against the paper's broadcast form less the first pass's layer-0 `H⁰`
//! fetch and the closed-form saving of moving the narrow side of each
//! dense-weight product ([`cagnet_bench::grid_epoch_words`]) — the
//! metered epoch is the second, a steady-state one — on a shape where both directions
//! fire and on uniform widths, where the saving must be zero. The closed
//! form's output layer moves `rows·3·(q − 1)` words (the split
//! log-sum-exp's three statistics per row). Forcing the broadcast form in
//! `dist/grid.rs` makes the first shape's rows mismatch, and gathering
//! whole class rows again makes every row mismatch.
//!
//! Run with: `cargo run --release -p cagnet-bench --bin comm_volume`

use cagnet_bench::measure_epochs;
use cagnet_comm::{Cat, CostModel};
use cagnet_core::analysis::{self, CommCost, Shape};
use cagnet_core::dist::CommMode;
use cagnet_core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet_core::{GcnConfig, Problem};
use cagnet_sparse::generate::{rmat_symmetric, RmatParams};
use cagnet_sparse::partition::block_ranges;
use cagnet_sparse::Csr;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    algorithm: String,
    processes: usize,
    measured_words: f64,
    formula_words: f64,
    ratio: f64,
}

fn main() {
    // Uniform width keeps the paper's "average f" exact.
    const F: usize = 32;
    let g = rmat_symmetric(11, 12, RmatParams::default(), 77); // 2048 vertices
    let problem = Problem::synthetic(&g, F, F, 1.0, 78);
    let gcn = GcnConfig {
        dims: vec![F, F, F],
        lr: 0.01,
        seed: 9,
    };
    let shape = Shape::new(problem.vertices(), problem.adj.nnz(), F, gcn.layers());
    let (n, nnz, layers) = (problem.vertices(), problem.adj.nnz(), gcn.layers());
    println!(
        "COMMUNICATION VOLUME — measured vs closed form (n={n}, nnz={nnz}, f={F}, L={layers})\n"
    );
    println!("algorithm        P measured w/rank  formula w/rank    ratio");

    let epochs = 2;
    type Model = fn(&Shape, usize) -> CommCost;
    let cases: [(Algorithm, &[usize], Model); 5] = [
        (Algorithm::OneD, &[4, 16, 64], |s, p| {
            analysis::one_d(s, p, None)
        }),
        (Algorithm::One5D { c: 2 }, &[16, 64], |s, p| {
            analysis::one5_d(s, p, 2)
        }),
        (Algorithm::One5D { c: 8 }, &[16, 64], |s, p| {
            analysis::one5_d(s, p, 8)
        }),
        (Algorithm::TwoD, &[4, 16, 64], analysis::two_d),
        (Algorithm::ThreeD, &[8, 27, 64], analysis::three_d),
    ];
    let (mut rows, mut mismatches, mut words_at) = (Vec::new(), 0, Vec::new());
    for (algo, ps, model) in cases {
        for &p in ps {
            let cost = CostModel::summit_like();
            let row = measure_epochs(&problem, &gcn, "rmat", algo, p, epochs, cost);
            let (measured, cost) = (row.dcomm_words + row.scomm_words, model(&shape, p));
            let formula = cost.words + cost.one_time_words / epochs as f64;
            let (algorithm, ratio) = (algo.name(), measured / formula);
            println!("{algorithm:<12} {p:>5} {measured:>15.0} {formula:>15.0} {ratio:>8.2}");
            words_at.push((algo.name(), p, measured));
            rows.push(Row {
                algorithm,
                processes: p,
                measured_words: measured,
                formula_words: formula,
                ratio,
            });
        }
        println!();
    }

    // Table II's scaling: the least-squares slope of ln(words) on ln(P).
    for (name, want) in [("1d", 0.0), ("2d", -0.5), ("3d", -2.0 / 3.0)] {
        let at = words_at.iter().filter(|(algo, _, _)| algo == name);
        let pts: Vec<(f64, f64)> = at.map(|&(_, p, w)| ((p as f64).ln(), w.ln())).collect();
        let got = slope(&pts);
        let claim = format!("Table II {name} exponent of words per rank in P");
        let (measured, expected) = (format!("{got:+.2}"), format!("{want:+.2} ± 0.15"));
        mismatches += verdict((got - want).abs() <= 0.15, &claim, measured, &expected);
    }
    let at64 = |name: &str| {
        words_at
            .iter()
            .find(|w| w.0 == name && w.1 == 64)
            .map_or(0.0, |w| w.2)
    };
    let (ratio, floor) = (at64("1d") / at64("2d"), 64f64.sqrt() / 5.0);
    let expected = format!("at least √P/5 = {floor:.2}x");
    let claim = "Table II 1d/2d words per rank at P = 64";
    mismatches += verdict(ratio >= floor, claim, format!("{ratio:.2}x"), &expected);
    cagnet_bench::emit_json(&rows);

    println!("\nSPARSE-TIER REDUCE-SCATTERS — needed-row prediction vs metered (words per epoch, all ranks)\n");
    println!("algorithm        P         dims           dense       predicted         metered");
    // The narrow widths make many parts no smaller indexed than whole,
    // so the dense-when-not-smaller rule is exercised too.
    let narrow = GcnConfig {
        dims: vec![F, 1, F],
        ..gcn.clone()
    };
    for gcn in [&gcn, &narrow] {
        for (algo, p) in [(Algorithm::OneD, 4), (Algorithm::One5D { c: 2 }, 4)] {
            let want = match algo {
                Algorithm::OneD => predict_1d(&problem, &gcn.dims, p),
                _ => predict_1p5d(&problem, &gcn.dims, p, 2),
            };
            let words = |comm_mode| {
                let tc = TrainConfig {
                    epochs: 1,
                    comm_mode,
                    collect_outputs: false,
                    ..Default::default()
                };
                let r = train_distributed(&problem, gcn, algo, p, CostModel::summit_like(), &tc);
                r.reports
                    .iter()
                    .map(|rep| rep.words(Cat::DenseComm))
                    .sum::<u64>()
            };
            // Everything else an epoch meters — all-reduces, all-gathers,
            // the loss — is the same in both tiers: the Dense epoch less
            // its closed-form fetches and reduce-scatters.
            let rest = words(CommMode::Dense) - want.fetch_dense - want.reduce_dense;
            let metered = words(CommMode::SparsityAware) - rest - want.fetch_sparse;
            let verdict = if metered == want.reduce_sparse {
                "ok"
            } else {
                mismatches += 1;
                "MISMATCH"
            };
            let (name, dims) = (algo.name(), format!("{:?}", gcn.dims));
            let (dense, sparse) = (want.reduce_dense, want.reduce_sparse);
            println!(
                "{name:<12} {p:>5} {dims:>12} {dense:>15} {sparse:>15} {metered:>15} {verdict}"
            );
        }
    }

    println!("\nKEPT A PANELS — partition prediction vs metered SparseComm (words, all ranks)\n");
    println!("algorithm        P           tier       predicted     closed form     first epoch    steady epoch");
    for (algo, p) in [
        (Algorithm::TwoD, 4),
        (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
        (Algorithm::ThreeD, 8),
    ] {
        let want = cagnet_bench::grid_panel_words(&problem, algo, p);
        // The closed form's panel term over all ranks: the one-time words
        // less the H⁰ fetch, on the square and cubic grids.
        let closed_form = match algo {
            Algorithm::TwoD => Some((analysis::two_d(&shape, p), (p as f64).sqrt())),
            Algorithm::ThreeD => Some((analysis::three_d(&shape, p), (p as f64).cbrt().powi(2))),
            _ => None,
        }
        .map(|(c, side)| p as f64 * (c.one_time_words - shape.n * shape.f / side));
        for mode in [CommMode::Dense, CommMode::SparsityAware] {
            let [one, two] = [1, 2].map(|epochs| {
                cagnet_bench::rank_words(&problem, &gcn, algo, p, epochs, mode, Cat::SparseComm)
            });
            let (first, steady) = (
                one.iter().sum::<u64>(),
                two.iter().sum::<u64>() - one.iter().sum::<u64>(),
            );
            let exact = closed_form.is_none_or(|w| w == first as f64);
            let status = if exact && one == want && two == one {
                "ok"
            } else {
                mismatches += 1;
                "MISMATCH"
            };
            let closed = closed_form.map_or("-".into(), |w| format!("{w:.0}"));
            let (name, mode, want) = (algo.name(), format!("{mode:?}"), want.iter().sum::<u64>());
            println!("{name:<12} {p:>5} {mode:>14} {want:>15} {closed:>15} {first:>15} {steady:>15} {status}");
        }
    }

    println!("\nNARROW SIDE OF THE DENSE-WEIGHT PRODUCTS — closed form vs metered (Dense tier, words per epoch, all ranks)\n");
    println!("algorithm        P             dims  broadcast form    layer-0 H        saved         metered");
    // Layers 0 and 2 narrow and hidden layer 1 widens past 2·f_in, so the
    // forward reduce-scatters T·W terms and the backward gathers H¹; the
    // uniform shape fires nothing and must save exactly zero.
    let skewed = GcnConfig {
        dims: vec![F, 12, 40, F],
        ..gcn.clone()
    };
    for gcn in [&skewed, &gcn] {
        for (algo, p) in [
            (Algorithm::TwoD, 4),
            (Algorithm::TwoDRect { pr: 2, pc: 3 }, 6),
            (Algorithm::ThreeD, 8),
        ] {
            let want = cagnet_bench::grid_epoch_words(problem.vertices(), &gcn.dims, algo, p);
            let metered = cagnet_bench::epoch_dense_words(&problem, gcn, algo, p);
            let exact = (0..p).all(|r| {
                let steady = want.broadcast_form[r] - want.input_fetch[r];
                metered[r] as i64 == steady as i64 - want.saved[r]
            });
            let uniform = gcn.dims.iter().all(|&f| f == F);
            let verdict = if exact && uniform == want.saved.iter().all(|&w| w == 0) {
                "ok"
            } else {
                mismatches += 1;
                "MISMATCH"
            };
            let (name, dims) = (algo.name(), format!("{:?}", gcn.dims));
            let [form, fetch, metered] =
                [&want.broadcast_form, &want.input_fetch, &metered].map(|w| w.iter().sum::<u64>());
            let saved = want.saved.iter().sum::<i64>();
            println!("{name:<12} {p:>5} {dims:>16} {form:>15} {fetch:>12} {saved:>12} {metered:>15} {verdict}");
        }
    }
    if mismatches > 0 {
        eprintln!("{mismatches} word count(s) differ from the prediction");
        std::process::exit(1);
    }
}

/// The least-squares slope of `y` on `x` over `pts`.
fn slope(pts: &[(f64, f64)]) -> f64 {
    let n = pts.len() as f64;
    let (mx, my) = pts
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
    let (sxy, sxx) = pts.iter().fold((0.0, 0.0), |(a, b), (x, y)| {
        (a + (x - mx) * (y - my), b + (x - mx) * (x - mx))
    });
    sxy / sxx
}

/// Print `PASS|FAIL <claim>: measured … vs expected …`; 1 on a failure.
fn verdict(ok: bool, claim: &str, measured: String, expected: &str) -> usize {
    let verdict = if ok { "PASS" } else { "FAIL" };
    println!("{verdict} {claim}: measured {measured} vs expected {expected}");
    usize::from(!ok)
}

/// Closed-form `DenseComm` words of one epoch's stage fetches and
/// reduce-scatters, summed over ranks, in the Dense and sparse tiers.
#[derive(Default)]
struct Predicted {
    fetch_dense: u64,
    fetch_sparse: u64,
    reduce_dense: u64,
    reduce_sparse: u64,
}

/// Words a sparse-tier part meters: `k` rows of width `f` and their
/// indices, or the whole `rows`-row block when that is not more.
fn part(k: usize, rows: usize, f: usize) -> u64 {
    (k * (f + 1)).min(rows * f) as u64
}

/// A dense reduce-scatter's words at one of `p` ranks: `(p−1)/p` of the
/// `rows × f` contribution.
fn dense_reduce(rows: usize, f: usize, p: usize) -> u64 {
    (rows * f * (p - 1) / p) as u64
}

/// 1D: member `i` fetches the columns `needed[i][j]` of stage `j` from
/// member `j` on the way forward, and on the way back sends member `j`
/// those same rows of its outer product.
fn predict_1d(problem: &Problem, dims: &[usize], p: usize) -> Predicted {
    let n = problem.vertices();
    let blocks = block_ranges(n, p);
    let k: Vec<Vec<usize>> = blocks
        .iter()
        .map(|&(r0, r1)| {
            let stage = |&(c0, c1): &(usize, usize)| problem.adj_t.block(r0, r1, c0, c1);
            blocks
                .iter()
                .map(|b| stage(b).needed_cols().len())
                .collect()
        })
        .collect();
    let mut w = Predicted::default();
    for l in 0..dims.len() - 1 {
        let (f_in, f_out) = (dims[l], dims[l + 1]);
        for (i, k) in k.iter().enumerate() {
            w.reduce_dense += dense_reduce(n, f_out, p);
            for (j, &(c0, c1)) in blocks.iter().enumerate() {
                w.fetch_dense += ((c1 - c0) * f_in) as u64;
                if j != i {
                    w.fetch_sparse += (k[j] * (f_in + 1)) as u64;
                    w.reduce_sparse += part(k[j], c1 - c0, f_out);
                }
            }
        }
    }
    w
}

/// 1.5D on a `p/c × c` grid: replica `r` of team `t` fetches the fine
/// blocks `≡ r (mod c)` over its replica group and reduce-scatters its
/// coarse partial over the team on the way forward — sending team member
/// `m` the rows of `m`'s fine block where its column slices store entries
/// — and on the way back reduce-scatters its outer product over the
/// replica group, sending member `i'` the columns of stage `i'`.
fn predict_1p5d(problem: &Problem, dims: &[usize], p: usize, c: usize) -> Predicted {
    let (n, p1) = (problem.vertices(), p / c);
    let fine = block_ranges(n, p);
    let len = |b: usize| fine[b].1 - fine[b].0;
    // Per rank: the needed columns of each stage, and per team member the
    // live rows of its fine block in the coarse partial.
    let (mut k, mut live) = (Vec::new(), Vec::new());
    for rank in 0..p {
        let (t, r) = (rank / c, rank % c);
        let (cr0, cr1) = (fine[t * c].0, fine[(t + 1) * c - 1].1);
        let coarse = problem.adj_t.block(cr0, cr1, 0, n);
        let stages: Vec<Csr> = (0..p1)
            .map(|i| coarse.block(0, cr1 - cr0, fine[i * c + r].0, fine[i * c + r].1))
            .collect();
        k.push(
            stages
                .iter()
                .map(|s| s.needed_cols().len())
                .collect::<Vec<_>>(),
        );
        let stored = |v: usize| stages.iter().any(|s| s.row_nnz(v) > 0);
        let team = block_ranges(cr1 - cr0, c);
        live.push(
            team.iter()
                .map(|&(b0, b1)| (b0..b1).filter(|&v| stored(v)).count())
                .collect::<Vec<_>>(),
        );
    }
    let mut w = Predicted::default();
    for l in 0..dims.len() - 1 {
        let (f_in, f_out) = (dims[l], dims[l + 1]);
        for rank in 0..p {
            let (t, r) = (rank / c, rank % c);
            let coarse_rows: usize = (0..c).map(|m| len(t * c + m)).sum();
            let group_rows: usize = (0..p1).map(|i| len(i * c + r)).sum();
            w.reduce_dense +=
                dense_reduce(coarse_rows, f_in, c) + dense_reduce(group_rows, f_out, p1);
            for (i, &k) in k[rank].iter().enumerate() {
                w.fetch_dense += (len(i * c + r) * f_in) as u64;
                if i != t {
                    w.fetch_sparse += (k * (f_in + 1)) as u64;
                    w.reduce_sparse += part(k, len(i * c + r), f_out);
                }
            }
            for m in (0..c).filter(|&m| m != r) {
                w.reduce_sparse += part(live[rank][m], len(t * c + m), f_in);
            }
        }
    }
    w
}
