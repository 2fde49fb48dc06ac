//! # cagnet-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§V–§VI), plus the analysis-section comparisons:
//!
//! | binary         | reproduces                                         |
//! |----------------|----------------------------------------------------|
//! | `table6`       | Table VI — dataset characteristics                 |
//! | `figure2`      | Figure 2 — 2D epoch throughput vs device count     |
//! | `figure3`      | Figure 3 — per-epoch time breakdown                |
//! | `comm_volume`  | §IV cost analysis — measured vs closed-form words  |
//! | `edgecut`      | §IV-A.8 — partitioner vs random distribution       |
//! | `rect_grid`    | §IV-C.6 — rectangular grid sparse/dense trade      |
//! | `paper_scale`  | §IV formulas at the paper's real Table VI sizes    |
//! | `memory`       | per-rank memory footprints across algorithms       |
//! | `load_balance` | §I — load balance across distributions             |
//! | `ablations`    | design-choice ablations called out in DESIGN.md    |
//! | `runner`       | any dataset × algorithm × P × tier, one row        |
//! | `trace`        | a Perfetto trace of one 2D epoch                   |
//!
//! Every figure here is modeled. Wall-clock epochs and the per-layer
//! kernel, collective, codec and transport numbers are the repository
//! benchmark's (`benchmark/`).
//!
//! All binaries print human-readable tables and emit JSON rows (serde) so
//! EXPERIMENTS.md can quote machine-checked numbers.

use cagnet_comm::{Cat, CostModel, TimelineReport};
use cagnet_core::trainer::{train_distributed, Algorithm, TrainConfig};
use cagnet_core::{GcnConfig, Problem};
use cagnet_sparse::datasets::{self, Dataset, DatasetSpec};
use serde::Serialize;

/// Laptop-scale instantiations of the paper's three datasets. The
/// scale-down divisors land each instance at 4–8k vertices; degree caps
/// keep the heavy graphs (Reddit d≈493, Protein d≈121) tractable while
/// preserving their ordering (Reddit densest, Amazon sparsest).
pub fn bench_dataset(spec: &DatasetSpec) -> Dataset {
    let (scale_down, max_degree) = match spec.name {
        "reddit" => (14, 96),  // ~16k vertices, heavy degree + wide f
        "amazon" => (288, 25), // ~32k vertices, paper degree ~24.6
        "protein" => (267, 48),
        other => panic!("unknown dataset {other}"),
    };
    datasets::generate(spec, scale_down, max_degree, 0xBE7C)
}

/// Cost model for the Figure 2/3 reproductions.
///
/// Scaling the datasets down by 14–288x shrinks every per-broadcast
/// payload by the same factor while α is a property of the network, which
/// would artificially push *all* configurations into the latency-bound
/// regime. To keep the latency:bandwidth balance of each collective at
/// our scale comparable to the paper's at full scale, the figure harness
/// uses a proportionally smaller α (7 µs — NVLink/NCCL-class) with the
/// Summit-like bandwidth and kernel rates unchanged. EXPERIMENTS.md
/// discusses this renormalization and shows the unscaled-α numbers too.
pub fn figure_model() -> CostModel {
    CostModel {
        alpha: 7e-6,
        ..CostModel::summit_like()
    }
}

/// The GCN configuration the paper trains (3 layers, hidden width 16,
/// dataset-specific feature/label widths).
pub fn bench_gcn(ds: &Dataset) -> GcnConfig {
    GcnConfig::three_layer(ds.spec.features, ds.spec.hidden, ds.spec.labels)
}

/// The device counts Figure 2/3 report per dataset. (Amazon and Protein
/// skip small counts because the data does not fit device memory there —
/// we keep the paper's x-axes.)
pub fn figure_process_counts(name: &str) -> Vec<usize> {
    match name {
        "reddit" => vec![4, 16, 36, 64],
        "amazon" => vec![16, 36, 64],
        "protein" => vec![36, 64, 100],
        other => panic!("unknown dataset {other}"),
    }
}

/// One measured configuration of the 2D implementation.
#[derive(Clone, Debug, Serialize)]
pub struct EpochRow {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Simulated device count.
    pub processes: usize,
    /// Whether nonblocking communication/computation overlap was on
    /// (DESIGN.md §10). Only modeled time changes; results are
    /// bit-identical either way.
    pub overlap: bool,
    /// Modeled seconds per epoch (BSP max over ranks).
    pub epoch_seconds: f64,
    /// Epochs per second — Figure 2's y-axis.
    pub epochs_per_second: f64,
    /// Mean per-rank words moved per epoch, dense payloads.
    pub dcomm_words: f64,
    /// Mean per-rank words moved per epoch, sparse payloads.
    pub scomm_words: f64,
    /// Per-category modeled seconds per epoch (mean over ranks):
    /// Figure 3's stacked bars.
    pub breakdown: Breakdown,
}

/// Figure 3's five stacked categories (gemm folded into misc exactly as
/// the paper does), plus the overlap lane.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Breakdown {
    /// Local SpMM seconds.
    pub spmm: f64,
    /// Dense communication seconds (uncovered portion only under
    /// overlap).
    pub dcomm: f64,
    /// Sparse communication seconds (uncovered portion only under
    /// overlap).
    pub scomm: f64,
    /// Transpose seconds.
    pub trpose: f64,
    /// Everything else (GEMM, activations, waits, load-imbalance idle).
    pub misc: f64,
    /// Communication seconds hidden behind compute ([`Cat::Overlapped`]).
    /// This overlays the compute categories on the network lane, so it is
    /// deliberately *excluded* from [`Breakdown::total`].
    pub ovlp: f64,
}

impl Breakdown {
    /// Extract the Figure 3 categories from a per-epoch mean report.
    pub fn from_report(r: &TimelineReport, epochs: usize) -> Breakdown {
        let e = epochs.max(1) as f64;
        Breakdown {
            spmm: r.seconds(Cat::Spmm) / e,
            // Compressed-wire runs meter dense payloads under the
            // precision-specific categories; the Figure 3 bar is still
            // "dense communication" regardless of wire width.
            dcomm: (r.seconds(Cat::DenseComm)
                + r.seconds(Cat::DenseComm32)
                + r.seconds(Cat::DenseComm16))
                / e,
            scomm: r.seconds(Cat::SparseComm) / e,
            trpose: r.seconds(Cat::Transpose) / e,
            misc: (r.seconds(Cat::Misc) + r.seconds(Cat::Gemm) + r.seconds(Cat::Idle)) / e,
            ovlp: r.seconds(Cat::Overlapped) / e,
        }
    }

    /// Sum of the wall-clock categories. Reconciles with the timeline
    /// clock: overlapped seconds overlay compute and are not added.
    pub fn total(&self) -> f64 {
        self.spmm + self.dcomm + self.scomm + self.trpose + self.misc
    }
}

/// Run `epochs` epochs of `algo` on `p` simulated devices and collect an
/// [`EpochRow`] with the default run options (overlap on).
pub fn measure_epochs(
    problem: &Problem,
    gcn: &GcnConfig,
    dataset: &str,
    algo: Algorithm,
    p: usize,
    epochs: usize,
    model: CostModel,
) -> EpochRow {
    let tc = TrainConfig {
        epochs,
        collect_outputs: false,
        ..Default::default()
    };
    measure_epochs_traced(problem, gcn, dataset, algo, p, model, &tc).0
}

/// Like [`measure_epochs`] but with full control over the run options
/// (epochs come from `tc.epochs`), also returning the per-rank execution
/// traces over the timed epochs (empty unless `tc.trace` is set) for
/// export via [`cagnet_comm::trace::to_chrome_json`].
pub fn measure_epochs_traced(
    problem: &Problem,
    gcn: &GcnConfig,
    dataset: &str,
    algo: Algorithm,
    p: usize,
    model: CostModel,
    tc: &TrainConfig,
) -> (EpochRow, Vec<Vec<cagnet_comm::trace::TraceEvent>>) {
    let epochs = tc.epochs;
    let r = train_distributed(problem, gcn, algo, p, model, tc);
    let mean = TimelineReport::mean_over(&r.reports);
    let epoch_seconds = r.epoch_seconds(epochs);
    let row = EpochRow {
        dataset: dataset.to_string(),
        algorithm: algo.name(),
        processes: p,
        overlap: tc.overlap,
        epoch_seconds,
        epochs_per_second: 1.0 / epoch_seconds.max(1e-12),
        dcomm_words: (mean.words(Cat::DenseComm)
            + mean.words(Cat::DenseComm32)
            + mean.words(Cat::DenseComm16)) as f64
            / epochs as f64,
        scomm_words: mean.words(Cat::SparseComm) as f64 / epochs as f64,
        breakdown: Breakdown::from_report(&mean, epochs),
    };
    (row, r.traces)
}

/// Closed-form `DenseComm` words of one Dense-tier, f64-wire training
/// epoch of the 2D (`TwoD`, `TwoDRect`) or 3D trainer at each rank, in
/// world-rank order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GridWords {
    /// With every dense-weight product in the paper's form: the forward
    /// partial SUMMA broadcasts `T` blocks, the backward row-gathers `AG`.
    pub broadcast_form: Vec<u64>,
    /// What moving the narrow side saves against that: forward layers
    /// with `f_out < f_in` reduce-scatter their `f_out`-wide terms; backward
    /// layers with `f_in·(1 + [l > 0]) < f_out` row-gather `Hˡ`,
    /// reduce-scatter the `f_in`-wide next gradient above layer 0, and
    /// reduce a column block of `Y` instead of a row block.
    pub saved: Vec<i64>,
}

/// [`GridWords`] of `algo` on `p` ranks for an `n`-vertex graph and layer
/// widths `dims`, from the block partitions alone. Every member of a
/// broadcast meters its words, an all-gather or reduce-scatter of `w`
/// words over `m` members `⌊w·(m−1)/m⌋`, an all-reduce `⌊2w·(m−1)/m⌋`.
pub fn grid_epoch_words(n: usize, dims: &[usize], algo: Algorithm, p: usize) -> GridWords {
    use cagnet_sparse::partition::{block_range, block_ranges};
    let len = |(a, b): (usize, usize)| b - a;
    let part = |w: usize, m: usize| w * (m - 1) / m;
    let allreduce = |w: usize, m: usize| 2 * w * (m - 1) / m;
    let root = |e: u32| {
        (1..=p)
            .find(|q| q.pow(e) == p)
            .unwrap_or_else(|| panic!("{} needs P = q^{e}, got {p}", algo.name()))
    };
    let mut out = GridWords::default();
    for rank in 0..p {
        // This rank's rows, its process-row size and index in it, the
        // process-column size, the Y group size, the D-panel rows summed
        // over the stages of one SpMM, and in 3D the fiber partial's rows.
        let (rows, qr, j, qc, qy, d_rows, fiber) = match algo {
            Algorithm::ThreeD => {
                let q = root(3);
                let (k, i, j) = (rank / (q * q), rank % (q * q) / q, rank % q);
                let slab = len(block_range(n, q, i));
                let d: usize = (0..q)
                    .map(|s| len(block_range(len(block_range(n, q, s)), q, k)))
                    .sum();
                (len(block_range(slab, q, k)), q, j, q, q * q, d, slab)
            }
            Algorithm::TwoD | Algorithm::TwoDRect { .. } => {
                let (pr, pc) = match algo {
                    Algorithm::TwoDRect { pr, pc } => (pr, pc),
                    _ => (root(2), root(2)),
                };
                let (i, j) = (rank / pc, rank % pc);
                let fine = block_ranges(n, pr / cagnet_core::analysis::gcf(pr, pc) * pc);
                let per = fine.len() / pr;
                let rows = fine[i * per..(i + 1) * per].iter().map(|&b| len(b)).sum();
                (rows, pc, j, pr, pr, n, 0)
            }
            other => panic!("{} is not a grid trainer", other.name()),
        };
        let cols = |f: usize| len(block_range(f, qr, j));
        let spmm = |f: usize| d_rows * cols(f) * usize::from(qc > 1) + part(fiber * cols(f), qr);
        let layers = dims.len() - 1;
        let (mut words, mut saved) = (if p > 1 { 2 } else { 0 }, 0i64);
        for l in 0..layers {
            let (f_in, f_out) = (dims[l], dims[l + 1]);
            let t_blocks = if qr > 1 { rows * f_in } else { 0 };
            words += spmm(f_in) + t_blocks + spmm(f_out) + part(rows * f_out, qr);
            words += allreduce(cols(f_in) * f_out, qy) + part(f_in * f_out, qr);
            if l + 1 == layers {
                words += part(rows * f_out, qr);
            }
            if qr > 1 && f_out < f_in {
                saved += t_blocks as i64 - part(rows * f_out, qr) as i64;
            }
            let moved = if l > 0 { 2 * f_in } else { f_in };
            if qr > 1 && moved < f_out {
                let h = part(rows * f_in, qr) * if l > 0 { 2 } else { 1 };
                saved += part(rows * f_out, qr) as i64 - h as i64;
                saved += allreduce(cols(f_in) * f_out, qy) as i64
                    - allreduce(f_in * cols(f_out), qy) as i64;
            }
        }
        out.broadcast_form.push(words as u64);
        out.saved.push(saved);
    }
    out
}

/// `DenseComm` words each rank meters in one Dense-tier training epoch
/// (default run options otherwise): two epochs less one, so the setup's
/// words cancel.
pub fn epoch_dense_words(
    problem: &Problem,
    gcn: &GcnConfig,
    algo: Algorithm,
    p: usize,
) -> Vec<u64> {
    let words = |epochs| {
        let tc = TrainConfig {
            epochs,
            collect_outputs: false,
            ..Default::default()
        };
        let r = train_distributed(problem, gcn, algo, p, CostModel::summit_like(), &tc);
        r.reports
            .iter()
            .map(|rep| rep.words(Cat::DenseComm))
            .collect::<Vec<_>>()
    };
    let (one, two) = (words(1), words(2));
    two.iter().zip(one).map(|(b, a)| b - a).collect()
}

/// Print rows as a JSON array on the final line (machine-readable trailer
/// after the human tables).
pub fn emit_json<T: Serialize>(rows: &[T]) {
    println!(
        "\nJSON: {}",
        // lint:allow(unwrap): the serde shim only errors on non-string map keys
        serde_json::to_string(rows).expect("serialize")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cagnet_core::trainer::Algorithm;
    use cagnet_core::Problem;
    use cagnet_sparse::datasets;

    #[test]
    fn breakdown_totals_and_mapping() {
        let mut t = cagnet_comm::Timeline::new();
        t.charge(Cat::Spmm, 2.0);
        t.charge(Cat::Gemm, 1.0);
        t.charge(Cat::Misc, 0.5);
        t.charge(Cat::DenseComm, 3.0);
        let b = Breakdown::from_report(&t.report(), 2);
        assert!((b.spmm - 1.0).abs() < 1e-12);
        // Gemm folds into misc, exactly as the paper reports Figure 3.
        assert!((b.misc - 0.75).abs() < 1e-12);
        assert!((b.dcomm - 1.5).abs() < 1e-12);
        assert!((b.total() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_folds_idle_and_excludes_overlapped() {
        let mut t = cagnet_comm::Timeline::new();
        t.charge(Cat::Spmm, 2.0);
        // Network lane runs [0, 3) while compute holds the clock at 2:
        // 2s hidden behind the SpMM, 1s uncovered remainder.
        t.settle_pending(0.0, Cat::DenseComm, 3.0);
        t.charge(Cat::Idle, 0.5);
        let r = t.report();
        let b = Breakdown::from_report(&r, 1);
        assert!((b.ovlp - 2.0).abs() < 1e-12);
        assert!((b.dcomm - 1.0).abs() < 1e-12);
        // Idle folds into misc so the stacked bars still reconcile with
        // the clock; the overlapped lane overlays them and is excluded.
        assert!((b.misc - 0.5).abs() < 1e-12);
        assert!((b.total() - r.clock).abs() < 1e-12);
    }

    #[test]
    fn figure_process_counts_match_paper_axes() {
        assert_eq!(figure_process_counts("reddit"), vec![4, 16, 36, 64]);
        assert_eq!(figure_process_counts("amazon"), vec![16, 36, 64]);
        assert_eq!(figure_process_counts("protein"), vec![36, 64, 100]);
    }

    #[test]
    fn bench_datasets_have_paper_widths() {
        for spec in &datasets::ALL {
            let ds = bench_dataset(spec);
            let gcn = bench_gcn(&ds);
            assert_eq!(gcn.dims[0], spec.features);
            assert_eq!(*gcn.dims.last().unwrap(), spec.labels);
            assert!(ds.vertices >= 4096);
        }
    }

    #[test]
    fn measure_epochs_smoke() {
        let ds = datasets::generate(&datasets::AMAZON, 8192, 8, 1);
        let problem = Problem::from_dataset(&ds, 2);
        let gcn = bench_gcn(&ds);
        let row = measure_epochs(
            &problem,
            &gcn,
            "amazon",
            Algorithm::TwoD,
            4,
            1,
            CostModel::summit_like(),
        );
        assert!(row.epoch_seconds > 0.0);
        assert!(row.dcomm_words > 0.0);
        assert!(row.breakdown.total() > 0.0);
        assert_eq!(row.processes, 4);
    }
}
