//! Figure 3: per-epoch time breakdown of the 2D implementation across
//! device counts — the stacked categories misc / trpose / dcomm / scomm /
//! spmm, per dataset, as a mean over two epochs.
//!
//! The paper's code broadcast `A`'s panels in every layer of every epoch;
//! here each rank keeps the panels it receives, so `scomm` is paid once,
//! by the first forward and backward. The last four columns split it:
//! words per rank and seconds of the first epoch, and of a steady one
//! (two epochs less one).
//!
//! Run with: `cargo run --release -p cagnet-bench --bin figure3`

use cagnet_bench::{bench_dataset, bench_gcn, figure_process_counts, measure_epochs};
use cagnet_core::trainer::Algorithm;
use cagnet_core::Problem;
use cagnet_sparse::datasets::ALL;

fn main() {
    let epochs = 2;
    let mut rows = Vec::new();
    println!("FIGURE 3 — performance breakdown of 2D implementation (seconds/epoch)\n");
    for spec in &ALL {
        let ds = bench_dataset(spec);
        let problem = Problem::from_dataset(&ds, 11);
        let gcn = bench_gcn(&ds);
        println!("{}:", spec.name);
        println!(
            "  {:>4}  {:>10} {:>10} {:>10} {:>10} {:>10}  {:>10}  {:>12} {:>10} {:>12} {:>10}",
            "P",
            "misc",
            "trpose",
            "dcomm",
            "scomm",
            "spmm",
            "total",
            "scomm once w",
            "s",
            "steady w",
            "s"
        );
        for p in figure_process_counts(spec.name) {
            let [first, row] = [1, epochs].map(|epochs| {
                let model = cagnet_bench::figure_model();
                measure_epochs(&problem, &gcn, spec.name, Algorithm::TwoD, p, epochs, model)
            });
            let b = row.breakdown;
            // The two-epoch sums less the first epoch.
            let steady = |mean: f64, once: f64| epochs as f64 * mean - once;
            println!(
                "  {:>4}  {:>10.5} {:>10.5} {:>10.5} {:>10.5} {:>10.5}  {:>10.5}  {:>12.0} {:>10.5} {:>12.0} {:>10.5}",
                p,
                b.misc,
                b.trpose,
                b.dcomm,
                b.scomm,
                b.spmm,
                b.total(),
                first.scomm_words,
                first.breakdown.scomm,
                steady(row.scomm_words, first.scomm_words),
                steady(b.scomm, first.breakdown.scomm)
            );
            rows.push(row);
        }
        println!();
    }
    println!(
        "Paper shapes to check (§VI): on amazon, dcomm halves per 4x devices\n\
         while spmm and scomm do not scale (hypersparsity + latency); dcomm\n\
         dominates scomm by >2x on amazon (f >> d); on protein, total\n\
         communication drops ~1.65x from 36 to 100 devices."
    );
    cagnet_bench::emit_json(&rows);
}
