//! Semiring-generic neighborhood aggregation — the paper's §I remark that
//! its algorithms "can be trivially extended to support arbitrary
//! aggregate operations to increase the expressive power of GNNs" through
//! a semiring interface (as in Combinatorial BLAS / Cyclops).
//!
//! Demonstrates three aggregations over the same graph:
//! * `(+, ×)`  — standard GCN mean-style aggregation,
//! * `(max, ×)` — max-pooling aggregation (GraphSAGE-pool flavor),
//! * `(min, +)` — tropical semiring: one SpMM per hop computes
//!   single-source shortest-path distances.
//!
//! Run with: `cargo run --release --example semiring_aggregation`

use cagnet::dense::Mat;
use cagnet::sparse::spmm::{spmm_semiring_with, MaxTimes, MinPlus, PlusTimes};
use cagnet::sparse::{Coo, Csr, ParallelCtx};

fn main() {
    // A small weighted digraph:
    //      1.0      2.0
    //  0 ------> 1 ------> 2
    //   \                  ^
    //    \______ 5.0 ______/
    //  plus 3 -> 1 (0.5)
    let mut coo = Coo::new(4, 4);
    coo.push(0, 1, 1.0);
    coo.push(1, 2, 2.0);
    coo.push(0, 2, 5.0);
    coo.push(3, 1, 0.5);
    let a = Csr::from_coo(coo);

    // Per-vertex features: a 2-column embedding.
    let h = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0], &[1.0, 1.0]]);

    println!("standard (+,*) aggregation — weighted neighbor sums:");
    print_mat(&spmm_semiring_with(
        ParallelCtx::serial(),
        &a,
        &h,
        &PlusTimes,
    ));

    println!("max-pooling (max,*) aggregation — strongest neighbor signal:");
    print_mat(&spmm_semiring_with(
        ParallelCtx::serial(),
        &a,
        &h,
        &MaxTimes,
    ));

    // Tropical semiring: distances from vertex 0. dist column starts at
    // [0, inf, inf, inf]; each (min,+) SpMM is one relaxation hop over
    // *incoming* edges, so iterate on Aᵀ.
    let at = a.transpose();
    let mut dist = Mat::from_rows(&[&[0.0], &[f64::INFINITY], &[f64::INFINITY], &[f64::INFINITY]]);
    println!("(min,+) semiring — SSSP relaxation from vertex 0:");
    for hop in 1..=3 {
        let relaxed = spmm_semiring_with(ParallelCtx::serial(), &at, &dist, &MinPlus);
        // Keep the best of (stay, relax) — elementwise min with previous.
        for i in 0..dist.rows() {
            dist[(i, 0)] = dist[(i, 0)].min(relaxed[(i, 0)]);
        }
        println!(
            "  after hop {hop}: {:?}",
            (0..4).map(|i| dist[(i, 0)]).collect::<Vec<_>>()
        );
    }
    // 0 -> 1 (1.0) -> 2 (3.0) beats the direct 5.0 edge.
    assert_eq!(dist[(1, 0)], 1.0);
    assert_eq!(dist[(2, 0)], 3.0);
    assert!(dist[(3, 0)].is_infinite(), "vertex 3 unreachable from 0");
    println!("\nshortest path 0->2 found through vertex 1: cost 3 (beats direct edge 5).");
}

fn print_mat(m: &Mat) {
    for i in 0..m.rows() {
        let row: Vec<String> = m.row(i).iter().map(|x| format!("{x:6.2}")).collect();
        println!("  v{i}: [{}]", row.join(", "));
    }
    println!();
}
