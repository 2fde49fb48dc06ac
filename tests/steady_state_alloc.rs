//! Steady-state epochs allocate nothing large (DESIGN.md §16).
//!
//! Every `n x f`-proportional buffer of an epoch comes out of the
//! trainer's workspace, which is filled during the first epochs and then
//! only recycled. Pinned here on the thread transport, for each of the
//! five trainers × {Dense, SparsityAware, Cached{refresh: 2}} × overlap
//! {on, off}, at shapes where every block × f buffer is at least
//! 256 KiB: four epochs, and **no allocation of 64 KiB or more in epochs
//! 3 and 4** (cached: one refresh and one serve epoch). The epoch-1
//! census is printed per cell — that is the workspace being built, and
//! its total is the workspace footprint.
//!
//! Allocation sizes are observed through a counting global allocator,
//! which is why this lives in its own test binary with a single test.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use cagnet::comm::Cluster;
use cagnet::core::trainer::Algorithm;
use cagnet::core::{CommMode, GcnConfig, Problem};
use cagnet::sparse::generate::erdos_renyi;
use common::AnyTrainer;

/// Allocations at least this large are counted.
const BIG: usize = 64 * 1024;
const EPOCHS: usize = 4;
/// Sizes remembered per epoch, to name an offender.
const KEPT: usize = 64;

/// The large allocations of one epoch, over all ranks.
struct Census {
    count: AtomicUsize,
    bytes: AtomicUsize,
    sizes: [AtomicUsize; KEPT],
}

/// The epoch being recorded, 1-based; 0 while nothing is.
static EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Indexed by epoch; entry 0 is unused.
static CENSUS: [Census; EPOCHS + 1] = [const {
    Census {
        count: AtomicUsize::new(0),
        bytes: AtomicUsize::new(0),
        sizes: [const { AtomicUsize::new(0) }; KEPT],
    }
}; EPOCHS + 1];

impl Census {
    fn clear(&self) {
        self.count.store(0, SeqCst);
        self.bytes.store(0, SeqCst);
    }

    /// `size x count` of the recorded allocations.
    fn offenders(&self) -> String {
        let mut by_size = BTreeMap::new();
        let kept = self.count.load(SeqCst).min(KEPT);
        for slot in &self.sizes[..kept] {
            *by_size.entry(slot.load(SeqCst)).or_insert(0usize) += 1;
        }
        by_size
            .iter()
            .map(|(size, count)| format!("{size} B x {count}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

struct Counting;

fn note(size: usize) {
    let epoch = EPOCH.load(SeqCst);
    if size >= BIG && epoch > 0 {
        let census = &CENSUS[epoch];
        let nth = census.count.fetch_add(1, SeqCst);
        census.bytes.fetch_add(size, SeqCst);
        if nth < KEPT {
            census.sizes[nth].store(size, SeqCst);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` touches only static
// atomics and so neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn no_large_allocation_after_the_second_epoch() {
    // f = 64 everywhere (an f x f weight gradient stays under the line)
    // and n chosen per geometry so that its smallest block — n/2 x f for
    // 1D, n/4 x f for 1.5D, n/2 x f/2 for 2D, n/4 x f/2 for 3D — is
    // exactly 256 KiB. Degree 2 keeps the nnz-proportional sparse stage
    // panels of the 2D trainer — not workspace material — and the
    // needed-row lists under the 64 KiB line.
    let gcn = GcnConfig::three_layer(64, 64, 64);
    let cells = [
        (Algorithm::OneD, 2, 1024),
        (Algorithm::OneDRow, 2, 1024),
        (Algorithm::One5D { c: 2 }, 4, 2048),
        (Algorithm::TwoD, 4, 2048),
        (Algorithm::ThreeD, 8, 4096),
    ];
    let modes = [
        CommMode::Dense,
        CommMode::SparsityAware,
        CommMode::Cached { refresh: 2 },
    ];
    let mut failures = Vec::new();
    for (algo, p, n) in cells {
        let problem = Problem::synthetic(&erdos_renyi(n, 2.0, 11), 64, 64, 1.0, 12);
        for mode in modes {
            for overlap in [true, false] {
                CENSUS.iter().for_each(Census::clear);
                Cluster::new(p).run(|ctx| {
                    let mut trainer = AnyTrainer::setup(ctx, algo, &problem, &gcn);
                    trainer.set_comm_mode(mode);
                    trainer.set_overlap(overlap);
                    for e in 1..=EPOCHS {
                        // No rank is inside an epoch while the recorded
                        // epoch changes.
                        ctx.world.barrier();
                        if ctx.rank == 0 {
                            EPOCH.store(e, SeqCst);
                        }
                        ctx.world.barrier();
                        trainer.epoch(ctx);
                        ctx.world.barrier();
                        if ctx.rank == 0 {
                            EPOCH.store(0, SeqCst);
                        }
                    }
                });
                let cell = format!("{} P={p} n={n} {mode:?} overlap={overlap}", algo.name());
                println!(
                    "{cell}: epoch 1 made {} allocations >= 64 KiB, {:.1} MiB over all ranks",
                    CENSUS[1].count.load(SeqCst),
                    CENSUS[1].bytes.load(SeqCst) as f64 / (1 << 20) as f64,
                );
                for (e, census) in CENSUS.iter().enumerate().skip(3) {
                    let count = census.count.load(SeqCst);
                    if count > 0 {
                        failures.push(format!(
                            "{cell}: epoch {e} made {count} allocations >= 64 KiB: {}",
                            census.offenders()
                        ));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
