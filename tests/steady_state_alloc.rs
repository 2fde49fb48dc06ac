//! Steady-state epochs allocate nothing large (DESIGN.md §16).
//!
//! Every `n x f`-proportional buffer of an epoch comes out of the
//! trainer's workspace, which is filled during the first epochs and then
//! only recycled. Pinned here on the thread transport, for each of the
//! five trainers × {Dense, SparsityAware, Cached{refresh: 2}} × overlap
//! {on, off}, at shapes where every block × f buffer is at least
//! 256 KiB: four epochs, each followed by an `accuracy()` pass, and **no
//! allocation of 64 KiB or more in epochs 3 and 4** (cached: one refresh
//! and one serve epoch). The training forward keeps the output
//! probabilities (a block x f buffer of its own) for the backward and the
//! inference forward inside `accuracy()` does not, so the alternation
//! also shows that buffer leaving and re-entering the pool. The 1D and 2D
//! trainers run again with layer-0 operands 192 columns wide, where SpMM
//! packs tiles of `B` into a pooled buffer, and so does the serial
//! reference. The epoch-1 census is printed per cell — that is the
//! workspace being built, and its total is the workspace footprint.
//!
//! Allocation sizes are observed through a counting global allocator,
//! which is why this lives in its own test binary with a single test.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use cagnet::comm::Cluster;
use cagnet::core::trainer::Algorithm;
use cagnet::core::{CommMode, GcnConfig, Problem, SerialTrainer};
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
    //
    // The last two cells have layer-0 stage operands 192 columns wide
    // (2D multiplies f/2), past the 128 where SpMM starts packing `B`
    // tile by tile into a pooled buffer of rows(B) x 32: 128 and 256 KiB
    // here. Their hidden widths keep the weight gradients under the line,
    // and in 2D the hidden blocks too: the cached tier there takes until
    // epoch 5 to stop re-allocating a 64-80 KiB `Z` block whose kept
    // buffer a smaller request borrowed (with or without a pack buffer
    // in the pool), which is not what these cells are about.
    let narrow = GcnConfig::three_layer(64, 64, 64);
    let wide = GcnConfig::three_layer(192, 32, 32);
    let cells = [
        (Algorithm::OneD, 2, 1024, narrow.clone()),
        (Algorithm::OneDRow, 2, 1024, narrow.clone()),
        (Algorithm::One5D { c: 2 }, 4, 2048, narrow.clone()),
        (Algorithm::TwoD, 4, 2048, narrow.clone()),
        (Algorithm::ThreeD, 8, 4096, narrow),
        (Algorithm::OneD, 2, 1024, wide.clone()),
        (Algorithm::TwoD, 4, 2048, GcnConfig::three_layer(384, 8, 8)),
    ];
    let modes = [
        CommMode::Dense,
        CommMode::SparsityAware,
        CommMode::Cached { refresh: 2 },
    ];
    let mut failures = Vec::new();
    for (algo, p, n, gcn) in cells {
        let (f, classes) = (gcn.dims[0], gcn.dims[3]);
        let problem = Problem::synthetic(&erdos_renyi(n, 2.0, 11), f, classes, 1.0, 12);
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
                        let _ = trainer.accuracy(ctx);
                        ctx.world.barrier();
                        if ctx.rank == 0 {
                            EPOCH.store(0, SeqCst);
                        }
                    }
                });
                let name = algo.name();
                judge(
                    format!("{name} P={p} n={n} f={f} {mode:?} overlap={overlap}"),
                    &mut failures,
                );
            }
        }
    }

    // The serial reference keeps the same kind of workspace, wide pack
    // buffer (1024 x 32) included.
    let problem = Problem::synthetic(&erdos_renyi(1024, 2.0, 11), 192, 32, 1.0, 12);
    CENSUS.iter().for_each(Census::clear);
    let mut serial = SerialTrainer::new(&problem, wide);
    for e in 1..=EPOCHS {
        EPOCH.store(e, SeqCst);
        serial.epoch();
        let _ = serial.accuracy();
        EPOCH.store(0, SeqCst);
    }
    judge("serial n=1024 f=192".to_string(), &mut failures);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Print the epoch-1 census of `cell` and record a failure for each of
/// epochs 3 and 4 that allocated anything large.
fn judge(cell: String, failures: &mut Vec<String>) {
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
