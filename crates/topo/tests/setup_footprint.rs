//! Bound on what building a large network asks the allocator for.
//!
//! A counting global allocator tracks the peak of live *requested*
//! bytes while `build_network` constructs each `scale2` cell (1024- and
//! 512-router networks). Requested bytes are deterministic, unlike
//! RSS: a zeroed allocation the kernel backs lazily still counts in
//! full, so this catches tables that reserve address space nobody
//! touches (a full 2^24-entry DIR-24-8 base per FIB, or fabric queues
//! presized to their capacity) even where RSS would not show them.
//!
//! Lives in its own integration-test binary because
//! `#[global_allocator]` is per-binary (same pattern as
//! `net_hotpath_noalloc.rs`), and keeps to one `#[test]` so no
//! concurrent test pollutes the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use dra_topo::engine::build_network;
use dra_topo::registry::scale2;

struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Both blocks are live while the contents move.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Ceiling on the peak live bytes one cell's construction may request.
const BUDGET_BYTES: usize = 256 << 20;

#[test]
fn scale2_cells_build_within_budget() {
    let spec = scale2(false);
    let mut report = Vec::new();
    for cell in &spec.cells {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let net = build_network(cell, spec.master_seed, 0);
        let peak = PEAK.load(Ordering::Relaxed) - before;
        drop(net);
        report.push((cell.id.clone(), peak));
    }
    for (label, peak) in &report {
        println!("{label}: peak {:.1} MB requested", *peak as f64 / 1e6);
    }
    for (label, peak) in &report {
        assert!(
            *peak < BUDGET_BYTES,
            "{label}: building requested a peak of {:.1} MB (budget {} MB)",
            *peak as f64 / 1e6,
            BUDGET_BYTES >> 20
        );
    }
}
