//! Steady-state allocation audit for the full zsim access chain.
//!
//! `System::access` (L1 → MESI directory → banked L2 → bank ports →
//! memory channels) is the execution-mode inner loop; after warm-up it
//! must not touch the heap. The L1/L2 access engines reuse their walk
//! buffers (PR 2/4), the directory is a pre-sized seeded open-addressing
//! table, and ports/memory are fixed arrays — a counting global
//! allocator makes that a hard test rather than a bench note.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::cell::Cell;

use zsim::{L2Design, SimConfig, System};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The tests below run on
    /// parallel threads, and one test's warm-up allocations must not
    /// land in another's steady-state window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { SysAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Drives `steps` references through the system: every core touches a
/// mix of private-chase misses (L2 fills + inclusion victims + memory),
/// shared lines (directory up/downgrades, invalidation rounds) and
/// writes — the whole access chain, not just the happy path.
fn drive(sys: &mut System, seed: u64, steps: u64) {
    let cores = sys.config().cores;
    let mut x = seed | 1;
    let mut now = 0u64;
    for i in 0..steps {
        // xorshift64 address variety over a footprint far beyond the L2.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let core = (i % u64::from(cores)) as u32;
        let shared = x.is_multiple_of(8);
        let line = if shared {
            0x5_0000 + (x >> 8) % 64
        } else {
            (u64::from(core) << 32) | ((x >> 8) % 200_000)
        };
        let write = x.is_multiple_of(4);
        now += 1 + sys.access(core, line, write, now);
    }
}

fn assert_steady(design: L2Design, label: &str) {
    let mut cfg = SimConfig::small();
    cfg.cores = 4;
    let mut sys = System::new(cfg.with_l2(design));
    // Warm-up: fill both cache levels and the directory, let every
    // reusable buffer reach its steady-state capacity.
    drive(&mut sys, 0x9e37_79b9, 60_000);
    // Steady state: fresh addresses, misses, evictions, coherence.
    let before = ALLOCS.with(Cell::get);
    drive(&mut sys, 0x51ed_2701, 30_000);
    let after = ALLOCS.with(Cell::get);
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state System::access allocated {} time(s)",
        after - before
    );
}

#[test]
fn setassoc_system_access_is_allocation_free() {
    assert_steady(L2Design::setassoc(4), "SA-4");
}

#[test]
fn zcache_system_access_is_allocation_free() {
    assert_steady(L2Design::zcache(4, 3), "Z4/52");
}
