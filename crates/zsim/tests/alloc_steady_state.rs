//! Allocation audit for the full zsim access chain.
//!
//! `System::access` (L1 → MESI directory → banked L2 → bank ports →
//! memory channels) is the execution-mode inner loop; after warm-up it
//! must not touch the heap. The L1/L2 access engines reuse their walk
//! buffers, the directory lives in the L2's frames, and ports/memory
//! are fixed arrays — a counting global allocator makes that a hard
//! test rather than a bench note.
//!
//! The same allocator counts the bytes it hands out, which bounds what
//! building a machine costs: its banks, L1s and one directory entry per
//! L2 frame, not a keyed table with slack. It also tracks the bytes live
//! at once, which bounds the trace pipeline's buffers: a trace trimmed
//! to its length, and an OPT oracle pass whose only scratch is a table
//! of 4-byte positions.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::cell::Cell;
use std::collections::HashSet;

use zsim::trace::{record_trace_into, L2Trace};
use zsim::{L2Design, SimConfig, System};
use zworkloads::suite::{by_name, Scale};
use zworkloads::ZipfCache;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. The tests below run on
    /// parallel threads, and one test's warm-up allocations must not
    /// land in another's steady-state window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread's allocations asked for (a reallocation
    /// counts its new size), freed or not.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes the current thread allocated less those it freed (signed:
    /// a thread may free what another allocated), and the highest value
    /// since [`reset_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation or reallocation handing out `bytes`.
fn count_alloc(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Moves the live byte count by `delta`, raising the peak with it.
fn count_live(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Starts a new peak window at the current live count, which it returns.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        count_live(layout.size() as i64);
        unsafe { SysAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        unsafe { SysAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // By its size change, as the benchmark's allocator counts it.
        count_live(new_size as i64 - layout.size() as i64);
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

/// `System::new` for the exec-z4-52 machine (SMALL, 32 cores, Z4/52)
/// allocates 634 976 bytes: eight L2 banks of 54 176 (2048 frames
/// each, one 2.5 KiB H3 row table, and the fixed-shape walk's buffers
/// of 8 bytes per candidate), 32 L1s of 1 088, the
/// directory's 133 120 (an 8-byte sharer mask and a modified bit per
/// frame), the L1 home table's 8 192 (the 4-byte L2 frame of each of
/// the 32 × 64 L1 frames' lines) and 25 440 of cache structs, bank
/// ports and memory channels. The bound allows 4 KiB over that; a keyed
/// directory at load factor ≤ 0.5 took 786 432 bytes on its own, and
/// byte-sliced H3 tables 126 976 more.
#[test]
fn system_new_allocates_one_directory_entry_per_frame() {
    const BOUND: u64 = 634_976 + (4 << 10);
    let mut cfg = SimConfig::small();
    cfg.cores = 32;
    let cfg = cfg.with_l2(L2Design::zcache(4, 3));
    let before = BYTES.with(Cell::get);
    let sys = System::new(cfg);
    let bytes = BYTES.with(Cell::get) - before;
    assert!(
        bytes <= BOUND,
        "System::new allocated {bytes} bytes, over the bound of {BOUND}"
    );
    drop(sys);
}

/// The trace pipeline of a fig4-sweep point (SMALL, 8 cores × 25 000
/// instructions) keeps each buffer at its size. Each recording leaves
/// the trace trimmed to its length, also after a shorter trace trimmed
/// the buffer first. The OPT oracle pass over a trace of D distinct
/// lines holds, besides its 4-byte-per-reference output, at most the
/// last two sizes of a 4-byte-per-slot table at load ≤ ½:
/// 4 B × 1.5 × `next_power_of_two(2D)` (the table starts at 1 024
/// slots, so the bound holds from D = 256). A line → position map of 12
/// bytes per slot (an 8-byte key and a 4-byte value) would hold three
/// times that.
#[test]
fn trace_pipeline_holds_no_slack() {
    let mut cfg = SimConfig::small();
    cfg.cores = 8;
    cfg.instrs_per_core = 25_000;
    let mut zipf = ZipfCache::new();
    let mut trace = L2Trace::default();
    for name in ["swim", "blackscholes", "canneal"] {
        let wl = by_name(name, 8, Scale::SMALL).unwrap();
        record_trace_into(&cfg, &wl, &mut zipf, &mut trace);
        assert_eq!(trace.refs.capacity(), trace.len(), "{name}: trace slack");

        let distinct = trace
            .refs
            .iter()
            .map(|r| r.line)
            .collect::<HashSet<_>>()
            .len();
        let bound = 4 * 3 * (2 * distinct).next_power_of_two() / 2;
        let before = reset_peak();
        let next = trace.next_uses();
        let pass = PEAK.with(Cell::get) - before - (4 * next.len()) as i64;
        assert!(
            pass <= bound as i64,
            "{name}: the oracle pass over {} references of {distinct} lines held {pass} \
             bytes beside its output, over the bound of {bound}",
            trace.len()
        );
    }
}
