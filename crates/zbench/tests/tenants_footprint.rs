//! Peak-heap audit of the tenants sweep.
//!
//! `zbench tenants` runs each mix's interleaved stream through every
//! mode's cache a chunk at a time, so what it holds at once is the
//! mode caches and one chunk, not a buffer that grows with the number
//! of references. A counting global allocator tracks the bytes live at
//! once and makes that a hard test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zbench::exp_tenants::{self, TenantOpts};

struct CountingAlloc;

thread_local! {
    /// Bytes the current thread allocated less those it freed (signed:
    /// a thread may free what another allocated), and the highest value
    /// since [`reset_peak`]. Per thread, because the test harness runs
    /// tests on parallel threads.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves the live byte count by `delta`, raising the peak with it.
fn count_live(delta: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
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
        count_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most bytes live at once during `exp_tenants::run` at `accesses`
/// references per mix on one worker, over what was live before it.
fn sweep_peak(accesses: usize) -> i64 {
    let opts = TenantOpts {
        accesses,
        jobs: 1,
        ..TenantOpts::default()
    };
    let before = reset_peak();
    let summaries = exp_tenants::run(&opts);
    let peak = PEAK.with(Cell::get) - before;
    assert_eq!(summaries.len(), 2, "both standard mixes ran");
    peak
}

/// At one worker the sweep's peak is the first mix's, zipf-hot+scans
/// with three tenants: its mode caches as built, the partitioned cache
/// with three walk-budget duels (64 552 bytes), the shared cache
/// (34 216) and three solo caches (31 272 each), 192 584 bytes in all,
/// beside the 32 KiB chunk. The bound allows 32 KiB more for the
/// stream's generators, the Zipf tables and the caches' walk buffers;
/// both runs peak at 248 178 bytes. A sweep point per (mix, mode) pair
/// that held the mix's whole stream, 16 bytes per reference, peaked at
/// 207 268 and 1 103 268 bytes.
#[test]
fn sweep_peak_is_the_mode_caches_and_one_chunk() {
    const CACHES: i64 = 64_552 + 34_216 + 3 * 31_272;
    const CHUNK: i64 = 2048 * 16;
    const BOUND: i64 = CACHES + CHUNK + (32 << 10);
    let short = sweep_peak(8_000);
    let long = sweep_peak(64_000);
    assert!(
        (long - short).abs() <= 1 << 10,
        "the peak moved with the stream: {short} bytes at 8 000 references, {long} at 64 000"
    );
    for (refs, peak) in [(8_000, short), (64_000, long)] {
        assert!(
            peak <= BOUND,
            "the sweep at {refs} references peaked at {peak} bytes, over the bound of {BOUND}"
        );
    }
}
