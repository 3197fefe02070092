//! Peak heap of the run, from a counting global allocator.
//!
//! The resident set (`VmHWM`) of these few-megabyte processes jumps by a
//! megabyte whenever glibc serves one large buffer from fresh pages
//! instead of reused ones, and that choice flips between two builds of
//! the same code. The bytes allocated and not yet freed depend only on
//! what the program allocates, so their peak repeats exactly per seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`], counting the bytes it hands out.
pub struct Counting;

// The counters are statistics: they publish no other data, so relaxed
// ordering suffices (the benchmark is single-threaded anyway).
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the same as the one our callers uphold, and returns
// its result unchanged; the counting touches no memory the allocator
// manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; see the impl comment.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; `System` keeps calloc's lazily zeroed
        // pages, which the default (alloc, then memset) would touch.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is; see the impl comment.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded as is; see the impl comment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Peak bytes allocated and not yet freed since the process started, in
/// MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_live_allocation() {
        let before = peak_mb();
        let big = vec![1u8; 64 << 20];
        assert!(peak_mb() >= 64.0, "peak {} MiB with 64 MiB live", peak_mb());
        drop(big);
        assert!(peak_mb() >= before);
    }
}
