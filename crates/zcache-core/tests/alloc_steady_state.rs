//! Steady-state allocation audit for the zcache hot path.
//!
//! The miss path (`lookup` → `candidates` → `install`) is the
//! simulator's inner loop; after warm-up it must not touch the heap.
//! A counting global allocator makes that a hard test rather than a
//! bench note: the walk table, its path/stack buffers, the caller's
//! `CandidateSet` and the `InstallOutcome` move list are all reusable
//! buffers that reach their steady-state capacity during warm-up.
//!
//! The same allocator counts the bytes it hands out, which bounds what
//! building an array costs: its frames and one row table, not tables
//! that grow with the hash width.
//!
//! The counts are per thread: the test harness runs tests on parallel
//! threads, and one test's set-up must not land in another's window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zcache_core::{
    AdaptiveConfig, CacheArray, CandidateSet, FullLru, InstallOutcome, LruStack, PartitionConfig,
    PartitionedCache, PolicyKind, SetAssocArray, ShadowDuel, TenantGrant, WalkKind, ZArray,
};
use zhash::HashKind;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation or reallocation handing out `bytes`.
fn count_alloc(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread's allocations have asked for so far (a
/// reallocation counts its new size), freed or not.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Drives `steps` misses through the array, always evicting the first
/// non-empty candidate (worst case for relocation-chain length when the
/// set is walked deepest-first is irrelevant here — any victim works).
fn drive(z: &mut ZArray, cands: &mut CandidateSet, out: &mut InstallOutcome, lo: u64, steps: u64) {
    for a in lo..lo + steps {
        if z.lookup(a).is_some() {
            continue;
        }
        z.candidates(a, cands);
        let victim = cands
            .first_empty()
            .copied()
            .unwrap_or_else(|| *cands.as_slice().last().unwrap());
        z.install(a, &victim, out);
    }
}

fn assert_steady(mut z: ZArray, label: &str) {
    let mut cands = CandidateSet::new();
    let mut out = InstallOutcome::default();
    // Warm-up: fill the array and let every reusable buffer reach its
    // steady-state capacity.
    drive(&mut z, &mut cands, &mut out, 0, 4_000);
    // Steady state: misses on fresh addresses, full walks, deep victims.
    let before = allocs();
    drive(&mut z, &mut cands, &mut out, 1_000_000, 2_000);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state walk/install path allocated {} time(s)",
        after - before
    );
}

#[test]
fn bfs_install_path_is_allocation_free() {
    assert_steady(ZArray::new(1 << 10, 4, 3, 7), "Z4/52 BFS");
}

/// The other walk shapes the benchmarked designs use: the one-level
/// skew cache, the two-level Z4/16 and a Z4/52 capped at 16 candidates
/// (the middle walk-budget tier of serve and tenants).
#[test]
fn other_bfs_shapes_are_allocation_free() {
    assert_steady(ZArray::new(1 << 10, 4, 1, 7), "Z4/4 BFS");
    assert_steady(ZArray::new(1 << 10, 4, 2, 7), "Z4/16 BFS");
    assert_steady(
        ZArray::new(1 << 10, 4, 3, 7).with_max_candidates(16),
        "Z4/52 BFS capped at 16",
    );
}

#[test]
fn dfs_install_path_is_allocation_free() {
    assert_steady(
        ZArray::new(1 << 10, 4, 3, 7).with_walk_kind(WalkKind::Dfs),
        "Z4/52 DFS",
    );
}

/// The multi-tenant wrapper layers quota-aware victim selection (a key
/// rule over each candidate's line and score) and per-tenant
/// bookkeeping on top of the walk; none of it may allocate once the
/// shared array's buffers reach steady-state capacity.
#[test]
fn partitioned_access_path_is_allocation_free() {
    let cfg = PartitionConfig::new(
        1 << 10,
        4,
        3,
        PolicyKind::Lru,
        7,
        vec![
            TenantGrant {
                quota: 600,
                walk_budget: u32::MAX,
            },
            TenantGrant {
                quota: 300,
                // A capped walk stops mid-level, next to the other
                // tenant's full walks.
                walk_budget: 20,
            },
        ],
    );
    let mut part = PartitionedCache::new(&cfg);
    let drive = |part: &mut PartitionedCache, lo: u64, steps: u64| {
        for a in lo..lo + steps {
            // Both tenants miss, walk under different budgets, and evict
            // across quota boundaries; every third access is a write.
            part.access(0, a, a % 3 == 0);
            part.access(1, a ^ 0x5a5a, false);
        }
    };
    drive(&mut part, 0, 4_000);
    let before = allocs();
    drive(&mut part, 1_000_000, 2_000);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "partitioned steady-state access path allocated {} time(s)",
        after - before
    );
}

/// The fully-associative LRU reference preallocates its index and
/// recency list: once full, hits relink nodes and misses recycle the
/// least recently used one, so neither may touch the heap.
#[test]
fn lru_stack_access_is_allocation_free() {
    let mut lru = LruStack::new(1 << 10);
    let drive = |lru: &mut LruStack, lo: u64, steps: u64| {
        for a in lo..lo + steps {
            // Fresh lines miss and evict; the short-period repeats hit.
            lru.access(a);
            lru.access(lo + a % 97);
        }
    };
    drive(&mut lru, 0, 2_000);
    assert_eq!(lru.len(), 1 << 10);
    let before = allocs();
    drive(&mut lru, 1_000_000, 4_000);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "LruStack steady-state access allocated {} time(s)",
        after - before
    );
}

/// Runs `build` and returns what it built with the bytes it allocated.
fn built<T>(build: impl FnOnce() -> T) -> (T, u64) {
    let before = bytes();
    let built = build();
    (built, bytes() - before)
}

/// One [`zhash::Gf2Table`]: 64 columns and 16 nibble tables of 16
/// images, 8 bytes each, in one allocation of 2.5 KiB.
const GF2_TABLE: u64 = 64 * 8 + 16 * 16 * 8;

/// A zsim L2 bank's array, 2048 frames of a Z4/52: its 16-byte frames,
/// one table of four 16-bit row lanes and the walk buffers sized to 52
/// candidates, 24 bytes each (a 12-byte node link, and a 4-byte entry
/// each of the skip list, the install path and the DFS stack): 1 248
/// bytes, where 24-byte walk nodes made them 1 664. Byte-sliced lanes
/// took 16 KiB, and the four H3 matrices kept beside them 2 KiB more;
/// tables of full 64-bit hashes per way would add 48 KiB at least.
#[test]
fn zarray_footprint_is_frames_and_one_row_table() {
    const FRAMES: u64 = 2048 * 16;
    const WALK: u64 = 52 * 24;
    for seed in [1, 7] {
        let (z, got) = built(|| ZArray::new(2048, 4, 3, seed));
        assert_eq!(z.lines(), 2048);
        assert_eq!(
            got,
            FRAMES + GF2_TABLE + WALK,
            "ZArray::new(2048, 4, 3, {seed})"
        );
    }
}

/// The hashed set-associative baseline of 4096 frames: its 8-byte tags
/// and one H3 table, nothing else.
#[test]
fn set_assoc_h3_footprint_is_tags_and_one_table() {
    const TAGS: u64 = 4096 * 8;
    for seed in [1, 7] {
        let (a, got) = built(|| SetAssocArray::new(4096, 4, HashKind::H3, seed));
        assert_eq!(a.lines(), 4096);
        assert_eq!(
            got,
            TAGS + GF2_TABLE,
            "SetAssocArray::new(4096, 4, H3, {seed})"
        );
    }
}

/// The walk-budget duel of a 1024-frame cache: two 64-frame shadow
/// Z4 caches (1 in 16 lines sampled), each its frames (1 KiB), one row
/// table (2.5 KiB) and its policy and walk buffers. Both together
/// allocate 9 664 bytes (10 112 with 24-byte walk nodes); the bound
/// allows 1 KiB more per shadow.
#[test]
fn shadow_duel_footprint_is_two_small_caches() {
    const BOUND: u64 = 9_664 + 2 * (1 << 10);
    let (_duel, got) =
        built(|| ShadowDuel::for_geometry(1024, 4, 3, FullLru::new, AdaptiveConfig::default()));
    assert!(
        got <= BOUND,
        "ShadowDuel of 1024 frames allocated {got} bytes, over {BOUND}"
    );
}
