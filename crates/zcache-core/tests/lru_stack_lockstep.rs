//! `LruStack` against the simulated fully-associative LRU cache it
//! replaces as the conflict-miss reference, access by access.
//!
//! Every stream is run through both `LruStack` and
//! `Cache<FullyAssocArray, FullLru>`; hit/miss must agree on every
//! access and the final miss counts must match. The same streams are
//! checked against the stack property directly: with `d` the
//! `StackProfiler` distance, an access hits iff `d < C`.
//!
//! The capacities include 1 and 2, where the recency list's sentinel
//! links wrap onto themselves, and the streams include a cyclic scan
//! of `C + 1` lines (LRU's worst case: every access misses) and of
//! exactly `C` lines (every access after the first pass hits). An
//! off-by-one capacity (hit iff `d <= C`) or evicting the most instead
//! of the least recently used line fails here.
//!
//! The victim buffer of `VictimCache` is an `LruStack` filled with
//! `insert` and probed with `remove`. It runs here against the buffer it
//! replaced, a `Cache<FullyAssocArray, FullLru>` filled with
//! `access_full` and probed with `invalidate`: first operation by
//! operation with random dirty bits, then as a whole victim cache whose
//! outcomes and buffer counters must match after every access.

use zcache_core::{
    AccessOutcome, ArrayKind, Cache, CacheBuilder, CacheStats, DynCache, FullLru, FullyAssocArray,
    LruStack, VictimCache,
};
use zhash::HashKind;
use zhash::SplitMix64;
use zworkloads::profile::StackProfiler;
use zworkloads::ZipfTable;

const CAPACITIES: [u64; 4] = [1, 2, 64, 4096];

/// The named test streams for capacity `c`.
fn streams(c: u64) -> Vec<(&'static str, Vec<u64>)> {
    let n = (3 * c).max(2_000);
    let universe = 2 * c + 5;
    let mut rng = SplitMix64::new(0x1a0c ^ c);
    let zipf = ZipfTable::new(universe, 0.9);
    vec![
        ("zipf", (0..n).map(|_| zipf.sample(&mut rng) * 64).collect()),
        (
            "uniform",
            (0..n).map(|_| rng.next_below(universe) + 1).collect(),
        ),
        ("scan C+1", (0..n).map(|i| i % (c + 1)).collect()),
        ("scan C", (0..n).map(|i| 1000 + i % c).collect()),
    ]
}

/// Runs `stream` through every reference model in lockstep and returns
/// the miss count they agree on.
fn lockstep(c: u64, label: &str, stream: &[u64]) -> u64 {
    let mut stack = LruStack::new(c);
    let mut sim = Cache::new(FullyAssocArray::new(c), FullLru::new(c));
    let mut profiler = StackProfiler::new();
    let mut misses = 0u64;
    for (i, &line) in stream.iter().enumerate() {
        let hit = stack.access(line);
        let sim_hit = !sim.access(line).is_miss();
        assert_eq!(hit, sim_hit, "C={c} {label}: access {i} (line {line})");
        let by_distance = profiler.record(line).is_some_and(|d| d < c);
        assert_eq!(hit, by_distance, "C={c} {label}: stack distance at {i}");
        misses += u64::from(!hit);
    }
    assert_eq!(misses, sim.stats().misses, "C={c} {label}: miss count");
    assert_eq!(stack.len(), sim.occupancy(), "C={c} {label}: occupancy");
    misses
}

#[test]
fn lru_stack_matches_fully_associative_lru() {
    for c in CAPACITIES {
        for (label, stream) in streams(c) {
            let misses = lockstep(c, label, &stream);
            let n = stream.len() as u64;
            match label {
                "scan C+1" => assert_eq!(misses, n, "C={c}: cyclic scan must always miss"),
                "scan C" => assert_eq!(misses, c, "C={c}: a fitting scan misses once per line"),
                _ => assert!(0 < misses && misses < n, "C={c} {label}: {misses}/{n}"),
            }
        }
    }
}

#[test]
fn buffer_operations_match_the_fully_associative_cache() {
    for c in [1, 2, 64] {
        let mut stack = LruStack::new(c);
        let mut sim = Cache::new(FullyAssocArray::new(c), FullLru::new(c));
        let mut rng = SplitMix64::new(0xb0ff ^ c);
        let (mut dirty_evictions, mut removals) = (0, 0);
        for i in 0..20_000 {
            let line = rng.next_below(2 * c + 5);
            let dirty = rng.next_below(2) == 0;
            let at = format!("C={c}: op {i} (line {line})");
            match rng.next_below(3) {
                0 if !sim.contains(line) => {
                    let out = sim.access_full(line, dirty, u64::MAX);
                    let evicted = out.evicted.map(|e| (e, out.evicted_dirty));
                    assert_eq!(stack.insert(line, dirty), evicted, "{at}: insert");
                    dirty_evictions += u32::from(out.evicted_dirty);
                }
                1 => {
                    let gone = sim.invalidate(line);
                    assert_eq!(stack.remove(line), gone, "{at}: remove");
                    removals += u32::from(gone.is_some());
                }
                _ => {
                    let hit = !sim.access(line).is_miss();
                    assert_eq!(stack.access(line), hit, "{at}: access");
                }
            }
            assert_eq!(stack.len(), sim.occupancy(), "{at}: occupancy");
        }
        assert!(
            dirty_evictions > 0 && removals > 0,
            "C={c}: dirty paths not exercised"
        );
    }
}

/// `VictimCache` as it was built on the simulated buffer: the reference
/// for its `LruStack` buffer.
struct CacheBufferVictim {
    main: DynCache,
    buffer: Cache<FullyAssocArray, FullLru>,
}

impl CacheBufferVictim {
    fn access(&mut self, addr: u64) -> AccessOutcome {
        let main_out = self.main.access(addr);
        if main_out.hit {
            return main_out;
        }
        let hit = self.buffer.invalidate(addr).is_some();
        let mut out = AccessOutcome {
            hit,
            evicted: None,
            evicted_dirty: false,
            slot: main_out.slot,
        };
        if let Some(ev) = main_out.evicted {
            let buf = self
                .buffer
                .access_full(ev, main_out.evicted_dirty, u64::MAX);
            out.evicted = buf.evicted;
            out.evicted_dirty = buf.evicted_dirty;
        }
        out
    }
}

/// The counters `VictimCache::buffer_stats` keeps.
fn counters(s: &CacheStats) -> [u64; 6] {
    [
        s.accesses,
        s.hits,
        s.misses,
        s.evictions,
        s.writebacks,
        s.invalidations,
    ]
}

#[test]
fn victim_buffer_matches_the_cache_buffer() {
    let (lines, sets) = (64u64, 16u64);
    // Mostly three hot sets, so their ways overflow into the buffer.
    let next_addr = |rng: &mut SplitMix64| {
        if rng.next_below(4) < 3 {
            rng.next_below(8) * sets + rng.next_below(3)
        } else {
            rng.next_below(4 * lines)
        }
    };
    let (mut dirty_exits, mut dirty_recoveries) = (0, 0);
    for buffer in [1, 4, 64] {
        for run in 0..40 {
            // Main caches start with dirty lines, the only ones a victim
            // cache (which only reads) can push into its buffer.
            let mut main = CacheBuilder::new()
                .lines(lines)
                .ways(4)
                .array(ArrayKind::SetAssoc {
                    hash: HashKind::BitSelect,
                })
                .build_lru();
            let mut rng = SplitMix64::new(run * 131 + buffer);
            for _ in 0..lines {
                main.access_write(next_addr(&mut rng));
            }
            let mut dut = VictimCache::new(main.clone(), buffer);
            let mut reference = CacheBufferVictim {
                main,
                buffer: Cache::new(FullyAssocArray::new(buffer), FullLru::new(buffer)),
            };
            for i in 0..1_000 {
                let addr = next_addr(&mut rng);
                let at = format!("buffer {buffer}, run {run}: access {i} ({addr:#x})");
                let before = reference.buffer.stats().writebacks;
                let want = reference.access(addr);
                assert_eq!(dut.access(addr), want, "{at}: outcome");
                assert_eq!(
                    counters(dut.buffer_stats()),
                    counters(reference.buffer.stats()),
                    "{at}: buffer counters"
                );
                dirty_exits += u32::from(want.evicted_dirty);
                let writebacks = reference.buffer.stats().writebacks - before;
                dirty_recoveries += u32::from(writebacks > u64::from(want.evicted_dirty));
            }
        }
    }
    assert!(
        dirty_exits > 0 && dirty_recoveries > 0,
        "dirty paths not exercised: {dirty_exits} dirty exits, {dirty_recoveries} recoveries"
    );
}
