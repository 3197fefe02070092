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

use zcache_core::{Cache, FullLru, FullyAssocArray, LruStack};
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
