//! Victim-cache baseline (§II-B of the paper).
//!
//! One of the §II alternatives to higher associativity: keep a small
//! fully-associative buffer next to the main cache that captures evicted
//! blocks, so short-lived conflict victims can be recovered without a
//! round trip to the next level (Jouppi, 1990). The paper's critique —
//! which this implementation lets you measure — is that victim caches
//! "work poorly with a sizable amount of conflict misses in several hot
//! ways" and charge extra latency and energy on every main-cache miss,
//! hit or not.

use crate::array::CacheArray;
use crate::cache::{AccessOutcome, Cache};
use crate::lru_stack::LruStack;
use crate::repl::ReplacementPolicy;
use crate::stats::CacheStats;
use crate::types::LineAddr;

/// A main cache backed by a small fully-associative victim buffer.
///
/// On a main-cache miss the victim buffer is probed; a victim-buffer hit
/// swaps the block back into the main cache (evicting a block into the
/// buffer), and a full miss fills the main cache with the displaced
/// block landing in the buffer.
///
/// The buffer is an [`LruStack`], so a probe and a fill cost `O(1)`
/// whatever its size. A buffered line is never re-referenced while
/// buffered (a probe hit removes it), so its LRU order is insertion
/// order.
///
/// # Examples
///
/// ```
/// use zcache_core::{CacheBuilder, ArrayKind, VictimCache};
/// use zhash::HashKind;
///
/// let main = CacheBuilder::new()
///     .lines(256)
///     .ways(4)
///     .array(ArrayKind::SetAssoc { hash: HashKind::BitSelect })
///     .build_lru();
/// let mut vc = VictimCache::new(main, 16);
/// assert!(vc.access(42).is_miss());
/// assert!(vc.access(42).hit);
/// ```
#[derive(Debug, Clone)]
pub struct VictimCache<A, P> {
    main: Cache<A, P>,
    buffer: LruStack,
    /// The buffer's fills, evictions, write-backs and invalidations.
    buffer_stats: CacheStats,
    victim_hits: u64,
    victim_probes: u64,
}

impl<A: CacheArray, P: ReplacementPolicy> VictimCache<A, P> {
    /// Wraps `main` with a fully-associative victim buffer of
    /// `buffer_lines` entries.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_lines == 0`.
    pub fn new(main: Cache<A, P>, buffer_lines: u64) -> Self {
        assert!(buffer_lines > 0, "victim buffer needs at least one line");
        Self {
            main,
            buffer: LruStack::new(buffer_lines),
            buffer_stats: CacheStats::new(),
            victim_hits: 0,
            victim_probes: 0,
        }
    }

    /// Performs one access.
    ///
    /// The returned outcome reports a *hit* for both main-cache hits and
    /// victim-buffer hits (no next-level traffic); `evicted` reports the
    /// block that left the victim-cache *system*, if any, and `slot` the
    /// block's frame in the main cache, where a buffer hit moves it back.
    pub fn access(&mut self, addr: LineAddr) -> AccessOutcome {
        let main_out = self.main.access(addr);
        if main_out.hit {
            return main_out;
        }

        // A buffer hit moves the block back into the main cache.
        self.victim_probes += 1;
        let stats = &mut self.buffer_stats;
        let recovered = self.buffer.remove(addr);
        if let Some(dirty) = recovered {
            self.victim_hits += 1;
            stats.invalidations += 1;
            stats.writebacks += u64::from(dirty);
        }
        // The block displaced from the main cache goes into the buffer.
        let mut out = AccessOutcome {
            hit: recovered.is_some(),
            evicted: None,
            evicted_dirty: false,
            slot: main_out.slot,
        };
        if let Some(ev) = main_out.evicted {
            stats.accesses += 1;
            stats.misses += 1;
            if let Some((gone, dirty)) = self.buffer.insert(ev, main_out.evicted_dirty) {
                stats.evictions += 1;
                stats.writebacks += u64::from(dirty);
                out.evicted = Some(gone);
                out.evicted_dirty = dirty;
            }
        }
        out
    }

    /// Fraction of main-cache misses recovered from the victim buffer.
    pub fn victim_hit_rate(&self) -> f64 {
        if self.victim_probes == 0 {
            0.0
        } else {
            self.victim_hits as f64 / self.victim_probes as f64
        }
    }

    /// Misses that left the victim-cache system entirely.
    pub fn system_misses(&self) -> u64 {
        self.victim_probes - self.victim_hits
    }

    /// Accesses seen.
    pub fn accesses(&self) -> u64 {
        self.main.stats().accesses
    }

    /// System miss rate: misses that neither the main cache nor the
    /// buffer could serve.
    pub fn system_miss_rate(&self) -> f64 {
        let acc = self.accesses();
        if acc == 0 {
            0.0
        } else {
            self.system_misses() as f64 / acc as f64
        }
    }

    /// Statistics of the main cache.
    pub fn main_stats(&self) -> &CacheStats {
        self.main.stats()
    }

    /// Statistics of the victim buffer: accesses (fills; a buffered
    /// line is never accessed again, so every one misses), hits (none),
    /// misses, evictions, write-backs (of dirty blocks evicted or
    /// recovered) and invalidations (recovered blocks). The energy
    /// counters stay zero.
    pub fn buffer_stats(&self) -> &CacheStats {
        &self.buffer_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayKind;
    use crate::cache::CacheBuilder;
    use zhash::HashKind;

    fn vc(main_lines: u64, buffer: u64) -> VictimCache<crate::AnyArray, crate::AnyPolicy> {
        let main = CacheBuilder::new()
            .lines(main_lines)
            .ways(2)
            .array(ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            })
            .build_lru();
        VictimCache::new(main, buffer)
    }

    #[test]
    fn recovers_short_lived_conflict_victims() {
        // Three blocks ping-ponging in a 2-way set: the victim buffer
        // turns the conflict misses into buffer hits.
        let mut c = vc(32, 8);
        let sets = 16u64;
        let conflicting = [0u64, sets, 2 * sets];
        for &a in &conflicting {
            c.access(a); // cold fills
        }
        let mut buffer_hits = 0;
        for round in 0..30 {
            let a = conflicting[round % 3];
            if c.access(a).hit && round >= 3 {
                buffer_hits += 1;
            }
        }
        assert!(c.victim_hit_rate() > 0.5, "rate {}", c.victim_hit_rate());
        assert!(buffer_hits > 10);
    }

    #[test]
    fn capacity_misses_still_miss() {
        // A scan over far more lines than main + buffer can hold gains
        // nothing from the victim buffer.
        let mut c = vc(32, 8);
        for round in 0..3 {
            for a in 0..1000u64 {
                let out = c.access(a);
                if round > 0 {
                    assert!(out.is_miss(), "impossible hit on a 1000-line scan");
                }
            }
        }
        assert!(c.victim_hit_rate() < 0.05);
        assert!(c.system_miss_rate() > 0.9);
    }

    #[test]
    fn dirty_blocks_keep_dirty_through_buffer() {
        let mut c = vc(4, 2);
        // Fill set 0 (2 ways) and overflow it with writes.
        let sets = 2u64;
        c.access(0);
        let mut wrote = false;
        // Write then displace through the buffer until something dirty
        // leaves the system.
        let mut main = CacheBuilder::new()
            .lines(4)
            .ways(2)
            .array(ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            })
            .build_lru();
        main.access_write(0);
        let mut vcache = VictimCache::new(main, 1);
        for a in 1..6u64 {
            let out = vcache.access(a * sets); // all map to set 0
            if out.evicted == Some(0) {
                wrote = true;
                assert!(out.evicted_dirty, "dirty bit lost through the buffer");
            }
        }
        assert!(wrote, "the dirty block never left the system");
    }

    #[test]
    fn system_miss_accounting() {
        let mut c = vc(32, 4);
        for a in 0..100u64 {
            c.access(a);
        }
        assert_eq!(c.accesses(), 100);
        assert_eq!(
            c.system_misses() + c.victim_hits,
            c.main_stats().misses,
            "every main miss is either recovered or a system miss"
        );
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_buffer_panics() {
        let main = CacheBuilder::new().lines(32).build_lru();
        let _ = VictimCache::new(main, 0);
    }

    /// The obvious two-array model of Jouppi's scheme: per-set LRU lists
    /// mirroring bit-select indexing, plus one insertion-ordered queue
    /// for the buffer (buffer entries are never recency-refreshed —
    /// a probe hit removes them, so insertion order *is* LRU order).
    struct NaiveVictim {
        sets: Vec<std::collections::VecDeque<u64>>,
        ways: usize,
        buffer: std::collections::VecDeque<u64>,
        buffer_cap: usize,
    }

    impl NaiveVictim {
        fn new(lines: u64, ways: usize, buffer_cap: usize) -> Self {
            let sets = (lines as usize) / ways;
            assert!(sets.is_power_of_two());
            Self {
                sets: vec![Default::default(); sets],
                ways,
                buffer: Default::default(),
                buffer_cap,
            }
        }

        /// Returns `(hit, system_eviction)`.
        fn access(&mut self, addr: u64) -> (bool, Option<u64>) {
            let idx = (addr as usize) & (self.sets.len() - 1);
            let set = &mut self.sets[idx];
            if let Some(pos) = set.iter().position(|&a| a == addr) {
                set.remove(pos);
                set.push_back(addr); // refresh to MRU
                return (true, None);
            }
            let buffer_hit = if let Some(pos) = self.buffer.iter().position(|&a| a == addr) {
                self.buffer.remove(pos);
                true
            } else {
                false
            };
            let evicted = if set.len() == self.ways {
                set.pop_front() // oldest way
            } else {
                None
            };
            set.push_back(addr);
            let mut system_eviction = None;
            if let Some(ev) = evicted {
                self.buffer.push_back(ev);
                if self.buffer.len() > self.buffer_cap {
                    system_eviction = self.buffer.pop_front();
                }
            }
            (buffer_hit, system_eviction)
        }
    }

    #[test]
    fn differential_vs_naive_two_array_reference() {
        // Lockstep over a conflict-heavy stream: the production
        // VictimCache (set-assoc main + fully-assoc buffer with global
        // policies) must agree with the naive per-set model access by
        // access — hits, system evictions, and the final counters.
        let (lines, ways, buf) = (64u64, 4usize, 8usize);
        let main = CacheBuilder::new()
            .lines(lines)
            .ways(ways as u32)
            .array(ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            })
            .build_lru();
        let mut dut = VictimCache::new(main, buf as u64);
        let mut naive = NaiveVictim::new(lines, ways, buf);

        let sets = lines / ways as u64;
        let mut rng = zhash::SplitMix64::new(41);
        let mut naive_system_misses = 0u64;
        let mut naive_hits = 0u64;
        for i in 0..50_000u64 {
            // Bias toward a handful of sets so ways overflow and the
            // buffer churns; occasionally roam for capacity pressure.
            let addr = if rng.next_below(8) < 6 {
                rng.next_below(6) * sets + rng.next_below(4)
            } else {
                rng.next_below(40 * sets)
            };
            let out = dut.access(addr);
            let (nhit, nev) = naive.access(addr);
            assert_eq!(out.hit, nhit, "access #{i} ({addr:#x}): hit mismatch");
            assert_eq!(
                out.evicted, nev,
                "access #{i} ({addr:#x}): system eviction mismatch"
            );
            if nhit {
                naive_hits += 1;
            } else {
                naive_system_misses += 1;
            }
        }
        // An access misses the system iff it hits neither the main
        // cache nor the buffer, so the naive miss tally equals
        // `system_misses` directly.
        assert_eq!(dut.system_misses(), naive_system_misses);
        assert!(naive_hits > 0 && dut.victim_hits > 0, "buffer never hit");
    }
}
