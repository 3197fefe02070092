//! Conventional set-associative array, with optional index hashing.

use super::tags::{TagStore, INVALID_TAG};
use super::{ArrayKind, CacheArray, Candidate, CandidateSet, InstallOutcome};
use crate::types::{LineAddr, SlotId};
use zhash::{AnyHasher, HashKind, Hasher64};

/// A `W`-way set-associative tag array.
///
/// The index is computed from the line address with a configurable hash
/// ([`HashKind::BitSelect`] reproduces conventional indexing;
/// [`HashKind::H3`] reproduces the "hash block address" scheme of §II-A,
/// used by the paper's baseline design).
///
/// Replacement candidates for a miss are exactly the `W` blocks of the
/// indexed set.
///
/// # Examples
///
/// ```
/// use zcache_core::{CacheArray, CandidateSet, SetAssocArray};
/// use zhash::HashKind;
///
/// let mut a = SetAssocArray::new(1024, 4, HashKind::H3, 0);
/// assert_eq!(a.lines(), 1024);
/// let mut cands = CandidateSet::new();
/// a.candidates(0xabc, &mut cands);
/// assert_eq!(cands.len(), 4); // one candidate per way
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocArray {
    ways: u32,
    sets: u64,
    set_bits: u32,
    hasher: AnyHasher,
    /// `tags[set * ways + way]`, sentinel-encoded.
    tags: TagStore,
    /// Probe memo `(addr, set)` stashed by
    /// [`lookup_mut`](CacheArray::lookup_mut): on a miss, `candidates`
    /// reuses the set the lookup just hashed. The set is a pure function
    /// of the address, so the memo never goes stale.
    probe: (LineAddr, u64),
}

impl SetAssocArray {
    /// Creates an array with `lines` total frames and `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrayKind::check_geometry`] rejects the geometry:
    /// `ways == 0`, `lines` not a multiple of `ways`, or a set count
    /// that is not a power of two (required for index extraction).
    pub fn new(lines: u64, ways: u32, hash: HashKind, seed: u64) -> Self {
        (ArrayKind::SetAssoc { hash })
            .check_geometry(lines, ways)
            .unwrap_or_else(|e| panic!("{e}"));
        let sets = lines / u64::from(ways);
        Self {
            ways,
            sets,
            set_bits: sets.trailing_zeros(),
            hasher: hash.build(seed),
            tags: TagStore::new(lines as usize),
            probe: (INVALID_TAG, 0),
        }
    }

    #[inline]
    fn set_of(&self, addr: LineAddr) -> u64 {
        self.hasher.index(addr, self.set_bits)
    }

    #[inline]
    fn slot(&self, set: u64, way: u32) -> SlotId {
        SlotId((set * u64::from(self.ways) + u64::from(way)) as u32)
    }

    /// The frame of `set` holding `addr`, if any.
    #[inline]
    fn find_in(&self, set: u64, addr: LineAddr) -> Option<SlotId> {
        for way in 0..self.ways {
            let slot = self.slot(set, way);
            // Sentinel encoding makes this a single u64 compare per way.
            if self.tags.raw(slot.idx()) == addr {
                return Some(slot);
            }
        }
        None
    }

    /// The set index `addr` maps to (exposed for tests and diagnostics).
    pub fn set_index(&self, addr: LineAddr) -> u64 {
        self.set_of(addr)
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }
}

impl CacheArray for SetAssocArray {
    fn lines(&self) -> u64 {
        self.tags.len() as u64
    }

    fn ways(&self) -> u32 {
        self.ways
    }

    fn lookup(&self, addr: LineAddr) -> Option<SlotId> {
        self.find_in(self.set_of(addr), addr)
    }

    fn lookup_mut(&mut self, addr: LineAddr) -> Option<SlotId> {
        let set = self.set_of(addr);
        self.probe = (addr, set);
        self.find_in(set, addr)
    }

    fn addr_at(&self, slot: SlotId) -> Option<LineAddr> {
        self.tags.get(slot.idx())
    }

    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        out.clear();
        let set = if self.probe.0 == addr {
            self.probe.1
        } else {
            self.set_of(addr)
        };
        debug_assert_eq!(set, self.set_of(addr), "stale probe memo");
        for way in 0..self.ways {
            let slot = self.slot(set, way);
            out.push(Candidate {
                slot,
                addr: self.tags.get(slot.idx()),
                token: way,
            });
        }
        out.levels = 1;
        out.tag_reads = self.ways;
    }

    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        out.clear();
        debug_assert_eq!(
            self.set_of(addr),
            victim.slot.0 as u64 / u64::from(self.ways),
            "victim must belong to the set addr maps to"
        );
        let prev = self.tags.get(victim.slot.idx());
        debug_assert_eq!(prev, victim.addr, "stale candidate");
        self.tags.set(victim.slot.idx(), addr);
        out.evicted = prev;
        out.evicted_slot = prev.map(|_| victim.slot);
        out.filled_slot = victim.slot;
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId> {
        let slot = self.lookup(addr)?;
        self.tags.clear_slot(slot.idx());
        Some(slot)
    }

    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr)) {
        self.tags.for_each_valid(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocArray {
        SetAssocArray::new(32, 4, HashKind::BitSelect, 0)
    }

    #[test]
    fn fill_and_lookup() {
        let mut a = small();
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        a.candidates(100, &mut cands);
        let victim = *cands.first_empty().unwrap();
        a.install(100, &victim, &mut out);
        assert_eq!(out.evicted, None);
        assert_eq!(a.lookup(100), Some(out.filled_slot));
        assert_eq!(a.addr_at(out.filled_slot), Some(100));
    }

    #[test]
    fn eviction_replaces_block() {
        let mut a = small();
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        // Fill set 0 completely: addrs 0, 8, 16, 24 with bitsel over 8 sets.
        for k in 0..4u64 {
            let addr = k * 8;
            a.candidates(addr, &mut cands);
            let v = *cands.first_empty().unwrap();
            a.install(addr, &v, &mut out);
        }
        // Next conflicting address must evict one of them.
        a.candidates(32, &mut cands);
        assert!(cands.first_empty().is_none());
        let victim = cands.as_slice()[2];
        a.install(32, &victim, &mut out);
        assert_eq!(out.evicted, victim.addr);
        assert_eq!(a.lookup(32), Some(victim.slot));
        assert_eq!(a.lookup(victim.addr.unwrap()), None);
    }

    #[test]
    fn candidates_are_the_whole_set() {
        let mut a = small();
        let mut cands = CandidateSet::new();
        a.candidates(5, &mut cands);
        assert_eq!(cands.len(), 4);
        assert_eq!(cands.tag_reads, 4);
        assert_eq!(cands.levels, 1);
        let set = a.set_index(5);
        for c in cands.as_slice() {
            assert_eq!(c.slot.0 as u64 / 4, set);
        }
    }

    #[test]
    fn bitsel_set_index_is_low_bits() {
        let a = small(); // 8 sets
        assert_eq!(a.sets(), 8);
        assert_eq!(a.set_index(0b10_101), 0b101);
    }

    #[test]
    fn hashed_index_spreads_strides() {
        // With bit-selection, a stride of `sets` maps everything to one
        // set; H3 spreads it over most sets.
        let mut bitsel_sets = std::collections::HashSet::new();
        let mut hashed_sets = std::collections::HashSet::new();
        let bs = SetAssocArray::new(1024, 4, HashKind::BitSelect, 0);
        let h3 = SetAssocArray::new(1024, 4, HashKind::H3, 1);
        for k in 0..64u64 {
            let addr = k * bs.sets();
            bitsel_sets.insert(bs.set_index(addr));
            hashed_sets.insert(h3.set_index(addr));
        }
        assert_eq!(bitsel_sets.len(), 1);
        assert!(hashed_sets.len() > 32, "H3 spread: {}", hashed_sets.len());
    }

    #[test]
    fn invalidate_removes() {
        let mut a = small();
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        a.candidates(9, &mut cands);
        let v = *cands.first_empty().unwrap();
        a.install(9, &v, &mut out);
        assert!(a.lookup(9).is_some());
        let slot = a.invalidate(9).unwrap();
        assert_eq!(slot, v.slot);
        assert!(a.lookup(9).is_none());
        assert!(a.invalidate(9).is_none());
    }

    #[test]
    fn occupancy_counts_valid() {
        let mut a = small();
        assert_eq!(a.occupancy(), 0);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for addr in 0..10u64 {
            a.candidates(addr, &mut cands);
            let v = *cands.first_empty().unwrap();
            a.install(addr, &v, &mut out);
        }
        assert_eq!(a.occupancy(), 10);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        SetAssocArray::new(24, 4, HashKind::BitSelect, 0); // 6 sets
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn non_multiple_lines_panics() {
        SetAssocArray::new(30, 4, HashKind::BitSelect, 0);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        SetAssocArray::new(8, 0, HashKind::BitSelect, 0);
    }
}
