//! Fully-associative array.

use super::tags::{TagIndex, TagStore};
use super::{CacheArray, Candidate, CandidateSet, InstallOutcome};
use crate::types::{LineAddr, SlotId};

/// Fixed seed for the tag index: determinism must not depend on process
/// state (the std `HashMap` it replaces was randomly keyed per process).
const INDEX_SEED: u64 = 0x5eed_fa11;

/// A fully-associative cache array: any block can live in any frame, and
/// every resident block is a replacement candidate.
///
/// This is the reference design of the associativity framework (a
/// fully-associative cache always evicts the block with eviction priority
/// 1.0). The LRU miss counts behind conflict-miss accounting (§IV:
/// conflict misses = total misses − fully-associative misses) come from
/// [`LruStack`](crate::LruStack), which decides the same hits in `O(1)`;
/// this array remains for the differential oracle, the buffer of
/// [`VictimCache`](crate::VictimCache), non-LRU policies and the `fully`
/// throughput row.
///
/// Candidate generation is `O(lines)`, so this array is intended for
/// analysis runs, not large-scale simulation.
///
/// # Examples
///
/// ```
/// use zcache_core::{CacheArray, CandidateSet, FullyAssocArray};
///
/// let mut a = FullyAssocArray::new(64);
/// let mut cands = CandidateSet::new();
/// a.candidates(1, &mut cands);
/// assert_eq!(cands.len(), 1); // empty frame available: one free candidate
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocArray {
    tags: TagStore,
    map: TagIndex,
    free: Vec<SlotId>,
}

impl FullyAssocArray {
    /// Creates a fully-associative array with `lines` frames.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or `lines > u32::MAX`.
    pub fn new(lines: u64) -> Self {
        assert!(lines > 0, "need at least one line");
        assert!(lines <= u64::from(u32::MAX), "lines must fit in u32");
        Self {
            tags: TagStore::new(lines as usize),
            map: TagIndex::with_capacity(lines as usize, INDEX_SEED),
            free: (0..lines as u32).rev().map(SlotId).collect(),
        }
    }
}

impl CacheArray for FullyAssocArray {
    fn lines(&self) -> u64 {
        self.tags.len() as u64
    }

    /// A block can be in any frame, so "ways" equals the line count.
    fn ways(&self) -> u32 {
        self.tags.len() as u32
    }

    fn lookup(&self, addr: LineAddr) -> Option<SlotId> {
        self.map.get(addr)
    }

    fn addr_at(&self, slot: SlotId) -> Option<LineAddr> {
        self.tags.get(slot.idx())
    }

    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        debug_assert!(self.lookup(addr).is_none(), "candidates for resident block");
        out.clear();
        out.levels = 1;
        if let Some(&slot) = self.free.last() {
            out.push(Candidate {
                slot,
                addr: None,
                token: 0,
            });
            out.tag_reads = 1;
            return;
        }
        // No free frame: the array is full, so every frame holds a block.
        out.reserve(self.tags.len());
        for i in 0..self.tags.len() {
            out.push(Candidate {
                slot: SlotId(i as u32),
                addr: self.tags.get(i),
                token: i as u32,
            });
        }
        out.tag_reads = self.tags.len() as u32;
    }

    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        out.clear();
        let prev = self.tags.get(victim.slot.idx());
        debug_assert_eq!(prev, victim.addr, "stale candidate");
        if let Some(p) = prev {
            self.map.remove(p);
        } else if self.free.last() == Some(&victim.slot) {
            // Candidates only ever offer the top of the free list, so
            // consuming it is an O(1) pop.
            self.free.pop();
        } else {
            // Cold fallback for callers that install into an arbitrary
            // empty frame (e.g. hand-built candidates in tests).
            self.free.retain(|&s| s != victim.slot);
        }
        self.tags.set(victim.slot.idx(), addr);
        self.map.insert(addr, victim.slot);
        out.evicted = prev;
        out.evicted_slot = prev.map(|_| victim.slot);
        out.filled_slot = victim.slot;
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId> {
        let slot = self.map.remove(addr)?;
        self.tags.clear_slot(slot.idx());
        self.free.push(slot);
        Some(slot)
    }

    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr)) {
        self.tags.for_each_valid(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_all_frames_before_evicting() {
        let mut a = FullyAssocArray::new(8);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for addr in 0..8u64 {
            a.candidates(addr, &mut cands);
            assert_eq!(cands.len(), 1, "free frame should be offered alone");
            a.install(addr, &cands.as_slice()[0], &mut out);
            assert_eq!(out.evicted, None);
        }
        assert_eq!(a.occupancy(), 8);
        a.candidates(100, &mut cands);
        assert_eq!(cands.len(), 8, "full: all blocks are candidates");
    }

    #[test]
    fn evicts_chosen_victim() {
        let mut a = FullyAssocArray::new(4);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for addr in 0..4u64 {
            a.candidates(addr, &mut cands);
            a.install(addr, &cands.as_slice()[0], &mut out);
        }
        a.candidates(10, &mut cands);
        let victim = cands.as_slice()[2];
        a.install(10, &victim, &mut out);
        assert_eq!(out.evicted, victim.addr);
        assert!(a.lookup(10).is_some());
        assert!(a.lookup(victim.addr.unwrap()).is_none());
    }

    #[test]
    fn invalidate_recycles_frame() {
        let mut a = FullyAssocArray::new(2);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for addr in [1u64, 2] {
            a.candidates(addr, &mut cands);
            a.install(addr, &cands.as_slice()[0], &mut out);
        }
        a.invalidate(1).unwrap();
        a.candidates(3, &mut cands);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands.as_slice()[0].addr, None);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_panics() {
        FullyAssocArray::new(0);
    }
}
