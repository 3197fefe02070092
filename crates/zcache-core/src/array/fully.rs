//! The fully-associative layout: any block can live in any frame.

use super::tags::{TagStore, INVALID_TAG};
use super::{ArrayKind, CacheArray, Candidate, CandidateSet, InstallOutcome};
use crate::seeded_map::SeededMap;
use crate::types::{LineAddr, SlotId};
use zhash::SplitMix64;

/// Fixed seed for the tag index: determinism must not depend on process
/// state (the std `HashMap` it replaces was randomly keyed per process).
const INDEX_SEED: u64 = 0x5eed_fa11;

/// A fully-associative cache array: any block can live in any frame.
///
/// While a frame is free, a miss offers it as the one candidate. Once
/// the array is full, the candidate rule is the only difference between
/// the two designs this array builds:
///
/// * [`new`](Self::new) offers every frame: the reference design of the
///   associativity framework (a fully-associative cache always evicts
///   the block with eviction priority 1.0). The LRU miss counts behind
///   conflict-miss accounting (§IV: conflict misses = total misses −
///   fully-associative misses) come from [`LruStack`](crate::LruStack),
///   which decides the same hits in `O(1)`, as does the buffer of
///   [`VictimCache`](crate::VictimCache). This rule remains for the
///   differential oracle, `LruStack`'s lockstep reference, non-LRU
///   policies and the `fully` throughput row. Candidate
///   generation is `O(lines)`, so it is meant for analysis runs, not
///   large-scale simulation.
/// * [`random_candidates`](Self::random_candidates) offers `n` frames
///   drawn uniformly with repetition: the §IV-B *random-candidates
///   cache*. Its candidates' eviction priorities are i.i.d. uniform by
///   construction, so its associativity distribution is exactly
///   `F_A(x) = xⁿ`. It is unrealistic as hardware but reveals the
///   sufficient condition for the uniformity assumption — randomized
///   candidates.
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
///
/// let mut r = FullyAssocArray::random_candidates(256, 16, 1);
/// r.candidates(7, &mut cands);
/// assert_eq!(cands.len(), 1); // the same while the array fills
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocArray {
    tags: TagStore,
    map: SeededMap<u32>,
    free: Vec<SlotId>,
    /// `Some((n, rng))`: a full array offers `n` random draws per miss;
    /// `None`: it offers every frame.
    draws: Option<(u32, SplitMix64)>,
}

impl FullyAssocArray {
    /// Creates a fully-associative array with `lines` frames whose every
    /// frame is a candidate.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0` or `lines > u32::MAX`.
    pub fn new(lines: u64) -> Self {
        Self::with_draws(ArrayKind::Fully, lines, None)
    }

    /// Creates a random-candidates array with `lines` frames that offers
    /// `n` uniform draws (with repetition) per miss once full.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`, `lines > u32::MAX`, or `n == 0`.
    pub fn random_candidates(lines: u64, n: u32, seed: u64) -> Self {
        let rng = SplitMix64::new(seed ^ 0xc0ffee);
        Self::with_draws(ArrayKind::RandomCands { n }, lines, Some((n, rng)))
    }

    fn with_draws(kind: ArrayKind, lines: u64, draws: Option<(u32, SplitMix64)>) -> Self {
        kind.check_geometry(lines, 0)
            .unwrap_or_else(|e| panic!("{e}"));
        Self {
            tags: TagStore::new(lines as usize),
            // Sized once for one entry per frame: it never rehashes.
            map: SeededMap::fixed_capacity(lines as usize, INDEX_SEED),
            free: (0..lines as u32).rev().map(SlotId).collect(),
            draws,
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
        self.map.get(addr).map(SlotId)
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
                line: INVALID_TAG,
                slot,
                token: 0,
            });
            out.tag_reads = 1;
            return;
        }
        // No free frame: the array is full, so every frame holds a block.
        let lines = self.tags.len();
        match &mut self.draws {
            None => {
                out.reserve(lines);
                for i in 0..lines {
                    out.push(Candidate {
                        line: self.tags.raw(i),
                        slot: SlotId(i as u32),
                        token: i as u32,
                    });
                }
                out.tag_reads = lines as u32;
            }
            Some((n, rng)) => {
                for i in 0..*n {
                    let slot = SlotId(rng.next_below(lines as u64) as u32);
                    out.push(Candidate {
                        line: self.tags.raw(slot.idx()),
                        slot,
                        token: i,
                    });
                }
                out.tag_reads = *n;
            }
        }
    }

    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        out.clear();
        let prev = self.tags.get(victim.slot.idx());
        debug_assert_eq!(prev, victim.addr(), "stale candidate");
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
        self.map.insert(addr, victim.slot.0);
        out.evicted = prev;
        out.evicted_slot = prev.map(|_| victim.slot);
        out.filled_slot = victim.slot;
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId> {
        let slot = SlotId(self.map.remove(addr)?);
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

    /// One array per candidate rule, with how many candidates each
    /// offers once full.
    fn both_rules(lines: u64) -> [(FullyAssocArray, usize); 2] {
        [
            (FullyAssocArray::new(lines), lines as usize),
            (FullyAssocArray::random_candidates(lines, 3, 1), 3),
        ]
    }

    fn fill(a: &mut FullyAssocArray, addrs: impl IntoIterator<Item = u64>) {
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for addr in addrs {
            a.candidates(addr, &mut cands);
            assert_eq!(cands.len(), 1, "free frame should be offered alone");
            a.install(addr, &cands.as_slice()[0], &mut out);
            assert_eq!(out.evicted, None);
        }
    }

    #[test]
    fn fills_all_frames_before_evicting() {
        for (mut a, full) in both_rules(8) {
            fill(&mut a, 0..8);
            assert_eq!(a.occupancy(), 8);
            let mut cands = CandidateSet::new();
            a.candidates(100, &mut cands);
            assert_eq!(cands.len(), full);
            assert_eq!(cands.tag_reads as usize, full);
            assert!(cands.as_slice().iter().all(|c| c.line != INVALID_TAG));
        }
    }

    #[test]
    fn evicts_chosen_victim() {
        for (mut a, _) in both_rules(4) {
            fill(&mut a, 0..4);
            let mut cands = CandidateSet::new();
            let mut out = InstallOutcome::default();
            a.candidates(10, &mut cands);
            let victim = cands.as_slice()[2];
            a.install(10, &victim, &mut out);
            assert_eq!(out.evicted, victim.addr());
            assert_eq!(out.filled_slot, victim.slot);
            assert_eq!(a.lookup(10), Some(victim.slot));
            assert!(a.lookup(victim.line).is_none());
        }
    }

    #[test]
    fn invalidate_recycles_frame() {
        for (mut a, _) in both_rules(2) {
            fill(&mut a, [1, 2]);
            let slot = a.invalidate(1).unwrap();
            assert_eq!(a.invalidate(1), None);
            let mut cands = CandidateSet::new();
            a.candidates(3, &mut cands);
            assert_eq!(cands.len(), 1);
            assert_eq!(cands.as_slice()[0].addr(), None);
            assert_eq!(cands.as_slice()[0].slot, slot);
        }
    }

    /// The candidate slots a seeded random-candidates array offers on
    /// two consecutive misses once full.
    fn two_draws(lines: u64, n: u32, seed: u64) -> [Vec<SlotId>; 2] {
        let mut a = FullyAssocArray::random_candidates(lines, n, seed);
        fill(&mut a, 0..lines);
        let mut cands = CandidateSet::new();
        [(); 2].map(|_| {
            a.candidates(5000, &mut cands);
            cands.as_slice().iter().map(|c| c.slot).collect()
        })
    }

    #[test]
    fn random_candidates_are_redrawn_per_miss() {
        let [first, second] = two_draws(1024, 16, 2);
        assert_ne!(first, second, "two draws should differ");
    }

    #[test]
    fn random_candidates_are_deterministic_for_seed() {
        assert_eq!(two_draws(64, 4, 7), two_draws(64, 4, 7));
        assert_ne!(two_draws(64, 4, 7), two_draws(64, 4, 8));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_panics() {
        FullyAssocArray::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_candidates_panics() {
        FullyAssocArray::random_candidates(8, 0, 0);
    }
}
