//! The random-candidates reference cache of §IV-B.

use super::tags::{TagIndex, TagStore};
use super::{ArrayKind, CacheArray, Candidate, CandidateSet, InstallOutcome};
use crate::types::{LineAddr, SlotId};
use zhash::SplitMix64;

/// A cache array that returns `n` uniformly random replacement candidates
/// (with repetition) on every miss.
///
/// The paper uses this design to validate the analytical framework: by
/// construction its candidates' eviction priorities are i.i.d. uniform,
/// so its associativity distribution is exactly `F_A(x) = xⁿ`. It is
/// "unrealistic" as hardware (a block can be anywhere, like a
/// fully-associative cache) but reveals the sufficient condition for the
/// uniformity assumption — *randomized candidates*.
///
/// # Examples
///
/// ```
/// use zcache_core::{CacheArray, CandidateSet, RandomCandsArray};
///
/// let mut a = RandomCandsArray::new(256, 16, 1);
/// let mut cands = CandidateSet::new();
/// // An empty frame is the one candidate while the array fills.
/// a.candidates(7, &mut cands);
/// assert_eq!(cands.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RandomCandsArray {
    tags: TagStore,
    map: TagIndex,
    free: Vec<SlotId>,
    n: u32,
    rng: SplitMix64,
}

impl RandomCandsArray {
    /// Creates an array with `lines` frames returning `n` random
    /// candidates per miss.
    ///
    /// # Panics
    ///
    /// Panics if `lines == 0`, `lines > u32::MAX`, or `n == 0`.
    pub fn new(lines: u64, n: u32, seed: u64) -> Self {
        (ArrayKind::RandomCands { n })
            .check_geometry(lines, 0)
            .unwrap_or_else(|e| panic!("{e}"));
        Self {
            tags: TagStore::new(lines as usize),
            // Seeded index: lookups must not depend on process-random
            // hasher state (determinism across identically-seeded runs).
            map: TagIndex::with_capacity(lines as usize, seed ^ 0x7a6_1dde),
            free: (0..lines as u32).rev().map(SlotId).collect(),
            n,
            rng: SplitMix64::new(seed ^ 0xc0ffee),
        }
    }
}

impl CacheArray for RandomCandsArray {
    fn lines(&self) -> u64 {
        self.tags.len() as u64
    }

    /// Any frame can hold any block.
    fn ways(&self) -> u32 {
        self.tags.len() as u32
    }

    fn lookup(&self, addr: LineAddr) -> Option<SlotId> {
        self.map.get(addr)
    }

    fn addr_at(&self, slot: SlotId) -> Option<LineAddr> {
        self.tags.get(slot.idx())
    }

    fn candidates(&mut self, _addr: LineAddr, out: &mut CandidateSet) {
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
        for i in 0..self.n {
            let slot = SlotId(self.rng.next_below(self.tags.len() as u64) as u32);
            out.push(Candidate {
                slot,
                addr: self.tags.get(slot.idx()),
                token: i,
            });
        }
        out.tag_reads = self.n;
    }

    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        out.clear();
        let prev = self.tags.get(victim.slot.idx());
        debug_assert_eq!(prev, victim.addr, "stale candidate");
        if let Some(p) = prev {
            self.map.remove(p);
        } else if self.free.last() == Some(&victim.slot) {
            // Candidates only ever offer the top of the free list.
            self.free.pop();
        } else {
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
    fn returns_n_candidates_when_full() {
        let mut a = RandomCandsArray::new(32, 8, 1);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for addr in 0..32u64 {
            a.candidates(addr, &mut cands);
            a.install(addr, &cands.as_slice()[0], &mut out);
        }
        a.candidates(100, &mut cands);
        assert_eq!(cands.len(), 8);
    }

    #[test]
    fn candidates_are_randomized() {
        let mut a = RandomCandsArray::new(1024, 16, 2);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for addr in 0..1024u64 {
            a.candidates(addr, &mut cands);
            a.install(addr, &cands.as_slice()[0], &mut out);
        }
        a.candidates(5000, &mut cands);
        let first: Vec<_> = cands.as_slice().iter().map(|c| c.slot).collect();
        a.candidates(5000, &mut cands);
        let second: Vec<_> = cands.as_slice().iter().map(|c| c.slot).collect();
        assert_ne!(first, second, "two draws should differ");
    }

    #[test]
    fn deterministic_for_seed() {
        let draw = |seed: u64| {
            let mut a = RandomCandsArray::new(64, 4, seed);
            let mut cands = CandidateSet::new();
            let mut out = InstallOutcome::default();
            for addr in 0..64u64 {
                a.candidates(addr, &mut cands);
                a.install(addr, &cands.as_slice()[0], &mut out);
            }
            a.candidates(999, &mut cands);
            cands.as_slice().iter().map(|c| c.slot).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn zero_candidates_panics() {
        RandomCandsArray::new(8, 0, 0);
    }
}
