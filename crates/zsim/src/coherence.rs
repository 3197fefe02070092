//! MESI-style directory kept in the frames of the inclusive L2.

use crate::l2::L2;
use zcache_core::{CacheArray, LineAddr, SlotId};

/// Directory state for one L2-resident line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Bitmask of cores whose L1 may hold the line.
    pub sharers: u64,
    /// Core holding the line modified in its L1, if any.
    pub owner: Option<u32>,
}

/// The full-map directory of the shared L2 (Table I: "MESI directory
/// coherence"), stored in the L2's frames. The L2 is inclusive, so the
/// lines the directory tracks are exactly the L2-resident ones, and a
/// line's entry sits at the index of the frame that holds it, numbered
/// bank-major ([`frame`](Self::frame)). When a zcache install relocates
/// blocks, [`relocate`](Self::relocate) moves their entries along, the
/// way the bank moves their dirty bits; no second index of the lines is
/// kept.
///
/// A frame's entry is its sharer mask plus one modified bit. The owner
/// is not stored: a modified line has exactly one sharer, its owner.
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    /// Bitmask of cores whose L1 may hold the frame's line, per frame.
    sharers: Vec<u64>,
    /// One bit per frame: its line's single sharer holds it modified.
    modified: Vec<u64>,
    frames_per_bank: usize,
}

impl Directory {
    /// Creates the directory of an L2 of `banks` banks of
    /// `frames_per_bank` frames each, every frame without sharers.
    pub(crate) fn new(banks: usize, frames_per_bank: usize) -> Self {
        let frames = banks * frames_per_bank;
        Self {
            sharers: vec![0; frames],
            modified: vec![0; frames.div_ceil(64)],
            frames_per_bank,
        }
    }

    /// The directory index of bank `bank`'s frame `slot`.
    #[inline]
    pub(crate) fn frame(&self, bank: usize, slot: SlotId) -> usize {
        bank * self.frames_per_bank + slot.idx()
    }

    /// The bank and slot of directory index `f`: the inverse of
    /// [`frame`](Self::frame).
    #[inline]
    pub(crate) fn bank_slot(&self, f: usize) -> (usize, SlotId) {
        (
            f / self.frames_per_bank,
            SlotId((f % self.frames_per_bank) as u32),
        )
    }

    #[inline]
    fn is_modified(&self, f: usize) -> bool {
        self.modified[f / 64] & (1 << (f % 64)) != 0
    }

    #[inline]
    fn set_modified(&mut self, f: usize, modified: bool) {
        let bit = 1u64 << (f % 64);
        if modified {
            self.modified[f / 64] |= bit;
        } else {
            self.modified[f / 64] &= !bit;
        }
    }

    /// Core holding frame `f`'s line modified, if any.
    #[inline]
    pub(crate) fn owner(&self, f: usize) -> Option<u32> {
        self.is_modified(f)
            .then(|| self.sharers[f].trailing_zeros())
    }

    /// The entry of frame `f`.
    pub(crate) fn entry(&self, f: usize) -> DirEntry {
        DirEntry {
            sharers: self.sharers[f],
            owner: self.owner(f),
        }
    }

    /// Registers the line just filled into frame `f`, with `core` as its
    /// first sharer.
    #[inline]
    pub(crate) fn fill(&mut self, f: usize, core: u32, modified: bool) {
        self.sharers[f] = 1 << core;
        self.set_modified(f, modified);
    }

    /// Adds a reader. Returns the previous dirty owner if it was a
    /// different core (which must then be downgraded).
    #[inline]
    pub(crate) fn add_sharer(&mut self, f: usize, core: u32) -> Option<u32> {
        let prev_owner = self.owner(f).filter(|&o| o != core);
        if prev_owner.is_some() {
            self.set_modified(f, false); // downgraded to shared, L2 copy now up to date
        }
        self.sharers[f] |= 1 << core;
        prev_owner
    }

    /// Makes `core` the exclusive modified owner. Returns the bitmask of
    /// other sharers that must be invalidated.
    #[inline]
    pub(crate) fn make_owner(&mut self, f: usize, core: u32) -> u64 {
        let others = self.sharers[f] & !(1u64 << core);
        self.sharers[f] = 1 << core;
        self.set_modified(f, true);
        others
    }

    /// Drops `core` from a line's sharers (L1 eviction); clears ownership
    /// if `core` owned it.
    #[inline]
    pub(crate) fn remove_sharer(&mut self, f: usize, core: u32) {
        if self.owner(f) == Some(core) {
            self.set_modified(f, false);
        }
        self.sharers[f] &= !(1u64 << core);
    }

    /// Clears frame `f` on L2 eviction, returning the sharer mask whose
    /// L1 copies must be back-invalidated.
    #[inline]
    pub(crate) fn evict(&mut self, f: usize) -> u64 {
        self.set_modified(f, false);
        std::mem::take(&mut self.sharers[f])
    }

    /// Moves frame `from`'s entry to frame `to`, following an L2
    /// relocation.
    #[inline]
    pub(crate) fn relocate(&mut self, from: usize, to: usize) {
        self.sharers[to] = self.sharers[from];
        self.set_modified(to, self.is_modified(from));
    }
}

/// Read-only view of the directory, for invariant checks in tests and
/// examples: each L2-resident line with its entry.
#[derive(Debug, Clone, Copy)]
pub struct DirectoryView<'a> {
    pub(crate) dir: &'a Directory,
    pub(crate) l2: &'a L2,
}

impl DirectoryView<'_> {
    /// Looks up a line's entry; `None` if the L2 does not hold it.
    pub fn get(&self, line: LineAddr) -> Option<DirEntry> {
        let (bank, slot) = self.l2.locate(line)?;
        Some(self.dir.entry(self.dir.frame(bank, slot)))
    }

    /// Iterates all tracked lines and their entries in ascending line
    /// address order. Allocates a sorted snapshot — this is an
    /// inspection API, not a hot path.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, DirEntry)> {
        let mut v = Vec::new();
        for (bank, cache) in self.l2.banks().iter().enumerate() {
            cache.array().for_each_valid(&mut |slot, line| {
                v.push((line, self.dir.entry(self.dir.frame(bank, slot))));
            });
        }
        v.sort_unstable_by_key(|&(line, _)| line);
        v.into_iter()
    }
}

/// Iterates the set cores in a sharer bitmask, in ascending order.
///
/// Visits only the set bits: each step takes the lowest one
/// (`trailing_zeros`) and clears it.
pub fn cores_in(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let core = mask.trailing_zeros();
        mask &= mask.wrapping_sub(1);
        (core < 64).then_some(core)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of two banks of 64 frames; frame 70 is bank 1's
    /// slot 6, beyond the first word of modified bits.
    fn dir() -> Directory {
        Directory::new(2, 64)
    }

    #[test]
    fn frames_are_bank_major() {
        let d = dir();
        assert_eq!(d.frame(0, SlotId(5)), 5);
        assert_eq!(d.frame(1, SlotId(6)), 70);
        assert_eq!(d.bank_slot(5), (0, SlotId(5)));
        assert_eq!(d.bank_slot(70), (1, SlotId(6)));
    }

    #[test]
    fn insert_and_share() {
        let mut d = dir();
        d.fill(10, 0, false);
        assert_eq!(d.add_sharer(10, 1), None);
        let e = d.entry(10);
        assert_eq!(e.sharers, 0b11);
        assert_eq!(e.owner, None);
    }

    #[test]
    fn read_of_modified_line_downgrades_owner() {
        let mut d = dir();
        d.fill(70, 2, true);
        assert_eq!(d.add_sharer(70, 5), Some(2));
        let e = d.entry(70);
        assert_eq!(e.owner, None);
        assert_eq!(e.sharers, (1 << 2) | (1 << 5));
        // Owner re-reading its own line needs no downgrade.
        d.fill(11, 3, true);
        assert_eq!(d.add_sharer(11, 3), None);
        assert_eq!(d.entry(11).owner, Some(3));
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = dir();
        d.fill(10, 0, false);
        d.add_sharer(10, 1);
        d.add_sharer(10, 63);
        let to_invalidate = d.make_owner(10, 63);
        assert_eq!(to_invalidate, 0b11);
        let e = d.entry(10);
        assert_eq!(e.sharers, 1 << 63);
        assert_eq!(e.owner, Some(63));
    }

    #[test]
    fn remove_sharer_clears_ownership() {
        let mut d = dir();
        d.fill(7, 4, true);
        d.remove_sharer(7, 5);
        assert_eq!(d.entry(7).owner, Some(4), "a non-sharer leaves it owned");
        d.remove_sharer(7, 4);
        let e = d.entry(7);
        assert_eq!(e.sharers, 0);
        assert_eq!(e.owner, None);
    }

    #[test]
    fn remove_returns_back_invalidation_mask() {
        let mut d = dir();
        d.fill(9, 0, false);
        d.add_sharer(9, 3);
        assert_eq!(d.evict(9), 0b1001);
        assert_eq!(d.evict(9), 0);
        d.fill(70, 4, true);
        assert_eq!(d.evict(70), 1 << 4);
        assert_eq!(
            d.entry(70),
            DirEntry::default(),
            "the modified bit goes too"
        );
    }

    #[test]
    fn relocation_moves_the_whole_entry() {
        // A zcache install's move chain, oldest ancestor first: the
        // victim in frame 3 leaves, 70 moves to 3, 8 moves to 70, and
        // the new line fills 8.
        let mut d = dir();
        d.fill(3, 1, false);
        d.fill(70, 2, true);
        d.fill(8, 0, false);
        d.add_sharer(8, 5);
        assert_eq!(d.evict(3), 1 << 1);
        d.relocate(70, 3);
        d.relocate(8, 70);
        d.fill(8, 6, false);
        assert_eq!(
            d.entry(3),
            DirEntry {
                sharers: 1 << 2,
                owner: Some(2)
            }
        );
        assert_eq!(
            d.entry(70),
            DirEntry {
                sharers: 0b10_0001,
                owner: None
            }
        );
        assert_eq!(
            d.entry(8),
            DirEntry {
                sharers: 1 << 6,
                owner: None
            }
        );
    }

    #[test]
    fn cores_in_matches_the_bit_test_reference() {
        // Random masks of three densities, each also with bits 0 and 63
        // forced on, against a test of all 64 bits in order.
        let mut rng = zhash::SplitMix64::new(64);
        let mut masks = vec![
            0,
            1,
            1 << 63,
            u64::MAX,
            0b1010_0001,
            1 | (1 << 31) | (1 << 63),
        ];
        for _ in 0..500 {
            let dense = rng.next_u64() | rng.next_u64();
            let half = rng.next_u64();
            let sparse = rng.next_u64() & rng.next_u64() & rng.next_u64();
            for m in [dense, half, sparse] {
                masks.extend([m, m | 1 | (1 << 63)]);
            }
        }
        for mask in masks {
            let want: Vec<u32> = (0..64).filter(|c| mask & (1 << c) != 0).collect();
            let got: Vec<u32> = cores_in(mask).collect();
            assert_eq!(got, want, "{mask:#x}");
        }
    }
}
