//! MESI-style directory kept alongside the inclusive L2.

use zcache_core::{LineAddr, SeededMap};

/// Directory state for one L2-resident line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirEntry {
    /// Bitmask of cores whose L1 may hold the line.
    pub sharers: u64,
    /// Core holding the line modified in its L1, if any.
    pub owner: Option<u32>,
}

impl DirEntry {
    /// Sharers other than `core`.
    pub fn other_sharers(&self, core: u32) -> u64 {
        self.sharers & !(1u64 << core)
    }
}

/// The full-map directory of the shared L2 (Table I: "MESI directory
/// coherence"). An entry exists exactly for lines resident in the L2
/// (inclusive hierarchy), tracking which L1s hold copies and which, if
/// any, holds the line modified.
///
/// Entries live in a seeded open-addressing [`SeededMap`] rather than a
/// std `HashMap`: directory get/insert/remove sit on the per-access hot
/// path of [`System::access`](crate::System::access), where SipHash plus
/// `RandomState`'s per-process seeding cost both throughput and
/// reproducibility. Sized via [`with_capacity`](Self::with_capacity) to
/// the L2's line count, the map never rehashes during simulation, and an
/// entry beyond that count (an inclusion bug) panics.
#[derive(Debug, Clone)]
pub struct Directory {
    entries: SeededMap<DirEntry>,
}

impl Directory {
    /// Fixed seed salt for the directory table. The layout never leaks
    /// (iteration sorts), so one constant serves every configuration.
    const SEED_SALT: u64 = 0xd19_0c7e_u64;

    /// Creates an empty directory for an L2 of `lines` frames, at fixed
    /// capacity: registering a line while `lines` are tracked panics.
    ///
    /// Exactly `lines` entries suffice because the directory tracks the
    /// L2-resident lines and nothing else: on an L2 miss,
    /// [`System::access`](crate::System::access) removes the inclusion
    /// victim before it registers the new line.
    pub fn with_capacity(lines: usize, seed: u64) -> Self {
        Self {
            entries: SeededMap::fixed_capacity(lines, seed ^ Self::SEED_SALT),
        }
    }

    /// Looks up a line's entry.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<DirEntry> {
        self.entries.get(line)
    }

    /// Registers a line on L2 fill, with `core` as its first sharer.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, core: u32, modified: bool) {
        self.entries.insert(
            line,
            DirEntry {
                sharers: 1 << core,
                owner: modified.then_some(core),
            },
        );
    }

    /// Adds a reader. Returns the previous dirty owner if it was a
    /// different core (which must then be downgraded).
    #[inline]
    pub fn add_sharer(&mut self, line: LineAddr, core: u32) -> Option<u32> {
        let (e, _) = self.entries.get_or_insert_with(line, DirEntry::default);
        let prev_owner = e.owner.filter(|&o| o != core);
        if prev_owner.is_some() {
            e.owner = None; // downgraded to shared, L2 copy now up to date
        }
        e.sharers |= 1 << core;
        prev_owner
    }

    /// Makes `core` the exclusive modified owner. Returns the bitmask of
    /// other sharers that must be invalidated.
    #[inline]
    pub fn make_owner(&mut self, line: LineAddr, core: u32) -> u64 {
        let (e, _) = self.entries.get_or_insert_with(line, DirEntry::default);
        let others = e.other_sharers(core);
        e.sharers = 1 << core;
        e.owner = Some(core);
        others
    }

    /// Drops `core` from a line's sharers (L1 eviction); clears ownership
    /// if `core` owned it.
    #[inline]
    pub fn remove_sharer(&mut self, line: LineAddr, core: u32) {
        if let Some(e) = self.entries.get_mut(line) {
            e.sharers &= !(1u64 << core);
            if e.owner == Some(core) {
                e.owner = None;
            }
        }
    }

    /// Removes a line on L2 eviction, returning the sharer mask whose L1
    /// copies must be back-invalidated.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> u64 {
        self.entries.remove(line).map(|e| e.sharers).unwrap_or(0)
    }

    /// Iterates all tracked lines and their entries in ascending line
    /// address order.
    ///
    /// The order is *canonical*, not the table's internal layout, so
    /// MESI invariant walks and state digests are identical across
    /// seeds, capacities, and the exact insert/remove history that
    /// produced the contents. Allocates a sorted snapshot — this is an
    /// inspection API, not a hot path.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, DirEntry)> {
        let mut v: Vec<(LineAddr, DirEntry)> = self.entries.iter().collect();
        v.sort_unstable_by_key(|&(line, _)| line);
        v.into_iter()
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory tracks no lines.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    #[test]
    fn insert_and_share() {
        let mut d = Directory::with_capacity(64, 0);
        d.insert(10, 0, false);
        assert_eq!(d.add_sharer(10, 1), None);
        let e = d.get(10).unwrap();
        assert_eq!(e.sharers, 0b11);
        assert_eq!(e.owner, None);
    }

    #[test]
    fn read_of_modified_line_downgrades_owner() {
        let mut d = Directory::with_capacity(64, 0);
        d.insert(10, 2, true);
        assert_eq!(d.add_sharer(10, 5), Some(2));
        let e = d.get(10).unwrap();
        assert_eq!(e.owner, None);
        assert_eq!(e.sharers, (1 << 2) | (1 << 5));
        // Owner re-reading its own line needs no downgrade.
        d.insert(11, 3, true);
        assert_eq!(d.add_sharer(11, 3), None);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::with_capacity(64, 0);
        d.insert(10, 0, false);
        d.add_sharer(10, 1);
        d.add_sharer(10, 2);
        let to_invalidate = d.make_owner(10, 1);
        assert_eq!(to_invalidate, (1 << 0) | (1 << 2));
        let e = d.get(10).unwrap();
        assert_eq!(e.sharers, 1 << 1);
        assert_eq!(e.owner, Some(1));
    }

    #[test]
    fn remove_sharer_clears_ownership() {
        let mut d = Directory::with_capacity(64, 0);
        d.insert(7, 4, true);
        d.remove_sharer(7, 4);
        let e = d.get(7).unwrap();
        assert_eq!(e.sharers, 0);
        assert_eq!(e.owner, None);
    }

    #[test]
    fn remove_returns_back_invalidation_mask() {
        let mut d = Directory::with_capacity(64, 0);
        d.insert(9, 0, false);
        d.add_sharer(9, 3);
        assert_eq!(d.remove(9), 0b1001);
        assert_eq!(d.remove(9), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn iter_is_sorted_and_layout_independent() {
        // Same contents via different histories and different seeds must
        // iterate identically: ascending line order, nothing else.
        let mut a = Directory::with_capacity(64, 1);
        let mut b = Directory::with_capacity(1024, 99);
        for line in [900u64, 3, 512, 77, 41, 600] {
            a.insert(line, 0, false);
        }
        for line in [41u64, 600, 3, 900, 512, 77, 1000] {
            b.insert(line, 0, false);
        }
        b.remove(1000);
        let va: Vec<_> = a.iter().collect();
        let vb: Vec<_> = b.iter().collect();
        assert_eq!(va, vb);
        assert!(va.windows(2).all(|w| w[0].0 < w[1].0), "sorted by line");
    }

    #[test]
    fn iter_identical_across_identically_seeded_runs() {
        // Regression for the open-addressing swap: two runs with the
        // same seed and history iterate in exactly the same order.
        // Lines are drawn from 0..256, so a fixed table of 256 holds any
        // history.
        let build = || {
            let mut d = Directory::with_capacity(256, 7);
            let mut x = 0xdead_beefu64;
            for step in 0..500u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = x % 256;
                match step % 4 {
                    0 => d.insert(line, (step % 8) as u32, step % 2 == 0),
                    1 => {
                        d.add_sharer(line, (step % 8) as u32);
                    }
                    2 => {
                        d.remove(line);
                    }
                    _ => d.remove_sharer(line, (step % 8) as u32),
                }
            }
            d.iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
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
