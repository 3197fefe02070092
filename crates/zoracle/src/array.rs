//! Naive reference implementations of the cache tag arrays.
//!
//! One struct covers all deterministic organizations. Nothing here is
//! cached or reused across accesses: the zcache walk is recomputed from
//! the tag state with explicit parent chains each time, the
//! fully-associative free list is re-derived by scanning for empty
//! frames, and lookups are plain loops over the possible locations.
//!
//! Slot numbering matches the production arrays by construction (it is
//! part of the observable contract being checked): skew/zcache frames
//! are `way · rows + row`, set-associative frames are
//! `set · ways + way`. Hash functions are shared configuration — the
//! reference uses the same per-way H3/bit-select hashers, seeded
//! identically, because the *placement function* is an input to both
//! models, not the logic under test (zhash has its own statistical
//! tests).

use crate::{CheckConfig, CheckDesign};
use zhash::{AnyHasher, HashKind, Hasher64};

/// One replacement candidate discovered by the reference walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefCand {
    /// Frame that would be vacated.
    pub slot: u32,
    /// Block resident there (`None` = empty frame).
    pub addr: Option<u64>,
    /// Index of the parent candidate in the discovery list (`None` for
    /// first-level candidates). Defines the relocation path.
    pub parent: Option<usize>,
    /// Way of `slot`.
    pub way: u32,
    /// Walk-tree level (0 = first level).
    pub level: u32,
}

/// Result of a reference install.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefInstall {
    /// Block evicted, if the victim frame was occupied.
    pub evicted: Option<u64>,
    /// Frame the evicted block vacated.
    pub evicted_slot: Option<u32>,
    /// Frame the incoming block landed in (after relocations).
    pub filled_slot: u32,
    /// Relocations performed, deepest first, as `(from, to)` frames.
    pub moves: Vec<(u32, u32)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefKind {
    /// One hash over the whole set; candidates are the set.
    SetAssoc,
    /// Per-way hashes with a `levels`-deep replacement walk (a skew
    /// cache is the 1-level special case).
    Walk,
    /// Every frame reachable; no hashing at all.
    Fully,
}

/// A brute-force reference tag array.
#[derive(Debug, Clone)]
pub struct RefArray {
    kind: RefKind,
    ways: u32,
    /// Rows per way (walk kinds) or sets (set-associative).
    rows: u64,
    index_bits: u32,
    levels: u32,
    /// Per-way hashers (walk kinds) or a single hasher (set-associative).
    hashers: Vec<AnyHasher>,
    tags: Vec<Option<u64>>,
}

impl RefArray {
    /// Builds the reference array for a check configuration.
    ///
    /// # Panics
    ///
    /// Panics on geometries the production arrays would also reject
    /// (non-power-of-two rows/sets, lines not a multiple of ways).
    pub fn new(cfg: &CheckConfig) -> Self {
        let lines = cfg.lines;
        match cfg.design {
            CheckDesign::SaBitsel | CheckDesign::SaH3 => {
                let hash = if cfg.design == CheckDesign::SaBitsel {
                    HashKind::BitSelect
                } else {
                    HashKind::H3
                };
                let sets = lines / u64::from(cfg.ways);
                assert!(sets.is_power_of_two(), "set count must be a power of two");
                Self {
                    kind: RefKind::SetAssoc,
                    ways: cfg.ways,
                    rows: sets,
                    index_bits: sets.trailing_zeros(),
                    levels: 1,
                    hashers: vec![hash.build(cfg.seed)],
                    tags: vec![None; lines as usize],
                }
            }
            CheckDesign::Skew | CheckDesign::Z2 | CheckDesign::Z3 => {
                let levels = match cfg.design {
                    CheckDesign::Skew => 1,
                    CheckDesign::Z2 => 2,
                    _ => 3,
                };
                let rows = lines / u64::from(cfg.ways);
                assert!(
                    rows.is_power_of_two(),
                    "rows per way must be a power of two"
                );
                // Same per-way seeding as the production ZArray: the hash
                // functions are shared placement configuration.
                let hashers = (0..cfg.ways)
                    .map(|w| {
                        HashKind::H3.build(cfg.seed.wrapping_mul(0x1000).wrapping_add(u64::from(w)))
                    })
                    .collect();
                Self {
                    kind: RefKind::Walk,
                    ways: cfg.ways,
                    rows,
                    index_bits: rows.trailing_zeros(),
                    levels,
                    hashers,
                    tags: vec![None; lines as usize],
                }
            }
            CheckDesign::Fully => Self {
                kind: RefKind::Fully,
                ways: lines as u32,
                rows: lines,
                index_bits: 0,
                levels: 1,
                hashers: Vec::new(),
                tags: vec![None; lines as usize],
            },
        }
    }

    /// Total frames.
    pub fn lines(&self) -> u64 {
        self.tags.len() as u64
    }

    /// The block resident in `slot`, if any.
    pub fn addr_at(&self, slot: u32) -> Option<u64> {
        self.tags[slot as usize]
    }

    /// Frame holding `addr`, found by searching every location the block
    /// could legally occupy.
    pub fn lookup(&self, addr: u64) -> Option<u32> {
        match self.kind {
            RefKind::SetAssoc => {
                let set = self.hashers[0].index(addr, self.index_bits);
                (0..self.ways)
                    .map(|w| (set * u64::from(self.ways) + u64::from(w)) as u32)
                    .find(|&s| self.tags[s as usize] == Some(addr))
            }
            RefKind::Walk => (0..self.ways)
                .map(|w| self.walk_slot(addr, w))
                .find(|&s| self.tags[s as usize] == Some(addr)),
            RefKind::Fully => self
                .tags
                .iter()
                .position(|t| *t == Some(addr))
                .map(|i| i as u32),
        }
    }

    /// Frame `addr` maps to in `way` (walk kinds only).
    fn walk_slot(&self, addr: u64, way: u32) -> u32 {
        let row = self.hashers[way as usize].index(addr, self.index_bits);
        (u64::from(way) * self.rows + row) as u32
    }

    /// True if `slot` appears on the parent chain of `node` (inclusive).
    fn on_path(cands: &[RefCand], node: usize, slot: u32) -> bool {
        let mut cur = Some(node);
        while let Some(i) = cur {
            if cands[i].slot == slot {
                return true;
            }
            cur = cands[i].parent;
        }
        false
    }

    /// Gathers the replacement candidates for a missing `addr`, in the
    /// discovery order the production array commits to: first-level
    /// frames way by way, then (for zcaches holding no empty first-level
    /// frame) a breadth-first expansion that skips frames already on the
    /// expanding node's path and stops as soon as an empty frame turns
    /// up.
    ///
    /// `cap` is the walk budget (`u32::MAX` for an unbounded walk): the
    /// walk stops growing once `cap` candidates have been gathered,
    /// truncating at exactly the points the production array's
    /// `set_max_candidates` does — the first level always emits all
    /// `ways` frames (`cap` is clamped up to `ways`), the outer
    /// breadth-first loop re-checks the budget before expanding each
    /// node, and the inner per-way loop checks it after the own-way skip
    /// but *before* the on-path check, so on-path skips never stretch the
    /// budget. Non-walk designs ignore `cap` (the production array's
    /// budget only gates walk expansion).
    pub fn candidates_capped(&self, addr: u64, cap: u32) -> Vec<RefCand> {
        let cap = cap.max(self.ways) as usize;
        match self.kind {
            RefKind::SetAssoc => {
                let set = self.hashers[0].index(addr, self.index_bits);
                (0..self.ways)
                    .map(|w| {
                        let slot = (set * u64::from(self.ways) + u64::from(w)) as u32;
                        RefCand {
                            slot,
                            addr: self.tags[slot as usize],
                            parent: None,
                            way: w,
                            level: 0,
                        }
                    })
                    .collect()
            }
            RefKind::Fully => {
                // The production array hands out empty frames lowest
                // slot first (its initial free list is 0..lines in
                // consumption order), so with no invalidations the first
                // empty frame by slot number is the one it will offer.
                if let Some(i) = self.tags.iter().position(|t| t.is_none()) {
                    return vec![RefCand {
                        slot: i as u32,
                        addr: None,
                        parent: None,
                        way: 0,
                        level: 0,
                    }];
                }
                self.tags
                    .iter()
                    .enumerate()
                    .map(|(i, t)| RefCand {
                        slot: i as u32,
                        addr: *t,
                        parent: None,
                        way: 0,
                        level: 0,
                    })
                    .collect()
            }
            RefKind::Walk => {
                let mut cands: Vec<RefCand> = Vec::new();
                let mut found_empty = false;
                for way in 0..self.ways {
                    let slot = self.walk_slot(addr, way);
                    let a = self.tags[slot as usize];
                    cands.push(RefCand {
                        slot,
                        addr: a,
                        parent: None,
                        way,
                        level: 0,
                    });
                    if a.is_none() {
                        found_empty = true;
                    }
                }
                if found_empty || self.levels <= 1 {
                    return cands;
                }
                let mut i = 0;
                'walk: while i < cands.len() {
                    if cands[i].level + 1 >= self.levels {
                        // Breadth-first order: levels are non-decreasing,
                        // so the first too-deep node ends the walk.
                        break;
                    }
                    if cands.len() >= cap {
                        break; // walk budget exhausted
                    }
                    let Some(block) = cands[i].addr else {
                        i += 1;
                        continue;
                    };
                    for way in 0..self.ways {
                        if way == cands[i].way {
                            continue; // the block is already at this way's row
                        }
                        if cands.len() >= cap {
                            break; // budget check precedes the on-path skip
                        }
                        let slot = self.walk_slot(block, way);
                        if Self::on_path(&cands, i, slot) {
                            // Relocating along this path would touch the
                            // same frame twice; the production walk skips
                            // it (repeats across sibling branches stay).
                            continue;
                        }
                        let a = self.tags[slot as usize];
                        cands.push(RefCand {
                            slot,
                            addr: a,
                            parent: Some(i),
                            way,
                            level: cands[i].level + 1,
                        });
                        if a.is_none() {
                            break 'walk; // a free frame is a perfect victim
                        }
                    }
                    i += 1;
                }
                cands
            }
        }
    }

    /// Installs `addr`, vacating the candidate at `victim_idx` of the
    /// `cands` list returned by [`Self::candidates_capped`] for the same
    /// address: the victim's block is evicted (if any), every ancestor
    /// block on the victim's path is relocated one step toward the
    /// victim, and the incoming block lands in the path's root frame.
    pub fn install(&mut self, addr: u64, victim_idx: usize, cands: &[RefCand]) -> RefInstall {
        let mut path = vec![victim_idx];
        while let Some(p) = cands[*path.last().unwrap()].parent {
            path.push(p);
        }
        let victim_slot = cands[victim_idx].slot;
        let evicted = self.tags[victim_slot as usize];
        let mut moves = Vec::new();
        for k in 1..path.len() {
            let dst = cands[path[k - 1]].slot;
            let src = cands[path[k]].slot;
            self.tags[dst as usize] = self.tags[src as usize];
            moves.push((src, dst));
        }
        let root = cands[*path.last().unwrap()].slot;
        self.tags[root as usize] = Some(addr);
        RefInstall {
            evicted,
            evicted_slot: evicted.map(|_| victim_slot),
            filled_slot: root,
            moves,
        }
    }

    /// Iterates `(slot, addr)` for every occupied frame, ascending slot.
    pub fn for_each_valid(&self, f: &mut dyn FnMut(u32, u64)) {
        for (i, t) in self.tags.iter().enumerate() {
            if let Some(a) = t {
                f(i as u32, *a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckConfig, CheckPolicy};

    fn cfg(design: CheckDesign) -> CheckConfig {
        CheckConfig::new(design, CheckPolicy::Lru, 64, 4, 3)
    }

    #[test]
    fn lookup_after_install_every_design() {
        for d in CheckDesign::ALL {
            let mut a = RefArray::new(&cfg(d));
            for addr in 1..=10u64 {
                let cands = a.candidates_capped(addr, u32::MAX);
                let v = cands.iter().position(|c| c.addr.is_none()).unwrap_or(0);
                a.install(addr, v, &cands);
                assert!(a.lookup(addr).is_some(), "{d}: lost {addr}");
            }
        }
    }

    #[test]
    fn walk_depth_respects_levels() {
        let mut a = RefArray::new(&cfg(CheckDesign::Z3));
        // Fill completely so walks reach full depth.
        for addr in 1..=100_000u64 {
            if a.lookup(addr).is_some() {
                continue;
            }
            let cands = a.candidates_capped(addr, u32::MAX);
            let v = cands.iter().position(|c| c.addr.is_none()).unwrap_or(0);
            a.install(addr, v, &cands);
        }
        let cands = a.candidates_capped(999_999_999, u32::MAX);
        assert!(cands.iter().all(|c| c.level < 3));
        assert!(cands.iter().any(|c| c.level == 2), "full walk reaches L2");
        // A walk budget truncates the walk; level 0 always emits all
        // ways (the budget is clamped up to the way count).
        for cap in [1u32, 4, 7, 16, 52] {
            let n = a.candidates_capped(999_999_999, cap).len();
            assert!(n >= 4, "level 0 always emits all ways, got {n}");
            assert!(n <= cap.max(4) as usize, "cap {cap} produced {n}");
        }
    }

    #[test]
    fn deep_victim_relocates_path() {
        let mut a = RefArray::new(&cfg(CheckDesign::Z3));
        for addr in 1..=100_000u64 {
            if a.lookup(addr).is_some() {
                continue;
            }
            let cands = a.candidates_capped(addr, u32::MAX);
            let v = cands.iter().position(|c| c.addr.is_none()).unwrap_or(0);
            a.install(addr, v, &cands);
        }
        let addr = 123_456_789;
        let cands = a.candidates_capped(addr, u32::MAX);
        let deep = cands.iter().position(|c| c.level == 2).unwrap();
        let resident_before: Vec<u64> = {
            let mut v = Vec::new();
            a.for_each_valid(&mut |_, b| v.push(b));
            v
        };
        let out = a.install(addr, deep, &cands);
        assert_eq!(out.moves.len(), 2);
        // Every block except the evicted one must still be findable.
        for b in resident_before {
            if Some(b) == out.evicted {
                continue;
            }
            assert!(a.lookup(b).is_some(), "lost {b} in relocation");
        }
        assert!(a.lookup(addr).is_some());
    }

    #[test]
    fn fully_offers_lowest_empty_frame() {
        let mut a = RefArray::new(&cfg(CheckDesign::Fully));
        for addr in 1..=3u64 {
            let cands = a.candidates_capped(addr, u32::MAX);
            assert_eq!(cands.len(), 1);
            assert_eq!(cands[0].slot, (addr - 1) as u32);
            a.install(addr, 0, &cands);
        }
    }
}
