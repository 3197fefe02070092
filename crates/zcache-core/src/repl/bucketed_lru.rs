//! Bucketed LRU with narrow, coarsened timestamps (§III-E).

use super::{AccessCtx, ReplacementPolicy};
use crate::types::{LineAddr, SlotId};

/// Bucketed LRU: `bits`-bit timestamps, with the global counter bumped
/// once every `k` accesses.
///
/// With `k ≈ 5%` of the cache size and 8-bit timestamps (the paper's
/// suggestion), a block would have to survive ~12.8 cache-fulls of
/// accesses without being touched for its timestamp to alias across a
/// wrap-around — rare enough that the policy behaves like LRU at a
/// fraction of the state.
///
/// Ages are computed in mod-2ⁿ arithmetic, exactly as the paper
/// describes for the replacement-candidate comparison.
///
/// # Examples
///
/// ```
/// use zcache_core::{BucketedLru, ReplacementPolicy, AccessCtx, SlotId};
///
/// let mut p = BucketedLru::new(64, 8, 4); // 8-bit stamps, bump every 4
/// let ctx = AccessCtx::UNKNOWN;
/// p.on_fill(SlotId(0), 1, &ctx);
/// for a in 0..16 { p.on_fill(SlotId(1 + (a % 3) as u32), 2 + a, &ctx); }
/// assert!(p.score(SlotId(0)) > 0); // slot 0 has aged
/// ```
#[derive(Debug, Clone)]
pub struct BucketedLru {
    timestamps: Vec<u32>,
    counter: u32,
    mask: u32,
    /// Touches left before the next bump, counting down from `k`: the
    /// counter bumps on every `k`-th touch without a division.
    until_bump: u64,
    k: u64,
}

impl BucketedLru {
    /// Creates a bucketed LRU with `bits`-bit timestamps bumped every `k`
    /// accesses.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32, or if `k == 0`.
    pub fn new(lines: u64, bits: u32, k: u64) -> Self {
        assert!(bits > 0 && bits <= 32, "timestamp width must be 1..=32");
        assert!(k > 0, "bump period must be positive");
        let mask = if bits == 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        Self {
            timestamps: vec![0; lines as usize],
            counter: 0,
            mask,
            until_bump: k,
            k,
        }
    }

    /// The paper's suggested configuration for a cache of `lines` frames:
    /// 8-bit timestamps, bump period of 5% of the cache size.
    pub fn paper_config(lines: u64) -> Self {
        Self::new(lines, 8, (lines / 20).max(1))
    }

    #[inline]
    fn touch(&mut self, slot: SlotId) {
        self.until_bump -= 1;
        if self.until_bump == 0 {
            self.until_bump = self.k;
            self.counter = (self.counter + 1) & self.mask;
        }
        self.timestamps[slot.idx()] = self.counter;
    }
}

impl ReplacementPolicy for BucketedLru {
    fn on_hit(&mut self, slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {
        self.touch(slot);
    }

    fn on_fill(&mut self, slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {
        self.touch(slot);
    }

    fn on_move(&mut self, from: SlotId, to: SlotId) {
        self.timestamps[to.idx()] = self.timestamps[from.idx()];
    }

    fn on_evict(&mut self, slot: SlotId) {
        self.timestamps[slot.idx()] = self.counter;
    }

    #[inline(always)]
    fn score(&self, slot: SlotId) -> u64 {
        // Age in mod-2ⁿ arithmetic.
        u64::from(self.counter.wrapping_sub(self.timestamps[slot.idx()]) & self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: AccessCtx = AccessCtx::UNKNOWN;

    #[test]
    fn ages_grow_with_inactivity() {
        let mut p = BucketedLru::new(16, 8, 2);
        p.on_fill(SlotId(0), 0, &CTX);
        for i in 0..20u64 {
            p.on_fill(SlotId(1), i, &CTX);
        }
        assert!(p.score(SlotId(0)) >= 9, "age {}", p.score(SlotId(0)));
        assert!(p.score(SlotId(1)) <= 1);
    }

    #[test]
    fn wraparound_age_is_modular() {
        // 2-bit stamps: counter wraps every 4 bumps.
        let mut p = BucketedLru::new(4, 2, 1);
        p.on_fill(SlotId(0), 0, &CTX); // stamped at counter=1
        for i in 0..6u64 {
            p.on_fill(SlotId(1), i, &CTX);
        }
        // counter has advanced 7 bumps total -> 7 mod 4 = 3; slot0 at 1.
        assert_eq!(p.score(SlotId(0)), (3u64 + 4 - 1) % 4);
    }

    #[test]
    fn coarse_buckets_create_ties() {
        let mut p = BucketedLru::new(8, 8, 100);
        for i in 0..8u32 {
            p.on_fill(SlotId(i), u64::from(i), &CTX);
        }
        // All 8 fills happen within one bucket: identical scores.
        let s0 = p.score(SlotId(0));
        for i in 1..8u32 {
            assert_eq!(p.score(SlotId(i)), s0);
        }
    }

    #[test]
    fn move_carries_stamp() {
        let mut p = BucketedLru::new(8, 8, 1);
        p.on_fill(SlotId(0), 0, &CTX);
        for i in 0..5u64 {
            p.on_fill(SlotId(1), i, &CTX);
        }
        let s = p.score(SlotId(0));
        p.on_move(SlotId(0), SlotId(7));
        assert_eq!(p.score(SlotId(7)), s);
    }

    #[test]
    fn bumps_on_every_kth_touch() {
        // The countdown bumps exactly where the modulo definition does:
        // after touch n the counter is floor(n / k), mod 2^bits.
        for k in [1, 2, 3, 64, 204] {
            let mut p = BucketedLru::new(4, 8, k);
            for n in 1..=10_000u64 {
                p.on_hit(SlotId((n % 4) as u32), n, &CTX);
                assert_eq!(u64::from(p.counter), (n / k) & 0xff, "k={k}, touch {n}");
            }
        }
    }

    #[test]
    fn paper_config_dimensions() {
        let p = BucketedLru::paper_config(131072);
        assert_eq!(p.k, 6553); // 5% of cache size
        assert_eq!(p.mask, 0xff);
    }

    #[test]
    #[should_panic(expected = "bump period")]
    fn zero_k_panics() {
        BucketedLru::new(8, 8, 0);
    }

    #[test]
    #[should_panic(expected = "timestamp width")]
    fn zero_bits_panics() {
        BucketedLru::new(8, 0, 1);
    }
}
