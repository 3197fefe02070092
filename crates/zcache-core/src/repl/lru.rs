//! Full LRU with wide timestamps (§III-E).

use super::{AccessCtx, ReplacementPolicy};
use crate::types::{LineAddr, SlotId};

/// Full LRU: a global access counter stamps every touched block; the
/// block with the lowest timestamp (largest age) is evicted first.
///
/// This is the paper's "Full LRU" design: simple logic, but wide (here
/// 64-bit) timestamps, which is why the evaluation uses the cheaper
/// [`BucketedLru`](super::BucketedLru) instead.
///
/// # Examples
///
/// ```
/// use zcache_core::{FullLru, ReplacementPolicy, AccessCtx, SlotId};
///
/// let mut lru = FullLru::new(4);
/// let ctx = AccessCtx::UNKNOWN;
/// lru.on_fill(SlotId(0), 100, &ctx);
/// lru.on_fill(SlotId(1), 101, &ctx);
/// lru.on_hit(SlotId(0), 100, &ctx); // 0 becomes most recent
/// assert!(lru.score(SlotId(1)) > lru.score(SlotId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct FullLru {
    timestamps: Vec<u64>,
    counter: u64,
}

impl FullLru {
    /// Creates an LRU policy for `lines` frames.
    pub fn new(lines: u64) -> Self {
        Self {
            timestamps: vec![0; lines as usize],
            counter: 0,
        }
    }

    #[inline]
    fn touch(&mut self, slot: SlotId) {
        self.counter += 1;
        self.timestamps[slot.idx()] = self.counter;
    }
}

impl ReplacementPolicy for FullLru {
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
        self.timestamps[slot.idx()] = 0;
    }

    #[inline(always)]
    fn score(&self, slot: SlotId) -> u64 {
        // Age: monotone in recency, no wrap at 64 bits in practice.
        self.counter - self.timestamps[slot.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: AccessCtx = AccessCtx::UNKNOWN;

    #[test]
    fn oldest_has_highest_score() {
        let mut lru = FullLru::new(4);
        for i in 0..4u32 {
            lru.on_fill(SlotId(i), u64::from(i), &CTX);
        }
        let scores: Vec<_> = (0..4u32).map(|i| lru.score(SlotId(i))).collect();
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > scores[2]);
        assert!(scores[2] > scores[3]);
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut lru = FullLru::new(2);
        lru.on_fill(SlotId(0), 0, &CTX);
        lru.on_fill(SlotId(1), 1, &CTX);
        lru.on_hit(SlotId(0), 0, &CTX);
        assert!(lru.score(SlotId(1)) > lru.score(SlotId(0)));
    }

    #[test]
    fn move_carries_timestamp() {
        let mut lru = FullLru::new(4);
        lru.on_fill(SlotId(0), 0, &CTX);
        lru.on_fill(SlotId(1), 1, &CTX);
        let s0 = lru.score(SlotId(0));
        lru.on_move(SlotId(0), SlotId(3));
        assert_eq!(lru.score(SlotId(3)), s0);
    }

    #[test]
    fn scores_define_total_order_of_distinct_accesses() {
        let mut lru = FullLru::new(8);
        for i in 0..8u32 {
            lru.on_fill(SlotId(i), u64::from(i), &CTX);
        }
        let mut scores: Vec<_> = (0..8u32).map(|i| lru.score(SlotId(i))).collect();
        scores.sort_unstable();
        scores.dedup();
        assert_eq!(scores.len(), 8, "timestamps must be unique");
    }
}
