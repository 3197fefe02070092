//! Least-frequently-used policy.

use super::{AccessCtx, ReplacementPolicy};
use crate::types::{LineAddr, SlotId};

/// LFU: blocks are globally ranked by access frequency; the least
/// frequently used block is evicted first.
///
/// Included because the §IV framework explicitly names LFU as an example
/// of a global-ordering policy ("in LFU they are ordered by access
/// frequency"); it also exercises heavy score ties in the associativity
/// meter.
///
/// # Examples
///
/// ```
/// use zcache_core::{Lfu, ReplacementPolicy, AccessCtx, SlotId};
///
/// let mut p = Lfu::new(4);
/// let ctx = AccessCtx::UNKNOWN;
/// p.on_fill(SlotId(0), 1, &ctx);
/// p.on_fill(SlotId(1), 2, &ctx);
/// p.on_hit(SlotId(0), 1, &ctx);
/// assert!(p.score(SlotId(1)) > p.score(SlotId(0))); // 1 is colder
/// ```
#[derive(Debug, Clone)]
pub struct Lfu {
    counts: Vec<u64>,
}

impl Lfu {
    /// Creates an LFU policy for `lines` frames.
    pub fn new(lines: u64) -> Self {
        Self {
            counts: vec![0; lines as usize],
        }
    }
}

impl ReplacementPolicy for Lfu {
    fn on_hit(&mut self, slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {
        self.counts[slot.idx()] = self.counts[slot.idx()].saturating_add(1);
    }

    fn on_fill(&mut self, slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {
        self.counts[slot.idx()] = 1;
    }

    fn on_move(&mut self, from: SlotId, to: SlotId) {
        self.counts[to.idx()] = self.counts[from.idx()];
    }

    fn on_evict(&mut self, slot: SlotId) {
        self.counts[slot.idx()] = 0;
    }

    #[inline(always)]
    fn score(&self, slot: SlotId) -> u64 {
        u64::MAX - self.counts[slot.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: AccessCtx = AccessCtx::UNKNOWN;

    #[test]
    fn cold_blocks_evicted_first() {
        let mut p = Lfu::new(2);
        p.on_fill(SlotId(0), 0, &CTX);
        p.on_fill(SlotId(1), 1, &CTX);
        for _ in 0..5 {
            p.on_hit(SlotId(0), 0, &CTX);
        }
        assert!(p.score(SlotId(1)) > p.score(SlotId(0)));
    }

    #[test]
    fn fill_resets_count() {
        let mut p = Lfu::new(1);
        p.on_fill(SlotId(0), 0, &CTX);
        for _ in 0..9 {
            p.on_hit(SlotId(0), 0, &CTX);
        }
        let hot = p.score(SlotId(0));
        p.on_evict(SlotId(0));
        p.on_fill(SlotId(0), 5, &CTX);
        assert!(p.score(SlotId(0)) > hot, "new block is colder than old");
    }

    #[test]
    fn move_carries_count() {
        let mut p = Lfu::new(4);
        p.on_fill(SlotId(0), 0, &CTX);
        p.on_hit(SlotId(0), 0, &CTX);
        let s = p.score(SlotId(0));
        p.on_move(SlotId(0), SlotId(2));
        assert_eq!(p.score(SlotId(2)), s);
    }
}
