//! Belady's OPT (MIN) policy, driven by a precomputed next-use oracle.

use super::{AccessCtx, ReplacementPolicy};
use crate::types::{LineAddr, SlotId};

/// Belady's OPT: evict the block whose next reference is furthest in the
/// future.
///
/// The paper runs OPT in trace-driven mode to "decouple replacement
/// policy issues from associativity effects" (§VI-B). The policy itself
/// only stores, per slot, the stream position of the resident block's
/// next use, supplied through [`AccessCtx::next_use`]; zsim's
/// `L2Trace::fill_next_uses` precomputes those positions from a
/// recorded reference stream.
///
/// As the paper notes, in caches with interference across sets (skew,
/// zcache) OPT is a heuristic, not a true optimum — but a good one.
#[derive(Debug, Clone)]
pub struct Opt {
    next_use: Vec<u64>,
}

impl Opt {
    /// Creates an OPT policy for `lines` frames.
    pub fn new(lines: u64) -> Self {
        Self {
            next_use: vec![u64::MAX; lines as usize],
        }
    }
}

impl ReplacementPolicy for Opt {
    fn on_hit(&mut self, slot: SlotId, _addr: LineAddr, ctx: &AccessCtx) {
        self.next_use[slot.idx()] = ctx.next_use;
    }

    fn on_fill(&mut self, slot: SlotId, _addr: LineAddr, ctx: &AccessCtx) {
        self.next_use[slot.idx()] = ctx.next_use;
    }

    fn on_move(&mut self, from: SlotId, to: SlotId) {
        self.next_use[to.idx()] = self.next_use[from.idx()];
    }

    fn on_evict(&mut self, slot: SlotId) {
        self.next_use[slot.idx()] = u64::MAX;
    }

    #[inline]
    fn score(&self, slot: SlotId) -> u64 {
        // Furthest next use (or never) evicted first.
        self.next_use[slot.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_prefers_furthest_reuse() {
        let mut p = Opt::new(4);
        p.on_fill(SlotId(0), 10, &AccessCtx { next_use: 100 });
        p.on_fill(SlotId(1), 11, &AccessCtx { next_use: 50 });
        p.on_fill(SlotId(2), 12, &AccessCtx { next_use: u64::MAX });
        assert!(p.score(SlotId(2)) > p.score(SlotId(0)));
        assert!(p.score(SlotId(0)) > p.score(SlotId(1)));
    }

    #[test]
    fn hit_updates_next_use() {
        let mut p = Opt::new(1);
        p.on_fill(SlotId(0), 1, &AccessCtx { next_use: 5 });
        p.on_hit(SlotId(0), 1, &AccessCtx { next_use: 99 });
        assert_eq!(p.score(SlotId(0)), 99);
    }
}
