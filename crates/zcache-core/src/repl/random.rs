//! Random replacement.

use super::{AccessCtx, ReplacementPolicy};
use crate::array::Candidate;
use crate::types::{LineAddr, SlotId};
use zhash::{Hasher64, Mix64};

/// Random replacement: each eviction decision ranks blocks in a fresh
/// pseudo-random order.
///
/// The order is a keyed hash of the slot index and an epoch that advances
/// on every selection, so that (a) repeated `score` queries during one
/// eviction are consistent — which the associativity meter requires — and
/// (b) consecutive evictions use independent orders.
///
/// # Examples
///
/// ```
/// use zcache_core::{RandomRepl, ReplacementPolicy, SlotId};
///
/// let p = RandomRepl::new(16, 42);
/// // Stable within an epoch:
/// assert_eq!(p.score(SlotId(3)), p.score(SlotId(3)));
/// ```
#[derive(Debug, Clone)]
pub struct RandomRepl {
    hasher: Mix64,
    epoch: u64,
}

impl RandomRepl {
    /// Creates a random policy; `lines` is accepted for interface
    /// symmetry (the policy keeps no per-slot state).
    pub fn new(_lines: u64, seed: u64) -> Self {
        Self {
            hasher: Mix64::new(seed ^ 0x7a11_cafe),
            epoch: 0,
        }
    }
}

impl ReplacementPolicy for RandomRepl {
    fn on_hit(&mut self, _slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {}

    fn on_fill(&mut self, _slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {}

    fn on_move(&mut self, _from: SlotId, _to: SlotId) {}

    fn on_evict(&mut self, _slot: SlotId) {}

    fn before_select(&mut self, _cands: &[Candidate]) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    #[inline]
    fn score(&self, slot: SlotId) -> u64 {
        self.hasher
            .hash(u64::from(slot.0) ^ self.epoch.rotate_left(32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_within_epoch() {
        let p = RandomRepl::new(8, 1);
        for s in 0..8u32 {
            assert_eq!(p.score(SlotId(s)), p.score(SlotId(s)));
        }
    }

    #[test]
    fn epochs_reshuffle() {
        let mut p = RandomRepl::new(8, 1);
        let before: Vec<_> = (0..8u32).map(|s| p.score(SlotId(s))).collect();
        p.before_select(&[]);
        let after: Vec<_> = (0..8u32).map(|s| p.score(SlotId(s))).collect();
        assert_ne!(before, after);
    }

    #[test]
    fn selection_is_roughly_uniform() {
        use super::super::select_victim;
        let mut p = RandomRepl::new(4, 3);
        let cands: Vec<_> = (0..4u32)
            .map(|i| Candidate {
                slot: SlotId(i),
                addr: Some(u64::from(i)),
                token: i,
            })
            .collect();
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            p.before_select(&cands);
            let v = select_victim(&p, &cands).unwrap();
            counts[v.slot.idx()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed victim counts {counts:?}");
        }
    }
}
