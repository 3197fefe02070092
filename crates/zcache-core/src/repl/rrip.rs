//! Static RRIP (re-reference interval prediction), Jaleel et al., 2010.

use super::{AccessCtx, ReplacementPolicy};
use crate::array::Candidate;
use crate::types::{LineAddr, SlotId};

/// Static RRIP with 2-bit re-reference prediction values (RRPVs).
///
/// The paper points to RRIP as one of "the latest, highest-performing
/// policies \[that\] do not rely on set ordering" — i.e. policies that
/// compose naturally with a zcache. Blocks are filled with a *long*
/// re-reference prediction (RRPV = 2), promoted to 0 on a hit, and
/// evicted when their RRPV reaches the maximum (3). When no candidate is
/// at the maximum, all candidates age — the candidate-set analogue of
/// SRRIP's per-set aging.
///
/// Scan-resistant: a streaming block enters at RRPV 2 and is evicted
/// before it can displace the hot working set.
#[derive(Debug, Clone)]
pub struct Rrip {
    rrpv: Vec<u8>,
}

/// Maximum RRPV for 2-bit prediction.
pub(super) const MAX_RRPV: u8 = 3;
/// Insertion RRPV ("long re-reference interval").
const INSERT_RRPV: u8 = 2;

impl Rrip {
    /// Creates an RRIP policy for `lines` frames.
    pub fn new(lines: u64) -> Self {
        Self {
            rrpv: vec![MAX_RRPV; lines as usize],
        }
    }
}

/// RRIP aging over a candidate set, shared by [`Rrip`] and
/// [`Drrip`](super::Drrip): ages every candidate until some occupied
/// one predicts a distant re-reference (RRPV = [`MAX_RRPV`]). Free
/// frames short-circuit selection anyway, so a set with one skips aging.
pub(super) fn age_candidates(rrpv: &mut [u8], cands: &[Candidate]) {
    if cands.iter().any(|c| c.addr.is_none()) {
        return;
    }
    for _ in 0..MAX_RRPV {
        if cands.iter().any(|c| rrpv[c.slot.idx()] == MAX_RRPV) {
            break;
        }
        for c in cands {
            let v = &mut rrpv[c.slot.idx()];
            *v = (*v + 1).min(MAX_RRPV);
        }
    }
}

impl ReplacementPolicy for Rrip {
    fn on_hit(&mut self, slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {
        self.rrpv[slot.idx()] = 0;
    }

    fn on_fill(&mut self, slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {
        self.rrpv[slot.idx()] = INSERT_RRPV;
    }

    fn on_move(&mut self, from: SlotId, to: SlotId) {
        self.rrpv[to.idx()] = self.rrpv[from.idx()];
    }

    fn on_evict(&mut self, slot: SlotId) {
        self.rrpv[slot.idx()] = MAX_RRPV;
    }

    fn before_select(&mut self, cands: &[Candidate]) {
        age_candidates(&mut self.rrpv, cands);
    }

    #[inline]
    fn score(&self, slot: SlotId) -> u64 {
        u64::from(self.rrpv[slot.idx()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTX: AccessCtx = AccessCtx::UNKNOWN;

    fn cands(slots: &[u32]) -> Vec<Candidate> {
        slots
            .iter()
            .map(|&s| Candidate {
                slot: SlotId(s),
                addr: Some(u64::from(s) + 100),
                token: s,
            })
            .collect()
    }

    #[test]
    fn fill_inserts_long() {
        let mut p = Rrip::new(4);
        p.on_fill(SlotId(0), 1, &CTX);
        assert_eq!(p.score(SlotId(0)), u64::from(INSERT_RRPV));
    }

    #[test]
    fn hit_promotes_to_near() {
        let mut p = Rrip::new(4);
        p.on_fill(SlotId(0), 1, &CTX);
        p.on_hit(SlotId(0), 1, &CTX);
        assert_eq!(p.score(SlotId(0)), 0);
    }

    #[test]
    fn aging_stops_at_max() {
        let mut p = Rrip::new(4);
        let cs = cands(&[0, 1]);
        p.on_fill(SlotId(0), 1, &CTX);
        p.on_fill(SlotId(1), 2, &CTX);
        p.on_hit(SlotId(0), 1, &CTX); // rrpv 0
        p.before_select(&cs);
        // Slot 1 (rrpv 2) ages to 3; slot 0 ages to 1.
        assert_eq!(p.score(SlotId(1)), 3);
        assert_eq!(p.score(SlotId(0)), 1);
    }

    #[test]
    fn no_aging_when_max_present() {
        let mut p = Rrip::new(4);
        let cs = cands(&[0, 1]);
        p.on_fill(SlotId(0), 1, &CTX);
        p.on_evict(SlotId(1)); // rrpv 3
        let before = p.score(SlotId(0));
        p.before_select(&cs);
        assert_eq!(p.score(SlotId(0)), before);
    }

    #[test]
    fn free_frames_skip_aging() {
        let mut p = Rrip::new(4);
        let mut cs = cands(&[0]);
        cs.push(Candidate {
            slot: SlotId(1),
            addr: None,
            token: 1,
        });
        p.on_fill(SlotId(0), 1, &CTX);
        p.on_hit(SlotId(0), 1, &CTX);
        p.before_select(&cs);
        assert_eq!(p.score(SlotId(0)), 0, "no aging when a frame is free");
    }

    #[test]
    fn scan_resistance() {
        // A hot block (rrpv 0) should survive eviction pressure from
        // never-reused scan blocks (inserted at rrpv 2).
        let mut p = Rrip::new(3);
        p.on_fill(SlotId(0), 1, &CTX);
        p.on_hit(SlotId(0), 1, &CTX); // hot
        p.on_fill(SlotId(1), 2, &CTX); // scan
        p.on_fill(SlotId(2), 3, &CTX); // scan
        let cs = cands(&[0, 1, 2]);
        p.before_select(&cs);
        let v = cs[p.pick_victim(&cs, |_, score| score)];
        assert_ne!(v.slot, SlotId(0), "hot block must not be the victim");
    }
}
