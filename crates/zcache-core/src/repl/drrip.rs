//! Dynamic RRIP (DRRIP) — Jaleel et al., ISCA 2010 (the paper's [24]).
//!
//! The zcache paper singles out RRIP-family policies as "the latest,
//! highest-performing policies \[that\] do not rely on set ordering" and
//! therefore compose naturally with zcaches. DRRIP is the adaptive
//! member of that family: it *duels* static RRIP (insert at long
//! re-reference) against bimodal RRIP (insert at distant re-reference,
//! occasionally long) on two hash-dedicated slices of the address space,
//! and steers the remaining fills toward whichever insertion policy is
//! missing less.
//!
//! Set dueling normally dedicates *sets*; a zcache has none, so the
//! dedication is by address hash — the same adaptation the paper's
//! bucketed LRU makes for timestamps.

use super::rrip::{age_candidates, MAX_RRPV};
use super::{AccessCtx, ReplacementPolicy};
use crate::array::Candidate;
use crate::types::{LineAddr, SlotId};
use zhash::{Hasher64, Mix64};

const LONG_RRPV: u8 = 2;

/// Which insertion policy governs an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DuelGroup {
    /// Dedicated to static RRIP insertion (always long).
    Srrip,
    /// Dedicated to bimodal RRIP insertion (mostly distant).
    Brrip,
    /// Follows the duel winner.
    Follower,
}

/// Dynamic RRIP with 2-bit RRPVs and hash-based duel groups.
///
/// # Examples
///
/// ```
/// use zcache_core::{AccessCtx, Drrip, ReplacementPolicy, SlotId};
///
/// let mut p = Drrip::new(64);
/// let ctx = AccessCtx::UNKNOWN;
/// p.on_fill(SlotId(0), 123, &ctx);
/// p.on_hit(SlotId(0), 123, &ctx);
/// assert_eq!(p.score(SlotId(0)), 0); // promoted on hit
/// ```
#[derive(Debug, Clone)]
pub struct Drrip {
    rrpv: Vec<u8>,
    /// Saturating duel counter: positive means the SRRIP-dedicated group
    /// is missing more (so BRRIP wins the followers).
    psel: i32,
    psel_max: i32,
    /// Fill counter for BRRIP's 1-in-32 long insertions.
    brrip_fills: u64,
    group_hash: Mix64,
}

impl Drrip {
    /// Creates a DRRIP policy for `lines` frames.
    pub fn new(lines: u64) -> Self {
        Self {
            rrpv: vec![MAX_RRPV; lines as usize],
            psel: 0,
            psel_max: 1 << 9,
            brrip_fills: 0,
            group_hash: Mix64::new(0xd8d8_0001),
        }
    }

    fn group(&self, addr: LineAddr) -> DuelGroup {
        // 1/32 of addresses dedicated to each insertion policy.
        match self.group_hash.hash(addr) & 63 {
            0..=1 => DuelGroup::Srrip,
            2..=3 => DuelGroup::Brrip,
            _ => DuelGroup::Follower,
        }
    }

    fn brrip_insertion(&mut self) -> u8 {
        self.brrip_fills += 1;
        // Bimodal: distant re-reference except 1 in 32 fills.
        if self.brrip_fills.is_multiple_of(32) {
            LONG_RRPV
        } else {
            MAX_RRPV
        }
    }

    /// The duel winner's insertion style for follower fills (`true` =
    /// BRRIP). Exposed for tests and diagnostics.
    pub fn brrip_winning(&self) -> bool {
        self.psel > 0
    }
}

impl ReplacementPolicy for Drrip {
    fn on_hit(&mut self, slot: SlotId, _addr: LineAddr, _ctx: &AccessCtx) {
        self.rrpv[slot.idx()] = 0;
    }

    fn on_fill(&mut self, slot: SlotId, addr: LineAddr, _ctx: &AccessCtx) {
        // A fill is a miss: dedicated groups vote.
        let insertion = match self.group(addr) {
            DuelGroup::Srrip => {
                self.psel = (self.psel + 1).min(self.psel_max);
                LONG_RRPV
            }
            DuelGroup::Brrip => {
                self.psel = (self.psel - 1).max(-self.psel_max);
                self.brrip_insertion()
            }
            DuelGroup::Follower => {
                if self.brrip_winning() {
                    self.brrip_insertion()
                } else {
                    LONG_RRPV
                }
            }
        };
        self.rrpv[slot.idx()] = insertion;
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
    use crate::array::ZArray;
    use crate::cache::Cache;
    use crate::repl::Rrip;
    use zhash::SplitMix64;

    const CTX: AccessCtx = AccessCtx::UNKNOWN;

    #[test]
    fn hit_promotes() {
        let mut p = Drrip::new(4);
        p.on_fill(SlotId(0), 5, &CTX);
        p.on_hit(SlotId(0), 5, &CTX);
        assert_eq!(p.score(SlotId(0)), 0);
    }

    #[test]
    fn dedicated_groups_move_psel() {
        let mut p = Drrip::new(64);
        // Find an SRRIP-dedicated and a BRRIP-dedicated address.
        let srrip_addr = (0..10_000u64)
            .find(|&a| p.group(a) == DuelGroup::Srrip)
            .unwrap();
        let brrip_addr = (0..10_000u64)
            .find(|&a| p.group(a) == DuelGroup::Brrip)
            .unwrap();
        p.on_fill(SlotId(0), srrip_addr, &CTX);
        assert_eq!(p.psel, 1);
        p.on_fill(SlotId(1), brrip_addr, &CTX);
        p.on_fill(SlotId(2), brrip_addr, &CTX);
        assert_eq!(p.psel, -1);
        assert!(!p.brrip_winning());
    }

    #[test]
    fn brrip_insertion_is_mostly_distant() {
        let mut p = Drrip::new(4);
        let mut distant = 0;
        for _ in 0..320 {
            if p.brrip_insertion() == MAX_RRPV {
                distant += 1;
            }
        }
        assert_eq!(distant, 310, "1 in 32 fills insert long");
    }

    #[test]
    fn psel_saturates() {
        let mut p = Drrip::new(4);
        let srrip_addr = (0..10_000u64)
            .find(|&a| p.group(a) == DuelGroup::Srrip)
            .unwrap();
        for _ in 0..2_000 {
            p.on_fill(SlotId(0), srrip_addr, &CTX);
        }
        assert_eq!(p.psel, p.psel_max);
    }

    #[test]
    fn drrip_not_worse_than_srrip_on_pure_scan() {
        // A no-reuse scan: BRRIP insertion (distant) wins because scan
        // blocks leave immediately; DRRIP should learn that and at least
        // match static RRIP.
        let lines = 256u64;
        let mut srrip = Cache::new(ZArray::new(lines, 4, 2, 1), Rrip::new(lines));
        let mut drrip = Cache::new(ZArray::new(lines, 4, 2, 1), Drrip::new(lines));
        let mut rng = SplitMix64::new(3);
        for i in 0..200_000u64 {
            // 50% hot working set (fits), 50% scan.
            let addr = if rng.next_f64() < 0.5 {
                rng.next_below(200)
            } else {
                1_000_000 + i
            };
            srrip.access(addr);
            drrip.access(addr);
        }
        let (s, d) = (srrip.stats().miss_rate(), drrip.stats().miss_rate());
        assert!(d <= s * 1.02, "DRRIP {d} much worse than SRRIP {s}");
    }

    #[test]
    fn works_inside_any_policy() {
        use crate::repl::{PolicyKind, ReplacementPolicy as _};
        let mut p = PolicyKind::Drrip.build(16);
        p.on_fill(SlotId(0), 1, &CTX);
        p.on_hit(SlotId(0), 1, &CTX);
        assert_eq!(p.score(SlotId(0)), 0);
    }
}
