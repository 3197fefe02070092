//! Replacement policies as global block orderings.
//!
//! The analytical framework of §IV models a replacement policy as a
//! *global rank* over all cached blocks — LRU ranks by last-reference
//! time, LFU by access frequency, OPT by time to next reference. Every
//! policy here exposes that rank through [`ReplacementPolicy::score`]
//! (higher = more preferable to evict), which is what both victim
//! selection and the associativity meter consume.
//!
//! Policies are deliberately array-agnostic: the same LRU drives a
//! set-associative cache and a zcache, which is how the paper separates
//! associativity effects from replacement-policy effects.

mod bucketed_lru;
mod drrip;
mod lfu;
mod lru;
mod opt;
mod random;
mod rrip;

pub use bucketed_lru::BucketedLru;
pub use drrip::Drrip;
pub use lfu::Lfu;
pub use lru::FullLru;
pub use opt::{Opt, OptTrace};
pub use random::RandomRepl;
pub use rrip::Rrip;

use crate::array::Candidate;
use crate::types::{LineAddr, SlotId};

/// Per-access context handed to policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// Position in the reference stream of this block's *next* use, or
    /// `u64::MAX` if unknown/never. Only [`Opt`] consumes this; it is
    /// produced by [`OptTrace`].
    pub next_use: u64,
}

impl AccessCtx {
    /// Context with no future knowledge (all non-OPT policies).
    pub const UNKNOWN: AccessCtx = AccessCtx { next_use: u64::MAX };
}

impl Default for AccessCtx {
    fn default() -> Self {
        Self::UNKNOWN
    }
}

/// A replacement policy maintaining a global eviction order over slots.
pub trait ReplacementPolicy {
    /// A resident block in `slot` was re-referenced.
    fn on_hit(&mut self, slot: SlotId, addr: LineAddr, ctx: &AccessCtx);

    /// A block was installed into `slot`.
    fn on_fill(&mut self, slot: SlotId, addr: LineAddr, ctx: &AccessCtx);

    /// A block was relocated between frames (zcache): its replacement
    /// state must follow it.
    fn on_move(&mut self, from: SlotId, to: SlotId);

    /// The block in `slot` was evicted or invalidated.
    fn on_evict(&mut self, slot: SlotId);

    /// Hook invoked with the complete candidate set before any score is
    /// read; policies with selection-time state updates (e.g. RRIP
    /// aging) use this.
    fn before_select(&mut self, _cands: &[Candidate]) {}

    /// Eviction preference of the block in `slot`: higher scores are
    /// evicted first. Only called for occupied slots.
    fn score(&self, slot: SlotId) -> u64;

    /// Batched scoring: appends one score per candidate to `out`, in
    /// candidate order.
    ///
    /// Must agree element-wise with [`score`](Self::score) — including
    /// on empty-frame candidates, even though selection short-circuits
    /// on those before comparing scores. Policies override it to hoist
    /// per-call state loads out of the loop on the miss hot path.
    fn score_many(&self, cands: &[Candidate], out: &mut Vec<u64>) {
        out.extend(cands.iter().map(|c| self.score(c.slot)));
    }
}

/// Selects the best victim from a candidate set: an empty frame if one
/// exists, otherwise the occupied candidate with the highest
/// [`score`](ReplacementPolicy::score) (first wins ties).
///
/// Returns `None` only for an empty candidate set.
pub fn select_victim<P: ReplacementPolicy + ?Sized>(
    policy: &P,
    cands: &[Candidate],
) -> Option<Candidate> {
    if cands.is_empty() {
        return None;
    }
    let mut best: Option<(Candidate, u64)> = None;
    for c in cands {
        match c.addr {
            None => return Some(*c), // free frame: perfect victim
            Some(_) => {
                let s = policy.score(c.slot);
                match &best {
                    Some((_, bs)) if *bs >= s => {}
                    _ => best = Some((*c, s)),
                }
            }
        }
    }
    best.map(|(c, _)| c)
}

/// Policy selector for [`CacheBuilder`](crate::CacheBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Full LRU with wide timestamps (§III-E).
    Lru,
    /// Bucketed LRU: `bits`-bit timestamps bumped every `k` accesses
    /// (§III-E; the paper's evaluation policy).
    BucketedLru {
        /// Timestamp width in bits (the paper suggests 8).
        bits: u32,
        /// Accesses per timestamp bump (the paper suggests 5% of cache
        /// size).
        k: u64,
    },
    /// Least-frequently-used.
    Lfu,
    /// Uniform-random eviction order.
    Random,
    /// Belady's OPT (requires next-use annotations from [`OptTrace`]).
    Opt,
    /// Static RRIP (2-bit re-reference interval prediction), as an
    /// example of the set-ordering-free policies the paper points to.
    Rrip,
    /// Dynamic RRIP (hash-dueled SRRIP/BRRIP insertion) — the adaptive
    /// member of the paper's cited RRIP family.
    Drrip,
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Lru => write!(f, "lru"),
            PolicyKind::BucketedLru { bits, k } => write!(f, "bucketed-lru({bits}b,k={k})"),
            PolicyKind::Lfu => write!(f, "lfu"),
            PolicyKind::Random => write!(f, "random"),
            PolicyKind::Opt => write!(f, "opt"),
            PolicyKind::Rrip => write!(f, "rrip"),
            PolicyKind::Drrip => write!(f, "drrip"),
        }
    }
}

impl PolicyKind {
    /// Instantiates the policy for a cache with `lines` frames.
    pub fn build(self, lines: u64, seed: u64) -> AnyPolicy {
        match self {
            PolicyKind::Lru => AnyPolicy::Lru(FullLru::new(lines)),
            PolicyKind::BucketedLru { bits, k } => {
                AnyPolicy::BucketedLru(BucketedLru::new(lines, bits, k))
            }
            PolicyKind::Lfu => AnyPolicy::Lfu(Lfu::new(lines)),
            PolicyKind::Random => AnyPolicy::Random(RandomRepl::new(lines, seed)),
            PolicyKind::Opt => AnyPolicy::Opt(Opt::new(lines)),
            PolicyKind::Rrip => AnyPolicy::Rrip(Rrip::new(lines)),
            PolicyKind::Drrip => AnyPolicy::Drrip(Drrip::new(lines)),
        }
    }
}

/// A runtime-selected policy (enum dispatch).
#[derive(Debug, Clone)]
pub enum AnyPolicy {
    /// See [`FullLru`].
    Lru(FullLru),
    /// See [`BucketedLru`].
    BucketedLru(BucketedLru),
    /// See [`Lfu`].
    Lfu(Lfu),
    /// See [`RandomRepl`].
    Random(RandomRepl),
    /// See [`Opt`].
    Opt(Opt),
    /// See [`Rrip`].
    Rrip(Rrip),
    /// See [`Drrip`].
    Drrip(Drrip),
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            AnyPolicy::Lru($inner) => $e,
            AnyPolicy::BucketedLru($inner) => $e,
            AnyPolicy::Lfu($inner) => $e,
            AnyPolicy::Random($inner) => $e,
            AnyPolicy::Opt($inner) => $e,
            AnyPolicy::Rrip($inner) => $e,
            AnyPolicy::Drrip($inner) => $e,
        }
    };
}

impl ReplacementPolicy for AnyPolicy {
    #[inline]
    fn on_hit(&mut self, slot: SlotId, addr: LineAddr, ctx: &AccessCtx) {
        delegate!(self, p => p.on_hit(slot, addr, ctx))
    }
    #[inline]
    fn on_fill(&mut self, slot: SlotId, addr: LineAddr, ctx: &AccessCtx) {
        delegate!(self, p => p.on_fill(slot, addr, ctx))
    }
    #[inline]
    fn on_move(&mut self, from: SlotId, to: SlotId) {
        delegate!(self, p => p.on_move(from, to))
    }
    #[inline]
    fn on_evict(&mut self, slot: SlotId) {
        delegate!(self, p => p.on_evict(slot))
    }
    #[inline]
    fn before_select(&mut self, cands: &[Candidate]) {
        delegate!(self, p => p.before_select(cands))
    }
    #[inline]
    fn score(&self, slot: SlotId) -> u64 {
        delegate!(self, p => p.score(slot))
    }
    #[inline]
    fn score_many(&self, cands: &[Candidate], out: &mut Vec<u64>) {
        // Dispatch the enum once per miss instead of once per candidate.
        delegate!(self, p => p.score_many(cands, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_prefers_empty_frame() {
        let p = FullLru::new(8);
        let cands = [
            Candidate {
                slot: SlotId(0),
                addr: Some(1),
                token: 0,
            },
            Candidate {
                slot: SlotId(1),
                addr: None,
                token: 1,
            },
        ];
        assert_eq!(select_victim(&p, &cands).unwrap().slot, SlotId(1));
    }

    #[test]
    fn select_takes_highest_score() {
        let mut p = FullLru::new(8);
        let ctx = AccessCtx::UNKNOWN;
        p.on_fill(SlotId(0), 10, &ctx); // oldest
        p.on_fill(SlotId(1), 11, &ctx);
        p.on_fill(SlotId(2), 12, &ctx); // newest
        let cands: Vec<_> = (0..3)
            .map(|i| Candidate {
                slot: SlotId(i),
                addr: Some(u64::from(i) + 10),
                token: i,
            })
            .collect();
        assert_eq!(select_victim(&p, &cands).unwrap().slot, SlotId(0));
    }

    #[test]
    fn select_empty_set_is_none() {
        let p = FullLru::new(4);
        assert!(select_victim(&p, &[]).is_none());
    }

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::Lru.to_string(), "lru");
        assert_eq!(
            PolicyKind::BucketedLru { bits: 8, k: 100 }.to_string(),
            "bucketed-lru(8b,k=100)"
        );
        assert_eq!(PolicyKind::Opt.to_string(), "opt");
    }

    #[test]
    fn any_policy_builds_all_kinds() {
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::BucketedLru { bits: 8, k: 16 },
            PolicyKind::Lfu,
            PolicyKind::Random,
            PolicyKind::Opt,
            PolicyKind::Rrip,
        ];
        for k in kinds {
            let mut p = k.build(16, 1);
            let ctx = AccessCtx::UNKNOWN;
            p.on_fill(SlotId(0), 5, &ctx);
            p.on_hit(SlotId(0), 5, &ctx);
            let _ = p.score(SlotId(0));
            p.on_move(SlotId(0), SlotId(1));
            p.on_evict(SlotId(1));
        }
    }
}
