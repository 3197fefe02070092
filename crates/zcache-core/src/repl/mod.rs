//! Replacement policies as global block orderings.
//!
//! The analytical framework of §IV models a replacement policy as a
//! *global rank* over all cached blocks — LRU ranks by last-reference
//! time, LFU by access frequency, OPT by time to next reference. Every
//! policy here exposes that rank through [`ReplacementPolicy::score`]
//! (higher = more preferable to evict), which is what both victim
//! selection and the associativity meter consume. Selection is one pass
//! per miss, [`ReplacementPolicy::pick_victim`]: the first candidate
//! with the highest key of its line and score, under a key rule the
//! caller supplies.
//!
//! Policies are deliberately array-agnostic: the same LRU drives a
//! set-associative cache and a zcache, which is how the paper separates
//! associativity effects from replacement-policy effects.

mod bucketed_lru;
mod drrip;
mod lfu;
mod lru;
mod opt;
mod rrip;

pub use bucketed_lru::BucketedLru;
pub use drrip::Drrip;
pub use lfu::Lfu;
pub use lru::FullLru;
pub use opt::Opt;
pub use rrip::Rrip;

use crate::array::{Candidate, INVALID_TAG};
use crate::types::{LineAddr, SlotId};

/// Per-access context handed to policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessCtx {
    /// Position in the reference stream of this block's *next* use, or
    /// `u64::MAX` if unknown/never. Only [`Opt`] consumes this; zsim's
    /// `L2Trace::fill_next_uses` produces it for recorded traces.
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

    /// The victim of one miss: the index of the first candidate with the
    /// highest `key(line, score)`, where `line` is the block a candidate
    /// holds ([`INVALID_TAG`] for an empty frame) and `score` its
    /// [`score`](Self::score).
    ///
    /// This is the miss path's one selection pass. [`Cache`] calls it
    /// once per miss, after [`before_select`](Self::before_select) and
    /// only when every candidate is occupied, with its access's key rule:
    /// the score itself, or a score under an eligibility bit
    /// ([`PartitionedCache`]). Later candidates win only with a strictly
    /// higher key, so ties go to discovery order. [`AnyPolicy`]
    /// dispatches once per call, not once per candidate.
    ///
    /// [`Cache`]: crate::Cache
    /// [`PartitionedCache`]: crate::PartitionedCache
    ///
    /// # Panics
    ///
    /// Panics if `cands` is empty.
    #[inline]
    fn pick_victim<T: Ord>(&self, cands: &[Candidate], key: impl Fn(LineAddr, u64) -> T) -> usize
    where
        Self: Sized,
    {
        let key_of = |c: &Candidate| key(c.addr.unwrap_or(INVALID_TAG), self.score(c.slot));
        let mut best = (0, key_of(&cands[0]));
        for (i, c) in cands.iter().enumerate().skip(1) {
            let k = key_of(c);
            if k > best.1 {
                best = (i, k);
            }
        }
        best.0
    }
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
    /// Belady's OPT (requires next-use annotations in
    /// [`AccessCtx::next_use`]).
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
            PolicyKind::Opt => write!(f, "opt"),
            PolicyKind::Rrip => write!(f, "rrip"),
            PolicyKind::Drrip => write!(f, "drrip"),
        }
    }
}

impl PolicyKind {
    /// Instantiates the policy for a cache with `lines` frames.
    pub fn build(self, lines: u64) -> AnyPolicy {
        match self {
            PolicyKind::Lru => AnyPolicy::Lru(FullLru::new(lines)),
            PolicyKind::BucketedLru { bits, k } => {
                AnyPolicy::BucketedLru(BucketedLru::new(lines, bits, k))
            }
            PolicyKind::Lfu => AnyPolicy::Lfu(Lfu::new(lines)),
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
    fn pick_victim<T: Ord>(&self, cands: &[Candidate], key: impl Fn(LineAddr, u64) -> T) -> usize {
        // Dispatch the enum once per miss instead of once per candidate.
        delegate!(self, p => p.pick_victim(cands, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            PolicyKind::Opt,
            PolicyKind::Rrip,
            PolicyKind::Drrip,
        ];
        for k in kinds {
            let mut p = k.build(16);
            let ctx = AccessCtx::UNKNOWN;
            p.on_fill(SlotId(0), 5, &ctx);
            p.on_hit(SlotId(0), 5, &ctx);
            let _ = p.score(SlotId(0));
            p.on_move(SlotId(0), SlotId(1));
            p.on_evict(SlotId(1));
        }
    }
}
