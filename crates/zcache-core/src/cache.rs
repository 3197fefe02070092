//! The cache front-end: array + policy + statistics + instrumentation.
//!
//! [`Cache::access_with`] is the one access path: a lookup, and on a
//! miss the array's candidates (a zcache walk writes each one once),
//! one selection pass over them with the access's key rule
//! ([`ReplacementPolicy::pick_victim`]), then the install and its
//! relocations. The key rule is the only variation point:
//! [`Cache::access_full`] keys each candidate by its score, and
//! [`PartitionedCache`](crate::PartitionedCache), where a quota can
//! bind, by its score under an over-quota bit.

use crate::array::{AnyArray, ArrayKind, CacheArray, CandidateSet, InstallOutcome, INVALID_TAG};
use crate::array::{FullyAssocArray, SetAssocArray, ZArray};
use crate::assoc::AssociativityMeter;
use crate::repl::{AccessCtx, AnyPolicy, PolicyKind, ReplacementPolicy};
use crate::stats::CacheStats;
use crate::types::{LineAddr, SlotId};
use crate::WalkKind;

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Block evicted to make room (misses into a full candidate set).
    pub evicted: Option<LineAddr>,
    /// Whether the evicted block was dirty (needs a write-back).
    pub evicted_dirty: bool,
    /// Frame the accessed block occupies after the access: the hit
    /// frame, or [`InstallOutcome::filled_slot`] on a miss. Callers that
    /// keep per-frame state beside the cache (zsim's in-cache directory)
    /// index it with this instead of a second lookup.
    pub slot: SlotId,
}

impl AccessOutcome {
    /// Whether the access missed.
    pub fn is_miss(&self) -> bool {
        !self.hit
    }
}

/// A single-level cache: an array organization driven by a replacement
/// policy, with the event accounting the paper's energy model needs and
/// optional associativity-distribution metering.
///
/// Use [`CacheBuilder`] to configure one, or construct array and policy
/// directly for generic (static-dispatch) use:
///
/// ```
/// use zcache_core::{Cache, ZArray, FullLru};
///
/// let array = ZArray::new(1 << 10, 4, 3, 1); // the paper's Z4/52
/// let policy = FullLru::new(1 << 10);
/// let mut cache = Cache::new(array, policy);
/// assert!(cache.access(0xabc).is_miss());
/// assert!(cache.access(0xabc).hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache<A, P> {
    array: A,
    policy: P,
    dirty: Vec<bool>,
    stats: CacheStats,
    meter: Option<AssociativityMeter>,
    cands: CandidateSet,
    install: InstallOutcome,
}

impl<A: CacheArray, P: ReplacementPolicy> Cache<A, P> {
    /// Wraps an array and a policy into a cache.
    pub fn new(array: A, policy: P) -> Self {
        let lines = array.lines() as usize;
        Self {
            array,
            policy,
            dirty: vec![false; lines],
            stats: CacheStats::new(),
            meter: None,
            cands: CandidateSet::new(),
            install: InstallOutcome::default(),
        }
    }

    /// Attaches an associativity meter (see [`AssociativityMeter`]).
    pub fn set_meter(&mut self, meter: AssociativityMeter) {
        self.meter = Some(meter);
    }

    /// The attached meter, if any.
    pub fn meter(&self) -> Option<&AssociativityMeter> {
        self.meter.as_ref()
    }

    /// Read access with no future knowledge.
    pub fn access(&mut self, addr: LineAddr) -> AccessOutcome {
        self.access_full(addr, false, u64::MAX)
    }

    /// Write access with no future knowledge.
    pub fn access_write(&mut self, addr: LineAddr) -> AccessOutcome {
        self.access_full(addr, true, u64::MAX)
    }

    /// Full-control access: read/write plus the next-use annotation the
    /// OPT policy consumes (pass `u64::MAX` when unknown). A miss evicts
    /// the first candidate with the highest score.
    #[inline]
    pub fn access_full(&mut self, addr: LineAddr, write: bool, next_use: u64) -> AccessOutcome {
        self.access_with(addr, write, next_use, |_, score| score)
    }

    /// The access path: lookup, and on a miss walk, select, install.
    ///
    /// Victim selection is the only variation point. An empty candidate
    /// frame wins outright; otherwise the victim is the first candidate
    /// with the highest `key(line, score)` over the candidates in
    /// discovery order, where `line` is the block a candidate holds and
    /// `score` its policy score (higher = evict first), picked in one
    /// pass ([`ReplacementPolicy::pick_victim`]).
    /// [`access_full`](Cache::access_full) keys by the score alone; QoS
    /// layers such as [`PartitionedCache`] set a bit above the score of
    /// the candidates they allow.
    ///
    /// [`PartitionedCache`]: crate::PartitionedCache
    ///
    /// # Panics
    ///
    /// Panics if `addr` is [`INVALID_TAG`], the reserved empty-frame
    /// marker, which no array can hold.
    pub fn access_with<T: Ord>(
        &mut self,
        addr: LineAddr,
        write: bool,
        next_use: u64,
        key: impl Fn(LineAddr, u64) -> T,
    ) -> AccessOutcome {
        // The empty-frame marker would match an empty frame's tag (or a
        // free bucket of the fully-associative index): a false hit.
        assert_ne!(
            addr, INVALID_TAG,
            "line {addr:#x} is the reserved empty-frame tag"
        );
        let ctx = AccessCtx { next_use };
        if let Some(slot) = self.array.lookup_mut(addr) {
            self.hit(slot, addr, write, &ctx);
            return AccessOutcome {
                hit: true,
                evicted: None,
                evicted_dirty: false,
                slot,
            };
        }

        self.stats.accesses += 1;
        self.stats.misses += 1;
        self.array.candidates(addr, &mut self.cands);
        self.policy.before_select(self.cands.as_slice());
        // An empty frame (tracked as the set was written) wins before any
        // scoring: `score` is pure, so not scoring cannot change policy
        // state.
        let cands = self.cands.as_slice();
        let victim = match self.cands.first_empty() {
            Some(c) => *c,
            None => cands[self.policy.pick_victim(cands, key)],
        };
        self.stats.candidates_examined += self.cands.len() as u64;
        self.stats.walk_levels += u64::from(self.cands.levels);
        self.stats.tag_reads += u64::from(self.cands.tag_reads);

        if victim.line != INVALID_TAG {
            if let Some(m) = self.meter.as_mut() {
                m.on_eviction(&self.array, &self.policy, victim.slot);
            }
        }

        self.array.install(addr, &victim, &mut self.install);

        // Eviction bookkeeping must read the victim's dirty bit before any
        // relocation overwrites that frame.
        let mut evicted_dirty = false;
        if let (Some(_), Some(slot)) = (self.install.evicted, self.install.evicted_slot) {
            self.stats.evictions += 1;
            evicted_dirty = self.dirty[slot.idx()];
            if evicted_dirty {
                self.stats.writebacks += 1;
                self.stats.data_reads += 1; // read the line out for the write-back
            }
            self.policy.on_evict(slot);
        }

        // Relocations: policy state and dirty bits follow the blocks.
        for &(from, to) in &self.install.moves {
            self.policy.on_move(from, to);
            self.dirty[to.idx()] = self.dirty[from.idx()];
        }
        let m = self.install.moves.len() as u64;
        self.stats.relocations += m;
        self.stats.tag_reads += m;
        self.stats.tag_writes += m;
        self.stats.data_reads += m;
        self.stats.data_writes += m;

        // Fill.
        let filled = self.install.filled_slot;
        self.dirty[filled.idx()] = write;
        self.stats.tag_writes += 1;
        self.stats.data_writes += 1;
        self.policy.on_fill(filled, addr, &ctx);

        AccessOutcome {
            hit: false,
            evicted: self.install.evicted,
            evicted_dirty,
            slot: filled,
        }
    }

    /// Hit bookkeeping shared by [`access_with`](Cache::access_with) and
    /// [`write_at`](Cache::write_at).
    #[inline]
    fn hit(&mut self, slot: SlotId, addr: LineAddr, write: bool, ctx: &AccessCtx) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
        self.stats.tag_reads += u64::from(self.array.ways());
        if write {
            self.stats.data_writes += 1;
            self.dirty[slot.idx()] = true;
        } else {
            self.stats.data_reads += 1;
        }
        self.policy.on_hit(slot, addr, ctx);
    }

    /// Write hit on `addr`, which the caller found resident in `slot`
    /// with a [`CacheArray::lookup`] of [`array`](Cache::array): the hit
    /// path of [`access_full`](Cache::access_full) with `write = true`.
    /// A caller draining a posted write-back that needs the block's frame
    /// for its own bookkeeping too (zsim's in-cache directory) then does
    /// one lookup for both.
    ///
    /// Debug builds panic if `slot` does not hold `addr`.
    pub fn write_at(&mut self, slot: SlotId, addr: LineAddr, next_use: u64) {
        debug_assert_eq!(
            self.array.addr_at(slot),
            Some(addr),
            "{slot} holds another block"
        );
        self.hit(slot, addr, true, &AccessCtx { next_use });
    }

    /// Invalidates `addr` (coherence or inclusion victim); returns
    /// `Some(dirty)` if the block was resident.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<bool> {
        if addr == INVALID_TAG {
            return None; // never resident; an array would match an empty frame
        }
        let slot = self.array.invalidate(addr)?;
        self.stats.invalidations += 1;
        let was_dirty = self.dirty[slot.idx()];
        if was_dirty {
            self.stats.writebacks += 1;
            self.stats.data_reads += 1;
        }
        self.dirty[slot.idx()] = false;
        self.policy.on_evict(slot);
        Some(was_dirty)
    }

    /// Whether `addr` is resident.
    pub fn contains(&self, addr: LineAddr) -> bool {
        addr != INVALID_TAG && self.array.lookup(addr).is_some()
    }

    /// Whether `addr` is resident and dirty.
    pub fn is_dirty(&self, addr: LineAddr) -> bool {
        self.array
            .lookup(addr)
            .map(|s| self.dirty[s.idx()])
            .unwrap_or(false)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warm-up), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// The underlying array.
    pub fn array(&self) -> &A {
        &self.array
    }

    /// Mutable access to the underlying array, for controllers that
    /// retune it at run time (e.g. a [`ShadowDuel`] setting the walk
    /// budget). Mutations must not move or remove resident blocks — the
    /// per-slot policy and dirty state would go stale.
    ///
    /// [`ShadowDuel`]: crate::ShadowDuel
    pub fn array_mut(&mut self) -> &mut A {
        &mut self.array
    }

    /// The replacement policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Total frames.
    pub fn lines(&self) -> u64 {
        self.array.lines()
    }

    /// Occupied frames.
    pub fn occupancy(&self) -> u64 {
        self.array.occupancy()
    }

    /// Calls `f` for every resident block.
    pub fn for_each_resident(&self, f: &mut dyn FnMut(LineAddr)) {
        self.array.for_each_valid(&mut |_, a| f(a));
    }

    /// Candidates gathered by the most recent miss (empty before the
    /// first miss). Differential harnesses compare this against a
    /// reference model's independently recomputed walk.
    pub fn last_candidates(&self) -> &CandidateSet {
        &self.cands
    }

    /// Install outcome of the most recent miss, including the full
    /// relocation move list (default before the first miss).
    pub fn last_install(&self) -> &InstallOutcome {
        &self.install
    }

    /// Digest of the complete observable state: every resident
    /// `(slot, addr, dirty)` triple folded in ascending slot order with
    /// [`digest_step`](crate::array::digest_step).
    ///
    /// Two caches produce equal digests iff they agree on the placement
    /// and dirtiness of every resident block.
    pub fn state_digest(&self) -> u64 {
        let mut entries: Vec<(SlotId, LineAddr)> = Vec::new();
        self.array.for_each_valid(&mut |s, a| entries.push((s, a)));
        entries.sort_unstable_by_key(|(s, _)| s.0);
        entries
            .iter()
            .fold(crate::array::DIGEST_SEED, |h, &(s, a)| {
                crate::array::digest_step(h, s, a, self.dirty[s.idx()])
            })
    }
}

/// A runtime-configured cache (enum-dispatched array and policy).
pub type DynCache = Cache<AnyArray, AnyPolicy>;

/// Builder for a [`DynCache`].
///
/// # Examples
///
/// ```
/// use zcache_core::{ArrayKind, CacheBuilder, PolicyKind};
/// use zhash::HashKind;
///
/// // The paper's baseline: 4-way set-associative with H3 index hashing.
/// let mut baseline = CacheBuilder::new()
///     .lines(1 << 12)
///     .ways(4)
///     .array(ArrayKind::SetAssoc { hash: HashKind::H3 })
///     .policy(PolicyKind::Lru)
///     .build();
/// assert_eq!(baseline.lines(), 1 << 12);
/// ```
#[derive(Debug, Clone)]
pub struct CacheBuilder {
    lines: u64,
    ways: u32,
    array: ArrayKind,
    policy: PolicyKind,
    seed: u64,
    meter: Option<(usize, u64)>,
    max_candidates: Option<u32>,
    walk_kind: WalkKind,
    bloom_dedup: bool,
    way_hash: zhash::HashKind,
}

impl CacheBuilder {
    /// Starts a builder with the paper's defaults: a 4-way, 2-level
    /// zcache (Z4/16) under bucketed LRU.
    pub fn new() -> Self {
        Self {
            lines: 1 << 10,
            ways: 4,
            array: ArrayKind::ZCache { levels: 2 },
            policy: PolicyKind::BucketedLru { bits: 8, k: 64 },
            seed: 1,
            meter: None,
            max_candidates: None,
            walk_kind: WalkKind::Bfs,
            bloom_dedup: false,
            way_hash: zhash::HashKind::H3,
        }
    }

    /// Total frames (must suit the array kind's constraints).
    pub fn lines(mut self, lines: u64) -> Self {
        self.lines = lines;
        self
    }

    /// Number of ways (ignored by fully-associative and random-candidate
    /// arrays).
    pub fn ways(mut self, ways: u32) -> Self {
        self.ways = ways;
        self
    }

    /// Array organization.
    pub fn array(mut self, kind: ArrayKind) -> Self {
        self.array = kind;
        self
    }

    /// Replacement policy.
    pub fn policy(mut self, kind: PolicyKind) -> Self {
        self.policy = kind;
        self
    }

    /// Seed for hash functions and randomized components.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches an associativity meter with `bins` bins sampling every
    /// `period`-th eviction.
    pub fn meter(mut self, bins: usize, period: u64) -> Self {
        self.meter = Some((bins, period));
        self
    }

    /// Caps zcache walks at `max` candidates (early-stop ablation).
    pub fn max_candidates(mut self, max: u32) -> Self {
        self.max_candidates = Some(max);
        self
    }

    /// Walk order for zcache arrays.
    pub fn walk_kind(mut self, kind: WalkKind) -> Self {
        self.walk_kind = kind;
        self
    }

    /// Enables Bloom-filter walk dedup for zcache arrays.
    pub fn bloom_dedup(mut self, enable: bool) -> Self {
        self.bloom_dedup = enable;
        self
    }

    /// Per-way hash family for skew/zcache arrays (default H3, the
    /// paper's choice). Small structures (tens of rows) benefit from
    /// `HashKind::Mix64`: H3 matrices restricted to a handful of
    /// varying address bits occasionally spread poorly.
    pub fn way_hash(mut self, hash: zhash::HashKind) -> Self {
        self.way_hash = hash;
        self
    }

    /// Builds the configured cache.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrayKind::check_geometry`] rejects the geometry.
    pub fn build(&self) -> DynCache {
        let array = match self.array {
            ArrayKind::SetAssoc { hash } => {
                AnyArray::SetAssoc(SetAssocArray::new(self.lines, self.ways, hash, self.seed))
            }
            ArrayKind::Skew => AnyArray::ZCache(ZArray::with_hash(
                self.lines,
                self.ways,
                1,
                self.way_hash,
                self.seed,
            )),
            ArrayKind::ZCache { levels } => {
                let mut z =
                    ZArray::with_hash(self.lines, self.ways, levels, self.way_hash, self.seed)
                        .with_walk_kind(self.walk_kind)
                        .with_bloom_dedup(self.bloom_dedup);
                if let Some(m) = self.max_candidates {
                    z = z.with_max_candidates(m);
                }
                AnyArray::ZCache(z)
            }
            ArrayKind::Fully => AnyArray::Fully(FullyAssocArray::new(self.lines)),
            ArrayKind::RandomCands { n } => {
                AnyArray::Fully(FullyAssocArray::random_candidates(self.lines, n, self.seed))
            }
        };
        let policy = self.policy.build(self.lines);
        let mut cache = Cache::new(array, policy);
        if let Some((bins, period)) = self.meter {
            cache.set_meter(AssociativityMeter::new(bins, period));
        }
        cache
    }

    /// Convenience: builds with full LRU regardless of the configured
    /// policy.
    pub fn build_lru(&self) -> DynCache {
        self.clone().policy(PolicyKind::Lru).build()
    }
}

impl Default for CacheBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::FullLru;
    use crate::SlotId;
    use zhash::HashKind;

    #[test]
    fn hit_after_fill() {
        let mut c = CacheBuilder::new().lines(64).build_lru();
        assert!(c.access(5).is_miss());
        assert!(c.access(5).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_semantics_in_fully_assoc() {
        let mut c = CacheBuilder::new()
            .lines(4)
            .array(ArrayKind::Fully)
            .build_lru();
        for a in 0..4u64 {
            c.access(a);
        }
        c.access(0); // refresh 0; LRU victim is now 1
        let out = c.access(100);
        assert_eq!(out.evicted, Some(1));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = CacheBuilder::new()
            .lines(2)
            .array(ArrayKind::Fully)
            .build_lru();
        c.access_write(1);
        c.access(2);
        let out = c.access(3); // evicts 1 (dirty)
        assert_eq!(out.evicted, Some(1));
        assert!(out.evicted_dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn dirty_bit_follows_relocations() {
        // Fill a small zcache with writes, force deep evictions, and
        // verify no dirty state is lost: every eviction of a written
        // block must report dirty.
        let mut c = CacheBuilder::new()
            .lines(64)
            .ways(4)
            .array(ArrayKind::ZCache { levels: 3 })
            .build_lru();
        let mut written = std::collections::HashSet::new();
        for a in 0..500u64 {
            let out = c.access_write(a);
            written.insert(a);
            if let Some(e) = out.evicted {
                assert!(out.evicted_dirty, "written block {e} evicted clean");
                written.remove(&e);
            }
        }
    }

    #[test]
    fn outcome_reports_the_frame_of_the_accessed_block() {
        // The frame fits in the outcome's padding.
        assert_eq!(std::mem::size_of::<AccessOutcome>(), 24);
        let mut c = CacheBuilder::new()
            .lines(64)
            .ways(4)
            .array(ArrayKind::ZCache { levels: 3 })
            .build_lru();
        for a in 0..500u64 {
            let out = c.access(a % 200);
            assert_eq!(c.array().lookup(a % 200), Some(out.slot), "access {a}");
            if out.is_miss() {
                assert_eq!(out.slot, c.last_install().filled_slot);
            }
        }
        assert!(c.stats().relocations > 0, "misses must relocate");
    }

    #[test]
    fn invalidate_reports_dirty() {
        let mut c = CacheBuilder::new().lines(64).build_lru();
        c.access_write(7);
        assert!(c.is_dirty(7));
        assert_eq!(c.invalidate(7), Some(true));
        assert!(!c.contains(7));
        assert_eq!(c.invalidate(7), None);
        c.access(8);
        assert_eq!(c.invalidate(8), Some(false));
    }

    #[test]
    fn stats_account_walk_and_relocations() {
        let mut c = CacheBuilder::new()
            .lines(64)
            .ways(4)
            .array(ArrayKind::ZCache { levels: 2 })
            .build_lru();
        for a in 0..200u64 {
            c.access(a);
        }
        let s = c.stats();
        assert!(s.candidates_examined >= s.misses * 4);
        assert!(s.tag_writes >= s.misses); // one per fill plus relocations
        assert!(s.avg_candidates() >= 4.0);
    }

    #[test]
    fn meter_collects_samples() {
        let mut c = CacheBuilder::new()
            .lines(64)
            .ways(4)
            .array(ArrayKind::ZCache { levels: 2 })
            .meter(64, 1)
            .build_lru();
        for a in 0..2000u64 {
            c.access(a % 512); // enough reuse to exercise evictions
        }
        let meter = c.meter().unwrap();
        assert!(meter.samples() > 100, "samples: {}", meter.samples());
        // High associativity: mean eviction priority must be high.
        assert!(
            meter.histogram().mean() > 0.75,
            "mean priority {}",
            meter.histogram().mean()
        );
    }

    #[test]
    fn generic_cache_with_static_dispatch() {
        let mut c = Cache::new(ZArray::new(64, 4, 2, 3), FullLru::new(64));
        for a in 0..100u64 {
            c.access(a);
        }
        assert_eq!(c.stats().misses, 100);
        assert_eq!(c.occupancy(), 64);
    }

    #[test]
    fn builder_builds_every_array_kind() {
        let kinds = [
            ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            },
            ArrayKind::SetAssoc { hash: HashKind::H3 },
            ArrayKind::Skew,
            ArrayKind::ZCache { levels: 2 },
            ArrayKind::ZCache { levels: 3 },
            ArrayKind::Fully,
            ArrayKind::RandomCands { n: 16 },
        ];
        for k in kinds {
            let mut c = CacheBuilder::new().lines(64).ways(4).array(k).build();
            for a in 0..200u64 {
                c.access(a % 90);
            }
            assert_eq!(c.stats().accesses, 200, "{k}");
            assert!(c.occupancy() <= 64);
        }
    }

    #[test]
    fn key_rule_takes_the_first_of_ties() {
        // Slots 0..4 aged 3, 1, 3, 0 under LRU: the two oldest tie, and the
        // first in candidate order wins, under the plain rule and under a
        // rule that flattens every key.
        let mut lru = FullLru::new(4);
        let ctx = AccessCtx::UNKNOWN;
        for s in [0, 2, 1, 3] {
            lru.on_fill(SlotId(s), u64::from(s), &ctx);
        }
        lru.on_move(SlotId(0), SlotId(2));
        let cands: Vec<_> = (0..4u32)
            .map(|s| crate::Candidate {
                line: u64::from(s),
                slot: SlotId(s),
                token: s,
            })
            .collect();
        assert_eq!(lru.pick_victim(&cands, |_, score| score), 0);
        assert_eq!(lru.pick_victim(&cands[1..], |_, score| score), 1);
        assert_eq!(lru.pick_victim(&cands[3..], |_, score| score), 0);
        assert_eq!(lru.pick_victim(&cands, |_, _| 0), 0);
        // A bit above the score outranks any score; ties among the
        // flagged candidates again go to the first.
        let flag = |line: u64, score: u64| (u8::from(line % 2 == 1), score);
        assert_eq!(lru.pick_victim(&cands, flag), 1);
        assert_eq!(lru.pick_victim(&cands, |line, _| line == 3), 3);
    }

    #[test]
    fn access_with_evicts_by_its_key_rule() {
        // Lines 0..8 fill a fully-associative LRU cache in frames 0..8,
        // so line 0 is the oldest. The plain rule evicts it; a rule that
        // ranks one line above every score evicts that line instead.
        let build = || {
            let mut c = CacheBuilder::new()
                .lines(8)
                .array(ArrayKind::Fully)
                .build_lru();
            for a in 0..8u64 {
                c.access(a);
            }
            c
        };
        let evicted = |key: fn(LineAddr, u64) -> (bool, u64)| {
            build().access_with(99, false, u64::MAX, key).evicted
        };
        assert_eq!(evicted(|_, score| (false, score)), Some(0));
        assert_eq!(evicted(|line, score| (line == 5, score)), Some(5));
        // After a hit on line 0 the plain rule evicts line 1, while a rule
        // that ties every candidate still takes the first in discovery
        // order, line 0's frame.
        let mut c = build();
        c.access(0);
        let plain = c.clone().access_with(99, false, u64::MAX, |_, score| score);
        assert_eq!(plain.evicted, Some(1));
        assert_eq!(
            c.access_with(99, false, u64::MAX, |_, _| 0).evicted,
            Some(0)
        );
    }

    #[test]
    fn every_array_refuses_the_empty_frame_tag() {
        // On an empty cache the marker matched an empty frame's tag (or a
        // free bucket of the fully-associative index) and read as a hit
        // with nothing resident. The access path panics; the marker is
        // never resident.
        let kinds = [
            ArrayKind::ZCache { levels: 3 },
            ArrayKind::SetAssoc { hash: HashKind::H3 },
            ArrayKind::Skew,
            ArrayKind::Fully,
            ArrayKind::RandomCands { n: 16 },
        ];
        for k in kinds {
            let mut c = CacheBuilder::new().lines(64).ways(4).array(k).build_lru();
            c.access(1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.access_write(INVALID_TAG);
            }));
            let failure = crate::PanicFailure::from_payload(k.to_string(), caught.unwrap_err());
            assert!(
                failure.message.contains("reserved empty-frame tag"),
                "{failure}"
            );
            assert!(!c.contains(INVALID_TAG), "{k}");
            assert_eq!(c.invalidate(INVALID_TAG), None, "{k}");
            assert_eq!((c.occupancy(), c.stats().accesses), (1, 1), "{k}");
        }
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = CacheBuilder::new().lines(64).build_lru();
        c.access(1);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(1).hit);
    }

    #[test]
    fn for_each_resident_visits_all() {
        let mut c = CacheBuilder::new().lines(64).build_lru();
        for a in 0..10u64 {
            c.access(a);
        }
        let mut seen = Vec::new();
        c.for_each_resident(&mut |a| seen.push(a));
        seen.sort_unstable();
        assert_eq!(seen, (0..10u64).collect::<Vec<_>>());
    }
}
