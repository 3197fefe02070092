//! Multi-tenant cache partitioning enforced in victim selection.
//!
//! The paper's thesis — associativity is a property of the *replacement
//! process*, not the array — implies a zcache can be partitioned among
//! tenants without reserving sets or ways: give every tenant an
//! occupancy quota, walk for candidates exactly as usual, and install
//! only over a victim whose owning tenant is **at or over** its quota.
//! With a deep walk (the paper's `R = W·Σ(W−1)^l` candidates per miss)
//! the candidate set is a rich sample of the whole array, so an
//! over-quota tenant's blocks are almost always among the candidates
//! and quotas bind tightly; with a shallow walk enforcement degrades
//! gracefully (companion-caching-style sharing). Each tenant also
//! carries its own *walk budget* — the early-stop candidate cap — so a
//! scan-heavy tenant can be throttled to the skew-associative floor
//! while a reuse-heavy tenant keeps the full walk, optionally steered
//! per tenant by a [`ShadowDuel`].
//!
//! Ownership is tracked by namespacing: tenant `t`'s line `a` is stored
//! under the tagged address `a | (t << 56)`, so the owner of any
//! resident block — including blocks relocated along walk paths — is
//! recoverable from its tag alone, and per-tenant occupancy counters
//! stay exact across relocations without a side map.

use crate::adaptive::{AdaptiveConfig, ShadowDuel};
use crate::array::Candidate;
use crate::cache::{highest_score, CacheBuilder, DynCache};
use crate::repl::PolicyKind;
use crate::types::LineAddr;
use crate::ArrayKind;

/// Bit position of the tenant id inside a tagged address; line
/// addresses must fit below it.
pub const TENANT_SHIFT: u32 = 56;

/// Maximum number of tenants a [`PartitionedCache`] supports.
pub const MAX_TENANTS: usize = 64;

/// Tags tenant `t`'s line address into the shared namespace.
///
/// # Panics
///
/// Panics if `line` overflows the [`TENANT_SHIFT`] tag space.
#[inline]
pub fn tenant_tag(tenant: usize, line: LineAddr) -> LineAddr {
    assert_eq!(
        line >> TENANT_SHIFT,
        0,
        "line address {line:#x} overflows the tenant tag space"
    );
    line | ((tenant as u64) << TENANT_SHIFT)
}

/// The tenant owning a tagged address.
#[inline]
pub fn tenant_of(tagged: LineAddr) -> usize {
    (tagged >> TENANT_SHIFT) as usize
}

/// The raw line address of a tagged address.
#[inline]
pub fn line_of(tagged: LineAddr) -> LineAddr {
    tagged & ((1u64 << TENANT_SHIFT) - 1)
}

/// Per-tenant resource grant: an occupancy quota (frames) and a walk
/// budget (replacement candidates per miss, clamped to at least the way
/// count by the array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantGrant {
    /// Frames this tenant may hold before its blocks become preferred
    /// eviction victims. `0` = best-effort (always evictable).
    pub quota: u64,
    /// Candidate cap for this tenant's misses (the early-stopped walk
    /// of §III; `u32::MAX` = the full configured walk).
    pub walk_budget: u32,
}

/// Configuration for a [`PartitionedCache`].
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Total frames of the shared array.
    pub lines: u64,
    /// Ways of the shared zcache array.
    pub ways: u32,
    /// Walk depth in levels (2 → Z/16, 3 → Z/52 at 4 ways).
    pub levels: u32,
    /// Replacement policy shared by all tenants.
    pub policy: PolicyKind,
    /// Seed for the array hash functions (and the policy, where
    /// applicable).
    pub seed: u64,
    /// Whether quotas constrain victim selection. `false` degrades the
    /// cache to plain sharing — the baseline the isolation sweeps
    /// compare against, and the "quota bypass" mutation the zoracle
    /// lockstep must catch.
    pub enforce_quota: bool,
    /// When `Some`, every tenant gets a private [`ShadowDuel`] observing
    /// its own stream and re-tuning its walk budget at phase changes.
    pub adaptive: Option<AdaptiveConfig>,
    /// One grant per tenant (the tenant count is this vector's length).
    pub tenants: Vec<TenantGrant>,
}

impl PartitionConfig {
    /// A static (non-adaptive) configuration with quota enforcement on.
    pub fn new(
        lines: u64,
        ways: u32,
        levels: u32,
        policy: PolicyKind,
        seed: u64,
        tenants: Vec<TenantGrant>,
    ) -> Self {
        Self {
            lines,
            ways,
            levels,
            policy,
            seed,
            enforce_quota: true,
            adaptive: None,
            tenants,
        }
    }
}

/// Per-tenant access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Accesses issued by this tenant.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Blocks of this tenant evicted (by anyone).
    pub evictions: u64,
    /// Blocks of this tenant evicted by *another* tenant's miss.
    pub cross_evictions: u64,
    /// Walk-budget changes applied by this tenant's duel.
    pub budget_changes: u64,
}

impl TenantStats {
    /// Miss ratio (0 for an idle tenant).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Outcome of one partitioned access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// `(owner, line)` of the block evicted to make room, if any.
    pub evicted: Option<(usize, LineAddr)>,
    /// Whether the evicted block was dirty.
    pub evicted_dirty: bool,
}

#[derive(Debug, Clone)]
struct TenantState {
    quota: u64,
    budget: u32,
    occupancy: u64,
    stats: TenantStats,
    duel: Option<ShadowDuel<crate::repl::AnyPolicy>>,
}

/// K tenants sharing one physical zcache, isolated purely in victim
/// selection (see the module docs for the scheme).
///
/// # Examples
///
/// ```
/// use zcache_core::{PartitionConfig, PartitionedCache, PolicyKind, TenantGrant};
///
/// let cfg = PartitionConfig::new(
///     1 << 10,
///     4,
///     3,
///     PolicyKind::Lru,
///     1,
///     vec![
///         TenantGrant { quota: 768, walk_budget: 52 },
///         TenantGrant { quota: 256, walk_budget: 4 },
///     ],
/// );
/// let mut cache = PartitionedCache::new(&cfg);
/// cache.access(0, 0xabc, false);
/// cache.access(1, 0xabc, false); // same line, different tenant: distinct block
/// assert_eq!(cache.occupancy_of(0) + cache.occupancy_of(1), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedCache {
    cache: DynCache,
    tenants: Vec<TenantState>,
    enforce_quota: bool,
}

impl PartitionedCache {
    /// Builds the shared array and per-tenant state.
    ///
    /// # Panics
    ///
    /// Panics if there are no tenants, more than [`MAX_TENANTS`], or the
    /// geometry is invalid for a zcache array (see [`CacheBuilder`]).
    pub fn new(cfg: &PartitionConfig) -> Self {
        assert!(!cfg.tenants.is_empty(), "need at least one tenant");
        assert!(
            cfg.tenants.len() <= MAX_TENANTS,
            "at most {MAX_TENANTS} tenants supported"
        );
        let cache = CacheBuilder::new()
            .lines(cfg.lines)
            .ways(cfg.ways)
            .array(ArrayKind::ZCache { levels: cfg.levels })
            .policy(cfg.policy)
            .seed(cfg.seed)
            .build();
        let tenants = cfg
            .tenants
            .iter()
            .map(|g| TenantState {
                quota: g.quota,
                budget: g.walk_budget,
                occupancy: 0,
                stats: TenantStats::default(),
                duel: cfg.adaptive.map(|acfg| {
                    let (policy, seed) = (cfg.policy, cfg.seed);
                    ShadowDuel::for_geometry(
                        cfg.lines,
                        cfg.ways,
                        cfg.levels,
                        |l| policy.build(l, seed),
                        acfg,
                    )
                }),
            })
            .collect();
        Self {
            cache,
            tenants,
            enforce_quota: cfg.enforce_quota,
        }
    }

    /// Read access for `tenant` (no next-use annotation).
    pub fn access(&mut self, tenant: usize, line: LineAddr, write: bool) -> PartitionOutcome {
        self.access_full(tenant, line, write, u64::MAX)
    }

    /// Full-control access: the tenant's duel (if any) re-tunes its walk
    /// budget, the shared array walks under that budget, and victim
    /// selection prefers the highest-scoring candidate whose owner is
    /// at/over quota. When quota enforcement finds no eligible candidate
    /// (every owner in the walked sample is under quota — possible when
    /// quotas overcommit the array or the walk is shallow), the plain
    /// highest-score victim is evicted so the access always completes.
    pub fn access_full(
        &mut self,
        tenant: usize,
        line: LineAddr,
        write: bool,
        next_use: u64,
    ) -> PartitionOutcome {
        assert!(
            tenant < self.tenants.len(),
            "tenant {tenant} out of range ({} tenants)",
            self.tenants.len()
        );
        let tagged = tenant_tag(tenant, line);

        if let Some(duel) = self.tenants[tenant].duel.as_mut() {
            if let Some(budget) = duel.observe(tagged) {
                self.tenants[tenant].budget = budget;
                self.tenants[tenant].stats.budget_changes += 1;
            }
        }
        self.cache
            .array_mut()
            .set_max_candidates(self.tenants[tenant].budget);

        let enforce = self.enforce_quota;
        let tenants = &self.tenants;
        let out = self
            .cache
            .access_with(tagged, write, next_use, |cands, scores| {
                select_quota_victim(cands, scores, tenants, enforce)
            });

        let evicted = out.evicted.map(|e| (tenant_of(e), line_of(e)));
        if !out.hit {
            if let Some((owner, _)) = evicted {
                self.tenants[owner].occupancy -= 1;
                self.tenants[owner].stats.evictions += 1;
                if owner != tenant {
                    self.tenants[owner].stats.cross_evictions += 1;
                }
            }
            self.tenants[tenant].occupancy += 1;
        }
        let stats = &mut self.tenants[tenant].stats;
        stats.accesses += 1;
        if out.hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        PartitionOutcome {
            hit: out.hit,
            evicted,
            evicted_dirty: out.evicted_dirty,
        }
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Frames currently held by `tenant` (exact incremental counter).
    pub fn occupancy_of(&self, tenant: usize) -> u64 {
        self.tenants[tenant].occupancy
    }

    /// `tenant`'s current walk budget (as configured or last adapted).
    pub fn budget_of(&self, tenant: usize) -> u32 {
        self.tenants[tenant].budget
    }

    /// `tenant`'s access statistics.
    pub fn tenant_stats(&self, tenant: usize) -> &TenantStats {
        &self.tenants[tenant].stats
    }

    /// The shared underlying cache (aggregate stats, walk introspection
    /// via `last_candidates`/`last_install`, state digests). Resident
    /// addresses seen through it are tenant-tagged; decode with
    /// [`tenant_of`]/[`line_of`].
    pub fn cache(&self) -> &DynCache {
        &self.cache
    }

    /// Recomputes every tenant's occupancy exhaustively from the array
    /// tags. Always equal to the incremental counters — the differential
    /// harness asserts it.
    pub fn recount_occupancy(&self) -> Vec<u64> {
        let mut occ = vec![0u64; self.tenants.len()];
        self.cache.for_each_resident(&mut |a| {
            let t = tenant_of(a);
            if t < occ.len() {
                occ[t] += 1;
            }
        });
        occ
    }

    /// Incremental per-tenant occupancy counters, tenant order.
    pub fn occupancies(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.occupancy).collect()
    }

    /// Digest of the complete shared-cache state (tagged addresses, so
    /// ownership is part of the digest).
    pub fn state_digest(&self) -> u64 {
        self.cache.state_digest()
    }
}

/// The partition victim rule: among candidates whose owner is at/over
/// quota, the highest score wins (first wins ties); with enforcement off
/// or no eligible candidate, the default rule, [`highest_score`].
fn select_quota_victim(
    cands: &[Candidate],
    scores: &[u64],
    tenants: &[TenantState],
    enforce: bool,
) -> usize {
    debug_assert_eq!(cands.len(), scores.len());
    if enforce {
        let mut best: Option<(usize, u64)> = None;
        for (i, (c, &s)) in cands.iter().zip(scores).enumerate() {
            let addr = c.addr.expect("selector only sees occupied frames");
            let t = &tenants[tenant_of(addr)];
            if t.occupancy >= t.quota && best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
        if let Some((i, _)) = best {
            return i;
        }
    }
    highest_score(cands, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zhash::SplitMix64;

    fn two_tenant_cfg(lines: u64, quotas: [u64; 2], budgets: [u32; 2]) -> PartitionConfig {
        PartitionConfig::new(
            lines,
            4,
            3,
            PolicyKind::Lru,
            1,
            vec![
                TenantGrant {
                    quota: quotas[0],
                    walk_budget: budgets[0],
                },
                TenantGrant {
                    quota: quotas[1],
                    walk_budget: budgets[1],
                },
            ],
        )
    }

    #[test]
    fn counters_match_exhaustive_recount() {
        let cfg = two_tenant_cfg(256, [192, 64], [52, 52]);
        let mut c = PartitionedCache::new(&cfg);
        let mut rng = SplitMix64::new(3);
        for i in 0..20_000u64 {
            let t = (rng.next_below(3) == 0) as usize;
            let line = rng.next_below(600);
            c.access(t, line, rng.next_below(4) == 0);
            if i % 512 == 0 {
                assert_eq!(c.occupancies(), c.recount_occupancy(), "step {i}");
            }
        }
        assert_eq!(c.occupancies(), c.recount_occupancy());
        let total: u64 = c.occupancies().iter().sum();
        assert_eq!(total, c.cache().occupancy());
    }

    #[test]
    fn quotas_bind_under_scan_pressure() {
        // A hot tenant with a large quota vs a scanning neighbor with a
        // small one: with the deep walk sampling 52 candidates per miss,
        // the scanner can't hold meaningfully more than its quota, and
        // the hot tenant keeps roughly its grant.
        let cfg = two_tenant_cfg(1024, [768, 256], [52, 52]);
        let mut c = PartitionedCache::new(&cfg);
        let mut rng = SplitMix64::new(7);
        let mut scan = 0u64;
        for _ in 0..300_000 {
            // Hot tenant: 2 of 3 accesses over a set *larger* than its
            // quota, so the quota genuinely binds on both sides.
            if rng.next_below(3) < 2 {
                c.access(0, rng.next_below(900), false);
            } else {
                scan += 1;
                c.access(1, scan, false);
            }
        }
        let occ = c.occupancies();
        assert!(
            occ[1] <= 256 + 16,
            "scanner holds {} frames, quota 256",
            occ[1]
        );
        assert!(
            occ[0] >= 768 - 16,
            "hot tenant holds {} frames, quota 768",
            occ[0]
        );
    }

    #[test]
    fn quota_bypass_lets_the_scanner_flood() {
        // Same streams, enforcement off: the scanner steals far past its
        // quota — the behavioral delta the zoracle mutation test pins.
        let mut cfg = two_tenant_cfg(1024, [768, 256], [52, 52]);
        cfg.enforce_quota = false;
        let mut c = PartitionedCache::new(&cfg);
        let mut rng = SplitMix64::new(7);
        let mut scan = 0u64;
        for _ in 0..300_000 {
            if rng.next_below(3) < 2 {
                c.access(0, rng.next_below(700), false);
            } else {
                scan += 1;
                c.access(1, scan, false);
            }
        }
        assert!(
            c.occupancy_of(1) > 256 + 64,
            "unenforced scanner should flood past its quota (got {})",
            c.occupancy_of(1)
        );
    }

    #[test]
    fn same_line_different_tenants_are_distinct_blocks() {
        let cfg = two_tenant_cfg(64, [32, 32], [16, 16]);
        let mut c = PartitionedCache::new(&cfg);
        assert!(!c.access(0, 5, false).hit);
        assert!(
            !c.access(1, 5, false).hit,
            "tenant 1 must miss on its own 5"
        );
        assert!(c.access(0, 5, false).hit);
        assert!(c.access(1, 5, false).hit);
        assert_eq!(c.occupancy_of(0), 1);
        assert_eq!(c.occupancy_of(1), 1);
    }

    #[test]
    fn walk_budget_caps_candidates_per_tenant() {
        let cfg = two_tenant_cfg(256, [128, 128], [52, 4]);
        let mut c = PartitionedCache::new(&cfg);
        let mut rng = SplitMix64::new(9);
        // Fill well past capacity so walks run at depth.
        for i in 0..4_000u64 {
            let t = (i % 2) as usize;
            let miss_before = c.tenant_stats(t).misses;
            c.access(t, rng.next_below(1_000), false);
            if c.tenant_stats(t).misses > miss_before && c.cache().occupancy() == 256 {
                let n = c.cache().last_candidates().len();
                if t == 1 {
                    assert!(n <= 4, "budget-4 tenant walked {n} candidates");
                } else {
                    assert!(n <= 52);
                }
            }
        }
        // The capped tenant must actually have missed under a full array.
        assert!(c.tenant_stats(1).misses > 100);
    }

    #[test]
    fn adaptive_duels_are_per_tenant_and_deterministic() {
        let mut cfg = two_tenant_cfg(1024, [512, 512], [52, 52]);
        cfg.adaptive = Some(AdaptiveConfig {
            window: 256,
            sample_shift: 0,
            ..AdaptiveConfig::default()
        });
        let run = || {
            let mut c = PartitionedCache::new(&cfg);
            let mut rng = SplitMix64::new(11);
            for i in 0..120_000u64 {
                // Tenant 0 re-uses a hot set; tenant 1 streams.
                if rng.next_below(2) == 0 {
                    c.access(0, rng.next_below(500), false);
                } else {
                    c.access(1, 1_000_000 + i, false);
                }
            }
            (
                c.budget_of(0),
                c.budget_of(1),
                c.tenant_stats(0).budget_changes,
                c.tenant_stats(1).budget_changes,
                c.state_digest(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "adaptive partitioned runs must be deterministic");
        // The streaming tenant's duel must have throttled its walk.
        assert_eq!(a.1, 4, "streaming tenant should fall to the floor");
        assert!(a.3 >= 1);
    }

    #[test]
    fn one_unbounded_tenant_is_a_plain_cache() {
        // Partitioning adds only a selector: a single tenant whose quota
        // is the whole array, with an uncapped walk and no duel, must
        // behave exactly like the unpartitioned cache. RRIP covers the
        // mutating `before_select` prepass.
        for policy in [PolicyKind::Lru, PolicyKind::Rrip] {
            let cfg = PartitionConfig::new(
                256,
                4,
                3,
                policy,
                5,
                vec![TenantGrant {
                    quota: 256,
                    walk_budget: u32::MAX,
                }],
            );
            let mut part = PartitionedCache::new(&cfg);
            let mut plain = CacheBuilder::new()
                .lines(256)
                .ways(4)
                .array(ArrayKind::ZCache { levels: 3 })
                .policy(policy)
                .seed(5)
                .build();
            let mut rng = SplitMix64::new(13);
            for i in 0..30_000 {
                let line = rng.next_below(700);
                let write = rng.next_below(4) == 0;
                let a = part.access(0, line, write);
                let b = plain.access_full(line, write, u64::MAX);
                assert_eq!(
                    (a.hit, a.evicted.map(|(_, l)| l), a.evicted_dirty),
                    (b.hit, b.evicted, b.evicted_dirty),
                    "{policy} access {i}"
                );
            }
            assert_eq!(part.cache().stats(), plain.stats(), "{policy}");
            assert_eq!(part.state_digest(), plain.state_digest(), "{policy}");
        }
    }

    #[test]
    #[should_panic(expected = "overflows the tenant tag")]
    fn oversized_line_panics() {
        let cfg = two_tenant_cfg(64, [32, 32], [16, 16]);
        let mut c = PartitionedCache::new(&cfg);
        c.access(0, 1u64 << TENANT_SHIFT, false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_tenant_panics() {
        let cfg = two_tenant_cfg(64, [32, 32], [16, 16]);
        let mut c = PartitionedCache::new(&cfg);
        c.access(2, 1, false);
    }
}
