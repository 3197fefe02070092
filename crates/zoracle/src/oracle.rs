//! The reference cache: array + policy + dirty state + tenant grants,
//! recomputed the slow, obvious way on every access.

use crate::array::{RefArray, RefCand};
use crate::stream::Access;
use crate::{CheckConfig, RefPolicy};
use std::collections::HashSet;
use zcache_core::partition::tenant_of;
use zcache_core::{digest_step, SlotId, TenantGrant, DIGEST_SEED};

/// Everything the reference model observed for one access; the
/// differential runner compares this field-for-field against the
/// production cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RefOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Block evicted (occupied-victim misses only), tenant-tagged.
    pub evicted: Option<u64>,
    /// Whether the evicted block was dirty.
    pub evicted_dirty: bool,
    /// Frame the evicted block vacated.
    pub evicted_slot: Option<u32>,
    /// Frame the incoming block landed in (misses only).
    pub filled_slot: Option<u32>,
    /// Relocations performed, deepest first.
    pub moves: Vec<(u32, u32)>,
    /// Candidate `(slot, resident)` pairs in discovery order (misses
    /// only).
    pub cands: Vec<(u32, Option<u64>)>,
}

/// The brute-force reference cache, for plain and partitioned checks
/// alike: blocks are stored under their tenant-tagged [`Access::key`],
/// and the two variation points are the walk cap and the victim rule.
///
/// * The walk of each miss is re-derived under the issuing tenant's
///   budget with [`RefArray::candidates_capped`].
/// * With quota enforcement on, every tenant's occupancy is recounted
///   exhaustively from the tags on every miss (the production side
///   keeps incremental counters).
/// * Victims are ranked from address-keyed policy maps, and dirty state
///   is a set of addresses (not per-frame bits), so production bugs
///   that lose or misroute state across relocations cannot be
///   replicated here.
#[derive(Debug, Clone)]
pub struct OracleCache {
    array: RefArray,
    policy: RefPolicy,
    dirty: HashSet<u64>,
    tick: u64,
    grants: Vec<TenantGrant>,
    enforce: bool,
}

impl OracleCache {
    /// Builds the reference twin for a check configuration. A plain
    /// check is one tenant owning the whole array with an unbounded walk.
    pub fn new(cfg: &CheckConfig) -> Self {
        let grants = if cfg.has_tenants() {
            cfg.tenants.clone()
        } else {
            vec![TenantGrant {
                quota: cfg.lines,
                walk_budget: u32::MAX,
            }]
        };
        Self {
            array: RefArray::new(cfg),
            policy: RefPolicy::new(cfg.policy),
            dirty: HashSet::new(),
            tick: 0,
            grants,
            enforce: cfg.enforce_quota,
        }
    }

    /// Every tenant's occupancy, recounted exhaustively from the tags.
    pub fn occupancies(&self) -> Vec<u64> {
        let mut occ = vec![0u64; self.grants.len()];
        self.array.for_each_valid(&mut |_, a| {
            let t = tenant_of(a);
            if t < occ.len() {
                occ[t] += 1;
            }
        });
        occ
    }

    /// Selects the victim index from `cands` exactly as the production
    /// contract specifies: the first empty frame wins immediately;
    /// otherwise the highest-ranked candidate whose owner is at/over
    /// quota; with enforcement off or no eligible candidate, the plain
    /// highest-ranked candidate. Ties go to the first seen.
    fn select_victim(&self, cands: &[RefCand]) -> usize {
        let occ = self.enforce.then(|| self.occupancies());
        let mut best_any: Option<(usize, u64)> = None;
        let mut best_eligible: Option<(usize, u64)> = None;
        for (i, c) in cands.iter().enumerate() {
            let Some(a) = c.addr else { return i };
            let r = self.policy.rank(a);
            // `match`, not `Option::is_none_or`: the closure form made
            // the reference ~10 % slower on a plain check (2-vCPU Xeon).
            match best_any {
                Some((_, br)) if br >= r => {}
                _ => best_any = Some((i, r)),
            }
            if let Some(occ) = &occ {
                let owner = tenant_of(a);
                if occ[owner] >= self.grants[owner].quota {
                    match best_eligible {
                        Some((_, br)) if br >= r => {}
                        _ => best_eligible = Some((i, r)),
                    }
                }
            }
        }
        best_eligible
            .or(best_any)
            .expect("candidate sets are never empty")
            .0
    }

    /// Processes one access. `next_use` is the stream position of the
    /// next reference to the same block (`u64::MAX` = never), consumed
    /// only by the OPT rank.
    ///
    /// # Panics
    ///
    /// Panics if `acc.tenant` has no grant.
    pub fn access(&mut self, acc: Access, next_use: u64) -> RefOutcome {
        let key = acc.key();
        let now = self.tick;
        self.tick += 1;

        if self.array.lookup(key).is_some() {
            self.policy.on_hit(key, now, next_use);
            if acc.write {
                self.dirty.insert(key);
            }
            return RefOutcome {
                hit: true,
                ..RefOutcome::default()
            };
        }

        let cands = self
            .array
            .candidates_capped(key, self.grants[acc.tenant].walk_budget);
        let victim_idx = self.select_victim(&cands);
        let install = self.array.install(key, victim_idx, &cands);

        let mut evicted_dirty = false;
        if let Some(e) = install.evicted {
            evicted_dirty = self.dirty.remove(&e);
            self.policy.on_evict(e);
        }
        self.policy.on_fill(key, now, next_use);
        if acc.write {
            self.dirty.insert(key);
        }

        RefOutcome {
            hit: false,
            evicted: install.evicted,
            evicted_dirty,
            evicted_slot: install.evicted_slot,
            filled_slot: Some(install.filled_slot),
            moves: install.moves,
            cands: cands.iter().map(|c| (c.slot, c.addr)).collect(),
        }
    }

    /// Digest over the reference tag + dirty state, using the same fold
    /// as the production side so equal states hash equal.
    pub fn state_digest(&self) -> u64 {
        let mut h = DIGEST_SEED;
        self.array.for_each_valid(&mut |slot, a| {
            h = digest_step(h, SlotId(slot), a, self.dirty.contains(&a));
        });
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckDesign, CheckPolicy};

    fn cfg(d: CheckDesign, p: CheckPolicy) -> CheckConfig {
        CheckConfig::new(d, p, 64, 4, 11)
    }

    fn acc(addr: u64, write: bool) -> Access {
        Access {
            tenant: 0,
            addr,
            write,
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut o = OracleCache::new(&cfg(CheckDesign::Z2, CheckPolicy::Lru));
        assert!(!o.access(acc(5, false), u64::MAX).hit);
        assert!(o.access(acc(5, false), u64::MAX).hit);
    }

    #[test]
    fn lru_evicts_oldest_in_fully_assoc() {
        let mut o = OracleCache::new(&CheckConfig::new(
            CheckDesign::Fully,
            CheckPolicy::Lru,
            4,
            4,
            1,
        ));
        for a in 0..4u64 {
            o.access(acc(a, false), u64::MAX);
        }
        o.access(acc(0, false), u64::MAX); // refresh 0; victim is now 1
        let out = o.access(acc(100, false), u64::MAX);
        assert_eq!(out.evicted, Some(1));
    }

    #[test]
    fn quota_rule_evicts_the_over_quota_tenant() {
        // Tenant 1 holds three of four frames against a quota of one, so
        // tenant 0's miss must evict tenant 1's oldest block, not the
        // globally oldest (tenant 0's own). Without enforcement the
        // globally oldest goes.
        let mut c = CheckConfig::new(CheckDesign::Fully, CheckPolicy::Lru, 4, 4, 1);
        c.tenants = vec![
            TenantGrant {
                quota: 3,
                walk_budget: u32::MAX,
            },
            TenantGrant {
                quota: 1,
                walk_budget: u32::MAX,
            },
        ];
        for enforce in [true, false] {
            c.enforce_quota = enforce;
            let mut o = OracleCache::new(&c);
            let t = |tenant, addr| Access {
                tenant,
                addr,
                write: false,
            };
            for a in [t(0, 1), t(1, 2), t(1, 3), t(1, 4)] {
                o.access(a, u64::MAX);
            }
            assert_eq!(o.occupancies(), vec![1, 3]);
            let out = o.access(t(0, 5), u64::MAX);
            let oldest = if enforce { t(1, 2) } else { t(0, 1) };
            assert_eq!(out.evicted, Some(oldest.key()), "enforce={enforce}");
        }
    }

    #[test]
    fn dirty_follows_block_through_relocations() {
        let mut o = OracleCache::new(&cfg(CheckDesign::Z3, CheckPolicy::Lru));
        let mut written = HashSet::new();
        for a in 0..500u64 {
            let out = o.access(acc(a, true), u64::MAX);
            written.insert(a);
            if let Some(e) = out.evicted {
                assert!(out.evicted_dirty, "written block {e} evicted clean");
                written.remove(&e);
            }
        }
    }

    #[test]
    fn digest_changes_with_state() {
        let mut o = OracleCache::new(&cfg(CheckDesign::SaH3, CheckPolicy::Lru));
        let d0 = o.state_digest();
        o.access(acc(9, false), u64::MAX);
        let d1 = o.state_digest();
        assert_ne!(d0, d1);
        o.access(acc(9, true), u64::MAX); // dirty bit alone must change it
        assert_ne!(d1, o.state_digest());
    }
}
