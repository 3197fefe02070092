//! Property-based tests over all cache array organizations: no matter
//! the access sequence, the cache must never lose or duplicate blocks,
//! and every reported eviction must be real.

use proptest::prelude::*;
use std::collections::HashSet;
use zcache_repro::zcache_core::{ArrayKind, CacheBuilder, DynCache, PolicyKind};
use zcache_repro::zhash::HashKind;

fn all_kinds() -> Vec<ArrayKind> {
    vec![
        ArrayKind::SetAssoc {
            hash: HashKind::BitSelect,
        },
        ArrayKind::SetAssoc { hash: HashKind::H3 },
        ArrayKind::Skew,
        ArrayKind::ZCache { levels: 2 },
        ArrayKind::ZCache { levels: 3 },
        ArrayKind::Fully,
        ArrayKind::RandomCands { n: 8 },
    ]
}

fn build(kind: ArrayKind, policy: PolicyKind, seed: u64) -> DynCache {
    CacheBuilder::new()
        .lines(64)
        .ways(4)
        .array(kind)
        .policy(policy)
        .seed(seed)
        .build()
}

/// A model cache: the set of resident lines, updated from access
/// outcomes. The real cache must agree with it exactly.
fn check_sequence(kind: ArrayKind, policy: PolicyKind, accesses: &[(u64, bool)], seed: u64) {
    let mut cache = build(kind, policy, seed);
    let mut model: HashSet<u64> = HashSet::new();
    for &(addr, write) in accesses {
        let resident_before = model.contains(&addr);
        let out = cache.access_full(addr, write, u64::MAX);
        assert_eq!(
            out.hit, resident_before,
            "{kind}: hit report disagrees with model for {addr}"
        );
        if let Some(e) = out.evicted {
            assert!(
                model.remove(&e),
                "{kind}: evicted {e} was not resident in the model"
            );
            assert_ne!(e, addr, "{kind}: evicted the block being installed");
        }
        model.insert(addr);
        assert!(model.len() as u64 <= cache.lines(), "{kind}: over capacity");
    }
    // Final state agreement, both directions.
    let mut actual: HashSet<u64> = HashSet::new();
    cache.for_each_resident(&mut |a| {
        assert!(actual.insert(a), "{kind}: block {a} resident twice");
    });
    assert_eq!(actual, model, "{kind}: resident sets diverge");
    for &a in &model {
        assert!(cache.contains(a), "{kind}: model block {a} not found");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_blocks_lost_or_duplicated(
        addrs in prop::collection::vec((0u64..300, any::<bool>()), 1..400),
        seed in 1u64..50,
    ) {
        for kind in all_kinds() {
            check_sequence(kind, PolicyKind::Lru, &addrs, seed);
        }
    }

    #[test]
    fn all_policies_preserve_residency(
        addrs in prop::collection::vec((0u64..200, any::<bool>()), 1..200),
    ) {
        let policies = [
            PolicyKind::Lru,
            PolicyKind::BucketedLru { bits: 4, k: 7 },
            PolicyKind::Lfu,
            PolicyKind::Rrip,
            PolicyKind::Drrip,
        ];
        for policy in policies {
            check_sequence(ArrayKind::ZCache { levels: 3 }, policy, &addrs, 3);
        }
    }

    #[test]
    fn dirty_eviction_accounting(
        addrs in prop::collection::vec(0u64..300, 1..300),
    ) {
        // Every eviction of a written-and-unreplaced block must report
        // dirty, and clean blocks must never report a write-back.
        let mut cache = build(ArrayKind::ZCache { levels: 2 }, PolicyKind::Lru, 9);
        let mut dirty: HashSet<u64> = HashSet::new();
        for (i, &addr) in addrs.iter().enumerate() {
            let write = i % 3 == 0;
            let out = cache.access_full(addr, write, u64::MAX);
            if let Some(e) = out.evicted {
                assert_eq!(
                    out.evicted_dirty,
                    dirty.contains(&e),
                    "dirty flag wrong for {e}"
                );
                dirty.remove(&e);
            }
            if write {
                dirty.insert(addr);
            }
        }
    }

    #[test]
    fn invalidate_then_miss(
        addrs in prop::collection::vec(0u64..100, 1..100),
        victim in 0u64..100,
    ) {
        let mut cache = build(ArrayKind::ZCache { levels: 2 }, PolicyKind::Lru, 5);
        for &a in &addrs {
            cache.access(a);
        }
        let was_resident = cache.contains(victim);
        let inv = cache.invalidate(victim);
        prop_assert_eq!(inv.is_some(), was_resident);
        prop_assert!(!cache.contains(victim));
        prop_assert!(cache.access(victim).is_miss());
    }

    #[test]
    fn stats_are_consistent(
        addrs in prop::collection::vec(0u64..500, 1..500),
    ) {
        for kind in all_kinds() {
            let mut cache = build(kind, PolicyKind::Lru, 2);
            for &a in &addrs {
                cache.access(a);
            }
            let s = cache.stats();
            prop_assert_eq!(s.accesses, addrs.len() as u64);
            prop_assert_eq!(s.hits + s.misses, s.accesses);
            prop_assert!(s.evictions <= s.misses);
            prop_assert!(s.writebacks <= s.evictions);
            prop_assert!(s.candidates_examined >= s.misses);
            let distinct = addrs.iter().copied().collect::<HashSet<_>>().len() as u64;
            let bound = cache.lines().min(distinct);
            prop_assert!(cache.occupancy() <= bound);
            prop_assert!(cache.occupancy() >= 1);
            if matches!(kind, ArrayKind::Fully) {
                // Fully-associative caches fill every frame before evicting.
                prop_assert_eq!(cache.occupancy(), bound);
            }
        }
    }
}
