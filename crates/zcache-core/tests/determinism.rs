//! Regression test: candidate sequences are a pure function of the
//! configuration seed.
//!
//! The fully-associative array, under both of its candidate rules, used
//! to index its tags with `std::collections::HashMap`, whose SipHash
//! keys are randomized *per instance* — two identically-configured
//! caches in the same process could disagree on iteration-order-derived
//! candidate sequences, which is exactly the kind of hazard that makes
//! differential runs against `zoracle` unreproducible. The seeded
//! open-addressing `SeededMap` index removes the randomness; this test
//! pins that property for every design so it cannot regress.

use zcache_core::{ArrayKind, CacheBuilder, DynCache, PolicyKind};
use zhash::HashKind;

fn build(kind: ArrayKind) -> DynCache {
    CacheBuilder::new()
        .lines(256)
        .ways(4)
        .array(kind)
        .policy(PolicyKind::Lru)
        .seed(42)
        .build()
}

/// A fixed pseudo-random address stream (SplitMix64 over 1024 lines).
fn stream(n: usize) -> Vec<u64> {
    let mut x = 0x9e3779b9u64;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) & 1023
        })
        .collect()
}

/// Runs `n` accesses and returns the concatenated
/// `(slot, addr, token)` candidate sequence across every miss.
fn candidate_trace(mut cache: DynCache, addrs: &[u64]) -> Vec<(u32, Option<u64>, u32)> {
    let mut trace = Vec::new();
    for &a in addrs {
        let out = cache.access(a);
        if !out.hit {
            trace.extend(
                cache
                    .last_candidates()
                    .as_slice()
                    .iter()
                    .map(|c| (c.slot.0, c.addr(), c.token)),
            );
        }
    }
    trace
}

#[test]
fn identically_seeded_runs_produce_identical_candidate_sequences() {
    let designs = [
        ArrayKind::Fully,
        ArrayKind::RandomCands { n: 16 },
        ArrayKind::SetAssoc { hash: HashKind::H3 },
        ArrayKind::Skew,
        ArrayKind::ZCache { levels: 3 },
    ];
    let addrs = stream(5_000);
    for kind in designs {
        let first = candidate_trace(build(kind), &addrs);
        let second = candidate_trace(build(kind), &addrs);
        assert!(
            !first.is_empty(),
            "{kind}: stream produced no candidate activity"
        );
        assert_eq!(
            first, second,
            "{kind}: candidate sequence depends on per-instance state"
        );
    }
}
