//! Property test: the batched [`ReplacementPolicy::score_many`] fast
//! path must agree element-wise with per-candidate
//! [`ReplacementPolicy::score`] for every policy, under arbitrary access
//! histories.
//!
//! Victim selection in `Cache::access_with` scores candidates only
//! through `score_many` — a policy whose override drifts from its
//! scalar `score` would silently change eviction decisions, so this
//! property is what keeps the batched path conformant.
//!
//! [`ReplacementPolicy::score_many`]: zcache_core::ReplacementPolicy::score_many
//! [`ReplacementPolicy::score`]: zcache_core::ReplacementPolicy::score

use proptest::prelude::*;
use zcache_core::{AccessCtx, Candidate, PolicyKind, ReplacementPolicy, SlotId};

const LINES: u64 = 64;

fn all_policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("lru", PolicyKind::Lru),
        ("bucketed-lru", PolicyKind::BucketedLru { bits: 4, k: 8 }),
        ("lfu", PolicyKind::Lfu),
        ("opt", PolicyKind::Opt),
        ("rrip", PolicyKind::Rrip),
        ("drrip", PolicyKind::Drrip),
    ]
}

/// One synthetic policy event as a raw tuple:
/// `(kind, slot, other, addr, next_use)` — `kind % 4` selects
/// fill/hit/evict/move.
type Event = (u8, u8, u8, u64, u64);

fn events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            0..1_000u64,
            0..10_000u64,
        ),
        1..200,
    )
}

fn cand_slots() -> impl Strategy<Value = Vec<(u8, bool)>> {
    // (slot, occupied): empty candidates carry `addr: None`, which
    // `score_many` must score exactly like `score` does.
    prop::collection::vec((any::<u8>(), any::<bool>()), 1..52)
}

proptest! {
    #[test]
    fn score_many_matches_score_elementwise(
        evs in events(),
        cands in cand_slots(),
    ) {
        for (name, kind) in all_policies() {
            let mut p = kind.build(LINES);
            for &(kind, slot, other, addr, next_use) in &evs {
                let slot = SlotId(u32::from(slot) % LINES as u32);
                let ctx = AccessCtx { next_use };
                match kind % 4 {
                    0 => p.on_fill(slot, addr, &ctx),
                    1 => p.on_hit(slot, addr, &ctx),
                    2 => p.on_evict(slot),
                    _ => p.on_move(slot, SlotId(u32::from(other) % LINES as u32)),
                }
            }
            let set: Vec<Candidate> = cands
                .iter()
                .enumerate()
                .map(|(i, &(s, occupied))| Candidate {
                    slot: SlotId(u32::from(s) % LINES as u32),
                    addr: occupied.then_some(u64::from(s)),
                    token: i as u32,
                })
                .collect();
            let mut batched = Vec::new();
            p.score_many(&set, &mut batched);
            let scalar: Vec<u64> = set.iter().map(|c| p.score(c.slot)).collect();
            prop_assert_eq!(
                &batched,
                &scalar,
                "policy {} diverged between score_many and score",
                name
            );
        }
    }
}
