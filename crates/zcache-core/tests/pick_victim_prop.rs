//! Property test: the one-pass victim pick,
//! [`ReplacementPolicy::pick_victim`], equals a two-pass reference —
//! score every candidate, then take the first highest key — for every
//! policy, array and key rule, under arbitrary access histories.
//!
//! `Cache::access_with` selects only through `pick_victim`, once per
//! miss with every candidate occupied, so this is what keeps the pass
//! that replaced the batched score buffer conformant. Each case drives
//! the miss path by hand (walk, `before_select`, pick, install,
//! relocations, fill) over arrays with every walk shape (the 4-way
//! `walk4`, a capped walk, DFS, Bloom dedup, an 8-way walk),
//! set-associative and fully-associative and random-candidate arrays,
//! and checks the pick on every full candidate set. Small address and
//! next-use ranges make score ties common: LRU ages tie under bucketed
//! timestamps, LFU counts and OPT next uses tie outright, and RRIP's
//! aging leaves several candidates at the maximum.
//!
//! [`ReplacementPolicy::pick_victim`]: zcache_core::ReplacementPolicy::pick_victim

use proptest::prelude::*;
use zcache_core::partition::tenant_of;
use zcache_core::{
    AccessCtx, AnyArray, AnyPolicy, CacheArray, Candidate, CandidateSet, FullyAssocArray,
    InstallOutcome, PolicyKind, ReplacementPolicy, SetAssocArray, WalkKind, ZArray,
};
use zhash::HashKind;

const LINES: u64 = 64;

fn policies() -> [PolicyKind; 6] {
    [
        PolicyKind::Lru,
        PolicyKind::BucketedLru { bits: 4, k: 8 },
        PolicyKind::Lfu,
        PolicyKind::Opt,
        PolicyKind::Rrip,
        PolicyKind::Drrip,
    ]
}

/// Every array shape the miss path selects over, `LINES` frames each.
fn arrays(seed: u64) -> Vec<(&'static str, AnyArray)> {
    let z = |ways, levels| ZArray::new(LINES, ways, levels, seed);
    vec![
        ("z4/52 walk4", AnyArray::ZCache(z(4, 3))),
        (
            "z4/52 capped",
            AnyArray::ZCache(z(4, 3).with_max_candidates(10)),
        ),
        (
            "z4/52 dfs",
            AnyArray::ZCache(z(4, 3).with_walk_kind(WalkKind::Dfs)),
        ),
        (
            "z4/52 bloom",
            AnyArray::ZCache(z(4, 3).with_bloom_dedup(true)),
        ),
        ("z8 two-level", AnyArray::ZCache(z(8, 2))),
        (
            "sa4-h3",
            AnyArray::SetAssoc(SetAssocArray::new(LINES, 4, HashKind::H3, seed)),
        ),
        ("fully", AnyArray::Fully(FullyAssocArray::new(LINES))),
        (
            "random-8",
            AnyArray::Fully(FullyAssocArray::random_candidates(LINES, 8, seed)),
        ),
    ]
}

/// The two-pass reference: every candidate's score first, then the
/// first index of the highest key.
fn two_pass<T: Ord>(p: &AnyPolicy, cands: &[Candidate], key: impl Fn(u64, u64) -> T) -> usize {
    let scores: Vec<u64> = cands.iter().map(|c| p.score(c.slot)).collect();
    let keys: Vec<T> = cands
        .iter()
        .zip(&scores)
        .map(|(c, &s)| key(c.addr.expect("full candidate sets only"), s))
        .collect();
    let best = keys.iter().max().expect("at least one candidate");
    keys.iter().position(|k| k == best).unwrap()
}

/// One access as raw draws: `(line, tenant, write, next_use)`.
type Access = (u64, u64, bool, u64);

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    prop::collection::vec((0..160u64, 0..3u64, any::<bool>(), 0..24u64), 200..600)
}

/// Over-quota masks of the quota rule: enforcement off, then on with
/// tenant 1 over its quota, then on with tenants 0 and 2 over.
const OVER: [u64; 3] = [0, 0b010, 0b101];

/// Drives `accesses` through `array` under `kind`, checking the one-pass
/// pick against the two-pass reference on every full miss, under the
/// plain rule and the quota rule with each mask of [`OVER`]. Installs
/// the plain rule's pick, so the histories are those of
/// `Cache::access_full`. Returns the number of full misses.
fn check(mut array: AnyArray, kind: PolicyKind, accesses: &[Access]) -> u32 {
    let mut policy = kind.build(LINES);
    let mut cands = CandidateSet::new();
    let mut out = InstallOutcome::default();
    let mut picks = 0;
    for &(line, tenant, write, next_use) in accesses {
        // Lines tagged with their tenant, as `PartitionedCache` stores them.
        let addr = line | tenant << 56;
        let ctx = AccessCtx { next_use };
        if let Some(slot) = array.lookup_mut(addr) {
            policy.on_hit(slot, addr, &ctx);
            continue;
        }
        array.candidates(addr, &mut cands);
        policy.before_select(cands.as_slice());
        let victim = match cands.first_empty() {
            Some(c) => *c,
            None => {
                let set = cands.as_slice();
                let plain = |_, score| score;
                let pick = policy.pick_victim(set, plain);
                assert_eq!(pick, two_pass(&policy, set, plain), "plain rule");
                for over in OVER {
                    // The partition rule: an eligibility bit above the
                    // score, packed as `PartitionedCache` packs it and, in
                    // the reference, as a pair.
                    let packed = |line, score| {
                        u128::from(over >> tenant_of(line) & 1) << 64 | u128::from(score)
                    };
                    let paired = |line, score| (over >> tenant_of(line) & 1, score);
                    assert_eq!(
                        policy.pick_victim(set, packed),
                        two_pass(&policy, set, paired),
                        "quota rule, over-quota mask {over:#b}"
                    );
                }
                picks += 1;
                set[pick]
            }
        };
        array.install(addr, &victim, &mut out);
        if let Some(slot) = out.evicted_slot {
            policy.on_evict(slot);
        }
        for &(from, to) in &out.moves {
            policy.on_move(from, to);
        }
        policy.on_fill(out.filled_slot, addr, &ctx);
        if write && line % 7 == 0 {
            // Holes deep in a full array: walks then stop at an empty
            // frame, and RRIP skips its aging.
            let slot = array.invalidate(addr).expect("just filled");
            policy.on_evict(slot);
        }
    }
    picks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_pass_pick_equals_two_pass_reference(seed in 0..1_000u64, accs in accesses()) {
        for (name, array) in arrays(seed) {
            for kind in policies() {
                let picks = check(array.clone(), kind, &accs);
                prop_assert!(picks > 0, "{} {}: no full candidate set", name, kind);
            }
        }
    }
}
