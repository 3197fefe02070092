//! Design lineups: every experiment that replays a reference stream
//! through caches of its own builds them from labelled
//! [`CacheBuilder`]s and drives them here.
//!
//! A design is an array plus a replacement process (§III): SA-4, skew,
//! Z4/16 and Z4/52 differ only in their builder, never in the loop that
//! drives them.

use crate::opts::fig_designs;
use zcache_core::{ArrayKind, CacheBuilder, DynCache};
use zsim::L2Design;

/// An LRU cache of `lines` frames with the given array and ways, seeded
/// with `seed`: the starting point every lineup refines (a meter, walk
/// options, another policy).
pub fn builder(array: ArrayKind, ways: u32, lines: u64, seed: u64) -> CacheBuilder {
    L2Design {
        array,
        ways,
        ..L2Design::baseline()
    }
    .builder(lines, seed)
}

/// The Fig. 4 design lineup ([`fig_designs`]) as labelled builders of
/// `lines`-frame caches seeded with `seed`.
pub fn fig_lineup(lines: u64, seed: u64) -> Vec<(String, CacheBuilder)> {
    fig_designs()
        .into_iter()
        .map(|(label, design)| (label, design.builder(lines, seed)))
        .collect()
}

/// Drives a `(line, write)` stream through `cache`. No access carries
/// next-use knowledge, so lineups run LRU-family policies, not OPT.
pub fn feed(cache: &mut DynCache, refs: impl IntoIterator<Item = (u64, bool)>) {
    for (line, write) in refs {
        cache.access_full(line, write, u64::MAX);
    }
}

/// Builds `builder`'s cache and drives `refs` through it.
pub fn drive(builder: &CacheBuilder, refs: impl IntoIterator<Item = (u64, bool)>) -> DynCache {
    let mut cache = builder.build();
    feed(&mut cache, refs);
    cache
}

#[cfg(test)]
mod tests {
    use super::*;
    use zcache_core::PolicyKind;
    use zhash::HashKind;

    #[test]
    fn builder_matches_a_hand_built_cache() {
        let refs: Vec<(u64, bool)> = (0..5_000u64).map(|i| (i * 7 % 900, i % 5 == 0)).collect();
        for array in [
            ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            },
            ArrayKind::Skew,
            ArrayKind::ZCache { levels: 3 },
        ] {
            let hand = CacheBuilder::new()
                .lines(256)
                .ways(4)
                .array(array)
                .policy(PolicyKind::Lru)
                .seed(9);
            let a = drive(&builder(array, 4, 256, 9), refs.iter().copied());
            let b = drive(&hand, refs.iter().copied());
            assert_eq!(a.stats(), b.stats(), "{array}");
            assert_eq!(a.state_digest(), b.state_digest(), "{array}");
        }
    }

    #[test]
    fn fig_lineup_labels_follow_the_designs() {
        let labels: Vec<String> = fig_lineup(1024, 1).into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["SA-4", "SA-16", "SA-32", "Z4/4", "Z4/16", "Z4/52"]);
    }
}
