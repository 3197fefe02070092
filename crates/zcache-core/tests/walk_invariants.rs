//! Property-based invariants of the zcache walk and relocation engine.

use proptest::prelude::*;
use zcache_core::{
    replacement_candidates, CacheArray, CandidateSet, InstallOutcome, WalkKind, ZArray,
};

/// Drives a zcache with `addrs`, always evicting the candidate at
/// `pick % candidates` (an adversarial victim choice), and checks the
/// structural invariants after every install.
fn drive_and_check(mut z: ZArray, addrs: &[u64], picks: &[u8], max_moves: usize) {
    let mut cands = CandidateSet::new();
    let mut out = InstallOutcome::default();
    let mut resident: Vec<u64> = Vec::new();
    for (i, &addr) in addrs.iter().enumerate() {
        if z.lookup(addr).is_some() {
            continue;
        }
        z.candidates(addr, &mut cands);
        assert!(!cands.is_empty());
        // Victim: an empty frame if present, else an arbitrary candidate.
        let victim = cands
            .first_empty()
            .copied()
            .unwrap_or_else(|| cands.as_slice()[usize::from(picks[i % picks.len()]) % cands.len()]);
        z.install(addr, &victim, &mut out);
        if let Some(e) = out.evicted {
            resident.retain(|&x| x != e);
        }
        resident.push(addr);

        // Invariant 1: every resident block is findable at exactly the
        // row its per-way hash dictates (lookup implies this).
        for &r in &resident {
            let slot = z.lookup(r).unwrap_or_else(|| panic!("lost block {r}"));
            let loc = z.location(slot);
            assert_eq!(z.row_of(r, loc.way), loc.row, "block {r} misplaced");
        }
        // Invariant 2: the relocation chain is bounded by the walk mode's
        // maximum victim depth (levels−1 for BFS, path length for DFS).
        assert!(
            out.moves.len() <= max_moves,
            "relocation chain {} exceeds bound {max_moves}",
            out.moves.len()
        );
        // Invariant 3: the incoming block landed in a first-level frame.
        let fill_loc = z.location(out.filled_slot);
        assert_eq!(
            z.row_of(addr, fill_loc.way),
            fill_loc.row,
            "fill not at a first-level position"
        );
    }
}

/// Deterministic replay of the shrunken failure recorded in
/// `walk_invariants.proptest-regressions` (seed `cc e83b9b60…`). The
/// shrink comment records `addrs`, `picks` and `seed = 6` but not the
/// `ways`/`levels` draw, so replay every combination the strategy can
/// produce — the regression must stay fixed for all of them.
///
/// Root cause of the recorded failure: `ZArray::install` replays the
/// victim's walk path bottom-up, moving each parent's block into its
/// child's frame. A frame that appears twice on one path is written
/// early (as a child destination) and read late (as a parent source),
/// so the replay would relocate the already-overwritten block into a
/// row it does not hash to, corrupting placement. `ZArray::expand`
/// therefore must skip any child whose slot is already on its path
/// (`WalkTable::slot_on_path`). Chains of length ≤ 3 mask the aliasing
/// (the stale read moves a block onto itself or into a frame a later
/// move overwrites), which is why these inputs pass at every
/// `levels ≤ 3`; deeper BFS walks and DFS walks corrupt without the
/// guard. The invariant bound (`moves ≤ levels − 1`) is unchanged —
/// the strategy below extends `levels` to 5 so the property actually
/// exercises the regime where the guard is load-bearing.
#[test]
fn regression_cc_e83b9b60_shrunken_case() {
    let addrs: [u64; 30] = [
        306, 163, 16, 64, 334, 416, 48, 373, 137, 299, 390, 304, 184, 485, 314, 254, 44, 429, 355,
        370, 383, 307, 320, 189, 72, 13, 261, 151, 194, 406,
    ];
    let picks: [u8; 3] = [176, 24, 226];
    let seed = 6u64;
    for ways in 2u32..6 {
        for levels in 1u32..6 {
            let z = ZArray::new(u64::from(ways) * 16, ways, levels, seed);
            drive_and_check(z, &addrs, &picks, levels as usize - 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn relocations_never_corrupt_placement(
        addrs in prop::collection::vec(0u64..1_000, 10..300),
        picks in prop::collection::vec(any::<u8>(), 1..32),
        seed in 0u64..32,
        ways in 2u32..6,
        // Walks up to 5 levels: relocation chains of length ≥ 4 are
        // where a path-duplicated frame corrupts placement (see
        // `regression_cc_e83b9b60_shrunken_case`), so the strategy must
        // reach past the self-healing `levels ≤ 3` regime.
        levels in 1u32..6,
    ) {
        // lines = ways * 16 rows.
        let z = ZArray::new(u64::from(ways) * 16, ways, levels, seed);
        drive_and_check(z, &addrs, &picks, levels as usize - 1);
    }

    #[test]
    fn dfs_walks_also_preserve_placement(
        addrs in prop::collection::vec(0u64..500, 10..200),
        picks in prop::collection::vec(any::<u8>(), 1..16),
        seed in 0u64..16,
    ) {
        let z = ZArray::new(64, 4, 3, seed).with_walk_kind(WalkKind::Dfs);
        // A DFS chain can be as long as the whole candidate budget.
        drive_and_check(z, &addrs, &picks, 52);
    }

    #[test]
    fn bloom_dedup_preserves_placement(
        addrs in prop::collection::vec(0u64..500, 10..200),
        picks in prop::collection::vec(any::<u8>(), 1..16),
    ) {
        let z = ZArray::new(64, 4, 3, 9).with_bloom_dedup(true);
        drive_and_check(z, &addrs, &picks, 2);
    }

    #[test]
    fn candidate_count_bounded_by_r(
        addrs in prop::collection::vec(0u64..100_000, 200..400),
        ways in 2u32..6,
        levels in 1u32..4,
    ) {
        let mut z = ZArray::new(u64::from(ways) * 64, ways, levels, 3);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        let r = replacement_candidates(ways, levels);
        for &a in &addrs {
            if z.lookup(a).is_some() { continue; }
            z.candidates(a, &mut cands);
            prop_assert!(cands.len() as u64 <= r, "{} > R={r}", cands.len());
            prop_assert!(cands.levels <= levels);
            let v = cands.first_empty().copied()
                .unwrap_or(cands.as_slice()[0]);
            z.install(a, &v, &mut out);
        }
    }
}
