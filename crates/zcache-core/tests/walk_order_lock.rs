//! Candidate-order regression lock for the replacement walk.
//!
//! Every walk implementation (the 4-way fast path and the scalar
//! `expand` loop) must be *semantics-invisible*: the exact candidate
//! sequence — slot, resident address and token of every node, in
//! emission order — decides which victim every policy picks, so any
//! reordering silently changes every downstream figure. This test drives
//! a mixed hit/miss/install stream from fixed seeds through each walk
//! shape (4-way fast-path and scalar configurations, one to four
//! levels, BFS and DFS, Bloom on and off, capped and uncapped) and folds
//! every candidate the array ever emits, and every relocation move, into
//! a digest that is pinned here.
//!
//! The pinned values were produced by earlier walkers (see `EXPECTED`);
//! the current one must reproduce them bit for bit. If an
//! intentional semantic change ever invalidates them, re-pin alongside
//! the goldens of `zbench check` — never to silence a diff.

use zcache_core::{CacheArray, CandidateSet, InstallOutcome, WalkKind, ZArray};
use zhash::SplitMix64;

/// FNV-1a over every field of every candidate, plus per-walk framing so
/// sequence boundaries (and empty walks) are part of the digest.
fn fold(digest: &mut u64, v: u64) {
    *digest = (*digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

struct Shape {
    name: &'static str,
    ways: u32,
    levels: u32,
    kind: WalkKind,
    bloom: bool,
    max_candidates: Option<u32>,
}

const SHAPES: &[Shape] = &[
    // The 4-way fast path: 4 ways, cached rows, no Bloom.
    Shape {
        name: "z2",
        ways: 4,
        levels: 2,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: None,
    },
    Shape {
        name: "z3",
        ways: 4,
        levels: 3,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: None,
    },
    Shape {
        name: "z4",
        ways: 4,
        levels: 4,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: None,
    },
    // A cap truncates the walk mid-level, mid-parent or on a level
    // boundary, depending on where it falls.
    Shape {
        name: "z4-cap100",
        ways: 4,
        levels: 4,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: Some(100),
    },
    Shape {
        name: "z3-cap5",
        ways: 4,
        levels: 3,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: Some(5),
    },
    // Bloom dedup takes the scalar loop.
    Shape {
        name: "z3-bloom",
        ways: 4,
        levels: 3,
        kind: WalkKind::Bfs,
        bloom: true,
        max_candidates: None,
    },
    // Non-4-way shapes: the scalar loop with and without cached rows.
    Shape {
        name: "w3-l3",
        ways: 3,
        levels: 3,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: None,
    },
    Shape {
        name: "w5-l2",
        ways: 5,
        levels: 2,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: None,
    },
    // DFS is untouched by the batching but shares expand().
    Shape {
        name: "z3-dfs",
        ways: 4,
        levels: 3,
        kind: WalkKind::Dfs,
        bloom: false,
        max_candidates: None,
    },
    // Z4/4: the one-level skew design of fig4, a walk of roots only.
    Shape {
        name: "z1",
        ways: 4,
        levels: 1,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: None,
    },
    // The ShadowDuel middle tier that serve and tenants apply: the cap
    // falls exactly on the level-1 boundary.
    Shape {
        name: "z3-cap16",
        ways: 4,
        levels: 3,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: Some(16),
    },
    // `zbench ablate`'s early-stopped walk: the cap falls mid-parent in
    // level 2.
    Shape {
        name: "z3-cap24",
        ways: 4,
        levels: 3,
        kind: WalkKind::Bfs,
        bloom: false,
        max_candidates: Some(24),
    },
];

/// Pinned digests, one per shape, over the exact stream below. The
/// first nine were produced by the pre-batching scalar walker; `z1`,
/// `z3-cap16` and `z3-cap24` by the per-node `expand` dispatch that the
/// fixed-shape 4-way walk replaced.
const EXPECTED: &[(&str, u64)] = &[
    ("z2", 0xc0e7caa4e7d7bf55),
    ("z3", 0xc5db6a9c4e6a7b31),
    ("z4", 0x164c71444cf8b60f),
    ("z4-cap100", 0xbcb23c69f907cb7b),
    ("z3-cap5", 0x692c96e119faf020),
    ("z3-bloom", 0x1f7e76ed23c50960),
    ("w3-l3", 0xe79724cfe4990729),
    ("w5-l2", 0xdfe589ad6227e1b5),
    ("z3-dfs", 0x34019c0ca1e51e76),
    ("z1", 0x202708577896b3f2),
    // Equal to z2's: a 3-level walk capped at 16 stops exactly where a
    // 2-level walk ends.
    ("z3-cap16", 0xc0e7caa4e7d7bf55),
    ("z3-cap24", 0xa565822293b6ae0d),
];

fn digest_shape(shape: &Shape) -> u64 {
    let lines = 1024 * u64::from(shape.ways);
    let mut z = ZArray::new(lines, shape.ways, shape.levels, 11).with_walk_kind(shape.kind);
    if shape.bloom {
        z = z.with_bloom_dedup(true);
    }
    if let Some(cap) = shape.max_candidates {
        z = z.with_max_candidates(cap);
    }
    let mut cands = CandidateSet::new();
    let mut out = InstallOutcome::default();
    let mut rng = SplitMix64::new(7);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    // Cold start through full occupancy and into steady-state churn, so
    // empty-frame early stops, partial walks and full walks all appear.
    for _ in 0..30_000 {
        let a = rng.next_below(lines * 3) + 1;
        if z.lookup_mut(a).is_some() {
            continue;
        }
        z.candidates(a, &mut cands);
        fold(&mut digest, 0x5eed); // walk frame marker
        fold(&mut digest, cands.len() as u64);
        for c in cands.as_slice() {
            fold(&mut digest, c.slot.0.into());
            fold(&mut digest, c.addr.unwrap_or(u64::MAX));
            fold(&mut digest, c.token.into());
        }
        // Install the oldest-token victim (first empty if any) so the
        // stream keeps relocating blocks and the walk tree keeps
        // changing shape.
        let victim = *cands.first_empty().unwrap_or_else(|| &cands.as_slice()[0]);
        z.install(a, &victim, &mut out);
        for &(from, to) in out.moves.as_slice() {
            fold(&mut digest, u64::from(from.0) << 32 | u64::from(to.0));
        }
    }
    digest
}

#[test]
fn candidate_order_is_locked() {
    for shape in SHAPES {
        let got = digest_shape(shape);
        let want = EXPECTED
            .iter()
            .find(|(n, _)| n == &shape.name)
            .map(|&(_, d)| d)
            .unwrap_or_else(|| panic!("no pinned digest for {}", shape.name));
        assert_eq!(
            got, want,
            "candidate order changed for {} (got {got:#018x}, pinned {want:#018x})",
            shape.name
        );
    }
}

/// Prints the digests for re-pinning after an *intentional* semantic
/// change: `cargo test -p zcache-core --test walk_order_lock -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_digests() {
    for shape in SHAPES {
        println!("    (\"{}\", {:#018x}),", shape.name, digest_shape(shape));
    }
}
