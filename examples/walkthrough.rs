//! Fig. 1 walkthrough: the replacement process of a tiny 3-way, 8-line-
//! per-way zcache, narrated step by step — walk, victim selection, and
//! relocations.
//!
//! Run with: `cargo run --example walkthrough`

use zcache_repro::zcache_core::{
    replacement_candidates, CacheArray, CandidateSet, FullLru, InstallOutcome, ReplacementPolicy,
    SlotId, ZArray,
};

fn name_of(addr: Option<u64>) -> String {
    match addr {
        // Small addresses map to letters, like the paper's A–Z labels.
        Some(a) if a < 26 => char::from(b'A' + a as u8).to_string(),
        Some(a) => format!("{a}"),
        None => "·".to_string(),
    }
}

fn main() {
    // The Fig. 1 geometry: 3 ways × 8 lines, 3-level walk → up to
    // 3 + 6 + 12 = 21 replacement candidates.
    let mut z = ZArray::new(24, 3, 3, 5);
    assert_eq!(replacement_candidates(3, 3), 21);
    let mut lru = FullLru::new(24);
    let ctx = zcache_repro::zcache_core::AccessCtx::UNKNOWN;

    // Fill the array completely with blocks A..X (addresses 0..24,
    // looping with relocation-assisted installs until every frame is
    // occupied — a few addresses may need the walk to move blocks).
    let mut cands = CandidateSet::new();
    let mut out = InstallOutcome::default();
    'fill: for round in 0..64u64 {
        for addr in 0..24u64 {
            if z.occupancy() == 24 {
                break 'fill;
            }
            if z.lookup(addr).is_some() {
                continue;
            }
            z.candidates(addr, &mut cands);
            // Prefer an empty frame; after the first round allow
            // relocating installs (never evicting: skip occupied victims
            // unless a hole is reachable through relocation).
            if let Some(v) = cands.first_empty().copied() {
                z.install(addr, &v, &mut out);
                for &(from, to) in &out.moves {
                    lru.on_move(from, to);
                }
                lru.on_fill(out.filled_slot, addr, &ctx);
            } else if round > 8 {
                // Rare: no hole reachable for this address; leave it out.
                continue;
            }
        }
    }
    // Top up any unreachable frames with extra blocks so the demo walk
    // runs against a completely full array.
    for addr in 26..4096u64 {
        if z.occupancy() == 24 {
            break;
        }
        if z.lookup(addr).is_some() {
            continue;
        }
        z.candidates(addr, &mut cands);
        if let Some(v) = cands.first_empty().copied() {
            z.install(addr, &v, &mut out);
            for &(from, to) in &out.moves {
                lru.on_move(from, to);
            }
            lru.on_fill(out.filled_slot, addr, &ctx);
        }
    }
    assert_eq!(z.occupancy(), 24, "array must be full for the demo");

    println!("Initial contents (way × row):");
    for way in 0..3u32 {
        let row: Vec<String> = (0..8u64)
            .map(|r| name_of(z.addr_at(SlotId((u64::from(way) * 8 + r) as u32))))
            .collect();
        println!("  way {way}: {}", row.join(" "));
    }

    // Miss for a new block "Y" (address 24): run the walk.
    let y = 24u64;
    println!(
        "\nMiss for block {} — walking the tag array:",
        name_of(Some(y))
    );
    z.candidates(y, &mut cands);
    println!(
        "  walk found {} candidates over {} levels ({} tag reads)",
        cands.len(),
        cands.levels,
        cands.tag_reads
    );
    for c in cands.as_slice() {
        let info = z.walk_node(c.token).expect("walk node");
        let parent = info
            .parent
            .and_then(|p| z.walk_node(p))
            .map(|p| name_of(p.addr))
            .unwrap_or_else(|| "-".into());
        println!(
            "    level {} [{}] block {} (parent {}, LRU age {})",
            info.level,
            info.location,
            name_of(info.addr),
            parent,
            c.addr.map(|_| lru.score(c.slot)).unwrap_or(0),
        );
    }

    // Pick the LRU-preferred victim the way `Cache` does (the array is
    // full, so no candidate is an empty frame) and perform the
    // relocations.
    let victim = cands.as_slice()[lru.pick_victim(cands.as_slice(), |_, score| score)];
    println!(
        "\nVictim: block {} at {} (highest LRU age among candidates)",
        name_of(victim.addr),
        z.location(victim.slot)
    );
    z.install(y, &victim, &mut out);
    for &(from, to) in &out.moves {
        lru.on_move(from, to);
        println!(
            "  relocation: {} -> {} (block {})",
            z.location(from),
            z.location(to),
            name_of(z.addr_at(to))
        );
    }
    lru.on_fill(out.filled_slot, y, &ctx);
    println!(
        "  {} evicted; block {} written at {} — {} relocation(s), as in Fig. 1e",
        name_of(out.evicted),
        name_of(Some(y)),
        z.location(out.filled_slot),
        out.moves.len()
    );

    println!("\nFinal contents:");
    for way in 0..3u32 {
        let row: Vec<String> = (0..8u64)
            .map(|r| name_of(z.addr_at(SlotId((u64::from(way) * 8 + r) as u32))))
            .collect();
        println!("  way {way}: {}", row.join(" "));
    }
    assert!(z.lookup(y).is_some(), "incoming block must be resident");
}
