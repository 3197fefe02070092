//! MESI directory invariants, checked against the live L1/L2 state of
//! the simulated machine, plus bank-port contention accounting.
//!
//! The directory tests drive write-sharing workloads (the worst case for
//! MESI) through both the set-associative baseline and the Z4/52 zcache,
//! then walk the machine state: at the end of a run, and every 1 000
//! accesses of a run that relocates. The directory lives in the L2's
//! frames, so each zcache relocation must carry a line's entry to its
//! new frame; a missed move shows up as an L1 copy the directory does
//! not list.

use zsim::{L2Design, SimConfig, System};
use zworkloads::suite::{by_name, Scale};
use zworkloads::{AddressStream, Component, CoreSpec, Workload};

fn tiny_cfg() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.cores = 4;
    cfg.instrs_per_core = 20_000;
    cfg
}

/// All four cores hammer a small shared region with a 50% write ratio:
/// maximal invalidation/downgrade churn.
fn sharing_workload() -> Workload {
    Workload::multithreaded(
        "pingpong",
        CoreSpec::new(vec![(1.0, Component::SharedUniform { lines: 32 })], 0.5, 4),
    )
}

/// A write-shared hot set beside a shared footprint (40k lines) larger
/// than the L2, so zcache walks relocate lines and the L2 evicts.
fn pingpong_big() -> Workload {
    Workload::multithreaded(
        "pingpong-big",
        CoreSpec::new(
            vec![
                (0.4, Component::SharedUniform { lines: 32 }),
                (0.6, Component::SharedUniform { lines: 40_000 }),
            ],
            0.5,
            4,
        ),
    )
}

/// Walks the machine state and asserts the MESI safety invariants:
///
/// 1. A line with a modified owner has no other sharers (so no two L1s
///    can ever hold the same line writable).
/// 2. L1 residency is a subset of the directory's sharer mask (the
///    directory never loses track of a cached copy).
/// 3. Inclusion: every L1-resident line is also L2-resident.
/// 4. The directory tracks exactly the L2-resident lines.
///
/// `when` names the point of the run in failure messages.
fn assert_mesi_invariants(sys: &System, when: &str) {
    let mut checked_lines = 0usize;
    for (line, entry) in sys.directory().iter() {
        if let Some(owner) = entry.owner {
            assert_eq!(
                entry.sharers,
                1u64 << owner,
                "{when}: line {line:#x}: modified owner {owner} coexists with sharers {:#b}",
                entry.sharers
            );
        }
        checked_lines += 1;
    }
    assert!(
        checked_lines > 0,
        "{when}: directory empty: test exercised nothing"
    );

    let mut l2_resident = Vec::new();
    for bank in sys.banks() {
        bank.for_each_resident(&mut |line| l2_resident.push(line));
    }
    l2_resident.sort_unstable();
    let tracked: Vec<u64> = sys.directory().iter().map(|(line, _)| line).collect();
    assert!(
        tracked == l2_resident,
        "{when}: directory tracks {} lines, the L2 holds {}",
        tracked.len(),
        l2_resident.len()
    );

    for (core, l1) in sys.l1s().iter().enumerate() {
        let mut resident = Vec::new();
        l1.for_each_resident(&mut |line| resident.push(line));
        for line in resident {
            let entry = sys.directory().get(line).unwrap_or_else(|| {
                panic!("{when}: L1 {core} holds {line:#x} untracked by directory")
            });
            assert!(
                entry.sharers & (1u64 << core) != 0,
                "{when}: L1 {core} holds {line:#x} but is not in sharer mask {:#b}",
                entry.sharers
            );
            let bank = sys.bank_index(line);
            assert!(
                sys.banks()[bank].contains(line),
                "{when}: inclusion violated: L1 {core} holds {line:#x}, L2 bank {bank} does not"
            );
        }
    }
}

#[test]
fn mesi_invariants_hold_on_baseline() {
    let mut sys = System::new(tiny_cfg());
    let stats = sys.run(&sharing_workload());
    assert!(stats.invalidation_rounds > 0, "sharing must invalidate");
    assert_mesi_invariants(&sys, "after the run");
}

#[test]
fn mesi_invariants_hold_on_zcache() {
    // Relocations move lines, and their directory entries, between
    // frames; the invariants must survive heavy walk traffic.
    let mut sys = System::new(tiny_cfg().with_l2(L2Design::zcache(4, 3)));
    let stats = sys.run(&pingpong_big());
    assert!(stats.l2.relocations > 0, "zcache must relocate");
    assert!(stats.invalidation_rounds > 0, "sharing must invalidate");
    assert_mesi_invariants(&sys, "after the run");
}

#[test]
fn mesi_invariants_hold_throughout_a_relocating_run() {
    // Drives `System::access` directly, the cores in turn on one clock,
    // and walks the invariants every 1 000 accesses, so a directory
    // entry left behind by a relocation is caught while the line it
    // describes is still cached. The L2 is cut to 512 frames, twice the
    // four L1s: at the SMALL L2's 16k frames an LRU Z4/52 never picks
    // an L1-resident victim (no back-invalidation in 200 000 accesses).
    let mut cfg = tiny_cfg().with_l2(L2Design::zcache(4, 3));
    cfg.l2_lines = 512;
    let cores = cfg.cores;
    let mut streams = pingpong_big().streams(cores as usize, cfg.seed);
    let mut sys = System::new(cfg);
    let mut now = 0u64;
    for i in 1..=60_000u64 {
        let core = (i % u64::from(cores)) as u32;
        let r = streams[core as usize].next_ref();
        now += u64::from(r.gap) + sys.access(core, r.line, r.write, now);
        if i % 1_000 == 0 {
            assert_mesi_invariants(&sys, &format!("after access {i}"));
        }
    }
    let stats = sys.stats();
    assert!(stats.l2.relocations > 0, "zcache must relocate");
    assert!(
        stats.back_invalidations > 0,
        "L2 evictions must back-invalidate"
    );
    assert!(stats.invalidation_rounds > 0, "sharing must invalidate");
}

#[test]
fn downgrade_writes_back_through_l2() {
    // A read of another core's modified line downgrades the owner and
    // pulls the dirty data through the L2, which must show up in the
    // L2 data-write counters — downgraded data is never silently lost.
    let mut sys = System::new(tiny_cfg());
    let stats = sys.run(&sharing_workload());
    assert!(stats.downgrades > 0, "read-after-write must downgrade");
    assert!(
        stats.l2.data_writes >= stats.downgrades,
        "each downgrade must write data into the L2: {} writes < {} downgrades",
        stats.l2.data_writes,
        stats.downgrades
    );
}

#[test]
fn fewer_banks_mean_more_demand_contention() {
    // Bank-port accounting: squeezing the same miss traffic through one
    // bank must queue demand accesses behind each other, while the
    // 8-bank default spreads them out. Uses a miss-heavy workload so
    // the L2 actually sees traffic.
    let wl = by_name("canneal", 4, Scale::SMALL).unwrap();
    let mut cfg1 = tiny_cfg();
    cfg1.l2_banks = 1;
    let one = System::new(cfg1).run(&wl);
    let eight = System::new(tiny_cfg()).run(&wl);
    assert!(
        one.l2_tag_contention_cycles > eight.l2_tag_contention_cycles,
        "1 bank {} cycles vs 8 banks {} cycles",
        one.l2_tag_contention_cycles,
        eight.l2_tag_contention_cycles
    );
    assert!(
        one.l2_tag_contention_cycles > 0,
        "single-bank run must show demand contention"
    );
}

#[test]
fn walk_traffic_is_accounted_off_the_critical_path() {
    // Zcache walks consume port cycles as *background* traffic: tag
    // bandwidth grows with walk depth, the background queue absorbs the
    // extra ops, and demand contention stays negligible.
    let wl = by_name("canneal", 4, Scale::SMALL).unwrap();
    let sa = System::new(tiny_cfg()).run(&wl);
    let z = System::new(tiny_cfg().with_l2(L2Design::zcache(4, 3))).run(&wl);
    let sa_tag_ops = sa.l2.tag_reads + sa.l2.tag_writes;
    let z_tag_ops = z.l2.tag_reads + z.l2.tag_writes;
    assert!(
        z_tag_ops > sa_tag_ops,
        "Z4/52 must spend more tag bandwidth than SA-4: {z_tag_ops} vs {sa_tag_ops}"
    );
    assert!(
        z.l2_walk_delay_cycles > 0,
        "walks must queue into idle cycles"
    );
    let frac = z.l2_tag_contention_cycles as f64 / z.max_cycles as f64;
    assert!(
        frac < 0.05,
        "walks must not inflate demand contention: {frac}"
    );
}
