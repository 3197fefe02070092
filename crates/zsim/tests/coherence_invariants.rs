//! End-of-run MESI directory invariants, checked against the live L1/L2
//! state of the simulated machine, plus bank-port contention accounting.
//!
//! The directory tests drive write-sharing workloads (the worst case for
//! MESI) through both the set-associative baseline and the Z4/52 zcache,
//! then walk the final machine state: the invariants must hold for any
//! L2 organization, since coherence is decoupled from the array.

use zsim::{L2Design, SimConfig, System};
use zworkloads::suite::{by_name, Scale};
use zworkloads::{Component, CoreSpec, Workload};

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

/// Walks the final machine state and asserts the MESI safety invariants:
///
/// 1. A line with a modified owner has no other sharers (so no two L1s
///    can ever hold the same line writable).
/// 2. L1 residency is a subset of the directory's sharer mask (the
///    directory never loses track of a cached copy).
/// 3. Inclusion: every L1-resident line is also L2-resident.
/// 4. The directory tracks exactly the L2-resident lines, which is why
///    a table sized to the L2's frames never overflows.
fn assert_mesi_invariants(sys: &System) {
    let mut checked_lines = 0usize;
    for (line, entry) in sys.directory().iter() {
        if let Some(owner) = entry.owner {
            assert_eq!(
                entry.sharers,
                1u64 << owner,
                "line {line:#x}: modified owner {owner} coexists with sharers {:#b}",
                entry.sharers
            );
        }
        checked_lines += 1;
    }
    assert!(checked_lines > 0, "directory empty: test exercised nothing");

    let mut l2_resident = Vec::new();
    for bank in sys.banks() {
        bank.for_each_resident(&mut |line| l2_resident.push(line));
    }
    l2_resident.sort_unstable();
    let tracked: Vec<u64> = sys.directory().iter().map(|(line, _)| line).collect();
    assert!(
        tracked == l2_resident,
        "directory tracks {} lines, the L2 holds {}",
        tracked.len(),
        l2_resident.len()
    );

    for (core, l1) in sys.l1s().iter().enumerate() {
        let mut resident = Vec::new();
        l1.for_each_resident(&mut |line| resident.push(line));
        for line in resident {
            let entry = sys
                .directory()
                .get(line)
                .unwrap_or_else(|| panic!("L1 {core} holds {line:#x} untracked by directory"));
            assert!(
                entry.sharers & (1u64 << core) != 0,
                "L1 {core} holds {line:#x} but is not in sharer mask {:#b}",
                entry.sharers
            );
            let bank = sys.bank_index(line);
            assert!(
                sys.banks()[bank].contains(line),
                "inclusion violated: L1 {core} holds {line:#x}, L2 bank {bank} does not"
            );
        }
    }
}

#[test]
fn mesi_invariants_hold_on_baseline() {
    let mut sys = System::new(tiny_cfg());
    let stats = sys.run(&sharing_workload());
    assert!(stats.invalidation_rounds > 0, "sharing must invalidate");
    assert_mesi_invariants(&sys);
}

#[test]
fn mesi_invariants_hold_on_zcache() {
    // Relocations move lines between slots without touching the
    // directory; the invariants must survive heavy walk traffic. The
    // shared footprint (40k lines) overflows the 16k-line SMALL L2 so
    // walks and back-invalidations actually happen.
    let wl = Workload::multithreaded(
        "pingpong-big",
        CoreSpec::new(
            vec![
                (0.4, Component::SharedUniform { lines: 32 }),
                (0.6, Component::SharedUniform { lines: 40_000 }),
            ],
            0.5,
            4,
        ),
    );
    let mut sys = System::new(tiny_cfg().with_l2(L2Design::zcache(4, 3)));
    let stats = sys.run(&wl);
    assert!(stats.l2.relocations > 0, "zcache must relocate");
    assert!(stats.invalidation_rounds > 0, "sharing must invalidate");
    assert_mesi_invariants(&sys);
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
