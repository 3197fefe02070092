//! `conflicts-fa`: `zbench::exp_conflicts::run` at 8 cores × 10 k
//! instructions. Each design's misses are set against those of a
//! fully-associative LRU array of the same size, which takes most of the
//! time: the only workload where the fully-associative array matters.

use super::{phases, Rep, Traced};
use crate::metrics::{ratio, slug, Layers, FIG_DESIGNS};
use crate::trace::Tracer;
use zbench::exp_conflicts::{self, ConflictRow, VICTIM_BUFFER_LINES};
use zbench::opts::{fig_designs, ExpOpts};
use zbench::point_seed;
use zcache_core::{ArrayKind, CacheBuilder, PolicyKind, VictimCache};
use zhash::HashKind;
use zsim::trace::record_trace;
use zworkloads::suite::{paper_suite_scaled, Scale};

/// The associativity-sensitive workloads `exp_conflicts` keeps.
const KEEP: [&str; 4] = ["cactusADM", "omnetpp", "gcc", "wupwise"];

fn opts(seed: u64, div: u64) -> ExpOpts {
    ExpOpts {
        scale: Scale::SMALL,
        cores: 8,
        instrs_per_core: 10_000 / div,
        max_workloads: None,
        seed,
        jobs: 1,
    }
}

fn record(workload: &str, design: &str, misses: u64, fully: u64) -> String {
    format!("{workload} {design} misses={misses} fully={fully}")
}

/// Conflict misses and their share are functions of these two counts.
fn records(rows: &[ConflictRow]) -> Vec<String> {
    rows.iter()
        .map(|r| record(&r.workload, &r.design, r.misses, r.fully_misses))
        .collect()
}

pub fn rep(seed: u64, div: u64) -> Rep {
    let (setup, wall, rows) = phases(
        || {
            exp_conflicts::run(&opts(seed, div * 4));
            opts(seed, div)
        },
        |o| exp_conflicts::run(&o),
    );
    Rep {
        setup,
        wall,
        records: records(&rows),
        client_ops: (0, 0),
        report: Some(exp_conflicts::report(&rows) + "\n"),
    }
}

pub fn traced(seed: u64, div: u64, tr: &mut Tracer) -> Traced {
    let o = opts(seed, div);
    let mut fully_total = 0u64;
    let (mut l1_refs, mut l2_refs) = (0u64, 0u64);
    let records = tr.span("drive", None, |tr| {
        let lines = (o.scale.l2_lines * u64::from(o.cores) / 32).max(1024);
        let workloads = paper_suite_scaled(o.cores as usize, o.scale);
        let mut records = Vec::new();
        for (i, wl) in workloads.iter().enumerate() {
            if !KEEP.contains(&wl.name()) {
                continue;
            }
            let seed = point_seed(o.seed, i as u64);
            let mut cfg = o.sim_config();
            cfg.seed = seed;
            let trace = tr.span("zsim.record", Some(i), |_| record_trace(&cfg, wl));
            l1_refs += trace.l1_stats.accesses;
            l2_refs += trace.len() as u64;
            let refs: Vec<(u64, bool)> = trace.refs.iter().map(|r| (r.line, r.write)).collect();

            let mut drive = |label: &str, array: ArrayKind, ways: u32| -> u64 {
                tr.span(format!("array.drive.{}", slug(label)), Some(i), |_| {
                    let mut cache = CacheBuilder::new()
                        .lines(lines)
                        .ways(ways)
                        .array(array)
                        .policy(PolicyKind::Lru)
                        .seed(seed)
                        .build();
                    for &(line, write) in &refs {
                        cache.access_full(line, write, u64::MAX);
                    }
                    cache.stats().misses
                })
            };
            let fully = drive("fully", ArrayKind::Fully, 4);
            fully_total += fully;
            for (label, design) in fig_designs() {
                let misses = drive(&label, design.array, design.ways);
                records.push(record(wl.name(), &label, misses, fully));
            }
            let vc_misses = tr.span("array.drive.sa4-vc", Some(i), |_| {
                let main = CacheBuilder::new()
                    .lines(lines)
                    .ways(4)
                    .array(ArrayKind::SetAssoc {
                        hash: HashKind::BitSelect,
                    })
                    .policy(PolicyKind::Lru)
                    .seed(seed)
                    .build();
                let mut vc = VictimCache::new(main, VICTIM_BUFFER_LINES);
                for &(line, _) in &refs {
                    vc.access(line);
                }
                vc.system_misses()
            });
            records.push(record(wl.name(), "SA-4+VC", vc_misses, fully));
        }
        records
    });

    let mut layers = Layers::default();
    for d in ["fully"].into_iter().chain(FIG_DESIGNS).chain(["sa4-vc"]) {
        layers.set(
            format!("array.drive_s.{d}"),
            tr.total_s(&format!("array.drive.{d}")),
        );
    }
    layers.set("array.fully_misses", fully_total as f64);
    let record_s = tr.total_s("zsim.record");
    layers.set("zsim.record_s", record_s);
    layers.set(
        "zsim.record_ns_per_l1_ref",
        ratio(record_s * 1e9, l1_refs as f64),
    );
    layers.set("zsim.l1_refs", l1_refs as f64);
    layers.set("zsim.l2_refs", l2_refs as f64);
    Traced {
        records,
        layers,
        problems: Vec::new(),
    }
}
