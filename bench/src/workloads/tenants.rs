//! `tenants-quota`: `zbench::exp_tenants::run` — each standard tenant mix
//! on a shared Z4/52 reached through `PartitionedCache`, solo, shared and
//! quota-partitioned with per-tenant ShadowDuel walk budgets.

use super::{phases, Rep, Traced};
use crate::metrics::{ratio, Layers};
use crate::trace::{Log2Hist, Tracer};
use std::time::Instant;
use zbench::exp_tenants::{self, TenantOpts, TenantRow};
use zbench::point_seed;
use zcache_core::{AdaptiveConfig, PartitionConfig, PartitionedCache, PolicyKind, TenantGrant};
use zworkloads::{standard_mixes, MemRef, TenantMix, ZipfCache};

/// Sweeps per rep, each on its own seed derived from `--seed`. How much
/// the walk budgets adapt, and so the work, varies by ~15 % from seed to
/// seed; averaging four seeds keeps one seed from deciding the time.
const SUB_SEEDS: u64 = 4;
/// References per mix in each sweep.
const ACCESSES: usize = 50_000;

fn opts(seed: u64, sub: u64, div: u64) -> TenantOpts {
    TenantOpts {
        accesses: ACCESSES / div as usize,
        seed: point_seed(seed, sub),
        jobs: 1,
        ..TenantOpts::default()
    }
}

fn record(sub: u64, mix: &str, r: &TenantRow) -> String {
    format!(
        "sub={sub} mix={mix} T{} instrs={} solo={} shared={} part={} occ={}/{}",
        r.tenant, r.instructions, r.solo_mpki, r.shared_mpki, r.part_mpki, r.occupancy, r.quota
    )
}

pub fn rep(seed: u64, div: u64) -> Rep {
    let sweeps = |div: u64| -> Vec<_> {
        (0..SUB_SEEDS)
            .map(|sub| {
                let o = opts(seed, sub, div);
                (o, exp_tenants::run(&o))
            })
            .collect()
    };
    let (setup, wall, results) = phases(|| drop(sweeps(div * 4)), |()| sweeps(div));
    // One record per tenant row. The Jain lines of the report are
    // functions of these rows, so the rows alone pin the report.
    let mut records = Vec::new();
    let mut report = String::new();
    for (sub, (o, summaries)) in (0..).zip(&results) {
        for s in summaries {
            records.extend(s.rows.iter().map(|r| record(sub, &s.mix, r)));
        }
        report.push_str(&exp_tenants::report(summaries, o));
        report.push('\n');
    }
    Rep {
        setup,
        wall,
        records,
        client_ops: (0, 0),
        report: Some(report),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Partitioned,
    Shared,
    Solo(usize),
}

impl Mode {
    /// Index into the per-mode histograms and the metric suffix.
    fn slot(self) -> (usize, &'static str) {
        match self {
            Mode::Partitioned => (0, "part"),
            Mode::Shared => (1, "shared"),
            Mode::Solo(_) => (2, "solo"),
        }
    }
}

/// Per-tenant counters of one mode run.
struct ModeStat {
    misses: Vec<u64>,
    instructions: Vec<u64>,
    occupancies: Vec<u64>,
}

/// The quota grants `exp_tenants` gives a mix: the frames split in
/// proportion to the interleave weights, full walk budgets.
fn grants(mix: &TenantMix, o: &TenantOpts) -> Vec<TenantGrant> {
    let k = mix.tenant_count();
    let total: f64 = (0..k).map(|t| mix.weight(t)).sum();
    let pool = o.lines as f64 * o.quota_frac;
    (0..k)
        .map(|t| TenantGrant {
            quota: (pool * mix.weight(t) / total).round() as u64,
            walk_budget: u32::MAX,
        })
        .collect()
}

/// Runs one mode, timing every `PartitionedCache::access` into `hist`.
fn run_mode(
    mix: &TenantMix,
    mode: Mode,
    o: &TenantOpts,
    cfg_seed: u64,
    stream: &[(usize, MemRef)],
    hist: &mut Log2Hist,
) -> ModeStat {
    let k = mix.tenant_count();
    let tenants = match mode {
        Mode::Solo(_) => vec![TenantGrant {
            quota: o.lines,
            walk_budget: u32::MAX,
        }],
        _ => grants(mix, o),
    };
    let mut cfg = PartitionConfig::new(
        o.lines,
        o.ways,
        o.levels,
        PolicyKind::Lru,
        cfg_seed,
        tenants,
    );
    match mode {
        Mode::Partitioned => cfg.adaptive = Some(AdaptiveConfig::default()),
        Mode::Shared => cfg.enforce_quota = false,
        Mode::Solo(_) => {}
    }
    let mut cache = PartitionedCache::new(&cfg);
    let mut instructions = vec![0u64; k];
    for &(t, r) in stream {
        instructions[t] += u64::from(r.gap);
        let tenant = match mode {
            Mode::Solo(me) if t == me => 0,
            Mode::Solo(_) => continue,
            _ => t,
        };
        let t0 = Instant::now();
        cache.access(tenant, r.line, r.write);
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    let misses = (0..k)
        .map(|t| match mode {
            Mode::Solo(me) if t == me => cache.tenant_stats(0).misses,
            Mode::Solo(_) => 0,
            _ => cache.tenant_stats(t).misses,
        })
        .collect();
    let occupancies = match mode {
        Mode::Solo(_) => vec![0; k],
        _ => cache.occupancies(),
    };
    ModeStat {
        misses,
        instructions,
        occupancies,
    }
}

fn mpki(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / instructions as f64
    }
}

pub fn traced(seed: u64, div: u64, tr: &mut Tracer) -> Traced {
    let mut hists = [Log2Hist::new(), Log2Hist::new(), Log2Hist::new()];
    let mut misses = [0u64; 3];
    let mut gen_refs = 0u64;
    let records = tr.span("drive", None, |tr| {
        let mut zipf = ZipfCache::new();
        let mut records = Vec::new();
        for sub in 0..SUB_SEEDS {
            let o = opts(seed, sub, div);
            let mixes = standard_mixes(o.lines);
            let mut point = 0;
            for (m, mix) in mixes.iter().enumerate() {
                let cfg_seed = point_seed(o.seed, 2 * m as u64);
                let stream_seed = point_seed(o.seed, 2 * m as u64 + 1);
                let modes = [Mode::Partitioned, Mode::Shared]
                    .into_iter()
                    .chain((0..mix.tenant_count()).map(Mode::Solo));
                let mut stats = Vec::new();
                for mode in modes {
                    let stream: Vec<(usize, MemRef)> =
                        tr.span("zworkloads.gen", Some(point), |_| {
                            let mut src = mix.stream(stream_seed, &mut zipf);
                            (0..o.accesses).map(|_| src.next_tagged()).collect()
                        });
                    gen_refs += stream.len() as u64;
                    let (slot, label) = mode.slot();
                    let stat = tr.span(format!("partition.{label}"), Some(point), |_| {
                        run_mode(mix, mode, &o, cfg_seed, &stream, &mut hists[slot])
                    });
                    misses[slot] += stat.misses.iter().sum::<u64>();
                    stats.push(stat);
                    point += 1;
                }
                let (part, shared) = (&stats[0], &stats[1]);
                let grants = grants(mix, &o);
                for t in 0..mix.tenant_count() {
                    let solo = &stats[2 + t];
                    let row = TenantRow {
                        tenant: t,
                        instructions: part.instructions[t],
                        solo_mpki: mpki(solo.misses[t], solo.instructions[t]),
                        shared_mpki: mpki(shared.misses[t], shared.instructions[t]),
                        part_mpki: mpki(part.misses[t], part.instructions[t]),
                        occupancy: part.occupancies[t],
                        quota: grants[t].quota,
                    };
                    records.push(record(sub, mix.name(), &row));
                }
            }
        }
        records
    });

    let mut layers = Layers::default();
    layers.set(
        "zworkloads.gen_ns_per_ref",
        tr.total_s("zworkloads.gen") * 1e9 / gen_refs as f64,
    );
    for (slot, label) in ["part", "shared", "solo"].into_iter().enumerate() {
        let h = &hists[slot];
        layers.set(
            format!("partition.access_ns_p50.{label}"),
            h.percentile(50.0),
        );
        layers.set(
            format!("partition.access_ns_p99.{label}"),
            h.percentile(99.0),
        );
        if label != "solo" {
            layers.set(
                format!("partition.miss_frac.{label}"),
                ratio(misses[slot] as f64, h.count() as f64),
            );
        }
    }
    Traced {
        records,
        layers,
        problems: Vec::new(),
    }
}
