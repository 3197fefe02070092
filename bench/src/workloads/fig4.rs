//! `fig4-sweep`: `zbench::exp_fig4::run`, OPT then LRU, at small scale
//! with 8 cores × 25 k instructions over the first 8 suite workloads.
//! Each point records its L2 stream once and replays it against the six
//! lineup designs, so `replay_with` takes most of the time.

use super::{phases, Rep, Traced};
use crate::metrics::{ratio, slug, Layers, FIG_DESIGNS};
use crate::trace::Tracer;
use zbench::exp_fig4::{self, Fig4Result};
use zbench::opts::{fig_designs, with_policy, ExpOpts};
use zbench::point_seed;
use zcache_core::{PolicyKind, SeededMap};
use zsim::trace::{record_trace_into, replay_with, L2Trace, ReplayScratch};
use zsim::SimStats;
use zworkloads::suite::{paper_suite_scaled, Scale};
use zworkloads::ZipfCache;

const POLICIES: [(PolicyKind, &str); 2] = [(PolicyKind::Opt, "opt"), (PolicyKind::Lru, "lru")];

fn opts(seed: u64, div: u64) -> ExpOpts {
    ExpOpts {
        scale: Scale::SMALL,
        cores: 8,
        instrs_per_core: 25_000 / div,
        max_workloads: Some(8),
        seed,
        jobs: 1,
    }
}

fn record(policy: &str, workload: &str, design: &str, mpki: f64, ipc: f64) -> String {
    format!("{policy} {workload} {design} mpki={mpki} ipc={ipc}")
}

/// Per workload: the baseline's MPKI and IPC, then every other design's.
/// The improvement ratios of the report are functions of these.
fn records(policy: &str, res: &Fig4Result) -> Vec<String> {
    let per_point = res.cells.len() / res.baselines.len().max(1);
    let mut out = Vec::new();
    for (w, (name, mpki, ipc)) in res.baselines.iter().enumerate() {
        out.push(record(policy, name, "SA-4", *mpki, *ipc));
        for c in &res.cells[w * per_point..(w + 1) * per_point] {
            out.push(record(policy, &c.workload, &c.design, c.mpki, c.ipc));
        }
    }
    out
}

pub fn rep(seed: u64, div: u64) -> Rep {
    let (setup, wall, results) = phases(
        || {
            for (policy, _) in POLICIES {
                exp_fig4::run(policy, &opts(seed, div * 4));
            }
            opts(seed, div)
        },
        |o| POLICIES.map(|(policy, _)| exp_fig4::run(policy, &o)),
    );
    let mut records_out = Vec::new();
    let mut report = String::new();
    for ((_, label), res) in POLICIES.iter().zip(&results) {
        records_out.extend(records(label, res));
        report.push_str(&exp_fig4::report(res));
        report.push('\n');
    }
    Rep {
        setup,
        wall,
        records: records_out,
        client_ops: (0, 0),
        report: Some(report),
    }
}

pub fn traced(seed: u64, div: u64, tr: &mut Tracer) -> Traced {
    let o = opts(seed, div);
    let (mut l1_refs, mut l2_refs) = (0u64, 0u64);
    let mut l2_refs_by_policy = [0u64; 2];
    let mut z452_misses = [0u64; 2];
    let records = tr.span("drive", None, |tr| {
        let mut records = Vec::new();
        for (p, (policy, pol)) in POLICIES.into_iter().enumerate() {
            let designs = with_policy(&fig_designs(), policy);
            let workloads = paper_suite_scaled(o.cores as usize, o.scale);
            let n = o
                .max_workloads
                .unwrap_or(workloads.len())
                .min(workloads.len());
            let base = o.sim_config();
            let mut zipf = ZipfCache::new();
            let mut trace = L2Trace::default();
            let mut next_uses = Vec::new();
            let mut last_seen = SeededMap::with_capacity(1024, seed);
            let mut scratch = ReplayScratch::new();
            for (i, wl) in workloads.iter().enumerate().take(n) {
                let mut cfg = base.clone();
                cfg.seed = point_seed(o.seed, i as u64);
                tr.span("zsim.record", Some(i), |_| {
                    record_trace_into(&cfg, wl, &mut zipf, &mut trace)
                });
                l1_refs += trace.l1_stats.accesses;
                l2_refs += trace.len() as u64;
                l2_refs_by_policy[p] += trace.len() as u64;
                let oracle = if policy == PolicyKind::Opt {
                    tr.span("zsim.oracle", Some(i), |_| {
                        trace.next_uses_into(&mut next_uses, &mut last_seen)
                    });
                    Some(next_uses.as_slice())
                } else {
                    None
                };
                for (label, design) in &designs {
                    let dcfg = cfg.clone().with_l2(*design);
                    let stats: SimStats = tr.span(
                        format!("zsim.replay.{}.{pol}", slug(label)),
                        Some(i),
                        |_| replay_with(&dcfg, &trace, oracle, &mut scratch),
                    );
                    if slug(label) == "z4-52" {
                        z452_misses[p] += stats.l2.misses;
                    }
                    records.push(record(pol, wl.name(), label, stats.l2_mpki(), stats.ipc()));
                }
            }
        }
        records
    });

    let mut layers = Layers::default();
    let record_s = tr.total_s("zsim.record");
    layers.set("zsim.record_s", record_s);
    layers.set(
        "zsim.record_ns_per_l1_ref",
        ratio(record_s * 1e9, l1_refs as f64),
    );
    layers.set("zsim.oracle_s", tr.total_s("zsim.oracle"));
    for (p, (_, pol)) in POLICIES.iter().enumerate() {
        let mut replay_s = 0.0;
        for d in FIG_DESIGNS {
            let s = tr.total_s(&format!("zsim.replay.{d}.{pol}"));
            replay_s += s;
            layers.set(format!("zsim.replay_s.{d}.{pol}"), s);
        }
        let replayed = l2_refs_by_policy[p] * FIG_DESIGNS.len() as u64;
        layers.set(
            format!("zsim.replay_ns_per_l2_ref.{pol}"),
            ratio(replay_s * 1e9, replayed as f64),
        );
        layers.set(format!("zsim.l2_misses.z4-52.{pol}"), z452_misses[p] as f64);
    }
    layers.set("zsim.l1_refs", l1_refs as f64);
    layers.set("zsim.l2_refs", l2_refs as f64);
    Traced {
        records,
        layers,
        problems: Vec::new(),
    }
}
