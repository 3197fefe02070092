//! `exec-z4-52`: `zbench::exp_bandwidth::run` — execution-driven
//! `System::run` with a Z4/52 L2, 32 cores × 12.5 k instructions over the
//! first 16 suite workloads. The only workload through the MESI
//! directory, the bank ports and the batched dispatch.

use super::{phases, Rep, Traced};
use crate::metrics::{ratio, Layers};
use crate::trace::Tracer;
use zbench::exp_bandwidth::{self, BandwidthRow};
use zbench::opts::ExpOpts;
use zbench::point_seed;
use zsim::{L2Design, System};
use zworkloads::suite::{paper_suite_scaled, Scale};

fn opts(seed: u64, div: u64) -> ExpOpts {
    ExpOpts {
        scale: Scale::SMALL,
        cores: 32,
        instrs_per_core: 12_500 / div,
        max_workloads: Some(16),
        seed,
        jobs: 1,
    }
}

fn record(r: &BandwidthRow) -> String {
    format!(
        "{} load={} tagops={} miss={} mpki={} contention={}",
        r.workload,
        r.load_per_bank,
        r.tag_ops_per_bank,
        r.misses_per_bank,
        r.mpki,
        r.contention_frac
    )
}

pub fn rep(seed: u64, div: u64) -> Rep {
    let (setup, wall, rows) = phases(
        || {
            exp_bandwidth::run(&opts(seed, div * 4));
            opts(seed, div)
        },
        |o| exp_bandwidth::run(&o),
    );
    Rep {
        setup,
        wall,
        records: rows.iter().map(record).collect(),
        client_ops: (0, 0),
        report: Some(exp_bandwidth::report(&rows) + "\n"),
    }
}

pub fn traced(seed: u64, div: u64, tr: &mut Tracer) -> Traced {
    let o = opts(seed, div);
    let mut totals = zsim::SimStats::default();
    let records = tr.span("drive", None, |tr| {
        let workloads = paper_suite_scaled(o.cores as usize, o.scale);
        let n = o
            .max_workloads
            .unwrap_or(workloads.len())
            .min(workloads.len());
        let cfg = o.sim_config().with_l2(L2Design::zcache(4, 3));
        let mut records = Vec::new();
        for (i, wl) in workloads.iter().enumerate().take(n) {
            let mut point_cfg = cfg.clone();
            point_cfg.seed = point_seed(o.seed, i as u64);
            let stats = tr.span("zsim.exec", Some(i), |_| System::new(point_cfg).run(wl));
            records.push(record(&BandwidthRow {
                workload: wl.name().to_string(),
                load_per_bank: stats.l2_load_per_bank(),
                tag_ops_per_bank: stats.l2_tag_ops_per_cycle_per_bank(),
                misses_per_bank: stats.l2_misses_per_cycle_per_bank(),
                mpki: stats.l2_mpki(),
                contention_frac: ratio(
                    stats.l2_tag_contention_cycles as f64,
                    stats.max_cycles as f64,
                ),
            }));
            totals.l1.merge(&stats.l1);
            totals.l2.merge(&stats.l2);
            totals.invalidation_rounds += stats.invalidation_rounds;
            totals.back_invalidations += stats.back_invalidations;
            totals.mem_accesses += stats.mem_accesses;
            totals.l2_tag_contention_cycles += stats.l2_tag_contention_cycles;
            totals.l2_walk_delay_cycles += stats.l2_walk_delay_cycles;
        }
        records
    });

    let exec_s = tr.total_s("zsim.exec");
    let mut layers = Layers::default();
    layers.set("zsim.exec_s", exec_s);
    layers.set(
        "zsim.exec_ns_per_l1_ref",
        ratio(exec_s * 1e9, totals.l1.accesses as f64),
    );
    for (name, v) in [
        ("l1_refs", totals.l1.accesses),
        ("l2_refs", totals.l2.accesses),
        ("invalidation_rounds", totals.invalidation_rounds),
        ("back_invalidations", totals.back_invalidations),
        ("mem_accesses", totals.mem_accesses),
        ("tag_contention_cycles", totals.l2_tag_contention_cycles),
        ("walk_delay_cycles", totals.l2_walk_delay_cycles),
    ] {
        layers.set(format!("zsim.exec.{name}"), v as f64);
    }
    Traced {
        records,
        layers,
        problems: Vec::new(),
    }
}
