//! `serve-ycsb`: `ZServe::run` with the default configuration and no
//! faults — 4 Z4/52 shards, YCSB-A 50/50 read/update — for 1 M ops.
//! About 89 % of ops hit: the array is used the opposite way from
//! `array-z4-52`, behind a per-op service loop. The schedule runs in
//! virtual time, so only host time is measured.

use super::{phases, Rep, Traced};
use crate::metrics::{ratio, Layers};
use crate::trace::Tracer;
use zhash::{Hasher64, Mix64};
use zserve::{FaultPlan, Request, ServeConfig, ServeReport, Shard, ShardConfig, ZServe};
use zworkloads::ycsb::YcsbGen;

const OPS: u64 = 1_000_000;
/// The seed tags `ZServe` derives its workload and shard picker from;
/// the shard drive below must see the same op stream on the same shards.
const WORKLOAD_TAG: u64 = 0x3c5b_10ad;
const SHARD_PICK_TAG: u64 = 0x51a2_d01c;

fn config(seed: u64, ops: u64) -> ServeConfig {
    let mut cfg = ServeConfig {
        seed,
        total_ops: ops,
        ..ServeConfig::default()
    };
    // Virtual-time headroom, as `zbench serve --ops` gives it: a run is
    // cut off as livelocked only if it stops draining.
    cfg.tick_limit = cfg.issue_horizon() * 4 + 512;
    cfg
}

fn records(r: &ServeReport) -> Vec<String> {
    let s = &r.stats;
    let lat = s.latency_summary();
    vec![
        format!(
            "ops issued={} acked={} failed={} dup={} hits={} misses={} ticks={} livelocked={}",
            s.ops_issued,
            s.acked,
            s.failed,
            s.duplicate_acks,
            s.hits,
            s.misses,
            r.ticks,
            r.livelocked
        ),
        format!(
            "recovery retries={} hedges={} timeouts={} queue_rej={} admission_rej={} dropped={} \
             crashes={} rebuilds={} budget-={} budget+={}",
            s.retries,
            s.hedges,
            s.timeouts,
            s.queue_rejections,
            s.admission_rejections,
            s.dropped_replies,
            s.shard_crashes,
            s.shard_rebuilds,
            s.budget_reductions,
            s.budget_restorations
        ),
        format!(
            "latency p50={} p95={} p99={} max={}",
            lat.p50, lat.p95, lat.p99, lat.max
        ),
        format!("combined_digest={:#018x}", r.combined_digest),
    ]
}

/// Ops that never got an ack: failed, or lost to the tick limit.
fn unacked(r: &ServeReport, cfg: &ServeConfig) -> u64 {
    cfg.total_ops.saturating_sub(r.stats.acked)
}

pub fn rep(seed: u64, div: u64) -> Rep {
    let cfg = config(seed, OPS / div);
    let (setup, wall, report) = phases(
        || {
            ZServe::new(config(seed, OPS / (div * 4)), FaultPlan::none()).run();
            ZServe::new(cfg.clone(), FaultPlan::none())
        },
        ZServe::run,
    );
    Rep {
        setup,
        wall,
        records: records(&report),
        client_ops: (cfg.total_ops, unacked(&report, &cfg)),
        report: None,
    }
}

/// The client's op stream as `key << 3 | shard << 1 | write`, in issue
/// order.
pub fn gen_ops(cfg: &ServeConfig) -> Vec<u64> {
    let mut gen = YcsbGen::new(cfg.spec, cfg.seed ^ WORKLOAD_TAG);
    let pick = Mix64::new(cfg.seed ^ SHARD_PICK_TAG);
    assert!(cfg.shards <= 4, "shard index must fit two bits");
    (0..cfg.total_ops)
        .map(|_| {
            let op = gen.next_op();
            assert!(op.key >> 61 == 0, "key {} does not pack", op.key);
            let shard = pick.hash(op.key) % u64::from(cfg.shards);
            op.key << 3 | shard << 1 | u64::from(op.is_write())
        })
        .collect()
}

fn shard_config(cfg: &ServeConfig, i: u32) -> ShardConfig {
    ShardConfig {
        lines: cfg.lines_per_shard,
        ways: cfg.ways,
        levels: cfg.levels,
        seed: cfg
            .seed
            .wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9)),
        queue_cap: cfg.queue_cap,
        units_per_tick: cfg.units_per_tick,
        queue_watermark: cfg.queue_watermark,
        rebuild_delay: cfg.rebuild_delay,
        rebuild_enabled: cfg.rebuild_enabled,
    }
}

pub fn traced(seed: u64, div: u64, tr: &mut Tracer) -> Traced {
    let cfg = config(seed, OPS / div);
    let serve = tr.span("serve.build", None, |_| {
        ZServe::new(cfg.clone(), FaultPlan::none())
    });
    let report = tr.span("drive", None, |tr| {
        tr.span("serve.run", None, |_| serve.run())
    });

    // The shard layer alone: the same ops, in the same order, on the same
    // shards, one `try_enqueue` + `step` per op with no client around it.
    let ops = tr.span("zworkloads.gen", None, |_| gen_ops(&cfg));
    let mut shards: Vec<Shard> = tr.span("serve.shard_build", None, |_| {
        (0..cfg.shards)
            .map(|i| Shard::new(shard_config(&cfg, i)))
            .collect()
    });
    tr.span("serve.shard_step", None, |_| {
        let mut replies = Vec::with_capacity(4);
        for (i, &p) in ops.iter().enumerate() {
            let shard = &mut shards[(p >> 1 & 3) as usize];
            let req = Request {
                op_id: i as u64 + 1,
                key: p >> 3,
                write: p & 1 == 1,
            };
            shard.try_enqueue(req);
            shard.step(i as u64, &mut replies);
            replies.clear();
        }
    });
    let mut problems = Vec::new();
    let digests: Vec<u64> = shards.iter().map(Shard::digest).collect();
    if digests != report.shard_digests {
        problems.push(format!(
            "shard drive digests {digests:x?} differ from the service's {:x?}",
            report.shard_digests
        ));
    }

    let n = cfg.total_ops as f64;
    let host_ns = tr.total_s("serve.run") * 1e9 / n;
    let step_ns = tr.total_s("serve.shard_step") * 1e9 / n;
    let s = &report.stats;
    let mut layers = Layers::default();
    layers.set(
        "zworkloads.gen_ns_per_ref",
        tr.total_s("zworkloads.gen") * 1e9 / n,
    );
    layers.set("serve.host_ns_per_op", host_ns);
    layers.set("serve.shard_step_ns_per_op", step_ns);
    layers.set("serve.loop_ns_per_op", host_ns - step_ns);
    layers.set("serve.ticks", report.ticks as f64);
    layers.set(
        "serve.hit_frac",
        ratio(s.hits as f64, (s.hits + s.misses) as f64),
    );
    layers.set("serve.budget_reductions", s.budget_reductions as f64);
    layers.set("serve.queue_rejections", s.queue_rejections as f64);
    layers.set("serve.retries", s.retries as f64);
    Traced {
        records: records(&report),
        layers,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_deterministic_per_seed() {
        let a = gen_ops(&config(3, 4_000));
        assert_eq!(a, gen_ops(&config(3, 4_000)));
        assert_ne!(a, gen_ops(&config(4, 4_000)));
        let writes = a.iter().filter(|&&p| p & 1 == 1).count();
        assert!(
            (1_700..2_300).contains(&writes),
            "{writes} writes in 4000 YCSB-A ops"
        );
    }

    #[test]
    fn shard_drive_matches_the_service() {
        let mut tr = Tracer::new();
        let t = traced(2, 2_000, &mut tr);
        assert!(t.problems.is_empty(), "{:?}", t.problems);
        assert_eq!(t.records, rep(2, 2_000).records);
    }
}
