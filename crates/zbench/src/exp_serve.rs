//! `zbench serve` — drive the `zserve` service tier: a fault-free
//! service benchmark by default, the full chaos soak matrix with
//! `--chaos`.
//!
//! Soak points (seed × schedule) fan out across `--jobs` workers via
//! [`SweepRunner`] and merge in canonical (seed-major, matrix-order)
//! order, so the report — and the JSON artifact `--out` writes — is
//! byte-identical for any worker count. Each point is single-run
//! deterministic already (virtual time, seeded faults), which is what
//! makes the parallel fan-out safe. The committed `BENCH_serve.json` is
//! the `--chaos --smoke --seed 1` run, pinned with its command line in
//! `crates/zbench/tests/pinned.sh`, which regenerates it.

use crate::{format_table, SweepRunner};
use zserve::soak::{schedule_matrix, soak_point, SoakReport, SoakRow};
use zserve::ServeConfig;

/// Which schedules a serve run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Fault-free baseline only: a plain service benchmark.
    Baseline,
    /// The full chaos matrix (all fault kinds + overload) per seed.
    Chaos,
}

/// Runs the serve sweep: every `(seed, schedule)` point, in parallel,
/// merged canonically. With `shrink`, violated points carry a minimal
/// repro.
pub fn run(
    base: &ServeConfig,
    seeds: &[u64],
    mode: ServeMode,
    jobs: usize,
    shrink: bool,
) -> SoakReport {
    let schedules_of = |seed: u64| {
        let mut m = schedule_matrix(base, seed);
        if mode == ServeMode::Baseline {
            m.retain(|s| s.name == "baseline");
        }
        m
    };
    let per_seed = seeds.first().map_or(0, |&s| schedules_of(s).len());
    let rows = SweepRunner::new(jobs).run(seeds.len() * per_seed, |i| {
        let seed = seeds[i / per_seed];
        let schedule = &schedules_of(seed)[i % per_seed];
        soak_point(base, schedule, seed, shrink)
    });
    SoakReport { rows }
}

/// Renders the serve report as a table plus a soak summary line.
pub fn report(soak: &SoakReport, base: &ServeConfig) -> String {
    let mut out = format!(
        "zserve soak — {} shards × {} lines (Z{}/{} walk), {} ops/point, \
         timeout {} ticks\n\n",
        base.shards,
        base.lines_per_shard,
        base.ways,
        base.ways
            * (0..base.levels)
                .map(|l| (base.ways - 1).pow(l))
                .sum::<u32>(),
        base.total_ops,
        base.timeout,
    );
    let headers = [
        "schedule",
        "seed",
        "ticks",
        "acked",
        "failed",
        "retries",
        "hedges",
        "crash",
        "rebuild",
        "bdg-",
        "bdg+",
        "hit rate",
        "p50",
        "p99",
        "max",
        "violations",
    ];
    let body: Vec<Vec<String>> = soak
        .rows
        .iter()
        .map(|r| {
            let total = (r.hits + r.misses).max(1);
            vec![
                r.schedule.clone(),
                r.seed.to_string(),
                r.ticks.to_string(),
                r.acked.to_string(),
                r.failed.to_string(),
                r.retries.to_string(),
                r.hedges.to_string(),
                r.shard_crashes.to_string(),
                r.shard_rebuilds.to_string(),
                r.budget_reductions.to_string(),
                r.budget_restorations.to_string(),
                format!("{:.3}", r.hits as f64 / total as f64),
                r.latency.p50.to_string(),
                r.latency.p99.to_string(),
                r.latency.max.to_string(),
                r.violations.len().to_string(),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    out.push_str(&format!(
        "\n{} points, {} invariant violations\n",
        soak.rows.len(),
        soak.violations()
    ));
    for r in soak.rows.iter().filter(|r| !r.violations.is_empty()) {
        for v in &r.violations {
            out.push_str(&format!(
                "  VIOLATION [{} seed {}]: {v}\n",
                r.schedule, r.seed
            ));
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn row_json(r: &SoakRow) -> String {
    let violations = r
        .violations
        .iter()
        .map(|v| format!("\"{}\"", json_escape(v)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"schedule\":\"{}\",\"seed\":{},\"transparent\":{},\"ticks\":{},\
         \"ops_issued\":{},\"acked\":{},\"failed\":{},\"retries\":{},\"hedges\":{},\
         \"timeouts\":{},\"queue_rejections\":{},\"admission_rejections\":{},\
         \"duplicate_acks\":{},\"dropped_replies\":{},\"shard_crashes\":{},\
         \"shard_rebuilds\":{},\"budget_reductions\":{},\"budget_restorations\":{},\
         \"hits\":{},\"misses\":{},\"latency_ticks\":{{\"p50\":{},\"p95\":{},\"p99\":{},\
         \"max\":{}}},\"digest\":\"{:#018x}\",\"violations\":[{}]}}",
        json_escape(&r.schedule),
        r.seed,
        r.transparent,
        r.ticks,
        r.ops_issued,
        r.acked,
        r.failed,
        r.retries,
        r.hedges,
        r.timeouts,
        r.queue_rejections,
        r.admission_rejections,
        r.duplicate_acks,
        r.dropped_replies,
        r.shard_crashes,
        r.shard_rebuilds,
        r.budget_reductions,
        r.budget_restorations,
        r.hits,
        r.misses,
        r.latency.p50,
        r.latency.p95,
        r.latency.p99,
        r.latency.max,
        r.digest,
        violations,
    )
}

/// Serializes the soak as the `zbench-serve-v1` JSON artifact. Every
/// number is virtual-time deterministic, so the artifact is safe to
/// pin in the repository.
pub fn to_json(soak: &SoakReport, base: &ServeConfig, seeds: &[u64]) -> String {
    let rows = soak
        .rows
        .iter()
        .map(|r| format!("    {}", row_json(r)))
        .collect::<Vec<_>>()
        .join(",\n");
    let seeds_s = seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\n  \"schema\": \"zbench-serve-v1\",\n  \"config\": {{\n    \
         \"shards\": {},\n    \"lines_per_shard\": {},\n    \"ways\": {},\n    \
         \"levels\": {},\n    \"queue_cap\": {},\n    \"units_per_tick\": {},\n    \
         \"ops_per_tick\": {},\n    \"timeout\": {},\n    \"max_attempts\": {},\n    \
         \"rebuild_delay\": {},\n    \"total_ops\": {},\n    \"records\": {}\n  }},\n  \
         \"seeds\": [{}],\n  \"violations\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        base.shards,
        base.lines_per_shard,
        base.ways,
        base.levels,
        base.queue_cap,
        base.units_per_tick,
        base.ops_per_tick,
        base.timeout,
        base.max_attempts,
        base.rebuild_delay,
        base.total_ops,
        base.spec.record_count,
        seeds_s,
        soak.violations(),
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ServeConfig {
        ServeConfig::default().smoke()
    }

    #[test]
    fn baseline_mode_runs_only_baseline() {
        let soak = run(&smoke(), &[1], ServeMode::Baseline, 2, false);
        assert_eq!(soak.rows.len(), 1);
        assert_eq!(soak.rows[0].schedule, "baseline");
        assert_eq!(soak.violations(), 0);
    }

    #[test]
    fn report_and_json_render() {
        let soak = run(&smoke(), &[1], ServeMode::Baseline, 1, false);
        let rep = report(&soak, &smoke());
        assert!(rep.contains("zserve soak"));
        assert!(rep.contains("0 invariant violations"));
        let json = to_json(&soak, &smoke(), &[1]);
        assert!(json.contains("\"schema\": \"zbench-serve-v1\""));
        assert!(json.contains("\"schedule\":\"baseline\""));
        assert!(json.contains("\"violations\":[]"));
    }
}
