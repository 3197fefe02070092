//! The chaos soak: a schedule matrix, invariant checks against a
//! fault-free twin, and schedule shrinking for failing runs.
//!
//! Every soak point is `(base config, schedule, seed)` → one chaos run,
//! plus — for timing-transparent schedules — a fault-free twin run whose
//! cache-state digests must match exactly. Invariants checked on every
//! point:
//!
//! 1. **conservation** — every issued op is acknowledged exactly once
//!    (`acked == ops_issued`, `failed == 0`),
//! 2. **liveness** — the run finishes inside its tick limit,
//! 3. **transparency** — schedules containing only short stalls and
//!    slowdowns must not fire a single retry or hedge, and must end
//!    with byte-identical shard digests and hit/miss totals to the twin,
//! 4. **exercise** — a schedule's faults must actually fire (a drop
//!    window that drops nothing means the harness, not the service,
//!    is broken), and overload points must engage and then release the
//!    walk-budget degradation.
//!
//! A violated point is shrunk by greedy event removal (ddmin-style) to
//! a minimal failing [`FaultPlan`], serialized as a text repro that
//! [`replay_repro`] can run straight from a corpus file.

use crate::fault::{FaultKind, FaultMenu, FaultPlan};
use crate::service::{ServeConfig, ServeReport, ZServe};
use crate::stats::ServeStats;

/// One named soak schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Stable name (also the repro/report key).
    pub name: String,
    /// The fault plan to impose.
    pub plan: FaultPlan,
    /// Whether to run the arrival-surge variant of the config (5× the
    /// arrival rate, a deeper in-flight window) to exercise admission
    /// control and walk-budget degradation.
    pub overload: bool,
}

/// The standard schedule matrix for one seed: baseline, one schedule
/// per fault kind, the full mix, and an overload (fault-free surge)
/// point.
pub fn schedule_matrix(cfg: &ServeConfig, seed: u64) -> Vec<Schedule> {
    let horizon = cfg.issue_horizon();
    let shards = cfg.shards;
    // Transparent windows must stay under timeout/2; `generate` halves
    // the stall scale, so cap the raw window at ~1.25× the timeout.
    let transparent_window = (cfg.timeout * 5 / 8).max(8);
    let aggressive_window = (cfg.timeout * 3 / 2).max(16);
    let menu = |f: fn(&mut FaultMenu)| {
        let mut m = FaultMenu::none();
        f(&mut m);
        m
    };
    vec![
        Schedule {
            name: "baseline".into(),
            plan: FaultPlan::none(),
            overload: false,
        },
        Schedule {
            name: "stall".into(),
            plan: FaultPlan::generate(
                seed,
                shards,
                horizon,
                transparent_window,
                menu(|m| m.stall = true),
            ),
            overload: false,
        },
        Schedule {
            name: "slowdown".into(),
            plan: FaultPlan::generate(
                seed,
                shards,
                horizon,
                aggressive_window,
                menu(|m| m.slowdown = true),
            ),
            overload: false,
        },
        Schedule {
            name: "drop".into(),
            plan: FaultPlan::generate(
                seed,
                shards,
                horizon,
                aggressive_window,
                menu(|m| m.drop = true),
            ),
            overload: false,
        },
        Schedule {
            name: "burst".into(),
            plan: FaultPlan::generate(
                seed,
                shards,
                horizon,
                aggressive_window,
                menu(|m| m.queue_burst = true),
            ),
            overload: false,
        },
        Schedule {
            name: "poison".into(),
            plan: FaultPlan::generate(
                seed,
                shards,
                horizon,
                aggressive_window,
                menu(|m| m.poison = true),
            ),
            overload: false,
        },
        Schedule {
            name: "mixed".into(),
            plan: FaultPlan::generate(seed, shards, horizon, aggressive_window, FaultMenu::all()),
            overload: false,
        },
        Schedule {
            name: "overload".into(),
            plan: FaultPlan::none(),
            overload: true,
        },
    ]
}

/// One soak point's outcome: the run's counters plus any invariant
/// violations (and, when shrinking was requested, a minimal repro).
#[derive(Debug, Clone, PartialEq)]
pub struct SoakRow {
    /// Schedule name.
    pub schedule: String,
    /// Seed the point ran under.
    pub seed: u64,
    /// Whether the transparency invariant applied.
    pub transparent: bool,
    /// Virtual ticks the chaos run took.
    pub ticks: u64,
    /// The run's counters and completed-op latencies.
    pub stats: ServeStats,
    /// Combined cache-state digest.
    pub digest: u64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
    /// Minimal failing schedule in repro format, when shrinking ran.
    pub repro: Option<String>,
}

/// A full soak: every row, in canonical (seed-major, matrix-order)
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// All soak rows.
    pub rows: Vec<SoakRow>,
}

impl SoakReport {
    /// Total invariant violations across all rows.
    pub fn violations(&self) -> usize {
        self.rows.iter().map(|r| r.violations.len()).sum()
    }

    /// Deterministic one-line-per-row text rendering — the
    /// byte-identical-across-`--jobs` artifact the determinism tests
    /// compare.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let (s, latency) = (&r.stats, r.stats.latency_summary());
            out.push_str(&format!(
                "schedule={} seed={} transparent={} ticks={} issued={} acked={} failed={} \
                 retries={} hedges={} timeouts={} qrej={} arej={} dups={} dropped={} \
                 crashes={} rebuilds={} budget_down={} budget_up={} hits={} misses={} \
                 p50={} p95={} p99={} max={} digest={:#018x} violations={}\n",
                r.schedule,
                r.seed,
                if r.transparent { "yes" } else { "no" },
                r.ticks,
                s.ops_issued,
                s.acked,
                s.failed,
                s.retries,
                s.hedges,
                s.timeouts,
                s.queue_rejections,
                s.admission_rejections,
                s.duplicate_acks,
                s.dropped_replies,
                s.shard_crashes,
                s.shard_rebuilds,
                s.budget_reductions,
                s.budget_restorations,
                s.hits,
                s.misses,
                latency.p50,
                latency.p95,
                latency.p99,
                latency.max,
                r.digest,
                if r.violations.is_empty() {
                    "none".to_string()
                } else {
                    r.violations.join(";").replace(' ', "_")
                },
            ));
        }
        out
    }
}

/// The arrival-surge config variant used by overload schedules: 5× the
/// arrival rate against a shard tier at a fifth of its service
/// capacity, with a deep enough in-flight window that per-shard queues
/// actually build. Arrival exceeds full-budget throughput, so the
/// watermark trips, degradation engages, and the final drain releases
/// it again.
fn overload_variant(mut cfg: ServeConfig) -> ServeConfig {
    cfg.ops_per_tick *= 5;
    cfg.units_per_tick = (cfg.units_per_tick / 5).max(1);
    cfg.inflight_limit = cfg.inflight_limit.max(512);
    cfg
}

fn effective_cfg(base: &ServeConfig, schedule: &Schedule, seed: u64) -> ServeConfig {
    let mut cfg = base.clone();
    cfg.seed = seed;
    if schedule.overload {
        cfg = overload_variant(cfg);
    }
    cfg
}

/// Runs one `(config, plan)` pair and collects its violations. The
/// twin run only happens when the transparency invariant applies.
fn run_and_check(
    cfg: &ServeConfig,
    plan: &FaultPlan,
    overload: bool,
) -> (ServeReport, bool, Vec<String>) {
    // An overload point is never transparent: load shedding, retries,
    // and budget degradation are supposed to fire there.
    let transparent = plan.is_transparent(cfg.timeout) && !overload;
    let report = ZServe::new(cfg.clone(), plan.clone()).run();
    let mut v = Vec::new();
    let s = &report.stats;
    if report.livelocked {
        v.push(format!("livelocked after {} ticks", report.ticks));
    }
    if s.ops_issued != cfg.total_ops {
        v.push(format!("issued {} of {} ops", s.ops_issued, cfg.total_ops));
    }
    if s.acked != s.ops_issued {
        v.push(format!(
            "lost acks: {} acked of {} issued",
            s.acked, s.ops_issued
        ));
    }
    if s.failed > 0 {
        v.push(format!("{} ops failed", s.failed));
    }
    if transparent {
        let twin = ZServe::new(cfg.clone(), FaultPlan::none()).run();
        if s.retries > 0 || s.hedges > 0 {
            v.push(format!(
                "transparent plan fired {} retries / {} hedges",
                s.retries, s.hedges
            ));
        }
        if report.shard_digests != twin.shard_digests {
            v.push("transparent plan diverged from fault-free digest".to_string());
        }
        if (s.hits, s.misses) != (twin.stats.hits, twin.stats.misses) {
            v.push("transparent plan changed hit/miss totals".to_string());
        }
    }
    // Exercise checks: the matrix is broken (not the service) if a
    // fault never fires, but either way the soak must not pass.
    let has = |k: fn(&FaultKind) -> bool| plan.events.iter().any(|e| k(&e.kind));
    if has(|k| *k == FaultKind::Drop) && s.dropped_replies == 0 {
        v.push("drop fault never exercised".to_string());
    }
    if has(|k| *k == FaultKind::Poison) && s.shard_crashes == 0 {
        v.push("poison fault never exercised".to_string());
    }
    if has(|k| *k == FaultKind::Poison) && cfg.rebuild_enabled && s.shard_rebuilds == 0 {
        v.push("poisoned shard never rebuilt".to_string());
    }
    if has(|k| matches!(k, FaultKind::QueueBurst { .. })) && s.queue_rejections == 0 {
        v.push("queue burst never exercised".to_string());
    }
    if overload {
        if s.budget_reductions == 0 {
            v.push("overload never engaged budget degradation".to_string());
        }
        if s.budget_restorations == 0 {
            v.push("degraded budget never restored".to_string());
        }
    }
    (report, transparent, v)
}

/// Greedy ddmin over the plan's events: repeatedly drops any single
/// event whose removal keeps the point failing, until no removal does.
fn shrink_plan(cfg: &ServeConfig, overload: bool, plan: &FaultPlan) -> FaultPlan {
    let mut current = plan.clone();
    'outer: loop {
        for i in 0..current.events.len() {
            let mut candidate = current.clone();
            candidate.events.remove(i);
            let (_, _, v) = run_and_check(cfg, &candidate, overload);
            if !v.is_empty() {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// Runs one soak point. With `shrink`, a violated point also carries a
/// minimal repro.
pub fn soak_point(base: &ServeConfig, schedule: &Schedule, seed: u64, shrink: bool) -> SoakRow {
    let cfg = effective_cfg(base, schedule, seed);
    let (report, transparent, violations) = run_and_check(&cfg, &schedule.plan, schedule.overload);
    let repro = if !violations.is_empty() && shrink {
        let minimal = shrink_plan(&cfg, schedule.overload, &schedule.plan);
        Some(repro_text(schedule, seed, &minimal, &violations))
    } else {
        None
    };
    SoakRow {
        schedule: schedule.name.clone(),
        seed,
        transparent,
        ticks: report.ticks,
        stats: report.stats,
        digest: report.combined_digest,
        violations,
        repro,
    }
}

/// Runs the full matrix for each seed, sequentially, in canonical
/// order. Parallel drivers (zbench) fan the same points out themselves
/// and merge in this order, which is what keeps reports byte-identical
/// at any `--jobs`.
pub fn run_soak(base: &ServeConfig, seeds: &[u64], shrink: bool) -> SoakReport {
    let mut rows = Vec::new();
    for &seed in seeds {
        for schedule in schedule_matrix(base, seed) {
            rows.push(soak_point(base, &schedule, seed, shrink));
        }
    }
    SoakReport { rows }
}

fn repro_text(schedule: &Schedule, seed: u64, plan: &FaultPlan, violations: &[String]) -> String {
    let mut out = String::new();
    out.push_str("# zserve soak repro\n");
    out.push_str(&format!("# schedule: {}\n", schedule.name));
    out.push_str(&format!("# seed: {seed}\n"));
    out.push_str(&format!("# overload: {}\n", schedule.overload));
    for v in violations {
        out.push_str(&format!("# violation: {v}\n"));
    }
    out.push_str(&plan.to_text());
    out
}

/// Replays a repro file against `base`, returning the re-checked row.
/// The repro's seed and overload flag override the base config; its
/// fault lines become the plan.
///
/// # Errors
///
/// Returns an error for missing/malformed directives or fault lines.
pub fn replay_repro(base: &ServeConfig, text: &str) -> Result<SoakRow, String> {
    let mut name = None;
    let mut seed = None;
    let mut overload = false;
    for (i, line) in text.lines().enumerate() {
        if let Some(rest) = line.strip_prefix("# schedule:") {
            name = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("# seed:") {
            seed = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad seed directive: {line:?}", i + 1))?,
            );
        } else if let Some(rest) = line.strip_prefix("# overload:") {
            overload = rest.trim() == "true";
        }
    }
    let schedule = Schedule {
        name: name.ok_or("repro missing `# schedule:` directive")?,
        plan: FaultPlan::parse(text)?,
        overload,
    };
    let seed = seed.ok_or("repro missing `# seed:` directive")?;
    Ok(soak_point(base, &schedule, seed, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ServeConfig {
        ServeConfig::default().smoke()
    }

    #[test]
    fn matrix_covers_every_fault_kind_once() {
        let m = schedule_matrix(&smoke(), 1);
        let names: Vec<&str> = m.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["baseline", "stall", "slowdown", "drop", "burst", "poison", "mixed", "overload"]
        );
        assert!(m.iter().any(|s| s.overload));
        // Stall and slowdown schedules must classify as transparent
        // under the default timeout, or the matrix loses its digest
        // check.
        let cfg = smoke();
        for s in &m {
            match s.name.as_str() {
                "stall" | "slowdown" | "baseline" | "overload" => {
                    assert!(
                        s.plan.is_transparent(cfg.timeout),
                        "{} not transparent",
                        s.name
                    );
                }
                _ => assert!(
                    !s.plan.is_transparent(cfg.timeout),
                    "{} transparent",
                    s.name
                ),
            }
        }
        // The overload point opts out of the transparency invariant
        // via its flag, not its (empty) plan.
        assert!(m.iter().find(|s| s.name == "overload").unwrap().overload);
    }

    #[test]
    fn repro_roundtrip_replays() {
        let cfg = smoke();
        let schedule = Schedule {
            name: "drop".into(),
            plan: FaultPlan::parse("fault 0 120 96 drop\n").unwrap(),
            overload: false,
        };
        let text = repro_text(&schedule, 9, &schedule.plan, &["example".into()]);
        let row = replay_repro(&cfg, &text).unwrap();
        assert_eq!(row.schedule, "drop");
        assert_eq!(row.seed, 9);
        assert!(row.violations.is_empty(), "{:?}", row.violations);
        assert!(row.stats.dropped_replies > 0);
    }

    #[test]
    fn replay_rejects_malformed_repros() {
        assert!(replay_repro(&smoke(), "fault 0 1 1 stall\n").is_err());
        assert!(replay_repro(&smoke(), "# schedule: x\nfault 0 1 1 stall\n").is_err());
        // A malformed line is named by number. A window ending past
        // u64::MAX is rejected before any tick arithmetic can overflow.
        for (text, prefix) in [
            ("# schedule: x\n# seed: -1\n", "line 2: bad seed directive"),
            (
                "# schedule: x\n# seed: 1\nfault 0 1 18446744073709551615 stall\n",
                "line 3: ",
            ),
        ] {
            let err = replay_repro(&smoke(), text).unwrap_err();
            assert!(err.starts_with(prefix), "{text:?}: {err}");
        }
    }
}
