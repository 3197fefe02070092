//! `zbench tenants` — multi-tenant partitioned-zcache isolation sweep
//! and the partition lockstep conformance check.
//!
//! The sweep drives each [`standard_mixes`] tenant mix through three
//! cache modes built on the *same* interleaved reference stream:
//!
//! * **solo** — each tenant alone in the full array: its reference
//!   subsequence is schedule-independent (see
//!   [`zworkloads::multi_tenant`]), so the solo MPKI is the exact
//!   no-interference baseline;
//! * **shared** — all tenants share the array with quota enforcement
//!   off (plain sharing, the interference ceiling);
//! * **partitioned** — quotas proportional to the interleave weights
//!   enforced in victim selection, with a per-tenant [`ShadowDuel`]
//!   re-tuning walk budgets (the scheme under test).
//!
//! Per tenant the report shows solo/shared/partitioned MPKI and the
//! end-of-run occupancy against the quota; per mix it shows the Jain
//! fairness index of the per-tenant slowdowns `solo/mode`. The headline
//! isolation claim (asserted by the tests and documented in
//! EXPERIMENTS.md): the Zipf-hot tenant's partitioned MPKI stays within
//! 2× of its solo run while its shared MPKI blows far past it.
//!
//! `--check` instead runs the [`part_check_grid`] differential sweep —
//! every (tenant mix × policy) pair in zoracle lockstep — and
//! `--mutate quota-bypass` re-runs that grid with the quota-bypass
//! mutation applied to the production side, verifying the lockstep
//! *catches* the mutant and ddmin-shrinking one caught divergence into
//! `tests/corpus/` (where `partition_conformance` replays it forever).
//!
//! Points fan out over the [`SweepRunner`]; all randomness derives from
//! [`point_seed`], so output is byte-identical for any `--jobs` value.
//!
//! [`ShadowDuel`]: zcache_core::ShadowDuel

use crate::{format_table, point_seed, SweepRunner};
use std::path::{Path, PathBuf};
use zcache_core::{
    AdaptiveConfig, AnyPolicy, ArrayKind, PartitionConfig, PartitionedCache, PolicyKind,
    ShadowDuel, TenantGrant,
};
use zoracle::{
    part_check_grid, run_part_diff_mutated, shrink_part, write_part_repro, PartConfig,
    PartDivergence, PartMix, PartSummary,
};
use zworkloads::multi_tenant::{standard_mixes, TenantMix};
use zworkloads::{MemRef, ZipfCache};

/// Options for the tenants sweep and the `--check` lockstep grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOpts {
    /// Interleaved references per mix (sweep) or accesses per grid pair
    /// (`--check`).
    pub accesses: usize,
    /// Shared cache frames.
    pub lines: u64,
    /// Ways of the shared zcache array.
    pub ways: u32,
    /// Walk depth in levels (3 → the paper's Z4/52 shape at 4 ways).
    pub levels: u32,
    /// Base seed; per-point seeds derive via [`point_seed`].
    pub seed: u64,
    /// Sweep worker threads.
    pub jobs: usize,
    /// Fraction of the array granted as quotas in total (1.0 = exactly
    /// the array; > 1 overcommits, weakening enforcement).
    pub quota_frac: f64,
    /// Full-state digest interval of the `--check` lockstep.
    pub digest_every: u64,
}

impl Default for TenantOpts {
    fn default() -> Self {
        Self {
            accesses: 200_000,
            lines: 1 << 10,
            ways: 4,
            levels: 3,
            seed: 1,
            jobs: crate::opts::default_jobs(),
            quota_frac: 1.0,
            digest_every: 1024,
        }
    }
}

/// Per-tenant results of one mix across the three modes.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// Tenant index within the mix.
    pub tenant: usize,
    /// Instructions attributed to this tenant (identical across modes:
    /// the reference subsequence is schedule-independent).
    pub instructions: u64,
    /// Misses per kilo-instruction, running alone in the full array.
    pub solo_mpki: f64,
    /// MPKI sharing the array with enforcement off.
    pub shared_mpki: f64,
    /// MPKI under quota partitioning with adaptive walk budgets.
    pub part_mpki: f64,
    /// End-of-run occupancy in the partitioned mode.
    pub occupancy: u64,
    /// The tenant's quota grant.
    pub quota: u64,
}

/// One mix's sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSummary {
    /// Mix name (from [`standard_mixes`]).
    pub mix: String,
    /// One row per tenant.
    pub rows: Vec<TenantRow>,
    /// Jain fairness of the per-tenant slowdowns `solo/shared`.
    pub jain_shared: f64,
    /// Jain fairness of the per-tenant slowdowns `solo/partitioned`.
    pub jain_part: f64,
}

/// The quota grants of a mix: `lines * quota_frac` frames split in
/// proportion to the interleave weights, full walk budgets (the duel
/// throttles them at runtime where beneficial).
fn grants(mix: &TenantMix, opts: &TenantOpts) -> Vec<TenantGrant> {
    let k = mix.tenant_count();
    let total: f64 = (0..k).map(|t| mix.weight(t)).sum();
    let pool = opts.lines as f64 * opts.quota_frac;
    (0..k)
        .map(|t| TenantGrant {
            quota: (pool * mix.weight(t) / total).round() as u64,
            walk_budget: u32::MAX,
        })
        .collect()
}

/// One sweep point: a mix run in one mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Partitioned,
    Shared,
    Solo(usize),
}

/// Per-tenant counters of one mode run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ModeStat {
    misses: Vec<u64>,
    instructions: Vec<u64>,
    occupancies: Vec<u64>,
}

fn run_mode(
    mix: &TenantMix,
    mode: Mode,
    opts: &TenantOpts,
    cfg_seed: u64,
    stream: &[(usize, MemRef)],
) -> ModeStat {
    let k = mix.tenant_count();
    let grants = grants(mix, opts);
    let mut cfg = match mode {
        Mode::Solo(_) => PartitionConfig::new(
            opts.lines,
            opts.ways,
            opts.levels,
            PolicyKind::Lru,
            cfg_seed,
            vec![TenantGrant {
                quota: opts.lines,
                walk_budget: u32::MAX,
            }],
        ),
        _ => PartitionConfig::new(
            opts.lines,
            opts.ways,
            opts.levels,
            PolicyKind::Lru,
            cfg_seed,
            grants,
        ),
    };
    match mode {
        Mode::Partitioned => cfg.adaptive = Some(AdaptiveConfig::default()),
        Mode::Shared => cfg.enforce_quota = false,
        Mode::Solo(_) => {}
    }
    let mut cache = PartitionedCache::new(&cfg);
    let mut instructions = vec![0u64; k];
    for &(t, r) in stream {
        instructions[t] += u64::from(r.gap);
        match mode {
            Mode::Solo(me) => {
                if t == me {
                    cache.access(0, r.line, r.write);
                }
            }
            _ => {
                cache.access(t, r.line, r.write);
            }
        }
    }
    let misses = (0..k)
        .map(|t| match mode {
            Mode::Solo(me) => {
                if t == me {
                    cache.tenant_stats(0).misses
                } else {
                    0
                }
            }
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

/// Jain fairness index of the per-tenant slowdowns `solo/mode` (1.0 =
/// perfectly even interference; ≥ 1/K always).
fn jain(rows: &[TenantRow], mode_mpki: impl Fn(&TenantRow) -> f64) -> f64 {
    const EPS: f64 = 1e-9;
    let xs: Vec<f64> = rows
        .iter()
        .map(|r| (r.solo_mpki + EPS) / (mode_mpki(r) + EPS))
        .collect();
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        0.0
    } else {
        sum * sum / (xs.len() as f64 * sq)
    }
}

/// Checks, without panicking, that every structure the isolation sweep
/// (or, with `check`, the lockstep grid) builds accepts `opts`'
/// geometry: the shared zcache array, and for the sweep the per-tenant
/// walk-budget duels of the partitioned mode.
pub fn check_geometry(opts: &TenantOpts, check: bool) -> Result<(), String> {
    let kind = ArrayKind::ZCache {
        levels: opts.levels,
    };
    kind.check_geometry(opts.lines, opts.ways)
        .map_err(|e| format!("cannot build {kind}: {e}"))?;
    if !check {
        ShadowDuel::<AnyPolicy>::check_geometry(opts.lines, opts.ways)?;
    }
    Ok(())
}

/// Runs the isolation sweep over every standard mix.
///
/// Points are `(mix, mode)` pairs fanned out over the [`SweepRunner`];
/// all modes of a mix replay the same `point_seed`-derived stream, so
/// solo vs shared vs partitioned MPKI deltas are exact (not sampling
/// noise), and output is byte-identical for any `--jobs` value.
pub fn run(opts: &TenantOpts) -> Vec<MixSummary> {
    let mixes = standard_mixes(opts.lines);
    let mut points: Vec<(usize, Mode)> = Vec::new();
    for (m, mix) in mixes.iter().enumerate() {
        points.push((m, Mode::Partitioned));
        points.push((m, Mode::Shared));
        for t in 0..mix.tenant_count() {
            points.push((m, Mode::Solo(t)));
        }
    }

    let stats = SweepRunner::new(opts.jobs).run_with(points.len(), ZipfCache::new, |p, zipf| {
        let (m, mode) = points[p];
        let mix = &mixes[m];
        let cfg_seed = point_seed(opts.seed, 2 * m as u64);
        let stream_seed = point_seed(opts.seed, 2 * m as u64 + 1);
        let mut src = mix.stream(stream_seed, zipf);
        let stream: Vec<(usize, MemRef)> = (0..opts.accesses).map(|_| src.next_tagged()).collect();
        run_mode(mix, mode, opts, cfg_seed, &stream)
    });

    let mut out = Vec::new();
    for (m, mix) in mixes.iter().enumerate() {
        let k = mix.tenant_count();
        let grants = grants(mix, opts);
        let stat = |want: Mode| -> &ModeStat {
            let idx = points.iter().position(|&(pm, md)| pm == m && md == want);
            &stats[idx.expect("every mode of every mix is a point")]
        };
        let part = stat(Mode::Partitioned);
        let shared = stat(Mode::Shared);
        let rows: Vec<TenantRow> = (0..k)
            .map(|t| {
                let solo = stat(Mode::Solo(t));
                TenantRow {
                    tenant: t,
                    instructions: part.instructions[t],
                    solo_mpki: mpki(solo.misses[t], solo.instructions[t]),
                    shared_mpki: mpki(shared.misses[t], shared.instructions[t]),
                    part_mpki: mpki(part.misses[t], part.instructions[t]),
                    occupancy: part.occupancies[t],
                    quota: grants[t].quota,
                }
            })
            .collect();
        let jain_shared = jain(&rows, |r| r.shared_mpki);
        let jain_part = jain(&rows, |r| r.part_mpki);
        out.push(MixSummary {
            mix: mix.name().to_string(),
            rows,
            jain_shared,
            jain_part,
        });
    }
    out
}

/// Renders the sweep: one table per mix plus the Jain fairness lines.
pub fn report(summaries: &[MixSummary], opts: &TenantOpts) -> String {
    let mut out = format!(
        "Multi-tenant isolation: {} frames, Z{}-level walk, {} refs/mix, quotas x{:.2}\n",
        opts.lines, opts.levels, opts.accesses, opts.quota_frac
    );
    out.push_str("(MPKI per tenant: solo = alone in the array, shared = no quotas,\n");
    out.push_str(" part = quota partitioning + adaptive walk budgets; same stream)\n\n");
    for s in summaries {
        out.push_str(&format!("mix {}\n", s.mix));
        let body: Vec<Vec<String>> = s
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("T{}", r.tenant),
                    r.instructions.to_string(),
                    format!("{:.3}", r.solo_mpki),
                    format!("{:.3}", r.shared_mpki),
                    format!("{:.3}", r.part_mpki),
                    format!("{:+.3}", r.part_mpki - r.solo_mpki),
                    format!("{}/{}", r.occupancy, r.quota),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &[
                "tenant",
                "instrs",
                "solo",
                "shared",
                "part",
                "part-solo",
                "occ/quota",
            ],
            &body,
        ));
        out.push_str(&format!(
            "Jain fairness (solo/mode slowdowns): shared {:.3}, partitioned {:.3}\n\n",
            s.jain_shared, s.jain_part
        ));
    }
    out
}

/// Result of one `--check` grid pair.
#[derive(Debug, Clone)]
pub struct PartCheckRow {
    /// The partition configuration that ran.
    pub cfg: PartConfig,
    /// The tenant mix of the pair.
    pub mix: PartMix,
    /// Seed the tenant-tagged stream was generated from.
    pub stream_seed: u64,
    /// Clean-run summary or first divergence.
    pub result: Result<PartSummary, PartDivergence>,
}

/// Runs the partition lockstep grid (every tenant mix × policy pair in
/// zoracle differential lockstep), optionally with the quota-bypass
/// mutation applied to the production side.
///
/// Per-pair seeds derive from [`point_seed`] over the unfiltered grid,
/// mirroring `zbench check`.
pub fn run_check(opts: &TenantOpts, bypass: bool) -> Vec<PartCheckRow> {
    let grid = part_check_grid();
    SweepRunner::new(opts.jobs).run(grid.len(), |i| {
        let (mix, policy) = grid[i];
        let cfg_seed = point_seed(opts.seed, 2 * i as u64);
        let stream_seed = point_seed(opts.seed, 2 * i as u64 + 1);
        let cfg = mix.config(policy, opts.lines, opts.ways, cfg_seed);
        let trace = mix.gen_stream(opts.accesses, cfg.lines, stream_seed);
        PartCheckRow {
            cfg: cfg.clone(),
            mix,
            stream_seed,
            result: run_part_diff_mutated(&cfg, bypass, &trace, opts.digest_every),
        }
    })
}

/// Regenerates a diverging row's stream, ddmin-shrinks it, and writes
/// the `.ptrace` repro to `corpus_dir`. Returns the path and length.
///
/// # Panics
///
/// Panics if the row did not diverge.
pub fn shrink_check_repro(
    row: &PartCheckRow,
    opts: &TenantOpts,
    bypass: bool,
    corpus_dir: &Path,
) -> std::io::Result<(PathBuf, usize)> {
    let divergence = row
        .result
        .as_ref()
        .expect_err("shrink_check_repro needs a diverging row");
    let trace = row
        .mix
        .gen_stream(opts.accesses, row.cfg.lines, row.stream_seed);
    let minimal = shrink_part(&row.cfg, bypass, &trace, opts.digest_every);
    let name = format!(
        "part-{}-{}-{}{:08x}.ptrace",
        row.mix.name(),
        row.cfg.policy,
        if bypass { "bypass-" } else { "" },
        row.cfg.seed as u32
    );
    let path = corpus_dir.join(name);
    write_part_repro(&path, &row.cfg, bypass, &minimal, &divergence.to_string())?;
    Ok((path, minimal.len()))
}

/// Formats the `--check` grid (and, under the mutation, which pairs
/// caught the mutant).
pub fn report_check(rows: &[PartCheckRow], opts: &TenantOpts, bypass: bool) -> String {
    let mut out = if bypass {
        format!(
            "Partition lockstep vs quota-bypass MUTANT: {} pairs x {} accesses\n\
             (a FAIL row means the lockstep caught the mutation — the desired outcome)\n\n",
            rows.len(),
            opts.accesses
        )
    } else {
        format!(
            "Partition lockstep conformance: {} pairs x {} accesses (dut vs zoracle)\n\n",
            rows.len(),
            opts.accesses
        )
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| match &r.result {
            Ok(s) => vec![
                r.cfg.label(),
                "ok".into(),
                s.misses.to_string(),
                s.evictions.to_string(),
                s.cross_evictions.to_string(),
                format!("{:016x}", s.digest),
            ],
            Err(d) => vec![
                r.cfg.label(),
                if bypass { "CAUGHT" } else { "FAIL" }.into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("diverged at #{}", d.index),
            ],
        })
        .collect();
    out.push_str(&format_table(
        &["pair", "status", "misses", "evict", "cross", "digest"],
        &table,
    ));
    let failures = rows.iter().filter(|r| r.result.is_err()).count();
    out.push('\n');
    if bypass {
        out.push_str(&format!(
            "{failures}/{} pairs caught the quota-bypass mutant\n",
            rows.len()
        ));
    } else if failures == 0 {
        out.push_str("all pairs conform\n");
    } else {
        out.push_str(&format!("{failures} pair(s) DIVERGED\n"));
        for r in rows {
            if let Err(d) = &r.result {
                out.push_str(&format!("  {}: {d}\n", r.cfg.label()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TenantOpts {
        TenantOpts {
            accesses: 30_000,
            lines: 256,
            jobs: 2,
            ..TenantOpts::default()
        }
    }

    #[test]
    fn sweep_is_byte_identical_across_jobs() {
        let base = small();
        let reference = report(&run(&TenantOpts { jobs: 1, ..base }), &base);
        for jobs in [2, 8] {
            let rep = report(&run(&TenantOpts { jobs, ..base }), &base);
            assert_eq!(rep, reference, "jobs={jobs} changed the report");
        }
    }

    #[test]
    fn partitioning_isolates_the_hot_tenant() {
        // The ROADMAP scenario: the Zipf-hot tenant 0 of zipf-hot+scans
        // has a working set sized under its quota share. Shared with the
        // scanners its MPKI inflates; partitioned it must stay within 2x
        // of solo (the documented bound) and strictly beat sharing.
        let opts = TenantOpts {
            accesses: 120_000,
            lines: 512,
            jobs: 2,
            ..TenantOpts::default()
        };
        let summaries = run(&opts);
        let hot = &summaries
            .iter()
            .find(|s| s.mix == "zipf-hot+scans")
            .expect("standard mix present")
            .rows[0];
        assert!(hot.solo_mpki > 0.0, "hot tenant never missed solo");
        assert!(
            hot.shared_mpki > hot.solo_mpki,
            "scanners caused no interference (shared {:.3} vs solo {:.3})",
            hot.shared_mpki,
            hot.solo_mpki
        );
        assert!(
            hot.part_mpki < hot.shared_mpki,
            "partitioning did not help (part {:.3} vs shared {:.3})",
            hot.part_mpki,
            hot.shared_mpki
        );
        assert!(
            hot.part_mpki <= 2.0 * hot.solo_mpki,
            "isolation bound violated: part {:.3} vs solo {:.3}",
            hot.part_mpki,
            hot.solo_mpki
        );
    }

    #[test]
    fn partitioning_improves_twin_fairness() {
        let summaries = run(&small());
        let twins = summaries
            .iter()
            .find(|s| s.mix == "zipf-twins")
            .expect("standard mix present");
        // Two symmetric tenants: both modes should be near-fair, and
        // the Jain index is well-defined (in (1/K, 1]).
        assert!(twins.jain_part > 0.5 && twins.jain_part <= 1.0 + 1e-9);
        assert!(twins.jain_shared > 0.5 && twins.jain_shared <= 1.0 + 1e-9);
    }

    #[test]
    fn quotas_bind_in_the_partitioned_mode() {
        let opts = small();
        let summaries = run(&opts);
        for s in &summaries {
            let occupied: u64 = s.rows.iter().map(|r| r.occupancy).sum();
            assert!(occupied <= opts.lines, "{}: occupancy overflow", s.mix);
            for r in &s.rows {
                // Quota enforcement is approximate only when walks are
                // shallow; with full Z3 walks a tenant may exceed its
                // grant by at most a small skid.
                assert!(
                    r.occupancy <= r.quota + opts.lines / 16,
                    "{} T{}: occupancy {} far past quota {}",
                    s.mix,
                    r.tenant,
                    r.occupancy,
                    r.quota
                );
            }
        }
    }

    #[test]
    fn check_grid_is_clean_and_catches_the_mutant() {
        let opts = TenantOpts {
            accesses: 12_000,
            lines: 64,
            jobs: 2,
            digest_every: 256,
            ..TenantOpts::default()
        };
        let clean = run_check(&opts, false);
        assert_eq!(clean.len(), 6);
        for r in &clean {
            assert!(r.result.is_ok(), "{}: {:?}", r.cfg.label(), r.result);
        }
        let rep = report_check(&clean, &opts, false);
        assert!(rep.contains("all pairs conform"), "{rep}");

        let mutated = run_check(&opts, true);
        let caught = mutated.iter().filter(|r| r.result.is_err()).count();
        assert!(
            caught >= 4,
            "quota-bypass mutant escaped most pairs ({caught}/6 caught)"
        );
        // The flagship isolation mix must catch it under every policy.
        for r in mutated.iter().filter(|r| r.mix == PartMix::HotVsScan) {
            assert!(r.result.is_err(), "{} missed the mutant", r.cfg.label());
        }
        let mrep = report_check(&mutated, &opts, true);
        assert!(mrep.contains("CAUGHT"), "{mrep}");
    }

    #[test]
    fn mutation_repro_shrinks_and_replays() {
        let opts = TenantOpts {
            accesses: 8_000,
            lines: 64,
            jobs: 1,
            digest_every: 256,
            ..TenantOpts::default()
        };
        let row = run_check(&opts, true)
            .into_iter()
            .find(|r| r.result.is_err())
            .expect("mutant must be caught");
        let dir = std::env::temp_dir().join("zbench-tenants-repro-test");
        let (path, len) = shrink_check_repro(&row, &opts, true, &dir).unwrap();
        assert!(
            (1..=256).contains(&len),
            "shrunk repro suspiciously large: {len}"
        );
        let repro = zoracle::read_part_repro(&path).unwrap();
        assert!(repro.bypass);
        assert!(
            repro.replay(opts.digest_every).is_err(),
            "shrunk bypass repro no longer reproduces"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
