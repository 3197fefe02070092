//! `zbench tenants` — multi-tenant partitioned-zcache isolation sweep.
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
//! The partitioned cache's zoracle lockstep, and the quota-bypass
//! mutant it catches, run in `zbench check` ([`crate::exp_check`]).
//!
//! Each mix is one point of the [`SweepRunner`]. A point builds every
//! mode's cache up front, then draws the mix's stream 2 048 references
//! at a time into one reused 32 KiB buffer and runs every mode over
//! each chunk before drawing the next, so no point holds the whole
//! stream. All randomness derives from [`point_seed`], so output is
//! byte-identical for any `--jobs` value.
//!
//! [`ShadowDuel`]: zcache_core::ShadowDuel

use crate::{format_table, point_seed, SweepRunner};
use zcache_core::{
    AdaptiveConfig, AnyPolicy, ArrayKind, PartitionConfig, PartitionedCache, PolicyKind,
    ShadowDuel, TenantGrant,
};
use zworkloads::multi_tenant::{standard_mixes, TenantMix};
use zworkloads::ZipfCache;

/// Options for the tenants sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOpts {
    /// Interleaved references per mix.
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

/// References drawn from a mix's stream at a time. Every mode's cache
/// runs over one chunk before the next is drawn, so a point holds
/// 2 048 × 16 B = 32 KiB of the stream, whatever `accesses` is.
const CHUNK: usize = 2048;

/// One reference of a mix's interleaved stream in 16 bytes: what a
/// cache access takes of the [`MemRef`](zworkloads::MemRef) and the
/// tenant, a `u8` because a partitioned cache takes at most
/// [`MAX_TENANTS`](zcache_core::partition::MAX_TENANTS) = 64.
#[derive(Debug, Clone, Copy)]
struct TaggedRef {
    line: u64,
    write: bool,
    tenant: u8,
}
const _: () = assert!(std::mem::size_of::<TaggedRef>() == 16);

/// The caches of a mix's three modes, all seeded with `cfg_seed`: the
/// partitioned cache with its per-tenant [`ShadowDuel`]s, the shared
/// cache with quota enforcement off, and one solo cache per tenant, in
/// which that tenant is tenant 0 with the whole array as its quota.
struct ModeCaches {
    part: PartitionedCache,
    shared: PartitionedCache,
    solo: Vec<PartitionedCache>,
}

impl ModeCaches {
    fn new(mix: &TenantMix, opts: &TenantOpts, cfg_seed: u64) -> Self {
        let config = |tenants| {
            PartitionConfig::new(
                opts.lines,
                opts.ways,
                opts.levels,
                PolicyKind::Lru,
                cfg_seed,
                tenants,
            )
        };
        let mut part = config(grants(mix, opts));
        part.adaptive = Some(AdaptiveConfig::default());
        let mut shared = config(grants(mix, opts));
        shared.enforce_quota = false;
        let solo = config(vec![TenantGrant {
            quota: opts.lines,
            walk_budget: u32::MAX,
        }]);
        Self {
            part: PartitionedCache::new(&part),
            shared: PartitionedCache::new(&shared),
            solo: (0..mix.tenant_count())
                .map(|_| PartitionedCache::new(&solo))
                .collect(),
        }
    }

    /// Runs every mode over `chunk`: each cache sees its references in
    /// stream order, as if it ran over the whole stream alone.
    fn access(&mut self, chunk: &[TaggedRef]) {
        for r in chunk {
            self.part.access(usize::from(r.tenant), r.line, r.write);
        }
        for r in chunk {
            self.shared.access(usize::from(r.tenant), r.line, r.write);
        }
        for r in chunk {
            self.solo[usize::from(r.tenant)].access(0, r.line, r.write);
        }
    }
}

/// One sweep point: mix `m`'s stream, drawn [`CHUNK`] references at a
/// time into `chunk`, through every mode's cache.
fn run_mix(
    m: usize,
    mix: &TenantMix,
    opts: &TenantOpts,
    zipf: &mut ZipfCache,
    chunk: &mut Vec<TaggedRef>,
) -> MixSummary {
    let k = mix.tenant_count();
    let mut caches = ModeCaches::new(mix, opts, point_seed(opts.seed, 2 * m as u64));
    let mut src = mix.stream(point_seed(opts.seed, 2 * m as u64 + 1), zipf);
    // A tenant's instructions are a function of the stream alone, the
    // same in every mode.
    let mut instructions = vec![0u64; k];
    let mut left = opts.accesses;
    while left > 0 {
        let n = left.min(CHUNK);
        chunk.clear();
        chunk.extend((0..n).map(|_| {
            let (t, r) = src.next_tagged();
            instructions[t] += u64::from(r.gap);
            TaggedRef {
                line: r.line,
                write: r.write,
                tenant: u8::try_from(t).expect("at most MAX_TENANTS tenants"),
            }
        }));
        caches.access(chunk);
        left -= n;
    }

    let grants = grants(mix, opts);
    let occupancies = caches.part.occupancies();
    let rows: Vec<TenantRow> = (0..k)
        .map(|t| TenantRow {
            tenant: t,
            instructions: instructions[t],
            solo_mpki: mpki(caches.solo[t].tenant_stats(0).misses, instructions[t]),
            shared_mpki: mpki(caches.shared.tenant_stats(t).misses, instructions[t]),
            part_mpki: mpki(caches.part.tenant_stats(t).misses, instructions[t]),
            occupancy: occupancies[t],
            quota: grants[t].quota,
        })
        .collect();
    MixSummary {
        mix: mix.name().to_string(),
        jain_shared: jain(&rows, |r| r.shared_mpki),
        jain_part: jain(&rows, |r| r.part_mpki),
        rows,
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

/// Checks, without panicking, that every structure the sweep builds
/// accepts `opts`' geometry: the shared zcache array and the per-tenant
/// walk-budget duels of the partitioned mode.
pub fn check_geometry(opts: &TenantOpts) -> Result<(), String> {
    let kind = ArrayKind::ZCache {
        levels: opts.levels,
    };
    kind.check_geometry(opts.lines, opts.ways)
        .map_err(|e| format!("cannot build {kind}: {e}"))?;
    ShadowDuel::<AnyPolicy>::check_geometry(opts.lines, opts.ways)
}

/// Runs the isolation sweep over every standard mix.
///
/// Each mix is one point of the [`SweepRunner`], so `--jobs` spreads
/// the mixes, not their modes, over workers. A point generates its
/// mix's `point_seed`-derived stream once and runs every mode over it
/// chunk by chunk, so solo vs shared vs partitioned MPKI deltas are
/// exact (not sampling noise), a worker holds one 2 048-reference
/// chunk of the stream whatever `accesses` is, and output is
/// byte-identical for any `--jobs` value.
pub fn run(opts: &TenantOpts) -> Vec<MixSummary> {
    let mixes = standard_mixes(opts.lines);
    let scratch = || (ZipfCache::new(), Vec::with_capacity(CHUNK));
    SweepRunner::new(opts.jobs).run_with(mixes.len(), scratch, |m, (zipf, chunk)| {
        run_mix(m, &mixes[m], opts, zipf, chunk)
    })
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

    /// The sweep as one point per (mix, mode): the mix's whole stream
    /// stored, then each mode's cache built and driven over it alone.
    fn reference(opts: &TenantOpts) -> Vec<MixSummary> {
        let mut zipf = ZipfCache::new();
        let mixes = standard_mixes(opts.lines);
        let mut out = Vec::new();
        for (m, mix) in mixes.iter().enumerate() {
            let k = mix.tenant_count();
            let mut src = mix.stream(point_seed(opts.seed, 2 * m as u64 + 1), &mut zipf);
            let stream: Vec<_> = (0..opts.accesses).map(|_| src.next_tagged()).collect();
            let mut instructions = vec![0u64; k];
            for (t, r) in &stream {
                instructions[*t] += u64::from(r.gap);
            }
            let config = |tenants| {
                PartitionConfig::new(
                    opts.lines,
                    opts.ways,
                    opts.levels,
                    PolicyKind::Lru,
                    point_seed(opts.seed, 2 * m as u64),
                    tenants,
                )
            };
            let mut part_cfg = config(grants(mix, opts));
            part_cfg.adaptive = Some(AdaptiveConfig::default());
            let mut part = PartitionedCache::new(&part_cfg);
            for (t, r) in &stream {
                part.access(*t, r.line, r.write);
            }
            let mut shared_cfg = config(grants(mix, opts));
            shared_cfg.enforce_quota = false;
            let mut shared = PartitionedCache::new(&shared_cfg);
            for (t, r) in &stream {
                shared.access(*t, r.line, r.write);
            }
            let solo_misses: Vec<u64> = (0..k)
                .map(|me| {
                    let mut solo = PartitionedCache::new(&config(vec![TenantGrant {
                        quota: opts.lines,
                        walk_budget: u32::MAX,
                    }]));
                    for (_, r) in stream.iter().filter(|(t, _)| *t == me) {
                        solo.access(0, r.line, r.write);
                    }
                    solo.tenant_stats(0).misses
                })
                .collect();
            let rows: Vec<TenantRow> = (0..k)
                .map(|t| TenantRow {
                    tenant: t,
                    instructions: instructions[t],
                    solo_mpki: mpki(solo_misses[t], instructions[t]),
                    shared_mpki: mpki(shared.tenant_stats(t).misses, instructions[t]),
                    part_mpki: mpki(part.tenant_stats(t).misses, instructions[t]),
                    occupancy: part.occupancies()[t],
                    quota: grants(mix, opts)[t].quota,
                })
                .collect();
            out.push(MixSummary {
                mix: mix.name().to_string(),
                jain_shared: jain(&rows, |r| r.shared_mpki),
                jain_part: jain(&rows, |r| r.part_mpki),
                rows,
            });
        }
        out
    }

    #[test]
    fn streamed_modes_match_modes_run_alone() {
        // One reference, a chunk less one, a chunk, a chunk and one, and
        // two chunks and seven: the last chunk is partial, full or the
        // only one.
        for accesses in [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7] {
            let opts = TenantOpts {
                accesses,
                lines: 256,
                jobs: 2,
                ..TenantOpts::default()
            };
            assert_eq!(run(&opts), reference(&opts), "{accesses} accesses");
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
}
