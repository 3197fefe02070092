//! The differential runner: production cache vs. reference twin,
//! lockstep, field-for-field.

use crate::oracle::OracleCache;
use crate::stream::{next_uses, Access};
use crate::CheckConfig;
use zcache_core::{ArrayKind, CacheBuilder, DynCache, PartitionConfig, PartitionedCache};

/// Install outcome `(evicted, evicted_slot, filled, moves)` as observed
/// on one side of the differential run.
pub type InstallOutcome = (Option<u64>, Option<u32>, u32, Vec<(u32, u32)>);

/// What diverged between the production cache and the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// One side hit where the other missed.
    HitMiss {
        /// Production outcome.
        dut: bool,
        /// Reference outcome.
        oracle: bool,
    },
    /// The replacement-candidate lists differ (slots or resident blocks,
    /// compared in discovery order).
    Candidates {
        /// Production `(slot, resident)` list.
        dut: Vec<(u32, Option<u64>)>,
        /// Reference `(slot, resident)` list.
        oracle: Vec<(u32, Option<u64>)>,
    },
    /// The install outcomes differ (victim, relocations, or fill) —
    /// where a victim-rule bug, quota enforcement included, surfaces.
    Install {
        /// Production `(evicted, evicted_slot, filled, moves)`.
        dut: InstallOutcome,
        /// Reference `(evicted, evicted_slot, filled, moves)`.
        oracle: InstallOutcome,
    },
    /// The write-back flags of an eviction differ.
    EvictedDirty {
        /// Production flag.
        dut: bool,
        /// Reference flag.
        oracle: bool,
    },
    /// The production incremental occupancy counters disagree with the
    /// exhaustive recount (partitioned checks only).
    Occupancy {
        /// Production per-tenant counters.
        dut: Vec<u64>,
        /// Reference exhaustive recount.
        oracle: Vec<u64>,
    },
    /// The tag/dirty state digests differ.
    Digest {
        /// Production digest.
        dut: u64,
        /// Reference digest.
        oracle: u64,
    },
}

/// A divergence at a specific access of the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index into the trace of the offending access.
    pub index: usize,
    /// The access itself.
    pub access: Access,
    /// Whether the trace is tenant-tagged (the access prints with its
    /// `T<n>` prefix).
    pub tagged: bool,
    /// What differed.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "access #{} ({}): ",
            self.index,
            self.access.line(self.tagged)
        )?;
        match &self.kind {
            DivergenceKind::HitMiss { dut, oracle } => {
                write!(f, "hit/miss mismatch (dut hit={dut}, oracle hit={oracle})")
            }
            DivergenceKind::Candidates { dut, oracle } => write!(
                f,
                "candidate lists differ (dut {} cands {:?}, oracle {} cands {:?})",
                dut.len(),
                dut,
                oracle.len(),
                oracle
            ),
            DivergenceKind::Install { dut, oracle } => {
                write!(f, "install differs (dut {dut:?}, oracle {oracle:?})")
            }
            DivergenceKind::EvictedDirty { dut, oracle } => write!(
                f,
                "write-back flag differs (dut dirty={dut}, oracle dirty={oracle})"
            ),
            DivergenceKind::Occupancy { dut, oracle } => write!(
                f,
                "occupancy counters differ (dut incremental {dut:?}, oracle recount {oracle:?})"
            ),
            DivergenceKind::Digest { dut, oracle } => write!(
                f,
                "state digests differ (dut {dut:#018x}, oracle {oracle:#018x})"
            ),
        }
    }
}

/// Statistics of a clean differential run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffSummary {
    /// Accesses compared.
    pub accesses: u64,
    /// Misses (agreed on by both sides).
    pub misses: u64,
    /// Evictions (agreed on by both sides).
    pub evictions: u64,
    /// Evictions where the victim belonged to another tenant (always 0
    /// in a plain check).
    pub cross_evictions: u64,
    /// Relocations performed by the production side.
    pub relocations: u64,
    /// Final state digest (identical on both sides).
    pub digest: u64,
}

/// The production cache under test.
enum Dut {
    /// A plain cache (checks without tenants).
    Plain(DynCache),
    /// A partitioned cache (checks with tenants).
    Partitioned(PartitionedCache),
}

impl Dut {
    /// Builds the production side of `cfg`, with the quota-bypass
    /// mutation applied if the config asks for it.
    fn new(cfg: &CheckConfig) -> Self {
        if !cfg.has_tenants() {
            assert!(
                !cfg.enforce_quota && !cfg.quota_bypass,
                "quota enforcement and the quota-bypass mutation need tenants ({})",
                cfg.label()
            );
            return Dut::Plain(
                CacheBuilder::new()
                    .lines(cfg.lines)
                    .ways(cfg.ways)
                    .array(cfg.design.array_kind())
                    .policy(cfg.policy.policy_kind())
                    .seed(cfg.seed)
                    .build(),
            );
        }
        let ArrayKind::ZCache { levels } = cfg.design.array_kind() else {
            panic!(
                "a partitioned check needs a zcache design, got {}",
                cfg.design
            );
        };
        let mut pc = PartitionConfig::new(
            cfg.lines,
            cfg.ways,
            levels,
            cfg.policy.policy_kind(),
            cfg.seed,
            cfg.tenants.clone(),
        );
        pc.enforce_quota = cfg.enforce_quota && !cfg.quota_bypass;
        Dut::Partitioned(PartitionedCache::new(&pc))
    }

    /// Performs one access; returns `(hit, evicted_dirty)`.
    fn access(&mut self, acc: Access, next_use: u64) -> (bool, bool) {
        match self {
            Dut::Plain(c) => {
                let out = c.access_full(acc.addr, acc.write, next_use);
                (out.hit, out.evicted_dirty)
            }
            Dut::Partitioned(p) => {
                let out = p.access_full(acc.tenant, acc.addr, acc.write, next_use);
                (out.hit, out.evicted_dirty)
            }
        }
    }

    /// The (shared) array cache.
    fn cache(&self) -> &DynCache {
        match self {
            Dut::Plain(c) => c,
            Dut::Partitioned(p) => p.cache(),
        }
    }

    /// Incremental per-tenant occupancy counters (partitioned only).
    fn occupancies(&self) -> Option<Vec<u64>> {
        match self {
            Dut::Plain(_) => None,
            Dut::Partitioned(p) => Some(p.occupancies()),
        }
    }

    /// Evictions of a block by another tenant's miss.
    fn cross_evictions(&self) -> u64 {
        match self {
            Dut::Plain(_) => 0,
            Dut::Partitioned(p) => (0..p.tenant_count())
                .map(|t| p.tenant_stats(t).cross_evictions)
                .sum(),
        }
    }
}

/// Drives the production cache and its reference twin over `trace`,
/// comparing every observable of every access — plus, for a partitioned
/// check, the per-tenant occupancies after every access — and a full
/// state digest every `digest_every` accesses and once at the end.
///
/// Returns the run statistics, or the first [`Divergence`].
///
/// # Panics
///
/// Panics if `digest_every == 0`, if a plain check asks for quota
/// enforcement or the quota-bypass mutation, if a partitioned check names
/// a non-zcache design, or if an access names a tenant without a grant.
// A Divergence carries the full candidate/install detail needed for the
// repro note; it is produced at most once per run, so the large Err
// variant never sits on a hot path.
#[allow(clippy::result_large_err)]
pub fn run_diff(
    cfg: &CheckConfig,
    trace: &[Access],
    digest_every: u64,
) -> Result<DiffSummary, Divergence> {
    assert!(digest_every > 0, "digest_every must be positive");
    let next = next_uses(trace);
    let mut dut = Dut::new(cfg);
    let mut oracle = OracleCache::new(cfg);
    let tagged = cfg.has_tenants();
    let mut evictions = 0u64;

    for (i, &acc) in trace.iter().enumerate() {
        let (hit, evicted_dirty) = dut.access(acc, next[i]);
        let ref_out = oracle.access(acc, next[i]);

        let diverge = |kind| {
            Err(Divergence {
                index: i,
                access: acc,
                tagged,
                kind,
            })
        };

        if hit != ref_out.hit {
            return diverge(DivergenceKind::HitMiss {
                dut: hit,
                oracle: ref_out.hit,
            });
        }

        if !hit {
            let dut_cands: Vec<(u32, Option<u64>)> = dut
                .cache()
                .last_candidates()
                .as_slice()
                .iter()
                .map(|c| (c.slot.0, c.addr))
                .collect();
            if dut_cands != ref_out.cands {
                return diverge(DivergenceKind::Candidates {
                    dut: dut_cands,
                    oracle: ref_out.cands,
                });
            }

            let install = dut.cache().last_install();
            let dut_install = (
                install.evicted,
                install.evicted_slot.map(|s| s.0),
                install.filled_slot.0,
                install
                    .moves
                    .iter()
                    .map(|&(a, b)| (a.0, b.0))
                    .collect::<Vec<_>>(),
            );
            let ref_install = (
                ref_out.evicted,
                ref_out.evicted_slot,
                ref_out.filled_slot.expect("miss always fills"),
                ref_out.moves.clone(),
            );
            if dut_install != ref_install {
                return diverge(DivergenceKind::Install {
                    dut: dut_install,
                    oracle: ref_install,
                });
            }

            if evicted_dirty != ref_out.evicted_dirty {
                return diverge(DivergenceKind::EvictedDirty {
                    dut: evicted_dirty,
                    oracle: ref_out.evicted_dirty,
                });
            }
            if ref_out.evicted.is_some() {
                evictions += 1;
            }
        }

        if let Some(docc) = dut.occupancies() {
            let oocc = oracle.occupancies();
            if docc != oocc {
                return diverge(DivergenceKind::Occupancy {
                    dut: docc,
                    oracle: oocc,
                });
            }
        }

        if (i as u64 + 1).is_multiple_of(digest_every) {
            let (d, o) = (dut.cache().state_digest(), oracle.state_digest());
            if d != o {
                return diverge(DivergenceKind::Digest { dut: d, oracle: o });
            }
        }
    }

    let (d, o) = (dut.cache().state_digest(), oracle.state_digest());
    if d != o {
        return Err(Divergence {
            index: trace.len().saturating_sub(1),
            access: trace.last().copied().unwrap_or(Access {
                tenant: 0,
                addr: 0,
                write: false,
            }),
            tagged,
            kind: DivergenceKind::Digest { dut: d, oracle: o },
        });
    }

    let stats = dut.cache().stats();
    Ok(DiffSummary {
        accesses: stats.accesses,
        misses: stats.misses,
        evictions,
        cross_evictions: dut.cross_evictions(),
        relocations: stats.relocations,
        digest: d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::gen_stream;
    use crate::{check_grid, part_check_grid, CheckDesign, CheckPolicy, PartMix};
    use zcache_core::TenantGrant;

    #[test]
    fn short_sweep_is_clean_on_every_pair() {
        let plain = check_grid().into_iter().map(|(design, policy)| {
            let cfg = CheckConfig::new(design, policy, 64, 4, 5);
            (gen_stream(3_000, 64, 17), cfg)
        });
        let partitioned = part_check_grid()
            .into_iter()
            .map(|(mix, policy)| (mix.gen_stream(4_000, 64, 17), mix.config(policy, 64, 4, 5)));
        for (trace, cfg) in plain.chain(partitioned) {
            let summary =
                run_diff(&cfg, &trace, 128).unwrap_or_else(|d| panic!("{}: {d}", cfg.label()));
            assert_eq!(summary.accesses, trace.len() as u64);
            assert!(summary.misses > 0, "{}: no misses exercised", cfg.label());
            if cfg.has_tenants() {
                assert!(summary.evictions > 0, "{}: no evictions", cfg.label());
            }
        }
    }

    #[test]
    fn zcache_sweep_exercises_relocations() {
        let cfg = CheckConfig::new(CheckDesign::Z3, CheckPolicy::Lru, 64, 4, 5);
        let trace = gen_stream(5_000, 64, 23);
        let summary = run_diff(&cfg, &trace, 64).expect("clean");
        assert!(
            summary.relocations > 0,
            "deep walks must relocate: {summary:?}"
        );
    }

    #[test]
    fn plain_check_is_the_one_tenant_case() {
        // A partitioned cache with one tenant that may fill the array and
        // walk without a cap ends in the state a plain cache does.
        for design in [CheckDesign::Z2, CheckDesign::Z3] {
            let plain = CheckConfig::new(design, CheckPolicy::Lru, 64, 4, 5);
            let mut one = plain.clone();
            one.tenants = vec![TenantGrant {
                quota: 64,
                walk_budget: u32::MAX,
            }];
            one.enforce_quota = true;
            let trace = gen_stream(4_000, 64, 29);
            let a = run_diff(&plain, &trace, 128).expect("plain is clean");
            let b = run_diff(&one, &trace, 128).expect("one tenant is clean");
            assert_eq!(a, b, "{design}");
        }
    }

    #[test]
    fn lockstep_is_clean_with_enforcement_off() {
        // The shared baseline (quota enforcement disabled on *both*
        // sides) must also agree — the reference models plain sharing.
        let mut cfg = PartMix::HotVsScan.config(CheckPolicy::Lru, 64, 4, 5);
        cfg.enforce_quota = false;
        let trace = PartMix::HotVsScan.gen_stream(6_000, 64, 19);
        let summary = run_diff(&cfg, &trace, 128).unwrap_or_else(|d| panic!("{d}"));
        assert!(summary.cross_evictions > 0, "sharing must cross-evict");
    }

    #[test]
    #[should_panic(expected = "need tenants")]
    fn quota_bypass_without_tenants_is_refused() {
        // With no tenants there is no quota to bypass: running would
        // report a clean check that tested nothing.
        let mut cfg = CheckConfig::new(CheckDesign::Z3, CheckPolicy::Lru, 64, 4, 5);
        cfg.quota_bypass = true;
        let _ = run_diff(&cfg, &gen_stream(10, 64, 1), 128);
    }

    #[test]
    fn quota_bypass_mutation_is_caught_within_bounds() {
        let mut cfg = PartMix::HotVsScan.config(CheckPolicy::Lru, 64, 4, 9);
        cfg.quota_bypass = true;
        let trace = PartMix::HotVsScan.gen_stream(20_000, 64, 23);
        let d = run_diff(&cfg, &trace, 128)
            .expect_err("quota bypass must diverge from the enforcing oracle");
        assert!(
            d.index < 5_000,
            "bypass took {} accesses to surface (bound: 5000)",
            d.index
        );
        assert!(
            matches!(
                d.kind,
                DivergenceKind::Install { .. } | DivergenceKind::Occupancy { .. }
            ),
            "bypass should surface as a victim/occupancy divergence, got {d}"
        );
        assert!(d.to_string().contains(&format!("(T{} ", d.access.tenant)));
    }
}
