//! The partition check grid: tenant mixes for the one differential
//! harness.
//!
//! A partitioned check is a [`CheckConfig`] with tenants. Its production
//! side is a [`PartitionedCache`], which keeps per-tenant occupancy as
//! incremental counters, walks under a per-tenant candidate budget via
//! the array's early-stop cap, and picks victims in the plain cache's
//! one selection pass, keying each candidate's score with its owner's
//! over-quota bit. The reference is the same [`OracleCache`]
//! a plain check uses, with the tenants' grants: it re-derives each
//! capped walk, recounts occupancy from the tags, and applies the quota
//! victim rule. [`run_diff`] also compares the per-tenant occupancies
//! after every access, and a config's `quota_bypass` flag strips quota
//! enforcement from the production side so the harness can show it
//! catches enforcement bugs.
//!
//! The grid ([`part_check_grid`]) covers two adversarial tenant mixes (a
//! Zipf-hot tenant vs. scan-heavy neighbors on a 3-level walk, and
//! overcommitted twins on a 2-level walk) under LRU, LFU and OPT.
//!
//! [`PartitionedCache`]: zcache_core::PartitionedCache
//! [`OracleCache`]: crate::OracleCache
//! [`run_diff`]: crate::run_diff

use crate::stream::Access;
use crate::{CheckConfig, CheckDesign, CheckPolicy};
use zcache_core::TenantGrant;
use zhash::SplitMix64;

/// A tenant mix of the partition check grid: who the tenants are, what
/// they are granted, and what their interleaved streams look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartMix {
    /// Three tenants on a 3-level walk: a Zipf-skewed hot tenant with
    /// the majority quota and the full walk, a sequential scanner
    /// throttled to the way-count budget floor, and a random-touch
    /// neighbor in between. The isolation scenario.
    HotVsScan,
    /// Two equally-granted Zipf tenants on a 2-level walk whose
    /// footprints overcommit the array, one with a truncated walk. The
    /// fairness scenario.
    Twins,
}

impl PartMix {
    /// Every mix in the grid.
    pub const ALL: [PartMix; 2] = [PartMix::HotVsScan, PartMix::Twins];

    /// Command-line name of this mix.
    pub fn name(self) -> &'static str {
        match self {
            PartMix::HotVsScan => "hot-vs-scan",
            PartMix::Twins => "twins",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Per-tenant grants scaled to `lines` frames.
    pub fn grants(self, lines: u64) -> Vec<TenantGrant> {
        match self {
            PartMix::HotVsScan => vec![
                TenantGrant {
                    quota: 5 * lines / 8,
                    walk_budget: 52,
                },
                TenantGrant {
                    quota: lines / 4,
                    walk_budget: 4,
                },
                TenantGrant {
                    quota: lines / 8,
                    walk_budget: 16,
                },
            ],
            PartMix::Twins => vec![
                TenantGrant {
                    quota: lines / 2,
                    walk_budget: 16,
                },
                TenantGrant {
                    quota: lines / 2,
                    walk_budget: 8,
                },
            ],
        }
    }

    /// The full check configuration for this mix under `policy`, with
    /// quotas enforced.
    pub fn config(self, policy: CheckPolicy, lines: u64, ways: u32, seed: u64) -> CheckConfig {
        let design = match self {
            PartMix::HotVsScan => CheckDesign::Z3,
            PartMix::Twins => CheckDesign::Z2,
        };
        CheckConfig {
            tenants: self.grants(lines),
            enforce_quota: true,
            ..CheckConfig::new(design, policy, lines, ways, seed)
        }
    }

    /// Generates this mix's deterministic interleaved trace: `n`
    /// tenant-tagged accesses stressing a cache of `lines` frames.
    /// (zoracle deliberately has no zworkloads dependency; the richer
    /// mixer lives there, this one exists to make conformance runs
    /// self-contained.)
    pub fn gen_stream(self, n: usize, lines: u64, seed: u64) -> Vec<Access> {
        let mut rng = SplitMix64::new(seed);
        let mut trace = Vec::with_capacity(n);
        match self {
            PartMix::HotVsScan => {
                let hot_span = (3 * lines / 4).max(8);
                let scan_span = 4 * lines;
                let mut scan_pos = 0u64;
                for _ in 0..n {
                    let r = rng.next_below(4);
                    if r < 2 {
                        // Skew toward low addresses: min of two uniforms.
                        let a = rng.next_below(hot_span).min(rng.next_below(hot_span));
                        trace.push(Access {
                            tenant: 0,
                            addr: 0x10_0000 + a,
                            write: rng.next_below(4) == 0,
                        });
                    } else if r == 2 {
                        scan_pos += 1;
                        trace.push(Access {
                            tenant: 1,
                            addr: 0x20_0000 + scan_pos % scan_span,
                            write: rng.next_below(10) == 0,
                        });
                    } else {
                        trace.push(Access {
                            tenant: 2,
                            addr: 0x30_0000 + rng.next_below(scan_span),
                            write: rng.next_below(10) == 0,
                        });
                    }
                }
            }
            PartMix::Twins => {
                let span = (5 * lines / 4).max(8);
                for _ in 0..n {
                    let tenant = rng.next_below(2) as usize;
                    let a = rng.next_below(span).min(rng.next_below(span));
                    trace.push(Access {
                        tenant,
                        addr: 0x10_0000 + a,
                        write: rng.next_below(4) == 0,
                    });
                }
            }
        }
        trace
    }
}

/// The partition conformance grid: every mix × policy pair.
pub fn part_check_grid() -> Vec<(PartMix, CheckPolicy)> {
    let mut grid = Vec::with_capacity(PartMix::ALL.len() * CheckPolicy::ALL.len());
    for m in PartMix::ALL {
        for p in CheckPolicy::ALL {
            grid.push((m, p));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_pairs() {
        let g = part_check_grid();
        assert_eq!(g.len(), 6);
        for m in PartMix::ALL {
            assert_eq!(PartMix::from_name(m.name()), Some(m));
            for p in CheckPolicy::ALL {
                assert!(g.contains(&(m, p)));
            }
        }
    }

    #[test]
    fn streams_are_deterministic_and_cover_all_tenants() {
        for mix in PartMix::ALL {
            let a = mix.gen_stream(3_000, 64, 7);
            let b = mix.gen_stream(3_000, 64, 7);
            assert_eq!(a, b, "{}: same seed must replay", mix.name());
            let c = mix.gen_stream(3_000, 64, 8);
            assert_ne!(a, c, "{}: different seeds must differ", mix.name());
            let tenants = mix.grants(64).len();
            for t in 0..tenants {
                assert!(
                    a.iter().any(|x| x.tenant == t),
                    "{}: tenant {t} idle",
                    mix.name()
                );
            }
        }
    }
}
