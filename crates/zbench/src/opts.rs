//! Shared experiment options and the standard design lineup.

use zcache_core::PolicyKind;
use zsim::{L2Design, SimConfig};
use zworkloads::suite::Scale;

/// Options shared by the simulation-backed experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpOpts {
    /// Cache scale (footprints and simulated capacities follow it).
    pub scale: Scale,
    /// Simulated cores.
    pub cores: u32,
    /// Instructions per core per run.
    pub instrs_per_core: u64,
    /// Restrict to the first `n` workloads (None = all 72).
    pub max_workloads: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for sweep experiments (`--jobs`); results are
    /// byte-identical for any value (see [`crate::SweepRunner`]).
    pub jobs: usize,
}

/// Default `--jobs` value: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ExpOpts {
    /// Default options: small scale, 32 cores, 100k instructions/core.
    pub fn quick() -> Self {
        Self {
            scale: Scale::SMALL,
            cores: 32,
            instrs_per_core: 100_000,
            max_workloads: None,
            seed: 1,
            jobs: default_jobs(),
        }
    }

    /// A very small smoke-test configuration for CI/integration tests.
    pub fn smoke() -> Self {
        Self {
            scale: Scale::SMALL,
            cores: 8,
            instrs_per_core: 20_000,
            max_workloads: Some(8),
            seed: 1,
            jobs: default_jobs(),
        }
    }

    /// The simulator configuration for these options (baseline L2).
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.cores = self.cores;
        cfg.l1_lines = self.scale.l1_lines;
        cfg.l2_lines = self.scale.l2_lines;
        cfg.instrs_per_core = self.instrs_per_core;
        cfg.seed = self.seed;
        cfg
    }
}

impl Default for ExpOpts {
    fn default() -> Self {
        Self::quick()
    }
}

/// The design lineup Fig. 4 and Fig. 5 compare: the SA-4 + H3 baseline,
/// wider set-associative caches, and zcaches of growing walk depth
/// (Z4/4 = skew-associative, Z4/16, Z4/52).
pub fn fig_designs() -> Vec<(String, L2Design)> {
    vec![
        ("SA-4".into(), L2Design::setassoc(4)),
        ("SA-16".into(), L2Design::setassoc(16)),
        ("SA-32".into(), L2Design::setassoc(32)),
        ("Z4/4".into(), L2Design::zcache(4, 1)),
        ("Z4/16".into(), L2Design::zcache(4, 2)),
        ("Z4/52".into(), L2Design::zcache(4, 3)),
    ]
}

/// Applies a policy to every design in the lineup.
pub fn with_policy(designs: &[(String, L2Design)], policy: PolicyKind) -> Vec<(String, L2Design)> {
    designs
        .iter()
        .map(|(n, d)| (n.clone(), d.with_policy(policy)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_paper() {
        let d = fig_designs();
        assert_eq!(d.len(), 6);
        assert_eq!(d[0].1.label(), "SA-4");
        assert_eq!(d[3].1.label(), "Z4/4");
        assert_eq!(d[5].1.label(), "Z4/52");
    }

    #[test]
    fn sim_config_follows_opts() {
        let o = ExpOpts {
            cores: 8,
            instrs_per_core: 1234,
            ..ExpOpts::quick()
        };
        let cfg = o.sim_config();
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.instrs_per_core, 1234);
        assert_eq!(cfg.l2_lines, Scale::SMALL.l2_lines);
    }

    #[test]
    fn policy_mapping() {
        let opt = with_policy(&fig_designs(), PolicyKind::Opt);
        assert!(opt.iter().all(|(_, x)| x.policy == PolicyKind::Opt));
    }
}
