//! Shared experiment options and the standard design lineup.

use std::ops::Range;
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
    /// Restrict the suite sweeps to the first `n` workloads (None = all
    /// 72); see [`kept`](Self::kept).
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

    /// The suite indices `--workloads` keeps of a `len`-workload suite:
    /// a prefix, so every kept point has the index, and thus the seed, it
    /// has in the unfiltered sweep.
    pub fn kept(&self, len: usize) -> Range<usize> {
        0..self.max_workloads.map_or(len, |n| n.min(len))
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

/// The design lineup Fig. 4 and Fig. 5 compare, labelled by
/// [`L2Design::label`]: the SA-4 + H3 baseline, wider set-associative
/// caches, and zcaches of growing walk depth (Z4/4 = skew-associative,
/// Z4/16, Z4/52).
pub fn fig_designs() -> Vec<(String, L2Design)> {
    [
        L2Design::setassoc(4),
        L2Design::setassoc(16),
        L2Design::setassoc(32),
        L2Design::zcache(4, 1),
        L2Design::zcache(4, 2),
        L2Design::zcache(4, 3),
    ]
    .into_iter()
    .map(|d| (d.label(), d))
    .collect()
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
        // The labels fig4, fig5, conflicts and predict print.
        let labels: Vec<String> = fig_designs().iter().map(|(_, d)| d.label()).collect();
        assert_eq!(labels, ["SA-4", "SA-16", "SA-32", "Z4/4", "Z4/16", "Z4/52"]);
    }

    #[test]
    fn nominal_r_matches_the_values_once_written_by_hand() {
        // The R of every design the Fig. 3 and predict lineups held as
        // hand-written tuples, now read from `ArrayKind::candidates`.
        let r = |designs: Vec<(String, L2Design)>| {
            (designs.iter())
                .map(|(label, d)| format!("{label}={}", d.array.candidates(d.ways)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(
            r(crate::exp_predict::predict_designs()),
            "SA-4=4 SA-16=16 SA-32=32 Z4/4=4 Z4/16=16 Z4/52=52 fully=4294967295"
        );
        let fig3 = crate::exp_fig3::Fig3Panel::all().map(|p| p.designs());
        assert_eq!(
            r(fig3.concat()),
            "SA-4=4 SA-16=16 SA-4-h3=4 SA-16-h3=16 skew-4=4 skew-16=16 Z4/16=16 Z4/52=52"
        );
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
        assert_eq!(o.kept(72), 0..72);
        let some = |n| ExpOpts {
            max_workloads: Some(n),
            ..o
        };
        assert_eq!(some(3).kept(72), 0..3);
        assert_eq!(some(100).kept(72), 0..72);
    }

    #[test]
    fn policy_mapping() {
        let opt = with_policy(&fig_designs(), PolicyKind::Opt);
        assert!(opt.iter().all(|(_, x)| x.policy == PolicyKind::Opt));
    }
}
