//! `zbench check` — the differential conformance sweep.
//!
//! Runs every pair of zoracle's two grids over a deterministic access
//! stream, comparing the production cache against its brute-force
//! reference twin access by access (see [`zoracle::diff`]): the
//! (design × policy) pairs of [`check_grid`] on the plain conformance
//! stream, then the (tenant mix × policy) pairs of [`part_check_grid`],
//! a partitioned cache on its mix's tenant-tagged stream. Pairs fan out
//! over the [`SweepRunner`] worker pool; each pair's seeds derive from
//! [`point_seed`] over its index in its own *unfiltered* grid, so
//! `--design`/`--policy` filters reproduce exactly the same runs a full
//! sweep would perform.
//!
//! On divergence, [`shrink_repro`] delta-debugs the offending stream to
//! a minimal trace and serializes it under `tests/corpus/`, where the
//! `oracle_conformance` regression test replays it on every run.
//!
//! `--mutate quota-bypass` inverts the roles: only the partitioned
//! pairs run, with quota enforcement stripped from their production
//! side, and each must diverge. One caught pair is shrunk into the
//! corpus, where the replay test checks that it keeps diverging.

use crate::{format_table, point_seed, SweepRunner};
use std::path::{Path, PathBuf};
use zoracle::{
    check_grid, corpus, gen_stream, part_check_grid, run_diff, shrink, Access, CheckConfig,
    CheckDesign, CheckPolicy, DiffSummary, Divergence, PartMix,
};

/// Options for the conformance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOpts {
    /// Accesses per pair.
    pub accesses: usize,
    /// Cache frames (small enough that walks hit full depth quickly).
    pub lines: u64,
    /// Ways for the set-indexed designs.
    pub ways: u32,
    /// Base seed; per-pair seeds derive from it via [`point_seed`].
    pub seed: u64,
    /// Sweep worker threads.
    pub jobs: usize,
    /// Restrict to one design (None = all six).
    pub design: Option<CheckDesign>,
    /// Restrict to one policy (None = all three).
    pub policy: Option<CheckPolicy>,
    /// Compare full state digests every this many accesses.
    pub digest_every: u64,
    /// Strip quota enforcement from the production side
    /// (`--mutate quota-bypass`); only the partitioned pairs run.
    pub quota_bypass: bool,
}

impl Default for CheckOpts {
    fn default() -> Self {
        Self {
            accesses: 100_000,
            lines: 64,
            ways: 4,
            seed: 1,
            jobs: crate::opts::default_jobs(),
            design: None,
            policy: None,
            digest_every: 1024,
            quota_bypass: false,
        }
    }
}

/// Result of one pair of the sweep.
#[derive(Debug, Clone)]
pub struct CheckRow {
    /// The configuration that ran.
    pub cfg: CheckConfig,
    /// The tenant mix of a partitioned pair (`None`: a plain pair on
    /// [`gen_stream`]).
    pub mix: Option<PartMix>,
    /// Seed the access stream was generated from.
    pub stream_seed: u64,
    /// Clean-run summary or first divergence.
    pub result: Result<DiffSummary, Divergence>,
}

/// A pair's access stream: the mix's tenant-tagged stream, or the plain
/// conformance stream.
fn stream(mix: Option<PartMix>, accesses: usize, lines: u64, seed: u64) -> Vec<Access> {
    match mix {
        Some(mix) => mix.gen_stream(accesses, lines, seed),
        None => gen_stream(accesses, lines, seed),
    }
}

/// Runs the conformance sweep: the plain pairs, then the partitioned
/// ones, each grid in its own order, keeping the pairs `opts` selects.
pub fn run(opts: &CheckOpts) -> Vec<CheckRow> {
    // Index each grid before filtering so a filtered run reproduces the
    // exact same (seed, stream) a full sweep would use for that pair.
    let seeds = |i: usize| {
        let i = 2 * i as u64;
        (point_seed(opts.seed, i), point_seed(opts.seed, i + 1))
    };
    let plain = check_grid().into_iter().enumerate().map(|(i, (d, p))| {
        let (cfg_seed, stream_seed) = seeds(i);
        let cfg = CheckConfig::new(d, p, opts.lines, opts.ways, cfg_seed);
        (cfg, None, stream_seed)
    });
    let partitioned = part_check_grid()
        .into_iter()
        .enumerate()
        .map(|(i, (mix, p))| {
            let (cfg_seed, stream_seed) = seeds(i);
            let mut cfg = mix.config(p, opts.lines, opts.ways, cfg_seed);
            cfg.quota_bypass = opts.quota_bypass;
            (cfg, Some(mix), stream_seed)
        });
    // Only a pair with tenants has quotas to bypass.
    let pairs: Vec<_> = plain
        .filter(|_| !opts.quota_bypass)
        .chain(partitioned)
        .filter(|(cfg, ..)| {
            opts.design.is_none_or(|want| cfg.design == want)
                && opts.policy.is_none_or(|want| cfg.policy == want)
        })
        .collect();

    SweepRunner::new(opts.jobs).run(pairs.len(), |k| {
        let (cfg, mix, stream_seed) = pairs[k].clone();
        let trace = stream(mix, opts.accesses, cfg.lines, stream_seed);
        let result = run_diff(&cfg, &trace, opts.digest_every);
        CheckRow {
            cfg,
            mix,
            stream_seed,
            result,
        }
    })
}

/// Regenerates a diverging row's stream, shrinks it to a minimal repro,
/// and writes it to `corpus_dir`: `<design>-<policy>-<seed>.trace` for a
/// plain pair, `part-<mix>-<policy>-[bypass-]<seed>.ptrace` for a
/// partitioned one. Returns the repro path and length.
///
/// # Panics
///
/// Panics if the row did not diverge.
pub fn shrink_repro(
    row: &CheckRow,
    accesses: usize,
    digest_every: u64,
    corpus_dir: &Path,
) -> std::io::Result<(PathBuf, usize)> {
    let divergence = row
        .result
        .as_ref()
        .expect_err("shrink_repro needs a diverging row");
    let trace = stream(row.mix, accesses, row.cfg.lines, row.stream_seed);
    let minimal = shrink(&row.cfg, &trace, digest_every);
    let (cfg, seed) = (&row.cfg, row.cfg.seed as u32);
    let name = match row.mix {
        None => format!("{}-{}-{seed:08x}.trace", cfg.design, cfg.policy),
        Some(mix) => format!(
            "part-{}-{}-{}{seed:08x}.ptrace",
            mix.name(),
            cfg.policy,
            if cfg.quota_bypass { "bypass-" } else { "" },
        ),
    };
    let path = corpus_dir.join(name);
    corpus::write_repro(&path, cfg, &minimal, &divergence.to_string())?;
    Ok((path, minimal.len()))
}

/// Formats the sweep as one table, one row per pair. Under the mutant a
/// diverging row reads CAUGHT, the desired outcome.
pub fn report(rows: &[CheckRow], opts: &CheckOpts) -> String {
    let (n, accesses) = (rows.len(), opts.accesses);
    let mut out = if opts.quota_bypass {
        format!(
            "Differential conformance vs the quota-bypass MUTANT: {n} pairs x {accesses} accesses\n\
             (a CAUGHT row means the lockstep caught the mutation, the desired outcome)\n\n"
        )
    } else {
        format!(
            "Differential conformance: {n} pairs x {accesses} accesses (dut vs zoracle reference)\n\n"
        )
    };
    let diverged = if opts.quota_bypass { "CAUGHT" } else { "FAIL" };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| match &r.result {
            Ok(s) => vec![
                r.cfg.label(),
                "ok".into(),
                s.misses.to_string(),
                s.evictions.to_string(),
                s.relocations.to_string(),
                s.cross_evictions.to_string(),
                format!("{:016x}", s.digest),
            ],
            Err(d) => vec![
                r.cfg.label(),
                diverged.into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("diverged at #{}", d.index),
            ],
        })
        .collect();
    out.push_str(&format_table(
        &[
            "pair", "status", "misses", "evict", "reloc", "cross", "digest",
        ],
        &table,
    ));
    let failures = rows.iter().filter(|r| r.result.is_err()).count();
    out.push('\n');
    if opts.quota_bypass {
        out.push_str(&format!(
            "{failures}/{n} pairs caught the quota-bypass mutant\n"
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

    #[test]
    fn smoke_sweep_is_clean_and_deterministic() {
        let opts = CheckOpts {
            accesses: 2_000,
            jobs: 2,
            ..CheckOpts::default()
        };
        let rows = run(&opts);
        assert_eq!(rows.len(), 24);
        for r in &rows {
            assert!(r.result.is_ok(), "{}: {:?}", r.cfg.label(), r.result);
        }
        let again = run(&CheckOpts { jobs: 1, ..opts });
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.cfg, b.cfg);
            assert_eq!(
                a.result.as_ref().unwrap(),
                b.result.as_ref().unwrap(),
                "jobs must not change results"
            );
        }
    }

    #[test]
    fn filtered_run_reproduces_full_sweep_point() {
        let opts = CheckOpts {
            accesses: 1_500,
            ..CheckOpts::default()
        };
        let full = run(&opts);
        let only_z3 = run(&CheckOpts {
            design: Some(CheckDesign::Z3),
            ..opts
        });
        // Three plain pairs and the three hot-vs-scan pairs.
        assert_eq!(only_z3.len(), 6);
        for row in &only_z3 {
            let twin = full
                .iter()
                .find(|r| r.cfg.label() == row.cfg.label())
                .unwrap();
            assert_eq!(row.cfg.seed, twin.cfg.seed, "filter changed point seed");
            assert_eq!(
                row.result.as_ref().unwrap().digest,
                twin.result.as_ref().unwrap().digest
            );
        }
    }

    #[test]
    fn report_mentions_conformance() {
        let opts = CheckOpts {
            accesses: 500,
            design: Some(CheckDesign::SaBitsel),
            policy: Some(CheckPolicy::Lru),
            ..CheckOpts::default()
        };
        let rows = run(&opts);
        let rep = report(&rows, &opts);
        assert!(rep.contains("all pairs conform"), "{rep}");
        assert!(rep.contains("sa-bitsel"));
    }

    #[test]
    fn check_grid_is_clean_and_catches_the_mutant() {
        let opts = CheckOpts {
            accesses: 12_000,
            lines: 64,
            jobs: 2,
            digest_every: 256,
            ..CheckOpts::default()
        };
        let clean = run(&opts);
        assert_eq!(clean.iter().filter(|r| r.mix.is_some()).count(), 6);
        for r in &clean {
            assert!(r.result.is_ok(), "{}: {:?}", r.cfg.label(), r.result);
        }
        let rep = report(&clean, &opts);
        assert!(rep.contains("all pairs conform"), "{rep}");

        let mutant = CheckOpts {
            quota_bypass: true,
            ..opts
        };
        let mutated = run(&mutant);
        assert_eq!(
            mutated.len(),
            6,
            "the mutant runs the partitioned pairs only"
        );
        let caught = mutated.iter().filter(|r| r.result.is_err()).count();
        assert!(
            caught >= 4,
            "quota-bypass mutant escaped most pairs ({caught}/6 caught)"
        );
        // The flagship isolation mix must catch it under every policy.
        for r in mutated.iter().filter(|r| r.mix == Some(PartMix::HotVsScan)) {
            assert!(r.result.is_err(), "{} missed the mutant", r.cfg.label());
        }
        let mrep = report(&mutated, &mutant);
        assert!(mrep.contains("CAUGHT"), "{mrep}");
    }

    #[test]
    fn mutation_repro_shrinks_and_replays() {
        let opts = CheckOpts {
            accesses: 8_000,
            lines: 64,
            jobs: 1,
            digest_every: 256,
            quota_bypass: true,
            ..CheckOpts::default()
        };
        let row = run(&opts)
            .into_iter()
            .find(|r| r.result.is_err())
            .expect("mutant must be caught");
        let dir = std::env::temp_dir().join("zbench-mutant-repro-test");
        let (path, len) = shrink_repro(&row, opts.accesses, opts.digest_every, &dir).unwrap();
        assert!(
            (1..=256).contains(&len),
            "shrunk repro suspiciously large: {len}"
        );
        let repro = corpus::read_repro(&path).unwrap();
        assert!(repro.cfg.quota_bypass);
        assert!(
            repro.replay(opts.digest_every).is_err(),
            "shrunk bypass repro no longer reproduces"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
