//! `zbench check` — the differential conformance sweep.
//!
//! Runs every (design × policy) pair of the `zoracle` grid over a
//! deterministic access stream, comparing the production cache against
//! its brute-force reference twin access by access (see
//! [`zoracle::diff`]). Pairs fan out over the [`SweepRunner`] worker
//! pool; per-pair seeds derive from [`point_seed`] over the *unfiltered*
//! grid, so `--design`/`--policy` filters reproduce exactly the same
//! runs a full sweep would perform.
//!
//! On divergence, [`shrink_repro`] delta-debugs the offending stream to
//! a minimal trace and serializes it under `tests/corpus/`, where the
//! `oracle_conformance` regression test replays it on every run.
//! `tenants --check` (see [`crate::exp_tenants`]) shares the row type
//! and the shrink-and-write helper.

use crate::{format_table, point_seed, SweepRunner};
use std::path::{Path, PathBuf};
use zoracle::{
    check_grid, corpus, gen_stream, run_diff, shrink, Access, CheckConfig, CheckDesign,
    CheckPolicy, DiffSummary, Divergence, PartMix,
};

/// Options for the conformance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOpts {
    /// Accesses per (design × policy) pair.
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
        }
    }
}

/// Result of one grid pair of `check` or `tenants --check`.
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

impl CheckRow {
    /// Generates the pair's `accesses`-long stream and runs it in
    /// lockstep.
    pub fn run(
        cfg: CheckConfig,
        mix: Option<PartMix>,
        stream_seed: u64,
        accesses: usize,
        digest_every: u64,
    ) -> Self {
        let trace = stream(mix, accesses, cfg.lines, stream_seed);
        let result = run_diff(&cfg, &trace, digest_every);
        Self {
            cfg,
            mix,
            stream_seed,
            result,
        }
    }
}

/// A pair's access stream: the mix's tenant-tagged stream, or the plain
/// conformance stream.
fn stream(mix: Option<PartMix>, accesses: usize, lines: u64, seed: u64) -> Vec<Access> {
    match mix {
        Some(mix) => mix.gen_stream(accesses, lines, seed),
        None => gen_stream(accesses, lines, seed),
    }
}

/// Runs the conformance sweep.
pub fn run(opts: &CheckOpts) -> Vec<CheckRow> {
    // Index the full grid before filtering so a filtered run reproduces
    // the exact same (seed, stream) a full sweep would use for that pair.
    let points: Vec<(usize, CheckDesign, CheckPolicy)> = check_grid()
        .into_iter()
        .enumerate()
        .filter(|(_, (d, p))| {
            opts.design.is_none_or(|want| *d == want) && opts.policy.is_none_or(|want| *p == want)
        })
        .map(|(i, (d, p))| (i, d, p))
        .collect();

    SweepRunner::new(opts.jobs).run(points.len(), |k| {
        let (grid_idx, design, policy) = points[k];
        let cfg_seed = point_seed(opts.seed, 2 * grid_idx as u64);
        let stream_seed = point_seed(opts.seed, 2 * grid_idx as u64 + 1);
        let cfg = CheckConfig::new(design, policy, opts.lines, opts.ways, cfg_seed);
        CheckRow::run(cfg, None, stream_seed, opts.accesses, opts.digest_every)
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

/// Formats the sweep as a table (one row per pair, FAIL rows last).
pub fn report(rows: &[CheckRow], accesses: usize) -> String {
    let mut out = format!(
        "Differential conformance: {} pairs x {} accesses (dut vs zoracle reference)\n\n",
        rows.len(),
        accesses
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| match &r.result {
            Ok(s) => vec![
                r.cfg.design.to_string(),
                r.cfg.policy.to_string(),
                "ok".into(),
                s.misses.to_string(),
                s.evictions.to_string(),
                s.relocations.to_string(),
                format!("{:016x}", s.digest),
            ],
            Err(d) => vec![
                r.cfg.design.to_string(),
                r.cfg.policy.to_string(),
                "FAIL".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("diverged at #{}", d.index),
            ],
        })
        .collect();
    out.push_str(&format_table(
        &[
            "design", "policy", "status", "misses", "evict", "reloc", "digest",
        ],
        &table,
    ));
    let failures = rows.iter().filter(|r| r.result.is_err()).count();
    out.push('\n');
    if failures == 0 {
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
        assert_eq!(rows.len(), 18);
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
        assert_eq!(only_z3.len(), 3);
        for row in &only_z3 {
            let twin = full
                .iter()
                .find(|r| r.cfg.design == row.cfg.design && r.cfg.policy == row.cfg.policy)
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
        let rep = report(&rows, opts.accesses);
        assert!(rep.contains("all pairs conform"), "{rep}");
        assert!(rep.contains("sa-bitsel"));
    }
}
