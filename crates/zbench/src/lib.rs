//! Experiment harness regenerating every table and figure of the zcache
//! paper.
//!
//! Each `exp_*` module regenerates one artifact of the evaluation:
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`exp_fig2`] | Fig. 2 — associativity CDFs under the uniformity assumption, validated with the random-candidates cache |
//! | [`exp_fig3`] | Fig. 3 — associativity distributions of real arrays (SA, SA+hash, skew, zcache) |
//! | [`exp_table2`] | Table II — timing/area/power across designs |
//! | [`exp_fig4`] | Fig. 4 — L2 MPKI and IPC improvements over the 4-way SA+hash baseline, OPT and LRU |
//! | [`exp_fig5`] | Fig. 5 — IPC and BIPS/W for serial/parallel lookups |
//! | [`exp_bandwidth`] | §VI-D — tag-array bandwidth and self-throttling |
//! | [`exp_ablate`] | DESIGN.md ablations — walk strategy, early stop, Bloom dedup, bucketed-LRU parameters |
//! | [`exp_check`] | Differential conformance sweep against the `zoracle` brute-force reference models, plain and partitioned, and the quota-bypass mutant it must catch |
//! | [`exp_perf`] | Simulator throughput (accesses/sec) across the design lineup |
//! | [`exp_adaptive`] | §VIII future work — adaptive walk throttling |
//! | [`exp_conflicts`] | §IV conflict-miss decomposition vs fully-associative |
//! | [`exp_predict`] | Analytical miss-ratio fast-path — reuse-distance profiles convolved with the §IV uniformity model, cross-validated against simulation |
//! | [`exp_tenants`] | Multi-tenant quota partitioning — solo/shared/partitioned MPKI per tenant, Jain fairness |
//!
//! The per-workload sweeps (Fig. 3–5, bandwidth, conflicts, predict) run
//! through one driver, [`pipeline::sweep`]. The experiments that replay a
//! stream through caches of their own build and drive them with
//! [`lineup`]. The `zbench` binary exposes one subcommand per module;
//! library entry points return structured results so integration tests
//! can assert the paper's headline claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod exp_ablate;
pub mod exp_adaptive;
pub mod exp_bandwidth;
pub mod exp_check;
pub mod exp_conflicts;
pub mod exp_fig2;
pub mod exp_fig3;
pub mod exp_fig4;
pub mod exp_fig5;
pub mod exp_perf;
pub mod exp_predict;
pub mod exp_serve;
pub mod exp_table2;
pub mod exp_tenants;
pub mod exp_trace;
pub mod lineup;
pub mod opts;
pub mod pipeline;

use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic parallel sweep engine for the `exp_*` experiments.
///
/// An experiment enumerates its full (design, workload, seed) grid as
/// points `0..n`, and [`run`](Self::run) fans the points out over a
/// scoped worker pool. Three properties make the output independent of
/// the worker count:
///
/// * points are claimed from a shared atomic counter, but results are
///   merged back in canonical point order before returning;
/// * each point derives all of its randomness from
///   [`point_seed`]`(base_seed, point_index)`, never from a shared RNG
///   whose state would depend on scheduling;
/// * point indices are assigned over the *full* grid before any
///   filtering — [`pipeline::sweep`] numbers a workload by its index in
///   the suite, of which `--workloads` keeps a prefix — so a filtered run
///   computes the exact same value for every point it retains.
///
/// Together these make `zbench` output byte-identical for any `--jobs`
/// value, while an embarrassingly-parallel sweep scales with cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// A runner with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// A runner using the worker count from [`opts::ExpOpts::jobs`].
    pub fn from_opts(opts: &opts::ExpOpts) -> Self {
        Self::new(opts.jobs)
    }

    /// Worker threads this runner fans out over.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates `f` on every point `0..n` and returns the results in
    /// point order, regardless of which worker computed which point.
    ///
    /// `f` must be a pure function of its point index (plus captured
    /// shared state); a worker panic is propagated to the caller.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with(n, || (), |i, ()| f(i))
    }

    /// Like [`run`](Self::run), but hands every worker a private mutable
    /// scratch state built by `init` — the hook for reusing expensive
    /// buffers (trace vectors, replay index, Zipf tables) across all the
    /// points a worker claims.
    ///
    /// Determinism contract: `f(i, scratch)` must return the same value
    /// for any scratch history — scratch may only carry *capacity* (or
    /// point-independent caches), never data that leaks into results.
    /// Workers claim points dynamically, so the sequence of points a given
    /// scratch sees is scheduling-dependent.
    pub fn run_with<T, S, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(usize, &mut S) -> T + Sync,
    {
        let jobs = self.jobs.min(n);
        if jobs <= 1 {
            let mut scratch = init();
            return (0..n).map(|i| f(i, &mut scratch)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    s.spawn(|| {
                        let mut scratch = init();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &mut scratch)));
                        }
                        local
                    })
                })
                .collect();
            for w in workers {
                match w.join() {
                    Ok(part) => indexed.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        indexed.sort_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, t)| t).collect()
    }
}

/// Derives the RNG seed of sweep point `point_index` from the base seed.
///
/// SplitMix64-style finalizer: statistically independent seeds for
/// adjacent indices, stable across runs, and a pure function of
/// `(base_seed, point_index)` — so filtering a sweep down to a subset of
/// its grid leaves every retained point's seed (and thus its result)
/// unchanged.
pub fn point_seed(base_seed: u64, point_index: u64) -> u64 {
    let mut z =
        base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(point_index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Geometric mean of positive values; 0 for an empty slice.
///
/// # Examples
///
/// ```
/// assert!((zbench::geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// assert_eq!(zbench::geomean(&[]), 0.0);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a table of rows with right-aligned numeric columns.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn sweep_order_is_canonical_for_any_job_count() {
        let f = |i: usize| (i, i * i);
        let serial = SweepRunner::new(1).run(100, f);
        assert_eq!(serial[7], (7, 49));
        for jobs in [2, 3, 8, 64] {
            assert_eq!(SweepRunner::new(jobs).run(100, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn sweep_edge_cases() {
        assert!(SweepRunner::new(8).run(0, |i| i).is_empty());
        // More workers than points, and a zero request clamped to one.
        assert_eq!(SweepRunner::new(64).run(3, |i| i), vec![0, 1, 2]);
        assert_eq!(SweepRunner::new(0).jobs(), 1);
        assert_eq!(SweepRunner::new(0).run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn point_seeds_are_distinct_and_index_stable() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| point_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000, "seed collision in the first 1000 points");
        assert_ne!(point_seed(1, 0), point_seed(2, 0));
        // The derivation is part of the output format: pin it so a silent
        // change (which would invalidate recorded results) fails loudly.
        assert_eq!(point_seed(1, 0), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn format_table_aligns() {
        let t = format_table(
            &["name", "val"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "22.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("a"));
        assert!(lines[3].contains("longer"));
    }
}
