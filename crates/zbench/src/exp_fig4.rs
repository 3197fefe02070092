//! Fig. 4 — L2 MPKI and IPC improvements over the 4-way SA + H3
//! baseline, for OPT and LRU, across the 72-workload suite.
//!
//! Methodology (matching §VI-B): the L2 reference stream of each
//! workload is recorded once through fixed L1s, then replayed in
//! trace-driven mode against every design. OPT consumes the trace's
//! next-use oracle. Improvements are fractional (1.2 = 1.2× better than
//! baseline); each design's series is sorted ascending, exactly like the
//! paper's monotone curves.

use crate::format_table;
use crate::geomean;
use crate::opts::{fig_designs, with_policy, ExpOpts};
use crate::pipeline::sweep;
use zcache_core::PolicyKind;
use zsim::SimStats;
use zworkloads::suite::paper_suite_scaled;

/// Per-workload, per-design measurement.
#[derive(Debug, Clone)]
pub struct Fig4Cell {
    /// Workload name.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// L2 MPKI of this design.
    pub mpki: f64,
    /// Aggregate IPC of this design.
    pub ipc: f64,
    /// MPKI improvement over the baseline (>1 = fewer misses).
    pub mpki_improvement: f64,
    /// IPC improvement over the baseline (>1 = faster).
    pub ipc_improvement: f64,
}

/// The complete Fig. 4 dataset for one policy.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// All cells (workloads × non-baseline designs).
    pub cells: Vec<Fig4Cell>,
    /// Baseline stats per workload, `(name, mpki, ipc)`.
    pub baselines: Vec<(String, f64, f64)>,
}

/// Runs Fig. 4 for one policy over the suite.
///
/// One [`sweep`] point per kept workload: the point records the
/// workload's trace and replays it against every design. `--workloads n`
/// keeps a prefix of the full suite, so a filtered run reproduces the
/// unfiltered run's values exactly, and `--policy` filtering cannot
/// shift them either (the grid per policy is identical).
pub fn run(policy: PolicyKind, opts: &ExpOpts) -> Fig4Result {
    let designs = with_policy(&fig_designs(), policy);
    let suite = paper_suite_scaled(opts.cores as usize, opts.scale);
    let points = sweep(opts, &suite, opts.kept(suite.len()), |wl, cfg, scratch| {
        scratch.record(&cfg, wl);
        let stats: Vec<(String, SimStats)> = designs
            .iter()
            .map(|(label, design)| (label.clone(), scratch.replay(&cfg.clone().with_l2(*design))))
            .collect();
        let (base_mpki, base_ipc) = {
            let s = &stats[0].1;
            (s.l2_mpki(), s.ipc())
        };
        let baseline = (wl.name().to_string(), base_mpki, base_ipc);
        let cells: Vec<Fig4Cell> = stats
            .iter()
            .skip(1)
            .map(|(label, s)| {
                let mpki = s.l2_mpki();
                let ipc = s.ipc();
                Fig4Cell {
                    workload: wl.name().to_string(),
                    design: label.clone(),
                    mpki,
                    ipc,
                    // Guard div-by-zero for L1-resident workloads with ~0 MPKI.
                    mpki_improvement: if mpki > 1e-9 { base_mpki / mpki } else { 1.0 },
                    ipc_improvement: if base_ipc > 1e-9 { ipc / base_ipc } else { 1.0 },
                }
            })
            .collect();
        (baseline, cells)
    });

    let mut cells = Vec::new();
    let mut baselines = Vec::new();
    for (baseline, point_cells) in points {
        baselines.push(baseline);
        cells.extend(point_cells);
    }
    Fig4Result {
        policy,
        cells,
        baselines,
    }
}

impl Fig4Result {
    /// The sorted improvement series for `design` (the paper's monotone
    /// per-design curve): `(sorted mpki improvements, sorted ipc
    /// improvements)`.
    pub fn series(&self, design: &str) -> (Vec<f64>, Vec<f64>) {
        let mut mpki: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.design == design)
            .map(|c| c.mpki_improvement)
            .collect();
        let mut ipc: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.design == design)
            .map(|c| c.ipc_improvement)
            .collect();
        mpki.sort_by(|a, b| a.total_cmp(b));
        ipc.sort_by(|a, b| a.total_cmp(b));
        (mpki, ipc)
    }

    /// Geometric-mean improvements per design: `(design, mpki, ipc)`.
    pub fn summary(&self) -> Vec<(String, f64, f64)> {
        let mut designs: Vec<String> = self.cells.iter().map(|c| c.design.clone()).collect();
        designs.sort();
        designs.dedup();
        designs
            .into_iter()
            .map(|d| {
                let (m, i) = self.series(&d);
                (d, geomean(&m), geomean(&i))
            })
            .collect()
    }

    /// Workloads sorted by baseline MPKI, highest first.
    pub fn miss_intensive(&self, top: usize) -> Vec<String> {
        let mut v = self.baselines.clone();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v.into_iter().take(top).map(|(n, _, _)| n).collect()
    }
}

/// Renders the sorted improvement curves at quantiles plus the geomean
/// summary.
pub fn report(res: &Fig4Result) -> String {
    let mut out = format!(
        "Fig. 4 ({:?}) — improvements over SA-4 + H3 baseline (fractional, sorted)\n\n",
        res.policy
    );
    let quantiles = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    for metric in ["MPKI", "IPC"] {
        out.push_str(&format!("{metric} improvement quantiles:\n"));
        let headers: Vec<String> = std::iter::once("design".to_string())
            .chain(quantiles.iter().map(|q| format!("p{:.0}", q * 100.0)))
            .chain(["geomean".to_string()])
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut body = Vec::new();
        for (design, gm_m, gm_i) in res.summary() {
            let (m, i) = res.series(&design);
            let series = if metric == "MPKI" { &m } else { &i };
            let gm = if metric == "MPKI" { gm_m } else { gm_i };
            if series.is_empty() {
                continue;
            }
            let mut cells = vec![design.clone()];
            for &q in &quantiles {
                let idx = ((series.len() - 1) as f64 * q).round() as usize;
                cells.push(format!("{:.3}", series[idx]));
            }
            cells.push(format!("{gm:.3}"));
            body.push(cells);
        }
        out.push_str(&format_table(&header_refs, &body));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOpts {
        ExpOpts {
            max_workloads: Some(6),
            cores: 8,
            instrs_per_core: 30_000,
            ..ExpOpts::smoke()
        }
    }

    #[test]
    fn opt_mpki_never_hurt_by_candidates() {
        // Under OPT, higher associativity improves (or preserves) MPKI —
        // the Fig. 4a monotonicity claim.
        let res = run(PolicyKind::Opt, &opts());
        for (design, gm_mpki, _) in res.summary() {
            assert!(
                gm_mpki >= 0.98,
                "{design} geomean MPKI improvement {gm_mpki} < 1"
            );
        }
    }

    #[test]
    fn z52_at_least_matches_z16_under_opt() {
        let res = run(PolicyKind::Opt, &opts());
        let sum = res.summary();
        let find = |d: &str| sum.iter().find(|(n, _, _)| n == d).unwrap().1;
        assert!(find("Z4/52") >= find("Z4/16") * 0.99);
        assert!(find("Z4/16") >= find("Z4/4") * 0.99);
    }

    #[test]
    fn report_renders() {
        let res = run(PolicyKind::Lru, &opts());
        let r = report(&res);
        assert!(r.contains("Fig. 4"));
        assert!(r.contains("Z4/52"));
    }

    #[test]
    fn miss_intensive_ranking() {
        let res = run(PolicyKind::Lru, &opts());
        let top = res.miss_intensive(3);
        assert_eq!(top.len(), 3);
        // canneal (miss-heavy) must rank above blackscholes (L1-resident).
        let all = res.miss_intensive(res.baselines.len());
        let pos = |n: &str| all.iter().position(|x| x == n);
        if let (Some(c), Some(b)) = (pos("canneal"), pos("blackscholes")) {
            assert!(c < b);
        }
    }
}
