//! Fig. 5 — IPC and energy efficiency (BIPS/W) for serial- and
//! parallel-lookup caches, normalized to the serial SA-4 + H3 baseline.

use crate::format_table;
use crate::geomean;
use crate::opts::{fig_designs, ExpOpts};
use crate::pipeline::sweep;
use zcache_core::PolicyKind;
use zenergy::{LookupMode, SystemPowerModel};
use zworkloads::suite::paper_suite_scaled;

/// One design × lookup-mode × workload measurement.
#[derive(Debug, Clone)]
pub struct Fig5Cell {
    /// Workload name.
    pub workload: String,
    /// Design label (without lookup suffix).
    pub design: String,
    /// Lookup mode.
    pub lookup: LookupMode,
    /// IPC relative to the serial SA-4 baseline.
    pub ipc_rel: f64,
    /// BIPS/W relative to the serial SA-4 baseline.
    pub bips_w_rel: f64,
    /// Baseline L2 MPKI of this workload (for miss-intensive filtering).
    pub base_mpki: f64,
}

/// The Fig. 5 dataset for one policy.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Policy evaluated.
    pub policy: PolicyKind,
    /// All cells.
    pub cells: Vec<Fig5Cell>,
}

/// Runs Fig. 5: every lineup design in both lookup modes, replayed on
/// the recorded trace of every workload; metrics normalized to the
/// serial-lookup SA-4 baseline.
pub fn run(policy: PolicyKind, opts: &ExpOpts) -> Fig5Result {
    let suite = paper_suite_scaled(opts.cores as usize, opts.scale);
    let power = SystemPowerModel::paper_cmp();
    let designs = fig_designs();

    // One sweep point per kept workload, as in `exp_fig4::run`.
    let per_workload = sweep(opts, &suite, opts.kept(suite.len()), |wl, cfg, scratch| {
        scratch.record(&cfg, wl);

        // The first cell, serial SA-4, is the baseline.
        let mut base = None;
        let mut cells = Vec::new();
        for (label, design) in &designs {
            for lookup in [LookupMode::Serial, LookupMode::Parallel] {
                let d = design.with_policy(policy).with_lookup(lookup);
                let stats = scratch.replay(&cfg.clone().with_l2(d));
                let cost = d.cache_design(cfg.l2_lines, cfg.l2_banks).cost();
                let energy = power.evaluate(&stats.energy_counts(), &cost);
                let (ipc, bips_w) = (stats.ipc(), energy.bips_per_watt);
                let (base_ipc, base_bips_w, base_mpki) =
                    *base.get_or_insert((ipc, bips_w, stats.l2_mpki()));
                cells.push(Fig5Cell {
                    workload: wl.name().to_string(),
                    design: label.clone(),
                    lookup,
                    ipc_rel: if base_ipc > 0.0 { ipc / base_ipc } else { 1.0 },
                    bips_w_rel: if base_bips_w > 0.0 {
                        bips_w / base_bips_w
                    } else {
                        1.0
                    },
                    base_mpki,
                });
            }
        }
        cells
    });
    Fig5Result {
        policy,
        cells: per_workload.into_iter().flatten().collect(),
    }
}

impl Fig5Result {
    /// Geomean `(ipc_rel, bips_w_rel)` for a design/lookup over a
    /// workload filter.
    pub fn geomeans<F: Fn(&Fig5Cell) -> bool>(
        &self,
        design: &str,
        lookup: LookupMode,
        filter: F,
    ) -> (f64, f64) {
        let sel: Vec<&Fig5Cell> = self
            .cells
            .iter()
            .filter(|c| c.design == design && c.lookup == lookup && filter(c))
            .collect();
        let ipc: Vec<f64> = sel.iter().map(|c| c.ipc_rel).collect();
        let bw: Vec<f64> = sel.iter().map(|c| c.bips_w_rel).collect();
        (geomean(&ipc), geomean(&bw))
    }

    /// The names of the `top` most miss-intensive workloads (by baseline
    /// MPKI).
    pub fn miss_intensive(&self, top: usize) -> Vec<String> {
        let mut per_wl: Vec<(String, f64)> = Vec::new();
        for c in &self.cells {
            if !per_wl.iter().any(|(n, _)| n == &c.workload) {
                per_wl.push((c.workload.clone(), c.base_mpki));
            }
        }
        per_wl.sort_by(|a, b| b.1.total_cmp(&a.1));
        per_wl.into_iter().take(top).map(|(n, _)| n).collect()
    }

    /// Distinct design labels in lineup order.
    pub fn designs(&self) -> Vec<String> {
        let mut v = Vec::new();
        for c in &self.cells {
            if !v.contains(&c.design) {
                v.push(c.design.clone());
            }
        }
        v
    }
}

/// Renders the Fig. 5 summary: per design × lookup, geomean IPC and
/// BIPS/W over five representative applications, all workloads, and the
/// ten most miss-intensive.
pub fn report(res: &Fig5Result) -> String {
    let representative = ["blackscholes", "gamess", "ammp", "canneal", "cactusADM"];
    let hot = res.miss_intensive(10);
    let mut out = format!(
        "Fig. 5 ({:?}) — IPC and BIPS/W vs serial SA-4 baseline (geomeans)\n\n",
        res.policy
    );
    let headers = [
        "design",
        "lookup",
        "ipc(rep5)",
        "bw(rep5)",
        "ipc(all)",
        "bw(all)",
        "ipc(top10)",
        "bw(top10)",
    ];
    let mut body = Vec::new();
    for design in res.designs() {
        for lookup in [LookupMode::Serial, LookupMode::Parallel] {
            let (i_rep, b_rep) = res.geomeans(&design, lookup, |c| {
                representative.contains(&c.workload.as_str())
            });
            let (i_all, b_all) = res.geomeans(&design, lookup, |_| true);
            let (i_hot, b_hot) = res.geomeans(&design, lookup, |c| hot.contains(&c.workload));
            body.push(vec![
                design.clone(),
                lookup.to_string(),
                format!("{i_rep:.3}"),
                format!("{b_rep:.3}"),
                format!("{i_all:.3}"),
                format!("{b_all:.3}"),
                format!("{i_hot:.3}"),
                format!("{b_hot:.3}"),
            ]);
        }
    }
    out.push_str(&format_table(&headers, &body));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The one LRU sweep the tests below read, run once per test binary.
    fn lru() -> &'static Fig5Result {
        static RES: OnceLock<Fig5Result> = OnceLock::new();
        RES.get_or_init(|| {
            let opts = ExpOpts {
                max_workloads: Some(5),
                cores: 8,
                instrs_per_core: 25_000,
                ..ExpOpts::smoke()
            };
            run(PolicyKind::Lru, &opts)
        })
    }

    #[test]
    fn baseline_normalizes_to_one() {
        let res = lru();
        let (ipc, bw) = res.geomeans("SA-4", LookupMode::Serial, |_| true);
        assert!((ipc - 1.0).abs() < 1e-9, "baseline ipc {ipc}");
        assert!((bw - 1.0).abs() < 1e-9, "baseline bips/w {bw}");
    }

    #[test]
    fn parallel_lookup_is_not_slower() {
        let res = lru();
        for d in res.designs() {
            let (i_ser, _) = res.geomeans(&d, LookupMode::Serial, |_| true);
            let (i_par, _) = res.geomeans(&d, LookupMode::Parallel, |_| true);
            assert!(
                i_par >= i_ser * 0.999,
                "{d}: parallel {i_par} vs serial {i_ser}"
            );
        }
    }

    #[test]
    fn report_renders() {
        let r = report(lru());
        assert!(r.contains("Fig. 5"));
        assert!(r.contains("Z4/52"));
        assert!(r.contains("parallel"));
    }
}
