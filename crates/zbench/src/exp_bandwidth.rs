//! §VI-D — L2 array bandwidth and self-throttling.
//!
//! The paper's argument: as L2 misses increase, cores stall more and the
//! average load on the L2 *decreases*, so the extra tag reads a zcache
//! walk performs fit comfortably in otherwise-idle tag bandwidth. This
//! experiment reproduces the §VI-D numbers: average load per bank,
//! zcache tag traffic, and the inverse relation between miss rate and
//! offered load.

use crate::format_table;
use crate::opts::ExpOpts;
use crate::pipeline::sweep;
use zsim::{L2Design, System};
use zworkloads::suite::paper_suite_scaled;

/// One workload's bandwidth measurement under a zcache L2.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Workload name.
    pub workload: String,
    /// L2 accesses per cycle per bank (offered load).
    pub load_per_bank: f64,
    /// Tag operations per cycle per bank (lookups + walk + relocations).
    pub tag_ops_per_bank: f64,
    /// L2 misses per cycle per bank.
    pub misses_per_bank: f64,
    /// L2 MPKI.
    pub mpki: f64,
    /// Tag-port contention: demand-queueing cycles per total cycles.
    pub contention_frac: f64,
}

/// Runs the bandwidth study with a Z4/52 L2 (execution-driven), one
/// [`sweep`] point per kept workload of the suite.
pub fn run(opts: &ExpOpts) -> Vec<BandwidthRow> {
    let suite = paper_suite_scaled(opts.cores as usize, opts.scale);
    sweep(opts, &suite, opts.kept(suite.len()), |wl, cfg, _| {
        let stats = System::new(cfg.with_l2(L2Design::zcache(4, 3))).run(wl);
        BandwidthRow {
            workload: wl.name().to_string(),
            load_per_bank: stats.l2_load_per_bank(),
            tag_ops_per_bank: stats.l2_tag_ops_per_cycle_per_bank(),
            misses_per_bank: stats.l2_misses_per_cycle_per_bank(),
            mpki: stats.l2_mpki(),
            contention_frac: if stats.max_cycles > 0 {
                stats.l2_tag_contention_cycles as f64 / stats.max_cycles as f64
            } else {
                0.0
            },
        }
    })
}

/// Summary statistics of a bandwidth run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthSummary {
    /// Maximum offered load across workloads (paper: 15.2%).
    pub max_load: f64,
    /// Maximum tag traffic across workloads.
    pub max_tag_ops: f64,
    /// Pearson correlation between miss rate and offered load
    /// (self-throttling ⇒ negative for miss-heavy workloads).
    pub load_miss_correlation: f64,
}

/// Summarizes a run.
pub fn summarize(rows: &[BandwidthRow]) -> BandwidthSummary {
    let max_load = rows.iter().map(|r| r.load_per_bank).fold(0.0, f64::max);
    let max_tag_ops = rows.iter().map(|r| r.tag_ops_per_bank).fold(0.0, f64::max);
    let corr = pearson(
        &rows.iter().map(|r| r.misses_per_bank).collect::<Vec<_>>(),
        &rows.iter().map(|r| r.load_per_bank).collect::<Vec<_>>(),
    );
    BandwidthSummary {
        max_load,
        max_tag_ops,
        load_miss_correlation: corr,
    }
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (a, b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        vx += (a - mx).powi(2);
        vy += (b - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Renders the bandwidth study, sorted by miss intensity.
pub fn report(rows: &[BandwidthRow]) -> String {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| b.misses_per_bank.total_cmp(&a.misses_per_bank));
    let mut out = String::from("§VI-D — Z4/52 array bandwidth (execution-driven)\n\n");
    let headers = [
        "workload",
        "load/cyc/bank",
        "tagops/cyc/bank",
        "miss/cyc/bank",
        "MPKI",
        "contention",
    ];
    let body: Vec<Vec<String>> = sorted
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                format!("{:.4}", r.load_per_bank),
                format!("{:.4}", r.tag_ops_per_bank),
                format!("{:.5}", r.misses_per_bank),
                format!("{:.2}", r.mpki),
                format!("{:.4}", r.contention_frac),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    let s = summarize(rows);
    out.push_str(&format!(
        "\nmax load: {:.3} acc/cyc/bank; max tag traffic: {:.3} ops/cyc/bank; \
         miss-load correlation: {:.2}\n(self-throttling: high-miss workloads offer less load)\n",
        s.max_load, s.max_tag_ops, s.load_miss_correlation
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_stay_far_from_saturation() {
        let opts = ExpOpts {
            max_workloads: Some(6),
            cores: 8,
            instrs_per_core: 20_000,
            ..ExpOpts::smoke()
        };
        let rows = run(&opts);
        let s = summarize(&rows);
        // Tag arrays can service ~1 op/cycle/bank; the paper measures a
        // 15.2% max load. Assert a generous margin below saturation.
        assert!(s.max_load < 0.5, "load {}", s.max_load);
        assert!(s.max_tag_ops < 1.0, "tag ops {}", s.max_tag_ops);
    }

    #[test]
    fn pearson_sanity() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn report_renders() {
        let opts = ExpOpts {
            max_workloads: Some(3),
            cores: 4,
            instrs_per_core: 10_000,
            ..ExpOpts::smoke()
        };
        let r = report(&run(&opts));
        assert!(r.contains("VI-D"));
        assert!(r.contains("self-throttling"));
    }
}
