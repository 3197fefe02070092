//! §VIII future-work experiment: adaptive walk throttling.
//!
//! Compares a fixed Z4/52, an adaptive-walk Z4/52 (its walk budget
//! steered by a [`ShadowDuel`]), and the skew-associative floor (Z4/4)
//! on workloads where high associativity pays off and workloads where
//! it is wasted, measuring miss rate and walk tag bandwidth.

use crate::opts::ExpOpts;
use crate::{format_table, lineup};
use zcache_core::{AdaptiveConfig, ArrayKind, FullLru, ShadowDuel};
use zsim::trace::record_trace;
use zworkloads::suite::by_name;

/// One design × workload measurement.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Workload name.
    pub workload: String,
    /// Variant label.
    pub variant: String,
    /// Miss rate on the L2 trace.
    pub miss_rate: f64,
    /// Total tag reads (walk bandwidth proxy).
    pub tag_reads: u64,
    /// Final candidate budget (fixed designs: the configured R).
    pub final_budget: u32,
    /// Number of budget adaptations.
    pub adaptations: u64,
}

/// Runs the adaptive study on one associativity-hungry workload
/// (cactusADM) and one streaming workload (lbm) where deep walks are
/// wasted.
pub fn run(opts: &ExpOpts) -> Vec<AdaptiveRow> {
    let cfg = opts.sim_config();
    // Same core-scaled sizing as the ablations: ~3× pressure.
    let lines = (opts.scale.l2_lines * u64::from(opts.cores) / 32).max(1024);
    let mut rows = Vec::new();
    for name in ["cactusADM", "lbm"] {
        let wl = by_name(name, opts.cores as usize, opts.scale).expect("workload in suite");
        let trace = record_trace(&cfg, &wl);

        // Fixed Z4/52, then the fixed Z4/4 skew floor; reads only.
        for (variant, levels, budget) in [("Z4/52 fixed", 3, 52), ("Z4/4 fixed", 1, 4)] {
            let builder = lineup::builder(ArrayKind::ZCache { levels }, 4, lines, opts.seed);
            let fixed = lineup::drive(&builder, trace.refs.iter().map(|r| (r.line, false)));
            rows.push(AdaptiveRow {
                workload: name.into(),
                variant: variant.into(),
                miss_rate: fixed.stats().miss_rate(),
                tag_reads: fixed.stats().tag_reads,
                final_budget: budget,
                adaptations: 0,
            });
        }

        // Adaptive: the duel observes each access first and retunes the
        // walk budget whenever its recommendation changes.
        let mut adaptive =
            lineup::builder(ArrayKind::ZCache { levels: 3 }, 4, lines, opts.seed).build();
        let mut duel =
            ShadowDuel::for_geometry(lines, 4, 3, FullLru::new, AdaptiveConfig::default());
        for r in &trace.refs {
            if let Some(budget) = duel.observe(r.line) {
                adaptive.array_mut().set_max_candidates(budget);
            }
            adaptive.access(r.line);
        }
        rows.push(AdaptiveRow {
            workload: name.into(),
            variant: "Z4/52 adaptive".into(),
            miss_rate: adaptive.stats().miss_rate(),
            tag_reads: adaptive.stats().tag_reads,
            final_budget: duel.budget(),
            adaptations: duel.adaptations(),
        });
    }
    rows
}

/// Renders the adaptive study.
pub fn report(rows: &[AdaptiveRow]) -> String {
    let mut out =
        String::from("§VIII future work — adaptive walk throttling (core-scaled array)\n\n");
    let headers = [
        "workload",
        "variant",
        "miss rate",
        "tag reads",
        "final budget",
        "adaptations",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.variant.clone(),
                format!("{:.4}", r.miss_rate),
                r.tag_reads.to_string(),
                r.final_budget.to_string(),
                r.adaptations.to_string(),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    out.push_str(
        "\n(the adaptive cache should approach Z4/52's miss rate on the\n\
         associativity-hungry workload while spending fewer tag reads on the\n\
         streaming one)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_saves_bandwidth_where_associativity_is_useless() {
        let opts = ExpOpts {
            cores: 8,
            instrs_per_core: 40_000,
            ..ExpOpts::smoke()
        };
        let rows = run(&opts);
        let find = |w: &str, v: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.variant.contains(v))
                .unwrap()
        };
        // Streaming workload: the adaptive cache must spend fewer tag
        // reads than the fixed deep walk...
        let fixed = find("lbm", "fixed").clone();
        let fixed52 = rows
            .iter()
            .find(|r| r.workload == "lbm" && r.variant == "Z4/52 fixed")
            .unwrap();
        let adap = find("lbm", "adaptive");
        assert!(
            adap.tag_reads <= fixed52.tag_reads,
            "adaptive {} > fixed {}",
            adap.tag_reads,
            fixed52.tag_reads
        );
        // ...without a large miss-rate penalty.
        assert!(adap.miss_rate <= fixed52.miss_rate * 1.10);
        let _ = fixed;
    }

    #[test]
    fn report_renders() {
        let opts = ExpOpts {
            cores: 4,
            instrs_per_core: 20_000,
            ..ExpOpts::smoke()
        };
        let r = report(&run(&opts));
        assert!(r.contains("adaptive"));
    }
}
