//! Ablations of the zcache design choices called out in `DESIGN.md`:
//! walk strategy (BFS vs DFS), early-stopped walks, Bloom-filter repeat
//! avoidance, and bucketed-LRU parameters.

use crate::opts::ExpOpts;
use crate::{format_table, lineup, SweepRunner};
use zcache_core::{ArrayKind, CacheBuilder, PolicyKind, WalkKind};
use zsim::trace::record_trace;
use zworkloads::suite::by_name;

/// Result of one ablation variant.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// L2 miss rate on the shared trace.
    pub miss_rate: f64,
    /// Mean candidates per miss.
    pub avg_candidates: f64,
    /// Mean relocations per miss.
    pub avg_relocations: f64,
    /// Total tag reads (walk bandwidth).
    pub tag_reads: u64,
}

/// The ablation lineup for a `lines`-frame array: every variant refines
/// the paper's Z4/52 or Z4/16 builder, all with the same hash seed.
fn variants(lines: u64, seed: u64) -> Vec<(&'static str, CacheBuilder)> {
    let z52 = lineup::builder(ArrayKind::ZCache { levels: 3 }, 4, lines, seed);
    let z16 = lineup::builder(ArrayKind::ZCache { levels: 2 }, 4, lines, seed);
    let bucketed = |bits| PolicyKind::BucketedLru {
        bits,
        k: (lines / 20).max(1),
    };
    vec![
        ("Z4/52 BFS (paper)", z52.clone()),
        (
            "Z4/52 DFS (cuckoo order)",
            z52.clone().walk_kind(WalkKind::Dfs),
        ),
        ("Z4/52 + Bloom dedup", z52.clone().bloom_dedup(true)),
        ("Z4/52 early stop @ 24", z52.clone().max_candidates(24)),
        ("Z4/52 early stop @ 8", z52.max_candidates(8)),
        (
            "Z4/16 bucketed-LRU (paper cfg)",
            z16.clone().policy(bucketed(8)),
        ),
        ("Z4/16 bucketed-LRU 4-bit", z16.clone().policy(bucketed(4))),
        ("Z4/16 full LRU", z16.clone()),
        ("Z4/16 RRIP", z16.clone().policy(PolicyKind::Rrip)),
        ("Z4/16 DRRIP", z16.policy(PolicyKind::Drrip)),
    ]
}

/// Runs all ablations on a shared L2 trace of the `cactusADM` workload
/// (the paper's associativity-sensitive case).
///
/// One sweep point per variant, all driven over the one recorded trace.
/// Unlike the per-workload sweeps, every variant keeps the *same* hash
/// seed: an ablation is a controlled comparison, and giving variants
/// independent seeds would fold hash-placement luck into the measured
/// deltas. Determinism across `--jobs` still holds — each point's cache
/// is built and driven entirely inside the point.
pub fn run(opts: &ExpOpts) -> Vec<AblationRow> {
    let cfg = opts.sim_config();
    let wl = by_name("cactusADM", opts.cores as usize, opts.scale).expect("cactusADM in suite");
    let trace = record_trace(&cfg, &wl);
    let refs: Vec<(u64, bool)> = trace.refs.iter().map(|r| (r.line, r.write)).collect();
    // Size the array to the traced core count so aggregate footprint
    // stays ~3× capacity — pressured enough for walks and relocations,
    // reused enough that associativity differentiates.
    let lines = (opts.scale.l2_lines * u64::from(opts.cores) / 32).max(1024);

    let entries = variants(lines, opts.seed);
    SweepRunner::from_opts(opts).run(entries.len(), |i| {
        let (label, builder) = &entries[i];
        let cache = lineup::drive(builder, refs.iter().copied());
        let s = cache.stats();
        AblationRow {
            variant: label.to_string(),
            miss_rate: s.miss_rate(),
            avg_candidates: s.avg_candidates(),
            avg_relocations: s.avg_relocations(),
            tag_reads: s.tag_reads,
        }
    })
}

/// Renders the ablation table.
pub fn report(rows: &[AblationRow]) -> String {
    let mut out = String::from("Ablations — cactusADM L2 trace\n\n");
    let headers = ["variant", "miss rate", "avg R", "avg relocs", "tag reads"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.4}", r.miss_rate),
                format!("{:.1}", r.avg_candidates),
                format!("{:.2}", r.avg_relocations),
                r.tag_reads.to_string(),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<AblationRow> {
        let opts = ExpOpts {
            cores: 4,
            instrs_per_core: 40_000,
            ..ExpOpts::smoke()
        };
        run(&opts)
    }

    #[test]
    fn dfs_needs_more_relocations_than_bfs() {
        let r = rows();
        let bfs = r.iter().find(|x| x.variant.contains("BFS")).unwrap();
        let dfs = r.iter().find(|x| x.variant.contains("DFS")).unwrap();
        assert!(
            dfs.avg_relocations > bfs.avg_relocations,
            "DFS {} vs BFS {}",
            dfs.avg_relocations,
            bfs.avg_relocations
        );
    }

    #[test]
    fn early_stop_trades_candidates_for_bandwidth() {
        let r = rows();
        let full = r.iter().find(|x| x.variant.contains("BFS")).unwrap();
        let stop8 = r.iter().find(|x| x.variant.contains("@ 8")).unwrap();
        assert!(stop8.avg_candidates < full.avg_candidates);
        assert!(stop8.tag_reads < full.tag_reads);
        // Fewer candidates can only hurt (or match) the miss rate.
        assert!(stop8.miss_rate >= full.miss_rate * 0.995);
    }

    #[test]
    fn report_renders() {
        let r = report(&rows());
        assert!(r.contains("BFS"));
        assert!(r.contains("bucketed-LRU"));
    }
}
