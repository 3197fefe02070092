//! Fig. 2 — associativity CDFs under the uniformity assumption,
//! validated empirically with the random-candidates cache (§IV-B).

use crate::{format_table, lineup};
use zcache_core::{uniform_assoc_cdf, ArrayKind, UnitHistogram};
use zworkloads::suite::Scale;
use zworkloads::{AddressStream, Component, CoreSpec, Workload};

/// Result for one candidate count `n`: the analytic CDF and the
/// empirical distribution measured on a random-candidates cache.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Number of replacement candidates.
    pub n: u32,
    /// Empirical eviction-priority distribution.
    pub hist: UnitHistogram,
    /// Kolmogorov–Smirnov distance to `F_A(x) = xⁿ`.
    pub ks: f64,
}

/// Runs the Fig. 2 experiment for the given candidate counts.
///
/// A random-candidates cache is driven with a Zipf-LRU workload; by the
/// §IV-B argument its measured associativity distribution must match
/// `F_A(x) = xⁿ` regardless of the workload — the returned KS distances
/// quantify the match.
pub fn run(candidates: &[u32], accesses: u64, seed: u64) -> Vec<Fig2Row> {
    let lines = 4096u64;
    candidates
        .iter()
        .map(|&n| {
            let builder =
                lineup::builder(ArrayKind::RandomCands { n }, 4, lines, seed).meter(256, 1);
            // Any workload works (that is the point); use a Zipf stream
            // with a footprint several times the cache.
            let wl = Workload::uniform(
                "fig2-driver",
                CoreSpec::new(
                    vec![(
                        1.0,
                        Component::Zipf {
                            lines: lines * 4,
                            s: 0.7,
                        },
                    )],
                    0.0,
                    1,
                ),
            );
            let mut stream = wl.streams(1, seed).remove(0);
            let refs = (0..accesses).map(|_| (stream.next_ref().line, false));
            let cache = lineup::drive(&builder, refs);
            let meter = cache.meter().expect("meter attached");
            Fig2Row {
                n,
                hist: meter.histogram().clone(),
                ks: meter.ks_distance_to_uniform(n),
            }
        })
        .collect()
}

/// Renders the Fig. 2 CDme table: analytic vs measured CDF at selected
/// eviction priorities, plus the KS distance per candidate count.
pub fn report(rows: &[Fig2Row]) -> String {
    let xs = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95];
    let mut out = String::from(
        "Fig. 2 — associativity CDFs F_A(x) = x^n (analytic vs random-candidates cache)\n\n",
    );
    let headers: Vec<String> = std::iter::once("n".to_string())
        .chain(
            xs.iter()
                .flat_map(|x| [format!("F({x})"), format!("emp({x})")]),
        )
        .chain(["KS".to_string()])
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.n.to_string()];
            for &x in &xs {
                cells.push(format!("{:.2e}", uniform_assoc_cdf(r.n, x)));
                cells.push(format!("{:.2e}", r.hist.cdf_at(x)));
            }
            cells.push(format!("{:.4}", r.ks));
            cells
        })
        .collect();
    out.push_str(&format_table(&header_refs, &body));
    out.push_str("\n(higher n pushes the CDF toward e = 1.0; KS ≈ 0 validates §IV-B)\n");
    out
}

/// Default Fig. 2 configuration: n ∈ {4, 8, 16, 64}, as in the paper.
pub fn default_run(scale: Scale, seed: u64) -> Vec<Fig2Row> {
    let accesses = match () {
        _ if scale.l2_lines >= 100_000 => 2_000_000,
        _ => 400_000,
    };
    run(&[4, 8, 16, 64], accesses, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_candidates_match_uniformity() {
        // The §IV-B validation: the empirical distribution of a
        // random-candidates cache matches x^n closely.
        for row in run(&[4, 16], 120_000, 3) {
            // The two-sided KS statistic on a binned CDF cannot go below
            // the analytic CDF's rise across one bin (the lower side of
            // an edge lags by a whole bin), so a perfect x^n match still
            // measures up to `F(1) − F(1 − 1/bins)` — ≈ 0.06 for n = 16
            // at 256 bins. Budget that resolution floor on top of the
            // 0.05 sampling-noise allowance.
            let bins = row.hist.num_bins() as f64;
            let resolution = 1.0 - uniform_assoc_cdf(row.n, 1.0 - 1.0 / bins);
            assert!(
                row.ks < 0.05 + resolution,
                "n={}: KS distance {} too large (resolution floor {})",
                row.n,
                row.ks,
                resolution
            );
            assert!(row.hist.total() > 1_000);
        }
    }

    #[test]
    fn higher_n_evicts_higher_priorities() {
        let rows = run(&[4, 64], 120_000, 5);
        assert!(rows[1].hist.mean() > rows[0].hist.mean());
        // Paper's example: with 16 candidates P(e < 0.4) ≈ 1e-6; with 4
        // it is 0.4^4 = 2.6%. Check the ordering empirically at n=4/64.
        assert!(rows[0].hist.cdf_at(0.5) > rows[1].hist.cdf_at(0.5));
    }

    #[test]
    fn report_renders() {
        // The whole report, random-candidate draws included: the
        // default run is too slow for the CLI goldens, so this pins the
        // draw stream and the meter for a short run.
        let expected = "Fig. 2 — associativity CDFs F_A(x) = x^n (analytic vs random-candidates cache)\n\
         \n\
         n   F(0.2)  emp(0.2)   F(0.4)  emp(0.4)   F(0.6)  emp(0.6)   F(0.8)  emp(0.8)   F(0.9)  emp(0.9)  F(0.95)  emp(0.95)      KS\n\
         ----------------------------------------------------------------------------------------------------------------------------\n\
         4  1.60e-3   1.67e-3  2.56e-2   2.64e-2  1.30e-1   1.33e-1  4.10e-1   4.02e-1  6.56e-1   6.53e-1  8.15e-1    8.14e-1  0.0169\n\
         \n\
         (higher n pushes the CDF toward e = 1.0; KS ≈ 0 validates §IV-B)\n";
        assert_eq!(report(&run(&[4], 50_000, 1)), expected);
    }
}
