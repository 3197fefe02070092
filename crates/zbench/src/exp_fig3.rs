//! Fig. 3 — associativity distributions of real cache designs (§IV-C).
//!
//! For each of the six Fig. 3 workloads, the L2 reference stream is
//! recorded once (through the simulated L1s) and fed into each array
//! organization with an associativity meter attached. The paper's
//! findings, reproduced here:
//!
//! * unhashed set-associative caches deviate badly from `F_A(x) = xⁿ`
//!   (wupwise/apsi collapse to low eviction priorities);
//! * H3 index hashing recovers much of the gap but hot-spots remain;
//! * skew-associative caches and zcaches match the uniformity assumption
//!   closely, so their associativity is fully characterized by `R`.

use crate::opts::ExpOpts;
use crate::{format_table, lineup};
use crate::{point_seed, SweepRunner};
use zcache_core::{replacement_candidates, ArrayKind, UnitHistogram};
use zhash::HashKind;
use zsim::trace::{record_trace, L2Trace};
use zworkloads::suite::fig3_selection;

/// Which Fig. 3 panel a design belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig3Panel {
    /// (a) set-associative, bit-selection index.
    SetAssoc,
    /// (b) set-associative, H3-hashed index.
    SetAssocHash,
    /// (c) skew-associative.
    Skew,
    /// (d) zcache (4-way, 2/3-level walks).
    ZCache,
}

impl Fig3Panel {
    /// The designs of this panel as `(label, array, ways, candidates)`.
    pub fn designs(self) -> Vec<(String, ArrayKind, u32, u64)> {
        match self {
            Fig3Panel::SetAssoc => vec![
                (
                    "SA-4".into(),
                    ArrayKind::SetAssoc {
                        hash: HashKind::BitSelect,
                    },
                    4,
                    4,
                ),
                (
                    "SA-16".into(),
                    ArrayKind::SetAssoc {
                        hash: HashKind::BitSelect,
                    },
                    16,
                    16,
                ),
            ],
            Fig3Panel::SetAssocHash => vec![
                (
                    "SA-4-h3".into(),
                    ArrayKind::SetAssoc { hash: HashKind::H3 },
                    4,
                    4,
                ),
                (
                    "SA-16-h3".into(),
                    ArrayKind::SetAssoc { hash: HashKind::H3 },
                    16,
                    16,
                ),
            ],
            Fig3Panel::Skew => vec![
                ("skew-4".into(), ArrayKind::Skew, 4, 4),
                ("skew-16".into(), ArrayKind::Skew, 16, 16),
            ],
            Fig3Panel::ZCache => vec![
                (
                    "Z4/16".into(),
                    ArrayKind::ZCache { levels: 2 },
                    4,
                    replacement_candidates(4, 2),
                ),
                (
                    "Z4/52".into(),
                    ArrayKind::ZCache { levels: 3 },
                    4,
                    replacement_candidates(4, 3),
                ),
            ],
        }
    }

    /// All four panels.
    pub fn all() -> [Fig3Panel; 4] {
        [
            Fig3Panel::SetAssoc,
            Fig3Panel::SetAssocHash,
            Fig3Panel::Skew,
            Fig3Panel::ZCache,
        ]
    }

    /// Panel name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Fig3Panel::SetAssoc => "3a: set-assoc (bitsel)",
            Fig3Panel::SetAssocHash => "3b: set-assoc (H3)",
            Fig3Panel::Skew => "3c: skew-assoc",
            Fig3Panel::ZCache => "3d: zcache",
        }
    }
}

/// One measured associativity distribution.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Workload name.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// Replacement candidates of the design.
    pub candidates: u64,
    /// Empirical eviction-priority distribution.
    pub hist: UnitHistogram,
    /// KS distance to the uniformity assumption at this `R`.
    pub ks: f64,
}

/// Feeds a recorded L2 trace through one array and returns its
/// eviction-priority histogram.
pub fn measure(
    trace: &L2Trace,
    array: ArrayKind,
    ways: u32,
    lines: u64,
    seed: u64,
) -> UnitHistogram {
    // Sample every 17th eviction: the rank scan is O(lines).
    let builder = lineup::builder(array, ways, lines, seed).meter(128, 17);
    let cache = lineup::drive(&builder, trace.refs.iter().map(|r| (r.line, r.write)));
    cache.meter().expect("meter attached").histogram().clone()
}

/// KS distance of `hist` to the uniformity curve of the design's
/// nominal `R` (the paper compares against the curve for that R). With
/// too few sampled evictions the distance is meaningless: NaN.
fn ks_to_nominal(hist: &UnitHistogram, nominal_r: u64) -> f64 {
    if hist.total() < 50 {
        f64::NAN
    } else {
        zcache_core::ks_distance_to_uniform(hist, nominal_r as u32)
    }
}

/// Runs the experiment for one panel over the Fig. 3 workload selection.
///
/// One sweep point per workload: trace recording dominates the cost, so
/// each point records its trace once and measures every design of the
/// panel against it. Both the trace and the arrays draw their seed from
/// [`point_seed`], keeping panels comparable (same workload index ⇒ same
/// trace) and the output independent of `--jobs`.
pub fn run(panel: Fig3Panel, opts: &ExpOpts) -> Vec<Fig3Row> {
    let workloads = fig3_selection(opts.scale);
    let per_workload = SweepRunner::from_opts(opts).run(workloads.len(), |i| {
        let wl = &workloads[i];
        let seed = point_seed(opts.seed, i as u64);
        let mut cfg = opts.sim_config();
        cfg.seed = seed;
        let trace = record_trace(&cfg, wl);
        panel
            .designs()
            .into_iter()
            .map(|(label, array, ways, nominal_r)| {
                let hist = measure(&trace, array, ways, opts.scale.l2_lines, seed);
                let ks = ks_to_nominal(&hist, nominal_r);
                Fig3Row {
                    workload: wl.name().to_string(),
                    design: label,
                    candidates: nominal_r,
                    hist,
                    ks,
                }
            })
            .collect::<Vec<_>>()
    });
    per_workload.into_iter().flatten().collect()
}

/// Renders one panel's results.
pub fn report(panel: Fig3Panel, rows: &[Fig3Row]) -> String {
    let mut out = format!(
        "Fig. {} — eviction-priority distributions\n\n",
        panel.name()
    );
    let headers = [
        "workload",
        "design",
        "R",
        "mean(e)",
        "P(e<0.4)",
        "KS-to-x^R",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.design.clone(),
                r.candidates.to_string(),
                format!("{:.3}", r.hist.mean()),
                format!("{:.2e}", r.hist.cdf_at(0.4)),
                format!("{:.3}", r.ks),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ExpOpts {
        // Full core count so aggregate footprints pressure the small L2;
        // without pressure there are no evictions to measure.
        ExpOpts {
            cores: 32,
            instrs_per_core: 40_000,
            ..ExpOpts::smoke()
        }
    }

    #[test]
    fn zcache_matches_uniformity_better_than_unhashed_sa() {
        // Compare the conflict-pathological workload, wupwise, on the
        // trace and seeds `run` gives its sweep point.
        let o = opts();
        let workloads = fig3_selection(o.scale);
        let i = workloads
            .iter()
            .position(|w| w.name() == "wupwise")
            .unwrap();
        let seed = point_seed(o.seed, i as u64);
        let mut cfg = o.sim_config();
        cfg.seed = seed;
        let trace = record_trace(&cfg, &workloads[i]);
        let ks = |panel: Fig3Panel, design: &str| {
            let (_, array, ways, nominal_r) =
                panel.designs().into_iter().find(|d| d.0 == design).unwrap();
            let hist = measure(&trace, array, ways, o.scale.l2_lines, seed);
            ks_to_nominal(&hist, nominal_r)
        };
        let sa_wup = ks(Fig3Panel::SetAssoc, "SA-4");
        let z_wup = ks(Fig3Panel::ZCache, "Z4/16");
        assert!(
            z_wup < sa_wup,
            "zcache KS {z_wup} should beat unhashed SA {sa_wup}"
        );
    }

    #[test]
    fn report_renders() {
        let mut o = opts();
        o.cores = 4;
        o.instrs_per_core = 20_000;
        let rows = run(Fig3Panel::Skew, &o);
        let r = report(Fig3Panel::Skew, &rows);
        assert!(r.contains("skew"));
    }
}
