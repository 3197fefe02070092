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
use crate::pipeline::sweep;
use crate::{format_table, lineup};
use zcache_core::{ArrayKind, UnitHistogram};
use zhash::HashKind;
use zsim::trace::record_trace;
use zsim::{L2Design, SimConfig};
use zworkloads::suite::fig3_selection;
use zworkloads::Workload;

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
    /// The designs of this panel, labelled by [`L2Design::label`] plus
    /// `-h3` in panel (b), where the H3 index is what is compared (in
    /// Fig. 4, `SA-4` is the H3 baseline).
    pub fn designs(self) -> Vec<(String, L2Design)> {
        let with = |array, ways| L2Design {
            array,
            ways,
            ..L2Design::baseline()
        };
        let bitsel = ArrayKind::SetAssoc {
            hash: HashKind::BitSelect,
        };
        let (designs, suffix) = match self {
            Fig3Panel::SetAssoc => ([with(bitsel, 4), with(bitsel, 16)], ""),
            Fig3Panel::SetAssocHash => ([L2Design::setassoc(4), L2Design::setassoc(16)], "-h3"),
            Fig3Panel::Skew => ([with(ArrayKind::Skew, 4), with(ArrayKind::Skew, 16)], ""),
            Fig3Panel::ZCache => ([L2Design::zcache(4, 2), L2Design::zcache(4, 3)], ""),
        };
        designs
            .into_iter()
            .map(|d| (format!("{}{suffix}", d.label()), d))
            .collect()
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
    /// Panel of the design.
    pub panel: Fig3Panel,
    /// Workload name.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// Nominal replacement candidates `R` of the design.
    pub candidates: u32,
    /// Empirical eviction-priority distribution.
    pub hist: UnitHistogram,
    /// KS distance to the uniformity assumption at this `R`.
    pub ks: f64,
}

/// KS distance of `hist` to the uniformity curve of the design's
/// nominal `R` (the paper compares against the curve for that R). With
/// too few sampled evictions the distance is meaningless: NaN.
fn ks_to_nominal(hist: &UnitHistogram, nominal_r: u32) -> f64 {
    if hist.total() < 50 {
        f64::NAN
    } else {
        zcache_core::ks_distance_to_uniform(hist, nominal_r)
    }
}

/// One sweep point: records `wl`'s L2 trace once and measures the
/// eviction-priority histogram of every design of `panels` on it, with
/// the arrays seeded like the trace.
fn point(panels: &[Fig3Panel], wl: &Workload, cfg: &SimConfig) -> Vec<Fig3Row> {
    let trace = record_trace(cfg, wl);
    let mut rows = Vec::new();
    for &panel in panels {
        for (label, design) in panel.designs() {
            // Sample every 17th eviction: the rank scan is O(lines).
            let builder = design.builder(cfg.l2_lines, cfg.seed).meter(128, 17);
            let cache = lineup::drive(&builder, trace.accesses());
            let hist = cache.meter().expect("meter attached").histogram().clone();
            let candidates = design.array.candidates(design.ways);
            rows.push(Fig3Row {
                panel,
                workload: wl.name().to_string(),
                design: label,
                candidates,
                ks: ks_to_nominal(&hist, candidates),
                hist,
            });
        }
    }
    rows
}

/// Runs all four panels over the Fig. 3 workload selection: one
/// [`sweep`] point per workload, which records the workload's trace
/// once and measures every panel's designs on it. The sweep indexes the
/// six-workload selection, so point seeds follow a workload's position
/// there.
pub fn run(opts: &ExpOpts) -> Vec<Fig3Row> {
    let selection = fig3_selection(opts.scale);
    let per_workload = sweep(opts, &selection, 0..selection.len(), |wl, cfg, _| {
        point(&Fig3Panel::all(), wl, &cfg)
    });
    per_workload.into_iter().flatten().collect()
}

/// Renders one panel's rows of a [`run`].
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
        .filter(|r| r.panel == panel)
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
        let selection = fig3_selection(o.scale);
        let i = selection.iter().position(|w| w.name() == "wupwise");
        let panels = [Fig3Panel::SetAssoc, Fig3Panel::ZCache];
        let rows = sweep(&o, &selection, i, |wl, cfg, _| point(&panels, wl, &cfg)).concat();
        let ks = |design: &str| rows.iter().find(|r| r.design == design).unwrap().ks;
        let (sa_wup, z_wup) = (ks("SA-4"), ks("Z4/16"));
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
        let rows = run(&o);
        let r = report(Fig3Panel::Skew, &rows);
        assert!(r.contains("skew"));
        assert!(!r.contains("Z4/52"), "another panel's rows");
    }
}
