//! `zbench predict` — the analytical fast-path: miss ratios for the
//! whole design×size grid from a reuse-distance profile, no simulation.
//!
//! Methodology: each workload's L2 reference stream is recorded once
//! (exactly the Fig. 4 pipeline), profiled into a stack-distance
//! histogram (`zworkloads::profile`, O(log n) per reference), and
//! convolved with the analytic model (`zcache_core::model`): the
//! fully-associative hit function (Gysi et al.) corrected for finite
//! associativity under the paper's uniformity assumption
//! (`F_A(x) = xⁿ` — a design is its candidate count `n`, not its ways).
//! A sweep that takes minutes to *simulate* is predicted in
//! milliseconds, for arbitrarily many sizes at once.
//!
//! `--validate` cross-checks the predictions zoracle-style: every grid
//! point is also simulated (trace replayed through a real
//! `zcache_core` cache under full LRU; the `fully` rows through
//! `LruStack`, a list-based LRU independent of the Fenwick-tree
//! profile), the absolute miss-ratio error is reported per design, and
//! the run fails if any error exceeds the tolerance. `--out FILE`
//! writes the rows as JSON; the committed `BENCH_predict.json` is one
//! such run, pinned with its command line in
//! `crates/zbench/tests/pinned.sh`, which regenerates it.

use crate::opts::{fig_designs, ExpOpts};
use crate::pipeline::{sweep, PointScratch};
use crate::{format_table, lineup};
use zcache_core::model::{self, DistanceProfile, Prediction};
use zcache_core::{ArrayKind, LruStack};
use zsim::L2Design;
use zworkloads::profile::StackProfiler;
use zworkloads::suite::paper_suite_scaled;

/// Options for the predict experiment.
#[derive(Debug, Clone)]
pub struct PredictOpts {
    /// Shared experiment options (scale, cores, instrs, seed, jobs).
    pub exp: ExpOpts,
    /// Cache sizes (total lines) to predict; each must be a power of
    /// two ≥ 64.
    pub sizes: Vec<u64>,
    /// Validation tolerance: maximum |predicted − simulated| miss ratio
    /// allowed per grid point.
    pub tol: f64,
}

/// Default validation tolerance (absolute miss-ratio error) for the
/// finite-associativity designs.
///
/// The fully-associative prediction is *exact* (the stack property;
/// see [`FULLY_TOL`]). Finite associativity adds the §IV uniformity
/// assumption, which the paper itself flags as breaking on strided
/// anti-LRU patterns (Fig. 3a): on the suite's scan-heavy workloads
/// (wupwise, freqmine) the model over-predicts SA-4 misses by up to
/// ~0.135 at smoke scale, while typical workloads land within 0.01.
/// The default bounds the observed worst case with ~10% margin.
pub const DEFAULT_TOL: f64 = 0.15;

/// Validation tolerance for the fully-associative design: an FA-LRU
/// cache of `C` lines hits exactly the references with stack distance
/// `< C` (Mattson), and power-of-two capacities fall on profile bucket
/// boundaries, so prediction and simulation agree to float round-off.
pub const FULLY_TOL: f64 = 1e-9;

impl PredictOpts {
    /// Options wrapping an already-configured [`ExpOpts`], with a
    /// four-size grid derived from its scale and core count.
    pub fn from_exp(exp: ExpOpts) -> Self {
        // Same pressure scaling as the conflicts experiment: base the
        // grid on the traced-core share of the L2, then sweep an octave
        // down and one up.
        let base = (exp.scale.l2_lines * u64::from(exp.cores) / 32).max(1024);
        Self {
            sizes: vec![base / 4, base / 2, base, base * 2],
            exp,
            tol: DEFAULT_TOL,
        }
    }

    /// CI smoke configuration (8 workloads, 3 sizes).
    pub fn smoke() -> Self {
        let mut opts = Self::from_exp(ExpOpts::smoke());
        opts.sizes.truncate(3);
        opts
    }

    /// Validates the size grid (powers of two ≥ 64, non-empty).
    ///
    /// # Errors
    ///
    /// Returns a description of the first bad size.
    pub fn validate_sizes(&self) -> Result<(), String> {
        if self.sizes.is_empty() {
            return Err("at least one size is required".to_string());
        }
        for &s in &self.sizes {
            if s < 64 || !s.is_power_of_two() {
                return Err(format!("size {s} must be a power of two >= 64"));
            }
        }
        Ok(())
    }
}

/// The predicted design lineup: [`fig_designs`] plus the
/// fully-associative reference, which validation checks against
/// [`LruStack`] instead of a simulated array.
///
/// The analytic model sees only `(size, candidates)`, the candidates
/// being [`ArrayKind::candidates`] — SA-16 and Z4/16 predict identically
/// *by construction*, which is the paper's thesis; validation then
/// checks that simulation agrees with that collapse.
pub fn predict_designs() -> Vec<(String, L2Design)> {
    let mut designs = fig_designs();
    let fully = L2Design {
        array: ArrayKind::Fully,
        ..L2Design::baseline()
    };
    designs.push((fully.label(), fully));
    designs
}

/// Summary of one workload's reuse profile.
#[derive(Debug, Clone, Copy)]
pub struct ProfileSummary {
    /// References profiled.
    pub total: u64,
    /// Cold (first-touch) references.
    pub cold: u64,
    /// Distinct lines touched.
    pub distinct: u64,
}

/// Predictions for one workload at one size.
#[derive(Debug, Clone)]
pub struct PredictCell {
    /// Cache size in lines.
    pub lines: u64,
    /// Per-design predictions, in [`predict_designs`] order.
    pub predictions: Vec<Prediction>,
    /// Associativity threshold for this (profile, size): smallest
    /// power-of-two candidate count within 1% of fully associative.
    pub threshold: u32,
}

/// All predictions for one workload.
#[derive(Debug, Clone)]
pub struct PredictRow {
    /// Workload name.
    pub workload: String,
    /// Profile summary.
    pub profile: ProfileSummary,
    /// One cell per requested size.
    pub cells: Vec<PredictCell>,
}

/// One cross-validated grid point.
#[derive(Debug, Clone)]
pub struct ValidationRow {
    /// Workload name.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// Cache size in lines.
    pub lines: u64,
    /// Model-predicted miss ratio.
    pub predicted: f64,
    /// Simulated miss ratio (trace replayed through the real array
    /// under full LRU).
    pub simulated: f64,
}

impl ValidationRow {
    /// Absolute prediction error.
    pub fn abs_error(&self) -> f64 {
        (self.predicted - self.simulated).abs()
    }
}

fn profile_trace(scratch: &PointScratch) -> (DistanceProfile, ProfileSummary) {
    let mut profiler = StackProfiler::new();
    for r in &scratch.trace().refs {
        profiler.record(r.line);
    }
    let distinct = profiler.distinct_lines();
    let p = profiler.into_profile();
    let summary = ProfileSummary {
        total: p.total(),
        cold: p.cold(),
        distinct,
    };
    (
        DistanceProfile::new(p.iter_buckets().collect(), p.cold()),
        summary,
    )
}

/// Runs the analytical sweep: one [`sweep`] point per kept workload,
/// every requested size × design predicted from that workload's
/// profile. No simulation happens anywhere on this path.
pub fn run(opts: &PredictOpts) -> Vec<PredictRow> {
    let exp = &opts.exp;
    let suite = paper_suite_scaled(exp.cores as usize, exp.scale);
    let designs = predict_designs();
    sweep(exp, &suite, exp.kept(suite.len()), |wl, cfg, scratch| {
        scratch.record(&cfg, wl);
        let (profile, summary) = profile_trace(scratch);
        let cells = opts
            .sizes
            .iter()
            .map(|&lines| PredictCell {
                lines,
                predictions: designs
                    .iter()
                    .map(|(_, d)| model::predict(&profile, lines, d.array.candidates(d.ways)))
                    .collect(),
                threshold: model::associativity_threshold(&profile, lines, model::NEAR_FULLY_TOL),
            })
            .collect();
        PredictRow {
            workload: wl.name().to_string(),
            profile: summary,
            cells,
        }
    })
}

/// Runs the cross-validation sweep: every grid point both predicted and
/// simulated. One [`sweep`] point per kept workload; the simulations for
/// all (size, design) pairs of that workload run inside its point, so
/// the output stays byte-identical for any `--jobs`.
pub fn validate(opts: &PredictOpts) -> Vec<ValidationRow> {
    let exp = &opts.exp;
    let suite = paper_suite_scaled(exp.cores as usize, exp.scale);
    let designs = predict_designs();
    let per_workload = sweep(exp, &suite, exp.kept(suite.len()), |wl, cfg, scratch| {
        scratch.record(&cfg, wl);
        let (profile, _) = profile_trace(scratch);
        let trace = scratch.trace();
        let mut rows = Vec::new();
        for &lines in &opts.sizes {
            for (label, design) in &designs {
                let misses = if design.array == ArrayKind::Fully {
                    LruStack::misses(lines, trace.refs.iter().map(|r| r.line))
                } else {
                    let builder = design.builder(lines, cfg.seed);
                    lineup::drive(&builder, trace.accesses()).stats().misses
                };
                let candidates = design.array.candidates(design.ways);
                rows.push(ValidationRow {
                    workload: wl.name().to_string(),
                    design: label.clone(),
                    lines,
                    predicted: model::predict_miss_ratio(&profile, lines, candidates),
                    simulated: misses as f64 / trace.len().max(1) as f64,
                });
            }
        }
        rows
    });
    per_workload.into_iter().flatten().collect()
}

/// Renders the predicted grid: one row per workload × size, one column
/// per design, `*` marking points past the associativity threshold
/// (within 1% of fully associative — Bender et al.'s collapse), plus
/// the threshold itself.
pub fn report(rows: &[PredictRow]) -> String {
    let designs = predict_designs();
    let mut out = String::from(
        "Analytical prediction — miss ratios from reuse-distance profiles (no simulation)\n\
         (* = within 1% of fully associative; n* = associativity threshold)\n\n",
    );
    let mut headers: Vec<String> = vec!["workload".into(), "lines".into()];
    headers.extend(designs.iter().map(|(l, _)| l.clone()));
    headers.push("n*".into());
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut body = Vec::new();
    for row in rows {
        for cell in &row.cells {
            let mut cells = vec![row.workload.clone(), cell.lines.to_string()];
            for p in &cell.predictions {
                let flag = if p.near_fully { "*" } else { " " };
                cells.push(format!("{:.4}{flag}", p.miss_ratio));
            }
            cells.push(cell.threshold.to_string());
            body.push(cells);
        }
    }
    out.push_str(&format_table(&header_refs, &body));
    out
}

/// Renders the cross-validation table plus the per-design worst-case
/// error summary.
pub fn report_validation(rows: &[ValidationRow], tol: f64) -> String {
    let mut out = String::from("Prediction cross-validation — predicted vs simulated (LRU)\n\n");
    let headers = [
        "workload",
        "design",
        "lines",
        "predicted",
        "simulated",
        "|err|",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.design.clone(),
                r.lines.to_string(),
                format!("{:.4}", r.predicted),
                format!("{:.4}", r.simulated),
                format!("{:.4}", r.abs_error()),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    out.push('\n');
    out.push_str(&format!(
        "worst |err| per design (tolerance {tol:.3}; fully must be exact):\n"
    ));
    for (design, err) in worst_errors(rows) {
        let verdict = if err <= design_tol(&design, tol) {
            "ok"
        } else {
            "FAIL"
        };
        out.push_str(&format!("  {design:>6}  {err:.4}  {verdict}\n"));
    }
    out
}

/// Tolerance applied to one design: `tol` for the finite-associativity
/// lineup, [`FULLY_TOL`] for the exact fully-associative reference.
fn design_tol(design: &str, tol: f64) -> f64 {
    if design == "fully" {
        FULLY_TOL
    } else {
        tol
    }
}

/// Whether every design's worst error is within its tolerance.
pub fn within_tolerance(rows: &[ValidationRow], tol: f64) -> bool {
    worst_errors(rows)
        .iter()
        .all(|(design, err)| *err <= design_tol(design, tol))
}

/// Worst absolute error per design label, in lineup order.
pub fn worst_errors(rows: &[ValidationRow]) -> Vec<(String, f64)> {
    predict_designs()
        .iter()
        .map(|(label, _)| {
            let err = rows
                .iter()
                .filter(|r| &r.design == label)
                .map(ValidationRow::abs_error)
                .fold(0.0f64, f64::max);
            (label.clone(), err)
        })
        .collect()
}

/// Serializes the validation run as the JSON artifact `--out` writes.
///
/// Everything in it is a pure function of the options, so regenerating
/// with the same flags is byte-identical, which is what lets
/// `BENCH_predict.json` be pinned.
pub fn to_json(rows: &[ValidationRow], opts: &PredictOpts) -> String {
    let mut s = String::from("{\n  \"version\": \"zbench-predict-v1\",\n");
    s.push_str(&format!(
        "  \"config\": {{\"cores\": {}, \"instrs_per_core\": {}, \"workloads\": {}, \"seed\": {}, \"tol\": {:.4}, \"sizes\": [{}]}},\n",
        opts.exp.cores,
        opts.exp.instrs_per_core,
        opts.exp.max_workloads.map_or(-1i64, |n| n as i64),
        opts.exp.seed,
        opts.tol,
        opts.sizes
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    ));
    s.push_str("  \"worst_errors\": {");
    let worst: Vec<String> = worst_errors(rows)
        .iter()
        .map(|(d, e)| format!("\"{d}\": {e:.6}"))
        .collect();
    s.push_str(&worst.join(", "));
    s.push_str("},\n  \"rows\": [\n");
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"design\": \"{}\", \"lines\": {}, \"predicted\": {:.6}, \"simulated\": {:.6}}}",
                r.workload, r.design, r.lines, r.predicted, r.simulated
            )
        })
        .collect();
    s.push_str(&body.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_opts() -> PredictOpts {
        let mut o = PredictOpts::smoke();
        o.exp.max_workloads = Some(4);
        o.exp.cores = 4;
        o.exp.instrs_per_core = 20_000;
        o.sizes = vec![512, 2048];
        o
    }

    #[test]
    fn grid_covers_workloads_sizes_designs() {
        let opts = test_opts();
        let rows = run(&opts);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.cells.len(), 2);
            assert!(row.profile.total > 0);
            assert!(row.profile.cold >= row.profile.distinct.min(row.profile.cold));
            for cell in &row.cells {
                assert_eq!(cell.predictions.len(), predict_designs().len());
                for p in &cell.predictions {
                    assert!((0.0..=1.0).contains(&p.miss_ratio));
                    assert!(p.miss_ratio >= p.fully_miss_ratio - 1e-12);
                }
                // Fully column is its own reference.
                let fully = cell.predictions.last().unwrap();
                assert!(fully.near_fully);
                assert!((fully.miss_ratio - fully.fully_miss_ratio).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn more_candidates_never_predict_worse() {
        let rows = run(&test_opts());
        for row in &rows {
            for cell in &row.cells {
                // Lineup order: SA-4, SA-16, SA-32 then Z4/4, Z4/16, Z4/52.
                let m: Vec<f64> = cell.predictions.iter().map(|p| p.miss_ratio).collect();
                assert!(m[0] >= m[1] && m[1] >= m[2], "{}: SA", row.workload);
                assert!(m[3] >= m[4] && m[4] >= m[5], "{}: Z", row.workload);
                // The model's built-in collapse: same candidates, same
                // prediction, regardless of physical organization.
                assert_eq!(m[0], m[3], "{}: SA-4 vs Z4/4", row.workload);
                assert_eq!(m[1], m[4], "{}: SA-16 vs Z4/16", row.workload);
            }
        }
    }

    #[test]
    fn report_renders_grid_and_flags() {
        let rows = run(&test_opts());
        let rep = report(&rows);
        assert!(rep.contains("Z4/52"));
        assert!(rep.contains("n*"));
        assert!(rep.contains('*'));
    }

    #[test]
    fn output_is_byte_identical_for_any_jobs() {
        let mut base = test_opts();
        base.exp.jobs = 1;
        let reference = report(&run(&base));
        for jobs in [2, 3, 8] {
            let mut o = test_opts();
            o.exp.jobs = jobs;
            assert_eq!(report(&run(&o)), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn workload_filter_preserves_point_values() {
        let full = run(&test_opts());
        let mut o = test_opts();
        o.exp.max_workloads = Some(2);
        let filtered = run(&o);
        for (a, b) in filtered.iter().zip(&full) {
            assert_eq!(a.workload, b.workload);
            for (ca, cb) in a.cells.iter().zip(&b.cells) {
                assert_eq!(ca.predictions, cb.predictions);
            }
        }
    }

    #[test]
    fn sizes_are_validated() {
        let mut o = test_opts();
        o.sizes = vec![100];
        assert!(o.validate_sizes().is_err());
        o.sizes = vec![];
        assert!(o.validate_sizes().is_err());
        o.sizes = vec![1024];
        assert!(o.validate_sizes().is_ok());
    }

    #[test]
    fn validation_errors_within_tolerance() {
        // The committed acceptance claim at test scale: predicted and
        // simulated fig-lineup miss ratios agree within DEFAULT_TOL,
        // and the fully-associative prediction is exact (stack
        // property), not merely within tolerance.
        let opts = test_opts();
        let rows = validate(&opts);
        assert_eq!(rows.len(), 4 * 2 * predict_designs().len());
        for (design, err) in worst_errors(&rows) {
            let tol = if design == "fully" {
                FULLY_TOL
            } else {
                opts.tol
            };
            assert!(err <= tol, "{design}: worst |err| {err:.4} > tol {tol:.4}");
        }
        let rep = report_validation(&rows, opts.tol);
        assert!(rep.contains("worst |err|"));
        assert!(!rep.contains("FAIL"));
    }

    #[test]
    fn json_is_deterministic() {
        let opts = test_opts();
        let a = to_json(&validate(&opts), &opts);
        let b = to_json(&validate(&opts), &opts);
        assert_eq!(a, b);
        assert!(a.contains("zbench-predict-v1"));
    }
}
