//! `zbench serve` guarantees: the soak report and its JSON artifact
//! are byte-identical for any `--jobs` value, because each soak point
//! is virtual-time deterministic and [`zbench::SweepRunner`] merges
//! points in canonical order.

use zbench::exp_serve::{self, ServeMode};
use zserve::ServeConfig;

fn smoke() -> ServeConfig {
    ServeConfig::default().smoke()
}

#[test]
fn chaos_soak_identical_across_job_counts() {
    let cfg = smoke();
    let seeds = [5, 6];
    let serial = exp_serve::run(&cfg, &seeds, ServeMode::Chaos, 1, false);
    for jobs in 2..=8 {
        let parallel = exp_serve::run(&cfg, &seeds, ServeMode::Chaos, jobs, false);
        assert_eq!(
            serial.to_text(),
            parallel.to_text(),
            "soak text diverged at jobs={jobs}"
        );
        assert_eq!(
            exp_serve::to_json(&serial, &cfg, &seeds),
            exp_serve::to_json(&parallel, &cfg, &seeds),
            "JSON artifact diverged at jobs={jobs}"
        );
    }
    assert_eq!(serial.rows.len(), 16);
    assert_eq!(serial.violations(), 0);
}

#[test]
fn baseline_mode_is_a_subset_of_chaos() {
    let cfg = smoke();
    let baseline = exp_serve::run(&cfg, &[9], ServeMode::Baseline, 2, false);
    let chaos = exp_serve::run(&cfg, &[9], ServeMode::Chaos, 2, false);
    assert_eq!(baseline.rows.len(), 1);
    // The baseline point must be the same point the chaos matrix runs
    // first — mode filters the schedule list, it does not perturb it.
    assert_eq!(baseline.rows[0], chaos.rows[0]);
}
