//! End-to-end soak: the full schedule matrix must survive with zero
//! invariant violations, byte-identically across repeat runs, and the
//! robustness machinery must be load-bearing — disabling the retry
//! path or the poison-rebuild path has to make the soak fail within a
//! single schedule.

use std::fs;
use std::path::Path;

use zserve::soak::{replay_repro, run_soak, schedule_matrix, soak_point};
use zserve::ServeConfig;

fn smoke() -> ServeConfig {
    ServeConfig::default().smoke()
}

#[test]
fn full_matrix_survives_chaos() {
    let report = run_soak(&smoke(), &[1, 2], false);
    assert_eq!(report.rows.len(), 16);
    for row in &report.rows {
        assert!(
            row.violations.is_empty(),
            "schedule {} seed {} violated: {:?}",
            row.schedule,
            row.seed,
            row.violations
        );
    }
    // The matrix must have actually hurt: faults fired, recovery ran.
    let total =
        |f: fn(&zserve::ServeStats) -> u64| report.rows.iter().map(|r| f(&r.stats)).sum::<u64>();
    assert!(total(|s| s.dropped_replies) > 0);
    assert!(total(|s| s.shard_crashes) > 0);
    assert!(total(|s| s.shard_rebuilds) > 0);
    assert!(total(|s| s.retries) > 0);
    assert!(total(|s| s.queue_rejections) > 0);
    assert!(total(|s| s.budget_reductions) > 0);
    assert!(total(|s| s.budget_restorations) > 0);
}

#[test]
fn soak_report_is_byte_identical_across_runs() {
    let a = run_soak(&smoke(), &[3], false);
    let b = run_soak(&smoke(), &[3], false);
    assert_eq!(a.to_text(), b.to_text());
    assert!(!a.to_text().is_empty());
}

#[test]
fn disabling_retries_fails_the_drop_schedule() {
    let mut cfg = smoke();
    cfg.retries_enabled = false;
    let schedule = schedule_matrix(&cfg, 1)
        .into_iter()
        .find(|s| s.name == "drop")
        .unwrap();
    let row = soak_point(&cfg, &schedule, 1, true);
    assert!(
        !row.violations.is_empty(),
        "drop schedule must fail without retries"
    );
    // The shrunk repro must itself replay to a failure.
    let repro = row.repro.expect("violated point must carry a repro");
    let replayed = replay_repro(&cfg, &repro).unwrap();
    assert!(!replayed.violations.is_empty(), "repro did not reproduce");
}

#[test]
fn disabling_rebuild_fails_the_poison_schedule() {
    let mut cfg = smoke();
    cfg.rebuild_enabled = false;
    let schedule = schedule_matrix(&cfg, 1)
        .into_iter()
        .find(|s| s.name == "poison")
        .unwrap();
    let row = soak_point(&cfg, &schedule, 1, true);
    assert!(
        !row.violations.is_empty(),
        "poison schedule must fail without rebuild"
    );
    let repro = row.repro.expect("violated point must carry a repro");
    let replayed = replay_repro(&cfg, &repro).unwrap();
    assert!(!replayed.violations.is_empty(), "repro did not reproduce");
}

/// Every committed repro in the workspace's `tests/corpus/serve_*.txt`,
/// where `zbench serve --chaos` writes its shrunk repros, must replay
/// clean against the current service — the same regression pattern the
/// zoracle conformance corpus uses.
#[test]
fn corpus_repros_replay_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut seen = 0;
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("serve_") || !name.ends_with(".txt") {
            continue;
        }
        seen += 1;
        let text = fs::read_to_string(&path).unwrap();
        let row = replay_repro(&smoke(), &text).unwrap();
        assert!(
            row.violations.is_empty(),
            "{name} regressed: {:?}",
            row.violations
        );
    }
    assert!(seen > 0, "corpus must contain at least one serve repro");
}
