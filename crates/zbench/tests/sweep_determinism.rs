//! Sweep-engine guarantees: results are byte-identical for any `--jobs`
//! value, and per-point seed derivation is stable under `--workloads`
//! filtering (a filtered run reproduces the unfiltered run's values for
//! every point it retains).

use zbench::opts::{fig_designs, with_policy, ExpOpts};
use zbench::pipeline::sweep;
use zbench::{exp_ablate, exp_fig3, exp_fig4};
use zcache_core::PolicyKind;
use zworkloads::suite::paper_suite_scaled;

fn opts(jobs: usize) -> ExpOpts {
    ExpOpts {
        jobs,
        cores: 4,
        instrs_per_core: 15_000,
        max_workloads: Some(4),
        ..ExpOpts::smoke()
    }
}

#[test]
fn fig3_results_identical_across_job_counts() {
    let serial = exp_fig3::run(&opts(1));
    let parallel = exp_fig3::run(&opts(4));
    // Debug formatting serializes every field at full precision, so this
    // is a bitwise comparison of the complete result set, not just of
    // the rounded report.
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    for panel in exp_fig3::Fig3Panel::all() {
        assert_eq!(
            exp_fig3::report(panel, &serial),
            exp_fig3::report(panel, &parallel)
        );
    }
}

#[test]
fn fig4_results_identical_across_job_counts() {
    let serial = exp_fig4::run(PolicyKind::Lru, &opts(1));
    let parallel = exp_fig4::run(PolicyKind::Lru, &opts(3));
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

#[test]
fn ablate_results_identical_across_job_counts() {
    let o = ExpOpts {
        cores: 4,
        instrs_per_core: 20_000,
        ..opts(1)
    };
    let serial = exp_ablate::run(&o);
    let parallel = exp_ablate::run(&ExpOpts { jobs: 4, ..o });
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// FNV-1a over the exact `Debug` rendering of every raw [`zsim::SimStats`]
/// the fig4 pipeline produces. `SimStats` is integer counters throughout,
/// so the rendering — and hence the digest — is exact, with no float
/// rounding to hide a divergence the derived MPKI/IPC numbers would round
/// away.
fn fig4_simstats_digest(jobs: usize, policy: PolicyKind) -> u64 {
    let o = opts(jobs);
    let designs = with_policy(&fig_designs(), policy);
    let suite = paper_suite_scaled(o.cores as usize, o.scale);
    let points = sweep(&o, &suite, o.kept(suite.len()), |wl, cfg, scratch| {
        scratch.record(&cfg, wl);
        let mut rendered = String::new();
        for (label, design) in &designs {
            let stats = scratch.replay(&cfg.clone().with_l2(*design));
            rendered.push_str(&format!("{}/{label}: {stats:?}\n", wl.name()));
        }
        rendered
    });
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in points.concat().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fig4_simstats_digest_identical_for_any_jobs() {
    // The end-to-end determinism claim at the raw-statistics level:
    // identical seeds give bit-identical SimStats for the fig4
    // record-and-replay configuration no matter how the sweep is
    // scheduled, under both a stateless policy (LRU) and the
    // oracle-consuming one (OPT, which exercises the shared next-use
    // pipeline in the scratch).
    for policy in [PolicyKind::Lru, PolicyKind::Opt] {
        let serial = fig4_simstats_digest(1, policy);
        for jobs in [2, 4] {
            assert_eq!(
                fig4_simstats_digest(jobs, policy),
                serial,
                "jobs={jobs} policy={policy:?}"
            );
        }
    }
}

#[test]
fn workload_filtering_preserves_per_point_seeds() {
    // Point seeds derive from the workload's index in the FULL suite, so
    // truncating the suite must not change the values computed for the
    // workloads that remain: the narrow run's results are a bitwise
    // prefix of the wide run's.
    let narrow = exp_fig4::run(
        PolicyKind::Lru,
        &ExpOpts {
            max_workloads: Some(2),
            ..opts(4)
        },
    );
    let wide = exp_fig4::run(
        PolicyKind::Lru,
        &ExpOpts {
            max_workloads: Some(5),
            ..opts(4)
        },
    );
    assert!(wide.baselines.len() > narrow.baselines.len());
    assert_eq!(
        format!("{:?}", narrow.baselines),
        format!("{:?}", &wide.baselines[..narrow.baselines.len()])
    );
    assert_eq!(
        format!("{:?}", narrow.cells),
        format!("{:?}", &wide.cells[..narrow.cells.len()])
    );
}
