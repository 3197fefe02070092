//! Differential conformance: every production (design × policy) pair
//! against its brute-force `zoracle` reference twin, plus regression
//! replay of the shrunk-repro corpus and a zsim trace-driven sweep.
//!
//! Three layers of the same check:
//!
//! 1. Synthetic streams over the full grid (the `zbench check` sweep in
//!    miniature) — catches regressions in walk order, victim selection,
//!    relocation bookkeeping, or policy state.
//! 2. Corpus replay — every shrunk divergence ever caught is replayed,
//!    so a bug fixed once stays fixed (`tests/corpus/*.trace` and the
//!    mutation-free `*.ptrace` repros; `partition_conformance` replays
//!    the mutant ones).
//! 3. zsim-recorded L2 streams — real workload-shaped traffic (sharing,
//!    write-backs, streaming phases) instead of synthetic mixtures.

use std::path::Path;
use zoracle::{check_grid, corpus, gen_stream, run_diff, Access, CheckConfig};

#[test]
fn full_grid_conforms_on_synthetic_streams() {
    for (i, (design, policy)) in check_grid().into_iter().enumerate() {
        let cfg = CheckConfig::new(design, policy, 64, 4, 1000 + i as u64);
        let trace = gen_stream(8_000, 64, 2000 + i as u64);
        let summary =
            run_diff(&cfg, &trace, 256).unwrap_or_else(|d| panic!("{} diverged: {d}", cfg.label()));
        assert_eq!(summary.accesses, 8_000);
        assert!(summary.misses > 0, "{}: stream too tame", cfg.label());
    }
}

#[test]
fn corpus_repros_stay_fixed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let repros = corpus::load_corpus(&dir).expect("corpus must parse");
    let fixed: Vec<_> = repros.iter().filter(|(_, r)| !r.cfg.quota_bypass).collect();
    for (path, repro) in &fixed {
        if let Err(d) = repro.replay(1) {
            panic!(
                "regression: {} diverges again on {} ({}): {d}",
                repro.cfg.label(),
                path.display(),
                repro.note
            );
        }
    }
    // The corpus is seeded with at least the shrunk slot_on_path repro
    // from the PR-3 mutation check; an empty corpus means the replay
    // test silently checks nothing.
    assert!(
        !fixed.is_empty(),
        "tests/corpus/ holds no fixed-bug repro — the regression corpus was deleted?"
    );
}

#[test]
fn zsim_trace_drives_oracle_cleanly() {
    // Record a real workload's L2 reference stream (write-backs, sharing
    // and streaming phases included) and drive the differential check
    // with it — synthetic mixtures don't produce posted write-back
    // patterns, recorded traces do.
    let mut cfg = zsim::SimConfig::small();
    cfg.cores = 4;
    cfg.instrs_per_core = 30_000;
    let wl = zworkloads::suite::by_name("canneal", 4, zworkloads::suite::Scale::SMALL).unwrap();
    let recorded = zsim::trace::record_trace(&cfg, &wl);
    // Posted write-backs become plain writes; bank interleaving is a
    // timing concern the single-array check deliberately ignores.
    let stream: Vec<Access> = recorded
        .accesses()
        .take(20_000)
        .map(|(addr, write)| Access {
            tenant: 0,
            addr,
            write,
        })
        .collect();
    assert!(stream.len() > 5_000, "trace too short to exercise anything");

    for (design, policy) in check_grid() {
        let check = CheckConfig::new(design, policy, 256, 4, 7);
        run_diff(&check, &stream, 512)
            .unwrap_or_else(|d| panic!("{} on zsim trace: {d}", check.label()));
    }
}

#[test]
fn state_digest_discriminates_between_runs() {
    // The digest is the harness's last line of defense (it catches
    // divergences the per-access observables miss, e.g. wrong policy
    // metadata surfacing many accesses later) — so it must actually
    // discriminate: different hash seeds or different streams must not
    // collide on the final digest.
    let cfg = CheckConfig::new(
        zoracle::CheckDesign::Z3,
        zoracle::CheckPolicy::Lru,
        64,
        4,
        11,
    );
    let trace = gen_stream(4_000, 64, 13);
    let base = run_diff(&cfg, &trace, 64).expect("clean").digest;

    let reseeded = CheckConfig {
        seed: 12,
        ..cfg.clone()
    };
    let other_seed = run_diff(&reseeded, &trace, 64).expect("clean").digest;
    assert_ne!(base, other_seed, "digest blind to hash seeding");

    let other_trace = gen_stream(4_000, 64, 14);
    let other_stream = run_diff(&cfg, &other_trace, 64).expect("clean").digest;
    assert_ne!(base, other_stream, "digest blind to stream contents");
}
