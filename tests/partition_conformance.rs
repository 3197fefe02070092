//! Partitioned-cache differential conformance: the production
//! [`PartitionedCache`] against its brute-force `zoracle` reference
//! twin, in lockstep over every tenant mix × policy pair, plus
//! regression replay of the `.ptrace` corpus.
//!
//! Three layers, mirroring `oracle_conformance`:
//!
//! 1. The [`part_check_grid`] in miniature — every access compares
//!    hit/miss, the budget-capped candidate list, the quota victim,
//!    relocations, write-back flags, and the per-tenant occupancy
//!    recount; divergence anywhere fails the pair.
//! 2. Corpus replay — every committed repro carrying the
//!    `# mutation: quota-bypass` header is replayed and must *still
//!    diverge* (the lockstep keeps catching the enforcement mutant);
//!    `oracle_conformance` replays the mutation-free repros, which
//!    record fixed bugs and must stay fixed.
//! 3. Mutation adequacy — the quota-bypass mutant must be caught
//!    within a bounded access count on every grid pair, so the
//!    differential harness is demonstrably sensitive to enforcement
//!    bugs (not just walk/policy bugs).
//!
//! [`PartitionedCache`]: zcache_core::PartitionedCache

use std::path::Path;
use zoracle::{corpus, part_check_grid, run_diff, PartMix};

#[test]
fn partition_grid_conforms_on_synthetic_streams() {
    for (i, (mix, policy)) in part_check_grid().into_iter().enumerate() {
        let cfg = mix.config(policy, 64, 4, 3000 + i as u64);
        let trace = mix.gen_stream(8_000, cfg.lines, 4000 + i as u64);
        let summary =
            run_diff(&cfg, &trace, 256).unwrap_or_else(|d| panic!("{} diverged: {d}", cfg.label()));
        assert_eq!(summary.accesses, 8_000);
        assert!(summary.misses > 0, "{}: stream too tame", cfg.label());
        assert!(
            summary.cross_evictions > 0,
            "{}: tenants never contended",
            cfg.label()
        );
    }
}

#[test]
fn partition_corpus_repros_replay() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let repros = corpus::load_corpus(&dir).expect("corpus must parse");
    let mutants: Vec<_> = repros.iter().filter(|(_, r)| r.cfg.quota_bypass).collect();
    for (path, repro) in &mutants {
        assert!(
            repro.replay(1).is_err(),
            "mutant repro {} ({}) no longer diverges — the lockstep \
             stopped catching the quota-bypass mutation",
            path.display(),
            repro.note
        );
    }
    // `zbench tenants --check --mutate quota-bypass` seeds the corpus
    // with at least one shrunk mutant repro; an empty corpus means the
    // replay test silently checks nothing.
    assert!(
        !mutants.is_empty(),
        "tests/corpus/ holds no partition mutant repro"
    );
}

#[test]
fn quota_bypass_mutant_is_caught_on_every_pair() {
    for (i, (mix, policy)) in part_check_grid().into_iter().enumerate() {
        let mut cfg = mix.config(policy, 64, 4, 5000 + i as u64);
        cfg.quota_bypass = true;
        // The asymmetric mix diverges almost immediately (the scanners
        // flood past quota within the first few hundred installs); the
        // symmetric twins hover near their grants, so enforcement binds
        // only when the occupancy drifts — allow a longer horizon there.
        let bound: usize = match mix {
            PartMix::HotVsScan => 10_000,
            PartMix::Twins => 100_000,
        };
        let trace = mix.gen_stream(bound, cfg.lines, 6000 + i as u64);
        let d = match run_diff(&cfg, &trace, 256) {
            Err(d) => d,
            Ok(_) => panic!(
                "{}: quota-bypass mutant escaped {bound} accesses",
                cfg.label()
            ),
        };
        assert!(
            d.index < bound,
            "{}: mutant caught only at access #{}",
            cfg.label(),
            d.index
        );
    }
}

#[test]
fn partitioned_sweep_matches_solo_projection() {
    // End-to-end tie between the zworkloads mixer and the partitioned
    // cache: a tenant's subsequence of the interleaved stream is
    // schedule-independent, so feeding the full mix to a quota'd cache
    // and feeding only tenant 0's refs to a solo cache must produce
    // the *same per-tenant reference stream* — the property that makes
    // `zbench tenants` solo-vs-partitioned MPKI deltas exact.
    let lines = 256u64;
    let mixes = zworkloads::standard_mixes(lines);
    let mix = &mixes[0];
    let mut zipf = zworkloads::ZipfCache::new();
    let mut a = mix.stream(11, &mut zipf);
    let mut b = mix.stream(11, &mut zipf);
    let solo_refs: Vec<zworkloads::MemRef> = std::iter::from_fn(|| Some(a.next_tagged()))
        .filter(|(t, _)| *t == 0)
        .map(|(_, r)| r)
        .take(2_000)
        .collect();
    let mut seen = 0usize;
    while seen < solo_refs.len() {
        let (t, r) = b.next_tagged();
        if t == 0 {
            assert_eq!(r, solo_refs[seen], "ref {seen} differs between replays");
            seen += 1;
        }
    }
    assert_eq!(seen, 2_000);

    // And the partitioned cache keeps per-tenant occupancy exact under
    // that mixed stream (incremental counters vs exhaustive recount).
    let cfg = zcache_core::PartitionConfig::new(
        lines,
        4,
        3,
        zcache_core::PolicyKind::Lru,
        11,
        (0..mix.tenant_count())
            .map(|t| zcache_core::TenantGrant {
                quota: (lines as f64 * mix.weight(t)
                    / (0..mix.tenant_count()).map(|u| mix.weight(u)).sum::<f64>())
                    as u64,
                walk_budget: u32::MAX,
            })
            .collect(),
    );
    let mut cache = zcache_core::PartitionedCache::new(&cfg);
    let mut c = mix.stream(11, &mut zipf);
    for _ in 0..20_000 {
        let (t, r) = c.next_tagged();
        cache.access(t, r.line, r.write);
    }
    assert_eq!(cache.occupancies(), cache.recount_occupancy());
}
