//! Conformance tests for the workload substrate: the trace format must
//! round-trip losslessly (repro files from the differential harness
//! reuse its body format), and the Zipf sampler must match the analytic
//! distribution the paper's locality model assumes.

use std::io::BufReader;
use zhash::SplitMix64;
use zworkloads::trace_io::{read_trace, write_trace};
use zworkloads::{MemRef, ZipfTable};

fn sample_refs() -> Vec<MemRef> {
    let mut rng = SplitMix64::new(11);
    let mut refs: Vec<MemRef> = (0..500)
        .map(|_| MemRef {
            line: rng.next_u64() >> 8, // keep within the 56-bit line space
            write: rng.next_below(10) < 3,
            gap: 1 + rng.next_below(100) as u32,
        })
        .collect();
    // Edge cases: line 0, max gap, back-to-back duplicates.
    refs.push(MemRef {
        line: 0,
        write: true,
        gap: u32::MAX,
    });
    refs.push(MemRef {
        line: 0,
        write: true,
        gap: u32::MAX,
    });
    refs
}

#[test]
fn trace_round_trips_losslessly() {
    let refs = sample_refs();
    let mut buf = Vec::new();
    write_trace(&mut buf, refs.iter().copied()).unwrap();
    let parsed = read_trace(BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(parsed, refs);

    // Second generation: write -> read -> write must be byte-stable,
    // so repeated export/import cannot drift.
    let mut buf2 = Vec::new();
    write_trace(&mut buf2, parsed).unwrap();
    assert_eq!(buf, buf2);
}

#[test]
fn trace_reader_tolerates_comments_and_defaults_gap() {
    let text = "# a comment\n\nR 1a2b\nW 0x1a2c 7\n  r ff  \n";
    let refs = read_trace(BufReader::new(text.as_bytes())).unwrap();
    assert_eq!(
        refs,
        vec![
            MemRef {
                line: 0x1a2b,
                write: false,
                gap: 1
            },
            MemRef {
                line: 0x1a2c,
                write: true,
                gap: 7
            },
            MemRef {
                line: 0xff,
                write: false,
                gap: 1
            },
        ]
    );
}

#[test]
fn trace_reader_rejects_malformed_lines() {
    for bad in ["X 1a2b", "R", "R zzz", "R 1a2b 5 extra", "1a2b"] {
        assert!(
            read_trace(BufReader::new(bad.as_bytes())).is_err(),
            "{bad:?} must be rejected"
        );
    }
}

/// Analytic Zipf(s) probability of rank `r` (0-based) over `n` ranks.
fn zipf_prob(n: u64, s: f64, r: u64) -> f64 {
    let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
    1.0 / ((r + 1) as f64).powf(s) / h
}

#[test]
fn zipf_sample_frequencies_match_analytic_distribution() {
    // The alias-method sampler must reproduce p(r) = r^-s / H(n,s).
    // Check the head ranks (where the paper's temporal locality lives)
    // at 5% relative tolerance, plus the aggregate tail mass.
    for &s in &[0.6, 1.0] {
        let n = 1_000u64;
        let table = ZipfTable::new(n, s);
        let mut rng = SplitMix64::new(42);
        let samples = 2_000_000u64;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            counts[table.sample(&mut rng) as usize] += 1;
        }

        for r in 0..20u64 {
            let expected = zipf_prob(n, s, r) * samples as f64;
            let got = counts[r as usize] as f64;
            assert!(
                (got - expected).abs() / expected < 0.05,
                "s={s} rank {r}: sampled {got}, analytic {expected:.0}"
            );
        }

        let tail_got: u64 = counts[100..].iter().sum();
        let tail_expected: f64 = (100..n).map(|r| zipf_prob(n, s, r)).sum::<f64>() * samples as f64;
        assert!(
            (tail_got as f64 - tail_expected).abs() / tail_expected < 0.05,
            "s={s} tail mass: sampled {tail_got}, analytic {tail_expected:.0}"
        );
    }
}

#[test]
fn zipf_zero_exponent_is_uniform() {
    let n = 256u64;
    let table = ZipfTable::new(n, 0.0);
    let mut rng = SplitMix64::new(5);
    let samples = 256 * 2_000u64;
    let mut counts = vec![0u64; n as usize];
    for _ in 0..samples {
        counts[table.sample(&mut rng) as usize] += 1;
    }
    let expected = samples as f64 / n as f64;
    for (r, &c) in counts.iter().enumerate() {
        assert!(
            (c as f64 - expected).abs() / expected < 0.2,
            "rank {r}: {c} vs uniform {expected}"
        );
    }
}

#[test]
fn zipf_hottest_rank_dominates_at_high_skew() {
    let table = ZipfTable::new(10_000, 1.2);
    let mut rng = SplitMix64::new(9);
    let samples = 100_000u64;
    let rank0 = (0..samples).filter(|_| table.sample(&mut rng) == 0).count();
    let p0 = zipf_prob(10_000, 1.2, 0);
    let got = rank0 as f64 / samples as f64;
    assert!(
        (got - p0).abs() / p0 < 0.1,
        "rank-0 mass {got:.4} vs analytic {p0:.4}"
    );
}
