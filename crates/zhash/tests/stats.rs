//! Statistical quality tests for the hashing substrate.
//!
//! The paper's analytical model (§IV) assumes the per-way hash functions
//! draw candidates uniformly and independently; these tests check that
//! the H3 implementation actually delivers that (and so does `Mix64`,
//! which seeds the tag indexes and samples adaptive's shadow sets), that
//! bit-selection shows the pathologies H3 is there to fix, and that the
//! Bloom filter hits its designed false-positive rate. Everything is
//! seeded and deterministic: the chi-square bounds are loose enough (6
//! sigma) that a failure means a broken hash, not an unlucky seed.

use zhash::{BitSelect, BloomFilter, H3Hash, Hasher64, Mix64, SplitMix64};

const INDEX_BITS: u32 = 8;
const BUCKETS: usize = 1 << INDEX_BITS;

/// Chi-square statistic of `counts` against a uniform expectation.
fn chi_square(counts: &[u64], samples: u64) -> f64 {
    let expected = samples as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// Loose upper acceptance bound for a chi-square with `k - 1` degrees of
/// freedom: mean + 6 standard deviations.
fn chi_square_bound(k: usize) -> f64 {
    let dof = (k - 1) as f64;
    dof + 6.0 * (2.0 * dof).sqrt()
}

/// The seeded hashes that index the arrays and their tag indexes.
fn index_hashes(seed: u64) -> [(&'static str, Box<dyn Hasher64>); 2] {
    [
        ("H3", Box::new(H3Hash::new(seed))),
        ("Mix64", Box::new(Mix64::new(seed))),
    ]
}

#[test]
fn hashed_indices_are_uniform_over_sequential_addresses() {
    // Sequential line addresses are the worst realistic input (maximum
    // low-bit structure); the hashes must still spread them uniformly.
    for seed in [1u64, 42, 0xdead_beef] {
        for (name, h) in index_hashes(seed) {
            let samples = 64 * BUCKETS as u64;
            let mut counts = vec![0u64; BUCKETS];
            for addr in 0..samples {
                counts[h.index(addr, INDEX_BITS) as usize] += 1;
            }
            let chi2 = chi_square(&counts, samples);
            assert!(
                chi2 < chi_square_bound(BUCKETS),
                "{name} seed {seed}: chi2 {chi2:.1} over bound {:.1}",
                chi_square_bound(BUCKETS)
            );
        }
    }
}

#[test]
fn hashed_indices_are_uniform_over_strided_addresses() {
    // Power-of-two strides alias catastrophically under bit selection;
    // the hashes must be stride-blind.
    for stride in [2u64, 64, 256, 4096] {
        for (name, h) in index_hashes(7) {
            let samples = 64 * BUCKETS as u64;
            let mut counts = vec![0u64; BUCKETS];
            for i in 0..samples {
                counts[h.index(i * stride, INDEX_BITS) as usize] += 1;
            }
            let chi2 = chi_square(&counts, samples);
            assert!(
                chi2 < chi_square_bound(BUCKETS),
                "{name} stride {stride}: chi2 {chi2:.1}"
            );
        }
    }
}

#[test]
fn h3_output_bit_pairs_are_independent() {
    // Pairwise independence is the property the H3 construction
    // guarantees (Carter & Wegman): for any two output bits, the four
    // (bit_i, bit_j) combinations must be equally likely. Checked for
    // every adjacent pair and a spread of distant pairs.
    let h = H3Hash::new(1234);
    let pairs: Vec<(u32, u32)> = (0..15u32)
        .map(|i| (i, i + 1))
        .chain([(0, 31), (3, 17), (7, 40), (11, 63)])
        .collect();
    let samples = 1u64 << 16;
    for &(i, j) in &pairs {
        let mut counts = [0u64; 4];
        for x in 0..samples {
            let v = h.hash(x);
            let bi = (v >> i) & 1;
            let bj = (v >> j) & 1;
            counts[(bi * 2 + bj) as usize] += 1;
        }
        let chi2 = chi_square(&counts, samples);
        assert!(
            chi2 < chi_square_bound(4),
            "bits ({i},{j}): joint distribution skewed, chi2 {chi2:.1}, counts {counts:?}"
        );
    }
}

#[test]
fn distinct_h3_seeds_give_distinct_functions() {
    // The zcache hands each way its own seed; colliding functions would
    // silently collapse the candidate set to one row per block.
    let a = H3Hash::new(1);
    let b = H3Hash::new(2);
    let differing = (0..1024u64)
        .filter(|&x| a.index(x, INDEX_BITS) != b.index(x, INDEX_BITS))
        .count();
    assert!(
        differing > 900,
        "seeds 1 and 2 agree on {} of 1024 indices",
        1024 - differing
    );
}

#[test]
fn bitselect_covers_all_indices_on_sequential_addresses() {
    // Bit selection is the identity on the low bits: sequential
    // addresses must sweep every index exactly uniformly.
    let h = BitSelect;
    let mut counts = vec![0u64; BUCKETS];
    for addr in 0..(4 * BUCKETS as u64) {
        counts[h.index(addr, INDEX_BITS) as usize] += 1;
    }
    assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
}

#[test]
fn bitselect_collapses_on_power_of_two_strides() {
    // The pathology motivating hashed indexing (§II): a 2^b stride maps
    // every address to a single set under bit selection, while H3
    // spreads the same stream over most of the table.
    let stride = 1u64 << INDEX_BITS;
    let bitsel_used: std::collections::HashSet<u64> = (0..1024u64)
        .map(|i| BitSelect.index(i * stride, INDEX_BITS))
        .collect();
    assert_eq!(bitsel_used.len(), 1, "bit selection must alias the stride");

    let h3 = H3Hash::new(9);
    let h3_used: std::collections::HashSet<u64> = (0..1024u64)
        .map(|i| h3.index(i * stride, INDEX_BITS))
        .collect();
    assert!(
        h3_used.len() > BUCKETS / 2,
        "H3 only reached {} of {BUCKETS} indices",
        h3_used.len()
    );
}

#[test]
fn bloom_false_positive_rate_matches_design_point() {
    // for_capacity sizes at ~10 bits/key with 7 hashes — a ~1% design
    // FPR. Insert n keys, probe n disjoint keys, and require the
    // measured FPR to stay under 3% (3x slack on the design point) and
    // above zero-ish saturation anomalies.
    let n = 10_000u64;
    let mut filter = BloomFilter::for_capacity(n);
    let mut rng = SplitMix64::new(77);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u64() | 1).collect();
    for &k in &keys {
        filter.insert(k);
    }
    for &k in &keys {
        assert!(filter.contains(k), "no false negatives allowed");
    }
    let false_positives = (0..n)
        .map(|_| rng.next_u64() & !1) // disjoint from inserted (odd) keys
        .filter(|&k| filter.contains(k))
        .count();
    let fpr = false_positives as f64 / n as f64;
    assert!(fpr < 0.03, "FPR {fpr:.4} exceeds 3x the 1% design point");
}

#[test]
fn bloom_fpr_degrades_gracefully_when_overfilled() {
    // The walk dedup filter (§III-D) is cleared per walk, but if a
    // misconfiguration overfills it the filter must degrade to false
    // positives, never false negatives.
    let mut filter = BloomFilter::for_capacity(64);
    let mut rng = SplitMix64::new(3);
    let keys: Vec<u64> = (0..640).map(|_| rng.next_u64()).collect();
    for &k in &keys {
        filter.insert(k);
    }
    for &k in &keys {
        assert!(filter.contains(k));
    }
}
