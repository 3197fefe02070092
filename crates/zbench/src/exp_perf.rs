//! `zbench perf` — access-path throughput (accesses/sec) of the design
//! lineup.
//!
//! Every figure sweep is bottlenecked on the per-access path in
//! `zcache-core` (lookup → candidate expansion → policy scoring →
//! install), so this experiment measures that path directly: a
//! fixed-seed Zipf reference stream is replayed `reps` times through
//! each (design × policy) pair of the standard lineup, and the median,
//! min and max accesses/sec of each pair are reported and written to
//! `BENCH_access.json`.
//!
//! The stream, seeds and geometries are pinned so runs are comparable
//! across commits. Comparing two commits takes an interleaved A/B run on
//! one host (`bench/ab.sh`); a number measured at another commit is not
//! a baseline. End-to-end simulator times (trace record and replay,
//! execution-driven `System::run`) come from `bench/`'s fig4-sweep and
//! exec-z4-52 workloads.

use crate::lineup;
use std::hint::black_box;
use std::time::Instant;
use zcache_core::{ArrayKind, CacheBuilder, PolicyKind};
use zhash::HashKind;
use zworkloads::{AddressStream, Component, CoreSpec, Workload};

/// Options for the throughput run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfOpts {
    /// Timed accesses per (design × policy) pair.
    pub accesses: usize,
    /// Untimed warm-up accesses before the clock starts.
    pub warmup: usize,
    /// Stream seed (the stream is a pure function of it).
    pub seed: u64,
    /// Timed repetitions per pair, each on a freshly built cache; the
    /// median, min and max throughput over them are reported. A single
    /// rep on a shared core can swing by tens of percent, so the spread
    /// is part of the result, not noise to be hidden behind one rep.
    pub reps: usize,
}

impl Default for PerfOpts {
    fn default() -> Self {
        Self {
            accesses: 1_000_000,
            warmup: 200_000,
            seed: 1,
            reps: 5,
        }
    }
}

impl PerfOpts {
    /// A ~2-second smoke configuration for CI.
    pub fn smoke() -> Self {
        Self {
            accesses: 60_000,
            warmup: 20_000,
            seed: 1,
            reps: 1,
        }
    }
}

/// One measured (design × policy) pair.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Short design label (`sa-h3`, `skew`, `z2`, `z3`, `z4`, `fully`).
    pub design: &'static str,
    /// Policy label (`lru`, `bucketed-lru`, `lfu`).
    pub policy: &'static str,
    /// Cache frames.
    pub lines: u64,
    /// Misses over the timed window (the same in every rep).
    pub misses: u64,
    /// Timed accesses per rep.
    pub accesses: u64,
    /// The throughput of every rep, ascending and never empty (private
    /// so that [`PerfRow::min`], `median` and `max` can rely on it).
    accesses_per_sec: Vec<f64>,
}

impl PerfRow {
    /// The slowest rep's throughput.
    pub fn min(&self) -> f64 {
        self.accesses_per_sec[0]
    }

    /// The median throughput (the mean of the middle pair for an even
    /// rep count).
    pub fn median(&self) -> f64 {
        let s = &self.accesses_per_sec;
        (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
    }

    /// The fastest rep's throughput.
    pub fn max(&self) -> f64 {
        self.accesses_per_sec[self.accesses_per_sec.len() - 1]
    }
}

/// The measured lineup: the paper's main designs at a 4096-frame scale
/// (fully-associative at 1024 frames — its per-miss cost is `O(lines)`
/// by design and 4096 frames would dominate the run without adding
/// information).
fn designs() -> Vec<(&'static str, ArrayKind, u64)> {
    vec![
        ("sa-h3", ArrayKind::SetAssoc { hash: HashKind::H3 }, 4096),
        ("skew", ArrayKind::Skew, 4096),
        ("z2", ArrayKind::ZCache { levels: 2 }, 4096),
        ("z3", ArrayKind::ZCache { levels: 3 }, 4096),
        ("z4", ArrayKind::ZCache { levels: 4 }, 4096),
        ("fully", ArrayKind::Fully, 1024),
    ]
}

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("lru", PolicyKind::Lru),
        ("bucketed-lru", PolicyKind::BucketedLru { bits: 8, k: 204 }),
        ("lfu", PolicyKind::Lfu),
    ]
}

/// The measured grid, filtered: `(design, policy, lines, builder)` per
/// kept pair, seeded with `seed`.
fn grid(
    seed: u64,
    filter: Option<&RowFilter>,
) -> Vec<(&'static str, &'static str, u64, CacheBuilder)> {
    let mut out = Vec::new();
    for (dname, kind, lines) in designs() {
        for (pname, policy) in policies() {
            if filter.is_none_or(|f| f.matches(dname, pname)) {
                let builder = lineup::builder(kind, 4, lines, seed).policy(policy);
                out.push((dname, pname, lines, builder));
            }
        }
    }
    out
}

/// The pinned reference stream: single-core Zipf(0.8) over a 16K-line
/// footprint with 20% writes, as `(line, write)` pairs.
pub fn gen_refs(n: usize, seed: u64) -> Vec<(u64, bool)> {
    let wl = Workload::uniform(
        "perf",
        CoreSpec::new(
            vec![(
                1.0,
                Component::Zipf {
                    lines: 16_384,
                    s: 0.8,
                },
            )],
            0.2,
            1,
        ),
    );
    let mut s = wl.streams(1, seed).remove(0);
    (0..n)
        .map(|_| {
            let r = s.next_ref();
            (r.line, r.write)
        })
        .collect()
}

/// Runs the lineup and returns one row per (design × policy) pair the
/// filter keeps (every pair without one).
///
/// # Panics
///
/// Panics if `reps` or `accesses` is 0, or if two reps of a pair see
/// different miss counts: each rep rebuilds its cache from the same
/// seed, so only the clock may differ between them.
pub fn run(opts: &PerfOpts, filter: Option<&RowFilter>) -> Vec<PerfRow> {
    assert!(opts.reps > 0, "reps must be positive");
    assert!(opts.accesses > 0, "accesses must be positive");
    let refs = gen_refs(opts.warmup + opts.accesses, opts.seed);
    let (warm, timed) = refs.split_at(opts.warmup);
    let mut rows = Vec::new();
    for (design, policy, lines, builder) in grid(opts.seed, filter) {
        let mut misses = Vec::new();
        let mut accesses_per_sec = Vec::new();
        let mut accesses = 0;
        for _ in 0..opts.reps {
            let mut cache = lineup::drive(&builder, warm.iter().copied());
            cache.reset_stats();
            let t0 = Instant::now();
            lineup::feed(&mut cache, timed.iter().copied());
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            let stats = black_box(cache.stats());
            misses.push(stats.misses);
            accesses = stats.accesses;
            accesses_per_sec.push(stats.accesses as f64 / dt);
        }
        assert!(
            misses.iter().all(|&m| m == misses[0]),
            "{design}:{policy}: reps disagree on misses {misses:?}"
        );
        accesses_per_sec.sort_by(f64::total_cmp);
        rows.push(PerfRow {
            design,
            policy,
            lines,
            misses: misses[0],
            accesses,
            accesses_per_sec,
        });
    }
    rows
}

/// Deepest walk in the design lineup (`z4` = 4 levels); sizes the
/// profile's level histogram.
const PROFILE_MAX_LEVELS: usize = 4;

/// One `--profile walks` row: the per-miss walk-shape distribution of a
/// (design × policy) pair over the pinned reference stream.
///
/// Everything here is a deterministic count — no wall clock — so the
/// report is byte-stable across runs and machines and needs no reps.
#[derive(Debug, Clone)]
pub struct WalkProfileRow {
    /// Design name (see `designs()`).
    pub design: &'static str,
    /// Policy name (see `policies()`).
    pub policy: &'static str,
    /// Misses profiled (= walks performed).
    pub misses: u64,
    /// `level_hist[l]` = misses whose walk touched exactly `l + 1`
    /// levels of the tree.
    pub level_hist: [u64; PROFILE_MAX_LEVELS],
    /// Tag reads per miss (walk reads only, relocations excluded),
    /// as (min, median, max) plus the exact total for the mean.
    pub tag_reads_min: u64,
    /// Median walk tag reads.
    pub tag_reads_p50: u64,
    /// Largest single walk.
    pub tag_reads_max: u64,
    /// Total walk tag reads (for the mean).
    pub tag_reads_total: u64,
    /// Total candidates gathered (the effective associativity numerator).
    pub candidates_total: u64,
}

/// Runs the `--profile walks` measurement: replays the same pinned
/// stream as [`run`] and classifies every miss by its
/// [`zcache_core::WalkStats`]-tracked shape, recovered access-by-access
/// from the cache's cumulative counters (walk reads = tag-read delta
/// minus relocation delta, exactly how the miss path folds them in).
pub fn run_walk_profile(opts: &PerfOpts, filter: Option<&RowFilter>) -> Vec<WalkProfileRow> {
    let refs = gen_refs(opts.warmup + opts.accesses, opts.seed);
    let (warm, timed) = refs.split_at(opts.warmup);
    let mut rows = Vec::new();
    let mut walk_reads: Vec<u64> = Vec::new();
    for (design, policy, _, builder) in grid(opts.seed, filter) {
        let mut cache = lineup::drive(&builder, warm.iter().copied());
        cache.reset_stats();
        let mut row = WalkProfileRow {
            design,
            policy,
            misses: 0,
            level_hist: [0; PROFILE_MAX_LEVELS],
            tag_reads_min: u64::MAX,
            tag_reads_p50: 0,
            tag_reads_max: 0,
            tag_reads_total: 0,
            candidates_total: 0,
        };
        walk_reads.clear();
        let mut prev = cache.stats().clone();
        for &r in timed {
            lineup::feed(&mut cache, [r]);
            let cur = cache.stats().clone();
            if cur.misses > prev.misses {
                let levels = (cur.walk_levels - prev.walk_levels) as usize;
                let reads = (cur.tag_reads - prev.tag_reads) - (cur.relocations - prev.relocations);
                row.level_hist[levels.clamp(1, PROFILE_MAX_LEVELS) - 1] += 1;
                row.misses += 1;
                row.tag_reads_min = row.tag_reads_min.min(reads);
                row.tag_reads_max = row.tag_reads_max.max(reads);
                row.tag_reads_total += reads;
                row.candidates_total += cur.candidates_examined - prev.candidates_examined;
                walk_reads.push(reads);
            }
            prev = cur;
        }
        if row.misses == 0 {
            row.tag_reads_min = 0;
        } else {
            walk_reads.sort_unstable();
            row.tag_reads_p50 = walk_reads[walk_reads.len() / 2];
        }
        rows.push(row);
    }
    rows
}

/// Formats the walk profile as a deterministic table.
pub fn report_walk_profile(rows: &[WalkProfileRow], opts: &PerfOpts) -> String {
    let mut out = format!(
        "Walk profile (per-miss, fixed-seed Zipf stream, seed {}, {} accesses; \
         counts only — byte-stable across runs)\n\n",
        opts.seed, opts.accesses
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let m = r.misses.max(1) as f64;
            let mut cols = vec![
                r.design.to_string(),
                r.policy.to_string(),
                r.misses.to_string(),
                format!("{:.2}", r.candidates_total as f64 / m),
            ];
            for l in 0..PROFILE_MAX_LEVELS {
                cols.push(if r.level_hist[l] == 0 {
                    "-".into()
                } else {
                    format!("{:.1}%", 100.0 * r.level_hist[l] as f64 / m)
                });
            }
            cols.push(format!(
                "{}/{}/{:.1}/{}",
                r.tag_reads_min,
                r.tag_reads_p50,
                r.tag_reads_total as f64 / m,
                r.tag_reads_max
            ));
            cols
        })
        .collect();
    out.push_str(&crate::format_table(
        &[
            "design",
            "policy",
            "misses",
            "cands/miss",
            "lvl1",
            "lvl2",
            "lvl3",
            "lvl4",
            "tagreads min/p50/mean/max",
        ],
        &table,
    ));
    out
}

/// Formats the rows as a table.
pub fn report(rows: &[PerfRow], opts: &PerfOpts) -> String {
    let mut out = format!(
        "Access-path throughput (accesses/sec over {} reps, fixed-seed Zipf stream)\n\n",
        opts.reps
    );
    let mega = |v: f64| format!("{:.2}M", v / 1e6);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.design.to_string(),
                r.policy.to_string(),
                r.lines.to_string(),
                format!("{:.1}%", 100.0 * r.misses as f64 / r.accesses as f64),
                mega(r.median()),
                mega(r.min()),
                mega(r.max()),
            ]
        })
        .collect();
    out.push_str(&crate::format_table(
        &["design", "policy", "lines", "miss", "median", "min", "max"],
        &table,
    ));
    out
}

/// Serializes the rows (plus run metadata) as the `BENCH_access.json`
/// artifact. Hand-rolled JSON: the build environment has no serde.
pub fn to_json(rows: &[PerfRow], opts: &PerfOpts) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"zbench-perf-v3\",\n");
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&format!("  \"warmup\": {},\n", opts.warmup));
    out.push_str(&format!("  \"accesses\": {},\n", opts.accesses));
    out.push_str(&format!("  \"reps\": {},\n", opts.reps));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"policy\": \"{}\", \"lines\": {}, \"misses\": {}, \
             \"accesses\": {}, \"accesses_per_sec_median\": {:.1}, \
             \"accesses_per_sec_min\": {:.1}, \"accesses_per_sec_max\": {:.1}}}{}\n",
            r.design,
            r.policy,
            r.lines,
            r.misses,
            r.accesses,
            r.median(),
            r.min(),
            r.max(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A `design:policy` row filter for `zbench perf` (`--filter`).
///
/// Either side may be empty (wildcard): `z3:` keeps every policy of
/// design `z3`, `:lru` keeps LRU rows of every design, `z3:lru` keeps
/// one row. Returns `None` for a malformed pattern (more than one `:`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowFilter {
    design: Option<String>,
    policy: Option<String>,
}

impl RowFilter {
    /// Parses `pattern`; `None` if it contains more than one `:`.
    pub fn parse(pattern: &str) -> Option<Self> {
        let mut parts = pattern.splitn(2, ':');
        let design = parts.next().unwrap_or("");
        let policy = parts.next().unwrap_or("");
        if pattern.matches(':').count() > 1 {
            return None;
        }
        Some(Self {
            design: (!design.is_empty()).then(|| design.to_string()),
            policy: (!policy.is_empty()).then(|| policy.to_string()),
        })
    }

    /// Whether a `(design, policy)` pair passes the filter.
    pub fn matches(&self, design: &str, policy: &str) -> bool {
        self.design.as_deref().is_none_or(|d| d == design)
            && self.policy.as_deref().is_none_or(|p| p == policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PerfOpts {
        PerfOpts {
            accesses: 2_000,
            warmup: 500,
            seed: 1,
            reps: 3,
        }
    }

    #[test]
    fn lineup_covers_grid() {
        let rows = run(&tiny(), None);
        let one_rep = run(&PerfOpts { reps: 1, ..tiny() }, None);
        assert_eq!(rows.len(), 18);
        for (r, r1) in rows.iter().zip(&one_rep) {
            assert_eq!(r.accesses, 2_000);
            assert_eq!(r.accesses_per_sec.len(), 3);
            assert!(0.0 < r.min() && r.min() <= r.median() && r.median() <= r.max());
            assert!(r.misses <= r.accesses);
            // `run` asserts that the three reps agree; one rep agrees too.
            assert_eq!(r.misses, r1.misses, "{}:{}", r.design, r.policy);
        }
    }

    #[test]
    fn median_takes_the_middle_rep() {
        let row = |rates: &[f64]| PerfRow {
            design: "z3",
            policy: "lru",
            lines: 4096,
            misses: 0,
            accesses: 1,
            accesses_per_sec: rates.to_vec(),
        };
        let odd = row(&[1.0, 2.0, 9.0]);
        assert_eq!((odd.min(), odd.median(), odd.max()), (1.0, 2.0, 9.0));
        assert_eq!(row(&[1.0, 2.0, 4.0, 9.0]).median(), 3.0);
        assert_eq!(row(&[5.0]).median(), 5.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let opts = tiny();
        let rows = run(&opts, None);
        let json = to_json(&rows, &opts);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"design\"").count(), 18);
        for key in ["median", "min", "max"] {
            let key = format!("\"accesses_per_sec_{key}\"");
            assert_eq!(json.matches(&key).count(), 18, "{key}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(json.contains("\"schema\": \"zbench-perf-v3\""));
        assert!(!json.contains("baseline"), "no pinned baselines: {json}");
    }

    #[test]
    fn stream_is_seed_deterministic() {
        assert_eq!(gen_refs(100, 7), gen_refs(100, 7));
        assert_ne!(gen_refs(100, 7), gen_refs(100, 8));
        assert!(gen_refs(1_000, 1).iter().any(|&(_, w)| w), "no writes");
    }

    #[test]
    fn report_lists_all_designs() {
        let rows = run(&tiny(), None);
        let rep = report(&rows, &tiny());
        for d in [
            "sa-h3", "skew", "z2", "z3", "z4", "fully", "median", "min", "max",
        ] {
            assert!(rep.contains(d), "{rep}");
        }
    }
}
