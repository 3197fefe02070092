//! `zbench perf` — end-to-end simulator throughput (accesses/sec).
//!
//! Every figure sweep is bottlenecked on the per-access path in
//! `zcache-core` (lookup → candidate expansion → policy scoring →
//! install), so this experiment measures that path directly: a
//! fixed-seed Zipf reference stream is replayed through the standard
//! design lineup and the wall-clock accesses/sec of each (design ×
//! policy) pair is reported and written to `BENCH_access.json`.
//!
//! The stream, seeds and geometries are pinned so runs are comparable
//! across commits. Comparing two commits takes an interleaved A/B run on
//! one host (`bench/ab.sh`); a number measured at another commit is not
//! a baseline.
//!
//! `--sim` extends the measurement one level up: instead of a bare
//! array, it times the full zsim CMP path (L1s → MESI directory → banked
//! L2 → bank ports → memory channels) in execution mode, plus the
//! fig4-style trace pipeline (record once into reused buffers, compute
//! the next-use oracle only when OPT replays need it, replay against the
//! whole design lineup). Those are the loops
//! the fig4/fig5 sweeps spend their wall-clock in, so `BENCH_sim.json`
//! tracks end-to-end simulated-accesses/sec the same way
//! `BENCH_access.json` tracks the raw array path.

use crate::lineup;
use crate::pipeline::PointScratch;
use std::hint::black_box;
use std::time::Instant;
use zcache_core::{ArrayKind, CacheBuilder, PolicyKind};
use zhash::HashKind;
use zsim::{L2Design, SimConfig, System};
use zworkloads::suite::{by_name, Scale};
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
    /// Timed repetitions per pair; the reported throughput is the best
    /// rep. Wall-clock noise on a shared single core is strictly
    /// additive (scheduler preemption, cold TLBs), so the fastest rep is
    /// the least-biased estimator of the access path's true cost.
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
    /// Misses over the timed window.
    pub misses: u64,
    /// Timed accesses.
    pub accesses: u64,
    /// Measured throughput.
    pub accesses_per_sec: f64,
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
pub fn run(opts: &PerfOpts, filter: Option<&RowFilter>) -> Vec<PerfRow> {
    let refs = gen_refs(opts.warmup + opts.accesses, opts.seed);
    let (warm, timed) = refs.split_at(opts.warmup);
    let mut rows = Vec::new();
    for (design, policy, lines, builder) in grid(opts.seed, filter) {
        let mut best: Option<PerfRow> = None;
        for _ in 0..opts.reps.max(1) {
            let mut cache = lineup::drive(&builder, warm.iter().copied());
            cache.reset_stats();
            let t0 = Instant::now();
            lineup::feed(&mut cache, timed.iter().copied());
            let dt = t0.elapsed().as_secs_f64().max(1e-9);
            let stats = black_box(cache.stats());
            let row = PerfRow {
                design,
                policy,
                lines,
                misses: stats.misses,
                accesses: stats.accesses,
                accesses_per_sec: stats.accesses as f64 / dt,
            };
            if best
                .as_ref()
                .is_none_or(|b| row.accesses_per_sec > b.accesses_per_sec)
            {
                best = Some(row);
            }
        }
        rows.push(best.expect("reps >= 1"));
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
pub fn report(rows: &[PerfRow]) -> String {
    let mut out = String::from("Access-path throughput (accesses/sec, fixed-seed Zipf stream)\n\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.design.to_string(),
                r.policy.to_string(),
                r.lines.to_string(),
                format!("{:.1}%", 100.0 * r.misses as f64 / r.accesses as f64),
                format!("{:.2}M", r.accesses_per_sec / 1e6),
            ]
        })
        .collect();
    out.push_str(&crate::format_table(
        &["design", "policy", "lines", "miss", "acc/s"],
        &table,
    ));
    out
}

/// Serializes the rows (plus run metadata) as the `BENCH_access.json`
/// artifact. Hand-rolled JSON: the build environment has no serde.
pub fn to_json(rows: &[PerfRow], opts: &PerfOpts) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"zbench-perf-v2\",\n");
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&format!("  \"warmup\": {},\n", opts.warmup));
    out.push_str(&format!("  \"accesses\": {},\n", opts.accesses));
    out.push_str(&format!("  \"reps\": {},\n", opts.reps));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"policy\": \"{}\", \"lines\": {}, \"misses\": {}, \
             \"accesses\": {}, \"accesses_per_sec\": {:.1}}}{}\n",
            r.design,
            r.policy,
            r.lines,
            r.misses,
            r.accesses,
            r.accesses_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Options for the end-to-end simulation throughput run (`perf --sim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPerfOpts {
    /// Simulated cores.
    pub cores: u32,
    /// Instructions per core per timed run.
    pub instrs_per_core: u64,
    /// Base seed (the workload streams are pure functions of it).
    pub seed: u64,
    /// Timed repetitions per row; the best rep is reported (wall-clock
    /// noise on a shared core is strictly additive).
    pub reps: usize,
}

impl Default for SimPerfOpts {
    fn default() -> Self {
        Self {
            cores: 8,
            instrs_per_core: 150_000,
            seed: 1,
            reps: 3,
        }
    }
}

impl SimPerfOpts {
    /// A ~2-second smoke configuration for CI.
    pub fn smoke() -> Self {
        Self {
            cores: 4,
            instrs_per_core: 40_000,
            seed: 1,
            reps: 1,
        }
    }

    fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.cores = self.cores;
        cfg.l1_lines = Scale::SMALL.l1_lines;
        cfg.l2_lines = Scale::SMALL.l2_lines;
        cfg.instrs_per_core = self.instrs_per_core;
        cfg.seed = crate::point_seed(self.seed, 0);
        cfg
    }
}

/// One measured end-to-end simulation row.
#[derive(Debug, Clone)]
pub struct SimPerfRow {
    /// Row label: `exec-sa4` / `exec-z4` (execution-driven `System::run`
    /// of one design) or `fig4` (record + replay the full design lineup).
    pub design: &'static str,
    /// Policy label (`lru` or `opt`).
    pub policy: &'static str,
    /// Simulated accesses processed in the timed section (L1 data
    /// references; for `fig4` rows, the recording run's references plus
    /// the trace length once per replayed design).
    pub sim_accesses: u64,
    /// Best-rep wall-clock seconds.
    pub secs: f64,
    /// Measured end-to-end throughput.
    pub accesses_per_sec: f64,
}

/// The workload mix every sim row runs, chosen to span the regimes the
/// 72-workload fig4 suite is made of: canneal (miss-heavy pointer chase —
/// walks, directory churn, inclusion victims, memory queueing), gcc
/// (mid-locality mix), blackscholes (L1-resident, recording-dominated)
/// and cactusADM (streaming grid). Each row's accesses and wall-clock
/// are summed over the mix, so the reported accesses/sec is the
/// suite-shaped aggregate, not a single workload's extreme.
pub const SIM_WORKLOADS: &[&str] = &["canneal", "gcc", "blackscholes", "cactusADM"];

/// Runs the end-to-end rows: execution-driven SA-4 and Z4/52, then the
/// fig4-style trace pipeline (record + replay all six lineup designs)
/// under LRU and OPT. Every row aggregates the [`SIM_WORKLOADS`] mix.
pub fn run_sim(opts: &SimPerfOpts) -> Vec<SimPerfRow> {
    let cfg = opts.sim_config();
    let wls: Vec<_> = SIM_WORKLOADS
        .iter()
        .map(|name| {
            by_name(name, opts.cores as usize, Scale::SMALL).expect("sim workload is in the suite")
        })
        .collect();
    let mut rows = Vec::new();

    for (label, design) in [
        ("exec-sa4", L2Design::setassoc(4)),
        ("exec-z4", L2Design::zcache(4, 3)),
    ] {
        let mut best: Option<SimPerfRow> = None;
        for _ in 0..opts.reps.max(1) {
            let mut accesses = 0u64;
            let mut secs = 0.0f64;
            for wl in &wls {
                let run_cfg = cfg.clone().with_l2(design);
                let t0 = Instant::now();
                let mut sys = System::new(run_cfg);
                let stats = sys.run(wl);
                secs += t0.elapsed().as_secs_f64();
                black_box(&stats);
                accesses += stats.l1.accesses;
            }
            let secs = secs.max(1e-9);
            let row = SimPerfRow {
                design: label,
                policy: "lru",
                sim_accesses: accesses,
                secs,
                accesses_per_sec: accesses as f64 / secs,
            };
            if best
                .as_ref()
                .is_none_or(|b| row.accesses_per_sec > b.accesses_per_sec)
            {
                best = Some(row);
            }
        }
        rows.push(best.expect("reps >= 1"));
    }

    for (pname, policy) in [("lru", PolicyKind::Lru), ("opt", PolicyKind::Opt)] {
        let designs = crate::opts::with_policy(&crate::opts::fig_designs(), policy);
        let mut best: Option<SimPerfRow> = None;
        // The sweep pipeline under measurement: one scratch streams every
        // (workload, rep) through reused buffers, exactly like fig4/fig5.
        let mut scratch = PointScratch::new();
        for _ in 0..opts.reps.max(1) {
            let mut accesses = 0u64;
            let mut secs = 0.0f64;
            for wl in &wls {
                let t0 = Instant::now();
                scratch.record(&cfg, wl);
                // Count the references actually pushed through the
                // pipeline: the recording run's L1 accesses plus one
                // replay of the trace per lineup design.
                accesses += scratch.trace().l1_stats.accesses;
                for (_, design) in &designs {
                    let stats = scratch.replay(&cfg.clone().with_l2(*design));
                    black_box(&stats);
                    accesses += scratch.trace().len() as u64;
                }
                secs += t0.elapsed().as_secs_f64();
            }
            let secs = secs.max(1e-9);
            let row = SimPerfRow {
                design: "fig4",
                policy: pname,
                sim_accesses: accesses,
                secs,
                accesses_per_sec: accesses as f64 / secs,
            };
            if best
                .as_ref()
                .is_none_or(|b| row.accesses_per_sec > b.accesses_per_sec)
            {
                best = Some(row);
            }
        }
        rows.push(best.expect("reps >= 1"));
    }
    rows
}

/// Formats the sim rows as a table.
pub fn report_sim(rows: &[SimPerfRow]) -> String {
    let mut out = String::from(
        "End-to-end simulation throughput (simulated accesses/sec, fig4-style config)\n\n",
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.design.to_string(),
                r.policy.to_string(),
                r.sim_accesses.to_string(),
                format!("{:.3}s", r.secs),
                format!("{:.2}M", r.accesses_per_sec / 1e6),
            ]
        })
        .collect();
    out.push_str(&crate::format_table(
        &["design", "policy", "accesses", "time", "acc/s"],
        &table,
    ));
    out
}

/// Serializes the sim rows (plus run metadata) as the `BENCH_sim.json`
/// artifact. Hand-rolled JSON: the build environment has no serde.
pub fn to_json_sim(rows: &[SimPerfRow], opts: &SimPerfOpts) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"zbench-sim-v2\",\n");
    out.push_str(&format!("  \"seed\": {},\n", opts.seed));
    out.push_str(&format!("  \"cores\": {},\n", opts.cores));
    out.push_str(&format!(
        "  \"instrs_per_core\": {},\n",
        opts.instrs_per_core
    ));
    out.push_str(&format!("  \"reps\": {},\n", opts.reps));
    let wl_list = SIM_WORKLOADS
        .iter()
        .map(|w| format!("\"{w}\""))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("  \"workloads\": [{wl_list}],\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"policy\": \"{}\", \"sim_accesses\": {}, \
             \"secs\": {:.4}, \"accesses_per_sec\": {:.1}}}{}\n",
            r.design,
            r.policy,
            r.sim_accesses,
            r.secs,
            r.accesses_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A `design:policy` row filter for `zbench perf` (`--filter`).
///
/// Either side may be empty (wildcard): `z3:` keeps every policy of
/// design `z3`, `:lru` keeps LRU rows of every design, `fig4:opt` keeps
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
            reps: 1,
        }
    }

    #[test]
    fn lineup_covers_grid() {
        let rows = run(&tiny(), None);
        assert_eq!(rows.len(), 18);
        for r in &rows {
            assert_eq!(r.accesses, 2_000);
            assert!(r.accesses_per_sec > 0.0);
            assert!(r.misses <= r.accesses);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let opts = tiny();
        let rows = run(&opts, None);
        let json = to_json(&rows, &opts);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches("\"design\"").count(), 18);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert!(json.contains("\"schema\": \"zbench-perf-v2\""));
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
        let rep = report(&rows);
        for d in ["sa-h3", "skew", "z2", "z3", "z4", "fully"] {
            assert!(rep.contains(d), "{rep}");
        }
    }
}
