//! Trace-driven simulation: record the L2 reference stream once, then
//! replay it against any L2 design.
//!
//! This is how the paper runs OPT (§VI-B): Belady's policy needs the
//! future, so the L2 stream is recorded with fixed L1s and replayed with
//! next-use annotations. Replaying the *same* trace against every design
//! also removes the (second-order) feedback of inclusion victims on L1
//! contents, which the paper's trace-driven mode accepts as well.

use crate::config::SimConfig;
use crate::l2::L2;
use crate::stats::SimStats;
use zcache_core::{CacheStats, PolicyKind, SeededMap};
use zworkloads::{AddressStream, Workload, ZipfCache};

/// Fixed seed for the next-use oracle's last-seen map (layout never
/// escapes — only next-use positions do).
const NEXT_USE_SEED: u64 = 0x0b75_ace1_0f75_ace1;

/// One recorded L2 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// Issuing core.
    pub core: u32,
    /// Line address.
    pub line: u64,
    /// Store (write-back or store-miss fill) vs load.
    pub write: bool,
    /// Demand access (stalls the core) vs posted write-back.
    pub demand: bool,
    /// Core work (instructions ≡ cycles at IPC = 1) since this core's
    /// previous L2 access.
    pub work: u32,
}

/// A recorded L2 reference stream plus the L1-side statistics of the
/// recording run (reused for every replay so energy accounting stays
/// comparable).
#[derive(Debug, Clone, Default)]
pub struct L2Trace {
    /// Global-order references.
    pub refs: Vec<TraceRef>,
    /// Instructions the recording run executed.
    pub instructions: u64,
    /// Cores recorded.
    pub cores: u32,
    /// Merged L1 statistics of the recording run.
    pub l1_stats: CacheStats,
}

impl L2Trace {
    /// Number of recorded references.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Flattens the trace to `(line, write)` pairs in global order —
    /// the shape the `zoracle` differential harness consumes, so a
    /// recorded workload stream can drive a production cache and its
    /// brute-force reference twin in lockstep (posted write-backs become
    /// plain writes; bank interleaving is a timing concern the
    /// single-array conformance check deliberately ignores).
    pub fn conformance_stream(&self) -> Vec<(u64, bool)> {
        self.refs.iter().map(|r| (r.line, r.write)).collect()
    }

    /// Computes, for each reference, the position of the next reference
    /// to the same line (`u64::MAX` if never) — the OPT oracle.
    pub fn next_uses(&self) -> Vec<u64> {
        let mut next = Vec::new();
        let mut last = SeededMap::with_capacity(1024, NEXT_USE_SEED);
        self.next_uses_into(&mut next, &mut last);
        next
    }

    /// Buffer-reusing form of [`L2Trace::next_uses`]: one backward pass
    /// over the trace, filling `next` (cleared first) and using `last` as
    /// line → latest-position scratch (also cleared first). Sweeps call
    /// this once per grid point with long-lived buffers so the oracle
    /// costs no steady-state allocation.
    pub fn next_uses_into(&self, next: &mut Vec<u64>, last: &mut SeededMap<u64>) {
        next.clear();
        next.resize(self.refs.len(), u64::MAX);
        last.clear();
        for (i, r) in self.refs.iter().enumerate().rev() {
            let (slot, present) = last.get_or_insert_with(r.line, || i as u64);
            if present {
                next[i] = *slot;
                *slot = i as u64;
            }
        }
    }
}

/// The core with the earliest next event, and that event's time: a
/// linear argmin over per-core times that picks the smallest
/// `(time, core)` pair, the exact order a binary heap would pop.
fn next_event(next_time: &[u64]) -> (usize, u64) {
    let mut core = 0usize;
    let mut now = u64::MAX;
    for (c, &t) in next_time.iter().enumerate() {
        if t < now {
            now = t;
            core = c;
        }
    }
    (core, now)
}

/// Runs `workload` through per-core L1s (no timing-accurate L2) and
/// records the resulting L2 reference stream.
///
/// Cores are interleaved on a fixed nominal L1-miss penalty, so the
/// interleaving is deterministic and design-independent.
pub fn record_trace(cfg: &SimConfig, workload: &Workload) -> L2Trace {
    let mut trace = L2Trace::default();
    record_trace_into(cfg, workload, &mut ZipfCache::new(), &mut trace);
    trace
}

/// Buffer-reusing form of [`record_trace`]: overwrites `trace` in place
/// (the reference `Vec` keeps its capacity across grid points) and pulls
/// Zipf tables from `zipf` instead of rebuilding them per call. Produces
/// exactly the trace [`record_trace`] does.
pub fn record_trace_into(
    cfg: &SimConfig,
    workload: &Workload,
    zipf: &mut ZipfCache,
    trace: &mut L2Trace,
) {
    const NOMINAL_MISS_STALL: u64 = 30;
    let cores = cfg.cores as usize;
    let mut l1s: Vec<_> = (0..cfg.cores).map(|c| cfg.build_l1(c)).collect();
    let mut streams = workload.streams_cached(cores, cfg.seed, zipf);
    let mut instrs = vec![0u64; cores];
    let mut pending_work = vec![0u32; cores];
    trace.refs.clear();
    let refs = &mut trace.refs;

    let mut next_time = vec![0u64; cores];
    let mut active = cores;
    while active > 0 {
        let (c, now) = next_event(&next_time);
        let r = streams[c].next_ref();
        instrs[c] += u64::from(r.gap);
        pending_work[c] = pending_work[c].saturating_add(r.gap);
        let out = l1s[c].access_full(r.line, r.write, u64::MAX);
        let mut next = now + u64::from(r.gap);
        if out.is_miss() {
            if let (Some(ev), true) = (out.evicted, out.evicted_dirty) {
                refs.push(TraceRef {
                    core: c as u32,
                    line: ev,
                    write: true,
                    demand: false,
                    work: 0,
                });
            }
            refs.push(TraceRef {
                core: c as u32,
                line: r.line,
                write: r.write,
                demand: true,
                work: pending_work[c],
            });
            pending_work[c] = 0;
            next += NOMINAL_MISS_STALL;
        }
        if instrs[c] < cfg.instrs_per_core {
            next_time[c] = next;
        } else {
            next_time[c] = u64::MAX;
            active -= 1;
        }
    }

    let mut l1_stats = CacheStats::new();
    for l1 in &l1s {
        l1_stats.merge(l1.stats());
    }
    trace.instructions = instrs.iter().sum();
    trace.cores = cfg.cores;
    trace.l1_stats = l1_stats;
}

/// Reusable working state for [`replay_with`]: per-core reference
/// queues, cursors and clocks. One instance per worker amortises the
/// allocations across every `(design, policy)` replay of a sweep.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    queues: Vec<Vec<u32>>,
    heads: Vec<usize>,
    cycles: Vec<u64>,
    next_time: Vec<u64>,
}

impl ReplayScratch {
    /// An empty scratch (buffers grow on first use, then stick).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Replays a recorded trace against the configured L2 design, with full
/// timing (bank latency, memory queueing) and next-use annotations so
/// [`PolicyKind::Opt`] works.
///
/// Convenience wrapper over [`replay_with`]: computes the next-use
/// oracle internally when the policy needs it.
pub fn replay(cfg: &SimConfig, trace: &L2Trace) -> SimStats {
    let mut scratch = ReplayScratch::new();
    if cfg.l2.policy == PolicyKind::Opt {
        let next_uses = trace.next_uses();
        replay_with(cfg, trace, Some(&next_uses), &mut scratch)
    } else {
        replay_with(cfg, trace, None, &mut scratch)
    }
}

/// Replays `trace` like [`replay`], reusing `scratch` across calls and
/// taking the next-use oracle from the caller.
///
/// `next_uses` is only read by [`PolicyKind::Opt`] (the only policy that
/// consults future knowledge), so callers replaying under other policies
/// pass `None` and skip the oracle's backward pass entirely; sweeps
/// replaying one trace under OPT across many designs compute it once via
/// [`L2Trace::next_uses_into`] and share the slice.
///
/// # Panics
///
/// Panics if the policy is OPT and `next_uses` is `None` (a silent
/// `u64::MAX` fallback would degrade OPT to noise), or if `next_uses` is
/// shorter than the trace.
pub fn replay_with(
    cfg: &SimConfig,
    trace: &L2Trace,
    next_uses: Option<&[u64]>,
    scratch: &mut ReplayScratch,
) -> SimStats {
    assert!(
        cfg.l2.policy != PolicyKind::Opt || next_uses.is_some(),
        "OPT replay requires next-use annotations"
    );
    if let Some(n) = next_uses {
        assert!(n.len() >= trace.refs.len(), "next-use oracle too short");
    }
    let cores = trace.cores.max(1) as usize;
    let mut l2 = L2::new(cfg);

    // Per-core reference queues, in global order (buffers reused).
    if scratch.queues.len() < cores {
        scratch.queues.resize_with(cores, Vec::new);
    }
    let queues = &mut scratch.queues[..cores];
    for q in queues.iter_mut() {
        q.clear();
    }
    for (i, r) in trace.refs.iter().enumerate() {
        queues[r.core as usize].push(i as u32);
    }
    scratch.heads.clear();
    scratch.heads.resize(cores, 0);
    let heads = &mut scratch.heads[..];
    scratch.cycles.clear();
    scratch.cycles.resize(cores, 0);
    let cycles = &mut scratch.cycles[..];
    scratch.next_time.clear();
    scratch.next_time.resize(cores, 0);
    let next_time = &mut scratch.next_time[..];

    let mut active = 0usize;
    for (c, q) in queues.iter().enumerate() {
        if q.is_empty() {
            next_time[c] = u64::MAX;
        } else {
            next_time[c] = 0;
            active += 1;
        }
    }
    while active > 0 {
        let (c, now) = next_event(next_time);
        let pos = queues[c][heads[c]] as usize;
        heads[c] += 1;
        let r = &trace.refs[pos];
        let next_use = next_uses.map_or(u64::MAX, |n| n[pos]);
        let mut next = now + u64::from(r.work);

        if r.demand {
            next += l2.demand(r.line, r.write, next_use, next).0;
        } else {
            // Posted write-back: never stalls the core.
            l2.post_writeback(r.line, next_use, next);
        }

        cycles[c] = next;
        if heads[c] < queues[c].len() {
            next_time[c] = next;
        } else {
            next_time[c] = u64::MAX;
            active -= 1;
        }
    }

    l2.sim_stats(
        trace.instructions,
        cycles,
        trace.cores,
        trace.l1_stats.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2Design;
    use zworkloads::suite::{by_name, Scale};

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::small();
        cfg.cores = 4;
        cfg.instrs_per_core = 30_000;
        cfg
    }

    #[test]
    fn record_produces_demand_refs_and_work() {
        let wl = by_name("gcc", 4, Scale::SMALL).unwrap();
        let t = record_trace(&tiny_cfg(), &wl);
        assert!(!t.is_empty());
        assert!(t.instructions >= 4 * 30_000);
        assert!(t.refs.iter().any(|r| r.demand));
        let total_work: u64 = t.refs.iter().map(|r| u64::from(r.work)).sum();
        assert!(total_work <= t.instructions);
    }

    #[test]
    fn record_is_deterministic() {
        let wl = by_name("mcf", 4, Scale::SMALL).unwrap();
        let a = record_trace(&tiny_cfg(), &wl);
        let b = record_trace(&tiny_cfg(), &wl);
        assert_eq!(a.refs, b.refs);
    }

    #[test]
    fn next_uses_point_forward_to_same_line() {
        let wl = by_name("gcc", 4, Scale::SMALL).unwrap();
        let t = record_trace(&tiny_cfg(), &wl);
        let nu = t.next_uses();
        for (i, r) in t.refs.iter().enumerate().take(2_000) {
            let n = nu[i];
            if n != u64::MAX {
                assert!(n > i as u64);
                assert_eq!(t.refs[n as usize].line, r.line);
            }
        }
    }

    #[test]
    fn replay_under_lru_roughly_matches_execution_mpki() {
        // Trace-driven LRU and execution-driven LRU differ only in
        // inclusion feedback and coherence, so MPKI should be close.
        let wl = by_name("cactusADM", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg();
        let t = record_trace(&cfg, &wl);
        let replayed = replay(&cfg, &t);
        let executed = crate::System::new(cfg).run(&wl);
        let (a, b) = (replayed.l2_mpki(), executed.l2_mpki());
        assert!(
            (a - b).abs() / b.max(1e-9) < 0.35,
            "trace {a} vs exec {b} MPKI"
        );
    }

    #[test]
    fn opt_beats_lru_on_reuse_heavy_trace() {
        let wl = by_name("cactusADM", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg();
        let t = record_trace(&cfg, &wl);
        let lru = replay(&cfg, &t);
        let opt_cfg = cfg.with_l2(L2Design::baseline().with_policy(PolicyKind::Opt));
        let opt = replay(&opt_cfg, &t);
        assert!(
            opt.l2.misses <= lru.l2.misses,
            "OPT {} vs LRU {} misses",
            opt.l2.misses,
            lru.l2.misses
        );
    }

    #[test]
    fn more_candidates_do_not_increase_opt_misses() {
        // Under OPT, associativity can only help (no policy ill-effects):
        // Z4/52 must not miss more than SA-4 on the same trace.
        let wl = by_name("omnetpp", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg();
        let t = record_trace(&cfg, &wl);
        let sa = replay(
            &cfg.clone()
                .with_l2(L2Design::baseline().with_policy(PolicyKind::Opt)),
            &t,
        );
        let z = replay(
            &cfg.with_l2(L2Design::zcache(4, 3).with_policy(PolicyKind::Opt)),
            &t,
        );
        assert!(
            z.l2.misses as f64 <= sa.l2.misses as f64 * 1.02,
            "Z4/52 {} vs SA-4 {}",
            z.l2.misses,
            sa.l2.misses
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let wl = by_name("milc", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg();
        let t = record_trace(&cfg, &wl);
        assert_eq!(replay(&cfg, &t), replay(&cfg, &t));
    }

    #[test]
    fn record_into_reused_buffers_matches_fresh() {
        let cfg = tiny_cfg();
        let mut zipf = ZipfCache::new();
        let mut t = L2Trace::default();
        // Overwrite the same trace with a bigger workload first so the
        // second recording runs into non-empty, differently-sized buffers.
        record_trace_into(
            &cfg,
            &by_name("canneal", 4, Scale::SMALL).unwrap(),
            &mut zipf,
            &mut t,
        );
        let wl = by_name("gcc", 4, Scale::SMALL).unwrap();
        record_trace_into(&cfg, &wl, &mut zipf, &mut t);
        let fresh = record_trace(&cfg, &wl);
        assert_eq!(t.refs, fresh.refs);
        assert_eq!(t.instructions, fresh.instructions);
        assert_eq!(t.l1_stats, fresh.l1_stats);
    }

    #[test]
    fn replay_with_reused_scratch_matches_fresh() {
        let wl = by_name("omnetpp", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg();
        let t = record_trace(&cfg, &wl);
        let mut nu = Vec::new();
        let mut last = SeededMap::with_capacity(1024, NEXT_USE_SEED);
        t.next_uses_into(&mut nu, &mut last);
        assert_eq!(nu, t.next_uses());
        let mut scratch = ReplayScratch::new();
        for design in [
            L2Design::baseline(),
            L2Design::zcache(4, 3),
            L2Design::baseline().with_policy(PolicyKind::Opt),
        ] {
            let dcfg = cfg.clone().with_l2(design);
            let oracle = (dcfg.l2.policy == PolicyKind::Opt).then_some(nu.as_slice());
            let reused = replay_with(&dcfg, &t, oracle, &mut scratch);
            assert_eq!(reused, replay(&dcfg, &t), "design {design:?}");
        }
    }

    #[test]
    fn non_opt_replay_ignores_next_use_oracle() {
        // Only OPT consults next-use; handing LRU the oracle (or not)
        // must not change a single statistic.
        let wl = by_name("milc", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg();
        let t = record_trace(&cfg, &wl);
        let nu = t.next_uses();
        let mut scratch = ReplayScratch::new();
        let with = replay_with(&cfg, &t, Some(&nu), &mut scratch);
        let without = replay_with(&cfg, &t, None, &mut scratch);
        assert_eq!(with, without);
    }

    #[test]
    #[should_panic(expected = "OPT replay requires next-use annotations")]
    fn opt_replay_without_oracle_panics() {
        let cfg = tiny_cfg().with_l2(L2Design::baseline().with_policy(PolicyKind::Opt));
        let t = L2Trace {
            cores: 1,
            ..Default::default()
        };
        replay_with(&cfg, &t, None, &mut ReplayScratch::new());
    }
}
