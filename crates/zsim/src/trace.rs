//! Trace-driven simulation: record the L2 reference stream once, then
//! replay it against any L2 design.
//!
//! This is how the paper runs OPT (§VI-B): Belady's policy needs the
//! future, so the L2 stream is recorded with fixed L1s and replayed with
//! next-use annotations. Replaying the *same* trace against every design
//! also removes the (second-order) feedback of inclusion victims on L1
//! contents, which the paper's trace-driven mode accepts as well.
//!
//! Every buffer holds only what it needs. A [`TraceRef`] is 16 bytes
//! (line, work, core, two flags), and [`record_trace_into`] trims the
//! trace to its length. The OPT oracle of [`L2Trace::fill_next_uses`]
//! holds one `u32` position per reference, with `u32::MAX` for "never
//! used again"; its pass keys a table of bare `u32` positions by the
//! lines they point at, 4 bytes per slot, and drops it at the end. The
//! replay groups the trace's positions by core in one flat index, which
//! an [`IndexedTrace`] builds once per recording. A trace therefore
//! holds fewer than 2³² references, and the oracle and the replay
//! refuse a longer one.

use crate::config::SimConfig;
use crate::l2::L2;
use crate::sched::Scheduler;
use crate::stats::SimStats;
use zcache_core::{CacheStats, PolicyKind, SeededMap};
use zhash::{Hasher64, Mix64};
use zworkloads::{AddressStream, Workload, ZipfCache};

/// Fixed seed of the next-use pass's start slots (layout never escapes
/// — only next-use positions do).
const NEXT_USE_SEED: u64 = 0x0b75_ace1_0f75_ace1;

/// Slots of the next-use table before its first doubling: 512 lines
/// at load ≤ ½, in 4 KiB.
const NEXT_USE_SLOTS: usize = 1024;

/// The next-use oracle's "never used again" position.
pub const NEVER: u32 = u32::MAX;

/// One recorded L2 access, 16 bytes: the line, the work before it and
/// the issuing core, in fields ordered so no byte is padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRef {
    /// Line address.
    pub line: u64,
    /// Core work (instructions ≡ cycles at IPC = 1) since this core's
    /// previous L2 access.
    pub work: u32,
    /// Issuing core; [`record_trace_into`] refuses more than 2¹⁶ cores.
    pub core: u16,
    /// Store (write-back or store-miss fill) vs load.
    pub write: bool,
    /// Demand access (stalls the core) vs posted write-back.
    pub demand: bool,
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

    /// The references as `(line, write)` pairs in global order, read in
    /// place: the stream single-array experiments drive their caches
    /// with (posted write-backs become plain writes).
    pub fn accesses(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.refs.iter().map(|r| (r.line, r.write))
    }

    /// Computes, for each reference, the position of the next reference
    /// to the same line ([`NEVER`] if none) — the OPT oracle.
    pub fn next_uses(&self) -> Vec<u32> {
        let mut next = Vec::new();
        self.fill_next_uses(&mut next);
        next
    }

    /// Buffer-reusing form of [`L2Trace::next_uses`]: one backward pass
    /// over the trace, filling `next` (cleared first) with one `u32`
    /// position per reference, [`NEVER`] where the line is not used
    /// again. The pass finds each line's latest position in a table of
    /// bare `u32` positions, 4 bytes per slot, allocated for the pass and
    /// dropped when it ends, so nothing but `next` outlives it.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds 2³² or more references: the last
    /// position would not fit below [`NEVER`].
    pub fn fill_next_uses(&self, next: &mut Vec<u32>) {
        check_positions(self.refs.len());
        next.clear();
        next.resize(self.refs.len(), NEVER);
        let mut latest = LatestUse::new(&self.refs);
        for (i, r) in self.refs.iter().enumerate().rev() {
            next[i] = latest.replace(r.line, i as u32);
        }
    }

    /// The map-based reference of [`L2Trace::fill_next_uses`]: the same
    /// positions, found through `last`, a line → latest-position
    /// [`SeededMap`] of 12 bytes per slot (cleared first). Tests run the
    /// two in lockstep; bench's traced fig4 drive times this one as
    /// `zsim.oracle_s`.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds 2³² or more references: the last
    /// position would not fit below [`NEVER`].
    pub fn next_uses_into(&self, next: &mut Vec<u32>, last: &mut SeededMap<u32>) {
        check_positions(self.refs.len());
        next.clear();
        next.resize(self.refs.len(), NEVER);
        last.clear();
        for (i, r) in self.refs.iter().enumerate().rev() {
            let (slot, present) = last.get_or_insert_with(r.line, || i as u32);
            if present {
                next[i] = *slot;
                *slot = i as u32;
            }
        }
    }
}

/// The next-use pass's line → latest-position table: open addressing
/// over bare `u32` positions. [`NEVER`] marks an empty slot, and a
/// slot's key is read back as `refs[pos].line`. Linear probing from a
/// [`Mix64`] start slot, a power-of-two size and load ≤ ½; it doubles
/// by rehashing the stored positions.
struct LatestUse<'a> {
    refs: &'a [TraceRef],
    hasher: Mix64,
    slots: Vec<u32>,
    lines: usize,
}

impl<'a> LatestUse<'a> {
    fn new(refs: &'a [TraceRef]) -> Self {
        Self {
            refs,
            hasher: Mix64::new(NEXT_USE_SEED),
            slots: vec![NEVER; NEXT_USE_SLOTS],
            lines: 0,
        }
    }

    /// The slot holding `line`'s position, or the empty slot it goes to.
    #[inline]
    fn find(&self, line: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = self.hasher.hash(line) as usize & mask;
        loop {
            let pos = self.slots[s];
            if pos == NEVER || self.refs[pos as usize].line == line {
                return s;
            }
            s = (s + 1) & mask;
        }
    }

    /// Makes `pos` the latest position of `line`, returning the one it
    /// replaces ([`NEVER`] for a line not seen before).
    #[inline]
    fn replace(&mut self, line: u64, pos: u32) -> u32 {
        let mut s = self.find(line);
        let prev = self.slots[s];
        if prev == NEVER {
            if self.lines == self.slots.len() / 2 {
                self.grow();
                s = self.find(line);
            }
            self.lines += 1;
        }
        self.slots[s] = pos;
        prev
    }

    /// Doubles the table and rehashes every stored position.
    #[cold]
    fn grow(&mut self) {
        let doubled = vec![NEVER; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        for pos in old.into_iter().filter(|&p| p != NEVER) {
            let s = self.find(self.refs[pos as usize].line);
            self.slots[s] = pos;
        }
    }
}

/// Refuses a trace of `len` references unless every position `0..len`
/// fits a `u32` below [`NEVER`], i.e. `len < 2³²`.
fn check_positions(len: usize) {
    assert!(
        u32::try_from(len).is_ok(),
        "a trace of {len} references is too long: positions are u32, so at most 2^32 - 1"
    );
}

/// The oracle's `u32` position widened to [`AccessCtx::next_use`]'s
/// `u64`, [`NEVER`] becoming `u64::MAX`.
///
/// [`AccessCtx::next_use`]: zcache_core::AccessCtx::next_use
#[inline]
fn widen(next_use: u32) -> u64 {
    if next_use == NEVER {
        u64::MAX
    } else {
        u64::from(next_use)
    }
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
/// and pulls Zipf tables from `zipf` instead of rebuilding them per
/// call. Produces exactly the trace [`record_trace`] does. The
/// reference `Vec` ends trimmed to its length, so a sweep holds no
/// growth slack between points; a longer later trace regrows it.
///
/// # Panics
///
/// Panics if `cfg.cores` exceeds 2¹⁶, the most cores [`TraceRef::core`]
/// can name.
pub fn record_trace_into(
    cfg: &SimConfig,
    workload: &Workload,
    zipf: &mut ZipfCache,
    trace: &mut L2Trace,
) {
    const NOMINAL_MISS_STALL: u64 = 30;
    let cores = cfg.cores as usize;
    assert!(
        cores <= usize::from(u16::MAX) + 1,
        "cannot record {cores} cores: TraceRef::core is a u16"
    );
    let mut l1s: Vec<_> = (0..cfg.cores).map(|c| cfg.build_l1(c)).collect();
    let mut streams = workload.streams_cached(cores, cfg.seed, zipf);
    let mut instrs = vec![0u64; cores];
    let mut pending_work = vec![0u32; cores];
    trace.refs.clear();
    let refs = &mut trace.refs;

    Scheduler::new(cores).run(|c, now| {
        let r = streams[c].next_ref();
        instrs[c] += u64::from(r.gap);
        pending_work[c] = pending_work[c].saturating_add(r.gap);
        let out = l1s[c].access_full(r.line, r.write, u64::MAX);
        let mut next = now + u64::from(r.gap);
        if out.is_miss() {
            if let (Some(ev), true) = (out.evicted, out.evicted_dirty) {
                refs.push(TraceRef {
                    line: ev,
                    work: 0,
                    core: c as u16,
                    write: true,
                    demand: false,
                });
            }
            refs.push(TraceRef {
                line: r.line,
                work: pending_work[c],
                core: c as u16,
                write: r.write,
                demand: true,
            });
            pending_work[c] = 0;
            next += NOMINAL_MISS_STALL;
        }
        (instrs[c] < cfg.instrs_per_core).then_some(next)
    });

    trace.refs.shrink_to_fit();

    let mut l1_stats = CacheStats::new();
    for l1 in &l1s {
        l1_stats.merge(l1.stats());
    }
    trace.instructions = instrs.iter().sum();
    trace.cores = cfg.cores;
    trace.l1_stats = l1_stats;
}

/// A trace's positions grouped by core: core `c` replays
/// `order[starts[c]..starts[c + 1]]`, in global order. It depends on
/// the trace alone, so every replay of one trace can share it.
#[derive(Debug, Default)]
struct ReplayIndex {
    order: Vec<u32>,
    starts: Vec<usize>,
}

impl ReplayIndex {
    /// Rebuilds the index for `trace`: a counting sort of its positions
    /// by core.
    ///
    /// # Panics
    ///
    /// Panics if the trace holds 2³² or more references.
    fn build(&mut self, trace: &L2Trace) {
        check_positions(trace.refs.len());
        let cores = trace.cores.max(1) as usize;
        let Self { order, starts } = self;
        // Core c's count goes to starts[c + 2], and the running sum then
        // makes starts[c + 1] core c's first offset. The scatter advances
        // it to core c's end, which is core c + 1's first offset, and the
        // unused last entry goes.
        starts.clear();
        starts.resize(cores + 2, 0);
        for r in &trace.refs {
            starts[r.core as usize + 2] += 1;
        }
        for c in 2..cores + 2 {
            starts[c] += starts[c - 1];
        }
        order.clear();
        order.resize(trace.refs.len(), 0);
        for (i, r) in trace.refs.iter().enumerate() {
            let at = &mut starts[r.core as usize + 1];
            order[*at] = i as u32;
            *at += 1;
        }
        starts.pop();
    }
}

/// Reusable working state for [`replay_with`] and
/// [`IndexedTrace::replay`]: each core's cursor and clock, and the
/// index [`replay_with`] builds. One instance per worker amortises the
/// allocations across every `(design, policy)` replay of a sweep.
#[derive(Debug, Default)]
pub struct ReplayScratch {
    /// The index of the trace [`replay_with`] replays last.
    index: ReplayIndex,
    /// Each core's next offset into the index's `order`.
    heads: Vec<usize>,
    cycles: Vec<u64>,
}

impl ReplayScratch {
    /// An empty scratch (buffers grow on first use, then stick).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A recorded trace and its replay index, built on the first replay
/// after each recording and shared by every later replay of that
/// recording. The trace changes only through
/// [`record`](Self::record), which drops the index, so no replay reads
/// an index of another trace.
#[derive(Debug, Default)]
pub struct IndexedTrace {
    trace: L2Trace,
    index: ReplayIndex,
    /// Whether `index` is `trace`'s.
    indexed: bool,
}

impl IndexedTrace {
    /// Records `workload`'s L2 stream as [`record_trace_into`] does,
    /// replacing the previous recording and its index.
    pub fn record(&mut self, cfg: &SimConfig, workload: &Workload, zipf: &mut ZipfCache) {
        record_trace_into(cfg, workload, zipf, &mut self.trace);
        self.indexed = false;
    }

    /// The recorded trace.
    pub fn trace(&self) -> &L2Trace {
        &self.trace
    }

    /// Replays the recorded trace as [`replay_with`] does, building its
    /// index first if this recording has none yet.
    ///
    /// # Panics
    ///
    /// As [`replay_with`].
    pub fn replay(
        &mut self,
        cfg: &SimConfig,
        next_uses: Option<&[u32]>,
        scratch: &mut ReplayScratch,
    ) -> SimStats {
        if !self.indexed {
            self.index.build(&self.trace);
            self.indexed = true;
        }
        replay_indexed(
            cfg,
            &self.trace,
            &self.index,
            next_uses,
            &mut scratch.heads,
            &mut scratch.cycles,
        )
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
/// taking the next-use oracle from the caller. It indexes `trace` on
/// every call; [`IndexedTrace::replay`] indexes a recording once.
///
/// `next_uses` is only read by [`PolicyKind::Opt`] (the only policy that
/// consults future knowledge), so callers replaying under other policies
/// pass `None` and skip the oracle's backward pass entirely; sweeps
/// replaying one trace under OPT across many designs compute it once via
/// [`L2Trace::fill_next_uses`] and share the slice. Each `u32` position
/// is widened to the policy's `u64` next use as it is read, [`NEVER`]
/// to `u64::MAX`.
///
/// # Panics
///
/// Panics if the policy is OPT and `next_uses` is `None` (a silent
/// `u64::MAX` fallback would degrade OPT to noise), if `next_uses` is
/// shorter than the trace, or if the trace holds 2³² or more references.
pub fn replay_with(
    cfg: &SimConfig,
    trace: &L2Trace,
    next_uses: Option<&[u32]>,
    scratch: &mut ReplayScratch,
) -> SimStats {
    let ReplayScratch {
        index,
        heads,
        cycles,
    } = scratch;
    index.build(trace);
    replay_indexed(cfg, trace, index, next_uses, heads, cycles)
}

/// The replay of [`replay_with`] over `index`, which must be `trace`'s:
/// each core's cursor in `heads` starts at its first offset in the
/// index, and its clock in `cycles` at zero.
fn replay_indexed(
    cfg: &SimConfig,
    trace: &L2Trace,
    index: &ReplayIndex,
    next_uses: Option<&[u32]>,
    heads: &mut Vec<usize>,
    cycles: &mut Vec<u64>,
) -> SimStats {
    assert!(
        cfg.l2.policy != PolicyKind::Opt || next_uses.is_some(),
        "OPT replay requires next-use annotations"
    );
    if let Some(n) = next_uses {
        assert!(n.len() >= trace.refs.len(), "next-use oracle too short");
    }
    let cores = trace.cores.max(1) as usize;
    debug_assert_eq!(index.order.len(), trace.refs.len(), "stale replay index");
    debug_assert_eq!(index.starts.len(), cores + 1, "stale replay index");
    let mut l2 = L2::new(cfg);

    let ReplayIndex { order, starts } = index;
    heads.clear();
    heads.extend_from_slice(&starts[..cores]);
    cycles.clear();
    cycles.resize(cores, 0);

    let mut sched = Scheduler::new(cores);
    for c in 0..cores {
        if heads[c] == starts[c + 1] {
            sched.retire(c);
        }
    }
    sched.run(|c, now| {
        let pos = order[heads[c]] as usize;
        heads[c] += 1;
        let r = &trace.refs[pos];
        let next_use = next_uses.map_or(u64::MAX, |n| widen(n[pos]));
        let mut next = now + u64::from(r.work);

        if r.demand {
            next += l2
                .demand(l2.bank_of(r.line), r.line, r.write, next_use, next)
                .0;
        } else {
            // Posted write-back: never stalls the core.
            l2.post_writeback(r.line, next_use, next);
        }

        cycles[c] = next;
        (heads[c] < starts[c + 1]).then_some(next)
    });

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
        // Every position must name the *next* use of its line, as a plain
        // std-HashMap backward scan computes it, not merely some later
        // use.
        let wl = by_name("gcc", 4, Scale::SMALL).unwrap();
        let t = record_trace(&tiny_cfg(), &wl);
        let mut expect = vec![u32::MAX; t.len()];
        let mut last_seen = std::collections::HashMap::new();
        for (i, r) in t.refs.iter().enumerate().rev() {
            if let Some(&later) = last_seen.get(&r.line) {
                expect[i] = later;
            }
            last_seen.insert(r.line, u32::try_from(i).unwrap());
        }
        assert!(expect.iter().any(|&n| n != u32::MAX), "no reuse to check");
        assert!(expect.contains(&u32::MAX), "no last use to check");
        assert_eq!(t.next_uses(), expect);
    }

    /// A one-core trace of demand reads of `lines`, one unit of work
    /// apart.
    fn trace_of(lines: impl IntoIterator<Item = u64>) -> L2Trace {
        let read = |line| TraceRef {
            line,
            work: 1,
            core: 0,
            write: false,
            demand: true,
        };
        L2Trace {
            refs: lines.into_iter().map(read).collect(),
            cores: 1,
            ..Default::default()
        }
    }

    /// Runs the position table's pass, into a buffer left dirty by a
    /// longer oracle, against the map-based reference.
    fn assert_lockstep(t: &L2Trace, label: &str) {
        let mut want = Vec::new();
        t.next_uses_into(&mut want, &mut SeededMap::with_capacity(1024, 1));
        let mut got = vec![7; t.len() + 100];
        t.fill_next_uses(&mut got);
        assert_eq!(got, want, "{label}");
    }

    #[test]
    fn position_table_matches_map_on_fig4_sweep_traces() {
        // fig4-sweep's points: the first 8 suite workloads at small
        // scale, 8 cores × 25 000 instructions.
        let mut cfg = SimConfig::small();
        cfg.cores = 8;
        cfg.instrs_per_core = 25_000;
        let suite = zworkloads::suite::paper_suite_scaled(8, Scale::SMALL);
        for wl in &suite[..8] {
            let t = record_trace(&cfg, wl);
            assert!(!t.is_empty(), "{}: no references", wl.name());
            assert_lockstep(&t, wl.name());
        }
    }

    #[test]
    fn position_table_matches_map_on_hand_built_traces() {
        assert_lockstep(&trace_of([]), "empty");
        assert_lockstep(&trace_of([42]), "one reference");
        assert_lockstep(&trace_of([42; 100]), "one line repeated");
        // n distinct lines, then the same lines in reverse: every
        // position of the first half survives each doubling of the
        // table before it is read back.
        for half in (9..=15).map(|b| 1usize << b) {
            for n in [half, half + 1] {
                let lines = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let t = trace_of(lines.clone().chain(lines.rev()));
                assert_lockstep(&t, &format!("{n} distinct lines"));
                let mut table = LatestUse::new(&t.refs);
                for (i, r) in t.refs[..n].iter().enumerate() {
                    table.replace(r.line, i as u32);
                }
                let slots = (2 * n).next_power_of_two().max(NEXT_USE_SLOTS);
                assert_eq!(table.slots.len(), slots, "{n} distinct lines");
            }
        }
        // Four lines that start in the table's last slot and two that
        // start in its first: probes wrap past the end, and the first
        // slot's lines probe past the wrapped ones.
        let start = |line| Mix64::new(NEXT_USE_SEED).hash(line) as usize & (NEXT_USE_SLOTS - 1);
        let last: Vec<u64> = (0..)
            .filter(|&l| start(l) == NEXT_USE_SLOTS - 1)
            .take(4)
            .collect();
        let first: Vec<u64> = (0..).filter(|&l| start(l) == 0).take(2).collect();
        let order = [0, 4, 1, 5, 2, 3, 1, 0, 5, 3, 4, 2, 2, 4, 0];
        let all: Vec<u64> = last.iter().chain(&first).copied().collect();
        assert_lockstep(&trace_of(order.map(|k| all[k])), "wrapping collisions");
    }

    #[test]
    fn trace_ref_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<TraceRef>(), 16);
    }

    #[test]
    #[should_panic(expected = "TraceRef::core is a u16")]
    fn recording_refuses_cores_past_u16() {
        // Refused before any L1 is built: no 65 537 caches are made.
        let mut cfg = tiny_cfg();
        cfg.cores = (1 << 16) + 1;
        let wl = by_name("gcc", 4, Scale::SMALL).unwrap();
        record_trace(&cfg, &wl);
    }

    #[test]
    fn never_reused_line_reaches_opt_as_u64_max_and_leaves_first() {
        assert_eq!(widen(NEVER), u64::MAX);
        assert_eq!(widen(0), 0);
        assert_eq!(widen(NEVER - 1), u64::from(NEVER - 1));
        // One core, one 4-line fully-associative bank: lines 1-4 fill it
        // and line 5 misses. Line 3 is never used again, so OPT must
        // evict it, and 1, 2 and 4 then hit; evicting any of them
        // instead costs a sixth miss.
        let mut cfg = tiny_cfg().with_l2(L2Design {
            array: zcache_core::ArrayKind::Fully,
            ways: 4,
            ..L2Design::baseline().with_policy(PolicyKind::Opt)
        });
        cfg.l2_lines = 4;
        cfg.l2_banks = 1;
        cfg.l2_bank_latency = Some(1);
        let t = L2Trace {
            instructions: 8,
            ..trace_of([1, 2, 3, 4, 5, 1, 2, 4])
        };
        let next = t.next_uses();
        assert_eq!(next, [5, 6, NEVER, 7, NEVER, NEVER, NEVER, NEVER]);
        let opt = replay_with(&cfg, &t, Some(&next), &mut ReplayScratch::new());
        assert_eq!(opt.l2.misses, 5);
        let lru = L2Design {
            policy: PolicyKind::Lru,
            ..cfg.l2
        };
        let lru = replay(&cfg.clone().with_l2(lru), &t);
        assert_eq!(
            lru.l2.misses, 7,
            "LRU evicts lines 1 and 2: only line 4 hits"
        );
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
    fn reused_scratch_and_indexed_trace_match_fresh_replays() {
        // canneal's trace is longer than gcc's: replays of the second
        // recording must not read the first one's index.
        let cfg = tiny_cfg();
        let mut zipf = ZipfCache::new();
        let mut indexed = IndexedTrace::default();
        let mut scratch = ReplayScratch::new();
        let mut lens = Vec::new();
        for name in ["canneal", "gcc"] {
            let wl = by_name(name, 4, Scale::SMALL).unwrap();
            indexed.record(&cfg, &wl, &mut zipf);
            let t = record_trace(&cfg, &wl);
            assert_eq!(indexed.trace().refs, t.refs, "{name}: trace");
            lens.push(t.len());
            let nu = t.next_uses();
            for design in [
                L2Design::baseline(),
                L2Design::zcache(4, 3),
                L2Design::baseline().with_policy(PolicyKind::Opt),
            ] {
                let dcfg = cfg.clone().with_l2(design);
                let oracle = (dcfg.l2.policy == PolicyKind::Opt).then_some(nu.as_slice());
                let fresh = replay(&dcfg, &t);
                let reused = replay_with(&dcfg, &t, oracle, &mut scratch);
                assert_eq!(reused, fresh, "{name}: replay_with, {design:?}");
                let shared = indexed.replay(&dcfg, oracle, &mut scratch);
                assert_eq!(shared, fresh, "{name}: IndexedTrace, {design:?}");
            }
        }
        assert!(lens[1] < lens[0], "trace lengths {lens:?}");
    }

    #[test]
    fn replay_index_groups_positions_by_core() {
        // Cores 0 and 2 of three make references and core 1 none; a
        // scratch that replayed an 8-core trace first must give what a
        // fresh one does, and every reference must be replayed.
        let cfg = tiny_cfg();
        let wide = record_trace(
            &SimConfig {
                cores: 8,
                ..cfg.clone()
            },
            &by_name("gcc", 8, Scale::SMALL).unwrap(),
        );
        let mut t = trace_of((0..300).map(|i| i % 37));
        for (i, r) in t.refs.iter_mut().enumerate() {
            r.core = if i % 3 == 0 { 2 } else { 0 };
        }
        t.cores = 3;
        let mut scratch = ReplayScratch::new();
        replay_with(&cfg, &wide, None, &mut scratch);
        let reused = replay_with(&cfg, &t, None, &mut scratch);
        assert_eq!(
            reused,
            replay_with(&cfg, &t, None, &mut ReplayScratch::new())
        );
        assert_eq!(reused.l2.accesses, 300);
        assert_eq!(scratch.index.order.len(), 300);
        assert_eq!(scratch.index.starts, [0, 200, 200, 300]);
        assert_eq!(scratch.heads, [200, 200, 300]);
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
