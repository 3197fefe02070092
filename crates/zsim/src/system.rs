//! Execution-driven simulation of the Table I CMP.

use crate::coherence::{cores_in, Directory, DirectoryView};
use crate::config::SimConfig;
use crate::l2::L2;
use crate::sched::Scheduler;
use crate::stats::SimStats;
use zcache_core::{CacheArray, DynCache, PolicyKind, SlotId};
use zworkloads::{AddressStream, MemRef, Workload};

/// The simulated machine: 32 in-order cores (IPC = 1 except on memory
/// stalls), private 4-way L1s, a shared banked L2 of the configured
/// design with a MESI directory in its frames, and bandwidth-limited
/// memory controllers.
///
/// Cores advance in global `(cycle, core)` order, so the interleaving is
/// deterministic for a given configuration and seed.
///
/// # Examples
///
/// ```
/// use zsim::{SimConfig, System};
/// use zworkloads::{suite, suite::Scale};
///
/// let mut cfg = SimConfig::small();
/// cfg.cores = 4;
/// cfg.instrs_per_core = 10_000;
/// let wl = suite::by_name("swaptions", 4, Scale::SMALL).unwrap();
/// let stats = System::new(cfg).run(&wl);
/// assert!(stats.instructions >= 4 * 10_000);
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SimConfig,
    l1s: Vec<DynCache>,
    l2: L2,
    dir: Directory,
    /// Per core and L1 frame (`core * l1_lines + frame`), the bank-major
    /// L2 frame ([`Directory::frame`]) the L1 frame's line was filled
    /// from. A relocation may since have moved the line, so a reader
    /// checks that frame's tag first ([`resident`](Self::resident)).
    l1_homes: Vec<u32>,
    invalidation_rounds: u64,
    downgrades: u64,
    back_invalidations: u64,
    coh_l2_data_writes: u64,
}

impl System {
    /// Builds the machine for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the L2 policy is [`PolicyKind::Opt`] (OPT needs future
    /// knowledge; use [`crate::trace`]'s record/replay mode), if
    /// [`SimConfig::cores`] is outside `1..=64` (the directory's sharer
    /// masks are `u64`), if the L2 has more than 2³² frames (the L1s
    /// remember their lines' L2 frames as `u32`), or if the cache
    /// geometry is invalid.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(
            (1..=64).contains(&cfg.cores),
            "{} cores: the directory tracks 1 to 64",
            cfg.cores
        );
        assert!(
            cfg.l2.policy != PolicyKind::Opt,
            "OPT requires trace-driven simulation; use zsim::trace::record_trace + replay"
        );
        let l2_frames = u64::from(cfg.l2_banks) * cfg.lines_per_bank();
        assert!(
            l2_frames <= 1 << 32,
            "{l2_frames} L2 frames: an L1 frame's home is a u32"
        );
        Self {
            l1s: (0..cfg.cores).map(|c| cfg.build_l1(c)).collect(),
            l2: L2::new(&cfg),
            dir: Directory::new(cfg.l2_banks as usize, cfg.lines_per_bank() as usize),
            l1_homes: vec![0; cfg.cores as usize * cfg.l1_lines as usize],
            invalidation_rounds: 0,
            downgrades: 0,
            back_invalidations: 0,
            coh_l2_data_writes: 0,
            cfg,
        }
    }

    /// Handles one data reference; returns the stall cycles beyond the
    /// single-cycle L1 pipeline.
    ///
    /// Steady state performs zero heap allocation: the L1/L2 access
    /// engines reuse their walk buffers, the directory lives in the L2's
    /// frames, and ports/memory are fixed arrays (verified by
    /// `tests/alloc_steady_state.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the directory must update a line the inclusive L2 does
    /// not hold (an L1 victim or a write upgrade): an inclusion bug.
    #[inline]
    pub fn access(&mut self, core: u32, line: u64, write: bool, now: u64) -> u64 {
        let out = self.l1s[core as usize].access_full(line, write, u64::MAX);

        if out.hit {
            // Upgrade: invalidate other sharers if any.
            if write {
                let (b, slot) = self.resident(core, out.slot, line);
                let f = self.dir.frame(b, slot);
                if self.dir.owner(f) != Some(core) {
                    let others = self.dir.make_owner(f, core);
                    return self.invalidate_sharers(line, others);
                }
            }
            return 0;
        }

        // L1 victim: update directory; write back dirty data to the
        // inclusive L2. `resident` finds the victim's frame once for
        // both. The L1 is set-associative, so the victim left the frame
        // the line fills.
        if let Some(ev) = out.evicted {
            let (b, slot) = self.resident(core, out.slot, ev);
            self.dir.remove_sharer(self.dir.frame(b, slot), core);
            if out.evicted_dirty {
                self.l2.write_back_at(b, slot, ev, u64::MAX, now);
            }
        }

        // Demand access to the L2 (a store miss fetches a clean copy).
        // The policy is never OPT here (see `new`), so no next use is
        // known.
        let b = self.l2.bank_of(line);
        let (mut stall, lout) = self.l2.demand(b, line, false, u64::MAX, now);
        let f = self.dir.frame(b, lout.slot);
        let home = self.home(core, out.slot);
        self.l1_homes[home] = f as u32;

        if lout.hit {
            if write {
                let others = self.dir.make_owner(f, core);
                stall += self.invalidate_sharers(line, others);
            } else if let Some(_prev_owner) = self.dir.add_sharer(f, core) {
                // A dirty copy lives in another L1: downgrade it and pull
                // the data through the L2.
                self.downgrades += 1;
                self.coh_l2_data_writes += 1;
                stall += u64::from(self.cfg.coherence_penalty);
            }
        } else {
            // The install's frames, in order: the inclusion victim's
            // entry is read before any relocation overwrites its frame,
            // the relocated lines' entries follow them, and the new line
            // fills last.
            let install = self.l2.banks()[b].last_install();
            let mask = match install.evicted_slot {
                Some(slot) if install.evicted.is_some() => self.dir.evict(self.dir.frame(b, slot)),
                _ => 0,
            };
            for &(from, to) in &install.moves {
                self.dir
                    .relocate(self.dir.frame(b, from), self.dir.frame(b, to));
            }
            self.dir.fill(f, core, write);

            // Inclusion victim: back-invalidate L1 copies. The L2 wrote
            // its own dirty victims back; a copy dirty only in an L1
            // still has to go to memory.
            if let Some(ev2) = lout.evicted {
                let mut dirty_in_l1 = false;
                for c in cores_in(mask) {
                    if let Some(d) = self.l1s[c as usize].invalidate(ev2) {
                        self.back_invalidations += 1;
                        dirty_in_l1 |= d;
                    }
                }
                if dirty_in_l1 && !lout.evicted_dirty {
                    self.l2.spill(ev2, now + stall);
                }
            }
        }
        stall
    }

    /// The index of `core`'s L1 frame `l1_slot` in `l1_homes`.
    #[inline]
    fn home(&self, core: u32, l1_slot: SlotId) -> usize {
        core as usize * self.cfg.l1_lines as usize + l1_slot.idx()
    }

    /// The bank and frame of `line`, held in `core`'s L1 frame
    /// `l1_slot`, which the inclusive L2 must hold: the L2 frame the line
    /// was filled from while its tag still reads `line`, else (a
    /// relocation moved the line) a full lookup.
    #[inline]
    fn resident(&self, core: u32, l1_slot: SlotId, line: u64) -> (usize, SlotId) {
        let (b, slot) = self
            .dir
            .bank_slot(self.l1_homes[self.home(core, l1_slot)] as usize);
        let found = if self.l2.banks()[b].array().addr_at(slot) == Some(line) {
            (b, slot)
        } else {
            self.l2.locate(line).unwrap_or_else(|| {
                panic!(
                    "inclusion violated: the directory updates {line:#x}, which the L2 does not hold"
                )
            })
        };
        debug_assert_eq!(Some(found), self.l2.locate(line), "line {line:#x}");
        found
    }

    /// Invalidates `line` in the L1s of `others` (a write to a shared
    /// line); returns the coherence stall, zero when there are none.
    fn invalidate_sharers(&mut self, line: u64, others: u64) -> u64 {
        if others == 0 {
            return 0;
        }
        for c in cores_in(others) {
            if self.l1s[c as usize].invalidate(line) == Some(true) {
                self.coh_l2_data_writes += 1;
            }
        }
        self.invalidation_rounds += 1;
        u64::from(self.cfg.coherence_penalty)
    }

    /// Runs `workload` until every core has executed its instruction
    /// budget, returning merged statistics.
    pub fn run(&mut self, workload: &Workload) -> SimStats {
        let cores = self.cfg.cores as usize;
        let budget = self.cfg.instrs_per_core;
        let mut streams = workload.streams(cores, self.cfg.seed);
        let mut instrs = vec![0u64; cores];
        let mut cycles = vec![0u64; cores];
        // Each core holds one pre-drawn pending reference — streams draw
        // from per-core RNGs, so drawing a core's next reference early
        // never perturbs another core's sequence.
        let mut pending: Vec<MemRef> = streams.iter_mut().map(|s| s.next_ref()).collect();
        Scheduler::new(cores).run(|core, now| {
            let r = pending[core];
            instrs[core] += u64::from(r.gap);
            let stall = self.access(core as u32, r.line, r.write, now);
            let next = now + u64::from(r.gap) + stall;
            cycles[core] = next;
            if instrs[core] >= budget {
                return None;
            }
            pending[core] = streams[core].next_ref();
            Some(next)
        });

        self.build_stats(&instrs, &cycles)
    }

    fn build_stats(&self, instrs: &[u64], cycles: &[u64]) -> SimStats {
        let mut l1 = zcache_core::CacheStats::new();
        for c in &self.l1s {
            l1.merge(c.stats());
        }
        let mut stats = self
            .l2
            .sim_stats(instrs.iter().sum(), cycles, self.cfg.cores, l1);
        stats.l2.data_writes += self.coh_l2_data_writes;
        stats.invalidation_rounds = self.invalidation_rounds;
        stats.downgrades = self.downgrades;
        stats.back_invalidations = self.back_invalidations;
        stats
    }

    /// Statistics of the accesses so far, for callers that drive
    /// [`access`](Self::access) themselves: the counters of
    /// [`run`](Self::run)'s result, with the instruction and cycle
    /// counts, which only `run` keeps, at zero.
    pub fn stats(&self) -> SimStats {
        self.build_stats(&[], &[])
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Read access to the L2 banks (for inspection in tests/examples).
    pub fn banks(&self) -> &[DynCache] {
        self.l2.banks()
    }

    /// Read access to the MESI directory (for invariant checks in
    /// tests/examples).
    pub fn directory(&self) -> DirectoryView<'_> {
        DirectoryView {
            dir: &self.dir,
            l2: &self.l2,
        }
    }

    /// Read access to the per-core L1s (for inspection in tests/examples).
    pub fn l1s(&self) -> &[DynCache] {
        &self.l1s
    }

    /// The L2 bank index `line` maps to.
    pub fn bank_index(&self, line: u64) -> usize {
        self.l2.bank_of(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2Design;
    use zworkloads::suite::{by_name, Scale};
    use zworkloads::{Component, CoreSpec};

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::small();
        cfg.cores = 4;
        cfg.instrs_per_core = 20_000;
        cfg
    }

    #[test]
    fn runs_to_instruction_budget() {
        let wl = by_name("swaptions", 4, Scale::SMALL).unwrap();
        let stats = System::new(tiny_cfg()).run(&wl);
        assert!(stats.instructions >= 4 * 20_000);
        assert!(stats.max_cycles > 0);
        assert!(stats.ipc() > 0.0);
        assert!(stats.l1.accesses > 0);
    }

    #[test]
    fn l1_resident_workload_barely_touches_l2() {
        // blackscholes is the paper's L1-resident case: its steady-state
        // L2 traffic is far below a miss-heavy workload's. (At this tiny
        // scale cold misses dominate short runs, so compare relatively.)
        let bs = System::new(tiny_cfg()).run(&by_name("blackscholes", 4, Scale::SMALL).unwrap());
        let cn = System::new(tiny_cfg()).run(&by_name("canneal", 4, Scale::SMALL).unwrap());
        assert!(
            bs.l2_mpki() < cn.l2_mpki() / 3.0,
            "blackscholes {} vs canneal {}",
            bs.l2_mpki(),
            cn.l2_mpki()
        );
    }

    #[test]
    fn miss_heavy_workload_stresses_memory() {
        let wl = by_name("canneal", 4, Scale::SMALL).unwrap();
        let stats = System::new(tiny_cfg()).run(&wl);
        assert!(stats.l2_mpki() > 3.0, "canneal L2 MPKI {}", stats.l2_mpki());
        assert!(stats.mem_accesses > 0);
    }

    #[test]
    fn sharing_workload_generates_coherence_traffic() {
        let wl = Workload::multithreaded(
            "pingpong",
            CoreSpec::new(vec![(1.0, Component::SharedUniform { lines: 32 })], 0.5, 4),
        );
        let stats = System::new(tiny_cfg()).run(&wl);
        assert!(
            stats.invalidation_rounds > 0,
            "write sharing must invalidate"
        );
        assert!(stats.downgrades > 0, "read-after-write must downgrade");
    }

    #[test]
    fn inclusion_back_invalidates() {
        // A working set far bigger than the L2 forces L2 evictions of
        // L1-resident lines.
        let wl = by_name("mcf", 4, Scale::SMALL).unwrap();
        let mut cfg = tiny_cfg();
        cfg.instrs_per_core = 50_000;
        let stats = System::new(cfg).run(&wl);
        assert!(stats.back_invalidations > 0);
    }

    #[test]
    fn walk_traffic_fills_idle_port_cycles() {
        // §VI-D in the simulator: zcache walks consume real tag-port
        // cycles but yield to demand lookups, so they are delayed into
        // the idle gaps while demand contention stays negligible.
        let wl = by_name("canneal", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg().with_l2(L2Design::zcache(4, 3));
        let stats = System::new(cfg).run(&wl);
        assert!(
            stats.l2_walk_delay_cycles > 0,
            "walk traffic must queue into idle cycles"
        );
        let frac = stats.l2_tag_contention_cycles as f64 / stats.max_cycles as f64;
        assert!(frac < 0.05, "demand contention should be tiny: {frac}");
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = by_name("gcc", 4, Scale::SMALL).unwrap();
        let a = System::new(tiny_cfg()).run(&wl);
        let b = System::new(tiny_cfg()).run(&wl);
        assert_eq!(a, b);
    }

    #[test]
    fn zcache_design_runs() {
        let wl = by_name("cactusADM", 4, Scale::SMALL).unwrap();
        let cfg = tiny_cfg().with_l2(L2Design::zcache(4, 3));
        let stats = System::new(cfg).run(&wl);
        assert!(stats.l2.relocations > 0, "zcache must relocate");
        assert!(stats.l2.avg_candidates() > 4.0);
    }

    #[test]
    fn higher_associativity_does_not_hurt_mpki_much() {
        let wl = by_name("cactusADM", 4, Scale::SMALL).unwrap();
        let base = System::new(tiny_cfg()).run(&wl);
        let z = System::new(tiny_cfg().with_l2(L2Design::zcache(4, 3))).run(&wl);
        // Allow noise, but Z4/52 should not be clearly worse than SA-4.
        assert!(
            z.l2_mpki() <= base.l2_mpki() * 1.05,
            "Z4/52 {} vs SA-4 {}",
            z.l2_mpki(),
            base.l2_mpki()
        );
    }

    #[test]
    fn moved_lines_fall_back_to_a_lookup() {
        // A 512-frame Z4/52 L2 beside four 64-frame L1s relocates
        // L1-resident lines out of the frames they were filled from. A
        // write hit on such a line must find it by a lookup; debug builds
        // check every frame `resident` returns against `L2::locate`.
        let mut cfg = tiny_cfg().with_l2(L2Design::zcache(4, 3));
        cfg.l2_lines = 512;
        let wl = Workload::multithreaded(
            "pingpong-big",
            CoreSpec::new(
                vec![
                    (0.4, Component::SharedUniform { lines: 32 }),
                    (0.6, Component::SharedUniform { lines: 40_000 }),
                ],
                0.5,
                4,
            ),
        );
        let mut streams = wl.streams(4, cfg.seed);
        let mut sys = System::new(cfg);
        let (mut now, mut moved) = (0, 0);
        for i in 0..40_000u64 {
            let core = (i % 4) as u32;
            let r = streams[core as usize].next_ref();
            let l1 = sys.l1s[core as usize].array();
            if let (true, Some(l1_slot)) = (r.write, l1.lookup(r.line)) {
                let home = sys.l1_homes[sys.home(core, l1_slot)] as usize;
                let (b, slot) = sys.dir.bank_slot(home);
                moved += u64::from(sys.banks()[b].array().addr_at(slot) != Some(r.line));
            }
            now += u64::from(r.gap) + sys.access(core, r.line, r.write, now);
        }
        assert!(sys.stats().l2.relocations > 0, "zcache must relocate");
        assert!(moved > 0, "no write hit found its line moved");
    }

    #[test]
    #[should_panic(expected = "the directory tracks 1 to 64")]
    fn more_cores_than_sharer_bits_panics() {
        // Core 64 would alias core 0 in the u64 sharer masks.
        let mut cfg = tiny_cfg();
        cfg.cores = 65;
        let _ = System::new(cfg);
    }

    #[test]
    #[should_panic(expected = "OPT requires trace-driven")]
    fn opt_in_execution_mode_panics() {
        let cfg = tiny_cfg().with_l2(L2Design::baseline().with_policy(PolicyKind::Opt));
        let _ = System::new(cfg);
    }
}
