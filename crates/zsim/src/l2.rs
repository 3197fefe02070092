//! The L2 side both simulation modes share: hashed banks, their tag
//! ports, and the memory channels behind them.

use crate::bankport::BankPorts;
use crate::config::SimConfig;
use crate::mem::MemoryChannels;
use crate::stats::SimStats;
use zcache_core::{AccessOutcome, CacheStats, DynCache};
use zhash::{Hasher64, Mix64};

/// The shared, banked L2 plus memory. [`System`](crate::System) and
/// [`replay_with`](crate::trace::replay_with) differ only in what they
/// pass in: the demand `write` flag and the posted write-back's
/// `next_use`.
#[derive(Debug)]
pub(crate) struct L2 {
    banks: Vec<DynCache>,
    bank_hash: Mix64,
    /// `banks - 1` when the bank count is a power of two (every shipped
    /// config): masking then equals the modulo and skips a divide.
    bank_mask: Option<u64>,
    ports: BankPorts,
    mem: MemoryChannels,
    /// L1-to-L2 transfer plus bank latency, in cycles.
    latency: u64,
    /// Tag reads of a lookup, which run in parallel with the demand slot.
    ways: u64,
}

impl L2 {
    /// Builds the banks, ports and memory channels of `cfg`.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let banks = (0..cfg.l2_banks)
            .map(|b| {
                let seed = cfg.seed.wrapping_mul(31).wrapping_add(u64::from(b));
                cfg.l2.builder(cfg.lines_per_bank(), seed).build()
            })
            .collect();
        let nbanks = u64::from(cfg.l2_banks);
        Self {
            banks,
            bank_hash: Mix64::new(cfg.seed ^ 0xba2c_u64),
            bank_mask: nbanks.is_power_of_two().then(|| nbanks - 1),
            ports: BankPorts::new(cfg.l2_banks),
            mem: MemoryChannels::new(
                cfg.mem_controllers,
                cfg.mem_latency,
                cfg.mem_cycles_per_transfer,
            ),
            latency: u64::from(cfg.l1_to_l2_latency) + u64::from(cfg.effective_l2_latency()),
            ways: u64::from(cfg.l2.ways),
        }
    }

    /// The bank `line` maps to.
    #[inline]
    pub(crate) fn bank_of(&self, line: u64) -> usize {
        let h = self.bank_hash.hash(line);
        match self.bank_mask {
            Some(mask) => (h & mask) as usize,
            None => (h % self.banks.len() as u64) as usize,
        }
    }

    /// The banks, in index order.
    pub(crate) fn banks(&self) -> &[DynCache] {
        &self.banks
    }

    /// A demand access issued at cycle `now`. It queues behind other
    /// demand accesses at the bank's tag port; walk and relocation tag
    /// traffic beyond the (parallel) lookup then occupies the port off
    /// the critical path. A miss fetches from memory, and a dirty victim
    /// is written back. Returns the stall cycles and the bank's outcome.
    #[inline]
    pub(crate) fn demand(
        &mut self,
        line: u64,
        write: bool,
        next_use: u64,
        now: u64,
    ) -> (u64, AccessOutcome) {
        let b = self.bank_of(line);
        let mut stall = self.latency;
        stall += self.ports.demand(b, now + stall);
        let bank = &mut self.banks[b];
        let tag_ops_before = bank.stats().tag_reads + bank.stats().tag_writes;
        let out = bank.access_full(line, write, next_use);
        let tag_ops = bank.stats().tag_reads + bank.stats().tag_writes - tag_ops_before;
        let walk_ops = tag_ops.saturating_sub(self.ways) as u32;
        if walk_ops > 0 {
            self.ports.background(b, now + stall, walk_ops);
        }
        if out.is_miss() {
            stall += self.mem.fetch(line, now + stall);
            if let (Some(ev), true) = (out.evicted, out.evicted_dirty) {
                self.mem.writeback(ev, now + stall);
            }
        }
        (stall, out)
    }

    /// A posted write-back issued at cycle `now`: writes the L2 copy if
    /// it is still resident (one tag-port cycle), else spills to memory.
    /// Never stalls the core.
    #[inline]
    pub(crate) fn post_writeback(&mut self, line: u64, next_use: u64, now: u64) {
        let b = self.bank_of(line);
        if self.banks[b].write_if_present(line, next_use) {
            self.ports.background(b, now, 1);
        } else {
            self.mem.writeback(line, now);
        }
    }

    /// Writes `line` back to memory at cycle `now`.
    #[inline]
    pub(crate) fn spill(&mut self, line: u64, now: u64) {
        self.mem.writeback(line, now);
    }

    /// Run statistics: the L2, memory and port counters come from here,
    /// the rest from the caller. Coherence counters are left at zero.
    pub(crate) fn sim_stats(
        &self,
        instructions: u64,
        cycles: &[u64],
        cores: u32,
        l1: CacheStats,
    ) -> SimStats {
        let mut l2 = CacheStats::new();
        for bank in &self.banks {
            l2.merge(bank.stats());
        }
        SimStats {
            instructions,
            max_cycles: cycles.iter().copied().max().unwrap_or(0),
            sum_core_cycles: cycles.iter().sum(),
            cores,
            banks: self.banks.len() as u32,
            l1,
            l2,
            mem_accesses: self.mem.accesses(),
            mem_queue_cycles: self.mem.queue_cycles(),
            l2_tag_contention_cycles: self.ports.contention_cycles(),
            l2_walk_delay_cycles: self.ports.walk_delay_cycles(),
            ..SimStats::default()
        }
    }
}
