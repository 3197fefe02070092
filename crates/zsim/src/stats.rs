//! Aggregated simulation statistics.

use zcache_core::CacheStats;
use zenergy::EnergyCounts;

/// Results of one simulation run (execution- or trace-driven).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Instructions executed across all cores.
    pub instructions: u64,
    /// Cycle count of the slowest core (the run's wall-clock length).
    pub max_cycles: u64,
    /// Sum of per-core cycle counts.
    pub sum_core_cycles: u64,
    /// Core count.
    pub cores: u32,
    /// L2 bank count.
    pub banks: u32,
    /// Merged L1 statistics (all cores).
    pub l1: CacheStats,
    /// Merged L2 statistics (all banks).
    pub l2: CacheStats,
    /// Main-memory accesses (fetches + write-backs).
    pub mem_accesses: u64,
    /// Cycles spent queueing at memory controllers (sum over accesses).
    pub mem_queue_cycles: u64,
    /// Coherence invalidation rounds (writes to shared lines).
    pub invalidation_rounds: u64,
    /// Dirty-owner downgrades (reads of modified lines).
    pub downgrades: u64,
    /// L1 lines invalidated by L2 evictions (inclusion victims).
    pub back_invalidations: u64,
    /// Cycles demand L2 accesses spent queueing behind *other demand
    /// accesses* (bank conflicts; walk traffic yields to demands).
    pub l2_tag_contention_cycles: u64,
    /// Cycles replacement (walk/relocation) traffic waited for idle tag
    /// port cycles — the spare bandwidth §VI-D talks about.
    pub l2_walk_delay_cycles: u64,
}

impl SimStats {
    /// Aggregate IPC: instructions retired per wall-clock cycle (all
    /// cores together; the paper's 32-core machine peaks at 32).
    pub fn ipc(&self) -> f64 {
        if self.max_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.max_cycles as f64
        }
    }

    /// L2 misses per thousand instructions — the Fig. 4 metric.
    pub fn l2_mpki(&self) -> f64 {
        self.l2.mpki(self.instructions)
    }

    /// Average L2 accesses per cycle per bank (§VI-D's "load").
    pub fn l2_load_per_bank(&self) -> f64 {
        if self.max_cycles == 0 || self.banks == 0 {
            0.0
        } else {
            self.l2.accesses as f64 / self.max_cycles as f64 / f64::from(self.banks)
        }
    }

    /// Average tag-array operations per cycle per bank (§VI-D's tag
    /// bandwidth; includes lookup, walk and relocation tag traffic).
    pub fn l2_tag_ops_per_cycle_per_bank(&self) -> f64 {
        if self.max_cycles == 0 || self.banks == 0 {
            0.0
        } else {
            (self.l2.tag_reads + self.l2.tag_writes) as f64
                / self.max_cycles as f64
                / f64::from(self.banks)
        }
    }

    /// L2 misses per cycle per bank.
    pub fn l2_misses_per_cycle_per_bank(&self) -> f64 {
        if self.max_cycles == 0 || self.banks == 0 {
            0.0
        } else {
            self.l2.misses as f64 / self.max_cycles as f64 / f64::from(self.banks)
        }
    }

    /// Event counts in the form the `zenergy` power model consumes.
    pub fn energy_counts(&self) -> EnergyCounts {
        EnergyCounts {
            instructions: self.instructions,
            cycles: self.max_cycles,
            l1_accesses: self.l1.accesses,
            l2_hits: self.l2.hits,
            l2_misses: self.l2.misses,
            l2_tag_reads: self.l2.tag_reads,
            l2_tag_writes: self.l2.tag_writes,
            l2_data_reads: self.l2.data_reads,
            l2_data_writes: self.l2.data_writes,
            mem_accesses: self.mem_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            instructions: 1_000_000,
            max_cycles: 500_000,
            cores: 32,
            banks: 8,
            l2: CacheStats {
                accesses: 40_000,
                misses: 10_000,
                tag_reads: 160_000,
                tag_writes: 10_000,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.l2_mpki() - 10.0).abs() < 1e-12);
        assert!((s.l2_load_per_bank() - 0.01).abs() < 1e-12);
        assert!((s.l2_tag_ops_per_cycle_per_bank() - 0.0425).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_run_is_all_zeros() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l2_load_per_bank(), 0.0);
        assert_eq!(s.l2_tag_ops_per_cycle_per_bank(), 0.0);
        assert_eq!(s.l2_misses_per_cycle_per_bank(), 0.0);
    }

    #[test]
    fn energy_counts_mirror_stats() {
        let s = SimStats {
            instructions: 10,
            max_cycles: 20,
            mem_accesses: 3,
            l1: CacheStats {
                accesses: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let e = s.energy_counts();
        assert_eq!(e.instructions, 10);
        assert_eq!(e.cycles, 20);
        assert_eq!(e.l1_accesses, 5);
        assert_eq!(e.mem_accesses, 3);
    }
}
