//! Simulator configuration (the paper's Table I).

use zcache_core::{ArrayKind, CacheBuilder, DynCache, PolicyKind};
use zenergy::{CacheDesign, LookupMode, OrgKind};
use zhash::HashKind;

/// The shared-L2 design under evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2Design {
    /// Array organization.
    pub array: ArrayKind,
    /// Physical ways (ignored by `Fully`/`RandomCands`).
    pub ways: u32,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Tag/data lookup mode (drives latency/energy via `zenergy`).
    pub lookup: LookupMode,
}

impl L2Design {
    /// The paper's baseline: 4-way set-associative with H3 index hashing,
    /// serial lookup, LRU.
    pub fn baseline() -> Self {
        Self {
            array: ArrayKind::SetAssoc { hash: HashKind::H3 },
            ways: 4,
            policy: PolicyKind::Lru,
            lookup: LookupMode::Serial,
        }
    }

    /// A zcache design `Z<ways>/<R>` with the given walk depth.
    pub fn zcache(ways: u32, levels: u32) -> Self {
        Self {
            array: ArrayKind::ZCache { levels },
            ways,
            policy: PolicyKind::Lru,
            lookup: LookupMode::Serial,
        }
    }

    /// A set-associative design with H3 hashing and the given way count.
    pub fn setassoc(ways: u32) -> Self {
        Self {
            ways,
            ..Self::baseline()
        }
    }

    /// Returns this design with a different policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Returns this design with a different lookup mode.
    pub fn with_lookup(mut self, lookup: LookupMode) -> Self {
        self.lookup = lookup;
        self
    }

    /// A builder for a `lines`-frame cache of this design seeded with
    /// `seed`. The L2 banks and `zbench`'s design lineups are all built
    /// through it.
    pub fn builder(&self, lines: u64, seed: u64) -> CacheBuilder {
        CacheBuilder::new()
            .lines(lines)
            .ways(self.ways)
            .array(self.array)
            .policy(self.policy)
            .seed(seed)
    }

    /// A short label (`SA-4`, `Z4/52`, `skew-4`, …); a zcache's `R` is
    /// [`ArrayKind::candidates`].
    pub fn label(&self) -> String {
        match self.array {
            ArrayKind::SetAssoc { .. } => format!("SA-{}", self.ways),
            ArrayKind::Skew => format!("skew-{}", self.ways),
            ArrayKind::ZCache { .. } => {
                format!("Z{}/{}", self.ways, self.array.candidates(self.ways))
            }
            ArrayKind::Fully => "fully".to_string(),
            ArrayKind::RandomCands { n } => format!("rand-{n}"),
        }
    }

    /// The physical-cost description of this design for a cache of
    /// `lines` total lines in `banks` banks.
    pub fn cache_design(&self, lines: u64, banks: u32) -> CacheDesign {
        let org = match self.array {
            ArrayKind::ZCache { levels } => OrgKind::ZCache { levels },
            // Skew caches have set-associative hit physics at their way
            // count; fully/random are analysis-only designs priced as
            // set-associative.
            _ => OrgKind::SetAssoc,
        };
        CacheDesign {
            size_bytes: lines * 64,
            line_bytes: 64,
            banks,
            ways: self.ways,
            org,
            lookup: self.lookup,
        }
    }
}

/// Full system configuration (Table I plus run-scaling knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core count (paper: 32 in-order x86 cores, IPC = 1 except memory).
    /// [`System`](crate::System) takes 1 to 64: the directory's sharer
    /// masks are `u64`.
    pub cores: u32,
    /// Per-core L1 capacity in lines (paper: 32 KB / 64 B = 512).
    pub l1_lines: u64,
    /// L1 associativity (paper: 4).
    pub l1_ways: u32,
    /// Total L2 capacity in lines (paper: 8 MB / 64 B = 131072).
    pub l2_lines: u64,
    /// L2 bank count (paper: 8).
    pub l2_banks: u32,
    /// The L2 design under test.
    pub l2: L2Design,
    /// Average L1-to-L2-bank interconnect latency, cycles (paper: 4).
    pub l1_to_l2_latency: u32,
    /// Override for the L2 bank hit latency; `None` derives it from the
    /// `zenergy` cost model (6–11 cycles across Table II designs).
    pub l2_bank_latency: Option<u32>,
    /// Zero-load memory latency, cycles (paper: 200).
    pub mem_latency: u32,
    /// Memory controllers (paper: 4).
    pub mem_controllers: u32,
    /// Channel occupancy per 64-byte transfer, cycles (64 GB/s total at
    /// 2 GHz = 32 B/cycle = 4 cycles per line per controller).
    pub mem_cycles_per_transfer: u32,
    /// Penalty for a coherence action (invalidation round or dirty
    /// downgrade), cycles.
    pub coherence_penalty: u32,
    /// Instructions each core executes before the run ends.
    pub instrs_per_core: u64,
    /// Seed for hashes and randomized components.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's Table I machine with the baseline L2.
    pub fn paper() -> Self {
        Self {
            cores: 32,
            l1_lines: 512,
            l1_ways: 4,
            l2_lines: 131_072,
            l2_banks: 8,
            l2: L2Design::baseline(),
            l1_to_l2_latency: 4,
            l2_bank_latency: None,
            mem_latency: 200,
            mem_controllers: 4,
            mem_cycles_per_transfer: 4,
            coherence_penalty: 20,
            instrs_per_core: 1_000_000,
            seed: 1,
        }
    }

    /// A scaled-down machine (4 KB L1s, 1 MB L2) for fast experiments;
    /// matches [`zworkloads::suite::Scale::SMALL`].
    pub fn small() -> Self {
        Self {
            l1_lines: 64,
            l2_lines: 16_384,
            instrs_per_core: 200_000,
            ..Self::paper()
        }
    }

    /// Replaces the L2 design.
    pub fn with_l2(mut self, l2: L2Design) -> Self {
        self.l2 = l2;
        self
    }

    /// The effective L2 bank hit latency: the override if set, otherwise
    /// the `zenergy` model.
    pub fn effective_l2_latency(&self) -> u32 {
        self.l2_bank_latency.unwrap_or_else(|| {
            self.l2
                .cache_design(self.l2_lines, self.l2_banks)
                .cost()
                .hit_latency_cycles
        })
    }

    /// Lines per L2 bank.
    pub fn lines_per_bank(&self) -> u64 {
        self.l2_lines / u64::from(self.l2_banks)
    }

    /// Core `core`'s private L1: set-associative, bit-select indexed,
    /// LRU. Execution-driven runs and trace recording build the same L1s.
    pub(crate) fn build_l1(&self, core: u32) -> DynCache {
        CacheBuilder::new()
            .lines(self.l1_lines)
            .ways(self.l1_ways)
            .array(ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            })
            .policy(PolicyKind::Lru)
            .seed(self.seed ^ u64::from(core))
            .build()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = SimConfig::paper();
        assert_eq!(c.cores, 32);
        assert_eq!(c.l1_lines * 64, 32 * 1024);
        assert_eq!(c.l2_lines * 64, 8 * 1024 * 1024);
        assert_eq!(c.l2_banks, 8);
        assert_eq!(c.mem_latency, 200);
        assert_eq!(c.mem_controllers, 4);
    }

    #[test]
    fn labels() {
        assert_eq!(L2Design::baseline().label(), "SA-4");
        assert_eq!(L2Design::zcache(4, 3).label(), "Z4/52");
        assert_eq!(L2Design::zcache(4, 2).label(), "Z4/16");
        assert_eq!(L2Design::setassoc(32).label(), "SA-32");
    }

    #[test]
    fn effective_latency_in_range() {
        for design in [
            L2Design::baseline(),
            L2Design::setassoc(32),
            L2Design::zcache(4, 3),
            L2Design::zcache(4, 3).with_lookup(LookupMode::Parallel),
        ] {
            let c = SimConfig::paper().with_l2(design);
            let lat = c.effective_l2_latency();
            assert!((5..=12).contains(&lat), "{}: {lat}", c.l2.label());
        }
    }

    #[test]
    fn zcache_latency_beats_wide_sa() {
        let z = SimConfig::paper().with_l2(L2Design::zcache(4, 3));
        let sa = SimConfig::paper().with_l2(L2Design::setassoc(32));
        assert!(z.effective_l2_latency() < sa.effective_l2_latency());
    }

    #[test]
    fn override_latency_wins() {
        let mut c = SimConfig::paper();
        c.l2_bank_latency = Some(7);
        assert_eq!(c.effective_l2_latency(), 7);
    }
}
