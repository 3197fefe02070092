//! Brute-force reference models and a differential conformance harness
//! for the zcache reproduction.
//!
//! The array models in `zcache-core` are optimized for simulation speed:
//! reusable walk tables, zero-allocation install paths, flat per-slot
//! policy state. PR 2 root-caused a silent placement-corruption bug
//! (`slot_on_path`) that only manifested on walks ≥ 4 levels — exactly
//! the class of bug a spot-check property misses. This crate provides
//! the antidote: *obviously correct* reference implementations that
//! recompute everything from scratch on every access, plus a
//! differential runner that drives a production [`DynCache`] and its
//! reference twin over the same deterministic access stream and compares
//!
//! * hit/miss outcome of every access,
//! * the full replacement-candidate list of every miss (slots and
//!   resident blocks, in discovery order),
//! * the chosen victim, relocation move list, filled frame, and
//!   write-back flag of every install,
//! * a digest of the complete tag + dirty state every K accesses.
//!
//! On divergence, [`shrink()`] delta-debugs the offending trace down to a
//! minimal repro and [`corpus`] serializes it into `tests/corpus/`,
//! where a regression test replays it on every run.
//!
//! The reference models trade every optimization for transparency:
//! replacement state is kept per *address* (not per slot), so relocation
//! bookkeeping bugs on the production side cannot be mirrored here; the
//! zcache walk is recomputed naively with explicit parent chains; victim
//! selection re-derives the global rank from plain maps.
//!
//! # Scope
//!
//! The grid covers the deterministic designs and global-rank policies:
//! set-associative (bit-select and H3 indexing), skew-associative,
//! 2- and 3-level zcaches, and fully-associative, each under LRU, LFU
//! and OPT. `RandomCands` arrays and the `Random` policy are excluded —
//! mirroring their PRNG consumption order would copy the implementation
//! rather than re-derive it — as are the non-global-rank policies
//! (RRIP/DRRIP age state mutates during selection).
//!
//! # Example
//!
//! ```
//! use zoracle::{diff, stream, CheckConfig, CheckDesign, CheckPolicy};
//!
//! let cfg = CheckConfig::new(CheckDesign::Z3, CheckPolicy::Lru, 64, 4, 42);
//! let trace = stream::gen_stream(5_000, 64, 7);
//! let summary = diff::run_diff(&cfg, &trace, 256).expect("no divergence");
//! assert_eq!(summary.accesses, 5_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod corpus;
pub mod diff;
pub mod oracle;
pub mod partition;
pub mod policy;
pub mod shrink;
pub mod stream;

pub use array::RefArray;
pub use diff::{run_diff, DiffSummary, Divergence, DivergenceKind};
pub use oracle::OracleCache;
pub use partition::{
    load_part_corpus, part_check_grid, read_part_repro, run_part_diff, run_part_diff_mutated,
    shrink_part, write_part_repro, PartAccess, PartConfig, PartDivergence, PartDivergenceKind,
    PartMix, PartRepro, PartSummary, RefPartitionedCache,
};
pub use policy::RefPolicy;
pub use shrink::shrink;
pub use stream::{gen_stream, next_uses, Access};

use zcache_core::{ArrayKind, CacheBuilder, DynCache, PolicyKind};
use zhash::HashKind;

/// A design point of the conformance grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckDesign {
    /// Set-associative, conventional bit-selection indexing.
    SaBitsel,
    /// Set-associative, H3-hashed index (the paper's baseline).
    SaH3,
    /// Skew-associative (one H3 function per way).
    Skew,
    /// 2-level zcache (the paper's Z4/16 shape).
    Z2,
    /// 3-level zcache (the paper's Z4/52 shape).
    Z3,
    /// Fully associative.
    Fully,
}

impl CheckDesign {
    /// Every design in the grid.
    pub const ALL: [CheckDesign; 6] = [
        CheckDesign::SaBitsel,
        CheckDesign::SaH3,
        CheckDesign::Skew,
        CheckDesign::Z2,
        CheckDesign::Z3,
        CheckDesign::Fully,
    ];

    /// Command-line name of this design.
    pub fn name(self) -> &'static str {
        match self {
            CheckDesign::SaBitsel => "sa-bitsel",
            CheckDesign::SaH3 => "sa-h3",
            CheckDesign::Skew => "skew",
            CheckDesign::Z2 => "z2",
            CheckDesign::Z3 => "z3",
            CheckDesign::Fully => "fully",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|d| d.name() == s)
    }

    /// The production-side array configuration.
    pub fn array_kind(self) -> ArrayKind {
        match self {
            CheckDesign::SaBitsel => ArrayKind::SetAssoc {
                hash: HashKind::BitSelect,
            },
            CheckDesign::SaH3 => ArrayKind::SetAssoc { hash: HashKind::H3 },
            CheckDesign::Skew => ArrayKind::Skew,
            CheckDesign::Z2 => ArrayKind::ZCache { levels: 2 },
            CheckDesign::Z3 => ArrayKind::ZCache { levels: 3 },
            CheckDesign::Fully => ArrayKind::Fully,
        }
    }
}

impl std::fmt::Display for CheckDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A replacement policy of the conformance grid (global-rank policies
/// only; see the crate docs for why the others are out of scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPolicy {
    /// Full LRU (rank = last-use time).
    Lru,
    /// LFU (rank = access count).
    Lfu,
    /// Belady's OPT (rank = next-use position, via trace annotations).
    Opt,
}

impl CheckPolicy {
    /// Every policy in the grid.
    pub const ALL: [CheckPolicy; 3] = [CheckPolicy::Lru, CheckPolicy::Lfu, CheckPolicy::Opt];

    /// Command-line name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            CheckPolicy::Lru => "lru",
            CheckPolicy::Lfu => "lfu",
            CheckPolicy::Opt => "opt",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The production-side policy configuration.
    pub fn policy_kind(self) -> PolicyKind {
        match self {
            CheckPolicy::Lru => PolicyKind::Lru,
            CheckPolicy::Lfu => PolicyKind::Lfu,
            CheckPolicy::Opt => PolicyKind::Opt,
        }
    }
}

impl std::fmt::Display for CheckPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One fully-specified conformance check: a design × policy pair plus
/// geometry and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Array design under test.
    pub design: CheckDesign,
    /// Replacement policy under test.
    pub policy: CheckPolicy,
    /// Total frames.
    pub lines: u64,
    /// Ways (ignored by the fully-associative design).
    pub ways: u32,
    /// Hash/stream seed shared by both sides.
    pub seed: u64,
}

impl CheckConfig {
    /// Creates a check configuration.
    pub fn new(design: CheckDesign, policy: CheckPolicy, lines: u64, ways: u32, seed: u64) -> Self {
        Self {
            design,
            policy,
            lines,
            ways,
            seed,
        }
    }

    /// Builds the production cache under test.
    pub fn build_dut(&self) -> DynCache {
        CacheBuilder::new()
            .lines(self.lines)
            .ways(self.ways)
            .array(self.design.array_kind())
            .policy(self.policy.policy_kind())
            .seed(self.seed)
            .build()
    }

    /// Builds the reference twin.
    pub fn build_oracle(&self) -> OracleCache {
        OracleCache::new(self)
    }

    /// Short label, e.g. `z3/lru`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.design, self.policy)
    }
}

/// The full conformance grid: every design × policy pair.
pub fn check_grid() -> Vec<(CheckDesign, CheckPolicy)> {
    let mut grid = Vec::with_capacity(CheckDesign::ALL.len() * CheckPolicy::ALL.len());
    for d in CheckDesign::ALL {
        for p in CheckPolicy::ALL {
            grid.push((d, p));
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_pairs() {
        let g = check_grid();
        assert_eq!(g.len(), 18);
        for d in CheckDesign::ALL {
            for p in CheckPolicy::ALL {
                assert!(g.contains(&(d, p)));
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for d in CheckDesign::ALL {
            assert_eq!(CheckDesign::from_name(d.name()), Some(d));
        }
        for p in CheckPolicy::ALL {
            assert_eq!(CheckPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(CheckDesign::from_name("bogus"), None);
    }
}
