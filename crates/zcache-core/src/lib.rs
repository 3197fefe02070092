//! Cache arrays, replacement policies and the associativity framework
//! from *The ZCache: Decoupling Ways and Associativity* (Sanchez &
//! Kozyrakis, MICRO-43, 2010).
//!
//! # Overview
//!
//! The paper's central claim is that **associativity is determined by the
//! number of replacement candidates examined on a miss, not by the number
//! of ways**. This crate implements:
//!
//! * the **zcache** array ([`ZArray`]): per-way hash functions, hits in a
//!   single lookup, and a breadth-first *walk* on misses that discovers
//!   `R = W·Σ(W−1)^l` replacement candidates, followed by relocations
//!   along the victim's path;
//! * the comparison designs: [`SetAssocArray`] (± index hashing),
//!   [`SkewArray`], [`FullyAssocArray`], and the analytical
//!   [`RandomCandsArray`];
//! * [`LruStack`], the exact `O(1)` fully-associative LRU reference
//!   behind §IV's conflict-miss accounting;
//! * **replacement policies** as global orderings ([`FullLru`],
//!   [`BucketedLru`], [`Lfu`], [`RandomRepl`], [`Opt`]/[`OptTrace`],
//!   [`Rrip`]), shared across all arrays so associativity and policy
//!   effects stay separable;
//! * the **associativity-distribution framework** of §IV
//!   ([`AssociativityMeter`], [`uniform_assoc_cdf`]): eviction priorities
//!   as a probability distribution, with the analytic reference
//!   `F_A(x) = xⁿ`.
//!
//! # Quick start
//!
//! ```
//! use zcache_core::{ArrayKind, CacheBuilder, PolicyKind};
//!
//! // The paper's Z4/52: 4 ways, 3-level walk, 52 candidates per miss.
//! let mut zcache = CacheBuilder::new()
//!     .lines(1 << 14)
//!     .ways(4)
//!     .array(ArrayKind::ZCache { levels: 3 })
//!     .policy(PolicyKind::BucketedLru { bits: 8, k: 819 })
//!     .build();
//!
//! for addr in 0..100_000u64 {
//!     zcache.access(addr % 20_000);
//! }
//! println!("miss rate: {:.3}", zcache.stats().miss_rate());
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the scoped
// `#[allow]` around the `prefetcht0` hint in [`prefetch`], which cannot
// affect memory safety (prefetch is architecturally a no-op hint).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod array;
mod assoc;
mod cache;
mod failure;
mod lru_stack;
pub mod model;
pub mod partition;
pub mod prefetch;
mod repl;
pub mod seeded_map;
mod stats;
mod types;
mod victim;

pub use adaptive::{AdaptiveConfig, AdaptiveZCache, ShadowDuel};
pub use failure::PanicFailure;
pub use lru_stack::LruStack;
pub use partition::{
    PartitionConfig, PartitionOutcome, PartitionedCache, TenantGrant, TenantStats,
};
pub use prefetch::prefetch_read;
pub use victim::VictimCache;

pub use array::{
    digest_step, replacement_candidates, AnyArray, ArrayKind, CacheArray, Candidate, CandidateSet,
    FullyAssocArray, InstallOutcome, RandomCandsArray, SetAssocArray, SkewArray, TagIndex,
    TagStore, WalkKind, WalkNodeInfo, WalkStats, ZArray, DIGEST_SEED, INVALID_TAG,
};
pub use assoc::{
    eviction_priority, ks_distance_to_uniform, uniform_assoc_cdf, uniform_assoc_mean,
    AssociativityMeter,
};
pub use cache::{highest_score, AccessOutcome, Cache, CacheBuilder, DynCache};
pub use repl::{
    select_victim, AccessCtx, AnyPolicy, BucketedLru, Drrip, FullLru, Lfu, Opt, OptTrace,
    PolicyKind, RandomRepl, ReplacementPolicy, Rrip,
};
pub use seeded_map::SeededMap;
pub use stats::{CacheStats, UnitHistogram};
pub use types::{LineAddr, Location, SlotId};
