//! Adaptive associativity (the paper's §VIII future work).
//!
//! "Since the zcache makes it trivial to increase or reduce associativity
//! with the same hardware design, it would be interesting to explore
//! adaptive replacement schemes that use the high associativity only when
//! it improves performance, saving cache bandwidth and energy when high
//! associativity is not needed."
//!
//! The machinery is *shadow-tag dueling* (the sampling idea behind set
//! dueling / utility monitors), packaged as a reusable controller,
//! [`ShadowDuel`]: two small shadow tag arrays — one at the minimum walk
//! (skew-associative), one at the full walk — observe a hash-sampled
//! slice of the access stream and run the same replacement policy as the
//! main cache. The difference in their miss counts measures exactly what
//! the extra replacement candidates are worth on the current phase; the
//! recommended walk budget follows that measurement. Counters age
//! geometrically so the duel tracks phase changes without drowning in
//! per-window noise.
//!
//! Two consumers exist today: [`AdaptiveZCache`] wires a duel straight
//! into a `Cache<ZArray, P>` (this module), and the `zserve` service
//! tier's overload controller feeds per-shard duels and clamps their
//! recommendation further when request queues back up.

use crate::array::{CacheArray, ZArray};
use crate::cache::Cache;
use crate::repl::ReplacementPolicy;
use crate::replacement_candidates;
use crate::types::LineAddr;
use zhash::{Hasher64, Mix64};

/// Tuning knobs for [`ShadowDuel`] / [`AdaptiveZCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Sampled accesses between budget re-evaluations.
    pub window: u64,
    /// Windows between counter halvings (phase aging).
    pub age_period: u32,
    /// Use the full budget when the deep shadow's miss rate beats the
    /// shallow shadow's by more than this fraction of sampled accesses;
    /// fall to the two-level budget above a quarter of it, and to the
    /// skew-associative floor below that.
    pub benefit_threshold: f64,
    /// Address-sampling ratio: 1-in-`2^sample_shift` accesses feed the
    /// shadows, whose arrays shrink by the same factor so their pressure
    /// matches the main cache's.
    pub sample_shift: u32,
    /// Hysteresis: after a recommendation change, suppress further
    /// changes for this many windows, so a workload sitting on a tier
    /// boundary can't flap the budget every window (each flap retunes
    /// the main array). `0` reacts every window (no hysteresis); the
    /// first change after construction is never delayed.
    pub dwell: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            window: 1024,
            age_period: 16,
            benefit_threshold: 0.005,
            sample_shift: 5, // 1 in 32
            dwell: 0,
        }
    }
}

/// A reusable shadow-tag duel: observes a sampled address stream and
/// recommends a zcache walk budget (in replacement candidates) for a
/// main array of the given geometry.
///
/// The duel owns its two shadow caches and the aged miss counters; it
/// knows nothing about the array it steers, so one duel can drive a
/// [`Cache`] directly ([`AdaptiveZCache`]) or feed a higher-level
/// controller that mixes in other signals (e.g. queue depth under
/// overload, as the `zserve` service tier does).
///
/// # Examples
///
/// ```
/// use zcache_core::{AdaptiveConfig, FullLru, ShadowDuel};
///
/// let mut duel = ShadowDuel::for_geometry(1 << 12, 4, 3, FullLru::new,
///                                         AdaptiveConfig::default());
/// for addr in 0..100_000u64 {
///     duel.observe(addr); // no-reuse stream: high walk is worthless
/// }
/// assert_eq!(duel.budget(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShadowDuel<P> {
    cfg: AdaptiveConfig,
    shadow_shallow: Cache<ZArray, P>,
    shadow_deep: Cache<ZArray, P>,
    sampler: Mix64,
    sample_mask: u64,
    min_budget: u32,
    mid_budget: u32,
    max_budget: u32,
    budget: u32,
    window_samples: u64,
    windows_since_age: u32,
    /// Windows since the last recommendation change; saturated at
    /// construction so the first change is never dwell-delayed.
    windows_since_change: u32,
    // Aged duel counters.
    acc_samples: f64,
    acc_shallow: f64,
    acc_deep: f64,
    prev_shallow_misses: u64,
    prev_deep_misses: u64,
    adaptations: u64,
}

impl<P: ReplacementPolicy> ShadowDuel<P> {
    /// Checks, without panicking, that a duel can shadow a main array of
    /// `lines` frames and `ways` ways: the shadows are derived from at
    /// least `4 × ways` frames. [`for_geometry`](Self::for_geometry)
    /// asserts this check, so a caller that validates first never
    /// reaches its panic.
    pub fn check_geometry(lines: u64, ways: u32) -> Result<(), String> {
        let min = 4 * u64::from(ways);
        if lines < min {
            Err(format!(
                "array too small for shadow sampling (need at least 4 x ways = {min} lines)"
            ))
        } else {
            Ok(())
        }
    }

    /// Builds a duel for a main array of `lines` frames, `ways` ways and
    /// `levels` walk levels; `make_policy` builds the replacement policy
    /// for a given frame count (used for both shadows, so the duel
    /// reflects the real policy). The recommended budget starts at the
    /// full configured depth.
    ///
    /// # Panics
    ///
    /// Panics if [`check_geometry`](Self::check_geometry) rejects the
    /// geometry.
    pub fn for_geometry<F: Fn(u64) -> P>(
        lines: u64,
        ways: u32,
        levels: u32,
        make_policy: F,
        cfg: AdaptiveConfig,
    ) -> Self {
        let max_budget = replacement_candidates(ways, levels).min(u64::from(u32::MAX)) as u32;
        let mid_budget =
            replacement_candidates(ways, 2.min(levels)).min(u64::from(max_budget)) as u32;
        Self::check_geometry(lines, ways).unwrap_or_else(|e| panic!("{e}"));

        // Shadow arrays: the main geometry scaled down by the sampling
        // ratio. Arrays below ~16 rows/way behave erratically (walks
        // cover most of the array, repeats dominate), so the sampling
        // shift is clamped to keep the shadows at least that big.
        let max_shift = (lines / (u64::from(ways) * 16)).max(1).ilog2();
        let shift = cfg.sample_shift.min(max_shift);
        let shadow_rows = (lines >> shift) / u64::from(ways);
        let shadow_rows = shadow_rows.next_power_of_two().max(4);
        let shadow_lines = shadow_rows * u64::from(ways);
        let shadow_shallow = Cache::new(
            ZArray::new(shadow_lines, ways, 1, 0x0005_1ad0),
            make_policy(shadow_lines),
        );
        let shadow_deep = Cache::new(
            ZArray::new(shadow_lines, ways, levels, 0x0005_1ad1),
            make_policy(shadow_lines),
        );

        Self {
            cfg,
            shadow_shallow,
            shadow_deep,
            sampler: Mix64::new(0xadae_717e),
            sample_mask: (1u64 << shift) - 1,
            min_budget: ways,
            mid_budget,
            max_budget,
            budget: max_budget,
            window_samples: 0,
            windows_since_age: 0,
            windows_since_change: u32::MAX,
            acc_samples: 0.0,
            acc_shallow: 0.0,
            acc_deep: 0.0,
            prev_shallow_misses: 0,
            prev_deep_misses: 0,
            adaptations: 0,
        }
    }

    /// Feeds one access to the duel. Sampled addresses exercise both
    /// shadows; at window boundaries the recommendation is re-evaluated.
    /// Returns `Some(new_budget)` exactly when the recommendation
    /// changed, so callers can forward it to the array they steer.
    pub fn observe(&mut self, addr: LineAddr) -> Option<u32> {
        if self.sampler.hash(addr) & self.sample_mask != 0 {
            return None;
        }
        self.shadow_shallow.access(addr);
        self.shadow_deep.access(addr);
        self.window_samples += 1;
        if self.window_samples >= self.cfg.window {
            return self.decide();
        }
        None
    }

    fn decide(&mut self) -> Option<u32> {
        let shallow = self.shadow_shallow.stats().misses - self.prev_shallow_misses;
        let deep = self.shadow_deep.stats().misses - self.prev_deep_misses;
        self.prev_shallow_misses = self.shadow_shallow.stats().misses;
        self.prev_deep_misses = self.shadow_deep.stats().misses;

        self.acc_samples += self.window_samples as f64;
        self.acc_shallow += shallow as f64;
        self.acc_deep += deep as f64;
        self.window_samples = 0;

        // Age the counters so old phases fade.
        self.windows_since_age += 1;
        if self.windows_since_age >= self.cfg.age_period {
            self.acc_samples /= 2.0;
            self.acc_shallow /= 2.0;
            self.acc_deep /= 2.0;
            self.windows_since_age = 0;
        }

        let benefit = (self.acc_shallow - self.acc_deep) / self.acc_samples.max(1.0);
        let target = if benefit > self.cfg.benefit_threshold {
            self.max_budget
        } else if benefit > self.cfg.benefit_threshold / 4.0 {
            self.mid_budget
        } else {
            self.min_budget
        };
        // Hysteresis: a change starts a dwell window during which the
        // recommendation is pinned, even if the measured target moves.
        self.windows_since_change = self.windows_since_change.saturating_add(1);
        if target != self.budget && self.windows_since_change > self.cfg.dwell {
            self.budget = target;
            self.adaptations += 1;
            self.windows_since_change = 0;
            Some(target)
        } else {
            None
        }
    }

    /// The currently recommended candidate budget.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// The `(min, mid, max)` budget tiers the duel chooses between.
    pub fn tiers(&self) -> (u32, u32, u32) {
        (self.min_budget, self.mid_budget, self.max_budget)
    }

    /// Number of recommendation changes so far.
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Shadow miss counts so far, `(shallow, deep)` — diagnostics.
    pub fn shadow_misses(&self) -> (u64, u64) {
        (
            self.shadow_shallow.stats().misses,
            self.shadow_deep.stats().misses,
        )
    }
}

/// An adaptive-walk zcache: a [`Cache`] over a [`ZArray`] whose
/// candidate budget follows a [`ShadowDuel`] between the minimum and
/// the maximum walk depth.
///
/// # Examples
///
/// ```
/// use zcache_core::{AdaptiveConfig, AdaptiveZCache, FullLru, ZArray};
///
/// let array = ZArray::new(1 << 12, 4, 3, 1); // up to 52 candidates
/// let mut cache = AdaptiveZCache::new(array, FullLru::new, AdaptiveConfig::default());
/// for addr in 0..50_000u64 {
///     cache.access(addr % 20_000);
/// }
/// assert!(cache.current_budget() >= 4 && cache.current_budget() <= 52);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveZCache<P> {
    inner: Cache<ZArray, P>,
    duel: ShadowDuel<P>,
}

impl<P: ReplacementPolicy> AdaptiveZCache<P> {
    /// Wraps an array with an adaptive controller; `make_policy` builds
    /// the replacement policy for a given frame count (used for the main
    /// cache and both shadows, so the duel reflects the real policy).
    ///
    /// The budget starts at the full configured depth.
    ///
    /// # Panics
    ///
    /// Panics if the array has fewer than `4 × ways` frames (too small
    /// to derive shadow arrays).
    pub fn new<F: Fn(u64) -> P>(array: ZArray, make_policy: F, cfg: AdaptiveConfig) -> Self {
        let lines = array.lines();
        let duel = ShadowDuel::for_geometry(lines, array.ways(), array.levels(), &make_policy, cfg);
        Self {
            inner: Cache::new(array, make_policy(lines)),
            duel,
        }
    }

    /// Performs one access, re-evaluating the walk budget at window
    /// boundaries.
    pub fn access(&mut self, addr: LineAddr) -> crate::cache::AccessOutcome {
        if let Some(budget) = self.duel.observe(addr) {
            self.inner.array_mut().set_max_candidates(budget);
        }
        self.inner.access(addr)
    }

    /// The current candidate budget.
    pub fn current_budget(&self) -> u32 {
        self.duel.budget()
    }

    /// Number of budget changes performed.
    pub fn adaptations(&self) -> u64 {
        self.duel.adaptations()
    }

    /// The wrapped cache (for statistics).
    pub fn cache(&self) -> &Cache<ZArray, P> {
        &self.inner
    }

    /// Shadow miss counts so far, `(shallow, deep)` — diagnostics.
    pub fn shadow_misses(&self) -> (u64, u64) {
        self.duel.shadow_misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::{FullLru, Rrip};
    use zhash::SplitMix64;

    fn adaptive_lru(lines: u64) -> AdaptiveZCache<FullLru> {
        AdaptiveZCache::new(
            ZArray::new(lines, 4, 3, 1),
            FullLru::new,
            AdaptiveConfig {
                window: 256,
                ..AdaptiveConfig::default()
            },
        )
    }

    #[test]
    fn budget_stays_in_bounds() {
        let mut c = adaptive_lru(1024);
        let mut rng = SplitMix64::new(1);
        for _ in 0..100_000 {
            c.access(rng.next_below(8192));
            assert!(c.current_budget() >= 4);
            assert!(c.current_budget() <= 52);
        }
    }

    #[test]
    fn no_reuse_stream_throttles_to_minimum() {
        // Blocks are referenced exactly once: every victim is equally
        // worthless, the duel measures zero benefit, and the walk
        // collapses to the skew-associative floor.
        let mut c = adaptive_lru(1024);
        for addr in 0..400_000u64 {
            c.access(addr);
        }
        assert_eq!(c.current_budget(), 4, "no-reuse stream must throttle");
    }

    #[test]
    fn saves_tag_bandwidth_versus_fixed_walk_on_stream() {
        let mut fixed = Cache::new(ZArray::new(1024, 4, 3, 1), FullLru::new(1024));
        let mut adap = adaptive_lru(1024);
        for addr in 0..200_000u64 {
            fixed.access(addr);
            adap.access(addr);
        }
        assert_eq!(fixed.stats().misses, adap.cache().stats().misses);
        assert!(
            (adap.cache().stats().tag_reads as f64) < fixed.stats().tag_reads as f64 * 0.5,
            "adaptive {} vs fixed {} tag reads",
            adap.cache().stats().tag_reads,
            fixed.stats().tag_reads
        );
    }

    /// Hot set + one-shot scan: RRIP protects the hot set much better
    /// with deep walks (it needs to *find* a distant-rrpv scan block
    /// among the candidates), so the duel measures a solid benefit.
    fn hot_scan(rng: &mut SplitMix64, i: u64) -> u64 {
        if rng.next_f64() < 0.6 {
            rng.next_below(700)
        } else {
            1_000_000 + i
        }
    }

    #[test]
    fn measured_benefit_keeps_walk_deep_under_rrip() {
        let mut c = AdaptiveZCache::new(
            ZArray::new(1024, 4, 3, 1),
            Rrip::new,
            AdaptiveConfig {
                window: 512,
                ..AdaptiveConfig::default()
            },
        );
        let mut rng = SplitMix64::new(7);
        let mut deep_checks = 0u64;
        let mut checks = 0u64;
        for i in 0..600_000u64 {
            c.access(hot_scan(&mut rng, i));
            if i > 100_000 && i % 1_000 == 0 {
                checks += 1;
                if c.current_budget() > 4 {
                    deep_checks += 1;
                }
            }
        }
        let (shallow, deep) = c.shadow_misses();
        assert!(
            deep < shallow,
            "deep shadow should miss less ({deep} vs {shallow})"
        );
        assert!(
            deep_checks * 3 > checks * 2,
            "budget should stay deep most of the run ({deep_checks}/{checks})"
        );
    }

    #[test]
    fn adaptive_miss_rate_tracks_the_better_shadow() {
        // Whatever the workload, the adaptive cache must land close to
        // the better fixed configuration.
        let mut fixed_deep = Cache::new(ZArray::new(1024, 4, 3, 1), Rrip::new(1024));
        let mut adap = AdaptiveZCache::new(
            ZArray::new(1024, 4, 3, 1),
            Rrip::new,
            AdaptiveConfig {
                window: 512,
                ..AdaptiveConfig::default()
            },
        );
        let mut r1 = SplitMix64::new(7);
        let mut r2 = SplitMix64::new(7);
        for i in 0..400_000u64 {
            fixed_deep.access(hot_scan(&mut r1, i));
            adap.access(hot_scan(&mut r2, i));
        }
        let (a, d) = (
            adap.cache().stats().miss_rate(),
            fixed_deep.stats().miss_rate(),
        );
        assert!(a <= d * 1.05, "adaptive {a} far above fixed deep {d}");
    }

    #[test]
    fn standalone_duel_matches_adaptive_cache_budget() {
        // The extracted controller and the wired-in cache must make the
        // same sequence of recommendations for the same stream.
        let mut duel = ShadowDuel::for_geometry(
            1024,
            4,
            3,
            FullLru::new,
            AdaptiveConfig {
                window: 256,
                ..AdaptiveConfig::default()
            },
        );
        let mut c = adaptive_lru(1024);
        let mut rng = SplitMix64::new(11);
        for i in 0..200_000u64 {
            let addr = if i % 3 == 0 { rng.next_below(600) } else { i };
            duel.observe(addr);
            c.access(addr);
            assert_eq!(duel.budget(), c.current_budget(), "step {i}");
        }
        assert_eq!(duel.adaptations(), c.adaptations());
        assert_eq!(duel.tiers(), (4, 16, 52));
    }

    /// Drives a duel with an adversarial phase-alternating stream —
    /// `phase_windows` windows of conflict-heavy reuse (deep walk pays)
    /// followed by `phase_windows` windows of no-reuse scanning (deep
    /// walk is worthless), repeated — and returns the access index of
    /// every recommendation change.
    fn change_indices(dwell: u32, window: u64, phase_windows: u64, accesses: u64) -> Vec<u64> {
        let cfg = AdaptiveConfig {
            window,
            age_period: 1, // fastest decay: maximally twitchy counters
            benefit_threshold: 0.005,
            sample_shift: 0, // every access sampled: windows are exact
            dwell,
        };
        let mut duel = ShadowDuel::for_geometry(1024, 4, 3, FullLru::new, cfg);
        let mut rng = SplitMix64::new(23);
        let mut changes = Vec::new();
        let mut scan = 10_000_000u64;
        for i in 0..accesses {
            let phase = (i / (window * phase_windows)) % 2;
            let addr = if phase == 0 {
                // Hot reuse slightly under the shadow capacity: the
                // 1-level shadow thrashes on conflicts, the deep walk
                // approximates full LRU and mostly fits.
                rng.next_below(900)
            } else {
                scan += 1;
                scan
            };
            if duel.observe(addr).is_some() {
                changes.push(i);
            }
        }
        changes
    }

    #[test]
    fn dwell_bounds_budget_oscillation_under_adversarial_phases() {
        // The property: with `dwell = D`, two recommendation changes are
        // never closer than (D+1) windows — the tier is pinned for the
        // dwell period no matter how hard the phases flap.
        let (window, dwell) = (128u64, 4u32);
        let with_dwell = change_indices(dwell, window, 2, 200_000);
        assert!(
            with_dwell.len() >= 2,
            "stream too tame: only {} changes with dwell",
            with_dwell.len()
        );
        let min_gap_allowed = window * u64::from(dwell + 1);
        for pair in with_dwell.windows(2) {
            assert!(
                pair[1] - pair[0] >= min_gap_allowed,
                "changes at {} and {} violate the {}-window dwell",
                pair[0],
                pair[1],
                dwell
            );
        }

        // Mutation validation: the same stream genuinely oscillates
        // faster than the dwell allows when hysteresis is off, so the
        // assertion above is load-bearing — removing the dwell check
        // from `decide` makes the dwell run behave like this one and
        // the gap assertion fail.
        let without = change_indices(0, window, 2, 200_000);
        let min_gap = without
            .windows(2)
            .map(|p| p[1] - p[0])
            .min()
            .expect("dwell-free run must change at least twice");
        assert!(
            min_gap < min_gap_allowed,
            "dwell-free min gap {min_gap} never violates the bound; the dwell test is vacuous"
        );
        assert!(
            without.len() > with_dwell.len(),
            "hysteresis should suppress changes ({} vs {})",
            without.len(),
            with_dwell.len()
        );
    }

    #[test]
    fn first_change_is_not_dwell_delayed() {
        // A huge dwell must not delay the *first* adaptation: the
        // since-change counter starts saturated.
        let changes = change_indices(1_000_000, 128, 2, 50_000);
        assert_eq!(changes.len(), 1, "exactly the initial adaptation");
    }

    #[test]
    #[should_panic(expected = "too small for shadow sampling")]
    fn tiny_array_panics() {
        assert_eq!(ShadowDuel::<FullLru>::check_geometry(16, 4), Ok(()));
        assert!(ShadowDuel::<FullLru>::check_geometry(8, 4).is_err());
        let _ = AdaptiveZCache::new(
            ZArray::new(8, 4, 3, 1),
            FullLru::new,
            AdaptiveConfig::default(),
        );
    }
}
