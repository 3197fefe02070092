//! One shard: a zcache behind a bounded FIFO queue, with panic
//! isolation, cold rebuild, and adaptive walk-budget degradation.
//!
//! The shard runs in virtual time. Each [`Shard::step`] call models one
//! tick: the shard spends up to its service budget (in *service units*
//! — tag reads, roughly) draining its queue, and emits replies. Faults
//! are externally imposed flags ([`Shard::set_stalled`] and friends);
//! the shard itself only knows how to break, not when.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use zcache_core::{
    AdaptiveConfig, ArrayKind, CacheBuilder, DynCache, FullLru, PanicFailure, ShadowDuel,
};

/// Geometry and service parameters for one shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Cache frames in this shard's array.
    pub lines: u64,
    /// Ways of the shard's zcache.
    pub ways: u32,
    /// Walk levels of the shard's zcache.
    pub levels: u32,
    /// Seed for hashes and randomized structures.
    pub seed: u64,
    /// Bounded request-queue capacity.
    pub queue_cap: usize,
    /// Service units available per tick (a hit costs `ways` units, a
    /// miss `ways` plus the walk's tag reads — so shrinking the walk
    /// budget genuinely raises throughput).
    pub units_per_tick: u64,
    /// Queue depth at which overload control forces the minimum walk
    /// budget. Restores once depth falls to a quarter of this.
    pub queue_watermark: usize,
    /// Ticks between a crash and the cold rebuild coming online.
    pub rebuild_delay: u64,
    /// Whether a crashed shard rebuilds at all (mutation knob: disable
    /// and poison schedules must fail the soak).
    pub rebuild_enabled: bool,
}

/// A request as the shard sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-assigned operation id.
    pub op_id: u64,
    /// Key (used directly as the cache line address).
    pub key: u64,
    /// Whether the operation writes.
    pub write: bool,
}

/// How a request finished at the shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Served; `hit` is the cache outcome.
    Served {
        /// Whether the lookup hit.
        hit: bool,
    },
    /// The shard crashed with this request queued or in service.
    Crashed,
}

/// A reply emitted by [`Shard::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// The operation this reply answers.
    pub op_id: u64,
    /// Outcome.
    pub status: ReplyStatus,
}

/// Synchronous verdict of [`Shard::try_enqueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Queued.
    Accepted,
    /// Bounced: the (possibly fault-clamped) queue is full.
    QueueFull,
    /// Bounced: the shard has no array (crashed, possibly rebuilding).
    Down,
}

/// Per-shard event counters, folded into the service totals at the end
/// of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Panics caught and converted to typed failures.
    pub crashes: u64,
    /// Cold rebuilds completed.
    pub rebuilds: u64,
    /// Walk-budget decreases applied.
    pub budget_reductions: u64,
    /// Walk-budget increases applied.
    pub budget_restorations: u64,
}

/// The shard itself. See the module docs for the execution model.
pub struct Shard {
    cfg: ShardConfig,
    /// `None` while crashed.
    cache: Option<DynCache>,
    queue: VecDeque<Request>,
    duel: ShadowDuel<FullLru>,
    /// Walk budget currently applied to the array.
    budget: u32,
    /// Overload control has pinned the budget to the minimum tier.
    forced_min: bool,
    /// The most recent caught crash, for reporting.
    pub last_failure: Option<PanicFailure>,
    /// Event counters.
    pub counters: ShardCounters,
    // Fault state, reasserted by the service every tick.
    stalled: bool,
    slowdown: u32,
    clamp: Option<u32>,
    poison_armed: bool,
    rebuild_at: Option<u64>,
}

impl Shard {
    /// Builds a shard with a warm (empty but live) cache.
    pub fn new(cfg: ShardConfig) -> Self {
        let duel = ShadowDuel::for_geometry(
            cfg.lines,
            cfg.ways,
            cfg.levels,
            FullLru::new,
            AdaptiveConfig::default(),
        );
        let budget = duel.budget();
        let mut shard = Self {
            cfg,
            cache: Some(Self::build_cache(&cfg)),
            queue: VecDeque::new(),
            duel,
            budget,
            forced_min: false,
            last_failure: None,
            counters: ShardCounters::default(),
            stalled: false,
            slowdown: 1,
            clamp: None,
            poison_armed: false,
            rebuild_at: None,
        };
        shard.apply_budget_to_cache();
        shard
    }

    fn build_cache(cfg: &ShardConfig) -> DynCache {
        CacheBuilder::new()
            .lines(cfg.lines)
            .ways(cfg.ways)
            .array(ArrayKind::ZCache { levels: cfg.levels })
            .seed(cfg.seed)
            .build()
    }

    fn apply_budget_to_cache(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.array_mut().set_max_candidates(self.budget);
        }
    }

    /// Imposes or clears a stall for the current tick.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Imposes a capacity divisor (1 = full speed).
    pub fn set_slowdown(&mut self, factor: u32) {
        self.slowdown = factor.max(1);
    }

    /// Clamps the queue capacity (`None` = the configured capacity).
    pub fn set_queue_clamp(&mut self, cap: Option<u32>) {
        self.clamp = cap;
    }

    /// Arms a poison: the next request processed panics inside the
    /// cache operation. No-op while the shard is down.
    pub fn arm_poison(&mut self) {
        if self.cache.is_some() {
            self.poison_armed = true;
        }
    }

    /// Whether the shard currently has a live array.
    pub fn is_up(&self) -> bool {
        self.cache.is_some()
    }

    /// Walk budget currently applied.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Cache-state digest (0 while down) — the transparency invariant
    /// compares these between a chaos run and its fault-free twin.
    pub fn digest(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.state_digest())
    }

    /// Offers a request. Rejections are synchronous; the client decides
    /// whether to retry.
    pub fn try_enqueue(&mut self, req: Request) -> EnqueueOutcome {
        if self.cache.is_none() {
            return EnqueueOutcome::Down;
        }
        let cap = self
            .clamp
            .map_or(self.cfg.queue_cap, |c| (c as usize).min(self.cfg.queue_cap));
        if self.queue.len() >= cap {
            return EnqueueOutcome::QueueFull;
        }
        self.queue.push_back(req);
        EnqueueOutcome::Accepted
    }

    /// Re-evaluates the walk budget: overload forces the minimum tier
    /// (with hysteresis), otherwise the shadow duel's recommendation
    /// stands.
    fn update_budget(&mut self) {
        let (min, _, _) = self.duel.tiers();
        if !self.forced_min && self.queue.len() >= self.cfg.queue_watermark {
            self.forced_min = true;
        } else if self.forced_min && self.queue.len() <= self.cfg.queue_watermark / 4 {
            self.forced_min = false;
        }
        let target = if self.forced_min {
            min
        } else {
            self.duel.budget()
        };
        if target != self.budget {
            if target < self.budget {
                self.counters.budget_reductions += 1;
            } else {
                self.counters.budget_restorations += 1;
            }
            self.budget = target;
            self.apply_budget_to_cache();
        }
    }

    /// Crashes the shard: converts the panic payload to a typed
    /// failure, drains the queue as [`ReplyStatus::Crashed`] replies,
    /// and schedules the cold rebuild (when enabled).
    fn crash(&mut self, now: u64, payload: Box<dyn std::any::Any + Send>, out: &mut Vec<Reply>) {
        self.last_failure = Some(PanicFailure::from_payload("shard executor", payload));
        self.counters.crashes += 1;
        self.cache = None;
        self.poison_armed = false;
        self.forced_min = false;
        for req in self.queue.drain(..) {
            out.push(Reply {
                op_id: req.op_id,
                status: ReplyStatus::Crashed,
            });
        }
        if self.cfg.rebuild_enabled {
            self.rebuild_at = Some(now + self.cfg.rebuild_delay);
        }
    }

    /// Runs one virtual tick: rebuild if due, then drain the queue
    /// until the tick's service units are spent. Replies are appended
    /// to `out`.
    pub fn step(&mut self, now: u64, out: &mut Vec<Reply>) {
        if self.cache.is_none() {
            if let Some(at) = self.rebuild_at {
                if now >= at {
                    self.cache = Some(Self::build_cache(&self.cfg));
                    self.rebuild_at = None;
                    self.counters.rebuilds += 1;
                    self.apply_budget_to_cache();
                }
            }
            if self.cache.is_none() {
                return;
            }
        }
        if self.stalled {
            return;
        }
        let units = self.cfg.units_per_tick / u64::from(self.slowdown);
        if units == 0 {
            return;
        }
        let mut spent = 0u64;
        // The op that crosses the budget boundary still completes, so a
        // single expensive miss can never wedge an underprovisioned
        // shard.
        while spent < units {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            self.update_budget();
            if self.poison_armed {
                let cache = self.cache.as_mut().unwrap();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    quiet_panics(|| {
                        if req.write {
                            cache.access_write(req.key);
                        } else {
                            cache.access(req.key);
                        }
                        panic!("injected shard poison");
                    })
                }));
                match result {
                    Err(payload) => {
                        self.crash(now, payload, out);
                        out.push(Reply {
                            op_id: req.op_id,
                            status: ReplyStatus::Crashed,
                        });
                        return;
                    }
                    Ok(()) => unreachable!("poisoned request must panic"),
                }
            }
            let cache = self.cache.as_mut().unwrap();
            let outcome = if req.write {
                cache.access_write(req.key)
            } else {
                cache.access(req.key)
            };
            let cost = if outcome.hit {
                self.counters.hits += 1;
                u64::from(self.cfg.ways)
            } else {
                self.counters.misses += 1;
                u64::from(self.cfg.ways) + u64::from(cache.last_candidates().tag_reads)
            };
            spent += cost;
            self.duel.observe(req.key);
            out.push(Reply {
                op_id: req.op_id,
                status: ReplyStatus::Served { hit: outcome.hit },
            });
        }
    }
}

/// Runs `f` with the process panic hook silenced for *expected* panics
/// on this thread, so injected shard poisons don't spray backtraces
/// over test output. The hook is installed once and delegates to the
/// previous hook for every unexpected panic.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    use std::cell::Cell;
    use std::sync::Once;

    thread_local! {
        static EXPECTED: Cell<bool> = const { Cell::new(false) };
    }
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTED.with(|e| e.get()) {
                prev(info);
            }
        }));
    });

    EXPECTED.with(|e| e.set(true));
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            EXPECTED.with(|e| e.set(false));
        }
    }
    let _reset = Reset;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShardConfig {
        ShardConfig {
            lines: 256,
            ways: 4,
            levels: 3,
            seed: 7,
            queue_cap: 16,
            units_per_tick: 240,
            queue_watermark: 12,
            rebuild_delay: 10,
            rebuild_enabled: true,
        }
    }

    fn req(op_id: u64, key: u64) -> Request {
        Request {
            op_id,
            key,
            write: false,
        }
    }

    #[test]
    fn serves_and_counts() {
        let mut s = Shard::new(cfg());
        let mut out = Vec::new();
        assert_eq!(s.try_enqueue(req(1, 42)), EnqueueOutcome::Accepted);
        assert_eq!(s.try_enqueue(req(2, 42)), EnqueueOutcome::Accepted);
        s.step(0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].status, ReplyStatus::Served { hit: false });
        assert_eq!(out[1].status, ReplyStatus::Served { hit: true });
        assert_eq!(s.counters.hits, 1);
        assert_eq!(s.counters.misses, 1);
    }

    #[test]
    fn queue_full_and_clamp() {
        let mut s = Shard::new(cfg());
        for i in 0..16 {
            assert_eq!(s.try_enqueue(req(i, i)), EnqueueOutcome::Accepted);
        }
        assert_eq!(s.try_enqueue(req(99, 99)), EnqueueOutcome::QueueFull);
        let mut out = Vec::new();
        s.step(0, &mut out);
        s.set_queue_clamp(Some(2));
        assert_eq!(s.try_enqueue(req(100, 1)), EnqueueOutcome::Accepted);
        assert_eq!(s.try_enqueue(req(101, 2)), EnqueueOutcome::Accepted);
        assert_eq!(s.try_enqueue(req(102, 3)), EnqueueOutcome::QueueFull);
    }

    #[test]
    fn stall_freezes_service() {
        let mut s = Shard::new(cfg());
        s.try_enqueue(req(1, 1));
        s.set_stalled(true);
        let mut out = Vec::new();
        s.step(0, &mut out);
        assert!(out.is_empty());
        s.set_stalled(false);
        s.step(1, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn poison_crashes_drains_and_rebuilds() {
        let mut s = Shard::new(cfg());
        s.try_enqueue(req(1, 1));
        s.try_enqueue(req(2, 2));
        s.arm_poison();
        let mut out = Vec::new();
        s.step(0, &mut out);
        // Both the poisoned request and the queued one come back Crashed.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.status == ReplyStatus::Crashed));
        assert!(!s.is_up());
        assert_eq!(s.counters.crashes, 1);
        let failure = s.last_failure.as_ref().unwrap();
        assert!(
            failure.message.contains("injected shard poison"),
            "{failure}"
        );
        assert_eq!(s.try_enqueue(req(3, 3)), EnqueueOutcome::Down);
        // Down until the rebuild deadline, then cold and serving again.
        out.clear();
        s.step(5, &mut out);
        assert!(!s.is_up());
        s.step(10, &mut out);
        assert!(s.is_up());
        assert_eq!(s.counters.rebuilds, 1);
        assert_eq!(s.try_enqueue(req(3, 3)), EnqueueOutcome::Accepted);
        s.step(11, &mut out);
        assert_eq!(
            out.last().unwrap().status,
            ReplyStatus::Served { hit: false }
        );
    }

    #[test]
    fn rebuild_disabled_stays_down() {
        let mut c = cfg();
        c.rebuild_enabled = false;
        let mut s = Shard::new(c);
        s.try_enqueue(req(1, 1));
        s.arm_poison();
        let mut out = Vec::new();
        s.step(0, &mut out);
        for t in 1..100 {
            s.step(t, &mut out);
        }
        assert!(!s.is_up());
        assert_eq!(s.counters.rebuilds, 0);
    }

    #[test]
    fn overload_forces_min_budget_then_restores() {
        let mut c = cfg();
        c.units_per_tick = 60;
        let mut s = Shard::new(c);
        let (min, _, max) = s.duel.tiers();
        assert_eq!(s.budget(), max);
        // Flood with distinct keys. While the array is empty misses are
        // cheap and the shard keeps up; once its 256 frames fill, every
        // miss pays a full walk, throughput collapses below the arrival
        // rate, and the watermark trips.
        let mut out = Vec::new();
        let mut op = 0;
        let mut tripped_at = None;
        for round in 0..400u64 {
            for i in 0..8u64 {
                op += 1;
                let _ = s.try_enqueue(req(op, 10_000 + round * 8 + i));
            }
            s.step(round, &mut out);
            if s.budget() == min {
                tripped_at = Some(round);
                break;
            }
        }
        assert_eq!(s.budget(), min, "watermark never tripped");
        assert!(s.counters.budget_reductions >= 1);
        // Let it drain; budget returns to the duel's recommendation.
        let from = tripped_at.unwrap() + 1;
        for t in from..from + 200 {
            s.step(t, &mut out);
        }
        assert!(s.budget() > min, "budget never restored after drain");
        assert!(s.counters.budget_restorations >= 1);
    }

    #[test]
    fn slowdown_divides_throughput() {
        let mut a = Shard::new(cfg());
        let mut b = Shard::new(cfg());
        b.set_slowdown(3);
        for i in 0..16u64 {
            a.try_enqueue(req(i, 5_000 + i));
            b.try_enqueue(req(i, 5_000 + i));
        }
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.step(0, &mut oa);
        b.step(0, &mut ob);
        assert!(
            ob.len() < oa.len(),
            "slowdown served {} vs {} at full speed",
            ob.len(),
            oa.len()
        );
    }
}
