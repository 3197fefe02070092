//! The service tier: N shards behind a client with timeouts, retries,
//! hedging, and admission control — all in deterministic virtual time.
//!
//! A run is a pure function of `(ServeConfig, FaultPlan)`: the clock is
//! a tick counter, retry jitter is hashed, and the workload is a seeded
//! YCSB generator, so two runs with the same inputs produce the same
//! [`ServeReport`] byte for byte — which is what lets the soak harness
//! compare a chaos run against its fault-free twin and pin the numbers
//! in a checked-in report.
//!
//! Per-tick order (fixed; determinism depends on it):
//!
//! 1. impose this tick's fault state on the shards (and arm poisons),
//! 2. deliver replies produced last tick (acks, crash-triggered retries),
//! 3. scan in-flight ops for timeouts and hedge opportunities,
//! 4. send due retries,
//! 5. admit new arrivals (bounded by the in-flight limit),
//! 6. step every shard (produces next tick's replies; an active drop
//!    fault discards served replies here — the lost-ack path),
//! 7. advance the clock.
//!
//! Steps 3–4 run only on ticks with a pending op. On the others they
//! would scan an empty table, so skipping them changes no output. When
//! the shards keep up, every op acks the tick after it is sent, before
//! step 3, and the scans never run.

use crate::fault::{FaultKind, FaultPlan};
use crate::shard::{EnqueueOutcome, Reply, ReplyStatus, Request, Shard, ShardConfig};
use crate::stats::ServeStats;
use zcache_core::SeededMap;
use zhash::{Hasher64, Mix64};
use zworkloads::ycsb::{YcsbGen, YcsbSpec};

// Domain-separation tags for the seeds derived from `ServeConfig::seed`,
// so the shard picker, retry jitter, workload, and op-table layouts
// never share a stream.
const SHARD_PICK_TAG: u64 = 0x51a2_d01c;
const RETRY_JITTER_TAG: u64 = 0x7e71_0ff5;
const WORKLOAD_TAG: u64 = 0x3c5b_10ad;
const PENDING_TAG: u64 = 0x9e4d_7ab1;

/// Full configuration of a service run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shards.
    pub shards: u32,
    /// Cache frames per shard.
    pub lines_per_shard: u64,
    /// Ways per shard zcache.
    pub ways: u32,
    /// Walk levels per shard zcache.
    pub levels: u32,
    /// Per-shard queue capacity.
    pub queue_cap: usize,
    /// Per-shard service units per tick.
    pub units_per_tick: u64,
    /// Queue depth that forces the minimum walk budget.
    pub queue_watermark: usize,
    /// New operations admitted per tick.
    pub ops_per_tick: u32,
    /// Maximum ops outstanding at the client; arrivals beyond this are
    /// deferred (admission control).
    pub inflight_limit: usize,
    /// Ticks before an unanswered attempt times out.
    pub timeout: u64,
    /// Ticks before a first attempt is hedged with a duplicate request
    /// (`None` disables hedging).
    pub hedge_after: Option<u64>,
    /// Attempt budget per op (first attempt included).
    pub max_attempts: u32,
    /// Exponential backoff base, in ticks.
    pub backoff_base: u64,
    /// Exponential backoff cap, in ticks.
    pub backoff_cap: u64,
    /// Whether the client retries at all (mutation knob: disable and
    /// drop schedules must fail the soak).
    pub retries_enabled: bool,
    /// Ticks between a shard crash and its cold rebuild.
    pub rebuild_delay: u64,
    /// Whether crashed shards rebuild (mutation knob).
    pub rebuild_enabled: bool,
    /// Total operations in the run.
    pub total_ops: u64,
    /// Hard liveness bound: exceeding this many ticks is an invariant
    /// violation, not a hang.
    pub tick_limit: u64,
    /// Workload shape.
    pub spec: YcsbSpec,
    /// Master seed (workload, hashes, jitter all derive from it).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            lines_per_shard: 1 << 10,
            ways: 4,
            levels: 3,
            queue_cap: 96,
            units_per_tick: 240,
            queue_watermark: 80,
            ops_per_tick: 8,
            inflight_limit: 128,
            timeout: 64,
            hedge_after: Some(48),
            max_attempts: 9,
            backoff_base: 4,
            backoff_cap: 64,
            retries_enabled: true,
            rebuild_delay: 120,
            rebuild_enabled: true,
            total_ops: 24_000,
            tick_limit: 10_000,
            spec: YcsbSpec::workload_a().records(8192),
            seed: 1,
        }
    }
}

impl ServeConfig {
    /// Ticks needed to merely issue every op — fault plans should place
    /// their windows inside this horizon.
    pub fn issue_horizon(&self) -> u64 {
        self.total_ops.div_ceil(u64::from(self.ops_per_tick.max(1)))
    }

    /// Scales the run down to a smoke-test size (fast enough for CI and
    /// shrinking loops) while keeping every rate and threshold intact.
    pub fn smoke(mut self) -> Self {
        self.total_ops = 4_000;
        self.tick_limit = 4_000;
        self
    }
}

/// Everything a finished run reports. All fields are virtual-time
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Event counters and the latency histogram.
    pub stats: ServeStats,
    /// Ticks the run took.
    pub ticks: u64,
    /// Per-shard cache-state digests at the end of the run.
    pub shard_digests: Vec<u64>,
    /// FNV-style fold of the shard digests.
    pub combined_digest: u64,
    /// The run exceeded its tick limit with work still pending.
    pub livelocked: bool,
}

/// One tracked client operation.
///
/// `Default` exists only because [`SeededMap`] zero-fills its buckets;
/// a default `Pending` is never observed.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    key: u64,
    write: bool,
    shard: u32,
    submitted_at: u64,
    attempt_sent_at: u64,
    /// Enqueue attempts consumed (successful or bounced).
    attempts: u32,
    /// Tick of the next retry; `u64::MAX` while an attempt is in flight.
    retry_at: u64,
    hedged: bool,
}

const IN_FLIGHT: u64 = u64::MAX;

/// The service plus its synthetic client, stepped in virtual time.
pub struct ZServe {
    cfg: ServeConfig,
    plan: FaultPlan,
    shards: Vec<Shard>,
    shard_pick: Mix64,
    /// `shards - 1` when the shard count is a power of two: masking then
    /// equals the modulo and skips a divide on every op.
    shard_mask: Option<u64>,
    jitter: Mix64,
    gen: YcsbGen,
    pending: SeededMap<Pending>,
    /// Ids of the ops that failed, kept for the whole run: a late reply
    /// for one can still arrive. An op neither pending nor failed was
    /// acked.
    failed: SeededMap<()>,
    /// Replies produced by the previous tick's shard steps.
    inbox: Vec<Reply>,
    now: u64,
    issued: u64,
    stats: ServeStats,
    scratch_replies: Vec<Reply>,
    scratch_ids: Vec<u64>,
}

impl ZServe {
    /// Builds a service for one run of `plan` under `cfg`.
    pub fn new(cfg: ServeConfig, plan: FaultPlan) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let shard_cfg = |i: u32| ShardConfig {
            lines: cfg.lines_per_shard,
            ways: cfg.ways,
            levels: cfg.levels,
            seed: cfg
                .seed
                .wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9)),
            queue_cap: cfg.queue_cap,
            units_per_tick: cfg.units_per_tick,
            queue_watermark: cfg.queue_watermark,
            rebuild_delay: cfg.rebuild_delay,
            rebuild_enabled: cfg.rebuild_enabled,
        };
        let shards = (0..cfg.shards).map(|i| Shard::new(shard_cfg(i))).collect();
        let gen = YcsbGen::new(cfg.spec, cfg.seed ^ WORKLOAD_TAG);
        let pending = SeededMap::with_capacity(cfg.inflight_limit * 2, cfg.seed ^ PENDING_TAG);
        let failed = SeededMap::with_capacity(0, cfg.seed ^ PENDING_TAG);
        Self {
            shard_pick: Mix64::new(cfg.seed ^ SHARD_PICK_TAG),
            shard_mask: cfg
                .shards
                .is_power_of_two()
                .then(|| u64::from(cfg.shards) - 1),
            jitter: Mix64::new(cfg.seed ^ RETRY_JITTER_TAG),
            cfg,
            plan,
            shards,
            gen,
            pending,
            failed,
            inbox: Vec::new(),
            now: 0,
            issued: 0,
            stats: ServeStats::default(),
            scratch_replies: Vec::new(),
            scratch_ids: Vec::new(),
        }
    }

    /// Runs to completion (or to the tick limit) and reports.
    pub fn run(mut self) -> ServeReport {
        let mut livelocked = false;
        while self.issued < self.cfg.total_ops || !self.pending.is_empty() || !self.inbox.is_empty()
        {
            if self.now >= self.cfg.tick_limit {
                livelocked = true;
                // Everything still outstanding is lost.
                self.stats.failed += self.pending.len() as u64;
                self.stats.failed += self.cfg.total_ops - self.issued;
                break;
            }
            self.tick();
        }
        for shard in &self.shards {
            let c = shard.counters;
            self.stats.hits += c.hits;
            self.stats.misses += c.misses;
            self.stats.shard_crashes += c.crashes;
            self.stats.shard_rebuilds += c.rebuilds;
            self.stats.budget_reductions += c.budget_reductions;
            self.stats.budget_restorations += c.budget_restorations;
        }
        let shard_digests: Vec<u64> = self.shards.iter().map(Shard::digest).collect();
        let combined_digest = shard_digests.iter().fold(0xcbf2_9ce4_8422_2325u64, |d, s| {
            (d ^ s).wrapping_mul(0x0000_0100_0000_01b3)
        });
        ServeReport {
            stats: self.stats,
            ticks: self.now,
            shard_digests,
            combined_digest,
            livelocked,
        }
    }

    fn tick(&mut self) {
        self.impose_faults();
        self.deliver_inbox();
        if !self.pending.is_empty() {
            self.scan_inflight();
            self.send_retries();
        }
        self.admit_arrivals();
        self.step_shards();
        self.now += 1;
    }

    fn shard_of(&self, key: u64) -> u32 {
        let h = self.shard_pick.hash(key);
        match self.shard_mask {
            Some(mask) => (h & mask) as u32,
            None => (h % u64::from(self.cfg.shards)) as u32,
        }
    }

    /// Bounded exponential backoff with deterministic per-(op, attempt)
    /// jitter.
    fn backoff(&self, op_id: u64, attempts: u32) -> u64 {
        let shift = attempts.saturating_sub(1).min(16);
        let raw = self.cfg.backoff_base << shift;
        let bounded = raw.min(self.cfg.backoff_cap);
        let jitter = self
            .jitter
            .hash(op_id.wrapping_mul(31).wrapping_add(u64::from(attempts)))
            % self.cfg.backoff_base.max(1);
        bounded + jitter
    }

    /// Whether a drop fault is discarding `shard`'s served replies now.
    fn dropping(&self, shard: u32) -> bool {
        self.plan.events.iter().any(|e| {
            e.shard == shard
                && e.kind == FaultKind::Drop
                && self.now >= e.at
                && self.now < e.at + e.dur
        })
    }

    fn impose_faults(&mut self) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let i = i as u32;
            let mut stalled = false;
            let mut slowdown = 1u32;
            let mut clamp = None;
            for e in &self.plan.events {
                if e.shard != i {
                    continue;
                }
                let active = self.now >= e.at && self.now < e.at + e.dur;
                match e.kind {
                    FaultKind::Stall if active => stalled = true,
                    FaultKind::Slowdown { factor } if active => slowdown = slowdown.max(factor),
                    FaultKind::QueueBurst { cap } if active => {
                        clamp = Some(clamp.map_or(cap, |c: u32| c.min(cap)));
                    }
                    FaultKind::Poison if e.at == self.now => shard.arm_poison(),
                    _ => {}
                }
            }
            shard.set_stalled(stalled);
            shard.set_slowdown(slowdown);
            shard.set_queue_clamp(clamp);
        }
    }

    fn deliver_inbox(&mut self) {
        let mut replies = std::mem::take(&mut self.inbox);
        for reply in replies.drain(..) {
            match reply.status {
                ReplyStatus::Served { .. } => {
                    if let Some(p) = self.pending.remove(reply.op_id) {
                        self.stats.acked += 1;
                        self.stats.record_latency(self.now - p.submitted_at);
                    } else {
                        // A hedge or retry already completed this op, or
                        // it failed; the late reply is detected and
                        // suppressed.
                        self.stats.duplicate_acks += 1;
                    }
                }
                ReplyStatus::Crashed => match self.pending.get(reply.op_id) {
                    // Only act if this reply answers the attempt in
                    // flight; a crashed duplicate of a retried op says
                    // nothing new.
                    Some(p) if p.retry_at == IN_FLIGHT => self.schedule_retry(reply.op_id),
                    Some(_) => {}
                    // A crashed duplicate of an op already acked.
                    None if self.failed.get(reply.op_id).is_none() => {
                        self.stats.duplicate_acks += 1;
                    }
                    None => {}
                },
            }
        }
        self.inbox = replies;
    }

    /// Queues the next attempt for `op_id`, or fails the op if its
    /// attempt budget is spent (or retries are disabled).
    fn schedule_retry(&mut self, op_id: u64) {
        let (max_attempts, retries_enabled) = (self.cfg.max_attempts, self.cfg.retries_enabled);
        let attempts = self
            .pending
            .get(op_id)
            .expect("retry of unknown op")
            .attempts;
        let backoff_due = if !retries_enabled || attempts >= max_attempts {
            None
        } else {
            Some(self.now + self.backoff(op_id, attempts))
        };
        match backoff_due {
            Some(due) => {
                let p = self.pending.get_mut(op_id).unwrap();
                p.retry_at = due;
            }
            None => {
                self.pending.remove(op_id);
                self.failed.insert(op_id, ());
                self.stats.failed += 1;
            }
        }
    }

    fn scan_inflight(&mut self) {
        // Timeouts first.
        self.scratch_ids.clear();
        let timeout = self.cfg.timeout;
        for (op_id, p) in self.pending.iter() {
            if p.retry_at == IN_FLIGHT && self.now - p.attempt_sent_at >= timeout {
                self.scratch_ids.push(op_id);
            }
        }
        let timed_out = std::mem::take(&mut self.scratch_ids);
        for op_id in &timed_out {
            self.stats.timeouts += 1;
            self.schedule_retry(*op_id);
        }
        self.scratch_ids = timed_out;
        // Then hedges: first attempts that have waited `hedge_after`
        // get one duplicate request racing the original.
        let Some(hedge_after) = self.cfg.hedge_after else {
            return;
        };
        self.scratch_ids.clear();
        for (op_id, p) in self.pending.iter() {
            if p.retry_at == IN_FLIGHT
                && !p.hedged
                && p.attempts == 1
                && self.now - p.attempt_sent_at == hedge_after
            {
                self.scratch_ids.push(op_id);
            }
        }
        let hedgeable = std::mem::take(&mut self.scratch_ids);
        for &op_id in &hedgeable {
            let p = self.pending.get(op_id).unwrap();
            let outcome = self.shards[p.shard as usize].try_enqueue(Request {
                op_id,
                key: p.key,
                write: p.write,
            });
            if outcome == EnqueueOutcome::Accepted {
                self.stats.hedges += 1;
                self.pending.get_mut(op_id).unwrap().hedged = true;
            }
            // A bounced hedge is simply not retried — the original
            // attempt still owns the op.
        }
        self.scratch_ids = hedgeable;
    }

    fn send_retries(&mut self) {
        self.scratch_ids.clear();
        for (op_id, p) in self.pending.iter() {
            if p.retry_at != IN_FLIGHT && p.retry_at <= self.now {
                self.scratch_ids.push(op_id);
            }
        }
        let due = std::mem::take(&mut self.scratch_ids);
        for &op_id in &due {
            let p = self.pending.get(op_id).unwrap();
            let outcome = self.shards[p.shard as usize].try_enqueue(Request {
                op_id,
                key: p.key,
                write: p.write,
            });
            {
                let p = self.pending.get_mut(op_id).unwrap();
                p.attempts += 1;
            }
            match outcome {
                EnqueueOutcome::Accepted => {
                    self.stats.retries += 1;
                    let p = self.pending.get_mut(op_id).unwrap();
                    p.retry_at = IN_FLIGHT;
                    p.attempt_sent_at = self.now;
                }
                EnqueueOutcome::QueueFull | EnqueueOutcome::Down => {
                    self.stats.queue_rejections += 1;
                    self.schedule_retry(op_id);
                }
            }
        }
        self.scratch_ids = due;
    }

    fn admit_arrivals(&mut self) {
        for _ in 0..self.cfg.ops_per_tick {
            if self.issued >= self.cfg.total_ops {
                return;
            }
            if self.pending.len() >= self.cfg.inflight_limit {
                self.stats.admission_rejections += 1;
                return;
            }
            let op = self.gen.next_op();
            self.issued += 1;
            let op_id = self.issued;
            self.stats.ops_issued += 1;
            let shard = self.shard_of(op.key);
            let mut pending = Pending {
                key: op.key,
                write: op.is_write(),
                shard,
                submitted_at: self.now,
                attempt_sent_at: self.now,
                attempts: 1,
                retry_at: IN_FLIGHT,
                hedged: false,
            };
            let outcome = self.shards[shard as usize].try_enqueue(Request {
                op_id,
                key: op.key,
                write: pending.write,
            });
            match outcome {
                EnqueueOutcome::Accepted => {
                    self.pending.insert(op_id, pending);
                }
                EnqueueOutcome::QueueFull | EnqueueOutcome::Down => {
                    self.stats.queue_rejections += 1;
                    pending.retry_at = 0; // placeholder; set below
                    self.pending.insert(op_id, pending);
                    self.schedule_retry(op_id);
                }
            }
        }
    }

    fn step_shards(&mut self) {
        for i in 0..self.shards.len() {
            self.scratch_replies.clear();
            self.shards[i].step(self.now, &mut self.scratch_replies);
            let dropping = self.dropping(i as u32);
            for &reply in &self.scratch_replies {
                if dropping && matches!(reply.status, ReplyStatus::Served { .. }) {
                    self.stats.dropped_replies += 1;
                    continue;
                }
                self.inbox.push(reply);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultMenu};

    fn smoke_cfg() -> ServeConfig {
        ServeConfig::default().smoke()
    }

    #[test]
    fn fault_free_run_completes_exactly_once() {
        let report = ZServe::new(smoke_cfg(), FaultPlan::none()).run();
        assert!(!report.livelocked);
        assert_eq!(report.stats.ops_issued, 4_000);
        assert_eq!(report.stats.acked, 4_000);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.retries, 0);
        assert_eq!(report.stats.hedges, 0);
        assert_eq!(report.stats.hits + report.stats.misses, 4_000);
        assert!(report.stats.hit_rate() > 0.2, "{}", report.stats.hit_rate());
        assert_eq!(report.stats.latency_summary().count, 4_000);
    }

    #[test]
    fn shard_pick_masks_like_the_modulo() {
        // A power-of-two shard count masks the hash; every count picks
        // the shard the modulo picks.
        for shards in 1..=9 {
            let s = ZServe::new(
                ServeConfig {
                    shards,
                    ..smoke_cfg()
                },
                FaultPlan::none(),
            );
            assert_eq!(s.shard_mask.is_some(), shards.is_power_of_two());
            for key in (0..2_000u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
                let modulo = s.shard_pick.hash(key) % u64::from(shards);
                assert_eq!(u64::from(s.shard_of(key)), modulo, "{shards} shards");
            }
        }
    }

    #[test]
    fn new_accepts_an_unbounded_op_count() {
        // Nothing is allocated per op up front; the run stops at its
        // tick limit.
        let cfg = ServeConfig {
            total_ops: u64::MAX,
            tick_limit: 64,
            ..smoke_cfg()
        };
        let report = ZServe::new(cfg, FaultPlan::none()).run();
        assert!(report.livelocked);
        assert_eq!(report.stats.ops_issued, 64 * 8);
    }

    #[test]
    fn runs_are_deterministic() {
        let plan = FaultPlan::generate(3, 4, 500, 96, FaultMenu::all());
        let a = ZServe::new(smoke_cfg(), plan.clone()).run();
        let b = ZServe::new(smoke_cfg(), plan).run();
        assert_eq!(a, b);
    }

    #[test]
    fn transparent_stall_matches_twin_digest() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                shard: 1,
                at: 100,
                dur: 24,
                kind: FaultKind::Stall,
            }],
        };
        assert!(plan.is_transparent(smoke_cfg().timeout));
        let chaos = ZServe::new(smoke_cfg(), plan).run();
        let twin = ZServe::new(smoke_cfg(), FaultPlan::none()).run();
        assert_eq!(chaos.stats.retries, 0, "stall was not transparent");
        assert_eq!(chaos.stats.hedges, 0);
        assert_eq!(chaos.shard_digests, twin.shard_digests);
        assert_eq!(chaos.stats.hits, twin.stats.hits);
        assert_eq!(chaos.stats.misses, twin.stats.misses);
        // But the stall is visible in the tail.
        let (c, t) = (chaos.stats.latency_summary(), twin.stats.latency_summary());
        assert!(c.max >= t.max);
    }

    #[test]
    fn drop_fault_recovers_via_retries() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                shard: 0,
                at: 120,
                dur: 96,
                kind: FaultKind::Drop,
            }],
        };
        let report = ZServe::new(smoke_cfg(), plan).run();
        assert!(!report.livelocked);
        assert_eq!(report.stats.acked, 4_000);
        assert_eq!(report.stats.failed, 0);
        assert!(report.stats.dropped_replies > 0, "drop fault never fired");
        assert!(report.stats.retries > 0, "recovery must use retries");
    }

    #[test]
    fn poison_recovers_via_rebuild() {
        let plan = FaultPlan {
            events: vec![FaultEvent {
                shard: 2,
                at: 150,
                dur: 0,
                kind: FaultKind::Poison,
            }],
        };
        let report = ZServe::new(smoke_cfg(), plan).run();
        assert!(!report.livelocked);
        assert_eq!(report.stats.acked, 4_000);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.shard_crashes, 1);
        assert_eq!(report.stats.shard_rebuilds, 1);
    }

    #[test]
    fn poison_without_rebuild_fails_ops() {
        let mut cfg = smoke_cfg();
        cfg.rebuild_enabled = false;
        let plan = FaultPlan {
            events: vec![FaultEvent {
                shard: 2,
                at: 150,
                dur: 0,
                kind: FaultKind::Poison,
            }],
        };
        let report = ZServe::new(cfg, plan).run();
        assert!(report.stats.failed > 0, "dead shard should fail its ops");
    }

    #[test]
    fn drop_without_retries_loses_acks() {
        let mut cfg = smoke_cfg();
        cfg.retries_enabled = false;
        let plan = FaultPlan {
            events: vec![FaultEvent {
                shard: 0,
                at: 120,
                dur: 96,
                kind: FaultKind::Drop,
            }],
        };
        let report = ZServe::new(cfg, plan).run();
        assert!(
            report.stats.acked < report.stats.ops_issued,
            "dropped replies cannot be acked without retries"
        );
    }
}
