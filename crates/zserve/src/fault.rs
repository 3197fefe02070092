//! Deterministic fault plans: what breaks, where, and when.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s pinned to *virtual*
//! ticks, so a chaos run is a pure function of `(config, plan, seed)` —
//! byte-identical on any machine, at any `--jobs`, on any day. Plans are
//! generated from a seed ([`FaultPlan::generate`]), serialized to a
//! plain-text repro format ([`FaultPlan::to_text`] /
//! [`FaultPlan::parse`]) so a failing schedule can be committed to
//! `tests/corpus/` and replayed forever, and shrunk by the soak harness
//! when an invariant breaks.

use zhash::SplitMix64;

/// What a fault does to its shard for the event's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The shard processes nothing while the window is open.
    Stall,
    /// The shard's service capacity is divided by `factor`.
    Slowdown {
        /// Capacity divisor (≥ 2 to mean anything).
        factor: u32,
    },
    /// Successful responses from the shard are silently discarded
    /// (requests are still applied — the classic lost-ack fault).
    Drop,
    /// The shard's request queue is clamped to `cap` slots, bouncing
    /// excess arrivals with queue-full rejections.
    QueueBurst {
        /// Clamped queue capacity during the window.
        cap: u32,
    },
    /// The next request the shard processes panics inside the cache
    /// operation; the shard executor catches it, loses the shard's
    /// array, and (if rebuild is enabled) comes back cold later.
    /// `dur` is ignored — the outage length is the rebuild delay.
    Poison,
}

impl FaultKind {
    /// Repro-format token (`stall`, `slow:F`, `drop`, `burst:C`,
    /// `poison`).
    pub fn token(&self) -> String {
        match self {
            FaultKind::Stall => "stall".to_string(),
            FaultKind::Slowdown { factor } => format!("slow:{factor}"),
            FaultKind::Drop => "drop".to_string(),
            FaultKind::QueueBurst { cap } => format!("burst:{cap}"),
            FaultKind::Poison => "poison".to_string(),
        }
    }

    fn parse_token(tok: &str) -> Option<FaultKind> {
        if let Some(f) = tok.strip_prefix("slow:") {
            return parse_unsigned(f).map(|factor| FaultKind::Slowdown { factor });
        }
        if let Some(c) = tok.strip_prefix("burst:") {
            return parse_unsigned(c).map(|cap| FaultKind::QueueBurst { cap });
        }
        match tok {
            "stall" => Some(FaultKind::Stall),
            "drop" => Some(FaultKind::Drop),
            "poison" => Some(FaultKind::Poison),
            _ => None,
        }
    }
}

/// One scheduled fault: `kind` hits `shard` at tick `at` for `dur`
/// ticks (`[at, at + dur)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Target shard index.
    pub shard: u32,
    /// First tick the fault is active.
    pub at: u64,
    /// Window length in ticks (ignored by [`FaultKind::Poison`]).
    pub dur: u64,
    /// The fault itself.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
}

/// Which fault kinds a generated plan draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMenu {
    /// Include stall windows.
    pub stall: bool,
    /// Include slowdown windows.
    pub slowdown: bool,
    /// Include response-drop windows.
    pub drop: bool,
    /// Include queue-clamp bursts.
    pub queue_burst: bool,
    /// Include shard poisoning.
    pub poison: bool,
}

impl FaultMenu {
    /// Every fault kind enabled.
    pub fn all() -> Self {
        Self {
            stall: true,
            slowdown: true,
            drop: true,
            queue_burst: true,
            poison: true,
        }
    }

    /// No fault kinds enabled.
    pub fn none() -> Self {
        Self {
            stall: false,
            slowdown: false,
            drop: false,
            queue_burst: false,
            poison: false,
        }
    }
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Generates a plan from a seed: for each enabled kind in `menu`,
    /// one window per kind on a seed-chosen shard, placed inside
    /// `[horizon/8, 3·horizon/4)` so the service is warmed up before
    /// anything breaks and has time to recover afterwards. `max_window`
    /// bounds every window length (stall windows are additionally
    /// halved, so "transparent" stall schedules stay under the client
    /// timeout).
    pub fn generate(
        seed: u64,
        shards: u32,
        horizon: u64,
        max_window: u64,
        menu: FaultMenu,
    ) -> Self {
        let mut rng = SplitMix64::new(seed ^ FAULT_PLAN_TAG);
        let mut events = Vec::new();
        let lo = horizon / 8;
        let hi = (horizon * 3 / 4).max(lo + 1);
        let window = |rng: &mut SplitMix64, scale: u64| (rng.next_below(scale) + scale / 2).max(4);
        let place = |rng: &mut SplitMix64| lo + rng.next_below(hi - lo);
        if menu.stall {
            events.push(FaultEvent {
                shard: rng.next_below(u64::from(shards)) as u32,
                at: place(&mut rng),
                dur: window(&mut rng, (max_window / 2).max(4)),
                kind: FaultKind::Stall,
            });
        }
        if menu.slowdown {
            events.push(FaultEvent {
                shard: rng.next_below(u64::from(shards)) as u32,
                at: place(&mut rng),
                dur: window(&mut rng, max_window),
                kind: FaultKind::Slowdown {
                    factor: 2 + rng.next_below(2) as u32,
                },
            });
        }
        if menu.drop {
            events.push(FaultEvent {
                shard: rng.next_below(u64::from(shards)) as u32,
                at: place(&mut rng),
                dur: window(&mut rng, max_window),
                kind: FaultKind::Drop,
            });
        }
        if menu.queue_burst {
            events.push(FaultEvent {
                shard: rng.next_below(u64::from(shards)) as u32,
                at: place(&mut rng),
                dur: window(&mut rng, max_window),
                kind: FaultKind::QueueBurst {
                    cap: 2 + rng.next_below(3) as u32,
                },
            });
        }
        if menu.poison {
            events.push(FaultEvent {
                shard: rng.next_below(u64::from(shards)) as u32,
                at: place(&mut rng),
                dur: 0,
                kind: FaultKind::Poison,
            });
        }
        Self { events }
    }

    /// Whether the plan only contains timing-transparent faults —
    /// slowdowns, and stalls shorter than `timeout / 2` — under which a
    /// correct service produces the exact same cache-state digest as a
    /// fault-free run (per-shard FIFO order is preserved and no retry
    /// or hedge should fire).
    pub fn is_transparent(&self, timeout: u64) -> bool {
        self.events.iter().all(|e| match e.kind {
            FaultKind::Slowdown { .. } => true,
            FaultKind::Stall => e.dur <= timeout / 2,
            _ => false,
        })
    }

    /// Serializes the plan as repro-format lines (`fault <shard> <at>
    /// <dur> <kind>`), one per event.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "fault {} {} {} {}\n",
                e.shard,
                e.at,
                e.dur,
                e.kind.token()
            ));
        }
        out
    }

    /// Parses repro-format text: `fault` lines become events, comments
    /// (`#`) and blank lines are skipped, anything else is an error
    /// naming the offending 1-based line. So is a window whose end,
    /// `at + dur`, does not fit in a `u64`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') {
                continue;
            }
            let mut parts = t.split_whitespace();
            let bad = |msg: &str| format!("line {}: {msg}: {t:?}", i + 1);
            if parts.next() != Some("fault") {
                return Err(bad("expected `fault`"));
            }
            let shard = parts
                .next()
                .and_then(parse_unsigned)
                .ok_or_else(|| bad("bad shard"))?;
            let at: u64 = parts
                .next()
                .and_then(parse_unsigned)
                .ok_or_else(|| bad("bad start tick"))?;
            let dur = parts
                .next()
                .and_then(parse_unsigned)
                .ok_or_else(|| bad("bad duration"))?;
            let kind = parts
                .next()
                .and_then(FaultKind::parse_token)
                .ok_or_else(|| bad("bad fault kind"))?;
            if parts.next().is_some() {
                return Err(bad("trailing fields"));
            }
            if at.checked_add(dur).is_none() {
                return Err(bad("window ends past tick u64::MAX"));
            }
            events.push(FaultEvent {
                shard,
                at,
                dur,
                kind,
            });
        }
        Ok(Self { events })
    }
}

/// A decimal field of a serve repro: `str::parse` alone would also take
/// a leading `+`.
pub(crate) fn parse_unsigned<T: std::str::FromStr>(s: &str) -> Option<T> {
    if s.starts_with('+') {
        None
    } else {
        s.parse().ok()
    }
}

/// Domain-separation tag so a fault-plan seed never collides with the
/// workload or service seeds derived from the same base.
const FAULT_PLAN_TAG: u64 = 0xfa01_7a57_5eed_c0de;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text() {
        let plan = FaultPlan::generate(7, 4, 2000, 64, FaultMenu::all());
        assert_eq!(plan.events.len(), 5);
        let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::generate(1, 4, 2000, 64, FaultMenu::all());
        let b = FaultPlan::generate(1, 4, 2000, 64, FaultMenu::all());
        let c = FaultPlan::generate(2, 4, 2000, 64, FaultMenu::all());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn transparency_classification() {
        let slow = FaultPlan {
            events: vec![FaultEvent {
                shard: 0,
                at: 100,
                dur: 50,
                kind: FaultKind::Slowdown { factor: 2 },
            }],
        };
        assert!(slow.is_transparent(48));
        let long_stall = FaultPlan {
            events: vec![FaultEvent {
                shard: 0,
                at: 100,
                dur: 40,
                kind: FaultKind::Stall,
            }],
        };
        assert!(!long_stall.is_transparent(48));
        let drop = FaultPlan {
            events: vec![FaultEvent {
                shard: 0,
                at: 100,
                dur: 10,
                kind: FaultKind::Drop,
            }],
        };
        assert!(!drop.is_transparent(48));
        assert!(FaultPlan::none().is_transparent(48));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "fault",
            "fault x 1 1 stall",
            "fault 0 1 1 nope",
            "fault 0 1 1 stall extra",
            "nonsense 0 1 1 stall",
            "fault 0 1 18446744073709551615 stall",
            "fault +0 1 1 stall",
            "fault 0 +1 1 stall",
            "fault 0 1 +1 stall",
            "fault 0 1 1 slow:+3",
            "fault 0 1 1 burst:+2",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.starts_with("line 1: "), "{bad:?}: {err}");
        }
        let ok = FaultPlan::parse("# comment\n\nfault 1 10 5 slow:3\n").unwrap();
        assert_eq!(ok.events[0].kind, FaultKind::Slowdown { factor: 3 });
    }
}
