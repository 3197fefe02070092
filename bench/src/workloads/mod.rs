//! The six workloads.
//!
//! Each has an untraced rep and a traced drive. A rep times a set-up
//! phase (input generation, construction, warm-up) and then the timed
//! call into the same public entry point a user calls. The traced drive
//! re-issues that call's work from this crate, with spans around each
//! layer's public functions and histograms around the hot ones; its
//! output records must equal the rep's.

mod array;
mod conflicts;
mod exec;
mod fig4;
mod serve;
mod tenants;

use crate::metrics::Layers;
use crate::speed::{self, Phase};
use crate::trace::Tracer;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Array,
    Tenants,
    Fig4,
    Exec,
    Conflicts,
    Serve,
}

/// One untraced rep.
pub struct Rep {
    /// Before the timed call: inputs, construction, warm-up.
    pub setup: Phase,
    /// The timed call.
    pub wall: Phase,
    /// Golden-checked output records.
    pub records: Vec<String>,
    /// Client operations issued and failed (zero but for serve).
    pub client_ops: (u64, u64),
    /// What `zbench` prints for the same call, where it has a command.
    pub report: Option<String>,
}

/// One traced drive. Its timed work is the top-level spans named `drive`.
pub struct Traced {
    pub records: Vec<String>,
    pub layers: Layers,
    /// Failed consistency checks between the drive and the entry point.
    pub problems: Vec<String>,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Array,
        Workload::Tenants,
        Workload::Fig4,
        Workload::Exec,
        Workload::Conflicts,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Array => "array-z4-52",
            Workload::Tenants => "tenants-quota",
            Workload::Fig4 => "fig4-sweep",
            Workload::Exec => "exec-z4-52",
            Workload::Conflicts => "conflicts-fa",
            Workload::Serve => "serve-ycsb",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One untraced rep at `1/div` of the full size.
    pub fn rep(self, seed: u64, div: u64) -> Rep {
        match self {
            Workload::Array => array::rep(seed, div),
            Workload::Tenants => tenants::rep(seed, div),
            Workload::Fig4 => fig4::rep(seed, div),
            Workload::Exec => exec::rep(seed, div),
            Workload::Conflicts => conflicts::rep(seed, div),
            Workload::Serve => serve::rep(seed, div),
        }
    }

    /// The traced drive of the same work as [`rep`](Self::rep).
    pub fn traced(self, seed: u64, div: u64, tr: &mut Tracer) -> Traced {
        match self {
            Workload::Array => array::traced(seed, div, tr),
            Workload::Tenants => tenants::traced(seed, div, tr),
            Workload::Fig4 => fig4::traced(seed, div, tr),
            Workload::Exec => exec::traced(seed, div, tr),
            Workload::Conflicts => conflicts::traced(seed, div, tr),
            Workload::Serve => serve::traced(seed, div, tr),
        }
    }
}

/// Times `setup`, then `run` on its result, each phase bracketed by the
/// reference kernel: `(setup, wall, output)`.
fn phases<S, R>(setup: impl FnOnce() -> S, run: impl FnOnce(S) -> R) -> (Phase, Phase, R) {
    let k0 = speed::probe();
    let t0 = Instant::now();
    let prepared = setup();
    let t1 = Instant::now();
    let k1 = speed::probe();
    let t2 = Instant::now();
    let out = run(prepared);
    let t3 = Instant::now();
    let k2 = speed::probe();
    let phase = |from: Instant, to: Instant, ka: f64, kb: f64| Phase {
        raw_s: (to - from).as_secs_f64(),
        kernel_s: (ka + kb) / 2.0,
    };
    (phase(t0, t1, k0, k1), phase(t2, t3, k1, k2), out)
}
