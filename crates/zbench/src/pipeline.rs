//! Reused per-worker buffers for the trace-driven sweep pipeline.
//!
//! The fig4/fig5/perf drivers process one grid point at a time: record a
//! workload's L2 stream, then replay it against every design. A
//! [`PointScratch`] owns the buffers that pipeline reuses — the trace
//! itself, the OPT next-use oracle, the replay queues and the Zipf-table
//! cache — so a worker allocates them once and streams every point it
//! claims through the same memory. The oracle's line → position map is
//! the exception: it lives only while the oracle is built, so it is not
//! held beside the replays' L2 banks. Pair it with
//! [`SweepRunner::run_with`](crate::SweepRunner::run_with).

use zcache_core::{PolicyKind, SeededMap};
use zsim::trace::{record_trace_into, replay_with, L2Trace, ReplayScratch};
use zsim::{SimConfig, SimStats};
use zworkloads::{Workload, ZipfCache};

/// Seed for the oracle's line → position map (layout never escapes).
const LAST_SEEN_SEED: u64 = 0x0b75_ace1_0f75_ace1;

/// Per-worker scratch for record-then-replay sweep points.
#[derive(Debug, Default)]
pub struct PointScratch {
    zipf: ZipfCache,
    trace: L2Trace,
    next_uses: Vec<u32>,
    replay: ReplayScratch,
    /// Whether `next_uses` matches the current `trace`.
    oracle_ready: bool,
}

impl PointScratch {
    /// Fresh scratch (buffers grow to steady-state size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `workload`'s L2 stream into the reused trace buffer,
    /// replacing the previous point's trace.
    pub fn record(&mut self, cfg: &SimConfig, workload: &Workload) {
        record_trace_into(cfg, workload, &mut self.zipf, &mut self.trace);
        self.oracle_ready = false;
    }

    /// The currently recorded trace.
    pub fn trace(&self) -> &L2Trace {
        &self.trace
    }

    /// Replays the recorded trace under `cfg`, computing the next-use
    /// oracle lazily: the backward pass runs at most once per recorded
    /// trace (on the first OPT replay), and not at all for policies that
    /// never consult it. Its line → position map is dropped as soon as
    /// the pass ends.
    pub fn replay(&mut self, cfg: &SimConfig) -> SimStats {
        let oracle = if cfg.l2.policy == PolicyKind::Opt {
            if !self.oracle_ready {
                let mut last_seen = SeededMap::with_capacity(1024, LAST_SEEN_SEED);
                self.trace
                    .next_uses_into(&mut self.next_uses, &mut last_seen);
                self.oracle_ready = true;
            }
            Some(self.next_uses.as_slice())
        } else {
            None
        };
        replay_with(cfg, &self.trace, oracle, &mut self.replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsim::trace::{record_trace, replay};
    use zsim::L2Design;
    use zworkloads::suite::{by_name, Scale};

    #[test]
    fn scratch_pipeline_matches_direct_record_replay() {
        let mut cfg = SimConfig::small();
        cfg.cores = 4;
        cfg.instrs_per_core = 20_000;
        let mut scratch = PointScratch::new();
        // Two points back-to-back through one scratch: buffer carry-over
        // from the first must not perturb the second.
        for name in ["canneal", "gcc"] {
            let wl = by_name(name, 4, Scale::SMALL).unwrap();
            scratch.record(&cfg, &wl);
            let fresh = record_trace(&cfg, &wl);
            assert_eq!(scratch.trace().refs, fresh.refs, "{name}: trace");
            for design in [
                L2Design::baseline(),
                L2Design::zcache(4, 3).with_policy(PolicyKind::Opt),
                L2Design::baseline().with_policy(PolicyKind::Opt),
            ] {
                let dcfg = cfg.clone().with_l2(design);
                assert_eq!(
                    scratch.replay(&dcfg),
                    replay(&dcfg, &fresh),
                    "{name}: {design:?}"
                );
            }
        }
    }
}
