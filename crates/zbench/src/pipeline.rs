//! The one driver of the per-workload sweeps (Fig. 3–5, bandwidth,
//! conflicts, predict) and the per-worker buffers it offers.
//!
//! [`sweep`] owns which workloads a run keeps and each point's seed and
//! [`SimConfig`]; what a point measures is the closure each figure
//! passes. A [`PointScratch`] owns the buffers the record-then-replay
//! pipeline reuses — the trace, the OPT next-use oracle, the replay
//! index and the Zipf-table cache — so a worker allocates them once.
//! The trace is trimmed to its length after each recording, and the
//! oracle's position table lives only while the oracle is built, so
//! neither is held at more than its size beside the replays' L2 banks.
//! The oracle and the replay index are each built once per recording,
//! on the first replay that needs them.

use crate::opts::ExpOpts;
use crate::{point_seed, SweepRunner};
use zcache_core::PolicyKind;
use zsim::trace::{IndexedTrace, L2Trace, ReplayScratch};
use zsim::{SimConfig, SimStats};
use zworkloads::{Workload, ZipfCache};

/// Runs `point` once per `keep` index `i` of `suite` on a
/// [`SweepRunner`] of `opts.jobs` workers, results in `keep` order.
///
/// Each call gets the workload, [`ExpOpts::sim_config`] seeded with
/// [`point_seed`]`(opts.seed, i)`, and the worker's [`PointScratch`],
/// which a point may use or ignore. The seed follows the suite index,
/// so a filtered run ([`ExpOpts::kept`]) computes the same value for
/// every point it keeps, and the output is the same for any `--jobs`.
pub fn sweep<T, F>(
    opts: &ExpOpts,
    suite: &[Workload],
    keep: impl IntoIterator<Item = usize, IntoIter: Clone + Sync>,
    point: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&Workload, SimConfig, &mut PointScratch) -> T + Sync,
{
    // Walked again per point, not collected: the driver allocates
    // nothing beside what its points do.
    let keep = keep.into_iter();
    let n = keep.clone().count();
    SweepRunner::from_opts(opts).run_with(n, PointScratch::new, |p, scratch| {
        let i = keep.clone().nth(p).expect("p < n");
        let mut cfg = opts.sim_config();
        cfg.seed = point_seed(opts.seed, i as u64);
        point(&suite[i], cfg, scratch)
    })
}

/// Per-worker scratch for record-then-replay sweep points.
#[derive(Debug, Default)]
pub struct PointScratch {
    zipf: ZipfCache,
    trace: IndexedTrace,
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
        self.trace.record(cfg, workload, &mut self.zipf);
        self.oracle_ready = false;
    }

    /// The currently recorded trace.
    pub fn trace(&self) -> &L2Trace {
        self.trace.trace()
    }

    /// Replays the recorded trace under `cfg`, computing the next-use
    /// oracle lazily: the backward pass runs at most once per recorded
    /// trace (on the first OPT replay), and not at all for policies that
    /// never consult it. Its position table is dropped as soon as the
    /// pass ends. The replay index is built once per recorded trace too
    /// ([`IndexedTrace::replay`]).
    pub fn replay(&mut self, cfg: &SimConfig) -> SimStats {
        let oracle = if cfg.l2.policy == PolicyKind::Opt {
            if !self.oracle_ready {
                self.trace.trace().fill_next_uses(&mut self.next_uses);
                self.oracle_ready = true;
            }
            Some(self.next_uses.as_slice())
        } else {
            None
        };
        self.trace.replay(cfg, oracle, &mut self.replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zsim::trace::{record_trace, replay};
    use zsim::L2Design;
    use zworkloads::suite::{by_name, paper_suite_scaled, Scale};

    #[test]
    fn sweep_configures_points_by_suite_index() {
        let opts = ExpOpts {
            jobs: 3,
            ..ExpOpts::smoke()
        };
        let suite = paper_suite_scaled(4, Scale::SMALL);
        let keep = [5, 2, 9, 0];
        let got = sweep(&opts, &suite, keep, |wl, cfg, _| {
            (wl.name().to_string(), cfg)
        });
        let want: Vec<(String, SimConfig)> = (keep.iter())
            .map(|&i| {
                let mut cfg = opts.sim_config();
                cfg.seed = point_seed(opts.seed, i as u64);
                (suite[i].name().to_string(), cfg)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scratch_pipeline_matches_direct_record_replay() {
        let mut cfg = SimConfig::small();
        cfg.cores = 4;
        cfg.instrs_per_core = 20_000;
        let mut scratch = PointScratch::new();
        // Three points back-to-back through one scratch: buffer carry-over
        // from one must not perturb the next, and the third regrows the
        // trace buffer the second trimmed. gcc's trace is the shorter, so
        // its replays would read past its end through canneal's index,
        // and each trace's second and third replays reuse its own.
        let mut lens = Vec::new();
        for name in ["canneal", "gcc", "canneal"] {
            let wl = by_name(name, 4, Scale::SMALL).unwrap();
            scratch.record(&cfg, &wl);
            let fresh = record_trace(&cfg, &wl);
            assert_eq!(scratch.trace().refs, fresh.refs, "{name}: trace");
            lens.push(fresh.len());
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
        assert!(lens[1] < lens[0], "trace lengths {lens:?}");
    }
}
