//! Service-side counters and latency percentiles.
//!
//! All latencies are in virtual ticks, so every number here is
//! deterministic and safe to pin in a checked-in benchmark report.

/// Summary of a latency distribution: exact nearest-rank percentiles
/// read off per-tick counts. Latencies are whole ticks, so the counts
/// lose nothing: every percentile is the value a sort of the samples
/// would give.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median latency in ticks.
    pub p50: u64,
    /// 95th-percentile latency in ticks.
    pub p95: u64,
    /// 99th-percentile latency in ticks.
    pub p99: u64,
    /// Worst observed latency in ticks.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes per-tick counts, `counts[t]` samples of `t` ticks;
    /// no samples yield the all-zero summary.
    fn from_counts(counts: &[u64]) -> Self {
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return Self::default();
        }
        let pct = |p: u64| {
            // Nearest-rank percentile: smallest sample with at least
            // p% of the mass at or below it, i.e. the sample of the
            // smallest rank r (1-based) with r·100 ≥ N·p. `div_ceil`
            // computes exactly that, including the even-N median (N=4,
            // p50 → rank 2) and the small-N tails (N=2, p99 → rank 2);
            // the `.max(1)` only guards p=0. That sample is the first
            // tick whose cumulative count reaches r. Locked against a
            // naive reference by `nearest_rank_matches_naive_reference`.
            let rank = (count * p).div_ceil(100).max(1);
            let mut seen = 0;
            let tick = counts.iter().position(|&c| {
                seen += c;
                seen >= rank
            });
            tick.expect("rank is at most the sample count") as u64
        };
        Self {
            count,
            p50: pct(50),
            p95: pct(95),
            p99: pct(99),
            max: counts.iter().rposition(|&c| c > 0).expect("count > 0") as u64,
        }
    }
}

/// Everything a soak run counts. Exact-once delivery is checked from
/// these: `acked` must equal the ops issued, `duplicate_acks` and
/// `lost` must be zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Operations the client submitted (first attempts only).
    pub ops_issued: u64,
    /// Operations acknowledged exactly once.
    pub acked: u64,
    /// Acks delivered for an already-acked operation (hedge + retry
    /// races; must stay observable-as-zero at the client — duplicates
    /// are detected and suppressed, but counted here).
    pub duplicate_acks: u64,
    /// Operations that exhausted retries or hit the deadline without an
    /// ack.
    pub failed: u64,
    /// Cache hits across all shards.
    pub hits: u64,
    /// Cache misses across all shards.
    pub misses: u64,
    /// Requests bounced by shard queue-full rejection.
    pub queue_rejections: u64,
    /// Requests bounced by client-side admission control (inflight
    /// limit).
    pub admission_rejections: u64,
    /// Retry attempts sent (beyond first attempts).
    pub retries: u64,
    /// Hedged (duplicate, racing) requests sent.
    pub hedges: u64,
    /// Requests that timed out waiting for a reply.
    pub timeouts: u64,
    /// Successful shard replies discarded by an active drop fault.
    pub dropped_replies: u64,
    /// Shard crashes caught and converted to typed failures.
    pub shard_crashes: u64,
    /// Cold shard rebuilds completed.
    pub shard_rebuilds: u64,
    /// Walk-budget reductions applied by overload control.
    pub budget_reductions: u64,
    /// Walk-budget restorations after load receded.
    pub budget_restorations: u64,
    /// Completed-op latencies as exact per-tick counts:
    /// `latency_counts[t]` ops took `t` ticks from first submit to ack.
    pub latency_counts: Vec<u64>,
}

impl ServeStats {
    /// Latency percentile summary over all completed ops.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_counts(&self.latency_counts)
    }

    /// Counts one completed op that took `ticks` ticks.
    pub(crate) fn record_latency(&mut self, ticks: u64) {
        let t = ticks as usize;
        if t >= self.latency_counts.len() {
            self.latency_counts.resize(t + 1, 0);
        }
        self.latency_counts[t] += 1;
    }

    /// Hit fraction of all cache lookups (0 when nothing completed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records `samples` as a run would and summarizes the counts.
    fn summary(samples: &[u64]) -> LatencySummary {
        let mut st = ServeStats::default();
        for &t in samples {
            st.record_latency(t);
        }
        st.latency_summary()
    }

    #[test]
    fn empty_summary_is_zero() {
        assert_eq!(summary(&[]), LatencySummary::default());
        assert_eq!(
            LatencySummary::from_counts(&[0, 0]),
            LatencySummary::default()
        );
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = summary(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
    }

    #[test]
    fn single_sample() {
        let s = summary(&[7]);
        assert_eq!((s.count, s.p50, s.p95, s.p99, s.max), (1, 7, 7, 7, 7));
    }

    #[test]
    fn recording_order_does_not_matter() {
        let s = summary(&[9, 1, 5]);
        assert_eq!(s.p50, 5);
        assert_eq!(s.max, 9);
        assert_eq!(s, summary(&[1, 5, 9]));
    }

    /// Naive nearest-rank reference: linear scan for the first 1-based
    /// index `i` whose prefix covers at least `p`% of the mass
    /// (`i·100 ≥ N·p`), written independently of the `div_ceil` form.
    fn naive_pct(sorted: &[u64], p: u64) -> u64 {
        let n = sorted.len() as u64;
        for i in 1..=n {
            if i * 100 >= n * p {
                return sorted[(i - 1) as usize];
            }
        }
        *sorted.last().unwrap()
    }

    #[test]
    fn nearest_rank_matches_naive_reference() {
        // Property test over every N in 1..=200 with adversarial sample
        // values (duplicates, zeros, large gaps) from a fixed LCG, plus
        // the even/small-N corners the audit called out (N=2, N=4). The
        // samples go in as per-tick counts; the reference sorts them.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 1000
        };
        for n in 1..=200usize {
            let mut samples: Vec<u64> = (0..n).map(|_| next()).collect();
            let s = summary(&samples);
            samples.sort_unstable();
            for (p, got) in [(50, s.p50), (95, s.p95), (99, s.p99)] {
                assert_eq!(got, naive_pct(&samples, p), "N={n} p{p}: {samples:?}");
            }
            assert_eq!(s.max, *samples.last().unwrap(), "N={n} max");
            assert_eq!(s.count, n as u64, "N={n} count");
        }
    }

    #[test]
    fn even_n_median_takes_lower_of_the_two_middles() {
        // N=4, p50: rank = ceil(200/100) = 2 — the lower middle, per
        // the nearest-rank definition (not an interpolated average).
        let s = summary(&[10, 20, 30, 40]);
        assert_eq!(s.p50, 20);
        // N=2: p50 is the first sample, the tails are the second.
        let s = summary(&[1, 2]);
        assert_eq!((s.p50, s.p95, s.p99), (1, 2, 2));
    }

    #[test]
    fn hit_rate_handles_zero() {
        let mut st = ServeStats::default();
        assert_eq!(st.hit_rate(), 0.0);
        st.hits = 3;
        st.misses = 1;
        assert!((st.hit_rate() - 0.75).abs() < 1e-12);
    }
}
