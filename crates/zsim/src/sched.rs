//! The one event scheduler behind execution-driven runs, trace
//! recording and trace replay.

/// Dispatches per-core events in global `(cycle, core)` order: smallest
/// cycle first, ties to the lower core index — exactly the order a
/// min-heap of `(cycle, core)` pairs would pop.
///
/// Each core's clock is one packed key `(cycle << core_bits) | core`, so
/// lexicographic `(cycle, core)` order is plain `u64` order and one
/// branchless two-minimum sweep finds both the lead core and the
/// runner-up. Done cores park at `u64::MAX`.
///
/// Dispatch is batched: after one sweep, the lead core's events run
/// back-to-back for as long as its packed key stays below the
/// runner-up's — i.e. for as long as the lead would win the sweep again.
/// The interleaving is identical to one sweep per event; the batch
/// merely skips the sweeps whose outcome is already known.
#[derive(Debug)]
pub(crate) struct Scheduler {
    keys: Vec<u64>,
    core_bits: u32,
    active: usize,
}

impl Scheduler {
    /// A scheduler for `cores` cores, each with its first event at
    /// cycle 0.
    pub(crate) fn new(cores: usize) -> Self {
        Self {
            keys: (0..cores as u64).collect(),
            core_bits: cores.next_power_of_two().trailing_zeros().max(1),
            active: cores,
        }
    }

    /// Marks `core` done before its first event.
    pub(crate) fn retire(&mut self, core: usize) {
        if self.keys[core] != u64::MAX {
            self.keys[core] = u64::MAX;
            self.active -= 1;
        }
    }

    /// Runs events until every core is done. `event(core, now)` handles
    /// `core`'s event at cycle `now` and returns the cycle of the core's
    /// next event, or `None` when the core is done.
    // Inlined into each caller so the closure's captured state can stay
    // in registers: compiled as a separate function per caller, the
    // exec-z4-52 benchmark ran ~3 % slower (2-vCPU Xeon).
    #[inline]
    pub(crate) fn run(mut self, mut event: impl FnMut(usize, u64) -> Option<u64>) {
        let mask = (1u64 << self.core_bits) - 1;
        while self.active > 0 {
            // Branchless two-minimum sweep: min/max compile to cmov, so
            // the sweep has no data-dependent branches at all.
            let mut lead = u64::MAX;
            let mut runner = u64::MAX;
            for &k in &self.keys {
                let hi = k.max(lead);
                lead = k.min(lead);
                runner = runner.min(hi);
            }
            loop {
                let core = (lead & mask) as usize;
                let Some(next) = event(core, lead >> self.core_bits) else {
                    self.keys[core] = u64::MAX;
                    self.active -= 1;
                    break;
                };
                debug_assert!(
                    next < (1 << (63 - self.core_bits)),
                    "cycle count overflows packed key"
                );
                let key = (next << self.core_bits) | core as u64;
                if key < runner {
                    lead = key;
                    continue;
                }
                self.keys[core] = key;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zhash::SplitMix64;

    #[test]
    fn dispatch_order_is_the_linear_argmin() {
        // Every event's (cycle, core) must be the smallest pending pair,
        // ties included: replay the same per-core event schedules through
        // a plain linear argmin and compare the two dispatch orders.
        for cores in [1usize, 2, 3, 4, 7, 32] {
            let mut rng = SplitMix64::new(cores as u64);
            // Small steps (0 included) so cores tie on cycles often.
            let steps: Vec<Vec<u64>> = (0..cores)
                .map(|_| {
                    let n = rng.next_below(40);
                    (0..n).map(|_| rng.next_below(4)).collect()
                })
                .collect();

            let mut got = Vec::new();
            let mut sched = Scheduler::new(cores);
            for (c, s) in steps.iter().enumerate() {
                if s.is_empty() {
                    sched.retire(c);
                }
            }
            let mut pos = vec![0usize; cores];
            sched.run(|c, now| {
                got.push((now, c));
                let step = steps[c][pos[c]];
                pos[c] += 1;
                (pos[c] < steps[c].len()).then_some(now + step)
            });

            let mut want = Vec::new();
            let mut clock: Vec<Option<u64>> =
                steps.iter().map(|s| (!s.is_empty()).then_some(0)).collect();
            let mut pos = vec![0usize; cores];
            while let Some((now, c)) = clock
                .iter()
                .enumerate()
                .filter_map(|(c, t)| t.map(|t| (t, c)))
                .min()
            {
                want.push((now, c));
                let step = steps[c][pos[c]];
                pos[c] += 1;
                clock[c] = (pos[c] < steps[c].len()).then_some(now + step);
            }
            assert_eq!(got, want, "{cores} cores");
            assert_eq!(got.len(), steps.iter().map(Vec::len).sum::<usize>());
        }
    }
}
