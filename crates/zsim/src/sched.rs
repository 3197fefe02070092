//! The one event scheduler behind execution-driven runs, trace
//! recording and trace replay.

/// Dispatches per-core events in global `(cycle, core)` order: smallest
/// cycle first, ties to the lower core index — exactly the order a
/// min-heap of `(cycle, core)` pairs would pop.
///
/// Each core's clock is one packed key `(cycle << core_bits) | core`, so
/// lexicographic `(cycle, core)` order is plain `u64` order. The keys are
/// the leaves of a winner tree (a binary min-tree padded to a power of
/// two with `u64::MAX`, which is also where done cores park): the root
/// is the lead core's key, and the runner-up is the smallest sibling on
/// the lead's leaf-to-root path. Both cost O(log C) per dispatch, not a
/// sweep over all C cores. Keys are unique, so the order is exactly the
/// linear argmin's.
///
/// Dispatch is batched: the lead core's events run back-to-back for as
/// long as its packed key stays below the runner-up's — i.e. for as long
/// as the lead would stay at the root. Only then does its new key climb
/// the tree.
#[derive(Debug)]
pub(crate) struct Scheduler {
    /// `tree[1]` is the root, `tree[i]` the smaller of `tree[2i]` and
    /// `tree[2i + 1]`, and core `c`'s key is leaf `tree[leaves + c]`.
    /// `tree[0]` is unused.
    tree: Vec<u64>,
    leaves: usize,
    core_bits: u32,
}

impl Scheduler {
    /// A scheduler for `cores` cores, each with its first event at
    /// cycle 0.
    pub(crate) fn new(cores: usize) -> Self {
        let leaves = cores.next_power_of_two();
        let mut tree = vec![u64::MAX; 2 * leaves];
        for (leaf, core) in tree[leaves..].iter_mut().zip(0..cores as u64) {
            *leaf = core;
        }
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i].min(tree[2 * i + 1]);
        }
        Self {
            tree,
            leaves,
            core_bits: leaves.trailing_zeros().max(1),
        }
    }

    /// Marks `core` done before its first event.
    pub(crate) fn retire(&mut self, core: usize) {
        self.set(core, u64::MAX);
    }

    /// Stores `key` at `core`'s leaf and re-plays its matches up to the
    /// root, carrying the winner in a register instead of re-reading
    /// each node just stored.
    #[inline]
    fn set(&mut self, core: usize, key: u64) {
        let mut i = self.leaves + core;
        let mut win = key;
        self.tree[i] = win;
        while i > 1 {
            win = win.min(self.tree[i ^ 1]);
            i >>= 1;
            self.tree[i] = win;
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
        loop {
            let mut lead = self.tree[1];
            if lead == u64::MAX {
                return;
            }
            let core = (lead & mask) as usize;
            // Every other core's key sits in a sibling subtree of the
            // lead's path, so the runner-up is the smallest sibling.
            let mut runner = u64::MAX;
            let mut i = self.leaves + core;
            while i > 1 {
                runner = runner.min(self.tree[i ^ 1]);
                i >>= 1;
            }
            lead = loop {
                let Some(next) = event(core, lead >> self.core_bits) else {
                    break u64::MAX;
                };
                debug_assert!(
                    next < (1 << (63 - self.core_bits)),
                    "cycle count overflows packed key"
                );
                let key = (next << self.core_bits) | core as u64;
                if key >= runner {
                    break key;
                }
                lead = key;
            };
            self.set(core, lead);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zhash::SplitMix64;

    /// Runs per-core step schedules (a core with an empty schedule is
    /// retired up front) through the scheduler and through a plain
    /// linear argmin over `(cycle, core)`, asserts the two dispatch
    /// orders are equal, and returns it.
    fn dispatch_both_ways(steps: &[Vec<u64>]) -> Vec<(u64, usize)> {
        let cores = steps.len();
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
        got
    }

    #[test]
    fn dispatch_order_is_the_linear_argmin() {
        // 33 and 63 cores pad the tree with parked leaves; 64 fills it.
        for cores in [1usize, 2, 3, 4, 7, 32, 33, 63, 64] {
            let mut rng = SplitMix64::new(cores as u64);
            // Small steps (0 included) so cores tie on cycles often.
            let ties: Vec<Vec<u64>> = (0..cores)
                .map(|_| {
                    let n = rng.next_below(40);
                    (0..n).map(|_| rng.next_below(4)).collect()
                })
                .collect();
            dispatch_both_ways(&ties);

            // Every third core, the first and the last retire before
            // their first event.
            let mut retired = ties.clone();
            for (c, s) in retired.iter_mut().enumerate() {
                if c % 3 == 0 || c == cores - 1 {
                    s.clear();
                }
            }
            dispatch_both_ways(&retired);

            // One core takes small steps while the others take long
            // ones: the lead runs ahead for long batches.
            let sprinter = cores / 2;
            let batches: Vec<Vec<u64>> = (0..cores)
                .map(|c| {
                    if c == sprinter {
                        (0..400).map(|_| rng.next_below(2)).collect()
                    } else {
                        (0..8).map(|_| 50 + rng.next_below(50)).collect()
                    }
                })
                .collect();
            let order = dispatch_both_ways(&batches);
            let longest = order
                .chunk_by(|a, b| a.1 == b.1)
                .map(<[_]>::len)
                .max()
                .unwrap();
            assert!(longest >= 20, "{cores} cores: longest batch {longest}");
        }
    }
}
