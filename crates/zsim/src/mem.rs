//! Memory-controller model: zero-load latency plus channel occupancy.

use zhash::{Hasher64, Mix64};

/// Four address-interleaved memory controllers with 64 GB/s aggregate
/// peak bandwidth (Table I): each 64-byte transfer occupies its channel
/// for a fixed number of cycles, so bursts queue.
#[derive(Debug, Clone)]
pub struct MemoryChannels {
    next_free: Vec<u64>,
    /// `controllers - 1` when the controller count is a power of two
    /// (every shipped config): masking then equals the modulo and skips
    /// a divide on every memory access.
    channel_mask: Option<u64>,
    zero_load_latency: u32,
    cycles_per_transfer: u32,
    hash: Mix64,
    accesses: u64,
    queue_cycles: u64,
}

impl MemoryChannels {
    /// Creates `controllers` channels with the given zero-load latency
    /// and per-transfer occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `controllers == 0`.
    pub fn new(controllers: u32, zero_load_latency: u32, cycles_per_transfer: u32) -> Self {
        assert!(controllers > 0, "need at least one memory controller");
        Self {
            next_free: vec![0; controllers as usize],
            channel_mask: controllers
                .is_power_of_two()
                .then(|| u64::from(controllers) - 1),
            zero_load_latency,
            cycles_per_transfer,
            hash: Mix64::new(0x3e3e_0001),
            accesses: 0,
            queue_cycles: 0,
        }
    }

    #[inline]
    fn channel_of(&self, line: u64) -> usize {
        let h = self.hash.hash(line);
        match self.channel_mask {
            Some(mask) => (h & mask) as usize,
            None => (h % self.next_free.len() as u64) as usize,
        }
    }

    /// A demand fetch issued at cycle `now`: returns the total latency
    /// (queueing + zero-load) until data returns.
    #[inline]
    pub fn fetch(&mut self, line: u64, now: u64) -> u64 {
        let ch = self.channel_of(line);
        let start = now.max(self.next_free[ch]);
        let queue = start - now;
        self.next_free[ch] = start + u64::from(self.cycles_per_transfer);
        self.accesses += 1;
        self.queue_cycles += queue;
        queue + u64::from(self.zero_load_latency)
    }

    /// A posted write-back issued at cycle `now`: occupies the channel
    /// but does not stall the requester.
    #[inline]
    pub fn writeback(&mut self, line: u64, now: u64) {
        let ch = self.channel_of(line);
        let start = now.max(self.next_free[ch]);
        self.next_free[ch] = start + u64::from(self.cycles_per_transfer);
        self.accesses += 1;
    }

    /// Total transfers (fetches + write-backs).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total cycles demand fetches spent queueing.
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_channel_gives_zero_load_latency() {
        let mut m = MemoryChannels::new(4, 200, 4);
        assert_eq!(m.fetch(0x1000, 100), 200);
        assert_eq!(m.accesses(), 1);
        assert_eq!(m.queue_cycles(), 0);
    }

    #[test]
    fn same_channel_bursts_queue() {
        let mut m = MemoryChannels::new(1, 200, 4);
        let l0 = m.fetch(1, 0);
        let l1 = m.fetch(2, 0);
        let l2 = m.fetch(3, 0);
        assert_eq!(l0, 200);
        assert_eq!(l1, 204);
        assert_eq!(l2, 208);
        assert_eq!(m.queue_cycles(), 4 + 8);
    }

    #[test]
    fn channels_drain_over_time() {
        let mut m = MemoryChannels::new(1, 200, 4);
        m.fetch(1, 0);
        // Far in the future the channel is idle again.
        assert_eq!(m.fetch(2, 1_000), 200);
    }

    #[test]
    fn writebacks_occupy_but_do_not_stall() {
        let mut m = MemoryChannels::new(1, 200, 4);
        m.writeback(1, 0);
        assert_eq!(m.accesses(), 1);
        // The next fetch at the same instant queues behind the write-back.
        assert_eq!(m.fetch(2, 0), 204);
    }

    #[test]
    fn interleaving_spreads_lines() {
        let m = MemoryChannels::new(4, 200, 4);
        let mut used = std::collections::HashSet::new();
        for line in 0..64u64 {
            used.insert(m.channel_of(line));
        }
        assert_eq!(used.len(), 4, "all channels should be used");
    }

    #[test]
    fn channel_pick_masks_like_the_modulo() {
        // A power-of-two controller count masks the hash; every count
        // picks the channel the modulo picks.
        for controllers in 1..=9 {
            let m = MemoryChannels::new(controllers, 200, 4);
            assert_eq!(m.channel_mask.is_some(), controllers.is_power_of_two());
            for line in (0..2_000u64).map(|l| l.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
                let modulo = m.hash.hash(line) % u64::from(controllers);
                assert_eq!(m.channel_of(line) as u64, modulo, "{controllers} channels");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one memory controller")]
    fn zero_controllers_panics() {
        MemoryChannels::new(0, 200, 4);
    }
}
