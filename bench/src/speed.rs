//! Host-speed correction of the end-to-end times.
//!
//! On a shared host, other tenants slow this process down in phases:
//! the host alternates, every second or few, between running it at full
//! speed and ~1.7× slower, and the slowdown hits every phase of a rep
//! alike. Each timed phase is therefore bracketed by a fixed reference
//! kernel. A phase counts only if its kernel ran within [`FAST`] of the
//! fastest kernel of the run, and its time is scaled by
//! `NOMINAL_S / kernel time`: the time the phase takes when the host
//! runs at the speed where one kernel pass takes [`NOMINAL_S`]. The
//! kernel is this crate's own code, so no change to the repository can
//! speed it up or slow it down.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of one kernel pass.
const ITERS: u64 = 4_000_000;
/// One kernel pass on an otherwise idle 2.1 GHz Xeon vCPU.
pub const NOMINAL_S: f64 = 0.005;
/// A phase whose kernel ran more than this much slower than the run's
/// fastest kernel was measured during a slow phase of the host.
pub const FAST: f64 = 1.3;

thread_local! {
    /// SplitMix64-indexed read-modify-write over a 128 KiB table: integer
    /// hashing and cache-resident random access, like the simulator's own.
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; 1 << 14]);
}

/// Seconds one kernel pass takes now.
pub fn probe() -> f64 {
    TABLE.with_borrow_mut(|table| {
        let t0 = Instant::now();
        let mask = table.len() as u64 - 1;
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..ITERS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let i = (z & mask) as usize;
            acc = acc.wrapping_add(table[i]);
            table[i] = acc ^ z;
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    })
}

/// One timed phase: its host seconds and the mean kernel time around it.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub raw_s: f64,
    pub kernel_s: f64,
}

impl Phase {
    /// The phase's time at nominal host speed.
    pub fn corrected(self) -> f64 {
        self.raw_s * NOMINAL_S / self.kernel_s
    }
}

/// The phases measured at full host speed: those whose kernel ran within
/// [`FAST`] of the fastest, but never fewer than `min` (then the `min`
/// with the fastest kernels).
pub fn full_speed(phases: &[Phase], min: usize) -> Vec<Phase> {
    let mut sorted = phases.to_vec();
    sorted.sort_by(|a, b| a.kernel_s.total_cmp(&b.kernel_s));
    let Some(fastest) = sorted.first().map(|p| p.kernel_s) else {
        return sorted;
    };
    let fast = sorted
        .iter()
        .filter(|p| p.kernel_s <= FAST * fastest)
        .count();
    sorted.truncate(fast.max(min));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(raw_s: f64, kernel_s: f64) -> Phase {
        Phase { raw_s, kernel_s }
    }

    #[test]
    fn correction_scales_by_the_kernel_slowdown() {
        assert_eq!(phase(2.0, NOMINAL_S).corrected(), 2.0);
        // The host ran at half speed: the phase would take half as long.
        assert!((phase(2.0, 2.0 * NOMINAL_S).corrected() - 1.0).abs() < 1e-12);
        assert!(probe() > 0.0);
    }

    #[test]
    fn slow_phases_are_dropped_but_min_are_kept() {
        let phases = [
            phase(1.0, 1.0),
            phase(1.9, 1.8),
            phase(1.1, 1.2),
            phase(2.0, 1.9),
        ];
        let kept: Vec<f64> = full_speed(&phases, 1).iter().map(|p| p.kernel_s).collect();
        assert_eq!(kept, [1.0, 1.2]);
        let kept: Vec<f64> = full_speed(&phases, 3).iter().map(|p| p.kernel_s).collect();
        assert_eq!(kept, [1.0, 1.2, 1.8]);
        assert!(full_speed(&[], 3).is_empty());
    }
}
