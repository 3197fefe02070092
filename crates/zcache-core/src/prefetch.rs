//! Portable software-prefetch hints.
//!
//! Wraps the x86-64 `prefetcht0` intrinsic in a safe, zero-cost shim that
//! compiles to nothing on other targets. Its user is
//! [`SetAssocArray`](crate::SetAssocArray)'s
//! [`prefetch_lookup`](crate::CacheArray::prefetch_lookup), which hints
//! the one set a future lookup will probe. The replacement
//! walk issues no hints: prefetching its next level measured slower
//! (EXPERIMENTS.md, "Walk cost").

/// Hints the CPU to pull the cache line holding `r` into the cache
/// hierarchy for a future read. Purely a performance hint: it never
/// faults, never changes architectural state, and is a no-op on targets
/// without a prefetch instruction.
#[inline(always)]
pub fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a hint instruction with no architectural
    // effect; any address — valid or not — is permitted by the ISA. The
    // pointer here additionally comes from a live reference.
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            (r as *const T).cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_side_effect_free() {
        // Nothing observable to assert beyond "does not crash" on any
        // target.
        let x = [0u64; 8];
        for v in &x {
            prefetch_read(v);
        }
        prefetch_read(&x);
    }
}
