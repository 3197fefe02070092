//! Hash functions and filters for cache indexing.
//!
//! This crate provides the hashing substrate used by the zcache
//! reproduction (Sanchez & Kozyrakis, *The ZCache: Decoupling Ways and
//! Associativity*, MICRO-43, 2010):
//!
//! * [`H3Hash`] — the H3 family of universal, pairwise-independent hash
//!   functions (Carter & Wegman, 1977). The paper uses one H3 function per
//!   cache way; each hash output bit is an XOR of a random subset of the
//!   input bits.
//! * [`Gf2Table`] — the nibble-sliced lookup table that evaluates any
//!   linear map over GF(2), such as an H3 matrix or a zcache's four
//!   packed way indices, in two loads per input byte from 2 KiB.
//! * [`BitSelect`] — conventional bit-selection indexing (the identity
//!   hash), i.e. what an unhashed set-associative cache does.
//! * [`Mix64`] — a full-avalanche 64-bit finalizer. The paper uses SHA-1 as
//!   a "maximum quality" reference hash; `Mix64` plays that role here with
//!   the same full-avalanche property at a fraction of the cost.
//! * [`BloomFilter`] — the filter suggested in §III-D of the paper to avoid
//!   repeated candidates when walking small caches.
//!
//! # Examples
//!
//! ```
//! use zhash::{H3Hash, Hasher64};
//!
//! let h = H3Hash::new(42);
//! let index = h.index(0xdead_beef, 10); // 10-bit cache index
//! assert!(index < 1 << 10);
//! assert_eq!(index, h.index(0xdead_beef, 10)); // deterministic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitsel;
mod bloom;
mod h3;
mod mix;
mod rng;

pub use bitsel::BitSelect;
pub use bloom::BloomFilter;
pub use h3::{Gf2Table, H3Hash};
pub use mix::Mix64;
pub use rng::SplitMix64;

/// A deterministic 64-bit-to-64-bit hash function.
///
/// All cache arrays in this reproduction index their ways through this
/// trait, so a set-associative cache, a skew-associative cache and a zcache
/// can share hashing machinery.
///
/// Implementations must be pure: the same input always hashes to the same
/// output for a given hasher value.
pub trait Hasher64 {
    /// Hashes `x` to a 64-bit value.
    fn hash(&self, x: u64) -> u64;

    /// Hashes `x` down to a `bits`-bit table index.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    #[inline]
    fn index(&self, x: u64, bits: u32) -> u64 {
        assert!(bits <= 64, "index width must be at most 64 bits");
        if bits == 64 {
            self.hash(x)
        } else if bits == 0 {
            0
        } else {
            self.hash(x) & ((1u64 << bits) - 1)
        }
    }
}

impl<T: Hasher64 + ?Sized> Hasher64 for &T {
    fn hash(&self, x: u64) -> u64 {
        (**self).hash(x)
    }
}

impl<T: Hasher64 + ?Sized> Hasher64 for Box<T> {
    fn hash(&self, x: u64) -> u64 {
        (**self).hash(x)
    }
}

/// Which hash family a cache way uses; a small closed enum so cache
/// configuration stays plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// Bit selection (no hashing) — conventional indexing.
    BitSelect,
    /// H3 universal hashing (the paper's choice).
    H3,
    /// Full-avalanche 64-bit mixing (the paper's SHA-1 quality stand-in).
    Mix64,
}

impl HashKind {
    /// Builds a concrete hasher of this kind.
    ///
    /// `seed` differentiates the per-way hash functions; `BitSelect`
    /// ignores it.
    pub fn build(self, seed: u64) -> AnyHasher {
        match self {
            HashKind::BitSelect => AnyHasher::BitSelect(BitSelect),
            HashKind::H3 => AnyHasher::H3(H3Hash::new(seed)),
            HashKind::Mix64 => AnyHasher::Mix64(Mix64::new(seed)),
        }
    }
}

impl std::fmt::Display for HashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HashKind::BitSelect => "bitsel",
            HashKind::H3 => "h3",
            HashKind::Mix64 => "mix64",
        };
        f.write_str(s)
    }
}

/// A concrete hasher of any supported [`HashKind`].
///
/// Enum dispatch keeps cache hot paths free of virtual calls while letting
/// configurations choose the family at run time.
#[derive(Debug, Clone)]
pub enum AnyHasher {
    /// See [`BitSelect`].
    BitSelect(BitSelect),
    /// See [`H3Hash`].
    H3(H3Hash),
    /// See [`Mix64`].
    Mix64(Mix64),
}

impl Hasher64 for AnyHasher {
    #[inline(always)]
    fn hash(&self, x: u64) -> u64 {
        match self {
            AnyHasher::BitSelect(h) => h.hash(x),
            AnyHasher::H3(h) => h.hash(x),
            AnyHasher::Mix64(h) => h.hash(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_hasher_matches_inner() {
        let h3 = H3Hash::new(7);
        let any = AnyHasher::H3(h3.clone());
        for x in [0u64, 1, 0xffff_ffff, u64::MAX] {
            assert_eq!(any.hash(x), h3.hash(x));
        }
    }

    #[test]
    fn index_masks_to_width() {
        let h = Mix64::new(3);
        for bits in 0..=64u32 {
            let v = h.index(0x1234_5678_9abc_def0, bits);
            if bits < 64 {
                assert!(v < 1u64.checked_shl(bits).unwrap_or(u64::MAX));
            }
        }
    }

    #[test]
    fn hash_kind_builds_expected_variant() {
        assert!(matches!(
            HashKind::BitSelect.build(0),
            AnyHasher::BitSelect(_)
        ));
        assert!(matches!(HashKind::H3.build(0), AnyHasher::H3(_)));
        assert!(matches!(HashKind::Mix64.build(0), AnyHasher::Mix64(_)));
    }

    #[test]
    fn hash_kind_display_roundtrips_names() {
        assert_eq!(HashKind::BitSelect.to_string(), "bitsel");
        assert_eq!(HashKind::H3.to_string(), "h3");
        assert_eq!(HashKind::Mix64.to_string(), "mix64");
    }

    #[test]
    fn reference_impls_delegate() {
        let h = H3Hash::new(1);
        let r: &H3Hash = &h;
        let b: Box<dyn Hasher64> = Box::new(h.clone());
        assert_eq!(r.hash(99), h.hash(99));
        assert_eq!(b.hash(99), h.hash(99));
    }
}
