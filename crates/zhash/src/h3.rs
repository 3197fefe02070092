//! The H3 family of universal hash functions.

use crate::rng::SplitMix64;
use crate::Hasher64;

/// An H3 universal hash function over GF(2) (Carter & Wegman, 1977).
///
/// The function is defined by a random 64×64 bit matrix `Q`: the hash of
/// `x` is the XOR of the rows of `Q` selected by the set bits of `x`.
/// Each output bit is therefore the parity of a random subset of input
/// bits — in hardware, a few XOR gates per hash bit, which is why the
/// zcache paper picks this family for per-way indexing.
///
/// Drawing `Q` uniformly at random makes the family *universal* and
/// *pairwise independent*: for `x != y`, `hash(x)` and `hash(y)` collide on
/// any index bit with probability exactly 1/2.
///
/// # Examples
///
/// ```
/// use zhash::{H3Hash, Hasher64};
///
/// let way0 = H3Hash::new(0);
/// let way1 = H3Hash::new(1);
/// let line = 0x7f3a_1c05u64;
/// // Different ways index the same block at unrelated rows.
/// let (r0, r1) = (way0.index(line, 12), way1.index(line, 12));
/// assert!(r0 < 4096 && r1 < 4096);
/// ```
#[derive(Clone)]
pub struct H3Hash {
    rows: [u64; 64],
    // Byte-sliced evaluation tables: `tables[b][v]` is the XOR of the
    // rows selected by byte value `v` placed at byte position `b`. By
    // GF(2) linearity, XORing one lookup per input byte reproduces the
    // row-per-bit definition exactly, in at most 8 loads instead of up
    // to 64 row XORs.
    tables: Box<[[u64; 256]; 8]>,
}

impl H3Hash {
    /// Creates an H3 function with a matrix derived deterministically from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Self::from_rows(Self::matrix(seed))
    }

    /// The matrix [`H3Hash::new`] draws for `seed`, without building the
    /// evaluation tables: for callers that evaluate several functions
    /// through tables of their own.
    pub fn matrix(seed: u64) -> [u64; 64] {
        let mut rng = SplitMix64::new(seed ^ 0xa5a5_a5a5_0000_0001);
        std::array::from_fn(|_| rng.next_u64())
    }

    /// Creates an H3 function from an explicit matrix.
    ///
    /// Useful in tests that need hand-crafted collision structure.
    pub fn from_rows(rows: [u64; 64]) -> Self {
        Self {
            tables: build_tables(&rows),
            rows,
        }
    }

    /// The underlying matrix rows (row `i` is XORed in when input bit `i`
    /// is set).
    pub fn rows(&self) -> &[u64; 64] {
        &self.rows
    }
}

fn build_tables(rows: &[u64; 64]) -> Box<[[u64; 256]; 8]> {
    let mut tables = Box::new([[0u64; 256]; 8]);
    for (byte, table) in tables.iter_mut().enumerate() {
        for v in 1usize..256 {
            // Peel the lowest set bit: the rest of `v` is already filled
            // in at a smaller index.
            table[v] = table[v & (v - 1)] ^ rows[8 * byte + v.trailing_zeros() as usize];
        }
    }
    tables
}

impl std::fmt::Debug for H3Hash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("H3Hash").field("rows", &self.rows).finish()
    }
}

impl PartialEq for H3Hash {
    fn eq(&self, other: &Self) -> bool {
        // The tables are a pure function of the rows.
        self.rows == other.rows
    }
}

impl Eq for H3Hash {}

impl Hasher64 for H3Hash {
    #[inline(always)]
    fn hash(&self, mut x: u64) -> u64 {
        // Line addresses are small, so the high bytes are almost always
        // zero; stop as soon as the remaining input is exhausted.
        let mut out = 0u64;
        let mut byte = 0usize;
        while x != 0 {
            out ^= self.tables[byte][(x & 0xff) as usize];
            x >>= 8;
            byte += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_hashes_to_zero() {
        // H3 is linear over GF(2); the zero vector maps to zero.
        let h = H3Hash::new(5);
        assert_eq!(h.hash(0), 0);
    }

    #[test]
    fn linearity_over_gf2() {
        // hash(a ^ b) == hash(a) ^ hash(b) — the defining property of H3.
        let h = H3Hash::new(17);
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            assert_eq!(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
        }
    }

    #[test]
    fn single_bit_inputs_select_rows() {
        let h = H3Hash::new(23);
        for bit in 0..64 {
            assert_eq!(h.hash(1u64 << bit), h.rows()[bit]);
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a = H3Hash::new(1);
        let b = H3Hash::new(1);
        let c = H3Hash::new(2);
        assert_eq!(a, b);
        assert_ne!(a.rows(), c.rows());
    }

    #[test]
    fn pairwise_collision_rate_is_half_per_bit() {
        // For x != y and a random matrix, each output bit differs with
        // probability 1/2, so a k-bit index collides with prob 2^-k.
        let h = H3Hash::new(31);
        let mut rng = SplitMix64::new(4);
        let bits = 8;
        let trials = 100_000;
        let mut collisions = 0u32;
        for _ in 0..trials {
            let x = rng.next_u64();
            let y = rng.next_u64();
            if x != y && h.index(x, bits) == h.index(y, bits) {
                collisions += 1;
            }
        }
        let expected = trials as f64 / 256.0; // ~390
        let got = collisions as f64;
        assert!(
            (expected * 0.7..expected * 1.3).contains(&got),
            "collision count {got}, expected ~{expected}"
        );
    }

    #[test]
    fn index_distribution_is_uniform() {
        let h = H3Hash::new(77);
        let mut counts = [0u32; 16];
        for x in 0..160_000u64 {
            counts[h.index(x, 4) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..=11_000).contains(&c), "bucket {c} not ~10000");
        }
    }

    #[test]
    fn table_evaluation_matches_row_definition() {
        // The byte-sliced tables must reproduce the textbook definition
        // (XOR of rows selected by set input bits) bit for bit.
        let h = H3Hash::new(123);
        let reference = |mut x: u64| {
            let mut out = 0u64;
            while x != 0 {
                out ^= h.rows()[x.trailing_zeros() as usize];
                x &= x - 1;
            }
            out
        };
        let mut rng = SplitMix64::new(55);
        for _ in 0..10_000 {
            let x = rng.next_u64();
            assert_eq!(h.hash(x), reference(x), "x={x:#x}");
        }
        for bit in 0..64 {
            let x = 1u64 << bit;
            assert_eq!(h.hash(x), reference(x));
        }
        assert_eq!(h.hash(u64::MAX), reference(u64::MAX));
    }

    #[test]
    fn matrix_is_the_seeded_functions_matrix() {
        for seed in [0, 1, 0x1003, u64::MAX] {
            assert_eq!(&H3Hash::matrix(seed), H3Hash::new(seed).rows());
        }
    }

    #[test]
    fn from_rows_roundtrip() {
        let rows = [0x1234_5678u64; 64];
        let h = H3Hash::from_rows(rows);
        assert_eq!(h.rows(), &rows);
        assert_eq!(h.hash(0b11), 0); // equal rows cancel
    }
}
