//! The H3 family of universal hash functions, and the nibble-sliced
//! table that evaluates it.

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
/// The function is evaluated through one boxed [`Gf2Table`] whose
/// columns are the rows of `Q`: 2.5 KiB in all.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H3Hash {
    table: Box<Gf2Table>,
}

impl H3Hash {
    /// Creates an H3 function with a matrix derived deterministically from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Self::from_rows(Self::matrix(seed))
    }

    /// The matrix [`H3Hash::new`] draws for `seed`, without building the
    /// evaluation table: for callers that evaluate several functions
    /// through a table of their own.
    pub fn matrix(seed: u64) -> [u64; 64] {
        let mut rng = SplitMix64::new(seed ^ 0xa5a5_a5a5_0000_0001);
        std::array::from_fn(|_| rng.next_u64())
    }

    /// Creates an H3 function from an explicit matrix.
    ///
    /// Useful in tests that need hand-crafted collision structure.
    pub fn from_rows(rows: [u64; 64]) -> Self {
        Self {
            table: Gf2Table::new(rows),
        }
    }

    /// The underlying matrix rows (row `i` is XORed in when input bit `i`
    /// is set).
    pub fn rows(&self) -> &[u64; 64] {
        self.table.columns()
    }
}

impl Hasher64 for H3Hash {
    #[inline(always)]
    fn hash(&self, x: u64) -> u64 {
        self.table.apply(x)
    }
}

/// A linear map over GF(2) on 64-bit words, evaluated through
/// nibble-sliced lookup tables.
///
/// The image of `x` is the XOR of the columns `columns[i]` over the set
/// bits `i` of `x`, so by linearity it is also the XOR of the images of
/// its 16 nibbles: one load each from a 16-entry table per position,
/// 2 KiB in all, where byte slices take 16 KiB. The columns (512 B)
/// stay beside the tables as the map's definition, which debug builds
/// check every evaluation against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf2Table {
    columns: [u64; 64],
    /// `nibbles[n][v]`: the image of nibble value `v` at nibble position
    /// `n` (input bits `4n..4n + 4`).
    nibbles: [[u64; 16]; 16],
}

impl Gf2Table {
    /// Builds the tables of the map with these columns. Each entry is the
    /// one with its lowest set bit peeled off, XORed with that bit's
    /// column.
    pub fn new(columns: [u64; 64]) -> Box<Self> {
        let mut t = Box::new(Self {
            columns,
            nibbles: [[0; 16]; 16],
        });
        for (n, table) in t.nibbles.iter_mut().enumerate() {
            for v in 1usize..16 {
                table[v] = table[v & (v - 1)] ^ columns[4 * n + v.trailing_zeros() as usize];
            }
        }
        t
    }

    /// The images of the unit vectors: `columns()[i]` is the image of
    /// `1 << i`.
    pub fn columns(&self) -> &[u64; 64] {
        &self.columns
    }

    /// The image of `x`: two table loads per byte of `x`, up to its
    /// highest non-zero byte (line addresses are small, so the high
    /// bytes are almost always zero).
    #[inline(always)]
    pub fn apply(&self, x: u64) -> u64 {
        let mut out = 0;
        let mut rest = x;
        for pair in self.nibbles.chunks_exact(2) {
            if rest == 0 {
                break;
            }
            out ^= pair[0][(rest & 0xf) as usize] ^ pair[1][(rest >> 4 & 0xf) as usize];
            rest >>= 8;
        }
        debug_assert_eq!(out, self.by_definition(x), "GF(2) table mismatch at {x:#x}");
        out
    }

    /// The image of `x` by definition: the XOR of the columns its set
    /// bits select. Reads no table.
    fn by_definition(&self, x: u64) -> u64 {
        let selected = (0..64).filter(|&i| x >> i & 1 == 1);
        selected.fold(0, |acc, i| acc ^ self.columns[i])
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
        // The nibble tables must reproduce the textbook definition (XOR
        // of the rows selected by the set input bits) bit for bit. The
        // reference reads `rows()` alone, never a table.
        let mut rng = SplitMix64::new(55);
        let mut inputs = vec![0, u64::MAX];
        inputs.extend((0..10_000).map(|_| rng.next_u64()));
        // Every value of every nibble position, so each table entry is
        // read once.
        inputs.extend((0..16).flat_map(|n| (1..16u64).map(move |v| v << (4 * n))));
        // Tenant-tagged lines: a small line with a tag in the top byte.
        inputs.extend((0..256u64).map(|t| rng.next_u64() >> 40 | t << 56));
        for seed in [0, 123, u64::MAX] {
            let h = H3Hash::new(seed);
            let reference = |mut x: u64| {
                let mut out = 0u64;
                while x != 0 {
                    out ^= h.rows()[x.trailing_zeros() as usize];
                    x &= x - 1;
                }
                out
            };
            for &x in &inputs {
                assert_eq!(h.hash(x), reference(x), "seed {seed} x={x:#x}");
            }
        }
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
