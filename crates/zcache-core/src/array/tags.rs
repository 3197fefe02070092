//! Sentinel-tag storage.
//!
//! Every array keeps its tags in a [`TagStore`]: a flat `Vec<u64>` where
//! [`INVALID_TAG`] marks an empty frame. Compared to the obvious
//! `Vec<Option<LineAddr>>` this halves the bytes per frame (8 instead of
//! 16), so walks and lookups touch half the cache lines, and tag
//! comparisons compile to a single `u64` compare.
//!
//! The fully-associative layout ([`FullyAssocArray`]) additionally needs
//! an address→slot map; it uses a fixed-capacity
//! [`SeededMap`](crate::SeededMap) directly.
//!
//! [`FullyAssocArray`]: super::FullyAssocArray

use crate::types::{LineAddr, SlotId};

/// Reserved tag value marking an empty frame.
///
/// `u64::MAX` is not a usable line address: with 64-byte lines it would
/// correspond to a byte address beyond the 64-bit physical address
/// space. Installs assert against it.
pub const INVALID_TAG: u64 = u64::MAX;

/// Flat structure-of-arrays tag storage with a sentinel for empty frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagStore {
    tags: Vec<u64>,
}

impl TagStore {
    /// Creates a store of `lines` empty frames.
    pub fn new(lines: usize) -> Self {
        Self {
            tags: vec![INVALID_TAG; lines],
        }
    }

    /// Number of frames.
    #[inline]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the store has no frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The raw tag word of frame `idx` ([`INVALID_TAG`] when empty).
    ///
    /// Lookups compare this directly against the probed address — one
    /// branch, no `Option` re-wrapping.
    #[inline(always)]
    pub fn raw(&self, idx: usize) -> u64 {
        self.tags[idx]
    }

    /// The raw tag words of the `len` frames from `start` on.
    #[inline(always)]
    pub fn raw_range(&self, start: usize, len: usize) -> &[u64] {
        &self.tags[start..start + len]
    }

    /// The block resident in frame `idx`, if any.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> Option<LineAddr> {
        let t = self.tags[idx];
        if t == INVALID_TAG {
            None
        } else {
            Some(t)
        }
    }

    /// Writes `addr` into frame `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is the reserved [`INVALID_TAG`] value.
    #[inline]
    pub fn set(&mut self, idx: usize, addr: LineAddr) {
        assert_ne!(addr, INVALID_TAG, "INVALID_TAG is a reserved line address");
        self.tags[idx] = addr;
    }

    /// Empties frame `idx`.
    #[inline]
    pub fn clear_slot(&mut self, idx: usize) {
        self.tags[idx] = INVALID_TAG;
    }

    /// Calls `f` for every occupied frame, in ascending slot order.
    pub fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr)) {
        for (i, &t) in self.tags.iter().enumerate() {
            if t != INVALID_TAG {
                f(SlotId(i as u32), t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_roundtrip_and_sentinel() {
        let mut s = TagStore::new(4);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.get(0), None);
        assert_eq!(s.raw(0), INVALID_TAG);
        s.set(0, 42);
        assert_eq!(s.get(0), Some(42));
        assert_eq!(s.raw(0), 42);
        s.clear_slot(0);
        assert_eq!(s.get(0), None);
    }

    #[test]
    fn store_for_each_valid_in_slot_order() {
        let mut s = TagStore::new(8);
        s.set(5, 50);
        s.set(1, 10);
        s.set(7, 70);
        let mut seen = Vec::new();
        s.for_each_valid(&mut |slot, a| seen.push((slot.0, a)));
        assert_eq!(seen, vec![(1, 10), (5, 50), (7, 70)]);
    }

    #[test]
    #[should_panic(expected = "reserved line address")]
    fn store_rejects_sentinel_as_address() {
        TagStore::new(1).set(0, INVALID_TAG);
    }
}
