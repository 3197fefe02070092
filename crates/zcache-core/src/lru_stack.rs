//! Exact fully-associative LRU reference in `O(1)` per access.
//!
//! §IV defines conflict misses as a design's misses minus those of a
//! same-size fully-associative LRU cache. By the stack property
//! (Mattson), that cache hits exactly the references whose stack
//! distance is `< C`, so its miss count needs no candidate scan: a
//! recency list of the `C` most recently used lines plus an index into
//! it decide every access in constant time.

use crate::seeded_map::SeededMap;
use crate::types::LineAddr;

/// Fixed seed for the line index, so the table layout is a pure
/// function of the access stream.
const INDEX_SEED: u64 = 0x5eed_1a0c;

/// An exact fully-associative LRU cache of `C` lines that only decides
/// hit or miss: `O(1)` work per access, `O(C)` memory, no allocation
/// after construction.
///
/// Lines live in nodes `0..C` of an intrusive doubly-linked recency
/// list (parallel `tag`/`prev`/`next` vectors); node `C` is the list's
/// sentinel, whose `next` is the most and `prev` the least recently
/// used line. A [`SeededMap`] maps each resident line to its node.
///
/// It makes the same hit/miss decisions as a [`FullyAssocArray`] under
/// [`FullLru`], which remains the cache to use for non-LRU policies,
/// write-backs or the candidate-level view.
///
/// [`FullyAssocArray`]: crate::FullyAssocArray
/// [`FullLru`]: crate::FullLru
///
/// # Examples
///
/// ```
/// use zcache_core::LruStack;
///
/// let mut lru = LruStack::new(2);
/// assert!(!lru.access(1));
/// assert!(!lru.access(2));
/// assert!(lru.access(1)); // 2 is now least recently used
/// assert!(!lru.access(3)); // evicts 2
/// assert!(lru.access(1));
/// assert!(!lru.access(2));
/// ```
#[derive(Debug, Clone)]
pub struct LruStack {
    map: SeededMap<u32>,
    tag: Vec<LineAddr>,
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Nodes in use; they fill in index order, then recycle the tail.
    len: u32,
}

impl LruStack {
    /// An empty cache of `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity >= u32::MAX`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "need at least one line");
        assert!(capacity < u64::from(u32::MAX), "capacity must fit in u32");
        let c = capacity as usize;
        let sentinel = c as u32;
        Self {
            map: SeededMap::fixed_capacity(c, INDEX_SEED),
            tag: vec![0; c],
            prev: vec![sentinel; c + 1],
            next: vec![sentinel; c + 1],
            len: 0,
        }
    }

    /// Misses of an initially empty `capacity`-line cache over `lines`.
    pub fn misses(capacity: u64, lines: impl IntoIterator<Item = LineAddr>) -> u64 {
        let mut lru = Self::new(capacity);
        lines.into_iter().filter(|&line| !lru.access(line)).count() as u64
    }

    /// Resident lines.
    #[inline]
    pub fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// Whether no line is resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// References `line`, makes it the most recently used, and returns
    /// whether it hit. A miss in a full cache evicts the least recently
    /// used line.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> bool {
        if let Some(node) = self.map.get(line) {
            self.unlink(node);
            self.push_front(node);
            return true;
        }
        let sentinel = self.tag.len() as u32;
        let node = if self.len < sentinel {
            self.len += 1;
            self.len - 1
        } else {
            let lru = self.prev[sentinel as usize];
            self.map.remove(self.tag[lru as usize]);
            self.unlink(lru);
            lru
        };
        self.tag[node as usize] = line;
        self.map.insert(line, node);
        self.push_front(node);
        false
    }

    #[inline(always)]
    fn unlink(&mut self, node: u32) {
        let (p, n) = (self.prev[node as usize], self.next[node as usize]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
    }

    #[inline(always)]
    fn push_front(&mut self, node: u32) {
        let sentinel = self.tag.len();
        let first = self.next[sentinel];
        self.next[node as usize] = first;
        self.prev[node as usize] = sentinel as u32;
        self.prev[first as usize] = node;
        self.next[sentinel] = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The resident lines from most to least recently used.
    fn order(l: &LruStack) -> Vec<LineAddr> {
        let sentinel = l.tag.len();
        let mut out = Vec::new();
        let mut n = l.next[sentinel] as usize;
        while n != sentinel {
            out.push(l.tag[n]);
            n = l.next[n] as usize;
        }
        out
    }

    #[test]
    fn recency_order_tracks_accesses() {
        let mut l = LruStack::new(3);
        for a in [1, 2, 3] {
            assert!(!l.access(a));
        }
        assert_eq!(order(&l), [3, 2, 1]);
        assert!(l.access(1));
        assert_eq!(order(&l), [1, 3, 2]);
        assert!(!l.access(4)); // evicts 2
        assert_eq!(order(&l), [4, 1, 3]);
        assert_eq!(l.len(), 3);
        assert!(!l.access(2));
        assert!(!l.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_panics() {
        LruStack::new(0);
    }
}
