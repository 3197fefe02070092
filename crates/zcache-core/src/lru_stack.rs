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

/// An exact fully-associative LRU cache of `C` lines: `O(1)` work per
/// operation, `O(C)` memory, no allocation after construction.
///
/// Lines live in nodes `0..C` of an intrusive doubly-linked recency
/// list (parallel `tag`/`dirty`/`prev`/`next` vectors); node `C` is the
/// list's sentinel, whose `next` is the most and `prev` the least
/// recently used line. A [`SeededMap`] maps each resident line to its
/// node. Free nodes form a stack threaded through `next`, which starts
/// as `0..C` in index order and takes back every
/// [`remove`](Self::remove)d node, so a new line takes a free node
/// before the least recently used line is evicted.
///
/// [`access`](Self::access) makes the same hit/miss decisions as a
/// [`FullyAssocArray`] under [`FullLru`]; [`insert`](Self::insert) and
/// [`remove`](Self::remove), with a dirty bit per line, make the same
/// fills, evictions and invalidations, which is what the buffer of
/// [`VictimCache`](crate::VictimCache) needs. The simulated cache
/// remains the one to use for non-LRU policies or the candidate-level
/// view.
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
/// assert!(!lru.access(2)); // evicts 3
///
/// assert_eq!(lru.remove(1), Some(false));
/// assert_eq!(lru.insert(4, true), None); // takes 1's node
/// assert_eq!(lru.insert(5, false), Some((2, false)));
/// assert_eq!(lru.insert(6, false), Some((4, true)));
/// ```
#[derive(Debug, Clone)]
pub struct LruStack {
    map: SeededMap<u32>,
    tag: Vec<LineAddr>,
    dirty: Vec<bool>,
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Top of the free-node stack; the sentinel when every node is used.
    free: u32,
    /// Resident lines.
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
        // Free node `i` links to `i + 1`; the last links to the sentinel,
        // whose own links make the empty recency list.
        let next = (1..=sentinel).chain([sentinel]).collect();
        Self {
            map: SeededMap::fixed_capacity(c, INDEX_SEED),
            tag: vec![0; c],
            dirty: vec![false; c],
            prev: vec![sentinel; c + 1],
            next,
            free: 0,
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
    /// whether it hit. A miss fills it clean, evicting the least recently
    /// used line if no node is free.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> bool {
        if let Some(node) = self.map.get(line) {
            self.unlink(node);
            self.push_front(node);
            return true;
        }
        self.insert(line, false);
        false
    }

    /// Fills `line`, which must not be resident, as the most recently
    /// used line with the given dirty bit. If no node is free, the least
    /// recently used line is evicted first and returned with its dirty
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `line` is already resident.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<(LineAddr, bool)> {
        let sentinel = self.tag.len() as u32;
        let (node, evicted) = if self.free != sentinel {
            let node = self.free;
            self.free = self.next[node as usize];
            self.len += 1;
            (node, None)
        } else {
            let lru = self.prev[sentinel as usize];
            let old = self.tag[lru as usize];
            self.map.remove(old);
            self.unlink(lru);
            (lru, Some((old, self.dirty[lru as usize])))
        };
        self.tag[node as usize] = line;
        self.dirty[node as usize] = dirty;
        assert!(
            self.map.insert(line, node).is_none(),
            "line {line:#x} already resident"
        );
        self.push_front(node);
        evicted
    }

    /// Removes `line` and returns its dirty bit, or `None` if it was not
    /// resident. Its node is the next one [`insert`](Self::insert) takes.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> Option<bool> {
        let node = self.map.remove(line)?;
        self.unlink(node);
        self.next[node as usize] = self.free;
        self.free = node;
        self.len -= 1;
        Some(self.dirty[node as usize])
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
    fn removed_nodes_are_reused_before_the_lru_line() {
        let mut l = LruStack::new(3);
        assert_eq!(l.insert(1, true), None);
        assert_eq!(l.insert(2, false), None);
        assert_eq!(l.insert(3, true), None);
        assert_eq!(l.remove(2), Some(false));
        assert_eq!(l.remove(2), None);
        assert_eq!(l.len(), 2);
        assert_eq!(l.insert(4, false), None, "2's node is free");
        assert_eq!(order(&l), [4, 3, 1]);
        assert_eq!(l.insert(5, false), Some((1, true)));
        assert_eq!(l.insert(6, false), Some((3, true)));
        assert_eq!(order(&l), [6, 5, 4]);
        assert!(!l.access(1), "a miss fills clean");
        assert_eq!(l.insert(7, false), Some((5, false)));
        assert_eq!(l.remove(1), Some(false));
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn inserting_a_resident_line_panics() {
        let mut l = LruStack::new(2);
        l.insert(1, false);
        l.insert(1, true);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_panics() {
        LruStack::new(0);
    }

    #[test]
    #[should_panic(expected = "reserved key")]
    fn the_empty_key_is_not_a_line() {
        // It once matched a free bucket of the index and read as a hit.
        LruStack::misses(64, [1, u64::MAX, 2]);
    }
}
