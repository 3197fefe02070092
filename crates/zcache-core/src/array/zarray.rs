//! The zcache tag array (§III of the paper).

use super::tags::INVALID_TAG;
use super::walk::{WalkKind, WalkNode, WalkTable, NO_PARENT};
use super::{ArrayKind, CacheArray, Candidate, CandidateSet, InstallOutcome};
use crate::types::{LineAddr, Location, SlotId};
use zhash::{AnyHasher, BloomFilter, HashKind, Hasher64};

/// A zcache array: `W` ways indexed by distinct hash functions, with a
/// multi-level replacement walk.
///
/// Hits behave exactly like a skew-associative cache — one location per
/// way, a single parallel tag lookup. On a miss, [`candidates`] performs
/// the breadth-first walk of §III-A, discovering up to
/// `R = W·Σ_{l<L}(W−1)^l` replacement candidates, and [`install`] evicts
/// the chosen victim and relocates the blocks along its walk path so the
/// incoming block can land in a first-level position.
///
/// [`candidates`]: CacheArray::candidates
/// [`install`]: CacheArray::install
///
/// # Examples
///
/// ```
/// use zcache_core::{CacheArray, CandidateSet, ZArray};
///
/// // The paper's Z4/52: 4 ways, 3-level walk.
/// let mut z = ZArray::new(1 << 12, 4, 3, 42);
/// let mut cands = CandidateSet::new();
/// z.candidates(0x1234, &mut cands);
/// // Empty cache: the walk stops at the first level of empty frames.
/// assert_eq!(cands.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ZArray {
    ways: u32,
    rows: u64,
    row_bits: u32,
    levels: u32,
    max_candidates: u32,
    walk_kind: WalkKind,
    hashers: Vec<AnyHasher>,
    /// `frames[way * rows + row]`: one record per frame.
    frames: Vec<Frame>,
    /// Probe memo `(addr, per-way rows)` stashed by
    /// [`lookup_mut`](CacheArray::lookup_mut): on a miss, `walk_core`
    /// reuses the rows the lookup just hashed instead of rehashing.
    /// Rows are a pure function of the address and the fixed hash
    /// family, so the memo can never go stale; it is only ever *read*
    /// when the stashed address matches. 4-way only (`FRAME_WAYS`).
    probe: (LineAddr, [u32; FRAME_WAYS]),
    /// Fused byte-sliced H3 tables: `fused[b][v]` holds the per-way hash
    /// contributions of byte value `v` at byte position `b`, interleaved
    /// so one pass over the address bytes yields all four ways' hashes
    /// from shared cache lines (the per-way tables would cost four
    /// separate scans). Built from the public [`Hasher64::hash`], so the
    /// values are identical to the per-way path by GF(2) linearity.
    /// `None` unless `ways == 4` with H3 hashing.
    fused: Option<Box<[[[u64; FRAME_WAYS]; 256]; 8]>>,
    walk: WalkTable,
    bloom: Option<BloomFilter>,
}

/// Ways whose rows are cached inline in [`Frame`]; wider configurations
/// fall back to hashing during the walk.
const FRAME_WAYS: usize = 4;

/// One tag-array frame: the resident block's sentinel-encoded tag
/// interleaved with its cached per-way row vector (maintained by
/// `install`). §III-A performs W−1 hash evaluations per walk expansion;
/// caching the row vector *next to the tag* turns those into reads of a
/// cache line the walk has already touched — expanding a node costs one
/// random line (the child's tag) instead of two (tag here, row vector in
/// a separate array). `u16` rows keep the record at 16 bytes (four per
/// cache line); arrays with more than `2^16` rows per way skip the cache
/// (see [`ZArray::rows_cacheable`]). Rows of empty frames are stale and
/// never read.
#[derive(Debug, Clone, Copy)]
struct Frame {
    tag: u64,
    rows: [u16; FRAME_WAYS],
}

const EMPTY_FRAME: Frame = Frame {
    tag: INVALID_TAG,
    rows: [0; FRAME_WAYS],
};

/// Deepest walk the [`ZArray::expand4`] fast path handles: its ancestor
/// path lives in a fixed stack array of this many slots. Deeper walks
/// (never used by the paper's designs) take the general [`ZArray::expand`]
/// path.
const EXPAND4_MAX_LEVELS: usize = 8;

/// Public view of one walk-tree node (see [`ZArray::walk_node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkNodeInfo {
    /// Physical `(way, row)` of the candidate frame.
    pub location: Location,
    /// Block resident there when the walk visited it.
    pub addr: Option<LineAddr>,
    /// Tree level (0 = first-level candidate).
    pub level: u32,
    /// Parent node token (`None` for level-0 roots).
    pub parent: Option<u32>,
}

/// Interleaves the four ways' byte-sliced evaluation tables. A single
/// byte at position `b` contributes `hash((v as u64) << (8 * b))` to each
/// way's hash, and H3 is linear over GF(2), so XORing these entries per
/// input byte reproduces every way's full hash exactly.
fn build_fused(hashers: &[AnyHasher]) -> Box<[[[u64; FRAME_WAYS]; 256]; 8]> {
    let mut t = vec![[[0u64; FRAME_WAYS]; 256]; 8];
    for (b, table) in t.iter_mut().enumerate() {
        for (v, entry) in table.iter_mut().enumerate() {
            for (w, h) in hashers.iter().enumerate().take(FRAME_WAYS) {
                entry[w] = h.hash((v as u64) << (8 * b));
            }
        }
    }
    let boxed: Box<[[[u64; FRAME_WAYS]; 256]; 8]> =
        t.into_boxed_slice().try_into().expect("exactly 8 tables");
    boxed
}

impl ZArray {
    /// Creates a zcache with `lines` total frames, `ways` ways and a walk
    /// of `levels` full levels, using H3 hashing (the paper's choice).
    ///
    /// # Panics
    ///
    /// Panics if [`ArrayKind::check_geometry`] rejects the geometry:
    /// `ways == 0`, `levels == 0`, `lines` not a multiple of `ways`, or
    /// rows-per-way not a power of two.
    pub fn new(lines: u64, ways: u32, levels: u32, seed: u64) -> Self {
        Self::with_hash(lines, ways, levels, HashKind::H3, seed)
    }

    /// Creates a zcache with an explicit hash family.
    ///
    /// `HashKind::Mix64` reproduces the paper's "SHA-1 quality" data
    /// point; `HashKind::BitSelect` is degenerate (all ways alias) and
    /// only useful in tests.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ZArray::new`].
    pub fn with_hash(lines: u64, ways: u32, levels: u32, hash: HashKind, seed: u64) -> Self {
        (ArrayKind::ZCache { levels })
            .check_geometry(lines, ways)
            .unwrap_or_else(|e| panic!("{e}"));
        let rows = lines / u64::from(ways);
        let hashers: Vec<AnyHasher> = (0..ways)
            .map(|w| hash.build(seed.wrapping_mul(0x1000).wrapping_add(u64::from(w))))
            .collect();
        let fused = (ways == 4 && hash == HashKind::H3).then(|| build_fused(&hashers));
        // Pre-size the walk table to the full R = W·Σ(W−1)^l bound
        // (capped for degenerate configurations) so steady-state walks
        // never grow it.
        let reserve = super::walk::replacement_candidates(ways, levels).min(4096) as usize;
        let mut walk = WalkTable::default();
        walk.reserve(reserve);
        Self {
            ways,
            rows,
            row_bits: rows.trailing_zeros(),
            levels,
            max_candidates: u32::MAX,
            walk_kind: WalkKind::Bfs,
            hashers,
            frames: vec![EMPTY_FRAME; lines as usize],
            probe: (INVALID_TAG, [0; FRAME_WAYS]),
            fused,
            walk,
            bloom: None,
        }
    }

    /// Caps the walk at `max` candidates, modelling the early-stopped
    /// walks the paper suggests when tag bandwidth or energy is scarce.
    pub fn with_max_candidates(mut self, max: u32) -> Self {
        self.set_max_candidates(max);
        self
    }

    /// Adjusts the candidate cap at run time (used by the adaptive
    /// controller of §VIII); clamped to at least the way count.
    pub fn set_max_candidates(&mut self, max: u32) {
        self.max_candidates = max.max(self.ways);
    }

    /// Selects the walk expansion order (BFS is the paper's design).
    pub fn with_walk_kind(mut self, kind: WalkKind) -> Self {
        self.walk_kind = kind;
        self
    }

    /// Enables the Bloom-filter repeat avoidance of §III-D, sized for the
    /// walk's candidate count.
    pub fn with_bloom_dedup(mut self, enable: bool) -> Self {
        self.bloom = if enable {
            let cap = super::walk::replacement_candidates(self.ways, self.levels).min(4096);
            Some(BloomFilter::for_capacity(cap.max(16)))
        } else {
            None
        };
        self
    }

    /// Walk depth in levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Rows per way.
    pub fn rows_per_way(&self) -> u64 {
        self.rows
    }

    /// The `(way, row)` location of `slot`.
    pub fn location(&self, slot: SlotId) -> Location {
        Location {
            way: (u64::from(slot.0) / self.rows) as u32,
            row: u64::from(slot.0) % self.rows,
        }
    }

    /// The row `addr` hashes to in `way`.
    pub fn row_of(&self, addr: LineAddr, way: u32) -> u64 {
        self.hashers[way as usize].index(addr, self.row_bits)
    }

    /// All four ways' rows in one pass over the address bytes, via the
    /// fused tables; `None` for non-H3 or non-4-way configurations.
    #[inline]
    fn rows4(&self, addr: LineAddr) -> Option<[u64; FRAME_WAYS]> {
        let t = self.fused.as_deref()?;
        let mask = self.rows - 1;
        let mut acc = [0u64; FRAME_WAYS];
        let mut x = addr;
        let mut byte = 0usize;
        while x != 0 {
            let e = &t[byte][(x & 0xff) as usize];
            acc[0] ^= e[0];
            acc[1] ^= e[1];
            acc[2] ^= e[2];
            acc[3] ^= e[3];
            x >>= 8;
            byte += 1;
        }
        for (w, a) in acc.iter_mut().enumerate() {
            *a &= mask;
            debug_assert_eq!(*a, self.row_of(addr, w as u32), "fused H3 mismatch");
        }
        Some(acc)
    }

    /// Statistics of the most recent walk.
    pub fn last_walk_stats(&self) -> super::walk::WalkStats {
        self.walk.stats
    }

    /// Describes node `token` of the most recent walk (for diagnostics
    /// and the Fig. 1 walkthrough); `None` if the token is out of range.
    pub fn walk_node(&self, token: u32) -> Option<WalkNodeInfo> {
        let node = self.walk.nodes.get(token as usize)?;
        Some(WalkNodeInfo {
            location: self.location(node.slot),
            addr: node.addr_opt(),
            level: u32::from(node.level),
            parent: (node.parent != super::walk::NO_PARENT).then_some(node.parent),
        })
    }

    #[inline]
    fn slot(&self, way: u32, row: u64) -> SlotId {
        SlotId((u64::from(way) * self.rows + row) as u32)
    }

    /// Whether per-way rows fit the 16-bit cache in [`Frame`].
    #[inline]
    fn rows_cacheable(&self) -> bool {
        self.row_bits <= u16::BITS
    }

    /// Expands `node_idx`, pushing children onto the walk table (the
    /// caller mirrors the finished table into its [`CandidateSet`] in
    /// one dense pass). Returns `true` if an empty frame was found
    /// (callers stop the walk: a free frame is a perfect victim).
    fn expand(&mut self, node_idx: u32) -> bool {
        let node = self.walk.nodes[node_idx as usize];
        let baddr = node.addr;
        if baddr == INVALID_TAG {
            return false; // empty frames have no block to rehash
        }
        // Level-indexed ancestor slots, filled once per expanded node: a
        // per-child chase through the parent pointers would re-read the
        // node table `W−1` times per expansion; this buffer costs one
        // chase and each child scans at most `levels` contiguous slots.
        self.walk.fill_ancestors(node_idx);
        let mut found_empty = false;
        let mut pushed = 0u32;
        // The resident block's row vector was cached next to its tag at
        // install time; the line is warm from the tag read that created
        // this node, so the W−1 rehashes of §III-A cost nothing here.
        let rows_cacheable = self.rows_cacheable();
        let cached_rows = self.frames[node.slot.idx()].rows;
        for way in 0..self.ways {
            if way == u32::from(node.way) {
                continue; // the matching hash: this is where the block already is
            }
            if self.walk.nodes.len() as u32 >= self.max_candidates {
                break;
            }
            let row = if rows_cacheable && (way as usize) < FRAME_WAYS {
                u64::from(cached_rows[way as usize])
            } else {
                self.row_of(baddr, way)
            };
            debug_assert_eq!(row, self.row_of(baddr, way), "stale block row");
            let slot = self.slot(way, row);
            // A slot already on this path would make the relocation chain
            // touch the same frame twice; skip it (repeats across sibling
            // branches remain allowed, as in the paper).
            let on_path = self.walk.ancestors.contains(&slot);
            debug_assert_eq!(
                on_path,
                self.walk.slot_on_path(node_idx, slot),
                "ancestor-buffer scan must agree with the reference"
            );
            if on_path {
                self.walk.stats.path_dups_skipped += 1;
                continue;
            }
            let addr = self.frames[slot.idx()].tag;
            if addr != INVALID_TAG {
                if let Some(b) = self.bloom.as_mut() {
                    if b.test_and_insert(addr) {
                        self.walk.stats.bloom_skipped += 1;
                        continue;
                    }
                }
            }
            let child = WalkNode {
                addr,
                slot,
                parent: node_idx,
                way: way as u8,
                level: node.level + 1,
            };
            self.walk.nodes.push(child);
            pushed += 1;
            if addr == INVALID_TAG {
                found_empty = true;
                break;
            }
        }
        if pushed > 0 {
            // All children sit one level below the parent; fold the stats
            // once per expansion instead of once per child.
            self.walk.stats.tag_reads += pushed;
            let child_level = u32::from(node.level) + 1;
            self.walk.stats.levels = self.walk.stats.levels.max(child_level + 1);
        }
        found_empty
    }

    /// [`expand`](Self::expand) specialized for the common 4-way shape
    /// with cached rows, no Bloom filter, and at least three candidates
    /// of headroom under the cap (the caller checks): all three child
    /// slots are computed and their tags loaded *before* the per-child
    /// bookkeeping, so the three independent tag reads overlap instead
    /// of serializing behind the dedup/push branches.
    /// Child order, dedup decisions, stats, and the empty-frame early
    /// stop are bit-identical to the scalar loop.
    fn expand4(&mut self, node_idx: u32) -> bool {
        let node = self.walk.nodes[node_idx as usize];
        if node.addr == INVALID_TAG {
            return false; // empty frames have no block to rehash
        }
        // Ancestor slots in a stack array (the caller guarantees the
        // walk is at most `EXPAND4_MAX_LEVELS` deep): one chase per
        // parent, and the per-child dedup scan below touches registers
        // and the stack, never the heap.
        let mut path = [u32::MAX; EXPAND4_MAX_LEVELS];
        let depth = {
            let mut d = 0usize;
            let mut i = node_idx;
            loop {
                let n = &self.walk.nodes[i as usize];
                path[d] = n.slot.0;
                d += 1;
                if n.parent == NO_PARENT {
                    break;
                }
                i = n.parent;
            }
            d
        };
        let rows = self.frames[node.slot.idx()].rows;
        let mut slots = [SlotId(0); FRAME_WAYS];
        for (w, s) in slots.iter_mut().enumerate() {
            *s = self.slot(w as u32, u64::from(rows[w]));
        }
        // Independent loads, issued together; reading the parent's own
        // way too is free (that line is already warm) and keeps the
        // array indexing branch-free.
        let tags = slots.map(|s| self.frames[s.idx()].tag);
        let pway = usize::from(node.way);
        let mut found_empty = false;
        let mut pushed = 0u32;
        for way in 0..FRAME_WAYS {
            if way == pway {
                continue;
            }
            let slot = slots[way];
            debug_assert_eq!(
                u64::from(slot.0) % self.rows,
                self.row_of(node.addr, way as u32)
            );
            let on_path = path[..depth].contains(&slot.0);
            debug_assert_eq!(
                on_path,
                self.walk.slot_on_path(node_idx, slot),
                "ancestor-buffer scan must agree with the reference"
            );
            if on_path {
                self.walk.stats.path_dups_skipped += 1;
                continue;
            }
            let addr = tags[way];
            self.walk.nodes.push(WalkNode {
                addr,
                slot,
                parent: node_idx,
                way: way as u8,
                level: node.level + 1,
            });
            pushed += 1;
            if addr == INVALID_TAG {
                found_empty = true;
                break;
            }
        }
        if pushed > 0 {
            self.walk.stats.tag_reads += pushed;
            let child_level = u32::from(node.level) + 1;
            self.walk.stats.levels = self.walk.stats.levels.max(child_level + 1);
        }
        found_empty
    }

    /// The replacement walk behind [`CacheArray::candidates`].
    fn walk_core(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        out.clear();
        // Match the walk table's pre-sizing so a caller-provided set
        // reaches steady state after its first walk.
        out.reserve(self.walk.nodes.capacity());
        self.walk.clear(addr);
        if let Some(b) = self.bloom.as_mut() {
            b.clear();
        }

        // Level 0: the W first-level candidates (also what a lookup
        // reads — and, on the access path, the rows the preceding
        // `lookup_mut` already hashed and stashed).
        let probed = (self.ways == 4 && self.probe.0 == addr).then_some(self.probe.1);
        // Index of the first empty-frame node, tracked while walking so
        // the mirror pass below never rescans: an empty frame is either
        // among the roots (the walk then goes no deeper) or the early-
        // stopping last node an expansion pushed.
        let mut first_empty_idx = u32::MAX;
        let mut found_empty = false;
        for way in 0..self.ways {
            let row = match probed {
                Some(rows) => u64::from(rows[way as usize]),
                None => self.row_of(addr, way),
            };
            debug_assert_eq!(row, self.row_of(addr, way), "stale probe memo");
            let slot = self.slot(way, row);
            let a = self.frames[slot.idx()].tag;
            self.walk.nodes.push(WalkNode {
                addr: a,
                slot,
                parent: NO_PARENT,
                way: way as u8,
                level: 0,
            });
            self.walk.stats.tag_reads += 1;
            if a == INVALID_TAG {
                if !found_empty {
                    first_empty_idx = self.walk.nodes.len() as u32 - 1;
                }
                found_empty = true;
            } else if let Some(b) = self.bloom.as_mut() {
                b.insert(a);
            }
        }
        self.walk.stats.levels = 1;

        if !found_empty && self.levels > 1 {
            match self.walk_kind {
                WalkKind::Bfs => {
                    // Level-batched expansion: the frontier is contiguous
                    // in the walk table (insertion order is BFS order), so
                    // each iteration takes one whole level and expands it
                    // node by node with the exact per-node semantics of
                    // the scalar loop (depth and cap checks, empty-frame
                    // early stop).
                    let fast4 = self.ways as usize == FRAME_WAYS
                        && self.rows_cacheable()
                        && self.bloom.is_none()
                        && self.levels as usize <= EXPAND4_MAX_LEVELS;
                    let mut level_start = 0usize;
                    'walk: loop {
                        let level_end = self.walk.nodes.len();
                        if level_start == level_end {
                            break; // previous level expanded to nothing
                        }
                        // All nodes in a level share its depth.
                        if u32::from(self.walk.nodes[level_start].level) + 1 >= self.levels {
                            break;
                        }
                        for i in level_start..level_end {
                            let len = self.walk.nodes.len() as u32;
                            if len >= self.max_candidates {
                                break 'walk;
                            }
                            // `expand4` needs full headroom under the cap
                            // (it never checks mid-parent); a parent that
                            // could hit the cap takes the scalar path,
                            // whose per-child check matches it exactly.
                            let empty = if fast4 && len + 3 <= self.max_candidates {
                                self.expand4(i as u32)
                            } else {
                                self.expand(i as u32)
                            };
                            if empty {
                                first_empty_idx = self.walk.nodes.len() as u32 - 1;
                                break 'walk;
                            }
                        }
                        level_start = level_end;
                    }
                }
                WalkKind::Dfs => {
                    // Cuckoo order: follow one chain as deep as the
                    // candidate budget allows, then backtrack. Budget is
                    // the same R as the BFS configuration so ablations
                    // compare equal associativity.
                    let budget = super::walk::replacement_candidates(self.ways, self.levels)
                        .min(u64::from(self.max_candidates))
                        as u32;
                    // Clamp expand()'s candidate cap so a single expansion
                    // cannot overshoot the DFS budget.
                    let saved_cap = self.max_candidates;
                    self.max_candidates = budget;
                    self.walk.stack.clear();
                    self.walk
                        .stack
                        .extend((0..self.walk.nodes.len() as u32).rev());
                    while let Some(idx) = self.walk.stack.pop() {
                        if self.walk.nodes.len() as u32 >= budget {
                            break;
                        }
                        let before = self.walk.nodes.len() as u32;
                        if self.expand(idx) {
                            first_empty_idx = self.walk.nodes.len() as u32 - 1;
                            break;
                        }
                        // Push new children so the most recent is expanded
                        // first (depth-first).
                        for child in (before..self.walk.nodes.len() as u32).rev() {
                            self.walk.stack.push(child);
                        }
                    }
                    self.walk.stack.clear();
                    self.max_candidates = saved_cap;
                }
            }
        }

        self.walk.stats.candidates = self.walk.nodes.len() as u32;

        // Mirror the finished walk table into the caller's candidate set
        // in one dense pass. Token `i` is the node's table index, exactly
        // as interleaved pushes would have produced; deferring it keeps
        // the expansion loop free of the second (24-byte-per-node) write
        // stream.
        out.extend_from_nodes(&self.walk.nodes, first_empty_idx);
        out.levels = self.walk.stats.levels;
        out.tag_reads = self.walk.stats.tag_reads;
    }
}

impl CacheArray for ZArray {
    fn lines(&self) -> u64 {
        self.frames.len() as u64
    }

    fn ways(&self) -> u32 {
        self.ways
    }

    fn lookup(&self, addr: LineAddr) -> Option<SlotId> {
        // Sentinel encoding makes each probe a single u64 compare. The
        // common 4-way shape is unrolled so the four tag loads issue
        // together (independent rows → memory-level parallelism) instead
        // of serializing behind the early-return of the generic loop.
        if self.ways == 4 {
            let [r0, r1, r2, r3] = match self.rows4(addr) {
                Some(rows) => rows,
                None => [
                    self.row_of(addr, 0),
                    self.row_of(addr, 1),
                    self.row_of(addr, 2),
                    self.row_of(addr, 3),
                ],
            };
            let s0 = self.slot(0, r0);
            let s1 = self.slot(1, r1);
            let s2 = self.slot(2, r2);
            let s3 = self.slot(3, r3);
            let t0 = self.frames[s0.idx()].tag;
            let t1 = self.frames[s1.idx()].tag;
            let t2 = self.frames[s2.idx()].tag;
            let t3 = self.frames[s3.idx()].tag;
            if t0 == addr {
                return Some(s0);
            }
            if t1 == addr {
                return Some(s1);
            }
            if t2 == addr {
                return Some(s2);
            }
            if t3 == addr {
                return Some(s3);
            }
            return None;
        }
        for way in 0..self.ways {
            let slot = self.slot(way, self.row_of(addr, way));
            if self.frames[slot.idx()].tag == addr {
                return Some(slot);
            }
        }
        None
    }

    fn lookup_mut(&mut self, addr: LineAddr) -> Option<SlotId> {
        if self.ways == 4 && addr != INVALID_TAG {
            let [r0, r1, r2, r3] = match self.rows4(addr) {
                Some(rows) => rows.map(|r| r as u32),
                None => [
                    self.row_of(addr, 0) as u32,
                    self.row_of(addr, 1) as u32,
                    self.row_of(addr, 2) as u32,
                    self.row_of(addr, 3) as u32,
                ],
            };
            // On a miss the caller walks this same address next; hand the
            // freshly hashed rows over so level 0 skips the rehash.
            self.probe = (addr, [r0, r1, r2, r3]);
            let s0 = self.slot(0, u64::from(r0));
            let s1 = self.slot(1, u64::from(r1));
            let s2 = self.slot(2, u64::from(r2));
            let s3 = self.slot(3, u64::from(r3));
            if self.frames[s0.idx()].tag == addr {
                return Some(s0);
            }
            if self.frames[s1.idx()].tag == addr {
                return Some(s1);
            }
            if self.frames[s2.idx()].tag == addr {
                return Some(s2);
            }
            if self.frames[s3.idx()].tag == addr {
                return Some(s3);
            }
            return None;
        }
        self.lookup(addr)
    }

    fn addr_at(&self, slot: SlotId) -> Option<LineAddr> {
        let t = self.frames[slot.idx()].tag;
        (t != INVALID_TAG).then_some(t)
    }

    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        self.walk_core(addr, out);
    }

    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        out.clear();
        assert_eq!(
            self.walk.for_addr,
            Some(addr),
            "install must follow a candidates() walk for the same address"
        );
        let node = self
            .walk
            .nodes
            .get(victim.token as usize)
            .copied()
            .unwrap_or_else(|| panic!("victim token {} not in walk table", victim.token));
        assert_eq!(node.slot, victim.slot, "victim token/slot mismatch");

        // Evict the victim (or fill the empty frame).
        let pt = self.frames[node.slot.idx()].tag;
        let prev = (pt != INVALID_TAG).then_some(pt);
        debug_assert_eq!(prev, victim.addr, "stale candidate");
        out.evicted = prev;
        out.evicted_slot = prev.map(|_| node.slot);

        // Relocate ancestors down the path: the parent's block moves into
        // the child's (now free) frame, level by level, until the root
        // frame is free for the incoming block. The path lives in the
        // walk table's reusable buffer — steady-state installs allocate
        // nothing.
        self.walk.fill_path(victim.token);
        for k in 1..self.walk.path.len() {
            let dst = self.walk.nodes[self.walk.path[k - 1] as usize].slot;
            let src = self.walk.nodes[self.walk.path[k] as usize].slot;
            let moving = self.frames[src.idx()];
            debug_assert_ne!(moving.tag, INVALID_TAG, "relocating an empty frame");
            {
                let dst_loc = self.location(dst);
                debug_assert_eq!(
                    self.row_of(moving.tag, dst_loc.way),
                    dst_loc.row,
                    "relocated block must hash to its destination row"
                );
            }
            // The whole record — tag and row vector — travels with the
            // block.
            self.frames[dst.idx()] = moving;
            out.moves.push((src, dst));
        }
        let root_slot =
            self.walk.nodes[*self.walk.path.last().expect("path is never empty") as usize].slot;
        let mut root = Frame {
            tag: addr,
            rows: [0; FRAME_WAYS],
        };
        if self.rows_cacheable() {
            if self.ways == 4 && self.probe.0 == addr {
                // The lookup that missed (and the walk after it) already
                // hashed this address; its row vector is still in the
                // probe memo — an address's rows never change, so the
                // memo cannot be stale.
                for (way, &row) in self.probe.1.iter().enumerate() {
                    debug_assert_eq!(u64::from(row), self.row_of(addr, way as u32));
                    root.rows[way] = row as u16;
                }
            } else {
                for way in 0..self.ways.min(FRAME_WAYS as u32) {
                    root.rows[way as usize] = self.row_of(addr, way) as u16;
                }
            }
        }
        self.frames[root_slot.idx()] = root;
        out.filled_slot = root_slot;

        // Consume the walk: a second install against it would relocate
        // stale state.
        self.walk.for_addr = None;
    }

    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId> {
        let slot = self.lookup(addr)?;
        self.frames[slot.idx()].tag = INVALID_TAG;
        Some(slot)
    }

    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr)) {
        for (i, fr) in self.frames.iter().enumerate() {
            if fr.tag != INVALID_TAG {
                f(SlotId(i as u32), fr.tag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::walk::replacement_candidates;

    fn fill(z: &mut ZArray, addrs: impl IntoIterator<Item = u64>) {
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for a in addrs {
            if z.lookup(a).is_some() {
                continue;
            }
            z.candidates(a, &mut cands);
            let victim = *cands.first_empty().unwrap_or_else(|| &cands.as_slice()[0]);
            z.install(a, &victim, &mut out);
        }
    }

    #[test]
    fn lookup_after_install() {
        let mut z = ZArray::new(64, 4, 2, 1);
        fill(&mut z, [10, 20, 30]);
        assert!(z.lookup(10).is_some());
        assert!(z.lookup(20).is_some());
        assert!(z.lookup(30).is_some());
        assert!(z.lookup(40).is_none());
    }

    #[test]
    fn full_walk_reaches_r_candidates() {
        // Fill a small zcache completely, then check a walk for a new
        // address gathers close to R candidates (repeats may trim a few).
        // One level is the skew-associative cache: exactly the W
        // first-level locations.
        for levels in [1, 2] {
            let mut z = ZArray::new(256, 4, levels, 7);
            fill(&mut z, (0..100_000u64).map(|i| i * 3 + 1));
            assert_eq!(z.occupancy(), 256);
            let mut cands = CandidateSet::new();
            z.candidates(999_999, &mut cands);
            let r = replacement_candidates(4, levels) as usize;
            let floor = if levels == 1 { r } else { r - 4 };
            assert!(
                cands.len() >= floor && cands.len() <= r,
                "L={levels}: got {} candidates, expected ~{}",
                cands.len(),
                r
            );
            assert_eq!(cands.levels, levels);
        }
    }

    #[test]
    fn relocations_preserve_all_blocks() {
        // Every install must keep every other resident block findable:
        // relocations move blocks only to rows they hash to.
        let mut z = ZArray::new(128, 4, 3, 3);
        let mut resident: Vec<u64> = Vec::new();
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for a in 1..=500u64 {
            z.candidates(a, &mut cands);
            // Prefer deepest victim to exercise long relocation chains.
            let victim = *cands
                .first_empty()
                .unwrap_or_else(|| cands.as_slice().last().unwrap());
            z.install(a, &victim, &mut out);
            if let Some(e) = out.evicted {
                resident.retain(|&x| x != e);
            }
            resident.push(a);
            for &r in &resident {
                assert!(z.lookup(r).is_some(), "lost block {r} after installing {a}");
            }
        }
    }

    #[test]
    fn install_reports_moves_matching_level() {
        let mut z = ZArray::new(128, 4, 3, 5);
        fill(&mut z, (0..100_000u64).map(|i| i * 7 + 13));
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(123_456_789, &mut cands);
        // pick a level-2 victim (token >= first two levels' sizes)
        let lvl2 = cands
            .as_slice()
            .iter()
            .find(|c| c.token >= 4 + 12)
            .copied()
            .expect("full cache must have level-2 candidates");
        z.install(123_456_789, &lvl2, &mut out);
        assert_eq!(out.moves.len(), 2, "level-2 victim needs 2 relocations");
        assert!(z.lookup(123_456_789).is_some());

        // A one-level walk (skew-associative) only has level-0 victims,
        // so no install ever relocates.
        let mut skew = ZArray::new(64, 4, 1, 2);
        for a in 0..200u64 {
            skew.candidates(a, &mut cands);
            let v = *cands.first_empty().unwrap_or(&cands.as_slice()[0]);
            skew.install(a, &v, &mut out);
            assert!(out.moves.is_empty(), "one-level install of {a} moved");
        }
    }

    #[test]
    fn empty_frame_needs_no_eviction() {
        let mut z = ZArray::new(64, 4, 2, 2);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(42, &mut cands);
        let v = *cands.first_empty().unwrap();
        z.install(42, &v, &mut out);
        assert_eq!(out.evicted, None);
        assert!(out.moves.is_empty());
    }

    #[test]
    fn walk_stops_early_on_empty_frames() {
        let mut z = ZArray::new(1024, 4, 3, 9);
        fill(&mut z, 0..8u64); // mostly empty
        let mut cands = CandidateSet::new();
        z.candidates(777, &mut cands);
        // With an almost-empty array, the walk should stop at level 0.
        assert_eq!(cands.levels, 1);
        assert!(cands.first_empty().is_some());
    }

    #[test]
    #[should_panic(expected = "must follow a candidates() walk")]
    fn install_without_walk_panics() {
        let mut z = ZArray::new(64, 4, 2, 1);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(1, &mut cands);
        let v = cands.as_slice()[0];
        z.install(1, &v, &mut out);
        z.install(1, &v, &mut out); // walk consumed — must panic
    }

    #[test]
    #[should_panic(expected = "same address")]
    fn install_wrong_addr_panics() {
        let mut z = ZArray::new(64, 4, 2, 1);
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        z.candidates(1, &mut cands);
        let v = cands.as_slice()[0];
        z.install(2, &v, &mut out);
    }

    #[test]
    fn dfs_walk_gathers_same_budget() {
        let mut z = ZArray::new(256, 4, 2, 11).with_walk_kind(WalkKind::Dfs);
        fill(&mut z, (0..100_000u64).map(|i| i * 5 + 3));
        let mut cands = CandidateSet::new();
        z.candidates(424_242, &mut cands);
        let r = replacement_candidates(4, 2) as usize;
        assert!(
            cands.len() >= r - 6 && cands.len() <= r,
            "dfs got {} candidates",
            cands.len()
        );
        // DFS reaches deeper levels than BFS for the same budget.
        assert!(cands.levels >= 2);
    }

    #[test]
    fn max_candidates_caps_walk() {
        let mut z = ZArray::new(256, 4, 3, 13).with_max_candidates(10);
        fill(&mut z, (0..100_000u64).map(|i| i * 11 + 1));
        let mut cands = CandidateSet::new();
        z.candidates(555_555, &mut cands);
        assert!(cands.len() <= 10, "cap violated: {}", cands.len());
    }

    #[test]
    fn bloom_dedup_never_loses_blocks() {
        let mut z = ZArray::new(64, 4, 3, 17).with_bloom_dedup(true);
        let mut resident: Vec<u64> = Vec::new();
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for a in 1..=200u64 {
            z.candidates(a, &mut cands);
            let victim = *cands
                .first_empty()
                .unwrap_or_else(|| cands.as_slice().last().unwrap());
            z.install(a, &victim, &mut out);
            if let Some(e) = out.evicted {
                resident.retain(|&x| x != e);
            }
            resident.push(a);
            for &r in &resident {
                assert!(z.lookup(r).is_some());
            }
        }
        // In a tiny array, the filter should actually skip repeats.
        z.candidates(9_999, &mut cands);
        assert!(z.last_walk_stats().bloom_skipped > 0 || cands.len() < 52);
    }

    #[test]
    fn location_roundtrip() {
        let z = ZArray::new(64, 4, 2, 1);
        for slot in [0u32, 15, 16, 63] {
            let loc = z.location(SlotId(slot));
            assert_eq!(
                u64::from(slot),
                u64::from(loc.way) * z.rows_per_way() + loc.row
            );
        }

        // Each way has its own hash: blocks sharing a way-0 row rarely
        // share a way-1 row (the skew-associative property, checked on a
        // one-level array).
        let skew = ZArray::new(1 << 12, 4, 1, 3);
        let target = skew.row_of(0, 0);
        let conflicting: Vec<u64> = (1..100_000u64)
            .filter(|&a| skew.row_of(a, 0) == target)
            .take(50)
            .collect();
        let t1 = skew.row_of(0, 1);
        let same = conflicting
            .iter()
            .filter(|&&a| skew.row_of(a, 1) == t1)
            .count();
        assert!(same <= 2, "way-1 conflicts should be rare, got {same}");
    }

    #[test]
    fn way1_degenerates_to_direct_mapped() {
        let mut z = ZArray::new(16, 1, 3, 1);
        let mut cands = CandidateSet::new();
        z.candidates(5, &mut cands);
        assert_eq!(cands.len(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_rows_panics() {
        ZArray::new(12, 4, 2, 0);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        ZArray::new(16, 4, 0, 0);
    }
}
