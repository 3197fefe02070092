//! The zcache tag array (§III of the paper).

use super::tags::INVALID_TAG;
use super::walk::{WalkKind, WalkNode, WalkTable, NO_PARENT};
use super::{ArrayKind, CacheArray, Candidate, CandidateSet, InstallOutcome};
use crate::types::{LineAddr, Location, SlotId};
use zhash::{AnyHasher, BloomFilter, Gf2Table, H3Hash, HashKind, Hasher64};

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
    /// How an address maps to its row in each way.
    index: WayIndex,
    /// `frames[way * rows + row]`: one record per frame.
    frames: Vec<Frame>,
    /// Probe memo `(addr, per-way rows)` stashed by
    /// [`lookup_mut`](CacheArray::lookup_mut): on a miss, `walk_core`
    /// reuses the rows the lookup just hashed instead of rehashing.
    /// Rows are a pure function of the address and the fixed hash
    /// family, so the memo can never go stale; it is only ever *read*
    /// when the stashed address matches. 4-way only (`FRAME_WAYS`).
    probe: (LineAddr, [u32; FRAME_WAYS]),
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

/// The entries of `v` for the three ways other than `way`, in way
/// order: where [`ZArray::walk4`] puts the children of a node in `way`.
/// Each pick is a select on `way`, not a load from a variable index.
#[inline(always)]
fn other_ways<T: Copy>(v: [T; FRAME_WAYS], way: u8) -> [T; 3] {
    [0, 1, 2].map(|k| {
        if k < way {
            v[usize::from(k)]
        } else {
            v[usize::from(k) + 1]
        }
    })
}

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

/// How a [`ZArray`] maps an address to its row in each way.
#[derive(Debug, Clone)]
enum WayIndex {
    /// 4-way H3 with rows that fit a [`Frame`]'s 16-bit lanes: all four
    /// ways from one table. Column `i` holds, in 16-bit lane `w` (bits
    /// `16w..16w + 16`), row `i` of way `w`'s H3 matrix masked to the row
    /// bits. H3 is linear over GF(2) and masking commutes with XOR, so
    /// the table's image of an address is every way's row in its lane:
    /// the [`Frame::rows`] vector, from one 2.5 KiB table.
    Packed(Box<Gf2Table>),
    /// Every other configuration (other way counts, `Mix64` or
    /// bit-select hashing, more than 2^16 rows per way): one hasher per
    /// way.
    PerWay(Vec<AnyHasher>),
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
        let row_bits = rows.trailing_zeros();
        let way_seed = |w: u32| seed.wrapping_mul(0x1000).wrapping_add(u64::from(w));
        let index = if ways as usize == FRAME_WAYS && hash == HashKind::H3 && row_bits <= u16::BITS
        {
            let matrices = [0, 1, 2, 3].map(|w| H3Hash::matrix(way_seed(w)));
            let mask = (1u64 << row_bits) - 1;
            WayIndex::Packed(Gf2Table::new(std::array::from_fn(|bit| {
                (0..FRAME_WAYS).fold(0, |acc, w| acc | (matrices[w][bit] & mask) << (16 * w))
            })))
        } else {
            WayIndex::PerWay((0..ways).map(|w| hash.build(way_seed(w))).collect())
        };
        // Pre-size the walk table to the full R = W·Σ(W−1)^l bound
        // (capped for degenerate configurations) so steady-state walks
        // never grow it.
        let reserve = super::walk::replacement_candidates(ways, levels).min(4096) as usize;
        let mut walk = WalkTable::default();
        walk.reserve(reserve);
        Self {
            ways,
            rows,
            row_bits,
            levels,
            max_candidates: u32::MAX,
            walk_kind: WalkKind::Bfs,
            index,
            frames: vec![EMPTY_FRAME; lines as usize],
            probe: (INVALID_TAG, [0; FRAME_WAYS]),
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
        match &self.index {
            WayIndex::Packed(t) => t.apply(addr) >> (16 * way) & 0xffff,
            WayIndex::PerWay(h) => h[way as usize].index(addr, self.row_bits),
        }
    }

    /// All four ways' rows in one pass over the address bytes, through
    /// the packed table; `None` for arrays on the per-way path.
    #[inline]
    fn rows4(&self, addr: LineAddr) -> Option<[u16; FRAME_WAYS]> {
        let WayIndex::Packed(t) = &self.index else {
            return None;
        };
        let lanes = t.apply(addr);
        Some(std::array::from_fn(|w| (lanes >> (16 * w)) as u16))
    }

    /// Statistics of the most recent walk.
    pub fn last_walk_stats(&self) -> super::walk::WalkStats {
        self.walk.stats
    }

    /// Describes node `token` of the most recent walk (for diagnostics
    /// and the Fig. 1 walkthrough) while that walk is current; `None` if
    /// the token is out of range or an install has consumed the walk.
    pub fn walk_node(&self, token: u32) -> Option<WalkNodeInfo> {
        self.walk.for_addr?;
        if token >= self.walk.stats.candidates {
            return None;
        }
        let mut path = vec![token];
        while let Some(p) = self.parent(path[path.len() - 1]) {
            path.push(p);
        }
        let root_first = path.iter().rev();
        let slot = root_first.fold(None, |up, &a| Some(self.frame(a, up)))?;
        Some(WalkNodeInfo {
            location: self.location(slot),
            // Frames stay as the walk saw them until the install that
            // consumes it.
            addr: self.addr_at(slot),
            level: path.len() as u32 - 1,
            parent: path.get(1).copied(),
        })
    }

    /// The parent of node `a` of the current walk: from its links, or,
    /// after a [`walk4`](Self::walk4), from its index.
    fn parent(&self, a: u32) -> Option<u32> {
        if self.walk.implicit {
            return self.walk.parent4(a).map(|(p, _)| p);
        }
        let p = self.walk.nodes[a as usize].parent;
        (p != NO_PARENT).then_some(p)
    }

    /// The frame of node `a` of the current walk, given its parent's
    /// (`None` for a root). After a [`walk4`](Self::walk4), a root's
    /// frame is the walked address's row in the root's way, and a child's
    /// the row its parent's block caches for the child's way: the frames
    /// stay as the walk saw them until its install.
    fn frame(&self, a: u32, parent: Option<SlotId>) -> SlotId {
        if !self.walk.implicit {
            return self.walk.nodes[a as usize].slot;
        }
        let Some(up) = parent else {
            let addr = self.walk.for_addr.expect("a current walk");
            let row = match self.probe {
                (probed, rows) if probed == addr => u64::from(rows[a as usize]),
                _ => self.row_of(addr, a),
            };
            return self.slot(a, row);
        };
        let (_, k) = self.walk.parent4(a).expect("a child node");
        let way = other_ways([0u8, 1, 2, 3], (up.0 >> self.row_bits) as u8)[k];
        let row = self.frames[up.idx()].rows[usize::from(way)];
        self.slot(u32::from(way), u64::from(row))
    }

    /// Fills the walk's path buffer with the frames from node `victim`
    /// up to its root, the victim's first: the node indices up to the
    /// root, then each frame from its parent's, root first.
    fn fill_path(&mut self, victim: u32) {
        self.walk.path.clear();
        let mut a = Some(victim);
        while let Some(n) = a {
            self.walk.path.push(n);
            a = self.parent(n);
        }
        let mut up = None;
        for j in (0..self.walk.path.len()).rev() {
            let slot = self.frame(self.walk.path[j], up);
            self.walk.path[j] = slot.0;
            up = Some(slot);
        }
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

    /// Expands `node_idx`, pushing its children. Returns `true` if an
    /// empty frame was found (callers stop the walk: a free frame is a
    /// perfect victim).
    fn expand(&mut self, node_idx: u32, out: &mut CandidateSet) -> bool {
        let node = self.walk.nodes[node_idx as usize];
        // The resident block's tag and its row vector, cached next to it
        // at install time: one line, warm from the tag read that created
        // this node, so the W−1 rehashes of §III-A cost nothing here.
        let frame = self.frames[node.slot.idx()];
        let baddr = frame.tag;
        if baddr == INVALID_TAG {
            return false; // empty frames have no block to rehash
        }
        let mut found_empty = false;
        let mut pushed = 0u32;
        let rows_cacheable = self.rows_cacheable();
        for way in 0..self.ways {
            if u64::from(way) == u64::from(node.slot.0) >> self.row_bits {
                continue; // the matching hash: this is where the block already is
            }
            if self.walk.nodes.len() as u32 >= self.max_candidates {
                break;
            }
            let row = if rows_cacheable && (way as usize) < FRAME_WAYS {
                u64::from(frame.rows[way as usize])
            } else {
                self.row_of(baddr, way)
            };
            debug_assert_eq!(row, self.row_of(baddr, way), "stale block row");
            let slot = self.slot(way, row);
            // A slot already on this path would make the relocation chain
            // touch the same frame twice; skip it (repeats across sibling
            // branches remain allowed, as in the paper).
            if self.walk.slot_on_path(node_idx, slot) {
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
            out.items
                .push(candidate(slot, addr, self.walk.nodes.len() as u32));
            self.walk.nodes.push(WalkNode {
                slot,
                parent: node_idx,
                level: node.level + 1,
            });
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

    /// The breadth-first walk of the common 4-way shape with cached rows
    /// and no Bloom filter; returns the index of the first empty frame
    /// found (`u32::MAX` if none).
    ///
    /// The shape is fixed: the four roots, then each expanded node's
    /// three other-way children in way order, a level being the index
    /// range its parent level pushed. A child never repeats its parent,
    /// which sits in another way, so it can only repeat an ancestor two
    /// or more levels up: level 1 needs no dedup, level 2 compares
    /// against its root, and only walks of four or more levels read
    /// further ancestors (one read each, through the implicit parents).
    /// The three children's tags load together; a node whose children
    /// are all new, non-empty and under the cap pushes them in one step,
    /// and any other node takes them one by one with the scalar loop's
    /// exact semantics (cap check, dedup count, empty-frame early stop).
    ///
    /// The fixed shape makes the tree implicit: the walk writes each
    /// node's candidate and nothing else, and an install or
    /// [`walk_node`](Self::walk_node) derives a node's parent and way
    /// from its index ([`WalkTable::parent4`]) and its frame from its
    /// parent's.
    fn walk4(&mut self, addr: LineAddr, out: &mut CandidateSet) -> u32 {
        // The roots: on the access path, the rows the preceding
        // `lookup_mut` already hashed and stashed.
        let root_rows = if self.probe.0 == addr {
            self.probe.1
        } else {
            let rows = self.rows4(addr);
            [0, 1, 2, 3].map(|w| {
                rows.map_or_else(|| self.row_of(addr, w) as u32, |r| u32::from(r[w as usize]))
            })
        };
        debug_assert!((0..4).all(|w| u64::from(root_rows[w]) == self.row_of(addr, w as u32)));
        let rows = self.rows as u32;
        let slots: [u32; 4] = [0, 1, 2, 3].map(|w| w * rows + root_rows[w as usize]);
        let tags = slots.map(|s| self.frames[s as usize].tag);
        out.items
            .extend([0, 1, 2, 3].map(|w| candidate(SlotId(slots[w]), tags[w], w as u32)));
        self.walk.implicit = true;
        self.walk.stats.levels = 1;
        let first_empty = match tags.iter().position(|&t| t == INVALID_TAG) {
            Some(w) => w as u32,
            None => self.expand_levels4(out),
        };
        self.walk.stats.tag_reads = out.items.len() as u32;
        first_empty
    }

    /// The levels below the roots of [`walk4`](Self::walk4). It writes
    /// the candidates alone: a node's parent and way follow from its
    /// index ([`WalkTable::parent4`]), and only a skipped child is
    /// recorded.
    fn expand_levels4(&mut self, out: &mut CandidateSet) -> u32 {
        let cap = self.max_candidates as usize;
        let rows = self.rows as u32;
        let mut level_start = 0;
        for level in 1..self.levels {
            let level_end = out.items.len();
            if level_start == level_end {
                break; // the previous level expanded to nothing
            }
            for i in level_start..level_end {
                if out.items.len() >= cap {
                    return u32::MAX;
                }
                let slot = out.items[i].slot.0;
                let frame = self.frames[slot as usize];
                debug_assert_ne!(frame.tag, INVALID_TAG, "the walk stops at empty frames");
                // All four ways' slots and tags with constant indices (the
                // node's own way reads its own, already warm, frame), then
                // the three other ways picked branch-free.
                let all = [0, 1, 2, 3].map(|w| w * rows + u32::from(frame.rows[w as usize]));
                let tag = all.map(|s| self.frames[s as usize].tag);
                let way = (slot >> self.row_bits) as u8;
                let slots = other_ways(all, way);
                let tags = other_ways(tag, way);
                // Bit `k` set: child `k` repeats an ancestor.
                let mut dup = 0u8;
                let mut up = self.walk.parent4(i as u32);
                while let Some((a, _)) = up {
                    let ancestor = out.items[a as usize].slot.0;
                    for (k, &s) in slots.iter().enumerate() {
                        dup |= u8::from(s == ancestor) << k;
                    }
                    up = self.walk.parent4(a);
                }
                debug_assert!((0..3).all(|k| {
                    let w = u32::from(other_ways([0u8, 1, 2, 3], way)[k]);
                    u64::from(slots[k]) % self.rows == self.row_of(frame.tag, w)
                }));
                let empty = tags.map(|t| t == INVALID_TAG);
                let items = &mut out.items;
                if (items.len() + 3 <= cap) & (dup == 0) & !(empty[0] | empty[1] | empty[2]) {
                    let token = items.len() as u32;
                    items.extend([0, 1, 2].map(|k| Candidate {
                        slot: SlotId(slots[k]),
                        addr: Some(tags[k]),
                        token: token + k as u32,
                    }));
                    self.walk.stats.levels = level + 1;
                    continue;
                }
                for (k, &is_empty) in empty.iter().enumerate() {
                    if items.len() >= cap {
                        return u32::MAX;
                    }
                    if dup >> k & 1 == 1 {
                        self.walk.stats.path_dups_skipped += 1;
                        self.walk.skips.push(4 + 3 * i as u32 + k as u32);
                        continue;
                    }
                    items.push(candidate(SlotId(slots[k]), tags[k], items.len() as u32));
                    self.walk.stats.levels = level + 1;
                    if is_empty {
                        return items.len() as u32 - 1;
                    }
                }
            }
            level_start = level_end;
        }
        u32::MAX
    }

    /// The walk of every other shape (other way counts, uncached rows,
    /// Bloom dedup, DFS), node by node through [`expand`](Self::expand);
    /// returns the index of the first empty frame found (`u32::MAX` if
    /// none).
    fn walk_scalar(&mut self, addr: LineAddr, out: &mut CandidateSet) -> u32 {
        // Level 0: the W first-level candidates (also what a lookup
        // reads — and, on the access path of a 4-way array, the rows the
        // preceding `lookup_mut` already hashed and stashed).
        let probed = (self.ways == 4 && self.probe.0 == addr).then_some(self.probe.1);
        // An empty frame is either among the roots (the walk then goes
        // no deeper) or the early-stopping last node an expansion pushed.
        let mut first_empty_idx = u32::MAX;
        for way in 0..self.ways {
            let row = match probed {
                Some(rows) => u64::from(rows[way as usize]),
                None => self.row_of(addr, way),
            };
            debug_assert_eq!(row, self.row_of(addr, way), "stale probe memo");
            let slot = self.slot(way, row);
            let a = self.frames[slot.idx()].tag;
            out.items.push(candidate(slot, a, way));
            self.walk.nodes.push(WalkNode {
                slot,
                parent: NO_PARENT,
                level: 0,
            });
            self.walk.stats.tag_reads += 1;
            if a == INVALID_TAG {
                first_empty_idx = first_empty_idx.min(way);
            } else if let Some(b) = self.bloom.as_mut() {
                b.insert(a);
            }
        }
        self.walk.stats.levels = 1;
        if first_empty_idx != u32::MAX || self.levels == 1 {
            return first_empty_idx;
        }
        match self.walk_kind {
            WalkKind::Bfs => {
                // Level-batched expansion: the frontier is contiguous in
                // the walk table (insertion order is BFS order), so each
                // iteration takes one whole level and expands it node by
                // node (depth and cap checks, empty-frame early stop).
                let mut level_start = 0usize;
                loop {
                    let level_end = self.walk.nodes.len();
                    if level_start == level_end {
                        break; // previous level expanded to nothing
                    }
                    // All nodes in a level share its depth.
                    if u32::from(self.walk.nodes[level_start].level) + 1 >= self.levels {
                        break;
                    }
                    for i in level_start..level_end {
                        if self.walk.nodes.len() as u32 >= self.max_candidates {
                            return u32::MAX;
                        }
                        if self.expand(i as u32, out) {
                            return self.walk.nodes.len() as u32 - 1;
                        }
                    }
                    level_start = level_end;
                }
            }
            WalkKind::Dfs => {
                // Cuckoo order: follow one chain as deep as the candidate
                // budget allows, then backtrack. Budget is the same R as
                // the BFS configuration so ablations compare equal
                // associativity.
                let budget = super::walk::replacement_candidates(self.ways, self.levels)
                    .min(u64::from(self.max_candidates)) as u32;
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
                    if self.expand(idx, out) {
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
        first_empty_idx
    }

    /// The replacement walk behind [`CacheArray::candidates`]: each node
    /// goes straight into `out`, in discovery order.
    fn walk_core(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        out.clear();
        // Match the walk table's pre-sizing so a caller-provided set
        // reaches steady state after its first walk.
        out.reserve(self.walk.nodes.capacity());
        self.walk.clear(addr);
        if let Some(b) = self.bloom.as_mut() {
            b.clear();
        }
        let first_empty = if self.ways as usize == FRAME_WAYS
            && self.rows_cacheable()
            && self.bloom.is_none()
            && self.walk_kind == WalkKind::Bfs
        {
            self.walk4(addr, out)
        } else {
            self.walk_scalar(addr, out)
        };
        self.walk.stats.candidates = out.len() as u32;
        debug_assert!(self.walk.implicit || out.len() == self.walk.nodes.len());
        debug_assert_eq!(
            first_empty,
            out.as_slice()
                .iter()
                .position(|c| c.addr.is_none())
                .map_or(u32::MAX, |i| i as u32),
            "the walk's first empty frame must match a rescan"
        );
        out.first_empty = first_empty;
        out.levels = self.walk.stats.levels;
        out.tag_reads = self.walk.stats.tag_reads;
    }
}

/// The candidate of a frame holding `tag` ([`INVALID_TAG`] = empty).
#[inline(always)]
fn candidate(slot: SlotId, tag: u64, token: u32) -> Candidate {
    Candidate {
        slot,
        addr: (tag != INVALID_TAG).then_some(tag),
        token,
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
                Some(rows) => rows.map(u64::from),
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
                Some(rows) => rows.map(u32::from),
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
        assert!(
            victim.token < self.walk.stats.candidates,
            "victim token {} not in walk table",
            victim.token
        );
        // The victim's path, its frame first and its root's last, in the
        // walk table's reusable buffer: steady-state installs allocate
        // nothing.
        self.fill_path(victim.token);
        let slot = SlotId(self.walk.path[0]);
        assert_eq!(slot, victim.slot, "victim token/slot mismatch");

        // Evict the victim (or fill the empty frame).
        let pt = self.frames[slot.idx()].tag;
        let prev = (pt != INVALID_TAG).then_some(pt);
        debug_assert_eq!(prev, victim.addr, "stale candidate");
        out.evicted = prev;
        out.evicted_slot = prev.map(|_| slot);

        // Relocate ancestors down the path: the parent's block moves into
        // the child's (now free) frame, level by level, until the root
        // frame is free for the incoming block.
        for k in 1..self.walk.path.len() {
            let dst = SlotId(self.walk.path[k - 1]);
            let src = SlotId(self.walk.path[k]);
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
        let root_slot = SlotId(*self.walk.path.last().expect("path is never empty"));
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
    use crate::array::walk::{replacement_candidates, WalkStats};

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

    /// Every walk node's description (from explicit links, or from the
    /// implicit tree after a `walk4`) and candidate, the first empty
    /// frame and the walk's statistics.
    type Observed = (Vec<Option<WalkNodeInfo>>, Vec<Candidate>, u32, WalkStats);

    /// Runs `walk` on a cleared walk table and returns everything an
    /// install or a caller can observe of it.
    fn observe(
        z: &mut ZArray,
        addr: u64,
        walk: fn(&mut ZArray, u64, &mut CandidateSet) -> u32,
    ) -> Observed {
        let mut cands = CandidateSet::new();
        z.walk.clear(addr);
        let first_empty = walk(z, addr, &mut cands);
        z.walk.stats.candidates = cands.len() as u32;
        let nodes = (0..cands.len() as u32).map(|a| z.walk_node(a)).collect();
        (nodes, cands.items, first_empty, z.walk.stats)
    }

    #[test]
    fn walk4_matches_the_scalar_walk() {
        // Every 4-way shape the fast path takes, on a small array (so
        // slots repeat along paths) through cold start, steady state and
        // invalidation holes (so the walk stops at empty frames deep in
        // the tree): the node table, the candidates, the first empty
        // frame and the WalkStats must equal the scalar walk's.
        for (levels, cap) in [(1, None), (2, None), (3, None), (4, None), (3, Some(5))]
            .into_iter()
            .chain([4, 8, 16, 24, 51].map(|c| (3, Some(c))))
            .chain([(4, Some(100))])
        {
            let mut z = ZArray::new(64, 4, levels, 23);
            if let Some(c) = cap {
                z.set_max_candidates(c);
            }
            let mut cands = CandidateSet::new();
            let mut out = InstallOutcome::default();
            let (mut dups, mut deep_empties) = (0, 0);
            for a in 1..3_000u64 {
                let addr = a * 7 % 509;
                if a % 5 == 0 {
                    z.invalidate(a * 3 % 509);
                }
                if z.lookup_mut(addr).is_some() {
                    continue;
                }
                let fast = observe(&mut z, addr, ZArray::walk4);
                let scalar = observe(&mut z, addr, ZArray::walk_scalar);
                assert_eq!(fast, scalar, "L={levels} cap={cap:?} addr={addr}");
                dups += fast.3.path_dups_skipped;
                deep_empties += u32::from(fast.2 != u32::MAX && fast.2 >= 4);
                z.candidates(addr, &mut cands);
                let pick = cands.as_slice()[a as usize % cands.len()];
                let victim = *cands.first_empty().unwrap_or(&pick);
                z.install(addr, &victim, &mut out);
            }
            if levels > 2 && cap.is_none_or(|c| c > 16) {
                assert!(
                    dups > 0,
                    "L={levels} cap={cap:?}: no path repeats exercised"
                );
                assert!(
                    deep_empties > 0,
                    "L={levels} cap={cap:?}: no deep empty frame"
                );
            }
        }
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
    fn packed_rows_are_h3_by_definition() {
        // Each way's row equals that way's H3 matrix applied by
        // definition (the XOR of the rows its set bits select, masked to
        // the row bits), read from no table, at every width the packed
        // table serves: random lines with all eight bytes set (every
        // nibble position's table), the edge lines and tenant-tagged
        // lines. At 17 row bits the array takes the per-way path with
        // the same values.
        let mut rng = zhash::SplitMix64::new(0x9ac4);
        let mut addrs = vec![0, 1, INVALID_TAG - 1];
        while addrs.len() < 200 {
            let a = rng.next_u64();
            if a.to_le_bytes().iter().all(|&b| b != 0) && a != INVALID_TAG {
                addrs.push(a);
            }
        }
        addrs.extend((0..64).map(|t| rng.next_u64() >> 8 | t << 56));
        for seed in [0, 5, 0xdead_beef] {
            for row_bits in 1..=17 {
                let z = ZArray::new(4 << row_bits, 4, 3, seed);
                let packed = matches!(z.index, WayIndex::Packed(_));
                assert_eq!(packed, row_bits <= 16, "{row_bits} row bits");
                for w in 0..4u32 {
                    let q = H3Hash::matrix(seed.wrapping_mul(0x1000).wrapping_add(u64::from(w)));
                    for &a in &addrs {
                        let want = (0..64)
                            .filter(|&i| a >> i & 1 == 1)
                            .fold(0, |acc, i| acc ^ q[i])
                            & ((1 << row_bits) - 1);
                        assert_eq!(
                            z.row_of(a, w),
                            want,
                            "seed {seed} bits {row_bits} way {w} {a:#x}"
                        );
                    }
                }
            }
        }
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
