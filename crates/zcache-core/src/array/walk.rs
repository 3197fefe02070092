//! The replacement-candidate walk (§III-A of the paper).
//!
//! On a zcache miss, the controller walks the tag array breadth-first:
//! level-0 candidates are the `W` locations the incoming block hashes to;
//! expanding a candidate holding block `B` in way `w` yields `W−1` further
//! candidates at rows `h_{w'}(B)` for every other way `w'`. The walk tree
//! for a victim at level `d` implies `d` relocations along its path.
//!
//! Each node is handled once: the walk writes its candidate straight
//! into the caller's [`CandidateSet`](super::CandidateSet). The
//! fixed-shape 4-way walk writes nothing else, since a node's parent and
//! way follow from its index ([`WalkTable::parent4`]); walks of every
//! other shape record each node's links (frame, parent, level) in the
//! array's [`WalkTable`] at the same index. Selection then reads the
//! candidate set in one pass, and an install retraces the victim's path
//! through the links.

use crate::types::{LineAddr, SlotId};

/// Walk expansion order.
///
/// The paper's hardware design is BFS (§III-D): the walk table is a few
/// hundred bits, accesses pipeline level by level, and relocations stay
/// shallow. DFS is the cuckoo-hashing order, kept here for the ablation
/// bench: it needs no walk table but makes every additional candidate cost
/// a relocation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalkKind {
    /// Breadth-first search (the paper's design).
    #[default]
    Bfs,
    /// Depth-first search (cuckoo-hashing order), for ablation.
    Dfs,
}

impl std::fmt::Display for WalkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WalkKind::Bfs => "bfs",
            WalkKind::Dfs => "dfs",
        })
    }
}

/// Per-walk measurements, used by the energy model and the ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Candidates gathered (the paper's `R`, after dedup/early stop).
    pub candidates: u32,
    /// Levels of the tree touched (1 = first-level only).
    pub levels: u32,
    /// Tag reads performed (== candidates: one read discovers one node).
    pub tag_reads: u32,
    /// Children skipped because their slot repeated an ancestor's slot.
    pub path_dups_skipped: u32,
    /// Children skipped by the Bloom repeat filter.
    pub bloom_skipped: u32,
}

/// Number of replacement candidates of a full `levels`-deep walk on a
/// `ways`-way zcache, assuming no repeats: `R = W · Σ_{l=0}^{L−1} (W−1)^l`.
///
/// # Examples
///
/// ```
/// use zcache_core::replacement_candidates;
///
/// assert_eq!(replacement_candidates(4, 2), 16); // the paper's Z4/16
/// assert_eq!(replacement_candidates(4, 3), 52); // the paper's Z4/52
/// assert_eq!(replacement_candidates(3, 3), 21); // the Fig. 1 example
/// ```
pub fn replacement_candidates(ways: u32, levels: u32) -> u64 {
    let w = u64::from(ways);
    if ways == 0 || levels == 0 {
        return 0;
    }
    let mut per_root = 0u64;
    let mut term = 1u64;
    for _ in 0..levels {
        per_root = per_root.saturating_add(term);
        term = term.saturating_mul(w - 1);
    }
    w.saturating_mul(per_root)
}

/// A node of the walk tree: where the candidate sits and how the walk
/// reached it.
///
/// The candidate itself, with the block it holds, is written once, by
/// the walk, into the caller's [`CandidateSet`](super::CandidateSet) at
/// the node's index. A walk through `ZArray::expand` also records each
/// node's links here (its way is its frame's); the fixed-shape 4-way
/// walk records none, because its tree follows from the node indices
/// ([`WalkTable::parent4`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalkNode {
    /// Frame this candidate occupies.
    pub slot: SlotId,
    /// Index of the parent node, or [`NO_PARENT`] for level-0 roots.
    pub parent: u32,
    /// Tree level (0 = first-level candidate).
    pub level: u8,
}

pub(crate) const NO_PARENT: u32 = u32::MAX;

/// The controller's walk table: the SRAM that remembers candidate
/// positions so relocations can retrace the victim's path (§III-C).
#[derive(Debug, Clone, Default)]
pub(crate) struct WalkTable {
    /// Every node's links, for a walk through `ZArray::expand`; empty
    /// when `implicit`.
    pub nodes: Vec<WalkNode>,
    /// Whether the walk was the fixed-shape 4-way walk, whose tree is
    /// implicit in the node indices and `skips`.
    pub implicit: bool,
    /// The positions of the children an implicit walk skipped, ascending
    /// (see [`parent4`](Self::parent4)).
    pub skips: Vec<u32>,
    /// Address the walk was performed for; guards stale installs.
    pub for_addr: Option<LineAddr>,
    pub stats: WalkStats,
    /// Reusable buffer of the slots an install relocates along, so
    /// installs allocate nothing in steady state.
    pub path: Vec<u32>,
    /// Reusable DFS work stack (empty outside a DFS walk).
    pub stack: Vec<u32>,
}

impl WalkTable {
    pub fn clear(&mut self, addr: LineAddr) {
        self.nodes.clear();
        self.implicit = false;
        self.skips.clear();
        self.for_addr = Some(addr);
        self.stats = WalkStats::default();
    }

    /// Pre-sizes the buffers a walk of up to `candidates` nodes uses, so
    /// steady-state walks and installs never reallocate: every install's
    /// path, then the skip list of an implicit walk (`walks4`) or the
    /// links of any other, with the work stack for a DFS walk.
    pub fn reserve(&mut self, candidates: usize, walks4: bool, dfs: bool) {
        self.path.reserve(candidates);
        if walks4 {
            self.skips.reserve(candidates);
        } else {
            self.nodes.reserve(candidates);
        }
        if dfs {
            self.stack.reserve(candidates);
        }
    }

    /// The parent of node `a` of an implicit walk, and which of its
    /// three children (in way order) `a` is; `None` for the four roots.
    ///
    /// The implicit tree numbers positions as if no child were skipped:
    /// the roots hold 0–3 and node `p`'s children `4 + 3p`,
    /// `4 + 3p + 1` and `4 + 3p + 2`. Nodes are expanded in index order
    /// and decide their three children in turn, so every position up
    /// to the walk's last holds a node or a skipped child, and node `a`
    /// sits at `a` plus the skips at or before its position.
    #[inline]
    pub fn parent4(&self, a: u32) -> Option<(u32, usize)> {
        if a < 4 {
            return None;
        }
        let mut pos = a;
        for &s in &self.skips {
            if s > pos {
                break;
            }
            pos += 1;
        }
        Some(((pos - 4) / 3, ((pos - 4) % 3) as usize))
    }

    /// True if `slot` appears on the path from `node` to the root of a
    /// walk with explicit links.
    pub fn slot_on_path(&self, mut node: u32, slot: SlotId) -> bool {
        loop {
            let n = &self.nodes[node as usize];
            if n.slot == slot {
                return true;
            }
            if n.parent == NO_PARENT {
                return false;
            }
            node = n.parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_counts_match_paper() {
        // Table II design points and the Fig. 1 example.
        assert_eq!(replacement_candidates(4, 1), 4); // skew-associative
        assert_eq!(replacement_candidates(4, 2), 16);
        assert_eq!(replacement_candidates(4, 3), 52);
        assert_eq!(replacement_candidates(2, 2), 4);
        assert_eq!(replacement_candidates(2, 4), 8);
        assert_eq!(replacement_candidates(3, 3), 21);
    }

    #[test]
    fn degenerate_counts() {
        assert_eq!(replacement_candidates(0, 3), 0);
        assert_eq!(replacement_candidates(4, 0), 0);
        assert_eq!(replacement_candidates(1, 5), 1); // direct-mapped can't expand
    }

    #[test]
    fn walk_kind_display() {
        assert_eq!(WalkKind::Bfs.to_string(), "bfs");
        assert_eq!(WalkKind::Dfs.to_string(), "dfs");
        assert_eq!(WalkKind::default(), WalkKind::Bfs);
    }

    #[test]
    fn slot_on_path_follows_parent_links() {
        let mut t = WalkTable::default();
        t.clear(99);
        let node = |slot, parent, level| WalkNode {
            slot: SlotId(slot),
            parent,
            level,
        };
        t.nodes
            .extend([node(0, NO_PARENT, 0), node(5, 0, 1), node(9, 1, 2)]);
        assert!(t.slot_on_path(2, SlotId(5)));
        assert!(t.slot_on_path(2, SlotId(0)));
        assert!(!t.slot_on_path(1, SlotId(9)));
    }

    #[test]
    fn implicit_parents_step_over_skips() {
        let mut t = WalkTable::default();
        t.clear(99);
        assert_eq!(t.parent4(3), None);
        assert_eq!(t.parent4(4), Some((0, 0)));
        assert_eq!(t.parent4(15), Some((3, 2)));
        assert_eq!(t.parent4(16), Some((4, 0)));
        // Node 4's first child (position 16) and node 5's second
        // (position 20) were skipped: node 16 sits at position 17, and
        // nodes 19 onward two positions on.
        t.skips.extend([16, 20]);
        assert_eq!(t.parent4(15), Some((3, 2)));
        assert_eq!(t.parent4(16), Some((4, 1)));
        assert_eq!(t.parent4(18), Some((5, 0)));
        assert_eq!(t.parent4(19), Some((5, 2)));
        assert_eq!(t.parent4(20), Some((6, 0)));
    }
}
