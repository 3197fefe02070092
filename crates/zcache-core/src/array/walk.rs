//! The replacement-candidate walk (§III-A of the paper).
//!
//! On a zcache miss, the controller walks the tag array breadth-first:
//! level-0 candidates are the `W` locations the incoming block hashes to;
//! expanding a candidate holding block `B` in way `w` yields `W−1` further
//! candidates at rows `h_{w'}(B)` for every other way `w'`. The walk tree
//! for a victim at level `d` implies `d` relocations along its path.

use super::tags::INVALID_TAG;
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

/// A node of the walk tree.
///
/// `addr` uses the [`INVALID_TAG`] sentinel instead of `Option` so a node
/// is 24 bytes, not 32 — the walk table is the hottest write path of a
/// miss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkNode {
    /// Block resident in `slot` ([`INVALID_TAG`] = empty frame).
    pub addr: u64,
    /// Frame this candidate occupies.
    pub slot: SlotId,
    /// Index of the parent node, or `u32::MAX` for level-0 roots.
    pub parent: u32,
    /// Way of `slot`.
    pub way: u8,
    /// Tree level (0 = first-level candidate).
    pub level: u8,
}

impl WalkNode {
    /// The resident block as an `Option` (the external representation).
    #[inline(always)]
    pub fn addr_opt(&self) -> Option<LineAddr> {
        (self.addr != INVALID_TAG).then_some(self.addr)
    }
}

pub(crate) const NO_PARENT: u32 = u32::MAX;

/// The controller's walk table: the SRAM that remembers candidate
/// positions so relocations can retrace the victim's path (§III-C).
#[derive(Debug, Clone, Default)]
pub(crate) struct WalkTable {
    pub nodes: Vec<WalkNode>,
    /// Address the walk was performed for; guards stale installs.
    pub for_addr: Option<LineAddr>,
    pub stats: WalkStats,
    /// Reusable buffer for [`fill_path`](Self::fill_path), so installs
    /// allocate nothing in steady state.
    pub path: Vec<u32>,
    /// Reusable DFS work stack (empty outside a DFS walk).
    pub stack: Vec<u32>,
}

impl WalkTable {
    pub fn clear(&mut self, addr: LineAddr) {
        self.nodes.clear();
        self.for_addr = Some(addr);
        self.stats = WalkStats::default();
    }

    /// Pre-sizes the table's buffers for walks of up to `candidates`
    /// nodes, so steady-state walks and installs never reallocate.
    pub fn reserve(&mut self, candidates: usize) {
        self.nodes.reserve(candidates);
        self.path.reserve(candidates);
        self.stack.reserve(candidates);
    }

    /// Fills [`path`](Self::path) with the node indices from `node` to
    /// its root (inclusive, in that order), reusing the buffer.
    pub fn fill_path(&mut self, mut node: u32) {
        self.path.clear();
        loop {
            self.path.push(node);
            let p = self.nodes[node as usize].parent;
            if p == NO_PARENT {
                break;
            }
            node = p;
        }
    }

    /// True if `slot` appears on the path from `node` to the root.
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
    fn fill_path_visits_ancestors() {
        let mut t = WalkTable::default();
        t.clear(99);
        t.nodes.push(WalkNode {
            slot: SlotId(0),
            addr: 1,
            parent: NO_PARENT,
            way: 0,
            level: 0,
        });
        t.nodes.push(WalkNode {
            slot: SlotId(5),
            addr: 2,
            parent: 0,
            way: 1,
            level: 1,
        });
        t.nodes.push(WalkNode {
            slot: SlotId(9),
            addr: 3,
            parent: 1,
            way: 2,
            level: 2,
        });
        t.fill_path(2);
        assert_eq!(t.path, vec![2, 1, 0]);
        assert!(t.slot_on_path(2, SlotId(5)));
        assert!(t.slot_on_path(2, SlotId(0)));
        assert!(!t.slot_on_path(1, SlotId(9)));
    }
}
