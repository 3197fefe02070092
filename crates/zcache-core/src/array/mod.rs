//! Cache array organizations.
//!
//! An array holds tags, implements associative lookup, and — the part the
//! paper cares about — produces a set of *replacement candidates* on a
//! miss. The organizations match §II–§IV of the paper:
//!
//! * [`SetAssocArray`] — conventional set-associative, optionally with a
//!   hashed index.
//! * [`ZArray`] — the zcache: one hash function per way, and a
//!   multi-level BFS walk over the candidate tree that yields up to
//!   `W·Σ(W−1)^l` candidates, with relocations along the victim's path on
//!   install. A one-level walk is the skew-associative cache (Seznec):
//!   candidates are the `W` first-level locations and installs never
//!   relocate, which is how [`ArrayKind::Skew`] is built.
//! * [`FullyAssocArray`] — any block in any frame. A miss offers every
//!   frame (the associativity reference point) or, as the §IV-B *random
//!   candidates cache*, `n` uniformly random frames, which meets the
//!   uniformity assumption by construction.

mod fully;
mod setassoc;
mod tags;
mod walk;
mod zarray;

pub use fully::FullyAssocArray;
pub use setassoc::SetAssocArray;
pub use tags::{TagStore, INVALID_TAG};
pub use walk::{replacement_candidates, WalkKind, WalkStats};
pub use zarray::{WalkNodeInfo, ZArray};

use crate::types::{LineAddr, SlotId};
use zhash::HashKind;

/// One replacement candidate returned by [`CacheArray::candidates`]:
/// 16 bytes, the frame's raw tag beside two 32-bit handles.
///
/// An empty frame carries [`INVALID_TAG`], as in the arrays' own tag
/// stores, so a walk copies the tag it read and victim selection reads
/// it back without an `Option` on either side.
/// [`addr`](Candidate::addr) gives the `Option` view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The block currently in that frame, or [`INVALID_TAG`] if the
    /// frame is empty (an empty frame is always the preferred "victim").
    pub line: LineAddr,
    /// The frame that would be vacated.
    pub slot: SlotId,
    /// Array-private handle (for [`ZArray`], the walk-tree node index) that
    /// [`CacheArray::install`] uses to reconstruct the relocation path.
    pub token: u32,
}

const _: () = assert!(std::mem::size_of::<Candidate>() == 16);

impl Candidate {
    /// The block in the candidate's frame; `None` if the frame is empty.
    #[inline]
    pub fn addr(&self) -> Option<LineAddr> {
        (self.line != INVALID_TAG).then_some(self.line)
    }
}

/// Reusable buffer of replacement candidates for one miss.
///
/// Owned by the caller and cleared by [`CacheArray::candidates`], so the
/// hot path performs no per-miss allocation after warm-up. Arrays write
/// each candidate here once: a [`ZArray`] walk pushes every node's
/// candidate as it discovers it (token = the node's index in the walk),
/// and victim selection then reads the set in one pass
/// ([`ReplacementPolicy::pick_victim`](crate::ReplacementPolicy::pick_victim)).
#[derive(Debug, Clone)]
pub struct CandidateSet {
    pub(crate) items: Vec<Candidate>,
    /// Index of the first empty-frame candidate (`u32::MAX` = none),
    /// tracked by [`push`] or set by a walk, which knows where its
    /// early stop landed, so selection never rescans the set for one.
    ///
    /// [`push`]: CandidateSet::push
    pub(crate) first_empty: u32,
    /// Walk levels used to produce this set (1 for non-walking arrays).
    pub levels: u32,
    /// Tag reads performed to produce this set (the paper's `R`).
    pub tag_reads: u32,
}

impl Default for CandidateSet {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            first_empty: u32::MAX,
            levels: 0,
            tag_reads: 0,
        }
    }
}

impl CandidateSet {
    /// Creates an empty candidate set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the buffer for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
        self.first_empty = u32::MAX;
        self.levels = 0;
        self.tag_reads = 0;
    }

    /// Adds a candidate.
    pub fn push(&mut self, c: Candidate) {
        if c.line == INVALID_TAG && self.first_empty == u32::MAX {
            self.first_empty = self.items.len() as u32;
        }
        self.items.push(c);
    }

    /// Pre-sizes the buffer for at least `n` candidates (e.g. the
    /// [`replacement_candidates`] bound), so the hot path never grows it.
    pub fn reserve(&mut self, n: usize) {
        self.items.reserve(n);
    }

    /// The candidates gathered so far.
    pub fn as_slice(&self) -> &[Candidate] {
        &self.items
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no candidates were gathered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// First candidate whose frame is empty, if any.
    pub fn first_empty(&self) -> Option<&Candidate> {
        self.items.get(self.first_empty as usize)
    }
}

/// Result of installing a block, including relocation bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstallOutcome {
    /// Block evicted to make room, if the victim frame was occupied.
    pub evicted: Option<LineAddr>,
    /// Frame the evicted block vacated (valid when `evicted` is `Some`).
    pub evicted_slot: Option<SlotId>,
    /// Frame the incoming block landed in (after relocations).
    pub filled_slot: SlotId,
    /// Relocations performed, oldest-ancestor first, as `(from, to)` slot
    /// moves. Empty for non-zcache arrays.
    pub moves: Vec<(SlotId, SlotId)>,
}

impl InstallOutcome {
    /// Clears the outcome for reuse across installs.
    pub fn clear(&mut self) {
        self.evicted = None;
        self.evicted_slot = None;
        self.filled_slot = SlotId(0);
        self.moves.clear();
    }
}

/// Folds one `(slot, addr, dirty)` triple into a running tag-state
/// digest.
///
/// This is the digest arithmetic shared by [`CacheArray::state_digest`]
/// and the `zoracle` reference models: both sides fold their resident
/// blocks in ascending slot order starting from
/// [`DIGEST_SEED`], so two caches agree on the digest iff they agree on
/// the exact placement (and dirtiness) of every block. SplitMix64-style
/// finalizer; any single-bit difference avalanches.
#[inline]
pub fn digest_step(h: u64, slot: SlotId, addr: LineAddr, dirty: bool) -> u64 {
    let mut z = h
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(slot.0))
        .wrapping_add(addr.rotate_left(17))
        .wrapping_add(u64::from(dirty));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial value for [`digest_step`] chains.
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// A cache tag array: associative lookup plus replacement-candidate
/// generation and installation.
///
/// Slot identifiers are dense in `0..lines()`, so per-slot replacement
/// state can live in flat vectors.
pub trait CacheArray {
    /// Total frames.
    fn lines(&self) -> u64;

    /// Number of ways (locations a block can be in).
    fn ways(&self) -> u32;

    /// Finds the frame holding `addr`, if resident.
    fn lookup(&self, addr: LineAddr) -> Option<SlotId>;

    /// [`lookup`](Self::lookup) on the access path, where the caller
    /// holds `&mut self`. Semantically identical; arrays may use the
    /// mutable access to memoize probe work a subsequent
    /// [`candidates`](Self::candidates) call for the same address would
    /// otherwise repeat ([`ZArray`] stashes the hashed row vector and
    /// [`SetAssocArray`] the set, which depend only on the address and
    /// the fixed hash family).
    fn lookup_mut(&mut self, addr: LineAddr) -> Option<SlotId> {
        self.lookup(addr)
    }

    /// The block resident in `slot`, if any.
    fn addr_at(&self, slot: SlotId) -> Option<LineAddr>;

    /// Gathers replacement candidates for a missing `addr` into `out`.
    ///
    /// `&mut self` allows arrays to advance internal PRNG state or cache
    /// the walk tree for the subsequent [`install`](Self::install).
    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet);

    /// Installs `addr`, vacating `victim` (a candidate returned by the
    /// immediately preceding `candidates` call for the same address).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `victim` does not belong to the most
    /// recent candidate set for `addr`.
    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome);

    /// Removes `addr` if resident, returning its former frame.
    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId>;

    /// Calls `f` for every valid (occupied) frame.
    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr));

    /// Number of occupied frames.
    fn occupancy(&self) -> u64 {
        let mut n = 0;
        self.for_each_valid(&mut |_, _| n += 1);
        n
    }

    /// Digest of the full tag state: every resident `(slot, addr)` pair,
    /// folded in ascending slot order with [`digest_step`].
    ///
    /// Two arrays produce the same digest iff they agree on the placement
    /// of every resident block. Dirty bits are not the array's concern;
    /// [`Cache::state_digest`](crate::Cache::state_digest) folds them in.
    fn state_digest(&self) -> u64 {
        let mut entries: Vec<(SlotId, LineAddr)> = Vec::new();
        self.for_each_valid(&mut |s, a| entries.push((s, a)));
        entries.sort_unstable_by_key(|(s, _)| s.0);
        entries
            .iter()
            .fold(DIGEST_SEED, |h, &(s, a)| digest_step(h, s, a, false))
    }
}

/// Array organization selector for [`CacheBuilder`](crate::CacheBuilder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayKind {
    /// Set-associative with the given index hash.
    SetAssoc {
        /// Index hash family (`BitSelect` = conventional indexing).
        hash: HashKind,
    },
    /// Skew-associative (H3-hashed ways): a one-level [`ZArray`], whose
    /// candidates are the `W` first-level locations (§III).
    Skew,
    /// ZCache with a BFS walk of `levels` full levels.
    ZCache {
        /// Walk depth; candidates `R = W·Σ_{l<levels}(W−1)^l`.
        levels: u32,
    },
    /// Fully associative.
    Fully,
    /// The §IV-B random-candidates design: a [`FullyAssocArray`] that
    /// offers `n` random frames per miss.
    RandomCands {
        /// Candidates drawn uniformly (with repetition) per miss.
        n: u32,
    },
}

impl ArrayKind {
    /// The nominal replacement candidates `R` with `ways` ways: the `n`
    /// of the uniformity model `F_A(x) = xⁿ` (§IV). A zcache has
    /// [`replacement_candidates`] (saturated), a fully-associative array
    /// every frame (`u32::MAX`).
    ///
    /// # Examples
    ///
    /// ```
    /// use zcache_core::ArrayKind;
    ///
    /// assert_eq!(ArrayKind::ZCache { levels: 3 }.candidates(4), 52);
    /// assert_eq!(ArrayKind::Skew.candidates(4), 4);
    /// assert_eq!(ArrayKind::Fully.candidates(4), u32::MAX);
    /// assert_eq!(ArrayKind::ZCache { levels: 9 }.candidates(64), u32::MAX);
    /// ```
    pub fn candidates(self, ways: u32) -> u32 {
        match self {
            ArrayKind::SetAssoc { .. } | ArrayKind::Skew => ways,
            ArrayKind::ZCache { levels } => {
                u32::try_from(replacement_candidates(ways, levels)).unwrap_or(u32::MAX)
            }
            ArrayKind::Fully => u32::MAX,
            ArrayKind::RandomCands { n } => n,
        }
    }

    /// Checks, without panicking, that an array of this kind can be
    /// built with `lines` frames and `ways` ways (ignored by the fully
    /// associative and random-candidate kinds). Every array constructor
    /// asserts this check, so a caller that validates first never
    /// reaches a constructor panic.
    pub fn check_geometry(self, lines: u64, ways: u32) -> Result<(), String> {
        let set_indexed = match self {
            ArrayKind::RandomCands { n: 0 } => return Err("need at least one candidate".into()),
            ArrayKind::ZCache { levels: 0 } => return Err("walk needs at least one level".into()),
            ArrayKind::Fully | ArrayKind::RandomCands { .. } => false,
            ArrayKind::SetAssoc { .. } | ArrayKind::Skew | ArrayKind::ZCache { .. } => true,
        };
        let rows = lines / u64::from(ways.max(1));
        if lines == 0 {
            Err("need at least one line".into())
        } else if lines > u64::from(u32::MAX) {
            // Slot ids are u32; larger arrays would silently truncate them.
            Err(format!("lines ({lines}) must fit in a u32 slot id"))
        } else if !set_indexed {
            Ok(())
        } else if ways == 0 {
            Err("need at least one way".into())
        } else if !lines.is_multiple_of(u64::from(ways)) {
            Err(format!(
                "lines ({lines}) must be a multiple of ways ({ways})"
            ))
        } else if !rows.is_power_of_two() {
            // The row (set) index is a slice of hash bits.
            Err(format!("rows per way ({rows}) must be a power of two"))
        } else {
            Ok(())
        }
    }
}

impl std::fmt::Display for ArrayKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayKind::SetAssoc { hash } => write!(f, "setassoc({hash})"),
            ArrayKind::Skew => write!(f, "skew"),
            ArrayKind::ZCache { levels } => write!(f, "zcache(L={levels})"),
            ArrayKind::Fully => write!(f, "fully"),
            ArrayKind::RandomCands { n } => write!(f, "random({n})"),
        }
    }
}

/// A runtime-selected array, for configuration-driven experiments.
///
/// Enum dispatch (not `dyn`) keeps the per-access cost at a predictable
/// branch while letting `zbench` pick organizations from the command line.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // enum dispatch by design; arrays are long-lived
pub enum AnyArray {
    /// See [`SetAssocArray`].
    SetAssoc(SetAssocArray),
    /// See [`ZArray`].
    ZCache(ZArray),
    /// See [`FullyAssocArray`] (both candidate rules).
    Fully(FullyAssocArray),
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            AnyArray::SetAssoc($inner) => $e,
            AnyArray::ZCache($inner) => $e,
            AnyArray::Fully($inner) => $e,
        }
    };
}

impl AnyArray {
    /// Adjusts the zcache walk-budget cap at run time (clamped to at
    /// least the way count). Other arrays ignore the call — their
    /// candidate count is structural — so runtime controllers can steer
    /// a [`DynCache`] without matching on the array kind.
    ///
    /// [`DynCache`]: crate::DynCache
    pub fn set_max_candidates(&mut self, max: u32) {
        if let AnyArray::ZCache(z) = self {
            z.set_max_candidates(max);
        }
    }
}

impl CacheArray for AnyArray {
    #[inline]
    fn lines(&self) -> u64 {
        delegate!(self, a => a.lines())
    }
    #[inline]
    fn ways(&self) -> u32 {
        delegate!(self, a => a.ways())
    }
    #[inline]
    fn lookup(&self, addr: LineAddr) -> Option<SlotId> {
        delegate!(self, a => a.lookup(addr))
    }
    #[inline]
    fn lookup_mut(&mut self, addr: LineAddr) -> Option<SlotId> {
        delegate!(self, a => a.lookup_mut(addr))
    }
    #[inline]
    fn addr_at(&self, slot: SlotId) -> Option<LineAddr> {
        delegate!(self, a => a.addr_at(slot))
    }
    #[inline]
    fn candidates(&mut self, addr: LineAddr, out: &mut CandidateSet) {
        delegate!(self, a => a.candidates(addr, out))
    }
    #[inline]
    fn install(&mut self, addr: LineAddr, victim: &Candidate, out: &mut InstallOutcome) {
        delegate!(self, a => a.install(addr, victim, out))
    }
    #[inline]
    fn invalidate(&mut self, addr: LineAddr) -> Option<SlotId> {
        delegate!(self, a => a.invalidate(addr))
    }
    #[inline]
    fn for_each_valid(&self, f: &mut dyn FnMut(SlotId, LineAddr)) {
        delegate!(self, a => a.for_each_valid(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_set_reuse() {
        let mut s = CandidateSet::new();
        s.push(Candidate {
            line: 1,
            slot: SlotId(0),
            token: 0,
        });
        s.levels = 2;
        s.tag_reads = 4;
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.levels, 0);
        assert_eq!(s.tag_reads, 0);
    }

    #[test]
    fn first_empty_finds_hole() {
        let mut s = CandidateSet::new();
        s.push(Candidate {
            line: 5,
            slot: SlotId(0),
            token: 0,
        });
        s.push(Candidate {
            line: INVALID_TAG,
            slot: SlotId(1),
            token: 1,
        });
        let hole = s.first_empty().unwrap();
        assert_eq!((hole.slot, hole.addr()), (SlotId(1), None));
        assert_eq!(s.as_slice()[0].addr(), Some(5));
    }

    #[test]
    fn lookup_never_finds_the_empty_frame_tag() {
        // The empty-frame marker equals an empty frame's tag: a probe for
        // it must answer absent before it hashes, on an empty array and
        // on a partly filled one, through both lookups of every kind.
        let seed = 3;
        let kinds = [
            ("z4/52 walk4", AnyArray::ZCache(ZArray::new(64, 4, 3, seed))),
            ("z8 zcache", AnyArray::ZCache(ZArray::new(64, 8, 2, seed))),
            (
                "sa-h3",
                AnyArray::SetAssoc(SetAssocArray::new(64, 4, HashKind::H3, seed)),
            ),
            (
                "sa-bitsel",
                AnyArray::SetAssoc(SetAssocArray::new(64, 4, HashKind::BitSelect, seed)),
            ),
            ("skew", AnyArray::ZCache(ZArray::new(64, 4, 1, seed))),
            ("fully", AnyArray::Fully(FullyAssocArray::new(64))),
            (
                "random",
                AnyArray::Fully(FullyAssocArray::random_candidates(64, 8, seed)),
            ),
        ];
        let mut cands = CandidateSet::new();
        let mut out = InstallOutcome::default();
        for (name, mut a) in kinds {
            for filled in [0, 20] {
                for line in 1..=filled {
                    if a.lookup_mut(line).is_none() {
                        a.candidates(line, &mut cands);
                        let victim = *cands.first_empty().unwrap_or(&cands.as_slice()[0]);
                        a.install(line, &victim, &mut out);
                    }
                }
                assert!(a.occupancy() < a.lines(), "{name}: no empty frame");
                assert_eq!(a.lookup(INVALID_TAG), None, "{name}, {filled} filled");
                assert_eq!(a.lookup_mut(INVALID_TAG), None, "{name}, {filled} filled");
            }
        }
    }

    #[test]
    fn array_kind_display() {
        assert_eq!(
            ArrayKind::SetAssoc { hash: HashKind::H3 }.to_string(),
            "setassoc(h3)"
        );
        assert_eq!(ArrayKind::ZCache { levels: 3 }.to_string(), "zcache(L=3)");
        assert_eq!(ArrayKind::RandomCands { n: 16 }.to_string(), "random(16)");
        assert_eq!(ArrayKind::Skew.to_string(), "skew");
        assert_eq!(ArrayKind::Fully.to_string(), "fully");
    }

    #[test]
    fn check_geometry_rules() {
        let sa = ArrayKind::SetAssoc { hash: HashKind::H3 };
        let z3 = ArrayKind::ZCache { levels: 3 };
        let err = |k: ArrayKind, lines, ways| k.check_geometry(lines, ways).unwrap_err();
        assert_eq!(sa.check_geometry(64, 4), Ok(()));
        assert_eq!(z3.check_geometry(64, 4), Ok(()));
        assert!(err(sa, 0, 4).contains("at least one line"));
        assert!(err(z3, 64, 0).contains("at least one way"));
        assert!(err(ArrayKind::ZCache { levels: 0 }, 64, 4).contains("at least one level"));
        assert!(err(ArrayKind::Skew, 60, 8).contains("multiple of ways"));
        assert!(err(z3, 60, 4).contains("(15) must be a power of two"));
        assert!(err(z3, 1 << 33, 4).contains("u32 slot id"));
        // Ways do not constrain the kinds without rows.
        assert_eq!(ArrayKind::Fully.check_geometry(60, 0), Ok(()));
        assert!(err(ArrayKind::RandomCands { n: 0 }, 60, 4).contains("at least one candidate"));
    }

    #[test]
    fn install_outcome_clear() {
        let mut o = InstallOutcome {
            evicted: Some(9),
            evicted_slot: Some(SlotId(3)),
            filled_slot: SlotId(7),
            moves: vec![(SlotId(1), SlotId(2))],
        };
        o.clear();
        assert_eq!(o, InstallOutcome::default());
    }
}
