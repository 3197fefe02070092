//! Reuse-distance (stack-distance) profiling.
//!
//! The analytical fast-path (`zbench predict`) needs one fact about a
//! workload: how far down the LRU stack each reference reaches. This
//! module streams any reference sequence — a [`TraceReader`] or raw line
//! addresses — through a [`StackProfiler`] that computes every reference's *stack
//! distance* (the number of distinct lines touched since the previous
//! reference to the same line) in `O(log n)` per access, and folds the
//! distances into a compact [`ReuseProfile`] histogram.
//!
//! A fully-associative LRU cache of `C` lines hits a reference iff its
//! stack distance is `< C` (Mattson's stack property; see Gysi et al.,
//! *A Fast Analytical Model of Fully Associative Caches*). The profile
//! is therefore enough to predict miss ratios for *every* capacity at
//! once, and — convolved with the associativity correction in
//! `zcache_core::model` — for every (design, candidates, size) point of
//! the paper's grid, without simulating any of them.
//!
//! # Algorithm
//!
//! The classic Bennett–Kruskal scheme: keep a Fenwick (binary indexed)
//! tree over access *positions* with a `1` at each line's most recent
//! position. The stack distance of a reference to a line last touched at
//! position `p` is the number of marks after `p` — a prefix-sum query —
//! after which the line's mark moves to the new position. Positions grow
//! without bound, so the tree is compacted (live marks re-packed to the
//! front) whenever it is mostly holes; memory stays `O(distinct lines)`.
//!
//! # Examples
//!
//! ```
//! use zworkloads::profile::StackProfiler;
//!
//! let mut p = StackProfiler::new();
//! for &line in &[1u64, 2, 3, 1, 2, 3] {
//!     p.record(line);
//! }
//! let profile = p.profile();
//! assert_eq!(profile.total(), 6);
//! assert_eq!(profile.cold(), 3); // first touches
//! // The three reuses each skipped 2 distinct lines.
//! assert_eq!(profile.count_at_distance(2), 3);
//! ```

use crate::trace_io::TraceReader;
use std::collections::HashMap;
use std::io::{self, BufRead, Write};

/// Largest exactly-resolved distance: distances `0..LINEAR_CUTOFF` get
/// one bucket each, so capacities inside the linear range see *exact*
/// stack-distance counts.
const LINEAR_CUTOFF: u64 = 1 << 9;

/// Sub-buckets per power-of-two octave above [`LINEAR_CUTOFF`] (relative
/// bucket width 1/16 ≈ 6%, which keeps the model's bucketing error well
/// below its own approximation error).
const SUB_BUCKETS: u64 = 16;

/// Maps a stack distance to its bucket index.
///
/// Exact below `LINEAR_CUTOFF` (512); logarithmic with `SUB_BUCKETS`
/// (16) sub-buckets per octave above it.
pub fn bucket_index(distance: u64) -> usize {
    if distance < LINEAR_CUTOFF {
        return distance as usize;
    }
    let octave = (63 - distance.leading_zeros() as u64) - LINEAR_CUTOFF.trailing_zeros() as u64;
    let base = 1u64 << (octave + LINEAR_CUTOFF.trailing_zeros() as u64);
    let sub = (distance - base) / (base / SUB_BUCKETS);
    (LINEAR_CUTOFF + octave * SUB_BUCKETS + sub) as usize
}

/// Inclusive `[lo, hi]` distance range covered by bucket `index`.
///
/// Inverse of [`bucket_index`]: every distance `d` satisfies
/// `bucket_bounds(bucket_index(d)).0 <= d <= bucket_bounds(bucket_index(d)).1`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < LINEAR_CUTOFF {
        return (i, i);
    }
    let octave = (i - LINEAR_CUTOFF) / SUB_BUCKETS;
    let sub = (i - LINEAR_CUTOFF) % SUB_BUCKETS;
    let base = LINEAR_CUTOFF << octave;
    let width = base / SUB_BUCKETS;
    let lo = base + sub * width;
    (lo, lo + width - 1)
}

/// A compact reuse-distance histogram: bucketed stack-distance counts
/// plus the cold (first-touch) reference count.
///
/// Buckets are exact for distances below 512 and ~6%-wide above, so the
/// profile of a billion-reference trace is a few kilobytes. Profiles
/// round-trip through a plain-text format (see [`ReuseProfile::write_to`])
/// and merge, so per-shard profiles can be combined offline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseProfile {
    /// `buckets[bucket_index(d)]` = references with stack distance `d`.
    buckets: Vec<u64>,
    /// First-touch references (infinite stack distance).
    cold: u64,
    /// Total references recorded (cold + reuses).
    total: u64,
}

impl ReuseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one reuse at `distance`.
    pub fn record_distance(&mut self, distance: u64) {
        let idx = bucket_index(distance);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Records one cold (first-touch) reference.
    pub fn record_cold(&mut self) {
        self.cold += 1;
        self.total += 1;
    }

    /// Total references recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) references.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// References recorded at exactly `distance` — meaningful only in
    /// the exact (linear) bucket range; above it the bucket's whole
    /// count is returned.
    pub fn count_at_distance(&self, distance: u64) -> u64 {
        self.buckets
            .get(bucket_index(distance))
            .copied()
            .unwrap_or(0)
    }

    /// Iterates non-empty buckets as `(lo, hi, count)` with `[lo, hi]`
    /// the inclusive distance range of the bucket.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
    }

    /// Reuses with stack distance `>= d` (cold references excluded).
    /// Buckets straddling `d` are apportioned by distance overlap.
    pub fn tail_mass(&self, d: u64) -> f64 {
        let mut mass = 0.0;
        for (lo, hi, count) in self.iter_buckets() {
            if lo >= d {
                mass += count as f64;
            } else if hi >= d {
                let width = (hi - lo + 1) as f64;
                mass += count as f64 * (hi - d + 1) as f64 / width;
            }
        }
        mass
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &ReuseProfile) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.cold += other.cold;
        self.total += other.total;
    }

    /// Writes the profile in the versioned plain-text format:
    ///
    /// ```text
    /// # zprofile v1
    /// cold <count>
    /// d <bucket-lo> <count>
    /// ```
    ///
    /// Bucket lines are emitted in ascending distance order; `total` is
    /// implied (cold + bucket counts) so the format has no redundant
    /// field to drift out of sync.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "# zprofile v1")?;
        writeln!(w, "cold {}", self.cold)?;
        for (lo, _, count) in self.iter_buckets() {
            writeln!(w, "d {lo} {count}")?;
        }
        Ok(())
    }

    /// Parses a profile written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` (with a 1-based line number) on a missing or
    /// wrong header, an unknown record, a bucket key that is not a bucket
    /// lower bound, or a duplicate/unordered bucket line.
    pub fn read_from<R: BufRead>(r: R) -> io::Result<Self> {
        let bad = |lineno: usize, msg: String| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {lineno}: {msg}"))
        };
        let mut profile = ReuseProfile::new();
        let mut seen_header = false;
        let mut last_lo: Option<u64> = None;
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            let lineno = i + 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if !seen_header {
                if trimmed != "# zprofile v1" {
                    return Err(bad(
                        lineno,
                        format!("expected `# zprofile v1` header, got {trimmed:?}"),
                    ));
                }
                seen_header = true;
                continue;
            }
            if trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            match parts.next() {
                Some("cold") => {
                    let n: u64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(lineno, format!("invalid cold count: {trimmed:?}")))?;
                    profile.cold += n;
                    profile.total += n;
                }
                Some("d") => {
                    let lo: u64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(lineno, format!("invalid distance: {trimmed:?}")))?;
                    let count: u64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(lineno, format!("invalid count: {trimmed:?}")))?;
                    let idx = bucket_index(lo);
                    if bucket_bounds(idx).0 != lo {
                        return Err(bad(
                            lineno,
                            format!("{lo} is not a bucket lower bound (layout v1)"),
                        ));
                    }
                    if last_lo.is_some_and(|p| p >= lo) {
                        return Err(bad(lineno, format!("bucket {lo} out of order")));
                    }
                    last_lo = Some(lo);
                    if profile.buckets.len() <= idx {
                        profile.buckets.resize(idx + 1, 0);
                    }
                    profile.buckets[idx] += count;
                    profile.total += count;
                }
                _ => return Err(bad(lineno, format!("unknown record: {trimmed:?}"))),
            }
            if parts.next().is_some() {
                return Err(bad(lineno, format!("trailing fields: {trimmed:?}")));
            }
        }
        if !seen_header {
            return Err(bad(1, "empty profile (missing header)".to_string()));
        }
        Ok(profile)
    }
}

/// Streaming stack-distance counter: `O(log n)` per access, memory
/// proportional to the number of distinct lines seen.
#[derive(Debug, Clone, Default)]
pub struct StackProfiler {
    /// Fenwick tree over access positions; `tree[i]` covers a power-of-
    /// two span of positions, with a 1 at each line's latest position.
    tree: Vec<u64>,
    /// Marks currently set (== distinct lines seen).
    live: u64,
    /// Next free position (positions `0..next_pos` are allocated).
    next_pos: usize,
    /// line -> its latest access position.
    last_pos: HashMap<u64, usize>,
    profile: ReuseProfile,
}

impl StackProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile accumulated so far.
    pub fn profile(&self) -> &ReuseProfile {
        &self.profile
    }

    /// Consumes the profiler, returning its profile.
    pub fn into_profile(self) -> ReuseProfile {
        self.profile
    }

    /// Distinct lines seen so far.
    pub fn distinct_lines(&self) -> u64 {
        self.live
    }

    /// Records one reference and returns its stack distance (`None` for
    /// a first touch).
    pub fn record(&mut self, line: u64) -> Option<u64> {
        if self.next_pos == self.tree.len() {
            self.grow_or_compact();
        }
        let pos = self.next_pos;
        self.next_pos += 1;
        let distance = match self.last_pos.insert(line, pos) {
            Some(prev) => {
                // Marks strictly after `prev`: each is the latest position
                // of a distinct line touched since `prev`.
                let d = self.prefix(pos) - self.prefix(prev + 1);
                self.add(prev, -1);
                Some(d)
            }
            None => {
                self.live += 1;
                None
            }
        };
        self.add(pos, 1);
        match distance {
            Some(d) => self.profile.record_distance(d),
            None => self.profile.record_cold(),
        }
        distance
    }

    /// Drains a [`TraceReader`], recording every reference.
    ///
    /// # Errors
    ///
    /// Stops at and returns the reader's first I/O or parse error; the
    /// profile keeps everything recorded before it.
    pub fn record_trace<R: BufRead>(&mut self, reader: TraceReader<R>) -> io::Result<u64> {
        let mut n = 0;
        for r in reader {
            self.record(r?.line);
            n += 1;
        }
        Ok(n)
    }

    /// Sum of marks at positions `< pos`.
    fn prefix(&self, pos: usize) -> u64 {
        let mut i = pos;
        let mut sum = 0u64;
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }

    /// Adds `delta` (±1) at `pos`.
    fn add(&mut self, pos: usize, delta: i64) {
        let n = self.tree.len();
        let mut i = pos + 1;
        while i <= n {
            self.tree[i - 1] = (self.tree[i - 1] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Doubles the position space, or — when most positions are dead
    /// marks — re-packs live marks to the front so memory tracks the
    /// distinct-line count instead of the access count.
    fn grow_or_compact(&mut self) {
        let live = self.live as usize;
        if live * 2 <= self.tree.len() {
            // Mostly holes: compact. Relative order of live positions is
            // preserved, so subsequent distances are unchanged.
            let mut entries: Vec<(usize, u64)> = self
                .last_pos
                .iter()
                .map(|(&line, &pos)| (pos, line))
                .collect();
            entries.sort_unstable();
            self.tree = vec![0; self.tree.len().max(64)];
            self.last_pos.clear();
            self.next_pos = 0;
            for (_, line) in entries {
                let pos = self.next_pos;
                self.next_pos += 1;
                self.last_pos.insert(line, pos);
                self.add(pos, 1);
            }
        } else {
            // Mostly live: double the position space. The live marks are
            // exactly the positions in `last_pos`, so rebuilding is one
            // pass over them.
            let new_len = (self.tree.len() * 2).max(64);
            self.tree = vec![0; new_len];
            let positions: Vec<usize> = self.last_pos.values().copied().collect();
            for pos in positions {
                self.add(pos, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zhash::SplitMix64;

    /// O(n) move-to-front reference implementation.
    struct NaiveStack {
        stack: Vec<u64>,
    }

    impl NaiveStack {
        fn new() -> Self {
            Self { stack: Vec::new() }
        }

        fn record(&mut self, line: u64) -> Option<u64> {
            if let Some(i) = self.stack.iter().position(|&l| l == line) {
                self.stack.remove(i);
                self.stack.insert(0, line);
                Some(i as u64)
            } else {
                self.stack.insert(0, line);
                None
            }
        }
    }

    #[test]
    fn matches_naive_on_small_sequences() {
        let seqs: Vec<Vec<u64>> = vec![
            vec![1, 2, 3, 1, 2, 3],
            vec![1, 1, 1, 1],
            vec![5, 4, 3, 2, 1, 1, 2, 3, 4, 5],
            (0..100).chain(0..100).collect(),
        ];
        for seq in seqs {
            let mut fast = StackProfiler::new();
            let mut slow = NaiveStack::new();
            for &line in &seq {
                assert_eq!(
                    fast.record(line),
                    slow.record(line),
                    "line {line} in {seq:?}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_on_random_traces() {
        // Random traces over small and medium key spaces, long enough to
        // force several grow/compact cycles (tree starts at 64 slots).
        let mut rng = SplitMix64::new(7);
        for &space in &[4u64, 37, 512] {
            let mut fast = StackProfiler::new();
            let mut slow = NaiveStack::new();
            for i in 0..3000 {
                let line = rng.next_u64() % space;
                assert_eq!(
                    fast.record(line),
                    slow.record(line),
                    "step {i}, space {space}"
                );
            }
            assert_eq!(fast.distinct_lines() as usize, slow.stack.len());
        }
    }

    #[test]
    fn histogram_matches_naive_counts() {
        let mut rng = SplitMix64::new(11);
        let mut fast = StackProfiler::new();
        let mut slow_hist: HashMap<u64, u64> = HashMap::new();
        let mut slow = NaiveStack::new();
        let mut cold = 0u64;
        for _ in 0..2000 {
            let line = rng.next_u64() % 100;
            match slow.record(line) {
                Some(d) => *slow_hist.entry(d).or_default() += 1,
                None => cold += 1,
            }
            fast.record(line);
        }
        let p = fast.profile();
        assert_eq!(p.cold(), cold);
        assert_eq!(p.total(), 2000);
        // Distances < 100 < LINEAR_CUTOFF are all exact buckets.
        for (&d, &c) in &slow_hist {
            assert_eq!(p.count_at_distance(d), c, "distance {d}");
        }
    }

    #[test]
    fn bucket_layout_is_self_inverse() {
        for d in 0..(LINEAR_CUTOFF * 5) {
            let i = bucket_index(d);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= d && d <= hi, "d={d} i={i} lo={lo} hi={hi}");
        }
        // Spot checks deep into the log range.
        for d in [1 << 20, (1 << 20) + 12345, u64::MAX / 2] {
            let (lo, hi) = bucket_bounds(bucket_index(d));
            assert!(lo <= d && d <= hi);
            // Relative width stays ~1/SUB_BUCKETS.
            assert!((hi - lo + 1) as f64 <= lo as f64 / SUB_BUCKETS as f64 + 1.0);
        }
        // Bucket indices are contiguous and monotone across the cutoff.
        assert_eq!(
            bucket_index(LINEAR_CUTOFF - 1) + 1,
            bucket_index(LINEAR_CUTOFF)
        );
        let mut prev = 0;
        for d in 1..(LINEAR_CUTOFF * 8) {
            let i = bucket_index(d);
            assert!(i == prev || i == prev + 1, "gap at {d}");
            prev = i;
        }
    }

    #[test]
    fn tail_mass_apportions_straddling_buckets() {
        let mut p = ReuseProfile::new();
        // A log-range bucket: distance 600 lands in a 32-wide bucket.
        p.record_distance(600);
        let (lo, hi) = bucket_bounds(bucket_index(600));
        assert!(hi > lo);
        assert_eq!(p.tail_mass(lo), 1.0);
        assert_eq!(p.tail_mass(hi + 1), 0.0);
        let mid = (lo + hi) / 2;
        let frac = p.tail_mass(mid);
        assert!(frac > 0.0 && frac < 1.0);
        // Exact range: no apportioning.
        let mut q = ReuseProfile::new();
        q.record_distance(10);
        assert_eq!(q.tail_mass(10), 1.0);
        assert_eq!(q.tail_mass(11), 0.0);
    }

    #[test]
    fn profile_text_roundtrip() {
        let mut rng = SplitMix64::new(3);
        let mut prof = StackProfiler::new();
        for _ in 0..5000 {
            prof.record(rng.next_u64() % 700);
        }
        let p = prof.into_profile();
        let mut buf = Vec::new();
        p.write_to(&mut buf).unwrap();
        let back = ReuseProfile::read_from(&buf[..]).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn profile_read_rejects_malformed() {
        for (text, what) in [
            ("", "empty"),
            ("cold 3\n", "missing header"),
            ("# zprofile v2\ncold 1\n", "wrong version"),
            ("# zprofile v1\ncold x\n", "bad cold"),
            ("# zprofile v1\nd 513 1\n", "non-boundary bucket key"),
            ("# zprofile v1\nd 1 1\nd 1 2\n", "duplicate bucket"),
            ("# zprofile v1\nd 5 1\nd 2 2\n", "out of order"),
            ("# zprofile v1\nq 1 2\n", "unknown record"),
            ("# zprofile v1\nd 1 2 3\n", "trailing fields"),
        ] {
            let err = ReuseProfile::read_from(text.as_bytes());
            assert!(err.is_err(), "accepted {what}: {text:?}");
            if !text.is_empty() {
                let msg = err.unwrap_err().to_string();
                assert!(msg.starts_with("line "), "{what}: {msg}");
            }
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ReuseProfile::new();
        let mut b = ReuseProfile::new();
        a.record_distance(3);
        a.record_cold();
        b.record_distance(3);
        b.record_distance(1000);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.cold(), 1);
        assert_eq!(a.count_at_distance(3), 2);
        assert_eq!(a.count_at_distance(1000), 1);
    }

    #[test]
    fn record_trace_profiles_a_reader() {
        let text = "R 1\nR 2\nW 1\nR 2\n";
        let mut p = StackProfiler::new();
        let n = p.record_trace(TraceReader::new(text.as_bytes())).unwrap();
        assert_eq!(n, 4);
        assert_eq!(p.profile().cold(), 2);
        assert_eq!(p.profile().count_at_distance(1), 2);
    }

    #[test]
    fn record_trace_stops_at_parse_error() {
        let text = "R 1\nR zz\nR 2\n";
        let mut p = StackProfiler::new();
        let err = p.record_trace(TraceReader::new(text.as_bytes()));
        assert!(err.is_err());
        assert_eq!(p.profile().total(), 1);
    }

    #[test]
    fn compaction_keeps_memory_bounded() {
        // 1M accesses over 256 lines: the tree must stay O(lines), not
        // O(accesses).
        let mut p = StackProfiler::new();
        for i in 0..1_000_000u64 {
            p.record(i % 256);
        }
        assert!(p.tree.len() <= 4096, "tree grew to {}", p.tree.len());
        assert_eq!(p.distinct_lines(), 256);
        // Steady state: every wrap reuses at distance 255.
        assert_eq!(p.profile().count_at_distance(255), 1_000_000 - 256);
    }
}
