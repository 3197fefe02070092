//! Spans and histograms for the traced run.
//!
//! Spans wrap the calls the benchmark makes into each layer (one per
//! `record_trace_into`, `replay_with`, `System::run`, ...). Calls made
//! millions of times (`access_full`, `PartitionedCache::access`) would
//! need hundreds of megabytes of spans, so they go into a fixed
//! [`Log2Hist`] instead.

use std::time::Instant;

/// One timed call, in nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Sweep point the call belongs to, if any.
    pub point: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans into a preallocated vector.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest in it.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        point: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            point,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Indices of the top-level spans called `name`.
    pub fn roots<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len())
            .filter(move |&i| self.spans[i].parent.is_none() && self.spans[i].name == name)
    }

    /// Time of span `idx` covered by its direct children.
    pub fn children_ns(&self, idx: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time: the span's duration minus what its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        self.spans[idx].dur_ns() - self.children_ns(idx)
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as one JSON document, self time included.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "    {{\"id\": {i}, \"name\": \"{}\", \"point\": {}, \"parent\": {}, \
                     \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                    s.name,
                    opt(s.point),
                    opt(s.parent),
                    s.start_ns,
                    s.end_ns,
                    self.self_ns(i)
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }
}

/// Linear sub-buckets per power of two: percentiles are exact to 1/16.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// A fixed-size log2 histogram of nanosecond samples, with `SUB` linear
/// sub-buckets per octave.
#[derive(Clone)]
pub struct Log2Hist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u64,
}

impl Log2Hist {
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let shift = octave - SUB_BITS;
        let mantissa = (v >> shift) - SUB;
        (SUB + u64::from(shift) * SUB + mantissa) as usize
    }

    /// `(lowest value, width)` of bucket `b`.
    fn bounds(b: usize) -> (u64, u64) {
        let b = b as u64;
        if b < SUB {
            return (b, 1);
        }
        let shift = (b - SUB) / SUB;
        let mantissa = (b - SUB) % SUB;
        ((SUB + mantissa) << shift, 1 << shift)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank percentile `p` (0..=100), reported as the midpoint of
    /// its bucket; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = Self::bounds(b);
                return low as f64 + (width - 1) as f64 / 2.0;
            }
        }
        unreachable!("rank {rank} exceeds the {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nearest_rank(sorted: &[u64], p: f64) -> f64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_value_range() {
        let mut next = 0u64;
        for b in 0..BUCKETS {
            let (low, width) = Log2Hist::bounds(b);
            assert_eq!(low, next, "gap before bucket {b}");
            assert_eq!(Log2Hist::bucket(low), b);
            assert_eq!(Log2Hist::bucket(low + (width - 1)), b);
            next = low.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket must end at u64::MAX");
    }

    #[test]
    fn percentiles_match_a_sort_based_reference() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in [1usize, 2, 3, 10, 99, 1000, 20_000] {
            let mut samples = Vec::with_capacity(n);
            let mut h = Log2Hist::new();
            for _ in 0..n {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                // Log-uniform over 1 ns .. ~1 ms, like access latencies.
                let v = 1u64 << (state >> 59).min(20) | (state >> 40) & 0xff;
                samples.push(v);
                h.record(v);
            }
            samples.sort_unstable();
            assert_eq!(h.count(), n as u64);
            assert_eq!(h.sum(), samples.iter().sum::<u64>());
            for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let exact = nearest_rank(&samples, p);
                let got = h.percentile(p);
                assert!(
                    (got - exact).abs() <= exact / 16.0 + 0.5,
                    "n={n} p{p}: histogram {got} vs exact {exact}"
                );
            }
        }
        assert_eq!(Log2Hist::new().percentile(50.0), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Log2Hist::new();
        for v in [0, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.percentile(100.0), 7.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.span("root", None, |tr| {
            tr.span("a", Some(0), |tr| tr.span("a.inner", Some(0), |_| ()));
            tr.span("b", Some(1), |_| ());
        });
        let root = tr.roots("root").next().unwrap();
        let s = tr.spans();
        let (a, inner, b) = (1, 2, 3);
        assert_eq!(
            (s[a].parent, s[inner].parent, s[b].parent),
            (Some(0), Some(a), Some(0))
        );
        assert_eq!(tr.children_ns(root), s[a].dur_ns() + s[b].dur_ns());
        assert_eq!(
            tr.self_ns(root),
            s[root].dur_ns() - s[a].dur_ns() - s[b].dur_ns()
        );
        assert_eq!(tr.self_ns(a), s[a].dur_ns() - s[inner].dur_ns());
        assert_eq!(tr.self_ns(b), s[b].dur_ns());
        let total: u64 = (0..s.len()).map(|i| tr.self_ns(i)).sum();
        assert_eq!(total, s[root].dur_ns(), "self times partition the root");
        assert_eq!(tr.roots("a").count(), 0, "nested spans are not roots");
    }

    #[test]
    fn self_time_arithmetic_on_fixed_spans() {
        let mut tr = Tracer::new();
        let span = |name: &str, parent, start_ns, end_ns| Span {
            name: name.into(),
            point: None,
            parent,
            start_ns,
            end_ns,
        };
        tr.spans = vec![
            span("drive", None, 0, 100),
            span("record", Some(0), 5, 35),
            span("replay", Some(0), 40, 90),
            span("oracle", Some(2), 40, 50),
        ];
        assert_eq!(tr.self_ns(0), 100 - 30 - 50);
        assert_eq!(tr.self_ns(2), 50 - 10);
        assert_eq!(tr.children_ns(0), 80);
        assert_eq!(tr.total_s("replay"), 50e-9);
        assert!(tr.to_json("w", 1).contains("\"self_ns\": 40"));
    }
}
