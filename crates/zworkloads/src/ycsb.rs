//! YCSB-style key-object workload specifications.
//!
//! The cache-service tier (`zserve`) is driven by operation mixes in the
//! style of the Yahoo! Cloud Serving Benchmark: a [`YcsbSpec`] names the
//! read/update/insert proportions and the request distribution over the
//! key space, and a [`YcsbGen`] turns a spec plus a seed into an
//! infinite deterministic stream of [`YcsbOp`]s.
//!
//! Distributions are layered on the crate's alias-method
//! [`ZipfTable`]:
//!
//! * [`RequestDist::Uniform`] — every record equally likely;
//! * [`RequestDist::Zipfian`] — rank 0 hottest, classic hot-key skew;
//! * [`RequestDist::Latest`] — Zipf over *recency*: the most recently
//!   inserted records are hottest (the "status updates" pattern).
//!
//! The standard lettered workloads are available as presets
//! ([`YcsbSpec::workload_a`] … [`YcsbSpec::workload_d`]), and the
//! builder lets experiments dial arbitrary mixes.
//!
//! # Examples
//!
//! ```
//! use zworkloads::ycsb::{OpKind, YcsbGen, YcsbSpec};
//!
//! let spec = YcsbSpec::workload_a().records(10_000);
//! let mut gen = YcsbGen::new(spec, 42);
//! let op = gen.next_op();
//! assert!(op.key < 10_000 || matches!(op.kind, OpKind::Insert));
//! ```

use crate::zipf::ZipfTable;
use zhash::SplitMix64;

/// Request-key distribution of a YCSB workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestDist {
    /// Every record equally likely.
    Uniform,
    /// Zipf(`s`) over record ranks; rank 0 is hottest.
    Zipfian(f64),
    /// Zipf(1.0) over recency: the newest records are hottest.
    Latest,
}

impl RequestDist {
    /// Short label used in reports (`uniform`, `zipf(s)`, `latest`).
    pub fn label(&self) -> String {
        match self {
            RequestDist::Uniform => "uniform".to_string(),
            RequestDist::Zipfian(s) => format!("zipf({s})"),
            RequestDist::Latest => "latest".to_string(),
        }
    }
}

/// One operation kind of the read/update/insert mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read one record.
    Read,
    /// Overwrite one existing record.
    Update,
    /// Append a new record (grows the key space).
    Insert,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YcsbOp {
    /// Record key (dense `0..records`, inserts extend the range).
    pub key: u64,
    /// Operation kind.
    pub kind: OpKind,
}

impl YcsbOp {
    /// Whether the operation writes (update or insert).
    pub fn is_write(&self) -> bool {
        !matches!(self.kind, OpKind::Read)
    }
}

/// A YCSB-style workload specification (builder pattern).
///
/// Proportions must be non-negative and sum to something positive; they
/// are normalized at generator-construction time, so `read(95.0)` +
/// `update(5.0)` works as naturally as `0.95`/`0.05`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YcsbSpec {
    /// Read proportion (normalized against the other two).
    pub read_proportion: f64,
    /// Update proportion.
    pub update_proportion: f64,
    /// Insert proportion.
    pub insert_proportion: f64,
    /// Request-key distribution.
    pub request_dist: RequestDist,
    /// Records pre-loaded before the run phase.
    pub record_count: u64,
}

impl YcsbSpec {
    /// A new spec: 100% reads, Zipfian(0.99), 10k records.
    pub fn new() -> Self {
        Self {
            read_proportion: 1.0,
            update_proportion: 0.0,
            insert_proportion: 0.0,
            request_dist: RequestDist::Zipfian(0.99),
            record_count: 10_000,
        }
    }

    /// Workload A — update heavy: 50% reads, 50% updates, Zipfian.
    pub fn workload_a() -> Self {
        Self::new().read(0.5).update(0.5)
    }

    /// Workload B — read mostly: 95% reads, 5% updates, Zipfian.
    pub fn workload_b() -> Self {
        Self::new().read(0.95).update(0.05)
    }

    /// Workload C — read only: 100% reads, Zipfian.
    pub fn workload_c() -> Self {
        Self::new()
    }

    /// Workload D — read latest: 95% reads, 5% inserts, Latest.
    pub fn workload_d() -> Self {
        Self::new()
            .read(0.95)
            .insert(0.05)
            .dist(RequestDist::Latest)
    }

    /// Sets the read proportion.
    pub fn read(mut self, p: f64) -> Self {
        self.read_proportion = p;
        self
    }

    /// Sets the update proportion.
    pub fn update(mut self, p: f64) -> Self {
        self.update_proportion = p;
        self
    }

    /// Sets the insert proportion.
    pub fn insert(mut self, p: f64) -> Self {
        self.insert_proportion = p;
        self
    }

    /// Sets the request distribution.
    pub fn dist(mut self, d: RequestDist) -> Self {
        self.request_dist = d;
        self
    }

    /// Sets the pre-loaded record count.
    pub fn records(mut self, n: u64) -> Self {
        self.record_count = n;
        self
    }

    /// Validates the spec (called by [`YcsbGen::new`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint:
    /// negative/non-finite proportions, zero total proportion, zero
    /// records, or a negative/non-finite Zipf exponent.
    pub fn validate(&self) -> Result<(), String> {
        let props = [
            ("read", self.read_proportion),
            ("update", self.update_proportion),
            ("insert", self.insert_proportion),
        ];
        for (name, p) in props {
            if !p.is_finite() || p < 0.0 {
                return Err(format!(
                    "{name} proportion must be finite and >= 0, got {p}"
                ));
            }
        }
        if self.read_proportion + self.update_proportion + self.insert_proportion <= 0.0 {
            return Err("proportions must have positive total mass".to_string());
        }
        if self.record_count == 0 {
            return Err("record count must be positive".to_string());
        }
        if self.record_count > u64::from(u32::MAX) {
            return Err("record count must fit in u32 (alias-table limit)".to_string());
        }
        if let RequestDist::Zipfian(s) = self.request_dist {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("zipf exponent must be finite and >= 0, got {s}"));
            }
        }
        Ok(())
    }
}

impl Default for YcsbSpec {
    fn default() -> Self {
        Self::new()
    }
}

/// Deterministic operation generator for a [`YcsbSpec`].
///
/// The stream is a pure function of `(spec, seed)`. Inserts extend the
/// key space densely (`record_count`, `record_count + 1`, …); Zipfian
/// and Uniform draws stay over the pre-loaded records (the standard
/// YCSB behavior for its alias tables), while Latest follows the
/// growing frontier.
#[derive(Debug, Clone)]
pub struct YcsbGen {
    spec: YcsbSpec,
    rng: SplitMix64,
    zipf: Option<ZipfTable>,
    /// Total records that exist (pre-loaded + inserted so far).
    records: u64,
    read_cut: f64,
    update_cut: f64,
}

impl YcsbGen {
    /// Builds a generator, panicking on an invalid spec (use
    /// [`YcsbSpec::validate`] first for a `Result`).
    ///
    /// # Panics
    ///
    /// Panics if `spec.validate()` fails.
    pub fn new(spec: YcsbSpec, seed: u64) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid YCSB spec: {e}");
        }
        let total = spec.read_proportion + spec.update_proportion + spec.insert_proportion;
        let zipf = match spec.request_dist {
            RequestDist::Uniform => None,
            RequestDist::Zipfian(s) => Some(ZipfTable::new(spec.record_count, s)),
            RequestDist::Latest => Some(ZipfTable::new(spec.record_count, 1.0)),
        };
        Self {
            spec,
            rng: SplitMix64::new(seed),
            zipf,
            records: spec.record_count,
            read_cut: spec.read_proportion / total,
            update_cut: (spec.read_proportion + spec.update_proportion) / total,
        }
    }

    /// The spec this generator runs.
    pub fn spec(&self) -> &YcsbSpec {
        &self.spec
    }

    /// Records that exist so far (pre-loaded plus inserted).
    pub fn records(&self) -> u64 {
        self.records
    }

    fn sample_key(&mut self) -> u64 {
        match self.spec.request_dist {
            RequestDist::Uniform => self.rng.next_below(self.records),
            RequestDist::Zipfian(_) => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("zipf table")
                    .sample(&mut self.rng);
                // The table covers the pre-loaded records; inserted keys
                // are only reachable through Latest.
                rank.min(self.records - 1)
            }
            RequestDist::Latest => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("zipf table")
                    .sample(&mut self.rng);
                // Rank 0 = newest record; clamp for tiny key spaces.
                self.records - 1 - rank.min(self.records - 1)
            }
        }
    }

    /// Produces the next operation.
    pub fn next_op(&mut self) -> YcsbOp {
        let roll = self.rng.next_f64();
        if roll < self.read_cut {
            YcsbOp {
                key: self.sample_key(),
                kind: OpKind::Read,
            }
        } else if roll < self.update_cut {
            YcsbOp {
                key: self.sample_key(),
                kind: OpKind::Update,
            }
        } else {
            let key = self.records;
            self.records += 1;
            YcsbOp {
                key,
                kind: OpKind::Insert,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportions_are_respected() {
        let spec = YcsbSpec::new().read(0.5).update(0.3).insert(0.2);
        let mut gen = YcsbGen::new(spec, 1);
        let mut counts = [0u32; 3];
        let trials = 100_000;
        for _ in 0..trials {
            match gen.next_op().kind {
                OpKind::Read => counts[0] += 1,
                OpKind::Update => counts[1] += 1,
                OpKind::Insert => counts[2] += 1,
            }
        }
        let frac = |c: u32| f64::from(c) / f64::from(trials);
        assert!(
            (frac(counts[0]) - 0.5).abs() < 0.01,
            "reads {}",
            frac(counts[0])
        );
        assert!(
            (frac(counts[1]) - 0.3).abs() < 0.01,
            "updates {}",
            frac(counts[1])
        );
        assert!(
            (frac(counts[2]) - 0.2).abs() < 0.01,
            "inserts {}",
            frac(counts[2])
        );
    }

    #[test]
    fn unnormalized_proportions_work() {
        let spec = YcsbSpec::new().read(95.0).update(5.0);
        let mut gen = YcsbGen::new(spec, 2);
        let reads = (0..10_000)
            .filter(|_| gen.next_op().kind == OpKind::Read)
            .count();
        assert!((0.93..0.97).contains(&(reads as f64 / 10_000.0)), "{reads}");
    }

    #[test]
    fn zipfian_is_hot_at_low_keys() {
        let mut gen = YcsbGen::new(YcsbSpec::new().records(1000), 3);
        let mut top10 = 0u32;
        for _ in 0..50_000 {
            if gen.next_op().key < 10 {
                top10 += 1;
            }
        }
        // Zipf(0.99) over 1000: top-10 mass well above uniform's 1%.
        assert!(top10 > 10_000, "top-10 mass {top10}");
    }

    #[test]
    fn latest_follows_inserts() {
        let spec = YcsbSpec::workload_d().records(1000);
        let mut gen = YcsbGen::new(spec, 4);
        let mut newest_hits = 0u32;
        let mut total_reads = 0u32;
        for _ in 0..50_000 {
            let frontier = gen.records();
            let op = gen.next_op();
            if op.kind == OpKind::Read {
                total_reads += 1;
                // "Recent" = the newest 10% of currently-live records.
                if op.key + frontier / 10 >= frontier {
                    newest_hits += 1;
                }
            }
        }
        let frac = f64::from(newest_hits) / f64::from(total_reads);
        assert!(frac > 0.4, "latest mass on newest decile: {frac}");
    }

    #[test]
    fn inserts_extend_key_space_densely() {
        let spec = YcsbSpec::new().read(0.0).insert(1.0).records(10);
        let mut gen = YcsbGen::new(spec, 5);
        for i in 0..100u64 {
            let op = gen.next_op();
            assert_eq!(op.kind, OpKind::Insert);
            assert_eq!(op.key, 10 + i);
        }
        assert_eq!(gen.records(), 110);
    }

    #[test]
    fn stream_is_seed_deterministic() {
        let spec = YcsbSpec::workload_a().records(500);
        let mut a = YcsbGen::new(spec, 9);
        let mut b = YcsbGen::new(spec, 9);
        let mut c = YcsbGen::new(spec, 10);
        let ops_a: Vec<YcsbOp> = (0..1000).map(|_| a.next_op()).collect();
        let ops_b: Vec<YcsbOp> = (0..1000).map(|_| b.next_op()).collect();
        let ops_c: Vec<YcsbOp> = (0..1000).map(|_| c.next_op()).collect();
        assert_eq!(ops_a, ops_b);
        assert_ne!(ops_a, ops_c, "different seeds must differ");
    }

    #[test]
    fn presets_validate() {
        for spec in [
            YcsbSpec::workload_a(),
            YcsbSpec::workload_b(),
            YcsbSpec::workload_c(),
            YcsbSpec::workload_d(),
        ] {
            assert!(spec.validate().is_ok(), "{spec:?}");
        }
        assert_eq!(RequestDist::Latest.label(), "latest");
        assert_eq!(RequestDist::Uniform.label(), "uniform");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(YcsbSpec::new().read(-1.0).validate().is_err());
        assert!(YcsbSpec::new().read(f64::NAN).validate().is_err());
        assert!(YcsbSpec::new().read(0.0).validate().is_err());
        assert!(YcsbSpec::new().records(0).validate().is_err());
        assert!(YcsbSpec::new()
            .dist(RequestDist::Zipfian(-0.5))
            .validate()
            .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid YCSB spec")]
    fn generator_panics_on_invalid_spec() {
        YcsbGen::new(YcsbSpec::new().records(0), 1);
    }
}
