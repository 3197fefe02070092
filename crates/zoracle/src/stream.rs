//! Deterministic access-stream generation and next-use annotation.

use std::collections::HashMap;
use zcache_core::partition::TENANT_SHIFT;
use zhash::SplitMix64;

/// One access of a differential trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Issuing tenant (always 0 in a plain check).
    pub tenant: usize,
    /// Line address (below [`TENANT_SHIFT`] bits in a partitioned check).
    pub addr: u64,
    /// Whether the access writes.
    pub write: bool,
}

impl Access {
    /// The address both caches store: the line tagged with its tenant,
    /// the namespace a partitioned cache keeps its tenants in (tenant 0
    /// leaves the line unchanged).
    pub fn key(&self) -> u64 {
        self.addr | ((self.tenant as u64) << TENANT_SHIFT)
    }

    /// The access as a repro-file line: `R|W <hex-addr>`, prefixed with
    /// `T<tenant> ` in a tenant-tagged trace.
    pub fn line(&self, tagged: bool) -> String {
        let op = if self.write { "W" } else { "R" };
        if tagged {
            format!("T{} {op} {:#x}", self.tenant, self.addr)
        } else {
            format!("{op} {:#x}", self.addr)
        }
    }
}

/// Generates a deterministic stream of `n` accesses sized to stress a
/// cache of `lines` frames.
///
/// The mixture is chosen to exercise every interesting path of the
/// arrays and policies:
///
/// * **hot set** (45%): `lines/4` addresses, producing hits and policy
///   rank churn;
/// * **warm region** (35%): uniform over `2·lines` addresses, keeping
///   the cache full so zcache walks reach their configured depth;
/// * **strided conflicts** (15%): a `rows`-strided burst that aliases
///   rows under bit-selection indexing;
/// * **cold misses** (5%): a fresh address every time, forcing
///   evictions and (for OPT) never-used-again ranks.
///
/// Roughly 30% of accesses are writes, so dirty-bit propagation through
/// relocations is continuously checked. The four regions live in
/// disjoint address ranges.
pub fn gen_stream(n: usize, lines: u64, seed: u64) -> Vec<Access> {
    let mut rng = SplitMix64::new(seed);
    let hot = (lines / 4).max(4);
    let warm = (lines * 2).max(8);
    let stride = (lines / 4).max(4).next_power_of_two();
    let mut cold = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let region = rng.next_below(100);
        let addr = if region < 45 {
            0x1000_0000 + rng.next_below(hot)
        } else if region < 80 {
            0x2000_0000 + rng.next_below(warm)
        } else if region < 95 {
            0x3000_0000 + stride * rng.next_below(64)
        } else {
            cold += 1;
            0x4000_0000 + cold
        };
        let write = rng.next_below(10) < 3;
        out.push(Access {
            tenant: 0,
            addr,
            write,
        });
    }
    out
}

/// Next-use positions for a trace: `next[i]` is the stream index of the
/// following access to the same tenant's `trace[i].addr`, or `u64::MAX`
/// if there is none. Computed with a single backward scan over a plain
/// `HashMap`, independently of zsim's `L2Trace::fill_next_uses` and its
/// map-based reference `next_uses_into` (the annotation feeds both sides
/// of the differential check).
pub fn next_uses(trace: &[Access]) -> Vec<u64> {
    let mut next = vec![u64::MAX; trace.len()];
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for (i, a) in trace.iter().enumerate().rev() {
        if let Some(&later) = seen.get(&a.key()) {
            next[i] = later;
        }
        seen.insert(a.key(), i as u64);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        assert_eq!(gen_stream(1000, 64, 9), gen_stream(1000, 64, 9));
        assert_ne!(gen_stream(1000, 64, 9), gen_stream(1000, 64, 10));
    }

    #[test]
    fn stream_mixes_reads_and_writes() {
        let s = gen_stream(10_000, 64, 1);
        let writes = s.iter().filter(|a| a.write).count();
        assert!((2_000..4_000).contains(&writes), "writes: {writes}");
    }

    #[test]
    fn next_uses_point_forward() {
        let t: Vec<Access> = [5u64, 6, 5, 7, 6, 5]
            .into_iter()
            .map(|addr| Access {
                tenant: 0,
                addr,
                write: false,
            })
            .collect();
        let n = next_uses(&t);
        assert_eq!(n, vec![2, 4, 5, u64::MAX, u64::MAX, u64::MAX]);
        // The same line of another tenant is another block.
        let mut t = t;
        t[2].tenant = 1;
        assert_eq!(next_uses(&t)[0], 5);
    }
}
