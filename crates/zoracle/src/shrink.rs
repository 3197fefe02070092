//! Delta-debugging trace minimization.
//!
//! Given a trace on which [`run_diff`] reports a divergence, shrinking
//! proceeds in three deterministic stages:
//!
//! 1. **Truncate** to the failing prefix — a divergence at access `i`
//!    depends only on accesses `0..=i` (the runner always digests the
//!    final state, so digest divergences survive truncation too).
//! 2. **ddmin** (Zeller & Hildebrandt) over the remaining accesses:
//!    repeatedly try keeping single chunks or removing single chunks at
//!    doubling granularity, keeping any subset that still diverges.
//! 3. **Greedy 1-minimization**: try deleting each remaining access one
//!    at a time until a fixpoint, so the result is 1-minimal (removing
//!    any single access makes the divergence disappear).
//!
//! The predicate is "any divergence", not "the same divergence" —
//! a shrink that morphs an install mismatch into a hit/miss mismatch is
//! still the same underlying bug, caught earlier.

use crate::diff::run_diff;
use crate::stream::Access;
use crate::CheckConfig;

/// Caps the greedy 1-minimization stage: beyond this length the
/// quadratic pass costs more than the extra minimality is worth.
const GREEDY_CAP: usize = 2048;

/// Shrinks `trace` to a smaller trace that still makes `run_diff`
/// diverge under `cfg` (a mutation the config carries included).
/// Returns the input unchanged if it does not diverge in the first
/// place.
pub fn shrink(cfg: &CheckConfig, trace: &[Access], digest_every: u64) -> Vec<Access> {
    let fails = |t: &[Access]| run_diff(cfg, t, digest_every).is_err();

    let Err(d) = run_diff(cfg, trace, digest_every) else {
        return trace.to_vec();
    };
    let cur = &trace[..=d.index];
    debug_assert!(fails(cur), "truncation must preserve the divergence");

    greedy_min(ddmin(cur, &fails), &fails)
}

/// The greedy 1-minimization stage: try deleting each remaining access
/// one at a time until a fixpoint. Inputs longer than [`GREEDY_CAP`] are
/// returned as-is.
fn greedy_min(mut cur: Vec<Access>, fails: &dyn Fn(&[Access]) -> bool) -> Vec<Access> {
    if cur.len() > GREEDY_CAP {
        return cur;
    }
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < cur.len() {
            let mut t = cur.clone();
            t.remove(i);
            if !t.is_empty() && fails(&t) {
                cur = t;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    cur
}

/// Classic ddmin: partition into `n` chunks, try each chunk alone and
/// each chunk's complement, recurse on success with adjusted
/// granularity, double `n` otherwise.
fn ddmin(trace: &[Access], fails: &dyn Fn(&[Access]) -> bool) -> Vec<Access> {
    let mut cur = trace.to_vec();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;

        // Try each chunk alone (reduce to subset).
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let subset = cur[start..end].to_vec();
            if fails(&subset) {
                cur = subset;
                n = 2;
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }

        // Try removing each chunk (reduce to complement).
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut rest = cur[..start].to_vec();
            rest.extend_from_slice(&cur[end..]);
            if !rest.is_empty() && fails(&rest) {
                cur = rest;
                n = (n - 1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }

        if n >= cur.len() {
            break;
        }
        n = (n * 2).min(cur.len());
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckDesign, CheckPolicy, PartMix};

    /// ddmin against a synthetic predicate: "contains both 3 and 7".
    #[test]
    fn ddmin_finds_minimal_pair() {
        let trace: Vec<Access> = (0..100u64)
            .map(|addr| Access {
                tenant: 0,
                addr,
                write: false,
            })
            .collect();
        let fails = |t: &[Access]| t.iter().any(|a| a.addr == 3) && t.iter().any(|a| a.addr == 7);
        let min = ddmin(&trace, &fails);
        assert!(fails(&min));
        assert!(min.len() <= 4, "ddmin left {} accesses", min.len());
    }

    #[test]
    fn shrink_returns_input_when_clean() {
        let plain = CheckConfig::new(CheckDesign::Z2, CheckPolicy::Lru, 64, 4, 3);
        let trace = crate::stream::gen_stream(500, 64, 3);
        assert_eq!(shrink(&plain, &trace, 64), trace);
        let part = PartMix::Twins.config(CheckPolicy::Lru, 64, 4, 3);
        let trace = PartMix::Twins.gen_stream(500, 64, 1);
        assert_eq!(shrink(&part, &trace, 64), trace);
    }

    #[test]
    fn shrinks_a_caught_mutant() {
        let mut cfg = PartMix::Twins.config(CheckPolicy::Lru, 64, 4, 3);
        cfg.quota_bypass = true;
        let trace = PartMix::Twins.gen_stream(8_000, 64, 29);
        let shrunk = shrink(&cfg, &trace, 64);
        assert!(
            shrunk.len() < trace.len(),
            "shrinking must make progress ({} accesses)",
            shrunk.len()
        );
        assert!(run_diff(&cfg, &shrunk, 64).is_err());
    }
}
