//! Conflict-miss decomposition (§IV's classical associativity metric).
//!
//! The paper opens its framework discussion with the traditional proxy:
//! *conflict misses* = a design's misses minus the misses of a
//! fully-associative cache of the same size (Hill & Smith). This
//! experiment computes that decomposition for the design lineup and
//! shows the zcache's conflict misses shrinking toward zero as its
//! candidate count grows — while also illustrating the §IV critique of
//! the metric (under LRU it can go *negative* on anti-LRU patterns).

use crate::opts::ExpOpts;
use crate::pipeline::sweep;
use crate::{format_table, lineup};
use zcache_core::{ArrayKind, LruStack, VictimCache};
use zhash::HashKind;
use zsim::trace::record_trace;
use zworkloads::suite::paper_suite_scaled;

/// Victim-buffer entries of the `SA-4+VC` comparison row (Jouppi-style,
/// §II-B: a small fully-associative buffer beside the main cache).
pub const VICTIM_BUFFER_LINES: u64 = 64;

/// Conflict decomposition for one workload × design.
#[derive(Debug, Clone)]
pub struct ConflictRow {
    /// Workload name.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// Total misses of the design.
    pub misses: u64,
    /// Misses of the same-size fully-associative LRU cache
    /// (capacity+cold), counted by [`LruStack`].
    pub fully_misses: u64,
    /// Conflict misses (may be negative under LRU).
    pub conflict: i64,
    /// Conflict misses as a fraction of the design's misses.
    pub conflict_frac: f64,
}

/// Runs the decomposition over a few associativity-sensitive workloads:
/// one [`sweep`] point each, seeded by its index in the full suite.
/// Each point records a fresh trace and leaves the worker's scratch
/// unused: the scratch would keep the Zipf tables of earlier points
/// alive beside the fully-associative reference.
pub fn run(opts: &ExpOpts) -> Vec<ConflictRow> {
    // Array scaled to traced cores, as in the ablations (~3× pressure).
    let lines = (opts.scale.l2_lines * u64::from(opts.cores) / 32).max(1024);
    let suite = paper_suite_scaled(opts.cores as usize, opts.scale);
    let keep = ["cactusADM", "omnetpp", "gcc", "wupwise"];
    let points = (0..suite.len()).filter(|&i| keep.contains(&suite[i].name()));

    let per_workload = sweep(opts, &suite, points, |wl, cfg, _| {
        let seed = cfg.seed;
        let trace = record_trace(&cfg, wl);

        // The stack property makes the fully-associative LRU reference
        // exact without simulating a fully-associative array.
        let fully = LruStack::misses(lines, trace.refs.iter().map(|r| r.line));
        let row = |label: String, misses: u64| {
            let conflict = misses as i64 - fully as i64;
            ConflictRow {
                workload: wl.name().to_string(),
                design: label,
                misses,
                fully_misses: fully,
                conflict,
                conflict_frac: if misses > 0 {
                    conflict as f64 / misses as f64
                } else {
                    0.0
                },
            }
        };
        // One cache at a time, each driven over the whole stream.
        let mut rows: Vec<ConflictRow> = lineup::fig_lineup(lines, seed)
            .into_iter()
            .map(|(label, builder)| {
                let misses = lineup::drive(&builder, trace.accesses()).stats().misses;
                row(label, misses)
            })
            .collect();
        // The §II-B alternative to associativity: the same SA-4 main
        // cache fronted by a small fully-associative victim buffer. Its
        // "misses" are the system misses (main misses the buffer could
        // not recover), so the row is directly comparable.
        let bitsel = ArrayKind::SetAssoc {
            hash: HashKind::BitSelect,
        };
        let main = lineup::builder(bitsel, 4, lines, seed).build();
        let mut vc = VictimCache::new(main, VICTIM_BUFFER_LINES);
        for r in &trace.refs {
            vc.access(r.line);
        }
        rows.push(row("SA-4+VC".to_string(), vc.system_misses()));
        rows
    });
    per_workload.into_iter().flatten().collect()
}

/// Renders the decomposition.
pub fn report(rows: &[ConflictRow]) -> String {
    let mut out = String::from(
        "Conflict-miss decomposition (design misses − fully-associative misses, LRU)\n\n",
    );
    let headers = [
        "workload",
        "design",
        "misses",
        "fully",
        "conflict",
        "conflict%",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.design.clone(),
                r.misses.to_string(),
                r.fully_misses.to_string(),
                r.conflict.to_string(),
                format!("{:.1}%", r.conflict_frac * 100.0),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    out.push_str(
        "\n(conflict misses shrink with replacement candidates; negative values on\n\
         anti-LRU workloads illustrate the §IV critique of this metric)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ConflictRow> {
        let opts = ExpOpts {
            cores: 8,
            instrs_per_core: 40_000,
            ..ExpOpts::smoke()
        };
        run(&opts)
    }

    #[test]
    fn more_candidates_fewer_conflicts_within_each_family() {
        // The robust §IV claim: within a design family, conflict misses
        // shrink (or hold) as the replacement-candidate count grows.
        let r = rows();
        let total = |design: &str| -> i64 {
            r.iter()
                .filter(|x| x.design == design)
                .map(|x| x.conflict)
                .sum()
        };
        let z4 = total("Z4/4");
        let z16 = total("Z4/16");
        let z52 = total("Z4/52");
        assert!(z16 <= z4 + z4.abs() / 20, "Z4/16 {z16} vs Z4/4 {z4}");
        assert!(z52 <= z16 + z16.abs() / 20, "Z4/52 {z52} vs Z4/16 {z16}");
        let sa4 = total("SA-4");
        let sa32 = total("SA-32");
        assert!(sa32 <= sa4, "SA-32 {sa32} vs SA-4 {sa4}");
    }

    #[test]
    fn fully_assoc_reference_is_shared_per_workload() {
        let r = rows();
        for w in ["cactusADM", "gcc"] {
            let refs: Vec<u64> = r
                .iter()
                .filter(|x| x.workload == w)
                .map(|x| x.fully_misses)
                .collect();
            assert!(!refs.is_empty());
            assert!(refs.windows(2).all(|p| p[0] == p[1]));
        }
    }

    #[test]
    fn report_renders() {
        let rep = report(&rows());
        assert!(rep.contains("Conflict-miss decomposition"));
        assert!(rep.contains("Z4/52"));
        assert!(rep.contains("SA-4+VC"));
    }

    #[test]
    fn victim_cache_row_is_present_and_sane() {
        // §II-B comparison row: every workload gets exactly one
        // SA-4+VC entry whose misses share the workload's
        // fully-associative reference (same decomposition baseline).
        let r = rows();
        for w in ["cactusADM", "omnetpp", "gcc", "wupwise"] {
            let vc: Vec<_> = r
                .iter()
                .filter(|x| x.workload == w && x.design == "SA-4+VC")
                .collect();
            assert_eq!(vc.len(), 1, "one VC row per workload ({w})");
            let any = r
                .iter()
                .find(|x| x.workload == w && x.design == "SA-4")
                .unwrap();
            assert_eq!(vc[0].fully_misses, any.fully_misses);
            assert!(vc[0].misses > 0, "VC system misses must be counted ({w})");
        }
    }
}
