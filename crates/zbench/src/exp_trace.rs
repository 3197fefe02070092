//! Run a user-supplied trace file through the design lineup.
//!
//! The trace format is `zworkloads::trace_io`'s plain text (one `R/W
//! <hex-line-addr> [gap]` per line), so traces captured from real
//! systems can be compared against the paper's designs directly.

use crate::{format_table, lineup};
use std::io;
use zworkloads::MemRef;

/// Per-design result on a trace.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Design label.
    pub design: String,
    /// Miss rate over the trace.
    pub miss_rate: f64,
    /// Mean candidates per miss.
    pub avg_candidates: f64,
    /// Relocations per miss (zcaches only).
    pub avg_relocations: f64,
}

/// Drives every lineup design, as a single cache of `lines` frames,
/// with the trace: each reference reaches every design in lockstep as it
/// is parsed, so a multi-gigabyte trace runs in memory bounded by the
/// caches, not the trace. Returns the rows and the number of references
/// consumed.
///
/// # Errors
///
/// Propagates the first reader error (I/O or malformed line) and stops;
/// references before the error have already been applied.
pub fn run_streaming<I>(refs: I, lines: u64, seed: u64) -> io::Result<(Vec<TraceRow>, usize)>
where
    I: IntoIterator<Item = io::Result<MemRef>>,
{
    let mut caches: Vec<(String, zcache_core::DynCache)> = lineup::fig_lineup(lines, seed)
        .into_iter()
        .map(|(label, builder)| (label, builder.build()))
        .collect();
    let mut n = 0usize;
    for r in refs {
        let r = r?;
        n += 1;
        for (_, cache) in &mut caches {
            lineup::feed(cache, [(r.line, r.write)]);
        }
    }
    let rows = caches
        .iter()
        .map(|(label, cache)| {
            let s = cache.stats();
            TraceRow {
                design: label.clone(),
                miss_rate: s.miss_rate(),
                avg_candidates: s.avg_candidates(),
                avg_relocations: s.avg_relocations(),
            }
        })
        .collect();
    Ok((rows, n))
}

/// Renders the trace comparison.
pub fn report(rows: &[TraceRow], trace_len: usize, lines: u64) -> String {
    let mut out = format!("Trace comparison — {trace_len} references, {lines}-line cache, LRU\n\n");
    let headers = ["design", "miss rate", "avg R", "avg relocs"];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.design.clone(),
                format!("{:.4}", r.miss_rate),
                format!("{:.1}", r.avg_candidates),
                format!("{:.2}", r.avg_relocations),
            ]
        })
        .collect();
    out.push_str(&format_table(&headers, &body));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use zworkloads::trace_io::read_trace;

    fn synthetic_trace() -> Vec<MemRef> {
        // Strided conflicts plus a reused hot set.
        let mut text = String::new();
        for round in 0..40 {
            for k in 0..40u64 {
                text.push_str(&format!("R {:x}\n", k * 0x100));
                if round % 2 == 0 {
                    text.push_str(&format!("W {:x}\n", k % 8));
                }
            }
        }
        read_trace(text.as_bytes()).unwrap()
    }

    #[test]
    fn lineup_runs_on_parsed_trace() {
        let refs = synthetic_trace();
        let (rows, _) = run_streaming(refs.iter().map(|&r| Ok(r)), 64, 1).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.miss_rate > 0.0 && r.miss_rate <= 1.0, "{}", r.design);
        }
        // Z4/52 must not be worse than the SA-4 baseline on this
        // conflict-heavy trace.
        let sa4 = rows.iter().find(|r| r.design == "SA-4").unwrap();
        let z52 = rows.iter().find(|r| r.design == "Z4/52").unwrap();
        assert!(z52.miss_rate <= sa4.miss_rate * 1.02);
    }

    #[test]
    fn report_renders() {
        let refs = synthetic_trace();
        let (rows, _) = run_streaming(refs.iter().map(|&r| Ok(r)), 64, 1).unwrap();
        let rep = report(&rows, refs.len(), 64);
        assert!(rep.contains("Trace comparison"));
        assert!(rep.contains("Z4/16"));
    }
}
