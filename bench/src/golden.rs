//! Golden output records and the checks against them.
//!
//! `golden/<workload>.txt` holds, per blessed seed, every output record
//! of one full-size run as `<seed> <record>` lines. A record is one line
//! of simulated output (stats of an array chunk, a report row, the serve
//! totals); perf and simplicity changes must leave every one unchanged.

use std::fmt::Write as _;
use std::path::PathBuf;

fn path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.txt"))
}

/// The golden records of `seed`, or `None` if that seed was never blessed.
pub fn load(workload: &str, seed: u64) -> Result<Option<Vec<String>>, String> {
    let p = path(workload);
    let text = match std::fs::read_to_string(&p) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", p.display())),
    };
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let parsed = line
            .split_once(' ')
            .and_then(|(s, rec)| s.parse::<u64>().ok().map(|s| (s, rec)));
        let Some((s, rec)) = parsed else {
            return Err(format!(
                "{}:{}: expected `<seed> <record>`",
                p.display(),
                i + 1
            ));
        };
        if s == seed {
            records.push(rec.to_string());
        }
    }
    Ok((!records.is_empty()).then_some(records))
}

/// Replaces the golden file of `workload` with `per_seed`.
pub fn write(workload: &str, per_seed: &[(u64, Vec<String>)]) -> std::io::Result<PathBuf> {
    let p = path(workload);
    let mut text = format!(
        "# Golden output records of the `{workload}` workload, one `<seed> <record>` per line.\n\
         # Regenerate with `cargo run --release --manifest-path bench/Cargo.toml -- \
         --workload {workload} --bless`.\n"
    );
    for (seed, records) in per_seed {
        for r in records {
            assert!(!r.contains('\n'), "record spans lines: {r:?}");
            writeln!(text, "{seed} {r}").expect("writing to a String cannot fail");
        }
    }
    std::fs::create_dir_all(p.parent().expect("golden dir"))?;
    std::fs::write(&p, text)?;
    Ok(p)
}

/// Tallies golden-checked records and client operations of one run.
#[derive(Debug, Default)]
pub struct Check {
    /// What every rep must reproduce: the golden records, or else the
    /// first rep's (so reps of an unblessed seed still check each other).
    expected: Option<Vec<String>>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Check {
    pub fn new(golden: Option<Vec<String>>) -> Self {
        Self {
            expected: golden,
            ..Self::default()
        }
    }

    /// Checks one rep's records against the expectation.
    pub fn records(&mut self, what: &str, got: &[String]) {
        match self.expected.take() {
            Some(want) => {
                self.compare(what, &want, got);
                self.expected = Some(want);
            }
            None => {
                self.attempted += got.len() as u64;
                self.expected = Some(got.to_vec());
            }
        }
    }

    /// Counts the records of `got` that differ from `want`.
    pub fn compare(&mut self, what: &str, want: &[String], got: &[String]) {
        self.attempted += want.len().max(got.len()) as u64;
        let differ = want.iter().zip(got).filter(|(w, g)| w != g).count();
        self.failed += (differ + want.len().abs_diff(got.len())) as u64;
        if let Some((i, (w, g))) = want.iter().zip(got).enumerate().find(|(_, (w, g))| w != g) {
            self.problems
                .push(format!("{what}: record {i} is `{g}`, expected `{w}`"));
        }
        if want.len() != got.len() {
            self.problems.push(format!(
                "{what}: {} records, expected {}",
                got.len(),
                want.len()
            ));
        }
    }

    /// Counts client operations and how many of them failed.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{what}: {failed} of {attempted} client ops failed"));
        }
    }

    pub fn problem(&mut self, p: String) {
        self.problems.push(p);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reps_check_each_other_without_a_golden() {
        let mut c = Check::new(None);
        c.records("rep 1", &recs(&["a", "b"]));
        c.records("rep 2", &recs(&["a", "b"]));
        assert!(c.correct());
        assert_eq!((c.attempted, c.failed), (4, 0));
        c.records("rep 3", &recs(&["a", "x", "extra"]));
        assert_eq!((c.attempted, c.failed), (7, 2));
        assert!(!c.correct());
    }

    #[test]
    fn golden_mismatch_counts_each_record() {
        let mut c = Check::new(Some(recs(&["a", "b", "c"])));
        c.records("rep 1", &recs(&["a", "B", "C"]));
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert_eq!(c.problems.len(), 1, "{:?}", c.problems);
        c.ops("serve", 10, 0);
        assert_eq!((c.attempted, c.failed), (13, 2));
    }
}
