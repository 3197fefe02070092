//! Serialization of shrunk divergence repros.
//!
//! A repro file is a self-contained record of one failed conformance
//! check: a `#`-commented header carrying the configuration, followed by
//! one access per line in the `R|W <hex-addr>` format `zworkloads`
//! trace files use (so the body can be inspected or replayed with the
//! existing trace tooling). As there, the address is hex with or
//! without one `0x`:
//!
//! ```text
//! # zoracle repro: install differs (...)
//! # design: z3
//! # policy: lru
//! # lines: 64
//! # ways: 4
//! # seed: 42
//! W 0x1000002a
//! R 0x30000400
//! ```
//!
//! A partitioned check is the same format with the tenants added: an
//! `# enforce:` header, one `# tenant: <quota> <walk-budget>` header per
//! tenant, `# mutation: quota-bypass` when the production side carries
//! that mutation, and a `T<tenant>` prefix on every access:
//!
//! ```text
//! # zoracle repro: access #102 (T2 R 0x3000c1): install differs (...)
//! # design: z3
//! # policy: lru
//! # lines: 64
//! # ways: 4
//! # seed: 10451216379200822465
//! # enforce: true
//! # tenant: 40 52
//! # tenant: 16 4
//! # mutation: quota-bypass
//! T0 W 0x100029
//! T1 R 0x3000d1
//! ```
//!
//! Files live in `tests/corpus/` (`.trace` for plain checks, `.ptrace`
//! for partitioned ones) and are replayed by the `oracle_conformance`
//! regression test on every run, so a bug caught once stays caught —
//! and a mutant repro keeps being caught.
//!
//! [`read_repro`] checks a file against what its replay relies on — a
//! geometry the arrays accept and of at most [`MAX_REPRO_LINES`] frames,
//! tenants only on zcache designs and at most [`MAX_TENANTS`] of them, tenant indices that were declared,
//! addresses below the tenant tag, integers that fit their fields — and
//! names the offending line of a file that fails.

use crate::diff::{run_diff, DiffSummary, Divergence};
use crate::stream::Access;
use crate::{CheckConfig, CheckDesign, CheckPolicy};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use zcache_core::partition::{MAX_TENANTS, TENANT_SHIFT};
use zcache_core::{ArrayKind, TenantGrant};

/// The largest `# lines:` a repro may declare: 16 Mi frames (a 1 GiB
/// cache of 64-byte lines). Both sides of a replay allocate every frame
/// up front, so a larger header is refused rather than replayed.
pub const MAX_REPRO_LINES: u64 = 1 << 24;

/// A deserialized repro: configuration plus the shrunk trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The failing check configuration (with any mutation it needs).
    pub cfg: CheckConfig,
    /// The shrunk access trace.
    pub trace: Vec<Access>,
    /// Human-readable description of the original divergence.
    pub note: String,
}

impl Repro {
    /// Replays the repro; a still-live bug (or a still-caught mutant)
    /// returns the divergence.
    #[allow(clippy::result_large_err)]
    pub fn replay(&self, digest_every: u64) -> Result<DiffSummary, Divergence> {
        run_diff(&self.cfg, &self.trace, digest_every)
    }
}

/// Serializes a repro to `path`.
pub fn write_repro(path: &Path, cfg: &CheckConfig, trace: &[Access], note: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# zoracle repro: {}", note.replace('\n', " "))?;
    writeln!(f, "# design: {}", cfg.design)?;
    writeln!(f, "# policy: {}", cfg.policy)?;
    writeln!(f, "# lines: {}", cfg.lines)?;
    writeln!(f, "# ways: {}", cfg.ways)?;
    writeln!(f, "# seed: {}", cfg.seed)?;
    let tagged = cfg.has_tenants();
    if tagged {
        writeln!(f, "# enforce: {}", cfg.enforce_quota)?;
        for g in &cfg.tenants {
            writeln!(f, "# tenant: {} {}", g.quota, g.walk_budget)?;
        }
        if cfg.quota_bypass {
            writeln!(f, "# mutation: quota-bypass")?;
        }
    }
    for a in trace {
        writeln!(f, "{}", a.line(tagged))?;
    }
    f.flush()
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// An error at 1-based line `n`.
fn bad(n: usize, msg: String) -> io::Error {
    invalid(format!("line {n}: {msg}"))
}

/// The `digits` of field `s` in `radix`, unsigned: `from_str_radix`
/// alone would also take a leading `+`.
fn parse_digits(s: &str, digits: &str, radix: u32, n: usize) -> io::Result<u64> {
    if digits.starts_with('+') {
        return Err(bad(n, format!("bad number {s:?}: sign not allowed")));
    }
    u64::from_str_radix(digits, radix).map_err(|e| bad(n, format!("bad number {s:?}: {e}")))
}

fn parse_u64(s: &str, n: usize) -> io::Result<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => parse_digits(s, hex, 16, n),
        None => parse_digits(s, s, 10, n),
    }
}

/// An access address: hex with at most one `0x`, as `zworkloads`'
/// trace reader takes it (`R 100` is 0x100), and never all ones, the
/// caches' empty-frame marker.
fn parse_addr(s: &str, n: usize) -> io::Result<u64> {
    match parse_digits(s, s.strip_prefix("0x").unwrap_or(s), 16, n)? {
        u64::MAX => Err(bad(n, format!("reserved address {s:?}"))),
        addr => Ok(addr),
    }
}

fn parse_u32(s: &str, n: usize) -> io::Result<u32> {
    u32::try_from(parse_u64(s, n)?).map_err(|e| bad(n, format!("bad number {s:?}: {e}")))
}

/// A header value and the line it came from.
type At<T> = Option<(T, usize)>;

/// Takes a required header's value.
fn required<T>(h: At<T>, name: &str) -> io::Result<(T, usize)> {
    h.ok_or_else(|| invalid(format!("missing '# {name}:' header")))
}

/// Parses a repro file written by [`write_repro`].
///
/// Headers are read first, wherever they sit, so every access line is
/// checked against the complete configuration.
pub fn read_repro(path: &Path) -> io::Result<Repro> {
    let text = std::fs::read_to_string(path)?;
    let numbered = || {
        text.lines()
            .zip(1..)
            .map(|(l, n)| (n, l.trim()))
            .filter(|(_, l)| !l.is_empty())
    };

    let mut note = String::new();
    let (mut design, mut policy, mut lines, mut ways, mut seed) = (None, None, None, None, None);
    let mut enforce: At<bool> = None;
    let mut tenants = Vec::new();
    // Lines of the first `# tenant:` and of the `# mutation:` header.
    let (mut tenants_at, mut bypass_at) = (None, None);
    for (n, line) in numbered() {
        let Some((key, v)) = line.strip_prefix('#').and_then(|h| h.split_once(':')) else {
            continue;
        };
        let v = v.trim();
        match key.trim() {
            "zoracle repro" => note = v.to_string(),
            "design" => {
                let d = CheckDesign::from_name(v);
                design = Some((d.ok_or_else(|| bad(n, format!("unknown design {v:?}")))?, n));
            }
            "policy" => {
                let p = CheckPolicy::from_name(v);
                policy = Some((p.ok_or_else(|| bad(n, format!("unknown policy {v:?}")))?, n));
            }
            "lines" => lines = Some((parse_u64(v, n)?, n)),
            "ways" => ways = Some((parse_u32(v, n)?, n)),
            "seed" => seed = Some((parse_u64(v, n)?, n)),
            "enforce" => {
                let e = match v {
                    "true" => true,
                    "false" => false,
                    _ => return Err(bad(n, format!("bad enforce {v:?}"))),
                };
                enforce = Some((e, n));
            }
            "tenant" => {
                let mut parts = v.split_whitespace();
                let quota = parts.next().ok_or_else(|| bad(n, "missing quota".into()))?;
                let budget = parts
                    .next()
                    .ok_or_else(|| bad(n, "missing walk budget".into()))?;
                if tenants.len() == MAX_TENANTS {
                    return Err(bad(n, format!("more than {MAX_TENANTS} tenants")));
                }
                let grant = TenantGrant {
                    quota: parse_u64(quota, n)?,
                    walk_budget: parse_u32(budget, n)?,
                };
                tenants.push(grant);
                tenants_at.get_or_insert(n);
            }
            "mutation" => match v {
                "quota-bypass" => bypass_at = Some(n),
                _ => return Err(bad(n, format!("unknown mutation {v:?}"))),
            },
            _ => {}
        }
    }

    let (design, _) = required(design, "design")?;
    let (policy, _) = required(policy, "policy")?;
    let (lines, lines_at) = required(lines, "lines")?;
    let (ways, ways_at) = required(ways, "ways")?;
    let (seed, _) = required(seed, "seed")?;
    if lines > MAX_REPRO_LINES {
        return Err(bad(
            lines_at,
            format!("{lines} lines exceed the repro bound of {MAX_REPRO_LINES}"),
        ));
    }
    let kind = design.array_kind();
    kind.check_geometry(lines, ways).map_err(|e| {
        let n = lines_at.max(ways_at);
        bad(
            n,
            format!("cannot build {kind} with {lines} lines x {ways} ways: {e}"),
        )
    })?;
    let tagged = !tenants.is_empty();
    if let Some(n) = tenants_at {
        if !matches!(kind, ArrayKind::ZCache { .. }) {
            return Err(bad(
                n,
                format!("tenants need a zcache design, not {design}"),
            ));
        }
    }
    let enforce_quota = match (enforce, tagged) {
        (Some((e, _)), true) => e,
        (None, true) => return Err(invalid("missing '# enforce:' header".into())),
        (Some((_, n)), false) => return Err(bad(n, "'# enforce:' without tenants".into())),
        (None, false) => false,
    };
    if let (Some(n), false) = (bypass_at, tagged) {
        return Err(bad(n, "'# mutation:' without tenants".into()));
    }

    let mut trace = Vec::new();
    for (n, line) in numbered() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let mut field = |what: &str| {
            parts
                .next()
                .ok_or_else(|| bad(n, format!("missing {what}")))
        };
        let tenant = if tagged {
            let t = field("tenant")?;
            t.strip_prefix('T')
                .filter(|d| !d.starts_with('+'))
                .and_then(|d| d.parse::<usize>().ok())
                .filter(|&t| t < tenants.len())
                .ok_or_else(|| bad(n, format!("bad tenant {t:?} ({} declared)", tenants.len())))?
        } else {
            0
        };
        let write = match field("op")? {
            "R" | "r" => false,
            "W" | "w" => true,
            other => return Err(bad(n, format!("bad op {other:?}"))),
        };
        let addr = parse_addr(field("address")?, n)?;
        if tagged && addr >> TENANT_SHIFT != 0 {
            return Err(bad(
                n,
                format!("address {addr:#x} overflows the tenant tag space"),
            ));
        }
        trace.push(Access {
            tenant,
            addr,
            write,
        });
    }

    let cfg = CheckConfig {
        design,
        policy,
        lines,
        ways,
        seed,
        tenants,
        enforce_quota,
        quota_bypass: bypass_at.is_some(),
    };
    Ok(Repro { cfg, trace, note })
}

/// Loads every `.trace` and `.ptrace` repro under `dir`, sorted by file
/// name for deterministic replay order. A missing directory is an
/// empty corpus.
pub fn load_corpus(dir: &Path) -> io::Result<Vec<(PathBuf, Repro)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "trace" || x == "ptrace"))
        .collect();
    paths.sort();
    for p in paths {
        let repro = read_repro(&p)?;
        out.push((p, repro));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartMix;

    #[test]
    fn round_trip() {
        let plain = CheckConfig::new(CheckDesign::Z3, CheckPolicy::Lfu, 64, 4, 99);
        let plain_trace = vec![
            Access {
                tenant: 0,
                addr: 0x1000_002a,
                write: true,
            },
            Access {
                tenant: 0,
                addr: 0x3000_0400,
                write: false,
            },
        ];
        let mut part = PartMix::HotVsScan.config(CheckPolicy::Opt, 64, 4, 7);
        part.quota_bypass = true;
        let part_trace = PartMix::HotVsScan.gen_stream(50, 64, 3);
        let dir = std::env::temp_dir().join("zoracle-corpus-test");
        // In load order (by file name).
        let cases = [
            ("part.ptrace", part, part_trace),
            ("plain.trace", plain, plain_trace),
        ];
        for (name, cfg, trace) in &cases {
            write_repro(&dir.join(name), cfg, trace, "install differs\n(unit test)").unwrap();
        }
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        for ((_, r), (name, cfg, trace)) in loaded.iter().zip(&cases) {
            assert_eq!(&r.cfg, cfg, "{name}");
            assert_eq!(&r.trace, trace, "{name}");
            assert_eq!(r.note, "install differs (unit test)");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bare_addresses_read_as_hex() {
        let path = std::env::temp_dir().join("zoracle-corpus-hex.trace");
        let text = "# design: z3\n# policy: lru\n# lines: 64\n# ways: 4\n# seed: 1\nR 100\n";
        std::fs::write(&path, text).unwrap();
        let repro = read_repro(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(repro.trace[0].addr, 0x100);
    }

    #[test]
    fn missing_corpus_dir_is_empty() {
        let got = load_corpus(Path::new("/nonexistent/zoracle-corpus")).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn rejects_malformed_files() {
        const PLAIN: &str = "# design: z3\n# policy: lru\n# lines: 64\n# ways: 4\n# seed: 1\n";
        let part = |rest: &str| format!("{PLAIN}# enforce: true\n# tenant: 32 52\n{rest}");
        let many: String = (0..=MAX_TENANTS).map(|_| "# tenant: 1 4\n").collect();
        // (file, expected error text); headers are lines 1-5 of PLAIN.
        let cases: Vec<(String, &str)> = vec![
            (
                "# design: warp\nR 0x1\n".into(),
                "line 1: unknown design \"warp\"",
            ),
            (PLAIN.replace("lru", "mru"), "line 2: unknown policy"),
            ("R 0x1\n".into(), "missing '# design:' header"),
            (PLAIN.replace("# seed: 1\n", ""), "missing '# seed:' header"),
            (
                PLAIN.replace("ways: 4", "ways: 4294967300"),
                "line 4: bad number",
            ),
            (
                PLAIN.replace("lines: 64", "lines: 0"),
                "line 4: cannot build",
            ),
            (
                PLAIN.replace("lines: 64", "lines: 60"),
                "line 4: cannot build",
            ),
            (
                PLAIN.replace("lines: 64", "lines: 1099511627776"),
                "line 3: 1099511627776 lines exceed the repro bound",
            ),
            (format!("{PLAIN}R 0x1\nX 0x2\n"), "line 7: bad op \"X\""),
            (format!("{PLAIN}W\n"), "line 6: missing address"),
            (format!("{PLAIN}R 0xzz\n"), "line 6: bad number"),
            (format!("{PLAIN}R 0x0x1f\n"), "line 6: bad number"),
            (
                format!("{PLAIN}R +1f\n"),
                "line 6: bad number \"+1f\": sign",
            ),
            (format!("{PLAIN}R 0x+1f\n"), "line 6: bad number"),
            (
                format!("{PLAIN}R 0x1\nW ffffffffffffffff\n"),
                "line 7: reserved address \"ffffffffffffffff\"",
            ),
            (
                part("T0 R 0xffffffffffffffff\n"),
                "line 8: reserved address",
            ),
            (PLAIN.replace("ways: 4", "ways: +4"), "line 4: bad number"),
            (PLAIN.replace("seed: 1", "seed: 0x+1"), "line 5: bad number"),
            (part("# tenant: 32 +52\n"), "line 8: bad number"),
            (format!("{PLAIN}T0 R 0x1\n"), "line 6: bad op \"T0\""),
            (
                format!("{PLAIN}# enforce: true\n"),
                "line 6: '# enforce:' without",
            ),
            (
                format!("{PLAIN}# mutation: quota-bypass\n"),
                "line 6: '# mutation:' without",
            ),
            (
                format!("{PLAIN}# tenant: 32 52\nT0 R 0x1\n"),
                "missing '# enforce:' header",
            ),
            (format!("{PLAIN}# enforce: maybe\n"), "line 6: bad enforce"),
            (part("# tenant: 32\n"), "line 8: missing walk budget"),
            (part("# tenant: 32 4294967348\n"), "line 8: bad number"),
            (part("# mutation: gremlins\n"), "line 8: unknown mutation"),
            (part("T5 R 0x1\n"), "line 8: bad tenant \"T5\" (1 declared)"),
            (part("R 0x1\n"), "line 8: bad tenant \"R\""),
            (part("T+0 R 0x1\n"), "line 8: bad tenant \"T+0\""),
            (
                part("T0 R 0x100000000000000\n"),
                "line 8: address 0x100000000000000 overflows",
            ),
            (part(&many), "line 71: more than 64 tenants"),
            (
                PLAIN.replace("z3", "sa-h3") + "# enforce: true\n# tenant: 32 52\n",
                "line 7: tenants need a zcache design",
            ),
        ];
        let dir = std::env::temp_dir().join("zoracle-corpus-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ptrace");
        for (text, want) in &cases {
            std::fs::write(&path, text).unwrap();
            let err = read_repro(&path).expect_err(want).to_string();
            assert!(err.contains(want), "{text:?}: got {err:?}, want {want:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
