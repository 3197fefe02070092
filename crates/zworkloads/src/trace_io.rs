//! Plain-text trace import/export.
//!
//! Lets external traces (e.g. from a real Pin run) drive the cache
//! models, and lets generated streams be exported for other simulators.
//!
//! Format: one reference per line, `R <hex-line-addr>` or
//! `W <hex-line-addr>`, with an optional third column for the
//! instruction gap. The address is hex with or without one `0x`, so a
//! bare `100` is 0x100. `#`-prefixed lines are comments.
//!
//! ```text
//! # canneal, core 0
//! R 1a2b3c
//! W 1a2b3d 12
//! ```

use crate::{AddressStream, MemRef};
use std::io::{self, BufRead, Write};

/// Parses a trace from a reader, materializing every reference.
///
/// Convenience wrapper over [`TraceReader`] for traces that fit in
/// memory; multi-gigabyte traces should iterate a [`TraceReader`]
/// directly (constant memory, one [`MemRef`] at a time).
///
/// # Errors
///
/// Returns an error on I/O failure or on a malformed line (bad
/// read/write tag, non-hex address, or non-numeric gap).
pub fn read_trace<R: BufRead>(reader: R) -> io::Result<Vec<MemRef>> {
    TraceReader::new(reader).collect()
}

/// A streaming trace parser: an iterator yielding one
/// `io::Result<MemRef>` per trace line, in bounded memory.
///
/// Comments and blank lines are skipped; errors carry 1-based line
/// numbers exactly like [`read_trace`] (which is now a thin
/// `collect()` over this type). After the first error the iterator
/// fuses (yields `None` forever) — a malformed line poisons the rest of
/// the file anyway.
///
/// # Examples
///
/// ```
/// use zworkloads::trace_io::TraceReader;
///
/// let text = "# demo\nR 10\nW 20 3\n";
/// let refs: Vec<_> = TraceReader::new(text.as_bytes())
///     .collect::<std::io::Result<Vec<_>>>()
///     .unwrap();
/// assert_eq!(refs.len(), 2);
/// assert_eq!(refs[1].gap, 3);
/// ```
#[derive(Debug)]
pub struct TraceReader<R> {
    reader: R,
    /// Reused line buffer — the only allocation the stream holds.
    line: String,
    lineno: u64,
    fused: bool,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered reader.
    pub fn new(reader: R) -> Self {
        Self {
            reader,
            line: String::new(),
            lineno: 0,
            fused: false,
        }
    }

    fn parse_line(trimmed: &str, lineno: u64) -> io::Result<MemRef> {
        let mut parts = trimmed.split_whitespace();
        let bad = |msg: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {lineno}: {msg}: {trimmed:?}"),
            )
        };
        let write = match parts.next() {
            Some("R") | Some("r") => false,
            Some("W") | Some("w") => true,
            _ => return Err(bad("expected R or W tag")),
        };
        let addr = parts
            .next()
            .ok_or_else(|| bad("missing address"))
            .and_then(|a| {
                // `from_str_radix` and `parse` would also take a `+`.
                let digits = a.strip_prefix("0x").unwrap_or(a);
                match u64::from_str_radix(digits, 16) {
                    Ok(addr) if !digits.starts_with('+') => Ok(addr),
                    _ => Err(bad("invalid hex address")),
                }
            })?;
        let gap = match parts.next() {
            None => 1,
            Some(g) if g.starts_with('+') => return Err(bad("invalid gap")),
            Some(g) => g.parse::<u32>().map_err(|_| bad("invalid gap"))?.max(1),
        };
        if parts.next().is_some() {
            return Err(bad("trailing fields"));
        }
        Ok(MemRef {
            line: addr,
            write,
            gap,
        })
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = io::Result<MemRef>;

    fn next(&mut self) -> Option<io::Result<MemRef>> {
        if self.fused {
            return None;
        }
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    self.fused = true;
                    // The failure happened while reading the line
                    // *after* the last one counted — `lineno` is only
                    // incremented on a successful read, so the failing
                    // line is `lineno + 1` (1-based, like parse
                    // errors), even when the error strikes mid-line
                    // after a partial buffer refill.
                    let lineno = self.lineno + 1;
                    return Some(Err(io::Error::new(
                        e.kind(),
                        format!("line {lineno}: read error: {e}"),
                    )));
                }
            }
            self.lineno += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let parsed = Self::parse_line(trimmed, self.lineno);
            if parsed.is_err() {
                self.fused = true;
            }
            return Some(parsed);
        }
    }
}

/// Writes a trace to a writer in the canonical format, then flushes it,
/// so a buffered writer reports the failure of its last write.
///
/// # Errors
///
/// Propagates I/O errors from the writer, its flush included.
pub fn write_trace<W: Write>(
    mut writer: W,
    refs: impl IntoIterator<Item = MemRef>,
) -> io::Result<()> {
    for r in refs {
        writeln!(
            writer,
            "{} {:x} {}",
            if r.write { 'W' } else { 'R' },
            r.line,
            r.gap
        )?;
    }
    writer.flush()
}

/// Replays a parsed trace as an [`AddressStream`], cycling when
/// exhausted (streams are infinite by contract).
///
/// # Examples
///
/// ```
/// use zworkloads::{trace_io::TraceStream, AddressStream, MemRef};
///
/// let refs = vec![MemRef { line: 1, write: false, gap: 1 }];
/// let mut s = TraceStream::new(refs);
/// assert_eq!(s.next_ref().line, 1);
/// assert_eq!(s.next_ref().line, 1); // cycles
/// ```
#[derive(Debug, Clone)]
pub struct TraceStream {
    refs: Vec<MemRef>,
    pos: usize,
}

impl TraceStream {
    /// Wraps a reference list.
    ///
    /// # Panics
    ///
    /// Panics if `refs` is empty (an empty infinite stream is
    /// meaningless).
    pub fn new(refs: Vec<MemRef>) -> Self {
        assert!(
            !refs.is_empty(),
            "trace must contain at least one reference"
        );
        Self { refs, pos: 0 }
    }

    /// Number of references before the stream cycles.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// Whether the trace is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }
}

impl AddressStream for TraceStream {
    fn next_ref(&mut self) -> MemRef {
        let r = self.refs[self.pos];
        self.pos = (self.pos + 1) % self.refs.len();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let refs = vec![
            MemRef {
                line: 0x1a2b,
                write: false,
                gap: 1,
            },
            MemRef {
                line: 0xff,
                write: true,
                gap: 12,
            },
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, refs.iter().copied()).unwrap();
        let parsed = read_trace(&buf[..]).unwrap();
        assert_eq!(parsed, refs);
    }

    #[test]
    fn a_failed_flush_is_reported() {
        // Behind a `BufWriter`, a full sink's refusal surfaces only when
        // the buffer is flushed.
        let mut full = [0u8; 0];
        let one = MemRef {
            line: 1,
            write: false,
            gap: 1,
        };
        let err = write_trace(io::BufWriter::new(&mut full[..]), [one]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn parses_comments_blanks_and_prefixes() {
        let text = "# header\n\nR 0x10\nw 20 3\nR 100\n";
        let refs = read_trace(text.as_bytes()).unwrap();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0].line, 0x10);
        assert!(!refs[0].write);
        assert_eq!(refs[1].line, 0x20);
        assert!(refs[1].write);
        assert_eq!(refs[1].gap, 3);
        // A bare address is hex, as in a zoracle repro.
        assert_eq!(refs[2].line, 0x100);
    }

    #[test]
    fn rejects_malformed_lines() {
        // An address takes one `0x` at most, and no field takes a sign.
        for bad in [
            "X 10",
            "R",
            "R zz",
            "R 10 x",
            "R 10 1 extra",
            "R 0x0x1f",
            "R +1f",
            "R 0x+1f",
            "W 20 +3",
        ] {
            assert!(read_trace(bad.as_bytes()).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn streaming_reader_matches_read_trace() {
        let text = "# header\nR 10\n\nw 20 3\nR 0x30\n";
        let streamed: Vec<MemRef> = TraceReader::new(text.as_bytes())
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(streamed, read_trace(text.as_bytes()).unwrap());
        assert_eq!(streamed.len(), 3);
    }

    #[test]
    fn streaming_reader_reports_line_numbers_and_fuses() {
        // Error on physical line 4 (comment and blank lines count).
        let text = "# c\nR 1\n\nR zz\nR 2\n";
        let mut reader = TraceReader::new(text.as_bytes());
        assert_eq!(reader.next().unwrap().unwrap().line, 1);
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 4:"), "{err}");
        // Fused: the valid line after the error is not yielded.
        assert!(reader.next().is_none());
        assert!(reader.next().is_none());
    }

    #[test]
    fn streaming_reader_is_bounded_memory_shaped() {
        // A large synthetic trace consumed one record at a time; the
        // iterator never holds more than its single line buffer.
        let mut text = String::new();
        for i in 0..10_000u64 {
            text.push_str(&format!("R {i:x}\n"));
        }
        let mut n = 0u64;
        for r in TraceReader::new(text.as_bytes()) {
            assert_eq!(r.unwrap().line, n);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    /// Yields `data`, then fails every subsequent read with the given
    /// error kind — an I/O fault striking mid-stream (possibly
    /// mid-line, when `data` doesn't end in a newline).
    struct FailingReader<'a> {
        data: &'a [u8],
        pos: usize,
        kind: io::ErrorKind,
    }

    impl io::Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.data.len() {
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(io::Error::new(self.kind, "disk on fire"))
            }
        }
    }

    #[test]
    fn mid_stream_io_error_reports_failing_line_number() {
        // Two complete lines then the device dies at the start of
        // line 3: the error must name line 3, 1-based, and keep the
        // original error kind.
        let failing = FailingReader {
            data: b"R 1\nR 2\n",
            pos: 0,
            kind: io::ErrorKind::ConnectionReset,
        };
        let mut reader = TraceReader::new(io::BufReader::with_capacity(16, failing));
        assert_eq!(reader.next().unwrap().unwrap().line, 1);
        assert_eq!(reader.next().unwrap().unwrap().line, 2);
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(err.to_string().starts_with("line 3: read error:"), "{err}");
        assert!(reader.next().is_none(), "reader must fuse after I/O error");
    }

    #[test]
    fn mid_line_io_error_reports_the_interrupted_line() {
        // The fault strikes *inside* line 2 (no trailing newline on the
        // data): line 1 parsed fine, so the failing line is 2.
        let failing = FailingReader {
            data: b"R 1\nW 2",
            pos: 0,
            kind: io::ErrorKind::UnexpectedEof,
        };
        let mut reader = TraceReader::new(io::BufReader::with_capacity(4, failing));
        assert_eq!(reader.next().unwrap().unwrap().line, 1);
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().starts_with("line 2: read error:"), "{err}");
    }

    #[test]
    fn records_split_across_buffer_refills_parse_intact() {
        // Tiny BufReader capacities force every record to straddle one
        // or more refills; `read_line` must still assemble whole lines
        // and the parsed stream must match the reference parse.
        let text = "# header comment long enough to span refills\nR 1a2b3c 7\nW ff\nR 0x30 12\n";
        let reference = read_trace(text.as_bytes()).unwrap();
        for capacity in 1..=24 {
            let reader = io::BufReader::with_capacity(capacity, text.as_bytes());
            let parsed: Vec<MemRef> = TraceReader::new(reader)
                .collect::<io::Result<Vec<_>>>()
                .unwrap();
            assert_eq!(parsed, reference, "capacity={capacity}");
        }
    }

    #[test]
    fn malformed_line_number_is_stable_across_buffer_sizes() {
        // The bad record sits on physical line 3; splitting it across
        // refill boundaries must not shift the reported number.
        let text = "R 1\n# padding comment\nW zznothex 5\nR 2\n";
        for capacity in 1..=16 {
            let reader = io::BufReader::with_capacity(capacity, text.as_bytes());
            let err = TraceReader::new(reader)
                .collect::<io::Result<Vec<_>>>()
                .unwrap_err();
            assert!(
                err.to_string().starts_with("line 3:"),
                "capacity={capacity}: {err}"
            );
        }
    }

    #[test]
    fn unterminated_final_line_parses_and_reports_its_number() {
        // Valid unterminated final line: parsed like any other.
        let refs: Vec<MemRef> = TraceReader::new("R 1\nW 2 4".as_bytes())
            .collect::<io::Result<Vec<_>>>()
            .unwrap();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[1].gap, 4);
        // Malformed unterminated final line: reported as line 2 even
        // without its newline, at any refill granularity.
        for capacity in 1..=8 {
            let reader = io::BufReader::with_capacity(capacity, "R 1\nW zz".as_bytes());
            let err = TraceReader::new(reader)
                .collect::<io::Result<Vec<_>>>()
                .unwrap_err();
            assert!(
                err.to_string().starts_with("line 2:"),
                "capacity={capacity}: {err}"
            );
        }
    }

    #[test]
    fn zero_gap_clamps_to_one() {
        let refs = read_trace("R 1 0".as_bytes()).unwrap();
        assert_eq!(refs[0].gap, 1);
    }

    #[test]
    fn stream_cycles() {
        let refs = read_trace("R 1\nR 2\n".as_bytes()).unwrap();
        let mut s = TraceStream::new(refs);
        let seq: Vec<u64> = (0..5).map(|_| s.next_ref().line).collect();
        assert_eq!(seq, vec![1, 2, 1, 2, 1]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one reference")]
    fn empty_stream_panics() {
        TraceStream::new(vec![]);
    }
}
