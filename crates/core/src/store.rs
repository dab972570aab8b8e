//! The persistent result store: an append-only record log plus a
//! fingerprint index, so a daemon restart serves prior results
//! byte-identically and two daemons can share one store directory.
//!
//! # Why a log, not a database
//!
//! The result store only ever does three things: check and index every
//! record at startup, append one record per newly completed job, and
//! re-read one record a caller does not hold in memory. An append-only
//! text log makes the first two trivially crash-safe — a record is
//! written with a single `write` on a file opened in append mode, so
//! concurrent daemons sharing the directory interleave whole records,
//! never bytes — and keeps the format inspectable with `less`. The
//! startup scan reads the log a line at a time, holding one record, and
//! keeps only where each record lies: [`ResultLog`] keeps, per
//! fingerprint, the byte span of its latest record (filled by the scan,
//! extended by every append), and [`ResultLog::read`] reads that span
//! back, checks the header's fingerprint, line count and body checksum,
//! and parses the body, so a record that changed on disk is an error,
//! never a wrong report.
//!
//! # On-disk layout (`<dir>/results.log` + `<dir>/results.idx`)
//!
//! ```text
//! statim-store v1                              <- log header
//! record <fingerprint:016x> <nlines> <checksum:016x>
//! circuit <gates> <sweeps> <npaths> <name>
//! scalars <det> <worst> <overest> <conf> <sigma_c>       ; f64 bit-hex
//! path <det_rank> <prob_rank> <7 f64 bit-hex fields> gates <id...>
//! ...                                          <- more records
//! ```
//!
//! Every `f64` is stored as its exact bit pattern (the PR-4 checkpoint
//! idiom), so a report loaded after a restart renders **bit-identically**
//! through [`report::deterministic_report`](crate::report::deterministic_report).
//! Each record carries an FNV-1a checksum of its body: a torn append, a
//! flipped bit or a hand-truncated file is a typed `Parse` error with
//! the offending 1-based line — never a silently wrong report.
//!
//! The index (`results.idx`) is a snapshot of the log's byte length and
//! record count — a header, `log_len <bytes>` and `records <n>`, so it
//! costs the same to rewrite however deep the log is — rewritten
//! atomically (write `results.idx.tmp`, then rename) after every append.
//! Index files from before this layout also list every fingerprint
//! (`fp <hex>` lines); open reads only the header and `log_len`, so they
//! still open. It is *not* the source of truth — the log
//! is — but it lets [`ResultLog::open`] detect a log that lost bytes
//! since the last successful append (truncation below the snapshot
//! length is a typed `Parse` error). A log *longer* than the snapshot is
//! fine: that is exactly the window between an append and its snapshot,
//! or another daemon's append. A missing log under a snapshot that
//! acknowledges records lost all of them: the same typed error, never a
//! fresh store.
//!
//! # Torn-tail recovery
//!
//! A crash mid-append can leave a **torn trailing record**: a partial
//! header, a body cut short, or a checksum that no longer matches. That
//! damage lies entirely past the last snapshot's byte length, so it is
//! provably un-acknowledged work — [`ResultLog::open`] recovers by
//! truncating the log back to the last record boundary that parses
//! cleanly and carrying on ([`ResultLog::recovered_bytes`] reports the
//! loss). Damage *below* the snapshot length — a bad header, corruption
//! inside acknowledged records, a log shorter than the snapshot — is
//! never recovered from: that is lost acknowledged data, and open fails
//! with the typed `Parse` error exactly as before. Damage is judged by
//! its bytes, a line at a time: a tail torn inside a multi-byte
//! character is a torn tail like any other, and invalid UTF-8 in an
//! acknowledged record is a `Parse` error at its own line.
//!
//! Durability is flush-only by default (a crash loses at most the
//! records the page cache held); [`StoreOptions::fsync`] upgrades every
//! append to fsync the log and every index rename to fsync the
//! directory, for power-loss safety at the cost of append latency.
//!
//! Only **clean** reports are persisted (the same rule the in-memory
//! store enforces): degraded or budget-tripped runs never reach the log.

use crate::cache::fnv1a;
use crate::engine::{RunProfile, SstaReport};
use crate::error::{ErrorClass, StatimError};
use crate::rank::RankedPath;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Magic string opening the record log.
pub const STORE_MAGIC: &str = "statim-store";
/// Magic string opening the index snapshot.
pub const STORE_IDX_MAGIC: &str = "statim-store-idx";
/// Current store format version (log and index move together).
pub const STORE_VERSION: u32 = 1;

/// Log file name inside the store directory.
const LOG_NAME: &str = "results.log";
/// Index snapshot name inside the store directory.
const IDX_NAME: &str = "results.idx";

fn parse_err(line: usize, message: impl Into<String>) -> StatimError {
    StatimError {
        class: ErrorClass::Parse,
        message: message.into(),
        file: None,
        line: Some(line),
        col: None,
    }
}

fn io_err(what: &str, e: &std::io::Error) -> StatimError {
    StatimError::new(ErrorClass::Resource, format!("{what}: {e}"))
}

/// One stored path: the ranks plus every scalar the deterministic
/// report renders, with the gate ids (length = the table's gate count).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPath {
    /// Rank by deterministic delay (1-based).
    pub det_rank: usize,
    /// Rank by confidence point (1-based).
    pub prob_rank: usize,
    /// Deterministic (nominal) delay, seconds.
    pub det_delay: f64,
    /// Worst-case corner delay, seconds.
    pub worst_case: f64,
    /// Mean of the total delay PDF, seconds.
    pub mean: f64,
    /// Standard deviation of the total delay PDF, seconds.
    pub sigma: f64,
    /// Inter-die component σ, seconds.
    pub inter_sigma: f64,
    /// Intra-die component σ, seconds.
    pub intra_sigma: f64,
    /// Ranking confidence point, seconds.
    pub confidence_point: f64,
    /// The gates on the path (raw ids, input side first).
    pub gates: Vec<u32>,
}

/// A clean report's deterministic core — everything
/// [`report::deterministic_report`](crate::report::deterministic_report)
/// reads, losslessly serializable. Wall-clock profile data and the
/// per-path PDFs are deliberately *not* stored: they never appear in
/// served bytes, and the PDFs would dwarf the log for no serving value.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredReport {
    /// Circuit name.
    pub circuit: String,
    /// Gate count of the circuit.
    pub gate_count: usize,
    /// Bellman-Ford (or DP) relaxation sweeps.
    pub label_sweeps: usize,
    /// Deterministic critical path delay, seconds.
    pub det_critical_delay: f64,
    /// Worst-case (corner) critical delay, seconds.
    pub worst_case_delay: f64,
    /// Worst-case overestimation, percent.
    pub overestimation_pct: f64,
    /// Confidence constant used.
    pub confidence: f64,
    /// σ of the deterministic critical path's total delay PDF.
    pub sigma_c: f64,
    /// All analyzed paths in probabilistic rank order.
    pub paths: Vec<StoredPath>,
}

impl StoredReport {
    /// Captures the deterministic core of a clean report.
    pub fn from_report(report: &SstaReport) -> StoredReport {
        StoredReport {
            circuit: report.circuit.clone(),
            gate_count: report.gate_count,
            label_sweeps: report.label_sweeps,
            det_critical_delay: report.det_critical_delay,
            worst_case_delay: report.worst_case_delay,
            overestimation_pct: report.overestimation_pct,
            confidence: report.confidence,
            sigma_c: report.sigma_c,
            paths: report
                .paths
                .iter()
                .map(|r| StoredPath {
                    det_rank: r.det_rank,
                    prob_rank: r.prob_rank,
                    det_delay: r.analysis.det_delay,
                    worst_case: r.analysis.worst_case,
                    mean: r.analysis.mean,
                    sigma: r.analysis.sigma,
                    inter_sigma: r.analysis.inter_sigma,
                    intra_sigma: r.analysis.intra_sigma,
                    confidence_point: r.analysis.confidence_point,
                    gates: r.analysis.gates.iter().map(|g| g.0).collect(),
                })
                .collect(),
        }
    }

    /// Reconstructs a servable [`SstaReport`]. The deterministic core —
    /// every byte [`report::deterministic_report`](crate::report::deterministic_report)
    /// renders — is restored exactly; wall-clock fields are zero and the
    /// per-path PDFs are single-cell placeholders at the stored mean
    /// (the store never persisted them, and served bytes never read
    /// them).
    pub fn into_report(self) -> SstaReport {
        let num_paths = self.paths.len();
        let paths = self
            .paths
            .into_iter()
            .map(|p| {
                let grid = statim_stats::Grid::new(p.mean, 1e-15, 1)
                    .unwrap_or_else(|_| statim_stats::Grid::new(0.0, 1e-15, 1).expect("unit grid"));
                let pdf = statim_stats::Pdf::delta(grid, p.mean)
                    .unwrap_or_else(|_| statim_stats::Pdf::delta(grid, 0.0).expect("unit delta"));
                RankedPath {
                    analysis: crate::analyze::PathAnalysis {
                        gates: p.gates.into_iter().map(statim_netlist::GateId).collect(),
                        det_delay: p.det_delay,
                        worst_case: p.worst_case,
                        mean: p.mean,
                        sigma: p.sigma,
                        inter_sigma: p.inter_sigma,
                        intra_sigma: p.intra_sigma,
                        confidence_point: p.confidence_point,
                        total_pdf: pdf.clone(),
                        intra_pdf: pdf.clone(),
                        inter_pdf: pdf,
                    },
                    det_rank: p.det_rank,
                    prob_rank: p.prob_rank,
                }
            })
            .collect();
        SstaReport {
            circuit: self.circuit,
            gate_count: self.gate_count,
            det_critical_delay: self.det_critical_delay,
            worst_case_delay: self.worst_case_delay,
            overestimation_pct: self.overestimation_pct,
            confidence: self.confidence,
            sigma_c: self.sigma_c,
            num_paths,
            paths,
            label_sweeps: self.label_sweeps,
            runtime: 0.0,
            profile: RunProfile::default(),
            degraded: Vec::new(),
            budget_exhausted: None,
            skipped_paths: 0,
        }
    }

    /// Renders one complete log record: the `record` header line (with
    /// body line count and checksum) followed by the body.
    pub fn render_record(&self, fingerprint: u64) -> String {
        String::from_utf8(self.record_bytes(fingerprint))
            .expect("a record is ASCII around the UTF-8 circuit name")
    }

    /// [`StoredReport::render_record`]'s bytes, written straight into one
    /// buffer: the header goes first with a placeholder checksum, which
    /// is patched in once the body behind it is hashed.
    fn record_bytes(&self, fingerprint: u64) -> Vec<u8> {
        let capacity = 128
            + self.circuit.len()
            + self
                .paths
                .iter()
                .map(|p| 160 + 11 * p.gates.len())
                .sum::<usize>();
        let mut out = Vec::with_capacity(capacity);
        out.extend_from_slice(b"record ");
        out.extend_from_slice(&hex16(fingerprint));
        out.push(b' ');
        push_decimal(&mut out, 2 + self.paths.len() as u64);
        out.push(b' ');
        let checksum_at = out.len();
        out.extend_from_slice(&[b'0'; 16]);
        out.push(b'\n');
        let body_at = out.len();

        out.extend_from_slice(b"circuit ");
        for count in [self.gate_count, self.label_sweeps, self.paths.len()] {
            push_decimal(&mut out, count as u64);
            out.push(b' ');
        }
        out.extend_from_slice(self.circuit.as_bytes());
        out.extend_from_slice(b"\nscalars");
        for v in [
            self.det_critical_delay,
            self.worst_case_delay,
            self.overestimation_pct,
            self.confidence,
            self.sigma_c,
        ] {
            out.push(b' ');
            out.extend_from_slice(&hex16(v.to_bits()));
        }
        out.push(b'\n');
        for p in &self.paths {
            out.extend_from_slice(b"path ");
            push_decimal(&mut out, p.det_rank as u64);
            out.push(b' ');
            push_decimal(&mut out, p.prob_rank as u64);
            for v in [
                p.det_delay,
                p.worst_case,
                p.mean,
                p.sigma,
                p.inter_sigma,
                p.intra_sigma,
                p.confidence_point,
            ] {
                out.push(b' ');
                out.extend_from_slice(&hex16(v.to_bits()));
            }
            out.extend_from_slice(b" gates");
            for &g in &p.gates {
                out.push(b' ');
                push_decimal(&mut out, u64::from(g));
            }
            out.push(b'\n');
        }
        let checksum = fnv1a(0, &out[body_at..]);
        out[checksum_at..checksum_at + 16].copy_from_slice(&hex16(checksum));
        out
    }
}

/// `v` as 16 lowercase hex digits (`{:016x}`).
fn hex16(v: u64) -> [u8; 16] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0; 16];
    for (i, d) in out.iter_mut().enumerate() {
        *d = DIGITS[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// Appends `v` in decimal (`{}`).
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn parse_f64_bits(line: usize, token: &str, what: &str) -> Result<f64, StatimError> {
    let bits = u64::from_str_radix(token, 16)
        .map_err(|_| parse_err(line, format!("{what} `{token}` is not an f64 bit pattern")))?;
    let v = f64::from_bits(bits);
    if !v.is_finite() {
        return Err(parse_err(line, format!("{what} is non-finite")));
    }
    Ok(v)
}

/// Parses one record body (the lines between one `record` header and the
/// next). `first_line` is the 1-based log line of the first body line.
fn parse_body(body: &[&str], first_line: usize) -> Result<StoredReport, StatimError> {
    let at = |offset: usize| first_line + offset;
    let mut lines = body.iter().enumerate();
    let (ci, circuit_line) = lines
        .next()
        .ok_or_else(|| parse_err(first_line, "record has no circuit line"))?;
    let rest = circuit_line.strip_prefix("circuit ").ok_or_else(|| {
        parse_err(
            at(ci),
            "expected `circuit <gates> <sweeps> <npaths> <name>`",
        )
    })?;
    let mut tok = rest.splitn(4, ' ');
    let mut count_field = |what: &str| -> Result<usize, StatimError> {
        tok.next()
            .ok_or_else(|| parse_err(at(ci), format!("circuit line missing {what}")))?
            .parse()
            .map_err(|_| parse_err(at(ci), format!("circuit {what} is not a count")))
    };
    let gate_count = count_field("gate count")?;
    let label_sweeps = count_field("sweep count")?;
    let num_paths = count_field("path count")?;
    let circuit = tok
        .next()
        .ok_or_else(|| parse_err(at(ci), "circuit line missing name"))?
        .to_string();

    let (si, scalars_line) = lines
        .next()
        .ok_or_else(|| parse_err(at(ci), "record has no scalars line"))?;
    let mut stok = scalars_line
        .strip_prefix("scalars ")
        .ok_or_else(|| parse_err(at(si), "expected `scalars <5 f64 bit patterns>`"))?
        .split(' ');
    let mut scalar = |what: &str| -> Result<f64, StatimError> {
        let t = stok
            .next()
            .ok_or_else(|| parse_err(at(si), format!("scalars line missing {what}")))?;
        parse_f64_bits(at(si), t, what)
    };
    let det_critical_delay = scalar("det critical delay")?;
    let worst_case_delay = scalar("worst-case delay")?;
    let overestimation_pct = scalar("overestimation")?;
    let confidence = scalar("confidence")?;
    let sigma_c = scalar("sigma_c")?;

    let mut paths = Vec::with_capacity(num_paths);
    for (pi, path_line) in lines {
        let rest = path_line
            .strip_prefix("path ")
            .ok_or_else(|| parse_err(at(pi), format!("unknown record line `{path_line}`")))?;
        let (ranks_and_floats, gates) = rest
            .split_once(" gates")
            .ok_or_else(|| parse_err(at(pi), "path line missing `gates` marker"))?;
        let mut ptok = ranks_and_floats.split(' ');
        let mut rank = |what: &str| -> Result<usize, StatimError> {
            ptok.next()
                .ok_or_else(|| parse_err(at(pi), format!("path line missing {what}")))?
                .parse()
                .map_err(|_| parse_err(at(pi), format!("path {what} is not a rank")))
        };
        let det_rank = rank("det rank")?;
        let prob_rank = rank("prob rank")?;
        let mut float = |what: &str| -> Result<f64, StatimError> {
            let t = ptok
                .next()
                .ok_or_else(|| parse_err(at(pi), format!("path line missing {what}")))?;
            parse_f64_bits(at(pi), t, what)
        };
        let det_delay = float("det delay")?;
        let worst_case = float("worst case")?;
        let mean = float("mean")?;
        let sigma = float("sigma")?;
        let inter_sigma = float("inter sigma")?;
        let intra_sigma = float("intra sigma")?;
        let confidence_point = float("confidence point")?;
        let gates = gates
            .split_ascii_whitespace()
            .map(|g| {
                g.parse::<u32>()
                    .map_err(|_| parse_err(at(pi), format!("gate id `{g}` is not a u32")))
            })
            .collect::<Result<Vec<u32>, StatimError>>()?;
        paths.push(StoredPath {
            det_rank,
            prob_rank,
            det_delay,
            worst_case,
            mean,
            sigma,
            inter_sigma,
            intra_sigma,
            confidence_point,
            gates,
        });
    }
    if paths.len() != num_paths {
        return Err(parse_err(
            at(ci),
            format!(
                "record declares {num_paths} paths but carries {}",
                paths.len()
            ),
        ));
    }
    Ok(StoredReport {
        circuit,
        gate_count,
        label_sweeps,
        det_critical_delay,
        worst_case_delay,
        overestimation_pct,
        confidence,
        sigma_c,
        paths,
    })
}

/// Parses a `record <fingerprint:016x> <nlines> <checksum:016x>` header
/// line (1-based log line `line_no`) into its three fields.
fn parse_record_header(line: &str, line_no: usize) -> Result<(u64, usize, u64), StatimError> {
    let rest = line
        .strip_prefix("record ")
        .ok_or_else(|| parse_err(line_no, format!("expected a `record` header, got `{line}`")))?;
    let mut tok = rest.split(' ');
    let fingerprint = tok
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| parse_err(line_no, "record fingerprint is not hex"))?;
    let nlines = tok
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_err(line_no, "record line count is not a count"))?;
    let checksum = tok
        .next()
        .and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| parse_err(line_no, "record checksum is not hex"))?;
    Ok((fingerprint, nlines, checksum))
}

/// Where one record lies in the log: the byte offset of its `record`
/// header line and the byte length of the header plus body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSpan {
    /// Byte offset of the `record` header line.
    pub offset: u64,
    /// Bytes from the header's first byte to the body's last newline.
    pub len: u64,
}

/// The outcome of an offset-aware scan of a record log: where each
/// record of the longest clean prefix lies, that prefix's byte length
/// (always a record boundary), and the first violation past it, if any.
/// This is what torn-tail recovery truncates against.
#[derive(Debug)]
pub struct LogScan {
    /// `(fingerprint, span)` of every record in the clean prefix, in
    /// append order (a duplicated fingerprint keeps its latest record
    /// when replayed into a map — two daemons racing the same job write
    /// identical content anyway).
    pub spans: Vec<(u64, RecordSpan)>,
    /// Byte length of the longest clean prefix ending at a record
    /// boundary (at minimum the header line when `error` is set).
    pub valid_len: u64,
    /// The first violation, located exactly at `valid_len`.
    pub error: Option<StatimError>,
}

/// How a read of the next log line ended.
#[derive(Debug, PartialEq)]
enum Line {
    /// A whole line, its terminator stripped.
    Complete,
    /// A final line without its `\n`: torn by definition, since the
    /// writer only emits whole lines.
    Torn,
    /// No bytes left.
    End,
}

/// A log read one line at a time, so memory holds one line (and the
/// scan one record), never the whole log.
struct LogLines<R> {
    reader: R,
    /// The bytes of the last line read.
    line: Vec<u8>,
    /// 1-based number of the last line read.
    number: usize,
    /// Byte offset just past the last line read.
    end: u64,
}

impl<R: BufRead> LogLines<R> {
    fn new(reader: R) -> Self {
        LogLines {
            reader,
            line: Vec::new(),
            number: 0,
            end: 0,
        }
    }

    /// Reads the next line into `self.line`, without its `\n` (or
    /// `\r\n`) when it is complete.
    fn advance(&mut self) -> Result<Line, StatimError> {
        self.line.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(|e| io_err("reading store log", &e))?;
        if n == 0 {
            return Ok(Line::End);
        }
        self.number += 1;
        self.end += n as u64;
        if self.line.last() != Some(&b'\n') {
            return Ok(Line::Torn);
        }
        self.line.pop();
        if self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        Ok(Line::Complete)
    }

    /// The last complete line, decoded on its own.
    fn text(&self) -> Result<&str, StatimError> {
        std::str::from_utf8(&self.line)
            .map_err(|e| parse_err(self.number, format!("line is not UTF-8: {e}")))
    }
}

/// What follows a record boundary.
enum Found {
    /// One whole record that passed every check.
    Record(u64, StoredReport),
    /// A blank line.
    Blank,
    /// The end of the log.
    End,
}

/// Reads what follows a record boundary. A record must have a header,
/// the body lines it declares, the checksum it declares and a body that
/// parses; `body` is scratch space for its text. Damage is a
/// `Parse`-class error at the offending line, an I/O failure a
/// `Resource`-class one.
fn next_record<R: BufRead>(
    lines: &mut LogLines<R>,
    body: &mut String,
) -> Result<Found, StatimError> {
    let header_line = lines.number + 1;
    match lines.advance()? {
        Line::End => return Ok(Found::End),
        Line::Torn => {
            return Err(parse_err(header_line, "trailing line is torn (no newline)"));
        }
        Line::Complete => {}
    }
    let header = lines.text()?;
    if header.trim().is_empty() {
        return Ok(Found::Blank);
    }
    let (fingerprint, nlines, checksum) = parse_record_header(header, header_line)?;
    body.clear();
    for read in 0..nlines {
        if lines.advance()? != Line::Complete {
            return Err(parse_err(
                header_line,
                format!("truncated record: declares {nlines} body lines, log ends after {read}"),
            ));
        }
        body.push_str(lines.text()?);
        body.push('\n');
    }
    let actual = fnv1a(0, body.as_bytes());
    if actual != checksum {
        return Err(parse_err(
            header_line,
            format!(
                "record checksum mismatch (declared {checksum:016x}, body hashes {actual:016x})"
            ),
        ));
    }
    let body: Vec<&str> = body.split_terminator('\n').collect();
    let report = parse_body(&body, header_line + 1)?;
    Ok(Found::Record(fingerprint, report))
}

/// Checks the log's first line: the magic and the version this build
/// reads.
fn check_log_header(line: &str) -> Result<(), StatimError> {
    match line.strip_prefix(STORE_MAGIC) {
        None => Err(parse_err(1, format!("not a {STORE_MAGIC} file"))),
        Some(v) if v.trim() != format!("v{STORE_VERSION}") => Err(parse_err(
            1,
            format!(
                "unsupported store version `{}` (this build reads v{STORE_VERSION})",
                v.trim()
            ),
        )),
        Some(_) => Ok(()),
    }
}

/// Scans a record log, splitting it into its longest clean prefix and
/// the first violation (if any) — see [`LogScan`]. Each record of the
/// clean prefix is handed to `visit` as it is read; the scan keeps only
/// its fingerprint and span, so memory holds one record at a time.
///
/// # Errors
///
/// Only for damage recovery must never paper over: an empty log, wrong
/// magic or an unsupported version, or a failed read. Everything
/// downstream of a valid header lands in [`LogScan::error`] instead.
pub fn scan_log(
    reader: impl BufRead,
    mut visit: impl FnMut(u64, StoredReport),
) -> Result<LogScan, StatimError> {
    let mut lines = LogLines::new(reader);
    let first = lines.advance()?;
    if first == Line::End {
        return Err(parse_err(1, "empty store log"));
    }
    check_log_header(&String::from_utf8_lossy(&lines.line))?;
    let mut scan = LogScan {
        spans: Vec::new(),
        valid_len: 0,
        error: None,
    };
    if first == Line::Torn {
        // The header itself has no terminator: nothing usable follows.
        scan.error = Some(parse_err(1, "store log header line is torn (no newline)"));
        return Ok(scan);
    }
    scan.valid_len = lines.end;
    let mut body = String::new();
    loop {
        let offset = lines.end;
        match next_record(&mut lines, &mut body) {
            Ok(Found::End) => return Ok(scan),
            Ok(Found::Blank) => {}
            Ok(Found::Record(fingerprint, report)) => {
                visit(fingerprint, report);
                let len = lines.end - offset;
                scan.spans.push((fingerprint, RecordSpan { offset, len }));
            }
            Err(e) if e.class == ErrorClass::Parse => {
                scan.error = Some(e);
                return Ok(scan);
            }
            Err(e) => return Err(e),
        }
        scan.valid_len = lines.end;
    }
}

/// Durability knobs for [`ResultLog::open_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreOptions {
    /// `fsync` the log file after every append and the store directory
    /// after every index rename (the `--store-fsync` daemon flag). Off
    /// by default: appends are then only as durable as the page cache,
    /// but torn-tail recovery makes a crash lose at most the unsynced
    /// suffix, never the store.
    pub fsync: bool,
}

/// The open store: the log/index paths, the log handle and, for every
/// fingerprint on disk, where its latest record lies (appends of a known
/// fingerprint are no-ops).
#[derive(Debug)]
pub struct ResultLog {
    log_path: PathBuf,
    idx_path: PathBuf,
    /// The log, open for reading and appending for the store's lifetime.
    file: File,
    index: HashMap<u64, RecordSpan>,
    log_len: u64,
    fsync: bool,
    /// Records the open scan accepted, duplicates included.
    loaded: usize,
    recovered_bytes: u64,
}

impl ResultLog {
    /// Opens (creating if needed) the store in `dir` with default
    /// [`StoreOptions`], returning every record in append order,
    /// duplicates included.
    ///
    /// # Errors
    ///
    /// `Resource`-class errors for directory/file I/O; `Parse`-class
    /// errors (with the offending line) for a corrupt log or index, or a
    /// log shorter than the index snapshot says it must be (lost bytes;
    /// a missing log under a snapshot that acknowledges records counts
    /// as one of no bytes). A torn *trailing* record — damage entirely
    /// past the snapshot length — is not an error: it is truncated away
    /// (see the module docs on torn-tail recovery).
    pub fn open(dir: &Path) -> Result<(ResultLog, Vec<(u64, StoredReport)>), StatimError> {
        let mut records = Vec::new();
        let log = Self::open_scanning(dir, StoreOptions::default(), |fp, report| {
            records.push((fp, report));
        })?;
        Ok((log, records))
    }

    /// [`ResultLog::open`] with explicit [`StoreOptions`], keeping no
    /// record in memory: the scan validates each one and indexes where
    /// it lies, and [`ResultLog::read`] serves it from there.
    ///
    /// # Errors
    ///
    /// As [`ResultLog::open`].
    pub fn open_with(dir: &Path, options: StoreOptions) -> Result<ResultLog, StatimError> {
        Self::open_scanning(dir, options, |_, _| {})
    }

    fn open_scanning(
        dir: &Path,
        options: StoreOptions,
        visit: impl FnMut(u64, StoredReport),
    ) -> Result<ResultLog, StatimError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            io_err("creating store directory", &e).with_file(dir.display().to_string())
        })?;
        let log_path = dir.join(LOG_NAME);
        let idx_path = dir.join(IDX_NAME);
        let file = |p: &Path| p.display().to_string();
        // The log length the last append acknowledged. A log shorter than
        // that lost bytes, which the record-granular scan alone could
        // mistake for a clean, shorter log.
        let snap_len = if idx_path.exists() {
            let idx_text = std::fs::read_to_string(&idx_path)
                .map_err(|e| io_err("reading store index", &e).with_file(file(&idx_path)))?;
            parse_index(&idx_text).map_err(|e| e.with_file(file(&idx_path)))?
        } else {
            0
        };
        let truncated = |log_len: u64| {
            parse_err(
                1,
                format!(
                    "store log truncated: index snapshot records {snap_len} bytes, log has {log_len}"
                ),
            )
            .with_file(file(&log_path))
        };
        if !log_path.exists() {
            let header = format!("{STORE_MAGIC} v{STORE_VERSION}\n");
            if snap_len > header.len() as u64 {
                return Err(truncated(0));
            }
            std::fs::write(&log_path, &header)
                .map_err(|e| io_err("creating store log", &e).with_file(file(&log_path)))?;
        }
        let log_file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| io_err("opening store log", &e).with_file(file(&log_path)))?;
        let mut log_len = log_file
            .metadata()
            .map_err(|e| io_err("reading store log", &e).with_file(file(&log_path)))?
            .len();
        if log_len < snap_len {
            return Err(truncated(log_len));
        }
        // Up to the length just checked: what another daemon appends
        // meanwhile is past it, and is indexed by the next open.
        let reader = BufReader::new((&log_file).take(log_len));
        let scan = scan_log(reader, visit).map_err(|e| e.with_file(file(&log_path)))?;
        let mut recovered_bytes = 0;
        if let Some(err) = scan.error {
            // Recoverable only when every snapshotted byte still parses:
            // then the damage is a torn tail this process (or a crash
            // mid-append) left behind, and the acknowledged prefix is
            // intact. Damage below the snapshot — or a log so mangled
            // not even the header survives — is real corruption.
            if scan.valid_len < snap_len || scan.valid_len == 0 {
                return Err(err.with_file(file(&log_path)));
            }
            recovered_bytes = log_len - scan.valid_len;
            log_file
                .set_len(scan.valid_len)
                .map_err(|e| io_err("truncating torn store log", &e).with_file(file(&log_path)))?;
            if options.fsync {
                log_file.sync_all().map_err(|e| {
                    io_err("syncing truncated store log", &e).with_file(file(&log_path))
                })?;
            }
            log_len = scan.valid_len;
        }
        let mut log = ResultLog {
            log_path,
            idx_path,
            file: log_file,
            index: scan.spans.iter().copied().collect(),
            log_len,
            fsync: options.fsync,
            loaded: scan.spans.len(),
            recovered_bytes,
        };
        log.snapshot_index()?;
        Ok(log)
    }

    /// Bytes dropped from a torn trailing record at open time (0 for a
    /// clean log).
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered_bytes
    }

    /// Records the open scan accepted, duplicates included.
    pub fn loaded(&self) -> usize {
        self.loaded
    }

    /// Fingerprints whose latest record the log can serve.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Appends one clean report under its job fingerprint, then rewrites
    /// the index snapshot atomically. A fingerprint already on disk is a
    /// no-op (the content would be byte-identical by determinism).
    ///
    /// # Errors
    ///
    /// `Resource`-class I/O failures. The log itself is never left torn
    /// by *this process*: the record goes out in a single `write` on an
    /// append-mode handle.
    pub fn append(&mut self, fingerprint: u64, report: &StoredReport) -> Result<(), StatimError> {
        if self.index.contains_key(&fingerprint) {
            return Ok(());
        }
        let record = report.record_bytes(fingerprint);
        // Append mode puts the record at the end of the file, after any
        // record another daemon sharing the directory wrote; the handle's
        // position afterwards is where this one ends.
        let end = self
            .file
            .write_all(&record)
            .and_then(|()| {
                if self.fsync {
                    self.file.sync_all()
                } else {
                    Ok(())
                }
            })
            .and_then(|()| self.file.stream_position())
            .map_err(|e| {
                io_err("appending to store log", &e).with_file(self.log_path.display().to_string())
            })?;
        let len = record.len() as u64;
        self.index.insert(
            fingerprint,
            RecordSpan {
                offset: end - len,
                len,
            },
        );
        self.log_len = self.log_len.max(end);
        self.snapshot_index()
    }

    /// Re-reads the latest record of `fingerprint` at its indexed span;
    /// `None` when the log holds none. The span must hold exactly one
    /// record, carrying that fingerprint, the body lines and checksum
    /// its header declares, and a body that parses — the checks the open
    /// scan makes. A record that fails any of these, or cannot be read,
    /// is an error, and its index entry goes, so the next append of the
    /// fingerprint writes it anew.
    pub fn read(&mut self, fingerprint: u64) -> Option<Result<StoredReport, StatimError>> {
        let span = *self.index.get(&fingerprint)?;
        let read = self.read_span(fingerprint, span).map_err(|e| {
            StatimError {
                message: format!(
                    "re-reading the record at byte {}: {}",
                    span.offset, e.message
                ),
                ..e
            }
            .with_file(self.log_path.display().to_string())
        });
        if read.is_err() {
            self.index.remove(&fingerprint);
        }
        Some(read)
    }

    fn read_span(
        &mut self,
        fingerprint: u64,
        span: RecordSpan,
    ) -> Result<StoredReport, StatimError> {
        let mut bytes = vec![0; span.len as usize];
        self.file
            .seek(SeekFrom::Start(span.offset))
            .and_then(|_| self.file.read_exact(&mut bytes))
            .map_err(|e| io_err("reading store log", &e))?;
        let mut lines = LogLines::new(&bytes[..]);
        match next_record(&mut lines, &mut String::new())? {
            Found::Record(found, _) if found != fingerprint => Err(parse_err(
                1,
                format!("record holds fingerprint {found:016x}, not {fingerprint:016x}"),
            )),
            Found::Record(_, report) if lines.end == span.len => Ok(report),
            Found::Record(..) => Err(parse_err(
                lines.number,
                format!(
                    "record ends after {} of its span's {} bytes",
                    lines.end, span.len
                ),
            )),
            Found::Blank | Found::End => Err(parse_err(1, "no record at the indexed span")),
        }
    }

    /// Atomically rewrites the index snapshot (tmp + rename), the PR-4
    /// checkpoint idiom: a killed process leaves the previous or the new
    /// complete snapshot, never a torn one.
    fn snapshot_index(&mut self) -> Result<(), StatimError> {
        let mut out = String::new();
        let _ = writeln!(out, "{STORE_IDX_MAGIC} v{STORE_VERSION}");
        let _ = writeln!(out, "log_len {}", self.log_len);
        let _ = writeln!(out, "records {}", self.index.len());
        let tmp = self.idx_path.with_extension("idx.tmp");
        std::fs::write(&tmp, &out)
            .and_then(|()| std::fs::rename(&tmp, &self.idx_path))
            .and_then(|()| {
                if self.fsync {
                    // Make the rename itself durable: fsync the directory
                    // so a crash cannot resurrect the old snapshot.
                    let dir = self.idx_path.parent().unwrap_or(Path::new("."));
                    std::fs::File::open(dir).and_then(|d| d.sync_all())
                } else {
                    Ok(())
                }
            })
            .map_err(|e| {
                io_err("writing store index", &e).with_file(self.idx_path.display().to_string())
            })
    }
}

/// Parses an index snapshot, returning the log byte length it records.
fn parse_index(text: &str) -> Result<u64, StatimError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty store index"))?;
    match header.strip_prefix(STORE_IDX_MAGIC) {
        None => return Err(parse_err(1, format!("not a {STORE_IDX_MAGIC} file"))),
        Some(v) if v.trim() != format!("v{STORE_VERSION}") => {
            return Err(parse_err(
                1,
                format!("unsupported index version `{}`", v.trim()),
            ));
        }
        Some(_) => {}
    }
    let (i, len_line) = lines
        .next()
        .ok_or_else(|| parse_err(1, "index missing log_len"))?;
    len_line
        .strip_prefix("log_len ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| parse_err(i + 1, "expected `log_len <bytes>`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SstaConfig, SstaEngine};
    use crate::report::deterministic_report;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::{Placement, PlacementStyle};

    /// [`scan_log`] over a whole log, refusing it at its first
    /// violation: the records in append order.
    fn parse_log(text: &str) -> Result<Vec<(u64, StoredReport)>, StatimError> {
        let mut records = Vec::new();
        let scan = scan_log(text.as_bytes(), |fp, report| records.push((fp, report)))?;
        scan.error.map_or(Ok(records), Err)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("statim-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn clean_report() -> SstaReport {
        let circuit = iscas85::generate(Benchmark::C432);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let mut config = SstaConfig::date05();
        config.quality_intra = 40;
        config.quality_inter = 20;
        SstaEngine::new(config)
            .run(&circuit, &placement)
            .expect("clean run")
    }

    /// The `write!` renderer records were made with before they were
    /// written straight into bytes: the reference every record must
    /// still match byte for byte.
    fn reference_record(r: &StoredReport, fingerprint: u64) -> String {
        let mut body = String::new();
        let _ = writeln!(
            body,
            "circuit {} {} {} {}",
            r.gate_count,
            r.label_sweeps,
            r.paths.len(),
            r.circuit
        );
        let _ = writeln!(
            body,
            "scalars {:016x} {:016x} {:016x} {:016x} {:016x}",
            r.det_critical_delay.to_bits(),
            r.worst_case_delay.to_bits(),
            r.overestimation_pct.to_bits(),
            r.confidence.to_bits(),
            r.sigma_c.to_bits()
        );
        for p in &r.paths {
            let _ = write!(
                body,
                "path {} {} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} gates",
                p.det_rank,
                p.prob_rank,
                p.det_delay.to_bits(),
                p.worst_case.to_bits(),
                p.mean.to_bits(),
                p.sigma.to_bits(),
                p.inter_sigma.to_bits(),
                p.intra_sigma.to_bits(),
                p.confidence_point.to_bits()
            );
            for g in &p.gates {
                let _ = write!(body, " {g}");
            }
            body.push('\n');
        }
        let nlines = body.lines().count();
        let checksum = fnv1a(0, body.as_bytes());
        format!("record {fingerprint:016x} {nlines} {checksum:016x}\n{body}")
    }

    #[test]
    fn records_render_byte_identically_to_the_write_renderer() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        let odd_path = |det_rank, gates: Vec<u32>| StoredPath {
            det_rank,
            prob_rank: usize::MAX,
            det_delay: -1.5e-9,
            worst_case: 0.0,
            mean: -0.0,
            sigma: subnormal,
            inter_sigma: -subnormal,
            intra_sigma: f64::from_bits(1),
            confidence_point: f64::MAX,
            gates,
        };
        let empty = StoredReport {
            circuit: "empty".into(),
            gate_count: 0,
            label_sweeps: 0,
            det_critical_delay: 0.0,
            worst_case_delay: -0.0,
            overestimation_pct: -12.5,
            confidence: subnormal,
            sigma_c: f64::MIN,
            paths: Vec::new(),
        };
        let odd = StoredReport {
            circuit: "c432 odd".into(),
            gate_count: usize::MAX,
            label_sweeps: 10,
            paths: vec![
                odd_path(1, vec![0, u32::MAX, 7, u32::MAX]),
                odd_path(2, Vec::new()),
                odd_path(1_000_000, vec![u32::MAX]),
            ],
            ..empty.clone()
        };
        let clean = StoredReport::from_report(&clean_report());
        for (report, fp) in [
            (&empty, 0),
            (&odd, u64::MAX),
            (&clean, 0x0123_4567_89ab_cdef),
        ] {
            let rendered = report.render_record(fp);
            assert_eq!(rendered, reference_record(report, fp), "{}", report.circuit);
            let log = format!("{STORE_MAGIC} v{STORE_VERSION}\n{rendered}");
            assert_eq!(parse_log(&log).expect("parses"), vec![(fp, report.clone())]);
        }
    }

    #[test]
    fn indexed_records_re_read_and_damaged_ones_leave_the_index() {
        let dir = tmp_dir("reread");
        let stored = StoredReport::from_report(&clean_report());
        let other = StoredReport {
            circuit: "other".into(),
            paths: stored.paths[..1].to_vec(),
            ..stored.clone()
        };
        {
            let (mut log, _) = ResultLog::open(&dir).expect("open fresh");
            log.append(1, &stored).expect("append");
            log.append(2, &other).expect("append");
            assert_eq!(log.read(1).expect("indexed").expect("re-reads"), stored);
            assert_eq!(log.read(2).expect("indexed").expect("re-reads"), other);
            assert!(log.read(3).is_none(), "never appended");
        }
        // Reopened, the scan indexes every record where the appends put it.
        let (mut log, loaded) = ResultLog::open(&dir).expect("reopen");
        assert_eq!(loaded.len(), 2);
        assert_eq!(log.read(2).expect("indexed").expect("re-reads"), other);
        assert_eq!(log.read(1).expect("indexed").expect("re-reads"), stored);

        // One byte changed inside record 1's body: the re-read fails
        // typed, the index forgets the record, and the next append of
        // the fingerprint writes it anew.
        let log_path = dir.join(LOG_NAME);
        let text = std::fs::read_to_string(&log_path).expect("read log");
        let at = text.find("scalars ").expect("record 1 body") + "scalars ".len();
        let flipped = if text.as_bytes()[at] == b'0' {
            b"1"
        } else {
            b"0"
        };
        {
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .open(&log_path)
                .expect("open for the overwrite");
            f.seek(SeekFrom::Start(at as u64)).expect("seek");
            f.write_all(flipped).expect("overwrite one byte");
        }
        let err = log
            .read(1)
            .expect("still indexed")
            .expect_err("the checksum trips");
        assert_eq!(err.class, ErrorClass::Parse, "{err}");
        assert!(err.message.contains("checksum"), "{err}");
        assert!(log.read(1).is_none(), "a failed record leaves the index");
        assert_eq!(log.len(), 1);
        assert_eq!(log.read(2).expect("indexed").expect("untouched"), other);
        log.append(1, &stored).expect("append anew");
        assert_eq!(log.read(1).expect("indexed").expect("re-reads"), stored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_report_roundtrips_and_renders_bit_identically() {
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        let record = stored.render_record(0xDEAD_BEEF);
        let full = format!("{STORE_MAGIC} v{STORE_VERSION}\n{record}");
        let parsed = parse_log(&full).expect("rendered record parses");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 0xDEAD_BEEF);
        assert_eq!(parsed[0].1, stored);
        // The reconstructed report serves the exact bytes, at any limit.
        let rebuilt = parsed[0].1.clone().into_report();
        for limit in [1, 5, usize::MAX] {
            assert_eq!(
                deterministic_report(&rebuilt, limit),
                deterministic_report(&report, limit),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn log_append_and_reopen_replays_records() {
        let dir = tmp_dir("reopen");
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        {
            let (mut log, loaded) = ResultLog::open(&dir).expect("open fresh");
            assert!(loaded.is_empty());
            log.append(7, &stored).expect("append");
            log.append(7, &stored).expect("duplicate append is a no-op");
            assert_eq!(log.len(), 1);
        }
        let (log, loaded) = ResultLog::open(&dir).expect("reopen");
        assert_eq!(log.len(), 1);
        assert_eq!(loaded, vec![(7, stored)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_snapshot_size_does_not_grow_with_the_record_count() {
        let dir = tmp_dir("idxsize");
        let stored = StoredReport::from_report(&clean_report());
        let idx_path = dir.join(IDX_NAME);
        let (mut log, _) = ResultLog::open(&dir).expect("open fresh");
        let idx_len = || std::fs::metadata(&idx_path).expect("index").len();
        log.append(1, &stored).expect("append");
        let one = idx_len();
        // Nine more records; the log's byte length gains digits but the
        // index gains no line per record.
        for fp in 2..=10 {
            log.append(fp, &stored).expect("append");
        }
        assert_eq!(log.len(), 10);
        assert!(idx_len() <= one + 2, "index {} vs {one} bytes", idx_len());
        let text = std::fs::read_to_string(&idx_path).expect("read index");
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.ends_with("records 10\n"), "{text}");
        drop(log);

        // An index in the older layout, listing every fingerprint, still
        // opens: only the header and `log_len` are read.
        let legacy: String = text
            .lines()
            .map(|l| format!("{l}\n"))
            .chain((1..=10u64).map(|fp| format!("fp {fp:016x}\n")))
            .collect();
        std::fs::write(&idx_path, legacy).expect("write legacy index");
        let (log, loaded) = ResultLog::open(&dir).expect("legacy index opens");
        assert_eq!((log.len(), loaded.len()), (10, 10));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_logs_fail_with_typed_parse_errors() {
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        let good = format!(
            "{STORE_MAGIC} v{STORE_VERSION}\n{}",
            stored.render_record(3)
        );
        assert!(parse_log(&good).is_ok());

        // Each mutation must fail Parse-classed, never panic.
        let cases: Vec<(String, &str)> = vec![
            ("".into(), "empty"),
            ("statim-stor v1\n".into(), "bad magic"),
            (format!("{STORE_MAGIC} v9\n"), "bad version"),
            (good.replace("record ", "rekord "), "bad record header"),
            (
                good.lines().take(3).collect::<Vec<_>>().join("\n") + "\n",
                "truncated record",
            ),
            (good.replace("scalars ", "scalars zz"), "checksum trips"),
        ];
        for (text, what) in cases {
            let err = parse_log(&text).expect_err(what);
            assert_eq!(err.class, ErrorClass::Parse, "{what}: {err}");
            assert!(err.line.is_some(), "{what}: wants a line number");
        }
    }

    #[test]
    fn truncated_log_below_snapshot_is_detected_on_open() {
        let dir = tmp_dir("truncate");
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        {
            let (mut log, _) = ResultLog::open(&dir).expect("open");
            log.append(1, &stored).expect("append");
        }
        // Chop the tail off the log: record-granular parsing alone would
        // also catch a mid-record cut, but the snapshot check catches
        // even a cut at a record boundary.
        let log_path = dir.join(LOG_NAME);
        let text = std::fs::read_to_string(&log_path).expect("read log");
        let header_only: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        std::fs::write(&log_path, header_only).expect("truncate");
        let err = ResultLog::open(&dir).expect_err("truncation detected");
        assert_eq!(err.class, ErrorClass::Parse);
        assert!(err.message.contains("truncated"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_record_is_truncated_away_on_open() {
        let dir = tmp_dir("torn");
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        {
            let (mut log, _) = ResultLog::open(&dir).expect("open");
            log.append(1, &stored).expect("append");
        }
        // Simulate a crash mid-append: a second record goes out but only
        // partially reaches disk. The snapshot still records the
        // one-record length, so everything past it is fair game.
        let log_path = dir.join(LOG_NAME);
        let clean_len = std::fs::metadata(&log_path).expect("meta").len();
        let record = stored.render_record(2);
        let torn = &record.as_bytes()[..record.len() - 7];
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&log_path)
                .expect("append-open");
            f.write_all(torn).expect("write torn tail");
        }
        let (log, loaded) = ResultLog::open(&dir).expect("recovers from torn tail");
        assert_eq!(log.recovered_bytes(), torn.len() as u64);
        assert_eq!(loaded, vec![(1, stored.clone())]);
        assert_eq!(
            std::fs::metadata(&log_path).expect("meta").len(),
            clean_len,
            "log truncated back to the last clean boundary"
        );
        // And the recovered store accepts new appends cleanly.
        let (mut log, _) = ResultLog::open(&dir).expect("reopen clean");
        assert_eq!(log.recovered_bytes(), 0);
        log.append(2, &stored).expect("append after recovery");
        let (_, loaded) = ResultLog::open(&dir).expect("reopen");
        assert_eq!(loaded.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `.bench` file stems name circuits, so a record may hold a
    /// non-ASCII name; a torn tail can end inside one of its characters.
    #[test]
    fn a_torn_tail_cut_inside_a_non_ascii_name_is_judged_by_its_bytes() {
        let dir = tmp_dir("torn-utf8");
        let stored = StoredReport::from_report(&clean_report());
        {
            let (mut log, _) = ResultLog::open(&dir).expect("open");
            log.append(1, &stored).expect("append");
        }
        let log_path = dir.join(LOG_NAME);
        let clean = std::fs::read(&log_path).expect("read log");
        let record = StoredReport {
            circuit: "ç432".into(),
            ..stored.clone()
        }
        .render_record(2);
        // Cut after the first of `ç`'s two bytes.
        let cut = record.find('ç').expect("the name is in the record") + 1;
        let torn = [&clean[..], &record.as_bytes()[..cut]].concat();
        std::fs::write(&log_path, &torn).expect("write torn tail");
        let (log, loaded) = ResultLog::open(&dir).expect("an unacknowledged tail is recovered");
        assert_eq!(log.recovered_bytes(), cut as u64);
        assert_eq!(loaded, vec![(1, stored)]);
        assert_eq!(std::fs::read(&log_path).expect("read log"), clean);
        drop(log);

        // The same bytes under a snapshot that acknowledges them are
        // lost data, never truncated away.
        std::fs::write(&log_path, &torn).expect("write torn tail");
        std::fs::write(
            dir.join(IDX_NAME),
            format!(
                "{STORE_IDX_MAGIC} v{STORE_VERSION}\nlog_len {}\nrecords 2\n",
                torn.len()
            ),
        )
        .expect("write snapshot");
        let err = ResultLog::open(&dir).expect_err("acknowledged damage is fatal");
        assert_eq!(err.class, ErrorClass::Parse, "{err}");
        assert!(err.message.contains("truncated record"), "{err}");
        assert_eq!(std::fs::read(&log_path).expect("read log"), torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_utf8_inside_an_acknowledged_record_names_its_line() {
        let dir = tmp_dir("bad-utf8");
        let stored = StoredReport::from_report(&clean_report());
        {
            let (mut log, _) = ResultLog::open(&dir).expect("open");
            log.append(1, &stored).expect("append");
            let named = StoredReport {
                circuit: "ç432".into(),
                ..stored.clone()
            };
            log.append(2, &named).expect("append");
        }
        // `ç`'s second byte becomes one no UTF-8 sequence continues
        // with; the log keeps its length, so the snapshot covers it.
        let log_path = dir.join(LOG_NAME);
        let mut bytes = std::fs::read(&log_path).expect("read log");
        let at = bytes
            .windows(2)
            .position(|w| w == "ç".as_bytes())
            .expect("the name is in the log");
        bytes[at + 1] = 0xff;
        std::fs::write(&log_path, &bytes).expect("write log");
        let line = 1 + bytes[..at].iter().filter(|&&b| b == b'\n').count();
        let err = ResultLog::open(&dir).expect_err("acknowledged damage is fatal");
        assert_eq!(err.class, ErrorClass::Parse, "{err}");
        assert_eq!(err.line, Some(line), "{err}");
        assert!(line > 1 && err.message.contains("UTF-8"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_log_under_a_snapshot_is_lost_data() {
        let dir = tmp_dir("missing-log");
        let stored = StoredReport::from_report(&clean_report());
        {
            let (mut log, _) = ResultLog::open(&dir).expect("open");
            log.append(1, &stored).expect("append");
        }
        let idx_path = dir.join(IDX_NAME);
        let snapshot = std::fs::read(&idx_path).expect("read index");
        std::fs::remove_file(dir.join(LOG_NAME)).expect("remove log");
        let err = ResultLog::open(&dir).expect_err("a lost log is not a fresh store");
        assert_eq!(err.class, ErrorClass::Parse, "{err}");
        assert!(err.message.contains("truncated"), "{err}");
        assert!(!dir.join(LOG_NAME).exists(), "no fresh log is written");
        assert_eq!(std::fs::read(&idx_path).expect("read index"), snapshot);
        // A directory with neither file still starts fresh.
        std::fs::remove_file(&idx_path).expect("remove index");
        let (log, loaded) = ResultLog::open(&dir).expect("a fresh store opens");
        assert!(log.is_empty() && loaded.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_below_snapshot_is_never_recovered_from() {
        let dir = tmp_dir("deepdamage");
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        {
            let (mut log, _) = ResultLog::open(&dir).expect("open");
            log.append(1, &stored).expect("append");
        }
        // Flip bytes inside the snapshotted record: the store must
        // refuse to start rather than silently shorten acknowledged
        // history.
        let log_path = dir.join(LOG_NAME);
        let text = std::fs::read_to_string(&log_path).expect("read");
        std::fs::write(&log_path, text.replace("scalars ", "scalars zz")).expect("corrupt");
        let err = ResultLog::open(&dir).expect_err("deep corruption is fatal");
        assert_eq!(err.class, ErrorClass::Parse);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_fingerprint_keeps_latest_record_on_replay() {
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        let text = format!(
            "{STORE_MAGIC} v{STORE_VERSION}\n{}{}",
            stored.render_record(5),
            stored.render_record(5)
        );
        let records = parse_log(&text).expect("duplicate fp parses");
        assert_eq!(records.len(), 2);
        let mut map = std::collections::HashMap::new();
        for (fp, r) in records {
            map.insert(fp, r);
        }
        assert_eq!(map.len(), 1, "replay into a map keeps one entry");
    }

    #[test]
    fn scan_log_reports_exact_clean_prefix_length() {
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        let clean = format!(
            "{STORE_MAGIC} v{STORE_VERSION}\n{}",
            stored.render_record(9)
        );
        let scan = scan_log(clean.as_bytes(), |_, _| {}).expect("clean scan");
        assert!(scan.error.is_none());
        assert_eq!(scan.valid_len, clean.len() as u64);
        // Cutting at every byte of the final record must always yield a
        // clean prefix at the pre-record boundary, never a parse abort.
        let boundary = format!("{STORE_MAGIC} v{STORE_VERSION}\n").len() as u64;
        for cut in boundary as usize + 1..clean.len() - 1 {
            let scan = scan_log(&clean.as_bytes()[..cut], |_, _| {})
                .expect("scan never hard-fails past header");
            assert!(scan.error.is_some(), "cut at {cut} is torn");
            assert_eq!(scan.valid_len, boundary, "cut at {cut}");
            assert!(scan.spans.is_empty());
        }
        // A whole header without its newline is torn: nothing is clean.
        let scan = scan_log(&clean.as_bytes()[..boundary as usize - 1], |_, _| {})
            .expect("a torn header still names the store");
        assert!(scan.error.is_some() && scan.valid_len == 0);
    }

    #[test]
    fn fsync_store_appends_and_recovers_like_default() {
        let dir = tmp_dir("fsync");
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        let opts = StoreOptions { fsync: true };
        {
            let mut log = ResultLog::open_with(&dir, opts).expect("open fsync");
            log.append(11, &stored).expect("append fsync");
        }
        let mut log = ResultLog::open_with(&dir, opts).expect("reopen fsync");
        assert_eq!((log.len(), log.loaded()), (1, 1));
        assert_eq!(log.read(11).expect("indexed").expect("re-reads"), stored);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
