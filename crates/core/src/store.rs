//! The persistent result store: an append-only record log plus a
//! fingerprint index, so a daemon restart serves prior results
//! byte-identically and two daemons can share one store directory.
//!
//! # Why a log, not a database
//!
//! The result store only ever does two things: replay every clean
//! report at startup and append one record per newly completed job. An
//! append-only text log makes both trivially crash-safe — a record is
//! written with a single `write` on a file opened in append mode, so
//! concurrent daemons sharing the directory interleave whole records,
//! never bytes — and keeps the format inspectable with `less`.
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
//! or another daemon's append.
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
//! with the typed `Parse` error exactly as before.
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
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;
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

    /// Renders the record's body lines (no `record` header).
    fn render_body(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "circuit {} {} {} {}",
            self.gate_count,
            self.label_sweeps,
            self.paths.len(),
            self.circuit
        );
        let _ = writeln!(
            out,
            "scalars {:016x} {:016x} {:016x} {:016x} {:016x}",
            self.det_critical_delay.to_bits(),
            self.worst_case_delay.to_bits(),
            self.overestimation_pct.to_bits(),
            self.confidence.to_bits(),
            self.sigma_c.to_bits()
        );
        for p in &self.paths {
            let _ = write!(
                out,
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
                let _ = write!(out, " {g}");
            }
            out.push('\n');
        }
        out
    }

    /// Renders one complete log record: the `record` header line (with
    /// body line count and checksum) followed by the body.
    pub fn render_record(&self, fingerprint: u64) -> String {
        let body = self.render_body();
        let nlines = body.lines().count();
        let checksum = fnv1a(0, body.as_bytes());
        format!("record {fingerprint:016x} {nlines} {checksum:016x}\n{body}")
    }
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

/// The outcome of an offset-aware scan of a record log: every record in
/// the longest clean prefix, that prefix's byte length (always a record
/// boundary), and the first violation past it, if any. This is what
/// torn-tail recovery truncates against.
#[derive(Debug)]
pub struct LogScan {
    /// `(fingerprint, report)` pairs of the clean prefix, in append
    /// order (a duplicated fingerprint keeps its latest record when
    /// replayed into a map — two daemons racing the same job write
    /// identical content anyway).
    pub records: Vec<(u64, StoredReport)>,
    /// Byte length of the longest clean prefix ending at a record
    /// boundary (at minimum the header line when `error` is set).
    pub valid_len: u64,
    /// The first violation, located exactly at `valid_len`.
    pub error: Option<StatimError>,
}

/// Scans a record log, splitting it into its longest clean prefix and
/// the first violation (if any) — see [`LogScan`].
///
/// # Errors
///
/// Only for damage recovery must never paper over: an empty log, wrong
/// magic or an unsupported version. Everything downstream of a valid
/// header lands in [`LogScan::error`] instead.
pub fn scan_log(text: &str) -> Result<LogScan, StatimError> {
    // (line, byte offset of line start); terminators are stripped per
    // line but offsets keep the exact byte math truncation needs.
    let mut lines: Vec<(&str, u64)> = Vec::new();
    let mut off = 0u64;
    for seg in text.split_inclusive('\n') {
        let line = seg.strip_suffix('\n').unwrap_or(seg);
        let line = line.strip_suffix('\r').unwrap_or(line);
        lines.push((line, off));
        off += seg.len() as u64;
    }
    let total = off;
    // A final line without its `\n` is by definition torn (the writer
    // only emits whole lines): exclude it from record consumption.
    let complete = if text.ends_with('\n') || text.is_empty() {
        lines.len()
    } else {
        lines.len() - 1
    };
    let (header, _) = *lines
        .first()
        .ok_or_else(|| parse_err(1, "empty store log"))?;
    match header.strip_prefix(STORE_MAGIC) {
        None => return Err(parse_err(1, format!("not a {STORE_MAGIC} file"))),
        Some(v) if v.trim() != format!("v{STORE_VERSION}") => {
            return Err(parse_err(
                1,
                format!(
                    "unsupported store version `{}` (this build reads v{STORE_VERSION})",
                    v.trim()
                ),
            ));
        }
        Some(_) => {}
    }
    if complete == 0 {
        // The header itself has no terminator: nothing usable follows.
        return Ok(LogScan {
            records: Vec::new(),
            valid_len: 0,
            error: Some(parse_err(1, "store log header line is torn (no newline)")),
        });
    }
    let end_of = |i: usize| lines.get(i + 1).map_or(total, |&(_, o)| o);
    let mut records = Vec::new();
    let mut valid_len = end_of(0);
    let mut i = 1;
    let fail = |records: Vec<(u64, StoredReport)>, valid_len: u64, e: StatimError| {
        Ok(LogScan {
            records,
            valid_len,
            error: Some(e),
        })
    };
    while i < lines.len() {
        let (line, _) = lines[i];
        let line_no = i + 1;
        if i >= complete {
            return fail(
                records,
                valid_len,
                parse_err(line_no, "trailing line is torn (no newline)"),
            );
        }
        if line.trim().is_empty() {
            valid_len = end_of(i);
            i += 1;
            continue;
        }
        macro_rules! check {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => return fail(records, valid_len, e),
                }
            };
        }
        let rest = check!(line.strip_prefix("record ").ok_or_else(|| parse_err(
            line_no,
            format!("expected a `record` header, got `{line}`")
        )));
        let mut tok = rest.split(' ');
        let fingerprint = check!(tok
            .next()
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .ok_or_else(|| parse_err(line_no, "record fingerprint is not hex")));
        let nlines: usize = check!(tok
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_err(line_no, "record line count is not a count")));
        let checksum = check!(tok
            .next()
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .ok_or_else(|| parse_err(line_no, "record checksum is not hex")));
        if i + 1 + nlines > complete {
            return fail(
                records,
                valid_len,
                parse_err(
                    line_no,
                    format!(
                        "truncated record: declares {nlines} body lines, log ends after {}",
                        complete - i - 1
                    ),
                ),
            );
        }
        let body: Vec<&str> = lines[i + 1..i + 1 + nlines]
            .iter()
            .map(|&(l, _)| l)
            .collect();
        let mut body_bytes = String::new();
        for l in &body {
            body_bytes.push_str(l);
            body_bytes.push('\n');
        }
        let actual = fnv1a(0, body_bytes.as_bytes());
        if actual != checksum {
            return fail(
                records,
                valid_len,
                parse_err(
                    line_no,
                    format!(
                        "record checksum mismatch (declared {checksum:016x}, body hashes {actual:016x})"
                    ),
                ),
            );
        }
        let report = check!(parse_body(&body, line_no + 1));
        records.push((fingerprint, report));
        i += 1 + nlines;
        valid_len = end_of(i - 1);
    }
    Ok(LogScan {
        records,
        valid_len,
        error: None,
    })
}

/// Parses a whole record log's text into `(fingerprint, report)` pairs
/// in append order (a duplicated fingerprint keeps its latest record —
/// two daemons racing the same job write identical content anyway).
///
/// # Errors
///
/// A typed `Parse`-class [`StatimError`] with the 1-based line of the
/// first violation: wrong magic or version, a malformed header, a
/// truncated record (EOF before the declared body lines), a checksum
/// mismatch, or any corrupted body line. (This is the strict view of
/// [`scan_log`]; [`ResultLog::open`] layers torn-tail recovery on top.)
pub fn parse_log(text: &str) -> Result<Vec<(u64, StoredReport)>, StatimError> {
    let scan = scan_log(text)?;
    match scan.error {
        Some(e) => Err(e),
        None => Ok(scan.records),
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

/// The open store: the log/index paths plus the set of fingerprints
/// already on disk (appends of a known fingerprint are no-ops).
#[derive(Debug)]
pub struct ResultLog {
    log_path: PathBuf,
    idx_path: PathBuf,
    fingerprints: BTreeSet<u64>,
    log_len: u64,
    fsync: bool,
    recovered_bytes: u64,
}

impl ResultLog {
    /// Opens (creating if needed) the store in `dir` and replays its
    /// records, with default [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// `Resource`-class errors for directory/file I/O; `Parse`-class
    /// errors (with the offending line) for a corrupt log or index, or a
    /// log shorter than the index snapshot says it must be (lost bytes).
    /// A torn *trailing* record — damage entirely past the snapshot
    /// length — is not an error: it is truncated away (see the module
    /// docs on torn-tail recovery).
    pub fn open(dir: &Path) -> Result<(ResultLog, Vec<(u64, StoredReport)>), StatimError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`ResultLog::open`] with explicit [`StoreOptions`].
    ///
    /// # Errors
    ///
    /// As [`ResultLog::open`].
    pub fn open_with(
        dir: &Path,
        options: StoreOptions,
    ) -> Result<(ResultLog, Vec<(u64, StoredReport)>), StatimError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            io_err("creating store directory", &e).with_file(dir.display().to_string())
        })?;
        let log_path = dir.join(LOG_NAME);
        let idx_path = dir.join(IDX_NAME);
        let file = |p: &Path| p.display().to_string();
        if !log_path.exists() {
            let header = format!("{STORE_MAGIC} v{STORE_VERSION}\n");
            std::fs::write(&log_path, &header)
                .map_err(|e| io_err("creating store log", &e).with_file(file(&log_path)))?;
            let mut log = ResultLog {
                log_path,
                idx_path,
                fingerprints: BTreeSet::new(),
                log_len: header.len() as u64,
                fsync: options.fsync,
                recovered_bytes: 0,
            };
            log.snapshot_index()?;
            return Ok((log, Vec::new()));
        }
        let bytes = std::fs::read(&log_path)
            .map_err(|e| io_err("reading store log", &e).with_file(file(&log_path)))?;
        let mut log_len = bytes.len() as u64;
        let text = String::from_utf8(bytes).map_err(|e| {
            parse_err(1, format!("store log is not UTF-8: {e}")).with_file(file(&log_path))
        })?;
        // Truncation check against the last snapshot, before the
        // record-granular parse: losing bytes off the tail can otherwise
        // masquerade as a clean, shorter log.
        let snap_len = if idx_path.exists() {
            let idx_text = std::fs::read_to_string(&idx_path)
                .map_err(|e| io_err("reading store index", &e).with_file(file(&idx_path)))?;
            let snap_len = parse_index(&idx_text).map_err(|e| e.with_file(file(&idx_path)))?;
            if log_len < snap_len {
                return Err(parse_err(
                    1,
                    format!(
                        "store log truncated: index snapshot records {snap_len} bytes, log has {log_len}"
                    ),
                )
                .with_file(file(&log_path)));
            }
            snap_len
        } else {
            0
        };
        let scan = scan_log(&text).map_err(|e| e.with_file(file(&log_path)))?;
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
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&log_path)
                .map_err(|e| io_err("opening store log", &e).with_file(file(&log_path)))?;
            f.set_len(scan.valid_len)
                .map_err(|e| io_err("truncating torn store log", &e).with_file(file(&log_path)))?;
            if options.fsync {
                f.sync_all().map_err(|e| {
                    io_err("syncing truncated store log", &e).with_file(file(&log_path))
                })?;
            }
            log_len = scan.valid_len;
        }
        let records = scan.records;
        let fingerprints = records.iter().map(|(fp, _)| *fp).collect();
        let mut log = ResultLog {
            log_path,
            idx_path,
            fingerprints,
            log_len,
            fsync: options.fsync,
            recovered_bytes,
        };
        log.snapshot_index()?;
        Ok((log, records))
    }

    /// Bytes dropped from a torn trailing record at open time (0 for a
    /// clean log).
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered_bytes
    }

    /// Fingerprints currently on disk.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
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
        if self.fingerprints.contains(&fingerprint) {
            return Ok(());
        }
        let record = report.render_record(fingerprint);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.log_path)
            .map_err(|e| {
                io_err("opening store log", &e).with_file(self.log_path.display().to_string())
            })?;
        f.write_all(record.as_bytes())
            .and_then(|()| f.flush())
            .and_then(|()| if self.fsync { f.sync_all() } else { Ok(()) })
            .map_err(|e| {
                io_err("appending to store log", &e).with_file(self.log_path.display().to_string())
            })?;
        self.log_len += record.len() as u64;
        self.fingerprints.insert(fingerprint);
        self.snapshot_index()
    }

    /// Atomically rewrites the index snapshot (tmp + rename), the PR-4
    /// checkpoint idiom: a killed process leaves the previous or the new
    /// complete snapshot, never a torn one.
    fn snapshot_index(&mut self) -> Result<(), StatimError> {
        let mut out = String::new();
        let _ = writeln!(out, "{STORE_IDX_MAGIC} v{STORE_VERSION}");
        let _ = writeln!(out, "log_len {}", self.log_len);
        let _ = writeln!(out, "records {}", self.fingerprints.len());
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
        let scan = scan_log(&clean).expect("clean scan");
        assert!(scan.error.is_none());
        assert_eq!(scan.valid_len, clean.len() as u64);
        // Cutting at every byte of the final record must always yield a
        // clean prefix at the pre-record boundary, never a parse abort.
        let boundary = format!("{STORE_MAGIC} v{STORE_VERSION}\n").len() as u64;
        for cut in boundary as usize + 1..clean.len() - 1 {
            let scan = scan_log(&clean[..cut]).expect("scan never hard-fails past header");
            assert!(scan.error.is_some(), "cut at {cut} is torn");
            assert_eq!(scan.valid_len, boundary, "cut at {cut}");
            assert!(scan.records.is_empty());
        }
    }

    #[test]
    fn fsync_store_appends_and_recovers_like_default() {
        let dir = tmp_dir("fsync");
        let report = clean_report();
        let stored = StoredReport::from_report(&report);
        let opts = StoreOptions { fsync: true };
        {
            let (mut log, _) = ResultLog::open_with(&dir, opts).expect("open fsync");
            log.append(11, &stored).expect("append fsync");
        }
        let (log, loaded) = ResultLog::open_with(&dir, opts).expect("reopen fsync");
        assert_eq!(log.len(), 1);
        assert_eq!(loaded, vec![(11, stored)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
