//! The line-delimited wire protocol.
//!
//! # Grammar
//!
//! One request per line, ASCII, fields separated by single spaces:
//!
//! ```text
//! request  = "HELLO" SP version [SP "client=" tag]
//!          | "SUBMIT" SP source *(SP key "=" value)
//!          | "STATUS" SP job-id
//!          | "WAIT" SP job-id [SP "timeout=" ms]       ; minor >= 1
//!          | "EDIT" SP job-id SP edit-script           ; minor >= 1
//!          | "RESULT" SP job-id [SP "top=" n]
//!          | "CANCEL" SP job-id
//!          | "STATS"
//!          | "SHUTDOWN"
//! source   = "@" benchmark-name | path          ; no spaces
//! job-id   = "job-" n
//! version  = major ["." minor]                  ; missing minor = 0
//! tag      = client identity, no spaces         ; fairness lane key
//! edit-script = compact ECO form                ; no spaces:
//!               edits ";"-separated, fields ":"-separated,
//!               e.g. resize:g1:2.0;swap:g2:nor2
//! ```
//!
//! On connect the daemon sends a greeting (`STATIM/1 ready`); the first
//! request must be `HELLO 1` or `HELLO 1.<minor>` (the versioned
//! handshake) — anything else is `ERR PROTOCOL`. The daemon answers with
//! the **negotiated** minor, `min(client, daemon)`; a bare `HELLO 1`
//! negotiates minor 0 and gets the v1.0 reply `OK HELLO 1` back, so old
//! clients keep working unchanged. `WAIT` — the server-side block until
//! a job turns terminal, introduced at minor 1 so clients stop
//! busy-polling `STATUS` over TCP — is refused with `ERR PROTOCOL` on a
//! minor-0 connection; its `timeout=` expiry is `ERR PENDING` carrying
//! the job's current state. `EDIT` — also minor ≥ 1 — applies a compact
//! ECO edit script to the named job's circuit and submits the edited
//! circuit as a *new* job under the same options, re-analyzed against
//! the daemon's warm kernel store. Replies are one line, except `RESULT` and
//! `STATS` whose `OK` line carries a payload line count (`OK RESULT
//! job-3 17` means 17 payload lines follow), so a client never needs to
//! sniff for an end marker:
//!
//! ```text
//! reply    = "OK HELLO" SP version
//!          | "OK SUBMIT" SP job-id SP ("queued" | "stored")
//!          | "OK STATUS" SP job-id SP state SP "circuit=" name SP "from-store=" bit
//!          | "OK WAIT" SP job-id SP state                 ; state is terminal
//!          | "OK EDIT" SP job-id SP ("queued" | "stored") ; the NEW job's id
//!          | "OK RESULT" SP job-id SP nlines CRLF *payload-line
//!          | "OK CANCEL" SP job-id SP ("cancelled" | "cancelling")
//!          | "OK STATS" SP nlines CRLF *payload-line
//!          | "OK SHUTDOWN draining"
//!          | "ERR" SP code SP message
//! ```
//!
//! Requests may be **pipelined**: a client can write any number of
//! request lines before reading replies, and the daemon answers strictly
//! in request order (a blocking `WAIT` holds every reply behind it).
//!
//! # Overload protection
//!
//! `HELLO 1.1 client=<tag>` names the connection's fairness lane (an
//! untagged connection falls back to its peer address). A submission
//! refused by a per-client limit — the token-bucket rate or the live-job
//! cap — is answered `ERR RESOURCE retry-after=<ms> <reason>`: the
//! machine-readable retry hint is always the first token of the message,
//! so clients can back off without parsing prose. `SUBMIT ... deadline=<ms>`
//! bounds the job's time *in queue*: if the executor reaches it later,
//! the job turns terminally `expired` (reported by `STATUS`/`WAIT`, and
//! `RESULT` answers `ERR RESOURCE`) instead of running stale work.
//!
//! Error codes: the four [`ErrorClass`] classes (`PARSE`, `CONFIG`,
//! `RESOURCE`, `NUMERIC`) for failures of the job or its inputs, plus
//! service codes `BUSY` (admission control), `NOTFOUND` (unknown job, or
//! one retired from the job table — the message says which),
//! `PENDING` (result requested before the job finished), `FINISHED`
//! (cancel after completion), `PROTOCOL` (malformed request or broken
//! handshake) and `SHUTDOWN` (submission while draining).
//!
//! Both [`Request`] and [`Response`] round-trip through
//! `render`/`parse`; `tests/server.rs` asserts `parse ∘ render == id`
//! with the vendored proptest.

use statim_core::{ErrorClass, JobId, ServiceError};
use std::fmt;

/// The protocol version the daemon speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// The highest protocol *minor* this build speaks. Minor 1 adds `WAIT`
/// and pipelined submission; each connection runs at the negotiated
/// `min(client, daemon)` minor.
pub const PROTOCOL_MINOR: u32 = 1;

/// The greeting the daemon sends on connect, before any request.
pub const GREETING: &str = "STATIM/1 ready";

/// Renders `major[.minor]`, omitting a zero minor — the exact v1.0
/// spelling, so minor-0 lines are byte-identical to the old protocol.
fn render_version(version: u32, minor: u32) -> String {
    if minor == 0 {
        version.to_string()
    } else {
        format!("{version}.{minor}")
    }
}

/// Parses `major[.minor]`; a missing minor is 0.
fn parse_version(token: &str) -> Result<(u32, u32), String> {
    let bad = || format!("invalid version `{token}` (expected an integer)");
    match token.split_once('.') {
        None => Ok((token.parse().map_err(|_| bad())?, 0)),
        Some((major, minor)) => Ok((
            major.parse().map_err(|_| bad())?,
            minor.parse().map_err(|_| bad())?,
        )),
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The versioned handshake; must be the first request.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
        /// Protocol minor the client speaks (0 when absent on the wire).
        minor: u32,
        /// Self-declared client identity (`client=<tag>`), the fairness
        /// lane key. Absent on the wire → the daemon falls back to the
        /// connection's peer address.
        client: Option<String>,
    },
    /// Submit a job: a netlist source plus `key=value` options.
    Submit {
        /// `@name` for a built-in benchmark, otherwise a `.bench` path.
        source: String,
        /// Run options (`confidence=0.1 threads=4 ...`), in order.
        options: Vec<(String, String)>,
    },
    /// Poll one job's state.
    Status {
        /// The job.
        id: JobId,
    },
    /// Block server-side until the job reaches a terminal state (minor
    /// ≥ 1 connections only).
    Wait {
        /// The job.
        id: JobId,
        /// Milliseconds after which the daemon gives up with `ERR
        /// PENDING` (`None` = wait until terminal).
        timeout_ms: Option<u64>,
    },
    /// Apply a compact ECO edit script to a job's circuit and submit
    /// the edited circuit as a new job under the same options (minor
    /// ≥ 1 connections only).
    Edit {
        /// The base job whose spec is edited.
        id: JobId,
        /// The compact edit script (`;`-separated edits, `:`-separated
        /// fields — no spaces).
        script: String,
    },
    /// Fetch a finished job's report.
    Result {
        /// The job.
        id: JobId,
        /// Path-table row limit (`top=<n>`), default 10.
        top: Option<usize>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job.
        id: JobId,
    },
    /// Service-wide counters.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
}

impl Request {
    /// Renders the request as its wire line (no terminator).
    pub fn render(&self) -> String {
        match self {
            Request::Hello {
                version,
                minor,
                client,
            } => {
                let mut line = format!("HELLO {}", render_version(*version, *minor));
                if let Some(tag) = client {
                    line.push_str(" client=");
                    line.push_str(tag);
                }
                line
            }
            Request::Submit { source, options } => {
                let mut line = format!("SUBMIT {source}");
                for (k, v) in options {
                    line.push(' ');
                    line.push_str(k);
                    line.push('=');
                    line.push_str(v);
                }
                line
            }
            Request::Status { id } => format!("STATUS {id}"),
            Request::Wait {
                id,
                timeout_ms: None,
            } => format!("WAIT {id}"),
            Request::Wait {
                id,
                timeout_ms: Some(ms),
            } => format!("WAIT {id} timeout={ms}"),
            Request::Edit { id, script } => format!("EDIT {id} {script}"),
            Request::Result { id, top: None } => format!("RESULT {id}"),
            Request::Result { id, top: Some(n) } => format!("RESULT {id} top={n}"),
            Request::Cancel { id } => format!("CANCEL {id}"),
            Request::Stats => "STATS".to_string(),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violation; the daemon wraps
    /// it in `ERR PROTOCOL`.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut fields = line.split(' ');
        let verb = fields.next().unwrap_or("");
        let req = match verb {
            "HELLO" => {
                let (version, minor) = parse_version(required(&mut fields, "HELLO", "version")?)?;
                let client = match fields.next() {
                    None => None,
                    Some(opt) => {
                        let tag = opt
                            .strip_prefix("client=")
                            .ok_or_else(|| format!("unexpected HELLO option `{opt}`"))?;
                        if tag.is_empty() {
                            return Err("empty client tag in HELLO".to_string());
                        }
                        Some(tag.to_string())
                    }
                };
                Request::Hello {
                    version,
                    minor,
                    client,
                }
            }
            "SUBMIT" => {
                let source = required(&mut fields, "SUBMIT", "source")?.to_string();
                let mut options = Vec::new();
                for field in fields.by_ref() {
                    let (k, v) = field.split_once('=').ok_or_else(|| {
                        format!("malformed option `{field}` (expected key=value)")
                    })?;
                    if k.is_empty() {
                        return Err(format!("malformed option `{field}` (empty key)"));
                    }
                    options.push((k.to_string(), v.to_string()));
                }
                return Ok(Request::Submit { source, options });
            }
            "STATUS" => Request::Status {
                id: job_id(&mut fields, "STATUS")?,
            },
            "WAIT" => {
                let id = job_id(&mut fields, "WAIT")?;
                let timeout_ms = match fields.next() {
                    None => None,
                    Some(opt) => {
                        let ms = opt
                            .strip_prefix("timeout=")
                            .ok_or_else(|| format!("unexpected WAIT option `{opt}`"))?;
                        Some(ms.parse::<u64>().map_err(|_| {
                            format!("invalid timeout `{ms}` (expected milliseconds)")
                        })?)
                    }
                };
                Request::Wait { id, timeout_ms }
            }
            "EDIT" => Request::Edit {
                id: job_id(&mut fields, "EDIT")?,
                script: required(&mut fields, "EDIT", "edit script")?.to_string(),
            },
            "RESULT" => {
                let id = job_id(&mut fields, "RESULT")?;
                let top = match fields.next() {
                    None => None,
                    Some(opt) => {
                        let n = opt
                            .strip_prefix("top=")
                            .ok_or_else(|| format!("unexpected RESULT option `{opt}`"))?;
                        Some(n.parse::<usize>().map_err(|_| {
                            format!("invalid top `{n}` (expected an integer)")
                        })?)
                    }
                };
                Request::Result { id, top }
            }
            "CANCEL" => Request::Cancel {
                id: job_id(&mut fields, "CANCEL")?,
            },
            "STATS" => Request::Stats,
            "SHUTDOWN" => Request::Shutdown,
            "" => return Err("empty request".to_string()),
            other => {
                return Err(format!(
                    "unknown verb `{other}` (expected HELLO, SUBMIT, STATUS, WAIT, EDIT, RESULT, CANCEL, STATS or SHUTDOWN)"
                ))
            }
        };
        if let Some(extra) = fields.next() {
            return Err(format!("trailing field `{extra}` after {verb}"));
        }
        Ok(req)
    }
}

fn required<'a>(
    fields: &mut impl Iterator<Item = &'a str>,
    verb: &str,
    what: &str,
) -> Result<&'a str, String> {
    match fields.next() {
        Some(f) if !f.is_empty() => Ok(f),
        _ => Err(format!("{verb} needs a {what}")),
    }
}

fn job_id<'a>(fields: &mut impl Iterator<Item = &'a str>, verb: &str) -> Result<JobId, String> {
    required(fields, verb, "job id")?.parse()
}

/// A typed reply code for the `ERR` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed input text ([`ErrorClass::Parse`]).
    Parse,
    /// Bad configuration or structural mismatch ([`ErrorClass::Config`]).
    Config,
    /// Exhausted budget or environment failure
    /// ([`ErrorClass::Resource`]).
    Resource,
    /// A numerical kernel failure ([`ErrorClass::Numeric`]).
    Numeric,
    /// Admission control rejected the submission; resubmit later.
    Busy,
    /// Unknown job id.
    NotFound,
    /// The job has not reached a terminal state yet.
    Pending,
    /// Cancel arrived after the job already finished.
    Finished,
    /// Malformed request line or broken handshake.
    Protocol,
    /// The service is draining.
    Shutdown,
}

impl ErrorCode {
    /// All codes, for table-driven tests.
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::Parse,
        ErrorCode::Config,
        ErrorCode::Resource,
        ErrorCode::Numeric,
        ErrorCode::Busy,
        ErrorCode::NotFound,
        ErrorCode::Pending,
        ErrorCode::Finished,
        ErrorCode::Protocol,
        ErrorCode::Shutdown,
    ];

    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "PARSE",
            ErrorCode::Config => "CONFIG",
            ErrorCode::Resource => "RESOURCE",
            ErrorCode::Numeric => "NUMERIC",
            ErrorCode::Busy => "BUSY",
            ErrorCode::NotFound => "NOTFOUND",
            ErrorCode::Pending => "PENDING",
            ErrorCode::Finished => "FINISHED",
            ErrorCode::Protocol => "PROTOCOL",
            ErrorCode::Shutdown => "SHUTDOWN",
        }
    }

    fn from_str(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<ErrorClass> for ErrorCode {
    fn from(class: ErrorClass) -> Self {
        match class {
            ErrorClass::Parse => ErrorCode::Parse,
            ErrorClass::Config => ErrorCode::Config,
            ErrorClass::Resource => ErrorCode::Resource,
            ErrorClass::Numeric => ErrorCode::Numeric,
        }
    }
}

/// Maps a service-layer failure to its wire code and message. A
/// throttle carries its machine-readable hint as the message's first
/// token (`retry-after=<ms>`), which [`crate::ClientError::Throttled`]
/// parses back out.
pub fn error_reply(err: &ServiceError) -> Response {
    if let ServiceError::Throttled { retry_after_ms, .. } = err {
        return Response::Error {
            code: ErrorCode::Resource,
            message: format!("retry-after={retry_after_ms} {err}"),
        };
    }
    let code = match err {
        ServiceError::Busy { .. } => ErrorCode::Busy,
        ServiceError::Draining => ErrorCode::Shutdown,
        ServiceError::UnknownJob(_) | ServiceError::Retired(_) => ErrorCode::NotFound,
        ServiceError::NotFinished { .. } => ErrorCode::Pending,
        ServiceError::AlreadyFinished { .. } => ErrorCode::Finished,
        ServiceError::JobFailed { error, .. } => ErrorCode::from(error.class),
        ServiceError::Throttled { .. } => unreachable!("handled above"),
    };
    Response::Error {
        code,
        message: err.to_string(),
    }
}

/// A parsed daemon reply (the header line; `Result`/`Stats` payload
/// lines follow separately, counted by the header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    Hello {
        /// Protocol version the daemon speaks.
        version: u32,
        /// Negotiated minor: `min(client, daemon)`; this connection's
        /// feature level.
        minor: u32,
    },
    /// Submission accepted.
    Submitted {
        /// The assigned job.
        id: JobId,
        /// Whether the result store answered directly.
        from_store: bool,
    },
    /// One job's state.
    Status {
        /// The job.
        id: JobId,
        /// Its lifecycle state (`queued`, `running`, `done`, ...).
        state: String,
        /// Circuit name.
        circuit: String,
        /// Whether the result came from the result store.
        from_store: bool,
    },
    /// A `WAIT` completed: the job reached a terminal state.
    Waited {
        /// The job.
        id: JobId,
        /// The terminal state (`done`, `degraded`, `failed`,
        /// `cancelled`).
        state: String,
    },
    /// An `EDIT` was accepted: the edited circuit runs as a new job.
    Edited {
        /// The **new** job's id.
        id: JobId,
        /// Whether the result store answered the edited spec directly.
        from_store: bool,
    },
    /// Report header; `lines` payload lines follow.
    Result {
        /// The job.
        id: JobId,
        /// Number of payload lines that follow.
        lines: usize,
    },
    /// Cancel acknowledged.
    Cancelled {
        /// The job.
        id: JobId,
        /// `true` when the job was still queued (terminal immediately);
        /// `false` when a running job's token was tripped.
        immediate: bool,
    },
    /// Stats header; `lines` payload lines follow.
    Stats {
        /// Number of payload lines that follow.
        lines: usize,
    },
    /// Drain started.
    ShuttingDown,
    /// A typed failure.
    Error {
        /// The wire code.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// Renders the reply header as its wire line (no terminator).
    pub fn render(&self) -> String {
        match self {
            Response::Hello { version, minor } => {
                format!("OK HELLO {}", render_version(*version, *minor))
            }
            Response::Submitted { id, from_store } => {
                let how = if *from_store { "stored" } else { "queued" };
                format!("OK SUBMIT {id} {how}")
            }
            Response::Status {
                id,
                state,
                circuit,
                from_store,
            } => format!(
                "OK STATUS {id} {state} circuit={circuit} from-store={}",
                u8::from(*from_store)
            ),
            Response::Waited { id, state } => format!("OK WAIT {id} {state}"),
            Response::Edited { id, from_store } => {
                let how = if *from_store { "stored" } else { "queued" };
                format!("OK EDIT {id} {how}")
            }
            Response::Result { id, lines } => format!("OK RESULT {id} {lines}"),
            Response::Cancelled { id, immediate } => {
                let how = if *immediate {
                    "cancelled"
                } else {
                    "cancelling"
                };
                format!("OK CANCEL {id} {how}")
            }
            Response::Stats { lines } => format!("OK STATS {lines}"),
            Response::ShuttingDown => "OK SHUTDOWN draining".to_string(),
            Response::Error { code, message } => format!("ERR {code} {message}"),
        }
    }

    /// Parses one reply header line.
    ///
    /// # Errors
    ///
    /// A description of the malformed line (client-side diagnostics).
    pub fn parse(line: &str) -> Result<Response, String> {
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, message) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed ERR line `{line}`"))?;
            let code =
                ErrorCode::from_str(code).ok_or_else(|| format!("unknown error code `{code}`"))?;
            return Ok(Response::Error {
                code,
                message: message.to_string(),
            });
        }
        let rest = line
            .strip_prefix("OK ")
            .ok_or_else(|| format!("malformed reply `{line}` (expected OK or ERR)"))?;
        let mut fields = rest.split(' ');
        let verb = fields.next().unwrap_or("");
        let parsed = match verb {
            "HELLO" => {
                let (version, minor) = fields
                    .next()
                    .and_then(|f| parse_version(f).ok())
                    .ok_or_else(|| format!("malformed reply `{line}`"))?;
                Response::Hello { version, minor }
            }
            "SUBMIT" => {
                let id = next_parsed(&mut fields, line)?;
                let from_store = match fields.next() {
                    Some("stored") => true,
                    Some("queued") => false,
                    _ => return Err(format!("malformed SUBMIT reply `{line}`")),
                };
                Response::Submitted { id, from_store }
            }
            "STATUS" => {
                let id = next_parsed(&mut fields, line)?;
                let state = fields
                    .next()
                    .ok_or_else(|| format!("malformed STATUS reply `{line}`"))?
                    .to_string();
                let circuit = fields
                    .next()
                    .and_then(|f| f.strip_prefix("circuit="))
                    .ok_or_else(|| format!("malformed STATUS reply `{line}`"))?
                    .to_string();
                let from_store = match fields.next().and_then(|f| f.strip_prefix("from-store=")) {
                    Some("1") => true,
                    Some("0") => false,
                    _ => return Err(format!("malformed STATUS reply `{line}`")),
                };
                Response::Status {
                    id,
                    state,
                    circuit,
                    from_store,
                }
            }
            "WAIT" => {
                let id = next_parsed(&mut fields, line)?;
                let state = fields
                    .next()
                    .ok_or_else(|| format!("malformed WAIT reply `{line}`"))?
                    .to_string();
                Response::Waited { id, state }
            }
            "EDIT" => {
                let id = next_parsed(&mut fields, line)?;
                let from_store = match fields.next() {
                    Some("stored") => true,
                    Some("queued") => false,
                    _ => return Err(format!("malformed EDIT reply `{line}`")),
                };
                Response::Edited { id, from_store }
            }
            "RESULT" => Response::Result {
                id: next_parsed(&mut fields, line)?,
                lines: next_parsed(&mut fields, line)?,
            },
            "CANCEL" => {
                let id = next_parsed(&mut fields, line)?;
                let immediate = match fields.next() {
                    Some("cancelled") => true,
                    Some("cancelling") => false,
                    _ => return Err(format!("malformed CANCEL reply `{line}`")),
                };
                Response::Cancelled { id, immediate }
            }
            "STATS" => Response::Stats {
                lines: next_parsed(&mut fields, line)?,
            },
            "SHUTDOWN" => Response::ShuttingDown,
            _ => return Err(format!("unknown reply verb in `{line}`")),
        };
        if verb == "SHUTDOWN" {
            return Ok(Response::ShuttingDown);
        }
        if let Some(extra) = fields.next() {
            return Err(format!("trailing field `{extra}` in reply `{line}`"));
        }
        Ok(parsed)
    }
}

fn next_parsed<'a, T: std::str::FromStr>(
    fields: &mut impl Iterator<Item = &'a str>,
    line: &str,
) -> Result<T, String> {
    fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("malformed reply `{line}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let line = req.render();
        assert_eq!(Request::parse(&line).expect("parses"), req, "{line}");
    }

    fn roundtrip_response(resp: Response) {
        let line = resp.render();
        assert_eq!(Response::parse(&line).expect("parses"), resp, "{line}");
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Hello {
            version: 1,
            minor: 0,
            client: None,
        });
        roundtrip_request(Request::Hello {
            version: 1,
            minor: 1,
            client: None,
        });
        roundtrip_request(Request::Hello {
            version: 1,
            minor: 1,
            client: Some("sizer-7".into()),
        });
        roundtrip_request(Request::Wait {
            id: "job-7".parse().expect("id"),
            timeout_ms: None,
        });
        roundtrip_request(Request::Wait {
            id: "job-7".parse().expect("id"),
            timeout_ms: Some(2500),
        });
        roundtrip_request(Request::Submit {
            source: "@c432".into(),
            options: vec![
                ("confidence".into(), "0.2".into()),
                ("threads".into(), "4".into()),
            ],
        });
        roundtrip_request(Request::Status {
            id: "job-7".parse().expect("id"),
        });
        roundtrip_request(Request::Result {
            id: "job-7".parse().expect("id"),
            top: Some(3),
        });
        roundtrip_request(Request::Result {
            id: "job-7".parse().expect("id"),
            top: None,
        });
        roundtrip_request(Request::Edit {
            id: "job-7".parse().expect("id"),
            script: "resize:g1:2.0;swap:g2:nor2;rmwire:g9:1".into(),
        });
        roundtrip_request(Request::Cancel {
            id: "job-0".parse().expect("id"),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn response_roundtrips() {
        let id: JobId = "job-3".parse().expect("id");
        roundtrip_response(Response::Hello {
            version: 1,
            minor: 0,
        });
        roundtrip_response(Response::Hello {
            version: 1,
            minor: 1,
        });
        roundtrip_response(Response::Waited {
            id,
            state: "done".into(),
        });
        roundtrip_response(Response::Submitted {
            id,
            from_store: true,
        });
        roundtrip_response(Response::Submitted {
            id,
            from_store: false,
        });
        roundtrip_response(Response::Status {
            id,
            state: "running".into(),
            circuit: "c432".into(),
            from_store: false,
        });
        roundtrip_response(Response::Edited {
            id,
            from_store: false,
        });
        roundtrip_response(Response::Edited {
            id,
            from_store: true,
        });
        roundtrip_response(Response::Result { id, lines: 17 });
        roundtrip_response(Response::Cancelled {
            id,
            immediate: true,
        });
        roundtrip_response(Response::Stats { lines: 12 });
        roundtrip_response(Response::ShuttingDown);
        for code in ErrorCode::ALL {
            roundtrip_response(Response::Error {
                code,
                message: "something broke here".into(),
            });
        }
    }

    #[test]
    fn malformed_requests_fail_typed() {
        for bad in [
            "",
            "FROBNICATE job-1",
            "HELLO",
            "HELLO one",
            "STATUS",
            "STATUS job-x",
            "STATUS job-1 extra",
            "SUBMIT",
            "SUBMIT @c432 noequals",
            "SUBMIT @c432 =v",
            "RESULT job-1 bottom=3",
            "RESULT job-1 top=many",
            "CANCEL jub-1",
            "HELLO 1.",
            "HELLO .1",
            "HELLO 1.x",
            "HELLO 1.1 tag=x",
            "HELLO 1.1 client=",
            "HELLO 1.1 client=a extra",
            "WAIT",
            "WAIT job-x",
            "WAIT job-1 deadline=5",
            "WAIT job-1 timeout=soon",
            "WAIT job-1 timeout=5 extra",
            "EDIT",
            "EDIT job-1",
            "EDIT job-x resize:g1:2.0",
            "EDIT job-1 resize:g1:2.0 extra",
        ] {
            assert!(Request::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn version_wire_forms_are_stable() {
        // Minor 0 renders exactly the v1.0 spelling — old peers never
        // see a dot.
        assert_eq!(
            Request::Hello {
                version: 1,
                minor: 0,
                client: None,
            }
            .render(),
            "HELLO 1"
        );
        assert_eq!(
            Response::Hello {
                version: 1,
                minor: 1
            }
            .render(),
            "OK HELLO 1.1"
        );
        // And the old spelling still parses as minor 0.
        assert_eq!(
            Request::parse("HELLO 1").expect("parses"),
            Request::Hello {
                version: 1,
                minor: 0,
                client: None,
            }
        );
        // An untagged HELLO renders byte-identically to the old wire
        // form — the tag is purely additive.
        assert_eq!(
            Request::Hello {
                version: 1,
                minor: 1,
                client: None,
            }
            .render(),
            "HELLO 1.1"
        );
    }

    #[test]
    fn throttle_errors_lead_with_the_retry_hint() {
        use statim_core::ThrottleKind;
        let err = ServiceError::Throttled {
            client: "flooder".into(),
            retry_after_ms: 500,
            kind: ThrottleKind::Rate { limit: 2 },
        };
        match error_reply(&err) {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Resource);
                assert!(
                    message.starts_with("retry-after=500 "),
                    "hint must be the first token: {message}"
                );
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn service_errors_map_to_codes() {
        use statim_core::StatimError;
        let id: JobId = "job-1".parse().expect("id");
        let cases: Vec<(ServiceError, ErrorCode)> = vec![
            (
                ServiceError::Busy {
                    queued: 4,
                    max_queue: 4,
                },
                ErrorCode::Busy,
            ),
            (ServiceError::Draining, ErrorCode::Shutdown),
            (ServiceError::UnknownJob(id), ErrorCode::NotFound),
            (ServiceError::Retired(id), ErrorCode::NotFound),
            (
                ServiceError::JobFailed {
                    id,
                    error: StatimError::new(ErrorClass::Parse, "bad netlist"),
                },
                ErrorCode::Parse,
            ),
        ];
        for (err, want) in cases {
            match error_reply(&err) {
                Response::Error { code, .. } => assert_eq!(code, want),
                other => panic!("expected Error, got {other:?}"),
            }
        }
    }
}
