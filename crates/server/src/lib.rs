//! TCP front-end for the resident analysis service — the `statim serve`
//! daemon and the `statim client` library.
//!
//! Three layers:
//!
//! * [`protocol`] — the line-delimited wire protocol (versioned
//!   handshake with minor negotiation, typed `ERR` codes, counted
//!   multi-line payloads, pipelining and server-side `WAIT`), with
//!   round-trippable [`protocol::Request`]/[`protocol::Response`] types;
//! * [`daemon`] — a std-only non-blocking readiness loop over
//!   [`statim_core::AnalysisService`]: a fixed pool of polling workers
//!   multiplexes every connection through a bounded sharded registry
//!   (entries removed on close), a single analysis executor behind a
//!   bounded queue, optional on-disk result persistence
//!   ([`statim_core::ResultLog`]), and graceful drain on `SHUTDOWN`
//!   (or the [`daemon::DaemonHandle`] test hook);
//! * [`client`] — a small blocking client used by `statim client`,
//!   tests and CI; wait via the `WAIT` verb (with a `STATUS`-polling
//!   fallback for minor-0 daemons) and pipelined `submit_batch`.
//!
//! No external dependencies: the whole stack is `std::net` + the
//! workspace crates, per the repo's no-new-deps rule.
//!
//! # Example
//!
//! ```
//! use statim_server::{client::Client, daemon};
//! use statim_core::service::ServiceConfig;
//!
//! let handle = daemon::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let (id, from_store) = client.submit("@c432", &[]).unwrap();
//! assert!(!from_store);
//! client.wait(id, std::time::Duration::from_secs(120)).unwrap();
//! let report = client.result(id, None).unwrap();
//! assert!(report.contains("circuit c432"));
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(any(test, feature = "fault-injection"))]
pub mod chaos;
pub mod client;
pub mod daemon;
pub mod protocol;

#[cfg(any(test, feature = "fault-injection"))]
pub use chaos::{ChaosFault, ChaosPlan, ChaosProxy};
pub use client::{Client, ClientError, Reply};
pub use daemon::{spawn, spawn_tuned, DaemonHandle, DaemonOptions, DaemonTuning};
pub use protocol::{ErrorCode, Request, Response, GREETING, PROTOCOL_MINOR, PROTOCOL_VERSION};
