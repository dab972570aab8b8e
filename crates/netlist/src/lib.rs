//! Circuit netlists, benchmark formats, placement and synthetic
//! ISCAS85-equivalent generators.
//!
//! The DATE'05 evaluation runs on the ten ISCAS85 benchmark circuits,
//! read from DEF files that also provide the gate coordinates feeding the
//! spatial-correlation model. This crate supplies all of that substrate:
//!
//! * [`circuit`] — the in-memory netlist (a DAG of gates, acyclic by
//!   construction);
//! * [`bench_format`] — the ISCAS-85 `.bench` reader/writer, so genuine
//!   benchmark files drop in when available;
//! * [`def_lite`] — a reader/writer for the DEF subset the methodology
//!   needs (DIEAREA + COMPONENTS with PLACED coordinates);
//! * [`place`] — levelized row placement assigning every gate an (x, y)
//!   on a square die, plus a seeded random placer for ablations;
//! * [`generators`] — structural generators (adders, multipliers, XOR
//!   trees, priority logic) composed into synthetic equivalents of each
//!   ISCAS85 circuit with the published gate count and character;
//! * [`stats`] — structural statistics used in reports.
//!
//! # Example
//!
//! ```
//! use statim_netlist::generators::iscas85::{self, Benchmark};
//!
//! let c = iscas85::generate(Benchmark::C432);
//! assert_eq!(c.gate_count(), 160);       // Table 2, column 2
//! assert_eq!(c.input_count(), 36);       // 27-channel interrupt controller
//! assert!(c.depth() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
pub mod circuit;
pub mod def_lite;
pub mod error;
pub mod generators;
pub mod place;
pub mod simulate;
pub mod stats;

pub use circuit::{Circuit, Gate, GateId, Signal};
pub use error::NetlistError;
pub use place::{Placement, PlacementStyle};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetlistError>;

/// 1-based column of `part` within the raw line it was sliced from, for
/// error reporting. Falls back to column 1 if `part` is not a subslice
/// of `raw` (it always is for the parsers in this crate).
pub(crate) fn col_in(raw: &str, part: &str) -> usize {
    let raw_start = raw.as_ptr() as usize;
    let part_start = part.as_ptr() as usize;
    if (raw_start..=raw_start + raw.len()).contains(&part_start) {
        part_start - raw_start + 1
    } else {
        1
    }
}
