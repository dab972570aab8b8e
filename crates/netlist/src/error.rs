//! Error type for netlist construction, parsing and placement.

use std::fmt;

/// Errors produced while building or reading circuits.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net or instance name was declared twice.
    DuplicateName {
        /// The clashing name.
        name: String,
    },
    /// A gate was connected to a number of inputs different from its
    /// fan-in.
    ArityMismatch {
        /// Gate name.
        gate: String,
        /// Fan-in the kind requires.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// A connection referenced a signal that does not exist (or would
    /// create a cycle).
    DanglingSignal {
        /// Gate (or output) being connected.
        gate: String,
    },
    /// A `.bench` or DEF line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token (0 when unknown).
        col: usize,
        /// Description of the problem.
        message: String,
    },
    /// A referenced name was never defined.
    UndefinedName {
        /// The missing name.
        name: String,
    },
    /// A placement did not cover every gate of the circuit.
    PlacementMismatch {
        /// Gates in the circuit.
        gates: usize,
        /// Placed components.
        placed: usize,
    },
    /// An invalid configuration value (die size, seed range, …).
    InvalidConfig {
        /// Description of the problem.
        message: String,
    },
}

impl NetlistError {
    /// The source location carried by this error as `(line, col)`, both
    /// 1-based (`col` 0 when only the line is known). `None` when the
    /// variant has no positional context.
    pub fn location(&self) -> Option<(usize, usize)> {
        match self {
            NetlistError::Parse { line, col, .. } => Some((*line, *col)),
            _ => None,
        }
    }
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            NetlistError::ArityMismatch {
                gate,
                expected,
                got,
            } => {
                write!(f, "gate `{gate}` expects {expected} inputs, got {got}")
            }
            NetlistError::DanglingSignal { gate } => {
                write!(f, "`{gate}` references a signal that does not exist")
            }
            NetlistError::Parse { line, col, message } => {
                if *col > 0 {
                    write!(f, "line {line}, col {col}: {message}")
                } else {
                    write!(f, "line {line}: {message}")
                }
            }
            NetlistError::UndefinedName { name } => write!(f, "undefined name `{name}`"),
            NetlistError::PlacementMismatch { gates, placed } => {
                write!(
                    f,
                    "placement covers {placed} components but circuit has {gates} gates"
                )
            }
            NetlistError::InvalidConfig { message } => write!(f, "invalid config: {message}"),
        }
    }
}

impl std::error::Error for NetlistError {}
