//! Error types for the SSTA engine.
//!
//! Two layers:
//!
//! * [`CoreError`] — the precise, matchable error enum the engine and its
//!   callers work with (wrapping [`StatsError`] / [`NetlistError`]);
//! * [`StatimError`] — the flat, classified form ([`ErrorClass`] +
//!   message + optional `file:line:col` context) that crosses the CLI
//!   boundary and feeds degraded-path reporting. Any `CoreError` converts
//!   losslessly enough for diagnosis via [`CoreError::classify`].

use crate::supervise::BudgetKind;
use statim_netlist::NetlistError;
use statim_stats::StatsError;
use std::fmt;

/// Errors produced by the statistical timing flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A numerical (PDF/grid) operation failed.
    Stats(StatsError),
    /// A netlist or placement operation failed.
    Netlist(NetlistError),
    /// The circuit has no gates or no primary outputs to time.
    EmptyCircuit,
    /// A configuration value is out of range.
    InvalidConfig {
        /// Description of the problem.
        message: String,
    },
    /// Near-critical path enumeration exceeded its budget; results would
    /// be incomplete. (The paper hits this on c6288 at C = 0.005 and
    /// lowers C; raise `max_paths` or lower `confidence` likewise.)
    PathBudgetExceeded {
        /// The configured budget.
        budget: usize,
    },
    /// A gate delay evaluated to a non-finite value (operating point
    /// outside the transistor's active region, e.g. a corner with
    /// `Vdd ≤ VT`).
    NonFiniteDelay {
        /// Index of the offending gate.
        gate: usize,
    },
    /// Every enumerated near-critical path was quarantined; there is no
    /// finite kernel left to rank, so the run cannot produce a result.
    AllPathsDegraded {
        /// Number of paths that were enumerated (and all degraded).
        total: usize,
    },
    /// A checkpoint sidecar file is corrupted or carries an unsupported
    /// format version.
    CheckpointParse {
        /// 1-based line of the offending record.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A checkpoint sidecar file could not be read or written.
    CheckpointIo {
        /// Description of the I/O failure.
        message: String,
    },
    /// A run budget tripped before *any* result was produced; there is
    /// nothing to emit even partially. (Budgets that trip mid-run yield
    /// a partial report instead of this error.)
    BudgetExhausted {
        /// The budget that tripped.
        budget: BudgetKind,
    },
    /// An ECO edit script is syntactically malformed.
    EcoParse {
        /// 1-based line of the offending statement.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A syntactically valid ECO edit cannot be applied to the circuit
    /// (unknown gate, dangling wire, cyclic add, arity clash, ...).
    EcoApply {
        /// 1-based line of the offending statement in its script.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

/// Coarse classification of a failure, for degraded-path accounting and
/// operator-facing reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Malformed input text (netlist, DEF, fault-plan spec, ...).
    Parse,
    /// A numerical kernel produced or detected a non-finite /
    /// out-of-domain value.
    Numeric,
    /// A configuration value or structural mismatch (wrong circuit,
    /// placement, settings out of range).
    Config,
    /// An exhausted budget or environment failure (I/O, path budget).
    Resource,
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorClass::Parse => "parse",
            ErrorClass::Numeric => "numeric",
            ErrorClass::Config => "config",
            ErrorClass::Resource => "resource",
        })
    }
}

impl CoreError {
    /// Classifies this error into the four-way taxonomy.
    pub fn classify(&self) -> ErrorClass {
        match self {
            CoreError::Stats(_) => ErrorClass::Numeric,
            CoreError::Netlist(e) => match e {
                NetlistError::Parse { .. }
                | NetlistError::UndefinedName { .. }
                | NetlistError::DuplicateName { .. }
                | NetlistError::ArityMismatch { .. }
                | NetlistError::DanglingSignal { .. } => ErrorClass::Parse,
                _ => ErrorClass::Config,
            },
            CoreError::EmptyCircuit | CoreError::InvalidConfig { .. } => ErrorClass::Config,
            CoreError::PathBudgetExceeded { .. } => ErrorClass::Resource,
            CoreError::NonFiniteDelay { .. } | CoreError::AllPathsDegraded { .. } => {
                ErrorClass::Numeric
            }
            CoreError::CheckpointParse { .. } => ErrorClass::Parse,
            CoreError::CheckpointIo { .. } | CoreError::BudgetExhausted { .. } => {
                ErrorClass::Resource
            }
            CoreError::EcoParse { .. } => ErrorClass::Parse,
            CoreError::EcoApply { .. } => ErrorClass::Config,
        }
    }
}

/// The flat, classified error that crosses tool boundaries: an
/// [`ErrorClass`], a human-readable message, and optional source context
/// (`file:line:col`) preserved from parser errors.
#[derive(Debug, Clone, PartialEq)]
pub struct StatimError {
    /// Coarse failure class.
    pub class: ErrorClass,
    /// Human-readable description (the wrapped error's `Display` text).
    pub message: String,
    /// Input file the error came from, when known.
    pub file: Option<String>,
    /// 1-based source line, when known.
    pub line: Option<usize>,
    /// 1-based source column, when known.
    pub col: Option<usize>,
}

impl StatimError {
    /// Builds an error from a class and message with no source context.
    pub fn new(class: ErrorClass, message: impl Into<String>) -> Self {
        StatimError {
            class,
            message: message.into(),
            file: None,
            line: None,
            col: None,
        }
    }

    /// Attaches the input file the error came from.
    #[must_use]
    pub fn with_file(mut self, path: impl Into<String>) -> Self {
        self.file = Some(path.into());
        self
    }
}

impl fmt::Display for StatimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} error", self.class)?;
        match (&self.file, self.line) {
            (Some(file), Some(line)) => {
                write!(f, " at {file}:{line}")?;
                if let Some(col) = self.col.filter(|&c| c > 0) {
                    write!(f, ":{col}")?;
                }
            }
            (Some(file), None) => write!(f, " in {file}")?,
            (None, Some(line)) => {
                write!(f, " at line {line}")?;
                if let Some(col) = self.col.filter(|&c| c > 0) {
                    write!(f, ", col {col}")?;
                }
            }
            (None, None) => {}
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for StatimError {}

impl From<CoreError> for StatimError {
    fn from(e: CoreError) -> Self {
        let class = e.classify();
        let (line, col) = match &e {
            CoreError::Netlist(ne) => match ne.location() {
                Some((l, c)) => (Some(l).filter(|&l| l > 0), Some(c).filter(|&c| c > 0)),
                None => (None, None),
            },
            CoreError::CheckpointParse { line, .. }
            | CoreError::EcoParse { line, .. }
            | CoreError::EcoApply { line, .. } => (Some(*line).filter(|&l| l > 0), None),
            _ => (None, None),
        };
        StatimError {
            class,
            message: e.to_string(),
            file: None,
            line,
            col,
        }
    }
}

impl From<NetlistError> for StatimError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e).into()
    }
}

impl From<StatsError> for StatimError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e).into()
    }
}

impl From<std::io::Error> for StatimError {
    fn from(e: std::io::Error) -> Self {
        StatimError::new(ErrorClass::Resource, e.to_string())
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Netlist(e) => write!(f, "netlist error: {e}"),
            CoreError::EmptyCircuit => write!(f, "circuit has no gates or outputs"),
            CoreError::InvalidConfig { message } => write!(f, "invalid config: {message}"),
            CoreError::PathBudgetExceeded { budget } => {
                write!(
                    f,
                    "more than {budget} near-critical paths; lower C or raise max_paths"
                )
            }
            CoreError::NonFiniteDelay { gate } => {
                write!(
                    f,
                    "gate {gate} has a non-finite delay at the requested point"
                )
            }
            CoreError::AllPathsDegraded { total } => {
                write!(
                    f,
                    "all {total} near-critical paths degraded; no finite kernel to rank"
                )
            }
            CoreError::CheckpointParse { line, message } => {
                write!(f, "checkpoint parse error at line {line}: {message}")
            }
            CoreError::CheckpointIo { message } => {
                write!(f, "checkpoint I/O error: {message}")
            }
            CoreError::BudgetExhausted { budget } => {
                write!(
                    f,
                    "{budget} budget exhausted before any result was produced"
                )
            }
            CoreError::EcoParse { line, message } => {
                write!(f, "eco script parse error at line {line}: {message}")
            }
            CoreError::EcoApply { line, message } => {
                write!(f, "eco edit at line {line} cannot be applied: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CoreError::EmptyCircuit;
        assert!(e.to_string().contains("no gates"));
        let e = CoreError::PathBudgetExceeded { budget: 10 };
        assert!(e.to_string().contains("10"));
        let e: CoreError = StatsError::ZeroMass.into();
        assert!(matches!(e, CoreError::Stats(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = CoreError::AllPathsDegraded { total: 4 };
        assert!(e.to_string().contains("all 4"));
    }

    #[test]
    fn classification_covers_all_classes() {
        assert_eq!(
            CoreError::Stats(StatsError::ZeroMass).classify(),
            ErrorClass::Numeric
        );
        assert_eq!(
            CoreError::Netlist(NetlistError::Parse {
                line: 3,
                col: 7,
                message: "bad".into(),
            })
            .classify(),
            ErrorClass::Parse
        );
        assert_eq!(
            CoreError::Netlist(NetlistError::PlacementMismatch {
                gates: 2,
                placed: 1,
            })
            .classify(),
            ErrorClass::Config
        );
        assert_eq!(CoreError::EmptyCircuit.classify(), ErrorClass::Config);
        assert_eq!(
            CoreError::PathBudgetExceeded { budget: 8 }.classify(),
            ErrorClass::Resource
        );
        assert_eq!(
            CoreError::AllPathsDegraded { total: 1 }.classify(),
            ErrorClass::Numeric
        );
        assert_eq!(
            CoreError::CheckpointParse {
                line: 3,
                message: "bad".into(),
            }
            .classify(),
            ErrorClass::Parse
        );
        assert_eq!(
            CoreError::CheckpointIo {
                message: "disk full".into(),
            }
            .classify(),
            ErrorClass::Resource
        );
        assert_eq!(
            CoreError::BudgetExhausted {
                budget: BudgetKind::Wall,
            }
            .classify(),
            ErrorClass::Resource
        );
        assert_eq!(
            CoreError::EcoParse {
                line: 2,
                message: "unknown verb".into(),
            }
            .classify(),
            ErrorClass::Parse
        );
        assert_eq!(
            CoreError::EcoApply {
                line: 2,
                message: "unknown gate".into(),
            }
            .classify(),
            ErrorClass::Config
        );
    }

    #[test]
    fn eco_errors_carry_line_into_statim_error() {
        let e: StatimError = CoreError::EcoParse {
            line: 4,
            message: "bad float".into(),
        }
        .into();
        assert_eq!(e.class, ErrorClass::Parse);
        assert_eq!(e.line, Some(4));
        assert!(e.to_string().contains("line 4"), "{e}");
        let e: StatimError = CoreError::EcoApply {
            line: 7,
            message: "gate `zz` not found".into(),
        }
        .into();
        assert_eq!(e.class, ErrorClass::Config);
        assert_eq!(e.line, Some(7));
        assert!(e.to_string().contains("cannot be applied"), "{e}");
    }

    #[test]
    fn checkpoint_parse_carries_line_into_statim_error() {
        let e: StatimError = CoreError::CheckpointParse {
            line: 5,
            message: "duplicate chunk".into(),
        }
        .into();
        assert_eq!(e.class, ErrorClass::Parse);
        assert_eq!(e.line, Some(5));
        assert!(e.to_string().contains("line 5"), "{e}");
        let b = CoreError::BudgetExhausted {
            budget: BudgetKind::McSamples,
        };
        assert!(b.to_string().contains("mc-samples budget exhausted"));
    }

    #[test]
    fn statim_error_carries_location_and_file() {
        let e: StatimError = NetlistError::Parse {
            line: 3,
            col: 7,
            message: "bad token".into(),
        }
        .into();
        assert_eq!(e.class, ErrorClass::Parse);
        assert_eq!(e.line, Some(3));
        assert_eq!(e.col, Some(7));
        let shown = e.clone().with_file("c432.bench").to_string();
        assert!(shown.contains("c432.bench:3:7"), "{shown}");
        let no_file = e.to_string();
        assert!(no_file.contains("line 3, col 7"), "{no_file}");

        let io: StatimError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(io.class, ErrorClass::Resource);
        assert!(io.to_string().starts_with("resource error"));
    }
}
