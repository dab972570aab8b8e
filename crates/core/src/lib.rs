//! Path-based statistical static timing analysis with inter- and
//! intra-die variations — the methodology of Mangassarian & Anis,
//! DATE 2005.
//!
//! The flow (the paper's Fig. 1):
//!
//! 1. [`characterize()`] — one-time evaluation of every gate's nominal
//!    delay and delay gradient (the Taylor coefficients of eq. (12));
//! 2. [`longest_path`] — Bellman-Ford node labels and the deterministic
//!    critical path;
//! 3. [`analyze`] — probabilistic analysis of a path: intra-die variance
//!    by eq. (14) ([`intra`]), the non-linear inter-die delay PDF computed
//!    numerically ([`inter`]), and their convolution;
//! 4. [`enumerate`] — all near-critical paths within `C·σ_C` of the
//!    deterministic critical delay (the recursive walk of Fig. 2);
//! 5. [`rank`] — confidence-point (3σ) ranking of every analyzed path and
//!    the deterministic→probabilistic rank migration;
//! 6. [`engine`] — [`engine::SstaEngine`] ties it all together and emits a
//!    Table-2-style [`engine::SstaReport`].
//!
//! Supporting modules: [`correlation`] (the layered spatial-correlation
//! model of eqs. (6)–(7)), [`monte_carlo`] (exact non-linear validation of
//! the analytic machinery, full-chip and per-path, plus criticality),
//! [`worst_case`] (the deterministic corner analysis the paper indicts),
//! [`block_based`] (the independence-assuming baseline of its refs 3–4),
//! [`bounds`] (the CDF-bounds thread of its refs 2 and 8), [`slack`]
//! (deterministic timing reports), [`timing_yield`] (yield curves and
//! clock constraints), [`cache`] (bit-identical memoization of the
//! per-path kernels), [`supervise`] (panic isolation, deterministic
//! retry, run budgets and Monte-Carlo checkpoint/resume), [`store`]
//! (the persistent on-disk result store behind [`service`]), [`graph`]
//! (fanout adjacency and the reference fanout cone), [`incremental`]
//! (ECO edit scripts and dirty-cone incremental re-analysis),
//! [`sequential`] (register-to-register setup/hold checks), [`options`]
//! (the option table every front end sets a configuration through) and
//! [`report`] (text/CSV rendering).
//!
//! # Example
//!
//! ```
//! use statim_core::engine::{SstaConfig, SstaEngine};
//! use statim_netlist::generators::iscas85::{self, Benchmark};
//! use statim_netlist::{Placement, PlacementStyle};
//!
//! let circuit = iscas85::generate(Benchmark::C432);
//! let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
//! let engine = SstaEngine::new(SstaConfig::date05());
//! let report = engine.run(&circuit, &placement).unwrap();
//! assert!(report.overestimation_pct > 20.0); // worst-case is conservative
//! assert_eq!(report.paths[0].prob_rank, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod block_based;
pub mod bounds;
pub mod cache;
pub mod characterize;
pub mod correlation;
pub mod engine;
pub mod enumerate;
pub mod error;
#[cfg(any(test, feature = "fault-injection"))]
pub mod faults;
pub mod graph;
pub mod incremental;
pub mod inter;
pub mod intra;
pub mod longest_path;
pub mod monte_carlo;
pub mod options;
pub mod parallel;
pub mod rank;
pub mod report;
pub mod sequential;
pub mod service;
pub mod slack;
pub mod store;
pub mod supervise;
pub mod timing_yield;
pub mod worst_case;

pub use cache::{AnalysisCache, CacheStats, KernelStore};
pub use characterize::{characterize, CircuitTiming, GateTiming};
pub use correlation::{LayerModel, VarianceSplit};
pub use engine::{DegradedPath, RunContext, SstaConfig, SstaEngine, SstaReport};
pub use error::{CoreError, ErrorClass, StatimError};
#[cfg(any(test, feature = "fault-injection"))]
pub use faults::{Fault, FaultPlan};
pub use graph::TimingGraph;
pub use incremental::{
    apply_edits, EcoEdit, EcoOutcome, EcoScript, IncrementalEngine, IncrementalStats,
};
pub use options::PlacementOptions;
pub use sequential::{
    CheckKind, ClockTree, DegradedCheck, Derates, SeqYieldPoint, SequentialCheck, SequentialConfig,
    SequentialEngine, SequentialReport,
};
pub use service::{
    AnalysisService, CancelOutcome, JobId, JobReport, JobSpec, JobState, JobStatus, ServiceConfig,
    ServiceError, ServiceStats, SubmitOptions, SubmitReceipt, ThrottleKind, TickClock,
};
pub use statim_stats::ConvolveBackend;
pub use store::{ResultLog, StoreOptions, StoredPath, StoredReport};
pub use supervise::{
    BudgetKind, CancelToken, ItemOutcome, McCheckpoint, McCheckpointer, RunBudget, Supervisor,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
