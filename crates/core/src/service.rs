//! The resident analysis service: a job queue, a job table and a
//! fingerprint-keyed result store around the [`SstaEngine`].
//!
//! A one-shot CLI run pays the full cost of every invocation: parse the
//! netlist, warm the kernel cache, tear the pool down. A resident
//! service amortizes all of that — the [`KernelStore`] stays warm across
//! jobs, and identical re-submissions are served straight from the
//! result store without re-analysis. This module is transport-agnostic:
//! the TCP daemon in `crates/server` is one front-end; tests drive the
//! service directly.
//!
//! # Job lifecycle
//!
//! ```text
//!            ┌────────── result-store hit ──────────┐
//!            │                                      ▼
//! SUBMIT ─► Queued ─► Running ─► Done / Degraded / Failed
//!            │  │        │
//!            │  └─ deadline passed ─► Expired
//!            └── CANCEL ─┴─► Cancelled
//! ```
//!
//! * **Queued** — admitted past per-client admission control and the
//!   bounded global queue ([`ServiceError::Busy`] beyond
//!   [`ServiceConfig::max_queue`], [`ServiceError::Throttled`] beyond
//!   the per-client limits).
//! * **Running** — picked up by the single executor thread; a `CANCEL`
//!   now trips the job's [`CancelToken`](crate::supervise::CancelToken)
//!   with [`BudgetKind::Cancelled`], stopping at the next item boundary.
//! * **Done** — clean report; stored in the result store by fingerprint.
//! * **Degraded** — completed with quarantined paths or a tripped
//!   budget; the (partial) report is served but never cached.
//! * **Failed** — the engine returned an error, or the job panicked
//!   outside supervised code; the daemon keeps serving either way.
//! * **Cancelled** — cancelled while queued, or the token tripped
//!   mid-run.
//! * **Expired** — the job's queue deadline ([`SubmitOptions::deadline_ms`])
//!   passed before the executor reached it; the work was shed, never run.
//!
//! # Per-client fairness and admission
//!
//! Submissions carry a client identity ([`SubmitOptions::client`]; the
//! daemon derives it from the `HELLO` tag or the peer address). Each
//! client owns a **lane** — its own FIFO — and the executor drains lanes
//! by deterministic round-robin in client *activation order* (first
//! submission ever seen), one job per turn, so a flooder can delay its
//! own backlog but never starve another client. Admission applies, in
//! order: the token-bucket rate limit ([`ServiceConfig::rate_limit`],
//! integer milli-token arithmetic over the injected [`TickClock`] — no
//! floats, no wall-clock reads in tests), the per-client live-job cap
//! ([`ServiceConfig::max_per_client`], queued + running), and the global
//! queue bound. Every decision is a pure function of (submission order,
//! tick sequence), so the same script of submissions and ticks sheds the
//! same set at any thread count.
//!
//! # Determinism
//!
//! The result store only holds *clean* reports, and serves them keyed by
//! an FNV fingerprint over everything that determines report content:
//! the serialized netlist and placement, the kernel settings fingerprint
//! ([`settings_fingerprint`]), the confidence constant, path budget and
//! solver, and the report inputs the kernel fingerprint leaves out (the
//! technology's mobilities, widths and capacitances, the ranking
//! multiple and the intra model — folded only where they differ from
//! the paper's values, so fingerprints already in a persistent store
//! keep their values). Knobs that change wall time but never results —
//! thread count, cache, cache capacity, retry bound, run budgets — are
//! deliberately excluded, so a re-submission with a different thread
//! count still hits. A register netlist's fingerprint also leaves out
//! the confidence, path budget and solver, which the sequential flow
//! never reads (the paper's values stand in for them). Only a spec whose
//! configuration validates is looked up, so an invalid value in a field
//! the fingerprint leaves out still fails with its config error instead
//! of being served a valid run's report. A served report is the same
//! `SstaReport` (or, for circuits with registers, the same
//! `SequentialReport`) value a fresh run would produce, so its
//! deterministic rendering
//! ([`report::deterministic_report`](crate::report::deterministic_report)
//! /
//! [`report::deterministic_sequential_report`](crate::report::deterministic_sequential_report))
//! is bit-identical.
//!
//! # Warm re-analysis
//!
//! Characterization, the longest-path labels and the deterministic
//! critical path (the run's *front*) do not depend on `C`, and neither
//! does any one path's analysis: `C` only sets the enumeration threshold
//! `C·σ_C`. So for each analysis key (the netlist and every setting but
//! `C` and `max_paths`) the executor keeps the front of its first clean
//! run and its widest clean report, for the 64 most recently used keys.
//! A combinational job at any `C` then starts at σ_C, and a reuse oracle
//! hands back every path that report already analyzed, bit for bit. The
//! near-critical set at a smaller `C` is a subset of the set at a larger
//! one, so a re-analysis at a larger `C` computes only the new paths.
//! Only clean reports this executor computed seed the state: never
//! store-replayed ones, never degraded, budget-tripped or cancelled
//! runs, and never a job with a fault plan, which neither reads nor
//! seeds it.
//!
//! An `EDIT` ([`JobSpec::edited`]) makes a new netlist, so a new key.
//! When that key is cold but its base netlist's key under the EDIT's own
//! settings is warm, the job starts from the base's front, as
//! `statim eco` does: only the gates the script touched are
//! characterized again (every gate, for a rewire), the labels are
//! recomputed, and every path of the base's widest report that crosses
//! no gate whose timing bits moved is reused. An EDIT whose base is not
//! warm (evicted, replayed from the store, or never clean) runs cold.
//! Either way its clean report seeds its own key.
//!
//! # Result store
//!
//! Clean reports live in two tiers. The resident tier holds the 1024
//! most recently used ones (a hit or an insertion is a use). Behind it,
//! with a [`ServiceConfig::store_dir`], the persistent [`ResultLog`]
//! indexes every combinational record by fingerprint. A valid
//! submission whose report is indexed but not resident re-reads that
//! one record — outside the job-table lock, which is never held across
//! a log read — and is served from it; the report is resident again. A
//! record that fails its re-read is never served: its index entry goes,
//! the failure is counted, and the spec runs. What the log cannot
//! re-read (sequential reports, every report of a service without a
//! store directory, a report whose append failed) is served while
//! resident and, once evicted, runs again when resubmitted, with the
//! same bytes. At start the log checks and indexes every record but
//! none is resident: a restarted service serves each stored hit through
//! the same re-read, so its memory does not grow with the log.
//!
//! # Retirement
//!
//! Queued and running jobs are *live*: they have a table of their own
//! and never retire. A job that turns terminal moves to the finished
//! table, which keeps at most 1024; past the bound the least recently
//! used one retires. A finished job counts as used when it turns
//! terminal and on every request that names it (`STATUS`, `WAIT`,
//! `RESULT`, `CANCEL`, `EDIT`). A retired id answers
//! [`ServiceError::Retired`]; its report stays in the result store, so
//! resubmitting its spec is a hit while the store can serve it.
//!
//! The finished jobs, the resident reports and the executor's warm
//! state are each an `Lru`: a map bounded at a fixed size that evicts
//! its least recently used entry.

use crate::analyze::{IntraModel, PathAnalysis};
use crate::cache::{fold_f64, fold_u64, settings_fingerprint, CacheStats, Fnv1a, KernelStore};
use crate::engine::{
    Front, LabelSolver, RetainedPaths, RunContext, SstaConfig, SstaEngine, SstaReport,
};
use crate::error::{ErrorClass, StatimError};
use crate::incremental::{apply_edits, EcoScript, EditedFront};
use crate::sequential::{SequentialConfig, SequentialEngine, SequentialReport};
use crate::store::{ResultLog, StoreOptions, StoredReport};
use crate::supervise::{isolate, BudgetKind, RunBudget, Supervisor};
use crate::CoreError;
use statim_netlist::{bench_format, def_lite, Circuit, GateId, Placement};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// The millisecond tick source admission control reads. Production uses
/// [`TickClock::wall`] (milliseconds since service start); tests inject
/// [`TickClock::manual`] and advance it explicitly, making every
/// rate-limit and deadline decision a deterministic function of the
/// scripted tick sequence instead of the scheduler.
#[derive(Debug, Clone)]
pub enum TickClock {
    /// Real time: milliseconds elapsed since the clock was created.
    Wall(Instant),
    /// A test-controlled tick counter (milliseconds).
    Manual(Arc<AtomicU64>),
}

impl TickClock {
    /// A wall clock starting at 0 now.
    pub fn wall() -> TickClock {
        TickClock::Wall(Instant::now())
    }

    /// A manual clock plus the handle that advances it (store
    /// milliseconds with `Ordering::SeqCst`).
    pub fn manual() -> (TickClock, Arc<AtomicU64>) {
        let ticks = Arc::new(AtomicU64::new(0));
        (TickClock::Manual(Arc::clone(&ticks)), ticks)
    }

    /// Current tick, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        match self {
            TickClock::Wall(epoch) => epoch.elapsed().as_millis() as u64,
            TickClock::Manual(ticks) => ticks.load(Ordering::SeqCst),
        }
    }
}

/// Opaque job identifier, rendered and parsed as `job-<n>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl FromStr for JobId {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let digits = s.strip_prefix("job-").unwrap_or(s);
        digits
            .parse::<u64>()
            .map(JobId)
            .map_err(|_| format!("invalid job id `{s}` (expected job-<n>)"))
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for the executor.
    Queued,
    /// Being analyzed by the executor thread.
    Running,
    /// Completed cleanly; the report is in the result store.
    Done,
    /// Completed with quarantined paths or a tripped budget — the
    /// partial report is served but not cached.
    Degraded,
    /// The engine errored or the job panicked; the typed error is kept.
    Failed,
    /// Cancelled while queued, or the cancel token tripped mid-run.
    Cancelled,
    /// The queue deadline passed before the executor reached the job;
    /// the work was shed without running.
    Expired,
}

impl JobState {
    /// Whether the job can still change state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Degraded => "degraded",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        })
    }
}

/// Everything one job needs: the placed circuit and the run
/// configuration.
///
/// The netlist part is computed once: the circuit and placement sit
/// behind `Arc`s, and their content digest (FNV-1a over the `.bench`
/// text, then the DEF text) is taken at construction.
/// [`JobSpec::fingerprint`] folds the settings onto that digest, and
/// [`JobSpec::with_config`] shares all three under other settings, so a
/// front end that keeps a template spec per fixed circuit builds each
/// job without regenerating or re-serializing its netlist.
///
/// A spec [`JobSpec::edited`] derives also remembers its origin: the
/// base netlist's digest and what the script touched. The executor
/// starts such a job from the base's warm front when it has one. The
/// origin is in neither the fingerprint nor the analysis key: the
/// report is a function of the edited netlist alone, so every route to
/// one netlist shares one store entry.
#[derive(Debug, Clone)]
pub struct JobSpec {
    circuit: Arc<Circuit>,
    placement: Arc<Placement>,
    /// FNV-1a over `bench_format::write(circuit)` then
    /// `def_lite::write(circuit, placement)`.
    netlist_digest: u64,
    /// Where an edited spec came from; `None` for any other.
    origin: Option<EditOrigin>,
    /// The run configuration.
    pub config: SstaConfig,
}

/// The base an edited spec came from, and what its script changed.
#[derive(Debug, Clone)]
struct EditOrigin {
    /// The base spec's netlist digest.
    base_digest: u64,
    /// The gates the script touched, ascending.
    touched: Vec<GateId>,
    /// Whether the script moves a wire (then every gate is
    /// characterized again).
    rewires: bool,
}

impl JobSpec {
    /// Builds a job spec, digesting its netlist and placement.
    pub fn new(circuit: Circuit, placement: Placement, config: SstaConfig) -> Self {
        JobSpec {
            netlist_digest: netlist_digest(&circuit, &placement),
            circuit: Arc::new(circuit),
            placement: Arc::new(placement),
            origin: None,
            config,
        }
    }

    /// The spec an `EDIT` of this job submits: `script` applied to a
    /// clone of the circuit, under this spec's placement (shared, not
    /// copied: edits never move a gate) and configuration, its netlist
    /// digested afresh. It remembers this spec's digest and the gates the
    /// script touched, so the executor can start it from this netlist's
    /// warm front.
    ///
    /// # Errors
    ///
    /// The script's typed refusal ([`CoreError::EcoApply`] with its line,
    /// or the refusal of a sequential netlist).
    pub fn edited(&self, script: &EcoScript) -> std::result::Result<JobSpec, StatimError> {
        let mut circuit = Circuit::clone(&self.circuit);
        let touched = apply_edits(&mut circuit, script)?;
        Ok(JobSpec {
            netlist_digest: netlist_digest(&circuit, &self.placement),
            circuit: Arc::new(circuit),
            placement: Arc::clone(&self.placement),
            origin: Some(EditOrigin {
                base_digest: self.netlist_digest,
                touched,
                rewires: script.rewires(),
            }),
            config: self.config.clone(),
        })
    }

    /// The same circuit and placement (shared, not copied) under another
    /// configuration.
    pub fn with_config(&self, config: SstaConfig) -> JobSpec {
        JobSpec {
            circuit: Arc::clone(&self.circuit),
            placement: Arc::clone(&self.placement),
            netlist_digest: self.netlist_digest,
            origin: self.origin.clone(),
            config,
        }
    }

    /// The circuit to analyze.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Its placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// FNV fingerprint over everything that determines report content:
    /// serialized netlist + placement, kernel settings, confidence,
    /// enumeration budget, solver, and the report inputs the kernel
    /// settings leave out (the technology's mobilities, widths and
    /// capacitances, `sigma_rank` and the intra model). Wall-time-only
    /// knobs (threads, cache, retries, run budgets) are excluded so
    /// equivalent submissions share a result-store entry.
    ///
    /// The sequential flow reads neither the confidence, the enumeration
    /// budget nor the solver, so a register netlist folds the paper's
    /// values in their place: a resubmission at another `C` is a hit, and
    /// every sequential fingerprint keeps the value it had at the paper's
    /// settings.
    pub fn fingerprint(&self) -> u64 {
        let paper = SstaConfig::date05();
        let mut h = fold_u64(
            self.netlist_digest,
            settings_fingerprint(&self.config.tech, &self.config.settings()),
        );
        let selects = if self.circuit.is_sequential() {
            &paper
        } else {
            &self.config
        };
        h = fold_f64(h, selects.confidence);
        h = fold_u64(h, selects.max_paths as u64);
        h = fold_u64(h, solver_tag(selects.solver));
        // Folded only where they differ from the paper's values, so the
        // fingerprints of every spec that leaves them alone (all a daemon
        // can submit) keep the values persistent stores already hold.
        let defaults = extra_report_inputs(&paper);
        for (tag, (bits, default)) in extra_report_inputs(&self.config)
            .into_iter()
            .zip(defaults)
            .enumerate()
        {
            if bits != default {
                h = fold_u64(fold_u64(h, tag as u64), bits);
            }
        }
        h
    }

    /// Key of everything the front and a path's analysis read: the
    /// netlist digest, the kernel settings, every `Technology` field,
    /// `sigma_rank`, the intra model and the solver. `C` and `max_paths`
    /// stay out (they only select which paths a run enumerates), as do
    /// the wall-time-only knobs. Two specs with equal keys analyze any
    /// path they share bit for bit.
    pub(crate) fn analysis_key(&self) -> u64 {
        self.analysis_key_of(self.netlist_digest)
    }

    /// The analysis key of an edited spec's base netlist under *this*
    /// spec's settings, so the base front it finds was built under the
    /// settings this job runs with. `None` for a spec with no origin.
    fn base_analysis_key(&self) -> Option<u64> {
        let origin = self.origin.as_ref()?;
        Some(self.analysis_key_of(origin.base_digest))
    }

    fn analysis_key_of(&self, netlist_digest: u64) -> u64 {
        let mut h = fold_u64(
            netlist_digest,
            settings_fingerprint(&self.config.tech, &self.config.settings()),
        );
        for bits in extra_report_inputs(&self.config) {
            h = fold_u64(h, bits);
        }
        fold_u64(h, solver_tag(self.config.solver))
    }
}

/// FNV-1a over `bench_format::write(circuit)` then
/// `def_lite::write(circuit, placement)`, the text streamed into the
/// hash instead of rendered. The DEF part continues from the `.bench`
/// hash as [`fnv1a`] would, restarting at the offset basis if that hash
/// is 0.
fn netlist_digest(circuit: &Circuit, placement: &Placement) -> u64 {
    let mut bench = Fnv1a::new(0);
    // Writing into a hash cannot fail.
    let _ = bench_format::write_to(&mut bench, circuit);
    let mut def = Fnv1a::new(bench.0);
    let _ = def_lite::write_to(&mut def, circuit, placement);
    def.0
}

fn solver_tag(solver: LabelSolver) -> u64 {
    match solver {
        LabelSolver::BellmanFord => 0,
        LabelSolver::Topological => 1,
    }
}

/// The report inputs [`settings_fingerprint`] does not fold (it covers
/// what the kernels read): the technology's mobilities, widths and
/// capacitances, which set every gate's α/β, the ranking multiple and
/// the intra model.
fn extra_report_inputs(config: &SstaConfig) -> [u64; 9] {
    let tech = &config.tech;
    [
        tech.mu_n.to_bits(),
        tech.mu_p.to_bits(),
        tech.w_n.to_bits(),
        tech.w_p.to_bits(),
        tech.c_drain.to_bits(),
        tech.c_gate.to_bits(),
        tech.c_wire.to_bits(),
        config.sigma_rank.to_bits(),
        match config.intra_model {
            IntraModel::GaussianClosedForm => 0,
            IntraModel::Numerical => 1,
        },
    ]
}

/// A finished job's report: combinational jobs carry an [`SstaReport`],
/// sequential jobs (any circuit with registers) a [`SequentialReport`].
/// The executor dispatches on [`Circuit::is_sequential`] at run time, so
/// a `SUBMIT` line needs no flow flag — the netlist decides. Both
/// variants share the result-store path (keyed by the same spec
/// fingerprint, which covers the serialized registers and clock
/// directives), but only combinational reports are persisted to the
/// on-disk [`ResultLog`]; a sequential result is served while it is
/// resident and runs again once evicted.
#[derive(Debug, Clone)]
pub enum JobReport {
    /// A combinational SSTA report.
    Analyze(Arc<SstaReport>),
    /// A sequential setup/hold report.
    Sequential(Arc<SequentialReport>),
}

impl JobReport {
    /// The analyzed circuit's name.
    pub fn circuit(&self) -> &str {
        match self {
            JobReport::Analyze(r) => &r.circuit,
            JobReport::Sequential(r) => &r.circuit,
        }
    }

    /// Whether the run completed without quarantine, budget trips or
    /// skipped work — the result-store admission predicate.
    pub fn is_clean(&self) -> bool {
        match self {
            JobReport::Analyze(r) => r.is_clean(),
            JobReport::Sequential(r) => {
                r.degraded.is_empty() && r.budget_exhausted.is_none() && r.skipped_checks == 0
            }
        }
    }

    /// The budget that stopped the run early, if any.
    pub fn budget_exhausted(&self) -> Option<BudgetKind> {
        match self {
            JobReport::Analyze(r) => r.budget_exhausted,
            JobReport::Sequential(r) => r.budget_exhausted,
        }
    }

    /// The deterministic rendering a front-end serves for `RESULT` — the
    /// same bytes the CLI prints (minus its wall-clock run-time line).
    pub fn deterministic_text(&self, top: usize) -> String {
        match self {
            JobReport::Analyze(r) => crate::report::deterministic_report(r, top),
            JobReport::Sequential(r) => crate::report::deterministic_sequential_report(r, top),
        }
    }

    /// The combinational report, when this is one.
    pub fn as_analyze(&self) -> Option<&Arc<SstaReport>> {
        match self {
            JobReport::Analyze(r) => Some(r),
            JobReport::Sequential(_) => None,
        }
    }
}

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum queued (not yet running) jobs; submissions beyond this
    /// are rejected with [`ServiceError::Busy`].
    pub max_queue: usize,
    /// Budget applied to jobs that did not set one of their own
    /// (protection against a single job hogging the daemon forever).
    pub default_budget: RunBudget,
    /// Kernel-store entry cap (`None` = unbounded) — a resident process
    /// must not grow without limit.
    pub cache_capacity: Option<usize>,
    /// Convolution backend applied to jobs that did not pick one at
    /// submit time (`backend=` overrides per job).
    pub default_backend: statim_stats::ConvolveBackend,
    /// Directory for the persistent result store ([`ResultLog`]). `None`
    /// keeps results in memory only, the most recently used 1024 of
    /// them; with a directory, clean combinational reports are appended
    /// to the on-disk log as they complete, re-read from it once they are
    /// no longer resident, and indexed again on the next start, so a
    /// restarted service serves them byte-identically. Two services may
    /// share one directory.
    pub store_dir: Option<PathBuf>,
    /// fsync the result log after every append (and the directory after
    /// every index rename) — durability against power loss at the cost
    /// of append latency. `false` keeps the PR-7 flush-only behavior.
    pub store_fsync: bool,
    /// Most live (queued + running) jobs one client may own; submissions
    /// beyond this are [`ServiceError::Throttled`]. `None` = unlimited.
    pub max_per_client: Option<usize>,
    /// Per-client token-bucket rate limit in jobs per second (burst of
    /// one second's worth); over-rate submissions are
    /// [`ServiceError::Throttled`] with a computed `retry-after`.
    /// `None` = unlimited; zero is refused at start.
    pub rate_limit: Option<u32>,
    /// The tick source admission control and queue deadlines read.
    pub clock: TickClock,
}

impl ServiceConfig {
    /// Refuses the settings a service would otherwise round up into
    /// something nobody asked for: a zero kernel-cache capacity (one
    /// entry per shard) or a zero rate limit (one job per second).
    ///
    /// # Errors
    ///
    /// A `Config`-class error naming the setting.
    pub fn validate(&self) -> std::result::Result<(), StatimError> {
        crate::engine::check_cache_capacity(self.cache_capacity)?;
        if self.rate_limit == Some(0) {
            return Err(StatimError::new(
                ErrorClass::Config,
                "rate limit must be positive (omit to leave unlimited)",
            ));
        }
        Ok(())
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_queue: 16,
            default_budget: RunBudget::none(),
            cache_capacity: None,
            default_backend: statim_stats::ConvolveBackend::Grid,
            store_dir: None,
            store_fsync: false,
            max_per_client: None,
            rate_limit: None,
            clock: TickClock::wall(),
        }
    }
}

/// Which per-client admission limit a submission tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleKind {
    /// The token bucket is empty ([`ServiceConfig::rate_limit`]).
    Rate {
        /// The configured limit, jobs per second.
        limit: u32,
    },
    /// The client is at its live-job cap
    /// ([`ServiceConfig::max_per_client`]).
    PerClient {
        /// Live (queued + running) jobs the client owns.
        active: usize,
        /// The configured cap.
        max: usize,
    },
}

/// Why a service request could not be satisfied.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The queue is full; resubmit later.
    Busy {
        /// Jobs currently queued.
        queued: usize,
        /// The admission limit.
        max_queue: usize,
    },
    /// The client exceeded one of its admission limits; resubmit no
    /// sooner than `retry_after_ms` from now.
    Throttled {
        /// The client identity that tripped the limit.
        client: String,
        /// Deterministic retry hint, milliseconds (for a rate trip,
        /// exactly when the bucket refills one job's worth).
        retry_after_ms: u64,
        /// Which limit tripped.
        kind: ThrottleKind,
    },
    /// The service is draining after a shutdown request.
    Draining,
    /// No such job: the id was never issued.
    UnknownJob(JobId),
    /// The job finished and then retired from the job table, which keeps
    /// only the most recently used terminal jobs. Its result-store entry
    /// (if it finished clean) does not retire with it: resubmitting its
    /// spec is a hit while the store can serve it.
    Retired(JobId),
    /// The job has not reached a terminal state yet.
    NotFinished {
        /// The job.
        id: JobId,
        /// Its current state.
        state: JobState,
    },
    /// A cancel arrived after the job already reached a terminal state.
    AlreadyFinished {
        /// The job.
        id: JobId,
        /// Its terminal state.
        state: JobState,
    },
    /// The job itself failed (or was cancelled); the typed error is the
    /// one its run produced.
    JobFailed {
        /// The job.
        id: JobId,
        /// The run's error.
        error: StatimError,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy { queued, max_queue } => {
                write!(f, "queue full ({queued} of {max_queue}); resubmit later")
            }
            ServiceError::Throttled {
                client,
                retry_after_ms,
                kind,
            } => match kind {
                ThrottleKind::Rate { limit } => write!(
                    f,
                    "client {client} over its rate limit ({limit} jobs/s); \
                     retry in {retry_after_ms} ms"
                ),
                ThrottleKind::PerClient { active, max } => write!(
                    f,
                    "client {client} at its live-job cap ({active} of {max}); \
                     retry in {retry_after_ms} ms"
                ),
            },
            ServiceError::Draining => write!(f, "service is draining; no new jobs accepted"),
            ServiceError::UnknownJob(id) => write!(f, "unknown job {id}"),
            ServiceError::Retired(id) => write!(
                f,
                "{id} retired: the job table keeps only the {RETAINED_JOBS} most recently \
                 used finished jobs (resubmitting its spec serves a clean result from the \
                 result store)"
            ),
            ServiceError::NotFinished { id, state } => {
                write!(f, "{id} is still {state}; poll STATUS until it finishes")
            }
            ServiceError::AlreadyFinished { id, state } => {
                write!(f, "{id} already finished ({state}); nothing to cancel")
            }
            ServiceError::JobFailed { id, error } => write!(f, "{id} failed: {error}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-submission admission parameters (who is asking, and how long the
/// work may sit in the queue).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Client identity for fairness and admission accounting. `None`
    /// lands in the shared anonymous lane (`""`).
    pub client: Option<String>,
    /// Queue deadline, milliseconds from submission (tick clock). If the
    /// executor reaches the job later than this, the job turns
    /// [`JobState::Expired`] instead of running.
    pub deadline_ms: Option<u64>,
}

impl SubmitOptions {
    /// Options for a named client with no deadline.
    pub fn for_client(client: impl Into<String>) -> SubmitOptions {
        SubmitOptions {
            client: Some(client.into()),
            deadline_ms: None,
        }
    }
}

/// Receipt for an accepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// The assigned job id.
    pub id: JobId,
    /// Whether the job was answered from the result store (already
    /// terminal — no analysis will run).
    pub from_store: bool,
}

/// How a cancel request landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now terminally cancelled.
    Immediate,
    /// The job is running; its cancel token tripped and the run stops at
    /// the next item boundary.
    Requested,
}

/// Point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job.
    pub id: JobId,
    /// Current state.
    pub state: JobState,
    /// Circuit name, for humans.
    pub circuit: String,
    /// The job's result-store fingerprint.
    pub fingerprint: u64,
    /// Whether the result came from the result store.
    pub from_store: bool,
    /// The failure, for Failed/Cancelled jobs.
    pub error: Option<StatimError>,
}

/// Service-wide counters, served by `STATS`.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs accepted (including result-store hits).
    pub submitted: u64,
    /// Jobs completed cleanly (Done).
    pub completed: u64,
    /// Jobs completed partially (Degraded).
    pub degraded: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Submissions answered from the result store.
    pub store_hits: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Submissions refused by a per-client limit (rate or live-job cap).
    pub throttled: u64,
    /// Jobs shed because their queue deadline passed before execution.
    pub expired: u64,
    /// Distinct client lanes seen since start.
    pub clients: usize,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently running (0 or 1 — single executor).
    pub running: usize,
    /// Distinct reports the result store can serve: every one the
    /// persistent log indexes, plus the resident ones it does not hold.
    pub store_entries: usize,
    /// Reports held in memory, at most the result store's bound of
    /// 1024. None at start: a stored report is resident from its first
    /// hit on.
    pub store_resident: usize,
    /// Records the scan of the persistent store log accepted at start,
    /// duplicates included (checked and indexed, none kept resident).
    pub store_loaded: usize,
    /// Submissions served by re-reading a record from the log: one that
    /// was evicted, or not yet resident since the start.
    pub store_rereads: u64,
    /// Re-reads that failed (the record changed or went missing on
    /// disk): its index entry was dropped and the spec ran instead.
    pub store_read_errors: u64,
    /// Failed persistent-store appends (the report is still served while
    /// resident; once evicted, its spec runs again).
    pub store_write_errors: u64,
    /// Jobs that started from a warm front: a re-analysis of a netlist
    /// and settings the executor already ran cleanly, or an `EDIT` whose
    /// base netlist it ran cleanly under the job's settings.
    pub warm_runs: u64,
    /// Path analyses a warm job took instead of computing them: from the
    /// widest clean report of its netlist and settings, or, for an
    /// `EDIT`, from its base's, when the path crosses no gate the edit
    /// moved.
    pub reused_paths: u64,
    /// Finished jobs retired from the job table past its bound.
    pub retired_jobs: u64,
    /// Kernel-store counters (process lifetime).
    pub cache: CacheStats,
}

/// A queued or running job. Live jobs never retire.
struct LiveJob {
    /// Shared with the executor while running, and kept once finished.
    spec: Arc<JobSpec>,
    fingerprint: u64,
    /// The lane this job was admitted under (`""` = anonymous).
    client: String,
    /// Absolute queue deadline on the tick clock, when one was set.
    deadline_at_ms: Option<u64>,
    /// Present while running, so `cancel` can reach the token.
    supervisor: Option<Arc<Supervisor>>,
}

impl LiveJob {
    fn state(&self) -> JobState {
        if self.supervisor.is_some() {
            JobState::Running
        } else {
            JobState::Queued
        }
    }
}

/// A job in a terminal state: `Done` and `Degraded` carry their report,
/// `Failed`, `Cancelled` and `Expired` the typed error.
struct FinishedJob {
    /// Retained until the job retires, so `EDIT` can derive a new spec
    /// from any base job — including store-served and cancelled ones.
    spec: Arc<JobSpec>,
    fingerprint: u64,
    from_store: bool,
    state: JobState,
    outcome: Result<JobReport, StatimError>,
}

/// A job the table holds.
enum JobRef<'a> {
    Live(&'a LiveJob),
    Finished(&'a FinishedJob),
}

impl JobRef<'_> {
    fn spec(&self) -> &Arc<JobSpec> {
        match self {
            JobRef::Live(job) => &job.spec,
            JobRef::Finished(job) => &job.spec,
        }
    }

    /// A point-in-time view of this job, which the table holds as `id`.
    fn status(&self, id: JobId) -> JobStatus {
        let (fingerprint, from_store, state, error) = match self {
            JobRef::Live(job) => (job.fingerprint, false, job.state(), None),
            JobRef::Finished(job) => (
                job.fingerprint,
                job.from_store,
                job.state,
                job.outcome.as_ref().err().cloned(),
            ),
        };
        JobStatus {
            id,
            state,
            circuit: self.spec().circuit().name().to_string(),
            fingerprint,
            from_store,
            error,
        }
    }
}

/// One client's admission lane: its FIFO of queued job ids plus its
/// token-bucket state. Arithmetic is integer milli-tokens (1 job = 1000)
/// so refills at any rate are exact — no float drift in admission
/// decisions.
#[derive(Default)]
struct Lane {
    queue: VecDeque<u64>,
    /// Live (queued + running) jobs this client owns.
    active: usize,
    /// Token bucket level, milli-tokens.
    tokens_milli: u64,
    /// Tick of the last refill, milliseconds.
    last_refill_ms: u64,
}

/// Milli-tokens one submission costs.
const SUBMIT_COST_MILLI: u64 = 1000;
/// Deterministic retry hint when the per-client live-job cap (not the
/// rate) refused a submission — a cap frees on job completion, which the
/// clock cannot predict, so the hint is a fixed poll interval.
const PER_CLIENT_RETRY_MS: u64 = 100;

impl Lane {
    /// A fresh lane, bucket full at `first_seen_ms`.
    fn new(rate_limit: Option<u32>, now_ms: u64) -> Lane {
        Lane {
            queue: VecDeque::new(),
            active: 0,
            tokens_milli: bucket_cap_milli(rate_limit),
            last_refill_ms: now_ms,
        }
    }

    /// Refills the bucket for the ticks elapsed since the last refill.
    /// A tick older than the last refill (read before another
    /// submission's) gains nothing and leaves the refill mark alone.
    fn refill(&mut self, rate_limit: Option<u32>, now_ms: u64) {
        let Some(rate) = rate_limit else { return };
        let elapsed = now_ms.saturating_sub(self.last_refill_ms);
        // rate jobs/s == rate milli-tokens per millisecond.
        let gained = elapsed.saturating_mul(u64::from(rate));
        self.tokens_milli = (self.tokens_milli + gained).min(bucket_cap_milli(Some(rate)));
        self.last_refill_ms = self.last_refill_ms.max(now_ms);
    }

    /// Milliseconds until the bucket holds one submission's worth, at
    /// the current level (call after [`Lane::refill`]).
    fn retry_after_ms(&self, rate: u32) -> u64 {
        let missing = SUBMIT_COST_MILLI.saturating_sub(self.tokens_milli);
        // ceil(missing / rate) ms; `ServiceConfig::validate` refuses rate 0.
        missing.div_ceil(u64::from(rate.max(1))).max(1)
    }
}

/// Bucket capacity: one second's worth of submissions, at least one.
fn bucket_cap_milli(rate_limit: Option<u32>) -> u64 {
    match rate_limit {
        Some(rate) => (u64::from(rate) * SUBMIT_COST_MILLI).max(SUBMIT_COST_MILLI),
        None => SUBMIT_COST_MILLI,
    }
}

/// Terminal jobs the job table keeps, and reports the result store
/// keeps resident; past this bound the least recently used one goes.
/// With the default queue bound of 16, a client would have to leave
/// about a thousand finished jobs unread before one of them retired.
const RETAINED_JOBS: usize = 1024;

/// A map of at most `N` values keyed by `u64`: a get or an insert marks
/// its key used, and an insert past the bound evicts the least recently
/// used entry.
struct Lru<V, const N: usize> {
    /// Values with the tick of their last use.
    entries: HashMap<u64, (V, u64)>,
    /// Keys by the tick of their last use, oldest first.
    by_tick: BTreeMap<u64, u64>,
    clock: u64,
}

impl<V, const N: usize> Default for Lru<V, N> {
    fn default() -> Self {
        Lru {
            entries: HashMap::new(),
            by_tick: BTreeMap::new(),
            clock: 0,
        }
    }
}

impl<V, const N: usize> Lru<V, N> {
    /// The value of `key`, marked as just used.
    fn get(&mut self, key: u64) -> Option<&mut V> {
        let (value, tick) = self.entries.get_mut(&key)?;
        self.by_tick.remove(tick);
        self.clock += 1;
        *tick = self.clock;
        self.by_tick.insert(self.clock, key);
        Some(value)
    }

    /// Makes `value` the entry of `key`, marked as just used; returns the
    /// value of the least recently used key when the insert evicts it.
    fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.clock += 1;
        if let Some((_, tick)) = self.entries.insert(key, (value, self.clock)) {
            self.by_tick.remove(&tick);
        }
        self.by_tick.insert(self.clock, key);
        if self.entries.len() <= N {
            return None;
        }
        let (_, oldest) = self.by_tick.pop_first()?;
        self.entries.remove(&oldest).map(|(value, _)| value)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(value, _)| value)
    }
}

/// A report in the result store's resident tier.
struct Resident {
    report: JobReport,
    /// Whether the persistent log holds this report.
    persisted: bool,
}

/// Analysis keys whose warm state the executor keeps (least recently
/// used evicted first). A front is at most about 0.4 MB (c7552's timing
/// and labels); the widest reports are shared with the result store.
const WARM_NETLISTS: usize = 64;

#[derive(Default)]
struct State {
    /// Queued and running jobs.
    live: HashMap<u64, LiveJob>,
    /// Terminal jobs, the [`RETAINED_JOBS`] most recently used.
    finished: Lru<FinishedJob, RETAINED_JOBS>,
    /// Per-client lanes, keyed by client identity.
    lanes: HashMap<String, Lane>,
    /// Round-robin order: clients in first-submission order. Lanes are
    /// never retired — the cursor walks this list forever, so the drain
    /// order is a pure function of the submission script.
    rr_order: Vec<String>,
    /// Index into `rr_order` of the next lane to inspect.
    rr_cursor: usize,
    /// Jobs queued across all lanes (the global admission bound).
    queued_total: usize,
    /// The result store's resident tier: clean reports by fingerprint,
    /// the [`RETAINED_JOBS`] most recently used, in front of the
    /// persistent [`ResultLog`]. An evicted report the log holds is
    /// re-read on its next hit; one it does not hold is gone, and its
    /// spec runs again, byte-identically.
    results: Lru<Resident, RETAINED_JOBS>,
    next_id: u64,
    draining: bool,
    stats: ServiceStats,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the executor: work arrived, or a drain began.
    cv: Condvar,
    /// Wakes [`AnalysisService::wait`]ers: a job turned terminal (the
    /// executor finished it, a cancel reached it queued, or its queue
    /// deadline expired it).
    finished: Condvar,
    store: Arc<KernelStore>,
    max_queue: usize,
    max_per_client: Option<usize>,
    rate_limit: Option<u32>,
    clock: TickClock,
    default_budget: RunBudget,
    default_backend: statim_stats::ConvolveBackend,
    /// The persistent result log, when configured. Its own mutex — disk
    /// appends must never serialize against the job-table lock.
    persist: Option<Mutex<ResultLog>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A panic inside the executor is caught by `isolate` before any
        // lock is held across it; recover anyway rather than cascade.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Locks the persistent result log. It has its own mutex, never taken
/// under the job-table lock: disk reads and appends must not serialize
/// against submit and status.
fn lock_log(log: &Mutex<ResultLog>) -> MutexGuard<'_, ResultLog> {
    log.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The resident analysis service: owns the process-wide [`KernelStore`],
/// the job table and the single executor thread. Dropping the service
/// drains and joins the executor.
pub struct AnalysisService {
    shared: Arc<Shared>,
    worker: Option<thread::JoinHandle<()>>,
}

impl AnalysisService {
    /// Starts the service (spawns the executor thread). With a
    /// [`ServiceConfig::store_dir`], the persistent result log is opened
    /// first: every record is checked and indexed, none kept resident —
    /// re-submissions of pre-restart jobs are answered `from_store` by
    /// re-reading their record, byte-identically.
    ///
    /// # Errors
    ///
    /// A `Config`-class error for a configuration
    /// [`ServiceConfig::validate`] refuses, a `Resource`-class error if the
    /// store directory cannot be created/read, a `Parse`-class error (with
    /// file and line) if the log or index is corrupt or truncated.
    pub fn start(config: ServiceConfig) -> std::result::Result<Self, StatimError> {
        config.validate()?;
        let options = StoreOptions {
            fsync: config.store_fsync,
        };
        let persist = config
            .store_dir
            .as_deref()
            .map(|dir| ResultLog::open_with(dir, options))
            .transpose()?;
        let mut state = State::default();
        state.stats.store_loaded = persist.as_ref().map_or(0, ResultLog::loaded);
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            cv: Condvar::new(),
            finished: Condvar::new(),
            store: Arc::new(KernelStore::with_capacity(config.cache_capacity)),
            max_queue: config.max_queue,
            max_per_client: config.max_per_client,
            rate_limit: config.rate_limit,
            clock: config.clock,
            default_budget: config.default_budget,
            default_backend: config.default_backend,
            persist: persist.map(Mutex::new),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = thread::Builder::new()
            .name("statim-executor".into())
            .spawn(move || run_executor(&worker_shared))
            .map_err(|e| {
                StatimError::new(ErrorClass::Resource, format!("spawn executor thread: {e}"))
            })?;
        Ok(AnalysisService {
            shared,
            worker: Some(worker),
        })
    }

    /// The process-wide kernel store (shared across all jobs).
    pub fn store(&self) -> Arc<KernelStore> {
        Arc::clone(&self.shared.store)
    }

    /// The convolution backend jobs get unless they pick one at submit
    /// time. The front end must seed job configs with this *before*
    /// fingerprinting — a `SstaConfig` carries no "unset" marker, so the
    /// service cannot apply it late without corrupting store keys.
    pub fn default_backend(&self) -> statim_stats::ConvolveBackend {
        self.shared.default_backend
    }

    /// Submits a job under the anonymous client lane with no deadline —
    /// see [`AnalysisService::submit_with`].
    ///
    /// # Errors
    ///
    /// As [`AnalysisService::submit_with`].
    pub fn submit(&self, spec: JobSpec) -> std::result::Result<SubmitReceipt, ServiceError> {
        self.submit_with(spec, SubmitOptions::default())
    }

    /// Submits a job for a client. Admission order is fixed and
    /// documented: drain check, per-client rate limit, result-store
    /// lookup (hits still pay a rate token but skip the queue limits —
    /// they never occupy the executor), per-client live-job cap, global
    /// queue bound. A valid configuration whose fingerprint is already in
    /// the result store — resident, or in the persistent log, which is
    /// re-read outside the job-table lock — returns a terminally-Done job
    /// immediately (`from_store`); otherwise the job is queued in the
    /// client's lane, and an invalid configuration fails there with its
    /// config error.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Throttled`] beyond a per-client limit,
    /// [`ServiceError::Busy`] beyond the queue bound,
    /// [`ServiceError::Draining`] after shutdown.
    pub fn submit_with(
        &self,
        mut spec: JobSpec,
        options: SubmitOptions,
    ) -> std::result::Result<SubmitReceipt, ServiceError> {
        let fingerprint = spec.fingerprint();
        if spec.config.budget == RunBudget::none() {
            spec.config.budget = self.shared.default_budget;
        }
        // An invalid configuration is never served from the store: it
        // queues and fails with its config error, as on a fresh service.
        // The fingerprint leaves out what the run does not read (budgets,
        // and `C` for a register netlist), so an invalid value there
        // would otherwise find a valid run's report.
        let valid = spec.config.validate().is_ok();
        let client = options.client.unwrap_or_default();
        let now_ms = self.shared.clock.now_ms();
        let mut st = self.shared.lock();
        self.admit_rate(&mut st, &client, now_ms)?;
        let mut hit = if valid {
            st.resident(fingerprint)
        } else {
            None
        };
        let persist = self
            .shared
            .persist
            .as_ref()
            .filter(|_| valid && hit.is_none());
        if let Some(persist) = persist {
            // Not resident, but the log may hold it. The read happens
            // outside the job-table lock; the state may move meanwhile
            // (a drain, another submission's token), so admission runs
            // the checks before the lookup again.
            drop(st);
            // The log's lock ends with this statement, before the
            // report is rebuilt.
            let read = lock_log(persist).read(fingerprint);
            let read = read
                .map(|read| read.map(|stored| JobReport::Analyze(Arc::new(stored.into_report()))));
            st = self.shared.lock();
            self.admit_rate(&mut st, &client, now_ms)?;
            hit = st.resident(fingerprint);
            match read {
                Some(Ok(report)) => {
                    st.stats.store_rereads += 1;
                    if hit.is_none() {
                        let resident = Resident {
                            report: report.clone(),
                            persisted: true,
                        };
                        st.results.insert(fingerprint, resident);
                        hit = Some(report);
                    }
                }
                Some(Err(_)) => st.stats.store_read_errors += 1,
                None => {}
            }
        }
        if let Some(report) = hit {
            if self.shared.rate_limit.is_some() {
                let lane = st.lanes.get_mut(&client).expect("lane exists");
                lane.tokens_milli -= SUBMIT_COST_MILLI;
            }
            let id = st.alloc_id();
            st.stats.submitted += 1;
            st.stats.store_hits += 1;
            st.retain(
                id,
                FinishedJob {
                    spec: Arc::new(spec),
                    fingerprint,
                    from_store: true,
                    state: JobState::Done,
                    outcome: Ok(report),
                },
            );
            return Ok(SubmitReceipt {
                id: JobId(id),
                from_store: true,
            });
        }
        if let Some(max) = self.shared.max_per_client {
            let active = st.lanes.get(&client).expect("lane exists").active;
            if active >= max {
                st.stats.throttled += 1;
                return Err(ServiceError::Throttled {
                    client,
                    retry_after_ms: PER_CLIENT_RETRY_MS,
                    kind: ThrottleKind::PerClient { active, max },
                });
            }
        }
        if st.queued_total >= self.shared.max_queue {
            st.stats.rejected += 1;
            return Err(ServiceError::Busy {
                queued: st.queued_total,
                max_queue: self.shared.max_queue,
            });
        }
        if self.shared.rate_limit.is_some() {
            let lane = st.lanes.get_mut(&client).expect("lane exists");
            lane.tokens_milli -= SUBMIT_COST_MILLI;
        }
        let id = st.alloc_id();
        st.stats.submitted += 1;
        st.live.insert(
            id,
            LiveJob {
                spec: Arc::new(spec),
                fingerprint,
                client: client.clone(),
                deadline_at_ms: options.deadline_ms.map(|ms| now_ms.saturating_add(ms)),
                supervisor: None,
            },
        );
        let lane = st.lanes.get_mut(&client).expect("lane exists");
        lane.queue.push_back(id);
        lane.active += 1;
        st.queued_total += 1;
        drop(st);
        self.shared.cv.notify_all();
        Ok(SubmitReceipt {
            id: JobId(id),
            from_store: false,
        })
    }

    /// The admission checks before the store lookup: the drain, then the
    /// client's rate limit (a refusal is counted). Opens the client's
    /// lane on its first submission; takes no token — an admitted
    /// submission pays it.
    fn admit_rate(
        &self,
        st: &mut State,
        client: &str,
        now_ms: u64,
    ) -> std::result::Result<(), ServiceError> {
        if st.draining {
            return Err(ServiceError::Draining);
        }
        if !st.lanes.contains_key(client) {
            st.lanes.insert(
                client.to_string(),
                Lane::new(self.shared.rate_limit, now_ms),
            );
            st.rr_order.push(client.to_string());
        }
        if let Some(rate) = self.shared.rate_limit {
            let lane = st.lanes.get_mut(client).expect("lane exists");
            lane.refill(Some(rate), now_ms);
            if lane.tokens_milli < SUBMIT_COST_MILLI {
                let retry_after_ms = lane.retry_after_ms(rate);
                st.stats.throttled += 1;
                return Err(ServiceError::Throttled {
                    client: client.to_string(),
                    retry_after_ms,
                    kind: ThrottleKind::Rate { limit: rate },
                });
            }
        }
        Ok(())
    }

    /// A snapshot of one job's state.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an id the table never issued,
    /// [`ServiceError::Retired`] for one that retired.
    pub fn status(&self, id: JobId) -> std::result::Result<JobStatus, ServiceError> {
        let mut st = self.shared.lock();
        Ok(st.job(id)?.status(id))
    }

    /// Blocks until job `id` turns terminal or `timeout` passes, then
    /// returns its status: terminal, or the state it was still in when
    /// the timeout ran out. Every terminal transition wakes the waiters
    /// (the executor finishing a job, a cancel reaching a queued job, a
    /// queue deadline expiring one), so the call returns as the job
    /// finishes, not at the next poll. A timeout too large to represent
    /// waits without one.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an id the table never issued,
    /// [`ServiceError::Retired`] for one that retired.
    pub fn wait(
        &self,
        id: JobId,
        timeout: Duration,
    ) -> std::result::Result<JobStatus, ServiceError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut st = self.shared.lock();
        loop {
            let status = st.job(id)?.status(id);
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if status.state.is_terminal() || remaining.is_some_and(|r| r.is_zero()) {
                return Ok(status);
            }
            let finished = &self.shared.finished;
            st = match remaining {
                Some(r) => {
                    finished
                        .wait_timeout(st, r)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
                None => finished
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            };
        }
    }

    /// The finished job's report, whichever flow produced it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`], [`ServiceError::Retired`],
    /// [`ServiceError::NotFinished`] while queued/running,
    /// [`ServiceError::JobFailed`] for failed or cancelled jobs
    /// (carrying the run's typed error).
    pub fn result_any(&self, id: JobId) -> std::result::Result<JobReport, ServiceError> {
        let mut st = self.shared.lock();
        match st.job(id)? {
            JobRef::Live(job) => Err(ServiceError::NotFinished {
                id,
                state: job.state(),
            }),
            JobRef::Finished(job) => job
                .outcome
                .clone()
                .map_err(|error| ServiceError::JobFailed { id, error }),
        }
    }

    /// The spec a job was submitted with — the base an `EDIT` mutates.
    /// Available for every job the table holds, whatever its state
    /// (specs are retained until the job retires).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`] for an id the table never issued,
    /// [`ServiceError::Retired`] for one that retired.
    pub fn spec(&self, id: JobId) -> std::result::Result<Arc<JobSpec>, ServiceError> {
        let mut st = self.shared.lock();
        Ok(Arc::clone(st.job(id)?.spec()))
    }

    /// Cancels a job: queued jobs cancel immediately, running jobs get
    /// their token tripped ([`BudgetKind::Cancelled`]) and stop at the
    /// next item boundary.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`], [`ServiceError::Retired`],
    /// [`ServiceError::AlreadyFinished`] for terminal jobs.
    pub fn cancel(&self, id: JobId) -> std::result::Result<CancelOutcome, ServiceError> {
        let mut st = self.shared.lock();
        let job = match st.job(id)? {
            JobRef::Live(job) => job,
            JobRef::Finished(job) => {
                return Err(ServiceError::AlreadyFinished {
                    id,
                    state: job.state,
                })
            }
        };
        if let Some(supervisor) = &job.supervisor {
            supervisor.token().cancel(BudgetKind::Cancelled);
            return Ok(CancelOutcome::Requested);
        }
        st.finish(id.0, JobState::Cancelled, Err(cancelled_error()));
        drop(st);
        self.shared.finished.notify_all();
        Ok(CancelOutcome::Immediate)
    }

    /// Service-wide counters plus the kernel store's lifetime stats.
    pub fn stats(&self) -> ServiceStats {
        // Read before the job-table lock, never under it.
        let indexed = self
            .shared
            .persist
            .as_ref()
            .map_or(0, |log| lock_log(log).len());
        let st = self.shared.lock();
        let mut stats = st.stats.clone();
        stats.queued = st.queued_total;
        stats.clients = st.lanes.len();
        stats.running = st.live.values().filter(|j| j.supervisor.is_some()).count();
        stats.store_entries = indexed + st.unpersisted();
        stats.store_resident = st.results.len();
        stats.cache = self.shared.store.stats();
        stats
    }

    /// Begins draining: no new submissions are accepted, queued and
    /// running jobs complete. Idempotent.
    pub fn shutdown(&self) {
        self.shared.lock().draining = true;
        self.shared.cv.notify_all();
    }

    /// Whether a requested drain has completed (shutdown was called and
    /// no job is queued or running). A daemon front-end polls this to
    /// decide when it may stop serving `STATUS`/`RESULT` and exit.
    pub fn drained(&self) -> bool {
        let st = self.shared.lock();
        st.draining && st.live.is_empty()
    }

    /// Drains and waits for the executor to exit (implies
    /// [`AnalysisService::shutdown`]).
    pub fn join(mut self) {
        self.shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl State {
    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The job `id` names; a finished one is marked as just used. Every
    /// request that names a job (STATUS, WAIT, RESULT, CANCEL, EDIT)
    /// comes through here.
    fn job(&mut self, id: JobId) -> std::result::Result<JobRef<'_>, ServiceError> {
        if let Some(job) = self.live.get(&id.0) {
            return Ok(JobRef::Live(job));
        }
        if let Some(job) = self.finished.get(id.0) {
            return Ok(JobRef::Finished(job));
        }
        Err(if id.0 < self.next_id {
            ServiceError::Retired(id)
        } else {
            ServiceError::UnknownJob(id)
        })
    }

    /// Keeps finished job `id` as just used, retiring the least recently
    /// used one past [`RETAINED_JOBS`].
    fn retain(&mut self, id: u64, job: FinishedJob) {
        if self.finished.insert(id, job).is_some() {
            self.stats.retired_jobs += 1;
        }
    }

    /// Moves live job `id` to the finished table in terminal `state` and
    /// counts it, releasing its place in its lane: the queue slot it may
    /// still hold and its live-job slot.
    fn finish(&mut self, id: u64, state: JobState, outcome: Result<JobReport, StatimError>) {
        let Some(job) = self.live.remove(&id) else {
            return;
        };
        if let Some(lane) = self.lanes.get_mut(&job.client) {
            if let Some(pos) = lane.queue.iter().position(|&q| q == id) {
                lane.queue.remove(pos);
                self.queued_total -= 1;
            }
            lane.active = lane.active.saturating_sub(1);
        }
        *match state {
            JobState::Done => &mut self.stats.completed,
            JobState::Degraded => &mut self.stats.degraded,
            JobState::Cancelled => &mut self.stats.cancelled,
            JobState::Expired => &mut self.stats.expired,
            _ => &mut self.stats.failed,
        } += 1;
        let finished = FinishedJob {
            spec: job.spec,
            fingerprint: job.fingerprint,
            from_store: false,
            state,
            outcome,
        };
        self.retain(id, finished);
    }

    /// The resident report of `fingerprint`, marked as just used.
    fn resident(&mut self, fingerprint: u64) -> Option<JobReport> {
        self.results.get(fingerprint).map(|r| r.report.clone())
    }

    /// Resident reports the persistent log does not hold.
    fn unpersisted(&self) -> usize {
        self.results.values().filter(|r| !r.persisted).count()
    }
}

/// The typed error recorded for cancelled jobs.
fn cancelled_error() -> StatimError {
    StatimError::new(ErrorClass::Resource, "job cancelled before completion")
}

/// The typed error recorded for expired jobs.
fn expired_error(deadline_ms: u64, now_ms: u64) -> StatimError {
    StatimError::new(
        ErrorClass::Resource,
        format!("job expired in queue (deadline tick {deadline_ms}, dequeued at {now_ms})"),
    )
}

/// Picks the next runnable job by round-robin over the client lanes,
/// starting at the cursor. Jobs whose queue deadline already passed are
/// turned terminally [`JobState::Expired`] on the spot (they were shed,
/// not run) and the scan continues. The cursor advances past the lane
/// that yielded a job, so each lane surrenders at most one job per
/// drain turn — the fairness invariant.
fn pick_runnable(
    st: &mut State,
    clock: &TickClock,
) -> Option<(u64, u64, Arc<JobSpec>, Arc<Supervisor>)> {
    let lanes_n = st.rr_order.len();
    let now_ms = clock.now_ms();
    for step in 0..lanes_n {
        let idx = (st.rr_cursor + step) % lanes_n;
        let key = st.rr_order[idx].clone();
        while let Some(id) = st.lanes.get_mut(&key).and_then(|l| l.queue.pop_front()) {
            st.queued_total -= 1;
            let Some(job) = st.live.get_mut(&id) else {
                continue;
            };
            if let Some(deadline) = job.deadline_at_ms.filter(|&d| now_ms > d) {
                st.finish(id, JobState::Expired, Err(expired_error(deadline, now_ms)));
                continue;
            }
            let sup = Arc::new(Supervisor::new(
                job.spec.config.budget,
                job.spec.config.retries,
            ));
            job.supervisor = Some(Arc::clone(&sup));
            st.rr_cursor = (idx + 1) % lanes_n;
            return Some((id, job.fingerprint, Arc::clone(&job.spec), sup));
        }
    }
    None
}

/// How one combinational job used the warm state.
#[derive(Default)]
struct WarmUsage {
    /// The job started from a warm front.
    warm: bool,
    /// Path analyses the oracle handed back.
    reused: usize,
}

/// The executor's warm state: per analysis key
/// ([`JobSpec::analysis_key`]), the front of its first clean run and its
/// widest clean report, for at most [`WARM_NETLISTS`] keys, least
/// recently used first. Only the executor thread touches it, so it
/// lives outside the job-table lock.
#[derive(Default)]
struct Warm {
    entries: Lru<WarmEntry, WARM_NETLISTS>,
}

struct WarmEntry {
    front: Front,
    /// The key's clean report with the most paths. The near-critical set
    /// at a smaller `C` is a subset of the set at a larger one, so this
    /// report holds every path any smaller `C` enumerates.
    widest: RetainedPaths,
}

impl Warm {
    /// Runs a combinational job. A warm key runs `check`, then starts
    /// at σ_C from its front with an oracle that hands back every path
    /// the key's widest clean report already analyzed: a path's analysis
    /// is a pure function of its gate sequence, timing bits, placement
    /// and settings, and the key fixes all of those, so a hit is bitwise
    /// what a recompute gives. A cold key whose spec is an edit of a warm
    /// base key (the base netlist under this job's settings) runs
    /// `check`, then builds its front from the base's through the
    /// [`EditedFront`] seam `statim eco` uses, with an oracle over the
    /// base's widest clean report that refuses every path through a gate
    /// the edit moved. Any other cold key runs the whole flow. Either way
    /// a clean report seeds the state: a cold key enters with its front,
    /// a warm key keeps the report if it is the widest so far (indexed
    /// once, here).
    ///
    /// A job with a fault plan neither reads nor seeds the state: a plan
    /// such as `poison-cache-shard` needs the kernel lookups that reuse
    /// skips.
    fn run(
        &mut self,
        spec: &JobSpec,
        store: &Arc<KernelStore>,
        sup: &Supervisor,
        usage: &mut WarmUsage,
    ) -> crate::Result<Arc<SstaReport>> {
        let engine = SstaEngine::new(spec.config.clone());
        let (circuit, placement) = (spec.circuit(), spec.placement());
        let ctx = RunContext {
            store: Some(Arc::clone(store)),
            supervisor: Some(sup),
        };
        if spec.config.has_fault_plan() {
            return engine.run_with(circuit, placement, ctx).map(Arc::new);
        }
        let key = spec.analysis_key();
        let start = Instant::now();
        if let Some(entry) = self.entries.get(key) {
            engine.check(circuit, placement)?;
            usage.warm = true;
            let reused = AtomicUsize::new(0);
            let oracle = |path: &[GateId]| -> Option<PathAnalysis> {
                let hit = entry.widest.get(path)?.clone();
                reused.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            };
            let run = engine.run_characterized(
                circuit,
                placement,
                &entry.front,
                ctx.store,
                sup,
                Some(&oracle),
            );
            usage.reused = reused.into_inner();
            let mut report = run?;
            report.runtime = start.elapsed().as_secs_f64();
            let report = Arc::new(report);
            if report.is_clean() && report.num_paths > entry.widest.report().num_paths {
                entry.widest = RetainedPaths::new(Arc::clone(&report));
            }
            return Ok(report);
        }
        let base = spec
            .base_analysis_key()
            .and_then(|base_key| self.entries.get(base_key));
        let (front, report, widest) = match (base, &spec.origin) {
            (Some(base), Some(origin)) => {
                engine.check(circuit, placement)?;
                usage.warm = true;
                let edited = EditedFront::build(
                    &engine,
                    circuit,
                    placement,
                    &base.front,
                    None,
                    &origin.touched,
                    origin.rewires,
                )?;
                let run = edited.run(
                    &engine,
                    circuit,
                    placement,
                    &base.widest,
                    Arc::clone(store),
                    sup,
                );
                usage.reused = run.reused;
                let widest = run.retain(&base.widest, start)?;
                (edited.front, Arc::clone(widest.report()), widest)
            }
            _ => {
                let (front, report) = engine.run_with_front(circuit, placement, ctx, false)?;
                let report = Arc::new(report);
                (front, Arc::clone(&report), RetainedPaths::new(report))
            }
        };
        if report.is_clean() {
            self.entries.insert(key, WarmEntry { front, widest });
        }
        Ok(report)
    }
}

/// The executor loop: pick (round-robin over lanes) → run under panic
/// isolation → record. Exits when draining and the lanes are empty
/// (running jobs always finish first — that *is* the drain).
fn run_executor(shared: &Shared) {
    let mut warm = Warm::default();
    loop {
        // Dequeue the next runnable job, or exit on drained shutdown.
        let (id, fingerprint, spec, sup) = {
            let mut st = shared.lock();
            let picked = loop {
                let expired = st.stats.expired;
                let picked = pick_runnable(&mut st, &shared.clock);
                if st.stats.expired != expired {
                    shared.finished.notify_all();
                }
                if picked.is_some() {
                    break picked;
                }
                if st.draining {
                    break None;
                }
                // Sleep until new work arrives — or just past the
                // earliest queued deadline, so expiry does not wait for
                // the next submission to wake the executor.
                let next_deadline = st
                    .live
                    .values()
                    .filter(|j| j.supervisor.is_none())
                    .filter_map(|j| j.deadline_at_ms)
                    .min();
                st = match next_deadline {
                    None => shared
                        .cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                    Some(deadline) => {
                        let now_ms = shared.clock.now_ms();
                        let wake = Duration::from_millis(deadline.saturating_sub(now_ms) + 1);
                        shared
                            .cv
                            .wait_timeout(st, wake)
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .0
                    }
                };
            };
            match picked {
                Some(t) => t,
                None => return,
            }
        };

        // Run outside the lock. `isolate` turns any panic that escapes
        // the engine's own per-path supervision into a typed failure of
        // *this job only* — the executor (and the daemon) keep serving.
        // The netlist picks the flow: registers mean setup/hold SSTA
        // through the sequential engine (period and margins from the
        // circuit's clock directives), anything else the combinational
        // engine, from the warm state. Both share the resident kernel
        // store and the job's supervisor, so cancel and budgets behave
        // identically.
        let context = || RunContext {
            store: Some(Arc::clone(&shared.store)),
            supervisor: Some(&sup),
        };
        let mut usage = WarmUsage::default();
        let outcome = isolate(|| {
            if spec.circuit().is_sequential() {
                let config = SequentialConfig {
                    ssta: spec.config.clone(),
                    ..SequentialConfig::date05()
                };
                SequentialEngine::new(config)
                    .run_with(spec.circuit(), spec.placement(), context())
                    .map(|report| JobReport::Sequential(Arc::new(report)))
            } else {
                warm.run(&spec, &shared.store, &sup, &mut usage)
                    .map(JobReport::Analyze)
            }
        });

        let (state, outcome) = match outcome {
            Ok(Ok(report)) if report.budget_exhausted() == Some(BudgetKind::Cancelled) => {
                (JobState::Cancelled, Err(cancelled_error()))
            }
            Ok(Ok(report)) if report.is_clean() => (JobState::Done, Ok(report)),
            Ok(Ok(report)) => (JobState::Degraded, Ok(report)),
            Ok(Err(CoreError::BudgetExhausted {
                budget: BudgetKind::Cancelled,
            })) => (JobState::Cancelled, Err(cancelled_error())),
            Ok(Err(e)) => (JobState::Failed, Err(e.into())),
            Err(message) => (
                JobState::Failed,
                Err(StatimError::new(
                    ErrorClass::Numeric,
                    format!("panic in job execution: {message}"),
                )),
            ),
        };

        // Persist clean reports to the on-disk log *before* taking the
        // state lock — disk latency must never block submit/status. A
        // failed append costs durability, not the result: the resident
        // store still serves it until it is evicted, and the counter
        // records the loss. The on-disk record schema is combinational;
        // sequential reports are served from the resident store only.
        let appended = match (&shared.persist, state, &outcome) {
            (Some(persist), JobState::Done, Ok(JobReport::Analyze(report))) => {
                let stored = StoredReport::from_report(report);
                Some(lock_log(persist).append(fingerprint, &stored).is_ok())
            }
            _ => None,
        };

        let mut st = shared.lock();
        if let (JobState::Done, Ok(report)) = (state, &outcome) {
            let resident = Resident {
                report: report.clone(),
                persisted: appended == Some(true),
            };
            st.results.insert(fingerprint, resident);
        }
        st.stats.store_write_errors += u64::from(appended == Some(false));
        st.stats.warm_runs += u64::from(usage.warm);
        st.stats.reused_paths += usage.reused as u64;
        st.finish(id, state, outcome);
        drop(st);
        shared.finished.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::PlacementStyle;
    use std::time::{Duration, Instant};

    fn spec(bench: Benchmark, config: SstaConfig) -> JobSpec {
        let circuit = iscas85::generate(bench);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        JobSpec::new(circuit, placement, config)
    }

    /// The finished job's combinational report.
    fn analyze_result(service: &AnalysisService, id: JobId) -> Arc<SstaReport> {
        let report = service.result_any(id).expect("report available");
        Arc::clone(report.as_analyze().expect("combinational report"))
    }

    fn wait_terminal(service: &AnalysisService, id: JobId) -> JobStatus {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let status = service.status(id).expect("job exists");
            if status.state.is_terminal() {
                return status;
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn submit_run_result_roundtrip() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let receipt = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        assert!(!receipt.from_store);
        let status = wait_terminal(&service, receipt.id);
        assert_eq!(status.state, JobState::Done);
        let report = analyze_result(&service, receipt.id);
        assert_eq!(report.circuit, "c432");
        assert!(report.num_paths >= 1);
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.store_entries, 1);
        service.join();
    }

    #[test]
    fn duplicate_submission_served_from_store_bit_identically() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let first = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        wait_terminal(&service, first.id);
        let fresh = analyze_result(&service, first.id);
        // Different thread count, same fingerprint: the knob is
        // wall-time-only, so the store must hit.
        let second = service
            .submit(spec(Benchmark::C432, SstaConfig::date05().with_threads(1)))
            .expect("admitted");
        assert!(second.from_store);
        let served = analyze_result(&service, second.id);
        assert!(Arc::ptr_eq(&fresh, &served), "served from the store");
        let rendered_fresh = crate::report::deterministic_report(&fresh, 5);
        let rendered_served = crate::report::deterministic_report(&served, 5);
        assert_eq!(rendered_fresh, rendered_served);
        assert_eq!(service.stats().store_hits, 1);
        service.join();
    }

    #[test]
    fn zero_cache_capacity_refuses_to_start() {
        // A zero cap would otherwise round up to one entry per shard and
        // run a small cache the operator never asked for.
        let err = AnalysisService::start(ServiceConfig {
            cache_capacity: Some(0),
            ..ServiceConfig::default()
        })
        .err()
        .expect("a zero cache capacity is refused");
        assert_eq!(err.class, ErrorClass::Config);
        assert!(
            err.message.contains("cache capacity must be positive"),
            "{err}"
        );
        let service = AnalysisService::start(ServiceConfig {
            cache_capacity: Some(1),
            ..ServiceConfig::default()
        })
        .expect("any positive capacity starts");
        service.join();
    }

    #[test]
    fn zero_rate_limit_refuses_to_start() {
        // A zero limit would otherwise run as one job per second.
        let err = AnalysisService::start(ServiceConfig {
            rate_limit: Some(0),
            ..ServiceConfig::default()
        })
        .err()
        .expect("a zero rate limit is refused");
        assert_eq!(err.class, ErrorClass::Config);
        assert!(err.message.contains("rate limit must be positive"), "{err}");
        let service = AnalysisService::start(ServiceConfig {
            rate_limit: Some(1),
            ..ServiceConfig::default()
        })
        .expect("any positive limit starts");
        service.join();
    }

    /// Far longer than any test job takes: a wait that returns well
    /// before it was woken by the transition, not by its timeout.
    const LONG: Duration = Duration::from_secs(120);

    #[test]
    fn wait_returns_as_the_executor_finishes_a_job() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let receipt = service.submit(quick_spec(50)).expect("admitted");
        let start = Instant::now();
        let status = service.wait(receipt.id, LONG).expect("job exists");
        assert_eq!(status.state, JobState::Done);
        assert!(start.elapsed() < LONG / 2, "woken by the finish");
        // A terminal job answers at once, whatever the timeout.
        let again = service.wait(receipt.id, LONG).expect("job exists");
        assert_eq!(again.state, JobState::Done);
        assert_eq!(again.fingerprint, status.fingerprint);
        service.join();
    }

    #[test]
    fn wait_returns_as_a_queued_job_is_cancelled() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let heavy = service
            .submit(spec(
                Benchmark::C1355,
                SstaConfig::date05().with_confidence(0.3),
            ))
            .expect("admitted");
        let victim = service.submit(quick_spec(51)).expect("admitted");
        let status = thread::scope(|s| {
            let waiter = s.spawn(|| service.wait(victim.id, LONG));
            // Time for the waiter to block. Should it not have, it finds
            // the job terminal at once and every assertion still holds.
            thread::sleep(Duration::from_millis(20));
            assert_eq!(
                service.cancel(victim.id).expect("cancellable"),
                CancelOutcome::Immediate
            );
            waiter.join().expect("waiter")
        })
        .expect("job exists");
        assert_eq!(status.state, JobState::Cancelled);
        // Woken by the cancel, not by the heavy job finishing.
        assert!(!service.status(heavy.id).expect("heavy").state.is_terminal());
        service.cancel(heavy.id).expect("heavy cancels");
        service.join();
    }

    #[test]
    fn wait_returns_as_a_queue_deadline_expires_a_job() {
        let (clock, ticks) = TickClock::manual();
        let service = AnalysisService::start(ServiceConfig {
            clock,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        // The heavy job pins the executor while the victim's deadline
        // passes on the manual clock; the executor expires the victim as
        // it reaches it.
        let heavy = service
            .submit(spec(
                Benchmark::C1355,
                SstaConfig::date05().with_confidence(0.3),
            ))
            .expect("admitted");
        let victim = service
            .submit_with(
                quick_spec(53),
                SubmitOptions {
                    client: Some("deadline".into()),
                    deadline_ms: Some(50),
                },
            )
            .expect("admitted");
        ticks.store(51, Ordering::SeqCst);
        let start = Instant::now();
        let status = service.wait(victim.id, LONG).expect("job exists");
        assert_eq!(status.state, JobState::Expired);
        assert!(start.elapsed() < LONG / 2, "woken by the transition");
        assert_eq!(wait_terminal(&service, heavy.id).state, JobState::Done);
        service.join();
    }

    #[test]
    fn wait_times_out_with_the_live_state_and_names_missing_jobs() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let heavy = service
            .submit(spec(
                Benchmark::C1355,
                SstaConfig::date05().with_confidence(0.3),
            ))
            .expect("admitted");
        let start = Instant::now();
        let status = service
            .wait(heavy.id, Duration::from_millis(20))
            .expect("job exists");
        assert!(!status.state.is_terminal(), "{}", status.state);
        assert!(start.elapsed() >= Duration::from_millis(20));
        service.cancel(heavy.id).expect("heavy cancels");
        assert!(matches!(
            service.wait(JobId(999), LONG),
            Err(ServiceError::UnknownJob(JobId(999)))
        ));
        service.join();

        // Past the table bound the oldest terminal job retires.
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let first = service.submit(quick_spec(54)).expect("admitted");
        service.wait(first.id, LONG).expect("job exists");
        for _ in 0..RETAINED_JOBS {
            assert!(service.submit(quick_spec(54)).expect("hit").from_store);
        }
        assert!(matches!(
            service.wait(first.id, LONG),
            Err(ServiceError::Retired(id)) if id == first.id
        ));
        service.join();
    }

    #[test]
    fn zero_capacity_queue_rejects_with_busy() {
        let service = AnalysisService::start(ServiceConfig {
            max_queue: 0,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let err = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect_err("queue of 0 admits nothing");
        assert!(matches!(err, ServiceError::Busy { max_queue: 0, .. }));
        assert_eq!(service.stats().rejected, 1);
        service.join();
    }

    #[test]
    fn cancel_queued_job_is_immediate() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        // A heavy first job keeps the single executor busy long enough
        // for the second to be reliably cancelled while queued.
        let heavy = service
            .submit(spec(
                Benchmark::C1355,
                SstaConfig::date05().with_confidence(0.3),
            ))
            .expect("admitted");
        let victim = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        let outcome = service.cancel(victim.id).expect("cancellable");
        assert_eq!(outcome, CancelOutcome::Immediate);
        let status = service.status(victim.id).expect("job exists");
        assert_eq!(status.state, JobState::Cancelled);
        match service.result_any(victim.id) {
            Err(ServiceError::JobFailed { error, .. }) => {
                assert_eq!(error.class, ErrorClass::Resource);
                assert!(error.message.contains("cancelled"));
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
        // Double-cancel is a typed error, and the heavy job still runs
        // to completion (drain proves the executor survived).
        assert!(matches!(
            service.cancel(victim.id),
            Err(ServiceError::AlreadyFinished { .. })
        ));
        wait_terminal(&service, heavy.id);
        service.join();
    }

    #[test]
    fn failed_job_keeps_service_alive() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        // An invalid config fails typed (Config) without touching the
        // executor's health.
        let mut bad = SstaConfig::date05();
        bad.confidence = -1.0;
        let failed = service
            .submit(spec(Benchmark::C432, bad))
            .expect("admitted");
        let status = wait_terminal(&service, failed.id);
        assert_eq!(status.state, JobState::Failed);
        match service.result_any(failed.id) {
            Err(ServiceError::JobFailed { error, .. }) => {
                assert_eq!(error.class, ErrorClass::Config)
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
        // The next job completes normally.
        let ok = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        assert_eq!(wait_terminal(&service, ok.id).state, JobState::Done);
        assert_eq!(service.stats().failed, 1);
        service.join();
    }

    #[test]
    fn degraded_job_not_cached_in_result_store() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let budget = RunBudget {
            max_paths: Some(1),
            ..RunBudget::none()
        };
        let partial = service
            .submit(spec(
                Benchmark::C432,
                SstaConfig::date05()
                    .with_confidence(0.2)
                    .with_budget(budget),
            ))
            .expect("admitted");
        let status = wait_terminal(&service, partial.id);
        assert_eq!(status.state, JobState::Degraded);
        let report = analyze_result(&service, partial.id);
        assert_eq!(report.budget_exhausted, Some(BudgetKind::Paths));
        assert_eq!(service.stats().store_entries, 0, "partials never cached");
        service.join();
    }

    #[test]
    fn draining_rejects_new_submissions_and_finishes_queued() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let queued = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        service.shutdown();
        assert!(matches!(
            service.submit(spec(Benchmark::C499, SstaConfig::date05())),
            Err(ServiceError::Draining)
        ));
        // join() returns only after the drain — so the queued job must
        // be terminal afterwards.
        let shared = Arc::clone(&service.shared);
        service.join();
        let mut st = shared.lock();
        let job = st.finished.get(queued.id.0).expect("job finished");
        assert_eq!(job.state, JobState::Done);
    }

    #[test]
    fn unknown_and_unfinished_jobs_are_typed_errors() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let missing = JobId(999);
        assert!(matches!(
            service.status(missing),
            Err(ServiceError::UnknownJob(_))
        ));
        assert!(matches!(
            service.result_any(missing),
            Err(ServiceError::UnknownJob(_))
        ));
        let receipt = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        // Immediately after submit the job is queued or running — its
        // result is a NotFinished error either way.
        match service.result_any(receipt.id) {
            Err(ServiceError::NotFinished { .. }) => {}
            Ok(_) => panic!("result before completion"),
            Err(other) => panic!("expected NotFinished, got {other}"),
        }
        wait_terminal(&service, receipt.id);
        service.join();
    }

    #[test]
    fn job_id_display_parse_roundtrip() {
        let id = JobId(42);
        assert_eq!(id.to_string(), "job-42");
        assert_eq!("job-42".parse::<JobId>().expect("parses"), id);
        assert_eq!("42".parse::<JobId>().expect("parses"), id);
        assert!("job-x".parse::<JobId>().is_err());
    }

    /// Fingerprints key the persistent result store, so moving one
    /// orphans every report a `--store-dir` already holds. These values
    /// come from the formula that serialized and hashed the netlist on
    /// every call; the digest taken once in `JobSpec::new` must
    /// reproduce them bit for bit.
    #[test]
    fn fingerprints_are_pinned() {
        assert_eq!(
            spec(Benchmark::C432, SstaConfig::date05()).fingerprint(),
            0x09b4_5f6b_be15_4884
        );
        assert_eq!(
            seq_spec(SstaConfig::date05()).fingerprint(),
            0xf397_6af5_5ebd_48b7
        );
        assert_eq!(
            spec(Benchmark::C432, SstaConfig::date05().with_confidence(0.2)).fingerprint(),
            0xd4fa_3928_90ea_de24
        );
    }

    /// A config edit, named for assertion messages.
    type Edit = (&'static str, fn(&mut SstaConfig));

    /// The inputs both flows read: the technology, the variations, the
    /// layer model, the marginal shape, the backend and the two QUALITY
    /// discretizations.
    fn shared_report_inputs() -> Vec<Edit> {
        use crate::correlation::LayerModel;
        use statim_process::param::Param;
        vec![
            ("tox", |c| c.tech.tox *= 1.01),
            ("leff", |c| c.tech.leff *= 1.01),
            ("vdd", |c| c.tech.vdd *= 1.01),
            ("vtn", |c| c.tech.vtn *= 1.01),
            ("vtp", |c| c.tech.vtp *= 1.01),
            ("eps_ox", |c| c.tech.eps_ox *= 1.01),
            ("mu_n", |c| c.tech.mu_n *= 1.01),
            ("mu_p", |c| c.tech.mu_p *= 1.01),
            ("w_n", |c| c.tech.w_n *= 1.01),
            ("w_p", |c| c.tech.w_p *= 1.01),
            ("c_drain", |c| c.tech.c_drain *= 1.01),
            ("c_gate", |c| c.tech.c_gate *= 1.01),
            ("c_wire", |c| c.tech.c_wire *= 1.01),
            ("sigma", |c| {
                let s = c.vars.sigma.get(Param::Vdd);
                c.vars.sigma.set(Param::Vdd, s * 1.1);
            }),
            ("trunc_k", |c| c.vars.trunc_k = 5.0),
            ("layers", |c| c.layers = LayerModel::with_inter_share(0.5)),
            ("marginal", |c| c.marginal = statim_stats::Marginal::Uniform),
            ("backend", |c| {
                c.backend = statim_stats::ConvolveBackend::Fft;
            }),
            ("quality_intra", |c| c.quality_intra = 90),
            ("quality_inter", |c| c.quality_inter = 40),
        ]
    }

    /// The knobs that change wall time but never a report.
    fn wall_time_only() -> Vec<Edit> {
        vec![
            ("threads", |c| c.threads = Some(3)),
            ("cache", |c| c.cache = false),
            ("cache_capacity", |c| c.cache_capacity = Some(64)),
            ("budget", |c| {
                c.budget = RunBudget {
                    max_paths: Some(3),
                    ..RunBudget::none()
                };
            }),
            ("retries", |c| c.retries = 4),
        ]
    }

    /// The result-store fingerprint binds every report input, and the
    /// warm-state analysis key binds every input but the two that only
    /// select paths; neither binds a wall-time-only knob.
    #[test]
    fn fingerprint_and_analysis_key_cover_every_report_input() {
        use statim_process::delay::CornerSpec;
        let mut report_inputs = shared_report_inputs();
        report_inputs.extend::<[Edit; 4]>([
            ("intra_model", |c| c.intra_model = IntraModel::Numerical),
            ("sigma_rank", |c| c.sigma_rank = 2.0),
            ("corner", |c| c.corner = CornerSpec::sigma(2.0)),
            ("solver", |c| c.solver = LabelSolver::Topological),
        ]);
        let path_selectors: Vec<Edit> = vec![
            ("confidence", |c| c.confidence = 0.2),
            ("max_paths", |c| c.max_paths = 10),
        ];
        let template = spec(Benchmark::C432, SstaConfig::date05());
        let keys = |edit: fn(&mut SstaConfig)| {
            let mut config = SstaConfig::date05();
            edit(&mut config);
            let spec = template.with_config(config);
            (spec.fingerprint(), spec.analysis_key())
        };
        let (fp, key) = keys(|_| {});
        let mut seen = std::collections::HashSet::new();
        for (name, edit) in report_inputs {
            let (f, k) = keys(edit);
            assert!(f != fp && k != key, "{name} must move both");
            assert!(seen.insert(f) && seen.insert(k), "{name} collides");
        }
        for (name, edit) in path_selectors {
            let (f, k) = keys(edit);
            assert!(f != fp && k == key, "{name} moves the fingerprint only");
        }
        for (name, edit) in wall_time_only() {
            assert_eq!(keys(edit), (fp, key), "{name} moves neither");
        }
    }

    /// A register netlist's fingerprint binds every input the sequential
    /// report reads, and neither the three it never reads (C, the path
    /// budget and the solver) nor a wall-time-only knob.
    #[test]
    fn sequential_fingerprint_covers_what_the_sequential_flow_reads() {
        let unread: Vec<Edit> = vec![
            ("confidence", |c| c.confidence = 0.2),
            ("max_paths", |c| c.max_paths = 10),
            ("solver", |c| c.solver = LabelSolver::Topological),
        ];
        let template = seq_spec(SstaConfig::date05());
        let fingerprint = |edit: fn(&mut SstaConfig)| {
            let mut config = SstaConfig::date05();
            edit(&mut config);
            template.with_config(config).fingerprint()
        };
        let fp = fingerprint(|_| {});
        let mut seen = std::collections::HashSet::new();
        for (name, edit) in shared_report_inputs() {
            let f = fingerprint(edit);
            assert!(f != fp, "{name} must move the fingerprint");
            assert!(seen.insert(f), "{name} collides");
        }
        for (name, edit) in unread.into_iter().chain(wall_time_only()) {
            assert_eq!(fingerprint(edit), fp, "{name} must not move it");
        }
    }

    #[test]
    fn with_config_shares_the_netlist_and_fingerprints_like_a_fresh_spec() {
        let circuit = iscas85::generate(Benchmark::C432);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let template = JobSpec::new(circuit.clone(), placement.clone(), SstaConfig::date05());
        let mut quality = SstaConfig::date05();
        quality.quality_inter = 30;
        let budget = RunBudget {
            max_paths: Some(3),
            ..RunBudget::none()
        };
        let configs = [
            SstaConfig::date05(),
            SstaConfig::date05().with_confidence(0.2),
            quality,
            SstaConfig::date05().with_backend(statim_stats::ConvolveBackend::Fft),
            SstaConfig::date05().with_threads(3),
            SstaConfig::date05().with_budget(budget),
        ];
        let mut distinct = std::collections::HashSet::new();
        for config in configs {
            let shared = template.with_config(config.clone());
            assert!(Arc::ptr_eq(&shared.circuit, &template.circuit));
            assert!(Arc::ptr_eq(&shared.placement, &template.placement));
            let fresh = JobSpec::new(circuit.clone(), placement.clone(), config);
            assert_eq!(shared.fingerprint(), fresh.fingerprint());
            distinct.insert(fresh.fingerprint());
        }
        // Confidence, quality and backend key the store; threads and
        // budgets are wall-time-only and fold onto the default's key.
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn restarted_service_serves_persisted_results_bit_identically() {
        let dir =
            std::env::temp_dir().join(format!("statim-service-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_store = || ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let rendered_fresh;
        {
            let service = AnalysisService::start(with_store()).expect("service starts");
            let receipt = service
                .submit(spec(Benchmark::C432, SstaConfig::date05()))
                .expect("admitted");
            assert!(!receipt.from_store);
            assert_eq!(wait_terminal(&service, receipt.id).state, JobState::Done);
            let report = analyze_result(&service, receipt.id);
            rendered_fresh = crate::report::deterministic_report(&report, 10);
            service.join();
        }
        // A "restarted daemon": a brand-new service over the same store
        // directory must answer the same spec from the replayed log,
        // without running the engine, byte-identically.
        let service = AnalysisService::start(with_store()).expect("service restarts");
        assert_eq!(service.stats().store_loaded, 1);
        assert_eq!(service.stats().store_entries, 1);
        let receipt = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        assert!(receipt.from_store, "restart must serve from the store");
        let served = analyze_result(&service, receipt.id);
        assert_eq!(
            crate::report::deterministic_report(&served, 10),
            rendered_fresh
        );
        service.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_store_warm_across_jobs() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let a = service
            .submit(spec(Benchmark::C432, SstaConfig::date05()))
            .expect("admitted");
        wait_terminal(&service, a.id);
        let cold = service.stats().cache;
        // A different circuit with the same settings shares the corner
        // point (and any coincident kernels) — the store must already be
        // warm, not rebuilt per job.
        let b = service
            .submit(spec(Benchmark::C499, SstaConfig::date05()))
            .expect("admitted");
        wait_terminal(&service, b.id);
        let warm = service.stats().cache;
        assert!(warm.entries >= cold.entries);
        assert!(
            warm.corner_misses == cold.corner_misses,
            "second job must reuse the corner point, not recompute it"
        );
        service.join();
    }

    /// A cheap, fingerprint-distinct spec: `seed` varies a wall-time-free
    /// quality knob so every call is a distinct store key.
    fn quick_spec(seed: u32) -> JobSpec {
        let mut config = SstaConfig::date05();
        config.quality_intra = 40 + seed as usize;
        config.quality_inter = 20;
        spec(Benchmark::C432, config)
    }

    /// A job queued in `client`'s lane (not yet in the lane's queue).
    fn queued(spec: &Arc<JobSpec>, client: &str, deadline_at_ms: Option<u64>) -> LiveJob {
        LiveJob {
            spec: Arc::clone(spec),
            fingerprint: 0,
            client: client.into(),
            deadline_at_ms,
            supervisor: None,
        }
    }

    /// A pathless report, for tests of the tables that hold reports.
    fn stub_report() -> JobReport {
        JobReport::Analyze(Arc::new(
            StoredReport {
                circuit: "c432".into(),
                gate_count: 0,
                label_sweeps: 0,
                det_critical_delay: 0.0,
                worst_case_delay: 0.0,
                overestimation_pct: 0.0,
                confidence: 0.05,
                sigma_c: 0.0,
                paths: Vec::new(),
            }
            .into_report(),
        ))
    }

    #[test]
    fn rate_limit_throttles_deterministically_on_the_tick_clock() {
        let (clock, ticks) = TickClock::manual();
        let service = AnalysisService::start(ServiceConfig {
            rate_limit: Some(2),
            clock,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let opts = || SubmitOptions::for_client("flooder");
        // Bucket starts full at 2 tokens: two submissions pass, the
        // third is refused with the exact integer retry hint.
        service.submit_with(quick_spec(0), opts()).expect("token 1");
        service.submit_with(quick_spec(1), opts()).expect("token 2");
        let err = service
            .submit_with(quick_spec(2), opts())
            .expect_err("bucket empty");
        match err {
            ServiceError::Throttled {
                client,
                retry_after_ms,
                kind: ThrottleKind::Rate { limit },
            } => {
                assert_eq!(client, "flooder");
                assert_eq!(limit, 2);
                // 1000 milli-tokens missing at 2 tokens/ms-of-1000 →
                // exactly 500 ms.
                assert_eq!(retry_after_ms, 500);
            }
            other => panic!("expected rate throttle, got {other:?}"),
        }
        // 499 ticks later the bucket still lacks a whole token; at 500
        // it refills exactly.
        ticks.store(499, Ordering::SeqCst);
        assert!(matches!(
            service.submit_with(quick_spec(3), opts()),
            Err(ServiceError::Throttled {
                retry_after_ms: 1,
                ..
            })
        ));
        ticks.store(500, Ordering::SeqCst);
        service
            .submit_with(quick_spec(4), opts())
            .expect("refilled after exactly retry-after ticks");
        // An unthrottled second client is untouched by the flooder.
        service
            .submit_with(quick_spec(5), SubmitOptions::for_client("calm"))
            .expect("other lanes unaffected");
        assert_eq!(service.stats().throttled, 2);
        assert_eq!(service.stats().clients, 2);
        service.join();
    }

    #[test]
    fn per_client_cap_throttles_until_a_slot_frees() {
        let service = AnalysisService::start(ServiceConfig {
            max_per_client: Some(1),
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let first = service
            .submit_with(quick_spec(10), SubmitOptions::for_client("a"))
            .expect("first job admitted");
        let err = service
            .submit_with(quick_spec(11), SubmitOptions::for_client("a"))
            .expect_err("cap of 1");
        match err {
            ServiceError::Throttled {
                retry_after_ms,
                kind: ThrottleKind::PerClient { active, max },
                ..
            } => {
                assert_eq!((active, max), (1, 1));
                assert_eq!(retry_after_ms, PER_CLIENT_RETRY_MS);
            }
            other => panic!("expected per-client throttle, got {other:?}"),
        }
        // The cap is per client, not global.
        service
            .submit_with(quick_spec(12), SubmitOptions::for_client("b"))
            .expect("other client admitted");
        // Completion frees the slot.
        wait_terminal(&service, first.id);
        service
            .submit_with(quick_spec(13), SubmitOptions::for_client("a"))
            .expect("slot freed on completion");
        assert_eq!(service.stats().throttled, 1);
        service.join();
    }

    #[test]
    fn store_hits_bypass_the_live_job_cap() {
        let service = AnalysisService::start(ServiceConfig {
            max_per_client: Some(1),
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let warm = service
            .submit_with(quick_spec(20), SubmitOptions::for_client("a"))
            .expect("admitted");
        wait_terminal(&service, warm.id);
        // Occupy the client's only slot...
        service
            .submit_with(quick_spec(21), SubmitOptions::for_client("a"))
            .expect("slot taken");
        // ...and the cached resubmission still answers: it never
        // touches the executor, so the cap does not apply.
        let hit = service
            .submit_with(quick_spec(20), SubmitOptions::for_client("a"))
            .expect("store hit bypasses cap");
        assert!(hit.from_store);
        service.join();
    }

    #[test]
    fn queue_deadline_expires_job_instead_of_running_it() {
        let (clock, ticks) = TickClock::manual();
        let service = AnalysisService::start(ServiceConfig {
            clock,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        // A heavy job pins the single executor while the victim's
        // deadline passes on the manual clock.
        let heavy = service
            .submit(spec(
                Benchmark::C1355,
                SstaConfig::date05().with_confidence(0.3),
            ))
            .expect("admitted");
        let victim = service
            .submit_with(
                quick_spec(30),
                SubmitOptions {
                    client: Some("deadline".into()),
                    deadline_ms: Some(50),
                },
            )
            .expect("admitted");
        ticks.store(51, Ordering::SeqCst);
        let status = wait_terminal(&service, victim.id);
        assert_eq!(status.state, JobState::Expired);
        match service.result_any(victim.id) {
            Err(ServiceError::JobFailed { error, .. }) => {
                assert_eq!(error.class, ErrorClass::Resource);
                assert!(error.message.contains("expired"), "{error}");
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
        assert_eq!(service.stats().expired, 1);
        // A deadline met is not a shed: the heavy job completes.
        assert_ne!(wait_terminal(&service, heavy.id).state, JobState::Expired);
        service.join();
    }

    /// A sequential spec: the s27 register benchmark, whose `# statim
    /// clock` directive supplies the period the executor's flow needs.
    fn seq_spec(config: SstaConfig) -> JobSpec {
        let circuit =
            statim_netlist::generators::sequential::from_name("s27").expect("s27 generator exists");
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        JobSpec::new(circuit, placement, config)
    }

    #[test]
    fn sequential_job_runs_the_sequential_flow_bit_identically() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let receipt = service
            .submit(seq_spec(SstaConfig::date05()))
            .expect("admitted");
        assert!(!receipt.from_store);
        let status = wait_terminal(&service, receipt.id);
        assert_eq!(status.state, JobState::Done);
        let report = service.result_any(receipt.id).expect("report available");
        let JobReport::Sequential(served) = &report else {
            panic!("sequential variant");
        };
        assert_eq!(served.circuit, "s27");
        assert!(!served.checks.is_empty());
        assert!(served.min_period.is_some());
        // The served rendering is byte-identical to a fresh direct run
        // with the same configuration.
        let fresh = crate::sequential::SequentialEngine::new(crate::sequential::SequentialConfig {
            ssta: SstaConfig::date05(),
            ..crate::sequential::SequentialConfig::date05()
        })
        .run(
            &statim_netlist::generators::sequential::from_name("s27").expect("s27"),
            &Placement::generate(
                &statim_netlist::generators::sequential::from_name("s27").expect("s27"),
                PlacementStyle::Levelized,
            ),
        )
        .expect("fresh sequential run");
        assert_eq!(
            report.deterministic_text(10),
            crate::report::deterministic_sequential_report(&fresh, 10)
        );
        service.join();
    }

    #[test]
    fn duplicate_sequential_submission_hits_the_result_store() {
        let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
        let first = service
            .submit(seq_spec(SstaConfig::date05()))
            .expect("admitted");
        wait_terminal(&service, first.id);
        let fresh = service.result_any(first.id).expect("first report");
        // Thread count is wall-time-only: the fingerprint matches and
        // the store serves the same Arc.
        let second = service
            .submit(seq_spec(SstaConfig::date05().with_threads(1)))
            .expect("admitted");
        assert!(second.from_store);
        let served = service.result_any(second.id).expect("served report");
        let (JobReport::Sequential(fresh), JobReport::Sequential(served)) = (&fresh, &served)
        else {
            panic!("sequential variants");
        };
        assert!(Arc::ptr_eq(fresh, served), "served from the store");
        assert_eq!(service.stats().store_hits, 1);
        service.join();
    }

    #[test]
    fn sequential_results_are_not_persisted_to_the_store_log() {
        let dir =
            std::env::temp_dir().join(format!("statim-service-seq-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_store = || ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        {
            let service = AnalysisService::start(with_store()).expect("service starts");
            let receipt = service
                .submit(seq_spec(SstaConfig::date05()))
                .expect("admitted");
            assert_eq!(wait_terminal(&service, receipt.id).state, JobState::Done);
            service.join();
        }
        // The restarted service replays nothing (sequential reports are
        // memory-only) and re-runs the job instead of store-serving it.
        let service = AnalysisService::start(with_store()).expect("service restarts");
        assert_eq!(service.stats().store_loaded, 0);
        let receipt = service
            .submit(seq_spec(SstaConfig::date05()))
            .expect("admitted");
        assert!(!receipt.from_store, "no on-disk replay for sequential");
        assert_eq!(wait_terminal(&service, receipt.id).state, JobState::Done);
        service.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_robin_drains_lanes_fairly_in_activation_order() {
        // Drive `pick_runnable` directly on a hand-built state: client
        // `a` floods three jobs before `b` and `c` submit one or two —
        // the drain must interleave a,b,c,a,b,a, not serve the flooder
        // first.
        let mut st = State::default();
        let spec = Arc::new(quick_spec(40));
        let script: &[(&str, u64)] = &[("a", 1), ("a", 2), ("a", 3), ("b", 4), ("b", 5), ("c", 6)];
        for &(client, id) in script {
            st.live.insert(id, queued(&spec, client, None));
            if !st.lanes.contains_key(client) {
                st.lanes.insert(client.into(), Lane::new(None, 0));
                st.rr_order.push(client.into());
            }
            let lane = st.lanes.get_mut(client).expect("lane exists");
            lane.queue.push_back(id);
            lane.active += 1;
            st.queued_total += 1;
        }
        let clock = TickClock::manual().0;
        let mut order = Vec::new();
        while let Some((id, _, _, _)) = pick_runnable(&mut st, &clock) {
            order.push(id);
        }
        assert_eq!(order, vec![1, 4, 6, 2, 5, 3]);
        assert_eq!(st.queued_total, 0);
    }

    #[test]
    fn retirement_keeps_the_bound_and_spares_live_jobs() {
        let mut st = State::default();
        let spec = Arc::new(quick_spec(42));
        let done = || FinishedJob {
            spec: Arc::clone(&spec),
            fingerprint: 0,
            from_store: false,
            state: JobState::Done,
            outcome: Ok(stub_report()),
        };
        // The oldest job of all stays queued (then running): live jobs
        // are not in the finished table, so they never retire.
        let live = st.alloc_id();
        st.live.insert(live, queued(&spec, "", None));
        for _ in 0..RETAINED_JOBS + 5 {
            let id = st.alloc_id();
            st.retain(id, done());
            if id == 3 {
                let running = Supervisor::new(RunBudget::none(), 0);
                st.live.get_mut(&live).expect("live").supervisor = Some(Arc::new(running));
            }
        }
        assert_eq!(st.finished.len(), RETAINED_JOBS);
        assert_eq!(st.live.len() + st.finished.len(), RETAINED_JOBS + 1);
        assert_eq!(st.stats.retired_jobs, 5);
        assert!(st.job(JobId(live)).is_ok());
        // Ids 1..=5 retired, oldest first; a request naming a job moves
        // it to the back, so the next retirement skips it.
        assert!(matches!(st.job(JobId(5)), Err(ServiceError::Retired(_))));
        assert!(st.job(JobId(6)).is_ok(), "job 6 is the oldest kept");
        let id = st.alloc_id();
        st.retain(id, done());
        assert!(st.job(JobId(6)).is_ok());
        assert!(matches!(st.job(JobId(7)), Err(ServiceError::Retired(_))));
        assert!(matches!(
            st.job(JobId(st.next_id)),
            Err(ServiceError::UnknownJob(_))
        ));
    }

    #[test]
    fn result_cache_keeps_the_bound_in_use_order() {
        let mut st = State::default();
        let report = stub_report();
        let resident = |persisted| Resident {
            report: report.clone(),
            persisted,
        };
        let bound = RETAINED_JOBS as u64;
        for fp in 0..bound {
            st.results.insert(fp, resident(true));
        }
        assert_eq!(st.results.len(), RETAINED_JOBS);
        // A hit moves fingerprint 0 to the back, so the insertion past
        // the bound evicts 1, now the least recently used.
        assert!(st.resident(0).is_some());
        st.results.insert(bound, resident(true));
        assert_eq!(st.results.len(), RETAINED_JOBS);
        assert!(st.resident(1).is_none(), "the oldest entry goes");
        assert!(st.resident(0).is_some() && st.resident(2).is_some());
        // A report the log does not hold counts while resident (once,
        // however often it is inserted) and stops counting once evicted.
        st.results.insert(bound + 1, resident(false));
        st.results.insert(bound + 1, resident(false));
        assert_eq!((st.results.len(), st.unpersisted()), (RETAINED_JOBS, 1));
        for fp in bound + 2..2 * bound + 2 {
            st.results.insert(fp, resident(true));
        }
        assert_eq!((st.results.len(), st.unpersisted()), (RETAINED_JOBS, 0));
        assert!(st.resident(bound + 1).is_none());
    }

    #[test]
    fn edited_specs_share_the_placement_and_fingerprint_like_a_fresh_spec() {
        let circuit = iscas85::generate(Benchmark::C432);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let config = SstaConfig::date05().with_confidence(0.1);
        let base = JobSpec::new(circuit.clone(), placement.clone(), config.clone());
        let mut edited = circuit;
        let script = crate::EcoScript::parse_compact("resize:g113:0.5;swap:g115:nor2")
            .expect("script parses");
        crate::apply_edits(&mut edited, &script).expect("edits apply");
        let spec = base.edited(&script).expect("edits apply");
        assert!(Arc::ptr_eq(&spec.placement, &base.placement));
        let fresh = JobSpec::new(edited, placement, config);
        assert_eq!(spec.fingerprint(), fresh.fingerprint());
        assert_eq!(spec.analysis_key(), fresh.analysis_key());
        assert_ne!(spec.fingerprint(), base.fingerprint());
        // The origin names the base netlist under the spec's own
        // settings, whatever settings the base ran with.
        assert_eq!(spec.base_analysis_key(), Some(base.analysis_key()));
        let mut quality = SstaConfig::date05();
        quality.quality_inter = 30;
        assert_eq!(
            spec.with_config(quality.clone()).base_analysis_key(),
            Some(base.with_config(quality).analysis_key())
        );
        assert_eq!(fresh.base_analysis_key(), None);
        let err = base
            .edited(&crate::EcoScript::parse_compact("resize:nosuch:2").expect("parses"))
            .expect_err("an unknown gate is refused");
        assert_eq!(err.class, ErrorClass::Config, "{err}");
    }

    /// The digest streams the netlist text into the hash; it must equal
    /// FNV-1a over the rendered `.bench` text, then the DEF text. Both
    /// continue through `Fnv1a::new`, so a `.bench` part that hashed to 0
    /// would restart at the offset basis in both.
    #[test]
    fn streamed_digest_equals_the_hash_of_the_rendered_text() {
        use statim_netlist::generators::sequential;
        let rendered = |c: &Circuit, p: &Placement| {
            let bench = crate::cache::fnv1a(0, bench_format::write(c).as_bytes());
            crate::cache::fnv1a(bench, def_lite::write(c, p).as_bytes())
        };
        assert_eq!(Fnv1a::new(0).0, crate::cache::fnv1a(0, b""));
        let mut circuits: Vec<Circuit> = Benchmark::ALL
            .iter()
            .map(|&b| iscas85::generate(b))
            .collect();
        let mut edited = iscas85::generate(Benchmark::C880);
        let script = crate::EcoScript::parse_compact(
            "resize:g113:0.5;retime:g115:2.5e-12;swap:g120:nor2;rmwire:g130:0",
        )
        .expect("script parses");
        crate::apply_edits(&mut edited, &script).expect("edits apply");
        circuits.push(edited);
        circuits.push(sequential::s27());
        let directed = format!(
            "{}# statim clock period 1.25e-9\n# statim clock depth 3\n\
             # statim constraint setup 1e-11\n# statim constraint hold 2.5e-12\n",
            bench_format::write(&sequential::pipeline(2, 8).expect("pipeline"))
        );
        let directed = bench_format::parse("pipe2x8", &directed).expect("directives parse");
        assert!(directed.seq_spec().period.is_some());
        circuits.push(directed);
        for c in &circuits {
            for style in [PlacementStyle::Levelized, PlacementStyle::Random(7)] {
                let p = Placement::generate(c, style);
                assert_eq!(netlist_digest(c, &p), rendered(c, &p), "{}", c.name());
            }
        }
    }

    #[test]
    fn expired_jobs_are_skipped_in_place_during_the_drain() {
        let mut st = State::default();
        let spec = Arc::new(quick_spec(41));
        for (id, deadline) in [(1u64, Some(10u64)), (2, None), (3, Some(500))] {
            st.live.insert(id, queued(&spec, "x", deadline));
        }
        st.lanes.insert("x".into(), Lane::new(None, 0));
        st.rr_order.push("x".into());
        let lane = st.lanes.get_mut("x").expect("lane");
        lane.queue.extend([1, 2, 3]);
        lane.active = 3;
        st.queued_total = 3;
        let (clock, ticks) = TickClock::manual();
        ticks.store(100, Ordering::SeqCst);
        // Job 1's deadline (10) passed at tick 100: the drain sheds it
        // and hands out job 2; job 3's deadline (500) is still good.
        let (id, ..) = pick_runnable(&mut st, &clock).expect("job 2 runnable");
        assert_eq!(id, 2);
        let expired = st.finished.get(1).expect("job 1 finished");
        assert_eq!(expired.state, JobState::Expired);
        assert_eq!(st.stats.expired, 1);
        let (id, ..) = pick_runnable(&mut st, &clock).expect("job 3 runnable");
        assert_eq!(id, 3);
        assert_eq!(st.queued_total, 0);
    }
}
