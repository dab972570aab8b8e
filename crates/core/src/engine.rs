//! The full methodology — the paper's Fig. 1 flowchart as a single
//! engine.
//!
//! ```text
//! characterize gates → Bellman-Ford labels → deterministic critical path
//!   → probabilistic analysis of it → σ_C
//!   → enumerate paths within C·σ_C → analyze each → rank by 3σ point
//!   → report (probabilistic critical path, overestimation, migration)
//! ```

#![warn(clippy::unwrap_used)]

use crate::analyze::{analyze_path_cached, AnalysisSettings, PathAnalysis};
use crate::cache::{AnalysisCache, CacheStats, KernelStore};
use crate::characterize::{characterize_placed, CircuitTiming};
use crate::correlation::LayerModel;
use crate::enumerate::{near_critical_paths, threshold};
use crate::error::ErrorClass;
use crate::longest_path::{critical_path, label, topo_labels, LabelChanges, Labeling, Labels};
use crate::rank::{rank_paths, RankedPath};
use crate::supervise::{fan_out, BudgetKind, RunBudget, Supervisor};
use crate::worst_case::worst_case_critical_delay;
use crate::{CoreError, Result};
use statim_netlist::GateId;
use statim_netlist::{Circuit, Placement};
use statim_process::delay::CornerSpec;
use statim_process::param::Variations;
use statim_process::Technology;
use std::sync::Arc;
use std::time::Instant;

/// Which longest-path solver computes the node labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSolver {
    /// Bellman-Ford, as in the paper (§3.1).
    BellmanFord,
    /// Single-pass topological dynamic program (ablation baseline).
    Topological,
}

/// Full configuration of an SSTA run.
#[derive(Debug, Clone, PartialEq)]
pub struct SstaConfig {
    /// Technology (nominals, capacitances, mobilities).
    pub tech: Technology,
    /// Process variations (σ per parameter, truncation).
    pub vars: Variations,
    /// Spatial-correlation layer model and variance split.
    pub layers: LayerModel,
    /// Input marginal shape for every parameter (paper: Gaussian).
    pub marginal: statim_stats::Marginal,
    /// Intra-die PDF computation model.
    pub intra_model: crate::analyze::IntraModel,
    /// Convolution kernel for the intra- and total-delay PDFs. `Grid`
    /// (the default) is the bit-identical reference; `Fft` computes the
    /// same densities in `O(Q log Q)`, equal to the grid backend up to
    /// floating-point round-off (run-to-run deterministic, validated to
    /// tolerance). The choice is folded into the kernel-cache
    /// fingerprint, so grid- and FFT-computed kernels never collide in
    /// a shared store.
    pub backend: statim_stats::ConvolveBackend,
    /// The confidence constant `C`: paths within `C·σ_C` of the
    /// deterministic critical delay are analyzed (paper: 0.05 for most
    /// circuits, 0.001 for c6288).
    pub confidence: f64,
    /// Intra-die PDF discretization (paper: 100).
    pub quality_intra: usize,
    /// Inter-die PDF discretization (paper: 50).
    pub quality_inter: usize,
    /// Ranking confidence multiple (paper: 3 ⇒ 3σ point).
    pub sigma_rank: f64,
    /// Worst-case corner (paper: 3σ).
    pub corner: CornerSpec,
    /// Enumeration budget; exceeding it is an error (the c6288 guard).
    pub max_paths: usize,
    /// Label solver.
    pub solver: LabelSolver,
    /// Worker threads for the per-path analysis fan-out. `None` (and
    /// `Some(0)`) use every available core. Results are bit-identical
    /// for any value — parallelism only changes wall time.
    pub threads: Option<usize>,
    /// Memoize the per-path analysis kernels (inter/intra PDFs, corner
    /// point) across paths. Exact-bits keys make hits bit-identical to
    /// recomputes, so this only changes wall time, never results.
    pub cache: bool,
    /// Upper bound on resident kernel-cache entries (`None` = unbounded).
    /// Only consulted when the run creates its own store; a store handed
    /// in through [`RunContext`] keeps whatever capacity it was built
    /// with. Eviction never changes results — only hit rates.
    pub cache_capacity: Option<usize>,
    /// Run budgets (wall clock, analyzed paths, MC samples), checked at
    /// work-item boundaries. A tripped budget yields a *partial* report
    /// flagged [`SstaReport::budget_exhausted`], not an error — unless
    /// it trips before any path is analyzed
    /// ([`CoreError::BudgetExhausted`]). Index-based budgets truncate a
    /// deterministic prefix of the enumeration order.
    pub budget: RunBudget,
    /// Panic-retries per supervised work item. Items are pure functions
    /// of their index, so any retry count yields a bit-identical report
    /// whenever the retried item eventually succeeds; an item that
    /// panics on every attempt is quarantined into
    /// [`SstaReport::degraded`].
    pub retries: usize,
    /// Fault-injection plan for adversarial testing. Faults target
    /// enumeration indices, so injection is bit-identical for any thread
    /// count or cache state. `None` (the default) injects nothing.
    #[cfg(any(test, feature = "fault-injection"))]
    pub faults: Option<std::sync::Arc<crate::faults::FaultPlan>>,
}

impl SstaConfig {
    /// The paper's configuration with `C = 0.05`.
    pub fn date05() -> Self {
        SstaConfig {
            tech: Technology::cmos130(),
            vars: Variations::date05(),
            layers: LayerModel::date05(),
            marginal: statim_stats::Marginal::Gaussian,
            intra_model: crate::analyze::IntraModel::GaussianClosedForm,
            backend: statim_stats::ConvolveBackend::Grid,
            confidence: 0.05,
            quality_intra: 100,
            quality_inter: 50,
            sigma_rank: 3.0,
            corner: CornerSpec::three_sigma(),
            max_paths: 1_000_000,
            solver: LabelSolver::BellmanFord,
            threads: None,
            cache: true,
            cache_capacity: None,
            budget: RunBudget::none(),
            retries: 1,
            #[cfg(any(test, feature = "fault-injection"))]
            faults: None,
        }
    }

    /// Same configuration with a different confidence constant.
    pub fn with_confidence(mut self, c: f64) -> Self {
        self.confidence = c;
        self
    }

    /// Same configuration with a different layer model.
    pub fn with_layers(mut self, layers: LayerModel) -> Self {
        self.layers = layers;
        self
    }

    /// Same configuration with a different convolution backend.
    pub fn with_backend(mut self, backend: statim_stats::ConvolveBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Same configuration with an explicit worker-thread count
    /// (0 ⇒ every available core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Same configuration with the kernel cache enabled or disabled.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Same configuration with a kernel-cache entry cap
    /// (`None` = unbounded).
    pub fn with_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Same configuration with run budgets installed.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Same configuration with a different per-item panic-retry bound.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Same configuration with a fault-injection plan installed.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.faults = Some(std::sync::Arc::new(plan));
        self
    }

    /// Whether a fault-injection plan is installed (never, outside
    /// fault-injection builds).
    pub(crate) fn has_fault_plan(&self) -> bool {
        #[cfg(any(test, feature = "fault-injection"))]
        if self.faults.is_some() {
            return true;
        }
        false
    }

    pub(crate) fn settings(&self) -> AnalysisSettings {
        AnalysisSettings {
            vars: self.vars,
            layers: self.layers.clone(),
            marginal: self.marginal,
            intra_model: self.intra_model,
            backend: self.backend,
            quality_intra: self.quality_intra,
            quality_inter: self.quality_inter,
            sigma_rank: self.sigma_rank,
            corner: self.corner,
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.confidence < 0.0 || !self.confidence.is_finite() {
            return Err(CoreError::InvalidConfig {
                message: format!("confidence C must be ≥ 0, got {}", self.confidence),
            });
        }
        if self.quality_intra < 4 || self.quality_inter < 4 {
            return Err(CoreError::InvalidConfig {
                message: "QUALITY discretizations must be at least 4".into(),
            });
        }
        if self.max_paths == 0 {
            return Err(CoreError::InvalidConfig {
                message: "max_paths must be positive".into(),
            });
        }
        if let Some(w) = self.budget.max_wall_secs {
            if !w.is_finite() || w < 0.0 {
                return Err(CoreError::InvalidConfig {
                    message: format!("max_wall_secs must be a finite value ≥ 0, got {w}"),
                });
            }
        }
        if self.budget.max_paths == Some(0) || self.budget.max_mc_samples == Some(0) {
            return Err(CoreError::InvalidConfig {
                message: "budget path/sample caps must be positive (omit to disable)".into(),
            });
        }
        check_cache_capacity(self.cache_capacity)
    }
}

/// Refuses a zero kernel-cache capacity, which a store would otherwise
/// round up to one entry per shard. Shared by [`SstaConfig`] and the
/// service's process-wide store.
pub(crate) fn check_cache_capacity(capacity: Option<usize>) -> Result<()> {
    if capacity == Some(0) {
        return Err(CoreError::InvalidConfig {
            message: "cache capacity must be positive (omit to leave unbounded)".into(),
        });
    }
    Ok(())
}

/// Wall time and thread utilization of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageProfile {
    /// Wall-clock time, seconds.
    pub wall: f64,
    /// Worker threads the stage ran on (1 for serial stages).
    pub threads: usize,
    /// Fraction of `wall · threads` the workers were busy — 1.0 for a
    /// serial stage, below 1.0 when a pooled stage tails off.
    pub utilization: f64,
}

impl StageProfile {
    /// A stage that ran on the calling thread only.
    pub(crate) fn serial(wall: f64) -> Self {
        StageProfile {
            wall,
            threads: 1,
            utilization: 1.0,
        }
    }

    /// A stage with a serial prefix followed by a pooled fan-out. The
    /// serial prefix runs on the calling thread alone, so it contributes
    /// capacity at 1 thread — not `threads` — keeping `utilization`
    /// honest on multi-core hosts: capacity = `serial_wall · 1 +
    /// pooled_wall · threads`.
    fn pooled_with_serial(
        serial_wall: f64,
        pooled_wall: f64,
        pooled_busy: f64,
        threads: usize,
    ) -> Self {
        let capacity = serial_wall + pooled_wall * threads as f64;
        let busy = serial_wall + pooled_busy;
        let utilization = if capacity > 0.0 {
            (busy / capacity).min(1.0)
        } else {
            1.0
        };
        StageProfile {
            wall: serial_wall + pooled_wall,
            threads,
            utilization,
        }
    }
}

/// Per-stage run profile — the breakdown behind the paper's run-time
/// discussion (per-path PDF analysis dominates; everything deterministic
/// is cheap), extended with thread-utilization accounting for the
/// parallel per-path fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunProfile {
    /// Gate characterization (one-time, §3).
    pub characterize: StageProfile,
    /// Longest-path labels (Bellman-Ford or DP).
    pub labels: StageProfile,
    /// Near-critical path enumeration (Fig. 2).
    pub enumerate: StageProfile,
    /// Per-path probabilistic analysis (the κ·QUALITY kernels); the one
    /// stage that fans out across worker threads.
    pub analyze: StageProfile,
    /// Confidence-point ranking.
    pub rank: StageProfile,
    /// Kernel-cache hit/miss/occupancy counters for the analyze stage;
    /// `None` when the cache is disabled. The hit/miss *split* between
    /// threads is scheduling-dependent and diagnostic only — totals
    /// (hits + misses = lookups) and results are deterministic.
    pub cache: Option<CacheStats>,
    /// Paths quarantined by graceful degradation during the analyze
    /// stage (0 in a healthy run). Details are in
    /// [`SstaReport::degraded`].
    pub degraded: usize,
    /// Panic-retries performed by the supervisor during the analyze
    /// stage (0 in a healthy run). A successful retry recomputes the
    /// item from scratch, so retried runs stay bit-identical.
    pub retries: u64,
    /// Panics caught (isolated) during the analyze stage, including
    /// ones a retry recovered from.
    pub panics: u64,
}

/// A near-critical path that was quarantined instead of ranked: its
/// kernel produced a non-finite value or a recoverable error, so the run
/// completed without it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedPath {
    /// Position of the path in enumeration order (stable across thread
    /// counts and cache states).
    pub index: usize,
    /// The gates on the quarantined path.
    pub gates: Vec<GateId>,
    /// Failure class that triggered the quarantine.
    pub class: ErrorClass,
    /// Human-readable reason.
    pub reason: String,
}

/// The result of a full run — one row of the paper's Table 2 plus the
/// complete ranked path set.
#[derive(Debug, Clone, PartialEq)]
pub struct SstaReport {
    /// Circuit name.
    pub circuit: String,
    /// Gate count of the circuit.
    pub gate_count: usize,
    /// Deterministic critical path delay, seconds (Table 2 col. 3).
    pub det_critical_delay: f64,
    /// Worst-case (corner) critical delay, seconds (col. 4).
    pub worst_case_delay: f64,
    /// Worst-case overestimation over the probabilistic critical path's
    /// 3σ point, percent (col. 5).
    pub overestimation_pct: f64,
    /// Confidence constant used (col. 6).
    pub confidence: f64,
    /// σ of the deterministic critical path's total delay PDF — the
    /// variability yardstick the enumeration threshold uses.
    pub sigma_c: f64,
    /// Number of near-critical paths analyzed (col. 7).
    pub num_paths: usize,
    /// All analyzed paths in probabilistic rank order (element 0 is the
    /// probabilistic critical path). Columns 8–11 of Table 2 come from
    /// element 0: mean, 3σ point, gate count, deterministic rank.
    pub paths: Vec<RankedPath>,
    /// Bellman-Ford (or DP) relaxation sweeps.
    pub label_sweeps: usize,
    /// Wall-clock run time of the whole flow, seconds (col. 12).
    pub runtime: f64,
    /// Per-stage wall time and thread utilization.
    pub profile: RunProfile,
    /// Paths quarantined by graceful degradation (empty in a healthy
    /// run): the run completed, but these paths' kernels went non-finite
    /// or errored and are excluded from `paths` and `num_paths`.
    pub degraded: Vec<DegradedPath>,
    /// The run budget that tripped, if any — the report is then
    /// *partial*: only the paths analyzed before the trip are ranked.
    /// `None` for a complete run.
    pub budget_exhausted: Option<BudgetKind>,
    /// Enumerated near-critical paths that were skipped (never analyzed)
    /// because a budget tripped. 0 for a complete run.
    pub skipped_paths: usize,
}

impl SstaReport {
    /// The probabilistic critical path.
    pub fn critical(&self) -> &RankedPath {
        &self.paths[0]
    }

    /// Whether the run completed without quarantine, budget trips or
    /// skipped paths.
    pub(crate) fn is_clean(&self) -> bool {
        self.degraded.is_empty() && self.budget_exhausted.is_none() && self.skipped_paths == 0
    }
}

/// External resources a caller can thread into a run. A one-shot CLI
/// invocation uses [`RunContext::default`] (fresh cache, internal
/// supervisor); a resident daemon hands every job the same
/// [`KernelStore`] so kernels stay warm across jobs, and its own
/// [`Supervisor`] so a `CANCEL` request can trip the run's
/// [`CancelToken`](crate::supervise::CancelToken) from another thread.
#[derive(Default)]
pub struct RunContext<'a> {
    /// Process-wide kernel store shared across runs. `None` gives the
    /// run a private store sized by [`SstaConfig::cache_capacity`].
    /// Sharing never changes results — keys embed the settings
    /// fingerprint, so differently-configured runs cannot collide.
    pub store: Option<Arc<KernelStore>>,
    /// Externally-owned supervisor. `None` builds one from the config's
    /// budget/retries; `Some` lets the caller keep the cancel token.
    pub supervisor: Option<&'a Supervisor>,
}

/// A per-path reuse oracle for [`SstaEngine::run_characterized`]: the
/// retained analysis of a path's gates, or `None` to compute it.
pub(crate) type Reuse<'a> = &'a (dyn Fn(&[GateId]) -> Option<PathAnalysis> + Sync);

/// What a run computes before σ_C: the gate timing, the longest-path
/// labels, the deterministic critical delay, the critical path and the
/// worst-case corner delay. None of it depends on `C`, which only sets
/// the enumeration threshold, so one front serves a run at any `C` of
/// the same netlist and settings.
#[derive(Debug, Clone)]
pub(crate) struct Front {
    pub(crate) timing: CircuitTiming,
    pub(crate) labels: Labels,
    pub(crate) critical_delay: f64,
    pub(crate) critical_path: Vec<GateId>,
    /// The corner critical delay, or the error computing it, which a run
    /// raises only after ranking, where it reads the delay.
    pub(crate) worst_case: Result<f64>,
    /// The label changes Bellman-Ford made when the [`Labeling`] asked
    /// for them: every gate's, or an edit's cone's, for the caller to
    /// commit to its label history.
    pub(crate) label_changes: Option<LabelChanges>,
}

/// Table 2's column 5: how far the corner delay overestimates the
/// probabilistic critical path's confidence point, percent.
pub(crate) fn overestimation_pct(worst_case_delay: f64, ranked: &[RankedPath]) -> f64 {
    let crit_point = ranked[0].analysis.confidence_point;
    (worst_case_delay - crit_point) / crit_point * 100.0
}

/// A clean report's path analyses, looked up by gate sequence: what a
/// reuse oracle hands back in place of a recompute. A report with
/// quarantined or skipped paths retains nothing, since reuse around them
/// would need per-path provenance the report does not keep.
pub(crate) struct RetainedPaths {
    report: Arc<SstaReport>,
    /// `(gate-sequence hash, index into report.paths)`, sorted by hash
    /// and then by gate sequence. The hash is unkeyed and netlists come
    /// from outside, so colliding paths must not cost a scan: a lookup
    /// is one binary search on (hash, gates) however many collide.
    index: Vec<(u64, u32)>,
}

impl RetainedPaths {
    /// Indexes `report`'s paths (none unless it is clean).
    pub(crate) fn new(report: Arc<SstaReport>) -> Self {
        let paths = &report.paths;
        let mut index: Vec<(u64, u32)> = if report.is_clean() {
            paths
                .iter()
                .enumerate()
                .map(|(i, p)| (path_hash(&p.analysis.gates), i as u32))
                .collect()
        } else {
            Vec::new()
        };
        index.sort_unstable_by(|a, b| index_key(paths, a).cmp(&index_key(paths, b)));
        RetainedPaths { report, index }
    }

    /// The indexed report.
    pub(crate) fn report(&self) -> &Arc<SstaReport> {
        &self.report
    }

    /// This index over `report`, whose paths are the indexed report's in
    /// the same order: a report that reused this one whole.
    pub(crate) fn rebase(&self, report: Arc<SstaReport>) -> RetainedPaths {
        debug_assert_eq!(report.paths.len(), self.report.paths.len());
        RetainedPaths {
            report,
            index: self.index.clone(),
        }
    }

    /// The retained analysis of exactly this gate sequence.
    pub(crate) fn get(&self, gates: &[GateId]) -> Option<&PathAnalysis> {
        let paths = &self.report.paths;
        let want = (path_hash(gates), gates);
        let at = self.index.partition_point(|e| index_key(paths, e) < want);
        let &(_, i) = self.index.get(at).filter(|e| index_key(paths, e) == want)?;
        Some(&paths[i as usize].analysis)
    }
}

/// The sort key of an index entry: its hash, then its gate sequence.
fn index_key<'a>(paths: &'a [RankedPath], &(hash, i): &(u64, u32)) -> (u64, &'a [GateId]) {
    (hash, &paths[i as usize].analysis.gates)
}

/// A fast multiplicative hash of a gate sequence.
fn path_hash(gates: &[GateId]) -> u64 {
    gates.iter().fold(gates.len() as u64, |h, g| {
        (h.rotate_left(5) ^ u64::from(g.0)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// The statistical timing engine.
#[derive(Debug, Clone)]
pub struct SstaEngine {
    config: SstaConfig,
}

impl SstaEngine {
    /// Creates an engine with `config`.
    pub fn new(config: SstaConfig) -> Self {
        SstaEngine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SstaConfig {
        &self.config
    }

    /// Runs the full methodology on a placed circuit.
    ///
    /// # Errors
    ///
    /// Returns configuration errors up front,
    /// [`CoreError::EmptyCircuit`] for untimeable circuits, and
    /// [`CoreError::PathBudgetExceeded`] when `C` admits more paths than
    /// `max_paths` (lower `C`, as the paper did for c6288).
    pub fn run(&self, circuit: &Circuit, placement: &Placement) -> Result<SstaReport> {
        self.run_with(circuit, placement, RunContext::default())
    }

    /// Runs the full methodology with caller-supplied resources — a
    /// shared kernel store and/or an external supervisor. Equivalent to
    /// [`SstaEngine::run`] when `ctx` is [`RunContext::default`]; the
    /// report is bit-identical either way.
    ///
    /// # Errors
    ///
    /// As [`SstaEngine::run`].
    pub fn run_with(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        ctx: RunContext<'_>,
    ) -> Result<SstaReport> {
        self.run_with_front(circuit, placement, ctx, false)
            .map(|(_, report)| report)
    }

    /// [`SstaEngine::run_with`], also returning the front it built, with
    /// every label change when `record` asks for them.
    pub(crate) fn run_with_front(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        ctx: RunContext<'_>,
        record: bool,
    ) -> Result<(Front, SstaReport)> {
        let start = Instant::now();
        self.check(circuit, placement)?;
        // The supervisor's wall clock starts with the run, so serial
        // stages count against --max-wall-secs even though only the
        // fan-out has cancellation points. An external supervisor keeps
        // its caller's clock (the service starts it at dequeue time, so
        // queue wait does not eat a job's wall budget).
        let local_sup = Supervisor::new(self.config.budget, self.config.retries);
        let sup = ctx.supervisor.unwrap_or(&local_sup);

        // 1. One-time gate characterization (placement-aware wire loads,
        //    as a DEF-driven flow sees them), then the front.
        let t0 = Instant::now();
        let timing = characterize_placed(circuit, &self.config.tech, placement)?;
        let characterize = StageProfile::serial(t0.elapsed().as_secs_f64());
        let (front, labels) = self.front(circuit, timing, Labeling::Full { record })?;
        let mut report =
            self.run_characterized(circuit, placement, &front, ctx.store, sup, None)?;
        report.profile.characterize = characterize;
        report.profile.labels = labels;
        report.runtime = start.elapsed().as_secs_f64();
        Ok((front, report))
    }

    /// Stage 2, the deterministic analysis of a characterized circuit:
    /// labels by the configured solver, as `labeling` says, the critical
    /// delay and the critical path, plus the worst-case corner delay.
    /// Returns the front and the wall time of the labels and the critical
    /// path.
    pub(crate) fn front(
        &self,
        circuit: &Circuit,
        timing: CircuitTiming,
        labeling: Labeling<'_>,
    ) -> Result<(Front, StageProfile)> {
        let t0 = Instant::now();
        let (labels, label_changes) = match self.config.solver {
            LabelSolver::Topological => (topo_labels(circuit, &timing)?, None),
            LabelSolver::BellmanFord => label(circuit, &timing, labeling)?,
        };
        let critical_delay = labels.critical_delay(circuit)?;
        let critical_path = critical_path(circuit, &timing, &labels)?;
        let stage = StageProfile::serial(t0.elapsed().as_secs_f64());
        // Worst-case analysis over the whole circuit (corner STA).
        let worst_case = worst_case_critical_delay(
            circuit,
            &timing,
            &self.config.tech,
            &self.config.vars,
            self.config.corner,
        );
        let front = Front {
            timing,
            labels,
            critical_delay,
            critical_path,
            worst_case,
            label_changes,
        };
        Ok((front, stage))
    }

    /// Refuses what no stage can time: an invalid config, a register
    /// netlist, or a placement of the wrong length.
    pub(crate) fn check(&self, circuit: &Circuit, placement: &Placement) -> Result<()> {
        self.config.validate()?;
        // Combinational SSTA has no notion of a clock edge: a register Q
        // would be treated as a free input and every register-to-register
        // constraint silently dropped. Refuse instead of mis-timing.
        if let Some(first) = circuit.registers().first() {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "circuit `{}` is sequential ({} registers; first `{}` at line {}): \
                     combinational SSTA cannot time registers — use the sequential flow \
                     (`statim seq`)",
                    circuit.name(),
                    circuit.registers().len(),
                    first.name,
                    first.line
                ),
            });
        }
        if placement.len() != circuit.gate_count() {
            return Err(CoreError::Netlist(
                statim_netlist::NetlistError::PlacementMismatch {
                    gates: circuit.gate_count(),
                    placed: placement.len(),
                },
            ));
        }
        Ok(())
    }

    /// Stages 3–6 from a front: σ_C, enumeration, the supervised
    /// per-path fan-out and ranking. `reuse` may stand in for the
    /// per-path kernel: it returns a retained analysis that is bitwise
    /// what [`analyze_path_cached`] would compute now, or `None` to
    /// compute it. The report's `runtime` covers these stages only, and
    /// `profile.characterize` and `profile.labels` are left to the
    /// caller, which built the front (or reused one, at no cost).
    pub(crate) fn run_characterized(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        front: &Front,
        store: Option<Arc<KernelStore>>,
        sup: &Supervisor,
        reuse: Option<Reuse<'_>>,
    ) -> Result<SstaReport> {
        let start = Instant::now();
        let settings = self.config.settings();
        let mut profile = RunProfile::default();
        let timing = &front.timing;
        let labels = &front.labels;
        let det_critical_delay = front.critical_delay;
        let det_path = &front.critical_path;

        // 3. Probabilistic analysis of the deterministic critical path
        //    yields σ_C. The kernel cache (when enabled) is shared with
        //    the step-5 fan-out, so anything computed here is a hit there.
        let t0 = Instant::now();
        let cache = self.config.cache.then(|| {
            let store = store.unwrap_or_else(|| {
                Arc::new(KernelStore::with_capacity(self.config.cache_capacity))
            });
            AnalysisCache::with_store(store, &self.config.tech, &settings)
        });
        // Snapshot the (possibly shared, already-warm) store so the
        // profile reports this run's own hits/misses/evictions, not the
        // store's lifetime totals. Occupancy stays absolute.
        let cache_before = cache.as_ref().map(AnalysisCache::stats);
        let analyze = |path: &[GateId]| match reuse.and_then(|r| r(path)) {
            Some(retained) => Ok(retained),
            None => analyze_path_cached(
                path,
                timing,
                placement,
                &self.config.tech,
                &settings,
                cache.as_ref(),
            ),
        };
        let det_analysis = analyze(det_path)?;
        let sigma_c = det_analysis.sigma;
        let det_wall = t0.elapsed().as_secs_f64();

        // Arm cache poisoning only after the deterministic path's own
        // analysis: σ_C must stay finite so enumeration (and the rest of
        // the run) can proceed, which is exactly the graceful-degradation
        // contract the fault exercises.
        #[cfg(any(test, feature = "fault-injection"))]
        if let (Some(plan), Some(c)) = (&self.config.faults, cache.as_ref()) {
            if let Some(shard) = plan.poisoned_inter_shard() {
                c.poison_inter_shard(shard);
            }
        }

        // 4. Enumerate paths within C·σ_C.
        let t0 = Instant::now();
        let threshold = threshold(det_critical_delay, self.config.confidence, sigma_c);
        let set = near_critical_paths(circuit, timing, labels, threshold, self.config.max_paths)?;
        profile.enumerate = StageProfile::serial(t0.elapsed().as_secs_f64());

        // 5. Analyze every near-critical path on the worker pool,
        //    reusing the critical path's analysis. Each path is
        //    independent; results merge in enumeration order, so the
        //    report is bit-identical for any thread count. The det path's
        //    position is found once (lengths-first comparison) so the
        //    per-path closure compares indices, not O(|path|) gate lists.
        //    A path whose kernel errored, went non-finite or panicked
        //    (after exhausting its retries) is quarantined, not fatal.
        let det_idx = set
            .paths
            .iter()
            .position(|p| p.len() == det_path.len() && p == det_path);
        let t0 = Instant::now();
        let threads = crate::parallel::effective_threads(self.config.threads);
        let pool = fan_out(
            &set.paths,
            threads,
            sup,
            |i, p| -> Result<PathAnalysis> {
                #[cfg(any(test, feature = "fault-injection"))]
                if let Some(plan) = &self.config.faults {
                    if let Some(msg) = plan.panic_path(i) {
                        panic!("{}", msg);
                    }
                }
                let analysis = if Some(i) == det_idx {
                    det_analysis.clone()
                } else {
                    analyze(p)?
                };
                #[cfg(any(test, feature = "fault-injection"))]
                let analysis = match &self.config.faults {
                    Some(plan) => plan.apply_to_path(i, analysis, &settings)?,
                    None => analysis,
                };
                Ok(analysis)
            },
            |index, gates, class, reason| DegradedPath {
                index,
                gates: gates.clone(),
                class,
                reason,
            },
        )?;
        let fan_wall = t0.elapsed().as_secs_f64();
        // Step 3 (σ_C) is the same per-path kernel, so it books into the
        // analyze stage as a serial prefix (1-thread capacity) ahead of
        // the pooled fan-out.
        profile.analyze =
            StageProfile::pooled_with_serial(det_wall, fan_wall, pool.busy, pool.threads);
        profile.cache = cache
            .as_ref()
            .zip(cache_before.as_ref())
            .map(|(c, before)| c.stats().since(before));
        profile.degraded = pool.degraded.len();
        profile.retries = pool.retries;
        profile.panics = pool.panics;

        // 6. Rank by the confidence point.
        let t0 = Instant::now();
        let ranked = rank_paths(pool.survivors);
        profile.rank = StageProfile::serial(t0.elapsed().as_secs_f64());
        if ranked.is_empty() {
            return Err(CoreError::EmptyCircuit);
        }

        let worst_case_delay = front.worst_case.clone()?;
        let overestimation_pct = overestimation_pct(worst_case_delay, &ranked);

        Ok(SstaReport {
            circuit: circuit.name().to_string(),
            gate_count: circuit.gate_count(),
            det_critical_delay,
            worst_case_delay,
            overestimation_pct,
            confidence: self.config.confidence,
            sigma_c,
            num_paths: ranked.len(),
            paths: ranked,
            label_sweeps: labels.sweeps,
            runtime: start.elapsed().as_secs_f64(),
            profile,
            degraded: pool.degraded,
            budget_exhausted: pool.exhausted,
            skipped_paths: pool.skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::PlacementStyle;

    fn run(bench: Benchmark, config: SstaConfig) -> SstaReport {
        let c = iscas85::generate(bench);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        SstaEngine::new(config).run(&c, &p).expect("flow succeeds")
    }

    #[test]
    fn c432_full_flow() {
        let r = run(Benchmark::C432, SstaConfig::date05());
        assert_eq!(r.circuit, "c432");
        assert_eq!(r.gate_count, 160);
        assert!(r.num_paths >= 1);
        assert_eq!(r.paths.len(), r.num_paths);
        // The probabilistic critical path is rank 1 and its confidence
        // point dominates every other path's.
        let crit = r.critical();
        assert_eq!(crit.prob_rank, 1);
        for p in &r.paths[1..] {
            assert!(p.analysis.confidence_point <= crit.analysis.confidence_point);
        }
        // Worst case exceeds the 3σ point substantially (paper: ~56%).
        assert!(r.overestimation_pct > 25.0, "{}", r.overestimation_pct);
        assert!(r.overestimation_pct < 90.0, "{}", r.overestimation_pct);
        // Mean close to but not equal to the deterministic delay.
        let mean = crit.analysis.mean;
        assert!((mean - r.det_critical_delay).abs() / r.det_critical_delay < 0.02);
        assert!(r.runtime > 0.0);
    }

    #[test]
    fn solver_choice_does_not_change_results() {
        let bf = run(Benchmark::C499, SstaConfig::date05());
        let mut cfg = SstaConfig::date05();
        cfg.solver = LabelSolver::Topological;
        let tp = run(Benchmark::C499, cfg);
        assert_eq!(bf.num_paths, tp.num_paths);
        assert_eq!(
            bf.det_critical_delay.to_bits(),
            tp.det_critical_delay.to_bits()
        );
        assert_eq!(bf.critical().analysis.gates, tp.critical().analysis.gates);
        assert!(bf.label_sweeps >= tp.label_sweeps);
    }

    #[test]
    fn higher_confidence_analyzes_more_paths() {
        let small = run(Benchmark::C432, SstaConfig::date05().with_confidence(0.01));
        let large = run(Benchmark::C432, SstaConfig::date05().with_confidence(0.3));
        assert!(large.num_paths >= small.num_paths);
        // The probabilistic critical path must not get *worse* with a
        // wider search.
        assert!(
            large.critical().analysis.confidence_point
                >= small.critical().analysis.confidence_point - 1e-18
        );
    }

    #[test]
    fn table3_monotonicity_inter_share() {
        // Larger inter-die share ⇒ larger σ and at least as many
        // near-critical paths (the paper's Table 3).
        let intra_only = run(
            Benchmark::C432,
            SstaConfig::date05().with_layers(LayerModel::with_inter_share(0.0)),
        );
        let half = run(
            Benchmark::C432,
            SstaConfig::date05().with_layers(LayerModel::with_inter_share(0.5)),
        );
        let three_q = run(
            Benchmark::C432,
            SstaConfig::date05().with_layers(LayerModel::with_inter_share(0.75)),
        );
        assert!(half.sigma_c > intra_only.sigma_c);
        assert!(three_q.sigma_c > half.sigma_c);
        assert!(half.num_paths >= intra_only.num_paths);
        assert!(three_q.num_paths >= half.num_paths);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let mut cfg = SstaConfig::date05();
        cfg.confidence = -1.0;
        assert!(SstaEngine::new(cfg).run(&c, &p).is_err());
        let mut cfg = SstaConfig::date05();
        cfg.quality_inter = 1;
        assert!(SstaEngine::new(cfg).run(&c, &p).is_err());
        let mut cfg = SstaConfig::date05();
        cfg.max_paths = 0;
        assert!(SstaEngine::new(cfg).run(&c, &p).is_err());
    }

    #[test]
    fn placement_mismatch_rejected() {
        let c = iscas85::generate(Benchmark::C432);
        let other = iscas85::generate(Benchmark::C499);
        let p = Placement::generate(&other, PlacementStyle::Levelized);
        assert!(matches!(
            SstaEngine::new(SstaConfig::date05()).run(&c, &p),
            Err(CoreError::Netlist(_))
        ));
    }

    #[test]
    fn stage_times_cover_runtime() {
        let r = run(Benchmark::C1355, SstaConfig::date05());
        let p = &r.profile;
        let sum =
            p.characterize.wall + p.labels.wall + p.enumerate.wall + p.analyze.wall + p.rank.wall;
        assert!(sum > 0.0);
        assert!(sum <= r.runtime * 1.01);
        // Per-path analysis dominates (κ·QUALITY kernels) — the paper's
        // run-time discussion.
        assert!(
            p.analyze.wall > 0.5 * sum,
            "analysis {} of total {}",
            p.analyze.wall,
            sum
        );
        // Serial stages report a single fully-utilized thread; the
        // pooled stage reports its pool size and a sane utilization.
        assert_eq!(p.enumerate.threads, 1);
        assert_eq!(p.enumerate.utilization, 1.0);
        assert!(p.analyze.threads >= 1);
        assert!(p.analyze.utilization > 0.0 && p.analyze.utilization <= 1.0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let one = run(Benchmark::C432, SstaConfig::date05().with_threads(1));
        let four = run(Benchmark::C432, SstaConfig::date05().with_threads(4));
        assert_eq!(one.num_paths, four.num_paths);
        assert_eq!(one.sigma_c.to_bits(), four.sigma_c.to_bits());
        for (a, b) in one.paths.iter().zip(&four.paths) {
            assert_eq!(a.prob_rank, b.prob_rank);
            assert_eq!(a.det_rank, b.det_rank);
            assert_eq!(
                a.analysis.confidence_point.to_bits(),
                b.analysis.confidence_point.to_bits()
            );
        }
        assert_eq!(four.profile.analyze.threads, 4.min(one.num_paths.max(1)));
    }

    #[test]
    fn path_budget_yields_partial_report() {
        let budget = RunBudget {
            max_paths: Some(2),
            ..RunBudget::none()
        };
        let full = run(Benchmark::C432, SstaConfig::date05().with_confidence(0.2));
        assert!(full.num_paths > 2, "need >2 paths for the cap to bite");
        let partial = run(
            Benchmark::C432,
            SstaConfig::date05()
                .with_confidence(0.2)
                .with_budget(budget),
        );
        assert_eq!(partial.budget_exhausted, Some(BudgetKind::Paths));
        assert_eq!(partial.num_paths, 2);
        assert_eq!(partial.skipped_paths, full.num_paths - 2);
        // The analyzed prefix is bit-identical to the full run's first
        // two enumeration entries — the cap truncates, never perturbs.
        assert!(full.budget_exhausted.is_none());
        assert_eq!(full.skipped_paths, 0);
    }

    #[test]
    fn wall_budget_trips_to_typed_error_or_partial() {
        // A zero wall budget trips before the first path; with no
        // analyzed path there is nothing to report partially.
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let budget = RunBudget {
            max_wall_secs: Some(0.0),
            ..RunBudget::none()
        };
        let err = SstaEngine::new(SstaConfig::date05().with_budget(budget))
            .run(&c, &p)
            .expect_err("zero wall budget cannot finish");
        match err {
            CoreError::BudgetExhausted { budget } => assert_eq!(budget, BudgetKind::Wall),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(err.classify(), ErrorClass::Resource);
    }

    #[test]
    fn panic_path_fault_is_quarantined_bit_identically() {
        use crate::faults::FaultPlan;
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let plan = || -> FaultPlan { "panic-path@1".parse().expect("plan") };
        let clean = run(Benchmark::C432, SstaConfig::date05().with_confidence(0.2));
        let one = SstaEngine::new(
            SstaConfig::date05()
                .with_confidence(0.2)
                .with_threads(1)
                .with_faults(plan()),
        )
        .run(&c, &p)
        .expect("quarantined run completes");
        let four = SstaEngine::new(
            SstaConfig::date05()
                .with_confidence(0.2)
                .with_threads(4)
                .with_faults(plan()),
        )
        .run(&c, &p)
        .expect("quarantined run completes");
        for r in [&one, &four] {
            assert_eq!(r.degraded.len(), 1);
            assert_eq!(r.degraded[0].index, 1);
            assert!(r.degraded[0].reason.contains("panic-path@1"));
            assert_eq!(r.num_paths, clean.num_paths - 1);
            // Retries don't help a permanent panic; both attempts count.
            assert_eq!(r.profile.retries, 1);
            assert_eq!(r.profile.panics, 2);
        }
        for (a, b) in one.paths.iter().zip(&four.paths) {
            assert_eq!(
                a.analysis.confidence_point.to_bits(),
                b.analysis.confidence_point.to_bits()
            );
        }
    }

    /// Paths whose hashes collide must still find their own analyses:
    /// the index orders by (hash, gates) and a lookup compares gates.
    #[test]
    fn retained_paths_resolve_hash_collisions_by_gates() {
        let report = run(Benchmark::C432, SstaConfig::date05().with_confidence(0.5));
        assert!(report.paths.len() >= 3);
        let report = Arc::new(report);
        let mut retained = RetainedPaths::new(Arc::clone(&report));
        let paths = &report.paths;
        // Give every entry the hash of the lexicographically last path,
        // so the others sort before it within one collision run.
        let last = paths
            .iter()
            .map(|p| &p.analysis.gates)
            .max()
            .expect("paths")
            .clone();
        let collided = path_hash(&last);
        for entry in &mut retained.index {
            entry.0 = collided;
        }
        retained
            .index
            .sort_unstable_by(|a, b| index_key(paths, a).cmp(&index_key(paths, b)));
        let found = retained.get(&last).expect("the colliding path is found");
        assert_eq!(found.gates, last);
        assert!(std::ptr::eq(
            found,
            &paths
                .iter()
                .find(|p| p.analysis.gates == last)
                .expect("path")
                .analysis
        ));
        let mut absent = last.clone();
        absent.push(GateId(u32::MAX));
        assert!(retained.get(&absent).is_none());
    }

    #[test]
    fn report_paths_sorted_by_prob_rank() {
        let r = run(Benchmark::C880, SstaConfig::date05().with_confidence(0.2));
        for (i, p) in r.paths.iter().enumerate() {
            assert_eq!(p.prob_rank, i + 1);
        }
        // Deterministic rank 1 is the deterministic critical path.
        let det1 = r
            .paths
            .iter()
            .find(|p| p.det_rank == 1)
            .expect("rank present");
        assert!(
            (det1.analysis.det_delay - r.det_critical_delay).abs() < 1e-12 * r.det_critical_delay
        );
    }
}
