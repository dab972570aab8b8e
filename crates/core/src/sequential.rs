//! Sequential timing: registers, clock trees, setup/hold SSTA with OCV
//! derates, and a minimum-period yield solver.
//!
//! The combinational flow times input-to-output paths; this module times
//! *register-to-register* transfers. Each capture register's D pin is cut
//! out of the netlist into a launch/capture timing check: the latest
//! (setup) and earliest (hold) data path into the D pin, both from one
//! sweep over the gates in id (topological) order, the launch and
//! capture clock arrivals through a shared balanced clock tree, and
//! early/late OCV derates (`set_timing_derate` semantics). The derated
//! arrival difference
//!
//! ```text
//! setup:  X = d_late ·(clk_launch + data_max) − d_early·clk_capture
//! hold:   X = d_early·(clk_launch + data_min) − d_late ·clk_capture
//! ```
//!
//! is linear in per-gate delays, so it stays inside the paper's layered
//! representation: the inter-die part is the same separable
//! `K·W·(A·f_n + B·f_p)` kernel with *signed effective coefficients*
//! `(A_eff, B_eff)` accumulated per physical clock buffer **before**
//! anything is squared — a buffer shared by both clock paths enters with
//! coefficient `d_late − d_early` and cancels exactly at unity derates.
//! That is common-path pessimism removal (CPPR), obtained for free from
//! the coefficient algebra. The intra-die part is the eq. (14) variance
//! with the same per-buffer coefficients squared. Both go through the
//! closed-form kernels and the kernel cache that path analysis uses.
//!
//! Registers are ideal (zero clk→Q, margins come from the netlist's
//! `# statim constraint` directives); clock buffers are modelled as
//! `BUF` gates at fan-out 2, each an independent intra-die RV (they are
//! not in the placement, so they take the full intra share of the
//! variance without spatial pooling). A data path launched by a primary
//! input uses the *capture* sink's own clock arrival as its launch clock
//! (full CPPR cancellation), so pure-PI pipelines cannot manufacture
//! clock skew.
//!
//! Chip-level setup yield at period `T` multiplies the per-check
//! `P(X ≤ T − setup_margin)` (independence bound, as
//! [`crate::timing_yield`] does for paths); hold yield is
//! period-independent. [`min_period`] inverts the product with the
//! grow-then-bisect solver the combinational
//! [`period_for_yield`](crate::timing_yield::period_for_yield) runs.

#![warn(clippy::unwrap_used)]

use crate::analyze::{closed_form_pdfs, AnalysisSettings};
use crate::cache::AnalysisCache;
use crate::characterize::{characterize_placed, CircuitTiming};
use crate::engine::{RunContext, SstaConfig};
use crate::error::ErrorClass;
use crate::intra::{intra_variance, path_coefficients};
use crate::supervise::{fan_out, BudgetKind, KernelResult, Supervisor};
use crate::timing_yield::{check_target, smallest_period};
use crate::{CoreError, Result};
use statim_netlist::{Circuit, GateId, Placement, Signal};
use statim_process::deriv::delay_gradient;
use statim_process::param::Variations;
use statim_process::tech::AlphaBeta;
use statim_process::{gate_delay, GateKind, Load, Param, Technology};
use statim_stats::Pdf;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which constraint a [`SequentialCheck`] verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Data must arrive before the *next* capture edge: the worst data
    /// path, late launch clock, early capture clock.
    Setup,
    /// Data must not race through before the *same* capture edge: the
    /// best data path, early launch clock, late capture clock.
    Hold,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CheckKind::Setup => "setup",
            CheckKind::Hold => "hold",
        })
    }
}

/// Early/late on-chip-variation derates (`set_timing_derate` semantics):
/// late paths are multiplied by `late` (≥ 1 in a pessimistic sign-off),
/// early paths by `early` (≤ 1). The defaults are exactly `1.0`, and
/// because IEEE multiplication by 1.0 is the identity, a run at unity
/// derates is bit-identical to an underivated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Derates {
    /// Multiplier on early (fast) paths.
    pub early: f64,
    /// Multiplier on late (slow) paths.
    pub late: f64,
}

impl Default for Derates {
    fn default() -> Self {
        Derates {
            early: 1.0,
            late: 1.0,
        }
    }
}

/// The shared balanced clock tree: a root buffer fanning out through
/// `depth` binary levels to the register clock pins. Sink `s` is driven
/// through the root plus, per level `l ∈ 1..=depth`, the level-`l` node
/// on its binary address prefix — so two sinks share exactly the buffers
/// of their common address prefix, which is what CPPR cancels.
///
/// Every buffer is the same physical cell (`BUF` at fan-out 2), so one
/// characterization serves the whole tree; buffers are still *distinct
/// RVs* — sharing is decided by identity, not by value.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTree {
    /// Number of binary fan-out levels below the root.
    pub depth: usize,
    /// Inter-die (α, β) coefficients of one buffer.
    pub buf_ab: AlphaBeta,
    /// Nominal delay of one buffer, seconds.
    pub buf_nominal: f64,
    /// Intra-die delay variance of one buffer, seconds². Clock buffers
    /// are not placed, so each takes the full intra share
    /// `(1 − w₀)·Σ_p (∂t/∂p)²·σ_p²` as an independent RV.
    pub buf_var: f64,
}

impl ClockTree {
    /// Builds the tree for `registers` clock sinks. `depth_override`
    /// (the `# statim clock depth` directive) wins; otherwise the tree is
    /// sized to `ceil(log2(registers))`, minimum 1.
    ///
    /// # Errors
    ///
    /// Propagates layer-weight configuration errors; rejects a
    /// non-positive buffer delay (broken technology).
    pub fn new(
        registers: usize,
        depth_override: Option<usize>,
        tech: &Technology,
        layers: &crate::correlation::LayerModel,
        vars: &Variations,
    ) -> Result<ClockTree> {
        let depth = match depth_override {
            Some(d) => d,
            None => {
                let r = registers.max(2);
                (usize::BITS - (r - 1).leading_zeros()) as usize
            }
        }
        .clamp(1, 32);
        let ab = tech.alpha_beta(GateKind::Buf, &Load::fanout(2));
        let pt = tech.nominal_point();
        let nominal = gate_delay(tech, &ab, &pt);
        if !nominal.is_finite() || nominal <= 0.0 {
            return Err(CoreError::InvalidConfig {
                message: format!("clock buffer delay {nominal} is not positive"),
            });
        }
        let grad = delay_gradient(tech, &ab, &pt);
        let w0 = layers.weights()?[0];
        let intra_share = 1.0 - w0;
        let mut var = 0.0;
        for p in Param::ALL {
            let d = grad.get(p);
            let s = vars.sigma.get(p);
            var += d * d * s * s;
        }
        Ok(ClockTree {
            depth,
            buf_ab: ab,
            buf_nominal: nominal,
            buf_var: intra_share * var,
        })
    }

    /// Nominal clock insertion delay at any sink: `depth + 1` identical
    /// buffers (the tree is balanced, so every sink sees the same
    /// nominal latency — skew comes only from variation and derates).
    pub fn latency(&self) -> f64 {
        (self.depth + 1) as f64 * self.buf_nominal
    }

    /// The physical buffers driving `sink`, root first, identified as
    /// `(level, node)` pairs. Sinks beyond `2^depth` wrap onto the leaf
    /// nodes (an explicitly shallow tree shares leaves between sinks).
    pub fn sink_buffers(&self, sink: usize) -> Vec<(usize, usize)> {
        let leaves = 1usize << self.depth.min(usize::BITS as usize - 1);
        let s = sink % leaves;
        let mut bufs = Vec::with_capacity(self.depth + 1);
        bufs.push((0, 0));
        for l in 1..=self.depth {
            bufs.push((l, s >> (self.depth - l)));
        }
        bufs
    }
}

/// The serial, cheap part of one check: the data path and its layered
/// summaries, extracted from the netlist before the kernel fan-out.
#[derive(Debug, Clone, PartialEq)]
struct CheckSpec {
    kind: CheckKind,
    capture: usize,
    capture_name: String,
    launch: Option<usize>,
    launch_name: Option<String>,
    margin: f64,
    data_gates: Vec<GateId>,
    data_nominal: f64,
    data_ab: AlphaBeta,
    data_var: f64,
}

/// One analyzed launch/capture timing check.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialCheck {
    /// Setup or hold.
    pub kind: CheckKind,
    /// Capture register index.
    pub capture: usize,
    /// Capture register name (its Q net).
    pub capture_name: String,
    /// Launch register index; `None` for a PI-launched data path (which
    /// borrows the capture sink's clock arrival — full CPPR
    /// cancellation).
    pub launch: Option<usize>,
    /// Launch register name, when launched by a register.
    pub launch_name: Option<String>,
    /// Setup or hold margin applied, seconds.
    pub margin: f64,
    /// Gates on the data path, launch side first (empty when the D pin
    /// is tied directly to a launch Q or a primary input).
    pub data_gates: Vec<GateId>,
    /// Nominal data path delay, seconds.
    pub data_nominal: f64,
    /// Signed effective inter-die coefficients of the derated arrival
    /// difference, after per-buffer CPPR accumulation.
    pub ab_eff: AlphaBeta,
    /// Effective intra-die variance of the derated arrival difference
    /// (data variance plus squared per-buffer residuals), seconds².
    pub var_eff: f64,
    /// Nominal value of the derated arrival difference `X`, seconds.
    pub nominal_x: f64,
    /// The PDF of `X` (intra ⊛ inter at the effective coefficients).
    pub x_pdf: Pdf,
    /// The slack PDF: `T − margin − X` for setup, `X − margin` for hold.
    pub slack_pdf: Pdf,
    /// Mean slack, seconds.
    pub slack_mean: f64,
    /// Slack standard deviation, seconds.
    pub slack_sigma: f64,
    /// Probability the check is met at the analyzed period.
    pub yield_at_period: f64,
}

impl SequentialCheck {
    /// Whether every kernel result is finite (scalars and both PDFs).
    /// Checks failing this are quarantined, not aggregated.
    pub fn kernel_is_finite(&self) -> bool {
        self.data_nominal.is_finite()
            && self.var_eff.is_finite()
            && self.nominal_x.is_finite()
            && self.slack_mean.is_finite()
            && self.slack_sigma.is_finite()
            && self.yield_at_period.is_finite()
            && [&self.x_pdf, &self.slack_pdf]
                .iter()
                .all(|p| p.density().iter().all(|d| d.is_finite()))
    }

    /// Probability this check is met at clock period `period`. Hold
    /// checks are period-independent.
    pub fn yield_at(&self, period: f64) -> f64 {
        match self.kind {
            CheckKind::Setup => self.x_pdf.cdf(period - self.margin),
            CheckKind::Hold => 1.0 - self.x_pdf.cdf(self.margin),
        }
    }
}

impl KernelResult for SequentialCheck {
    const NOUN: &'static str = "check";
    const NON_FINITE: &'static str = "non-finite kernel result (slack moments or PDF cells)";
    fn is_finite(&self) -> bool {
        self.kernel_is_finite()
    }
}

/// A check quarantined by graceful degradation: its kernel errored, went
/// non-finite or panicked, and the run completed without it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedCheck {
    /// Position in check-extraction order (register-major, setup before
    /// hold) — stable across thread counts and cache states.
    pub index: usize,
    /// Setup or hold.
    pub kind: CheckKind,
    /// Capture register index.
    pub capture: usize,
    /// Failure class.
    pub class: ErrorClass,
    /// Human-readable reason.
    pub reason: String,
}

/// One point of a sequential yield curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqYieldPoint {
    /// Clock period, seconds.
    pub period: f64,
    /// Chip setup yield (independence bound over setup checks).
    pub setup: f64,
    /// Chip hold yield (period-independent).
    pub hold: f64,
}

impl SeqYieldPoint {
    /// Combined yield: both constraint families must hold.
    pub fn total(&self) -> f64 {
        self.setup * self.hold
    }
}

/// Full configuration of a sequential timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialConfig {
    /// The shared SSTA machinery configuration (technology, variations,
    /// layer model, kernel qualities, backend, threads, cache, budgets).
    pub ssta: SstaConfig,
    /// Clock period override, seconds. `None` takes the netlist's
    /// `# statim clock period` directive.
    pub period: Option<f64>,
    /// Early/late OCV derates.
    pub derates: Derates,
    /// Target yield for the minimum-period solve.
    pub target_yield: f64,
    /// Number of points on the reported yield curve.
    pub curve_points: usize,
}

impl SequentialConfig {
    /// The paper's configuration with unity derates, a 0.99 min-period
    /// target and a 9-point yield curve.
    pub fn date05() -> Self {
        SequentialConfig {
            ssta: SstaConfig::date05(),
            period: None,
            derates: Derates::default(),
            target_yield: 0.99,
            curve_points: 9,
        }
    }

    fn validate(&self) -> Result<()> {
        self.ssta.validate()?;
        for (name, v) in [("early", self.derates.early), ("late", self.derates.late)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    message: format!("{name} derate must be finite and positive, got {v}"),
                });
            }
        }
        if let Some(p) = self.period {
            if !p.is_finite() || p <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    message: format!("clock period must be finite and positive, got {p}"),
                });
            }
        }
        check_target(self.target_yield)?;
        if self.curve_points < 2 {
            return Err(CoreError::InvalidConfig {
                message: "yield curve needs at least 2 points".into(),
            });
        }
        Ok(())
    }
}

/// The result of a sequential timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialReport {
    /// Circuit name.
    pub circuit: String,
    /// Gate count.
    pub gate_count: usize,
    /// Register count.
    pub registers: usize,
    /// Clock period the checks were evaluated at, seconds.
    pub period: f64,
    /// Derates applied.
    pub derates: Derates,
    /// Clock-tree depth (binary levels below the root).
    pub clock_depth: usize,
    /// Nominal clock insertion latency, seconds.
    pub clock_latency: f64,
    /// Setup margin, seconds.
    pub setup_margin: f64,
    /// Hold margin, seconds.
    pub hold_margin: f64,
    /// Every surviving check, extraction order (register-major, setup
    /// before hold).
    pub checks: Vec<SequentialCheck>,
    /// Chip setup yield at `period` (product over setup checks).
    pub setup_yield: f64,
    /// Chip hold yield (period-independent product over hold checks).
    pub hold_yield: f64,
    /// Target yield the minimum-period solve used.
    pub target_yield: f64,
    /// Smallest period achieving `target_yield` total yield, when
    /// reachable (`None` when hold violations cap the yield below the
    /// target at *any* period).
    pub min_period: Option<f64>,
    /// Setup/hold yield curve over the interesting period range.
    pub curve: Vec<SeqYieldPoint>,
    /// Quarantined checks (empty in a healthy run).
    pub degraded: Vec<DegradedCheck>,
    /// The run budget that tripped, if any — the report is then partial.
    pub budget_exhausted: Option<BudgetKind>,
    /// Checks skipped (never analyzed) because a budget tripped.
    pub skipped_checks: usize,
    /// Wall-clock run time, seconds.
    pub runtime: f64,
}

impl SequentialReport {
    /// The worst (lowest mean slack) surviving check of `kind`, if any.
    pub fn worst(&self, kind: CheckKind) -> Option<&SequentialCheck> {
        self.checks
            .iter()
            .filter(|c| c.kind == kind)
            .min_by(|a, b| a.slack_mean.total_cmp(&b.slack_mean))
    }

    /// Whether any hold check is more likely violated than met — the
    /// strict-mode failure condition of `statim seq --hold`.
    pub fn hold_violation(&self) -> bool {
        self.checks
            .iter()
            .any(|c| c.kind == CheckKind::Hold && c.yield_at_period < 0.5)
    }
}

/// Chip setup yield at `period`: the independence-bound product of the
/// per-check `P(X ≤ period − margin)` over setup checks.
pub fn setup_yield_at(checks: &[SequentialCheck], period: f64) -> f64 {
    checks
        .iter()
        .filter(|c| c.kind == CheckKind::Setup)
        .map(|c| c.yield_at(period))
        .product()
}

/// Chip hold yield: period-independent product over hold checks.
pub fn hold_yield(checks: &[SequentialCheck]) -> f64 {
    checks
        .iter()
        .filter(|c| c.kind == CheckKind::Hold)
        .map(|c| c.yield_at(0.0))
        .product()
}

fn total_yield_at(checks: &[SequentialCheck], period: f64) -> f64 {
    setup_yield_at(checks, period) * hold_yield(checks)
}

/// The setup check that paces the clock: the largest mean `X` plus
/// margin (the last such check on a tie).
fn critical_setup(checks: &[SequentialCheck]) -> Option<&SequentialCheck> {
    checks
        .iter()
        .filter(|c| c.kind == CheckKind::Setup)
        .max_by(|a, b| (a.x_pdf.mean() + a.margin).total_cmp(&(b.x_pdf.mean() + b.margin)))
}

/// The smallest clock period achieving at least `target` total
/// (setup × hold) yield — the sequential analogue of
/// [`period_for_yield`](crate::timing_yield::period_for_yield), solved by
/// the same grow-then-bisect search around the critical setup check.
/// Returns `None` when `target` is outside `(0, 1]`, there is no setup
/// check to pace, or hold violations cap the total yield below `target`
/// at every period (hold yield does not improve with a slower clock).
pub fn min_period(checks: &[SequentialCheck], target: f64) -> Option<f64> {
    let crit = critical_setup(checks)?;
    smallest_period(
        crit.x_pdf.mean() + crit.margin,
        crit.x_pdf.std_dev(),
        target,
        |period| total_yield_at(checks, period),
    )
}

/// Sweeps the setup/hold yields over `n` periods covering the worst
/// setup check's interesting range (its mean arrival to past +4σ).
pub fn seq_yield_curve(checks: &[SequentialCheck], n: usize) -> Vec<SeqYieldPoint> {
    let Some(crit) = critical_setup(checks) else {
        return Vec::new();
    };
    let lo = crit.x_pdf.mean() + crit.margin;
    let hi = lo + 4.5 * crit.x_pdf.std_dev();
    let hold = hold_yield(checks);
    (0..n.max(2))
        .map(|i| {
            let period = lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64;
            SeqYieldPoint {
                period,
                setup: setup_yield_at(checks, period),
                hold,
            }
        })
        .collect()
}

/// The sequential timing engine.
#[derive(Debug, Clone)]
pub struct SequentialEngine {
    config: SequentialConfig,
}

impl SequentialEngine {
    /// Creates an engine with `config`.
    pub fn new(config: SequentialConfig) -> Self {
        SequentialEngine { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SequentialConfig {
        &self.config
    }

    /// Runs setup/hold analysis on a placed sequential circuit.
    ///
    /// # Errors
    ///
    /// Configuration errors up front; [`CoreError::InvalidConfig`] for a
    /// purely combinational circuit, an unconnected register D pin, or a
    /// missing clock period.
    pub fn run(&self, circuit: &Circuit, placement: &Placement) -> Result<SequentialReport> {
        self.run_with(circuit, placement, RunContext::default())
    }

    /// [`SequentialEngine::run`] with caller-supplied resources (shared
    /// kernel store, external supervisor); bit-identical either way.
    ///
    /// # Errors
    ///
    /// As [`SequentialEngine::run`].
    pub fn run_with(
        &self,
        circuit: &Circuit,
        placement: &Placement,
        ctx: RunContext<'_>,
    ) -> Result<SequentialReport> {
        let start = Instant::now();
        self.config.validate()?;
        if !circuit.is_sequential() {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "circuit `{}` has no registers; use the combinational analyze flow",
                    circuit.name()
                ),
            });
        }
        let d_pins = circuit
            .registers()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.d.ok_or_else(|| CoreError::InvalidConfig {
                    message: format!(
                        "register `{}` (index {i}, line {}) has an unconnected D pin",
                        r.name, r.line
                    ),
                })
            })
            .collect::<Result<Vec<Signal>>>()?;
        let spec = circuit.seq_spec();
        let period =
            self.config
                .period
                .or(spec.period)
                .ok_or_else(|| CoreError::InvalidConfig {
                    message: format!(
                        "circuit `{}` has no clock period: pass --period or add a \
                     `# statim clock period` directive",
                        circuit.name()
                    ),
                })?;
        let local_sup;
        let sup = match ctx.supervisor {
            Some(s) => s,
            None => {
                local_sup = Supervisor::new(self.config.ssta.budget, self.config.ssta.retries);
                &local_sup
            }
        };
        let cfg = &self.config.ssta;
        let settings = cfg.settings();

        // Characterization refuses a placement of the wrong length.
        let timing = characterize_placed(circuit, &cfg.tech, placement)?;
        let tree = ClockTree::new(
            circuit.registers().len(),
            spec.tree_depth,
            &cfg.tech,
            &cfg.layers,
            &cfg.vars,
        )?;
        let specs = extract_checks(circuit, &d_pins, &timing, placement, cfg)?;

        let cache = cfg.kernel_cache(ctx.store, &settings);
        let threads = crate::parallel::effective_threads(cfg.threads);
        let derates = self.config.derates;
        let pool = fan_out(
            &specs,
            threads,
            sup,
            |_, s| {
                analyze_check(
                    s,
                    &tree,
                    period,
                    derates,
                    &cfg.tech,
                    &settings,
                    cache.as_ref(),
                )
            },
            |index, s, class, reason| DegradedCheck {
                index,
                kind: s.kind,
                capture: s.capture,
                class,
                reason,
            },
        )?;
        let checks = pool.survivors;

        let setup_yield = setup_yield_at(&checks, period);
        let hold = hold_yield(&checks);
        let min_period = min_period(&checks, self.config.target_yield);
        let curve = seq_yield_curve(&checks, self.config.curve_points);

        Ok(SequentialReport {
            circuit: circuit.name().to_string(),
            gate_count: circuit.gate_count(),
            registers: circuit.registers().len(),
            period,
            derates,
            clock_depth: tree.depth,
            clock_latency: tree.latency(),
            setup_margin: spec.setup_margin,
            hold_margin: spec.hold_margin,
            checks,
            setup_yield,
            hold_yield: hold,
            target_yield: self.config.target_yield,
            min_period,
            curve,
            degraded: pool.degraded,
            budget_exhausted: pool.exhausted,
            skipped_checks: pool.skipped,
            runtime: start.elapsed().as_secs_f64(),
        })
    }
}

/// A gate's output arrival and the gate input that explains it (`None`
/// when a primary input does, or the gate reads primary inputs only).
type Arrival = (f64, Option<GateId>);

/// Cuts the circuit at its registers into per-capture check specs: the
/// latest (setup) and earliest (hold) data path into every D pin
/// (`d_pins`, one signal per register), each with the (A, B) coefficients
/// and eq. (14) variance the kernels consume. Register-major order,
/// setup before hold — the deterministic fan-out order.
fn extract_checks(
    circuit: &Circuit,
    d_pins: &[Signal],
    timing: &CircuitTiming,
    placement: &Placement,
    cfg: &SstaConfig,
) -> Result<Vec<CheckSpec>> {
    // One sweep in id order, which is topological, so every gate's
    // inputs are settled before it. The latest arrival takes the lowest-id
    // gate input of maximal arrival (primary inputs arrive at 0 and
    // never explain it); the earliest takes the first pin of minimal
    // arrival, a primary input's 0 included.
    let n = circuit.gate_count();
    let mut latest: Vec<Arrival> = Vec::with_capacity(n);
    let mut earliest: Vec<Arrival> = Vec::with_capacity(n);
    for (g, gate) in circuit.gate_ids().zip(circuit.gates()) {
        let mut late: Arrival = (0.0, None);
        let mut early: Arrival = (f64::INFINITY, None);
        for s in &gate.inputs {
            match *s {
                Signal::Input(_) => {
                    if 0.0 < early.0 {
                        early = (0.0, None);
                    }
                }
                Signal::Gate(src) => {
                    let (e, l) = (earliest[src.index()].0, latest[src.index()].0);
                    if e < early.0 {
                        early = (e, Some(src));
                    }
                    if l > late.0 || (l == late.0 && late.1.is_some_and(|p| src < p)) {
                        late = (l, Some(src));
                    }
                }
            }
        }
        let nominal = timing.gate(g).nominal;
        latest.push((late.0 + nominal, late.1));
        earliest.push((early.0 + nominal, early.1));
    }

    let tic = circuit.true_input_count();
    // Lowest-indexed register whose Q feeds `gate`, if any.
    let launch_of_head = |head: GateId| -> Option<usize> {
        circuit.gates()[head.index()]
            .inputs
            .iter()
            .filter_map(|s| match s {
                Signal::Input(i) if (*i as usize) >= tic => Some(*i as usize - tic),
                _ => None,
            })
            .min()
    };
    let back_walk = |end: GateId, arrivals: &[Arrival]| -> Vec<GateId> {
        let mut path = vec![end];
        while let Some(p) = arrivals[path[path.len() - 1].index()].1 {
            path.push(p);
        }
        path.reverse();
        path
    };

    let spec = circuit.seq_spec();
    let mut specs = Vec::with_capacity(2 * d_pins.len());
    for (r, (reg, &d)) in circuit.registers().iter().zip(d_pins).enumerate() {
        for kind in [CheckKind::Setup, CheckKind::Hold] {
            let (data_gates, data_nominal, data_ab, data_var, launch) = match d {
                Signal::Gate(g) => {
                    let arrivals = match kind {
                        CheckKind::Setup => &latest,
                        CheckKind::Hold => &earliest,
                    };
                    let path = back_walk(g, arrivals);
                    let coeffs = path_coefficients(&path, timing, placement, &cfg.layers);
                    let ab = timing.path_alpha_beta(&path);
                    let var = intra_variance(&coeffs, &cfg.layers, &cfg.vars)?;
                    let launch = launch_of_head(path[0]);
                    (path, arrivals[g.index()].0, ab, var, launch)
                }
                Signal::Input(i) => (
                    Vec::new(),
                    0.0,
                    AlphaBeta {
                        alpha: 0.0,
                        beta: 0.0,
                    },
                    0.0,
                    ((i as usize) >= tic).then(|| i as usize - tic),
                ),
            };
            specs.push(CheckSpec {
                kind,
                capture: r,
                capture_name: reg.name.clone(),
                launch,
                launch_name: launch.map(|l| circuit.registers()[l].name.clone()),
                margin: match kind {
                    CheckKind::Setup => spec.setup_margin,
                    CheckKind::Hold => spec.hold_margin,
                },
                data_gates,
                data_nominal,
                data_ab,
                data_var,
            });
        }
    }
    Ok(specs)
}

/// The per-check kernel: per-buffer CPPR coefficient accumulation, the
/// derated effective (A, B) and intra variance, and the X/slack PDFs
/// through the closed-form (cacheable) kernels path analysis runs.
fn analyze_check(
    spec: &CheckSpec,
    tree: &ClockTree,
    period: f64,
    derates: Derates,
    tech: &Technology,
    settings: &AnalysisSettings,
    cache: Option<&AnalysisCache>,
) -> Result<SequentialCheck> {
    // Setup stresses a slow launch against a fast capture; hold the
    // reverse. The data path always travels with the launch clock.
    let (f_data, f_cap) = match spec.kind {
        CheckKind::Setup => (derates.late, derates.early),
        CheckKind::Hold => (derates.early, derates.late),
    };

    // Per-physical-buffer coefficients, accumulated BEFORE squaring:
    // launch-only buffers carry +f_data, capture-only −f_cap, shared
    // prefix buffers (f_data − f_cap) — zero at unity derates (CPPR).
    // A PI-launched path borrows the capture sink's clock, so every
    // buffer is shared and the clock cancels entirely.
    let launch_sink = spec.launch.unwrap_or(spec.capture);
    let mut coef: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for b in tree.sink_buffers(launch_sink) {
        *coef.entry(b).or_insert(0.0) += f_data;
    }
    for b in tree.sink_buffers(spec.capture) {
        *coef.entry(b).or_insert(0.0) -= f_cap;
    }
    let coef_sum: f64 = coef.values().sum();
    let coef_sq: f64 = coef.values().map(|c| c * c).sum();

    let ab_eff = AlphaBeta {
        alpha: f_data * spec.data_ab.alpha + coef_sum * tree.buf_ab.alpha,
        beta: f_data * spec.data_ab.beta + coef_sum * tree.buf_ab.beta,
    };
    let var_eff = f_data * f_data * spec.data_var + coef_sq * tree.buf_var;
    let nominal_x = f_data * (tree.latency() + spec.data_nominal) - f_cap * tree.latency();
    let [_, _, x_pdf] = closed_form_pdfs(var_eff, &ab_eff, tech, settings, cache)?;

    let (slack_pdf, yield_at_period) = match spec.kind {
        CheckKind::Setup => (
            x_pdf.affine(-1.0, period - spec.margin)?,
            x_pdf.cdf(period - spec.margin),
        ),
        CheckKind::Hold => (
            x_pdf.affine(1.0, -spec.margin)?,
            1.0 - x_pdf.cdf(spec.margin),
        ),
    };

    Ok(SequentialCheck {
        kind: spec.kind,
        capture: spec.capture,
        capture_name: spec.capture_name.clone(),
        launch: spec.launch,
        launch_name: spec.launch_name.clone(),
        margin: spec.margin,
        data_gates: spec.data_gates.clone(),
        data_nominal: spec.data_nominal,
        ab_eff,
        var_eff,
        nominal_x,
        slack_mean: slack_pdf.mean(),
        slack_sigma: slack_pdf.std_dev(),
        x_pdf,
        slack_pdf,
        yield_at_period,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_netlist::generators::sequential::{pipeline, s27};
    use statim_netlist::PlacementStyle;

    fn run(circuit: &Circuit, config: SequentialConfig) -> SequentialReport {
        let p = Placement::generate(circuit, PlacementStyle::Levelized);
        SequentialEngine::new(config)
            .run(circuit, &p)
            .expect("sequential flow succeeds")
    }

    #[test]
    fn s27_produces_setup_and_hold_checks() {
        let c = s27();
        let r = run(&c, SequentialConfig::date05());
        assert_eq!(r.registers, 3);
        assert_eq!(r.checks.len(), 6);
        assert_eq!(
            r.checks
                .iter()
                .filter(|c| c.kind == CheckKind::Setup)
                .count(),
            3
        );
        assert!(r.setup_yield > 0.0 && r.setup_yield <= 1.0);
        assert!(r.hold_yield > 0.0 && r.hold_yield <= 1.0);
        // At a 1 ns period the s27-class logic has enormous margin.
        assert!(r.setup_yield > 0.999, "{}", r.setup_yield);
        let t = r.min_period.expect("target reachable");
        assert!(t > 0.0 && t < r.period, "min period {t}");
        let y = setup_yield_at(&r.checks, t) * r.hold_yield;
        assert!((y - r.target_yield).abs() < 0.01, "yield at min period {y}");
        // Curve is monotone in the period on the setup side.
        for w in r.curve.windows(2) {
            assert!(w[1].setup >= w[0].setup - 1e-12);
            assert_eq!(w[0].hold.to_bits(), w[1].hold.to_bits());
        }
        // Every check against its own launch register or PI.
        for c in &r.checks {
            assert!(c.yield_at_period.is_finite());
            assert!(c.var_eff >= 0.0);
        }
    }

    #[test]
    fn unity_derates_reduce_bitwise_to_underivated() {
        // IEEE `x * 1.0 == x`, so explicit unity derates must be
        // bit-identical to the default-constructed run.
        let c = pipeline(2, 4).expect("generator");
        let default = run(&c, SequentialConfig::date05());
        let mut cfg = SequentialConfig::date05();
        cfg.derates = Derates {
            early: 1.0,
            late: 1.0,
        };
        let explicit = run(&c, cfg);
        assert_eq!(default.checks.len(), explicit.checks.len());
        for (a, b) in default.checks.iter().zip(&explicit.checks) {
            assert_eq!(a.slack_mean.to_bits(), b.slack_mean.to_bits());
            assert_eq!(a.var_eff.to_bits(), b.var_eff.to_bits());
            assert_eq!(a.ab_eff.alpha.to_bits(), b.ab_eff.alpha.to_bits());
            let da: Vec<u64> = a.x_pdf.density().iter().map(|d| d.to_bits()).collect();
            let db: Vec<u64> = b.x_pdf.density().iter().map(|d| d.to_bits()).collect();
            assert_eq!(da, db);
        }
        assert_eq!(
            default.setup_yield.to_bits(),
            explicit.setup_yield.to_bits()
        );
        assert_eq!(default.min_period, explicit.min_period);
    }

    #[test]
    fn ocv_derates_eat_slack_in_both_directions() {
        let c = pipeline(2, 4).expect("generator");
        let base = run(&c, SequentialConfig::date05());
        let mut cfg = SequentialConfig::date05();
        cfg.derates = Derates {
            early: 0.92,
            late: 1.08,
        };
        let derated = run(&c, cfg);
        let worst = |r: &SequentialReport, k| r.worst(k).expect("checks present").slack_mean;
        // A slower late launch + faster early capture hurts setup...
        assert!(worst(&derated, CheckKind::Setup) < worst(&base, CheckKind::Setup));
        // ...and a faster early data + slower late capture hurts hold.
        assert!(worst(&derated, CheckKind::Hold) < worst(&base, CheckKind::Hold));
        assert!(derated.hold_yield < base.hold_yield);
        // Derated min period is more conservative. The pipeline's short
        // paths make its hold yield modest even underivated (by design),
        // so solve at a target both configurations can reach.
        let target = derated.hold_yield * 0.5;
        let b = min_period(&base.checks, target).expect("reachable for base");
        let d = min_period(&derated.checks, target).expect("reachable derated");
        assert!(d > b, "derated {d} vs base {b}");
    }

    #[test]
    fn cppr_shared_prefix_cancels_at_unity() {
        let tree = ClockTree::new(
            8,
            None,
            &Technology::cmos130(),
            &crate::correlation::LayerModel::date05(),
            &Variations::date05(),
        )
        .expect("tree builds");
        assert_eq!(tree.depth, 3);
        // Sinks 0 and 1 differ only at the leaf; 0 and 7 share only the
        // root; a sink shares everything with itself.
        let shared = |a, b| {
            let (a, b) = (tree.sink_buffers(a), tree.sink_buffers(b));
            a.iter().zip(&b).take_while(|(x, y)| x == y).count()
        };
        assert_eq!(shared(0, 1), 3);
        assert_eq!(shared(0, 7), 1);
        assert_eq!(shared(5, 5), 4);
        // With unity derates every shared buffer's coefficient is
        // exactly zero, so a self-capture (PI-launched) check carries no
        // clock variance at all: var_eff == data var, ab_eff == data ab.
        let spec = CheckSpec {
            kind: CheckKind::Hold,
            capture: 2,
            capture_name: "r".into(),
            launch: None,
            launch_name: None,
            margin: 0.0,
            data_gates: Vec::new(),
            data_nominal: 5e-12,
            data_ab: AlphaBeta {
                alpha: 1e2,
                beta: 2e2,
            },
            data_var: 3e-24,
        };
        let settings = crate::analyze::AnalysisSettings::date05();
        let check = analyze_check(
            &spec,
            &tree,
            1e-9,
            Derates::default(),
            &Technology::cmos130(),
            &settings,
            None,
        )
        .expect("kernel");
        assert_eq!(check.var_eff.to_bits(), spec.data_var.to_bits());
        assert_eq!(check.ab_eff.alpha.to_bits(), spec.data_ab.alpha.to_bits());
        assert_eq!(check.ab_eff.beta.to_bits(), spec.data_ab.beta.to_bits());
        assert!((check.nominal_x - spec.data_nominal).abs() < 1e-24);
    }

    #[test]
    fn min_period_bracket_edge_cases() {
        let c = s27();
        let r = run(&c, SequentialConfig::date05());
        // Invalid targets.
        assert!(min_period(&r.checks, 0.0).is_none());
        assert!(min_period(&r.checks, -1.0).is_none());
        assert!(min_period(&r.checks, 1.5).is_none());
        assert!(min_period(&r.checks, f64::NAN).is_none());
        // No setup checks to pace.
        assert!(min_period(&[], 0.9).is_none());
        // A tiny target converges to the smallest satisfying period, not
        // the initial bracket edge.
        let t_small = min_period(&r.checks, 1e-6).expect("reachable");
        let t_99 = min_period(&r.checks, 0.99).expect("reachable");
        assert!(t_small < t_99);
        assert!(total_yield_at(&r.checks, t_small) >= 1e-6);
    }

    #[test]
    fn hold_capped_target_is_unreachable() {
        // A hold margin larger than the short path's delay makes the
        // hold check fail with certainty; no period can fix that, so the
        // solver reports failure instead of a bracket edge.
        let mut c = pipeline(1, 3).expect("generator");
        c.set_hold_margin(5e-10).expect("margin");
        let r = run(&c, SequentialConfig::date05());
        assert!(r.hold_yield < 1e-3, "hold yield {}", r.hold_yield);
        assert!(r.hold_violation());
        assert!(r.min_period.is_none());
        // Setup checks are unaffected by the hold margin.
        assert!(r.setup_yield > 0.99);
    }

    #[test]
    fn thread_count_and_cache_do_not_change_results() {
        let c = pipeline(3, 4).expect("generator");
        let mut one = SequentialConfig::date05();
        one.ssta = one.ssta.with_threads(1).with_cache(false);
        let mut four = SequentialConfig::date05();
        four.ssta = four.ssta.with_threads(4).with_cache(true);
        let a = run(&c, one);
        let b = run(&c, four);
        assert_eq!(a.checks.len(), b.checks.len());
        for (x, y) in a.checks.iter().zip(&b.checks) {
            assert_eq!(x.slack_mean.to_bits(), y.slack_mean.to_bits());
            assert_eq!(x.slack_sigma.to_bits(), y.slack_sigma.to_bits());
            assert_eq!(x.yield_at_period.to_bits(), y.yield_at_period.to_bits());
        }
        assert_eq!(a.setup_yield.to_bits(), b.setup_yield.to_bits());
        assert_eq!(a.hold_yield.to_bits(), b.hold_yield.to_bits());
        assert_eq!(a.min_period, b.min_period);
    }

    #[test]
    fn combinational_circuit_rejected_with_typed_error() {
        use statim_netlist::generators::iscas85::{self, Benchmark};
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let err = SequentialEngine::new(SequentialConfig::date05())
            .run(&c, &p)
            .expect_err("combinational circuit must be rejected");
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        assert_eq!(err.classify(), ErrorClass::Config);
        assert!(err.to_string().contains("no registers"), "{err}");
    }

    #[test]
    fn invalid_sequential_configs_rejected() {
        let c = s27();
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        for mutate in [
            (|cfg: &mut SequentialConfig| cfg.derates.early = 0.0) as fn(&mut SequentialConfig),
            |cfg| cfg.derates.late = f64::NAN,
            |cfg| cfg.period = Some(-1e-9),
            |cfg| cfg.target_yield = 0.0,
            |cfg| cfg.target_yield = 2.0,
            |cfg| cfg.curve_points = 1,
        ] {
            let mut cfg = SequentialConfig::date05();
            mutate(&mut cfg);
            assert!(
                SequentialEngine::new(cfg).run(&c, &p).is_err(),
                "config should be rejected"
            );
        }
    }

    #[test]
    fn period_override_beats_directive() {
        let c = s27(); // stamped with the 1 ns default
        let mut cfg = SequentialConfig::date05();
        cfg.period = Some(0.5e-9);
        let r = run(&c, cfg);
        assert_eq!(r.period, 0.5e-9);
        let stamped = run(&c, SequentialConfig::date05());
        assert_eq!(stamped.period, 1e-9);
        // A shorter period can only lower the setup yield.
        assert!(r.setup_yield <= stamped.setup_yield);
    }

    #[test]
    fn data_paths_follow_the_arrival_tie_breaks() {
        // x and y are identical inverters at identical loads, so d's two
        // inputs arrive together. The setup path takes the lowest-id
        // input (x), the hold path the first pin (y).
        let mut c = Circuit::new("ties");
        let a = c.add_input("a").expect("input");
        c.add_register("q", 1).expect("register");
        let x = c.add_gate("x", GateKind::Inv, &[a]).expect("x");
        let y = c.add_gate("y", GateKind::Inv, &[a]).expect("y");
        let d = c.add_gate("d", GateKind::Nand(2), &[y, x]).expect("d");
        c.connect_register_d(0, d).expect("D pin");
        c.mark_output("o", d).expect("output");
        let timing = crate::characterize::characterize(&c, &Technology::cmos130()).expect("timing");
        assert_eq!(
            timing.gate(GateId(0)).nominal.to_bits(),
            timing.gate(GateId(1)).nominal.to_bits()
        );
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let d_pins: Vec<Signal> = c.registers().iter().filter_map(|r| r.d).collect();
        let specs =
            extract_checks(&c, &d_pins, &timing, &p, &SstaConfig::date05()).expect("checks");
        let gates = |kind| {
            let spec = specs.iter().find(|s| s.kind == kind).expect("check");
            spec.data_gates.clone()
        };
        assert_eq!(gates(CheckKind::Setup), vec![GateId(0), GateId(2)]);
        assert_eq!(gates(CheckKind::Hold), vec![GateId(1), GateId(2)]);
    }

    #[test]
    fn setup_paths_realize_the_topological_labels() {
        // The setup data path into each D pin is a real path whose summed
        // nominal delay is the D-pin gate's longest-path label, bit for
        // bit.
        let c = pipeline(3, 8).expect("generator");
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let timing = characterize_placed(&c, &Technology::cmos130(), &p).expect("timing");
        let labels = crate::longest_path::topo_labels(&c, &timing).expect("labels");
        let d_pins: Vec<Signal> = c.registers().iter().filter_map(|r| r.d).collect();
        let specs =
            extract_checks(&c, &d_pins, &timing, &p, &SstaConfig::date05()).expect("checks");
        for spec in specs.iter().filter(|s| s.kind == CheckKind::Setup) {
            let Some(&end) = spec.data_gates.last() else {
                continue;
            };
            assert_eq!(
                spec.data_nominal.to_bits(),
                labels.arrival[end.index()].to_bits()
            );
            let sum: f64 = spec
                .data_gates
                .iter()
                .map(|&g| timing.gate(g).nominal)
                .sum();
            assert!((sum - spec.data_nominal).abs() < 1e-18);
            assert!(spec.data_var > 0.0);
        }
    }

    #[test]
    fn pipeline_hold_path_is_the_buffer() {
        // The generator's bit-0 stage logic is a single buffer — the
        // hold-critical short path — while the setup path ripples
        // through the NAND chain.
        let c = pipeline(2, 5).expect("generator");
        let r = run(&c, SequentialConfig::date05());
        let hold_min = r
            .checks
            .iter()
            .filter(|c| c.kind == CheckKind::Hold)
            .map(|c| c.data_gates.len())
            .min()
            .expect("hold checks");
        let setup_max = r
            .checks
            .iter()
            .filter(|c| c.kind == CheckKind::Setup)
            .map(|c| c.data_gates.len())
            .max()
            .expect("setup checks");
        assert_eq!(hold_min, 1, "short path is one buffer");
        assert!(setup_max >= 5, "ripple dominates setup, got {setup_max}");
        // Hold data is always no later than setup data per capture reg.
        for (h, s) in r
            .checks
            .iter()
            .filter(|c| c.kind == CheckKind::Hold)
            .zip(r.checks.iter().filter(|c| c.kind == CheckKind::Setup))
        {
            assert!(h.data_nominal <= s.data_nominal + 1e-18);
        }
    }
}
