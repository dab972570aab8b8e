//! Monte-Carlo validation against the exact non-linear delay model.
//!
//! The analytic flow makes two approximations (the paper's §2.4): the
//! first-order Taylor expansion of the intra-die delay and the
//! zeroth-order freeze of its coefficients at nominal. This module checks
//! them by brute force: sample every layer RV, evaluate each gate's delay
//! *exactly* (eq. (8) — the full non-linear expression at that gate's own
//! parameter values), and histogram the resulting path delays.
//!
//! One sampler serves every estimator. It draws the layer RVs of a
//! sample and evaluates the exact delay of each gate on its list: a path
//! in path order for the path estimators, every gate in id order for
//! the full-chip and criticality estimators.
//!
//! # Parallelism and seeding
//!
//! The sample budget is split into fixed-size chunks of
//! [`crate::parallel::MC_CHUNK`] samples. Chunk `i` draws from its own
//! `StdRng` seeded with `seed + i` ([`crate::parallel::chunk_seed`]) and
//! chunk results are concatenated in chunk order, so every estimate is
//! **bit-identical for any thread count** — parallelism only changes
//! wall time. Every estimator takes its worker count as `threads`
//! (0 ⇒ every available core).

#![warn(clippy::unwrap_used)]

use crate::characterize::CircuitTiming;
use crate::correlation::LayerModel;
use crate::supervise::{
    fnv1a64, supervised_map, BudgetKind, ItemOutcome, McCheckpoint, McCheckpointer, Supervisor,
};
use crate::{CoreError, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statim_netlist::{Circuit, GateId, Placement, Signal};
use statim_process::param::{PerParam, Variations};
use statim_process::tech::{AlphaBeta, OperatingPoint};
use statim_process::{gate_delay, Technology};
use statim_stats::{Grid, Marginal, Pdf};
use std::collections::HashMap;

/// Result of a Monte-Carlo run over one path.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    /// Empirical delay PDF.
    pub pdf: Pdf,
    /// Sample mean, seconds.
    pub mean: f64,
    /// Sample standard deviation, seconds.
    pub sigma: f64,
    /// Number of samples.
    pub samples: usize,
}

impl McResult {
    /// The empirical `mean + k·σ` confidence point.
    pub fn sigma_point(&self, k: f64) -> f64 {
        self.mean + k * self.sigma
    }
}

/// Samples the exact non-linear delay distribution of `path`.
///
/// Per sample: draw the inter-die value of each parameter (layer 0), one
/// zero-mean value per (parameter, intra layer, partition) the path
/// touches, and a per-gate value for the random layer; each gate's delay
/// is then evaluated with the full eq. (2) at its own summed parameter
/// vector, exactly as eq. (8) prescribes — no linearization anywhere.
///
/// # Errors
///
/// Propagates configuration errors (invalid layer weights, a zero sample
/// count or histogram construction).
#[allow(clippy::too_many_arguments)]
pub fn mc_path_distribution(
    path: &[GateId],
    timing: &CircuitTiming,
    placement: &Placement,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    samples: usize,
    quality: usize,
    seed: u64,
    threads: usize,
) -> Result<McResult> {
    let gates = path.iter().copied();
    let sampler = GateSampler::new(gates, timing, placement, tech, vars, layers, marginal)?;
    let delays = sampler.sample_all(samples, seed, threads, path_delay)?;
    summarize(delays, quality)
}

/// A path's delay: its gate delays summed in path order.
fn path_delay(delays: &mut [f64]) -> f64 {
    delays.iter().fold(0.0, |total, d| total + d)
}

/// The chunk grid of a `samples`-sample run. An empty run is a
/// configuration error: it has nothing to summarize.
fn chunk_grid(samples: usize) -> Result<Vec<(u64, usize)>> {
    if samples == 0 {
        return Err(CoreError::InvalidConfig {
            message: format!("Monte-Carlo needs a positive sample count, got {samples}"),
        });
    }
    Ok(crate::parallel::mc_chunks(samples))
}

/// Per-sample drawing of every layer RV, evaluating the exact delay of
/// each gate on a list — a path in path order, or every gate in id
/// order. A chunk is a pure function of `(seed, chunk_index)` through
/// [`GateSampler::sample_chunk`], which is what makes retries and
/// resumes bit-identical.
struct GateSampler<'a> {
    tech: &'a Technology,
    vars: &'a Variations,
    marginal: Marginal,
    weights: Vec<f64>,
    /// The random layer's weight slot, when the model has one.
    random_slot: Option<usize>,
    /// Per listed gate: its α/β coefficients and its partition index in
    /// each intra spatial layer (1..L).
    gates: Vec<(AlphaBeta, Vec<usize>)>,
}

impl<'a> GateSampler<'a> {
    fn new(
        gates: impl IntoIterator<Item = GateId>,
        timing: &CircuitTiming,
        placement: &Placement,
        tech: &'a Technology,
        vars: &'a Variations,
        layers: &LayerModel,
        marginal: Marginal,
    ) -> Result<Self> {
        let weights = layers.weights()?;
        let gates = gates
            .into_iter()
            .map(|g| {
                let xy = placement.normalized(g);
                let partitions = (1..layers.spatial_layers)
                    .map(|l| layers.partition_of(l, xy))
                    .collect();
                (timing.gate(g).ab, partitions)
            })
            .collect();
        Ok(GateSampler {
            tech,
            vars,
            marginal,
            weights,
            random_slot: layers.random_slot(),
            gates,
        })
    }

    /// One draw of the marginal around `mean`, or `mean` itself when
    /// the layer carries no variance.
    fn draw(&self, rng: &mut StdRng, mean: f64, sigma: f64) -> f64 {
        if sigma > 0.0 {
            self.marginal.sample(rng, mean, sigma, self.vars.trunc_k)
        } else {
            mean
        }
    }

    /// Draws one sample into `delays`, the exact delay of each listed
    /// gate in list order. The draws come in a fixed order: one
    /// inter-die value per parameter; then, per gate and parameter, one
    /// value per spatial layer, drawn the first time its partition is
    /// met and shared through `draws`; then one random-layer value.
    fn sample(
        &self,
        rng: &mut StdRng,
        draws: &mut HashMap<(usize, usize, usize), f64>,
        delays: &mut Vec<f64>,
    ) {
        // Layer 0: the shared inter-die operating point.
        let inter = PerParam::from_fn(|p| {
            let sigma = self.vars.sigma.get(p) * self.weights[0].sqrt();
            self.draw(rng, self.tech.nominal(p), sigma)
        });
        draws.clear();
        delays.clear();
        for (ab, partitions) in &self.gates {
            let values = PerParam::from_fn(|p| {
                let sigma_total = self.vars.sigma.get(p);
                let mut v = inter.get(p);
                for (li, &part) in partitions.iter().enumerate() {
                    let layer = li + 1;
                    let sigma = sigma_total * self.weights[layer].sqrt();
                    v += *draws
                        .entry((p.index(), layer, part))
                        .or_insert_with(|| self.draw(rng, 0.0, sigma));
                }
                if let Some(slot) = self.random_slot {
                    v += self.draw(rng, 0.0, sigma_total * self.weights[slot].sqrt());
                }
                v
            });
            delays.push(gate_delay(self.tech, ab, &OperatingPoint { values }));
        }
    }

    /// Draws chunk `ci` of `n` samples from scratch — a fresh `StdRng`
    /// seeded with `chunk_seed(seed, ci)` and fresh shared-draw state —
    /// and maps each sample's gate delays through `f`. The same
    /// arguments always return the same bits: the retry/resume
    /// determinism anchor.
    fn sample_chunk<U>(
        &self,
        seed: u64,
        ci: u64,
        n: usize,
        mut f: impl FnMut(&mut [f64]) -> U,
    ) -> Vec<U> {
        let mut rng = StdRng::seed_from_u64(crate::parallel::chunk_seed(seed, ci));
        let mut draws = HashMap::new();
        let mut delays = Vec::with_capacity(self.gates.len());
        (0..n)
            .map(|_| {
                self.sample(&mut rng, &mut draws, &mut delays);
                f(&mut delays)
            })
            .collect()
    }

    /// Every chunk of a `samples`-sample run on `threads` workers, each
    /// sample mapped through `f`, concatenated in chunk order.
    fn sample_all<U: Send>(
        &self,
        samples: usize,
        seed: u64,
        threads: usize,
        f: impl Fn(&mut [f64]) -> U + Sync,
    ) -> Result<Vec<U>> {
        let chunks = chunk_grid(samples)?;
        let workers = crate::parallel::effective_threads(Some(threads));
        let runs = crate::parallel::parallel_map(&chunks, workers, |_, &(ci, n)| {
            self.sample_chunk(seed, ci, n, &f)
        });
        Ok(runs.into_iter().flatten().collect())
    }
}

/// Identity fingerprint of a path Monte-Carlo configuration — what a
/// checkpoint binds to besides the seed and sample budget: the path
/// (gate indices), histogram quality, marginal shape, and the exact bits
/// of every variation σ, truncation and layer weight. Resuming under
/// any other configuration is rejected.
pub fn mc_fingerprint(
    path: &[GateId],
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Result<u64> {
    let mut words: Vec<u64> = Vec::with_capacity(path.len() + 16);
    words.push(path.len() as u64);
    words.extend(path.iter().map(|g| g.index() as u64));
    words.push(quality as u64);
    words.push(match marginal {
        Marginal::Gaussian => 1,
        Marginal::Uniform => 2,
        Marginal::Triangular => 3,
    });
    words.push(vars.trunc_k.to_bits());
    for (_, sigma) in vars.sigma.iter() {
        words.push(sigma.to_bits());
    }
    for w in layers.weights()? {
        words.push(w.to_bits());
    }
    words.push(layers.spatial_layers as u64);
    Ok(fnv1a64(words))
}

/// Supervision context for [`mc_path_distribution_supervised`]: the
/// supervisor (budgets + retry policy), optional checkpoint writer and
/// optional checkpoint to resume from.
#[derive(Debug, Clone, Copy)]
pub struct McSupervision<'a> {
    /// Budget/retry supervisor; its wall clock and cancel token are
    /// shared with whatever else the caller is supervising.
    pub sup: &'a Supervisor,
    /// Records completed chunks for crash recovery, when present.
    pub checkpoint: Option<&'a McCheckpointer>,
    /// A previously persisted checkpoint: its chunks are reused verbatim
    /// (exact bits) instead of re-sampled. Must be validated with
    /// [`McCheckpoint::validate_for`] before the call.
    pub resume: Option<&'a McCheckpoint>,
    /// Fault plan driving `panic-chunk` / `slow-chunk` injection.
    #[cfg(any(test, feature = "fault-injection"))]
    pub faults: Option<&'a crate::faults::FaultPlan>,
}

impl<'a> McSupervision<'a> {
    /// Plain supervision: budgets and retries only.
    pub fn new(sup: &'a Supervisor) -> Self {
        McSupervision {
            sup,
            checkpoint: None,
            resume: None,
            #[cfg(any(test, feature = "fault-injection"))]
            faults: None,
        }
    }

    /// Adds a checkpoint writer.
    #[must_use]
    pub fn with_checkpoint(mut self, ck: &'a McCheckpointer) -> Self {
        self.checkpoint = Some(ck);
        self
    }

    /// Adds a checkpoint to resume from.
    #[must_use]
    pub fn with_resume(mut self, ckpt: &'a McCheckpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    /// Adds a fault plan.
    #[cfg(any(test, feature = "fault-injection"))]
    #[must_use]
    pub fn with_faults(mut self, plan: &'a crate::faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Outcome of a supervised Monte-Carlo run: possibly-partial statistics
/// plus the supervision record.
#[derive(Debug)]
pub struct McOutcome {
    /// The summary over every completed chunk, in chunk order. `None`
    /// when no chunk completed (budget tripped immediately).
    pub result: Option<McResult>,
    /// The budget that cut the run short, if any.
    pub exhausted: Option<BudgetKind>,
    /// Chunk retries performed.
    pub retries: u64,
    /// Chunks whose final attempt panicked (quarantined — their samples
    /// are excluded deterministically).
    pub quarantined_chunks: usize,
    /// Chunks completed (including resumed ones).
    pub chunks_done: usize,
    /// Chunks in the full grid.
    pub chunks_total: usize,
    /// Chunks reused verbatim from the resume checkpoint.
    pub chunks_resumed: usize,
}

/// [`mc_path_distribution`] under supervision: panic-isolated
/// chunks with bounded deterministic retry, budget checks at every chunk
/// boundary, periodic checkpointing and bit-identical resume.
///
/// Completed chunks merge in chunk order whether they were computed
/// now, retried, or restored from `ctx.resume` — so an interrupted run
/// resumed from its checkpoint ends bit-identical to an uninterrupted
/// one, at any thread count.
///
/// # Errors
///
/// Propagates configuration errors (a zero sample count among them),
/// histogram failures and [`crate::CoreError::CheckpointIo`] from a
/// failing checkpoint writer. A tripped budget is *not* an error: it is reported in
/// [`McOutcome::exhausted`] with `result: None` when nothing completed.
#[allow(clippy::too_many_arguments)]
pub fn mc_path_distribution_supervised(
    path: &[GateId],
    timing: &CircuitTiming,
    placement: &Placement,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    samples: usize,
    quality: usize,
    seed: u64,
    threads: usize,
    ctx: McSupervision<'_>,
) -> Result<McOutcome> {
    let gates = path.iter().copied();
    let sampler = GateSampler::new(gates, timing, placement, tech, vars, layers, marginal)?;
    let chunks = chunk_grid(samples)?;
    let workers = crate::parallel::effective_threads(Some(threads));
    // The sample budget is chunk-aligned (checked at chunk boundaries),
    // so the cap rounds up to whole chunks — a deterministic prefix of
    // the chunk grid.
    let chunk_cap = ctx.sup.budget().max_mc_samples.map(|s| {
        (
            s.div_ceil(crate::parallel::MC_CHUNK).max(1),
            BudgetKind::McSamples,
        )
    });
    let run = supervised_map(&chunks, workers, ctx.sup, chunk_cap, |_, &(ci, n)| {
        if let Some(stored) = ctx.resume.and_then(|r| r.chunks.get(&ci)) {
            // Restored verbatim: the checkpoint holds exact f64 bits.
            return stored.clone();
        }
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = ctx.faults {
            if let Some(ms) = plan.slow_chunk_ms(ci) {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            if let Some(msg) = plan.panic_chunk(ci) {
                panic!("{}", msg);
            }
        }
        sampler.sample_chunk(seed, ci, n, path_delay)
    });

    let mut delays: Vec<f64> = Vec::new();
    let mut chunks_done = 0usize;
    let mut chunks_resumed = 0usize;
    let mut quarantined_chunks = 0usize;
    for (&(ci, _), outcome) in chunks.iter().zip(run.outcomes) {
        match outcome {
            ItemOutcome::Done(chunk_delays) => {
                chunks_done += 1;
                if ctx.resume.is_some_and(|r| r.chunks.contains_key(&ci)) {
                    chunks_resumed += 1;
                }
                if let Some(ck) = ctx.checkpoint {
                    ck.record(ci, &chunk_delays);
                }
                delays.extend(chunk_delays);
            }
            ItemOutcome::Panicked { .. } => quarantined_chunks += 1,
            ItemOutcome::Skipped => {}
        }
    }
    if let Some(ck) = ctx.checkpoint {
        ck.finish()?;
    }
    let result = if delays.is_empty() {
        None
    } else {
        Some(summarize(delays, quality)?)
    };
    Ok(McOutcome {
        result,
        exhausted: run.exhausted,
        retries: run.retries,
        quarantined_chunks,
        chunks_done,
        chunks_total: chunks.len(),
        chunks_resumed,
    })
}

/// **Full-chip Monte-Carlo baseline**: the competing analysis style the
/// paper contrasts with. Per sample, every layer RV is drawn, every gate
/// delay evaluated exactly, and the circuit delay obtained by propagating
/// arrival times through the whole timing graph (so the maximum over
/// *all* paths, not just the enumerated ones, is taken with full
/// correlation).
///
/// Path-based SSTA approximates this distribution from the near-critical
/// set; comparing the two quantifies the coverage error of a given
/// confidence constant `C`.
///
/// # Errors
///
/// Propagates configuration errors (a zero sample count among them);
/// returns [`crate::CoreError`] wrapping histogram failures.
#[allow(clippy::too_many_arguments)]
pub fn mc_circuit_distribution(
    circuit: &Circuit,
    timing: &CircuitTiming,
    placement: &Placement,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    samples: usize,
    quality: usize,
    seed: u64,
    threads: usize,
) -> Result<McResult> {
    let gates = circuit.gate_ids();
    let sampler = GateSampler::new(gates, timing, placement, tech, vars, layers, marginal)?;
    let delays = sampler.sample_all(samples, seed, threads, |arrival| {
        // Gates are stored in topological order, so each gate delay
        // becomes the gate's arrival time in place.
        for (i, g) in circuit.gates().iter().enumerate() {
            let mut incoming: f64 = 0.0;
            for s in &g.inputs {
                if let Signal::Gate(src) = s {
                    incoming = incoming.max(arrival[src.index()]);
                }
            }
            arrival[i] += incoming;
        }
        let mut worst: f64 = 0.0;
        for &(_, s) in circuit.outputs() {
            if let Signal::Gate(g) = s {
                worst = worst.max(arrival[g.index()]);
            }
        }
        worst
    })?;
    summarize(delays, quality)
}

/// **Path criticality**: the probability that each of `paths` is the
/// slowest, estimated by correlated sampling — one set of layer RVs per
/// trial, every path evaluated under it. Returns one probability per
/// path (summing to 1). The input marginals are Gaussian.
///
/// This is the natural "which path limits my clock?" question the
/// confidence-point ranking approximates; ranking by criticality and by
/// the 3σ point usually agree on the winner but differ in the tail.
///
/// # Errors
///
/// Propagates configuration errors (a zero sample count among them).
/// Returns an empty vector for an empty path set.
#[allow(clippy::too_many_arguments)]
pub fn mc_path_criticality(
    circuit: &Circuit,
    paths: &[Vec<GateId>],
    timing: &CircuitTiming,
    placement: &Placement,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    samples: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<f64>> {
    if paths.is_empty() {
        return Ok(Vec::new());
    }
    let gates = circuit.gate_ids();
    let marginal = Marginal::Gaussian;
    let sampler = GateSampler::new(gates, timing, placement, tech, vars, layers, marginal)?;
    let winners = sampler.sample_all(samples, seed, threads, |delays| {
        let mut best = f64::NEG_INFINITY;
        let mut argmax = 0;
        for (pi, path) in paths.iter().enumerate() {
            let d: f64 = path.iter().map(|g| delays[g.index()]).sum();
            if d > best {
                best = d;
                argmax = pi;
            }
        }
        argmax
    })?;
    // Win counts are integers, so they do not depend on the thread count.
    let mut wins = vec![0usize; paths.len()];
    for w in winners {
        wins[w] += 1;
    }
    Ok(wins
        .into_iter()
        .map(|w| w as f64 / samples as f64)
        .collect())
}

fn summarize(delays: Vec<f64>, quality: usize) -> Result<McResult> {
    let n = delays.len().max(1) as f64;
    let mean = delays.iter().sum::<f64>() / n;
    let var = delays.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
    let sigma = var.sqrt();
    let lo = delays.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = delays.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(mean.abs() * 1e-9);
    let grid = Grid::over(lo, lo + span * (1.0 + 1e-9), quality)?;
    let pdf = Pdf::from_samples(grid, &delays)?;
    let samples = delays.len();
    Ok(McResult {
        pdf,
        mean,
        sigma,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze_path, AnalysisSettings};
    use crate::characterize::{characterize, characterize_placed};
    use crate::longest_path::{critical_path, topo_labels};
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::PlacementStyle;

    fn setup(bench: Benchmark) -> (CircuitTiming, Placement, Vec<GateId>, Technology) {
        let c = iscas85::generate(bench);
        let tech = Technology::cmos130();
        let t = characterize(&c, &tech).expect("characterization succeeds");
        let labels = topo_labels(&c, &t).expect("labels computed");
        let cp = critical_path(&c, &t, &labels).expect("critical path exists");
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        (t, p, cp, tech)
    }

    #[test]
    fn mc_validates_analytic_pdf_c432() {
        // The headline accuracy check: the analytic (linearized,
        // separable, discretized) total PDF must agree with the exact
        // non-linear Monte-Carlo on mean, σ and the 3σ point.
        let (t, p, cp, tech) = setup(Benchmark::C432);
        let settings = AnalysisSettings::date05();
        let analytic = analyze_path(&cp, &t, &p, &tech, &settings).expect("path analysis succeeds");
        let mc = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &settings.vars,
            &settings.layers,
            Marginal::Gaussian,
            30_000,
            100,
            42,
            0,
        )
        .expect("test setup succeeds");
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        assert!(
            rel(analytic.mean, mc.mean) < 0.01,
            "mean {} vs {}",
            analytic.mean,
            mc.mean
        );
        assert!(
            rel(analytic.sigma, mc.sigma) < 0.06,
            "σ {} vs {}",
            analytic.sigma,
            mc.sigma
        );
        assert!(
            rel(analytic.confidence_point, mc.sigma_point(3.0)) < 0.02,
            "3σ point {} vs {}",
            analytic.confidence_point,
            mc.sigma_point(3.0)
        );
    }

    #[test]
    fn mc_is_deterministic_per_seed() {
        let (t, p, cp, tech) = setup(Benchmark::C499);
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::date05();
        let a = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            2000,
            50,
            7,
            0,
        )
        .expect("mc run succeeds");
        let b = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            2000,
            50,
            7,
            0,
        )
        .expect("mc run succeeds");
        assert_eq!(a.mean, b.mean);
        let c = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            2000,
            50,
            8,
            0,
        )
        .expect("mc run succeeds");
        assert_ne!(a.mean, c.mean);
    }

    #[test]
    fn mc_inter_only_matches_inter_pdf() {
        // With 100% inter-die variance the exact distribution is the
        // non-linear inter PDF itself.
        let (t, p, cp, tech) = setup(Benchmark::C432);
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::with_inter_share(1.0);
        let mc = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            30_000,
            100,
            3,
            0,
        )
        .expect("mc run succeeds");
        let ab = t.path_alpha_beta(&cp);
        let analytic = crate::inter::inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        assert!((mc.mean - analytic.mean()).abs() / analytic.mean() < 0.01);
        assert!((mc.sigma - analytic.std_dev()).abs() / analytic.std_dev() < 0.05);
    }

    #[test]
    fn full_chip_dominates_single_path() {
        // The circuit delay is the max over all paths, so its
        // distribution must (weakly) dominate the critical path's.
        let bench = Benchmark::C432;
        let c = iscas85::generate(bench);
        let tech = Technology::cmos130();
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let t = characterize_placed(&c, &tech, &p).expect("characterization succeeds");
        let labels = topo_labels(&c, &t).expect("labels computed");
        let cp = critical_path(&c, &t, &labels).expect("critical path exists");
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::date05();
        let chip = mc_circuit_distribution(
            &c,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            8000,
            100,
            5,
            0,
        )
        .expect("mc run succeeds");
        let path = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            8000,
            100,
            5,
            0,
        )
        .expect("mc run succeeds");
        assert!(
            chip.mean >= path.mean * 0.999,
            "{} vs {}",
            chip.mean,
            path.mean
        );
        // For c432 (few near-critical paths) path-based ≈ full-chip: the
        // paper's premise that the near-critical set suffices.
        assert!(
            (chip.sigma_point(3.0) - path.sigma_point(3.0)).abs() / chip.sigma_point(3.0) < 0.03,
            "full-chip {} vs path {}",
            chip.sigma_point(3.0),
            path.sigma_point(3.0)
        );
    }

    #[test]
    fn criticality_sums_to_one_and_ranks_sensibly() {
        let bench = Benchmark::C432;
        let c = iscas85::generate(bench);
        let tech = Technology::cmos130();
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let t = characterize_placed(&c, &tech, &p).expect("characterization succeeds");
        let labels = topo_labels(&c, &t).expect("labels computed");
        let d = labels.critical_delay(&c).expect("critical delay exists");
        let set = crate::enumerate::near_critical_paths(&c, &t, &labels, d * 0.95, 10_000)
            .expect("critical path exists");
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::date05();
        let crit = mc_path_criticality(&c, &set.paths, &t, &p, &tech, &vars, &layers, 4000, 11, 0)
            .expect("mc run succeeds");
        assert_eq!(crit.len(), set.paths.len());
        let total: f64 = crit.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The most critical path should carry a substantial share.
        let max = crit.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.05, "max criticality {max}");
        // Empty path set: empty result.
        assert!(
            mc_path_criticality(&c, &[], &t, &p, &tech, &vars, &layers, 10, 1, 0)
                .expect("mc run succeeds")
                .is_empty()
        );
    }

    #[test]
    fn supervised_clean_run_matches_plain_bitwise() {
        let (t, p, cp, tech) = setup(Benchmark::C499);
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::date05();
        let plain = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            2000,
            50,
            7,
            0,
        )
        .expect("plain run");
        for threads in [1, 4] {
            let sup = Supervisor::unlimited();
            let out = mc_path_distribution_supervised(
                &cp,
                &t,
                &p,
                &tech,
                &vars,
                &layers,
                Marginal::Gaussian,
                2000,
                50,
                7,
                threads,
                McSupervision::new(&sup),
            )
            .expect("supervised run");
            assert_eq!(out.exhausted, None);
            assert_eq!(out.retries, 0);
            assert_eq!(out.chunks_done, out.chunks_total);
            let r = out.result.expect("complete run has a result");
            assert_eq!(r.mean.to_bits(), plain.mean.to_bits(), "threads {threads}");
            assert_eq!(r.sigma.to_bits(), plain.sigma.to_bits());
            assert_eq!(r.samples, plain.samples);
        }
    }

    #[test]
    fn mc_sample_budget_truncates_chunk_prefix() {
        use crate::supervise::RunBudget;
        let (t, p, cp, tech) = setup(Benchmark::C432);
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::date05();
        let samples = 2 * crate::parallel::MC_CHUNK + 100;
        let budget = RunBudget {
            max_mc_samples: Some(crate::parallel::MC_CHUNK),
            ..RunBudget::none()
        };
        let sup = Supervisor::new(budget, 0);
        let out = mc_path_distribution_supervised(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            samples,
            50,
            3,
            2,
            McSupervision::new(&sup),
        )
        .expect("budgeted run");
        assert_eq!(out.exhausted, Some(BudgetKind::McSamples));
        assert_eq!(out.chunks_done, 1);
        assert_eq!(out.chunks_total, 3);
        let partial = out.result.expect("one chunk completed");
        assert_eq!(partial.samples, crate::parallel::MC_CHUNK);
        // The partial result is the deterministic prefix: bit-identical
        // to a clean run over exactly that many samples.
        let prefix = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            crate::parallel::MC_CHUNK,
            50,
            3,
            0,
        )
        .expect("prefix run");
        assert_eq!(partial.mean.to_bits(), prefix.mean.to_bits());
    }

    #[test]
    fn mc_fingerprint_distinguishes_configurations() {
        let (t, _p, cp, _tech) = setup(Benchmark::C432);
        let _ = &t;
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::date05();
        let a = mc_fingerprint(&cp, &vars, &layers, Marginal::Gaussian, 150).expect("fp");
        let b = mc_fingerprint(&cp, &vars, &layers, Marginal::Gaussian, 150).expect("fp");
        assert_eq!(a, b, "fingerprint is a pure function");
        let q = mc_fingerprint(&cp, &vars, &layers, Marginal::Gaussian, 100).expect("fp");
        assert_ne!(a, q, "quality changes the fingerprint");
        let m = mc_fingerprint(&cp, &vars, &layers, Marginal::Uniform, 150).expect("fp");
        assert_ne!(a, m, "marginal changes the fingerprint");
        let shorter =
            mc_fingerprint(&cp[1..], &vars, &layers, Marginal::Gaussian, 150).expect("fp");
        assert_ne!(a, shorter, "path identity changes the fingerprint");
    }

    #[test]
    fn mc_samples_recorded() {
        let (t, p, cp, tech) = setup(Benchmark::C432);
        let vars = statim_process::Variations::date05();
        let layers = crate::correlation::LayerModel::date05();
        let mc = mc_path_distribution(
            &cp,
            &t,
            &p,
            &tech,
            &vars,
            &layers,
            Marginal::Gaussian,
            500,
            30,
            1,
            0,
        )
        .expect("mc run succeeds");
        assert_eq!(mc.samples, 500);
        assert_eq!(mc.pdf.len(), 30);
        assert!((mc.pdf.mass() - 1.0).abs() < 1e-9);
        assert!((mc.pdf.mean() - mc.mean).abs() / mc.mean < 0.01);
    }

    /// Asserts that `out` is the typed zero-sample configuration error.
    fn assert_zero_samples_rejected<T: std::fmt::Debug>(out: Result<T>) {
        match out {
            Err(CoreError::InvalidConfig { message }) => {
                assert!(message.contains("sample count, got 0"), "{message}");
            }
            other => panic!("expected a zero-sample config error, got {other:?}"),
        }
    }

    #[test]
    fn zero_samples_rejected_by_path_estimator() {
        let (t, p, cp, tech) = setup(Benchmark::C432);
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let gauss = Marginal::Gaussian;
        let out = mc_path_distribution(&cp, &t, &p, &tech, &vars, &layers, gauss, 0, 30, 1, 0);
        assert_zero_samples_rejected(out);
    }

    #[test]
    fn zero_samples_rejected_by_supervised_path_estimator() {
        let (t, p, cp, tech) = setup(Benchmark::C432);
        let sup = Supervisor::unlimited();
        let out = mc_path_distribution_supervised(
            &cp,
            &t,
            &p,
            &tech,
            &Variations::date05(),
            &LayerModel::date05(),
            Marginal::Gaussian,
            0,
            30,
            1,
            0,
            McSupervision::new(&sup),
        );
        assert_zero_samples_rejected(out);
    }

    #[test]
    fn zero_samples_rejected_by_full_chip_estimator() {
        let c = iscas85::generate(Benchmark::C432);
        let (t, p, _, tech) = setup(Benchmark::C432);
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let gauss = Marginal::Gaussian;
        let out = mc_circuit_distribution(&c, &t, &p, &tech, &vars, &layers, gauss, 0, 30, 1, 0);
        assert_zero_samples_rejected(out);
    }

    #[test]
    fn zero_samples_rejected_by_criticality_estimator() {
        let c = iscas85::generate(Benchmark::C432);
        let (t, p, cp, tech) = setup(Benchmark::C432);
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let out = mc_path_criticality(&c, &[cp], &t, &p, &tech, &vars, &layers, 0, 1, 0);
        assert_zero_samples_rejected(out);
    }
}
