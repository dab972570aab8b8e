//! `signoff-cold`: the ten Table 2 circuits at the paper's C, then `s27`
//! and `pipe8x32` through the sequential flow. Every run gets a fresh
//! `KernelStore`; an op is one circuit run.
//!
//! The traced run replays `SstaEngine::run_with` stage by stage from
//! its public functions, so each layer's time is measured around the
//! call that does it. The replay mirrors the composition of
//! `analyze_path_cached`; a change that keeps the bytes but rearranges
//! that function must update [`analyze_traced`].

use crate::measure::{cpu_ms, cpu_seconds, fnv1a, median, peak_rss_mb, Rng, Speed};
use crate::trace::{layer_totals, Tracer};
use crate::{Layers, OpLog, Outcome, Params, ENGINE_THREADS};
use statim_bench::paper::table2_row;
use statim_bench::runner::PATH_CAP;
use statim_core::analyze::{AnalysisSettings, IntraModel, PathAnalysis};
use statim_core::characterize::{characterize_placed, CircuitTiming};
use statim_core::engine::{LabelSolver, RunContext};
use statim_core::enumerate::near_critical_paths;
use statim_core::inter::inter_pdf;
use statim_core::intra::{intra_pdf, intra_variance, path_coefficients};
use statim_core::longest_path::{bellman_ford, critical_path};
use statim_core::parallel::parallel_map;
use statim_core::rank::rank_paths;
use statim_core::report::{deterministic_report, deterministic_sequential_report};
use statim_core::sequential::{min_period, seq_yield_curve};
use statim_core::worst_case::{worst_case_critical_delay, worst_case_path_delay_at};
use statim_core::{
    AnalysisCache, CacheStats, ClockTree, KernelStore, SequentialConfig, SequentialEngine,
    SequentialReport, SstaConfig, SstaEngine, SstaReport, TimingGraph,
};
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::generators::sequential;
use statim_netlist::{Circuit, GateId, Placement, PlacementStyle};
use statim_stats::convolve::sum_pdf_resampled_with;
use std::sync::Arc;
use std::time::Instant;

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 25;
/// Sweep orders generated up front (more than any run can use).
const MAX_SWEEPS: usize = 64;
/// Fewest timed sweeps in a full-size run: with three, the pooled tail
/// is the middle run of one circuit.
const MIN_SWEEPS: usize = 3;
/// CPU seconds one sweep takes at one engine thread on the benchmark
/// host (a 2-vCPU Xeon VM), rounded. A run times
/// `--seconds / SWEEP_CPU_S` whole sweeps: a count fixed by the flags
/// alone, because the pooled percentiles over twelve circuits of very
/// different sizes change circuit whenever the sweep count does.
const SWEEP_CPU_S: f64 = 6.0;
/// Engine threads of the reference runs (with the cache off): the
/// timed runs use [`ENGINE_THREADS`] with the cache on, so the check
/// crosses both axes.
const REFERENCE_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    Combinational,
    Sequential,
}

/// One circuit run of the sweep.
pub struct Job {
    pub label: String,
    pub flow: Flow,
    pub confidence: f64,
    pub circuit: Circuit,
    pub placement: Placement,
}

/// The Table 2 circuits at the paper's C, then the sequential built-ins
/// `seq`. At toy size: c432 and the first of `seq`.
pub fn circuits(toy: bool, seq: &[&str]) -> Vec<Job> {
    let (benches, seq): (&[Benchmark], &[&str]) = if toy {
        (&[Benchmark::C432], &seq[..1])
    } else {
        (&Benchmark::ALL, seq)
    };
    let comb = benches.iter().map(|&b| {
        (
            b.name().to_string(),
            Flow::Combinational,
            table2_row(b).confidence,
            iscas85::generate(b),
        )
    });
    let seq = seq.iter().map(|&name| {
        let circuit = sequential::from_name(name).expect("built-in sequential generator");
        (
            name.to_string(),
            Flow::Sequential,
            SstaConfig::date05().confidence,
            circuit,
        )
    });
    comb.chain(seq)
        .map(|(label, flow, confidence, circuit)| Job {
            label,
            flow,
            confidence,
            placement: Placement::generate(&circuit, PlacementStyle::Levelized),
            circuit,
        })
        .collect()
}

/// The sweep's circuits.
pub fn jobs(toy: bool) -> Vec<Job> {
    circuits(toy, &["s27", "pipe8x32"])
}

/// The paper's configuration at `confidence`, with the regeneration
/// binaries' path cap.
pub fn ssta_config(confidence: f64, threads: usize, cache: bool) -> SstaConfig {
    let mut config = SstaConfig::date05()
        .with_confidence(confidence)
        .with_threads(threads)
        .with_cache(cache);
    config.max_paths = PATH_CAP;
    config
}

pub fn seq_config(confidence: f64, threads: usize, cache: bool) -> SequentialConfig {
    SequentialConfig {
        ssta: ssta_config(confidence, threads, cache),
        ..SequentialConfig::date05()
    }
}

/// The analysis settings `SstaConfig` derives internally.
fn settings_of(c: &SstaConfig) -> AnalysisSettings {
    AnalysisSettings {
        vars: c.vars,
        layers: c.layers.clone(),
        marginal: c.marginal,
        intra_model: c.intra_model,
        backend: c.backend,
        quality_intra: c.quality_intra,
        quality_inter: c.quality_inter,
        sigma_rank: c.sigma_rank,
        corner: c.corner,
    }
}

/// Exact bits of every number a report carries, folded into a digest.
fn bits_digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

/// The deterministic bytes of a combinational report: the served text
/// with every path, plus the exact bits of every per-path scalar.
pub fn comb_bytes(r: &SstaReport) -> String {
    let bits = bits_digest(
        [
            r.det_critical_delay,
            r.worst_case_delay,
            r.overestimation_pct,
            r.sigma_c,
        ]
        .into_iter()
        .chain(r.paths.iter().flat_map(|p| {
            let a = &p.analysis;
            [
                a.det_delay,
                a.worst_case,
                a.mean,
                a.sigma,
                a.inter_sigma,
                a.intra_sigma,
                a.confidence_point,
            ]
        })),
    );
    format!(
        "{}bits {bits:016x}\n",
        deterministic_report(r, r.paths.len())
    )
}

/// The deterministic bytes of a sequential report.
pub fn seq_bytes(r: &SequentialReport) -> String {
    let bits = bits_digest(
        [r.setup_yield, r.hold_yield, r.min_period.unwrap_or(-1.0)]
            .into_iter()
            .chain(r.curve.iter().flat_map(|p| [p.period, p.setup, p.hold]))
            .chain(r.checks.iter().flat_map(|c| {
                [
                    c.data_nominal,
                    c.var_eff,
                    c.nominal_x,
                    c.slack_mean,
                    c.slack_sigma,
                    c.yield_at_period,
                ]
            })),
    );
    format!(
        "{}bits {bits:016x}\n",
        deterministic_sequential_report(r, r.checks.len())
    )
}

/// What one circuit run produced.
pub struct RunOut {
    pub bytes: String,
    /// Analyzed paths (combinational) or timing checks (sequential).
    pub items: usize,
    /// The run's fresh store, after the run.
    pub cache: CacheStats,
}

fn context(store: &Arc<KernelStore>) -> RunContext<'static> {
    RunContext {
        store: Some(Arc::clone(store)),
        supervisor: None,
    }
}

/// One untraced circuit run on a fresh kernel store.
pub fn run_job(job: &Job, threads: usize, cache: bool) -> Result<RunOut, String> {
    let store = Arc::new(KernelStore::unbounded());
    let fail = |e: statim_core::CoreError| format!("{}: {e}", job.label);
    let (bytes, items) = match job.flow {
        Flow::Combinational => {
            let r = SstaEngine::new(ssta_config(job.confidence, threads, cache))
                .run_with(&job.circuit, &job.placement, context(&store))
                .map_err(fail)?;
            if !r.degraded.is_empty() || r.budget_exhausted.is_some() || r.skipped_paths > 0 {
                return Err(format!("{}: degraded or partial report", job.label));
            }
            (comb_bytes(&r), r.num_paths)
        }
        Flow::Sequential => {
            let r = SequentialEngine::new(seq_config(job.confidence, threads, cache))
                .run_with(&job.circuit, &job.placement, context(&store))
                .map_err(fail)?;
            if !r.degraded.is_empty() || r.budget_exhausted.is_some() || r.skipped_checks > 0 {
                return Err(format!("{}: degraded or partial report", job.label));
            }
            (seq_bytes(&r), r.checks.len())
        }
    };
    Ok(RunOut {
        bytes,
        items,
        cache: store.stats(),
    })
}

/// One path analysed from the public pieces of `analyze_path_cached`,
/// in its order, each inside a span. Kernels run inside the cache's
/// compute closures, so compute time and lookup time separate.
#[allow(clippy::too_many_arguments)]
fn analyze_traced(
    path: &[GateId],
    timing: &CircuitTiming,
    placement: &Placement,
    config: &SstaConfig,
    settings: &AnalysisSettings,
    cache: &AnalysisCache,
    tracer: &Tracer,
    parent: u64,
    op: u64,
) -> statim_core::Result<PathAnalysis> {
    let tech = &config.tech;
    tracer.time("analyze.path", Some(parent), op, |pid| {
        let det_delay = timing.path_delay(path);
        let corner_pt = tracer.time("cache.lookup", Some(pid), op, |_| {
            cache.corner_point(|| settings.corner.worst_point(tech, &settings.vars))
        });
        let worst_case = tracer.time("analyze.worst_path", Some(pid), op, |_| {
            worst_case_path_delay_at(path, timing, tech, &corner_pt)
        })?;
        let var_intra = tracer.time("analyze.coeffs", Some(pid), op, |_| {
            let coeffs = path_coefficients(path, timing, placement, &settings.layers);
            intra_variance(&coeffs, &settings.layers, &settings.vars)
        })?;
        let intra = tracer.time("cache.lookup", Some(pid), op, |lid| {
            cache.intra_pdf(var_intra, || {
                tracer.time("intra", Some(lid), op, |_| {
                    intra_pdf(var_intra, settings.vars.trunc_k, settings.quality_intra)
                })
            })
        })?;
        let ab = tracer.time("analyze.coeffs", Some(pid), op, |_| {
            timing.path_alpha_beta(path)
        });
        let inter = tracer.time("cache.lookup", Some(pid), op, |lid| {
            cache.inter_pdf(&ab, || {
                tracer.time("inter", Some(lid), op, |_| {
                    inter_pdf(
                        &ab,
                        tech,
                        &settings.vars,
                        &settings.layers,
                        settings.marginal,
                        settings.quality_inter,
                    )
                })
            })
        })?;
        let total = tracer.time("convolve", Some(pid), op, |_| {
            sum_pdf_resampled_with(
                settings.backend,
                &intra,
                &inter,
                settings.quality_intra.max(settings.quality_inter),
            )
        })?;
        let mean = total.mean();
        let sigma = total.std_dev();
        Ok(PathAnalysis {
            gates: path.to_vec(),
            det_delay,
            worst_case,
            mean,
            sigma,
            inter_sigma: inter.std_dev(),
            intra_sigma: intra.std_dev(),
            confidence_point: mean + settings.sigma_rank * sigma,
            total_pdf: total,
            intra_pdf: intra,
            inter_pdf: inter,
        })
    })
}

/// Counts a replay produces besides its spans.
#[derive(Default)]
pub struct ReplayCounts {
    label_sweeps: usize,
    enumerated: usize,
    /// `Σ wall · threads` over the analyze stage's spans.
    analyze_capacity: f64,
    checks: usize,
}

/// `SstaEngine::run_with` replayed stage by stage on `store`.
pub fn replay_comb(
    job: &Job,
    store: &Arc<KernelStore>,
    tracer: &Tracer,
    op: u64,
    counts: &mut ReplayCounts,
) -> statim_core::Result<SstaReport> {
    let config = ssta_config(job.confidence, ENGINE_THREADS, true);
    assert_eq!(config.solver, LabelSolver::BellmanFord);
    assert_eq!(config.intra_model, IntraModel::GaussianClosedForm);
    let settings = settings_of(&config);
    let (circuit, placement) = (&job.circuit, &job.placement);
    tracer.time("replay.run", None, op, |root| {
        let timing = tracer.time("characterize", Some(root), op, |_| {
            characterize_placed(circuit, &config.tech, placement)
        })?;
        let (labels, det_critical_delay, det_path) =
            tracer.time("longest_path", Some(root), op, |_| {
                let labels = bellman_ford(circuit, &timing)?;
                let delay = labels.critical_delay(circuit)?;
                let path = critical_path(circuit, &timing, &labels)?;
                Ok::<_, statim_core::CoreError>((labels, delay, path))
            })?;
        counts.label_sweeps += labels.sweeps;
        let cache = AnalysisCache::with_store(Arc::clone(store), &config.tech, &settings);

        let t0 = Instant::now();
        let det_analysis = tracer.time("analyze", Some(root), op, |id| {
            analyze_traced(
                &det_path, &timing, placement, &config, &settings, &cache, tracer, id, op,
            )
        })?;
        counts.analyze_capacity += t0.elapsed().as_secs_f64();

        let set = tracer.time("enumerate", Some(root), op, |_| {
            let threshold = det_critical_delay - config.confidence * det_analysis.sigma;
            near_critical_paths(circuit, &timing, &labels, threshold, config.max_paths)
        })?;
        counts.enumerated += set.paths.len();
        let det_idx = set
            .paths
            .iter()
            .position(|p| p.len() == det_path.len() && *p == det_path);

        let t0 = Instant::now();
        let analyses = tracer.time("analyze", Some(root), op, |fan| {
            parallel_map(&set.paths, ENGINE_THREADS, |i, p| {
                if Some(i) == det_idx {
                    Ok(det_analysis.clone())
                } else {
                    analyze_traced(
                        p, &timing, placement, &config, &settings, &cache, tracer, fan, op,
                    )
                }
            })
        });
        counts.analyze_capacity +=
            t0.elapsed().as_secs_f64() * ENGINE_THREADS.min(set.paths.len().max(1)) as f64;
        let analyses = analyses
            .into_iter()
            .collect::<statim_core::Result<Vec<PathAnalysis>>>()?;
        if analyses.iter().any(|a| !a.kernel_is_finite()) {
            return Err(statim_core::CoreError::InvalidConfig {
                message: format!("{}: non-finite kernel in the replay", job.label),
            });
        }

        let ranked = tracer.time("rank", Some(root), op, |_| rank_paths(analyses));
        let worst_case_delay = tracer.time("worst_case", Some(root), op, |_| {
            worst_case_critical_delay(circuit, &timing, &config.tech, &config.vars, config.corner)
        })?;
        let crit_point = ranked[0].analysis.confidence_point;
        Ok(SstaReport {
            circuit: circuit.name().to_string(),
            gate_count: circuit.gate_count(),
            det_critical_delay,
            worst_case_delay,
            overestimation_pct: (worst_case_delay - crit_point) / crit_point * 100.0,
            confidence: config.confidence,
            sigma_c: det_analysis.sigma,
            num_paths: ranked.len(),
            paths: ranked,
            label_sweeps: labels.sweeps,
            runtime: 0.0,
            profile: Default::default(),
            degraded: Vec::new(),
            budget_exhausted: None,
            skipped_paths: 0,
        })
    })
}

/// A sequential run inside one span, then its public pieces re-invoked
/// one by one so the run's time can be split.
pub fn replay_seq(
    job: &Job,
    store: &Arc<KernelStore>,
    tracer: &Tracer,
    op: u64,
    counts: &mut ReplayCounts,
) -> statim_core::Result<SequentialReport> {
    let config = seq_config(job.confidence, ENGINE_THREADS, true);
    tracer.time("replay.run", None, op, |root| {
        let report = tracer.time("sequential.run", Some(root), op, |_| {
            SequentialEngine::new(config.clone()).run_with(
                &job.circuit,
                &job.placement,
                context(store),
            )
        })?;
        let cfg = &config.ssta;
        tracer.time("sequential.clock_tree", Some(root), op, |_| {
            ClockTree::new(
                job.circuit.registers().len(),
                job.circuit.seq_spec().tree_depth,
                &cfg.tech,
                &cfg.layers,
                &cfg.vars,
            )
        })?;
        tracer.time("graph.build", Some(root), op, |_| {
            TimingGraph::build(&job.circuit)
        })?;
        tracer.time("sequential.solve", Some(root), op, |_| {
            (
                min_period(&report.checks, config.target_yield),
                seq_yield_curve(&report.checks, config.curve_points),
            )
        });
        counts.checks += report.checks.len();
        Ok(report)
    })
}

/// Cache counters summed over runs.
#[derive(Default)]
pub struct CacheTotals {
    lookups: u64,
    hits: u64,
    entries: u64,
    kernel_misses: u64,
}

impl CacheTotals {
    /// Adds one run on a fresh store.
    fn add(&mut self, s: &CacheStats) {
        self.add_delta(&CacheStats::default(), s);
    }

    /// Adds one run on a shared store, from snapshots around it.
    pub fn add_delta(&mut self, before: &CacheStats, after: &CacheStats) {
        let d = after.since(before);
        self.lookups += d.lookups();
        self.hits += d.hits();
        self.entries += after.entries.saturating_sub(before.entries) as u64;
        self.kernel_misses += d.inter_misses + d.intra_misses;
    }

    /// Kernels computed and then thrown away because another thread
    /// stored the same key first.
    fn dup_misses(&self) -> u64 {
        self.kernel_misses.saturating_sub(self.entries)
    }
}

/// Runs the sweep in `order`, checking every output against `reference`.
/// Returns (sweep CPU seconds, per-run CPU latencies in ms with the
/// core-speed mark each started at, items, mismatches).
fn sweep(
    jobs: &[Job],
    order: &[usize],
    reference: &[Option<String>],
    cache: &mut CacheTotals,
    speed: &mut Speed,
) -> (f64, Vec<(f64, usize)>, u64, u64) {
    let mut outs = Vec::with_capacity(order.len());
    let mut latencies = Vec::with_capacity(order.len());
    for &i in order {
        speed.tick();
        let mark = speed.mark();
        let (out, ms) = cpu_ms(|| run_job(&jobs[i], ENGINE_THREADS, true));
        latencies.push((ms, mark));
        outs.push((i, out));
    }
    let cpu = latencies.iter().map(|&(ms, _)| ms).sum::<f64>() / 1e3;
    let (mut items, mut failed) = (0, 0);
    for (i, out) in outs {
        match out {
            Ok(out) if Some(&out.bytes) == reference[i].as_ref() => {
                items += out.items as u64;
                cache.add(&out.cache);
            }
            Ok(_) => {
                eprintln!(
                    "signoff-cold: {} output differs from the reference",
                    jobs[i].label
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("signoff-cold: {e}");
                failed += 1;
            }
        }
    }
    (cpu, latencies, items, failed)
}

pub fn run(p: &Params) -> Outcome {
    let mut speed = Speed::start();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut jobs_once = None;
    for _ in 0..SETUP_REPEATS {
        speed.tick();
        let mark = speed.mark();
        let (built, ms) = cpu_ms(|| jobs(p.toy));
        setup.push((ms / 1e3, mark));
        jobs_once = Some(built);
    }
    let jobs = jobs_once.expect("set-up ran");

    let mut rng = Rng::new(p.seed);
    let orders: Vec<Vec<usize>> = (0..MAX_SWEEPS)
        .map(|_| {
            let mut o: Vec<usize> = (0..jobs.len()).collect();
            rng.shuffle(&mut o);
            o
        })
        .collect();
    let mut digest = 0;
    for j in &jobs {
        digest = fnv1a(digest, j.label.as_bytes());
        digest = fnv1a(digest, &j.confidence.to_bits().to_le_bytes());
    }
    for o in &orders {
        for &i in o {
            digest = fnv1a(digest, &(i as u64).to_le_bytes());
        }
    }
    println!(
        "signoff-cold: seed {} inputs {digest:016x}: {} runs per sweep ({})",
        p.seed,
        jobs.len(),
        jobs.iter()
            .map(|j| j.label.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Reference bytes, untimed: every run with the cache off at
    // REFERENCE_THREADS.
    let t = Instant::now();
    let reference: Vec<Option<String>> = jobs
        .iter()
        .map(|job| match run_job(job, REFERENCE_THREADS, false) {
            Ok(out) => Some(out.bytes),
            Err(e) => {
                eprintln!("signoff-cold: reference {e}");
                None
            }
        })
        .collect();
    println!(
        "signoff-cold: reference bytes (cache off, {REFERENCE_THREADS} threads) in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    let mut attempted = jobs.len() as u64;
    let mut failed = reference.iter().filter(|r| r.is_none()).count() as u64;

    // One untimed sweep: process-level lazy set-up stays out of the
    // cold numbers.
    let mut warm_cache = CacheTotals::default();
    let (warm_cpu, _, _, warm_failed) =
        sweep(&jobs, &orders[0], &reference, &mut warm_cache, &mut speed);
    attempted += jobs.len() as u64;
    failed += warm_failed;

    if p.trace {
        let setup = speed.scaled(&setup);
        return traced(p, &jobs, &orders[0], &reference, setup, attempted, failed);
    }

    let sweeps = if p.toy {
        1
    } else {
        ((p.seconds / SWEEP_CPU_S).round() as usize).clamp(MIN_SWEEPS, MAX_SWEEPS - 1)
    };
    let mut ops = OpLog {
        sweep_len: jobs.len(),
        ..OpLog::default()
    };
    let mut cache = CacheTotals::default();
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut sweep_cpu = Vec::new();
    let mut raw = Vec::new();
    for order in &orders[1..=sweeps] {
        let (cpu, latencies, items, bad) = sweep(&jobs, order, &reference, &mut cache, &mut speed);
        for (&i, &(ms, _)) in order.iter().zip(&latencies) {
            per_job[i].push(ms);
        }
        sweep_cpu.push(cpu);
        raw.extend(latencies);
        ops.items += items;
        attempted += order.len() as u64;
        failed += bad;
    }
    ops.latencies_ms = speed.scaled(&raw);
    ops.cpu = ops.latencies_ms.iter().sum::<f64>() / 1e3;
    ops.peak_rss_mb = peak_rss_mb();
    ops.probe_ms = speed.mean_ms();
    let setup = speed.scaled(&setup);
    let per_job: Vec<String> = jobs
        .iter()
        .zip(&per_job)
        .map(|(j, ms)| format!("{} {:.1}", j.label, median(ms)))
        .collect();
    println!(
        "signoff-cold: median CPU ms per run: {}",
        per_job.join(", ")
    );
    println!(
        "signoff-cold: {sweeps} timed sweeps, median {:.3} CPU s (warm-up {warm_cpu:.3} s); \
         kernel misses {} for {} entries ({} duplicate)",
        median(&sweep_cpu),
        cache.kernel_misses,
        cache.entries,
        cache.dup_misses()
    );
    Outcome {
        attempted,
        failed,
        setup,
        ops,
        layers: None,
    }
}

/// The traced invocation: one untraced sweep and one traced replay of
/// the same order; the difference is the tracing overhead.
fn traced(
    p: &Params,
    jobs: &[Job],
    order: &[usize],
    reference: &[Option<String>],
    setup: Vec<f64>,
    mut attempted: u64,
    mut failed: u64,
) -> Outcome {
    let mut untraced_cache = CacheTotals::default();
    let (untraced_cpu, _, _, bad) = sweep(
        jobs,
        order,
        reference,
        &mut untraced_cache,
        &mut Speed::start(),
    );
    attempted += order.len() as u64;
    failed += bad;

    let tracer = Tracer::default();
    let mut counts = ReplayCounts::default();
    let mut cache = CacheTotals::default();
    let c = cpu_seconds();
    let mut outs = Vec::new();
    for (op, &i) in order.iter().enumerate() {
        let store = Arc::new(KernelStore::unbounded());
        let job = &jobs[i];
        let bytes = match job.flow {
            Flow::Combinational => {
                replay_comb(job, &store, &tracer, op as u64, &mut counts).map(|r| comb_bytes(&r))
            }
            Flow::Sequential => {
                replay_seq(job, &store, &tracer, op as u64, &mut counts).map(|r| seq_bytes(&r))
            }
        };
        cache.add(&store.stats());
        outs.push((i, bytes));
    }
    let traced_cpu = cpu_seconds() - c;
    attempted += order.len() as u64;
    for (i, bytes) in outs {
        match bytes {
            Ok(b) if Some(&b) == reference[i].as_ref() => {}
            Ok(_) => {
                eprintln!(
                    "signoff-cold: replayed {} differs from the untraced run",
                    jobs[i].label
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("signoff-cold: replay of {}: {e}", jobs[i].label);
                failed += 1;
            }
        }
    }
    println!(
        "signoff-cold: replayed reports byte-identical to the untraced run: {}",
        if failed == 0 { "yes" } else { "NO" }
    );

    let spans = tracer.into_spans();
    let mut layers = Layers::default();
    replay_layers(&mut layers, &spans, &counts, &cache);
    layers.finish_trace(p, "signoff-cold", &spans, traced_cpu, untraced_cpu);
    Outcome {
        attempted,
        failed,
        setup,
        ops: OpLog::default(),
        layers: Some(layers),
    }
}

/// The per-layer metrics a set of replays yields.
pub fn replay_layers(
    layers: &mut Layers,
    spans: &[crate::trace::Span],
    counts: &ReplayCounts,
    cache: &CacheTotals,
) {
    let t = layer_totals(spans);
    let total = |n: &str| t.get(n).map_or(0.0, |x| x.total);
    let count = |n: &str| t.get(n).map_or(0, |x| x.count) as f64;
    layers.set("inter.computes", count("inter"));
    layers.set("inter.busy_s", total("inter"));
    layers.set("intra.computes", count("intra"));
    layers.set("intra.busy_s", total("intra"));
    layers.set("convolve.calls", count("convolve"));
    layers.set("convolve.busy_s", total("convolve"));
    layers.set("analyze.coeffs_busy_s", total("analyze.coeffs"));
    layers.set("analyze.worst_path_busy_s", total("analyze.worst_path"));
    layers.set("analyze.wall_s", total("analyze"));
    if counts.analyze_capacity > 0.0 {
        layers.set(
            "analyze.utilization",
            total("analyze.path") / counts.analyze_capacity,
        );
    }
    layers.set("cache.lookups", cache.lookups as f64);
    if cache.lookups > 0 {
        layers.set("cache.hit_ratio", cache.hits as f64 / cache.lookups as f64);
    }
    layers.set(
        "cache.lookup_busy_s",
        t.get("cache.lookup").map_or(0.0, |x| x.self_time),
    );
    layers.set("cache.entries", cache.entries as f64);
    layers.set("cache.dup_misses", cache.dup_misses() as f64);
    layers.set("characterize.busy_s", total("characterize"));
    layers.set("longest_path.busy_s", total("longest_path"));
    layers.set("longest_path.sweeps", counts.label_sweeps as f64);
    layers.set("enumerate.busy_s", total("enumerate"));
    layers.set("enumerate.paths", counts.enumerated as f64);
    layers.set("graph.build_s", total("graph.build"));
    layers.set("rank.busy_s", total("rank"));
    layers.set("worst_case.busy_s", total("worst_case"));
    let seq_run = total("sequential.run");
    layers.set("sequential.run_s", seq_run);
    layers.set("sequential.checks", counts.checks as f64);
    layers.set("sequential.clock_tree_s", total("sequential.clock_tree"));
    layers.set("sequential.solve_s", total("sequential.solve"));
    layers.set(
        "sequential.checks_s",
        (seq_run
            - total("sequential.clock_tree")
            - total("graph.build")
            - total("sequential.solve"))
        .max(0.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_menu_is_c432_then_s27() {
        let labels: Vec<String> = jobs(true).into_iter().map(|j| j.label).collect();
        assert_eq!(labels, ["c432", "s27"]);
        assert_eq!(table2_row(Benchmark::C6288).confidence, 0.001);
    }

    #[test]
    fn replay_matches_run_with_bytes() {
        for job in jobs(true) {
            let tracer = Tracer::default();
            let store = Arc::new(KernelStore::unbounded());
            let mut counts = ReplayCounts::default();
            let replayed = match job.flow {
                Flow::Combinational => {
                    comb_bytes(&replay_comb(&job, &store, &tracer, 0, &mut counts).expect("replay"))
                }
                Flow::Sequential => {
                    seq_bytes(&replay_seq(&job, &store, &tracer, 0, &mut counts).expect("replay"))
                }
            };
            let reference = run_job(&job, 1, false).expect("reference run");
            assert_eq!(replayed, reference.bytes, "{}", job.label);
            let spans = tracer.into_spans();
            assert!(spans.iter().any(|s| s.name == "replay.run"));
        }
    }
}
