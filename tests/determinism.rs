//! Determinism regression tests for the parallel execution layer.
//!
//! The engine's per-path fan-out and the Monte-Carlo chunking are both
//! specified to be **bit-identical for any thread count** — parallelism
//! may only change wall time. The kernel cache extends the contract:
//! exact-bits keys mean a hit returns precisely what a recompute would,
//! so reports are also bit-identical with the cache on or off. These
//! tests pin both contracts on C432 and C499 for
//! `threads ∈ {1, 2, 4, 8}` × `cache ∈ {off, on}`. The Monte-Carlo
//! estimators' output bits are also pinned to fixed digests, so a
//! refactor of the sampler cannot change its draws unnoticed.

use statim::core::characterize::{characterize_placed, CircuitTiming};
use statim::core::engine::{SstaConfig, SstaEngine, SstaReport};
use statim::core::enumerate::near_critical_paths;
use statim::core::longest_path::{critical_path, topo_labels, Labels};
use statim::core::monte_carlo::{
    mc_circuit_distribution, mc_path_criticality, mc_path_distribution,
    mc_path_distribution_supervised, McResult, McSupervision,
};
use statim::core::{BudgetKind, LayerModel, RunBudget, Supervisor};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Circuit, GateId, Placement, PlacementStyle};
use statim::process::{Technology, Variations};
use statim::stats::Marginal;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn run_with(bench: Benchmark, threads: usize, cache: bool) -> SstaReport {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let config = SstaConfig::date05().with_threads(threads).with_cache(cache);
    SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect("SSTA flow")
}

/// Every numeric field of the report (timing fields excluded — those
/// legitimately vary run to run) must match to the bit.
fn assert_reports_identical(a: &SstaReport, b: &SstaReport, label: &str) {
    assert_eq!(a.circuit, b.circuit, "{label}: circuit");
    assert_eq!(a.gate_count, b.gate_count, "{label}: gate_count");
    assert_eq!(
        a.det_critical_delay.to_bits(),
        b.det_critical_delay.to_bits(),
        "{label}: det_critical_delay"
    );
    assert_eq!(
        a.worst_case_delay.to_bits(),
        b.worst_case_delay.to_bits(),
        "{label}: worst_case_delay"
    );
    assert_eq!(
        a.overestimation_pct.to_bits(),
        b.overestimation_pct.to_bits(),
        "{label}: overestimation_pct"
    );
    assert_eq!(a.sigma_c.to_bits(), b.sigma_c.to_bits(), "{label}: sigma_c");
    assert_eq!(a.num_paths, b.num_paths, "{label}: num_paths");
    assert_eq!(a.label_sweeps, b.label_sweeps, "{label}: label_sweeps");
    assert_eq!(a.paths.len(), b.paths.len(), "{label}: path count");
    for (i, (pa, pb)) in a.paths.iter().zip(&b.paths).enumerate() {
        assert_eq!(pa.prob_rank, pb.prob_rank, "{label}: path {i} prob_rank");
        assert_eq!(pa.det_rank, pb.det_rank, "{label}: path {i} det_rank");
        assert_eq!(
            pa.analysis.gates, pb.analysis.gates,
            "{label}: path {i} gates"
        );
        for (name, x, y) in [
            ("det_delay", pa.analysis.det_delay, pb.analysis.det_delay),
            ("mean", pa.analysis.mean, pb.analysis.mean),
            ("sigma", pa.analysis.sigma, pb.analysis.sigma),
            (
                "inter_sigma",
                pa.analysis.inter_sigma,
                pb.analysis.inter_sigma,
            ),
            (
                "intra_sigma",
                pa.analysis.intra_sigma,
                pb.analysis.intra_sigma,
            ),
            (
                "confidence_point",
                pa.analysis.confidence_point,
                pb.analysis.confidence_point,
            ),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: path {i} {name}");
        }
    }
}

#[test]
fn engine_report_bit_identical_across_thread_counts_and_cache_c432() {
    let base = run_with(Benchmark::C432, THREAD_COUNTS[0], false);
    for &threads in &THREAD_COUNTS {
        for cache in [false, true] {
            if threads == THREAD_COUNTS[0] && !cache {
                continue;
            }
            let r = run_with(Benchmark::C432, threads, cache);
            assert_reports_identical(&base, &r, &format!("c432 threads={threads} cache={cache}"));
        }
    }
}

#[test]
fn engine_report_bit_identical_across_thread_counts_and_cache_c499() {
    let base = run_with(Benchmark::C499, THREAD_COUNTS[0], false);
    for &threads in &THREAD_COUNTS {
        for cache in [false, true] {
            if threads == THREAD_COUNTS[0] && !cache {
                continue;
            }
            let r = run_with(Benchmark::C499, threads, cache);
            assert_reports_identical(&base, &r, &format!("c499 threads={threads} cache={cache}"));
        }
    }
}

/// One benchmark set up for Monte-Carlo: levelized placement, timing
/// characterized on it with cmos130, and the deterministic critical path.
struct McSetup {
    circuit: Circuit,
    placement: Placement,
    tech: Technology,
    timing: CircuitTiming,
    labels: Labels,
    path: Vec<GateId>,
}

impl McSetup {
    fn new(bench: Benchmark) -> Self {
        let circuit = iscas85::generate(bench);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let tech = Technology::cmos130();
        let timing = characterize_placed(&circuit, &tech, &placement).expect("characterize");
        let labels = topo_labels(&circuit, &timing).expect("labels");
        let path = critical_path(&circuit, &timing, &labels).expect("critical path");
        McSetup {
            circuit,
            placement,
            tech,
            timing,
            labels,
            path,
        }
    }

    /// The enumerated paths within `fraction` of the critical delay.
    fn near_critical(&self, fraction: f64) -> Vec<Vec<GateId>> {
        let delay = self.labels.critical_delay(&self.circuit).expect("delay");
        near_critical_paths(
            &self.circuit,
            &self.timing,
            &self.labels,
            delay * fraction,
            10_000,
        )
        .expect("enumerate")
        .paths
    }
}

#[test]
fn mc_results_bit_identical_across_thread_counts() {
    for bench in [Benchmark::C432, Benchmark::C499] {
        let s = McSetup::new(bench);
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        // 2.5 chunks' worth of samples: exercises both full and partial
        // chunks.
        let samples = 10_000;
        let run = |threads| {
            mc_path_distribution(
                &s.path,
                &s.timing,
                &s.placement,
                &s.tech,
                &vars,
                &layers,
                Marginal::Gaussian,
                samples,
                80,
                42,
                threads,
            )
            .expect("mc")
        };
        let base = run(1);
        for &threads in &THREAD_COUNTS[1..] {
            // McResult derives PartialEq over pdf + moments, no timing
            // fields — exact equality is the contract.
            assert_eq!(base, run(threads), "{bench}: threads={threads}");
        }
    }
}

#[test]
fn mc_criticality_bit_identical_across_thread_counts() {
    let s = McSetup::new(Benchmark::C432);
    let paths = s.near_critical(0.97);
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    let run = |threads| {
        mc_path_criticality(
            &s.circuit,
            &paths,
            &s.timing,
            &s.placement,
            &s.tech,
            &vars,
            &layers,
            6_000,
            9,
            threads,
        )
        .expect("criticality")
    };
    let base = run(1);
    for &threads in &THREAD_COUNTS[1..] {
        let crit = run(threads);
        for (i, (a, b)) in base.iter().zip(&crit).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "path {i} threads={threads}");
        }
    }
}

/// FNV-1a 64 over the little-endian bytes of each word.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Digest of a Monte-Carlo result: mean, σ, grid lo and step, the
/// sample count, then every density cell.
fn mc_digest(mc: &McResult) -> u64 {
    let grid = mc.pdf.grid();
    let head = [mc.mean, mc.sigma, grid.lo(), grid.step()].map(f64::to_bits);
    let cells = mc.pdf.density().iter().map(|d| d.to_bits());
    fnv1a64(head.into_iter().chain([mc.samples as u64]).chain(cells))
}

/// Path estimates on the critical path, each pinned to the digest of
/// its output bits. A change here means the sampler's draws changed.
#[test]
fn mc_path_output_bits_are_pinned() {
    let vars = Variations::date05();
    let run = |bench, layers: &LayerModel, marginal, samples, quality, seed, threads| {
        let s = McSetup::new(bench);
        let mc = mc_path_distribution(
            &s.path,
            &s.timing,
            &s.placement,
            &s.tech,
            &vars,
            layers,
            marginal,
            samples,
            quality,
            seed,
            threads,
        )
        .expect("mc");
        mc_digest(&mc)
    };
    let date05 = LayerModel::date05();
    let split = LayerModel::with_inter_share(0.7);
    let gauss = run(
        Benchmark::C432,
        &date05,
        Marginal::Gaussian,
        10_000,
        80,
        42,
        0,
    );
    assert_eq!(gauss, 0x1a51_0668_25b0_3bb1, "c432 gaussian");
    let uniform = run(Benchmark::C499, &split, Marginal::Uniform, 9_000, 60, 7, 0);
    assert_eq!(uniform, 0x69a1_6567_9b4d_4cae, "c499 uniform");
    for threads in [1, 3] {
        let tri = run(
            Benchmark::C880,
            &date05,
            Marginal::Triangular,
            9_000,
            70,
            9,
            threads,
        );
        assert_eq!(
            tri, 0x9c90_a387_5601_b256,
            "c880 triangular threads={threads}"
        );
    }
}

/// A sample-budgeted supervised run keeps the bits of its chunk prefix.
#[test]
fn mc_supervised_output_bits_are_pinned() {
    let s = McSetup::new(Benchmark::C432);
    let budget = RunBudget {
        max_mc_samples: Some(4096),
        ..RunBudget::none()
    };
    let sup = Supervisor::new(budget, 1);
    let out = mc_path_distribution_supervised(
        &s.path,
        &s.timing,
        &s.placement,
        &s.tech,
        &Variations::date05(),
        &LayerModel::date05(),
        Marginal::Gaussian,
        10_000,
        50,
        3,
        2,
        McSupervision::new(&sup),
    )
    .expect("supervised mc");
    assert_eq!(out.exhausted, Some(BudgetKind::McSamples));
    assert_eq!((out.chunks_done, out.chunks_total), (1, 3));
    let mc = out.result.expect("one chunk completed");
    assert_eq!(mc_digest(&mc), 0xaa6e_8061_4a7f_afb5);
}

/// Full-chip estimates on c432, pinned like the path estimates.
#[test]
fn mc_circuit_output_bits_are_pinned() {
    let s = McSetup::new(Benchmark::C432);
    let vars = Variations::date05();
    let run = |layers: &LayerModel, marginal, samples, quality, seed| {
        let mc = mc_circuit_distribution(
            &s.circuit,
            &s.timing,
            &s.placement,
            &s.tech,
            &vars,
            layers,
            marginal,
            samples,
            quality,
            seed,
            0,
        )
        .expect("full-chip mc");
        mc_digest(&mc)
    };
    let gauss = run(&LayerModel::date05(), Marginal::Gaussian, 8_000, 100, 5);
    assert_eq!(gauss, 0x5bbc_1584_d96f_3981, "gaussian");
    let split = LayerModel::with_inter_share(0.7);
    let uniform = run(&split, Marginal::Uniform, 5_000, 90, 6);
    assert_eq!(uniform, 0x205f_02f5_f284_8fe2, "uniform");
}

/// Criticality over c432's near-critical set, pinned at two thread
/// counts.
#[test]
fn mc_criticality_output_bits_are_pinned() {
    let s = McSetup::new(Benchmark::C432);
    let paths = s.near_critical(0.95);
    assert_eq!(paths.len(), 10);
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    for threads in [0, 3] {
        let crit = mc_path_criticality(
            &s.circuit,
            &paths,
            &s.timing,
            &s.placement,
            &s.tech,
            &vars,
            &layers,
            4_000,
            11,
            threads,
        )
        .expect("criticality");
        let digest = fnv1a64(crit.iter().map(|p| p.to_bits()));
        assert_eq!(digest, 0x76b7_a7ac_a0bc_8e81, "threads={threads}");
    }
}
