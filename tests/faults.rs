//! Adversarial fault-injection harness (needs `--features fault-injection`).
//!
//! Each scenario installs a deterministic [`FaultPlan`] and asserts the
//! engine's graceful-degradation contract: the run completes, exactly
//! the planned paths land in [`SstaReport::degraded`], and every
//! surviving kernel is bit-identical to a fault-free run — at any
//! thread count.

#![cfg(feature = "fault-injection")]

use statim::core::engine::{SstaConfig, SstaEngine, SstaReport};
use statim::core::report::deterministic_report;
use statim::core::{apply_edits, CoreError, EcoScript, ErrorClass, FaultPlan, IncrementalEngine};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{bench_format, GateId, Placement, PlacementStyle};
use std::collections::HashMap;
use std::sync::Arc;

/// Wide enough near-critical window that c432/c499 enumerate well over
/// the indices the plans below target.
const C: f64 = 0.5;

fn run_with_c(
    bench: Benchmark,
    confidence: f64,
    threads: usize,
    plan: Option<Arc<FaultPlan>>,
) -> Result<SstaReport, CoreError> {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut config = SstaConfig::date05()
        .with_confidence(confidence)
        .with_threads(threads);
    config.faults = plan;
    SstaEngine::new(config).run(&circuit, &placement)
}

fn run(
    bench: Benchmark,
    threads: usize,
    plan: Option<Arc<FaultPlan>>,
) -> Result<SstaReport, CoreError> {
    run_with_c(bench, C, threads, plan)
}

fn plan(spec: &str) -> Arc<FaultPlan> {
    Arc::new(spec.parse::<FaultPlan>().expect("valid plan spec"))
}

/// Kernel bits of every ranked path, keyed by the gate sequence.
fn kernel_bits(r: &SstaReport) -> HashMap<Vec<GateId>, [u64; 3]> {
    r.paths
        .iter()
        .map(|p| {
            (
                p.analysis.gates.clone(),
                [
                    p.analysis.mean.to_bits(),
                    p.analysis.sigma.to_bits(),
                    p.analysis.confidence_point.to_bits(),
                ],
            )
        })
        .collect()
}

/// Asserts every path surviving in `faulted` carries bits identical to
/// the same gate sequence in `free`.
fn assert_survivors_bit_identical(free: &SstaReport, faulted: &SstaReport, label: &str) {
    let free_bits = kernel_bits(free);
    for (gates, bits) in kernel_bits(faulted) {
        let expected = free_bits
            .get(&gates)
            .unwrap_or_else(|| panic!("{label}: surviving path missing from fault-free run"));
        assert_eq!(*expected, bits, "{label}: surviving kernel drifted");
    }
}

#[test]
fn nan_path_degrades_exactly_the_planned_three() {
    let free = run(Benchmark::C432, 1, None).expect("fault-free");
    assert!(
        free.num_paths >= 6,
        "need at least 6 paths to target index 5, got {}",
        free.num_paths
    );
    let faulted = run(Benchmark::C432, 1, Some(plan("nan-path@1,3,5"))).expect("degraded run");
    assert_eq!(faulted.degraded.len(), 3);
    assert_eq!(faulted.profile.degraded, 3);
    assert_eq!(faulted.num_paths, free.num_paths - 3);
    let mut indices: Vec<usize> = faulted.degraded.iter().map(|d| d.index).collect();
    indices.sort();
    assert_eq!(indices, vec![1, 3, 5]);
    for d in &faulted.degraded {
        assert_eq!(d.class, ErrorClass::Numeric);
        assert!(d.reason.contains("non-finite"), "{}", d.reason);
        assert!(!d.gates.is_empty());
    }
    assert_survivors_bit_identical(&free, &faulted, "nan-path");
}

#[test]
fn faulted_run_is_bit_identical_across_thread_counts() {
    let one = run(Benchmark::C432, 1, Some(plan("nan-path@1,3,5"))).expect("1 thread");
    let four = run(Benchmark::C432, 4, Some(plan("nan-path@1,3,5"))).expect("4 threads");
    assert_eq!(one.num_paths, four.num_paths);
    assert_eq!(one.degraded.len(), four.degraded.len());
    for (a, b) in one.degraded.iter().zip(&four.degraded) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.gates, b.gates);
        assert_eq!(a.class, b.class);
        assert_eq!(a.reason, b.reason);
    }
    assert_eq!(kernel_bits(&one), kernel_bits(&four));
    assert_eq!(one.sigma_c.to_bits(), four.sigma_c.to_bits());
}

#[test]
fn zero_variance_is_a_real_numeric_kernel_error() {
    let free = run(Benchmark::C432, 1, None).expect("fault-free");
    let faulted = run(Benchmark::C432, 1, Some(plan("zero-variance@0"))).expect("degraded run");
    assert_eq!(faulted.degraded.len(), 1);
    assert_eq!(faulted.degraded[0].index, 0);
    assert_eq!(faulted.degraded[0].class, ErrorClass::Numeric);
    assert_eq!(faulted.num_paths, free.num_paths - 1);
    assert_survivors_bit_identical(&free, &faulted, "zero-variance");
}

#[test]
fn nan_cell_in_a_pdf_density_is_quarantined() {
    // The poisoned cell leaves every scalar moment finite; only the
    // density scan in kernel_is_finite catches it.
    // c499's near-critical set is narrow; C = 1.5 enumerates 4 paths.
    let free = run_with_c(Benchmark::C499, 1.5, 1, None).expect("fault-free");
    assert!(free.num_paths >= 3, "got {}", free.num_paths);
    let faulted =
        run_with_c(Benchmark::C499, 1.5, 1, Some(plan("nan-cell@2:17"))).expect("degraded run");
    assert_eq!(faulted.degraded.len(), 1);
    assert_eq!(faulted.degraded[0].index, 2);
    assert_eq!(faulted.degraded[0].class, ErrorClass::Numeric);
    assert_survivors_bit_identical(&free, &faulted, "nan-cell");
}

#[test]
fn random_nan_is_seeded_and_thread_stable() {
    let spec = "seed=42;nan-path-random@50";
    let one = run(Benchmark::C432, 1, Some(plan(spec))).expect("1 thread");
    let four = run(Benchmark::C432, 4, Some(plan(spec))).expect("4 threads");
    assert!(!one.degraded.is_empty(), "50% of many paths should hit");
    assert!(one.num_paths > 0, "50% of many paths should miss");
    let idx = |r: &SstaReport| r.degraded.iter().map(|d| d.index).collect::<Vec<_>>();
    assert_eq!(idx(&one), idx(&four));
    assert_eq!(kernel_bits(&one), kernel_bits(&four));
    // A different seed reshuffles the faulted set.
    let reseeded =
        run(Benchmark::C432, 1, Some(plan("seed=43;nan-path-random@50"))).expect("reseeded");
    assert_ne!(idx(&one), idx(&reseeded), "seed must drive the targeting");
}

#[test]
fn poisoned_cache_shard_degrades_but_run_completes() {
    let shard_count = statim::core::AnalysisCache::shard_count();
    let mut total_degraded = 0;
    for shard in 0..shard_count {
        let spec = format!("poison-cache-shard@{shard}");
        let r = run(Benchmark::C432, 1, Some(plan(&spec)))
            .unwrap_or_else(|e| panic!("shard {shard}: run must complete, got {e}"));
        for d in &r.degraded {
            assert_eq!(d.class, ErrorClass::Numeric);
            assert!(
                d.reason.contains("poisoned inter-PDF cache shard"),
                "{}",
                d.reason
            );
        }
        total_degraded += r.degraded.len();
    }
    // The near-critical inter keys hash somewhere: at least one shard
    // must have quarantined paths.
    assert!(total_degraded > 0, "no shard hit any inter-PDF key");
}

#[test]
fn truncated_bench_text_fails_with_a_typed_parse_error() {
    let circuit = iscas85::generate(Benchmark::C432);
    let text = bench_format::write(&circuit);
    // Cut just past the last '(' so the final statement is unterminated —
    // a fixed byte count could land on a clean statement boundary.
    let cut_at = text.rfind('(').expect("parenthesized statement") + 1;
    let plan: FaultPlan = format!("truncate-bench@{cut_at}").parse().expect("plan");
    let cut = plan.apply_to_text(&text);
    assert!(cut.len() <= cut_at);
    assert_eq!(plan.fired(), vec![1]);
    let err = bench_format::parse("c432", cut).expect_err("truncated text must not parse");
    let core: CoreError = err.into();
    assert_eq!(core.classify(), ErrorClass::Parse);
}

#[test]
fn malformed_plan_specs_are_typed_config_errors() {
    for spec in [
        "",
        "bogus@1",
        "nan-path",
        "nan-path-random@200",
        "nan-cell@5",
    ] {
        let err = spec.parse::<FaultPlan>().expect_err(spec);
        assert_eq!(err.classify(), ErrorClass::Config, "{spec}");
        assert!(err.to_string().contains("fault-plan"), "{spec}: {err}");
    }
}

#[test]
fn untargeted_plan_leaves_the_report_bit_identical() {
    let free = run(Benchmark::C432, 1, None).expect("fault-free");
    // Index far beyond the enumeration: the plan is armed but never fires.
    let noop = run(Benchmark::C432, 1, Some(plan("nan-path@999999"))).expect("no-op plan");
    assert!(noop.degraded.is_empty());
    assert_eq!(noop.num_paths, free.num_paths);
    assert_eq!(kernel_bits(&free), kernel_bits(&noop));
    assert_eq!(free.sigma_c.to_bits(), noop.sigma_c.to_bits());
}

#[test]
fn fire_counters_record_each_injection() {
    let p = plan("nan-path@1,3");
    let _ = run(Benchmark::C432, 1, Some(Arc::clone(&p))).expect("degraded run");
    // One fault clause, fired once per targeted path.
    assert_eq!(p.fired(), vec![2]);
}

#[test]
fn eco_applies_honour_the_fault_plan_like_a_fresh_run() {
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let resize = format!("resize {} 2.0\n", circuit.gates()[40].name);
    // (plan, script, paths the fresh run quarantines). g72 lies on the
    // deterministic critical path, so that apply recomputes σ_C through
    // the store whose base run armed the poison: it must start clean.
    let cases = [
        ("nan-path@1", resize.as_str(), 1),
        ("panic-path@1", resize.as_str(), 1),
        ("zero-variance@0", resize.as_str(), 1),
        ("poison-cache-shard@7", "resize g72 1.3\n", 0),
    ];
    for (spec, text, degraded) in cases {
        let script = EcoScript::parse(text).expect("script");
        let mut edited = circuit.clone();
        apply_edits(&mut edited, &script).expect("edit");
        let mut config = SstaConfig::date05().with_confidence(C);
        config.faults = Some(plan(spec));
        let engine = SstaEngine::new(config);
        let mut inc = IncrementalEngine::new(engine.clone(), circuit.clone(), placement.clone())
            .expect("faulted base run completes");
        let eco = inc
            .apply(&script)
            .unwrap_or_else(|e| panic!("{spec}: faulted apply completes, got {e}"));
        let fresh = engine.run(&edited, &placement).expect("faulted fresh run");
        assert_eq!(fresh.degraded.len(), degraded, "{spec}");
        assert_eq!(
            deterministic_report(&eco.report, usize::MAX),
            deterministic_report(&fresh, usize::MAX),
            "{spec}"
        );
    }
}
