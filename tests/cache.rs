//! Integration tests of the analysis-kernel cache: property-style
//! bit-identity of hits against fresh recomputes, and counter sanity on
//! a real benchmark run (the bushy c499 path set, where hit rates are
//! high by construction).

use proptest::prelude::*;
use statim::core::analyze::AnalysisSettings;
use statim::core::cache::{AnalysisCache, KernelStore};
use statim::core::characterize::characterize_placed;
use statim::core::engine::{RunContext, SstaConfig, SstaEngine, SstaReport};
use statim::core::{inter, intra};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Placement, PlacementStyle};
use statim::process::tech::AlphaBeta;
use statim::process::Technology;
use statim::stats::Pdf;
use std::sync::Arc;

fn assert_bits_identical(a: &Pdf, b: &Pdf, label: &str) {
    assert_eq!(
        a.grid().lo().to_bits(),
        b.grid().lo().to_bits(),
        "{label}: grid lo"
    );
    assert_eq!(
        a.grid().step().to_bits(),
        b.grid().step().to_bits(),
        "{label}: grid step"
    );
    assert_eq!(a.density().len(), b.density().len(), "{label}: cells");
    for (i, (x, y)) in a.density().iter().zip(b.density()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: density[{i}]");
    }
}

/// Small discretizations keep the property-test kernels fast; the cache
/// logic is identical at any quality.
fn fast_settings() -> AnalysisSettings {
    let mut s = AnalysisSettings::date05();
    s.quality_intra = 24;
    s.quality_inter = 12;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A cached inter-die PDF hit is bit-for-bit the PDF a fresh
    // recompute produces, for arbitrary summed (A, B) coefficients.
    #[test]
    fn inter_hit_bits_equal_fresh_recompute(
        alpha_scale in 0.5..40.0f64,
        beta_scale in 0.5..40.0f64,
    ) {
        let tech = Technology::cmos130();
        let s = fast_settings();
        let one = tech.alpha_beta(
            statim::process::GateKind::Nand(2),
            &statim::process::Load::fanout(2),
        );
        let ab = AlphaBeta {
            alpha: one.alpha * alpha_scale,
            beta: one.beta * beta_scale,
        };
        let compute = || {
            inter::inter_pdf(&ab, &tech, &s.vars, &s.layers, s.marginal, s.quality_inter)
        };
        let cache = AnalysisCache::new(&tech, &s);
        let first = cache.inter_pdf(&ab, compute).unwrap();
        let hit = cache
            .inter_pdf(&ab, || panic!("hit must not recompute"))
            .unwrap();
        let fresh = compute().unwrap();
        assert_bits_identical(&hit, &first, "hit vs first");
        assert_bits_identical(&hit, &fresh, "hit vs fresh");
    }

    // Same property for the closed-form intra-die PDF keyed by variance.
    #[test]
    fn intra_hit_bits_equal_fresh_recompute(variance in 1e-26..1e-21f64) {
        let tech = Technology::cmos130();
        let s = fast_settings();
        let compute = || intra::intra_pdf(variance, s.vars.trunc_k, s.quality_intra);
        let cache = AnalysisCache::new(&tech, &s);
        let first = cache.intra_pdf(variance, compute).unwrap();
        let hit = cache
            .intra_pdf(variance, || panic!("hit must not recompute"))
            .unwrap();
        let fresh = compute().unwrap();
        assert_bits_identical(&hit, &first, "hit vs first");
        assert_bits_identical(&hit, &fresh, "hit vs fresh");
    }
}

fn run_c499(cache: bool) -> SstaReport {
    run_c499_capped(cache, None)
}

fn run_c499_capped(cache: bool, capacity: Option<usize>) -> SstaReport {
    let circuit = iscas85::generate(Benchmark::C499);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    // A wide window pulls in hundreds of structurally similar paths
    // (where the cache earns its keep); reduced QUALITY keeps the dev
    // profile test fast without changing any cache-key collision.
    let mut config = SstaConfig::date05().with_confidence(10.0).with_cache(cache);
    config.quality_intra = 40;
    config.quality_inter = 20;
    config.cache_capacity = capacity;
    SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect("SSTA flow")
}

#[test]
fn c499_cache_counters_sane() {
    let report = run_c499(true);
    let stats = report.profile.cache.expect("cache enabled by default");
    // Per-kernel and total accounting closes.
    assert_eq!(stats.hits() + stats.misses(), stats.lookups());
    // Every closed-form path analysis does exactly one lookup per
    // kernel, so the three kernels see the same traffic.
    let inter = stats.inter_hits + stats.inter_misses;
    let intra = stats.intra_hits + stats.intra_misses;
    let corner = stats.corner_hits + stats.corner_misses;
    assert_eq!(inter, intra);
    assert_eq!(inter, corner);
    assert!(inter >= report.num_paths as u64);
    // c499's near-critical paths share structure: the cache must
    // actually hit, and hold fewer PDFs than lookups it served.
    assert!(
        stats.hit_rate() > 0.0,
        "hit rate must be positive on c499, stats: {stats:?}"
    );
    assert!(stats.inter_hits > 0, "no inter hits on c499: {stats:?}");
    assert!(stats.entries > 0);
    assert!((stats.entries as u64) < stats.lookups());
    // The corner point is computed once per run.
    assert_eq!(stats.corner_misses, 1);
}

#[test]
fn c499_bounded_cache_evicts_but_stays_bit_identical() {
    let unbounded = run_c499(true);
    let bounded = run_c499_capped(true, Some(16));

    // The tiny cap forces real second-chance evictions on c499's
    // hundreds of distinct kernels...
    let stats = bounded.profile.cache.expect("cache enabled");
    assert!(stats.evictions > 0, "cap 16 must evict, stats: {stats:?}");
    // The cap is per kernel map (inter and intra each hold ≤ 16), plus
    // the one corner point per settings fingerprint.
    assert!(
        stats.entries <= 2 * 16 + 1,
        "entries must respect the cap, stats: {stats:?}"
    );
    assert_eq!(
        run_c499(true).profile.cache.expect("cache").evictions,
        0,
        "unbounded runs never evict"
    );

    // ...and eviction is invisible in the results: every ranked path is
    // bit-for-bit the unbounded run's.
    assert_eq!(unbounded.num_paths, bounded.num_paths);
    assert_eq!(unbounded.sigma_c.to_bits(), bounded.sigma_c.to_bits());
    for (a, b) in unbounded.paths.iter().zip(&bounded.paths) {
        assert_eq!(a.prob_rank, b.prob_rank);
        assert_eq!(
            a.analysis.confidence_point.to_bits(),
            b.analysis.confidence_point.to_bits()
        );
        assert_bits_identical(&a.analysis.total_pdf, &b.analysis.total_pdf, "total pdf");
    }
}

#[test]
fn zero_cache_capacity_is_a_config_error() {
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let config = SstaConfig::date05().with_cache_capacity(Some(0));
    let err = SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect_err("capacity 0 must be rejected");
    assert!(err.to_string().contains("cache"), "{err}");
}

#[test]
fn c499_report_identical_with_cache_off() {
    let on = run_c499(true);
    let off = run_c499(false);
    assert!(off.profile.cache.is_none());
    assert_eq!(on.num_paths, off.num_paths);
    assert_eq!(on.sigma_c.to_bits(), off.sigma_c.to_bits());
    assert_eq!(
        on.worst_case_delay.to_bits(),
        off.worst_case_delay.to_bits()
    );
    for (a, b) in on.paths.iter().zip(&off.paths) {
        assert_eq!(a.prob_rank, b.prob_rank);
        assert_eq!(a.det_rank, b.det_rank);
        assert_eq!(
            a.analysis.confidence_point.to_bits(),
            b.analysis.confidence_point.to_bits()
        );
        assert_bits_identical(&a.analysis.total_pdf, &b.analysis.total_pdf, "total pdf");
    }
}

#[test]
fn repeat_inter_lookups_share_one_density() {
    let tech = Technology::cmos130();
    let s = fast_settings();
    let one = tech.alpha_beta(
        statim::process::GateKind::Nand(2),
        &statim::process::Load::fanout(2),
    );
    let ab = AlphaBeta {
        alpha: one.alpha * 7.0,
        beta: one.beta * 7.0,
    };
    let cache = AnalysisCache::new(&tech, &s);
    let first = cache
        .inter_pdf(&ab, || {
            inter::inter_pdf(&ab, &tech, &s.vars, &s.layers, s.marginal, s.quality_inter)
        })
        .unwrap();
    let hit = cache
        .inter_pdf(&ab, || panic!("hit must not recompute"))
        .unwrap();
    let again = cache
        .inter_pdf(&ab, || panic!("hit must not recompute"))
        .unwrap();
    // A hit hands back the stored density itself, not a copy of it.
    assert_eq!(hit.density().as_ptr(), first.density().as_ptr());
    assert_eq!(again.density().as_ptr(), hit.density().as_ptr());
}

#[test]
fn retained_reports_share_densities_with_the_store() {
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let config = SstaConfig::date05();
    let store = Arc::new(KernelStore::unbounded());
    let report = SstaEngine::new(config.clone())
        .run_with(
            &circuit,
            &placement,
            RunContext {
                store: Some(Arc::clone(&store)),
                supervisor: None,
            },
        )
        .expect("SSTA flow");
    let settings = AnalysisSettings::date05();
    let view = AnalysisCache::with_store(store, &config.tech, &settings);
    let timing = characterize_placed(&circuit, &config.tech, &placement).expect("characterize");
    assert!(report.num_paths > 1);
    for p in &report.paths {
        let a = &p.analysis;
        let ab = timing.path_alpha_beta(&a.gates);
        let inter = view
            .inter_pdf(&ab, || panic!("the run stored this inter PDF"))
            .unwrap();
        assert_eq!(inter.density().as_ptr(), a.inter_pdf.density().as_ptr());
        let coeffs = intra::path_coefficients(&a.gates, &timing, &placement, &settings.layers);
        let var = intra::intra_variance(&coeffs, &settings.layers, &settings.vars).unwrap();
        let intra = view
            .intra_pdf(var, || panic!("the run stored this intra PDF"))
            .unwrap();
        assert_eq!(intra.density().as_ptr(), a.intra_pdf.density().as_ptr());
    }
}
