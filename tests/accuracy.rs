//! Cross-crate accuracy tests: the analytic machinery against the exact
//! non-linear Monte-Carlo model, and the QUALITY-discretization
//! convergence study of the paper's §4.

use statim::core::analyze::{analyze_path, AnalysisSettings};
use statim::core::characterize::characterize_placed;
use statim::core::engine::{SstaConfig, SstaEngine};
use statim::core::longest_path::{critical_path, topo_labels};
use statim::core::monte_carlo::mc_path_distribution;
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Placement, PlacementStyle};
use statim::process::Technology;
use statim::stats::Marginal;

#[test]
fn analytic_matches_monte_carlo_on_c499() {
    let circuit = iscas85::generate(Benchmark::C499);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let tech = Technology::cmos130();
    let timing = characterize_placed(&circuit, &tech, &placement).expect("characterize");
    let labels = topo_labels(&circuit, &timing).expect("labels");
    let path = critical_path(&circuit, &timing, &labels).expect("critical path");
    let settings = AnalysisSettings::date05();
    let analytic = analyze_path(&path, &timing, &placement, &tech, &settings).expect("analyze");
    let mc = mc_path_distribution(
        &path,
        &timing,
        &placement,
        &tech,
        &settings.vars,
        &settings.layers,
        Marginal::Gaussian,
        15_000,
        100,
        99,
        0,
    )
    .expect("mc");
    let rel = |a: f64, b: f64| (a - b).abs() / b;
    assert!(rel(analytic.mean, mc.mean) < 0.01);
    assert!(rel(analytic.sigma, mc.sigma) < 0.08);
    assert!(rel(analytic.confidence_point, mc.sigma_point(3.0)) < 0.02);
    // Full-distribution agreement, not just moments: the KS distance
    // between the analytic PDF and the exact empirical one stays small
    // (sampling noise at 15k samples is ~0.011 alone).
    let ks = analytic.total_pdf.ks_distance(&mc.pdf);
    assert!(ks < 0.05, "KS distance {ks}");
}

#[test]
fn quality_discretization_converges() {
    // The paper's §4 trade-off study: the 3σ point converges
    // monotonically (in error) toward the finest grid.
    let circuit = iscas85::generate(Benchmark::C499);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let point = |qi: usize, qe: usize| {
        let mut config = SstaConfig::date05();
        config.quality_intra = qi;
        config.quality_inter = qe;
        SstaEngine::new(config)
            .run(&circuit, &placement)
            .expect("flow")
            .critical()
            .analysis
            .confidence_point
    };
    let finest = point(300, 100);
    let coarse = (point(12, 6) - finest).abs() / finest;
    let medium = (point(50, 25) - finest).abs() / finest;
    let paper_choice = (point(100, 50) - finest).abs() / finest;
    assert!(coarse > medium, "coarse err {coarse} vs medium {medium}");
    assert!(
        medium > paper_choice,
        "medium {medium} vs (100,50) {paper_choice}"
    );
    // The paper's operating point is accurate to well under a percent.
    assert!(paper_choice < 0.01, "(100,50) error {paper_choice}");
}

#[test]
fn sensitivity_table_feeds_variance_ordering() {
    // Cross-crate sanity: Leff dominates the per-gate sensitivities
    // (process crate), so it must also dominate the path-level intra
    // variance (core crate). Verify by zeroing Leff's σ.
    use statim::process::{Param, Variations};
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let full = SstaEngine::new(SstaConfig::date05())
        .run(&circuit, &placement)
        .expect("full");
    let mut config = SstaConfig::date05();
    let mut vars = Variations::date05();
    vars.sigma.set(Param::Leff, 1e-15); // effectively zero
    config.vars = vars;
    let no_leff = SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect("no leff");
    let s_full = full.critical().analysis.sigma;
    let s_cut = no_leff.critical().analysis.sigma;
    assert!(
        s_cut < 0.6 * s_full,
        "removing Leff must collapse most of the variance: {s_cut} vs {s_full}"
    );
}
