//! Integration tests for the extension modules working together at the
//! facade level: baselines, bounds, yield and slack all consuming one
//! engine run.

use statim::core::block_based::block_based_sta;
use statim::core::bounds::delay_cdf_bounds;
use statim::core::characterize::characterize_placed;
use statim::core::engine::{SstaConfig, SstaEngine};
use statim::core::longest_path::topo_labels;
use statim::core::slack::slack_report;
use statim::core::timing_yield::{independent_yield, single_path_yield};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Placement, PlacementStyle};
use statim::process::{Technology, Variations};

#[test]
fn one_run_feeds_every_downstream_analysis() {
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let report = SstaEngine::new(SstaConfig::date05().with_confidence(0.5))
        .run(&circuit, &placement)
        .expect("engine");
    let timing = characterize_placed(&circuit, &tech, &placement).expect("characterize");

    // Slack at the worst-case period: everything meets timing (by a lot).
    let labels = topo_labels(&circuit, &timing).expect("labels");
    let slack = slack_report(&circuit, &timing, &labels, report.worst_case_delay).expect("slack");
    assert!(slack.meets_timing());
    // At the deterministic delay the critical gates are at zero slack.
    let at_d = slack_report(&circuit, &timing, &labels, report.det_critical_delay).expect("slack");
    assert!(at_d.worst().1.abs() < 1e-9 * report.det_critical_delay);

    // Yield: the 3σ point carries ≈Φ(3) single-path yield and the
    // independent bound is below it.
    let t3 = report.critical().analysis.confidence_point;
    let y_single = single_path_yield(&report, t3);
    let y_indep = independent_yield(&report.paths, t3);
    assert!(y_single > 0.99);
    assert!(y_indep <= y_single + 1e-12);

    // Bounds: at the 3σ point both bounds are high and ordered.
    let analyses: Vec<_> = report.paths.iter().map(|p| p.analysis.clone()).collect();
    let b = delay_cdf_bounds(&analyses, t3);
    assert!(b.lower <= b.upper);
    assert!(b.upper > 0.99);
    // And the independent yield equals neither bound in general but sits
    // within [lower, upper] too (independence is one admissible copula).
    assert!(y_indep >= b.lower - 1e-9 && y_indep <= b.upper + 1e-9);

    // Block-based baseline: underestimates the path-based σ.
    let block = block_based_sta(&circuit, &timing, &vars, 80).expect("block-based");
    assert!(block.circuit_pdf.std_dev() < report.critical().analysis.sigma);
}

#[test]
fn numerical_intra_and_marginals_through_the_engine() {
    use statim::core::analyze::IntraModel;
    use statim::stats::Marginal;
    let circuit = iscas85::generate(Benchmark::C499);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let gaussian = SstaEngine::new(SstaConfig::date05())
        .run(&circuit, &placement)
        .expect("gaussian run");
    let mut config = SstaConfig::date05();
    config.marginal = Marginal::Uniform;
    config.intra_model = IntraModel::Numerical;
    let uniform = SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect("uniform run");
    let g = &gaussian.critical().analysis;
    let u = &uniform.critical().analysis;
    // Same variance budget ⇒ same σ scale; bounded-support inputs trim
    // the extreme tail slightly.
    assert!((g.sigma - u.sigma).abs() / g.sigma < 0.05);
    assert!((g.confidence_point - u.confidence_point).abs() / g.confidence_point < 0.02);
    // The uniform-input total PDF has lighter tails (negative excess
    // kurtosis contribution from the inter part).
    assert!(u.total_pdf.excess_kurtosis() < g.total_pdf.excess_kurtosis() + 0.05);
}

#[test]
fn stage_times_and_report_rendering() {
    let circuit = iscas85::generate(Benchmark::C880);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let report = SstaEngine::new(SstaConfig::date05().with_confidence(0.3))
        .run(&circuit, &placement)
        .expect("engine");
    let st = &report.profile;
    assert!(st.characterize.wall >= 0.0 && st.analyze.wall > 0.0);
    assert!(st.analyze.threads >= 1);
    assert!(st.analyze.utilization > 0.0 && st.analyze.utilization <= 1.0);
    let text = statim::core::report::summary(&report);
    assert!(text.contains("c880"));
    let csv = statim::core::report::to_csv(&report);
    assert_eq!(csv.lines().count(), report.num_paths + 1);
}
