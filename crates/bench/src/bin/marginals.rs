//! **Extension experiment**: non-Gaussian input distributions. The paper
//! notes that competing methods are "restricted to a certain kind of
//! input PDF (usually Gaussian)"; the layered numerical machinery here is
//! not. This experiment re-runs c432's critical-path analysis with
//! Gaussian, uniform and triangular parameter marginals (same mean and σ)
//! and validates each against the exact Monte-Carlo.
//!
//! ```text
//! cargo run -p statim-bench --bin marginals --release
//! ```

use statim_core::analyze::{analyze_path, AnalysisSettings, IntraModel};
use statim_core::characterize::characterize_placed;
use statim_core::longest_path::{critical_path, topo_labels};
use statim_core::monte_carlo::mc_path_distribution;
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::{Placement, PlacementStyle};
use statim_process::Technology;
use statim_stats::tabulate::format_table;
use statim_stats::Marginal;

fn main() {
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let tech = Technology::cmos130();
    let timing = characterize_placed(&circuit, &tech, &placement).expect("characterize");
    let labels = topo_labels(&circuit, &timing).expect("labels");
    let path = critical_path(&circuit, &timing, &labels).expect("critical path");

    let header = [
        "marginal",
        "mean (ps)",
        "σ (ps)",
        "3σ point (ps)",
        "MC 3σ (ps)",
        "err %",
    ];
    let mut rows = Vec::new();
    for marginal in [Marginal::Gaussian, Marginal::Uniform, Marginal::Triangular] {
        let mut settings = AnalysisSettings::date05();
        settings.marginal = marginal;
        settings.intra_model = IntraModel::Numerical;
        let a = analyze_path(&path, &timing, &placement, &tech, &settings).expect("analyze");
        let mc = mc_path_distribution(
            &path,
            &timing,
            &placement,
            &tech,
            &settings.vars,
            &settings.layers,
            marginal,
            40_000,
            150,
            31,
            0,
        )
        .expect("MC");
        let err = (a.confidence_point - mc.sigma_point(3.0)) / mc.sigma_point(3.0) * 100.0;
        rows.push(vec![
            format!("{marginal:?}"),
            format!("{:.3}", a.mean * 1e12),
            format!("{:.3}", a.sigma * 1e12),
            format!("{:.3}", a.confidence_point * 1e12),
            format!("{:.3}", mc.sigma_point(3.0) * 1e12),
            format!("{err:+.2}"),
        ]);
    }
    println!("== c432 critical path under different input marginals (numerical intra) ==");
    println!("{}", format_table(&header, &rows));
    println!("σ is marginal-independent (eq. 14); tails differ slightly and the");
    println!("numerical machinery tracks the exact Monte-Carlo for every shape.");
}
