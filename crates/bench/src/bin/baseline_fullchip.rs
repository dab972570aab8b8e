//! **Baseline comparison**: path-based SSTA (the paper's approach) vs. a
//! full-chip Monte-Carlo analysis (the competing style of the paper's
//! refs [2–9], here done exactly by brute force).
//!
//! Full-chip MC takes the max over *all* paths with full correlation;
//! path-based approximates it from the near-critical set. Their 3σ
//! agreement measures how well the confidence window `C` covers the
//! probabilistically relevant paths.
//!
//! ```text
//! cargo run -p statim-bench --bin baseline_fullchip --release
//! ```

use statim_bench::runner::run_benchmark;
use statim_core::characterize::characterize_placed;
use statim_core::monte_carlo::mc_circuit_distribution;
use statim_netlist::generators::iscas85::Benchmark;
use statim_process::{Technology, Variations};
use statim_stats::tabulate::format_table;
use statim_stats::Marginal;

fn main() {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let header = [
        "circuit",
        "path-based 3σ (ps)",
        "full-chip MC 3σ (ps)",
        "gap %",
        "paths analyzed",
    ];
    let mut rows = Vec::new();
    for bench in [
        Benchmark::C432,
        Benchmark::C499,
        Benchmark::C880,
        Benchmark::C1355,
        Benchmark::C1908,
        Benchmark::C7552,
    ] {
        eprintln!("running {bench}...");
        let run = run_benchmark(bench);
        let timing =
            characterize_placed(&run.circuit, &tech, &run.placement).expect("characterize");
        let mc = mc_circuit_distribution(
            &run.circuit,
            &timing,
            &run.placement,
            &tech,
            &vars,
            &statim_core::LayerModel::date05(),
            Marginal::Gaussian,
            20_000,
            150,
            777,
            0,
        )
        .expect("full-chip MC");
        let path_3s = run.report.critical().analysis.confidence_point;
        let chip_3s = mc.sigma_point(3.0);
        rows.push(vec![
            bench.name().to_string(),
            format!("{:.3}", path_3s * 1e12),
            format!("{:.3}", chip_3s * 1e12),
            format!("{:+.2}", (path_3s - chip_3s) / chip_3s * 100.0),
            run.report.num_paths.to_string(),
        ]);
    }
    println!("== Path-based SSTA vs full-chip Monte-Carlo (20k samples) ==");
    println!("{}", format_table(&header, &rows));
    println!(
        "the gap is small and negative where the near-critical window covers\n\
         the relevant paths — the premise of path-based analysis."
    );
}
