//! **Extension experiment**: path criticality probabilities. The paper
//! ranks paths by a 3σ confidence point; the underlying question is
//! "which path will actually limit the die?". This experiment estimates
//! P(path is the slowest) by correlated Monte-Carlo over the
//! near-critical set and compares the two orderings, plus the yield curve
//! the PDFs imply.
//!
//! ```text
//! cargo run -p statim-bench --bin criticality --release
//! ```

use statim_bench::runner::run_benchmark_with;
use statim_core::characterize::characterize_placed;
use statim_core::engine::SstaConfig;
use statim_core::monte_carlo::mc_path_criticality;
use statim_core::timing_yield::{period_for_yield, yield_curve};
use statim_netlist::generators::iscas85::Benchmark;
use statim_process::{Technology, Variations};
use statim_stats::tabulate::format_table;

fn main() {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    for bench in [Benchmark::C432, Benchmark::C1355] {
        let run = run_benchmark_with(bench, 0.3, SstaConfig::date05());
        let timing =
            characterize_placed(&run.circuit, &tech, &run.placement).expect("characterize");
        let paths: Vec<_> = run
            .report
            .paths
            .iter()
            .map(|p| p.analysis.gates.clone())
            .collect();
        let crit = mc_path_criticality(
            &run.circuit,
            &paths,
            &timing,
            &run.placement,
            &tech,
            &vars,
            &statim_core::LayerModel::date05(),
            20_000,
            1234,
            0,
        )
        .expect("criticality");
        println!(
            "== {} — criticality of the top near-critical paths ({} analyzed) ==",
            bench.name(),
            paths.len()
        );
        let header = ["prob rank", "det rank", "3σ point (ps)", "P(critical) %"];
        let mut rows = Vec::new();
        for (i, rp) in run.report.paths.iter().take(8).enumerate() {
            rows.push(vec![
                rp.prob_rank.to_string(),
                rp.det_rank.to_string(),
                format!("{:.3}", rp.analysis.confidence_point * 1e12),
                format!("{:.2}", crit[i] * 100.0),
            ]);
        }
        println!("{}", format_table(&header, &rows));
        let covered: f64 = crit.iter().take(8).sum();
        println!(
            "top 8 paths cover {:.1}% of the criticality mass",
            covered * 100.0
        );
        // Yield analysis.
        let t99 = period_for_yield(&run.report, 0.99).expect("valid target");
        println!(
            "period for 99% yield (independent-path bound): {:.1} ps \
             (worst-case corner would demand {:.1} ps)",
            t99 * 1e12,
            run.report.worst_case_delay * 1e12
        );
        for pt in yield_curve(&run.report, 6) {
            println!(
                "  T = {:7.1} ps: yield in [{:.4}, {:.4}]",
                pt.period * 1e12,
                pt.lower,
                pt.upper
            );
        }
        println!();
    }
}
