//! Common run helpers for the regeneration binaries.

use crate::paper;
use statim_core::engine::{SstaConfig, SstaEngine, SstaReport};
use statim_core::CoreError;
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::{Circuit, Placement, PlacementStyle};

/// A benchmark run: the generated circuit, its placement and the report.
#[derive(Debug)]
pub struct BenchmarkRun {
    /// The circuit.
    pub circuit: Circuit,
    /// Its placement.
    pub placement: Placement,
    /// The SSTA report.
    pub report: SstaReport,
    /// The confidence constant actually used (may be lower than requested
    /// if the enumeration budget was hit, as the paper did on c6288).
    pub confidence_used: f64,
}

/// Analysis cap for the regeneration binaries: enumerating more paths
/// than this triggers the same response the paper used on c6288 —
/// shrink `C` until the count is tractable.
pub const PATH_CAP: usize = 20_000;

/// Runs `bench` at the paper's per-circuit confidence constant, shrinking
/// `C` (×0.2 per step) whenever the enumeration exceeds [`PATH_CAP`],
/// mirroring the paper's c6288 procedure.
///
/// # Panics
///
/// Panics if the flow fails for a reason other than the path budget —
/// regeneration binaries want a loud failure, not a partial table.
pub fn run_benchmark(bench: Benchmark) -> BenchmarkRun {
    let row = paper::table2_row(bench);
    run_benchmark_with(bench, row.confidence, SstaConfig::date05())
}

/// [`run_benchmark`] with an explicit starting confidence and base
/// configuration.
///
/// # Panics
///
/// Panics on non-budget engine failures.
pub fn run_benchmark_with(bench: Benchmark, confidence: f64, base: SstaConfig) -> BenchmarkRun {
    let base = config_with_fault_plan_from_args(base);
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut c = confidence;
    loop {
        let mut config = base.clone().with_confidence(c);
        config.max_paths = PATH_CAP;
        match SstaEngine::new(config).run(&circuit, &placement) {
            Ok(report) => {
                return BenchmarkRun {
                    circuit,
                    placement,
                    report,
                    confidence_used: c,
                };
            }
            Err(CoreError::PathBudgetExceeded { .. }) if c > 1e-7 => {
                c *= 0.2;
            }
            Err(e) => panic!("{bench}: SSTA flow failed: {e}"),
        }
    }
}

/// Runs `benches` concurrently on the worker pool, one benchmark per
/// worker, returning results in input order.
///
/// Each inner engine run is pinned to a single thread — the sweep itself
/// is the parallel axis, and nesting pools would oversubscribe the
/// cores. Per-benchmark results are identical to a serial sweep.
///
/// # Panics
///
/// Panics on non-budget engine failures, like [`run_benchmark`].
pub fn run_benchmarks_concurrent(
    benches: &[Benchmark],
    threads: Option<usize>,
) -> Vec<BenchmarkRun> {
    let workers = statim_core::parallel::effective_threads(threads);
    statim_core::parallel::parallel_map(benches, workers, |_, &bench| {
        let row = paper::table2_row(bench);
        let mut base = SstaConfig::date05();
        base.threads = Some(1);
        run_benchmark_with(bench, row.confidence, base)
    })
}

/// Reads a `--threads <n>` flag from the process arguments through the
/// option table (0 ⇒ all cores); `None` when absent.
///
/// # Panics
///
/// On a missing or malformed count, like [`config_with_fault_plan_from_args`].
pub fn threads_from_args() -> Option<usize> {
    let mut config = SstaConfig::date05();
    flag_from_args(&mut config, "threads");
    config.threads
}

/// Installs the `--fault-plan` flag's plan (if any) on a config, through
/// the option table.
///
/// # Panics
///
/// On a malformed plan, and on any plan in a build without the
/// fault-injection feature, which could not honour it.
pub fn config_with_fault_plan_from_args(mut config: SstaConfig) -> SstaConfig {
    flag_from_args(&mut config, "fault-plan");
    config
}

/// Applies the process argument `--<key> <value>`, when present, through
/// [`SstaConfig::set_option`]. A regeneration binary wants a loud
/// failure, not a silently different run, so a bad value panics.
fn flag_from_args(config: &mut SstaConfig, key: &str) {
    let args: Vec<String> = std::env::args().collect();
    let flag = format!("--{key}");
    let Some(i) = args.iter().position(|a| *a == flag) else {
        return;
    };
    let value = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("flag {flag} needs a value"));
    if let Err(e) = config.set_option(key, value) {
        panic!("{flag}: {e}");
    }
}

/// Formats seconds as picoseconds with 3 decimals.
pub fn ps(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_benchmark_c432_smoke() {
        let run = run_benchmark(Benchmark::C432);
        assert_eq!(run.report.gate_count, 160);
        assert!(run.report.num_paths >= 1);
        assert!(run.confidence_used <= 0.05);
    }

    #[test]
    fn ps_formatting() {
        assert_eq!(ps(266.771e-12), "266.771");
        assert_eq!(ps(0.0), "0.000");
    }

    #[test]
    fn concurrent_sweep_matches_serial_order_and_results() {
        let benches = [Benchmark::C432, Benchmark::C499];
        let runs = run_benchmarks_concurrent(&benches, Some(2));
        assert_eq!(runs.len(), 2);
        for (bench, run) in benches.iter().zip(&runs) {
            assert_eq!(run.report.circuit, bench.name());
            let serial = run_benchmark(*bench);
            assert_eq!(serial.report.num_paths, run.report.num_paths);
            assert_eq!(
                serial.report.sigma_c.to_bits(),
                run.report.sigma_c.to_bits()
            );
        }
    }
}
