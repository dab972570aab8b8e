//! statim's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <signoff-cold|eco-session|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` they are the per-layer set ([`PER_LAYER`]), measured by
//! spans the benchmark records around calls into each layer. The exit
//! code is 0 only when every op's output was correct.
//!
//! Every end-to-end timing is process CPU time ([`measure::cpu_seconds`]):
//! with one engine thread and one client, an op's CPU time is its latency
//! on an otherwise idle core, and it does not move when other processes
//! or the host take the CPU away; [`measure::Speed`] scales it to a
//! core of typical speed. A timed phase runs for `--seconds` of scaled CPU
//! time ([`measure::Budget`]).

mod eco;
mod measure;
mod serve;
mod signoff;
mod trace;

use measure::{median, percentile, tail, Quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Engine threads per run: one, so an op's CPU time is its latency and
/// its work does not depend on how two threads race for the cache.
pub const ENGINE_THREADS: usize = 1;
/// The daemon's connection workers (serve-mixed).
pub const DAEMON_WORKERS: usize = 2;
/// Closed-loop clients (serve-mixed): one, so the process's CPU time
/// during a round trip is that job's alone.
pub const CLIENTS: usize = 1;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sweep_s", "s"),
    ("items_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("inter.computes", "count"),
    ("inter.busy_s", "s"),
    ("intra.computes", "count"),
    ("intra.busy_s", "s"),
    ("convolve.calls", "count"),
    ("convolve.busy_s", "s"),
    ("analyze.coeffs_busy_s", "s"),
    ("analyze.worst_path_busy_s", "s"),
    ("analyze.wall_s", "s"),
    ("analyze.utilization", "ratio"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_busy_s", "s"),
    ("cache.entries", "count"),
    ("cache.dup_misses", "count"),
    ("characterize.busy_s", "s"),
    ("longest_path.busy_s", "s"),
    ("longest_path.sweeps", "count"),
    ("enumerate.busy_s", "s"),
    ("enumerate.paths", "count"),
    ("graph.build_s", "s"),
    ("rank.busy_s", "s"),
    ("worst_case.busy_s", "s"),
    ("incremental.apply_edits_s", "s"),
    ("incremental.dirty_gates", "count"),
    ("incremental.cone_gates", "count"),
    ("incremental.reused_paths", "count"),
    ("incremental.recomputed_paths", "count"),
    ("incremental.reuse_ratio", "ratio"),
    ("sequential.run_s", "s"),
    ("sequential.checks", "count"),
    ("sequential.clock_tree_s", "s"),
    ("sequential.solve_s", "s"),
    ("sequential.checks_s", "s"),
    ("daemon.submit_ack_ms", "ms"),
    ("daemon.result_ms", "ms"),
    ("daemon.result_bytes", "bytes"),
    ("daemon.shed", "count"),
    ("daemon.reaped", "count"),
    ("service.hit_ms", "ms"),
    ("service.wait_ms.analyze", "ms"),
    ("service.wait_ms.edit", "ms"),
    ("service.wait_ms.seq", "ms"),
    ("service.run_ms.analyze", "ms"),
    ("service.run_ms.edit", "ms"),
    ("service.run_ms.seq", "ms"),
    ("service.queue_ms.analyze", "ms"),
    ("service.queue_ms.edit", "ms"),
    ("service.queue_ms.seq", "ms"),
    ("service.throttled", "count"),
    ("service.expired", "count"),
    ("store.append_ms", "ms"),
    ("store.open_s", "s"),
    ("store.log_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

pub const WORKLOADS: &[&str] = &["signoff-cold", "eco-session", "serve-mixed"];

/// Command-line parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Toy sizes for the self-tests (c432, s27, 5 edits, 10 jobs).
    pub toy: bool,
}

/// Where traces and the daemon's store go: inside the benchmark's own
/// directory, so a run writes nothing outside its checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The timed ops of an untraced run. Every time is process CPU time
/// scaled to a core of typical speed ([`measure::Speed::scaled`]).
#[derive(Debug, Default)]
pub struct OpLog {
    pub latencies_ms: Vec<f64>,
    /// Analyzed paths plus sequential checks in the ops' outputs.
    pub items: u64,
    /// CPU seconds of the timed ops.
    pub cpu: f64,
    /// Ops per sweep, a fixed block of consecutive ops.
    pub sweep_len: usize,
    /// Peak resident set when the timed phase ended, MiB.
    pub peak_rss_mb: Option<f64>,
    /// Mean CPU milliseconds of the run's core-speed probes
    /// ([`measure::Speed`]).
    pub probe_ms: f64,
}

/// Each whole sweep of `len` consecutive ops (a trailing partial sweep
/// is dropped): its total in seconds and its median op in milliseconds.
fn sweep_stats(latencies_ms: &[f64], len: usize) -> (Vec<f64>, Vec<f64>) {
    latencies_ms
        .chunks_exact(len.max(1))
        .map(|c| (c.iter().sum::<f64>() / 1e3, median(c)))
        .unzip()
}

/// What a workload run returns to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Scaled CPU seconds of each repeated set-up.
    pub setup: Vec<f64>,
    pub ops: OpLog,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Layers>,
}

/// Per-layer metric values by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Records the tracing overhead, writes the spans out and prints the
    /// overhead line.
    pub fn finish_trace(
        &mut self,
        p: &Params,
        workload: &str,
        spans: &[trace::Span],
        traced_cpu: f64,
        untraced_cpu: f64,
    ) {
        self.set("trace.overhead_s", traced_cpu - untraced_cpu);
        self.set("trace.spans", spans.len() as f64);
        println!(
            "{workload}: tracing overhead {:+.4} CPU s (traced {traced_cpu:.4} s, untraced \
             {untraced_cpu:.4} s, {} spans)",
            traced_cpu - untraced_cpu,
            spans.len()
        );
        let dir = out_dir();
        let path = dir.join(format!("{workload}-seed{}.spans.jsonl", p.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::render(spans)))
        {
            Ok(()) => println!("{workload}: spans written to {}", path.display()),
            Err(e) => eprintln!("{workload}: could not write spans: {e}"),
        }
    }
}

fn end_to_end(o: &Outcome) -> Result<Vec<(&'static str, f64)>, String> {
    let probe = o.ops.probe_ms;
    if !(probe.is_finite() && probe > 0.0) {
        return Err("the run measured no core speed".into());
    }
    println!(
        "core speed: mean probe {probe:.4} ms against {} ms typical; each op is scaled \
         by the probes around it",
        measure::Speed::NOMINAL_MS
    );
    let lat = &o.ops.latencies_ms;
    let need = |q: Option<Quantile>, what: &str| {
        q.ok_or_else(|| format!("{} ops are too few for {what}", lat.len()))
    };
    // The pooled median must be reportable; the value reported is the
    // median over sweeps of each sweep's median op, which does not jump
    // between the two circuits that straddle signoff-cold's pooled
    // middle.
    need(percentile(lat, 0.5), "a median")?;
    let tail = need(tail(lat, 0.99), "a tail percentile")?;
    let (sweeps, sweep_p50s) = sweep_stats(lat, o.ops.sweep_len);
    if o.ops.cpu <= 0.0 || sweeps.is_empty() || o.setup.is_empty() {
        return Err("the run measured nothing".into());
    }
    let p50 = median(&sweep_p50s);
    println!(
        "op latency (scaled CPU ms): p50 {p50:.4} (median of {} sweep medians, n={}), tail {tail}",
        sweeps.len(),
        lat.len()
    );
    let rss = o
        .ops
        .peak_rss_mb
        .ok_or("peak RSS is unavailable (no /proc/self/status)")?;
    Ok(vec![
        ("setup_s", median(&o.setup)),
        ("peak_rss_mb", rss),
        ("sweep_s", median(&sweeps)),
        ("items_per_s", o.ops.items as f64 / o.ops.cpu),
        ("jobs_per_s", lat.len() as f64 / o.ops.cpu),
        ("job_p50_ms", p50),
        ("job_tail_ms", tail.value),
    ])
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{m}}}}}"
    )
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn invalid(flag: &str, value: &str) -> ! {
    usage(&format!("invalid value `{value}` for {flag}"))
}

fn parse_args() -> (String, Params) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut p = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("flag {flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => p.seed = value.parse().unwrap_or_else(|_| invalid(flag, value)),
            "--seconds" => p.seconds = value.parse().unwrap_or_else(|_| invalid(flag, value)),
            "--trace" => {
                p.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => invalid(flag, value),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !(p.seconds.is_finite() && p.seconds > 0.0) {
        usage("--seconds must be positive");
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    (workload, p)
}

fn main() {
    let (workload, p) = parse_args();
    println!(
        "{workload}: nproc {}, engine threads {ENGINE_THREADS}, daemon workers \
         {DAEMON_WORKERS}, clients {CLIENTS}, seed {}, {} CPU s, trace {}",
        statim_core::parallel::available_threads(),
        p.seed,
        p.seconds,
        u8::from(p.trace)
    );
    let outcome = match workload.as_str() {
        "signoff-cold" => signoff::run(&p),
        "eco-session" => eco::run(&p),
        _ => serve::run(&p),
    };
    let correct = outcome.failed == 0;
    println!(
        "{workload}: {} ops attempted, {} failed (failed_ratio {})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let metrics: Vec<(&str, f64, &str)> = if p.trace {
        let layers = outcome.layers.as_ref().expect("traced runs return layers");
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, layers.get(n), u))
            .collect()
    } else {
        let values = end_to_end(&outcome).unwrap_or_else(|e| {
            eprintln!("error: {workload}: {e}");
            std::process::exit(1);
        });
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), (vn, v))| {
                debug_assert_eq!(n, vn);
                (n, v, u)
            })
            .collect()
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("error: {workload}: metric {name} is not finite");
        std::process::exit(1);
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    println!(
        "{}",
        result_json(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(seed: u64, trace: bool) -> Params {
        Params {
            seed,
            seconds: 1.0,
            trace,
            toy: true,
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote"))
            .collect();
        let expected: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 3, 0, &[("a", 1.5, "s"), ("b", 2.0, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn sweeps_sum_consecutive_ops() {
        let (totals, medians) = sweep_stats(&[1000.0, 2000.0, 4000.0, 500.0, 8000.0], 2);
        assert_eq!(totals, [3.0, 4.5]);
        assert_eq!(medians, [1500.0, 2250.0]);
    }

    #[test]
    fn smoke_signoff_cold() {
        let o = signoff::run(&toy(3, false));
        assert_eq!(o.failed, 0);
        assert!(o.ops.items > 0 && o.ops.latencies_ms.len() == 2);
        let o = signoff::run(&toy(3, true));
        assert_eq!(o.failed, 0);
        let layers = o.layers.expect("traced");
        assert!(layers.get("inter.computes") > 0.0);
        assert!(layers.get("sequential.checks") > 0.0);
        assert!(layers.get("cache.lookup_busy_s") > 0.0);
    }

    #[test]
    fn smoke_eco_session() {
        let o = eco::run(&toy(4, false));
        assert_eq!(o.failed, 0);
        assert_eq!(o.ops.latencies_ms.len(), 5);
        let o = eco::run(&toy(4, true));
        assert_eq!(o.failed, 0);
        let layers = o.layers.expect("traced");
        assert!(
            layers.get("incremental.reused_paths") + layers.get("incremental.recomputed_paths")
                > 0.0
        );
    }

    #[test]
    fn smoke_serve_mixed() {
        let o = serve::run(&toy(5, false));
        assert_eq!(o.failed, 0);
        assert_eq!(o.ops.latencies_ms.len(), 10);
        let o = serve::run(&toy(5, true));
        assert_eq!(o.failed, 0);
        let layers = o.layers.expect("traced");
        assert!(layers.get("daemon.result_bytes") > 0.0);
        assert!(layers.get("store.log_bytes") > 0.0);
    }
}
