//! Text rendering of SSTA results — the human-readable views the CLI
//! and the regeneration binaries share. Combinational reports first,
//! sequential (setup/hold) reports at the end of the module.

use crate::engine::SstaReport;
use crate::error::ErrorClass;
use crate::sequential::{CheckKind, SequentialCheck, SequentialReport};
use statim_stats::tabulate::format_table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Formats seconds as picoseconds with three decimals.
pub fn ps(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e12)
}

/// One-paragraph summary: the quantities a designer reads first.
pub fn summary(report: &SstaReport) -> String {
    let crit = report.critical();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "circuit {} — {} gates, {} near-critical paths (C = {})",
        report.circuit, report.gate_count, report.num_paths, report.confidence
    );
    let _ = writeln!(
        out,
        "  deterministic critical delay : {} ps",
        ps(report.det_critical_delay)
    );
    let _ = writeln!(
        out,
        "  worst-case (corner) delay    : {} ps",
        ps(report.worst_case_delay)
    );
    let _ = writeln!(
        out,
        "  sigma_C                      : {} ps",
        ps(report.sigma_c)
    );
    let _ = writeln!(
        out,
        "  probabilistic critical path  : mean {} ps, 3σ point {} ps ({} gates, det rank {})",
        ps(crit.analysis.mean),
        ps(crit.analysis.confidence_point),
        crit.analysis.gate_count(),
        crit.det_rank
    );
    let _ = writeln!(
        out,
        "  worst-case overestimation    : {:.2} % over the 3σ point",
        report.overestimation_pct
    );
    out
}

/// One-line kernel-cache summary: hit rate, per-kernel hit/miss counts
/// and occupancy. Empty string when the run had the cache disabled.
pub fn cache_summary(report: &SstaReport) -> String {
    let Some(stats) = report.profile.cache else {
        return String::new();
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  kernel cache                 : {:.1} % hit rate ({} hits / {} lookups), {} entries",
        stats.hit_rate() * 100.0,
        stats.hits(),
        stats.lookups(),
        stats.entries
    );
    let _ = writeln!(
        out,
        "    inter {} / {}  ·  intra {} / {}  ·  corner {} / {}  (hits / misses)",
        stats.inter_hits,
        stats.inter_misses,
        stats.intra_hits,
        stats.intra_misses,
        stats.corner_hits,
        stats.corner_misses
    );
    out
}

/// One-line quarantine summary: how many enumerated paths were degraded
/// (kernel errored or went non-finite) and why, grouped by error class.
/// Empty string for a healthy run, so fault-free output is unchanged.
pub fn degraded_summary(report: &SstaReport) -> String {
    quarantine_line(
        "degraded paths",
        report.degraded.iter().map(|d| d.class),
        report.num_paths,
    )
}

/// The quarantine line both flows print: how many work items were
/// quarantined out of all of them, with a per-class breakdown sorted by
/// class name so the line is deterministic. Empty when none were.
fn quarantine_line(label: &str, classes: impl Iterator<Item = ErrorClass>, kept: usize) -> String {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for class in classes {
        *counts.entry(class.to_string()).or_default() += 1;
    }
    let quarantined: usize = counts.values().sum();
    if quarantined == 0 {
        return String::new();
    }
    let breakdown = counts
        .iter()
        .map(|(c, n)| format!("{n} {c}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "  {label:<29}: {quarantined} of {} quarantined ({breakdown})\n",
        kept + quarantined
    )
}

/// One-line supervision summary: the `budget_exhausted` flag (with
/// which budget tripped and how partial the report is) and the panic
/// retry counters. Empty string for a complete, retry-free run, so
/// healthy output is unchanged.
pub fn supervision_summary(report: &SstaReport) -> String {
    let mut out = String::new();
    if let Some(kind) = report.budget_exhausted {
        let _ = writeln!(
            out,
            "  budget_exhausted             : {} budget tripped — partial report ({} paths analyzed, {} skipped)",
            kind, report.num_paths, report.skipped_paths
        );
    }
    if report.profile.panics > 0 {
        let _ = writeln!(
            out,
            "  supervised retries           : {} retries, {} panics isolated",
            report.profile.retries, report.profile.panics
        );
    }
    out
}

/// The serving payload: every report line that is a pure function of the
/// inputs — [`summary`], [`degraded_summary`], [`supervision_summary`]
/// and the [`path_table`] — and none of the wall-clock/profile lines.
/// The daemon's `RESULT` replies render through this, so a report served
/// from the warm result store is bit-identical to a fresh run's, and CI
/// can diff it against a timing-line-filtered batch run.
pub fn deterministic_report(report: &SstaReport, limit: usize) -> String {
    let mut out = String::new();
    out.push_str(&summary(report));
    out.push_str(&degraded_summary(report));
    out.push_str(&supervision_summary(report));
    out.push('\n');
    out.push_str(&path_table(report, limit));
    out
}

/// The ranked-path table (top `limit` rows): prob/det ranks, moments,
/// confidence point and path length.
pub fn path_table(report: &SstaReport, limit: usize) -> String {
    let header = [
        "prob rank",
        "det rank",
        "det delay (ps)",
        "mean (ps)",
        "σ (ps)",
        "3σ point (ps)",
        "gates",
    ];
    let rows: Vec<Vec<String>> = report
        .paths
        .iter()
        .take(limit)
        .map(|r| {
            vec![
                r.prob_rank.to_string(),
                r.det_rank.to_string(),
                ps(r.analysis.det_delay),
                ps(r.analysis.mean),
                ps(r.analysis.sigma),
                ps(r.analysis.confidence_point),
                r.analysis.gate_count().to_string(),
            ]
        })
        .collect();
    format_table(&header, &rows)
}

/// A CSV export of every ranked path (one row per path), for external
/// analysis and plotting.
pub fn to_csv(report: &SstaReport) -> String {
    let mut out = String::from(
        "prob_rank,det_rank,det_delay_ps,mean_ps,sigma_ps,inter_sigma_ps,intra_sigma_ps,confidence_point_ps,worst_case_ps,gates\n",
    );
    for r in &report.paths {
        let a = &r.analysis;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{}",
            r.prob_rank,
            r.det_rank,
            ps(a.det_delay),
            ps(a.mean),
            ps(a.sigma),
            ps(a.inter_sigma),
            ps(a.intra_sigma),
            ps(a.confidence_point),
            ps(a.worst_case),
            a.gate_count(),
        );
    }
    out
}

/// One-paragraph sequential summary: the sign-off quantities first.
pub fn seq_summary(report: &SequentialReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "circuit {} — {} gates, {} registers, {} timing checks at period {} ps",
        report.circuit,
        report.gate_count,
        report.registers,
        report.checks.len(),
        ps(report.period)
    );
    let _ = writeln!(
        out,
        "  clock tree                   : depth {} ({} buffer levels), latency {} ps",
        report.clock_depth,
        report.clock_depth + 1,
        ps(report.clock_latency)
    );
    let _ = writeln!(
        out,
        "  derates (early / late)       : {:.6} / {:.6}",
        report.derates.early, report.derates.late
    );
    let _ = writeln!(
        out,
        "  setup margin / hold margin   : {} ps / {} ps",
        ps(report.setup_margin),
        ps(report.hold_margin)
    );
    let _ = writeln!(
        out,
        "  setup yield at period        : {:.6}",
        report.setup_yield
    );
    let _ = writeln!(
        out,
        "  hold yield                   : {:.6}",
        report.hold_yield
    );
    for (label, kind) in [
        ("worst setup slack", CheckKind::Setup),
        ("worst hold slack", CheckKind::Hold),
    ] {
        if let Some(w) = report.worst(kind) {
            let _ = writeln!(
                out,
                "  {label:<29}: mean {} ps, σ {} ps ({} → {})",
                ps(w.slack_mean),
                ps(w.slack_sigma),
                w.launch_name.as_deref().unwrap_or("PI"),
                w.capture_name
            );
        }
    }
    match report.min_period {
        Some(t) => {
            let _ = writeln!(
                out,
                "  min period at yield {:.4}   : {} ps",
                report.target_yield,
                ps(t)
            );
        }
        None => {
            let _ = writeln!(
                out,
                "  min period at yield {:.4}   : unreachable (hold yield {:.6} caps the total)",
                report.target_yield, report.hold_yield
            );
        }
    }
    out
}

/// Per-class quarantine line for sequential checks — the sequential
/// sibling of [`degraded_summary`]. Empty for a healthy run.
pub fn seq_degraded_summary(report: &SequentialReport) -> String {
    quarantine_line(
        "degraded checks",
        report.degraded.iter().map(|d| d.class),
        report.checks.len(),
    )
}

/// Budget line for a partial sequential run — the sequential sibling of
/// [`supervision_summary`]. Empty for a complete run.
pub fn seq_supervision_summary(report: &SequentialReport) -> String {
    let mut out = String::new();
    if let Some(kind) = report.budget_exhausted {
        let _ = writeln!(
            out,
            "  budget_exhausted             : {} budget tripped — partial report ({} checks analyzed, {} skipped)",
            kind,
            report.checks.len(),
            report.skipped_checks
        );
    }
    out
}

/// The per-check table, worst (lowest mean slack) first, top `limit`
/// rows.
pub fn check_table(report: &SequentialReport, limit: usize) -> String {
    let header = [
        "check",
        "launch",
        "capture",
        "gates",
        "slack mean (ps)",
        "slack σ (ps)",
        "nominal X (ps)",
        "yield",
    ];
    let mut ordered: Vec<&SequentialCheck> = report.checks.iter().collect();
    ordered.sort_by(|a, b| {
        a.slack_mean
            .total_cmp(&b.slack_mean)
            .then_with(|| a.capture.cmp(&b.capture))
            .then_with(|| format!("{}", a.kind).cmp(&format!("{}", b.kind)))
    });
    let rows: Vec<Vec<String>> = ordered
        .iter()
        .take(limit)
        .map(|c| {
            vec![
                c.kind.to_string(),
                c.launch_name.clone().unwrap_or_else(|| "PI".into()),
                c.capture_name.clone(),
                c.data_gates.len().to_string(),
                ps(c.slack_mean),
                ps(c.slack_sigma),
                ps(c.nominal_x),
                format!("{:.6}", c.yield_at_period),
            ]
        })
        .collect();
    format_table(&header, &rows)
}

/// The setup/hold yield curve over the solver's period sweep.
pub fn seq_curve_table(report: &SequentialReport) -> String {
    let header = ["period (ps)", "setup yield", "hold yield", "total"];
    let rows: Vec<Vec<String>> = report
        .curve
        .iter()
        .map(|p| {
            vec![
                ps(p.period),
                format!("{:.6}", p.setup),
                format!("{:.6}", p.hold),
                format!("{:.6}", p.total()),
            ]
        })
        .collect();
    format_table(&header, &rows)
}

/// The deterministic sequential payload — every line that is a pure
/// function of the inputs, no wall-clock/profile lines. The daemon's
/// `RESULT` replies for sequential jobs render through this, exactly as
/// [`deterministic_report`] serves combinational jobs.
pub fn deterministic_sequential_report(report: &SequentialReport, limit: usize) -> String {
    let mut out = String::new();
    out.push_str(&seq_summary(report));
    out.push_str(&seq_degraded_summary(report));
    out.push_str(&seq_supervision_summary(report));
    out.push('\n');
    out.push_str(&check_table(report, limit));
    out.push('\n');
    out.push_str(&seq_curve_table(report));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SstaConfig, SstaEngine};
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::{Placement, PlacementStyle};

    fn report() -> SstaReport {
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        SstaEngine::new(SstaConfig::date05().with_confidence(0.2))
            .run(&c, &p)
            .expect("flow")
    }

    #[test]
    fn summary_contains_key_figures() {
        let r = report();
        let s = summary(&r);
        assert!(s.contains("circuit c432"));
        assert!(s.contains("160 gates"));
        assert!(s.contains("overestimation"));
        assert!(s.contains(&ps(r.det_critical_delay)));
    }

    #[test]
    fn cache_summary_present_only_with_cache() {
        let r = report();
        let s = cache_summary(&r);
        assert!(s.contains("kernel cache"), "{s}");
        assert!(s.contains("hit rate"));
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let off = SstaEngine::new(SstaConfig::date05().with_cache(false))
            .run(&c, &p)
            .expect("flow");
        assert!(cache_summary(&off).is_empty());
    }

    #[test]
    fn path_table_row_count_and_rank_order() {
        let r = report();
        let t = path_table(&r, 3);
        // Header + separators + 3 rows.
        assert_eq!(t.lines().filter(|l| l.starts_with("| ")).count(), 4);
        assert!(t.contains("prob rank"));
    }

    #[test]
    fn csv_has_one_row_per_path() {
        let r = report();
        let csv = to_csv(&r);
        assert_eq!(csv.lines().count(), r.num_paths + 1);
        assert!(csv.starts_with("prob_rank,"));
        // The first data row is prob rank 1.
        assert!(csv.lines().nth(1).unwrap().starts_with("1,"));
    }

    #[test]
    fn degraded_summary_empty_for_healthy_run() {
        let r = report();
        assert!(degraded_summary(&r).is_empty());
    }

    #[test]
    fn supervision_summary_flags_budget_and_retries() {
        let healthy = report();
        assert!(supervision_summary(&healthy).is_empty());
        use crate::supervise::RunBudget;
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let budget = RunBudget {
            max_paths: Some(1),
            ..RunBudget::none()
        };
        let partial = SstaEngine::new(
            SstaConfig::date05()
                .with_confidence(0.2)
                .with_budget(budget),
        )
        .run(&c, &p)
        .expect("partial run completes");
        let s = supervision_summary(&partial);
        assert!(s.contains("budget_exhausted"), "{s}");
        assert!(s.contains("paths budget tripped"), "{s}");
        assert!(s.contains("1 paths analyzed"), "{s}");
    }

    #[test]
    fn supervision_summary_counts_retries() {
        use crate::faults::FaultPlan;
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let plan: FaultPlan = "panic-path@0".parse().expect("plan");
        let r = SstaEngine::new(SstaConfig::date05().with_confidence(0.2).with_faults(plan))
            .run(&c, &p)
            .expect("quarantined run completes");
        let s = supervision_summary(&r);
        assert!(s.contains("supervised retries"), "{s}");
        assert!(s.contains("2 panics isolated"), "{s}");
    }

    #[test]
    fn degraded_summary_reports_quarantine() {
        use crate::faults::FaultPlan;
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let plan: FaultPlan = "nan-path@1,2".parse().expect("plan");
        let r = SstaEngine::new(SstaConfig::date05().with_confidence(0.2).with_faults(plan))
            .run(&c, &p)
            .expect("degraded run still completes");
        assert_eq!(r.degraded.len(), 2);
        let s = degraded_summary(&r);
        assert!(s.contains("2 of"), "{s}");
        assert!(s.contains("numeric"), "{s}");
    }

    #[test]
    fn ps_format() {
        assert_eq!(ps(123.4564e-12), "123.456");
        assert_eq!(ps(0.0), "0.000");
    }

    #[test]
    fn sequential_report_renders_all_sections() {
        use crate::sequential::{SequentialConfig, SequentialEngine};
        use statim_netlist::generators::sequential::s27;
        let c = s27();
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let r = SequentialEngine::new(SequentialConfig::date05())
            .run(&c, &p)
            .expect("sequential flow");
        let text = deterministic_sequential_report(&r, 10);
        assert!(text.contains("circuit s27"), "{text}");
        assert!(text.contains("3 registers, 6 timing checks"));
        assert!(text.contains("setup yield at period"));
        assert!(text.contains("hold yield"));
        assert!(text.contains("min period at yield"));
        assert!(text.contains("period (ps)"), "curve table present");
        // Worst-first check table: header + 6 check rows.
        let table = check_table(&r, 10);
        assert_eq!(table.lines().filter(|l| l.starts_with("| ")).count(), 7);
        // Healthy run: no degradation or budget lines.
        assert!(seq_degraded_summary(&r).is_empty());
        assert!(seq_supervision_summary(&r).is_empty());
        // The deterministic payload must not mention wall-clock time.
        assert!(!text.contains("runtime"));
    }
}
