//! Warm re-analysis and job retirement in the resident service.
//!
//! The executor keeps, per netlist and settings, the front of its last
//! clean run (timing, labels, critical path) and its widest clean
//! report, so a re-analysis at another `C` starts at enumeration and
//! reuses every path that report already analyzed. The contract is that
//! reuse is invisible in the bits: every served report here is compared
//! with a fresh `SstaEngine` run — every scalar, every PDF cell and the
//! label sweeps — while the `warm_runs`/`reused_paths` counters show the
//! reuse did happen. The job table keeps a bounded number of terminal
//! jobs and retires the least recently used past it.

use statim::core::engine::{SstaConfig, SstaEngine, SstaReport};
use statim::core::report::deterministic_report;
use statim::core::{
    apply_edits, AnalysisService, EcoScript, JobId, JobSpec, JobState, RunBudget, ServiceConfig,
    ServiceError, ServiceStats,
};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Circuit, Placement, PlacementStyle};
use statim::stats::Pdf;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every bit a report carries except its wall times.
fn bits(r: &SstaReport) -> Vec<u64> {
    let mut out = vec![
        r.gate_count as u64,
        r.det_critical_delay.to_bits(),
        r.worst_case_delay.to_bits(),
        r.overestimation_pct.to_bits(),
        r.confidence.to_bits(),
        r.sigma_c.to_bits(),
        r.num_paths as u64,
        r.label_sweeps as u64,
        r.degraded.len() as u64,
        u64::from(r.budget_exhausted.is_some()),
        r.skipped_paths as u64,
    ];
    let pdf = |out: &mut Vec<u64>, p: &Pdf| {
        out.extend([p.grid().lo().to_bits(), p.grid().step().to_bits()]);
        out.extend(p.density().iter().map(|d| d.to_bits()));
    };
    for p in &r.paths {
        let a = &p.analysis;
        out.extend([p.prob_rank as u64, p.det_rank as u64]);
        out.extend(a.gates.iter().map(|g| u64::from(g.0)));
        out.extend(
            [
                a.det_delay,
                a.worst_case,
                a.mean,
                a.sigma,
                a.inter_sigma,
                a.intra_sigma,
                a.confidence_point,
            ]
            .map(f64::to_bits),
        );
        for density in [&a.total_pdf, &a.intra_pdf, &a.inter_pdf] {
            pdf(&mut out, density);
        }
    }
    out
}

fn placed(bench: Benchmark) -> (Circuit, Placement) {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    (circuit, placement)
}

fn fresh(circuit: &Circuit, placement: &Placement, config: &SstaConfig) -> SstaReport {
    SstaEngine::new(config.clone())
        .run(circuit, placement)
        .expect("fresh run")
}

fn wait_terminal(service: &AnalysisService, id: JobId) -> JobState {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let state = service.status(id).expect("job exists").state;
        if state.is_terminal() {
            return state;
        }
        assert!(Instant::now() < deadline, "{id} never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submits `spec`, waits, and returns its report and whether the
/// result store served it.
fn served(service: &AnalysisService, spec: JobSpec) -> (Arc<SstaReport>, bool) {
    let receipt = service.submit(spec).expect("admitted");
    wait_terminal(service, receipt.id);
    let report = service.result_any(receipt.id).expect("report");
    let report = Arc::clone(report.as_analyze().expect("combinational"));
    (report, receipt.from_store)
}

fn counters(stats: &ServiceStats) -> (u64, u64) {
    (stats.warm_runs, stats.reused_paths)
}

fn store_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("statim-warm-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One circuit through the whole sequence: a cold run at `c`, warm
/// re-analyses at a smaller and a larger `C`, a store hit, a new key, a
/// budgeted partial run, an EDIT, and a restart over the store.
fn warm_sequence(bench: Benchmark, [small, c, large]: [f64; 3], budget: usize) {
    let (circuit, placement) = placed(bench);
    let dir = store_dir(&format!("{bench:?}"));
    let config = || ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let service = AnalysisService::start(config()).expect("service starts");
    let template = JobSpec::new(circuit.clone(), placement.clone(), SstaConfig::date05());
    let at = |confidence: f64| SstaConfig::date05().with_confidence(confidence);
    let check = |label: &str, cfg: &SstaConfig, report: &SstaReport| {
        let want = fresh(&circuit, &placement, cfg);
        assert_eq!(bits(report), bits(&want), "{bench:?} {label}");
    };

    let (base, hit) = served(&service, template.with_config(at(c)));
    assert!(!hit);
    check("cold", &at(c), &base);
    assert_eq!(counters(&service.stats()), (0, 0), "a cold run is not warm");

    // C' < C: every path is in the widest report.
    let (narrow, _) = served(&service, template.with_config(at(small)));
    check("C' < C", &at(small), &narrow);
    assert!(narrow.num_paths <= base.num_paths);
    let reused = narrow.num_paths as u64;
    assert_eq!(counters(&service.stats()), (1, reused));

    // C'' > C: only the new paths are computed; the report becomes the
    // widest.
    let (wide, _) = served(&service, template.with_config(at(large)));
    check("C'' > C", &at(large), &wide);
    let reused = reused + base.num_paths as u64;
    assert_eq!(counters(&service.stats()), (2, reused));

    // C again: a store hit, no run at all.
    let (again, hit) = served(&service, template.with_config(at(c)));
    assert!(hit && Arc::ptr_eq(&again, &base));
    assert_eq!(counters(&service.stats()), (2, reused));

    // Another QUALITYinter is another analysis key: cold.
    let mut quality = at(c);
    quality.quality_inter = 30;
    let (other, _) = served(&service, template.with_config(quality.clone()));
    check("quality-inter", &quality, &other);
    assert_eq!(counters(&service.stats()), (2, reused));

    // A budgeted partial run on a fresh key seeds nothing: the same key
    // unbudgeted runs cold afterwards.
    let mut keyed = at(large);
    keyed.quality_intra = 60;
    let budgeted = keyed.clone().with_budget(RunBudget {
        max_paths: Some(budget),
        ..RunBudget::none()
    });
    let (partial, _) = served(&service, template.with_config(budgeted.clone()));
    assert!(
        partial.budget_exhausted.is_some(),
        "{bench:?}: budget trips"
    );
    check("budgeted", &budgeted, &partial);
    let (full, _) = served(&service, template.with_config(keyed.clone()));
    check("after budgeted", &keyed, &full);
    assert_eq!(counters(&service.stats()), (2, reused));

    // An EDIT of the warm job is a new netlist, so a new key.
    let gate = &circuit.gates()[base.critical().analysis.gates[0].index()];
    let script = EcoScript::parse(&format!("resize {} 0.5\n", gate.name)).expect("script");
    let mut edited = circuit.clone();
    apply_edits(&mut edited, &script).expect("edit applies");
    let edit_spec = JobSpec::new(edited.clone(), placement.clone(), at(c));
    let (eco, _) = served(&service, edit_spec);
    let want = fresh(&edited, &placement, &at(c));
    assert_eq!(bits(&eco), bits(&want), "{bench:?} edit");
    assert_eq!(counters(&service.stats()), (2, reused));
    let rendered = deterministic_report(&base, 10);
    service.join();

    // A restarted service replays the stored reports, which serve hits
    // but seed nothing: a re-analysis at a new C runs cold.
    let service = AnalysisService::start(config()).expect("service restarts");
    let (replayed, hit) = served(&service, template.with_config(at(c)));
    assert!(hit);
    assert_eq!(deterministic_report(&replayed, 10), rendered);
    let mid = at((small + c) / 2.0);
    let (recomputed, hit) = served(&service, template.with_config(mid.clone()));
    assert!(!hit);
    check("after restart", &mid, &recomputed);
    assert_eq!(counters(&service.stats()), (0, 0));
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_reanalyses_match_fresh_runs_c432() {
    warm_sequence(Benchmark::C432, [0.05, 0.2, 0.5], 1);
}

#[test]
fn warm_reanalyses_match_fresh_runs_c499() {
    warm_sequence(Benchmark::C499, [0.02, 0.05, 0.1], 1);
}

#[test]
fn warm_reanalyses_match_fresh_runs_c1355() {
    warm_sequence(Benchmark::C1355, [0.01, 0.02, 0.05], 3);
}

#[test]
fn warm_reanalyses_match_fresh_runs_c1908() {
    warm_sequence(Benchmark::C1908, [0.02, 0.05, 0.3], 3);
}

fn job(i: u64) -> JobId {
    format!("job-{i}").parse().expect("job id")
}

#[test]
fn terminal_jobs_retire_least_recently_used_first() {
    const RETAINED: u64 = 1024;
    let (circuit, placement) = placed(Benchmark::C432);
    let mut cheap = SstaConfig::date05();
    cheap.quality_intra = 24;
    cheap.quality_inter = 12;
    let template = JobSpec::new(circuit, placement, cheap.clone());
    let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
    served(&service, template.with_config(cheap.clone()));
    // job-1 is the EDIT base a client keeps using; job-0 is never named
    // again.
    let base = service
        .submit(template.with_config(cheap.clone()))
        .expect("hit")
        .id;
    let hits = RETAINED + 6;
    for i in 0..hits {
        let receipt = service
            .submit(template.with_config(cheap.clone()))
            .expect("hit");
        assert!(receipt.from_store);
        if i % 64 == 0 {
            service.spec(base).expect("the EDIT base is live");
        }
    }
    let issued = hits + 2;
    let retired = issued - RETAINED;
    assert!(matches!(
        service.status(job(0)),
        Err(ServiceError::Retired(_))
    ));
    assert!(matches!(
        service.result_any(job(0)),
        Err(ServiceError::Retired(_))
    ));
    assert!(matches!(
        service.spec(job(0)),
        Err(ServiceError::Retired(_))
    ));
    service
        .spec(base)
        .expect("a base touched throughout survives");
    match service.status(job(issued)) {
        Err(ServiceError::UnknownJob(_)) => {}
        other => panic!("a never-issued id is unknown, got {other:?}"),
    }
    let message = service.status(job(0)).expect_err("retired").to_string();
    assert!(message.contains("retired"), "{message}");
    let live = (0..issued)
        .filter(|&i| service.status(job(i)).is_ok())
        .count();
    assert_eq!(live as u64, RETAINED, "exactly the bound stays");
    assert_eq!(service.stats().retired_jobs, retired);
    // Retirement leaves the result store alone: the spec still hits.
    assert!(
        service
            .submit(template.with_config(cheap))
            .expect("hit")
            .from_store
    );
    service.join();
}

/// A fault plan neither reads nor seeds the warm state: the faulted job
/// after a warm run equals the fresh faulted run, and a clean job after
/// it reuses only what the clean run left.
#[cfg(feature = "fault-injection")]
#[test]
fn fault_plans_bypass_the_warm_state() {
    use statim::core::FaultPlan;
    let (circuit, placement) = placed(Benchmark::C432);
    let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
    let template = JobSpec::new(circuit.clone(), placement.clone(), SstaConfig::date05());
    let at = |confidence: f64| SstaConfig::date05().with_confidence(confidence);
    // The first shard whose poison quarantines a near-critical path.
    let faulted = (0..statim::core::AnalysisCache::shard_count())
        .map(|shard| {
            let plan = format!("poison-cache-shard@{shard}");
            at(0.5).with_faults(plan.parse::<FaultPlan>().expect("plan"))
        })
        .map(|config| (fresh(&circuit, &placement, &config), config))
        .find(|(report, _)| !report.degraded.is_empty());
    let (want, faulted) = faulted.expect("some shard holds a near-critical inter key");
    let (clean, _) = served(&service, template.with_config(at(0.2)));
    let (poisoned, hit) = served(&service, template.with_config(faulted));
    assert!(!hit);
    assert_eq!(bits(&poisoned), bits(&want));
    assert_eq!(
        counters(&service.stats()),
        (0, 0),
        "the faulted job ran cold"
    );
    let (wide, _) = served(&service, template.with_config(at(0.5)));
    assert_eq!(bits(&wide), bits(&fresh(&circuit, &placement, &at(0.5))));
    assert_eq!(
        counters(&service.stats()),
        (1, clean.num_paths as u64),
        "only the clean run seeded"
    );
    service.join();
}
