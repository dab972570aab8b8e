//! Warm re-analysis and job retirement in the resident service.
//!
//! The executor keeps, per netlist and settings, the front of its last
//! clean run (timing, labels, critical path) and its widest clean
//! report, so a re-analysis at another `C` starts at enumeration and
//! reuses every path that report already analyzed. The contract is that
//! reuse is invisible in the bits: every served report here is compared
//! with a fresh `SstaEngine` run — every scalar, every PDF cell and the
//! label sweeps — while the `warm_runs`/`reused_paths` counters show the
//! reuse did happen. An `EDIT` of a warm job starts from its base's
//! front and reuses every path of the base's widest report that crosses
//! no gate the edit moved; an `EDIT` of a base that is not warm runs
//! cold. The job table keeps a bounded number of terminal jobs and
//! retires the least recently used past it.

use statim::core::characterize::characterize_placed;
use statim::core::engine::{SstaConfig, SstaEngine, SstaReport, StageProfile};
use statim::core::report::deterministic_report;
use statim::core::{
    apply_edits, AnalysisService, EcoScript, JobId, JobSpec, JobState, RunBudget, ServiceConfig,
    ServiceError, ServiceStats, StatimError, TimingGraph,
};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Circuit, GateId, Placement, PlacementStyle, Signal};
use statim::process::GateKind;
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

/// The gates whose timing bits differ between a circuit and its edit.
fn dirty(
    before: &Circuit,
    after: &Circuit,
    placement: &Placement,
    config: &SstaConfig,
) -> Vec<bool> {
    let timing = |c: &Circuit| characterize_placed(c, &config.tech, placement).expect("timing");
    let (old, new) = (timing(before), timing(after));
    old.gates()
        .iter()
        .zip(new.gates())
        .map(|(a, b)| a != b)
        .collect()
}

/// The paths of `edited` that a reuse oracle over `widest` hands back:
/// analyzed there, and through no dirty gate.
fn reusable(widest: &SstaReport, edited: &SstaReport, dirty: &[bool]) -> u64 {
    let analyzed = |gates: &Vec<GateId>| widest.paths.iter().any(|q| &q.analysis.gates == gates);
    edited
        .paths
        .iter()
        .map(|p| &p.analysis.gates)
        .filter(|gates| !gates.iter().any(|g| dirty[g.index()]) && analyzed(gates))
        .count() as u64
}

/// A different gate kind at the same fan-in, spelled for a script.
fn other_kind(kind: GateKind) -> String {
    match kind {
        GateKind::Nand(n) => format!("nor{n}"),
        GateKind::Nor(n) => format!("nand{n}"),
        GateKind::And(n) => format!("or{n}"),
        GateKind::Or(n) => format!("and{n}"),
        GateKind::Xor2 => "xnor".into(),
        GateKind::Xnor2 => "xor".into(),
        GateKind::Inv => "buf".into(),
        GateKind::Buf => "inv".into(),
    }
}

/// Submits `from.edited(script)` to a service holding `from`'s key warm
/// with `widest` as its widest report. The report must equal a fresh run
/// of the edited netlist bit for bit, and the counters must move by one
/// warm run and exactly the paths an oracle over `widest` can reuse.
fn edit_warm(
    service: &AnalysisService,
    from: &JobSpec,
    widest: &SstaReport,
    script: &str,
    expect: &mut (u64, u64),
) -> (JobSpec, Arc<SstaReport>) {
    let label = format!("{}: {script}", from.circuit().name());
    let script = EcoScript::parse(script).expect("script parses");
    let spec = from.edited(&script).expect("edit applies");
    let mut edited = from.circuit().clone();
    apply_edits(&mut edited, &script).expect("edit applies");
    let (report, hit) = served(service, spec.clone());
    assert!(!hit, "{label}");
    let want = fresh(&edited, from.placement(), &from.config);
    assert_eq!(bits(&report), bits(&want), "{label}");
    let dirty = dirty(from.circuit(), &edited, from.placement(), &from.config);
    *expect = (expect.0 + 1, expect.1 + reusable(widest, &report, &dirty));
    assert_eq!(counters(&service.stats()), *expect, "{label}");
    (spec, report)
}

/// EDITs of a warm job: a resize, a swap, a retime, a rewire, and an
/// EDIT of an EDIT, each from its base's front.
fn warm_edits(bench: Benchmark, c: f64) {
    let (circuit, placement) = placed(bench);
    let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
    let template = JobSpec::new(
        circuit.clone(),
        placement,
        SstaConfig::date05().with_confidence(c),
    );
    let (base, _) = served(&service, template.clone());
    assert_eq!(counters(&service.stats()), (0, 0), "the base runs cold");
    let critical = &base.critical().analysis.gates;
    let name = |g: GateId| circuit.gate(g).name.clone();
    let (first, mid, last) = (
        critical[0],
        critical[critical.len() / 2],
        critical[critical.len() - 1],
    );
    // A gate on no near-critical path: sped up, it moves no path.
    let off_path = circuit
        .gate_ids()
        .find(|g| !base.paths.iter().any(|p| p.analysis.gates.contains(g)))
        .expect("some gate is on no near-critical path");
    let mut expect = (0, 0);
    for script in [
        format!("resize {} 0.5", name(first)),
        format!("swap {} {}", name(mid), other_kind(circuit.gate(mid).kind)),
        format!("retime {} 2e-12", name(last)),
        format!("rmwire {} 0", name(mid)),
        format!("resize {} 2.0", name(off_path)),
    ] {
        edit_warm(&service, &template, &base, &script, &mut expect);
    }
    assert!(expect.1 > 0, "{bench:?}: some path was reused");
    // An EDIT of an EDIT starts from the first EDIT's front, which its
    // own clean run seeded.
    let resize = format!("resize {} 1.5", name(mid));
    let (first_edit, first_report) = edit_warm(&service, &template, &base, &resize, &mut expect);
    let retime = format!("retime {} 1e-12", name(first));
    edit_warm(&service, &first_edit, &first_report, &retime, &mut expect);
    service.join();
}

#[test]
fn warm_edits_match_fresh_runs_c432() {
    warm_edits(Benchmark::C432, 0.2);
}

#[test]
fn warm_edits_match_fresh_runs_c499() {
    warm_edits(Benchmark::C499, 0.05);
}

#[test]
fn warm_edits_match_fresh_runs_c1355() {
    warm_edits(Benchmark::C1355, 0.02);
}

#[test]
fn warm_edits_match_fresh_runs_c1908() {
    warm_edits(Benchmark::C1908, 0.05);
}

/// Submits `spec`, an EDIT of a base that is not warm: it must run cold,
/// equal a fresh run of its netlist, and seed its own key, so the same
/// netlist at a smaller `C` reuses every path.
fn edit_cold(service: &AnalysisService, spec: JobSpec, label: &str) {
    let before = counters(&service.stats());
    let (report, hit) = served(service, spec.clone());
    assert!(!hit, "{label}");
    let want = fresh(spec.circuit(), spec.placement(), &spec.config);
    assert_eq!(bits(&report), bits(&want), "{label}");
    assert_eq!(counters(&service.stats()), before, "{label} runs cold");
    let narrow = spec
        .config
        .clone()
        .with_confidence(spec.config.confidence / 2.0);
    let (again, _) = served(service, spec.with_config(narrow.clone()));
    let want = fresh(spec.circuit(), spec.placement(), &narrow);
    assert_eq!(bits(&again), bits(&want), "{label} at C/2");
    let seeded = (before.0 + 1, before.1 + again.num_paths as u64);
    assert_eq!(counters(&service.stats()), seeded, "{label} seeded its key");
}

#[test]
fn edits_of_bases_that_are_not_warm_run_cold_and_seed() {
    let (circuit, placement) = placed(Benchmark::C432);
    let dir = store_dir("edit-cold");
    let config = || ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let mut cheap = SstaConfig::date05().with_confidence(0.2);
    cheap.quality_intra = 24;
    cheap.quality_inter = 12;
    let template = JobSpec::new(circuit.clone(), placement, cheap.clone());
    let gate = |i: usize| circuit.gates()[i].name.clone();
    let script = |text: String| EcoScript::parse(&text).expect("script parses");

    // A base whose front was evicted: 64 newer keys push it out.
    let service = AnalysisService::start(config()).expect("service starts");
    served(&service, template.clone());
    for k in 0..64 {
        let mut other = cheap.clone();
        other.quality_inter = 13 + k;
        served(&service, template.with_config(other));
    }
    let evicted = template.edited(&script(format!("resize {} 0.5", gate(40))));
    edit_cold(&service, evicted.expect("edit applies"), "evicted base");

    // A base that tripped its budget seeded nothing; its EDIT, run
    // unbudgeted under the same key, runs cold.
    let mut keyed = cheap.clone();
    keyed.quality_intra = 20;
    let budgeted = keyed.clone().with_budget(RunBudget {
        max_paths: Some(1),
        ..RunBudget::none()
    });
    let (partial, _) = served(&service, template.with_config(budgeted.clone()));
    assert!(partial.budget_exhausted.is_some(), "the budget trips");
    let tripped = template
        .with_config(budgeted)
        .edited(&script(format!(
            "swap {} {}",
            gate(41),
            other_kind(circuit.gates()[41].kind)
        )))
        .expect("edit applies");
    edit_cold(&service, tripped.with_config(keyed), "budget-tripped base");
    service.join();

    // A base replayed from the store after a restart seeded nothing.
    let service = AnalysisService::start(config()).expect("service restarts");
    let (_, hit) = served(&service, template.clone());
    assert!(hit, "the base is replayed from the store");
    let replayed = template.edited(&script(format!("retime {} 2e-12", gate(42))));
    edit_cold(&service, replayed.expect("edit applies"), "replayed base");
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Gates whose fanout cone drives no output within reach of `base`'s
/// near-critical set: every output in the cone arrives before 90% of
/// the enumeration threshold, so speeding one of them up moves no
/// near-critical path.
fn cold_gates(circuit: &Circuit, placement: &Placement, base: &SstaReport) -> Vec<GateId> {
    let tech = SstaConfig::date05().tech;
    let timing = characterize_placed(circuit, &tech, placement).expect("timing");
    let mut arrival = vec![0.0f64; circuit.gate_count()];
    for (i, g) in circuit.gates().iter().enumerate() {
        let latest = g
            .inputs
            .iter()
            .filter_map(|s| match s {
                Signal::Gate(d) => Some(arrival[d.index()]),
                Signal::Input(_) => None,
            })
            .fold(0.0, f64::max);
        arrival[i] = latest + timing.gates()[i].nominal;
    }
    let limit = 0.9 * (base.det_critical_delay - base.confidence * base.sigma_c);
    let graph = TimingGraph::build(circuit).expect("timing graph");
    circuit
        .gate_ids()
        .filter(|&g| {
            let cone = graph.fanout_cone([g]);
            circuit.outputs().iter().all(|&(_, s)| match s {
                Signal::Gate(o) => !cone[o.index()] || arrival[o.index()] < limit,
                Signal::Input(_) => true,
            })
        })
        .collect()
}

/// A warm EDIT that speeds up a cold gate gets its base report back
/// whole: it equals a fresh run and reuses every one of its paths. The
/// EDITs the reach check must refuse run the engine's stages and match
/// a fresh run too: one whose `max_paths` the base's set exceeds (it
/// fails as the fresh run does), and one whose base's widest report was
/// enumerated at another `C`.
#[test]
fn warm_edits_of_cold_gates_reuse_the_base_report_whole() {
    let (circuit, placement) = placed(Benchmark::C1355);
    let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
    let template = JobSpec::new(circuit.clone(), placement.clone(), SstaConfig::date05());
    let (base, _) = served(&service, template.clone());
    let cold = cold_gates(&circuit, &placement, &base);
    assert!(cold.len() >= 3, "c1355 has cold gates");
    let resize = |g: GateId| format!("resize {} 2.0", circuit.gate(g).name);

    let mut expect = (0, 0);
    let (_, report) = edit_warm(&service, &template, &base, &resize(cold[0]), &mut expect);
    assert_eq!(expect, (1, report.num_paths as u64), "every path came back");
    assert_eq!(
        report.profile.enumerate,
        StageProfile::default(),
        "no stage ran"
    );

    let mut capped = template.config.clone();
    capped.max_paths = base.num_paths - 1;
    let script = EcoScript::parse(&resize(cold[1])).expect("script parses");
    let spec = template
        .with_config(capped.clone())
        .edited(&script)
        .expect("edit applies");
    let receipt = service.submit(spec.clone()).expect("admitted");
    assert_eq!(wait_terminal(&service, receipt.id), JobState::Failed);
    let want = SstaEngine::new(capped)
        .run(spec.circuit(), spec.placement())
        .expect_err("the capped set overflows");
    match service.result_any(receipt.id) {
        Err(ServiceError::JobFailed { error, .. }) => {
            assert_eq!(error.to_string(), StatimError::from(want).to_string());
        }
        _ => panic!("the capped EDIT fails"),
    }
    expect = counters(&service.stats());

    let wider = SstaConfig::date05().with_confidence(0.1);
    let (widest, _) = served(&service, template.with_config(wider));
    assert!(widest.num_paths > base.num_paths);
    expect.0 += 1;
    expect.1 += base.num_paths as u64;
    let (_, report) = edit_warm(&service, &template, &widest, &resize(cold[2]), &mut expect);
    assert!(report.profile.enumerate.wall > 0.0, "the stages ran");
    service.join();
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

/// An EDIT with a fault plan runs cold even when its base is warm, and
/// seeds nothing.
#[cfg(feature = "fault-injection")]
#[test]
fn a_faulted_edit_of_a_warm_base_runs_cold() {
    use statim::core::FaultPlan;
    let (circuit, placement) = placed(Benchmark::C432);
    let service = AnalysisService::start(ServiceConfig::default()).expect("service starts");
    let config = SstaConfig::date05().with_confidence(0.2);
    let template = JobSpec::new(circuit.clone(), placement.clone(), config.clone());
    served(&service, template.clone());
    let script = EcoScript::parse(&format!("resize {} 0.5\n", circuit.gates()[40].name))
        .expect("script parses");
    let faulted = config.with_faults("panic-path@1".parse::<FaultPlan>().expect("plan"));
    let spec = template.edited(&script).expect("edit applies");
    let (report, _) = served(&service, spec.with_config(faulted.clone()));
    let mut edited = circuit;
    apply_edits(&mut edited, &script).expect("edit applies");
    assert_eq!(bits(&report), bits(&fresh(&edited, &placement, &faulted)));
    assert!(!report.degraded.is_empty(), "the fault fired");
    assert_eq!(
        counters(&service.stats()),
        (0, 0),
        "the faulted EDIT ran cold"
    );
    // It seeded nothing: the clean EDIT after it starts from the base.
    let (clean, _) = served(&service, spec);
    assert_eq!(
        bits(&clean),
        bits(&fresh(&edited, &placement, &template.config))
    );
    assert_eq!(counters(&service.stats()).0, 1, "the clean EDIT ran warm");
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
