//! Supervision-layer integration tests: run budgets, panic quarantine,
//! deterministic retry and Monte-Carlo checkpoint/resume.
//!
//! The contract under test is ISSUE 4's: a supervised run either
//! completes, degrades visibly (quarantine, `budget_exhausted`), or
//! fails with a typed error — and every deterministic scenario is
//! bit-identical at any thread count. Fault-dependent scenarios live in
//! the `faulted` module (needs `--features fault-injection`).

use statim::core::engine::{SstaConfig, SstaEngine, SstaReport};
use statim::core::monte_carlo::{
    mc_fingerprint, mc_path_distribution_supervised, McOutcome, McSupervision,
};
use statim::core::parallel::MC_CHUNK;
use statim::core::supervise::{BudgetKind, McCheckpoint, McCheckpointer, RunBudget, Supervisor};
use statim::core::{characterize::characterize_placed, CoreError, ErrorClass, LayerModel};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Placement, PlacementStyle};
use statim::process::{Technology, Variations};
use statim::stats::Marginal;
use std::path::PathBuf;

const MC_QUALITY: usize = 50;
const MC_SEED: u64 = 0x5EED;

/// A unique temp-file path per test so parallel test threads never
/// collide on a sidecar.
fn temp_ckpt(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("statim-supervision-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Everything a supervised MC call needs, derived once from a benchmark.
struct McFixture {
    placement: Placement,
    timing: statim::core::CircuitTiming,
    gates: Vec<statim::netlist::GateId>,
    tech: Technology,
    vars: Variations,
    layers: LayerModel,
}

fn mc_fixture() -> McFixture {
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let tech = Technology::cmos130();
    let timing = characterize_placed(&circuit, &tech, &placement).expect("characterization");
    let report = SstaEngine::new(SstaConfig::date05())
        .run(&circuit, &placement)
        .expect("flow succeeds");
    McFixture {
        placement,
        timing,
        gates: report.critical().analysis.gates.clone(),
        tech,
        vars: Variations::date05(),
        layers: LayerModel::date05(),
    }
}

impl McFixture {
    fn run(&self, samples: usize, threads: usize, ctx: McSupervision<'_>) -> McOutcome {
        mc_path_distribution_supervised(
            &self.gates,
            &self.timing,
            &self.placement,
            &self.tech,
            &self.vars,
            &self.layers,
            Marginal::Gaussian,
            samples,
            MC_QUALITY,
            MC_SEED,
            threads,
            ctx,
        )
        .expect("supervised mc run")
    }

    fn fingerprint(&self) -> u64 {
        mc_fingerprint(
            &self.gates,
            &self.vars,
            &self.layers,
            Marginal::Gaussian,
            MC_QUALITY,
        )
        .expect("fingerprint")
    }
}

fn stat_bits(out: &McOutcome) -> (u64, u64) {
    let r = out.result.as_ref().expect("mc result present");
    (r.mean.to_bits(), r.sigma.to_bits())
}

fn engine_run(budget: RunBudget, threads: usize) -> Result<SstaReport, CoreError> {
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let config = SstaConfig::date05()
        .with_confidence(0.5)
        .with_threads(threads)
        .with_budget(budget);
    SstaEngine::new(config).run(&circuit, &placement)
}

#[test]
fn path_budget_yields_flagged_partial_report_thread_invariantly() {
    let full = engine_run(RunBudget::none(), 1).expect("unbudgeted run");
    let budget = RunBudget {
        max_paths: Some(3),
        ..RunBudget::none()
    };
    let one = engine_run(budget, 1).expect("budgeted run, 1 thread");
    let four = engine_run(budget, 4).expect("budgeted run, 4 threads");
    for r in [&one, &four] {
        assert_eq!(r.budget_exhausted, Some(BudgetKind::Paths));
        assert_eq!(r.num_paths, 3);
        assert_eq!(r.skipped_paths, full.num_paths - 3);
    }
    // The analyzed prefix is keyed on enumeration index, so the partial
    // report is bit-identical at any thread count.
    let bits = |r: &SstaReport| {
        r.paths
            .iter()
            .map(|p| (p.analysis.gates.clone(), p.analysis.mean.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&one), bits(&four));
    // A healthy run carries no supervision flags.
    assert_eq!(full.budget_exhausted, None);
    assert_eq!(full.skipped_paths, 0);
}

#[test]
fn wall_budget_exhausted_before_any_result_is_typed() {
    let budget = RunBudget {
        max_wall_secs: Some(0.0),
        ..RunBudget::none()
    };
    let err = engine_run(budget, 1).expect_err("zero wall budget cannot produce results");
    assert!(
        matches!(
            err,
            CoreError::BudgetExhausted {
                budget: BudgetKind::Wall
            }
        ),
        "{err:?}"
    );
    assert_eq!(err.classify(), ErrorClass::Resource);
}

#[test]
fn mc_sample_budget_flags_partial_outcome() {
    let fix = mc_fixture();
    let samples = 2 * MC_CHUNK + 100;
    let budget = RunBudget {
        max_mc_samples: Some(MC_CHUNK),
        ..RunBudget::none()
    };
    let sup = Supervisor::new(budget, 1);
    let out = fix.run(samples, 1, McSupervision::new(&sup));
    assert_eq!(out.exhausted, Some(BudgetKind::McSamples));
    assert_eq!(out.chunks_done, 1);
    assert_eq!(out.chunks_total, 3);
    // The partial result is exactly the clean run over the same prefix.
    let clean_sup = Supervisor::unlimited();
    let clean = fix.run(MC_CHUNK, 1, McSupervision::new(&clean_sup));
    assert_eq!(stat_bits(&out), stat_bits(&clean));
}

#[test]
fn checkpoint_kill_resume_is_bitwise_equal_to_uninterrupted() {
    let fix = mc_fixture();
    let samples = 2 * MC_CHUNK + 100;
    let fp = fix.fingerprint();

    // Baseline: one uninterrupted run.
    let sup = Supervisor::unlimited();
    let baseline = fix.run(samples, 1, McSupervision::new(&sup));

    // "Kill" mid-run: a sample budget stops the run after one of three
    // chunks, with a checkpointer persisting the completed chunk.
    let path = temp_ckpt("kill-resume.ckpt");
    let budget = RunBudget {
        max_mc_samples: Some(MC_CHUNK),
        ..RunBudget::none()
    };
    let killed_sup = Supervisor::new(budget, 1);
    let ck = McCheckpointer::new(&path, McCheckpoint::new(fp, MC_SEED, samples), 1);
    let killed = fix.run(
        samples,
        1,
        McSupervision::new(&killed_sup).with_checkpoint(&ck),
    );
    assert_eq!(killed.exhausted, Some(BudgetKind::McSamples));
    assert_eq!(killed.chunks_done, 1);

    // Resume from the sidecar: restored chunks are reused verbatim, the
    // rest re-sampled, and the merge is in chunk order — bit-identical
    // to the uninterrupted run, at 1 and 4 threads.
    let ckpt = McCheckpoint::load(&path).expect("sidecar readable");
    ckpt.validate_for(fp, MC_SEED, samples)
        .expect("sidecar matches this run");
    for threads in [1, 4] {
        let resume_sup = Supervisor::unlimited();
        let resumed = fix.run(
            samples,
            threads,
            McSupervision::new(&resume_sup).with_resume(&ckpt),
        );
        assert_eq!(resumed.chunks_resumed, 1, "threads={threads}");
        assert_eq!(resumed.chunks_done, 3, "threads={threads}");
        assert_eq!(
            stat_bits(&resumed),
            stat_bits(&baseline),
            "threads={threads}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_and_mismatched_checkpoints_fail_typed() {
    // Garbage file: typed parse error, not a panic.
    let garbage = temp_ckpt("garbage.ckpt");
    std::fs::write(&garbage, "not a checkpoint\n").expect("write temp file");
    let err = McCheckpoint::load(&garbage).expect_err("garbage must not parse");
    assert!(
        matches!(err, CoreError::CheckpointParse { line: 1, .. }),
        "{err:?}"
    );
    assert_eq!(err.classify(), ErrorClass::Parse);

    // Version bump: rejected with the version named on line 1.
    let good = McCheckpoint::new(7, 11, MC_CHUNK).render();
    let versioned = temp_ckpt("version.ckpt");
    std::fs::write(&versioned, good.replacen("v1", "v9", 1)).expect("write temp file");
    let err = McCheckpoint::load(&versioned).expect_err("future version must not parse");
    assert!(
        matches!(&err, CoreError::CheckpointParse { line: 1, message } if message.contains("v9")),
        "{err:?}"
    );

    // Truncated sample payload: the offending line is identified.
    let truncated = temp_ckpt("truncated.ckpt");
    std::fs::write(&truncated, format!("{good}chunk 0 2 deadbeef\n")).expect("write temp file");
    let err = McCheckpoint::load(&truncated).expect_err("short chunk must not parse");
    assert!(matches!(err, CoreError::CheckpointParse { .. }), "{err:?}");

    // Wrong identity: a well-formed checkpoint from another run is
    // refused at validation, before any sampling happens.
    let other = McCheckpoint::new(7, 11, MC_CHUNK);
    let err = other
        .validate_for(8, 11, MC_CHUNK)
        .expect_err("foreign fingerprint must be refused");
    assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
    assert_eq!(err.classify(), ErrorClass::Config);

    // Missing file: a resource error, also typed.
    let missing = temp_ckpt("missing.ckpt");
    let err = McCheckpoint::load(&missing).expect_err("missing file must error");
    assert!(matches!(err, CoreError::CheckpointIo { .. }), "{err:?}");
    assert_eq!(err.classify(), ErrorClass::Resource);

    for p in [garbage, versioned, truncated] {
        let _ = std::fs::remove_file(p);
    }
}

#[cfg(feature = "fault-injection")]
mod faulted {
    use super::*;
    use statim::core::FaultPlan;
    use std::sync::Arc;

    fn plan(spec: &str) -> FaultPlan {
        spec.parse().expect("valid fault plan")
    }

    #[test]
    fn panic_path_quarantine_is_bit_identical_across_threads() {
        let circuit = iscas85::generate(Benchmark::C432);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let run = |threads: usize| {
            let mut config = SstaConfig::date05()
                .with_confidence(0.5)
                .with_threads(threads);
            config.faults = Some(Arc::new(plan("panic-path@1")));
            SstaEngine::new(config)
                .run(&circuit, &placement)
                .expect("quarantined run completes")
        };
        let baseline = run(1);
        assert_eq!(baseline.degraded.len(), 1);
        assert_eq!(baseline.degraded[0].index, 1);
        assert_eq!(baseline.degraded[0].class, ErrorClass::Numeric);
        assert!(baseline.degraded[0].reason.contains("panic-path@1"));
        // Default retries = 1, so the persistent fault panics twice.
        assert_eq!(baseline.profile.retries, 1);
        assert_eq!(baseline.profile.panics, 2);
        let bits = |r: &SstaReport| {
            r.paths
                .iter()
                .map(|p| {
                    (
                        p.analysis.gates.clone(),
                        p.analysis.mean.to_bits(),
                        p.analysis.sigma.to_bits(),
                        p.analysis.confidence_point.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        for threads in [2, 4, 8] {
            let r = run(threads);
            assert_eq!(bits(&r), bits(&baseline), "threads={threads}");
            assert_eq!(r.degraded[0].index, 1, "threads={threads}");
        }
    }

    #[test]
    fn retried_chunk_matches_clean_run_bitwise() {
        let fix = mc_fixture();
        let samples = 2 * MC_CHUNK;
        let clean_sup = Supervisor::unlimited();
        let clean = fix.run(samples, 1, McSupervision::new(&clean_sup));

        // The fault disarms after one firing; the retry re-derives the
        // chunk's RNG from (seed, chunk index) and must reproduce the
        // clean run exactly.
        let fault = plan("panic-chunk@0:1");
        let sup = Supervisor::new(RunBudget::none(), 1);
        let out = fix.run(samples, 1, McSupervision::new(&sup).with_faults(&fault));
        assert_eq!(out.retries, 1);
        assert_eq!(out.quarantined_chunks, 0);
        assert_eq!(out.chunks_done, 2);
        assert_eq!(stat_bits(&out), stat_bits(&clean));
    }

    #[test]
    fn persistent_panic_chunk_quarantines_thread_invariantly() {
        let fix = mc_fixture();
        let samples = 3 * MC_CHUNK;
        let run = |threads: usize| {
            let fault = plan("panic-chunk@1");
            let sup = Supervisor::new(RunBudget::none(), 1);
            fix.run(
                samples,
                threads,
                McSupervision::new(&sup).with_faults(&fault),
            )
        };
        let one = run(1);
        assert_eq!(one.quarantined_chunks, 1);
        assert_eq!(one.chunks_done, 2);
        assert_eq!(one.retries, 1);
        assert!(one.result.is_some(), "surviving chunks still summarize");
        let four = run(4);
        assert_eq!(stat_bits(&one), stat_bits(&four));
        assert_eq!(four.quarantined_chunks, 1);
    }
}
