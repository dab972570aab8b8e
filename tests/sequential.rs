//! Integration suite for the sequential timing subsystem.
//!
//! Pins the four contracts `statim seq` ships with:
//!
//! 1. **Determinism** — setup/hold reports are bit-identical for any
//!    thread count, with the kernel cache on or off, under both
//!    convolution backends (each backend against its own baseline), and
//!    the two backends agree to ~1e-9 relative on every moment.
//! 2. **Physics** — the analytic check distribution matches a seeded
//!    Monte-Carlo resimulation of the same model (shared inter-die
//!    operating point through the effective (α, β), independent
//!    intra-die Gaussian) to a few parts in a thousand of CDF mass.
//! 3. **Derates** — unity derates reduce bitwise to the underivated
//!    analysis; asymmetric derates strictly eat slack on both check
//!    kinds.
//! 4. **Typed rejection** — the corpus netlists under
//!    `tests/corpus/sequential/` parse cleanly but are refused with
//!    typed Config errors by the combinational analyze flow and the ECO
//!    editor, naming the offending register and line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use statim::core::report::deterministic_sequential_report;
use statim::core::sequential::{hold_yield, min_period, setup_yield_at};
use statim::core::{
    apply_edits, CheckKind, ConvolveBackend, CoreError, Derates, EcoScript, ErrorClass,
    SequentialConfig, SequentialEngine, SequentialReport, SstaConfig, SstaEngine, StatimError,
};
use statim::netlist::generators::sequential::{pipeline, s27};
use statim::netlist::{bench_format, Circuit, Placement, PlacementStyle};
use statim::process::gate_delay;
use statim::process::param::PerParam;
use statim::process::OperatingPoint;
use statim::stats::sample::truncated_normal;
use std::path::Path;

/// Quality knobs small enough for a 12-run matrix, large enough that
/// yields are stable in the 6th decimal.
fn quick_config() -> SequentialConfig {
    let mut config = SequentialConfig::date05();
    config.ssta.quality_intra = 40;
    config.ssta.quality_inter = 20;
    config
}

fn run_seq(circuit: &Circuit, config: SequentialConfig) -> SequentialReport {
    let placement = Placement::generate(circuit, PlacementStyle::Levelized);
    SequentialEngine::new(config)
        .run(circuit, &placement)
        .expect("sequential flow succeeds")
}

/// Every numeric field of the report must match to the bit, including
/// the full density tables of the per-check kernels.
fn assert_seq_identical(a: &SequentialReport, b: &SequentialReport, label: &str) {
    assert_eq!(a.checks.len(), b.checks.len(), "{label}: check count");
    for (i, (ca, cb)) in a.checks.iter().zip(&b.checks).enumerate() {
        assert_eq!(ca.kind, cb.kind, "{label}: check {i} kind");
        assert_eq!(ca.capture, cb.capture, "{label}: check {i} capture");
        assert_eq!(ca.launch, cb.launch, "{label}: check {i} launch");
        assert_eq!(ca.data_gates, cb.data_gates, "{label}: check {i} path");
        for (name, x, y) in [
            ("var_eff", ca.var_eff, cb.var_eff),
            ("nominal_x", ca.nominal_x, cb.nominal_x),
            ("slack_mean", ca.slack_mean, cb.slack_mean),
            ("slack_sigma", ca.slack_sigma, cb.slack_sigma),
            ("yield", ca.yield_at_period, cb.yield_at_period),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: check {i} {name} ({x} vs {y})"
            );
        }
        let (da, db) = (ca.x_pdf.density(), cb.x_pdf.density());
        assert_eq!(da.len(), db.len(), "{label}: check {i} density length");
        for (j, (x, y)) in da.iter().zip(db).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: check {i} density[{j}]");
        }
    }
    assert_eq!(
        a.setup_yield.to_bits(),
        b.setup_yield.to_bits(),
        "{label}: setup yield"
    );
    assert_eq!(
        a.hold_yield.to_bits(),
        b.hold_yield.to_bits(),
        "{label}: hold yield"
    );
    assert_eq!(
        a.min_period.map(f64::to_bits),
        b.min_period.map(f64::to_bits),
        "{label}: min period"
    );
    assert_eq!(
        deterministic_sequential_report(a, 20),
        deterministic_sequential_report(b, 20),
        "{label}: rendered report"
    );
}

#[test]
fn reports_are_bit_identical_across_threads_cache_and_within_backend() {
    for circuit in [s27(), pipeline(2, 4).expect("pipeline generator")] {
        for backend in [ConvolveBackend::Grid, ConvolveBackend::Fft] {
            let mut baseline = quick_config();
            baseline.ssta = baseline
                .ssta
                .with_threads(1)
                .with_cache(false)
                .with_backend(backend);
            let reference = run_seq(&circuit, baseline);
            assert!(!reference.checks.is_empty());
            for threads in [1usize, 2, 4] {
                for cache in [false, true] {
                    let mut config = quick_config();
                    config.ssta = config
                        .ssta
                        .with_threads(threads)
                        .with_cache(cache)
                        .with_backend(backend);
                    let report = run_seq(&circuit, config);
                    assert_seq_identical(
                        &reference,
                        &report,
                        &format!(
                            "{} {backend} threads={threads} cache={cache}",
                            circuit.name()
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn grid_and_fft_backends_agree_to_1e9() {
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
    let circuit = s27();
    let mut grid_cfg = quick_config();
    grid_cfg.ssta = grid_cfg.ssta.with_backend(ConvolveBackend::Grid);
    let mut fft_cfg = quick_config();
    fft_cfg.ssta = fft_cfg.ssta.with_backend(ConvolveBackend::Fft);
    let grid = run_seq(&circuit, grid_cfg);
    let fft = run_seq(&circuit, fft_cfg);
    assert_eq!(grid.checks.len(), fft.checks.len());
    for (g, f) in grid.checks.iter().zip(&fft.checks) {
        assert!(rel(g.slack_mean, f.slack_mean) < 1e-9, "slack mean");
        assert!(rel(g.slack_sigma, f.slack_sigma) < 1e-9, "slack sigma");
        assert!(
            (g.yield_at_period - f.yield_at_period).abs() < 1e-9,
            "check yield"
        );
    }
    assert!((grid.setup_yield - fft.setup_yield).abs() < 1e-9);
    assert!((grid.hold_yield - fft.hold_yield).abs() < 1e-9);
    let (g, f) = (
        grid.min_period.expect("solvable"),
        fft.min_period.expect("solvable"),
    );
    assert!(rel(g, f) < 1e-8, "min period {g} vs {f}");
}

#[test]
fn monte_carlo_revalidates_the_setup_check_distribution() {
    // Resimulate the worst setup check's X variable from the same
    // layered model the analytic kernels integrate: one shared
    // inter-die operating point evaluated through the check's effective
    // (α, β) — delay is linear in the coefficients at a fixed point, so
    // the composite evaluates in one `gate_delay` call — plus an
    // independent truncated intra-die Gaussian of variance `var_eff`.
    let circuit = s27();
    let config = SequentialConfig::date05();
    let ssta = config.ssta.clone();
    let report = run_seq(&circuit, config);
    let check = report.worst(CheckKind::Setup).expect("setup checks exist");

    let weights = ssta.layers.weights().expect("layer weights");
    let w0 = weights[0];
    let trunc = ssta.vars.trunc_k;
    let sigma_intra = check.var_eff.sqrt();
    let mut rng = StdRng::seed_from_u64(0x5e9_5127);
    const N: usize = 30_000;
    let samples: Vec<f64> = (0..N)
        .map(|_| {
            let point = OperatingPoint {
                values: PerParam::from_fn(|p| {
                    let sigma = ssta.vars.sigma.get(p) * w0.sqrt();
                    if sigma > 0.0 {
                        truncated_normal(&mut rng, ssta.tech.nominal(p), sigma, trunc)
                    } else {
                        ssta.tech.nominal(p)
                    }
                }),
            };
            let inter = gate_delay(&ssta.tech, &check.ab_eff, &point);
            let intra = if sigma_intra > 0.0 {
                truncated_normal(&mut rng, 0.0, sigma_intra, trunc)
            } else {
                0.0
            };
            inter + intra
        })
        .collect();

    let mean_mc = samples.iter().sum::<f64>() / N as f64;
    let var_mc = samples.iter().map(|x| (x - mean_mc).powi(2)).sum::<f64>() / (N as f64 - 1.0);
    let mean_an = check.x_pdf.mean();
    let sigma_an = check.x_pdf.std_dev();
    assert!(
        (mean_mc - mean_an).abs() / mean_an < 0.01,
        "mean {mean_mc} vs analytic {mean_an}"
    );
    assert!(
        (var_mc.sqrt() - sigma_an).abs() / sigma_an < 0.08,
        "sigma {} vs analytic {sigma_an}",
        var_mc.sqrt()
    );

    // CDF agreement where it matters: the setup yield is the CDF at
    // (period − margin), and the distribution body must match too.
    for t in [
        mean_an - sigma_an,
        mean_an,
        mean_an + sigma_an,
        report.period - check.margin,
    ] {
        let empirical = samples.iter().filter(|&&x| x <= t).count() as f64 / N as f64;
        let analytic = check.x_pdf.cdf(t);
        assert!(
            (empirical - analytic).abs() < 0.02,
            "CDF({t}): empirical {empirical} vs analytic {analytic}"
        );
    }
    let empirical_yield = samples
        .iter()
        .filter(|&&x| x <= report.period - check.margin)
        .count() as f64
        / N as f64;
    assert!((empirical_yield - check.yield_at_period).abs() < 0.02);
}

#[test]
fn unity_derates_reduce_bitwise_and_asymmetric_derates_eat_slack() {
    let circuit = s27();
    let base = run_seq(&circuit, quick_config());
    let mut unity = quick_config();
    unity.derates = Derates {
        early: 1.0,
        late: 1.0,
    };
    assert_seq_identical(&base, &run_seq(&circuit, unity), "unity derates");

    let mut ocv = quick_config();
    ocv.derates = Derates {
        early: 0.95,
        late: 1.05,
    };
    let derated = run_seq(&circuit, ocv);
    for (b, d) in base.checks.iter().zip(&derated.checks) {
        assert!(
            d.slack_mean < b.slack_mean,
            "{} {}: derates must eat slack ({} vs {})",
            b.kind,
            b.capture_name,
            d.slack_mean,
            b.slack_mean
        );
    }
    assert!(derated.setup_yield <= base.setup_yield);
    assert!(derated.hold_yield <= base.hold_yield);
}

#[test]
fn min_period_brackets_cover_the_edge_cases() {
    let report = run_seq(&s27(), quick_config());
    let checks = &report.checks;

    // Invalid targets never solve.
    for target in [0.0, -1.0, 1.5, f64::NAN] {
        assert!(min_period(checks, target).is_none(), "target {target}");
    }
    // No checks, no period.
    assert!(min_period(&[], 0.9).is_none());

    // A lax target solves below the strict one; both meet their target.
    // The total yield is capped by the period-independent hold yield, so
    // the strict target sits just inside that cap.
    let strict_target = hold_yield(checks) * 0.999;
    let strict = min_period(checks, strict_target).expect("strict target solvable");
    let lax = min_period(checks, 0.5).expect("lax target solvable");
    assert!(lax < strict, "lax {lax} vs strict {strict}");
    for (target, period) in [(strict_target, strict), (0.5, lax)] {
        let achieved = setup_yield_at(checks, period) * hold_yield(checks);
        assert!(
            (achieved - target).abs() < 1e-6,
            "target {target}: bisection landed at yield {achieved}"
        );
    }

    // A target above what the (period-independent) hold yield admits is
    // typed unreachable, not an infinite bracket growth.
    let capped = hold_yield(checks) * (1.0 + 1e-9);
    if capped <= 1.0 {
        assert!(min_period(checks, capped).is_none());
    }
}

fn seq_corpus(name: &str) -> Circuit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/sequential")
        .join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
    bench_format::parse(
        Path::new(name)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap(),
        &text,
    )
    .unwrap_or_else(|e| panic!("{name}: corpus netlist must parse: {e}"))
}

#[test]
fn combinational_flow_rejects_register_netlists_with_a_typed_error() {
    let circuit = seq_corpus("dff_in_combinational.bench");
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let err = SstaEngine::new(SstaConfig::date05())
        .run(&circuit, &placement)
        .expect_err("registers must not pass the combinational flow");
    assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
    let flat = StatimError::from(err);
    assert_eq!(flat.class, ErrorClass::Config);
    // The error names the circuit, the first register and its source
    // line, and points at the sequential flow.
    for needle in ["dff_in_combinational", "q1", "line 7", "statim seq"] {
        assert!(flat.message.contains(needle), "`{needle}` in: {flat}");
    }
}

#[test]
fn eco_editor_rejects_register_netlists_with_a_typed_error() {
    let mut circuit = seq_corpus("eco_on_sequential.bench");
    let script = EcoScript::parse_compact("resize:y:2.0").expect("script parses");
    let err = apply_edits(&mut circuit, &script).expect_err("sequential ECO must be refused");
    assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err:?}");
    let flat = StatimError::from(err);
    assert_eq!(flat.class, ErrorClass::Config);
    for needle in ["eco_on_sequential", "q", "combinational-only"] {
        assert!(flat.message.contains(needle), "`{needle}` in: {flat}");
    }
}

// ---------------------------------------------------------------------
// Pinned output bits. The digests were taken when check extraction still
// ran on the levelized timing graph's per-gate arrival models; a change
// here means a sequential output changed.
// ---------------------------------------------------------------------

/// FNV-1a 64 over bytes.
fn fnv1a64_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 over the little-endian bytes of each word.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a64_bytes(words.into_iter().flat_map(u64::to_le_bytes))
}

/// A solved period's bits; `None` (unreachable or invalid) as all ones.
fn period_bits(period: Option<f64>) -> u64 {
    period.map_or(u64::MAX, f64::to_bits)
}

/// The targets both smallest-period solvers are pinned at.
const PINNED_TARGETS: [f64; 3] = [0.5, 0.99, 1.0];

/// Per (circuit, early, late): the digest of the deterministic report
/// text, and the digest of every check's data path, effective (A, B),
/// effective variance, nominal X and X density bits, followed by
/// `min_period` at [`PINNED_TARGETS`].
const PINNED_SEQ_DIGESTS: &[(&str, f64, f64, u64, u64)] = &[
    (
        "s27",
        1.0,
        1.0,
        0x5fec_2b08_8d29_31f4,
        0x4369_a97f_8d06_d204,
    ),
    (
        "s27",
        0.9,
        1.1,
        0xbb8a_ce89_9133_e73c,
        0x7943_4c54_902f_b247,
    ),
    (
        "pipe4x16",
        1.0,
        1.0,
        0xb6dc_c8c0_e4d8_5604,
        0xbfdd_f9f6_f540_0f20,
    ),
    (
        "pipe4x16",
        0.9,
        1.1,
        0x7a6f_4b1a_569b_04e7,
        0x7957_6668_966e_28aa,
    ),
    (
        "pipe8x32",
        1.0,
        1.0,
        0xea55_8d0c_41b7_43da,
        0xe1c6_e7b3_8fd1_f30b,
    ),
    (
        "pipe8x32",
        0.9,
        1.1,
        0x66bc_2d68_a4ee_b877,
        0x9842_3a37_2846_d148,
    ),
];

fn check_words(report: &SequentialReport) -> Vec<u64> {
    let mut words = Vec::new();
    for c in &report.checks {
        words.push(c.data_gates.len() as u64);
        words.extend(c.data_gates.iter().map(|g| u64::from(g.0)));
        words.extend([c.ab_eff.alpha, c.ab_eff.beta, c.var_eff, c.nominal_x].map(f64::to_bits));
        let grid = c.x_pdf.grid();
        words.extend([grid.lo(), grid.step()].map(f64::to_bits));
        words.push(c.x_pdf.density().len() as u64);
        words.extend(c.x_pdf.density().iter().map(|d| d.to_bits()));
    }
    words.extend(
        PINNED_TARGETS
            .iter()
            .map(|&t| period_bits(min_period(&report.checks, t))),
    );
    words
}

#[test]
fn sequential_report_and_check_bits_are_pinned() {
    let mut got = String::new();
    let mut want = String::new();
    for &(name, early, late, text_digest, check_digest) in PINNED_SEQ_DIGESTS {
        let circuit = statim::netlist::generators::sequential::from_name(name).expect(name);
        let mut config = SequentialConfig::date05();
        config.derates = Derates { early, late };
        let report = run_seq(&circuit, config);
        let text = deterministic_sequential_report(&report, usize::MAX);
        got.push_str(&format!(
            "(\"{name}\", {early:?}, {late:?}, {:#018x}, {:#018x}),\n",
            fnv1a64_bytes(text.bytes()),
            fnv1a64(check_words(&report))
        ));
        want.push_str(&format!(
            "(\"{name}\", {early:?}, {late:?}, {text_digest:#018x}, {check_digest:#018x}),\n"
        ));
    }
    assert_eq!(got, want, "sequential digests:\n{got}");
}

/// `period_for_yield` on the c432 and c499 reports at [`PINNED_TARGETS`].
const PINNED_PERIOD_FOR_YIELD_DIGEST: u64 = 0x611a_2840_52b9_9bb1;

#[test]
fn period_for_yield_bits_are_pinned() {
    use statim::core::timing_yield::period_for_yield;
    use statim::netlist::generators::iscas85::{self, Benchmark};
    let mut words = Vec::new();
    for bench in [Benchmark::C432, Benchmark::C499] {
        let circuit = iscas85::generate(bench);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let report = SstaEngine::new(SstaConfig::date05())
            .run(&circuit, &placement)
            .expect("engine run");
        words.extend(
            PINNED_TARGETS
                .iter()
                .map(|&t| period_bits(period_for_yield(&report, t))),
        );
    }
    let h = fnv1a64(words.iter().copied());
    assert!(
        words.iter().all(|&w| w != u64::MAX),
        "every target solves: {words:x?}"
    );
    assert_eq!(h, PINNED_PERIOD_FOR_YIELD_DIGEST, "digest {h:#018x}");
}
