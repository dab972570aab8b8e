//! Cross-backend accuracy suite: the FFT convolution backend against
//! the exact grid backend, end-to-end through the engine.
//!
//! The contract under test: `--backend fft` is a *numerical* fast path.
//! It is validated to tolerance against the grid backend (per-path
//! moments and quantiles within 1e-9 relative), against closed-form
//! moment addition, and against the exact Monte-Carlo model — while
//! remaining run-to-run and thread-count deterministic on its own.
//!
//! The second half pins the inter-die kernel: `inter_pdf` against a
//! copy of its `map3` formulation, bit for bit, and against a digest of
//! its output bits. Further digests pin the eq. (14) intra-die variance
//! of near-critical paths and of every gate's latest-arriving path, and
//! the block-based baseline's output PDFs.

use statim::core::analyze::{analyze_path, AnalysisSettings};
use statim::core::characterize::{characterize_placed, CircuitTiming};
use statim::core::correlation::{LayerModel, VarianceSplit};
use statim::core::engine::{SstaConfig, SstaEngine, SstaReport};
use statim::core::enumerate::near_critical_paths;
use statim::core::inter::{inter_param_pdf, inter_pdf};
use statim::core::intra::{intra_pdf, intra_variance, path_coefficients};
use statim::core::longest_path::{critical_path, topo_labels};
use statim::core::monte_carlo::mc_path_distribution;
use statim::core::report::deterministic_report;
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::generators::sequential;
use statim::netlist::{Circuit, GateId, Placement, PlacementStyle, Signal};
use statim::process::delay::voltage_kernel;
use statim::process::param::Variations;
use statim::process::tech::{AlphaBeta, ELMORE_K};
use statim::process::{GateKind, Load, Param, Technology};
use statim::stats::combine::{map2, map3, product_pdf};
use statim::stats::{ConvolveBackend, Grid, Marginal, Pdf};

/// The benchmarks the suite sweeps (the smallest built-ins).
const BENCHES: &[Benchmark] = &[Benchmark::C432, Benchmark::C499, Benchmark::C880];

fn run(bench: Benchmark, backend: ConvolveBackend, threads: Option<usize>) -> SstaReport {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut config = SstaConfig::date05().with_backend(backend);
    config.threads = threads;
    SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect("engine run")
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

#[test]
fn backends_agree_per_path_to_1e9() {
    for &bench in BENCHES {
        let grid = run(bench, ConvolveBackend::Grid, None);
        let fft = run(bench, ConvolveBackend::Fft, None);
        assert_eq!(grid.num_paths, fft.num_paths, "{bench:?}");
        // Match paths by their gate sequence: a 1e-9 agreement means the
        // ranking cannot differ, but the pairing must not assume it.
        let by_gates: std::collections::HashMap<_, _> = fft
            .paths
            .iter()
            .map(|p| (p.analysis.gates.clone(), &p.analysis))
            .collect();
        for p in &grid.paths {
            let g = &p.analysis;
            let f = by_gates[&g.gates];
            assert!(rel(g.mean, f.mean) < 1e-9, "{bench:?} mean");
            assert!(rel(g.sigma, f.sigma) < 1e-9, "{bench:?} sigma");
            assert!(
                rel(g.confidence_point, f.confidence_point) < 1e-9,
                "{bench:?} confidence point"
            );
            for p in [0.001, 0.5, 0.999] {
                let qg = g.total_pdf.quantile(p).expect("quantile");
                let qf = f.total_pdf.quantile(p).expect("quantile");
                assert!(rel(qg, qf) < 1e-9, "{bench:?} quantile({p}): {qg} vs {qf}");
            }
        }
    }
}

#[test]
fn both_backends_match_closed_form_moment_addition() {
    // total = intra ⊛ inter, so the closed-form Gaussian ⊕ Gaussian
    // rules apply to the moments. The convolution itself adds means
    // exactly; the final resample onto the output grid leaks ~1e-6
    // relative (measured ~6e-7 on c432), so the gate sits at 1e-5.
    // Variances add up to the quantization leakage of the resample.
    for backend in [ConvolveBackend::Grid, ConvolveBackend::Fft] {
        let report = run(Benchmark::C432, backend, None);
        for p in &report.paths {
            let a = &p.analysis;
            let mean_sum = a.intra_pdf.mean() + a.inter_pdf.mean();
            assert!(
                (a.total_pdf.mean() - mean_sum).abs() < 1e-5 * a.mean.abs(),
                "{backend}: mean not additive"
            );
            let var_sum = a.intra_sigma.powi(2) + a.inter_sigma.powi(2);
            assert!(
                rel(a.sigma.powi(2), var_sum) < 0.05,
                "{backend}: sigma² {} vs intra²+inter² {}",
                a.sigma.powi(2),
                var_sum
            );
        }
    }
}

#[test]
fn fft_backend_matches_monte_carlo_on_c499() {
    // The accuracy.rs Monte-Carlo cross-check, re-run with the spectral
    // kernel: the exact non-linear MC model neither knows nor cares how
    // the analytic convolution was computed.
    let circuit = iscas85::generate(Benchmark::C499);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let tech = Technology::cmos130();
    let timing = characterize_placed(&circuit, &tech, &placement).expect("characterize");
    let labels = topo_labels(&circuit, &timing).expect("labels");
    let path = critical_path(&circuit, &timing, &labels).expect("critical path");
    let mut settings = AnalysisSettings::date05();
    settings.backend = ConvolveBackend::Fft;
    let analytic = analyze_path(&path, &timing, &placement, &tech, &settings).expect("analyze");
    let mc = mc_path_distribution(
        &path,
        &timing,
        &placement,
        &tech,
        &settings.vars,
        &settings.layers,
        Marginal::Gaussian,
        15_000,
        100,
        99,
        0,
    )
    .expect("mc");
    assert!(rel(analytic.mean, mc.mean) < 0.01);
    assert!(rel(analytic.sigma, mc.sigma) < 0.08);
    assert!(rel(analytic.confidence_point, mc.sigma_point(3.0)) < 0.02);
    let ks = analytic.total_pdf.ks_distance(&mc.pdf);
    assert!(ks < 0.05, "KS distance {ks}");
}

#[test]
fn fft_reports_are_run_to_run_deterministic() {
    // Tolerance-validated does not mean noisy: the FFT backend is a
    // pure function with a fixed evaluation order, so two runs must be
    // bytewise equal, down to the confidence-point bit pattern.
    let first = run(Benchmark::C432, ConvolveBackend::Fft, None);
    let second = run(Benchmark::C432, ConvolveBackend::Fft, None);
    assert_eq!(
        deterministic_report(&first, 10),
        deterministic_report(&second, 10)
    );
    for (a, b) in first.paths.iter().zip(&second.paths) {
        assert_eq!(
            a.analysis.confidence_point.to_bits(),
            b.analysis.confidence_point.to_bits()
        );
    }
}

#[test]
fn both_backends_are_thread_count_invariant() {
    for backend in [ConvolveBackend::Grid, ConvolveBackend::Fft] {
        let reference = deterministic_report(&run(Benchmark::C432, backend, Some(1)), 10);
        for threads in [2usize, 4] {
            let got = deterministic_report(&run(Benchmark::C432, backend, Some(threads)), 10);
            assert_eq!(got, reference, "{backend} at {threads} threads");
        }
    }
}

// ---------------------------------------------------------------------
// Inter-die kernel: differential against `map3`, and pinned output bits.
// ---------------------------------------------------------------------

const MARGINALS: [Marginal; 3] = [Marginal::Gaussian, Marginal::Uniform, Marginal::Triangular];

/// `inter_pdf` as formulated on `map3`: the voltage factor evaluates the
/// kernel at every grid point through a closure. Every other step is a
/// copy of `inter_pdf`, so any output difference is the voltage factor's.
fn reference_inter_pdf(
    ab: &AlphaBeta,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> statim::core::Result<Pdf> {
    let w0 = layers.weights()?[0];
    let k = ELMORE_K / tech.eps_ox;
    if ab.alpha == 0.0 && ab.beta == 0.0 {
        let grid = Grid::over(-1e-16, 1e-16, quality)?;
        return Ok(Pdf::delta(grid, 0.0)?);
    }
    if w0 <= 0.0 {
        let pt = tech.nominal_point();
        let d = k
            * pt.tox()
            * pt.leff()
            * (ab.alpha * voltage_kernel(pt.vdd(), pt.vtn())
                + ab.beta * voltage_kernel(pt.vdd(), pt.vtp()));
        let span = d.abs().max(1e-22) * 1e-6;
        let grid = Grid::over(d - span, d + span, quality)?;
        return Ok(Pdf::delta(grid, d)?);
    }
    let pdf = |p: Param| inter_param_pdf(p, tech, vars, layers, marginal, quality);
    let w = product_pdf(&pdf(Param::Tox)?, &pdf(Param::Leff)?, quality)?;
    let (a, b) = (ab.alpha, ab.beta);
    let z = map3(
        &pdf(Param::Vdd)?,
        &pdf(Param::Vtn)?,
        &pdf(Param::Vtp)?,
        quality,
        |vdd, vtn, vtp| a * voltage_kernel(vdd, vtn) + b * voltage_kernel(vdd, vtp),
    )?;
    Ok(map2(&w, &z, quality, |wv, zv| k * wv * zv)?)
}

/// A kernel outcome as exact bits: grid lo, step and length plus every
/// density, or the error's `Display` text.
type Bits = Result<(u64, u64, usize, Vec<u64>), String>;

fn bits(r: statim::core::Result<Pdf>) -> Bits {
    r.map(|p| {
        let g = p.grid();
        let d = p.density().iter().map(|d| d.to_bits()).collect();
        (g.lo().to_bits(), g.step().to_bits(), g.len(), d)
    })
    .map_err(|e| e.to_string())
}

/// Asserts `inter_pdf` and the `map3` reference agree bit for bit, and
/// returns the agreed outcome.
fn assert_matches_reference(
    ab: &AlphaBeta,
    tech: &Technology,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Bits {
    let vars = Variations::date05();
    let got = bits(inter_pdf(ab, tech, &vars, layers, marginal, quality));
    let want = bits(reference_inter_pdf(
        ab, tech, &vars, layers, marginal, quality,
    ));
    assert_eq!(got, want, "{ab:?} {marginal:?} Q={quality} {layers:?}");
    got
}

/// A levelized-placed benchmark, its placed timing and its near-critical
/// paths within `confidence`·σ_C, in enumeration order.
fn near_critical(
    bench: Benchmark,
    confidence: f64,
) -> (Placement, CircuitTiming, Vec<Vec<GateId>>) {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let tech = Technology::cmos130();
    let timing = characterize_placed(&circuit, &tech, &placement).expect("characterize");
    let labels = topo_labels(&circuit, &timing).expect("labels");
    let det = critical_path(&circuit, &timing, &labels).expect("critical path");
    let settings = AnalysisSettings::date05();
    let sigma_c = analyze_path(&det, &timing, &placement, &tech, &settings)
        .expect("analyze")
        .sigma;
    let threshold = labels.critical_delay(&circuit).expect("delay") - confidence * sigma_c;
    let set =
        near_critical_paths(&circuit, &timing, &labels, threshold, 1_000_000).expect("enumerate");
    (placement, timing, set.paths)
}

/// The distinct placed `(A, B)` sums of a benchmark's near-critical paths
/// at the paper's C = 0.05, in enumeration order.
fn near_critical_keys(bench: Benchmark) -> Vec<AlphaBeta> {
    let (_, timing, paths) = near_critical(bench, 0.05);
    let mut seen = std::collections::HashSet::new();
    paths
        .iter()
        .map(|p| timing.path_alpha_beta(p))
        .filter(|ab| seen.insert((ab.alpha.to_bits(), ab.beta.to_bits())))
        .collect()
}

#[test]
fn inter_kernel_matches_map3_on_near_critical_keys() {
    let tech = Technology::cmos130();
    let layers = LayerModel::date05();
    for bench in [Benchmark::C1355, Benchmark::C7552] {
        let keys = near_critical_keys(bench);
        assert!(
            keys.len() > 1,
            "{bench:?}: placed sums must tell paths apart"
        );
        for ab in &keys {
            let out = assert_matches_reference(ab, &tech, &layers, Marginal::Gaussian, 50);
            assert!(out.is_ok(), "{ab:?}: {:?}", out.err());
        }
    }
}

/// Coefficient sums covering every sign pattern, zeros of both signs,
/// and an overflowing coefficient.
fn synthetic_keys() -> Vec<AlphaBeta> {
    let tech = Technology::cmos130();
    let one = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
    let (a, b) = (one.alpha * 9.0, one.beta * 9.0);
    [
        (a, b),
        (-a, -b),
        (a, -b),
        (-a, b),
        (a, -b * 1.2),
        (0.0, b),
        (a, 0.0),
        (-0.0, b),
        (a, -0.0),
        (0.0, -b),
        (-0.0, -b),
        (-a, 0.0),
        (0.0, 0.0),
        (-0.0, -0.0),
        (f64::MAX, b),
        (a, -f64::MAX),
    ]
    .into_iter()
    .map(|(alpha, beta)| AlphaBeta { alpha, beta })
    .collect()
}

#[test]
fn inter_kernel_matches_map3_on_synthetic_keys() {
    let tech = Technology::cmos130();
    for share in [0.2, 0.5, 0.75, 0.0] {
        let layers = LayerModel::with_inter_share(share);
        for ab in &synthetic_keys() {
            for marginal in MARGINALS {
                for quality in [0, 1, 2, 7, 24] {
                    let out = assert_matches_reference(ab, &tech, &layers, marginal, quality);
                    let overflows = ab.alpha.abs() == f64::MAX || ab.beta.abs() == f64::MAX;
                    assert_eq!(
                        out.is_err(),
                        quality == 0 || overflows,
                        "{ab:?} Q={quality}"
                    );
                }
            }
        }
    }
}

#[test]
fn inter_kernel_matches_map3_past_the_voltage_cutoff() {
    // A supply so low that the truncated Vdd range crosses the kernel's
    // cut-off: some kernel values are infinite and both routes must
    // fail with the same typed error.
    let mut tech = Technology::cmos130();
    tech.vdd = 2.0 * tech.vtn.max(tech.vtp) / 1.5 + 0.01;
    let one = tech.alpha_beta(GateKind::Inv, &Load::fanout(1));
    for ab in [
        one,
        AlphaBeta {
            alpha: 0.0,
            beta: one.beta,
        },
    ] {
        for marginal in MARGINALS {
            let out = assert_matches_reference(&ab, &tech, &LayerModel::date05(), marginal, 24);
            assert!(
                matches!(&out, Err(text) if text.contains("map3 output")),
                "{out:?}"
            );
        }
    }
}

/// FNV-1a over 64-bit words, little-endian.
fn fnv1a(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of `inter_pdf`'s output bits over [`pinned_keys`] × the three
/// marginals at QUALITYinter = 50, computed with the `map3` formulation
/// of the voltage factor. A change here means the inter-die PDFs changed.
const PINNED_INTER_DIGEST: u64 = 0x24ee_a967_5f3c_8390;

/// About twenty coefficient sums: multiples of real gates, mixtures,
/// negative and mixed signs, and zeros.
fn pinned_keys() -> Vec<AlphaBeta> {
    let tech = Technology::cmos130();
    let nand = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
    let inv = tech.alpha_beta(GateKind::Inv, &Load::fanout(1));
    let nor = tech.alpha_beta(GateKind::Nor(3), &Load::fanout(4));
    let ab = |alpha: f64, beta: f64| AlphaBeta { alpha, beta };
    let mut keys: Vec<AlphaBeta> = [1.0, 2.0, 5.0, 12.0, 31.0, 77.0]
        .into_iter()
        .map(|n| ab(nand.alpha * n, nand.beta * n))
        .collect();
    keys.extend([
        ab(inv.alpha * 3.0, inv.beta * 3.0),
        ab(inv.alpha * 40.0, inv.beta * 40.0),
        ab(nor.alpha * 9.0, nor.beta * 9.0),
        ab(
            nand.alpha * 7.0 + inv.alpha * 4.0 + nor.alpha * 2.0,
            nand.beta * 7.0 + inv.beta * 4.0 + nor.beta * 2.0,
        ),
        ab(-nand.alpha * 3.0, -nand.beta * 3.0),
        ab(-nor.alpha * 5.0, -nor.beta * 5.0),
        ab(nand.alpha * 6.0, -inv.beta * 4.0),
        ab(-nor.alpha * 2.0, nand.beta * 9.0),
        ab(nand.alpha * 3.0, -nand.beta * 3.0 * 0.999),
        ab(0.0, nand.beta * 5.0),
        ab(nand.alpha * 5.0, 0.0),
        ab(-0.0, -inv.beta * 3.0),
        ab(nand.alpha * 5.0, -0.0),
        ab(0.0, 0.0),
    ]);
    keys
}

#[test]
fn inter_pdf_output_bits_are_pinned() {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for ab in &pinned_keys() {
        for marginal in MARGINALS {
            let (lo, step, len, density) = bits(inter_pdf(ab, &tech, &vars, &layers, marginal, 50))
                .unwrap_or_else(|text| panic!("{ab:?} {marginal:?}: {text}"));
            for w in [lo, step, len as u64].into_iter().chain(density) {
                h = fnv1a(h, w);
            }
        }
    }
    assert_eq!(h, PINNED_INTER_DIGEST, "digest {h:#018x}");
}

/// Digest of the eq. (14) intra-die variance bits over
/// [`variance_models`] × the near-critical paths of the ten Table 2
/// circuits, then of the variance of every gate's latest-arriving path
/// ([`latest_paths`]) in `s27` and `pipe8x32`. Taken with the
/// per-parameter coefficient maps; a change here means the intra-die
/// variances changed.
const PINNED_INTRA_VARIANCE_DIGEST: u64 = 0xdb6c_7b53_2513_fa9d;

/// The paper's per-circuit C (Table 2): c2670 at 0.1, c6288 at 0.001,
/// every other circuit at 0.05.
fn paper_confidence(bench: Benchmark) -> f64 {
    match bench {
        Benchmark::C2670 => 0.1,
        Benchmark::C6288 => 0.001,
        _ => 0.05,
    }
}

/// The paper's layer model, a half inter-die split, six spatial layers
/// without a random layer, and a random layer beside the inter-die layer
/// alone.
fn variance_models() -> [LayerModel; 4] {
    [
        LayerModel::date05(),
        LayerModel::with_inter_share(0.5),
        LayerModel {
            spatial_layers: 6,
            random_layer: false,
            split: VarianceSplit::Equal,
        },
        LayerModel {
            spatial_layers: 1,
            random_layer: true,
            split: VarianceSplit::Equal,
        },
    ]
}

/// The latest-arriving path into every gate, in gate order: one sweep in
/// id order where each gate's worst predecessor is its lowest-id gate
/// input of maximal nominal arrival (primary inputs arrive at 0), then a
/// back-walk per gate. This is the setup side of the sequential flow's
/// check extraction, taken for every gate instead of at D pins only.
fn latest_paths(circuit: &Circuit, timing: &CircuitTiming) -> Vec<Vec<GateId>> {
    let mut latest: Vec<(f64, Option<GateId>)> = Vec::new();
    for (i, gate) in circuit.gates().iter().enumerate() {
        let mut fanin: Vec<GateId> = gate
            .inputs
            .iter()
            .filter_map(|s| match s {
                Signal::Gate(g) => Some(*g),
                Signal::Input(_) => None,
            })
            .collect();
        fanin.sort_unstable();
        fanin.dedup();
        let (mut best, mut pred) = (0.0f64, None);
        for g in fanin {
            if latest[g.index()].0 > best {
                (best, pred) = (latest[g.index()].0, Some(g));
            }
        }
        latest.push((best + timing.gate(GateId(i as u32)).nominal, pred));
    }
    circuit
        .gate_ids()
        .map(|end| {
            let mut path = vec![end];
            while let Some(p) = latest[path[path.len() - 1].index()].1 {
                path.push(p);
            }
            path.reverse();
            path
        })
        .collect()
}

#[test]
fn intra_variance_bits_are_pinned() {
    let vars = Variations::date05();
    let models = variance_models();
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut pairs = 0usize;
    for bench in Benchmark::ALL {
        let (placement, timing, paths) = near_critical(bench, paper_confidence(bench));
        for layers in &models {
            for path in &paths {
                let coeffs = path_coefficients(path, &timing, &placement, layers);
                let var = intra_variance(&coeffs, layers, &vars).expect("variance");
                h = fnv1a(h, var.to_bits());
                pairs += 1;
            }
        }
    }
    let tech = Technology::cmos130();
    let layers = LayerModel::date05();
    let sequential: [Circuit; 2] = [
        sequential::s27(),
        sequential::pipeline(8, 32).expect("pipe8x32"),
    ];
    for circuit in &sequential {
        let placement = Placement::generate(circuit, PlacementStyle::Levelized);
        let timing = characterize_placed(circuit, &tech, &placement).expect("characterize");
        for path in latest_paths(circuit, &timing) {
            let coeffs = path_coefficients(&path, &timing, &placement, &layers);
            let var = intra_variance(&coeffs, &layers, &vars).expect("variance");
            h = fnv1a(h, var.to_bits());
        }
    }
    assert_eq!(pairs, 4 * 2_074, "(path, layer model) pairs");
    assert_eq!(h, PINNED_INTRA_VARIANCE_DIGEST, "digest {h:#018x}");
}

// ---------------------------------------------------------------------
// Cold kernels: one digest over the inter- and intra-die PDF bits of
// real near-critical paths under the settings the kernels branch on.
// ---------------------------------------------------------------------

/// Digest of the grid `lo`/`step` bits and the density bits of
/// `inter_pdf` over [`cold_kernel_settings`] × the distinct near-critical
/// `(A, B)` of c432, c499, c880 and c1355 plus a zero key, then of
/// `intra_pdf` at those paths' eq. (14) variances at Q = 100 and Q = 37.
/// Taken before the per-thread inter-die basis, the threshold binning and
/// the shared Gaussian edge CDFs; a change here means a kernel's output
/// bits changed.
const PINNED_COLD_KERNEL_DIGEST: u64 = 0x5411_544e_b811_1d3f;

/// The inter-die settings the digest sweeps: the paper's model at
/// QUALITYinter = 50, a half inter-die share, a uniform marginal, a
/// coarser and a finer grid, and a zero inter-die share (the nominal
/// delta).
fn cold_kernel_settings() -> [(LayerModel, Marginal, usize); 6] {
    [
        (LayerModel::date05(), Marginal::Gaussian, 50),
        (LayerModel::with_inter_share(0.5), Marginal::Gaussian, 50),
        (LayerModel::date05(), Marginal::Uniform, 50),
        (LayerModel::date05(), Marginal::Gaussian, 24),
        (LayerModel::date05(), Marginal::Gaussian, 80),
        (LayerModel::with_inter_share(0.0), Marginal::Gaussian, 50),
    ]
}

#[test]
fn cold_kernel_output_bits_are_pinned() {
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let layers = LayerModel::date05();
    let mut keys = Vec::new();
    let mut variances = Vec::new();
    let (mut seen_ab, mut seen_var) = (
        std::collections::HashSet::new(),
        std::collections::HashSet::new(),
    );
    for bench in [
        Benchmark::C432,
        Benchmark::C499,
        Benchmark::C880,
        Benchmark::C1355,
    ] {
        let (placement, timing, paths) = near_critical(bench, 0.05);
        for path in &paths {
            let ab = timing.path_alpha_beta(path);
            if seen_ab.insert((ab.alpha.to_bits(), ab.beta.to_bits())) {
                keys.push(ab);
            }
            let coeffs = path_coefficients(path, &timing, &placement, &layers);
            let var = intra_variance(&coeffs, &layers, &vars).expect("variance");
            if seen_var.insert(var.to_bits()) {
                variances.push(var);
            }
        }
    }
    keys.push(AlphaBeta {
        alpha: 0.0,
        beta: 0.0,
    });
    let fold = |h: u64, pdf: Pdf| {
        let g = pdf.grid();
        let words = [g.lo().to_bits(), g.step().to_bits()];
        words
            .into_iter()
            .chain(pdf.density().iter().map(|d| d.to_bits()))
            .fold(h, fnv1a)
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (layers, marginal, quality) in &cold_kernel_settings() {
        for ab in &keys {
            let pdf = inter_pdf(ab, &tech, &vars, layers, *marginal, *quality)
                .unwrap_or_else(|e| panic!("{ab:?} {marginal:?} Q={quality}: {e}"));
            h = fold(h, pdf);
        }
    }
    for quality in [100, 37] {
        for &var in &variances {
            h = fold(h, intra_pdf(var, vars.trunc_k, quality).expect("intra pdf"));
        }
    }
    assert_eq!(
        (keys.len(), variances.len()),
        (80, 79),
        "distinct keys, variances"
    );
    assert_eq!(h, PINNED_COLD_KERNEL_DIGEST, "digest {h:#018x}");
}

// ---------------------------------------------------------------------
// The block-based baseline: one digest over its output bits.
// ---------------------------------------------------------------------

/// Digest of `block_based_sta` on c432 and c499 (unplaced timing,
/// QUALITY = 50): the circuit PDF, then every primary-output PDF in
/// netlist output order, each as grid `lo`, `step`, length and density
/// bits. Taken on the level-order schedule; a change here means the
/// baseline's propagation changed.
const PINNED_BLOCK_BASED_DIGEST: u64 = 0x63ab_67d9_7c0c_ff3a;

#[test]
fn block_based_output_bits_are_pinned() {
    use statim::core::block_based::block_based_sta;
    use statim::core::characterize::characterize;
    let tech = Technology::cmos130();
    let vars = Variations::date05();
    let fold = |h: u64, pdf: &Pdf| {
        let grid = pdf.grid();
        [grid.lo().to_bits(), grid.step().to_bits(), pdf.len() as u64]
            .into_iter()
            .chain(pdf.density().iter().map(|d| d.to_bits()))
            .fold(h, fnv1a)
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    for bench in [Benchmark::C432, Benchmark::C499] {
        let circuit = iscas85::generate(bench);
        let timing = characterize(&circuit, &tech).expect("characterize");
        let r = block_based_sta(&circuit, &timing, &vars, 50).expect("block-based");
        h = fold(h, &r.circuit_pdf);
        h = fnv1a(h, r.po_pdfs.len() as u64);
        for (_, pdf) in &r.po_pdfs {
            h = fold(h, pdf);
        }
    }
    assert_eq!(h, PINNED_BLOCK_BASED_DIGEST, "digest {h:#018x}");
}
