//! Per-path probabilistic analysis: intra PDF ⊛ inter PDF → total delay
//! PDF, plus the scalar summary the ranking uses.

use crate::cache::AnalysisCache;
use crate::characterize::CircuitTiming;
use crate::correlation::LayerModel;
use crate::intra::{intra_pdf, intra_pdf_numerical, intra_variance, path_coefficients};
use crate::supervise::KernelResult;
use crate::worst_case::worst_case_path_delay_at;
use crate::{inter, Result};
use statim_netlist::{GateId, Placement};
use statim_process::delay::CornerSpec;
use statim_process::param::Variations;
use statim_process::Technology;
use statim_stats::convolve::{sum_pdf_resampled_with, ConvolveBackend};
use statim_stats::{Marginal, Pdf};

/// How the intra-die PDF is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraModel {
    /// Closed-form zero-mean Gaussian from the eq. (14) variance — valid
    /// for Gaussian inputs, `O(QUALITYintra)` (the paper's default).
    #[default]
    GaussianClosedForm,
    /// Numerical per-RV convolution, `O(Ω·QUALITYintra²)` — exact for any
    /// input [`Marginal`] (the generality the paper claims for the
    /// layering approach).
    Numerical,
}

/// Numerical settings for a path analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSettings {
    /// Process variations.
    pub vars: Variations,
    /// Spatial-correlation layer model.
    pub layers: LayerModel,
    /// Input marginal shape for every parameter (paper: Gaussian).
    pub marginal: Marginal,
    /// Intra-die PDF computation.
    pub intra_model: IntraModel,
    /// Convolution kernel for the intra- and total-delay PDFs. `Grid`
    /// (the default) is the bit-identical reference; `Fft` is the
    /// `O(Q log Q)` spectral route, equal to tolerance.
    pub backend: ConvolveBackend,
    /// Discretization of the intra-die PDF (paper: 100).
    pub quality_intra: usize,
    /// Discretization of the inter-die PDF (paper: 50).
    pub quality_inter: usize,
    /// Confidence multiple for the ranking point (paper: 3 ⇒ 3σ point).
    pub sigma_rank: f64,
    /// Corner for the worst-case comparison (paper: 3σ).
    pub corner: CornerSpec,
}

impl AnalysisSettings {
    /// The paper's settings: DATE'05 variations, the 4+random layer
    /// model, Gaussian inputs, closed-form intra, QUALITYintra = 100,
    /// QUALITYinter = 50, 3σ ranking, 3σ corner.
    pub fn date05() -> Self {
        AnalysisSettings {
            vars: Variations::date05(),
            layers: LayerModel::date05(),
            marginal: Marginal::Gaussian,
            intra_model: IntraModel::GaussianClosedForm,
            backend: ConvolveBackend::Grid,
            quality_intra: 100,
            quality_inter: 50,
            sigma_rank: 3.0,
            corner: CornerSpec::three_sigma(),
        }
    }
}

/// The probabilistic analysis of one path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAnalysis {
    /// The path's gates, input side first.
    pub gates: Vec<GateId>,
    /// Deterministic (nominal) path delay, seconds.
    pub det_delay: f64,
    /// Worst-case corner delay, seconds.
    pub worst_case: f64,
    /// Mean of the total delay PDF, seconds. Not equal to `det_delay`:
    /// the inter-die delay is non-linear, so "the expected value of the
    /// delay is not the delay of the expected values" (the paper's
    /// emphasis).
    pub mean: f64,
    /// Standard deviation of the total delay PDF, seconds.
    pub sigma: f64,
    /// Standard deviation of the inter-die component alone.
    pub inter_sigma: f64,
    /// Standard deviation of the intra-die component alone.
    pub intra_sigma: f64,
    /// The confidence point used for ranking: `mean + sigma_rank·σ`.
    pub confidence_point: f64,
    /// Total delay PDF (intra ⊛ inter).
    pub total_pdf: Pdf,
    /// Intra-die delay PDF (zero-mean Gaussian of eq. (14) variance).
    pub intra_pdf: Pdf,
    /// Inter-die delay PDF (numerically computed, non-Gaussian).
    pub inter_pdf: Pdf,
}

impl PathAnalysis {
    /// Whether every kernel result — the scalar summary and every cell
    /// of the three delay PDFs — is finite. Paths failing this are
    /// quarantined by the engine's graceful-degradation logic rather
    /// than ranked. (Scanning the densities matters: a single poisoned
    /// PDF cell can leave the moments finite while the distribution is
    /// garbage.)
    pub fn kernel_is_finite(&self) -> bool {
        self.det_delay.is_finite()
            && self.worst_case.is_finite()
            && self.mean.is_finite()
            && self.sigma.is_finite()
            && self.inter_sigma.is_finite()
            && self.intra_sigma.is_finite()
            && self.confidence_point.is_finite()
            && [&self.total_pdf, &self.intra_pdf, &self.inter_pdf]
                .iter()
                .all(|p| p.density().iter().all(|d| d.is_finite()))
    }
}

impl KernelResult for PathAnalysis {
    const NOUN: &'static str = "path";
    const NON_FINITE: &'static str = "non-finite kernel result (mean, σ or confidence point)";
    fn is_finite(&self) -> bool {
        self.kernel_is_finite()
    }
}

/// Analyzes one path end-to-end (the "probabilistic timing analysis"
/// block of the paper's Fig. 1).
///
/// # Errors
///
/// Propagates numerical and configuration failures.
pub fn analyze_path(
    path: &[GateId],
    timing: &CircuitTiming,
    placement: &Placement,
    tech: &Technology,
    settings: &AnalysisSettings,
) -> Result<PathAnalysis> {
    analyze_path_cached(path, timing, placement, tech, settings, None)
}

/// [`analyze_path`] with an optional shared memoization cache.
///
/// With `Some(cache)` the three pure per-path kernels — the corner
/// operating point, the closed-form intra PDF (keyed by the eq. (14)
/// variance bits) and the inter PDF (keyed by the exact bits of the
/// summed `(A, B)` coefficients) — are looked up before computing. The
/// keys carry the *exact* f64 bit patterns of every varying input, so a
/// hit returns precisely what a recompute would: results are
/// bit-identical with the cache on or off. The `Numerical` intra model
/// depends on the full per-RV coefficient set, not just the total
/// variance, and is never cached.
///
/// # Errors
///
/// Propagates numerical and configuration failures.
pub fn analyze_path_cached(
    path: &[GateId],
    timing: &CircuitTiming,
    placement: &Placement,
    tech: &Technology,
    settings: &AnalysisSettings,
    cache: Option<&AnalysisCache>,
) -> Result<PathAnalysis> {
    let det_delay = timing.path_delay(path);
    let corner_pt = match cache {
        Some(c) => c.corner_point(|| settings.corner.worst_point(tech, &settings.vars)),
        None => settings.corner.worst_point(tech, &settings.vars),
    };
    let worst_case = worst_case_path_delay_at(path, timing, tech, &corner_pt)?;

    // Intra: eq. (14) variance (closed form, Gaussian inputs) or the
    // per-RV numerical convolution (any marginal).
    let coeffs = path_coefficients(path, timing, placement, &settings.layers);
    let intra = match settings.intra_model {
        IntraModel::GaussianClosedForm => {
            let var_intra = intra_variance(&coeffs, &settings.layers, &settings.vars)?;
            let compute = || intra_pdf(var_intra, settings.vars.trunc_k, settings.quality_intra);
            match cache {
                Some(c) => c.intra_pdf(var_intra, compute)?,
                None => compute()?,
            }
        }
        IntraModel::Numerical => intra_pdf_numerical(
            &coeffs,
            &settings.layers,
            &settings.vars,
            settings.marginal,
            settings.quality_intra,
            settings.backend,
        )?,
    };

    // Inter: numerical non-linear PDF.
    let ab = timing.path_alpha_beta(path);
    let compute_inter = || {
        inter::inter_pdf(
            &ab,
            tech,
            &settings.vars,
            &settings.layers,
            settings.marginal,
            settings.quality_inter,
        )
    };
    let inter = match cache {
        Some(c) => c.inter_pdf(&ab, compute_inter)?,
        None => compute_inter()?,
    };

    // Total: convolution (paper: O(QUALITY²); O(Q log Q) on Fft).
    let total = sum_pdf_resampled_with(
        settings.backend,
        &intra,
        &inter,
        settings.quality_intra.max(settings.quality_inter),
    )?;

    let mean = total.mean();
    let sigma = total.std_dev();
    Ok(PathAnalysis {
        gates: path.to_vec(),
        det_delay,
        worst_case,
        mean,
        sigma,
        inter_sigma: inter.std_dev(),
        intra_sigma: intra.std_dev(),
        confidence_point: mean + settings.sigma_rank * sigma,
        total_pdf: total,
        intra_pdf: intra,
        inter_pdf: inter,
    })
}

impl PathAnalysis {
    /// Worst-case overestimation relative to the confidence point, in
    /// percent — the paper's headline statistic (Table 2, column 5).
    pub fn overestimation_pct(&self) -> f64 {
        (self.worst_case - self.confidence_point) / self.confidence_point * 100.0
    }

    /// Number of gates on the path (Table 2, column 10).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::longest_path::{critical_path, topo_labels};
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::PlacementStyle;

    fn critical_analysis(bench: Benchmark) -> PathAnalysis {
        let c = iscas85::generate(bench);
        let tech = Technology::cmos130();
        let t = characterize(&c, &tech).unwrap();
        let labels = topo_labels(&c, &t).unwrap();
        let cp = critical_path(&c, &t, &labels).unwrap();
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        analyze_path(&cp, &t, &p, &tech, &AnalysisSettings::date05()).unwrap()
    }

    #[test]
    fn c432_shape_matches_table2() {
        // Paper row c432: det 266.771 ps, mean 266.640 ps (≈ det), 3σ
        // point 347.996 ps (≈ 1.30× mean), worst-case +56.6% over 3σ.
        let a = critical_analysis(Benchmark::C432);
        let det_ps = a.det_delay * 1e12;
        assert!((150.0..400.0).contains(&det_ps), "det {det_ps} ps");
        // Mean within 2% of deterministic, but not identical (Jensen).
        assert!((a.mean - a.det_delay).abs() / a.det_delay < 0.02);
        assert!(a.mean != a.det_delay);
        // σ/mean around 10% (paper: 27 ps on 267 ps).
        let cv = a.sigma / a.mean;
        assert!((0.04..0.20).contains(&cv), "cv {cv}");
        // Worst-case overestimation in the paper's 40–75% band.
        let over = a.overestimation_pct();
        assert!((35.0..80.0).contains(&over), "overestimation {over}%");
    }

    #[test]
    fn sigma_decomposition_consistent() {
        // total σ² ≈ inter σ² + intra σ² (independent components).
        let a = critical_analysis(Benchmark::C499);
        let combined = (a.inter_sigma.powi(2) + a.intra_sigma.powi(2)).sqrt();
        assert!(
            (a.sigma - combined).abs() / combined < 0.05,
            "total {} vs components {}",
            a.sigma,
            combined
        );
    }

    #[test]
    fn confidence_point_is_mean_plus_3_sigma() {
        let a = critical_analysis(Benchmark::C880);
        assert!((a.confidence_point - (a.mean + 3.0 * a.sigma)).abs() < 1e-18);
        assert!(a.worst_case > a.confidence_point);
        assert!(a.confidence_point > a.det_delay);
    }

    #[test]
    fn longer_paths_have_larger_delay_and_sigma() {
        let c = iscas85::generate(Benchmark::C432);
        let tech = Technology::cmos130();
        let t = characterize(&c, &tech).unwrap();
        let labels = topo_labels(&c, &t).unwrap();
        let cp = critical_path(&c, &t, &labels).unwrap();
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let settings = AnalysisSettings::date05();
        let full = analyze_path(&cp, &t, &p, &tech, &settings).unwrap();
        let half = analyze_path(&cp[..cp.len() / 2], &t, &p, &tech, &settings).unwrap();
        assert!(full.mean > half.mean);
        assert!(full.sigma > half.sigma);
        assert_eq!(full.gate_count(), cp.len());
    }

    #[test]
    fn kernel_finiteness_covers_scalars_and_densities() {
        let a = critical_analysis(Benchmark::C432);
        assert!(a.kernel_is_finite());
        let mut poisoned_scalar = a.clone();
        poisoned_scalar.sigma = f64::NAN;
        assert!(!poisoned_scalar.kernel_is_finite());
        // A poisoned density cell must fail the check even when every
        // scalar is still finite. No public constructor can build such a
        // PDF, so this leg needs the fault-injection backdoor.
        #[cfg(feature = "fault-injection")]
        {
            let mut poisoned_cell = a;
            poisoned_cell.total_pdf = poisoned_cell.total_pdf.with_poisoned_cell(17);
            assert!(!poisoned_cell.kernel_is_finite());
        }
    }

    #[test]
    fn pdfs_are_normalized_and_ordered() {
        let a = critical_analysis(Benchmark::C432);
        for pdf in [&a.total_pdf, &a.intra_pdf, &a.inter_pdf] {
            assert!((pdf.mass() - 1.0).abs() < 1e-6);
        }
        // Intra is centred on zero; inter on the delay.
        assert!(a.intra_pdf.mean().abs() < 1e-15);
        assert!(a.inter_pdf.mean() > 0.0);
        assert!((a.total_pdf.mean() - a.inter_pdf.mean()).abs() < 2e-14);
    }
}
