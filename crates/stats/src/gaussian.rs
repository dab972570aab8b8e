//! Normal-distribution utilities.
//!
//! The paper models every process/environment parameter as a Gaussian
//! truncated at its ±6σ points. This module provides the error function,
//! the standard normal PDF/CDF/quantile, and constructors for (truncated)
//! Gaussian [`Pdf`]s on uniform grids.

use crate::grid::Grid;
use crate::pdf::Pdf;
use crate::{Result, StatsError};

/// 1/√(2π).
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Error function `erf(x)`, accurate to near machine precision: Maclaurin
/// series for `|x| < 3`, complementary continued fraction beyond.
pub fn erf(x: f64) -> f64 {
    if x < 0.0 {
        return -erf(-x);
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < 3.0 {
        erf_series(x)
    } else {
        1.0 - erfc_cf(x)
    }
}

/// Complementary error function `1 − erf(x)`, accurate in both tails.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 3.0 {
        1.0 - erf_series(x)
    } else {
        erfc_cf(x)
    }
}

/// Maclaurin series `erf(x) = 2/√π · Σ (−1)ⁿ x^{2n+1} / (n!(2n+1))`,
/// adequate for `0 ≤ x < 3` in double precision.
fn erf_series(x: f64) -> f64 {
    use std::f64::consts::FRAC_2_SQRT_PI;
    let x2 = x * x;
    let mut term = x;
    let mut sum = x;
    let mut n = 1u32;
    loop {
        term *= -x2 / n as f64;
        let add = term / (2 * n + 1) as f64;
        sum += add;
        if add.abs() < 1e-18 * sum.abs().max(1e-300) || n > 200 {
            break;
        }
        n += 1;
    }
    FRAC_2_SQRT_PI * sum
}

/// Continued fraction `√π·e^{x²}·erfc(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …))))`
/// evaluated backward (stable) with 60 levels; for `x ≥ 3` this is accurate
/// to machine precision.
fn erfc_cf(x: f64) -> f64 {
    const SQRT_PI: f64 = 1.772_453_850_905_516;
    let mut tail = 0.0;
    for n in (1..=60).rev() {
        tail = (n as f64 / 2.0) / (x + tail);
    }
    (-x * x).exp() / SQRT_PI / (x + tail)
}

/// Standard normal density φ(z).
pub fn phi(z: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Standard normal CDF Φ(z).
pub fn big_phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF (Acklam's algorithm, relative error
/// < 1.15·10⁻⁹), refined with one Halley step.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] unless `0 < p < 1`.
pub fn inv_phi(p: f64) -> Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidProbability { value: p });
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement against the accurate CDF.
    let e = big_phi(x) - p;
    let u = e / phi(x).max(f64::MIN_POSITIVE);
    Ok(x - u / (1.0 + x * u / 2.0))
}

/// A Gaussian random variable `N(mean, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean μ.
    pub mean: f64,
    /// Standard deviation σ (> 0).
    pub sigma: f64,
}

impl Gaussian {
    /// Creates a Gaussian.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma <= 0` or either parameter is non-finite.
    pub fn new(mean: f64, sigma: f64) -> Result<Self> {
        if !mean.is_finite() || !sigma.is_finite() {
            return Err(StatsError::NonFinite {
                what: "gaussian parameters",
            });
        }
        if sigma <= 0.0 {
            return Err(StatsError::NonPositiveScale { value: sigma });
        }
        Ok(Gaussian { mean, sigma })
    }

    /// Density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        phi((x - self.mean) / self.sigma) / self.sigma
    }

    /// CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        big_phi((x - self.mean) / self.sigma)
    }

    /// Quantile at probability `p`.
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError::InvalidProbability`] from [`inv_phi`].
    pub fn quantile(&self, p: f64) -> Result<f64> {
        Ok(self.mean + self.sigma * inv_phi(p)?)
    }
}

/// Discretizes `N(mean, sigma²)` truncated at `mean ± trunc_k·sigma` onto a
/// grid of `quality` cells, normalized. The paper uses `trunc_k = 6`.
///
/// Cell densities use exact CDF differences so the grid mass is correct to
/// machine precision regardless of `quality`. Each of the `quality + 1`
/// edge CDFs is evaluated once and shared by the two cells it bounds.
///
/// # Panics
///
/// Panics if `sigma <= 0`, `trunc_k <= 0` or `quality == 0` — these are
/// programmer errors in experiment configuration. Use
/// [`try_gaussian_pdf`] for fallible construction.
pub fn gaussian_pdf(mean: f64, sigma: f64, trunc_k: f64, quality: usize) -> Pdf {
    try_gaussian_pdf(mean, sigma, trunc_k, quality)
        .expect("invalid Gaussian discretization parameters")
}

/// Fallible version of [`gaussian_pdf`].
///
/// # Errors
///
/// Returns an error if `sigma <= 0`, `trunc_k <= 0` or `quality == 0`.
pub fn try_gaussian_pdf(mean: f64, sigma: f64, trunc_k: f64, quality: usize) -> Result<Pdf> {
    let g = Gaussian::new(mean, sigma)?;
    if trunc_k <= 0.0 || !trunc_k.is_finite() {
        return Err(StatsError::NonPositiveScale { value: trunc_k });
    }
    let grid = Grid::over(mean - trunc_k * sigma, mean + trunc_k * sigma, quality)?;
    let mut density = Vec::with_capacity(quality);
    let step = grid.step();
    let mut below = g.cdf(grid.edge(0));
    for i in 0..quality {
        let above = g.cdf(grid.edge(i + 1));
        density.push(((above - below) / step).max(0.0));
        below = above;
    }
    Pdf::new(grid, density)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from tables.
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.842_700_79).abs() < 2e-7);
        assert!((erf(2.0) - 0.995_322_27).abs() < 2e-7);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12);
        assert!((erf(6.0) - 1.0).abs() < 1e-9);
        assert!((erfc(1.0) - 0.157_299_21).abs() < 2e-7);
    }

    #[test]
    fn big_phi_symmetry_and_values() {
        assert!((big_phi(0.0) - 0.5).abs() < 1e-12);
        assert!((big_phi(1.0) - 0.841_344_75).abs() < 2e-7);
        assert!((big_phi(-1.96) - 0.024_997_9).abs() < 2e-6);
        assert!((big_phi(3.0) - 0.998_650_1).abs() < 2e-6);
    }

    #[test]
    fn inv_phi_round_trips() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let z = inv_phi(p).unwrap();
            assert!((big_phi(z) - p).abs() < 1e-9, "p={p}");
        }
        assert!(inv_phi(0.0).is_err());
        assert!(inv_phi(1.0).is_err());
        assert!(inv_phi(-0.5).is_err());
    }

    #[test]
    fn gaussian_struct_rejects_bad() {
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn gaussian_pdf_moments() {
        let p = gaussian_pdf(100.0, 7.0, 6.0, 400);
        assert!((p.mass() - 1.0).abs() < 1e-9);
        assert!((p.mean() - 100.0).abs() < 1e-6);
        assert!((p.std_dev() - 7.0).abs() < 0.01);
    }

    #[test]
    fn gaussian_pdf_paper_quality() {
        // At the paper's QUALITYintra = 100 the 3σ point is still accurate.
        let p = gaussian_pdf(0.0, 1.0, 6.0, 100);
        assert!((p.sigma_point(3.0) - 3.0).abs() < 0.02);
        assert!((p.cdf(0.0) - 0.5).abs() < 0.01);
    }

    #[test]
    fn truncation_limits_support() {
        let p = gaussian_pdf(0.0, 1.0, 3.0, 100);
        assert_eq!(p.grid().lo(), -3.0);
        assert_eq!(p.grid().hi(), 3.0);
        // Truncation at 3σ shrinks the variance below 1.
        assert!(p.variance() < 1.0);
        assert!(p.variance() > 0.9);
    }

    #[test]
    fn try_gaussian_pdf_rejects_bad() {
        assert!(try_gaussian_pdf(0.0, -1.0, 6.0, 10).is_err());
        assert!(try_gaussian_pdf(0.0, 1.0, 0.0, 10).is_err());
        assert!(try_gaussian_pdf(0.0, 1.0, 6.0, 0).is_err());
    }

    #[test]
    fn gaussian_quantile_matches_cdf() {
        let g = Gaussian::new(5.0, 2.0).unwrap();
        let x = g.quantile(0.9).unwrap();
        assert!((g.cdf(x) - 0.9).abs() < 1e-9);
    }
}
