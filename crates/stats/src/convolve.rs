//! Density of the sum of independent random variables.
//!
//! The paper evaluates the total path delay as the **convolution** of the
//! intra-die and inter-die delay PDFs, at a cost of `O(QUALITY²)` for
//! QUALITY-point discretizations (their §3.2). This module implements that
//! kernel for piecewise-constant densities on uniform grids, with a
//! selectable [`ConvolveBackend`]: the direct grid accumulation (the
//! bit-identical reference) or the `O(Q log Q)` spectral kernel of
//! [`fft`](crate::fft), which lands on the same output grid and is
//! validated against the grid backend to tolerance.

use crate::grid::{steps_compatible, Grid};
use crate::pdf::Pdf;
use crate::{Result, StatsError};

/// Which numerical kernel computes a convolution.
///
/// Both backends share the same contract — identical output grid,
/// identical normalization — and differ only in arithmetic route:
/// `Grid` accumulates cell products directly and is the bitwise-stable
/// reference; `Fft` multiplies spectra in `O(n log n)` and agrees with
/// `Grid` up to floating-point round-off (it is deterministic
/// run-to-run, but not bit-identical to `Grid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvolveBackend {
    /// Direct `O(nₐ·n_b)` grid accumulation (the default).
    #[default]
    Grid,
    /// Radix-2 real-FFT spectral convolution, `O(n log n)`.
    Fft,
}

impl ConvolveBackend {
    /// Stable numeric tag, folded into kernel-cache fingerprints so
    /// grid- and FFT-computed kernels can never collide in a shared
    /// store.
    pub fn tag(self) -> u64 {
        match self {
            ConvolveBackend::Grid => 0,
            ConvolveBackend::Fft => 1,
        }
    }

    /// The lowercase name used by CLI flags and protocol options.
    pub fn name(self) -> &'static str {
        match self {
            ConvolveBackend::Grid => "grid",
            ConvolveBackend::Fft => "fft",
        }
    }
}

impl std::fmt::Display for ConvolveBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ConvolveBackend {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "grid" => Ok(ConvolveBackend::Grid),
            "fft" => Ok(ConvolveBackend::Fft),
            other => Err(format!("unknown backend `{other}` (grid or fft)")),
        }
    }
}

/// Density of `X + Y` for independent `X ~ a`, `Y ~ b`, convolved by
/// `backend`.
///
/// Both inputs must share the same grid step (re-sample one of them with
/// [`Pdf::resample`] if they do not). The result lives on the grid whose
/// span is the Minkowski sum of the input spans (`lo = loₐ + lo_b +
/// step/2`, `nₐ + n_b − 1` cells), and is normalized. Midpoint assignment
/// keeps mean and variance exact for either backend. [`Grid`]'s cost is
/// `O(nₐ · n_b)`, the paper's `O(QUALITY²)`; the FFT route clamps the
/// (round-off-level) negative excursions spectral evaluation can produce
/// back to zero before normalizing.
///
/// [`Grid`]: ConvolveBackend::Grid
///
/// # Errors
///
/// Returns [`StatsError::StepMismatch`] when the grid steps differ —
/// for every backend, checked before any kernel work.
///
/// # Examples
///
/// ```
/// use statim_stats::{Grid, Pdf, convolve::{sum_pdf_with, ConvolveBackend}};
/// let g = Grid::over(0.0, 1.0, 50).unwrap();
/// let u = Pdf::new(g, vec![1.0; 50]).unwrap();
/// let tri = sum_pdf_with(ConvolveBackend::Grid, &u, &u).unwrap(); // triangle on [0, 2]
/// assert!((tri.mean() - 1.0).abs() < 1e-9);
/// assert!((tri.mode() - 1.0).abs() < 0.03);
/// ```
pub fn sum_pdf_with(backend: ConvolveBackend, a: &Pdf, b: &Pdf) -> Result<Pdf> {
    let (ga, gb) = (a.grid(), b.grid());
    if !steps_compatible(ga.step(), gb.step()) {
        return Err(StatsError::StepMismatch {
            left: ga.step(),
            right: gb.step(),
        });
    }
    let step = ga.step();
    let n = ga.len() + gb.len() - 1;
    // Mass of cell pair (i, j) lands at the sum of the two cell centers,
    // lo_a + lo_b + (i + j + 1)·step — which must be the *center* of output
    // cell i + j, hence the half-step offset of the output grid. Midpoint
    // assignment keeps mean and variance exact, matching what a
    // QUALITY-point numerical convolution does.
    let grid = Grid::new(ga.lo() + gb.lo() + 0.5 * step, step, n)?;
    let da = a.density();
    let db = b.density();
    let density = match backend {
        ConvolveBackend::Grid => {
            let mut density = vec![0.0f64; n];
            for (i, &x) in da.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let xm = x * step;
                for (j, &y) in db.iter().enumerate() {
                    density[i + j] += xm * y;
                }
            }
            density
        }
        ConvolveBackend::Fft => {
            let scaled: Vec<f64> = da.iter().map(|&x| x * step).collect();
            let mut density = crate::fft::convolve_series(&scaled, db);
            // Spectral round-off can push exact zeros a few ulps below
            // zero; a density must be non-negative.
            for d in &mut density {
                if *d < 0.0 {
                    *d = 0.0;
                }
            }
            density
        }
    };
    Pdf::new(grid, density)
}

/// Convolves two PDFs with arbitrary (unequal) grids by `backend`, then
/// trims the result back to `quality` cells. This is the entry the
/// engine uses when intra and inter PDFs were built with different
/// QUALITY settings (the paper uses 100 and 50).
///
/// The coarser PDF is normally resampled onto the finer step (best
/// resolution); but when the steps are so disparate that this would
/// explode the cell count — e.g. a delta-like intra PDF against a wide
/// inter PDF — the roles flip, since a near-degenerate operand carries
/// no resolution worth preserving. This policy and the final trim are
/// backend-independent; only the inner convolution kernel changes.
///
/// # Errors
///
/// Propagates grid-construction failures.
pub fn sum_pdf_resampled_with(
    backend: ConvolveBackend,
    a: &Pdf,
    b: &Pdf,
    quality: usize,
) -> Result<Pdf> {
    let (fine, coarse) = if a.grid().step() <= b.grid().step() {
        (a, b)
    } else {
        (b, a)
    };
    let coarse_span = coarse.grid().hi() - coarse.grid().lo();
    let cells_on_fine = coarse_span / fine.grid().step();
    let (base, other) = if cells_on_fine <= (quality.max(64) * 64) as f64 {
        (fine, coarse)
    } else {
        (coarse, fine)
    };
    let span = other.grid().hi() - other.grid().lo();
    let cells = ((span / base.grid().step()).ceil() as usize).max(1);
    let go = Grid::new(other.grid().lo(), base.grid().step(), cells)?;
    let o2 = other.resample(go);
    let full = sum_pdf_with(backend, base, &o2)?;
    full.with_quality(quality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::gaussian_pdf;

    #[test]
    fn gaussian_sum_adds_moments() {
        // σ·QUALITY matched: span 12σ over 200·σ cells gives both grids
        // the step 0.06, so they convolve directly — no resampling. On
        // matched steps the half-step output alignment makes the result
        // exactly the distribution of the sum of the two discrete cell
        // RVs, so both moments are additive to round-off.
        let a = gaussian_pdf(3.0, 1.0, 6.0, 200);
        let b = gaussian_pdf(5.0, 2.0, 6.0, 400);
        assert_eq!(a.grid().step().to_bits(), b.grid().step().to_bits());
        let s = sum_pdf_with(ConvolveBackend::Grid, &a, &b).unwrap();
        assert!((s.mean() - (a.mean() + b.mean())).abs() < 1e-9);
        assert!((s.variance() - (a.variance() + b.variance())).abs() < 1e-9);
    }

    #[test]
    fn sum_is_commutative() {
        let g = Grid::over(0.0, 1.0, 30).unwrap();
        let a = Pdf::new(g, (0..30).map(|i| 1.0 + i as f64).collect()).unwrap();
        let b = Pdf::new(g, (0..30).map(|i| 30.0 - i as f64).collect()).unwrap();
        let ab = sum_pdf_with(ConvolveBackend::Grid, &a, &b).unwrap();
        let ba = sum_pdf_with(ConvolveBackend::Grid, &b, &a).unwrap();
        assert!((ab.mean() - ba.mean()).abs() < 1e-12);
        assert!((ab.variance() - ba.variance()).abs() < 1e-12);
    }

    #[test]
    fn step_mismatch_rejected() {
        let a = Pdf::new(Grid::new(0.0, 0.1, 10).unwrap(), vec![1.0; 10]).unwrap();
        let b = Pdf::new(Grid::new(0.0, 0.2, 10).unwrap(), vec![1.0; 10]).unwrap();
        assert!(matches!(
            sum_pdf_with(ConvolveBackend::Grid, &a, &b),
            Err(StatsError::StepMismatch { .. })
        ));
    }

    #[test]
    fn step_mismatch_rejected_by_every_backend() {
        // The compatibility gate runs before any kernel work, so both
        // backends fail the same way with the same typed error.
        let a = Pdf::new(Grid::new(0.0, 0.1, 10).unwrap(), vec![1.0; 10]).unwrap();
        let b = Pdf::new(Grid::new(0.0, 0.2, 10).unwrap(), vec![1.0; 10]).unwrap();
        for backend in [ConvolveBackend::Grid, ConvolveBackend::Fft] {
            match sum_pdf_with(backend, &a, &b) {
                Err(StatsError::StepMismatch { left, right }) => {
                    assert_eq!(left, 0.1);
                    assert_eq!(right, 0.2);
                }
                other => panic!("{backend}: expected StepMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn fft_backend_matches_grid_backend() {
        let a = gaussian_pdf(0.0, 10.0, 6.0, 173); // non-power-of-two sizes
        let b = gaussian_pdf(250.0, 25.0, 6.0, 100).resample(*a.grid());
        let g = sum_pdf_with(ConvolveBackend::Grid, &a, &b).unwrap();
        let f = sum_pdf_with(ConvolveBackend::Fft, &a, &b).unwrap();
        assert_eq!(g.grid(), f.grid());
        let peak = g.density().iter().fold(0.0f64, |m, &v| m.max(v));
        for (x, y) in g.density().iter().zip(f.density()) {
            assert!((x - y).abs() < 1e-12 * peak, "{x} vs {y}");
        }
        assert!((g.mean() - f.mean()).abs() < 1e-9 * g.mean().abs().max(1.0));
        assert!((g.variance() - f.variance()).abs() < 1e-9 * g.variance());
    }

    #[test]
    fn fft_resampled_matches_grid_resampled() {
        let intra = gaussian_pdf(0.0, 10.0, 6.0, 100);
        let inter = gaussian_pdf(250.0, 25.0, 6.0, 50);
        let g = sum_pdf_resampled_with(ConvolveBackend::Grid, &intra, &inter, 200).unwrap();
        let f = sum_pdf_resampled_with(ConvolveBackend::Fft, &intra, &inter, 200).unwrap();
        assert_eq!(g.grid(), f.grid());
        assert!((g.mean() - f.mean()).abs() < 1e-9 * g.mean());
        assert!((g.std_dev() - f.std_dev()).abs() < 1e-9 * g.std_dev());
    }

    #[test]
    fn resampled_convolution_handles_mixed_quality() {
        // Paper setting: intra at QUALITY 100, inter at QUALITY 50.
        let intra = gaussian_pdf(0.0, 10.0, 6.0, 100);
        let inter = gaussian_pdf(250.0, 25.0, 6.0, 50);
        let total = sum_pdf_resampled_with(ConvolveBackend::Grid, &intra, &inter, 200).unwrap();
        assert!((total.mean() - 250.0).abs() < 0.5);
        let sigma = (10.0f64 * 10.0 + 25.0 * 25.0).sqrt();
        assert!((total.std_dev() - sigma).abs() < 0.5);
        assert_eq!(total.len(), 200);
    }

    #[test]
    fn backend_parsing_round_trips() {
        assert_eq!("grid".parse::<ConvolveBackend>(), Ok(ConvolveBackend::Grid));
        assert_eq!("fft".parse::<ConvolveBackend>(), Ok(ConvolveBackend::Fft));
        assert_eq!(ConvolveBackend::Grid.to_string(), "grid");
        assert_eq!(ConvolveBackend::Fft.to_string(), "fft");
        assert_ne!(ConvolveBackend::Grid.tag(), ConvolveBackend::Fft.tag());
        assert!("spectral".parse::<ConvolveBackend>().is_err());
        assert_eq!(ConvolveBackend::default(), ConvolveBackend::Grid);
    }
}
