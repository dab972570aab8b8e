//! Property-based tests for the PDF engine's core invariants.

use proptest::prelude::*;
use statim_stats::combine::{map1, map2, map3_tabulated};
use statim_stats::convolve::{sum_pdf, sum_pdf_resampled, sum_pdf_with, ConvolveBackend};
use statim_stats::gaussian::{big_phi, erf, gaussian_pdf, inv_phi, try_gaussian_pdf, Gaussian};
use statim_stats::sample::PdfSampler;
use statim_stats::{Grid, Pdf, StatsError};

/// Strategy: a valid normalized PDF on a random grid with random
/// (non-degenerate) densities.
fn arb_pdf() -> impl Strategy<Value = Pdf> {
    (
        -1e3..1e3f64,  // lo
        0.01..10.0f64, // step
        4usize..60,    // cells
        proptest::collection::vec(0.0..1e3f64, 60),
    )
        .prop_filter_map("needs positive mass", |(lo, step, n, raw)| {
            let grid = Grid::new(lo, step, n).ok()?;
            let density: Vec<f64> = raw[..n].to_vec();
            Pdf::new(grid, density).ok()
        })
}

fn arb_gaussian() -> impl Strategy<Value = Pdf> {
    (-1e3..1e3f64, 0.01..100.0f64, 20usize..150)
        .prop_map(|(mean, sigma, q)| gaussian_pdf(mean, sigma, 6.0, q))
}

proptest! {
    #[test]
    fn pdf_mass_is_one(pdf in arb_pdf()) {
        prop_assert!((pdf.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mean_within_support(pdf in arb_pdf()) {
        let m = pdf.mean();
        prop_assert!(m >= pdf.grid().lo() - 1e-9);
        prop_assert!(m <= pdf.grid().hi() + 1e-9);
    }

    #[test]
    fn variance_nonnegative_and_bounded(pdf in arb_pdf()) {
        let v = pdf.variance();
        prop_assert!(v >= 0.0);
        // Popoviciu: var ≤ (range/2)².
        let half = (pdf.grid().hi() - pdf.grid().lo()) / 2.0;
        prop_assert!(v <= half * half * (1.0 + 1e-9));
    }

    #[test]
    fn cdf_monotone(pdf in arb_pdf(), a in 0.0..1.0f64, b in 0.0..1.0f64) {
        let span = pdf.grid().hi() - pdf.grid().lo();
        let xa = pdf.grid().lo() + a * span;
        let xb = pdf.grid().lo() + b * span;
        let (lo, hi) = if xa <= xb { (xa, xb) } else { (xb, xa) };
        prop_assert!(pdf.cdf(lo) <= pdf.cdf(hi) + 1e-12);
        prop_assert!(pdf.cdf(pdf.grid().lo()) == 0.0);
        prop_assert!(pdf.cdf(pdf.grid().hi()) == 1.0);
    }

    #[test]
    fn quantile_inverts_cdf(pdf in arb_pdf(), p in 0.01..0.99f64) {
        let x = pdf.quantile(p).unwrap();
        // cdf(quantile(p)) ≈ p up to one cell of slack.
        let c = pdf.cdf(x);
        prop_assert!((c - p).abs() < 0.05 + 1e-9, "p={p} c={c}");
    }

    #[test]
    fn affine_transforms_moments(pdf in arb_pdf(), a in prop::sample::select(vec![-3.0, -1.0, 0.5, 2.0]), b in -100.0..100.0f64) {
        let t = pdf.affine(a, b).unwrap();
        prop_assert!((t.mass() - 1.0).abs() < 1e-9);
        prop_assert!((t.mean() - (a * pdf.mean() + b)).abs() < 1e-6 * (1.0 + pdf.mean().abs() * a.abs() + b.abs()));
        prop_assert!((t.variance() - a * a * pdf.variance()).abs() < 1e-6 * (1.0 + a * a * pdf.variance()));
    }

    #[test]
    fn resample_conserves_mass(pdf in arb_pdf(), n in 8usize..200) {
        let target = Grid::over(pdf.grid().lo() - 1.0, pdf.grid().hi() + 1.0, n).unwrap();
        let r = pdf.resample(target);
        prop_assert!((r.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convolution_adds_moments(a in arb_pdf(), b in arb_pdf()) {
        // Re-grid b onto a's step first.
        let cells = ((b.grid().hi() - b.grid().lo()) / a.grid().step()).ceil() as usize;
        let gb = Grid::new(b.grid().lo(), a.grid().step(), cells.max(1)).unwrap();
        let b2 = b.resample(gb).normalized().unwrap();
        let s = sum_pdf(&a, &b2).unwrap();
        prop_assert!((s.mean() - (a.mean() + b2.mean())).abs() < 1e-6 * (1.0 + s.mean().abs()));
        let var_sum = a.variance() + b2.variance();
        prop_assert!((s.variance() - var_sum).abs() < 1e-6 * (1.0 + var_sum));
    }

    #[test]
    fn resampled_convolution_matches_gaussian_theory(
        m1 in -50.0..50.0f64, s1 in 0.5..20.0f64,
        m2 in -50.0..50.0f64, s2 in 0.5..20.0f64,
    ) {
        let a = gaussian_pdf(m1, s1, 6.0, 120);
        let b = gaussian_pdf(m2, s2, 6.0, 80);
        let s = sum_pdf_resampled(&a, &b, 150).unwrap();
        prop_assert!((s.mean() - (m1 + m2)).abs() < 0.02 * (s1 + s2));
        let sigma = (s1 * s1 + s2 * s2).sqrt();
        prop_assert!((s.std_dev() - sigma).abs() < 0.03 * sigma);
    }

    #[test]
    fn map1_linear_matches_affine(pdf in arb_gaussian(), a in prop::sample::select(vec![-2.0, 0.5, 1.5]), b in -10.0..10.0f64) {
        let m = map1(&pdf, pdf.len(), |x| a * x + b).unwrap();
        let t = pdf.affine(a, b).unwrap();
        let scale = t.std_dev().max(1e-9);
        prop_assert!((m.mean() - t.mean()).abs() < 0.1 * scale);
        prop_assert!((m.std_dev() - t.std_dev()).abs() < 0.1 * scale);
    }

    #[test]
    fn map2_mass_conserved(a in arb_gaussian(), b in arb_gaussian()) {
        let m = map2(&a, &b, 60, |x, y| x - 0.3 * y).unwrap();
        prop_assert!((m.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_stays_in_support(pdf in arb_pdf(), u in 0.0..1.0f64) {
        let s = PdfSampler::new(&pdf).unwrap();
        let x = s.inverse(u);
        prop_assert!(x >= pdf.grid().lo() - 1e-9);
        prop_assert!(x <= pdf.grid().hi() + 1e-9);
    }

    #[test]
    fn sampler_inverse_monotone(pdf in arb_pdf(), u1 in 0.0..1.0f64, u2 in 0.0..1.0f64) {
        let s = PdfSampler::new(&pdf).unwrap();
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(s.inverse(lo) <= s.inverse(hi) + 1e-12);
    }

    #[test]
    fn erf_is_odd_and_bounded(x in -10.0..10.0f64) {
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-12);
        prop_assert!(erf(x).abs() <= 1.0);
    }

    #[test]
    fn phi_round_trip(p in 0.001..0.999f64) {
        let z = inv_phi(p).unwrap();
        prop_assert!((big_phi(z) - p).abs() < 1e-8);
    }

    #[test]
    fn gaussian_cdf_quantile_roundtrip(mean in -100.0..100.0f64, sigma in 0.01..50.0f64, p in 0.01..0.99f64) {
        let g = Gaussian::new(mean, sigma).unwrap();
        let x = g.quantile(p).unwrap();
        prop_assert!((g.cdf(x) - p).abs() < 1e-8);
    }

    #[test]
    fn truncated_gaussian_sigma_never_exceeds_nominal(mean in -10.0..10.0f64, sigma in 0.1..10.0f64, k in 2.0..8.0f64) {
        let pdf = gaussian_pdf(mean, sigma, k, 150);
        // Truncation shrinks σ; midpoint discretization adds back at most
        // ~step²/12 of variance.
        let step = pdf.grid().step();
        let quantization = (sigma * sigma + step * step / 12.0).sqrt();
        prop_assert!(pdf.std_dev() <= quantization * (1.0 + 1e-9));
        prop_assert!((pdf.mean() - mean).abs() < 1e-6 * sigma.max(1.0));
    }

    #[test]
    fn mixture_mass_and_mean(a in arb_gaussian(), w in 0.0..1.0f64) {
        let b = a.affine(1.0, 5.0).unwrap();
        let m = a.mix(&b, w).unwrap();
        prop_assert!((m.mass() - 1.0).abs() < 1e-9);
        let expect = w * a.mean() + (1.0 - w) * b.mean();
        prop_assert!((m.mean() - expect).abs() < 0.05 * (1.0 + a.std_dev()));
    }

    // ---- Degenerate regimes: the robustness layer's contract is that
    // ---- no NaN escapes the public statim-stats API — degenerate
    // ---- inputs either produce a finite PDF or a typed error.

    #[test]
    fn zero_and_negative_sigma_are_typed_errors(mean in -100.0..100.0f64, sigma in 0.0..10.0f64) {
        prop_assert!(try_gaussian_pdf(mean, 0.0, 6.0, 100).is_err());
        prop_assert!(try_gaussian_pdf(mean, -sigma.max(1e-300), 6.0, 100).is_err());
        prop_assert!(try_gaussian_pdf(mean, f64::NAN, 6.0, 100).is_err());
        prop_assert!(Gaussian::new(mean, 0.0).is_err());
    }

    #[test]
    fn single_cell_grid_stays_finite(lo in -1e3..1e3f64, step in 0.01..10.0f64, d in 0.1..1e3f64) {
        let grid = Grid::new(lo, step, 1).unwrap();
        let pdf = Pdf::new(grid, vec![d]).unwrap();
        prop_assert!((pdf.mass() - 1.0).abs() < 1e-9);
        prop_assert!(pdf.mean().is_finite());
        prop_assert!(pdf.variance().is_finite());
        prop_assert!(pdf.variance() >= 0.0);
        prop_assert!(pdf.std_dev().is_finite());
        prop_assert!(pdf.cdf(pdf.grid().lo()) == 0.0);
        prop_assert!(pdf.cdf(pdf.grid().hi()) == 1.0);
    }

    #[test]
    fn truncation_boundaries_pin_the_cdf(mean in -50.0..50.0f64, sigma in 0.1..20.0f64, k in 2.0..6.0f64) {
        // The paper truncates at ±kσ: all mass lives strictly inside
        // [mean − kσ, mean + kσ] and the CDF saturates exactly at the
        // grid edges — no leakage, no NaN at the boundary.
        let pdf = gaussian_pdf(mean, sigma, k, 120);
        prop_assert!(pdf.grid().lo() >= mean - k * sigma - 1e-6 * sigma);
        prop_assert!(pdf.grid().hi() <= mean + k * sigma + 1e-6 * sigma);
        prop_assert!(pdf.cdf(pdf.grid().lo()) == 0.0);
        prop_assert!(pdf.cdf(pdf.grid().hi()) == 1.0);
        prop_assert!(pdf.cdf(mean - (k + 1.0) * sigma) == 0.0);
        prop_assert!(pdf.cdf(mean + (k + 1.0) * sigma) == 1.0);
        prop_assert!(pdf.density().iter().all(|d| d.is_finite()));
    }

    #[test]
    fn delta_like_convolution_stays_finite(x in -50.0..50.0f64, m in -50.0..50.0f64, s in 0.5..10.0f64) {
        // A Dirac-like spike (σ = 0 component, e.g. a zero-variance
        // intra kernel) convolved with a smooth PDF must shift, not
        // corrupt, the distribution.
        let g = gaussian_pdf(m, s, 6.0, 100);
        let spike = Pdf::delta(Grid::new(x - 1.0, 0.02, 100).unwrap(), x).unwrap();
        let total = sum_pdf_resampled(&spike, &g, 120).unwrap();
        prop_assert!((total.mass() - 1.0).abs() < 1e-9);
        prop_assert!(total.density().iter().all(|d| d.is_finite()));
        prop_assert!((total.mean() - (spike.mean() + m)).abs() < 0.05 * s + 0.05);
        prop_assert!((total.std_dev() - s).abs() < 0.1 * s);
    }

    #[test]
    fn no_nan_escapes_derived_quantities(pdf in arb_pdf(), p in 0.01..0.99f64, t in 0.0..1.0f64) {
        prop_assert!(pdf.density().iter().all(|d| d.is_finite()));
        prop_assert!(pdf.mean().is_finite());
        prop_assert!(pdf.variance().is_finite());
        prop_assert!(pdf.std_dev().is_finite());
        let x = pdf.grid().lo() + t * (pdf.grid().hi() - pdf.grid().lo());
        prop_assert!(pdf.cdf(x).is_finite());
        prop_assert!(pdf.quantile(p).unwrap().is_finite());
    }

    #[test]
    fn fft_backend_matches_grid_pointwise(a in arb_pdf(), b in arb_pdf()) {
        // The spectral path must reproduce the direct cell-pair sum to
        // round-off on *arbitrary* operands, not just smooth ones.
        let cells = ((b.grid().hi() - b.grid().lo()) / a.grid().step()).ceil() as usize;
        let gb = Grid::new(b.grid().lo(), a.grid().step(), cells.max(1)).unwrap();
        let b = b.resample(gb).normalized().unwrap();
        let grid = sum_pdf_with(ConvolveBackend::Grid, &a, &b).unwrap();
        let fft = sum_pdf_with(ConvolveBackend::Fft, &a, &b).unwrap();
        prop_assert_eq!(grid.grid(), fft.grid());
        let peak = grid.density().iter().cloned().fold(0.0f64, f64::max);
        for (x, y) in grid.density().iter().zip(fft.density()) {
            prop_assert!((x - y).abs() <= 1e-10 * peak, "{x} vs {y} (peak {peak})");
        }
    }

    #[test]
    fn fft_impulse_is_an_identity_shift(pdf in arb_pdf(), offset in -50.0..50.0f64) {
        // Convolving with a single-cell operand must reproduce the other
        // operand's shape exactly, shifted by the impulse position.
        let impulse = Pdf::new(
            Grid::new(offset, pdf.grid().step(), 1).unwrap(),
            vec![1.0],
        ).unwrap();
        let out = sum_pdf_with(ConvolveBackend::Fft, &pdf, &impulse).unwrap();
        prop_assert_eq!(out.grid().len(), pdf.grid().len());
        let peak = pdf.density().iter().cloned().fold(0.0f64, f64::max);
        for (x, y) in pdf.density().iter().zip(out.density()) {
            prop_assert!((x - y).abs() <= 1e-10 * peak);
        }
        let shift = impulse.mean();
        prop_assert!((out.mean() - (pdf.mean() + shift)).abs() < 1e-9 * (1.0 + pdf.mean().abs() + shift.abs()));
    }

    #[test]
    fn fft_backend_preserves_mass_and_adds_moments(a in arb_pdf(), b in arb_pdf()) {
        let cells = ((b.grid().hi() - b.grid().lo()) / a.grid().step()).ceil() as usize;
        let gb = Grid::new(b.grid().lo(), a.grid().step(), cells.max(1)).unwrap();
        let b = b.resample(gb).normalized().unwrap();
        let c = sum_pdf_with(ConvolveBackend::Fft, &a, &b).unwrap();
        prop_assert!((c.mass() - 1.0).abs() < 1e-9);
        let mean_scale = 1.0 + a.mean().abs() + b.mean().abs();
        prop_assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-9 * mean_scale);
        let var_scale = 1.0 + a.variance() + b.variance();
        prop_assert!((c.variance() - (a.variance() + b.variance())).abs() < 1e-8 * var_scale);
    }

    #[test]
    fn fft_padding_round_trips_at_any_length(pdf in arb_pdf()) {
        // Output lengths here are n (impulse case) — rarely a power of
        // two — so the internal pad-to-2^k and truncate must be lossless.
        let impulse = Pdf::new(
            Grid::new(0.0, pdf.grid().step(), 1).unwrap(),
            vec![1.0],
        ).unwrap();
        let out = sum_pdf_with(ConvolveBackend::Fft, &impulse, &pdf).unwrap();
        prop_assert_eq!(out.grid().len(), pdf.grid().len());
        for (x, y) in pdf.density().iter().zip(out.density()) {
            prop_assert!((x - y).abs() <= 1e-12 * (1.0 + x.abs()));
        }
    }
}

// ---------------------------------------------------------------------
// Threshold binning: `map2` and `map3_tabulated` against the plain
// per-value `clamp_cell_of` loop they binned with before, bit for bit.
// ---------------------------------------------------------------------

/// A PDF on a random grid of fewer than `cells` cells, about a quarter
/// of whose densities are exact zeros (the kernels skip zero weights).
fn arb_sparse_pdf(cells: usize) -> impl Strategy<Value = Pdf> {
    (
        -1e3..1e3f64,
        0.01..10.0f64,
        1..cells,
        proptest::collection::vec(-300.0..1e3f64, cells),
    )
        .prop_filter_map("needs positive mass", |(lo, step, n, raw)| {
            let density = raw[..n].iter().map(|d| d.max(0.0)).collect();
            Pdf::new(Grid::new(lo, step, n).ok()?, density).ok()
        })
}

/// Output grids worth binning onto: values as drawn, shifted far below
/// zero (a negative `lo`), squeezed onto a huge offset (an `lo` so much
/// larger than the step that most cells are empty), and constant (a
/// padded single value).
fn arb_shape() -> impl Strategy<Value = (f64, f64)> {
    prop::sample::select(vec![(0.0, 1.0), (-1e4, 1.0), (1e9, 1e-7), (3.0, 0.0)])
}

fn arb_quality() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1, 2, 13, 50, 200])
}

/// `combine`'s output grid for values in `[lo, hi]`.
fn plain_output_grid(lo: f64, hi: f64, quality: usize) -> Result<Grid, StatsError> {
    let (lo, hi) = if hi - lo > 0.0 {
        (lo, hi)
    } else {
        let pad = lo.abs().max(1.0) * 1e-9;
        (lo - pad, hi + pad)
    };
    let span = hi - lo;
    Grid::over(lo, hi + span * 1e-12 + f64::MIN_POSITIVE, quality)
}

/// Ranges `(value, mass)` points onto their output grid and adds every
/// mass into `clamp_cell_of`'s cell in order.
fn plain_binned(points: &[(f64, Option<f64>)], quality: usize) -> Result<Pdf, StatsError> {
    let lo = points.iter().fold(f64::INFINITY, |m, p| m.min(p.0));
    let hi = points.iter().fold(f64::NEG_INFINITY, |m, p| m.max(p.0));
    let grid = plain_output_grid(lo, hi, quality)?;
    let mut density = vec![0.0f64; grid.len()];
    for &(v, mass) in points {
        if let Some(mass) = mass {
            density[grid.clamp_cell_of(v)] += mass;
        }
    }
    let density = density.iter().map(|m| m / grid.step()).collect();
    Pdf::new(grid, density)
}

/// `map2` binned point by point.
fn plain_map2(
    a: &Pdf,
    b: &Pdf,
    quality: usize,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Pdf, StatsError> {
    let (ma, mb) = (a.grid().step(), b.grid().step());
    let mut points = Vec::new();
    for (x, &dx) in a.grid().centers().zip(a.density()) {
        let wx = dx * ma;
        for (y, &dy) in b.grid().centers().zip(b.density()) {
            points.push((f(x, y), Some(wx * dy * mb)));
        }
    }
    plain_binned(&points, quality)
}

/// `map3_tabulated` binned point by point, in its (i, j, k) order; a
/// zero-weight row or column ranges but never bins.
fn plain_map3_tabulated(
    (x, y, z): (&Pdf, &Pdf, &Pdf),
    quality: usize,
    (alpha, gy): (f64, &[f64]),
    (beta, hz): (f64, &[f64]),
) -> Result<Pdf, StatsError> {
    let (ny, nz) = (y.grid().len(), z.grid().len());
    let (mx, my, mz) = (x.grid().step(), y.grid().step(), z.grid().step());
    let mut points = Vec::new();
    for (i, &dx) in x.density().iter().enumerate() {
        let wx = dx * mx;
        for (j, &dy) in y.density().iter().enumerate() {
            let wxy = wx * dy * my;
            for (k, &dz) in z.density().iter().enumerate() {
                let v = alpha * gy[i * ny + j] + beta * hz[i * nz + k];
                let binned = wx != 0.0 && wxy != 0.0;
                points.push((v, binned.then_some(wxy * dz * mz)));
            }
        }
    }
    plain_binned(&points, quality)
}

proptest! {
    #[test]
    fn map2_bins_bitwise_like_the_plain_loop(
        a in arb_sparse_pdf(40),
        b in arb_sparse_pdf(40),
        shape in arb_shape(),
        quality in arb_quality(),
    ) {
        let (shift, scale) = shape;
        let f = |x: f64, y: f64| shift + scale * 10.0 * (x * 12.9898 + y * 78.233).sin();
        let got = map2(&a, &b, quality, f);
        let want = plain_map2(&a, &b, quality, f);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn map3_tabulated_bins_bitwise_like_the_plain_loop(
        xyz in (arb_sparse_pdf(12), arb_sparse_pdf(12), arb_sparse_pdf(12)),
        tables in (proptest::collection::vec(-10.0..10.0f64, 144), proptest::collection::vec(-10.0..10.0f64, 144)),
        shape in arb_shape(),
        alpha in prop::sample::select(vec![-2.5, -1.0, -0.0, 0.0, 0.75, 3.0]),
        beta in -4.0..4.0f64,
        quality in arb_quality(),
    ) {
        let ((x, y, z), (shift, scale)) = (xyz, shape);
        let (nx, ny, nz) = (x.grid().len(), y.grid().len(), z.grid().len());
        let table = |raw: &[f64], n: usize| -> Vec<f64> {
            raw[..nx * n].iter().map(|t| shift + scale * t).collect()
        };
        let (gy, hz) = (table(&tables.0, ny), table(&tables.1, nz));
        let got = map3_tabulated(&x, &y, &z, quality, (alpha, &gy), (beta, &hz));
        let want = plain_map3_tabulated((&x, &y, &z), quality, (alpha, &gy), (beta, &hz));
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}
