//! Property tests for the `statim-stats` kernels the SSTA flow leans
//! on hardest: resampled convolution, normalization preservation and the
//! Kolmogorov–Smirnov distance.

use proptest::prelude::*;
use statim::stats::convolve::{sum_pdf_resampled_with, sum_pdf_with, ConvolveBackend};
use statim::stats::gaussian::gaussian_pdf;
use statim::stats::{Grid, Pdf};

/// Strategy: a valid normalized PDF on a random grid.
fn arb_pdf() -> impl Strategy<Value = Pdf> {
    (
        -1e3..1e3f64,  // lo
        0.01..10.0f64, // step
        4usize..48,    // cells
        proptest::collection::vec(0.0..1e3f64, 48),
    )
        .prop_filter_map("needs positive mass", |(lo, step, n, raw)| {
            let grid = Grid::new(lo, step, n).ok()?;
            Pdf::new(grid, raw[..n].to_vec()).ok()
        })
}

fn arb_gaussian() -> impl Strategy<Value = Pdf> {
    (-500.0..500.0f64, 0.5..50.0f64, 30usize..120)
        .prop_map(|(mean, sigma, q)| gaussian_pdf(mean, sigma, 6.0, q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- sum_pdf_resampled_with: moment additivity --------------------

    #[test]
    fn resampled_convolution_adds_means(
        a in arb_pdf(),
        b in arb_pdf(),
        quality in 32usize..128,
    ) {
        let s = sum_pdf_resampled_with(ConvolveBackend::Grid, &a, &b, quality).unwrap();
        // Independent sum: E[X+Y] = E[X] + E[Y], up to the coarser
        // grid's cell width on each side.
        let tol = a.grid().step() + b.grid().step() + s.grid().step();
        let expect = a.mean() + b.mean();
        prop_assert!(
            (s.mean() - expect).abs() <= tol,
            "mean {} vs {expect}, tol {tol}", s.mean()
        );
    }

    #[test]
    fn resampled_convolution_adds_variances(
        a in arb_pdf(),
        b in arb_pdf(),
        quality in 32usize..128,
    ) {
        let s = sum_pdf_resampled_with(ConvolveBackend::Grid, &a, &b, quality).unwrap();
        // Var[X+Y] = Var[X] + Var[Y] for independent X, Y. Discretizing
        // onto cells of width h adds O(h²) per histogramming step, and
        // the shifted-impulse convolution can smear one source cell
        // across the span of the other, so allow a grid-scale band.
        let expect = a.variance() + b.variance();
        let h = a.grid().step().max(b.grid().step()).max(s.grid().step());
        let tol = 2.0 * h * h + 0.05 * expect + 1e-9;
        prop_assert!(
            (s.variance() - expect).abs() <= tol,
            "variance {} vs {expect}, tol {tol}", s.variance()
        );
    }

    // --- normalization is preserved by the pipeline stages ------------

    #[test]
    fn convolution_preserves_mass(
        // sum_pdf_with requires equal grid steps, so draw one step for both.
        pair in (
            -1e3..1e3f64,
            -1e3..1e3f64,
            0.01..10.0f64,
            4usize..48,
            4usize..48,
            proptest::collection::vec(0.0..1e3f64, 96),
        )
            .prop_filter_map("needs positive mass", |(lo_a, lo_b, step, na, nb, raw)| {
                let a = Pdf::new(Grid::new(lo_a, step, na).ok()?, raw[..na].to_vec()).ok()?;
                let b = Pdf::new(Grid::new(lo_b, step, nb).ok()?, raw[48..48 + nb].to_vec()).ok()?;
                Some((a, b))
            }),
    ) {
        let (a, b) = pair;
        let s = sum_pdf_with(ConvolveBackend::Grid, &a, &b).unwrap();
        prop_assert!((s.mass() - 1.0).abs() < 1e-9, "mass {}", s.mass());
        // Exact moment additivity on the common grid — sum_pdf_with's
        // midpoint assignment keeps mean and variance exact.
        prop_assert!((s.mean() - (a.mean() + b.mean())).abs() < 1e-6 * (1.0 + a.mean().abs() + b.mean().abs()));
    }

    #[test]
    fn resampled_convolution_preserves_mass(
        a in arb_pdf(),
        b in arb_pdf(),
        quality in 16usize..96,
    ) {
        let s = sum_pdf_resampled_with(ConvolveBackend::Grid, &a, &b, quality).unwrap();
        prop_assert!((s.mass() - 1.0).abs() < 1e-9, "mass {}", s.mass());
        prop_assert_eq!(s.len(), quality);
    }

    #[test]
    fn resampling_preserves_mass(pdf in arb_pdf(), quality in 4usize..200) {
        let r = pdf.with_quality(quality).unwrap();
        prop_assert!((r.mass() - 1.0).abs() < 1e-9, "mass {}", r.mass());
        prop_assert_eq!(r.len(), quality);
    }

    // --- Kolmogorov–Smirnov distance ----------------------------------

    #[test]
    fn ks_distance_symmetric_and_bounded(a in arb_pdf(), b in arb_pdf()) {
        let ab = a.ks_distance(&b);
        let ba = b.ks_distance(&a);
        prop_assert!((0.0..=1.0).contains(&ab), "ks {ab}");
        prop_assert!((ab - ba).abs() < 1e-9, "asymmetric: {ab} vs {ba}");
    }

    #[test]
    fn ks_distance_zero_on_self(pdf in arb_pdf()) {
        prop_assert!(pdf.ks_distance(&pdf) < 1e-12);
    }

    #[test]
    fn ks_distance_separates_disjoint_supports(mean in -100.0..100.0f64, sigma in 0.5..5.0f64) {
        // Two Gaussians far apart: the CDFs separate almost completely.
        let a = gaussian_pdf(mean, sigma, 6.0, 80);
        let b = gaussian_pdf(mean + 1000.0 * sigma, sigma, 6.0, 80);
        prop_assert!(a.ks_distance(&b) > 0.99);
    }

    #[test]
    fn ks_distance_small_between_gaussian_discretizations(g in arb_gaussian()) {
        // The same distribution at a finer discretization stays close in
        // KS distance — one cell's worth of CDF shift.
        let fine = g.with_quality(g.len() * 2).unwrap();
        let step_mass = 1.5 / g.len() as f64;
        prop_assert!(g.ks_distance(&fine) <= step_mass, "ks {}", g.ks_distance(&fine));
    }
}
