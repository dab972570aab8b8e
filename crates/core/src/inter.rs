//! Inter-die path delay PDF — the non-linear part of eq. (13).
//!
//! The inter-die delay of an N-gate path is the exact delay expression
//! evaluated at the shared inter-die operating point `X₀,₀`:
//!
//! ```text
//! t_inter = 0.345/εox · tox·Leff · [ A·f(Vdd,VTn) + B·f(Vdd,|VTp|) ]
//! A = Σᵢ αᵢ,  B = Σᵢ βᵢ
//! ```
//!
//! Its PDF is computed **numerically** on discretized grids. A naive
//! enumeration costs `O(QUALITYinter^R)` with `R = 5`; following the
//! paper's separability advice (§2.5) we factor the expression into the
//! geometry product `tox·Leff` (a 2-D kernel) and the voltage term (a 3-D
//! kernel), then combine the two factors. With `Q = QUALITYinter`, the
//! voltage term costs 2·Q² `voltage_kernel` calls (the tables
//! `f(Vddᵢ, VTnⱼ)` and `f(Vddᵢ, |VTp|ₖ)`), an `O(Q²)` range pass over the
//! tables' per-row extremes and `Q³` multiply-add-bin steps; the other
//! factors are `O(Q²)`. The direct `O(Q⁵)` enumeration is retained for
//! validation (ablation 2).

#![warn(clippy::unwrap_used)]

use crate::correlation::LayerModel;
use crate::Result;
use statim_process::delay::voltage_kernel;
use statim_process::param::Variations;
use statim_process::tech::{AlphaBeta, Technology, ELMORE_K};
use statim_process::Param;
use statim_stats::combine::{center_table, map2, map3_tabulated, product_pdf};
use statim_stats::{Grid, Marginal, Pdf};

/// The marginal PDF of one inter-die parameter: a Gaussian centred on the
/// nominal with the layer-0 share of the total variance, truncated at the
/// spec's `trunc_k`.
///
/// # Errors
///
/// Propagates configuration errors (zero inter share yields a degenerate
/// distribution and is reported as an error by the Gaussian constructor;
/// callers use [`inter_pdf`], which special-cases that).
pub fn inter_param_pdf(
    p: Param,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Result<Pdf> {
    let w0 = layers.weights()?[0];
    let sigma = vars.sigma.get(p) * w0.sqrt();
    Ok(marginal.pdf(tech.nominal(p), sigma, vars.trunc_k, quality)?)
}

/// Computes the inter-die delay PDF of a path with coefficient sums `ab`,
/// using the separable 2-D × 3-D evaluation. `quality` is the paper's
/// `QUALITYinter` (50 in the evaluation).
///
/// When the layer model assigns zero variance to the inter-die layer
/// (Table 3's "only intra" scenario), the result degenerates to a Dirac
/// delta at the nominal inter-die delay.
///
/// # Errors
///
/// Propagates grid and configuration failures.
pub fn inter_pdf(
    ab: &AlphaBeta,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Result<Pdf> {
    let w0 = layers.weights()?[0];
    let k = ELMORE_K / tech.eps_ox;
    if ab.alpha == 0.0 && ab.beta == 0.0 {
        // Zero coefficients (possible for derate-balanced clock-skew
        // differences): the inter-die contribution is identically zero.
        let grid = Grid::over(-1e-16, 1e-16, quality)?;
        return Ok(Pdf::delta(grid, 0.0)?);
    }
    if w0 <= 0.0 {
        // Degenerate: the inter-die point is exactly nominal.
        let pt = tech.nominal_point();
        let d = k
            * pt.tox()
            * pt.leff()
            * (ab.alpha * voltage_kernel(pt.vdd(), pt.vtn())
                + ab.beta * voltage_kernel(pt.vdd(), pt.vtp()));
        // `d.abs()` keeps the span positive for negative coefficient
        // sums (skew differences); the floor keeps the grid non-empty
        // even at d == 0. Bit-identical to `d * 1e-6` for d > 0.
        let span = d.abs().max(1e-22) * 1e-6;
        let grid = Grid::over(d - span, d + span, quality)?;
        return Ok(Pdf::delta(grid, d)?);
    }
    let pdf = |p: Param| inter_param_pdf(p, tech, vars, layers, marginal, quality);
    // Geometry factor: W = tox · Leff (2-D kernel).
    let w = product_pdf(&pdf(Param::Tox)?, &pdf(Param::Leff)?, quality)?;
    // Voltage factor: Z = A·f(Vdd,VTn) + B·f(Vdd,|VTp|) (3-D kernel over
    // Q×Q tables of f).
    let (vdd, vtn, vtp) = (pdf(Param::Vdd)?, pdf(Param::Vtn)?, pdf(Param::Vtp)?);
    let tn = center_table(&vdd, &vtn, voltage_kernel);
    let tp = center_table(&vdd, &vtp, voltage_kernel);
    let z = map3_tabulated(&vdd, &vtn, &vtp, quality, (ab.alpha, &tn), (ab.beta, &tp))?;
    // Combine: delay = K · W · Z.
    Ok(map2(&w, &z, quality, |wv, zv| k * wv * zv)?)
}

/// Direct `O(quality⁵)` enumeration of the same distribution — the
/// validation reference for the separable path. Keep `quality` small
/// (≤ 16) or this becomes very slow.
///
/// # Errors
///
/// Propagates grid and configuration failures.
pub fn inter_pdf_direct(
    ab: &AlphaBeta,
    tech: &Technology,
    vars: &Variations,
    layers: &LayerModel,
    marginal: Marginal,
    quality: usize,
) -> Result<Pdf> {
    let k = ELMORE_K / tech.eps_ox;
    let pdfs: Vec<Pdf> = {
        let mut v = Vec::with_capacity(Param::COUNT);
        for p in Param::ALL {
            v.push(inter_param_pdf(p, tech, vars, layers, marginal, quality)?);
        }
        v
    };
    let eval = |tox: f64, leff: f64, vdd: f64, vtn: f64, vtp: f64| {
        k * tox * leff * (ab.alpha * voltage_kernel(vdd, vtn) + ab.beta * voltage_kernel(vdd, vtp))
    };
    // Delay is monotone in every parameter over the truncated supports
    // (increasing in tox, Leff, VTn, |VTp|; decreasing in Vdd), so the
    // output range comes from two corners.
    let lo_corner = eval(
        pdfs[0].grid().lo(),
        pdfs[1].grid().lo(),
        pdfs[2].grid().hi(),
        pdfs[3].grid().lo(),
        pdfs[4].grid().lo(),
    );
    let hi_corner = eval(
        pdfs[0].grid().hi(),
        pdfs[1].grid().hi(),
        pdfs[2].grid().lo(),
        pdfs[3].grid().hi(),
        pdfs[4].grid().hi(),
    );
    let grid = Grid::over(lo_corner, hi_corner * (1.0 + 1e-12), quality)?;
    let mut mass = vec![0.0f64; quality];
    let centers: Vec<Vec<f64>> = pdfs.iter().map(|p| p.grid().centers().collect()).collect();
    let cell_mass: Vec<Vec<f64>> = pdfs
        .iter()
        .map(|p| p.density().iter().map(|d| d * p.grid().step()).collect())
        .collect();
    for (i0, &tox) in centers[0].iter().enumerate() {
        let m0 = cell_mass[0][i0];
        for (i1, &leff) in centers[1].iter().enumerate() {
            let m1 = m0 * cell_mass[1][i1];
            for (i2, &vdd) in centers[2].iter().enumerate() {
                let m2 = m1 * cell_mass[2][i2];
                for (i3, &vtn) in centers[3].iter().enumerate() {
                    let m3 = m2 * cell_mass[3][i3];
                    for (i4, &vtp) in centers[4].iter().enumerate() {
                        let m4 = m3 * cell_mass[4][i4];
                        let d = eval(tox, leff, vdd, vtn, vtp);
                        mass[grid.clamp_cell_of(d)] += m4;
                    }
                }
            }
        }
    }
    let density: Vec<f64> = mass.iter().map(|m| m / grid.step()).collect();
    Ok(Pdf::new(grid, density)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_process::{GateKind, Load};

    fn path_ab(n: usize) -> (Technology, AlphaBeta) {
        let tech = Technology::cmos130();
        let one = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
        (
            tech,
            AlphaBeta {
                alpha: one.alpha * n as f64,
                beta: one.beta * n as f64,
            },
        )
    }

    #[test]
    fn inter_pdf_scales_with_path_length() {
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let (tech, ab1) = path_ab(1);
        let (_, ab10) = path_ab(10);
        let p1 = inter_pdf(&ab1, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        let p10 = inter_pdf(&ab10, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        assert!((p10.mean() / p1.mean() - 10.0).abs() < 0.01);
        assert!((p10.std_dev() / p1.std_dev() - 10.0).abs() < 0.05);
    }

    #[test]
    fn inter_mean_close_to_nominal_delay() {
        // Jensen's gap exists (the paper stresses mean ≠ nominal) but it
        // is small relative to the delay.
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let (tech, ab) = path_ab(16);
        let pt = tech.nominal_point();
        let nominal = ELMORE_K / tech.eps_ox
            * pt.tox()
            * pt.leff()
            * (ab.alpha * voltage_kernel(pt.vdd(), pt.vtn())
                + ab.beta * voltage_kernel(pt.vdd(), pt.vtp()));
        let pdf = inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        let gap = (pdf.mean() - nominal).abs() / nominal;
        assert!(gap < 0.01, "gap {gap}");
        assert!(gap > 1e-7, "the non-linearity should leave a visible gap");
    }

    #[test]
    fn separable_matches_direct() {
        // Ablation 2: both evaluations describe the same distribution.
        let vars = Variations::date05();
        let layers = LayerModel::date05();
        let (tech, ab) = path_ab(8);
        let sep = inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 24)
            .expect("inter pdf computed");
        let dir = inter_pdf_direct(&ab, &tech, &vars, &layers, Marginal::Gaussian, 24)
            .expect("inter pdf computed");
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs();
        // Both are coarse histograms over the same ±6σ corner span; at 24
        // cells they agree to a percent on the mean and better than 10%
        // on σ (they converge together as quality grows).
        assert!(
            rel(sep.mean(), dir.mean()) < 0.01,
            "{} vs {}",
            sep.mean(),
            dir.mean()
        );
        assert!(
            rel(sep.std_dev(), dir.std_dev()) < 0.10,
            "{} vs {}",
            sep.std_dev(),
            dir.std_dev()
        );
    }

    #[test]
    fn zero_inter_share_degenerates_to_delta() {
        let vars = Variations::date05();
        let layers = LayerModel::with_inter_share(0.0);
        let (tech, ab) = path_ab(5);
        let pdf = inter_pdf(&ab, &tech, &vars, &layers, Marginal::Gaussian, 50)
            .expect("inter pdf computed");
        assert!(pdf.std_dev() < 1e-17);
        assert!(pdf.mean() > 0.0);
    }

    #[test]
    fn more_inter_share_widens_pdf() {
        // Table 3's monotonicity at the inter level.
        let vars = Variations::date05();
        let (tech, ab) = path_ab(16);
        let s20 = inter_pdf(
            &ab,
            &tech,
            &vars,
            &LayerModel::date05(),
            Marginal::Gaussian,
            50,
        )
        .expect("test setup succeeds");
        let s50 = inter_pdf(
            &ab,
            &tech,
            &vars,
            &LayerModel::with_inter_share(0.5),
            Marginal::Gaussian,
            50,
        )
        .expect("test setup succeeds");
        let s75 = inter_pdf(
            &ab,
            &tech,
            &vars,
            &LayerModel::with_inter_share(0.75),
            Marginal::Gaussian,
            50,
        )
        .expect("test setup succeeds");
        assert!(s50.std_dev() > s20.std_dev());
        assert!(s75.std_dev() > s50.std_dev());
    }

    #[test]
    fn inter_param_pdf_uses_layer_share() {
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let layers = LayerModel::date05(); // w0 = 0.2
        let p = inter_param_pdf(Param::Leff, &tech, &vars, &layers, Marginal::Gaussian, 200)
            .expect("inter pdf computed");
        let expect = 15e-9 * 0.2f64.sqrt();
        assert!((p.std_dev() - expect).abs() / expect < 0.02);
        assert!((p.mean() - tech.leff).abs() < 1e-12);
    }
}
