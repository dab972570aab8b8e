//! Intra-die path delay: the linear part of eq. (13) and its variance
//! (eq. (14)).
//!
//! After linearization, a path's intra-die delay is
//! `Σ_{u,w} a_{u,w}·χ_{u,w}` over all (layer, partition) RVs touched by
//! the path, with the coefficient `a_{u,w}` being the *sum of the delay
//! derivatives of the path's gates lying in that partition* — gates
//! sharing a partition share its RV, which is exactly how spatial
//! correlation enters. With Gaussian inputs the intra PDF is the
//! zero-mean Gaussian of variance (14), discretized at `QUALITYintra`.
//!
//! A gate lies in the same partition for every parameter, so the five
//! parameters touch the same (layer, partition) RVs. [`PathCoefficients`]
//! therefore keeps one flat, ascending list of the touched RVs with all
//! five coefficients per entry, sized by the path rather than by the
//! `4^layer` partitions of the model.

#![warn(clippy::unwrap_used)]

use crate::characterize::CircuitTiming;
use crate::correlation::LayerModel;
use crate::Result;
use statim_netlist::{GateId, Placement};
use statim_process::param::Variations;
use statim_process::Param;
use statim_stats::gaussian::try_gaussian_pdf;
use statim_stats::{ConvolveBackend, Marginal, Pdf};

/// The per-(layer, partition) Taylor coefficients of one path, per
/// parameter (the `a_{u,w} … e_{u,w}` of eq. (13)).
#[derive(Debug, Clone, PartialEq)]
pub struct PathCoefficients {
    /// The `(layer, partition)` RVs the path touches, in ascending
    /// order, each with its coefficient per parameter in [`Param::index`]
    /// order: the sum of ∂tp/∂χ over the path's gates in that partition,
    /// added in path order from `0.0`. Spatial layers 1.. only (layer 0
    /// is the inter-die operating point, handled non-linearly). At most
    /// `path.len()` entries per layer, however many partitions it has.
    pub spatial: Vec<((usize, usize), [f64; Param::COUNT])>,
    /// Per-gate derivatives for the random layer (one independent RV per
    /// gate and parameter), in the path's gate order; empty when the
    /// model has no random layer.
    pub random: Vec<[f64; Param::COUNT]>,
}

/// Aggregates the coefficients of `path` under `layers`, using gate
/// positions from `placement`.
pub fn path_coefficients(
    path: &[GateId],
    timing: &CircuitTiming,
    placement: &Placement,
    layers: &LayerModel,
) -> PathCoefficients {
    let grads: Vec<[f64; Param::COUNT]> = path.iter().map(|&g| timing.gate(g).gradient.0).collect();
    let xys: Vec<(f64, f64)> = path.iter().map(|&g| placement.normalized(g)).collect();
    let mut spatial: Vec<((usize, usize), [f64; Param::COUNT])> = Vec::new();
    // (partition, gate position) per layer: sorting groups each
    // partition's gates and keeps them in path order within it.
    let mut members: Vec<(usize, usize)> = Vec::with_capacity(path.len());
    // Layers 1..L share RVs spatially (layer 0 is inter-die).
    for layer in 1..layers.spatial_layers {
        members.clear();
        members.extend(
            xys.iter()
                .enumerate()
                .map(|(i, &xy)| (layers.partition_of(layer, xy), i)),
        );
        members.sort_unstable();
        for &(w, i) in &members {
            if spatial.last().map(|&(key, _)| key) != Some((layer, w)) {
                spatial.push(((layer, w), [0.0; Param::COUNT]));
            }
            let (_, sum) = spatial.last_mut().expect("the slot exists");
            for (s, d) in sum.iter_mut().zip(grads[i]) {
                *s += d;
            }
        }
    }
    let random = if layers.random_layer {
        grads
    } else {
        Vec::new()
    };
    PathCoefficients { spatial, random }
}

/// The intra-die delay variance of a path — eq. (14):
/// `σ² = Σ_params Σ_{u,w} a²_{u,w} · σ²_{χ,u}` with
/// `σ²_{χ,u} = weight_u · σ_χ²`.
///
/// # Errors
///
/// Propagates invalid layer-weight configurations.
pub fn intra_variance(
    coeffs: &PathCoefficients,
    layers: &LayerModel,
    vars: &Variations,
) -> Result<f64> {
    let weights = layers.weights()?;
    let mut var = 0.0;
    for p in Param::ALL {
        let i = p.index();
        let sigma2 = vars.sigma.get(p) * vars.sigma.get(p);
        for &((layer, _), a) in &coeffs.spatial {
            var += a[i] * a[i] * weights[layer] * sigma2;
        }
        if let Some(slot) = layers.random_slot() {
            for a in &coeffs.random {
                var += a[i] * a[i] * weights[slot] * sigma2;
            }
        }
    }
    Ok(var)
}

/// The zero-mean Gaussian intra-die delay PDF at `quality` points,
/// truncated at the variation spec's `trunc_k` — complexity
/// `O(QUALITYintra)` as the paper notes.
///
/// A zero variance (an inter-die-only layer model, like Table 3's
/// complement) degenerates to a Dirac delta at zero.
///
/// # Errors
///
/// Returns an error for a negative variance or invalid configuration.
pub fn intra_pdf(variance: f64, trunc_k: f64, quality: usize) -> Result<Pdf> {
    if variance == 0.0 {
        // 0.1 fs half-span: negligible against any gate delay.
        let grid = statim_stats::Grid::over(-1e-16, 1e-16, quality)?;
        return Ok(Pdf::delta(grid, 0.0)?);
    }
    // A negative variance yields a NaN σ, rejected by the constructor.
    Ok(try_gaussian_pdf(0.0, variance.sqrt(), trunc_k, quality)?)
}

/// Numerical intra-die PDF for **arbitrary input marginals**: eq. (13)'s
/// linear combination `Σ a_{u,w}·χ_{u,w}` is built RV by RV — each term's
/// marginal is scaled by its coefficient and convolved into the
/// accumulator on one shared grid step (chosen from the eq. (14) total
/// variance, which is marginal-independent), so no intermediate
/// resampling pollutes the moments. This is the paper's
/// `O(Ω·QUALITYintra²)` intra computation (with Ω the number of layer
/// RVs on the path), and it lifts the Gaussian-input restriction the
/// paper criticizes in related work.
///
/// With [`Marginal::Gaussian`] the result matches [`intra_pdf`] up to
/// discretization error. `backend` selects the per-term convolution
/// kernel ([`ConvolveBackend::Grid`] is the bit-identical reference;
/// every term pair shares one grid step, so the FFT route needs no
/// resampling either).
///
/// # Errors
///
/// Returns an error if the path carries no variance or the configuration
/// is invalid.
pub fn intra_pdf_numerical(
    coeffs: &PathCoefficients,
    layers: &LayerModel,
    vars: &Variations,
    marginal: Marginal,
    quality: usize,
    backend: ConvolveBackend,
) -> Result<Pdf> {
    use statim_stats::convolve::sum_pdf_with;
    use statim_stats::Grid;
    let weights = layers.weights()?;
    // Eq. (14) gives the exact total variance for *any* zero-mean
    // independent inputs; use it to choose one common grid step for every
    // term, so convolutions are exact (matched steps, no intermediate
    // resampling that would leak quantization variance).
    let var_total = intra_variance(coeffs, layers, vars)?;
    if var_total <= 0.0 {
        return Err(crate::CoreError::Stats(statim_stats::StatsError::ZeroMass));
    }
    let sigma_total = var_total.sqrt();
    let work_q = quality.max(16) * 8;
    let step = 2.0 * vars.trunc_k * sigma_total / work_q as f64;

    // Collect effective per-term sigmas |a|·σ (all marginals here are
    // symmetric and zero-mean, so the coefficient sign is irrelevant).
    let mut term_sigmas: Vec<f64> = Vec::new();
    for p in Param::ALL {
        let i = p.index();
        let sigma_p = vars.sigma.get(p);
        for &((layer, _), a) in &coeffs.spatial {
            term_sigmas.push(a[i].abs() * sigma_p * weights[layer].sqrt());
        }
        if let Some(slot) = layers.random_slot() {
            let w = weights[slot].sqrt();
            for a in &coeffs.random {
                term_sigmas.push(a[i].abs() * sigma_p * w);
            }
        }
    }
    // Negligible terms (< 1e-9 of the variance in total each) only cost
    // run time; drop them.
    term_sigmas.retain(|s| s * s > 1e-9 * var_total);
    if term_sigmas.is_empty() {
        return Err(crate::CoreError::Stats(statim_stats::StatsError::ZeroMass));
    }

    let mut acc: Option<Pdf> = None;
    for s in term_sigmas {
        // Build the marginal finely, then put it on the common step.
        let raw = marginal.pdf(0.0, s, vars.trunc_k, 64)?;
        let span = raw.grid().hi() - raw.grid().lo();
        let cells = ((span / step).ceil() as usize).max(1);
        let half = cells as f64 * step / 2.0;
        let term = raw.resample(Grid::new(-half, step, cells)?).normalized()?;
        acc = Some(match acc.take() {
            None => term,
            Some(prev) => sum_pdf_with(backend, &prev, &term)?,
        });
    }
    let acc = acc.expect("at least one term");
    // Trim to the requested quality over the ±trunc_k·σ body (the exact
    // support can be much wider but carries negligible tail mass).
    let body = 2.0 * vars.trunc_k * sigma_total;
    let lo = acc.mean() - body / 2.0;
    Ok(acc
        .resample(Grid::over(lo, lo + body, quality)?)
        .normalized()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::correlation::VarianceSplit;
    use statim_netlist::{Circuit, PlacementStyle};
    use statim_process::{GateKind, Technology};

    /// A chain of `n` inverters with both a placement.
    fn chain(n: usize) -> (Circuit, CircuitTiming, Placement, Vec<GateId>) {
        let mut c = Circuit::new("chain");
        let mut s = c.add_input("a").expect("circuit builds");
        for i in 0..n {
            s = c
                .add_gate(format!("g{i}"), GateKind::Inv, &[s])
                .expect("circuit builds");
        }
        c.mark_output("o", s).expect("circuit builds");
        let t = characterize(&c, &Technology::cmos130()).expect("characterization succeeds");
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let path: Vec<GateId> = c.gate_ids().collect();
        (c, t, p, path)
    }

    #[test]
    fn coefficients_group_by_partition() {
        let (_, t, p, path) = chain(8);
        let layers = LayerModel::date05();
        let co = path_coefficients(&path, &t, &p, &layers);
        // One slot per touched (layer, partition), strictly ascending.
        assert!(co.spatial.windows(2).all(|w| w[0].0 < w[1].0));
        // Layer 1 has at most 4 partitions; with 8 gates the list has
        // ≤ 4 entries on layer 1, and every layer's coefficient sums must
        // equal the total gradient sum.
        assert!(co.spatial.iter().filter(|((l, _), _)| *l == 1).count() <= 4);
        let leff = Param::Leff.index();
        let total: f64 = path
            .iter()
            .map(|&g| t.gate(g).gradient.get(Param::Leff))
            .sum();
        for layer in 1..layers.spatial_layers {
            let s: f64 = co
                .spatial
                .iter()
                .filter(|((l, _), _)| *l == layer)
                .map(|(_, a)| a[leff])
                .sum();
            assert!((s - total).abs() < 1e-9 * total.abs(), "layer {layer}");
        }
        assert_eq!(co.random.len(), 8);
        for (a, &g) in co.random.iter().zip(&path) {
            assert_eq!(
                a[leff].to_bits(),
                t.gate(g).gradient.get(Param::Leff).to_bits()
            );
        }
    }

    #[test]
    fn fully_correlated_vs_independent_bounds() {
        // With all variance on layer 1 and all gates in one partition,
        // σ_path = Σ|dᵢ|·σ (fully correlated). With all variance on the
        // random layer, σ_path = sqrt(Σ dᵢ²)·σ (independent). The paper's
        // equal split lies strictly between.
        let (_, t, _, path) = chain(6);
        // Force every gate into the same cell with a custom placement.
        let c2 = {
            let mut c = Circuit::new("c");
            let mut s = c.add_input("a").expect("circuit builds");
            for i in 0..6 {
                s = c
                    .add_gate(format!("g{i}"), GateKind::Inv, &[s])
                    .expect("circuit builds");
            }
            c.mark_output("o", s).expect("circuit builds");
            c
        };
        let same_spot =
            Placement::from_positions(&c2, vec![(1.0, 1.0); 6], 100.0).expect("placement builds");
        let vars = Variations::date05();

        let correlated_model = LayerModel {
            spatial_layers: 2,
            random_layer: false,
            split: VarianceSplit::Custom(vec![0.0, 1.0]),
        };
        let co = path_coefficients(&path, &t, &same_spot, &correlated_model);
        let v_corr = intra_variance(&co, &correlated_model, &vars).expect("intra pdf computed");

        let independent_model = LayerModel {
            spatial_layers: 1,
            random_layer: true,
            split: VarianceSplit::InterShare(0.0),
        };
        let co_i = path_coefficients(&path, &t, &same_spot, &independent_model);
        let v_ind = intra_variance(&co_i, &independent_model, &vars).expect("intra pdf computed");

        // With identical gates the ratio would be exactly (Σd)²/Σd² = 6;
        // the final inverter's lighter load (no fan-out pin) pulls it
        // slightly below.
        let ratio = v_corr / v_ind;
        assert!((5.0..=6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn equal_split_between_extremes() {
        let (_, t, p, path) = chain(10);
        let vars = Variations::date05();
        let paper = LayerModel::date05();
        let co = path_coefficients(&path, &t, &p, &paper);
        let v = intra_variance(&co, &paper, &vars).expect("intra pdf computed");

        // Independent bound (every RV per gate): Σ d² σ² × (intra share).
        let mut indep = 0.0;
        for param in Param::ALL {
            let s2 = vars.sigma.get(param).powi(2);
            for &g in &path {
                indep += t.gate(g).gradient.get(param).powi(2) * s2;
            }
        }
        // Fully correlated bound: (Σ d)² σ².
        let mut corr = 0.0;
        for param in Param::ALL {
            let s2 = vars.sigma.get(param).powi(2);
            let sum: f64 = path.iter().map(|&g| t.gate(g).gradient.get(param)).sum();
            corr += sum * sum * s2;
        }
        // The intra variance uses 4/5 of the total variance; scale bounds.
        assert!(v > indep * 0.8 * 0.99, "v={v} indep bound={}", indep * 0.8);
        assert!(v < corr * 0.8 * 1.01, "v={v} corr bound={}", corr * 0.8);
    }

    #[test]
    fn intra_pdf_matches_variance() {
        let pdf = intra_pdf(25e-24, 6.0, 100).expect("intra pdf computed");
        assert!((pdf.mean()).abs() < 1e-15);
        assert!((pdf.std_dev() - 5e-12).abs() < 0.05e-12);
        assert_eq!(pdf.len(), 100);
        // Zero variance degenerates to a delta at zero.
        let delta = intra_pdf(0.0, 6.0, 100).expect("intra pdf computed");
        assert!(delta.std_dev() < 1e-15);
        assert!(delta.mean().abs() < 1e-15);
        assert!(intra_pdf(-1.0, 6.0, 100).is_err());
    }

    #[test]
    fn numerical_gaussian_matches_closed_form() {
        let (_, t, p, path) = chain(12);
        let layers = LayerModel::date05();
        let vars = Variations::date05();
        let co = path_coefficients(&path, &t, &p, &layers);
        let var = intra_variance(&co, &layers, &vars).expect("intra pdf computed");
        let closed = intra_pdf(var, vars.trunc_k, 100).expect("intra pdf computed");
        let numerical = intra_pdf_numerical(
            &co,
            &layers,
            &vars,
            Marginal::Gaussian,
            100,
            Default::default(),
        )
        .expect("intra pdf computed");
        assert!(numerical.mean().abs() < 0.01 * closed.std_dev());
        let rel = (numerical.std_dev() - closed.std_dev()).abs() / closed.std_dev();
        assert!(rel < 0.02, "σ mismatch {rel}");
    }

    #[test]
    fn numerical_backends_agree_to_tolerance() {
        let (_, t, p, path) = chain(10);
        let layers = LayerModel::date05();
        let vars = Variations::date05();
        let co = path_coefficients(&path, &t, &p, &layers);
        let grid = intra_pdf_numerical(
            &co,
            &layers,
            &vars,
            Marginal::Uniform,
            100,
            ConvolveBackend::Grid,
        )
        .expect("intra pdf computed");
        let fft = intra_pdf_numerical(
            &co,
            &layers,
            &vars,
            Marginal::Uniform,
            100,
            ConvolveBackend::Fft,
        )
        .expect("intra pdf computed");
        // The output grid's origin is centered on the accumulated mean, so
        // backend round-off moves `lo` by a sub-ulp-of-step amount; the
        // step and cell count must match exactly.
        assert_eq!(grid.grid().step().to_bits(), fft.grid().step().to_bits());
        assert_eq!(grid.grid().len(), fft.grid().len());
        let scale = grid.std_dev();
        assert!((grid.grid().lo() - fft.grid().lo()).abs() < 1e-9 * scale);
        assert!((grid.mean() - fft.mean()).abs() < 1e-9 * scale);
        assert!((grid.std_dev() - fft.std_dev()).abs() < 1e-9 * scale);
    }

    #[test]
    fn numerical_non_gaussian_preserves_variance() {
        // Eq. (14) holds for *any* zero-mean independent inputs: the
        // variance is marginal-shape independent; only higher moments
        // change.
        let (_, t, p, path) = chain(10);
        let layers = LayerModel::date05();
        let vars = Variations::date05();
        let co = path_coefficients(&path, &t, &p, &layers);
        let var = intra_variance(&co, &layers, &vars).expect("intra pdf computed");
        for m in [Marginal::Uniform, Marginal::Triangular] {
            let pdf = intra_pdf_numerical(&co, &layers, &vars, m, 100, Default::default())
                .expect("intra pdf computed");
            let rel = (pdf.variance() - var).abs() / var;
            assert!(rel < 0.05, "{m:?}: variance off by {rel}");
            assert!(pdf.mean().abs() < 0.01 * pdf.std_dev());
        }
    }

    #[test]
    fn numerical_sum_tends_gaussian_by_clt() {
        // Many convolved uniform RVs: the result's 3σ point approaches
        // the Gaussian's (CLT), so the closed form is a good proxy even
        // for non-Gaussian inputs on long paths.
        let (_, t, p, path) = chain(16);
        let layers = LayerModel::date05();
        let vars = Variations::date05();
        let co = path_coefficients(&path, &t, &p, &layers);
        let var = intra_variance(&co, &layers, &vars).expect("intra pdf computed");
        let gauss = intra_pdf(var, vars.trunc_k, 150).expect("intra pdf computed");
        let unif = intra_pdf_numerical(
            &co,
            &layers,
            &vars,
            Marginal::Uniform,
            150,
            Default::default(),
        )
        .expect("intra pdf computed");
        let g3 = gauss.quantile(0.9987).expect("quantile defined");
        let u3 = unif.quantile(0.9987).expect("quantile defined");
        assert!((g3 - u3).abs() / g3 < 0.1, "3σ quantile {g3} vs {u3}");
    }

    #[test]
    fn deep_layer_models_stay_path_sized() {
        // Layer 23 alone has 4^23 partitions; the slot list must not care.
        let (_, t, p, path) = chain(12);
        let deep = LayerModel {
            spatial_layers: 24,
            random_layer: true,
            split: VarianceSplit::Equal,
        };
        let co = path_coefficients(&path, &t, &p, &deep);
        assert!(co.spatial.len() <= 23 * path.len());
        assert!(co.spatial.windows(2).all(|w| w[0].0 < w[1].0));
        let vars = Variations::date05();
        let v = intra_variance(&co, &deep, &vars).expect("variance");
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn no_random_layer_means_no_random_coeffs() {
        let (_, t, p, path) = chain(4);
        let m = LayerModel {
            spatial_layers: 3,
            random_layer: false,
            split: VarianceSplit::Equal,
        };
        let co = path_coefficients(&path, &t, &p, &m);
        assert!(co.random.is_empty());
        // Layers 1 and 2 only, at most one slot per gate on each.
        assert!(co.spatial.iter().all(|((l, _), _)| (1..3).contains(l)));
        assert!(co.spatial.len() <= 2 * path.len());
    }
}
