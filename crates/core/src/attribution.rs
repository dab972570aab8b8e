//! Variance attribution: where a path's delay variability comes from.
//!
//! The eq. (14) variance is a sum of squared coefficients — so it
//! decomposes exactly by parameter and (approximately, via each gate's
//! own contribution to the shared coefficients) by gate. This is the
//! analysis a designer runs after the ranking: *which parameter and
//! which gates should I attack to tighten this path?* The paper's
//! sensitivity study (its Table 1) answers the per-gate-type version;
//! this module answers it per path instance.

use crate::characterize::CircuitTiming;
use crate::correlation::LayerModel;
use crate::intra::{intra_variance, path_coefficients};
use crate::Result;
use statim_netlist::{GateId, Placement};
use statim_process::param::Variations;
use statim_process::Param;

/// Variance decomposition of one path.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceAttribution {
    /// Total intra-die variance (eq. (14)), s².
    pub intra_variance: f64,
    /// Intra-die variance attributable to each parameter (sums to
    /// `intra_variance`), canonical [`Param::ALL`] order.
    pub by_param: [f64; Param::COUNT],
    /// Per-gate share of the intra variance (sums to 1): gate `i`'s
    /// fraction of every squared coefficient it participates in,
    /// apportioned by its own derivative's weight within the
    /// partition-shared sums.
    pub by_gate: Vec<(GateId, f64)>,
}

impl VarianceAttribution {
    /// The dominant parameter and its variance share.
    pub fn dominant_param(&self) -> (Param, f64) {
        let (i, &v) = self
            .by_param
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite variances"))
            .expect("five parameters");
        (
            Param::from_index(i),
            v / self.intra_variance.max(f64::MIN_POSITIVE),
        )
    }

    /// Gates ordered by decreasing variance share.
    pub fn hottest_gates(&self) -> Vec<(GateId, f64)> {
        let mut v = self.by_gate.clone();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite shares"));
        v
    }
}

/// Decomposes a path's intra-die variance by parameter and by gate.
///
/// # Errors
///
/// Propagates layer-configuration failures.
pub fn attribute_variance(
    path: &[GateId],
    timing: &CircuitTiming,
    placement: &Placement,
    layers: &LayerModel,
    vars: &Variations,
) -> Result<VarianceAttribution> {
    let coeffs = path_coefficients(path, timing, placement, layers);
    let total = intra_variance(&coeffs, layers, vars)?;
    let weights = layers.weights()?;

    // Per-parameter split: recompute eq. (14) per parameter.
    let mut by_param = [0.0f64; Param::COUNT];
    for p in Param::ALL {
        let i = p.index();
        let sigma2 = vars.sigma.get(p) * vars.sigma.get(p);
        let mut v = 0.0;
        for &((layer, _), a) in &coeffs.spatial {
            v += a[i] * a[i] * weights[layer] * sigma2;
        }
        if let Some(slot) = layers.random_slot() {
            for a in &coeffs.random {
                v += a[i] * a[i] * weights[slot] * sigma2;
            }
        }
        by_param[i] = v;
    }

    // Per-gate split. For a shared coefficient a = Σ_g d_g, apportion
    // a²·w·σ² to gate g as (d_g·a)·w·σ² — exact (sums to a²) and
    // reflecting that a gate whose derivative aligns with the group sum
    // carries correlated weight. The random-layer terms are purely
    // per-gate.
    let mut shares = vec![0.0f64; path.len()];
    for p in Param::ALL {
        let sigma2 = vars.sigma.get(p) * vars.sigma.get(p);
        // Rebuild each gate's (layer, partition) membership on the fly.
        for (layer, &weight) in weights
            .iter()
            .enumerate()
            .take(layers.spatial_layers)
            .skip(1)
        {
            // Group gates by partition.
            let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
            for (gi, &g) in path.iter().enumerate() {
                let part = layers.partition_of(layer, placement.normalized(g));
                groups.entry(part).or_default().push(gi);
            }
            for members in groups.values() {
                let a: f64 = members
                    .iter()
                    .map(|&gi| timing.gate(path[gi]).gradient.get(p))
                    .sum();
                for &gi in members {
                    let d = timing.gate(path[gi]).gradient.get(p);
                    shares[gi] += d * a * weight * sigma2;
                }
            }
        }
        if let Some(slot) = layers.random_slot() {
            for (gi, &g) in path.iter().enumerate() {
                let d = timing.gate(g).gradient.get(p);
                shares[gi] += d * d * weights[slot] * sigma2;
            }
        }
    }
    let norm = total.max(f64::MIN_POSITIVE);
    let by_gate = path
        .iter()
        .zip(&shares)
        .map(|(&g, &s)| (g, s / norm))
        .collect();
    Ok(VarianceAttribution {
        intra_variance: total,
        by_param,
        by_gate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize_placed;
    use crate::longest_path::{critical_path, topo_labels};
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::PlacementStyle;
    use statim_process::Technology;

    fn setup() -> (Vec<GateId>, CircuitTiming, Placement) {
        let c = iscas85::generate(Benchmark::C432);
        let tech = Technology::cmos130();
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let t = characterize_placed(&c, &tech, &p).unwrap();
        let labels = topo_labels(&c, &t).unwrap();
        let path = critical_path(&c, &t, &labels).unwrap();
        (path, t, p)
    }

    #[test]
    fn param_split_sums_to_total() {
        let (path, t, p) = setup();
        let att = attribute_variance(&path, &t, &p, &LayerModel::date05(), &Variations::date05())
            .unwrap();
        let sum: f64 = att.by_param.iter().sum();
        assert!((sum - att.intra_variance).abs() < 1e-9 * att.intra_variance);
    }

    #[test]
    fn gate_shares_sum_to_one() {
        let (path, t, p) = setup();
        let att = attribute_variance(&path, &t, &p, &LayerModel::date05(), &Variations::date05())
            .unwrap();
        assert_eq!(att.by_gate.len(), path.len());
        let sum: f64 = att.by_gate.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum {sum}");
        // Every share positive (all derivatives share signs per param).
        for &(_, s) in &att.by_gate {
            assert!(s > 0.0);
        }
    }

    #[test]
    fn leff_dominates_as_in_table1() {
        let (path, t, p) = setup();
        let att = attribute_variance(&path, &t, &p, &LayerModel::date05(), &Variations::date05())
            .unwrap();
        let (param, share) = att.dominant_param();
        assert_eq!(param, Param::Leff);
        assert!(share > 0.6, "Leff share {share}");
    }

    #[test]
    fn hottest_gates_sorted_and_meaningful() {
        let (path, t, p) = setup();
        let att = attribute_variance(&path, &t, &p, &LayerModel::date05(), &Variations::date05())
            .unwrap();
        let hot = att.hottest_gates();
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // The hottest gate matters more than the path-average share.
        assert!(hot[0].1 > 1.0 / path.len() as f64);
    }
}
