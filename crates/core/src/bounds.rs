//! Distribution **bounds** on the circuit delay — the other thread of
//! the 2003-era SSTA literature the paper situates itself against
//! (Agarwal et al., its refs 2 and 8, which "sometimes give bounds for
//! the delay PDF and not the PDF itself").
//!
//! From the per-path delay PDFs of the near-critical set, two classical
//! bounds on the circuit-delay CDF `F_D(t) = P(max_i D_i ≤ t)` follow
//! with *no* assumption about the paths' dependence:
//!
//! * **Upper bound** (Fréchet): `F_D(t) ≤ min_i F_i(t)` — the circuit
//!   can never be more likely to meet `t` than its single worst path.
//! * **Lower bound** (Boole / union): `F_D(t) ≥ 1 − Σ_i (1 − F_i(t))`
//!   — at worst, path failures never overlap.
//!
//! The true (correlated) CDF from the Monte-Carlo oracle must lie
//! between them; positively correlated paths (shared gates, shared
//! inter-die variation) sit near the *upper* bound, which is why the
//! paper's single-path confidence-point ranking works as well as it
//! does.

use crate::analyze::PathAnalysis;

/// The pair of CDF bounds at one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfBounds {
    /// Boole/union lower bound on `P(delay ≤ t)` (clamped to 0).
    pub lower: f64,
    /// Fréchet upper bound `min_i F_i(t)`.
    pub upper: f64,
}

/// Evaluates both bounds at time `t` over the analyzed paths.
///
/// Returns the degenerate `[1, 1]` for an empty path set (an empty max
/// is vacuously met).
pub fn delay_cdf_bounds(paths: &[PathAnalysis], t: f64) -> CdfBounds {
    let mut min_cdf = 1.0f64;
    let mut miss_sum = 0.0f64;
    for p in paths {
        let f = p.total_pdf.cdf(t);
        min_cdf = min_cdf.min(f);
        miss_sum += 1.0 - f;
    }
    CdfBounds {
        lower: (1.0 - miss_sum).max(0.0),
        upper: min_cdf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze_path, AnalysisSettings};
    use crate::characterize::characterize_placed;
    use crate::enumerate::near_critical_paths;
    use crate::longest_path::topo_labels;
    use crate::monte_carlo::mc_circuit_distribution;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::{Placement, PlacementStyle};
    use statim_process::{Technology, Variations};
    use statim_stats::Marginal;

    fn analyzed_paths(
        bench: Benchmark,
        frac: f64,
    ) -> (Vec<PathAnalysis>, statim_netlist::Circuit, Placement) {
        let c = iscas85::generate(bench);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        let tech = Technology::cmos130();
        let t = characterize_placed(&c, &tech, &p).unwrap();
        let labels = topo_labels(&c, &t).unwrap();
        let d = labels.critical_delay(&c).unwrap();
        let set = near_critical_paths(&c, &t, &labels, d * frac, 10_000).unwrap();
        let settings = AnalysisSettings::date05();
        let analyses = set
            .paths
            .iter()
            .map(|path| analyze_path(path, &t, &p, &tech, &settings).unwrap())
            .collect();
        (analyses, c, p)
    }

    #[test]
    fn bounds_are_ordered_and_monotone() {
        let (paths, _, _) = analyzed_paths(Benchmark::C432, 0.9);
        assert!(paths.len() >= 2);
        // Sweep mean + σ·[-2, 5] in 20 epochs.
        let (mean, sigma) = (paths[0].mean, paths[0].sigma);
        let curve: Vec<CdfBounds> = (0..20)
            .map(|i| delay_cdf_bounds(&paths, mean + sigma * (-2.0 + 7.0 * i as f64 / 19.0)))
            .collect();
        let mut prev = CdfBounds {
            lower: -1.0,
            upper: -1.0,
        };
        for b in &curve {
            assert!(b.lower <= b.upper + 1e-12);
            assert!((0.0..=1.0).contains(&b.lower));
            assert!((0.0..=1.0).contains(&b.upper));
            assert!(b.lower >= prev.lower - 1e-12);
            assert!(b.upper >= prev.upper - 1e-12);
            prev = *b;
        }
        // Far right: both saturate.
        assert!(curve.last().unwrap().lower > 0.99);
    }

    #[test]
    fn single_path_bounds_collapse_to_its_cdf() {
        let (paths, _, _) = analyzed_paths(Benchmark::C880, 0.999);
        assert_eq!(paths.len(), 1);
        let t = paths[0].mean;
        let b = delay_cdf_bounds(&paths, t);
        let f = paths[0].total_pdf.cdf(t);
        assert!((b.lower - f).abs() < 1e-12);
        assert!((b.upper - f).abs() < 1e-12);
    }

    #[test]
    fn exact_mc_lies_within_bounds() {
        // The correlated truth must fall between Boole and Fréchet —
        // and near the Fréchet (upper) bound, given the strong positive
        // correlation among near-critical paths.
        let (paths, c, p) = analyzed_paths(Benchmark::C432, 0.9);
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let t = characterize_placed(&c, &tech, &p).unwrap();
        let mc = mc_circuit_distribution(
            &c,
            &t,
            &p,
            &tech,
            &vars,
            &crate::correlation::LayerModel::date05(),
            Marginal::Gaussian,
            20_000,
            150,
            77,
            0,
        )
        .unwrap();
        // Compare CDFs at several epochs around the mean. Note the MC max
        // includes *all* circuit paths, not only the near-critical set,
        // so its CDF may dip slightly below the set's lower bound far in
        // the left tail; test the region the bounds are about.
        for k in [-0.5f64, 0.0, 1.0, 2.0, 3.0] {
            let epoch = mc.mean + k * mc.sigma;
            let truth = mc.pdf.cdf(epoch);
            let b = delay_cdf_bounds(&paths, epoch);
            assert!(
                truth <= b.upper + 0.02,
                "k={k}: truth {truth} above upper {}",
                b.upper
            );
            assert!(
                truth >= b.lower - 0.05,
                "k={k}: truth {truth} below lower {}",
                b.lower
            );
        }
    }

    #[test]
    fn empty_paths_vacuous() {
        let b = delay_cdf_bounds(&[], 1.0);
        assert_eq!(b.lower, 1.0);
        assert_eq!(b.upper, 1.0);
    }
}
