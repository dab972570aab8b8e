//! Timing yield estimation — the downstream application of statistical
//! timing PDFs (cf. Gattiker et al., ISQED'01, reference 11 of the
//! paper; the paper's confidence-point ranking is the screening step of
//! such a yield flow).
//!
//! Given the delay PDFs of the near-critical paths, the fraction of dies
//! meeting a clock period `T` is `P(max over paths ≤ T)`. Two estimators
//! are provided:
//!
//! * [`single_path_yield`] — `P(critical ≤ T)` from the probabilistic
//!   critical path's PDF (optimistic: ignores the other paths);
//! * [`independent_yield`] — `Π P(pathᵢ ≤ T)` treating paths as
//!   independent (pessimistic: near-critical paths are positively
//!   correlated through shared gates and inter-die variations).
//!
//! The true yield lies between the two; the Monte-Carlo estimator
//! [`crate::monte_carlo::mc_circuit_distribution`] gives the correlated
//! reference.

use crate::engine::SstaReport;
use crate::rank::RankedPath;
use crate::{CoreError, Result};

/// `P(critical path delay ≤ period)` from the probabilistic critical
/// path's total PDF. An optimistic bound on the true timing yield.
pub fn single_path_yield(report: &SstaReport, period: f64) -> f64 {
    report.critical().analysis.total_pdf.cdf(period)
}

/// `Π P(pathᵢ ≤ period)` over all analyzed paths, treating them as
/// independent. A pessimistic bound (positive correlation raises the
/// joint probability).
pub fn independent_yield(paths: &[RankedPath], period: f64) -> f64 {
    paths
        .iter()
        .map(|p| p.analysis.total_pdf.cdf(period))
        .product()
}

/// A point on a yield curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldPoint {
    /// Clock period, seconds.
    pub period: f64,
    /// Optimistic (single-path) yield estimate.
    pub upper: f64,
    /// Pessimistic (independent-paths) yield estimate.
    pub lower: f64,
}

/// Sweeps the yield bounds over `n` periods covering the interesting
/// range (from the critical mean to past its +4σ point).
pub fn yield_curve(report: &SstaReport, n: usize) -> Vec<YieldPoint> {
    let crit = &report.critical().analysis;
    let lo = crit.mean;
    let hi = crit.mean + 4.5 * crit.sigma;
    (0..n.max(2))
        .map(|i| {
            let period = lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64;
            YieldPoint {
                period,
                upper: single_path_yield(report, period),
                lower: independent_yield(&report.paths, period),
            }
        })
        .collect()
}

/// The smallest period achieving at least `target` yield under the
/// pessimistic (independent) model — a conservative clock constraint.
/// Returns `None` if `target` is not in `(0, 1]` or the target cannot be
/// met at any period (which cannot happen for truncated path PDFs, whose
/// CDFs reach exactly 1 at the top of their support).
pub fn period_for_yield(report: &SstaReport, target: f64) -> Option<f64> {
    let crit = &report.critical().analysis;
    smallest_period(crit.mean, crit.sigma, target, |period| {
        independent_yield(&report.paths, period)
    })
}

/// Refuses a yield target outside `(0, 1]`, NaN included — the targets
/// [`period_for_yield`] and the sequential
/// [`min_period`](crate::sequential::min_period) can solve for.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] naming the target.
pub fn check_target(target: f64) -> Result<()> {
    if 0.0 < target && target <= 1.0 {
        Ok(())
    } else {
        Err(CoreError::InvalidConfig {
            message: format!("target yield {target} outside (0, 1]"),
        })
    }
}

/// The smallest period at which the non-decreasing `yield_at` reaches
/// `target`, searched around a critical delay of mean `mean` and
/// standard deviation `sigma`: the one solver behind
/// [`period_for_yield`] and the sequential
/// [`min_period`](crate::sequential::min_period). `None` when `target`
/// is outside `(0, 1]` or no period meets it.
pub(crate) fn smallest_period(
    mean: f64,
    sigma: f64,
    target: f64,
    yield_at: impl Fn(f64) -> f64,
) -> Option<f64> {
    check_target(target).ok()?;
    let step0 = sigma.max(mean.abs() * 1e-6).max(f64::MIN_POSITIVE);
    let mut lo = mean - sigma;
    let mut hi = mean + 8.0 * sigma;

    // Validate the bracket before bisecting: the bisection below keeps
    // the invariant `yield(lo) < target ≤ yield(hi)`, which the initial
    // guesses do not guarantee.
    //
    // Grow `hi` until the target is met there; if even an enormous
    // period cannot meet it (a sequential target above the hold-yield
    // cap), report failure instead of silently returning the bracket
    // edge.
    let mut step = step0;
    let mut growths = 0;
    while yield_at(hi) < target {
        hi += step;
        step *= 2.0;
        growths += 1;
        if growths > 64 {
            return None;
        }
    }

    // Grow `lo` downward while the target is already met there, so the
    // search converges to the *smallest* satisfying period rather than
    // to the arbitrary initial lower edge. Truncated PDFs have CDF
    // exactly 0 below their support, so this terminates.
    let mut step = step0;
    for _ in 0..128 {
        if yield_at(lo) < target {
            break;
        }
        hi = lo;
        lo -= step;
        step *= 2.0;
    }

    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if yield_at(mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SstaConfig, SstaEngine};
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::{Placement, PlacementStyle};

    fn report() -> SstaReport {
        let c = iscas85::generate(Benchmark::C432);
        let p = Placement::generate(&c, PlacementStyle::Levelized);
        SstaEngine::new(SstaConfig::date05().with_confidence(0.3))
            .run(&c, &p)
            .expect("flow")
    }

    #[test]
    fn bounds_ordered_and_monotone() {
        let r = report();
        let curve = yield_curve(&r, 12);
        assert_eq!(curve.len(), 12);
        let mut prev = YieldPoint {
            period: 0.0,
            upper: -1.0,
            lower: -1.0,
        };
        for pt in &curve {
            // Upper bound dominates lower bound.
            assert!(pt.upper >= pt.lower - 1e-12);
            // Both are probabilities and monotone in the period.
            assert!((0.0..=1.0).contains(&pt.upper));
            assert!((0.0..=1.0).contains(&pt.lower));
            assert!(pt.upper >= prev.upper - 1e-12);
            assert!(pt.lower >= prev.lower - 1e-12);
            prev = *pt;
        }
        // The curve spans a meaningful range.
        assert!(curve[0].upper < 0.7);
        assert!(curve.last().unwrap().lower > 0.99);
    }

    #[test]
    fn yield_at_3sigma_point_high() {
        let r = report();
        let three_sigma = r.critical().analysis.confidence_point;
        let y = single_path_yield(&r, three_sigma);
        // P(X ≤ μ+3σ) ≈ 0.9987 for a near-Gaussian total PDF.
        assert!(y > 0.99, "yield at 3σ point: {y}");
        // Worst-case period gives essentially full yield — the
        // overdesign the paper quantifies.
        assert!(single_path_yield(&r, r.worst_case_delay) > 0.999_99);
    }

    #[test]
    fn period_for_yield_inverts() {
        let r = report();
        let t = period_for_yield(&r, 0.99).expect("valid target");
        let y = independent_yield(&r.paths, t);
        assert!((y - 0.99).abs() < 0.01, "yield at inverted period: {y}");
        // Higher target needs a longer period.
        let t999 = period_for_yield(&r, 0.999).unwrap();
        assert!(t999 > t);
        assert!(period_for_yield(&r, 0.0).is_none());
        assert!(period_for_yield(&r, 1.5).is_none());
    }

    #[test]
    fn low_target_finds_smallest_period_not_bracket_edge() {
        // Regression: a target already met at the initial lower bracket
        // edge (mean − σ) used to converge to that edge instead of the
        // smallest satisfying period.
        let r = report();
        let crit = &r.critical().analysis;
        let edge = crit.mean - crit.sigma;
        let y_edge = independent_yield(&r.paths, edge);
        assert!(y_edge > 0.0, "edge yield must be positive for this test");
        let target = y_edge * 0.5;
        let t = period_for_yield(&r, target).expect("reachable target");
        // The true smallest period lies strictly below the old edge.
        assert!(t < edge, "period {t} not below bracket edge {edge}");
        // It satisfies the target…
        assert!(independent_yield(&r.paths, t) >= target);
        // …and is minimal: a slightly smaller period does not.
        let eps = crit.sigma * 1e-6;
        assert!(independent_yield(&r.paths, t - eps) < target);
    }

    #[test]
    fn full_yield_target_met_beyond_initial_bracket() {
        // Regression: a target unmet at the initial upper bracket edge
        // (mean + 8σ) used to silently return that edge. Truncated PDFs
        // reach CDF = 1 at the top of their support, so target = 1.0 is
        // reachable — but possibly only past the initial bracket.
        let r = report();
        let t = period_for_yield(&r, 1.0).expect("full yield is reachable");
        assert_eq!(independent_yield(&r.paths, t), 1.0);
        // Minimality, up to bisection resolution.
        let eps = r.critical().analysis.sigma * 1e-6;
        assert!(independent_yield(&r.paths, t - eps) < 1.0);
    }

    #[test]
    fn independent_bound_tighter_with_more_paths() {
        let r = report();
        let period = r.critical().analysis.confidence_point;
        let all = independent_yield(&r.paths, period);
        let first_only = independent_yield(&r.paths[..1], period);
        assert!(all <= first_only + 1e-12);
    }
}
