//! Piecewise-constant probability density functions on uniform grids.

use crate::grid::{steps_compatible, Grid};
use crate::{Result, StatsError};
use std::sync::Arc;

/// A probability density function discretized on a [`Grid`].
///
/// The density is piecewise-constant: cell `i` carries probability mass
/// `density[i] · step`. A `Pdf` produced by the constructors in this crate
/// is normalized (total mass 1) unless documented otherwise.
///
/// This is the numerical object the DATE'05 paper calls a "PDF with
/// QUALITY discretization points".
///
/// The density is immutable and shared: a clone points at the same
/// cells, so it costs O(1) however large the grid. Equality compares the
/// cells, never the storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Pdf {
    grid: Grid,
    density: Arc<[f64]>,
}

impl Pdf {
    /// Creates a PDF from a grid and per-cell densities, normalizing the
    /// total mass to 1.
    ///
    /// # Errors
    ///
    /// Returns an error if the lengths mismatch, any density is negative
    /// or non-finite, or the total mass is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use statim_stats::{Grid, Pdf};
    /// let g = Grid::new(0.0, 1.0, 2).unwrap();
    /// let p = Pdf::new(g, vec![1.0, 3.0]).unwrap();
    /// assert!((p.mass() - 1.0).abs() < 1e-12);
    /// assert!((p.density()[1] - 0.75).abs() < 1e-12);
    /// ```
    pub fn new(grid: Grid, density: Vec<f64>) -> Result<Self> {
        check_density(&grid, &density)?;
        Pdf::normalize(grid, &density)
    }

    /// Creates a PDF by evaluating `f` at each cell center, then
    /// normalizing.
    ///
    /// # Errors
    ///
    /// Returns an error if `f` produces negative or non-finite values, or
    /// is identically zero on the grid.
    pub fn from_fn(grid: Grid, mut f: impl FnMut(f64) -> f64) -> Result<Self> {
        let density: Vec<f64> = grid.centers().map(&mut f).collect();
        Pdf::new(grid, density)
    }

    /// Builds a PDF as a normalized histogram of `samples` over `grid`.
    /// Samples falling outside the grid are clamped into the boundary
    /// cells (consistent with the paper's ±6σ truncation).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ZeroMass`] if `samples` is empty and
    /// [`StatsError::NonFinite`] if any sample is not finite.
    pub fn from_samples(grid: Grid, samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::ZeroMass);
        }
        let mut counts = vec![0.0f64; grid.len()];
        for &s in samples {
            if !s.is_finite() {
                return Err(StatsError::NonFinite { what: "sample" });
            }
            counts[grid.clamp_cell_of(s)] += 1.0;
        }
        Pdf::new(grid, counts)
    }

    /// The PDF concentrating all mass in the cell containing `x`
    /// (a discretized Dirac delta).
    ///
    /// # Errors
    ///
    /// Returns an error if `x` is not finite.
    pub fn delta(grid: Grid, x: f64) -> Result<Self> {
        if !x.is_finite() {
            return Err(StatsError::NonFinite {
                what: "delta location",
            });
        }
        let mut density = vec![0.0; grid.len()];
        density[grid.clamp_cell_of(x)] = 1.0;
        Pdf::new(grid, density)
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Deliberately corrupts cell `i % len` of the density with a NaN —
    /// the fault-injection port proving that no public constructor path
    /// can produce such a PDF and that downstream consumers quarantine
    /// it. The poisoned cells are a private copy: every other handle to
    /// the density keeps the finite cells. Compiled only with the
    /// `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_poisoned_cell(self, i: usize) -> Pdf {
        let mut density = self.density.to_vec();
        let n = density.len();
        if n > 0 {
            density[i % n] = f64::NAN;
        }
        Pdf {
            grid: self.grid,
            density: density.into(),
        }
    }

    /// Per-cell density values.
    #[inline]
    pub fn density(&self) -> &[f64] {
        &self.density
    }

    /// Number of discretization cells (the paper's `QUALITY`).
    #[inline]
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// Always `false`; present for API symmetry with collections.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.grid.is_empty()
    }

    /// Total probability mass `Σ density·step` (1 for a normalized PDF).
    pub fn mass(&self) -> f64 {
        self.density.iter().sum::<f64>() * self.grid.step()
    }

    /// Returns a normalized copy.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::ZeroMass`] if the total mass is zero.
    pub fn normalized(&self) -> Result<Self> {
        Pdf::normalize(self.grid, &self.density)
    }

    /// The PDF of `density` over `grid`, scaled to total mass 1.
    fn normalize(grid: Grid, density: &[f64]) -> Result<Self> {
        let m = density.iter().sum::<f64>() * grid.step();
        if m <= 0.0 || !m.is_finite() {
            return Err(StatsError::ZeroMass);
        }
        Ok(Pdf {
            grid,
            density: density.iter().map(|d| d / m).collect(),
        })
    }

    /// Mean `E[X]`, computed from cell centers.
    pub fn mean(&self) -> f64 {
        let step = self.grid.step();
        self.density
            .iter()
            .enumerate()
            .map(|(i, d)| self.grid.center(i) * d * step)
            .sum::<f64>()
            / self.mass()
    }

    /// Variance `E[(X−μ)²]`.
    pub fn variance(&self) -> f64 {
        let mu = self.mean();
        let step = self.grid.step();
        let v = self
            .density
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let dx = self.grid.center(i) - mu;
                dx * dx * d * step
            })
            .sum::<f64>()
            / self.mass();
        v.max(0.0)
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Central moment `E[(X−μ)ᵏ]`.
    pub fn central_moment(&self, k: u32) -> f64 {
        let mu = self.mean();
        let step = self.grid.step();
        self.density
            .iter()
            .enumerate()
            .map(|(i, d)| (self.grid.center(i) - mu).powi(k as i32) * d * step)
            .sum::<f64>()
            / self.mass()
    }

    /// Excess kurtosis `E[(X−μ)⁴]/σ⁴ − 3` (0 for a Gaussian, negative
    /// for lighter-tailed shapes like the uniform).
    pub fn excess_kurtosis(&self) -> f64 {
        let var = self.variance();
        if var == 0.0 {
            return 0.0;
        }
        self.central_moment(4) / (var * var) - 3.0
    }

    /// The paper's *confidence point*: `mean + k·σ`. `sigma_point(3.0)` is
    /// the 3σ point used to rank critical paths.
    pub fn sigma_point(&self, k: f64) -> f64 {
        self.mean() + k * self.std_dev()
    }

    /// Cumulative distribution `P(X ≤ x)`, linear within a cell.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.grid.lo() {
            return 0.0;
        }
        if x >= self.grid.hi() {
            return 1.0;
        }
        let m = self.mass();
        let step = self.grid.step();
        let i = self.grid.clamp_cell_of(x);
        let below: f64 = self.density[..i].iter().sum::<f64>() * step;
        let within = self.density[i] * (x - self.grid.edge(i));
        ((below + within) / m).clamp(0.0, 1.0)
    }

    /// Quantile function: the smallest `x` with `cdf(x) ≥ p`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] unless `0 ≤ p ≤ 1`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            return Err(StatsError::InvalidProbability { value: p });
        }
        let m = self.mass();
        let step = self.grid.step();
        let target = p * m;
        let mut acc = 0.0;
        for (i, &d) in self.density.iter().enumerate() {
            let cell_mass = d * step;
            if acc + cell_mass >= target {
                if cell_mass <= 0.0 {
                    return Ok(self.grid.edge(i));
                }
                let frac = (target - acc) / cell_mass;
                return Ok(self.grid.edge(i) + frac * step);
            }
            acc += cell_mass;
        }
        Ok(self.grid.hi())
    }

    /// Smallest interval of cells `[lo, hi]` carrying all but `eps` of the
    /// mass on each side. Useful for trimming negligible tails.
    pub fn support(&self, eps: f64) -> (f64, f64) {
        let m = self.mass();
        let step = self.grid.step();
        let mut lo_i = 0;
        let mut acc = 0.0;
        while lo_i + 1 < self.density.len() {
            acc += self.density[lo_i] * step;
            if acc > eps * m {
                break;
            }
            lo_i += 1;
        }
        let mut hi_i = self.density.len() - 1;
        let mut acc = 0.0;
        while hi_i > lo_i {
            acc += self.density[hi_i] * step;
            if acc > eps * m {
                break;
            }
            hi_i -= 1;
        }
        (self.grid.edge(lo_i), self.grid.edge(hi_i + 1))
    }

    /// Density of `Y = a·X + b`. `a` may be negative; the grid is flipped
    /// accordingly.
    ///
    /// # Errors
    ///
    /// Returns an error if `a == 0` or either coefficient is non-finite.
    pub fn affine(&self, a: f64, b: f64) -> Result<Pdf> {
        if !a.is_finite() || !b.is_finite() {
            return Err(StatsError::NonFinite {
                what: "affine coefficients",
            });
        }
        if a == 0.0 {
            return Err(StatsError::NonPositiveScale { value: a });
        }
        let n = self.grid.len();
        let step = self.grid.step() * a.abs();
        let (lo, density) = if a > 0.0 {
            (
                a * self.grid.lo() + b,
                self.density.iter().map(|d| d / a).collect(),
            )
        } else {
            (
                a * self.grid.hi() + b,
                self.density.iter().rev().map(|d| d / -a).collect(),
            )
        };
        let grid = Grid::new(lo, step, n)?;
        Ok(Pdf { grid, density })
    }

    /// Re-discretizes the PDF onto `target`, conserving probability mass.
    /// Mass in source cells is distributed over the target cells they
    /// overlap, proportionally to overlap length; mass outside `target`
    /// is accumulated into the boundary cells so the result keeps total
    /// mass (the paper's truncation convention).
    pub fn resample(&self, target: Grid) -> Pdf {
        let mut density = vec![0.0f64; target.len()];
        let src_step = self.grid.step();
        let tgt_step = target.step();
        for (i, &d) in self.density.iter().enumerate() {
            let mass = d * src_step;
            if mass == 0.0 {
                continue;
            }
            let a = self.grid.edge(i);
            let b = self.grid.edge(i + 1);
            // Clamp the source cell into the target span.
            let ca = a.max(target.lo()).min(target.hi());
            let cb = b.max(target.lo()).min(target.hi());
            // Out-of-range mass goes to the boundary cells.
            if a < target.lo() {
                let frac = ((target.lo() - a) / (b - a)).min(1.0);
                density[0] += mass * frac / tgt_step;
            }
            if b > target.hi() {
                let frac = ((b - target.hi()) / (b - a)).min(1.0);
                density[target.len() - 1] += mass * frac / tgt_step;
            }
            if cb <= ca {
                continue;
            }
            let in_mass = mass * (cb - ca) / (b - a);
            let i0 = target.clamp_cell_of(ca + 1e-12 * tgt_step);
            let i1 = target.clamp_cell_of(cb - 1e-12 * tgt_step);
            if i0 == i1 {
                density[i0] += in_mass / tgt_step;
            } else {
                for (j, cell) in density.iter_mut().enumerate().take(i1 + 1).skip(i0) {
                    let ja = target.edge(j).max(ca);
                    let jb = target.edge(j + 1).min(cb);
                    if jb > ja {
                        *cell += in_mass * (jb - ja) / (cb - ca) / tgt_step;
                    }
                }
            }
        }
        Pdf {
            grid: target,
            density: density.into(),
        }
    }

    /// Returns a copy resampled to exactly `n` cells over the current span.
    ///
    /// # Errors
    ///
    /// Returns an error if `n == 0`.
    pub fn with_quality(&self, n: usize) -> Result<Pdf> {
        let target = Grid::over(self.grid.lo(), self.grid.hi(), n)?;
        Ok(self.resample(target))
    }

    /// Location (cell center) of the maximum density.
    pub fn mode(&self) -> f64 {
        let (i, _) = self
            .density
            .iter()
            .enumerate()
            .fold(
                (0, f64::MIN),
                |best, (i, &d)| if d > best.1 { (i, d) } else { best },
            );
        self.grid.center(i)
    }

    /// Kolmogorov–Smirnov distance `sup_x |F_self(x) − F_other(x)|`,
    /// evaluated on the union of both grids' edges. The standard
    /// goodness-of-fit metric this workspace uses to compare analytic
    /// PDFs against Monte-Carlo references.
    pub fn ks_distance(&self, other: &Pdf) -> f64 {
        let mut worst = 0.0f64;
        for g in [&self.grid, &other.grid] {
            for i in 0..=g.len() {
                let x = g.edge(i);
                worst = worst.max((self.cdf(x) - other.cdf(x)).abs());
            }
        }
        worst
    }

    /// Pointwise mixture `w·self + (1−w)·other` on the union grid.
    ///
    /// # Errors
    ///
    /// Returns an error if grids have incompatible steps or `w ∉ [0,1]`.
    pub fn mix(&self, other: &Pdf, w: f64) -> Result<Pdf> {
        if !(0.0..=1.0).contains(&w) {
            return Err(StatsError::InvalidProbability { value: w });
        }
        if !steps_compatible(self.grid.step(), other.grid.step()) {
            return Err(StatsError::StepMismatch {
                left: self.grid.step(),
                right: other.grid.step(),
            });
        }
        let g = self.grid.union(&other.grid)?;
        let a = self.resample(g);
        let b = other.resample(g);
        let density = a
            .density
            .iter()
            .zip(b.density.iter())
            .map(|(x, y)| w * x + (1.0 - w) * y)
            .collect();
        Pdf::new(g, density)
    }
}

/// Rejects a density whose length differs from the grid's, or with a
/// negative or non-finite cell.
fn check_density(grid: &Grid, density: &[f64]) -> Result<()> {
    if density.len() != grid.len() {
        return Err(StatsError::LengthMismatch {
            grid: grid.len(),
            density: density.len(),
        });
    }
    for (i, &d) in density.iter().enumerate() {
        if !d.is_finite() {
            return Err(StatsError::NonFinite { what: "density" });
        }
        if d < 0.0 {
            return Err(StatsError::NegativeDensity { index: i, value: d });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(lo: f64, hi: f64, n: usize) -> Pdf {
        let g = Grid::over(lo, hi, n).unwrap();
        Pdf::new(g, vec![1.0; n]).unwrap()
    }

    #[test]
    fn new_normalizes() {
        let p = uniform(0.0, 2.0, 4);
        assert!((p.mass() - 1.0).abs() < 1e-12);
        assert!((p.density()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_density() {
        let g = Grid::new(0.0, 1.0, 2).unwrap();
        assert!(matches!(
            Pdf::new(g, vec![1.0]),
            Err(StatsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Pdf::new(g, vec![1.0, -0.5]),
            Err(StatsError::NegativeDensity { index: 1, .. })
        ));
        assert!(matches!(
            Pdf::new(g, vec![0.0, 0.0]),
            Err(StatsError::ZeroMass)
        ));
        assert!(Pdf::new(g, vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn uniform_moments() {
        let p = uniform(0.0, 12.0, 1200);
        assert!((p.mean() - 6.0).abs() < 1e-9);
        assert!((p.variance() - 12.0).abs() < 0.01); // var of U(0,12) = 144/12
    }

    #[test]
    fn delta_mass_in_one_cell() {
        let g = Grid::new(0.0, 1.0, 10).unwrap();
        let p = Pdf::delta(g, 3.7).unwrap();
        assert_eq!(p.mode(), 3.5);
        assert!((p.mass() - 1.0).abs() < 1e-12);
        assert!((p.variance()).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_quantile_roundtrip() {
        let p = uniform(2.0, 4.0, 100);
        assert!((p.cdf(3.0) - 0.5).abs() < 1e-9);
        assert!((p.quantile(0.5).unwrap() - 3.0).abs() < 1e-9);
        assert_eq!(p.cdf(1.0), 0.0);
        assert_eq!(p.cdf(5.0), 1.0);
        assert!(p.quantile(1.5).is_err());
        assert!(p.quantile(-0.1).is_err());
    }

    #[test]
    fn higher_moments() {
        // Uniform: excess kurtosis −6/5.
        let u = uniform(0.0, 1.0, 400);
        assert!((u.excess_kurtosis() + 1.2).abs() < 0.01);
        // Degenerate distribution: defined as zero.
        let d = Pdf::delta(Grid::new(0.0, 1.0, 4).unwrap(), 2.0).unwrap();
        assert_eq!(d.excess_kurtosis(), 0.0);
    }

    #[test]
    fn sigma_point_matches_moments() {
        let p = uniform(0.0, 1.0, 50);
        let expect = p.mean() + 3.0 * p.std_dev();
        assert!((p.sigma_point(3.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn affine_scales_and_shifts() {
        let p = uniform(0.0, 1.0, 40);
        let q = p.affine(2.0, 5.0).unwrap();
        assert!((q.mean() - (2.0 * p.mean() + 5.0)).abs() < 1e-9);
        assert!((q.variance() - 4.0 * p.variance()).abs() < 1e-9);
        assert!((q.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn affine_negative_flips() {
        let p = uniform(1.0, 2.0, 40);
        let q = p.affine(-1.0, 0.0).unwrap();
        assert!((q.mean() + p.mean()).abs() < 1e-9);
        assert!((q.grid().lo() + 2.0).abs() < 1e-9);
        assert!((q.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn affine_rejects_zero_scale() {
        let p = uniform(0.0, 1.0, 4);
        assert!(p.affine(0.0, 1.0).is_err());
    }

    #[test]
    fn resample_conserves_mass_and_moments() {
        let p = uniform(0.0, 10.0, 64);
        let fine = Grid::over(-1.0, 11.0, 999).unwrap();
        let q = p.resample(fine);
        assert!((q.mass() - 1.0).abs() < 1e-9);
        assert!((q.mean() - p.mean()).abs() < 0.02);
        assert!((q.variance() - p.variance()).abs() < 0.05);
    }

    #[test]
    fn resample_clamps_outside_mass_to_boundaries() {
        let p = uniform(0.0, 10.0, 100);
        let narrow = Grid::over(2.0, 8.0, 60).unwrap();
        let q = p.resample(narrow);
        assert!((q.mass() - 1.0).abs() < 1e-9);
        // 20% of mass piles into each boundary cell.
        assert!(q.density()[0] > q.density()[30] * 10.0);
    }

    #[test]
    fn from_samples_histogram() {
        let g = Grid::over(0.0, 4.0, 4).unwrap();
        let p = Pdf::from_samples(g, &[0.5, 0.6, 1.5, 3.5]).unwrap();
        assert!((p.mass() - 1.0).abs() < 1e-12);
        assert!((p.density()[0] - 0.5).abs() < 1e-12);
        assert!(Pdf::from_samples(g, &[]).is_err());
        assert!(Pdf::from_samples(g, &[f64::NAN]).is_err());
    }

    #[test]
    fn support_trims_tails() {
        let g = Grid::over(0.0, 10.0, 10).unwrap();
        let mut d = vec![0.0; 10];
        d[4] = 1.0;
        d[5] = 1.0;
        let p = Pdf::new(g, d).unwrap();
        let (lo, hi) = p.support(1e-9);
        assert!((lo - 4.0).abs() < 1e-9);
        assert!((hi - 6.0).abs() < 1e-9);
    }

    #[test]
    fn ks_distance_properties() {
        let a = uniform(0.0, 1.0, 100);
        let b = uniform(0.5, 1.5, 100);
        // Identity: zero distance to itself.
        assert_eq!(a.ks_distance(&a), 0.0);
        // Symmetry.
        assert!((a.ks_distance(&b) - b.ks_distance(&a)).abs() < 1e-12);
        // Known value: shifted uniforms overlap half — KS = 0.5.
        assert!((a.ks_distance(&b) - 0.5).abs() < 0.02);
        // Disjoint supports: KS = 1.
        let c = uniform(10.0, 11.0, 50);
        assert!((a.ks_distance(&c) - 1.0).abs() < 1e-9);
        // Bounded in [0, 1].
        assert!(a.ks_distance(&b) <= 1.0);
    }

    #[test]
    fn clones_share_the_density() {
        let p = uniform(0.0, 1.0, 64);
        let q = p.clone();
        assert_eq!(q.density().as_ptr(), p.density().as_ptr());
        assert_eq!(q, p);
        // Equal cells in separate storage still compare equal.
        let r = uniform(0.0, 1.0, 64);
        assert_ne!(r.density().as_ptr(), p.density().as_ptr());
        assert_eq!(r, p);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn poisoning_a_clone_leaves_the_original_finite() {
        let p = uniform(0.0, 1.0, 64);
        let poisoned = p.clone().with_poisoned_cell(17);
        assert!(poisoned.density()[17].is_nan());
        assert!(p.density().iter().all(|d| d.is_finite()));
        assert_ne!(poisoned.density().as_ptr(), p.density().as_ptr());
    }

    #[test]
    fn mix_blends() {
        let a = uniform(0.0, 1.0, 10);
        let b = uniform(0.5, 1.5, 10);
        let m = a.mix(&b, 0.5).unwrap();
        assert!((m.mass() - 1.0).abs() < 1e-9);
        assert!((m.mean() - 0.75).abs() < 1e-6);
        assert!(a.mix(&b, 1.5).is_err());
    }
}
