//! Random sampling from discretized distributions.
//!
//! Used by the Monte-Carlo validator (`statim-core::monte_carlo`), which
//! checks the analytic SSTA machinery against the exact non-linear delay
//! model, and by randomized tests.

use crate::pdf::Pdf;
use crate::Result;
use rand::Rng;

/// A sampler drawing values from a [`Pdf`] by inverse-CDF lookup.
///
/// Construction precomputes the cumulative masses; each draw is a binary
/// search plus linear interpolation inside the chosen cell.
#[derive(Debug, Clone)]
pub struct PdfSampler {
    edges: Vec<f64>,
    cum: Vec<f64>,
}

impl PdfSampler {
    /// Builds a sampler for `pdf`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StatsError::ZeroMass`] if the PDF has no mass.
    pub fn new(pdf: &Pdf) -> Result<Self> {
        let pdf = pdf.normalized()?;
        let g = pdf.grid();
        let step = g.step();
        let mut cum = Vec::with_capacity(g.len() + 1);
        cum.push(0.0);
        let mut acc = 0.0;
        for &d in pdf.density() {
            acc += d * step;
            cum.push(acc);
        }
        // Force exact 1.0 at the end to make draws in [0,1) always land.
        let total = *cum.last().expect("non-empty");
        for c in &mut cum {
            *c /= total;
        }
        let edges = (0..=g.len()).map(|i| g.edge(i)).collect();
        Ok(PdfSampler { edges, cum })
    }

    /// Draws one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.inverse(u)
    }

    /// Deterministic inverse-CDF lookup for `u ∈ [0, 1)`.
    pub fn inverse(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        // Find the first cumulative value >= u.
        let mut lo = 0usize;
        let mut hi = self.cum.len() - 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.cum[mid] < u {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let c0 = self.cum[lo];
        let c1 = self.cum[hi];
        let frac = if c1 > c0 { (u - c0) / (c1 - c0) } else { 0.5 };
        self.edges[lo] + frac * (self.edges[hi] - self.edges[lo])
    }
}

/// Draws one standard normal variate via Box–Muller. Kept local so the
/// crate does not depend on `rand_distr`.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Draws a normal variate with the given mean and σ, re-drawing until it
/// falls within `mean ± trunc_k·sigma` — the paper's ±6σ truncation.
pub fn truncated_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64, trunc_k: f64) -> f64 {
    loop {
        let z = standard_normal(rng);
        if z.abs() <= trunc_k {
            return mean + sigma * z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::gaussian_pdf;
    use crate::{Grid, Pdf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_reproduces_moments() {
        let pdf = gaussian_pdf(50.0, 4.0, 6.0, 200);
        let s = PdfSampler::new(&pdf).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..40_000).map(|_| s.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 50.0).abs() < 0.1);
        assert!((var.sqrt() - 4.0).abs() < 0.1);
    }

    #[test]
    fn inverse_is_monotone() {
        let pdf = gaussian_pdf(0.0, 1.0, 6.0, 100);
        let s = PdfSampler::new(&pdf).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let x = s.inverse(i as f64 / 100.0);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn inverse_median_of_uniform() {
        let g = Grid::over(0.0, 2.0, 10).unwrap();
        let u = Pdf::new(g, vec![1.0; 10]).unwrap();
        let s = PdfSampler::new(&u).unwrap();
        assert!((s.inverse(0.5) - 1.0).abs() < 1e-9);
        assert!((s.inverse(0.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..40_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.03);
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = truncated_normal(&mut rng, 10.0, 2.0, 3.0);
            assert!((4.0..=16.0).contains(&x));
        }
    }
}
