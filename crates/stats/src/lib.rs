//! Discretized probability-density engine for statistical timing analysis.
//!
//! The DATE'05 methodology of Mangassarian & Anis computes every delay
//! distribution *numerically*: probability density functions (PDFs) are
//! sampled on uniform grids (`QUALITYintra` = 100 and `QUALITYinter` = 50
//! points in the paper), summed by grid convolution in `O(QUALITY²)`, and
//! compared through confidence points such as the 3σ point.
//!
//! This crate provides that machinery, independent of any timing semantics:
//!
//! * [`Grid`] — a uniform sample grid over a closed interval;
//! * [`Pdf`] — a piecewise-constant density on a [`Grid`], with moments,
//!   CDF, quantiles and sigma points;
//! * [`gaussian`] — error-function, normal and truncated-normal utilities
//!   (the paper truncates every input PDF at ±6σ);
//! * [`marginal`] — input distribution families (Gaussian, uniform,
//!   triangular) with matched mean and σ;
//! * [`convolve`] — the density of a **sum** of independent variables,
//!   with a selectable backend ([`ConvolveBackend`]): direct grid
//!   accumulation or the spectral kernel;
//! * [`fft`] — the in-crate radix-2 FFT powering
//!   [`ConvolveBackend::Fft`];
//! * [`combine`] — the density of an arbitrary function of one, two or
//!   three independent variables by exhaustive grid enumeration (used for
//!   the non-linear inter-die delay), plus the independent-**max** kernel;
//! * [`sample`] — inverse-CDF sampling for Monte-Carlo validation;
//! * [`tabulate`] — plain-text rendering of distributions for reports.
//!
//! # Example
//!
//! Convolving two Gaussians adds their means and variances:
//!
//! ```
//! use statim_stats::convolve::{sum_pdf_resampled_with, ConvolveBackend};
//! use statim_stats::gaussian::gaussian_pdf;
//!
//! let a = gaussian_pdf(10.0, 2.0, 6.0, 100);
//! let b = gaussian_pdf(20.0, 1.5, 6.0, 100);
//! let s = sum_pdf_resampled_with(ConvolveBackend::Grid, &a, &b, 200).unwrap();
//! assert!((s.mean() - 30.0).abs() < 0.05);
//! assert!((s.variance() - (4.0 + 2.25)).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod convolve;
pub mod error;
pub mod fft;
pub mod gaussian;
pub mod grid;
pub mod marginal;
pub mod pdf;
pub mod sample;
pub mod tabulate;

pub use convolve::ConvolveBackend;
pub use error::StatsError;
pub use grid::Grid;
pub use marginal::Marginal;
pub use pdf::Pdf;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
