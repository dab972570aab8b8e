//! The five random parameters of the methodology and their variation
//! specification.

use std::fmt;

/// A varying process or environment parameter.
///
/// The paper's sensitivity analysis (§2.2) selects these five as the
/// dominant contributors to gate-delay variation; all are modeled as
/// Gaussian random variables truncated at ±6σ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Param {
    /// Gate-oxide thickness `tox` (meters).
    Tox,
    /// Effective channel length `Leff` (meters).
    Leff,
    /// Supply voltage `Vdd` (volts).
    Vdd,
    /// NMOS threshold voltage `VTn` (volts).
    Vtn,
    /// PMOS threshold-voltage magnitude `|VTp|` (volts).
    Vtp,
}

impl Param {
    /// All five parameters, in the canonical order used throughout the
    /// workspace (and by coefficient arrays such as the paper's
    /// `a..e` of eq. (12)).
    pub const ALL: [Param; 5] = [Param::Tox, Param::Leff, Param::Vdd, Param::Vtn, Param::Vtp];

    /// Number of parameters (the paper's `R`).
    pub const COUNT: usize = 5;

    /// Canonical index of this parameter in [`Param::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Param::Tox => 0,
            Param::Leff => 1,
            Param::Vdd => 2,
            Param::Vtn => 3,
            Param::Vtp => 4,
        }
    }

    /// Direction (+1 or −1) in which *increasing* the parameter increases
    /// gate delay, used to build the deterministic worst-case corner:
    /// thicker oxide, longer channel, higher thresholds and *lower* supply
    /// all slow the gate.
    #[inline]
    pub fn worst_direction(self) -> f64 {
        match self {
            Param::Tox | Param::Leff | Param::Vtn | Param::Vtp => 1.0,
            Param::Vdd => -1.0,
        }
    }

    /// Human-readable symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Param::Tox => "tox",
            Param::Leff => "Leff",
            Param::Vdd => "Vdd",
            Param::Vtn => "VTn",
            Param::Vtp => "|VTp|",
        }
    }

    /// SI unit of the parameter.
    pub fn unit(self) -> &'static str {
        match self {
            Param::Tox | Param::Leff => "m",
            Param::Vdd | Param::Vtn | Param::Vtp => "V",
        }
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A quintuple of per-parameter values, indexed by [`Param`].
///
/// Used for standard deviations, Taylor coefficients and operating-point
/// deltas alike.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerParam(pub [f64; Param::COUNT]);

impl PerParam {
    /// Value for `p`.
    #[inline]
    pub fn get(&self, p: Param) -> f64 {
        self.0[p.index()]
    }

    /// Sets the value for `p`.
    #[inline]
    pub fn set(&mut self, p: Param, v: f64) {
        self.0[p.index()] = v;
    }

    /// Builds from a function of the parameter.
    pub fn from_fn(mut f: impl FnMut(Param) -> f64) -> Self {
        let mut v = [0.0; Param::COUNT];
        for p in Param::ALL {
            v[p.index()] = f(p);
        }
        PerParam(v)
    }

    /// Elementwise map.
    pub fn map(&self, mut f: impl FnMut(Param, f64) -> f64) -> Self {
        PerParam::from_fn(|p| f(p, self.get(p)))
    }

    /// Iterates `(Param, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Param, f64)> + '_ {
        Param::ALL.iter().map(move |&p| (p, self.get(p)))
    }
}

impl std::ops::Index<Param> for PerParam {
    type Output = f64;
    fn index(&self, p: Param) -> &f64 {
        &self.0[p.index()]
    }
}

impl std::ops::IndexMut<Param> for PerParam {
    fn index_mut(&mut self, p: Param) -> &mut f64 {
        &mut self.0[p.index()]
    }
}

/// Variation specification: per-parameter standard deviation and the
/// truncation multiple of the input Gaussians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variations {
    /// Standard deviation of each parameter (total, before any layer
    /// split), in SI units.
    pub sigma: PerParam,
    /// Input PDFs are truncated at ±`trunc_k`·σ (the paper uses 6).
    pub trunc_k: f64,
}

impl Variations {
    /// The paper's variation set (Table 1 caption, after Nassif ISSCC'00):
    /// σ_tox = 0.15 nm, σ_Leff = 15 nm, σ_Vdd = 40 mV, σ_VTn = 13 mV,
    /// σ_VTp = 14 mV, truncated at ±6σ.
    pub fn date05() -> Self {
        let mut sigma = PerParam::default();
        sigma.set(Param::Tox, 0.15e-9);
        sigma.set(Param::Leff, 15e-9);
        sigma.set(Param::Vdd, 40e-3);
        sigma.set(Param::Vtn, 13e-3);
        sigma.set(Param::Vtp, 14e-3);
        Variations {
            sigma,
            trunc_k: 6.0,
        }
    }

    /// Returns a copy with every σ scaled by `factor` (used by variability
    /// sweeps and ablations).
    pub fn scaled(&self, factor: f64) -> Self {
        Variations {
            sigma: self.sigma.map(|_, s| s * factor),
            trunc_k: self.trunc_k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for p in Param::ALL {
            assert_eq!(Param::ALL[p.index()], p);
        }
    }

    #[test]
    fn worst_directions() {
        assert_eq!(Param::Vdd.worst_direction(), -1.0);
        assert_eq!(Param::Leff.worst_direction(), 1.0);
        assert_eq!(Param::Tox.worst_direction(), 1.0);
        assert_eq!(Param::Vtn.worst_direction(), 1.0);
        assert_eq!(Param::Vtp.worst_direction(), 1.0);
    }

    #[test]
    fn per_param_get_set() {
        let mut v = PerParam::default();
        v.set(Param::Vdd, 1.5);
        assert_eq!(v.get(Param::Vdd), 1.5);
        assert_eq!(v[Param::Vdd], 1.5);
        v[Param::Tox] = 2.0;
        assert_eq!(v.get(Param::Tox), 2.0);
        let doubled = v.map(|_, x| 2.0 * x);
        assert_eq!(doubled.get(Param::Vdd), 3.0);
    }

    #[test]
    fn per_param_iter_order() {
        let v = PerParam([1.0, 2.0, 3.0, 4.0, 5.0]);
        let syms: Vec<&str> = v.iter().map(|(p, _)| p.symbol()).collect();
        assert_eq!(syms, vec!["tox", "Leff", "Vdd", "VTn", "|VTp|"]);
    }

    #[test]
    fn date05_sigmas_match_paper() {
        let v = Variations::date05();
        assert_eq!(v.sigma.get(Param::Tox), 0.15e-9);
        assert_eq!(v.sigma.get(Param::Leff), 15e-9);
        assert_eq!(v.sigma.get(Param::Vdd), 0.040);
        assert_eq!(v.sigma.get(Param::Vtn), 0.013);
        assert_eq!(v.sigma.get(Param::Vtp), 0.014);
        assert_eq!(v.trunc_k, 6.0);
    }

    #[test]
    fn scaled_multiplies_sigma() {
        let v = Variations::date05().scaled(2.0);
        assert_eq!(v.sigma.get(Param::Leff), 30e-9);
        assert_eq!(v.trunc_k, 6.0);
    }

    #[test]
    fn display_symbols() {
        assert_eq!(Param::Tox.to_string(), "tox");
        assert_eq!(Param::Vtp.to_string(), "|VTp|");
        assert_eq!(Param::Vdd.unit(), "V");
        assert_eq!(Param::Leff.unit(), "m");
    }
}
