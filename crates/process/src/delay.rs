//! Gate-delay evaluation (the paper's eq. (2)) and corner analysis.

use crate::param::{PerParam, Variations};
use crate::tech::{AlphaBeta, OperatingPoint, Technology, ELMORE_K};

/// The voltage kernel `f(V, T) = V/(V − T)^1.3 + 1/(1.5·V − 2·T)` shared by
/// the NMOS and PMOS terms of eq. (2).
///
/// Returns `f64::INFINITY` when `V ≤ T` or `1.5·V ≤ 2·T` (transistor out
/// of its operating region) so that callers can detect invalid corners
/// instead of silently producing garbage.
pub fn voltage_kernel(v: f64, t: f64) -> f64 {
    let head = v - t;
    let tail = 1.5 * v - 2.0 * t;
    if head <= 0.0 || tail <= 0.0 {
        return f64::INFINITY;
    }
    v / head.powf(1.3) + 1.0 / tail
}

/// Propagation delay of a gate with coefficients `ab` at operating point
/// `pt` (seconds) — the paper's eq. (2):
///
/// `tp = 0.345·(tox·Leff/εox)·[α·f(Vdd, VTn) + β·f(Vdd, |VTp|)]`.
///
/// # Examples
///
/// ```
/// use statim_process::{Technology, GateKind, Load, gate_delay};
/// let tech = Technology::cmos130();
/// let ab = tech.alpha_beta(GateKind::Inv, &Load::fanout(2));
/// let tp = gate_delay(&tech, &ab, &tech.nominal_point());
/// assert!(tp > 0.0);
/// ```
pub fn gate_delay(tech: &Technology, ab: &AlphaBeta, pt: &OperatingPoint) -> f64 {
    let geom = pt.tox() * pt.leff() / tech.eps_ox;
    let h = ab.alpha * voltage_kernel(pt.vdd(), pt.vtn())
        + ab.beta * voltage_kernel(pt.vdd(), pt.vtp());
    ELMORE_K * geom * h
}

/// A deterministic analysis corner: each parameter offset from nominal by
/// `k` standard deviations in a chosen direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerSpec {
    /// Number of standard deviations.
    pub k: f64,
}

impl CornerSpec {
    /// The classical ±3σ corner used by the paper's "worst-case analysis".
    pub fn three_sigma() -> Self {
        CornerSpec { k: 3.0 }
    }

    /// A corner at `k` standard deviations.
    pub fn sigma(k: f64) -> Self {
        CornerSpec { k }
    }

    /// The slowest ("worst-case") operating point: every parameter moved
    /// `k·σ` in its delay-increasing direction.
    pub fn worst_point(&self, tech: &Technology, vars: &Variations) -> OperatingPoint {
        let delta = PerParam::from_fn(|p| p.worst_direction() * self.k * vars.sigma.get(p));
        tech.nominal_point().shifted(&delta)
    }

    /// The fastest ("best-case") operating point.
    pub fn best_point(&self, tech: &Technology, vars: &Variations) -> OperatingPoint {
        let delta = PerParam::from_fn(|p| -p.worst_direction() * self.k * vars.sigma.get(p));
        tech.nominal_point().shifted(&delta)
    }
}

/// Delay of the gate at the worst-case corner.
pub fn worst_case_delay(
    tech: &Technology,
    ab: &AlphaBeta,
    vars: &Variations,
    corner: CornerSpec,
) -> f64 {
    gate_delay(tech, ab, &corner.worst_point(tech, vars))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{GateKind, Load};
    use crate::param::Param;
    use crate::to_ps;

    #[test]
    fn kernel_positive_in_region() {
        let f = voltage_kernel(1.5, 0.4);
        assert!(f > 0.0 && f.is_finite());
        // Reference value computed by hand: 1.5/1.1^1.3 + 1/1.45.
        assert!((f - (1.5 / 1.1f64.powf(1.3) + 1.0 / 1.45)).abs() < 1e-12);
    }

    #[test]
    fn kernel_detects_cutoff() {
        assert!(voltage_kernel(0.4, 0.4).is_infinite());
        assert!(voltage_kernel(0.5, 0.4).is_infinite()); // 1.5·0.5 < 2·0.4
    }

    #[test]
    fn calibration_fo2_nand2_near_paper() {
        // Table 1 of the paper implies tp(2-NAND, FO2) ≈ 12.4 ps (see
        // tech.rs module docs). Allow ±15%.
        let tech = Technology::cmos130();
        let ab = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
        let tp = to_ps(gate_delay(&tech, &ab, &tech.nominal_point()));
        assert!(tp > 10.5 && tp < 14.3, "tp = {tp} ps");
    }

    #[test]
    fn gate_delay_ordering_matches_table1() {
        // Table 1's sensitivities scale with the delays themselves:
        // 2-NAND > 2-XNOR > 2-NOR > INV.
        let tech = Technology::cmos130();
        let load = Load::fanout(2);
        let tp = |k| {
            to_ps(gate_delay(
                &tech,
                &tech.alpha_beta(k, &load),
                &tech.nominal_point(),
            ))
        };
        let (nand, nor, inv, xnor) = (
            tp(GateKind::Nand(2)),
            tp(GateKind::Nor(2)),
            tp(GateKind::Inv),
            tp(GateKind::Xnor2),
        );
        assert!(nand > xnor * 0.8, "nand={nand} xnor={xnor}");
        assert!(xnor > nor, "xnor={xnor} nor={nor}");
        assert!(nor > inv, "nor={nor} inv={inv}");
    }

    #[test]
    fn worst_corner_slows_best_corner_speeds() {
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let ab = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
        let nom = gate_delay(&tech, &ab, &tech.nominal_point());
        let worst = worst_case_delay(&tech, &ab, &vars, CornerSpec::three_sigma());
        let best = gate_delay(
            &tech,
            &ab,
            &CornerSpec::three_sigma().best_point(&tech, &vars),
        );
        assert!(worst > nom);
        assert!(best < nom);
        // The paper's Table 2 shows worst-case ≈ 2× nominal at this corner.
        let ratio = worst / nom;
        assert!(ratio > 1.6 && ratio < 2.5, "ratio = {ratio}");
    }

    #[test]
    fn delay_monotone_in_each_worst_direction() {
        let tech = Technology::cmos130();
        let vars = Variations::date05();
        let ab = tech.alpha_beta(GateKind::Nor(3), &Load::fanout(1));
        let nom_pt = tech.nominal_point();
        let nom = gate_delay(&tech, &ab, &nom_pt);
        for p in Param::ALL {
            let shift = p.worst_direction() * vars.sigma.get(p);
            let pt = nom_pt.with(p, nom_pt.get(p) + shift);
            assert!(
                gate_delay(&tech, &ab, &pt) > nom,
                "moving {p} in worst direction must slow the gate"
            );
        }
    }
}
