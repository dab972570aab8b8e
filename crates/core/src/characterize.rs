//! One-time gate characterization.
//!
//! The methodology's first step: "we evaluate all gate deterministic
//! delays as well as derivatives with respect to all RVs that are being
//! considered, at their nominal values. These are one time calculations."
//! (§3). Each gate's α/β coefficients follow from its kind and fan-out
//! load; the delay gradient provides the Taylor coefficients `aᵢ…eᵢ` of
//! eq. (12).

use crate::{CoreError, Result};
use statim_netlist::{Circuit, Gate, GateId, Placement};
use statim_process::deriv::delay_gradient;
use statim_process::param::PerParam;
use statim_process::tech::{AlphaBeta, OperatingPoint};
use statim_process::{gate_delay, GateKind, Load, Technology};

/// Per-gate timing data, fixed for a given circuit and technology.
#[derive(Debug, Clone, PartialEq)]
pub struct GateTiming {
    /// Gate kind.
    pub kind: GateKind,
    /// Lumped α/β coefficients for this instance's load.
    pub ab: AlphaBeta,
    /// Nominal propagation delay, seconds.
    pub nominal: f64,
    /// Delay gradient at nominal, seconds per SI unit of each parameter
    /// (the constants `aᵢ…eᵢ` of the paper's eq. (12)).
    pub gradient: PerParam,
}

/// Timing data for every gate of a circuit, in gate-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitTiming {
    gates: Vec<GateTiming>,
    /// Each gate's output load, kept so [`CircuitTiming::recharacterize`]
    /// can re-time a gate whose nets an edit left alone without the
    /// whole-circuit wirelength pass.
    loads: Vec<Load>,
}

impl CircuitTiming {
    /// Timing of one gate.
    #[inline]
    pub fn gate(&self, id: GateId) -> &GateTiming {
        &self.gates[id.index()]
    }

    /// All per-gate timing data, gate-id order.
    pub fn gates(&self) -> &[GateTiming] {
        &self.gates
    }

    /// Nominal delay of a path (sum of its gates' nominal delays),
    /// seconds.
    pub fn path_delay(&self, path: &[GateId]) -> f64 {
        path.iter().map(|&g| self.gates[g.index()].nominal).sum()
    }

    /// Sums of the α and β coefficients along a path — the `A` and `B`
    /// constants of the separable inter-die delay
    /// `0.345/εox · tox·Leff · [A·f(Vdd,VTn) + B·f(Vdd,|VTp|)]`.
    pub fn path_alpha_beta(&self, path: &[GateId]) -> AlphaBeta {
        let mut alpha = 0.0;
        let mut beta = 0.0;
        for &g in path {
            alpha += self.gates[g.index()].ab.alpha;
            beta += self.gates[g.index()].ab.beta;
        }
        AlphaBeta { alpha, beta }
    }

    /// The timing of `circuit`, an ECO edit of the circuit this timing
    /// was characterized from by [`characterize_placed`] under the same
    /// `tech` and `placement`: equal, bit for bit, to
    /// `characterize_placed(circuit, tech, placement)`.
    ///
    /// `touched` lists the gates the edit touched, ascending, as
    /// [`crate::apply_edits`] returns them. A resize, retime or swap
    /// moves no net, so every other gate keeps its load and its timing:
    /// only the touched gates are characterized again, by the same
    /// per-gate code with their kept loads. An edit that `rewires` a pin
    /// moves loads and, through the mean-wirelength normalization, every
    /// placed gate's wire capacitance, so the whole circuit is
    /// characterized again.
    ///
    /// # Errors
    ///
    /// As [`characterize_placed`].
    pub fn recharacterize(
        &self,
        circuit: &Circuit,
        tech: &Technology,
        placement: &Placement,
        touched: &[GateId],
        rewires: bool,
    ) -> Result<CircuitTiming> {
        let n = circuit.gate_count();
        if rewires || n != self.gates.len() || n != placement.len() {
            return characterize_placed(circuit, tech, placement);
        }
        let nominal_pt = tech.nominal_point();
        let mut timing = self.clone();
        for &g in touched {
            let i = g.index();
            timing.gates[i] =
                characterize_gate(tech, &nominal_pt, circuit.gate(g), &self.loads[i], i)?;
        }
        Ok(timing)
    }
}

/// Characterizes every gate of `circuit` under `tech`: loads from the
/// netlist fan-out (with the technology's default wire capacitance),
/// nominal delay from eq. (2), gradient from the analytic derivatives.
///
/// # Errors
///
/// Returns [`CoreError::EmptyCircuit`] for a gate-less circuit and
/// [`CoreError::NonFiniteDelay`] if any delay fails to evaluate (which
/// indicates an invalid technology setup).
pub fn characterize(circuit: &Circuit, tech: &Technology) -> Result<CircuitTiming> {
    characterize_with_wires(circuit, tech, None)
}

/// Placement-aware characterization: each gate's wire capacitance scales
/// with the Manhattan length of its fan-out net, normalized so the
/// circuit-average wire capacitance equals the technology default
/// (`cap_g = c_wire · (0.6 + len_g / (2.5·mean_len))`).
///
/// This is what a DEF-driven flow (the paper reads DEF) sees: regular
/// structures like c6288's multiplier array get their delay ties broken
/// by routing, which is essential for realistic near-critical path
/// counts.
///
/// # Errors
///
/// Same failure modes as [`characterize`], plus a placement/gate-count
/// mismatch.
pub fn characterize_placed(
    circuit: &Circuit,
    tech: &Technology,
    placement: &Placement,
) -> Result<CircuitTiming> {
    if placement.len() != circuit.gate_count() {
        return Err(CoreError::Netlist(
            statim_netlist::NetlistError::PlacementMismatch {
                gates: circuit.gate_count(),
                placed: placement.len(),
            },
        ));
    }
    characterize_with_wires(circuit, tech, Some(placement))
}

fn characterize_with_wires(
    circuit: &Circuit,
    tech: &Technology,
    placement: Option<&Placement>,
) -> Result<CircuitTiming> {
    if circuit.gate_count() == 0 {
        return Err(CoreError::EmptyCircuit);
    }
    let loads = loads(circuit, tech, placement);
    let nominal_pt = tech.nominal_point();
    let mut gates = Vec::with_capacity(circuit.gate_count());
    for (i, (gate, load)) in circuit.gates().iter().zip(&loads).enumerate() {
        gates.push(characterize_gate(tech, &nominal_pt, gate, load, i)?);
    }
    Ok(CircuitTiming { gates, loads })
}

/// Every gate's output load: its fan-out pins and, with a placement, the
/// wire capacitance of its fan-out net.
fn loads(circuit: &Circuit, tech: &Technology, placement: Option<&Placement>) -> Vec<Load> {
    let fanout = circuit.fanout_pins();
    let Some(pl) = placement else {
        return fanout.into_iter().map(Load::fanout).collect();
    };
    // Per-gate fan-out wirelength (sum of Manhattan distances to sinks).
    let mut length = vec![0.0f64; circuit.gate_count()];
    for (i, g) in circuit.gates().iter().enumerate() {
        let (x1, y1) = pl.position(GateId(i as u32));
        for s in &g.inputs {
            if let statim_netlist::Signal::Gate(src) = s {
                let (x0, y0) = pl.position(*src);
                length[src.index()] += (x1 - x0).abs() + (y1 - y0).abs();
            }
        }
    }
    let with_fanout: Vec<f64> = length.iter().copied().filter(|&l| l > 0.0).collect();
    let mean = if with_fanout.is_empty() {
        1.0
    } else {
        with_fanout.iter().sum::<f64>() / with_fanout.len() as f64
    };
    fanout
        .into_iter()
        .zip(&length)
        .map(|(pins, &l)| Load::with_wire(pins, tech.c_wire * (0.6 + l / (2.5 * mean))))
        .collect()
}

/// Characterizes gate `index` of a circuit at its output `load`.
///
/// Always inlined: in the full pass's loop the compiler then hoists the
/// delay model's per-technology terms out of the loop, which a call per
/// gate would recompute (a called version made the full pass about 20%
/// slower).
#[inline(always)]
fn characterize_gate(
    tech: &Technology,
    nominal_pt: &OperatingPoint,
    gate: &Gate,
    load: &Load,
    index: usize,
) -> Result<GateTiming> {
    let mut ab = tech.alpha_beta(gate.kind, load);
    // ECO resize: a gate sized by `drive` sources drive× the
    // current, so both coefficients (each ∝ C/(µ·W)) shrink by the
    // same factor.
    if gate.drive != 1.0 {
        ab.alpha /= gate.drive;
        ab.beta /= gate.drive;
    }
    // ECO retime: fold the pad into β so exactly `pad` seconds land
    // on the nominal delay while the pad inherits the same
    // inter-die (tox, Leff, Vdd, VTp) dependence as the gate.
    if gate.pad != 0.0 {
        let geom = tech.tox * tech.leff / tech.eps_ox;
        let kernel = statim_process::delay::voltage_kernel(tech.vdd, tech.vtp);
        ab.beta += gate.pad / (statim_process::tech::ELMORE_K * geom * kernel);
    }
    let nominal = gate_delay(tech, &ab, nominal_pt);
    if !nominal.is_finite() || nominal <= 0.0 {
        return Err(CoreError::NonFiniteDelay { gate: index });
    }
    let gradient = delay_gradient(tech, &ab, nominal_pt);
    Ok(GateTiming {
        kind: gate.kind,
        ab,
        nominal,
        gradient,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_netlist::circuit::Circuit;
    use statim_process::Param;

    fn tiny() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", GateKind::Nand(2), &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Inv, &[g1]).unwrap();
        let g3 = c.add_gate("g3", GateKind::Inv, &[g1]).unwrap();
        c.mark_output("o1", g2).unwrap();
        c.mark_output("o2", g3).unwrap();
        c
    }

    #[test]
    fn characterize_assigns_loads() {
        let c = tiny();
        let t = characterize(&c, &Technology::cmos130()).unwrap();
        assert_eq!(t.gates().len(), 3);
        // g1 drives two pins, g2/g3 none: heavier load, slower gate.
        assert!(t.gates()[0].nominal > t.gates()[1].nominal);
        assert_eq!(t.gates()[1].nominal, t.gates()[2].nominal);
        for g in t.gates() {
            assert!(g.nominal > 0.0);
            assert!(g.gradient.get(Param::Leff) > 0.0);
            assert!(g.gradient.get(Param::Vdd) < 0.0);
        }
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new("empty");
        assert!(matches!(
            characterize(&c, &Technology::cmos130()),
            Err(CoreError::EmptyCircuit)
        ));
    }

    #[test]
    fn path_delay_sums() {
        let c = tiny();
        let t = characterize(&c, &Technology::cmos130()).unwrap();
        let ids: Vec<_> = c.gate_ids().collect();
        let d = t.path_delay(&[ids[0], ids[1]]);
        assert!((d - (t.gates()[0].nominal + t.gates()[1].nominal)).abs() < 1e-18);
        assert_eq!(t.path_delay(&[]), 0.0);
    }

    #[test]
    fn drive_and_pad_overlays_shift_nominal_delay() {
        let mut c = tiny();
        let base = characterize(&c, &Technology::cmos130()).unwrap();
        let g1 = statim_netlist::GateId(0);
        // Doubling the drive halves both coefficients, halving the delay.
        c.set_drive(g1, 2.0).unwrap();
        let resized = characterize(&c, &Technology::cmos130()).unwrap();
        let got = resized.gate(g1).nominal;
        let want = base.gate(g1).nominal / 2.0;
        assert!((got - want).abs() < 1e-18, "{got} vs {want}");
        assert_eq!(resized.gates()[1], base.gates()[1], "others untouched");
        // A pad lands on the nominal delay exactly, to f64 round-off.
        c.set_drive(g1, 1.0).unwrap();
        let pad = 2.5e-12;
        c.set_pad(g1, pad).unwrap();
        let padded = characterize(&c, &Technology::cmos130()).unwrap();
        let got = padded.gate(g1).nominal - base.gate(g1).nominal;
        assert!((got - pad).abs() < 1e-24, "pad landed as {got}, want {pad}");
    }

    #[test]
    fn path_alpha_beta_sums() {
        let c = tiny();
        let t = characterize(&c, &Technology::cmos130()).unwrap();
        let ids: Vec<_> = c.gate_ids().collect();
        let ab = t.path_alpha_beta(&[ids[0], ids[1]]);
        assert!((ab.alpha - (t.gates()[0].ab.alpha + t.gates()[1].ab.alpha)).abs() < 1e-12);
        assert!((ab.beta - (t.gates()[0].ab.beta + t.gates()[1].ab.beta)).abs() < 1e-12);
    }
}
