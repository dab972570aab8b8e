//! Sequential benchmark generators: an s27-class circuit and a
//! parameterized register pipeline.
//!
//! Like the ISCAS85 equivalents in [`super::iscas85`], these are
//! structural stand-ins built from the supported gate library. `s27` is
//! the classic smallest ISCAS89 benchmark (3 registers, 10 gates, one
//! output) with its documented NOR/NAND feedback structure; `pipeline`
//! generates a `stages × width` register pipeline whose per-stage logic
//! is a NAND ripple chain mixed with XORs, so the critical path (and
//! therefore the minimum period) grows with `width` while bit 0 passes
//! through a single buffer — the short path that makes hold checks
//! non-trivial.

use crate::circuit::{Circuit, Signal};
use crate::Result;
use statim_process::GateKind;

/// Default clock period stamped on generated circuits (overridable via
/// `statim seq --period` or a `# statim clock period` directive).
pub const DEFAULT_PERIOD: f64 = 1e-9;
/// Default setup margin stamped on generated circuits.
pub const DEFAULT_SETUP: f64 = 2e-11;
/// Default hold margin stamped on generated circuits.
pub const DEFAULT_HOLD: f64 = 2e-12;
/// Most registers (`stages × width`) [`pipeline`] will generate: 256×
/// `pipe8x32`. A `pipe<S>x<W>` name arrives from CLI flags and daemon
/// `SUBMIT` lines, and each register costs its netlist about 0.7 KB, so
/// an unbounded name could allocate until the process aborts.
pub const MAX_PIPELINE_REGISTERS: usize = 65_536;

/// The s27-class benchmark: 4 true inputs, 3 registers, 10 gates, one
/// primary output.
pub fn s27() -> Circuit {
    try_s27().expect("s27 generator is structurally valid")
}

fn try_s27() -> Result<Circuit> {
    let mut c = Circuit::new("s27");
    let g0 = c.add_input("G0")?;
    let g1 = c.add_input("G1")?;
    let g2 = c.add_input("G2")?;
    let g3 = c.add_input("G3")?;
    let g5 = c.add_register("G5", 0)?; // <- G10
    let g6 = c.add_register("G6", 0)?; // <- G11
    let g7 = c.add_register("G7", 0)?; // <- G13
    let g14 = c.add_gate("G14", GateKind::Inv, &[g0])?;
    let g12 = c.add_gate("G12", GateKind::Nor(2), &[g1, g7])?;
    let g13 = c.add_gate("G13", GateKind::Nand(2), &[g2, g12])?;
    let g8 = c.add_gate("G8", GateKind::And(2), &[g14, g6])?;
    let g15 = c.add_gate("G15", GateKind::Or(2), &[g12, g8])?;
    let g16 = c.add_gate("G16", GateKind::Or(2), &[g3, g8])?;
    let g9 = c.add_gate("G9", GateKind::Nand(2), &[g16, g15])?;
    let g11 = c.add_gate("G11", GateKind::Nor(2), &[g5, g9])?;
    let g10 = c.add_gate("G10", GateKind::Nor(2), &[g14, g11])?;
    let g17 = c.add_gate("G17", GateKind::Inv, &[g11])?;
    c.mark_output("G17", g17)?;
    c.connect_register_d(0, g10)?;
    c.connect_register_d(1, g11)?;
    c.connect_register_d(2, g13)?;
    c.set_clock_period(DEFAULT_PERIOD)?;
    c.set_setup_margin(DEFAULT_SETUP)?;
    c.set_hold_margin(DEFAULT_HOLD)?;
    Ok(c)
}

/// A `stages × width` register pipeline named `pipe{stages}x{width}`.
///
/// Stage logic between register banks: bit 0 is a single buffer (the
/// hold-critical short path); bit `w > 0` is `x = XOR(prev[w], chain)`
/// where `chain` is a NAND ripple over bits `1..=w` — the setup-critical
/// long path, depth `width` at the top bit.
///
/// # Errors
///
/// Returns [`crate::error::NetlistError::InvalidConfig`] when `stages`
/// or `width` is zero, the circuit would be degenerate (width < 2), or
/// it would hold more than [`MAX_PIPELINE_REGISTERS`] registers.
pub fn pipeline(stages: usize, width: usize) -> Result<Circuit> {
    if stages == 0 || width < 2 {
        return Err(crate::error::NetlistError::InvalidConfig {
            message: format!("pipeline needs stages >= 1 and width >= 2, got {stages}x{width}"),
        });
    }
    if stages
        .checked_mul(width)
        .filter(|&registers| registers <= MAX_PIPELINE_REGISTERS)
        .is_none()
    {
        return Err(crate::error::NetlistError::InvalidConfig {
            message: format!(
                "pipeline {stages}x{width} exceeds the {MAX_PIPELINE_REGISTERS}-register bound \
                 (stages x width)"
            ),
        });
    }
    let mut c = Circuit::new(format!("pipe{stages}x{width}"));
    let mut prev: Vec<Signal> = (0..width)
        .map(|w| c.add_input(format!("in{w}")))
        .collect::<Result<_>>()?;
    let mut banks: Vec<Vec<Signal>> = Vec::with_capacity(stages);
    for s in 0..stages {
        let bank: Vec<Signal> = (0..width)
            .map(|w| c.add_register(format!("r{s}_{w}"), 0))
            .collect::<Result<_>>()?;
        banks.push(bank);
    }
    for (s, bank) in banks.iter().enumerate() {
        let d0 = c.add_gate(format!("b{s}"), GateKind::Buf, &[prev[0]])?;
        let mut ds = vec![d0];
        let mut chain = prev[0];
        for (w, &p) in prev.iter().enumerate().skip(1) {
            chain = c.add_gate(format!("c{s}_{w}"), GateKind::Nand(2), &[chain, p])?;
            let x = c.add_gate(format!("x{s}_{w}"), GateKind::Xor2, &[p, chain])?;
            ds.push(x);
        }
        for (w, d) in ds.into_iter().enumerate() {
            c.connect_register_d(s * width + w, d)?;
        }
        prev = bank.clone();
    }
    // `.bench` outputs are net names, so mark the final-bank Q nets
    // under their own names to keep the round trip exact.
    for q in prev.clone() {
        let name = c.signal_name(q).to_string();
        c.mark_output(name, q)?;
    }
    c.set_clock_period(DEFAULT_PERIOD)?;
    c.set_setup_margin(DEFAULT_SETUP)?;
    c.set_hold_margin(DEFAULT_HOLD)?;
    Ok(c)
}

/// Resolves a sequential generator by name: `s27` or `pipe{S}x{W}`
/// (e.g. `pipe4x8`). Returns `None` for unknown names and for pipelines
/// [`pipeline`] refuses; [`try_from_name`] keeps the refusal.
pub fn from_name(name: &str) -> Option<Circuit> {
    try_from_name(name)?.ok()
}

/// Like [`from_name`], but a name of the `pipe{S}x{W}` form that
/// [`pipeline`] refuses (zero stages, width below 2, more than
/// [`MAX_PIPELINE_REGISTERS`] registers) comes back as `Some(Err(..))`,
/// so callers can report why. `None` means the name is not a sequential
/// generator.
pub fn try_from_name(name: &str) -> Option<Result<Circuit>> {
    if name.eq_ignore_ascii_case("s27") {
        return Some(Ok(s27()));
    }
    let rest = name.strip_prefix("pipe")?;
    let (s, w) = rest.split_once('x')?;
    let stages: usize = s.parse().ok()?;
    let width: usize = w.parse().ok()?;
    Some(pipeline(stages, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_format;

    #[test]
    fn s27_shape() {
        let c = s27();
        assert_eq!(c.true_input_count(), 4);
        assert_eq!(c.registers().len(), 3);
        assert_eq!(c.gate_count(), 10);
        assert_eq!(c.output_count(), 1);
        assert!(c.is_sequential());
        assert!(c.dangling_gates().is_empty());
        assert_eq!(c.seq_spec().period, Some(DEFAULT_PERIOD));
    }

    #[test]
    fn pipeline_shape() {
        let c = pipeline(3, 4).unwrap();
        assert_eq!(c.name(), "pipe3x4");
        assert_eq!(c.true_input_count(), 4);
        assert_eq!(c.registers().len(), 12);
        // Per stage: 1 buffer + (width-1) * (NAND + XOR).
        assert_eq!(c.gate_count(), 3 * (1 + 3 * 2));
        assert_eq!(c.output_count(), 4);
        assert!(c.dangling_gates().is_empty());
        // Ripple chain dominates depth.
        assert_eq!(c.depth(), 4);
        assert!(pipeline(0, 4).is_err());
        assert!(pipeline(2, 1).is_err());
    }

    #[test]
    fn generators_round_trip_through_bench() {
        for c in [s27(), pipeline(2, 3).unwrap()] {
            let text = bench_format::write(&c);
            let back = bench_format::parse(c.name(), &text).unwrap();
            assert_eq!(c, back, "{} round trip", c.name());
        }
    }

    #[test]
    fn from_name_resolves() {
        assert_eq!(from_name("s27").unwrap().name(), "s27");
        assert_eq!(from_name("S27").unwrap().name(), "s27");
        assert_eq!(from_name("pipe4x8").unwrap().name(), "pipe4x8");
        assert!(from_name("c432").is_none());
        assert!(from_name("pipe0x8").is_none());
        assert!(from_name("pipexx").is_none());
        assert!(try_from_name("pipexx").is_none());
        assert!(matches!(try_from_name("pipe0x8"), Some(Err(_))));
    }

    #[test]
    fn pipeline_register_count_is_bounded() {
        // One register past the bound, a product that overflows usize
        // and a wire-sized name are refused before anything is allocated.
        for (stages, width) in [
            (1, MAX_PIPELINE_REGISTERS + 1),
            (MAX_PIPELINE_REGISTERS / 2 + 1, 2),
            (usize::MAX, 2),
            (100_000_000, 100_000_000),
        ] {
            match pipeline(stages, width) {
                Err(crate::error::NetlistError::InvalidConfig { message }) => {
                    assert!(message.contains("register bound"), "{message}")
                }
                other => panic!("{stages}x{width}: expected InvalidConfig, got {other:?}"),
            }
        }
        assert!(from_name("pipe100000000x100000000").is_none());
        assert!(matches!(
            try_from_name("pipe100000000x100000000"),
            Some(Err(crate::error::NetlistError::InvalidConfig { .. }))
        ));
        // The benchmark menus' pipelines sit far below it.
        assert!(from_name("pipe8x32").is_some());
        assert!(from_name("pipe4x16").is_some());
    }
}
