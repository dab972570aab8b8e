//! Structural circuit statistics.
//!
//! The paper attributes its rank-migration findings to circuit *topology*:
//! "bushy" graphs (c1355) have many near-equal paths and large
//! deterministic→probabilistic rank changes, while circuits with
//! well-separated path delays (c7552) barely reorder. These metrics
//! quantify that character for reports and tests.

use crate::circuit::{Circuit, Signal};

/// Summary statistics of a circuit's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStats {
    /// Gate count.
    pub gates: usize,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Logic depth (gates on the longest topological path).
    pub depth: usize,
    /// Total distinct PI→PO paths (saturating).
    pub paths: u128,
    /// Mean gate fan-in.
    pub avg_fan_in: f64,
    /// Mean fan-out pins per gate.
    pub avg_fan_out: f64,
    /// Maximum fan-out pins of any gate.
    pub max_fan_out: usize,
    /// Gates per level of depth — a direct "bushiness" measure.
    pub gates_per_level: f64,
}

/// Computes [`CircuitStats`] for `circuit`.
pub fn analyze(circuit: &Circuit) -> CircuitStats {
    let gates = circuit.gate_count();
    let depth = circuit.depth();
    let pins = circuit.fanout_pins();
    let total_fan_in: usize = circuit.gates().iter().map(|g| g.inputs.len()).sum();
    CircuitStats {
        gates,
        inputs: circuit.input_count(),
        outputs: circuit.output_count(),
        depth,
        paths: circuit.path_count(),
        avg_fan_in: total_fan_in as f64 / gates.max(1) as f64,
        avg_fan_out: pins.iter().sum::<usize>() as f64 / gates.max(1) as f64,
        max_fan_out: pins.iter().copied().max().unwrap_or(0),
        gates_per_level: gates as f64 / depth.max(1) as f64,
    }
}

/// Number of distinct PI→PO paths that achieve the circuit's full logic
/// depth (saturating at `u128::MAX`).
///
/// This is the structural proxy for the paper's "bushiness": circuits
/// whose near-critical paths are tightly bunched (c1355's expanded XOR
/// trees) have *many* maximum-depth paths, while circuits dominated by a
/// single long carry chain (c7552) have few — which is exactly why the
/// former reorders heavily under statistical analysis and the latter does
/// not (their Figs. 5 and 6).
pub fn max_depth_path_count(circuit: &Circuit) -> u128 {
    let n = circuit.gate_count();
    let mut depth = vec![0usize; n];
    let mut count = vec![0u128; n];
    for (i, g) in circuit.gates().iter().enumerate() {
        let mut best = 0usize;
        for s in &g.inputs {
            if let Signal::Gate(src) = s {
                best = best.max(depth[src.index()]);
            }
        }
        let mut c: u128 = 0;
        for s in &g.inputs {
            match s {
                Signal::Input(_) => {
                    if best == 0 {
                        c = c.saturating_add(1);
                    }
                }
                Signal::Gate(src) => {
                    if depth[src.index()] == best {
                        c = c.saturating_add(count[src.index()]);
                    }
                }
            }
        }
        depth[i] = best + 1;
        count[i] = c;
    }
    let full = circuit.depth();
    let mut total: u128 = 0;
    for &(_, s) in circuit.outputs() {
        if let Signal::Gate(g) = s {
            if depth[g.index()] == full {
                total = total.saturating_add(count[g.index()]);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_process::GateKind;

    #[test]
    fn stats_of_small_circuit() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g1 = c.add_gate("g1", GateKind::Nand(2), &[a, b]).unwrap();
        let g2 = c.add_gate("g2", GateKind::Inv, &[g1]).unwrap();
        let g3 = c.add_gate("g3", GateKind::Nor(2), &[g1, g2]).unwrap();
        c.mark_output("o", g3).unwrap();
        let s = analyze(&c);
        assert_eq!(s.gates, 3);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.depth, 3);
        assert_eq!(s.paths, 2 + 2); // a,b through g1->g3 and g1->g2->g3
        assert!((s.avg_fan_in - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_fan_out, 2); // g1 feeds g2 and g3
    }

    #[test]
    fn empty_circuit_is_safe() {
        let c = Circuit::new("e");
        let s = analyze(&c);
        assert_eq!(s.gates, 0);
        assert_eq!(s.depth, 0);
    }
}
