//! The fanout adjacency of a circuit and its fanout-cone query.
//!
//! The timing graph every analysis walks is the netlist itself: gates
//! are stored in topological id order, so characterization, the label
//! solvers, the Fig. 2 enumeration, the sequential check extraction,
//! the block-based baseline and Monte-Carlo all sweep it in that order.
//! [`TimingGraph`] keeps only what that order does not give for free —
//! each gate's unique successors — and [`TimingGraph::fanout_cone`], the
//! reference that the incremental engine's ([`crate::incremental`])
//! one-pass dirty cone is tested against.

#![warn(clippy::unwrap_used)]

use crate::{CoreError, Result};
use statim_netlist::{Circuit, GateId, Signal};

/// The fanout adjacency of a circuit, indexed by the netlist's
/// [`GateId`]s (ECO edits never renumber surviving gates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingGraph {
    /// Unique gate successors per gate, ascending id order.
    fanout: Vec<Vec<GateId>>,
}

impl TimingGraph {
    /// Builds the adjacency from a circuit. Cost is `O(gates + pins)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyCircuit`] for a gate-less circuit.
    pub fn build(circuit: &Circuit) -> Result<TimingGraph> {
        if circuit.gate_count() == 0 {
            return Err(CoreError::EmptyCircuit);
        }
        let mut fanout = vec![Vec::new(); circuit.gate_count()];
        for (sink, gate) in circuit.gate_ids().zip(circuit.gates()) {
            for s in &gate.inputs {
                if let Signal::Gate(src) = s {
                    // Sinks are visited in id order, so every list comes
                    // out ascending and a duplicate pin repeats the last
                    // entry.
                    let succ = &mut fanout[src.index()];
                    if succ.last() != Some(&sink) {
                        succ.push(sink);
                    }
                }
            }
        }
        Ok(TimingGraph { fanout })
    }

    /// The forward (fanout) cone of `seeds`: a membership mask over gate
    /// ids, seeds included. This is the *dirty cone* of an ECO edit —
    /// every gate whose arrival could change when the seeds do.
    pub fn fanout_cone(&self, seeds: impl IntoIterator<Item = GateId>) -> Vec<bool> {
        let mut mask = vec![false; self.fanout.len()];
        let mut queue: Vec<GateId> = Vec::new();
        for s in seeds {
            if !mask[s.index()] {
                mask[s.index()] = true;
                queue.push(s);
            }
        }
        while let Some(g) = queue.pop() {
            for &succ in &self.fanout[g.index()] {
                if !mask[succ.index()] {
                    mask[succ.index()] = true;
                    queue.push(succ);
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_process::GateKind;

    fn diamond() -> Circuit {
        // a ─ g0 ─ g1 ─┐
        //        └─ g2 ─ g3 ─ out
        let mut c = Circuit::new("diamond");
        let a = c.add_input("a").expect("input");
        let g0 = c.add_gate("g0", GateKind::Inv, &[a]).expect("g0");
        let g1 = c.add_gate("g1", GateKind::Inv, &[g0]).expect("g1");
        let g2 = c.add_gate("g2", GateKind::Inv, &[g0]).expect("g2");
        let g3 = c.add_gate("g3", GateKind::Nand(2), &[g1, g2]).expect("g3");
        c.mark_output("out", g3).expect("output");
        c
    }

    #[test]
    fn duplicate_pins_collapse_in_fanout() {
        let mut c = Circuit::new("dup");
        let a = c.add_input("a").expect("input");
        let g0 = c.add_gate("g0", GateKind::Inv, &[a]).expect("g0");
        let g1 = c.add_gate("g1", GateKind::Nand(2), &[g0, g0]).expect("g1");
        c.mark_output("o", g1).expect("output");
        let g = TimingGraph::build(&c).expect("build");
        assert_eq!(g.fanout, vec![vec![GateId(1)], vec![]]);
        assert_eq!(g.fanout_cone([GateId(0)]), vec![true, true]);
    }

    #[test]
    fn empty_circuit_rejected() {
        assert!(matches!(
            TimingGraph::build(&Circuit::new("empty")),
            Err(CoreError::EmptyCircuit)
        ));
    }

    #[test]
    fn cones_cover_reachability() {
        let c = diamond();
        let g = TimingGraph::build(&c).expect("build");
        assert_eq!(
            g.fanout,
            vec![
                vec![GateId(1), GateId(2)],
                vec![GateId(3)],
                vec![GateId(3)],
                vec![]
            ]
        );
        let fwd = g.fanout_cone([GateId(1)]);
        assert_eq!(fwd, vec![false, true, false, true]);
        let seed = g.fanout_cone([GateId(3)]);
        assert_eq!(seed, vec![false, false, false, true], "seed included");
    }

    #[test]
    fn cone_on_c432_matches_brute_force() {
        let c = iscas85::generate(Benchmark::C432);
        let g = TimingGraph::build(&c).expect("build");
        let seed = GateId((c.gate_count() / 3) as u32);
        let mask = g.fanout_cone([seed]);
        // Brute force: propagate reachability in topological (id) order.
        let mut reach = vec![false; c.gate_count()];
        reach[seed.index()] = true;
        for (i, gate) in c.gates().iter().enumerate() {
            for s in &gate.inputs {
                if let Signal::Gate(src) = s {
                    if reach[src.index()] {
                        reach[i] = true;
                    }
                }
            }
        }
        assert_eq!(mask, reach);
    }
}
