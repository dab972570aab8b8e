//! Levelized timing-graph IR.
//!
//! The engine's pipeline stages each re-derive structure from the raw
//! [`Circuit`] (fan-out pins here, levels there, predecessor scans in the
//! label solvers). This module builds that structure **once**: a
//! levelized DAG with stable node ids (the netlist's [`GateId`]s — edits
//! never renumber surviving gates), explicit fanin/fanout adjacency, and
//! a fanout-cone query: the reference that the incremental engine's
//! ([`crate::incremental`]) one-pass dirty cone is tested against.
//! [`crate::block_based`] and the sequential flow drive their
//! level-order propagation from the same IR.
//!
//! Each node can also carry a layered *arrival model* — the arrival time
//! of the worst path into the node together with that path's summed
//! (A, B) inter-die coefficients and its eq. (14) intra-die variance —
//! so per-node statistical summaries reuse exactly the kernels the
//! path-based flow is built on.

#![warn(clippy::unwrap_used)]

use crate::characterize::CircuitTiming;
use crate::correlation::LayerModel;
use crate::intra::{intra_variance, path_coefficients};
use crate::{CoreError, Result};
use statim_netlist::{Circuit, GateId, Placement, Signal};
use statim_process::param::Variations;
use statim_process::tech::AlphaBeta;

/// One node of the timing graph — a gate plus its structural context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// The gate this node represents (stable across re-builds as long as
    /// the gate survives: ids are netlist positions, and ECO edits never
    /// reorder gates).
    pub id: GateId,
    /// Topological level: 0 for gates fed only by primary inputs,
    /// `1 + max(level of gate fan-ins)` otherwise.
    pub level: usize,
    /// Unique gate predecessors, ascending id order (duplicate input
    /// pins collapse here; pin-accurate traversals read the netlist).
    pub fanin: Vec<GateId>,
    /// Unique gate successors, ascending id order.
    pub fanout: Vec<GateId>,
    /// Whether at least one input pin is a primary input.
    pub from_pi: bool,
    /// Whether this gate drives at least one primary output.
    pub drives_po: bool,
}

/// The per-node layered arrival model: the worst structural path into a
/// node, summarized by the two quantities the paper's analysis kernels
/// consume — the summed (A, B) inter-die coefficients and the eq. (14)
/// intra-die variance of that path.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalModel {
    /// Nominal arrival time at the node's output, seconds (equals the
    /// longest-path label).
    pub arrival: f64,
    /// Summed α/β of the worst path ending here — the `A`/`B` constants
    /// of the separable inter-die delay.
    pub ab: AlphaBeta,
    /// Eq. (14) intra-die delay variance of the worst path ending here,
    /// seconds².
    pub var_intra: f64,
    /// The fan-in that explains `arrival` (`None` for a level-0 node).
    pub worst_pred: Option<GateId>,
}

/// A levelized DAG view of a circuit, built once per (circuit, timing)
/// generation and shared by every analysis that needs structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingGraph {
    nodes: Vec<GraphNode>,
    /// Gates grouped by level, ascending id order within each level.
    levels: Vec<Vec<GateId>>,
}

impl TimingGraph {
    /// Builds the IR from a circuit. Cost is `O(gates + pins)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyCircuit`] for a gate-less circuit.
    pub fn build(circuit: &Circuit) -> Result<TimingGraph> {
        let n = circuit.gate_count();
        if n == 0 {
            return Err(CoreError::EmptyCircuit);
        }
        // The netlist reports 1-based levels; the IR is 0-based (level 0
        // = fed only by primary inputs).
        let level_of: Vec<usize> = circuit.levels().iter().map(|&l| l - 1).collect();
        let mut nodes: Vec<GraphNode> = circuit
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let mut fanin: Vec<GateId> = g
                    .inputs
                    .iter()
                    .filter_map(|s| match s {
                        Signal::Gate(src) => Some(*src),
                        Signal::Input(_) => None,
                    })
                    .collect();
                fanin.sort_unstable();
                fanin.dedup();
                GraphNode {
                    id: GateId(i as u32),
                    level: level_of[i],
                    fanin,
                    fanout: Vec::new(),
                    from_pi: g.inputs.iter().any(|s| matches!(s, Signal::Input(_))),
                    drives_po: false,
                }
            })
            .collect();
        for i in 0..n {
            // Fan-ins are ascending and gates are visited in id order, so
            // every fanout list comes out ascending without a sort.
            let fanin = nodes[i].fanin.clone();
            for src in fanin {
                nodes[src.index()].fanout.push(GateId(i as u32));
            }
        }
        for &(_, s) in circuit.outputs() {
            if let Signal::Gate(g) = s {
                nodes[g.index()].drives_po = true;
            }
        }
        let depth = level_of.iter().copied().max().unwrap_or(0);
        let mut levels = vec![Vec::new(); depth + 1];
        for (i, &l) in level_of.iter().enumerate() {
            levels[l].push(GateId(i as u32));
        }
        Ok(TimingGraph { nodes, levels })
    }

    /// One node.
    pub fn node(&self, id: GateId) -> &GraphNode {
        &self.nodes[id.index()]
    }

    /// All nodes, gate-id order.
    pub fn nodes(&self) -> &[GraphNode] {
        &self.nodes
    }

    /// Gates grouped by topological level (level 0 first, ascending id
    /// order within a level) — the iteration schedule for block-based
    /// propagation.
    pub fn levels(&self) -> &[Vec<GateId>] {
        &self.levels
    }

    /// Circuit depth in levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The forward (fanout) cone of `seeds`: a membership mask over gate
    /// ids, seeds included. This is the *dirty cone* of an ECO edit —
    /// every gate whose arrival could change when the seeds do.
    pub fn fanout_cone(&self, seeds: impl IntoIterator<Item = GateId>) -> Vec<bool> {
        let mut mask = vec![false; self.nodes.len()];
        let mut queue: Vec<GateId> = Vec::new();
        for s in seeds {
            if !mask[s.index()] {
                mask[s.index()] = true;
                queue.push(s);
            }
        }
        while let Some(g) = queue.pop() {
            for &succ in &self.nodes[g.index()].fanout {
                if !mask[succ.index()] {
                    mask[succ.index()] = true;
                    queue.push(succ);
                }
            }
        }
        mask
    }

    /// Computes every node's layered arrival model in one level-order
    /// sweep plus one worst-path back-walk per node: the worst arrival
    /// with its predecessor back-pointer, then the back-walked path's
    /// summed (A, B) inter-die coefficients and eq. (14) intra-die
    /// variance. `O(gates · depth)` overall.
    ///
    /// # Errors
    ///
    /// Propagates invalid layer-weight configurations from the variance
    /// kernel.
    pub fn arrival_models(
        &self,
        timing: &CircuitTiming,
        placement: &Placement,
        layers: &LayerModel,
        vars: &Variations,
    ) -> Result<Vec<ArrivalModel>> {
        let n = self.nodes.len();
        let mut arrival = vec![0.0f64; n];
        let mut pred: Vec<Option<GateId>> = vec![None; n];
        for level in &self.levels {
            for &g in level {
                let node = &self.nodes[g.index()];
                let mut best = 0.0f64;
                let mut best_pred = None;
                for &src in &node.fanin {
                    let a = arrival[src.index()];
                    if a > best {
                        best = a;
                        best_pred = Some(src);
                    }
                }
                arrival[g.index()] = best + timing.gate(g).nominal;
                pred[g.index()] = best_pred;
            }
        }
        let mut models = Vec::with_capacity(n);
        for i in 0..n {
            // Back-walk the worst path, then flip it into gate order so
            // the kernels see the same representation path analysis does.
            let mut path = vec![GateId(i as u32)];
            let mut at = pred[i];
            while let Some(p) = at {
                path.push(p);
                at = pred[p.index()];
            }
            path.reverse();
            let coeffs = path_coefficients(&path, timing, placement, layers);
            models.push(ArrivalModel {
                arrival: arrival[i],
                ab: timing.path_alpha_beta(&path),
                var_intra: intra_variance(&coeffs, layers, vars)?,
                worst_pred: pred[i],
            });
        }
        Ok(models)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize_placed;
    use crate::longest_path::topo_labels;
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_netlist::{PlacementStyle, Signal};
    use statim_process::{GateKind, Technology};

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
    fn builds_levels_and_adjacency() {
        let c = diamond();
        let g = TimingGraph::build(&c).expect("build");
        assert_eq!(g.nodes().len(), 4);
        assert_eq!(g.depth(), 3);
        assert_eq!(g.levels()[0], vec![GateId(0)]);
        assert_eq!(g.levels()[1], vec![GateId(1), GateId(2)]);
        assert_eq!(g.levels()[2], vec![GateId(3)]);
        let n0 = g.node(GateId(0));
        assert!(n0.from_pi && n0.fanin.is_empty());
        assert_eq!(n0.fanout, vec![GateId(1), GateId(2)]);
        let n3 = g.node(GateId(3));
        assert!(n3.drives_po);
        assert_eq!(n3.fanin, vec![GateId(1), GateId(2)]);
        assert!(n3.fanout.is_empty());
    }

    #[test]
    fn duplicate_pins_collapse_in_fanin() {
        let mut c = Circuit::new("dup");
        let a = c.add_input("a").expect("input");
        let g0 = c.add_gate("g0", GateKind::Inv, &[a]).expect("g0");
        let g1 = c.add_gate("g1", GateKind::Nand(2), &[g0, g0]).expect("g1");
        c.mark_output("o", g1).expect("output");
        let g = TimingGraph::build(&c).expect("build");
        assert_eq!(g.node(GateId(1)).fanin, vec![GateId(0)]);
        assert_eq!(g.node(GateId(0)).fanout, vec![GateId(1)]);
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

    #[test]
    fn arrival_models_match_topological_labels() {
        let c = iscas85::generate(Benchmark::C432);
        let placement = Placement::generate(&c, PlacementStyle::Levelized);
        let tech = Technology::cmos130();
        let timing = characterize_placed(&c, &tech, &placement).expect("characterize");
        let g = TimingGraph::build(&c).expect("build");
        let labels = topo_labels(&c, &timing).expect("labels");
        let models = g
            .arrival_models(
                &timing,
                &placement,
                &LayerModel::date05(),
                &Variations::date05(),
            )
            .expect("models");
        for (i, m) in models.iter().enumerate() {
            assert_eq!(m.arrival, labels.arrival[i], "gate {i}");
            assert!(m.var_intra >= 0.0);
            assert!(m.ab.alpha > 0.0 && m.ab.beta > 0.0);
        }
        // The worst-pred chain reconstructs a real path: its summed
        // nominal delay equals the label.
        let worst = models
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.arrival.total_cmp(&b.1.arrival))
            .map(|(i, _)| GateId(i as u32))
            .expect("non-empty");
        let mut path = vec![worst];
        while let Some(p) = models[path[path.len() - 1].index()].worst_pred {
            path.push(p);
        }
        path.reverse();
        let sum: f64 = path.iter().map(|&g| timing.gate(g).nominal).sum();
        assert!((sum - models[worst.index()].arrival).abs() < 1e-18);
    }
}
