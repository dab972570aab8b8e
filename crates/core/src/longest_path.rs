//! Deterministic longest-path analysis.
//!
//! The paper uses the Bellman-Ford algorithm on the timing graph, with
//! each edge weighted by the delay of the gate *before* it (§3.1); the
//! label of a node is the maximum arrival time at its output. A
//! topological dynamic program is provided as the textbook single-pass
//! alternative — the two must agree exactly, and the benchmark harness
//! compares their run-times (ablation 1 of `DESIGN.md`).

use crate::characterize::CircuitTiming;
use crate::{CoreError, Result};
use statim_netlist::{Circuit, GateId, Signal};

/// Arrival-time labels for every gate (seconds at the gate *output*),
/// plus bookkeeping about how they were computed.
#[derive(Debug, Clone, PartialEq)]
pub struct Labels {
    /// Max arrival time at each gate's output, gate-id order.
    pub arrival: Vec<f64>,
    /// Relaxation sweeps the solver performed (1 for the topological DP).
    pub sweeps: usize,
}

impl Labels {
    /// The critical (maximum) arrival time over the primary outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyCircuit`] if the circuit has no gate-
    /// driven primary output.
    pub fn critical_delay(&self, circuit: &Circuit) -> Result<f64> {
        circuit
            .outputs()
            .iter()
            .filter_map(|&(_, s)| match s {
                Signal::Gate(g) => Some(self.arrival[g.index()]),
                Signal::Input(_) => None,
            })
            .max_by(|a, b| a.partial_cmp(b).expect("finite arrivals"))
            .ok_or(CoreError::EmptyCircuit)
    }
}

/// Computes labels with the Bellman-Ford algorithm, as the paper does.
///
/// Edges are relaxed in a fixed order that is *not* topological (gate-id
/// descending), so convergence genuinely takes multiple sweeps over the
/// edge list — the behaviour an implementation without topological
/// awareness exhibits. Worst-case complexity `O(|N|·|E|)`; the sweep
/// count is reported in the result.
///
/// A sweep visits only the gates with an input whose label moved in the
/// sweep before (the seeds count as sweep 0). Gates are stored in
/// topological order, so a descending sweep reads each input before
/// visiting it: every label it reads is the previous sweep's. A gate
/// whose inputs all held still would compare the same values again and
/// keep its label, so skipping it changes no label bit and no sweep
/// count.
///
/// # Errors
///
/// Returns [`CoreError::EmptyCircuit`] for a gate-less circuit.
pub fn bellman_ford(circuit: &Circuit, timing: &CircuitTiming) -> Result<Labels> {
    let nominal: Vec<f64> = timing.gates().iter().map(|g| g.nominal).collect();
    relax(circuit, &nominal)
}

/// Gate-to-gate edges as flat arrays: each gate's gate inputs, in pin
/// order, and each gate's fanout sinks.
struct FlatEdges {
    input_start: Vec<u32>,
    inputs: Vec<u32>,
    fanout_start: Vec<u32>,
    fanouts: Vec<u32>,
}

impl FlatEdges {
    fn new(circuit: &Circuit) -> FlatEdges {
        let n = circuit.gate_count();
        let mut input_start = Vec::with_capacity(n + 1);
        let mut inputs = Vec::new();
        let mut fanout_count = vec![0u32; n + 1];
        input_start.push(0);
        for g in circuit.gates() {
            for s in &g.inputs {
                if let Signal::Gate(src) = s {
                    inputs.push(src.0);
                    fanout_count[src.index() + 1] += 1;
                }
            }
            input_start.push(inputs.len() as u32);
        }
        for i in 0..n {
            fanout_count[i + 1] += fanout_count[i];
        }
        let fanout_start = fanout_count;
        let mut fill = fanout_start.clone();
        let mut fanouts = vec![0u32; inputs.len()];
        for sink in 0..n {
            for &src in &inputs[input_start[sink] as usize..input_start[sink + 1] as usize] {
                fanouts[fill[src as usize] as usize] = sink as u32;
                fill[src as usize] += 1;
            }
        }
        FlatEdges {
            input_start,
            inputs,
            fanout_start,
            fanouts,
        }
    }

    fn inputs(&self, gate: usize) -> &[u32] {
        &self.inputs[self.input_start[gate] as usize..self.input_start[gate + 1] as usize]
    }

    fn fanouts(&self, gate: usize) -> &[u32] {
        &self.fanouts[self.fanout_start[gate] as usize..self.fanout_start[gate + 1] as usize]
    }
}

/// The Bellman-Ford sweeps of [`bellman_ford`] over dense nominal
/// delays, one per gate.
fn relax(circuit: &Circuit, nominal: &[f64]) -> Result<Labels> {
    let n = circuit.gate_count();
    if n == 0 {
        return Err(CoreError::EmptyCircuit);
    }
    let edges = FlatEdges::new(circuit);
    let mut arrival = vec![f64::NEG_INFINITY; n];
    // `next[i]`: an input of gate `i` moved in the current sweep, so the
    // next sweep visits it. Seeding is sweep 0.
    let mut next = vec![false; n];
    let mut visit = vec![false; n];
    // Seed: a gate fed by at least one primary input can start a path.
    for (i, g) in circuit.gates().iter().enumerate() {
        if g.inputs.iter().any(|s| matches!(s, Signal::Input(_))) {
            arrival[i] = nominal[i];
            for &sink in edges.fanouts(i) {
                next[sink as usize] = true;
            }
        }
    }
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        // `visit` is all clear: every flag the last sweep read, it reset.
        std::mem::swap(&mut visit, &mut next);
        let mut changed = false;
        // Deliberately anti-topological order (see doc comment).
        for i in (0..n).rev() {
            if !visit[i] {
                continue;
            }
            visit[i] = false;
            let own = nominal[i];
            let mut best = arrival[i];
            for &src in edges.inputs(i) {
                let a = arrival[src as usize];
                if a.is_finite() && a + own > best {
                    best = a + own;
                }
            }
            if best > arrival[i] {
                arrival[i] = best;
                changed = true;
                for &sink in edges.fanouts(i) {
                    next[sink as usize] = true;
                }
            }
        }
        if !changed || sweeps > n {
            break;
        }
    }
    Ok(Labels { arrival, sweeps })
}

/// Computes labels with a single topological pass (gates are stored in
/// topological order, so one forward sweep suffices).
///
/// # Errors
///
/// Returns [`CoreError::EmptyCircuit`] for a gate-less circuit.
pub fn topo_labels(circuit: &Circuit, timing: &CircuitTiming) -> Result<Labels> {
    let n = circuit.gate_count();
    if n == 0 {
        return Err(CoreError::EmptyCircuit);
    }
    let mut arrival = vec![0.0f64; n];
    for (i, g) in circuit.gates().iter().enumerate() {
        let mut incoming: f64 = 0.0;
        for s in &g.inputs {
            if let Signal::Gate(src) = s {
                incoming = incoming.max(arrival[src.index()]);
            }
        }
        arrival[i] = incoming + timing.gates()[i].nominal;
    }
    Ok(Labels { arrival, sweeps: 1 })
}

/// Traces the deterministic critical path backward from the latest
/// primary output: at each step, the fan-in whose label explains the
/// current arrival. Returns gate ids from first gate to PO driver.
///
/// # Errors
///
/// Returns [`CoreError::EmptyCircuit`] if there is no gate-driven output.
pub fn critical_path(
    circuit: &Circuit,
    timing: &CircuitTiming,
    labels: &Labels,
) -> Result<Vec<GateId>> {
    let mut end: Option<GateId> = None;
    let mut best = f64::NEG_INFINITY;
    for &(_, s) in circuit.outputs() {
        if let Signal::Gate(g) = s {
            if labels.arrival[g.index()] > best {
                best = labels.arrival[g.index()];
                end = Some(g);
            }
        }
    }
    let mut node = end.ok_or(CoreError::EmptyCircuit)?;
    let mut path = vec![node];
    loop {
        let own = timing.gates()[node.index()].nominal;
        let target = labels.arrival[node.index()] - own;
        let mut pred: Option<GateId> = None;
        if target.abs() > 1e-24 {
            let mut best_err = f64::INFINITY;
            for s in &circuit.gates()[node.index()].inputs {
                if let Signal::Gate(src) = s {
                    let err = (labels.arrival[src.index()] - target).abs();
                    if err < best_err {
                        best_err = err;
                        pred = Some(*src);
                    }
                }
            }
            // The predecessor must explain the label exactly (up to
            // floating-point noise relative to the path delay).
            if let Some(p) = pred {
                if (labels.arrival[p.index()] - target).abs() > 1e-9 * labels.arrival[node.index()]
                {
                    pred = None;
                }
            }
        }
        match pred {
            Some(p) => {
                path.push(p);
                node = p;
            }
            None => break,
        }
    }
    path.reverse();
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, characterize_placed};
    use statim_process::{GateKind, Technology};

    fn diamond() -> (Circuit, CircuitTiming) {
        // a -> g1(NAND2, slow) -> g3
        // a -> g2(INV, fast)  -> g3 ; critical path goes through g1.
        let mut c = Circuit::new("d");
        let a = c.add_input("a").expect("circuit builds");
        let b = c.add_input("b").expect("circuit builds");
        let g1 = c
            .add_gate("g1", GateKind::Nand(4), &[a, b, a, b])
            .expect("circuit builds");
        let g2 = c
            .add_gate("g2", GateKind::Inv, &[a])
            .expect("circuit builds");
        let g3 = c
            .add_gate("g3", GateKind::Nand(2), &[g1, g2])
            .expect("circuit builds");
        c.mark_output("o", g3).expect("circuit builds");
        let t = characterize(&c, &Technology::cmos130()).expect("characterization succeeds");
        (c, t)
    }

    /// The solver as it was before sweeps skipped gates whose inputs
    /// held still: every sweep visits every gate. The flat solver must
    /// match it bit for bit, sweep count included.
    fn reference(circuit: &Circuit, nominal: &[f64]) -> Labels {
        let n = circuit.gate_count();
        let mut arrival = vec![f64::NEG_INFINITY; n];
        for (i, g) in circuit.gates().iter().enumerate() {
            if g.inputs.iter().any(|s| matches!(s, Signal::Input(_))) {
                arrival[i] = nominal[i];
            }
        }
        let mut sweeps = 0;
        loop {
            sweeps += 1;
            let mut changed = false;
            for i in (0..n).rev() {
                let own = nominal[i];
                let mut best = arrival[i];
                for s in &circuit.gates()[i].inputs {
                    if let Signal::Gate(src) = s {
                        let a = arrival[src.index()];
                        if a.is_finite() && a + own > best {
                            best = a + own;
                        }
                    }
                }
                if best > arrival[i] {
                    arrival[i] = best;
                    changed = true;
                }
            }
            if !changed || sweeps > n {
                break;
            }
        }
        Labels { arrival, sweeps }
    }

    fn label_bits(labels: &Labels) -> (usize, Vec<u64>) {
        let bits = labels.arrival.iter().map(|a| a.to_bits()).collect();
        (labels.sweeps, bits)
    }

    #[test]
    fn flat_solver_matches_the_reference_on_every_builtin() {
        use statim_netlist::generators::{iscas85, sequential};
        use statim_netlist::{Placement, PlacementStyle};
        let mut circuits: Vec<Circuit> = iscas85::Benchmark::ALL
            .iter()
            .map(|&b| iscas85::generate(b))
            .collect();
        circuits.push(sequential::s27());
        for (stages, width) in [(2, 8), (4, 16), (8, 32)] {
            circuits.push(sequential::pipeline(stages, width).expect("pipeline builds"));
        }
        let tech = Technology::cmos130();
        for c in &circuits {
            let p = Placement::generate(c, PlacementStyle::Levelized);
            let t = characterize_placed(c, &tech, &p).expect("characterization succeeds");
            let nominal: Vec<f64> = t.gates().iter().map(|g| g.nominal).collect();
            let got = bellman_ford(c, &t).expect("labels computed");
            assert_eq!(
                label_bits(&got),
                label_bits(&reference(c, &nominal)),
                "{}",
                c.name()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // Random DAGs whose delays come from three values, so labels tie
        // along many paths.
        #[test]
        fn flat_solver_matches_the_reference_on_random_dags(
            n_inputs in 1usize..5,
            specs in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0usize..1000, 3), 0usize..3),
                1..80,
            ),
        ) {
            let mut c = Circuit::new("random");
            let mut signals: Vec<Signal> = (0..n_inputs)
                .map(|i| c.add_input(format!("i{i}")).expect("input"))
                .collect();
            let mut nominal = Vec::new();
            for (g, (kind, picks, delay)) in specs.into_iter().enumerate() {
                let kind = match kind {
                    0 => GateKind::Inv,
                    1 => GateKind::Nand(2),
                    2 => GateKind::Nor(2),
                    _ => GateKind::Nand(3),
                };
                let ins: Vec<Signal> = (0..kind.fan_in())
                    .map(|k| signals[picks[k] % signals.len()])
                    .collect();
                signals.push(c.add_gate(format!("g{g}"), kind, &ins).expect("gate"));
                nominal.push([1.0e-11, 2.0e-11, 1.5e-11][delay]);
            }
            let got = relax(&c, &nominal).expect("labels computed");
            proptest::prop_assert_eq!(label_bits(&got), label_bits(&reference(&c, &nominal)));
        }
    }

    #[test]
    fn bellman_ford_equals_topo() {
        let (c, t) = diamond();
        let bf = bellman_ford(&c, &t).expect("labels computed");
        let tp = topo_labels(&c, &t).expect("labels computed");
        for (a, b) in bf.arrival.iter().zip(&tp.arrival) {
            assert!((a - b).abs() < 1e-18, "{a} vs {b}");
        }
        assert!(bf.sweeps >= 1);
        assert_eq!(tp.sweeps, 1);
    }

    #[test]
    fn bellman_ford_equals_topo_on_benchmark() {
        let c = statim_netlist::generators::iscas85::generate(
            statim_netlist::generators::iscas85::Benchmark::C880,
        );
        let t = characterize(&c, &Technology::cmos130()).expect("characterization succeeds");
        let bf = bellman_ford(&c, &t).expect("labels computed");
        let tp = topo_labels(&c, &t).expect("labels computed");
        for (a, b) in bf.arrival.iter().zip(&tp.arrival) {
            assert!((a - b).abs() < 1e-15 * b.abs().max(1e-12));
        }
        // Anti-topological relaxation takes several sweeps.
        assert!(bf.sweeps > 1, "sweeps = {}", bf.sweeps);
    }

    #[test]
    fn critical_delay_and_path() {
        let (c, t) = diamond();
        let labels = topo_labels(&c, &t).expect("labels computed");
        let d = labels.critical_delay(&c).expect("critical delay exists");
        let path = critical_path(&c, &t, &labels).expect("critical path exists");
        // Path g1 -> g3 (the slow branch).
        assert_eq!(path.len(), 2);
        assert_eq!(c.gate(path[0]).name, "g1");
        assert_eq!(c.gate(path[1]).name, "g3");
        assert!((t.path_delay(&path) - d).abs() < 1e-18);
    }

    #[test]
    fn empty_circuit_errors() {
        let c = Circuit::new("e");
        let mut c2 = Circuit::new("x");
        let a = c2.add_input("a").expect("circuit builds");
        c2.mark_output("o", a).expect("circuit builds"); // output driven directly by PI
        let t_err = characterize(&c, &Technology::cmos130());
        assert!(t_err.is_err());
        let g = c2.add_gate("g", GateKind::Inv, &[a]);
        let _ = g;
        let t = characterize(&c2, &Technology::cmos130()).expect("characterization succeeds");
        let labels = topo_labels(&c2, &t).expect("labels computed");
        // Only PI-driven outputs: no gate-driven PO to time.
        assert!(labels.critical_delay(&c2).is_err());
    }

    #[test]
    fn labels_monotone_along_path() {
        let c = statim_netlist::generators::iscas85::generate(
            statim_netlist::generators::iscas85::Benchmark::C432,
        );
        let t = characterize(&c, &Technology::cmos130()).expect("characterization succeeds");
        let labels = topo_labels(&c, &t).expect("labels computed");
        let path = critical_path(&c, &t, &labels).expect("critical path exists");
        assert!(!path.is_empty());
        for w in path.windows(2) {
            assert!(labels.arrival[w[0].index()] < labels.arrival[w[1].index()]);
        }
        // The traced path's delay equals the critical delay.
        let d = labels.critical_delay(&c).expect("critical delay exists");
        assert!((t.path_delay(&path) - d).abs() < 1e-12 * d);
    }
}
