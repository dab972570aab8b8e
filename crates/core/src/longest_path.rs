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
    relax(circuit, &nominal_delays(timing), |_, _, _| {})
}

fn nominal_delays(timing: &CircuitTiming) -> Vec<f64> {
    timing.gates().iter().map(|g| g.nominal).collect()
}

/// [`bellman_ford`], also returning its [`LabelHistory`].
pub(crate) fn bellman_ford_recorded(
    circuit: &Circuit,
    timing: &CircuitTiming,
) -> Result<(Labels, LabelHistory)> {
    let mut log = Vec::new();
    let labels = relax(circuit, &nominal_delays(timing), |gate, sweep, value| {
        log.push((gate as u32, sweep as u32, value));
    })?;
    let gates = circuit.gate_count();
    let (start, log) = group(&log, gates, |&(g, _, _)| g as usize);
    let mut history = LabelHistory {
        start,
        sweep: log.iter().map(|&(_, s, _)| s).collect(),
        value: log.iter().map(|&(_, _, v)| v).collect(),
        settled: Vec::new(),
    };
    for g in 0..gates {
        if let Some(last) = history.last_sweep(g) {
            history.settle(last);
        }
    }
    Ok((labels, history))
}

/// `items` grouped by `key`, a value below `keys`, keeping their order
/// within a group: the start of each group, then the items in group
/// order. A counting sort.
fn group<T: Copy>(items: &[T], keys: usize, key: impl Fn(&T) -> usize) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; keys + 1];
    for item in items {
        start[key(item) + 1] += 1;
    }
    for k in 0..keys {
        start[k + 1] += start[k];
    }
    let mut fill = start.clone();
    let mut grouped = items.to_vec();
    for item in items {
        let k = key(item);
        grouped[fill[k] as usize] = *item;
        fill[k] += 1;
    }
    (start, grouped)
}

/// Every label change a Bellman-Ford run made: per gate, the sweep of
/// each change (the seed is sweep 0) and the label it set, in sweep
/// order, in flat arrays.
///
/// A sweep visits gates in descending id order and every wire runs from
/// a lower id to a higher one, so a sweep reads only the labels the
/// sweep before it left: the sweeps are a Jacobi iteration. After an
/// edit, a gate outside the fanout cone of what the edit moved therefore
/// holds the base run's label at every sweep, and this history gives the
/// cone's boundary inputs at any sweep ([`relabel_cone`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LabelHistory {
    /// Gate `g`'s changes are `start[g]..start[g + 1]`.
    start: Vec<u32>,
    sweep: Vec<u32>,
    value: Vec<f64>,
    /// `settled[s]`: the gates whose last change came at sweep `s`.
    settled: Vec<u32>,
}

impl LabelHistory {
    fn range(&self, gate: usize) -> std::ops::Range<usize> {
        self.start[gate] as usize..self.start[gate + 1] as usize
    }

    /// The sweep of `gate`'s last change.
    fn last_sweep(&self, gate: usize) -> Option<u32> {
        self.sweep[self.range(gate)].last().copied()
    }

    /// Counts one more gate whose last change came at `sweep`.
    fn settle(&mut self, sweep: u32) {
        let s = sweep as usize;
        if self.settled.len() <= s {
            self.settled.resize(s + 1, 0);
        }
        self.settled[s] += 1;
    }

    /// This history with the changes of the gates `cone` (ascending)
    /// replaced by `log`'s: `(position in cone, sweep, label)` in sweep
    /// order.
    fn replace(&self, cone: &[usize], log: &[(u32, u32, f64)]) -> LabelHistory {
        let (at, log) = group(log, cone.len(), |&(i, _, _)| i as usize);
        let gates = self.start.len() - 1;
        let mut out = LabelHistory {
            start: Vec::with_capacity(gates + 1),
            sweep: Vec::with_capacity(self.sweep.len() + log.len()),
            value: Vec::with_capacity(self.value.len() + log.len()),
            settled: self.settled.clone(),
        };
        // Gates `from..to` keep their changes, shifted as one run.
        let keep = |out: &mut LabelHistory, from: usize, to: usize| {
            let r = self.start[from] as usize..self.start[to] as usize;
            let shift = out.sweep.len().wrapping_sub(r.start) as u32;
            let starts = self.start[from..to].iter().map(|s| s.wrapping_add(shift));
            out.start.extend(starts);
            out.sweep.extend_from_slice(&self.sweep[r.clone()]);
            out.value.extend_from_slice(&self.value[r]);
        };
        let mut kept = 0;
        for (i, &c) in cone.iter().enumerate() {
            keep(&mut out, kept, c);
            kept = c + 1;
            if let Some(s) = self.last_sweep(c) {
                out.settled[s as usize] -= 1;
            }
            out.start.push(out.sweep.len() as u32);
            let changes = &log[at[i] as usize..at[i + 1] as usize];
            out.sweep.extend(changes.iter().map(|&(_, s, _)| s));
            out.value.extend(changes.iter().map(|&(_, _, v)| v));
            if let Some(&(_, s, _)) = changes.last() {
                out.settle(s);
            }
        }
        keep(&mut out, kept, gates);
        out.start.push(out.sweep.len() as u32);
        while out.settled.last() == Some(&0) {
            out.settled.pop();
        }
        out
    }
}

/// [`bellman_ford`]'s labels and sweep count for `circuit`, and its
/// [`LabelHistory`], computed from a base run's `labels` and `history`
/// by sweeping only the gates in `cone`. `circuit` and `timing` are the
/// base's after an edit that moved delays or wires only inside `cone`,
/// which must be closed under fanout.
///
/// Outside the cone every gate keeps its base label at every sweep (see
/// [`LabelHistory`]). A cone gate is visited at sweep `s` when one of
/// its inputs changed at `s − 1`: a cone input in this simulation, a
/// boundary input by the history. The sweep count is one more than the
/// latest change over all gates.
pub(crate) fn relabel_cone(
    circuit: &Circuit,
    timing: &CircuitTiming,
    labels: &Labels,
    history: &LabelHistory,
    cone: &[bool],
) -> (Labels, LabelHistory) {
    const NEVER: u32 = u32::MAX;
    let gates = circuit.gates();
    let timing = timing.gates();
    let cone_ids: Vec<usize> = (0..gates.len()).filter(|&g| cone[g]).collect();
    let mut arrival = labels.arrival.clone();
    // `last[g]`: the sweep of gate g's latest change so far, for the
    // cone and its boundary.
    let mut last = vec![NEVER; gates.len()];
    // The cone gates' gate inputs, flat, in cone order.
    let mut input_start = Vec::with_capacity(cone_ids.len() + 1);
    let mut inputs = Vec::new();
    // The boundary's changes, `(sweep, gate, label)`, and the cone's,
    // `(position in cone, sweep, label)`, each in sweep order.
    let mut replay = Vec::new();
    let mut log = Vec::new();
    input_start.push(0);
    for (i, &c) in cone_ids.iter().enumerate() {
        let mut seeded = false;
        for s in &gates[c].inputs {
            let Signal::Gate(b) = *s else {
                seeded = true;
                continue;
            };
            let b = b.index();
            inputs.push(b as u32);
            if !cone[b] && arrival[b] != f64::NEG_INFINITY {
                arrival[b] = f64::NEG_INFINITY;
                let r = history.range(b);
                let changes = history.sweep[r.clone()].iter().zip(&history.value[r]);
                replay.extend(changes.map(|(&s, &v)| (s, b as u32, v)));
            }
        }
        input_start.push(inputs.len() as u32);
        arrival[c] = f64::NEG_INFINITY;
        if seeded {
            (arrival[c], last[c]) = (timing[c].nominal, 0);
            log.push((i as u32, 0, arrival[c]));
        }
    }
    let (_, replay) = group(&replay, history.settled.len(), |&(s, _, _)| s as usize);
    let mut moved = !log.is_empty();
    let (mut sweep, mut next) = (0u32, 0);
    loop {
        if !moved {
            // Nothing in the cone moved: skip to the next boundary change.
            match replay.get(next) {
                Some(&(s, _, _)) => sweep = s,
                None => break,
            }
        }
        while let Some(&(s, b, v)) = replay.get(next).filter(|e| e.0 == sweep) {
            (arrival[b as usize], last[b as usize]) = (v, s);
            next += 1;
        }
        sweep += 1;
        moved = false;
        for (i, &c) in cone_ids.iter().enumerate().rev() {
            let ins = &inputs[input_start[i] as usize..input_start[i + 1] as usize];
            if !ins.iter().any(|&d| last[d as usize] == sweep - 1) {
                continue;
            }
            let own = timing[c].nominal;
            let mut best = arrival[c];
            for &d in ins {
                let a = arrival[d as usize];
                if a.is_finite() && a + own > best {
                    best = a + own;
                }
            }
            if best > arrival[c] {
                (arrival[c], last[c]) = (best, sweep);
                log.push((i as u32, sweep, best));
                moved = true;
            }
        }
    }
    let history = history.replace(&cone_ids, &log);
    let sweeps = history.settled.len();
    (Labels { arrival, sweeps }, history)
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
/// delays, one per gate. `record` sees every label change as `(gate,
/// sweep, label)`, in sweep order; the seeds are sweep 0.
fn relax(
    circuit: &Circuit,
    nominal: &[f64],
    mut record: impl FnMut(usize, usize, f64),
) -> Result<Labels> {
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
            record(i, 0, nominal[i]);
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
                record(i, sweeps, best);
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
            let got = relax(&c, &nominal, |_, _, _| {}).expect("labels computed");
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
