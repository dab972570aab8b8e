//! Deterministic longest-path analysis.
//!
//! The paper uses the Bellman-Ford algorithm on the timing graph, with
//! each edge weighted by the delay of the gate *before* it (§3.1); the
//! label of a node is the maximum arrival time at its output. A
//! topological dynamic program is provided as the textbook single-pass
//! alternative — the two agree bit for bit, and the benchmark harness
//! compares their run-times (ablation 1 of `DESIGN.md`).
//!
//! One kernel runs Bellman-Ford's sweeps over a set of gates closed
//! under fanout, in flat arrays built for that set alone: every gate for
//! [`bellman_ford`], optionally recording each label change, or an ECO
//! edit's fanout cone, which reads its inputs from outside the cone,
//! sweep by sweep, from the base run's per-gate label history and hands
//! back only the cone's changes.

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
/// count, which is one more than the sweep of the last change.
///
/// # Errors
///
/// Returns [`CoreError::EmptyCircuit`] for a gate-less circuit.
pub fn bellman_ford(circuit: &Circuit, timing: &CircuitTiming) -> Result<Labels> {
    label(circuit, timing, Labeling::Full { record: false }).map(|(labels, _)| labels)
}

/// The gates a Bellman-Ford run sweeps, and what it hands back.
pub(crate) enum Labeling<'a> {
    /// Every gate; with `record`, every label change too.
    Full { record: bool },
    /// Only `cone`, closed under fanout: the gates an edit of a circuit
    /// labeled `labels` by a run that left `history` moved, or that read
    /// one it moved. The run reads every input from outside the cone,
    /// sweep by sweep, from `history`, and hands back the cone's changes.
    Cone {
        labels: &'a Labels,
        history: &'a LabelHistory,
        cone: &'a [bool],
    },
}

/// The label changes a run made on the gates it swept.
#[derive(Debug, Clone)]
pub(crate) struct LabelChanges {
    /// The swept gates, ascending.
    gates: Vec<u32>,
    /// Each change as `(index into gates, sweep, label)`, in sweep order
    /// (the seed is sweep 0).
    log: Vec<(u32, u32, f64)>,
}

/// Every label change of a Bellman-Ford run, per gate: `(sweep, label)`
/// pairs in sweep order.
///
/// A sweep visits gates in descending id order and every wire runs from
/// a lower id to a higher one, so a sweep reads only the labels the
/// sweep before it left: the sweeps are a Jacobi iteration. After an
/// edit, a gate outside the fanout cone of what the edit moved therefore
/// holds the base run's label at every sweep, and this history gives the
/// cone's inputs from outside it at any sweep ([`Labeling::Cone`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LabelHistory {
    changes: Vec<Vec<(u32, f64)>>,
    /// `settled[s]`: the gates whose last change came at sweep `s`.
    settled: Vec<u32>,
}

impl LabelHistory {
    /// The history of a run that swept every gate.
    pub(crate) fn new(changes: &LabelChanges) -> LabelHistory {
        let mut history = LabelHistory {
            changes: vec![Vec::new(); changes.gates.len()],
            settled: Vec::new(),
        };
        history.commit(changes);
        for gate in &mut history.changes {
            gate.shrink_to_fit();
        }
        history
    }

    /// Replaces the changes of the gates a relabel swept with its own,
    /// in time linear in those gates and their changes. Each gate keeps
    /// its buffer, so a commit allocates only where a gate's changes
    /// outgrow it.
    pub(crate) fn commit(&mut self, changes: &LabelChanges) {
        for &g in &changes.gates {
            let old = &mut self.changes[g as usize];
            if let Some(&(s, _)) = old.last() {
                self.settled[s as usize] -= 1;
            }
            old.clear();
        }
        for &(i, s, v) in &changes.log {
            self.changes[changes.gates[i as usize] as usize].push((s, v));
        }
        for &g in &changes.gates {
            if let Some(&(s, _)) = self.changes[g as usize].last() {
                let s = s as usize;
                if self.settled.len() <= s {
                    self.settled.resize(s + 1, 0);
                }
                self.settled[s] += 1;
            }
        }
        while self.settled.last() == Some(&0) {
            self.settled.pop();
        }
    }

    /// The latest sweep at which a gate outside `swept` (ascending) last
    /// changed, 0 when none did.
    fn latest_outside(&self, swept: &[u32]) -> u32 {
        let mut settled = self.settled.clone();
        for &g in swept {
            if let Some(&(s, _)) = self.changes[g as usize].last() {
                settled[s as usize] -= 1;
            }
        }
        settled.iter().rposition(|&n| n > 0).unwrap_or(0) as u32
    }
}

/// [`sweeps`] with each gate's nominal delay from `timing`.
pub(crate) fn label(
    circuit: &Circuit,
    timing: &CircuitTiming,
    labeling: Labeling<'_>,
) -> Result<(Labels, Option<LabelChanges>)> {
    let gates = timing.gates();
    sweeps(circuit, |g| gates[g].nominal, labeling)
}

/// Bellman-Ford's sweeps (see [`bellman_ford`]) over the gates
/// `labeling` names, gate `g` delaying by `own(g)`: the labels, and the
/// swept gates' changes when it asks for them.
///
/// A swept gate is visited at sweep `s` when one of its inputs changed
/// at `s − 1`: a swept input in this run, an input from outside by the
/// history, whose changes at `s` land after the sweep's visits. When no
/// swept gate is due, the run skips to the history's next change. The
/// sweep count is one more than the latest change over all gates, swept
/// or not.
fn sweeps(
    circuit: &Circuit,
    own: impl Fn(usize) -> f64,
    labeling: Labeling<'_>,
) -> Result<(Labels, Option<LabelChanges>)> {
    const NONE: u32 = u32::MAX;
    let gates = circuit.gates();
    let n = gates.len();
    if n == 0 {
        return Err(CoreError::EmptyCircuit);
    }
    let (base, record) = match labeling {
        Labeling::Full { record } => (None, record),
        Labeling::Cone {
            labels,
            history,
            cone,
        } => (Some((labels, history, cone)), true),
    };
    let ids: Vec<u32> = match base {
        None => (0..n as u32).collect(),
        Some((_, _, cone)) => (0..n as u32).filter(|&g| cone[g as usize]).collect(),
    };
    let m = ids.len();
    // `slot[g]`: where gate g sits in the flat arrays. The swept gates
    // come first, in id order; then each gate outside them that feeds
    // one, in the order they are met.
    let mut slot = vec![NONE; n];
    for (p, &g) in ids.iter().enumerate() {
        slot[g as usize] = p as u32;
    }
    let mut outside = Vec::new();
    let mut input_start = Vec::with_capacity(m + 1);
    let mut inputs = Vec::new();
    let mut delay = Vec::with_capacity(m);
    let mut seeds = Vec::new();
    input_start.push(0u32);
    for (p, &g) in ids.iter().enumerate() {
        let g = g as usize;
        let mut seeded = false;
        for s in &gates[g].inputs {
            let Signal::Gate(d) = *s else {
                seeded = true;
                continue;
            };
            let d = d.index();
            if slot[d] == NONE {
                slot[d] = (m + outside.len()) as u32;
                outside.push(d as u32);
            }
            inputs.push(slot[d]);
        }
        if seeded {
            seeds.push(p);
        }
        input_start.push(inputs.len() as u32);
        delay.push(own(g));
    }
    let slots = m + outside.len();
    // Each slot's swept fanout sinks.
    let mut fanout_start = vec![0u32; slots + 1];
    for &s in &inputs {
        fanout_start[s as usize + 1] += 1;
    }
    for s in 0..slots {
        fanout_start[s + 1] += fanout_start[s];
    }
    let mut fill = fanout_start.clone();
    let mut fanouts = vec![0u32; inputs.len()];
    for p in 0..m {
        for &s in &inputs[input_start[p] as usize..input_start[p + 1] as usize] {
            fanouts[fill[s as usize] as usize] = p as u32;
            fill[s as usize] += 1;
        }
    }
    // The outside gates' changes, `(sweep, slot, label)` in sweep order,
    // and the latest last change outside the swept gates.
    let (replay, latest_outside) = match base {
        None => (Vec::new(), 0),
        Some((_, history, _)) => {
            let mut replay: Vec<(u32, u32, f64)> = outside
                .iter()
                .zip(m as u32..)
                .flat_map(|(&g, s)| {
                    history.changes[g as usize]
                        .iter()
                        .map(move |&(w, v)| (w, s, v))
                })
                .collect();
            replay.sort_unstable_by_key(|&(w, ..)| w);
            (replay, history.latest_outside(&ids))
        }
    };

    // Each slot's label as of the sweep the loop is in.
    let mut value = vec![f64::NEG_INFINITY; slots];
    let mut log = Vec::new();
    // `next[p]`: an input of swept gate p moved, so the next sweep
    // visits it; `visit` is all clear between sweeps.
    let mut next = vec![false; m];
    let mut visit = vec![false; m];
    let flag = |slot: usize, next: &mut [bool]| {
        for &p in &fanouts[fanout_start[slot] as usize..fanout_start[slot + 1] as usize] {
            next[p as usize] = true;
        }
    };
    // Seed: a gate fed by at least one primary input can start a path.
    for &p in &seeds {
        value[p] = delay[p];
        if record {
            log.push((p as u32, 0, delay[p]));
        }
        flag(p, &mut next);
    }
    let mut pending = !seeds.is_empty();
    let (mut sweep, mut latest, mut at) = (0u32, 0u32, 0);
    loop {
        // The outside changes that end this sweep, for the next to read.
        while let Some(&(_, s, v)) = replay.get(at).filter(|&&(w, ..)| w == sweep) {
            value[s as usize] = v;
            flag(s as usize, &mut next);
            pending = true;
            at += 1;
        }
        if !pending {
            match replay.get(at) {
                Some(&(w, ..)) => {
                    sweep = w;
                    continue;
                }
                None => break,
            }
        }
        sweep += 1;
        pending = false;
        std::mem::swap(&mut visit, &mut next);
        // Deliberately anti-topological order (see `bellman_ford`).
        for p in (0..m).rev() {
            if !visit[p] {
                continue;
            }
            visit[p] = false;
            let own = delay[p];
            let mut best = value[p];
            for &d in &inputs[input_start[p] as usize..input_start[p + 1] as usize] {
                let a = value[d as usize];
                if a.is_finite() && a + own > best {
                    best = a + own;
                }
            }
            if best > value[p] {
                value[p] = best;
                if record {
                    log.push((p as u32, sweep, best));
                }
                flag(p, &mut next);
                (pending, latest) = (true, sweep);
            }
        }
    }
    let sweeps = 1 + latest.max(latest_outside) as usize;
    let arrival = match base {
        None => value,
        Some((labels, ..)) => {
            let mut arrival = labels.arrival.clone();
            for (&g, &v) in ids.iter().zip(&value) {
                arrival[g as usize] = v;
            }
            arrival
        }
    };
    let changes = record.then_some(LabelChanges { gates: ids, log });
    Ok((Labels { arrival, sweeps }, changes))
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

    fn arrival_bits(labels: &Labels) -> Vec<u64> {
        labels.arrival.iter().map(|a| a.to_bits()).collect()
    }

    /// Bellman-Ford over every gate of `c`, recording its history.
    fn recorded(c: &Circuit, nominal: &[f64]) -> (Labels, LabelHistory) {
        let (labels, changes) =
            sweeps(c, |g| nominal[g], Labeling::Full { record: true }).expect("labels computed");
        (labels, LabelHistory::new(&changes.expect("recorded")))
    }

    /// Bellman-Ford equals the every-gate reference loop, and the
    /// topological labels, bit for bit on every built-in under both
    /// placement styles.
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
            for style in [PlacementStyle::Levelized, PlacementStyle::Random(7)] {
                let p = Placement::generate(c, style);
                let t = characterize_placed(c, &tech, &p).expect("characterization succeeds");
                let nominal: Vec<f64> = t.gates().iter().map(|g| g.nominal).collect();
                let got = bellman_ford(c, &t).expect("labels computed");
                let name = format!("{} {style:?}", c.name());
                assert_eq!(
                    label_bits(&got),
                    label_bits(&reference(c, &nominal)),
                    "{name}"
                );
                let topo = topo_labels(c, &t).expect("labels computed");
                assert_eq!(arrival_bits(&got), arrival_bits(&topo), "{name}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // Random DAGs whose delays come from three values, so labels tie
        // along many paths. Then one gate's delay moves to one of them:
        // relabeling its fanout cone from the recorded base and committing
        // the changes gives what a recorded run over every gate gives.
        #[test]
        fn flat_solver_matches_the_reference_on_random_dags(
            n_inputs in 1usize..5,
            specs in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0usize..1000, 3), 0usize..3),
                1..80,
            ),
            edit in (0usize..1000, 0usize..3),
        ) {
            const DELAYS: [f64; 3] = [1.0e-11, 2.0e-11, 1.5e-11];
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
                nominal.push(DELAYS[delay]);
            }
            let (base, mut history) = recorded(&c, &nominal);
            let (plain, _) = sweeps(&c, |g| nominal[g], Labeling::Full { record: false })
                .expect("labels computed");
            proptest::prop_assert_eq!(label_bits(&base), label_bits(&reference(&c, &nominal)));
            proptest::prop_assert_eq!(label_bits(&plain), label_bits(&base));

            let gate = edit.0 % nominal.len();
            nominal[gate] = DELAYS[edit.1];
            let mut cone = vec![false; nominal.len()];
            cone[gate] = true;
            for (i, g) in c.gates().iter().enumerate() {
                cone[i] |= g.inputs.iter().any(|s| matches!(s, Signal::Gate(d) if cone[d.index()]));
            }
            let labeling = Labeling::Cone { labels: &base, history: &history, cone: &cone };
            let (got, changes) = sweeps(&c, |g| nominal[g], labeling).expect("labels computed");
            history.commit(&changes.expect("the cone's changes"));
            let (want, want_history) = recorded(&c, &nominal);
            proptest::prop_assert_eq!(label_bits(&got), label_bits(&want));
            proptest::prop_assert!(history == want_history, "committed history");
        }
    }

    #[test]
    fn bellman_ford_equals_topo() {
        let (c, t) = diamond();
        let bf = bellman_ford(&c, &t).expect("labels computed");
        let tp = topo_labels(&c, &t).expect("labels computed");
        assert_eq!(arrival_bits(&bf), arrival_bits(&tp));
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
        assert_eq!(arrival_bits(&bf), arrival_bits(&tp));
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
