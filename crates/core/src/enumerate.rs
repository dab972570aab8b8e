//! Near-critical path enumeration — the paper's Fig. 2 algorithm.
//!
//! Starting from each primary output, walk the timing graph backward,
//! descending only into fan-ins whose label can still complete a path of
//! delay at least `D − C·σ_C`. The worst-case complexity is
//! `O(κ·|E|)` for κ qualifying paths; a configurable budget guards
//! against the combinatorial blow-up the paper observed on c6288
//! (> 100 000 paths at C = 0.005).

use crate::characterize::CircuitTiming;
use crate::longest_path::Labels;
use crate::{CoreError, Result};
use statim_netlist::{Circuit, GateId, Signal};

/// The result of an enumeration: paths sorted by deterministic delay,
/// longest first. Each path is a gate sequence from the first gate after
/// the primary inputs to the output driver.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSet {
    /// Enumerated paths, deterministically ordered by descending delay
    /// (ties broken by the gate sequence).
    pub paths: Vec<Vec<GateId>>,
    /// The delay threshold used.
    pub threshold: f64,
}

/// The enumeration threshold `D − C·σ_C`: the deterministic critical
/// delay less `confidence` standard deviations of the critical path.
pub(crate) fn threshold(critical_delay: f64, confidence: f64, sigma_c: f64) -> f64 {
    critical_delay - confidence * sigma_c
}

/// Fig. 2's admission test against `threshold`: whether a (partial)
/// path delay can still complete a path at least that long. The
/// tolerance keeps floating-point noise from dropping the critical path
/// itself.
pub(crate) fn qualifier(threshold: f64) -> impl Fn(f64) -> bool {
    let eps = 1e-9 * threshold.abs().max(1e-12);
    move |x| x >= threshold - eps
}

/// Enumerates every PI→PO path whose deterministic delay is at least
/// `threshold` seconds.
///
/// # Errors
///
/// Returns [`CoreError::PathBudgetExceeded`] once more than `max_paths`
/// qualifying paths exist — results would otherwise silently be
/// incomplete. The paper's response on c6288 is to shrink `C`; callers
/// can equally raise the budget. Returns
/// [`CoreError::InvalidConfig`] when `labels` or `timing` was built for
/// a different circuit (their per-gate tables would be indexed out of
/// range), and [`CoreError::NonFiniteDelay`] naming the first gate whose
/// nominal delay is non-finite.
pub fn near_critical_paths(
    circuit: &Circuit,
    timing: &CircuitTiming,
    labels: &Labels,
    threshold: f64,
    max_paths: usize,
) -> Result<PathSet> {
    // The walk indexes labels.arrival and timing.gates() by GateId, so a
    // mismatched circuit must be rejected up front, not discovered as a
    // panic mid-traversal.
    if labels.arrival.len() != circuit.gate_count() {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "labels cover {} gates but circuit `{}` has {}",
                labels.arrival.len(),
                circuit.name(),
                circuit.gate_count()
            ),
        });
    }
    if timing.gates().len() != circuit.gate_count() {
        return Err(CoreError::InvalidConfig {
            message: format!(
                "timing covers {} gates but circuit `{}` has {}",
                timing.gates().len(),
                circuit.name(),
                circuit.gate_count()
            ),
        });
    }
    if let Some(gate) = (0..circuit.gate_count()).find(|&i| !timing.gates()[i].nominal.is_finite())
    {
        return Err(CoreError::NonFiniteDelay { gate });
    }
    let qualifies = qualifier(threshold);

    // Unique PO driver gates.
    let mut po_gates: Vec<GateId> = circuit
        .outputs()
        .iter()
        .filter_map(|&(_, s)| match s {
            Signal::Gate(g) => Some(g),
            Signal::Input(_) => None,
        })
        .collect();
    po_gates.sort();
    po_gates.dedup();

    let mut paths: Vec<Vec<GateId>> = Vec::new();
    // Explicit DFS stack: (gate, suffix delay including this gate) plus
    // the current reversed path in `chain`.
    let mut chain: Vec<GateId> = Vec::new();
    // Frame: (gate, next fan-in index to try, suffix_delay, recorded)
    struct Frame {
        gate: GateId,
        next_input: usize,
        suffix: f64,
    }
    for &start in &po_gates {
        if !qualifies(labels.arrival[start.index()]) {
            continue;
        }
        let mut stack = vec![Frame {
            gate: start,
            next_input: 0,
            suffix: timing.gates()[start.index()].nominal,
        }];
        chain.clear();
        chain.push(start);
        // Whether the current frame has already recorded a terminating
        // path (the gate touches a primary input).
        let mut recorded = vec![false];
        while let Some(frame_idx) = stack.len().checked_sub(1) {
            let gate = stack[frame_idx].gate;
            let suffix = stack[frame_idx].suffix;
            // Record a complete path the first time we visit a frame
            // whose gate is fed by a primary input and whose delay
            // qualifies.
            if !recorded[frame_idx] {
                recorded[frame_idx] = true;
                let touches_pi = circuit.gates()[gate.index()]
                    .inputs
                    .iter()
                    .any(|s| matches!(s, Signal::Input(_)));
                if touches_pi && qualifies(suffix) {
                    if paths.len() == max_paths {
                        return Err(CoreError::PathBudgetExceeded { budget: max_paths });
                    }
                    let mut p = chain.clone();
                    p.reverse();
                    paths.push(p);
                }
            }
            // Descend into the next qualifying fan-in.
            let inputs = &circuit.gates()[gate.index()].inputs;
            let mut descended = false;
            while stack[frame_idx].next_input < inputs.len() {
                let idx = stack[frame_idx].next_input;
                stack[frame_idx].next_input += 1;
                if let Signal::Gate(src) = inputs[idx] {
                    // Avoid duplicate traversal when the same signal feeds
                    // several pins of this gate.
                    if inputs[..idx].contains(&Signal::Gate(src)) {
                        continue;
                    }
                    if qualifies(labels.arrival[src.index()] + suffix) {
                        let child_suffix = suffix + timing.gates()[src.index()].nominal;
                        stack.push(Frame {
                            gate: src,
                            next_input: 0,
                            suffix: child_suffix,
                        });
                        recorded.push(false);
                        chain.push(src);
                        descended = true;
                        break;
                    }
                }
            }
            if !descended {
                stack.pop();
                recorded.pop();
                chain.pop();
            }
        }
    }
    // Deterministic ordering: by delay descending, ties by gate sequence.
    let mut keyed: Vec<(f64, Vec<GateId>)> = paths
        .into_iter()
        .map(|p| (timing.path_delay(&p), p))
        .collect();
    // total_cmp orders identically to partial_cmp for the finite delays
    // guaranteed by the up-front check, without a panic path.
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    Ok(PathSet {
        paths: keyed.into_iter().map(|(_, p)| p).collect(),
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::longest_path::{critical_path, topo_labels};
    use statim_netlist::generators::iscas85::{self, Benchmark};
    use statim_process::{GateKind, Technology};

    fn setup(c: &Circuit) -> (CircuitTiming, Labels) {
        let t = characterize(c, &Technology::cmos130()).expect("characterization succeeds");
        let l = topo_labels(c, &t).expect("labels computed");
        (t, l)
    }

    fn chain_pair() -> Circuit {
        // Two parallel 2-gate chains into a final gate plus a short path.
        let mut c = Circuit::new("p");
        let a = c.add_input("a").expect("circuit builds");
        let b = c.add_input("b").expect("circuit builds");
        let g1 = c
            .add_gate("g1", GateKind::Inv, &[a])
            .expect("circuit builds");
        let g2 = c
            .add_gate("g2", GateKind::Inv, &[g1])
            .expect("circuit builds");
        let g3 = c
            .add_gate("g3", GateKind::Inv, &[b])
            .expect("circuit builds");
        let g4 = c
            .add_gate("g4", GateKind::Inv, &[g3])
            .expect("circuit builds");
        let g5 = c
            .add_gate("g5", GateKind::Nand(2), &[g2, g4])
            .expect("circuit builds");
        let g6 = c
            .add_gate("g6", GateKind::Nand(2), &[a, g5])
            .expect("circuit builds");
        c.mark_output("o", g6).expect("circuit builds");
        c
    }

    #[test]
    fn finds_all_paths_at_zero_threshold() {
        let c = chain_pair();
        let (t, l) = setup(&c);
        let set = near_critical_paths(&c, &t, &l, 0.0, 1000).expect("critical path exists");
        // Paths: a-g1-g2-g5-g6, b-g3-g4-g5-g6, a-g6 → 3 gate sequences.
        assert_eq!(set.paths.len(), 3);
        // Sorted by descending delay: 4-gate chains first, then the
        // direct a-g6 hop (a single gate on the path).
        assert_eq!(set.paths[0].len(), 4);
        assert_eq!(set.paths[2].len(), 1);
    }

    #[test]
    fn tight_threshold_keeps_only_critical() {
        let c = chain_pair();
        let (t, l) = setup(&c);
        let d = l.critical_delay(&c).expect("critical delay exists");
        let set = near_critical_paths(&c, &t, &l, d, 1000).expect("critical path exists");
        // The two symmetric 4-gate chains have identical delay.
        assert_eq!(set.paths.len(), 2);
        for p in &set.paths {
            assert!((t.path_delay(p) - d).abs() <= 1e-9 * d);
        }
    }

    #[test]
    fn critical_path_always_included() {
        for bench in [Benchmark::C432, Benchmark::C880, Benchmark::C499] {
            let c = iscas85::generate(bench);
            let (t, l) = setup(&c);
            let d = l.critical_delay(&c).expect("critical delay exists");
            let cp = critical_path(&c, &t, &l).expect("critical path exists");
            let set =
                near_critical_paths(&c, &t, &l, d * 0.98, 200_000).expect("critical path exists");
            assert!(
                set.paths.contains(&cp),
                "{bench}: critical path missing from enumeration"
            );
            assert_eq!(
                set.paths[0], cp,
                "{bench}: first path must be the critical one"
            );
        }
    }

    #[test]
    fn all_reported_paths_meet_threshold() {
        let c = iscas85::generate(Benchmark::C432);
        let (t, l) = setup(&c);
        let d = l.critical_delay(&c).expect("critical delay exists");
        let thr = d * 0.95;
        let set = near_critical_paths(&c, &t, &l, thr, 200_000).expect("critical path exists");
        assert!(!set.paths.is_empty());
        for p in &set.paths {
            assert!(t.path_delay(p) >= thr - 1e-9 * d);
        }
        // Paths are unique.
        let mut sorted = set.paths.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), set.paths.len());
    }

    #[test]
    fn threshold_monotonicity() {
        let c = iscas85::generate(Benchmark::C499);
        let (t, l) = setup(&c);
        let d = l.critical_delay(&c).expect("critical delay exists");
        let n_tight = near_critical_paths(&c, &t, &l, d * 0.995, 500_000)
            .expect("critical path exists")
            .paths
            .len();
        let n_loose = near_critical_paths(&c, &t, &l, d * 0.95, 500_000)
            .expect("critical path exists")
            .paths
            .len();
        assert!(n_loose >= n_tight);
        assert!(n_tight >= 1);
    }

    #[test]
    fn mismatched_circuit_rejected_not_panicking() {
        // Labels/timing from a different (smaller) circuit used to panic
        // on an out-of-range gate index; now it is a typed Config error.
        let small = chain_pair();
        let (t_small, l_small) = setup(&small);
        let big = iscas85::generate(Benchmark::C432);
        let (t_big, _) = setup(&big);
        match near_critical_paths(&big, &t_big, &l_small, 0.0, 1000) {
            Err(CoreError::InvalidConfig { message }) => {
                assert!(message.contains("labels"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let (_, l_big) = setup(&big);
        match near_critical_paths(&big, &t_small, &l_big, 0.0, 1000) {
            Err(CoreError::InvalidConfig { message }) => {
                assert!(message.contains("timing"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let c = iscas85::generate(Benchmark::C1355);
        let (t, l) = setup(&c);
        let d = l.critical_delay(&c).expect("critical delay exists");
        match near_critical_paths(&c, &t, &l, d * 0.9, 3) {
            Err(CoreError::PathBudgetExceeded { budget: 3 }) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn paths_are_connected_and_end_at_po() {
        let c = iscas85::generate(Benchmark::C880);
        let (t, l) = setup(&c);
        let d = l.critical_delay(&c).expect("critical delay exists");
        let set = near_critical_paths(&c, &t, &l, d * 0.97, 100_000).expect("critical path exists");
        let po_gates: Vec<GateId> = c
            .outputs()
            .iter()
            .filter_map(|&(_, s)| match s {
                Signal::Gate(g) => Some(g),
                _ => None,
            })
            .collect();
        for p in &set.paths {
            assert!(po_gates.contains(p.last().expect("path is non-empty")));
            // First gate touches a PI.
            assert!(c.gates()[p[0].index()]
                .inputs
                .iter()
                .any(|s| matches!(s, Signal::Input(_))));
            // Consecutive gates are actually connected.
            for w in p.windows(2) {
                assert!(c.gates()[w[1].index()].inputs.contains(&Signal::Gate(w[0])));
            }
        }
    }
}
