//! Property fuzzing of the incremental ECO engine.
//!
//! For random sequences of 1–20 *valid* edits on random seed circuits,
//! after **every prefix** the incremental engine's report must be
//! byte-identical to a from-scratch run of the same edited circuit.
//! The vendored proptest has no shrinking, so failures go through a
//! hand-written greedy minimizer first: the panic message prints the
//! smallest edit script that still reproduces the divergence. At every
//! prefix, too, the partial characterization an edit takes
//! ([`CircuitTiming::recharacterize`]) must equal a full
//! `characterize_placed` bit for bit, as it must for a thousand seeded
//! one-gate edits over the ten Table 2 circuits; every bit the report
//! carries, label sweeps and PDFs included, must equal the fresh run's;
//! and the apply's dirty and cone counts must be the bitwise timing diff
//! and its [`TimingGraph::fanout_cone`].

use proptest::prelude::*;
use statim::core::characterize::{characterize_placed, CircuitTiming};
use statim::core::engine::{SstaConfig, SstaEngine};
use statim::core::report::deterministic_report;
use statim::core::{
    apply_edits, EcoEdit, EcoScript, IncrementalEngine, SstaReport, StoredReport, TimingGraph,
};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Circuit, Placement, PlacementStyle};
use statim::process::GateKind;

const LIMIT: usize = 25;

fn config() -> SstaConfig {
    let mut c = SstaConfig::date05();
    c.quality_intra = 30;
    c.quality_inter = 15;
    c
}

/// SplitMix64 — deterministic, dependency-free stream for edit choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Gate kinds admissible for an `inputs.len()`-preserving swap. Arity
/// is invariant under every edit kind (swap checks it, the wire edits
/// rewire pins in place), so validity never depends on edit order —
/// which is what lets the minimizer drop edits freely.
fn kinds_for_arity(n: usize) -> Vec<GateKind> {
    match n {
        1 => vec![GateKind::Inv, GateKind::Buf],
        2 => vec![
            GateKind::Nand(2),
            GateKind::Nor(2),
            GateKind::And(2),
            GateKind::Or(2),
            GateKind::Xor2,
            GateKind::Xnor2,
        ],
        n => {
            let n = u8::try_from(n).expect("gate arity fits u8");
            vec![
                GateKind::Nand(n),
                GateKind::Nor(n),
                GateKind::And(n),
                GateKind::Or(n),
            ]
        }
    }
}

/// One random valid edit against the (structurally fixed) circuit.
fn random_edit(rng: &mut Rng, circuit: &Circuit) -> EcoEdit {
    let gates = circuit.gates();
    let any_gate = |rng: &mut Rng| gates[rng.below(gates.len())].name.clone();
    match rng.below(5) {
        0 => EcoEdit::ResizeGate {
            gate: any_gate(rng),
            drive: *rng.pick(&[0.5, 0.8, 1.25, 2.0]),
        },
        1 => EcoEdit::RetimeGate {
            gate: any_gate(rng),
            pad: *rng.pick(&[0.0, 1e-12, 5e-12]),
        },
        2 => {
            let g = &gates[rng.below(gates.len())];
            let kinds = kinds_for_arity(g.inputs.len());
            EcoEdit::SwapGateType {
                gate: g.name.clone(),
                kind: *rng.pick(&kinds),
            }
        }
        3 => {
            // Cycle guard: the driver must have a strictly lower id
            // than the sink, so pick the sink from the upper half.
            let sink_idx = gates.len() / 2 + rng.below(gates.len() - gates.len() / 2);
            let sink = &gates[sink_idx];
            EcoEdit::AddWire {
                driver: gates[rng.below(sink_idx)].name.clone(),
                sink: sink.name.clone(),
                pin: rng.below(sink.inputs.len()),
            }
        }
        _ => {
            let g = &gates[rng.below(gates.len())];
            EcoEdit::RemoveWire {
                sink: g.name.clone(),
                pin: rng.below(g.inputs.len()),
            }
        }
    }
}

/// Every bit of a circuit's timing: per gate, its kind, α, β, nominal
/// delay and gradient.
fn timing_bits(timing: &CircuitTiming) -> Vec<(String, Vec<u64>)> {
    timing
        .gates()
        .iter()
        .map(|g| {
            let mut bits = vec![
                g.ab.alpha.to_bits(),
                g.ab.beta.to_bits(),
                g.nominal.to_bits(),
            ];
            bits.extend(g.gradient.iter().map(|(_, v)| v.to_bits()));
            (g.kind.to_string(), bits)
        })
        .collect()
}

/// Applies `script` to `circuit`, whose timing is `timing`, and checks
/// that recharacterizing only what it touched equals a full pass bit for
/// bit. Returns the touched gates and the full timing of the edit.
fn recharacterize_like_full(
    circuit: &mut Circuit,
    timing: &CircuitTiming,
    placement: &Placement,
    script: &EcoScript,
) -> Result<(Vec<statim::netlist::GateId>, CircuitTiming), String> {
    let tech = &config().tech;
    let touched = apply_edits(circuit, script).map_err(|e| format!("apply failed: {e}"))?;
    let partial = timing
        .recharacterize(circuit, tech, placement, &touched, script.rewires())
        .map_err(|e| format!("partial characterization failed: {e}"))?;
    let full =
        characterize_placed(circuit, tech, placement).map_err(|e| format!("full pass: {e}"))?;
    if timing_bits(&partial) != timing_bits(&full) || partial != full {
        return Err(format!(
            "partial characterization != full pass after\n{}",
            script.render()
        ));
    }
    Ok((touched, full))
}

/// Whether two reports carry the same bits but their wall times: the
/// store's record of each (scalars to the bit, label sweeps, every
/// path's numbers and gates) and every PDF.
fn same_bits(a: &SstaReport, b: &SstaReport) -> bool {
    let record = |r: &SstaReport| StoredReport::from_report(r).render_record(0);
    record(a) == record(b) && a.paths == b.paths
}

/// The dirty and cone counts an edit from `before` to `after` must
/// report: the gates whose timing moved bitwise, and the fanout cone of
/// those and the `touched` ones.
fn reach(
    circuit: &Circuit,
    before: &CircuitTiming,
    after: &CircuitTiming,
    touched: &[statim::netlist::GateId],
) -> (usize, usize) {
    let (old, new) = (timing_bits(before), timing_bits(after));
    let dirty: Vec<statim::netlist::GateId> = circuit
        .gate_ids()
        .filter(|g| old[g.index()] != new[g.index()])
        .collect();
    let cone = TimingGraph::build(circuit)
        .expect("timing graph")
        .fanout_cone(dirty.iter().chain(touched).copied());
    (dirty.len(), cone.iter().filter(|&&c| c).count())
}

fn script_of(edits: &[EcoEdit]) -> EcoScript {
    EcoScript {
        edits: edits
            .iter()
            .enumerate()
            .map(|(i, e)| (i + 1, e.clone()))
            .collect(),
    }
}

/// Applies `edits` one at a time to a single incremental engine and
/// checks every prefix against a from-scratch run. Returns the first
/// divergence (prefix length + detail) instead of panicking, so the
/// minimizer can re-drive it.
fn check_prefixes(bench: Benchmark, edits: &[EcoEdit]) -> Result<(), String> {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut timing = characterize_placed(&circuit, &config().tech, &placement)
        .map_err(|e| format!("base characterization failed: {e}"))?;
    let mut inc = IncrementalEngine::new(
        SstaEngine::new(config()),
        circuit.clone(),
        placement.clone(),
    )
    .map_err(|e| format!("base run failed: {e}"))?;
    let mut reference = circuit;
    for (i, edit) in edits.iter().enumerate() {
        let step = script_of(std::slice::from_ref(edit));
        let outcome = inc
            .apply(&step)
            .map_err(|e| format!("incremental apply of edit {} failed: {e}", i + 1))?;
        let (touched, next) = recharacterize_like_full(&mut reference, &timing, &placement, &step)
            .map_err(|e| format!("edit {}: {e}", i + 1))?;
        let (dirty, cone) = reach(&reference, &timing, &next, &touched);
        if (outcome.stats.dirty_gates, outcome.stats.cone_gates) != (dirty, cone) {
            return Err(format!(
                "edit {}: {} but the timing diff dirtied {dirty} gates (cone {cone})",
                i + 1,
                outcome.stats.summary_line()
            ));
        }
        timing = next;
        let fresh_placement =
            Placement::generate(&iscas85::generate(bench), PlacementStyle::Levelized);
        let fresh = SstaEngine::new(config())
            .run(&reference, &fresh_placement)
            .map_err(|e| format!("fresh run after edit {} failed: {e}", i + 1))?;
        let got = deterministic_report(&outcome.report, LIMIT);
        let want = deterministic_report(&fresh, LIMIT);
        if got != want || !same_bits(&outcome.report, &fresh) {
            return Err(format!(
                "prefix of {} edit(s) diverged from from-scratch ({})",
                i + 1,
                outcome.stats.summary_line()
            ));
        }
    }
    Ok(())
}

/// Greedy minimization: repeatedly try dropping single edits while the
/// failure persists. Edit validity is order-independent (arity is
/// invariant, targets are static names), so any subsequence of a valid
/// sequence is valid — dropping can only lose the bug, never create a
/// spurious apply error that masks it.
fn minimize(bench: Benchmark, edits: &[EcoEdit]) -> (Vec<EcoEdit>, String) {
    let mut kept: Vec<EcoEdit> = edits.to_vec();
    let mut detail = check_prefixes(bench, &kept).expect_err("minimize needs a failing input");
    let mut progress = true;
    while progress && kept.len() > 1 {
        progress = false;
        for i in 0..kept.len() {
            let mut trial = kept.clone();
            trial.remove(i);
            if let Err(d) = check_prefixes(bench, &trial) {
                kept = trial;
                detail = d;
                progress = true;
                break;
            }
        }
    }
    (kept, detail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_edit_sequences_match_from_scratch_at_every_prefix(
        bench_pick in 0usize..3,
        seed in 0u64..u64::MAX,
        len in 1usize..21,
    ) {
        let bench = [Benchmark::C432, Benchmark::C499, Benchmark::C880][bench_pick];
        let circuit = iscas85::generate(bench);
        let mut rng = Rng(seed);
        let edits: Vec<EcoEdit> =
            (0..len).map(|_| random_edit(&mut rng, &circuit)).collect();

        if let Err(first) = check_prefixes(bench, &edits) {
            let (minimal, detail) = minimize(bench, &edits);
            panic!(
                "incremental != from-scratch on {} (seed {seed}): {detail}\n\
                 first failure: {first}\n\
                 minimal edit script ({} of {} edits):\n{}",
                bench.name(),
                minimal.len(),
                edits.len(),
                script_of(&minimal).render()
            );
        }
    }
}

/// A thousand seeded one-gate resizes, retimes and swaps, a hundred on
/// each Table 2 circuit: characterizing only the touched gate equals a
/// full pass bit for bit, and no other gate's timing moves.
#[test]
fn one_gate_edits_recharacterize_like_a_full_pass() {
    let mut rng = Rng(0x0e5e_ed5c_a1ab_1e00);
    let mut checked = 0;
    for bench in Benchmark::ALL {
        let circuit = iscas85::generate(bench);
        let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
        let base = characterize_placed(&circuit, &config().tech, &placement).expect("base timing");
        for _ in 0..100 {
            let edit = loop {
                let edit = random_edit(&mut rng, &circuit);
                if !matches!(edit, EcoEdit::AddWire { .. } | EcoEdit::RemoveWire { .. }) {
                    break edit;
                }
            };
            let script = script_of(&[edit]);
            let mut edited = circuit.clone();
            let (touched, full) = recharacterize_like_full(&mut edited, &base, &placement, &script)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()));
            let moved: Vec<usize> = (0..circuit.gate_count())
                .filter(|&i| full.gates()[i] != base.gates()[i])
                .collect();
            assert!(
                moved
                    .iter()
                    .all(|&i| touched.iter().any(|g| g.index() == i)),
                "{}: {} moved an untouched gate",
                bench.name(),
                script.render()
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 1000);
}
