//! `eco-session`: an `IncrementalEngine` on c1355 at C = 0.05 (the base
//! run is set-up), then a seeded chain of edit scripts applied in order,
//! each re-basing the engine. Most scripts are one-gate resizes or type
//! swaps; a few resize 1% of the gates. An op is one `apply`.

use crate::measure::{cpu_ms, cpu_seconds, fnv1a, median, peak_rss_mb, Budget, Rng, Speed};
use crate::trace::{layer_totals, Tracer};
use crate::{Layers, OpLog, Outcome, Params, ENGINE_THREADS};
use statim_core::characterize::characterize_placed;
use statim_core::{
    apply_edits, EcoEdit, EcoScript, IncrementalEngine, SstaConfig, SstaEngine, SstaReport,
    TimingGraph,
};
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::{Circuit, Placement, PlacementStyle, Signal};
use statim_process::GateKind;
use std::time::Instant;

const CIRCUIT: Benchmark = Benchmark::C1355;
const CONFIDENCE: f64 = 0.05;
/// Set-up (the base run) is repeated this many times; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 5;
/// Scripts generated up front — more than any run applies.
const CHAIN: usize = 40_000;
/// Scripts per block (and per sweep): 100 edit/restore pairs.
const BLOCK: usize = 200;
/// Pairs per block that resize 1% of the gates.
const WIDE_PAIRS: usize = 4;
/// Cold gates sit on no path longer than this share of the critical
/// delay.
const COLD_RATIO: f64 = 0.85;
/// Drive a wide edit gives each of its gates, plus a fresh jitter below
/// 1e-3 so no kernel key repeats.
const WIDE_DRIVE: f64 = 0.98;
/// Share of one-gate scripts that swap the gate type (the rest resize).
const SWAP_SHARE: f64 = 0.4;
/// Chance that an apply is checked against a fresh full run (the last
/// apply always is).
const CHECK_SHARE: f64 = 0.001;

fn config() -> SstaConfig {
    SstaConfig::date05()
        .with_confidence(CONFIDENCE)
        .with_threads(ENGINE_THREADS)
}

/// Another kind with the same fan-in.
pub fn swap_target(kind: GateKind, rng: &mut Rng) -> GateKind {
    match kind {
        GateKind::Inv => GateKind::Buf,
        GateKind::Buf => GateKind::Inv,
        GateKind::Xor2 => GateKind::Xnor2,
        GateKind::Xnor2 => GateKind::Xor2,
        GateKind::Nand(n) | GateKind::Nor(n) | GateKind::And(n) | GateKind::Or(n) => {
            let all = [
                GateKind::Nand(n),
                GateKind::Nor(n),
                GateKind::And(n),
                GateKind::Or(n),
            ];
            let others: Vec<GateKind> = all.into_iter().filter(|k| *k != kind).collect();
            others[rng.below(others.len())]
        }
    }
}

/// Which gates the chain edits.
pub struct GateClasses {
    /// Gates on a near-critical path of the base report, fewest such
    /// paths first.
    pub hot: Vec<usize>,
    /// Gates whose longest path, and their drivers' longest paths, stay
    /// under [`COLD_RATIO`] of the critical delay: no one-gate edit can
    /// bring them into the near-critical window.
    pub cold: Vec<usize>,
}

/// Splits the gates of `circuit` by how an edit to them reaches the
/// near-critical paths of `report`.
pub fn classify(circuit: &Circuit, placement: &Placement, report: &SstaReport) -> GateClasses {
    let n = circuit.gate_count();
    let mut paths_through = vec![0usize; n];
    for p in &report.paths {
        for g in &p.analysis.gates {
            paths_through[g.index()] += 1;
        }
    }
    let timing = characterize_placed(circuit, &config().tech, placement).expect("c1355 times");
    let delay = |g: usize| timing.gates()[g].nominal;
    let gates = circuit.gates();
    // Gates are stored in topological order.
    let mut arrival = vec![0.0f64; n];
    for (i, g) in gates.iter().enumerate() {
        let latest = g
            .inputs
            .iter()
            .map(|s| match s {
                Signal::Gate(d) => arrival[d.index()],
                Signal::Input(_) => 0.0,
            })
            .fold(0.0, f64::max);
        arrival[i] = latest + delay(i);
    }
    let mut downstream = vec![0.0f64; n];
    for i in (0..n).rev() {
        for s in &gates[i].inputs {
            if let Signal::Gate(d) = s {
                let via = delay(i) + downstream[i];
                downstream[d.index()] = downstream[d.index()].max(via);
            }
        }
    }
    let through: Vec<f64> = (0..n).map(|i| arrival[i] + downstream[i]).collect();
    let limit = COLD_RATIO * report.det_critical_delay;
    let cold = (0..n)
        .filter(|&i| {
            through[i] <= limit
                && gates[i].inputs.iter().all(|s| match s {
                    Signal::Gate(d) => through[d.index()] <= limit,
                    Signal::Input(_) => true,
                })
        })
        .collect();
    let mut hot: Vec<usize> = (0..n).filter(|&i| paths_through[i] > 0).collect();
    hot.sort_by_key(|&i| (paths_through[i], i));
    GateClasses { hot, cold }
}

/// The seeded edit chain, in blocks of [`BLOCK`] scripts with a fixed
/// make-up so every block costs about the same: [`WIDE_PAIRS`] pairs
/// that slow the same 1% of the gates down to [`WIDE_DRIVE`] (the hot
/// gates on the fewest near-critical paths, so each such edit recomputes
/// a slice of the critical cone without reshaping it; the same nudge
/// every time, so the tail these edits set is the program's, not the
/// seed's) and one-gate pairs on cold gates, in seeded order. A
/// pair is an edit and then the script that restores the edited gates,
/// so the circuit keeps returning to c1355 itself instead of drifting
/// away from its bushy base (random drives leave only a handful of
/// near-critical paths). Drives are drawn at full precision, so an edit
/// never repeats a kernel key; a one-gate edit resizes or swaps the
/// gate type.
pub fn chain(base: &Circuit, classes: &GateClasses, seed: u64, len: usize) -> Vec<EcoScript> {
    let mut rng = Rng::new(seed);
    let gates = base.gates();
    let (hot, cold) = (&classes.hot, &classes.cold);
    assert!(
        !hot.is_empty() && !cold.is_empty(),
        "c1355 has hot and cold gates"
    );
    let wide = gates.len().div_ceil(100).min(hot.len());
    let wide_ids = &hot[..wide];
    let numbered = |edits: Vec<EcoEdit>| EcoScript {
        edits: edits
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i + 1, e))
            .collect(),
    };
    let mut out = Vec::with_capacity(len + BLOCK);
    while out.len() < len {
        let mut wide_slots: Vec<bool> = (0..BLOCK / 2).map(|i| i < WIDE_PAIRS).collect();
        rng.shuffle(&mut wide_slots);
        for is_wide in wide_slots {
            let picks = if is_wide {
                wide_ids.to_vec()
            } else {
                vec![cold[rng.below(cold.len())]]
            };
            let swap = !is_wide && rng.unit() < SWAP_SHARE;
            let (lo, span) = if is_wide {
                (WIDE_DRIVE, 1e-3)
            } else {
                (0.8, 0.45)
            };
            let (mut edit, mut restore) = (Vec::new(), Vec::new());
            for &g in &picks {
                let gate = &gates[g];
                if swap {
                    edit.push(EcoEdit::SwapGateType {
                        gate: gate.name.clone(),
                        kind: swap_target(gate.kind, &mut rng),
                    });
                    restore.push(EcoEdit::SwapGateType {
                        gate: gate.name.clone(),
                        kind: gate.kind,
                    });
                } else {
                    edit.push(EcoEdit::ResizeGate {
                        gate: gate.name.clone(),
                        drive: lo + span * rng.unit(),
                    });
                    restore.push(EcoEdit::ResizeGate {
                        gate: gate.name.clone(),
                        drive: gate.drive,
                    });
                }
            }
            out.push(numbered(edit));
            out.push(numbered(restore));
        }
    }
    out.truncate(len);
    out
}

/// The base run, built `SETUP_REPEATS` times; returns the last engine
/// and the CPU seconds of every set-up with the core-speed mark it
/// started at.
fn setup(
    circuit: &Circuit,
    placement: &Placement,
    speed: &mut Speed,
) -> (IncrementalEngine, Vec<(f64, usize)>) {
    let mut cpu = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPEATS {
        speed.tick();
        let mark = speed.mark();
        let (e, ms) = cpu_ms(|| {
            IncrementalEngine::new(
                SstaEngine::new(config()),
                circuit.clone(),
                placement.clone(),
            )
            .expect("c1355 base run")
        });
        cpu.push((ms / 1e3, mark));
        engine = Some(e);
    }
    (engine.expect("set-up ran"), cpu)
}

fn bytes(r: &SstaReport) -> String {
    crate::signoff::comb_bytes(r)
}

/// Checks sampled applies against fresh full runs of the same edited
/// circuit. Returns the mismatch count.
fn verify(samples: &[(usize, Circuit, String)], placement: &Placement) -> u64 {
    let t = Instant::now();
    let mut bad = 0;
    for (k, circuit, got) in samples {
        match SstaEngine::new(config()).run(circuit, placement) {
            Ok(fresh) if bytes(&fresh) == *got => {}
            Ok(_) => {
                eprintln!("eco-session: apply {k} differs from a fresh full run");
                bad += 1;
            }
            Err(e) => {
                eprintln!("eco-session: fresh full run after apply {k}: {e}");
                bad += 1;
            }
        }
    }
    println!(
        "eco-session: {} applies checked against fresh full runs in {:.2} s, {bad} mismatched",
        samples.len(),
        t.elapsed().as_secs_f64()
    );
    bad
}

pub fn run(p: &Params) -> Outcome {
    let circuit = iscas85::generate(CIRCUIT);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut speed = Speed::start();
    let (mut engine, setup_raw) = setup(&circuit, &placement, &mut speed);
    let classes = classify(&circuit, &placement, engine.report());
    let len = if p.toy { 5 } else { CHAIN };
    let scripts = chain(&circuit, &classes, p.seed, len);
    let mut rng = Rng::new(p.seed ^ 0x5eed_c4ec);
    let checked: Vec<bool> = (0..len).map(|_| rng.unit() < CHECK_SHARE).collect();
    let mut digest = 0;
    for (s, c) in scripts.iter().zip(&checked) {
        digest = fnv1a(digest, s.render_compact().as_bytes());
        digest = fnv1a(digest, &[u8::from(*c)]);
    }
    println!(
        "eco-session: seed {} inputs {digest:016x}: {len} scripts on {} at C = {CONFIDENCE}; \
         base run {} paths; {} hot and {} cold gates; set-up median {:.3} CPU s",
        p.seed,
        CIRCUIT.name(),
        engine.report().num_paths,
        classes.hot.len(),
        classes.cold.len(),
        median(&setup_raw.iter().map(|&(s, _)| s).collect::<Vec<_>>())
    );
    if p.trace {
        return traced(p, engine, &scripts, &placement, speed.scaled(&setup_raw));
    }

    let mut ops = OpLog::default();
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Budget::start(if p.toy { f64::INFINITY } else { p.seconds });
    let mut last = None;
    let mut raw = Vec::new();
    for (k, script) in scripts.iter().enumerate() {
        speed.tick();
        if budget.spent(&speed) {
            break;
        }
        let mark = speed.mark();
        let (outcome, ms) = cpu_ms(|| engine.apply(script));
        raw.push((ms, mark));
        attempted += 1;
        match outcome {
            Ok(o) => {
                ops.items += o.report.num_paths as u64;
                if checked[k] {
                    samples.push((k, engine.circuit().clone(), bytes(&o.report)));
                }
                last = Some((k, o.report));
            }
            Err(e) => {
                eprintln!("eco-session: apply {k}: {e}");
                failed += 1;
            }
        }
    }
    ops.latencies_ms = speed.scaled(&raw);
    ops.cpu = ops.latencies_ms.iter().sum::<f64>() / 1e3;
    ops.peak_rss_mb = peak_rss_mb();
    ops.probe_ms = speed.mean_ms();
    if attempted as usize == scripts.len() && !p.toy {
        println!("eco-session: the whole chain was applied; the run measured less than --seconds");
    }
    if let Some((k, report)) = last {
        if samples.last().map(|s| s.0) != Some(k) {
            samples.push((k, engine.circuit().clone(), bytes(&report)));
        }
    }
    failed += verify(&samples, &placement);
    ops.sweep_len = if p.toy { 1 } else { BLOCK };
    Outcome {
        attempted,
        failed,
        setup: speed.scaled(&setup_raw),
        ops,
        layers: None,
    }
}

/// The traced invocation: the same prefix of the chain applied once
/// untraced and once traced, each on a fresh base engine.
fn traced(
    p: &Params,
    mut engine: IncrementalEngine,
    scripts: &[EcoScript],
    placement: &Placement,
    setup_cpu: Vec<f64>,
) -> Outcome {
    let budget = Budget::start(if p.toy {
        f64::INFINITY
    } else {
        p.seconds / 2.0
    });
    let speed = Speed::start();
    let mut n = 0;
    let mut failed = 0;
    for script in scripts {
        if budget.spent(&speed) {
            break;
        }
        if engine.apply(script).is_err() {
            failed += 1;
        }
        n += 1;
    }
    let untraced_cpu = budget.used();
    let mut engine = IncrementalEngine::new(
        SstaEngine::new(config()),
        iscas85::generate(CIRCUIT),
        placement.clone(),
    )
    .expect("c1355 base run");

    let tracer = Tracer::default();
    let mut layers = Layers::default();
    let mut sum = |name: &'static str, v: f64| layers.set(name, layers.get(name) + v);
    let mut entries_before = engine.store().stats().entries as u64;
    let (mut kernel_misses, mut entries_added) = (0u64, 0u64);
    let (mut lookups, mut hits) = (0u64, 0u64);
    let (mut util_weighted, mut analyze_wall) = (0.0, 0.0);
    let mut last = None;
    let c = cpu_seconds();
    for (op, script) in scripts[..n].iter().enumerate() {
        let op = op as u64;
        let mut pre_edit = engine.circuit().clone();
        let outcome = tracer.time("eco.apply", None, op, |_| engine.apply(script));
        // `apply` is one public call; its edit step is re-invoked on the
        // pre-edit circuit to time it.
        tracer
            .time("incremental.apply_edits", None, op, |_| {
                apply_edits(&mut pre_edit, script)
            })
            .expect("the chain's edits apply");
        let o = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("eco-session: traced apply {op}: {e}");
                failed += 1;
                continue;
            }
        };
        tracer
            .time("graph.build", None, op, |_| {
                TimingGraph::build(engine.circuit())
            })
            .expect("edited circuit builds");
        let s = o.stats;
        sum("incremental.dirty_gates", s.dirty_gates as f64);
        sum("incremental.cone_gates", s.cone_gates as f64);
        sum("incremental.reused_paths", s.reused_paths as f64);
        sum("incremental.recomputed_paths", s.recomputed_paths as f64);
        let prof = &o.report.profile;
        sum("characterize.busy_s", prof.characterize.wall);
        sum("longest_path.busy_s", prof.labels.wall);
        sum("longest_path.sweeps", o.report.label_sweeps as f64);
        sum("enumerate.busy_s", prof.enumerate.wall);
        sum("enumerate.paths", o.report.num_paths as f64);
        sum("rank.busy_s", prof.rank.wall);
        analyze_wall += prof.analyze.wall;
        util_weighted += prof.analyze.wall * prof.analyze.utilization;
        if let Some(c) = prof.cache {
            sum("inter.computes", c.inter_misses as f64);
            sum("intra.computes", c.intra_misses as f64);
            lookups += c.lookups();
            hits += c.hits();
            kernel_misses += c.inter_misses + c.intra_misses;
            entries_added += (c.entries as u64).saturating_sub(entries_before);
            entries_before = c.entries as u64;
        }
        last = Some((op as usize, o.report));
    }
    let traced_cpu = cpu_seconds() - c;
    let mut samples = Vec::new();
    if let Some((k, report)) = &last {
        samples.push((*k, engine.circuit().clone(), bytes(report)));
    }
    failed += verify(&samples, placement);

    let spans = tracer.into_spans();
    let t = layer_totals(&spans);
    let total = |name: &str| t.get(name).map_or(0.0, |x| x.total);
    layers.set(
        "incremental.apply_edits_s",
        total("incremental.apply_edits"),
    );
    layers.set("graph.build_s", total("graph.build"));
    let paths = layers.get("incremental.reused_paths") + layers.get("incremental.recomputed_paths");
    if paths > 0.0 {
        layers.set(
            "incremental.reuse_ratio",
            layers.get("incremental.reused_paths") / paths,
        );
    }
    layers.set("analyze.wall_s", analyze_wall);
    if analyze_wall > 0.0 {
        layers.set("analyze.utilization", util_weighted / analyze_wall);
    }
    layers.set("cache.lookups", lookups as f64);
    if lookups > 0 {
        layers.set("cache.hit_ratio", hits as f64 / lookups as f64);
    }
    layers.set("cache.entries", engine.store().stats().entries as f64);
    layers.set(
        "cache.dup_misses",
        kernel_misses.saturating_sub(entries_added) as f64,
    );
    println!(
        "eco-session: {n} applies traced; apply total {:.4} s",
        total("eco.apply")
    );
    layers.finish_trace(p, "eco-session", &spans, traced_cpu, untraced_cpu);
    Outcome {
        attempted: 2 * n as u64,
        failed,
        setup: setup_cpu,
        ops: OpLog::default(),
        layers: Some(layers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_seeded_and_applies_in_order() {
        let base = iscas85::generate(Benchmark::C432);
        let placement = Placement::generate(&base, PlacementStyle::Levelized);
        let report = SstaEngine::new(config())
            .run(&base, &placement)
            .expect("c432 runs");
        let classes = classify(&base, &placement, &report);
        assert!(classes.cold.iter().all(|g| !classes.hot.contains(g)));
        let a = chain(&base, &classes, 9, 2 * BLOCK);
        let b = chain(&base, &classes, 9, 2 * BLOCK);
        assert_eq!(a, b);
        assert_ne!(a, chain(&base, &classes, 10, 2 * BLOCK));
        let wide = base.gate_count().div_ceil(100);
        for block in a.chunks(BLOCK) {
            assert_eq!(
                block.iter().filter(|s| s.edits.len() == wide).count(),
                2 * WIDE_PAIRS
            );
        }
        let mut circuit = base.clone();
        for pair in a.chunks(2) {
            for s in pair {
                apply_edits(&mut circuit, s).expect("chain replays");
            }
            // Each pair leaves the circuit as it found it.
            assert_eq!(
                statim_netlist::bench_format::write(&circuit),
                statim_netlist::bench_format::write(&base)
            );
        }
        assert!(a
            .iter()
            .all(|s| s.edits.len() == 1 || s.edits.len() == wide));
    }

    #[test]
    fn render_of_a_chain_is_parseable() {
        let base = iscas85::generate(Benchmark::C432);
        let classes = GateClasses {
            hot: (0..base.gate_count()).step_by(2).collect(),
            cold: (1..base.gate_count()).step_by(2).collect(),
        };
        for s in chain(&base, &classes, 2, 20) {
            let back = EcoScript::parse_compact(&s.render_compact()).expect("parses");
            assert_eq!(back.edits.len(), s.edits.len());
        }
    }
}
