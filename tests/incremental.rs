//! Differential tests for the incremental ECO re-analysis engine.
//!
//! The contract under test: for any valid edit script, the incremental
//! engine's merged report is **byte-for-byte identical** (through
//! `deterministic_report`) to a from-scratch run of the edited netlist
//! under the same configuration — at every thread count, with the
//! kernel cache on or off, and on both convolution backends. The
//! incremental path may only change *which* work is done, never the
//! bytes that come out.

use statim::core::engine::{SstaConfig, SstaEngine};
use statim::core::report::deterministic_report;
use statim::core::{apply_edits, ConvolveBackend, EcoScript, IncrementalEngine};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Circuit, Placement, PlacementStyle, Signal};
use statim::process::GateKind;

const LIMIT: usize = 25;

/// Coarse kernels keep the matrix fast; both sides of every comparison
/// use the same settings, so coarseness cannot mask a divergence.
fn config(threads: usize, cache: bool, backend: ConvolveBackend) -> SstaConfig {
    let mut c = SstaConfig::date05().with_threads(threads).with_cache(cache);
    c.quality_intra = 40;
    c.quality_inter = 20;
    c.backend = backend;
    c
}

/// The from-scratch reference: apply the script to a fresh copy of the
/// benchmark circuit and run the ordinary engine on the result.
fn fresh_report(bench: Benchmark, script: &EcoScript, cfg: SstaConfig) -> String {
    let mut circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    apply_edits(&mut circuit, script).expect("reference apply");
    let report = SstaEngine::new(cfg)
        .run(&circuit, &placement)
        .expect("reference run");
    deterministic_report(&report, LIMIT)
}

fn incremental_report(bench: Benchmark, script: &EcoScript, cfg: SstaConfig) -> String {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut inc = IncrementalEngine::new(SstaEngine::new(cfg), circuit, placement)
        .expect("base incremental run");
    let outcome = inc.apply(script).expect("incremental apply");
    deterministic_report(&outcome.report, LIMIT)
}

/// One representative script per edit kind, derived from the circuit so
/// every target is valid on every benchmark: a mid-netlist gate for the
/// overlay edits, a structurally safe (low-id driver, high-id sink)
/// pair for the wire edits, and an arity-preserving kind swap.
fn scripts_by_kind(circuit: &Circuit) -> Vec<(&'static str, EcoScript)> {
    let gates = circuit.gates();
    let mid = gates[gates.len() / 2].name.clone();
    let early = gates[2].name.clone();
    let late = gates[gates.len() - 1].name.clone();
    let (swap_gate, swap_kind) = gates
        .iter()
        .find_map(|g| {
            if g.inputs.len() != 2 {
                return None;
            }
            let to = if g.kind == GateKind::Nor(2) {
                "nand2"
            } else {
                "nor2"
            };
            Some((g.name.clone(), to))
        })
        .expect("every benchmark has a 2-input gate");
    let parse = |text: String| EcoScript::parse(&text).expect("derived script parses");
    vec![
        ("resize", parse(format!("resize {mid} 0.5"))),
        ("retime", parse(format!("retime {mid} 1.5e-12"))),
        ("swap", parse(format!("swap {swap_gate} {swap_kind}"))),
        ("addwire", parse(format!("addwire {early} {late} 0"))),
        ("rmwire", parse(format!("rmwire {late} 0"))),
    ]
}

#[test]
fn every_edit_kind_matches_from_scratch_on_every_benchmark() {
    for bench in [Benchmark::C432, Benchmark::C499, Benchmark::C880] {
        let circuit = iscas85::generate(bench);
        for (kind, script) in scripts_by_kind(&circuit) {
            let cfg = config(1, true, ConvolveBackend::Grid);
            assert_eq!(
                incremental_report(bench, &script, cfg.clone()),
                fresh_report(bench, &script, cfg),
                "{}: `{kind}` incremental report diverged from from-scratch",
                bench.name()
            );
        }
    }
}

#[test]
fn thread_cache_backend_matrix_is_byte_identical() {
    // A mixed script touching overlays and structure at once, on c432.
    let circuit = iscas85::generate(Benchmark::C432);
    let gates = circuit.gates();
    let text = format!(
        "resize {} 0.5\nretime {} 2e-12\nrmwire {} 0",
        gates[gates.len() / 2].name,
        gates[10].name,
        gates[gates.len() - 1].name
    );
    let script = EcoScript::parse(&text).expect("script");

    // The reference is computed once per backend (thread count and
    // cache state must not change the reference bytes either — that is
    // the engine's own determinism contract, re-checked here).
    for backend in [ConvolveBackend::Grid, ConvolveBackend::Fft] {
        let reference = fresh_report(Benchmark::C432, &script, config(1, true, backend));
        for threads in [1usize, 2, 4] {
            for cache in [true, false] {
                let cfg = config(threads, cache, backend);
                assert_eq!(
                    fresh_report(Benchmark::C432, &script, cfg.clone()),
                    reference,
                    "{backend:?}/t{threads}/cache={cache}: fresh run not deterministic"
                );
                assert_eq!(
                    incremental_report(Benchmark::C432, &script, cfg),
                    reference,
                    "{backend:?}/t{threads}/cache={cache}: incremental diverged"
                );
            }
        }
    }
}

#[test]
fn sequential_edits_rebase_correctly() {
    // Apply two scripts in sequence: the second incremental pass runs on
    // the re-based state and must match a from-scratch run of the
    // doubly-edited circuit.
    let bench = Benchmark::C499;
    let circuit = iscas85::generate(bench);
    let gates = circuit.gates();
    let first = EcoScript::parse(&format!("resize {} 0.7", gates[20].name)).expect("first");
    let second = EcoScript::parse(&format!(
        "swap {} {}\nretime {} 1e-12",
        {
            let g = gates
                .iter()
                .find(|g| g.inputs.len() == 2)
                .expect("2-input gate");
            &g.name
        },
        {
            let g = gates
                .iter()
                .find(|g| g.inputs.len() == 2)
                .expect("2-input gate");
            if g.kind == GateKind::Nor(2) {
                "nand2"
            } else {
                "nor2"
            }
        },
        gates[40].name
    ))
    .expect("second");

    let cfg = config(2, true, ConvolveBackend::Grid);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut inc = IncrementalEngine::new(SstaEngine::new(cfg.clone()), circuit.clone(), placement)
        .expect("base run");
    inc.apply(&first).expect("first apply");
    let outcome = inc.apply(&second).expect("second apply");

    let mut reference = circuit;
    apply_edits(&mut reference, &first).expect("ref first");
    apply_edits(&mut reference, &second).expect("ref second");
    let placement = Placement::generate(&iscas85::generate(bench), PlacementStyle::Levelized);
    let report = SstaEngine::new(cfg)
        .run(&reference, &placement)
        .expect("ref run");
    assert_eq!(
        deterministic_report(&outcome.report, LIMIT),
        deterministic_report(&report, LIMIT),
        "second incremental pass diverged from the doubly-edited fresh run"
    );
}

#[test]
fn emitted_bench_round_trip_preserves_the_edited_analysis() {
    // The CI smoke path in one test: apply edits incrementally, write
    // the edited circuit as .bench (overlay directives included), parse
    // it back, and check the clean re-analysis of the round-tripped
    // netlist matches the incremental report byte-for-byte.
    let bench = Benchmark::C432;
    let circuit = iscas85::generate(bench);
    let gates = circuit.gates();
    let script = EcoScript::parse(&format!(
        "resize {} 0.5\nretime {} 2e-12",
        gates[gates.len() / 2].name,
        gates[10].name
    ))
    .expect("script");

    let cfg = config(1, true, ConvolveBackend::Grid);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut inc = IncrementalEngine::new(SstaEngine::new(cfg.clone()), circuit, placement.clone())
        .expect("base run");
    let outcome = inc.apply(&script).expect("apply");

    let text = statim::netlist::bench_format::write(inc.circuit());
    let round_tripped =
        statim::netlist::bench_format::parse("c432", &text).expect("round-trip parse");
    // The placement is structural, so the original one still applies.
    let report = SstaEngine::new(cfg)
        .run(&round_tripped, &placement)
        .expect("round-trip run");
    assert_eq!(
        deterministic_report(&outcome.report, LIMIT),
        deterministic_report(&report, LIMIT),
        ".bench round-trip of the edited circuit changed the analysis"
    );
}

#[test]
fn reuse_actually_happens_on_small_edits() {
    // Not just correctness: a 1-gate edit off the critical cone must
    // retain most path analyses, or the incremental engine is silently
    // doing full work. Pick a gate that drives no one (a sink) so its
    // fanout cone is minimal.
    let bench = Benchmark::C880;
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let cfg = config(1, true, ConvolveBackend::Grid);
    let mut inc =
        IncrementalEngine::new(SstaEngine::new(cfg.clone()), circuit, placement).expect("base run");

    // A sink gate: drives no other gate, so only wire-load coupling can
    // dirty anything beyond itself.
    let sink = {
        let c = inc.circuit();
        let mut driven = vec![false; c.gate_count()];
        for g in c.gates() {
            for s in &g.inputs {
                if let Signal::Gate(src) = s {
                    driven[src.index()] = true;
                }
            }
        }
        c.gates()
            .iter()
            .enumerate()
            .rev()
            .find(|(i, _)| !driven[*i])
            .map(|(_, g)| g.name.clone())
            .expect("some gate drives only outputs")
    };
    let script = EcoScript::parse(&format!("retime {sink} 5e-12")).expect("script");
    let outcome = inc.apply(&script).expect("apply");
    let stats = &outcome.stats;
    assert!(
        stats.reused_paths >= stats.recomputed_paths,
        "1-gate sink edit should reuse most paths: {}",
        stats.summary_line()
    );
    assert_eq!(
        deterministic_report(&outcome.report, LIMIT),
        fresh_report(bench, &script, cfg),
        "sink edit diverged from from-scratch"
    );
}

/// An engine's kernel store is bounded by default: an edit session that
/// computes ten times as many kernels as the store can hold keeps it at
/// its bound, and the reports it serves along the way still equal fresh
/// runs. An explicit capacity still wins.
#[test]
fn the_kernel_store_stays_bounded_through_a_long_edit_session() {
    let bench = Benchmark::C499;
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut cfg = config(1, true, ConvolveBackend::Grid);
    cfg.quality_intra = 8;
    cfg.quality_inter = 4;
    let engine = SstaEngine::new(cfg.clone());
    let mut inc = IncrementalEngine::new(engine.clone(), circuit.clone(), placement.clone())
        .expect("base run");
    // Two kernel maps, each at most its capacity.
    let bound = 2 * inc.store().capacity().expect("bounded by default");
    // The gate on the most near-critical paths: every fresh drive gives
    // each path through it fresh kernel keys.
    let mut through = vec![0usize; circuit.gate_count()];
    for p in &inc.report().paths {
        for g in &p.analysis.gates {
            through[g.index()] += 1;
        }
    }
    let hot = (0..through.len())
        .max_by_key(|&i| through[i])
        .expect("gates");
    let name = circuit.gates()[hot].name.clone();
    let mut reference = circuit;
    let (mut computed, mut applies) = (0usize, 0usize);
    while computed < 10 * bound {
        applies += 1;
        let drive = 1.0 + applies as f64 * 1e-4;
        let script = EcoScript::parse(&format!("resize {name} {drive}")).expect("script");
        let outcome = inc.apply(&script).expect("apply");
        apply_edits(&mut reference, &script).expect("reference edit");
        let cache = outcome.report.profile.cache.expect("cache on");
        computed += (cache.inter_misses + cache.intra_misses) as usize;
        let stats = inc.store().stats();
        assert!(
            stats.entries <= bound,
            "{} entries past {bound}",
            stats.entries
        );
        if applies % 25 == 0 {
            let fresh = engine.run(&reference, &placement).expect("fresh run");
            assert_eq!(
                deterministic_report(&outcome.report, usize::MAX),
                deterministic_report(&fresh, usize::MAX),
                "apply {applies}"
            );
            assert_eq!(outcome.report.label_sweeps, fresh.label_sweeps);
        }
    }
    assert!(inc.store().stats().evictions > 0, "the bound evicted");
    assert!(applies >= 25, "only {applies} applies were sampled");

    let explicit = IncrementalEngine::new(
        SstaEngine::new(cfg.with_cache_capacity(Some(64))),
        reference,
        placement,
    )
    .expect("base run");
    assert_eq!(explicit.store().capacity(), Some(64));
}
