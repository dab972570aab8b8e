//! Malformed-ECO-script corpus: every file under `tests/corpus/eco/`
//! must fail with a **typed** error — `Parse` for text the script
//! grammar rejects, `Config` for well-formed edits the circuit cannot
//! apply — carrying the 1-based script line, and must never panic.
//! The table below is sync-checked against the directory so a new bad
//! script cannot silently skip classification.

use statim::core::characterize::characterize_placed;
use statim::core::{
    apply_edits, EcoScript, ErrorClass, IncrementalEngine, SstaConfig, SstaEngine, SstaReport,
    StatimError, StoredReport, TimingGraph,
};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Placement, PlacementStyle};
use std::fs;
use std::path::Path;

/// filename → (expected class, expected 1-based line, message fragment).
const CORPUS: &[(&str, ErrorClass, usize, &str)] = &[
    ("unknown_gate.eco", ErrorClass::Config, 2, "nosuch"),
    ("unknown_verb.eco", ErrorClass::Parse, 1, "frobnicate"),
    ("bad_float.eco", ErrorClass::Parse, 1, "fast"),
    ("negative_drive.eco", ErrorClass::Config, 2, ""),
    ("missing_operand.eco", ErrorClass::Parse, 1, "resize"),
    ("extra_operand.eco", ErrorClass::Parse, 1, "retime"),
    ("dangling_wire.eco", ErrorClass::Config, 3, "ghost"),
    ("cyclic_add.eco", ErrorClass::Config, 3, ""),
    ("bad_pin.eco", ErrorClass::Config, 1, ""),
    ("input_as_gate.eco", ErrorClass::Config, 1, "primary input"),
    ("bad_arity_swap.eco", ErrorClass::Config, 1, ""),
    ("truncated.eco", ErrorClass::Parse, 2, "swap"),
    ("bad_kind.eco", ErrorClass::Parse, 1, "frob"),
];

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/eco")
}

/// Parse, then — for scripts the grammar accepts — apply against c432.
/// Both stages fold into the [`StatimError`] taxonomy the CLI and
/// daemon report through.
fn run_script(text: &str) -> Result<(), StatimError> {
    let script = EcoScript::parse(text).map_err(StatimError::from)?;
    let mut circuit = iscas85::generate(Benchmark::C432);
    apply_edits(&mut circuit, &script).map_err(StatimError::from)?;
    Ok(())
}

#[test]
fn every_eco_corpus_file_fails_typed_with_its_line() {
    for &(file, class, line, fragment) in CORPUS {
        let path = corpus_dir().join(file);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let err = run_script(&text).expect_err(&format!("{file}: malformed script must fail"));
        assert_eq!(err.class, class, "{file}: {err}");
        assert_eq!(
            err.line,
            Some(line),
            "{file}: expected 1-based line {line}, got {err}"
        );
        // The rendered form names the line for the user.
        assert!(
            err.to_string().contains(&format!("line {line}")),
            "{file}: `{err}` should point at line {line}"
        );
        if !fragment.is_empty() {
            assert!(
                err.to_string().contains(fragment),
                "{file}: `{err}` should name `{fragment}`"
            );
        }
    }
}

#[test]
fn eco_corpus_and_table_stay_in_sync() {
    let mut on_disk: Vec<String> = fs::read_dir(corpus_dir())
        .expect("eco corpus dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = CORPUS.iter().map(|&(f, ..)| f.to_string()).collect();
    listed.sort();
    assert_eq!(on_disk, listed);
    assert!(listed.len() >= 10, "eco corpus shrank below 10 files");
}

#[test]
fn well_formed_scripts_still_apply() {
    // Control: the full verb surface on real gates, both script forms.
    let text = "# a well-formed script\n\
                resize g10 2.0\n\
                retime g11 1e-12\n\
                swap g1 nor2\n\
                addwire g1 g50 0\n\
                rmwire g50 1\n";
    let script = EcoScript::parse(text).expect("parse");
    let compact = EcoScript::parse_compact(&script.render_compact()).expect("compact round-trip");
    assert_eq!(
        script.edits.iter().map(|(_, e)| e).collect::<Vec<_>>(),
        compact.edits.iter().map(|(_, e)| e).collect::<Vec<_>>()
    );
    let mut circuit = iscas85::generate(Benchmark::C432);
    let touched = apply_edits(&mut circuit, &script).expect("apply");
    assert!(!touched.is_empty());
}

/// The scripts here that can apply: the control script, each corpus
/// file's lines before the one that fails, and each line of the control
/// script alone (so the non-wire edits run without a rewire forcing a
/// full characterization).
fn candidate_scripts() -> Vec<String> {
    let control =
        "resize g10 2.0\nretime g11 1e-12\nswap g1 nor2\naddwire g1 g50 0\nrmwire g50 1\n";
    let mut scripts = vec![control.to_string()];
    for &(file, _, line, _) in CORPUS {
        let text = fs::read_to_string(corpus_dir().join(file)).expect("corpus file");
        let prefix: Vec<&str> = text.lines().take(line - 1).collect();
        scripts.push(prefix.join("\n"));
    }
    scripts.extend(control.lines().map(str::to_string));
    scripts
}

/// Every script here that applies recharacterizes only what it touched
/// into exactly the timing a full pass computes.
#[test]
fn partial_characterization_matches_a_full_pass_on_every_valid_script() {
    let scripts = candidate_scripts();
    let tech = SstaConfig::date05().tech;
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let base = characterize_placed(&circuit, &tech, &placement).expect("base timing");
    let mut applied = 0;
    for text in scripts {
        let Ok(script) = EcoScript::parse(&text) else {
            continue;
        };
        let mut edited = circuit.clone();
        let Ok(touched) = apply_edits(&mut edited, &script) else {
            continue;
        };
        let partial = base
            .recharacterize(&edited, &tech, &placement, &touched, script.rewires())
            .expect("partial characterization");
        let full = characterize_placed(&edited, &tech, &placement).expect("full pass");
        assert_eq!(format!("{partial:?}"), format!("{full:?}"), "{text}");
        applied += 1;
    }
    assert!(applied >= 7, "only {applied} scripts applied");
}

/// Every script here that applies, applied incrementally to c432: the
/// report equals a fresh run of the edited netlist in every bit (label
/// sweeps, every path's numbers and gates, every PDF), and the cone it
/// counts is the timing graph's fanout cone of the dirty and touched
/// gates.
#[test]
fn incremental_applies_match_fresh_runs_on_every_valid_script() {
    let mut config = SstaConfig::date05();
    config.quality_intra = 30;
    config.quality_inter = 15;
    let engine = SstaEngine::new(config);
    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let base = characterize_placed(&circuit, &engine.config().tech, &placement).expect("timing");
    let record = |r: &SstaReport| StoredReport::from_report(r).render_record(0);
    let mut applied = 0;
    for text in candidate_scripts() {
        let Ok(script) = EcoScript::parse(&text) else {
            continue;
        };
        let mut edited = circuit.clone();
        let Ok(touched) = apply_edits(&mut edited, &script) else {
            continue;
        };
        let mut inc = IncrementalEngine::new(engine.clone(), circuit.clone(), placement.clone())
            .expect("base run");
        let outcome = inc.apply(&script).expect("incremental apply");
        let fresh = engine.run(&edited, &placement).expect("fresh run");
        assert_eq!(record(&outcome.report), record(&fresh), "{text}");
        assert_eq!(outcome.report.label_sweeps, fresh.label_sweeps, "{text}");
        assert!(outcome.report.paths == fresh.paths, "{text}: PDFs differ");
        let timing =
            characterize_placed(&edited, &engine.config().tech, &placement).expect("timing");
        let dirty = edited
            .gate_ids()
            .filter(|g| timing.gates()[g.index()] != base.gates()[g.index()]);
        let cone = TimingGraph::build(&edited)
            .expect("timing graph")
            .fanout_cone(dirty.chain(touched));
        assert_eq!(
            outcome.stats.cone_gates,
            cone.iter().filter(|&&c| c).count(),
            "{text}"
        );
        applied += 1;
    }
    assert!(applied >= 7, "only {applied} scripts applied");
}
