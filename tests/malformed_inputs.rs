//! Hardened-ingestion corpus: every file under `tests/corpus/` is a
//! deliberately malformed netlist or placement. Each must come back as
//! a **typed** error — classified `Parse` through the [`StatimError`]
//! taxonomy, with source line/column where the table says the parser
//! can know one — and must never panic.

use statim::core::{ErrorClass, StatimError};
use statim::netlist::{bench_format, def_lite, NetlistError};
use std::fs;
use std::path::Path;

#[derive(Clone, Copy)]
enum Format {
    Bench,
    Def,
}

/// filename → (format, expects a source location, message fragment).
/// Errors raised while *resolving* names point at the reference (an
/// undefined net, the argument that closes a cycle) or at the second
/// definition of a duplicate; only DEF's missing DIEAREA, a statement
/// that is absent, has no line to point at.
const CORPUS: &[(&str, Format, bool, &str)] = &[
    ("bench_truncated_gate.bench", Format::Bench, true, ""),
    ("bench_unknown_gate.bench", Format::Bench, true, "MAJ"),
    ("bench_undefined_net.bench", Format::Bench, true, "ghost"),
    (
        "bench_undefined_drive_target.bench",
        Format::Bench,
        true,
        "ghost",
    ),
    ("bench_duplicate_gate.bench", Format::Bench, true, "x"),
    ("bench_empty.bench", Format::Bench, true, "empty"),
    ("bench_cyclic.bench", Format::Bench, true, "cycl"),
    ("bench_garbage_line.bench", Format::Bench, true, ""),
    ("bench_missing_rhs.bench", Format::Bench, true, ""),
    (
        "bench_bad_clock_period.bench",
        Format::Bench,
        true,
        "clock period",
    ),
    (
        "bench_unknown_clock_field.bench",
        Format::Bench,
        true,
        "frequency",
    ),
    (
        "bench_constraint_missing_value.bench",
        Format::Bench,
        true,
        "constraint hold needs a value",
    ),
    ("def_missing_diearea.def", Format::Def, false, "DIEAREA"),
    ("def_unplaced_component.def", Format::Def, true, ""),
    ("def_bad_coordinate.def", Format::Def, true, ""),
    (
        "def_nan_placed.def",
        Format::Def,
        true,
        "`nan` is not a finite number",
    ),
    (
        "def_inf_diearea.def",
        Format::Def,
        true,
        "`inf` is not a finite number",
    ),
    (
        "def_inverted_diearea.def",
        Format::Def,
        true,
        "DIEAREA extent",
    ),
    (
        "def_nonpositive_units.def",
        Format::Def,
        true,
        "non-positive DBU",
    ),
    (
        "def_stray_component_line.def",
        Format::Def,
        true,
        "unrecognized component line",
    ),
];

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn parse_file(format: Format, name: &str, text: &str) -> Result<(), NetlistError> {
    match format {
        Format::Bench => bench_format::parse(name, text).map(|_| ()),
        Format::Def => def_lite::parse(text).map(|_| ()),
    }
}

#[test]
fn every_corpus_file_fails_with_a_typed_parse_error() {
    for &(file, format, wants_location, fragment) in CORPUS {
        let path = corpus_dir().join(file);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
        let err = parse_file(format, file, &text)
            .expect_err(&format!("{file}: malformed input must not parse"));
        let flat: StatimError = StatimError::from(err.clone()).with_file(file);
        assert_eq!(flat.class, ErrorClass::Parse, "{file}: {err:?}");
        if wants_location {
            let (line, col) = (flat.line, flat.col);
            assert!(
                line.is_some_and(|l| l >= 1),
                "{file}: expected a source line, got {err:?}"
            );
            assert!(
                col.is_some_and(|c| c >= 1),
                "{file}: expected a source column, got {err:?}"
            );
            // The rendered form points at file:line:col.
            let shown = flat.to_string();
            assert!(shown.contains(&format!("{file}:")), "{file}: {shown}");
        }
        if !fragment.is_empty() {
            assert!(
                err.to_string().contains(fragment),
                "{file}: `{err}` should name `{fragment}`"
            );
        }
    }
}

#[test]
fn corpus_and_table_stay_in_sync() {
    // Every corpus file is listed, and every listed file exists — a new
    // bad input can't silently skip classification.
    // Subdirectories hold other corpora (e.g. protocol/ for the wire
    // protocol); only the netlist files at the top level are ours.
    let mut on_disk: Vec<String> = fs::read_dir(corpus_dir())
        .expect("corpus dir")
        .map(|e| e.expect("entry"))
        .filter(|e| e.file_type().expect("file type").is_file())
        .map(|e| e.file_name().into_string().expect("utf-8"))
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = CORPUS.iter().map(|&(f, ..)| f.to_string()).collect();
    listed.sort();
    assert_eq!(on_disk, listed);
    assert!(listed.len() >= 15, "corpus shrank below 15 files");
}

#[test]
fn well_formed_inputs_still_parse() {
    // Control: the hardened parsers haven't become over-strict.
    let bench = "INPUT(a)\nINPUT(b)\nx = NAND(a, b)\nOUTPUT(x)\n";
    assert!(bench_format::parse("ok", bench).is_ok());
    let def = "DESIGN ok ;\nDIEAREA ( 0 0 ) ( 1000 1000 ) ;\nCOMPONENTS 0 ;\nEND COMPONENTS\n";
    assert!(def_lite::parse(def).is_ok());
}
