//! End-to-end tests of the `statim` binary: spawn the compiled
//! executable and check its output and exit codes.

use std::process::Command;

fn statim() -> Command {
    // Cargo puts integration-test binaries in target/<profile>/deps; the
    // CLI binary lives one directory up.
    let mut path = std::env::current_exe().expect("test exe");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.push("statim");
    Command::new(path)
}

#[test]
fn list_shows_all_benchmarks() {
    let out = statim().arg("list").output().expect("run statim list");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["c432", "c499", "c6288", "c7552"] {
        assert!(text.contains(name), "missing {name} in: {text}");
    }
}

#[test]
fn analyze_benchmark_prints_report() {
    let out = statim()
        .args([
            "analyze",
            "--benchmark",
            "c432",
            "--top",
            "3",
            "--quality-intra",
            "40",
            "--quality-inter",
            "20",
        ])
        .output()
        .expect("run analyze");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("deterministic critical delay"));
    assert!(text.contains("overestimation"));
    assert!(text.contains("prob rank"));
}

#[test]
fn sensitivity_prints_table() {
    let out = statim()
        .arg("sensitivity")
        .output()
        .expect("run sensitivity");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Leff"));
    assert!(text.contains("2NAND"));
}

#[test]
fn generate_and_reanalyze_round_trip() {
    let dir = std::env::temp_dir().join("statim_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bench = dir.join("c432.bench");
    let def = dir.join("c432.def");
    let out = statim()
        .args([
            "generate",
            "c432",
            "--out-bench",
            bench.to_str().unwrap(),
            "--out-def",
            def.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(bench.exists());
    assert!(def.exists());
    let out = statim()
        .args([
            "analyze",
            bench.to_str().unwrap(),
            "--def",
            def.to_str().unwrap(),
            "--quality-intra",
            "40",
            "--quality-inter",
            "20",
        ])
        .output()
        .expect("run analyze on files");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("near-critical paths"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = statim()
        .arg("frobnicate")
        .output()
        .expect("run bad command");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_benchmark_fails_cleanly() {
    let out = statim()
        .args(["analyze", "--benchmark", "c9999"])
        .output()
        .expect("run bad benchmark");
    assert!(!out.status.success());
    // Config errors exit 3 (see main.rs exit_code).
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark"));
}

#[test]
fn exit_codes_reflect_error_class() {
    // Resource (4): the netlist file does not exist.
    let out = statim()
        .args(["analyze", "/nonexistent/statim-no-such-file.bench"])
        .output()
        .expect("run missing file");
    assert_eq!(out.status.code(), Some(4), "{:?}", out);

    // Parse (2): the netlist file exists but is malformed.
    let dir = std::env::temp_dir().join("statim_cli_exit_codes");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bad = dir.join("bad.bench");
    std::fs::write(&bad, "this is { not a bench file\n").expect("write bad bench");
    let out = statim()
        .args(["analyze", bad.to_str().unwrap()])
        .output()
        .expect("run malformed file");
    assert_eq!(out.status.code(), Some(2), "{:?}", out);

    // Config (3): a well-formed invocation with an invalid setting.
    let out = statim()
        .args(["analyze", "--benchmark", "c432", "--confidence", "-0.5"])
        .output()
        .expect("run bad confidence");
    assert_eq!(out.status.code(), Some(3), "{:?}", out);
    // Numeric (5) needs an injected kernel fault; tests/faults.rs
    // exercises that class in fault-injection builds.
}

#[test]
fn yield_command_reports_curve() {
    let out = statim()
        .args([
            "yield",
            "--benchmark",
            "c432",
            "--quality-intra",
            "40",
            "--quality-inter",
            "20",
        ])
        .output()
        .expect("run yield");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("yield lower bound"));
    assert!(text.contains("period for 99.0% yield"));
}

#[test]
fn mc_command_reports_errors() {
    let out = statim()
        .args([
            "mc",
            "--benchmark",
            "c432",
            "--samples",
            "2000",
            "--quality-intra",
            "40",
            "--quality-inter",
            "20",
        ])
        .output()
        .expect("run mc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("monte-carlo"));
    assert!(text.contains("3σ point"));
}

#[test]
fn mc_samples_the_analysis_configuration() {
    // With all variance inter-die, the Monte-Carlo column must sample
    // that split too: its σ then agrees with the analytic σ, instead of
    // matching a default-split run.
    let out = statim()
        .args([
            "mc",
            "--benchmark",
            "c432",
            "--samples",
            "8192",
            "--inter-share",
            "1.0",
        ])
        .output()
        .expect("run mc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let row = text
        .lines()
        .find(|l| l.trim_start().starts_with("sigma"))
        .expect("sigma row");
    let error: f64 = row
        .split_whitespace()
        .last()
        .and_then(|e| e.trim_end_matches('%').parse().ok())
        .expect("sigma error column");
    assert!(error.abs() < 10.0, "{row}");
}

#[test]
fn mc_zero_samples_is_a_config_error() {
    let out = statim()
        .args(["mc", "--benchmark", "c432", "--samples", "0"])
        .output()
        .expect("run mc");
    assert_eq!(out.status.code(), Some(3), "{:?}", out);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sample count, got 0"), "{err}");
}
