//! End-to-end tests of the `statim` binary: spawn the compiled
//! executable and check its output and exit codes.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

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

#[test]
fn yield_refuses_an_invalid_target_like_seq() {
    // Refused as a config error (exit 3) before any analysis runs, with
    // the message `statim seq` prints for the same target; stdout stays
    // empty.
    for target in ["1.5", "0", "nan"] {
        let mut outputs = Vec::new();
        for cmd in [
            ["yield", "--benchmark", "c432"],
            ["seq", "--benchmark", "s27"],
        ] {
            let out = statim()
                .args(cmd)
                .args(["--target", target])
                .output()
                .expect("run statim");
            assert_eq!(out.status.code(), Some(3), "{cmd:?} {target}: {out:?}");
            assert!(out.stdout.is_empty(), "{cmd:?} {target}: {out:?}");
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(err.contains("outside (0, 1]"), "{cmd:?} {target}: {err}");
            outputs.push(err);
        }
        assert_eq!(outputs[0], outputs[1], "target {target}");
    }
    // A valid target still solves.
    let out = statim()
        .args(["yield", "--benchmark", "c432", "--target", "0.5"])
        .output()
        .expect("run statim yield");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("period for 50.0% yield"), "{text}");
}

/// A child process killed when dropped, so a failed assertion cannot
/// leak it.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Waits for `child` to exit, failing the test instead of hanging when
/// it is still running after a minute (a daemon that should have
/// refused to start, say).
fn wait_within_a_minute(child: &mut Reaped, what: &str) -> ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.0.try_wait().expect("poll statim") {
            return status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "{what} still running after a minute"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs `statim` with `args` and returns its exit code and stderr.
fn exit_and_stderr(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Reaped(
        statim()
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("run statim"),
    );
    let mut stderr = child.0.stderr.take().expect("stderr");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stderr.read_to_string(&mut text).map(|_| text)
    });
    let status = wait_within_a_minute(&mut child, &format!("statim {args:?}"));
    let stderr = reader.join().expect("stderr reader").expect("read stderr");
    (status.code(), stderr)
}

#[test]
fn malformed_or_missing_option_values_are_usage_errors() {
    for args in [
        &["analyze", "--benchmark", "c432", "--threads", "abc"][..],
        &["analyze", "--benchmark", "c432", "--threads"][..],
    ] {
        let (code, err) = exit_and_stderr(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("USAGE"), "{args:?}: {err}");
        assert!(
            err.contains("--threads") || err.contains("`threads`"),
            "{err}"
        );
    }
}

#[test]
fn refused_option_values_are_config_errors() {
    for (args, needle) in [
        (
            &["analyze", "--benchmark", "c432", "--backend", "warp"][..],
            "unknown backend `warp`",
        ),
        (
            &["analyze", "--benchmark", "c432", "-C", "-0.5"][..],
            "confidence",
        ),
        (
            &["analyze", "--benchmark", "c432", "--cache-capacity", "0"][..],
            "cache capacity must be positive",
        ),
        // Refused as malformed by a fault-injection build, and as
        // unsupported by any other: exit 3 either way.
        (
            &["analyze", "--benchmark", "c432", "--fault-plan", "bogus@1"][..],
            "fault",
        ),
    ] {
        let (code, err) = exit_and_stderr(args);
        assert_eq!(code, Some(3), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(!err.contains("USAGE"), "{args:?}: {err}");
    }
}

#[test]
fn a_bad_source_is_reported_before_a_refused_option() {
    for option in [
        &["--backend", "warp"][..],
        &["-C", "-0.5"][..],
        &["--cache-capacity", "0"][..],
        &["--fault-plan", "bogus@1"][..],
    ] {
        let mut args = vec!["analyze", "/nonexistent/statim-no-such.bench"];
        args.extend_from_slice(option);
        let (code, err) = exit_and_stderr(&args);
        assert_eq!(code, Some(4), "{args:?}: {err}");
        assert!(err.contains("statim-no-such.bench"), "{args:?}: {err}");
        assert!(!err.contains("config error"), "{args:?}: {err}");
    }
}

#[cfg(not(feature = "fault-injection"))]
#[test]
fn fault_plan_needs_a_fault_injection_build() {
    let (code, err) = exit_and_stderr(&[
        "analyze",
        "--benchmark",
        "c432",
        "--fault-plan",
        "zero-variance",
    ]);
    assert_eq!(code, Some(3), "{err}");
    assert!(err.contains("fault-injection build"), "{err}");
}

#[test]
fn serve_refuses_bad_settings_by_class() {
    // Each refusal happens before the daemon serves anything.
    let (code, err) = exit_and_stderr(&["serve", "--addr", "127.0.0.1:0", "--backend", "warp"]);
    assert_eq!(code, Some(3), "{err}");
    assert!(err.contains("unknown backend `warp`"), "{err}");
    let (code, err) = exit_and_stderr(&["serve", "--addr", "127.0.0.1:0", "--max-queue", "x"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("USAGE"), "{err}");
    // A zero cap is refused, not rounded up to a small cache.
    let (code, err) = exit_and_stderr(&["serve", "--addr", "127.0.0.1:0", "--cache-capacity", "0"]);
    assert_eq!(code, Some(3), "{err}");
    assert!(err.contains("cache capacity must be positive"), "{err}");
}

#[test]
fn serve_refuses_zero_rate_limit_and_zero_workers_before_binding() {
    // The address is taken, so a daemon that tried to bind would fail
    // with a resource error (exit 4): the config refusal must come first.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = taken.local_addr().expect("addr").to_string();
    for (flag, text) in [
        ("--rate-limit", "rate limit must be positive"),
        ("--conn-threads", "connection workers must be positive"),
        ("--cache-capacity", "cache capacity must be positive"),
    ] {
        let (code, err) = exit_and_stderr(&["serve", "--addr", &addr, flag, "0"]);
        assert_eq!(code, Some(3), "{flag} 0: {err}");
        assert!(err.contains(text), "{flag} 0: {err}");
    }
    let (code, err) = exit_and_stderr(&["serve", "--addr", &addr, "--rate-limit", "1"]);
    assert_eq!(code, Some(4), "a valid daemon on a taken address: {err}");
}

/// A `statim serve` child on an ephemeral port: the process, its stdout
/// past the banner (keep it open until the daemon exits: it prints once
/// more when it drains) and the address it listens on.
fn serve_child() -> (Reaped, BufReader<ChildStdout>, String) {
    let mut daemon = Reaped(
        statim()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("start daemon"),
    );
    let mut stdout = BufReader::new(daemon.0.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("daemon banner");
    let addr = banner
        .split_whitespace()
        .nth(4)
        .expect("listening address")
        .to_string();
    (daemon, stdout, addr)
}

/// Shuts the child daemon down through the client and checks it drains.
fn shut_down(mut daemon: Reaped, mut stdout: BufReader<ChildStdout>, addr: &str) {
    let (code, err) = exit_and_stderr(&["client", "--addr", addr, "shutdown"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(wait_within_a_minute(&mut daemon, "the drained daemon").success());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("daemon output");
    assert!(rest.contains("drained"), "{rest}");
}

#[test]
fn submit_option_errors_are_config_errors_and_the_source_comes_first() {
    let (daemon, stdout, addr) = serve_child();
    let submit = |extra: &[&str]| {
        let mut args = vec!["client", "--addr", addr.as_str(), "submit"];
        args.extend_from_slice(extra);
        exit_and_stderr(&args)
    };
    for option in [
        "threads=abc",
        "backend=warp",
        "cache=maybe",
        "solver=x",
        "cache-capacity=4",
    ] {
        let (code, err) = submit(&["@c432", option]);
        assert_eq!(code, Some(3), "{option}: {err}");
        assert!(
            err.contains("CONFIG") || err.contains("config"),
            "{option}: {err}"
        );
        let key = option.split('=').next().unwrap_or_default();
        assert!(err.contains(key), "{option}: {err}");
    }
    // A missing netlist file plus a bad option: the source is reported.
    let (code, err) = submit(&["/nonexistent/statim-no-such.bench", "threads=abc"]);
    assert!(err.contains("statim-no-such.bench"), "{err}");
    assert!(!err.contains("threads"), "{err}");
    assert_ne!(code, Some(0));
    shut_down(daemon, stdout, &addr);
}

#[test]
fn daemon_errors_print_their_class_once() {
    let (daemon, stdout, addr) = serve_child();
    let client = |extra: &[&str]| {
        let mut args = vec!["client", "--addr", addr.as_str()];
        args.extend_from_slice(extra);
        exit_and_stderr(&args)
    };
    // A refused option, and a job that fails in the executor: the ERR
    // line already carries the rendered error, class included.
    for (args, text) in [
        (
            &["submit", "@c432", "threads=abc"][..],
            "error: config error: invalid value `abc` for option `threads`",
        ),
        (
            &["submit", "@c432", "confidence=-0.5", "--wait"][..],
            "failed: invalid config: confidence C must be",
        ),
    ] {
        let (code, err) = client(args);
        assert_eq!(code, Some(3), "{args:?}: {err}");
        assert!(err.contains(text), "{args:?}: {err}");
        assert_eq!(err.matches("config error").count(), 1, "{args:?}: {err}");
        assert!(!err.contains("CONFIG"), "{args:?}: {err}");
    }
    // A code that is not a class still says what happened.
    let (code, err) = client(&["status", "job-99"]);
    assert_eq!(code, Some(3), "{err}");
    assert!(
        err.contains("config error: NOTFOUND: unknown job job-99"),
        "{err}"
    );
    shut_down(daemon, stdout, &addr);
}
