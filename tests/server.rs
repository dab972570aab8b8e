//! End-to-end tests of the analysis daemon: a real `TcpListener` bound
//! to an ephemeral port, driven through the blocking client (and, for
//! the protocol corpus, a raw socket).
//!
//! The central claim is the serving-mode determinism contract: a report
//! served over the wire — fresh, from the result store, or at a
//! different thread count — is **bit-for-bit identical** to the same
//! analysis run in one shot.

use statim::core::engine::{SstaConfig, SstaEngine};
use statim::core::report::deterministic_report;
use statim::core::service::ServiceConfig;
use statim::core::store::ResultLog;
use statim::core::{ErrorClass, PlacementOptions};
use statim::netlist::generators::iscas85::{self, Benchmark};
use statim::netlist::{Placement, PlacementStyle};
use statim::server::{daemon, Client, ClientError, DaemonHandle, ErrorCode, Request, GREETING};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Keep the tests quick: coarse kernels, same on both sides of every
/// comparison.
const QUALITY: &[(&str, &str)] = &[("quality-intra", "40"), ("quality-inter", "20")];

const WAIT: Duration = Duration::from_secs(120);

fn spawn_daemon(config: ServiceConfig) -> DaemonHandle {
    daemon::spawn("127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A fresh store directory under the system temp dir (removed first, so
/// a crashed previous run cannot leak state into this one).
fn tmp_store(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("statim-server-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Polls `open_connections` until it reaches `want` — registry pruning
/// happens on the owning worker's next tick, not synchronously with the
/// socket close, so the observation needs a bounded grace window.
fn wait_for_open_connections(handle: &DaemonHandle, want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = handle.open_connections();
        if open == want || Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn connect(handle: &DaemonHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect")
}

fn opts(extra: &[(&str, &str)]) -> Vec<(String, String)> {
    QUALITY
        .iter()
        .chain(extra)
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// The one-shot reference: the same engine run the daemon performs,
/// rendered through the same deterministic report.
fn batch_report(bench: Benchmark, top: usize) -> String {
    batch_report_placed(bench, PlacementStyle::Levelized, top)
}

/// [`batch_report`] at a given placement style.
fn batch_report_placed(bench: Benchmark, style: PlacementStyle, top: usize) -> String {
    let circuit = iscas85::generate(bench);
    let placement = Placement::generate(&circuit, style);
    let mut config = SstaConfig::date05();
    config.quality_intra = 40;
    config.quality_inter = 20;
    let report = SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect("batch run");
    deterministic_report(&report, top)
}

#[test]
fn served_reports_are_bit_identical_to_batch() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    for (bench, source) in [(Benchmark::C432, "@c432"), (Benchmark::C499, "@c499")] {
        let (id, from_store) = client.submit(source, &opts(&[])).expect("submit");
        assert!(
            !from_store,
            "{source}: first submission cannot hit the store"
        );
        let state = client.wait(id, WAIT).expect("wait");
        assert_eq!(state, "done", "{source}");
        let served = client.result(id, Some(5)).expect("result");
        assert_eq!(
            served,
            batch_report(bench, 5),
            "{source}: served report differs from the one-shot run"
        );
    }

    client.shutdown().expect("shutdown");
    handle.join();
}

/// The one-shot sequential reference: the same run the daemon's
/// executor performs for a register netlist, rendered through the same
/// deterministic report.
fn batch_sequential_report(name: &str, top: usize) -> String {
    use statim::core::report::deterministic_sequential_report;
    use statim::core::{SequentialConfig, SequentialEngine};
    let circuit = statim::netlist::generators::sequential::from_name(name).expect("generator");
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut ssta = SstaConfig::date05();
    ssta.quality_intra = 40;
    ssta.quality_inter = 20;
    let config = SequentialConfig {
        ssta,
        ..SequentialConfig::date05()
    };
    let report = SequentialEngine::new(config)
        .run(&circuit, &placement)
        .expect("batch sequential run");
    deterministic_sequential_report(&report, top)
}

#[test]
fn sequential_submission_serves_the_setup_hold_report() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // A register netlist goes through SUBMIT unchanged: the executor
    // routes it to the sequential flow, and RESULT serves the
    // setup/hold check report byte-identical to a one-shot run.
    let (id, from_store) = client.submit("@s27", &opts(&[])).expect("submit");
    assert!(!from_store, "first sequential submission cannot hit");
    assert_eq!(client.wait(id, WAIT).expect("wait"), "done");
    let served = client.result(id, Some(10)).expect("result");
    assert_eq!(served, batch_sequential_report("s27", 10));
    assert!(served.contains("timing checks"), "report:\n{served}");
    assert!(served.contains("setup"), "report:\n{served}");
    assert!(served.contains("hold"), "report:\n{served}");

    // An identical resubmission is answered from the result store with
    // the identical bytes — sequential results are fingerprinted and
    // cached like combinational ones.
    let (second, from_store) = client.submit("@s27", &opts(&[])).expect("resubmit");
    assert!(from_store, "sequential resubmission must hit the store");
    assert_eq!(client.result(second, None).expect("stored"), served);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn sequential_resubmission_at_another_c_hits_and_invalid_configs_never_do() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);
    let (primed, _) = client.submit("@s27", &opts(&[])).expect("submit");
    assert_eq!(client.wait(primed, WAIT).expect("wait"), "done");
    // The sequential flow never reads C: another C is the same report,
    // the bytes `statim seq` prints.
    let (hit, from_store) = client
        .submit("@s27", &opts(&[("confidence", "0.3")]))
        .expect("resubmit at another C");
    assert!(from_store, "another C must be served from the store");
    assert_eq!(
        client.result(hit, Some(10)).expect("result"),
        batch_sequential_report("s27", 10)
    );
    // An invalid value still queues and fails with its config error,
    // on a sequential or a combinational netlist alike.
    let (c432, _) = client.submit("@c432", &opts(&[])).expect("submit");
    assert_eq!(client.wait(c432, WAIT).expect("wait"), "done");
    for (source, option, text) in [
        ("@s27", ("confidence", "-0.5"), "confidence C must be"),
        ("@s27", ("max-paths", "0"), "max_paths must be positive"),
        ("@c432", ("max-wall-secs", "-1"), "max_wall_secs must be"),
    ] {
        let (id, from_store) = client.submit(source, &opts(&[option])).expect("submit");
        assert!(
            !from_store,
            "{source} {option:?}: an invalid config never hits"
        );
        assert_eq!(client.wait(id, WAIT).expect("wait"), "failed");
        match client.result(id, None) {
            Err(ClientError::Server {
                code: ErrorCode::Config,
                message,
            }) => assert!(message.contains(text), "{message}"),
            other => panic!("{source} {option:?}: expected a config error, got {other:?}"),
        }
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn duplicate_submission_is_served_from_the_result_store() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    let (first, _) = client.submit("@c432", &opts(&[])).expect("submit");
    client.wait(first, WAIT).expect("wait");
    let fresh = client.result(first, None).expect("result");

    // Identical submission: answered from the store, no second run.
    let (second, from_store) = client.submit("@c432", &opts(&[])).expect("resubmit");
    assert!(
        from_store,
        "identical resubmission must hit the result store"
    );
    assert_ne!(first, second, "store hits still get their own job id");
    let stored = client.result(second, None).expect("stored result");
    assert_eq!(stored, fresh, "store must serve the identical bytes");

    // Wall-time-only knobs (threads here) are excluded from the job
    // fingerprint: a resubmission that only changes them hits too, and
    // the bytes still match — the thread-count determinism contract.
    let (third, from_store) = client
        .submit("@c432", &opts(&[("threads", "2")]))
        .expect("resubmit threads=2");
    assert!(from_store, "thread count must not defeat the result store");
    assert_eq!(client.result(third, None).expect("result"), fresh);

    // A semantically different run (other confidence) must NOT hit.
    let (fourth, from_store) = client
        .submit("@c432", &opts(&[("confidence", "0.2")]))
        .expect("submit confidence=0.2");
    assert!(!from_store, "different settings must miss the result store");
    client.wait(fourth, WAIT).expect("wait");

    let stats = client.stats().expect("stats");
    assert!(stats.contains("store-hits: 2"), "stats:\n{stats}");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn backend_option_selects_kernel_and_keys_the_store() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // backend=grid is the default spelled out: same fingerprint, store hit.
    let (grid, _) = client.submit("@c432", &opts(&[])).expect("submit");
    client.wait(grid, WAIT).expect("wait");
    let grid_bytes = client.result(grid, None).expect("result");
    let (explicit, from_store) = client
        .submit("@c432", &opts(&[("backend", "grid")]))
        .expect("submit backend=grid");
    assert!(from_store, "backend=grid must fingerprint like the default");
    assert_eq!(client.result(explicit, None).expect("result"), grid_bytes);

    // backend=fft is a different kernel: distinct fingerprint, own run.
    let (fft, from_store) = client
        .submit("@c432", &opts(&[("backend", "fft")]))
        .expect("submit backend=fft");
    assert!(!from_store, "fft must not reuse grid results");
    client.wait(fft, WAIT).expect("wait");

    // Junk gets a typed CONFIG error, admits nothing, and the
    // connection survives.
    let submitted = |stats: &str| {
        stats
            .lines()
            .find(|l| l.starts_with("submitted:"))
            .map(str::to_string)
    };
    let before = submitted(&client.stats().expect("stats"));
    for (key, value) in [
        ("backend", "warp"),
        ("deadline", "soon"),
        ("random-place", "x"),
    ] {
        match client.submit("@c432", &opts(&[(key, value)])) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Config, "{key}={value}: {message}");
                assert!(message.contains(value), "{message}");
            }
            other => panic!("{key}={value}: {other:?}"),
        }
    }
    let stats = client.stats().expect("stats after rejected submit");
    assert!(stats.contains("store-hits: 1"), "stats:\n{stats}");
    assert!(before.is_some(), "stats:\n{stats}");
    assert_eq!(submitted(&stats), before, "stats:\n{stats}");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn daemon_default_backend_applies_to_bare_submissions() {
    let config = ServiceConfig {
        default_backend: statim::stats::ConvolveBackend::Fft,
        ..ServiceConfig::default()
    };
    let handle = spawn_daemon(config);
    let mut client = connect(&handle);

    // A bare submit runs under the daemon default (fft)…
    let (bare, _) = client.submit("@c432", &opts(&[])).expect("submit");
    client.wait(bare, WAIT).expect("wait");
    // …so an explicit backend=fft resubmission is the same job.
    let (explicit, from_store) = client
        .submit("@c432", &opts(&[("backend", "fft")]))
        .expect("submit backend=fft");
    assert!(
        from_store,
        "daemon default must land in the job fingerprint"
    );
    assert_eq!(
        client.result(explicit, None).expect("result"),
        client.result(bare, None).expect("result")
    );
    // …and backend=grid is a different job.
    let (grid, from_store) = client
        .submit("@c432", &opts(&[("backend", "grid")]))
        .expect("submit backend=grid");
    assert!(!from_store, "grid must not reuse the fft default's result");
    client.wait(grid, WAIT).expect("wait");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn builtin_names_fingerprint_like_their_netlist_files() {
    let dir = tmp_store("builtin-file-route");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bench_file = dir.join("c432.bench");
    std::fs::write(
        &bench_file,
        statim::netlist::bench_format::write(&iscas85::generate(Benchmark::C432)),
    )
    .expect("write c432.bench");
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    let (first, _) = client.submit("@c432", &opts(&[])).expect("submit");
    assert_eq!(client.wait(first, WAIT).expect("wait"), "done");
    let fresh = client.result(first, None).expect("result");

    // Built-in names match case-insensitively onto one template, so the
    // upper-case spelling is the same job.
    let (upper, from_store) = client.submit("@C432", &opts(&[])).expect("submit @C432");
    assert!(from_store, "@C432 must hit the entry @c432 stored");
    assert_eq!(client.result(upper, None).expect("result"), fresh);

    // A file holding the same netlist is the same job too: the template
    // digests exactly the bytes a loaded file does.
    let source = bench_file.to_str().expect("utf-8 temp path");
    let (file, from_store) = client.submit(source, &opts(&[])).expect("submit file");
    assert!(from_store, "c432.bench must hit the entry @c432 stored");
    assert_eq!(client.result(file, None).expect("result"), fresh);

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_options_build_the_option_table_s_config() {
    // Every table key the plain build takes, at a non-default value,
    // plus a placement option: the served bytes must equal a one-shot
    // run whose config and placement the same tables built.
    let pairs = [
        ("confidence", "0.1"),
        ("quality-intra", "40"),
        ("quality-inter", "20"),
        ("max-paths", "5000"),
        ("threads", "2"),
        ("retries", "2"),
        ("backend", "fft"),
        ("inter-share", "0.5"),
        ("max-wall-secs", "600"),
        ("max-analyzed-paths", "3"),
        ("max-mc-samples", "4096"),
        ("random-place", "3"),
    ];
    let circuit = iscas85::generate(Benchmark::C432);
    let mut config = SstaConfig::date05();
    let mut placement = PlacementOptions::default();
    for (key, value) in pairs {
        let owned = config.set_option(key, value).expect("valid value")
            || placement.set_option(key, value).expect("valid value");
        assert!(owned, "{key}");
    }
    let placement = placement.resolve(&circuit).expect("placement");
    let report = SstaEngine::new(config)
        .run(&circuit, &placement)
        .expect("one-shot run");
    assert!(
        report.budget_exhausted.is_some(),
        "the path budget must bind"
    );

    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);
    let options: Vec<(String, String)> = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let (id, _) = client.submit("@c432", &options).expect("submit");
    // A partial report finishes as a degraded job.
    assert_eq!(client.wait(id, WAIT).expect("wait"), "degraded");
    assert_eq!(
        client.result(id, Some(10)).expect("result"),
        deterministic_report(&report, 10)
    );
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn random_placement_of_a_builtin_is_its_own_job() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    let (levelized, _) = client.submit("@c432", &opts(&[])).expect("submit");
    assert_eq!(client.wait(levelized, WAIT).expect("wait"), "done");

    // Another placement is another netlist digest: no store hit, and the
    // report is the one-shot run at that placement.
    let (random, from_store) = client
        .submit("@c432", &opts(&[("random-place", "3")]))
        .expect("submit random-place=3");
    assert!(
        !from_store,
        "random-place=3 must not reuse the levelized result"
    );
    assert_eq!(client.wait(random, WAIT).expect("wait"), "done");
    assert_eq!(
        client.result(random, Some(5)).expect("result"),
        batch_report_placed(Benchmark::C432, PlacementStyle::Random(3), 5)
    );
    assert_ne!(
        client.result(random, Some(5)).expect("result"),
        client.result(levelized, Some(5)).expect("result"),
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn oversized_pipelines_are_refused_and_the_daemon_keeps_serving() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // Unbounded, this name would allocate 10^16 registers.
    match client.submit("@pipe100000000x100000000", &opts(&[])) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Config);
            assert!(message.contains("register bound"), "{message}");
        }
        other => panic!("expected ERR CONFIG, got {other:?}"),
    }
    // The connection and the daemon keep serving pipelines in bounds.
    let (id, _) = client
        .submit("@pipe2x4", &opts(&[]))
        .expect("submit pipe2x4");
    assert_eq!(client.wait(id, WAIT).expect("wait"), "done");
    let stats = client.stats().expect("stats");
    assert!(stats.contains("submitted: 1"), "stats:\n{stats}");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn edit_verb_reanalyzes_the_edited_circuit_bit_identically() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    let (base, _) = client.submit("@c432", &opts(&[])).expect("submit");
    assert_eq!(client.wait(base, WAIT).expect("wait"), "done");

    // EDIT derives a new job from the base spec; its served report must
    // be bit-identical to a one-shot run of the *edited* circuit under
    // the base job's placement and options.
    let script = "resize:g113:0.5;retime:g115:2e-12";
    let (edited, from_store) = client.edit(base, script).expect("edit");
    assert!(!from_store, "first edited run cannot hit the store");
    assert_ne!(base, edited, "EDIT must mint a new job");
    assert_eq!(client.wait(edited, WAIT).expect("wait edited"), "done");
    let served = client.result(edited, Some(5)).expect("result");

    let circuit = iscas85::generate(Benchmark::C432);
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    let mut reference = circuit.clone();
    let eco = statim::core::EcoScript::parse_compact(script).expect("script");
    statim::core::apply_edits(&mut reference, &eco).expect("apply");
    let mut config = SstaConfig::date05();
    config.quality_intra = 40;
    config.quality_inter = 20;
    let report = SstaEngine::new(config)
        .run(&reference, &placement)
        .expect("reference run");
    assert_eq!(
        served,
        deterministic_report(&report, 5),
        "served EDIT report differs from the one-shot edited run"
    );

    // Repeating the same edit fingerprints identically: a store hit —
    // and specs are retained even for store-served jobs, so the hit
    // itself can be edited again.
    let (again, from_store) = client.edit(base, script).expect("re-edit");
    assert!(from_store, "identical edit must hit the result store");
    assert_eq!(
        client.result(again, None).expect("stored result"),
        client.result(edited, None).expect("full result"),
        "store must serve the identical edited bytes"
    );
    let (chained, _) = client
        .edit(again, "retime:g115:0")
        .expect("edit a store-served job");
    assert_eq!(client.wait(chained, WAIT).expect("wait chained"), "done");

    // Script errors come back typed, with the 1-based edit position.
    match client.edit(base, "resize:nosuch:2.0") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Config, "{message}");
            assert!(message.contains("nosuch"), "{message}");
        }
        other => panic!("expected CONFIG error, got {other:?}"),
    }
    match client.edit(base, "resize:g113") {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Parse, "{message}");
            assert!(message.contains("line 1"), "{message}");
        }
        other => panic!("expected PARSE error, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn edit_verb_is_gated_on_the_negotiated_minor() {
    let handle = spawn_daemon(ServiceConfig::default());

    // A v1.0 connection has EDIT refused with a pointer at the minor.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut read_line = move || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    };
    assert_eq!(read_line(), GREETING);
    writeln!(writer, "HELLO 1").expect("write");
    assert_eq!(read_line(), "OK HELLO 1");
    writeln!(writer, "EDIT job-0 resize:g1:2.0").expect("write");
    let reply = read_line();
    assert!(
        reply.starts_with("ERR PROTOCOL") && reply.contains("1.1"),
        "v1.0 EDIT must be refused naming the needed minor, got `{reply}`"
    );
    // The refusal does not kill the connection.
    writeln!(writer, "STATUS job-0").expect("write");
    assert!(read_line().starts_with("ERR NOTFOUND"));
    writeln!(writer, "SHUTDOWN").expect("write");
    assert_eq!(read_line(), "OK SHUTDOWN draining");

    // On a 1.1 connection an unknown base job is NOTFOUND, not a gate.
    handle.join();
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);
    assert_eq!(client.minor(), 1);
    match client.edit("job-99".parse().expect("id"), "resize:g1:2.0") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NotFound),
        other => panic!("expected NOTFOUND, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn full_queue_rejects_with_busy() {
    // A zero-capacity queue turns admission control all the way up:
    // every submission bounces with BUSY and the daemon stays healthy.
    let config = ServiceConfig {
        max_queue: 0,
        ..ServiceConfig::default()
    };
    let handle = spawn_daemon(config);
    let mut client = connect(&handle);

    match client.submit("@c432", &opts(&[])) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected BUSY, got {other:?}"),
    }
    // The connection survives the rejection.
    let stats = client.stats().expect("stats after BUSY");
    assert!(stats.contains("rejected: 1"), "stats:\n{stats}");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn cancel_mid_run_leaves_the_daemon_serving() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // A heavy job (wide window on the larger c1355) so the cancel has a
    // running target; if it is still queued the cancel is just
    // immediate instead, and the assertions below hold either way.
    let heavy = opts(&[("confidence", "0.3")]);
    let (id, _) = client.submit("@c1355", &heavy).expect("submit heavy");
    client.cancel(id).expect("cancel");
    let state = client.wait(id, WAIT).expect("wait");
    assert_eq!(state, "cancelled");

    // Cancelled jobs never reach the result store, and asking for
    // their result surfaces the recorded cancellation (a Resource-class
    // failure), not a hang.
    match client.result(id, None) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Resource, "{message}");
            assert!(message.contains("cancelled"), "{message}");
        }
        other => panic!("expected RESOURCE error, got {other:?}"),
    }

    // The daemon keeps serving clean work afterwards.
    let (next, _) = client
        .submit("@c432", &opts(&[]))
        .expect("submit after cancel");
    assert_eq!(client.wait(next, WAIT).expect("wait"), "done");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[cfg(feature = "fault-injection")]
#[test]
fn panicking_job_leaves_the_daemon_serving() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // Inject a panic into path 0 with no retries: the supervised run
    // degrades that path and the job lands `degraded`, while the daemon
    // itself never notices.
    let (id, _) = client
        .submit(
            "@c432",
            &opts(&[("fault-plan", "panic-path@0"), ("retries", "0")]),
        )
        .expect("submit faulted");
    let state = client.wait(id, WAIT).expect("wait");
    assert_eq!(
        state, "degraded",
        "panicking path must only degrade its job"
    );

    // Degraded results are poll-able but never cached: resubmitting the
    // clean variant runs fresh and comes back bit-identical to batch.
    let (clean, from_store) = client.submit("@c432", &opts(&[])).expect("submit clean");
    assert!(!from_store, "degraded run must not seed the result store");
    assert_eq!(client.wait(clean, WAIT).expect("wait"), "done");
    assert_eq!(
        client.result(clean, Some(5)).expect("result"),
        batch_report(Benchmark::C432, 5)
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn shutdown_drains_queued_work_and_closes() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // A heavy job (as in the cancel test) keeps the drain open past the
    // next submission: once the drain completes the daemon closes the
    // connection, and a quick job could finish before the SUBMIT below
    // arrives.
    let heavy = opts(&[("confidence", "0.3")]);
    let (id, _) = client.submit("@c1355", &heavy).expect("submit");
    client.shutdown().expect("shutdown");

    // Draining: new submissions bounce with a typed SHUTDOWN error.
    match client.submit("@c499", &opts(&[])) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Shutdown),
        other => panic!("expected SHUTDOWN error, got {other:?}"),
    }

    // The queued job stays pollable while the drain lasts; once it
    // completes the daemon force-closes lingering connections and
    // exits, so the poll ends in `done` or in a clean close — never in
    // a dropped job or a hang. (`AnalysisService` unit tests pin down
    // that draining always finishes queued work.)
    match client.wait(id, WAIT) {
        Ok(state) => assert_eq!(state, "done"),
        Err(ClientError::Protocol(m)) => assert!(m.contains("closed"), "{m}"),
        Err(ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected wait failure: {other}"),
    }
    handle.join();
}

// ---------------------------------------------------------------------
// Connection lifecycle: the registry is bounded under churn, WAIT is
// gated on the negotiated minor, pipelined batches reply in order.
// ---------------------------------------------------------------------

#[test]
fn connection_churn_leaves_the_registry_empty() {
    let handle = spawn_daemon(ServiceConfig::default());

    // Raw connect/disconnect cycles, including sockets dropped before
    // the daemon even greets them and half-written request lines.
    for i in 0..48 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        if i % 3 == 1 {
            let _ = stream.write_all(b"HELLO");
        }
        drop(stream);
    }
    // Full handshakes dropped without SHUTDOWN leak just as easily.
    for _ in 0..8 {
        drop(connect(&handle));
    }

    assert_eq!(
        wait_for_open_connections(&handle, 0),
        0,
        "closed connections must be pruned from the registry"
    );

    // The daemon is still healthy after the churn.
    let mut client = connect(&handle);
    let (id, _) = client.submit("@c432", &opts(&[])).expect("submit");
    assert_eq!(client.wait(id, WAIT).expect("wait"), "done");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn wait_verb_is_gated_on_the_negotiated_minor() {
    let handle = spawn_daemon(ServiceConfig::default());

    let raw = |hello: &str| {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut read_line = move || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            line.trim_end().to_string()
        };
        assert_eq!(read_line(), GREETING);
        writeln!(writer, "{hello}").expect("write");
        (writer, read_line)
    };

    // A v1.0 connection has WAIT refused with a pointer at the minor…
    let (mut writer, mut read_line) = raw("HELLO 1");
    assert_eq!(read_line(), "OK HELLO 1");
    writeln!(writer, "WAIT job-0").expect("write");
    let reply = read_line();
    assert!(
        reply.starts_with("ERR PROTOCOL") && reply.contains("1.1"),
        "v1.0 WAIT must be refused naming the needed minor, got `{reply}`"
    );
    // …and the refusal does not kill the connection.
    writeln!(writer, "STATUS job-0").expect("write");
    assert!(read_line().starts_with("ERR NOTFOUND"));

    // A negotiated 1.1 connection gets the verb (NOTFOUND, not a gate).
    let (mut writer, mut read_line) = raw("HELLO 1.1");
    assert_eq!(read_line(), "OK HELLO 1.1");
    writeln!(writer, "WAIT job-99").expect("write");
    assert!(read_line().starts_with("ERR NOTFOUND"));

    // The library client negotiates 1.1 against this daemon.
    let mut client = connect(&handle);
    assert_eq!(client.minor(), 1);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn wait_timeouts_are_typed_and_huge_timeouts_do_not_panic() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // A heavy job so the short wait below reliably expires first, in
    // release builds too: at QUALITYinter = 100 each inter-die kernel
    // costs about eight times the default's (it grows as Q³).
    let heavy = opts(&[("confidence", "0.3"), ("quality-inter", "100")]);
    let (slow, _) = client.submit("@c1355", &heavy).expect("submit heavy");
    match client.wait(slow, Duration::from_millis(50)) {
        Err(ClientError::Timeout { id, last_state }) => {
            assert_eq!(id, slow);
            assert!(
                matches!(last_state.as_str(), "queued" | "running"),
                "live job, got state `{last_state}`"
            );
        }
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    // A zero timeout expires immediately but stays typed.
    match client.wait(slow, Duration::ZERO) {
        Err(ClientError::Timeout { .. }) => {}
        other => panic!("expected a typed timeout, got {other:?}"),
    }
    client.cancel(slow).expect("cancel");
    client.wait(slow, WAIT).expect("wait cancelled");

    // The `--wait` CLI path passes an astronomically large timeout; it
    // must saturate to "wait forever", not panic in `Instant` math.
    let (quick, _) = client.submit("@c432", &opts(&[])).expect("submit");
    let state = client
        .wait(quick, Duration::from_secs(u64::MAX / 4))
        .expect("huge timeout waits");
    assert_eq!(state, "done");

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn pipelined_batch_replies_arrive_in_submission_order() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // One write burst: two good jobs around a bad one. The bad job's
    // CONFIG error must land in its own slot without shifting the rest.
    let jobs: Vec<(String, Vec<(String, String)>)> = vec![
        ("@c432".to_string(), opts(&[])),
        ("@c432".to_string(), opts(&[("backend", "warp")])),
        ("@c499".to_string(), opts(&[])),
    ];
    let receipts = client.submit_batch(&jobs).expect("batch");
    assert_eq!(receipts.len(), 3);
    let (first, _) = *receipts[0].as_ref().expect("first job queued");
    match &receipts[1] {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(*code, ErrorCode::Config);
            assert!(message.contains("warp"), "{message}");
        }
        other => panic!("expected CONFIG error in slot 1, got {other:?}"),
    }
    let (third, _) = *receipts[2].as_ref().expect("third job queued");
    assert_ne!(first, third);

    // Byte-identity to the per-benchmark batch run proves the replies
    // were not swapped: c432 and c499 reports differ.
    client.wait(first, WAIT).expect("wait first");
    client.wait(third, WAIT).expect("wait third");
    assert_eq!(
        client.result(first, Some(5)).expect("result first"),
        batch_report(Benchmark::C432, 5)
    );
    assert_eq!(
        client.result(third, Some(5)).expect("result third"),
        batch_report(Benchmark::C499, 5)
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

// ---------------------------------------------------------------------
// Persistence: a restarted daemon serves prior results byte-identically,
// surviving concurrent connection churn and a SIGTERM-style stop; a
// corrupt store log is a typed Parse error, never a wrong report.
// ---------------------------------------------------------------------

#[test]
fn restarted_daemon_serves_stored_results_bit_identically() {
    let dir = tmp_store("restart");
    let config = || ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    let handle = spawn_daemon(config());
    let mut client = connect(&handle);
    let (id, from_store) = client.submit("@c432", &opts(&[])).expect("submit");
    assert!(!from_store, "empty store cannot hit");
    assert_eq!(client.wait(id, WAIT).expect("wait"), "done");
    let before = client.result(id, Some(5)).expect("result");
    client.shutdown().expect("shutdown");
    handle.join();

    // A brand-new daemon over the same directory: the resubmission is
    // answered from disk, byte-identical to the pre-restart serving and
    // to the one-shot run.
    let handle = spawn_daemon(config());
    let mut client = connect(&handle);
    let (id, from_store) = client.submit("@c432", &opts(&[])).expect("resubmit");
    assert!(from_store, "restart must replay the persistent store");
    let after = client.result(id, Some(5)).expect("stored result");
    assert_eq!(after, before, "restart changed the served bytes");
    assert_eq!(after, batch_report(Benchmark::C432, 5));

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soak_churn_with_kill_and_restart_preserves_results() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dir = tmp_store("soak");
    let config = || ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let handle = spawn_daemon(config());

    // Background churn: three threads hammering connect/disconnect —
    // some raw drops, some full handshakes — while real work runs.
    let stop = Arc::new(AtomicBool::new(false));
    let addr = handle.addr();
    let churners: Vec<_> = (0..3)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut cycles = 0u32;
                while !stop.load(Ordering::Relaxed) && cycles < 200 {
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        if (cycles + t).is_multiple_of(2) {
                            let _ = s.write_all(b"HELLO 1\n");
                        }
                        drop(s);
                    }
                    cycles += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
        .collect();

    let mut client = connect(&handle);
    let mut before = Vec::new();
    for source in ["@c432", "@c499"] {
        let (id, _) = client.submit(source, &opts(&[])).expect("submit");
        assert_eq!(client.wait(id, WAIT).expect("wait"), "done", "{source}");
        before.push(client.result(id, Some(5)).expect("result"));
    }

    stop.store(true, Ordering::Relaxed);
    for t in churners {
        t.join().expect("churn thread");
    }
    // Only the live client may remain registered once churn settles.
    assert_eq!(
        wait_for_open_connections(&handle, 1),
        1,
        "churned connections must not accumulate"
    );

    // SIGTERM-style stop: no client SHUTDOWN, just the process hook.
    drop(client);
    handle.shutdown();
    handle.join();

    // The restarted daemon serves both results from disk, byte-identical.
    let handle = spawn_daemon(config());
    let mut client = connect(&handle);
    for (source, want) in ["@c432", "@c499"].iter().zip(&before) {
        let (id, from_store) = client.submit(source, &opts(&[])).expect("resubmit");
        assert!(from_store, "{source}: must be served from the store");
        assert_eq!(
            &client.result(id, Some(5)).expect("stored result"),
            want,
            "{source}: restart changed the served bytes"
        );
    }
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The result store's bound: 1024 resident reports in front of the log,
// which re-reads what was evicted.
// ---------------------------------------------------------------------

/// Reports the result store keeps resident (the job table's bound).
const RESIDENT: usize = 1024;

/// The `STATS` counter `key`.
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(": ")?.parse().ok())
        .unwrap_or_else(|| panic!("no `{key}` in STATS:\n{stats}"))
}

/// Options of the `k`-th cheap distinct spec: c432 at a C of its own,
/// the default C first and then warm re-analyses below it.
fn nth_spec(k: usize) -> Vec<(String, String)> {
    if k == 0 {
        return opts(&[]);
    }
    let c = 0.05 - 0.025 * k as f64 / 2048.0;
    opts(&[("confidence", &c.to_string())])
}

/// Runs one distinct spec more than the store keeps resident and
/// returns the first one's RESULT: that spec is the one evicted.
fn overfill(client: &mut Client) -> String {
    let mut first = String::new();
    for k in 0..=RESIDENT {
        let (id, from_store) = client.submit("@c432", &nth_spec(k)).expect("submit");
        assert!(!from_store, "spec {k} is fresh");
        assert_eq!(client.wait(id, WAIT).expect("wait"), "done", "spec {k}");
        if k == 0 {
            first = client.result(id, Some(5)).expect("result");
        }
    }
    first
}

/// Changes one hex digit inside the body of the log's first record.
fn damage_first_record(log: &Path) {
    use std::io::{Seek, SeekFrom};
    let text = std::fs::read_to_string(log).expect("read log");
    let at = text.find("\nscalars ").expect("a record body") + "\nscalars ".len();
    let digit = if text.as_bytes()[at] == b'0' {
        b"1"
    } else {
        b"0"
    };
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(log)
        .expect("open log");
    f.seek(SeekFrom::Start(at as u64)).expect("seek");
    f.write_all(digit).expect("overwrite one byte");
}

#[test]
fn evicted_results_are_re_read_from_the_store_log() {
    let dir = tmp_store("reread");
    let handle = spawn_daemon(ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let mut client = connect(&handle);
    let first = overfill(&mut client);
    let (id, from_store) = client.submit("@c432", &nth_spec(0)).expect("resubmit");
    assert!(from_store, "an evicted report the log holds is a hit");
    assert_eq!(client.result(id, Some(5)).expect("result"), first);
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "store-resident"), RESIDENT as u64, "{stats}");
    assert_eq!(stat(&stats, "store-rereads"), 1, "{stats}");
    assert_eq!(stat(&stats, "store-read-errors"), 0, "{stats}");
    assert_eq!(
        stat(&stats, "store-entries"),
        RESIDENT as u64 + 1,
        "{stats}"
    );
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evicted_results_rerun_byte_identically_without_a_store_log() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);
    let first = overfill(&mut client);
    let (id, from_store) = client.submit("@c432", &nth_spec(0)).expect("resubmit");
    assert!(!from_store, "no log holds the evicted report");
    assert_eq!(client.wait(id, WAIT).expect("wait"), "done");
    assert_eq!(client.result(id, Some(5)).expect("result"), first);
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "store-resident"), RESIDENT as u64, "{stats}");
    assert_eq!(stat(&stats, "store-entries"), RESIDENT as u64, "{stats}");
    assert_eq!(stat(&stats, "store-rereads"), 0, "{stats}");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn a_damaged_evicted_record_reruns_instead_of_being_served() {
    let dir = tmp_store("damaged");
    let handle = spawn_daemon(ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let mut client = connect(&handle);
    let first = overfill(&mut client);
    // Spec 0 ran first, so its record is the log's first.
    damage_first_record(&dir.join("results.log"));
    let (id, from_store) = client.submit("@c432", &nth_spec(0)).expect("resubmit");
    assert!(
        !from_store,
        "a record that fails its re-read is never served"
    );
    assert_eq!(client.wait(id, WAIT).expect("wait"), "done");
    let rerun = client.result(id, Some(5)).expect("result");
    assert_eq!(rerun, batch_report(Benchmark::C432, 5));
    assert_eq!(rerun, first);
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "store-read-errors"), 1, "{stats}");
    assert_eq!(stat(&stats, "store-rereads"), 0, "{stats}");
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_over_more_records_than_the_bound_keeps_every_one_a_hit() {
    let dir = tmp_store("restart-bound");
    let config = || ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let handle = spawn_daemon(config());
    let mut client = connect(&handle);
    let first = overfill(&mut client);
    client.shutdown().expect("shutdown");
    handle.join();

    let handle = spawn_daemon(config());
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    let records = RESIDENT as u64 + 1;
    assert_eq!(stat(&stats, "store-loaded"), records, "{stats}");
    assert_eq!(stat(&stats, "store-entries"), records, "{stats}");
    // The scan keeps no report resident: each resubmission re-reads its
    // record from the log.
    assert_eq!(stat(&stats, "store-resident"), 0, "{stats}");
    let mut oldest = None;
    for k in (0..=RESIDENT).rev() {
        let (id, from_store) = client.submit("@c432", &nth_spec(k)).expect("resubmit");
        assert!(from_store, "spec {k} must be served from the store");
        oldest = Some(id);
    }
    let oldest = oldest.expect("spec 0 resubmitted");
    assert_eq!(client.result(oldest, Some(5)).expect("result"), first);
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "store-rereads"), records, "{stats}");
    assert_eq!(stat(&stats, "store-resident"), RESIDENT as u64, "{stats}");
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

fn store_corpus() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/store");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("store corpus dir")
        .map(|e| e.expect("corpus entry").path())
        .collect();
    files.sort();
    assert!(files.len() >= 5, "store corpus unexpectedly small");
    files
}

/// Hard failures: the header itself is wrong, so no byte of the log
/// can be trusted and recovery never applies.
const CORPUS_HARD: &[&str] = &["bad_magic.log", "bad_version.log"];
/// Recoverable tails: a clean header with damage confined to the
/// unsnapshotted tail — open() truncates back to the last
/// checksum-valid boundary instead of failing.
const CORPUS_RECOVERABLE: &[&str] = &[
    "bad_checksum.log",
    "bad_float.log",
    "not_a_record.log",
    "torn_tail.log",
    "truncated_record.log",
];
/// Valid logs that merely exercise replay rules (duplicate fingerprints
/// keep the latest record).
const CORPUS_CLEAN: &[&str] = &["duplicate_fp.log"];

/// Copies a corpus log into a fresh store dir, optionally with an index
/// snapshot acknowledging the full byte length (which makes any tail
/// damage "below the snapshot" and therefore unrecoverable).
fn stage_corpus(file: &Path, label: &str, with_idx: bool) -> PathBuf {
    let dir = tmp_store(&format!("corpus-{label}"));
    std::fs::create_dir_all(&dir).expect("store dir");
    std::fs::copy(file, dir.join("results.log")).expect("copy corpus log");
    if with_idx {
        let len = std::fs::metadata(file).expect("corpus metadata").len();
        std::fs::write(
            dir.join("results.idx"),
            format!("statim-store-idx v1\nlog_len {len}\nrecords 0\n"),
        )
        .expect("write idx");
    }
    dir
}

#[test]
fn corrupt_store_logs_split_into_hard_and_recoverable_sets() {
    for file in store_corpus() {
        let name = file
            .file_name()
            .expect("name")
            .to_string_lossy()
            .to_string();
        let label = name.replace('.', "-");
        if CORPUS_HARD.contains(&name.as_str()) {
            let dir = stage_corpus(&file, &label, false);
            let err = ResultLog::open(&dir).expect_err(&name);
            assert_eq!(err.class, ErrorClass::Parse, "{name}: {err}");
            assert!(err.line.is_some(), "{name}: wants the offending line");
            let _ = std::fs::remove_dir_all(&dir);
        } else if CORPUS_RECOVERABLE.contains(&name.as_str()) {
            // Without a snapshot the damage is all tail: open truncates
            // back to the last checksum-valid boundary and serves what
            // survived.
            let dir = stage_corpus(&file, &label, false);
            let (log, records) = ResultLog::open(&dir).expect(&name);
            assert!(log.recovered_bytes() > 0, "{name}: recovery must report");
            assert_eq!(records.len(), log.len(), "{name}");
            // The same bytes under a full-length snapshot are
            // acknowledged data: recovery is forbidden and open fails
            // with the typed Parse error.
            let _ = std::fs::remove_dir_all(&dir);
            let dir = stage_corpus(&file, &format!("{label}-idx"), true);
            let err = ResultLog::open(&dir).expect_err(&name);
            assert_eq!(err.class, ErrorClass::Parse, "{name}: {err}");
            assert!(err.line.is_some(), "{name}: wants the offending line");
            let _ = std::fs::remove_dir_all(&dir);
        } else if CORPUS_CLEAN.contains(&name.as_str()) {
            let dir = stage_corpus(&file, &label, false);
            let (log, records) = ResultLog::open(&dir).expect(&name);
            assert_eq!(log.recovered_bytes(), 0, "{name}: nothing to recover");
            // Replay yields both raw records; the fingerprint set (and
            // any map built in replay order) collapses to one entry.
            assert_eq!(records.len(), 2, "{name}");
            assert_eq!(log.len(), 1, "{name}: duplicate fp is one entry");
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            panic!("unclassified corpus entry {name}: add it to a set");
        }
    }
}

#[test]
fn duplicate_fingerprint_replay_keeps_the_latest_record() {
    let file = store_corpus()
        .into_iter()
        .find(|f| f.file_name().is_some_and(|n| n == "duplicate_fp.log"))
        .expect("duplicate_fp.log in corpus");
    let dir = stage_corpus(&file, "dup-latest", false);
    let (_, records) = ResultLog::open(&dir).expect("open");
    assert!(records.iter().all(|(fp, _)| *fp == 5));
    // Records replay in file order, so a latest-wins map keeps the
    // second one — which changes det_critical_delay to 2.0e-9.
    let (_, latest) = records.last().expect("records");
    assert_eq!(latest.det_critical_delay, 2.0e-9);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_refuses_to_start_over_a_corrupt_store() {
    // The same corruption through the front door: `spawn` with a store
    // whose snapshot acknowledges bytes that no longer parse is a typed
    // startup failure, not a daemon that silently serves wrong bytes.
    let file = store_corpus()
        .into_iter()
        .find(|f| f.file_name().is_some_and(|n| n == "bad_checksum.log"))
        .expect("bad_checksum.log in corpus");
    let dir = stage_corpus(&file, "corrupt-spawn", true);
    let err = match daemon::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    ) {
        Err(err) => err,
        Ok(_) => panic!("spawn over a corrupt store must fail"),
    };
    assert_eq!(err.class, ErrorClass::Parse, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_recovers_a_torn_store_tail_and_serves() {
    // A torn trailing record — the crash-mid-append shape — must not
    // keep the daemon down: open truncates the tail and serving resumes
    // with the surviving records intact.
    let file = store_corpus()
        .into_iter()
        .find(|f| f.file_name().is_some_and(|n| n == "torn_tail.log"))
        .expect("torn_tail.log in corpus");
    let dir = stage_corpus(&file, "torn-spawn", false);
    let handle = daemon::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
    )
    .expect("spawn over a torn store tail");
    let mut client = connect(&handle);
    let stats = client.stats().expect("stats");
    assert!(stats.contains("store-entries: 1"), "{stats}");
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Protocol corpus: every malformed request line is a typed PROTOCOL
// error — parse-level and against a live daemon — and never kills the
// connection.
// ---------------------------------------------------------------------

fn protocol_corpus() -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/protocol");
    let mut lines = Vec::new();
    for entry in std::fs::read_dir(&path).expect("corpus dir") {
        let file = entry.expect("corpus entry").path();
        let text = std::fs::read_to_string(&file).expect("corpus file");
        lines.extend(text.lines().filter(|l| !l.is_empty()).map(str::to_string));
    }
    assert!(lines.len() >= 20, "corpus unexpectedly small");
    lines
}

#[test]
fn corpus_lines_fail_request_parse() {
    for line in protocol_corpus() {
        assert!(
            Request::parse(&line).is_err(),
            "`{line}` must not parse as a request"
        );
    }
}

#[test]
fn corpus_lines_get_err_replies_and_the_connection_survives() {
    let handle = spawn_daemon(ServiceConfig::default());

    // Raw socket: greeting, handshake, then the whole corpus.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut read_line = move || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    };

    assert_eq!(read_line(), GREETING);

    // Requests before the handshake are themselves protocol errors.
    writeln!(writer, "STATS").expect("write");
    assert!(read_line().starts_with("ERR PROTOCOL"), "handshake gate");
    writeln!(writer, "HELLO 99").expect("write");
    assert!(read_line().starts_with("ERR PROTOCOL"), "version gate");
    writeln!(writer, "HELLO 1").expect("write");
    assert_eq!(read_line(), "OK HELLO 1");

    for line in protocol_corpus() {
        writeln!(writer, "{line}").expect("write");
        let reply = read_line();
        assert!(
            reply.starts_with("ERR PROTOCOL"),
            "`{line}` must get ERR PROTOCOL, got `{reply}`"
        );
    }

    // After all that abuse the connection still works.
    writeln!(writer, "STATS").expect("write");
    let header = read_line();
    let n: usize = header
        .strip_prefix("OK STATS ")
        .expect("stats header")
        .parse()
        .expect("stats count");
    for _ in 0..n {
        read_line();
    }
    writeln!(writer, "SHUTDOWN").expect("write");
    assert_eq!(read_line(), "OK SHUTDOWN draining");
    handle.join();
}

// ---------------------------------------------------------------------
// Overload defenses: fragmentation tolerance, per-client admission,
// queue deadlines, slowloris reaping, connection shedding — the
// serving-mode robustness contract.
// ---------------------------------------------------------------------

/// Opens a raw socket, returning (writer, line reader) past the
/// greeting.
fn raw_conn(handle: &DaemonHandle) -> (TcpStream, impl FnMut() -> String) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut read_line = move || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    };
    assert_eq!(read_line(), GREETING);
    (stream, read_line)
}

#[test]
fn pipelined_submit_batch_survives_any_byte_split() {
    // A store-backed daemon so repeat submissions are instant hits —
    // the test's subject is framing, not analysis throughput.
    let dir = tmp_store("frag");
    let handle = spawn_daemon(ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    {
        let mut client = connect(&handle);
        let (id, _) = client.submit("@c432", &opts(&[])).expect("warm submit");
        client.wait(id, WAIT).expect("warm wait");
    }

    // One pipelined burst: handshake plus two submits. Splitting it at
    // every byte boundary must never change the replies — the daemon
    // reassembles lines from arbitrary TCP fragmentation.
    let session = "HELLO 1.1 client=frag\n\
                   SUBMIT @c432 quality-intra=40 quality-inter=20\n\
                   SUBMIT @c432 quality-intra=40 quality-inter=20\n";
    let bytes = session.as_bytes();
    for cut in 1..bytes.len() {
        let (mut writer, mut read_line) = raw_conn(&handle);
        writer.set_nodelay(true).expect("nodelay");
        writer.write_all(&bytes[..cut]).expect("first half");
        writer.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(1));
        writer.write_all(&bytes[cut..]).expect("second half");
        writer.flush().expect("flush");
        assert_eq!(read_line(), "OK HELLO 1.1", "cut at byte {cut}");
        for slot in 0..2 {
            let reply = read_line();
            assert!(
                reply.starts_with("OK SUBMIT job-") && reply.ends_with(" stored"),
                "cut at byte {cut}, slot {slot}: `{reply}`"
            );
        }
    }

    let mut client = connect(&handle);
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn throttled_submits_are_typed_and_deterministic_across_thread_counts() {
    // The same pipelined script must shed the same submissions whether
    // one worker or four poll the connections: admission decisions key
    // on arrival order, never on scheduling.
    let mut outcomes = Vec::new();
    for workers in [1usize, 4] {
        let handle = daemon::spawn_tuned(
            "127.0.0.1:0",
            ServiceConfig {
                max_per_client: Some(1),
                ..ServiceConfig::default()
            },
            daemon::DaemonTuning {
                workers,
                ..daemon::DaemonTuning::default()
            },
        )
        .expect("spawn");
        let mut client =
            Client::connect_tagged(&handle.addr().to_string(), "sizer-7").expect("connect");
        let jobs: Vec<(String, Vec<(String, String)>)> =
            (0..3).map(|_| ("@c432".to_string(), opts(&[]))).collect();
        let receipts = client.submit_batch(&jobs).expect("batch");
        let pattern: Vec<bool> = receipts.iter().map(|r| r.is_ok()).collect();
        assert_eq!(pattern, [true, false, false], "workers={workers}");
        for lost in &receipts[1..] {
            match lost {
                Err(ClientError::Throttled {
                    retry_after,
                    message,
                }) => {
                    assert_eq!(*retry_after, Duration::from_millis(100), "{message}");
                    assert!(message.contains("client"), "{message}");
                }
                other => panic!("workers={workers}: expected Throttled, got {other:?}"),
            }
        }
        let (id, _) = *receipts[0].as_ref().expect("first admitted");
        client.wait(id, WAIT).expect("wait");
        let stats = client.stats().expect("stats");
        assert!(stats.contains("throttled: 2"), "workers={workers}: {stats}");
        assert!(stats.contains("clients: 1"), "workers={workers}: {stats}");
        outcomes.push(pattern);
        client.shutdown().expect("shutdown");
        handle.join();
    }
    assert_eq!(outcomes[0], outcomes[1], "shed set depends on thread count");
}

#[test]
fn queue_deadlines_expire_jobs_over_the_wire() {
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);

    // A heavy job pins the single executor; the victim's 1 ms queue
    // deadline is long past when the drain reaches it.
    let (heavy, _) = client
        .submit("@c1355", &opts(&[("confidence", "0.3")]))
        .expect("heavy");
    let (victim, _) = client
        .submit("@c432", &opts(&[("deadline", "1")]))
        .expect("victim");

    client.wait(heavy, WAIT).expect("heavy completes");
    let deadline = Instant::now() + WAIT;
    loop {
        let (state, _, _) = client.status(victim).expect("status");
        if state == "expired" {
            break;
        }
        assert!(Instant::now() < deadline, "victim stuck in `{state}`");
        std::thread::sleep(Duration::from_millis(5));
    }
    match client.result(victim, None) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Resource, "{message}");
            assert!(message.contains("expired"), "{message}");
        }
        other => panic!("expected RESOURCE expired, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.contains("expired: 1"), "{stats}");
    // The heavy job was untouched by its neighbor's expiry.
    assert_eq!(
        client.result(heavy, Some(5)).expect("heavy result").len(),
        client.result(heavy, Some(5)).expect("stable").len()
    );

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn stalled_connections_are_reaped_but_idle_clients_survive() {
    let handle = daemon::spawn_tuned(
        "127.0.0.1:0",
        ServiceConfig::default(),
        daemon::DaemonTuning {
            io_timeout: Some(Duration::from_millis(100)),
            ..daemon::DaemonTuning::default()
        },
    )
    .expect("spawn");

    // A well-behaved idle client: greeted, nothing owed in either
    // direction. The progress deadline must never touch it.
    let mut idle = connect(&handle);

    // A slowloris: never greets (conn A), or freezes mid-line (conn B).
    let (_conn_a, mut read_a) = raw_conn(&handle);
    let (mut conn_b, mut read_b) = raw_conn(&handle);
    writeln!(conn_b, "HELLO 1.1").expect("greet");
    assert_eq!(read_b(), "OK HELLO 1.1");
    write!(conn_b, "SUBM").expect("half a verb, no newline");
    conn_b.flush().expect("flush");

    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.reaped_connections() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(handle.reaped_connections(), 2, "both stalls reaped");
    let reason = read_a();
    assert!(
        reason.starts_with("ERR RESOURCE") && reason.contains("reaped"),
        "{reason}"
    );
    let reason = read_b();
    assert!(
        reason.starts_with("ERR RESOURCE") && reason.contains("reaped"),
        "{reason}"
    );
    assert_eq!(wait_for_open_connections(&handle, 1), 1, "idle survives");

    let stats = idle.stats().expect("idle client still served");
    assert!(stats.contains("reaped-connections: 2"), "{stats}");
    idle.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn the_connection_that_takes_its_lane_past_the_aggregate_buffer_cap_is_reaped() {
    const CAP: usize = 64 * 1024;
    let handle = daemon::spawn_tuned(
        "127.0.0.1:0",
        ServiceConfig::default(),
        daemon::DaemonTuning {
            max_client_buffered: CAP,
            ..daemon::DaemonTuning::default()
        },
    )
    .expect("spawn");
    let mut calm = Client::connect_tagged(&handle.addr().to_string(), "calm").expect("connect");
    // Wide-window c1355 runs pin the single executor, so the jobs queued
    // behind them keep their WAITs parked while the pipelines fill.
    let heavy: Vec<_> = ["1.0", "0.99", "0.98"]
        .iter()
        .map(|c| {
            let confidence = [("confidence".to_string(), c.to_string())];
            calm.submit("@c1355", &confidence).expect("heavy").0
        })
        .collect();
    // Two connections share the `hog` lane. Each parks a WAIT on a job
    // queued behind the heavy ones, then pipelines part of a line: under
    // the cap alone, and under the line bound a connection keeps once
    // its WAIT returns.
    let park = |confidence: &str| {
        let (mut conn, mut read_line) = raw_conn(&handle);
        // A reply that never comes fails the test instead of hanging it.
        conn.set_read_timeout(Some(WAIT)).expect("read timeout");
        writeln!(conn, "HELLO 1.1 client=hog").expect("greet");
        assert_eq!(read_line(), "OK HELLO 1.1");
        writeln!(
            conn,
            "SUBMIT @c432 quality-intra=40 quality-inter=20 confidence={confidence}"
        )
        .expect("submit");
        let reply = read_line();
        let id = reply
            .strip_prefix("OK SUBMIT ")
            .and_then(|r| r.strip_suffix(" queued"))
            .unwrap_or_else(|| panic!("{reply}"))
            .to_string();
        writeln!(conn, "WAIT {id}").expect("wait");
        (conn, read_line)
    };
    let (mut first, mut read_first) = park("0.04");
    let (mut second, mut read_second) = park("0.045");
    first.write_all(&[b'x'; 40 * 1024]).expect("pipeline");
    // Time for a worker to buffer it: the second connection is the one
    // that crosses.
    std::thread::sleep(Duration::from_millis(100));
    let mut sent = 0;
    while handle.reaped_connections() == 0 {
        assert!(
            sent <= CAP,
            "the lane passed its cap and nothing was reaped"
        );
        second.write_all(&[b'y'; 4096]).expect("pipeline");
        sent += 4096;
        let deadline = Instant::now() + Duration::from_millis(50);
        while handle.reaped_connections() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let reason = std::iter::repeat_with(&mut read_second)
        .find(|line| !line.starts_with("OK WAIT"))
        .expect("a reason");
    assert!(
        reason.starts_with("ERR RESOURCE")
            && reason.contains("client `hog` over its 65536 byte aggregate buffer cap"),
        "{reason}"
    );
    assert_eq!(handle.reaped_connections(), 1);
    let stats = calm.stats().expect("stats");
    assert_eq!(stat(&stats, "reaped-connections"), 1, "{stats}");

    // Another tag's connection still completes a job, and so does the
    // lane's other connection.
    for id in heavy {
        let _ = calm.cancel(id);
    }
    let (id, _) = calm.submit("@c432", &opts(&[])).expect("submit");
    assert_eq!(calm.wait(id, WAIT).expect("wait"), "done");
    let waited = read_first();
    assert!(
        waited.starts_with("OK WAIT job-") && waited.ends_with(" done"),
        "{waited}"
    );
    calm.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn connections_over_the_registry_bound_get_a_typed_refusal() {
    let handle = daemon::spawn_tuned(
        "127.0.0.1:0",
        ServiceConfig::default(),
        daemon::DaemonTuning {
            max_conns: 1,
            workers: 1,
            ..daemon::DaemonTuning::default()
        },
    )
    .expect("spawn");
    let mut holder = connect(&handle);

    // The refusal is a parseable RESOURCE error with a retry hint, not
    // a silent close.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read refusal");
    let line = line.trim_end();
    assert!(
        line.starts_with("ERR RESOURCE retry-after=") && line.contains("connection limit"),
        "{line}"
    );
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("eof");
    assert!(rest.is_empty(), "refused connection closes after the line");

    assert_eq!(handle.shed_connections(), 1);
    let stats = holder.stats().expect("stats");
    assert!(stats.contains("shed-connections: 1"), "{stats}");
    holder.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn idle_daemon_stays_prompt_after_backoff() {
    // The idle poll backs off to 8 ms; a burst of fresh connections
    // after a long quiet spell must still be served promptly (churn
    // latency is bounded by the backoff cap, not the quiet duration).
    let handle = spawn_daemon(ServiceConfig::default());
    std::thread::sleep(Duration::from_millis(200));
    let start = Instant::now();
    for _ in 0..20 {
        let mut client = connect(&handle);
        client.stats().expect("stats");
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "churn after idle took {:?}",
        start.elapsed()
    );
    assert_eq!(wait_for_open_connections(&handle, 0), 0);
    let mut client = connect(&handle);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn warm_round_trips_are_not_paced_by_the_idle_backoff() {
    // A warm c432 re-analysis at a fresh C costs the executor well under
    // a millisecond, so 200 SUBMIT → WAIT → RESULT trips on one
    // connection are paced by how soon the worker sees the WAIT's job
    // finish and the next request arrive. A worker that blocks on the
    // event it expects ends its idle waits as the event arrives; one
    // that sleeps the backoff out runs its idle waits to their full
    // timeout whenever a pass finds the next request or the WAIT's job
    // not there yet. The daemon counts those waits, and host speed does
    // not move the count the way it moves wall time: the blocking worker
    // reads 0 in 200 trips, a sleeping one read 237 in a debug build.
    // Fewer than one per two trips passes. Release builds also keep the
    // wall-clock bound of 1 ms per trip, the shortest idle backoff (a
    // paced worker takes about 3 ms per trip), best of five attempts so
    // a neighbour test hogging a core cannot fail it.
    const TRIPS: usize = 200;
    const ATTEMPTS: usize = 5;
    const BOUND: Duration = Duration::from_millis(TRIPS as u64);
    const TIMEOUTS: u64 = TRIPS as u64 / 2;
    let handle = spawn_daemon(ServiceConfig::default());
    let mut client = connect(&handle);
    let (primed, _) = client
        .submit("@c432", &opts(&[("confidence", "0.05")]))
        .expect("prime");
    assert_eq!(client.wait(primed, WAIT).expect("wait"), "done");
    let attempts = if cfg!(debug_assertions) { 1 } else { ATTEMPTS };
    let mut best = Duration::MAX;
    let mut fewest = u64::MAX;
    for attempt in 0..attempts {
        let timeouts = handle.idle_timeouts();
        let start = Instant::now();
        for trip in 0..TRIPS {
            // Distinct C in [0.025, 0.05): each trip is a fresh
            // fingerprint on the warm front, never a store hit.
            let k = attempt * TRIPS + trip;
            let c = 0.025 + 0.025 * k as f64 / (ATTEMPTS * TRIPS) as f64;
            let (id, from_store) = client
                .submit("@c432", &opts(&[("confidence", &c.to_string())]))
                .expect("submit");
            assert!(!from_store, "C = {c} must be a fresh job");
            assert_eq!(client.wait(id, WAIT).expect("wait"), "done");
            client.result(id, Some(1)).expect("result");
        }
        best = best.min(start.elapsed());
        fewest = fewest.min(handle.idle_timeouts() - timeouts);
        if best < BOUND && fewest < TIMEOUTS {
            break;
        }
    }
    assert!(
        fewest < TIMEOUTS,
        "{TRIPS} warm round trips ran {fewest} idle waits to their full timeout \
         (bound {TIMEOUTS})"
    );
    if !cfg!(debug_assertions) {
        assert!(
            best < BOUND,
            "{TRIPS} warm round trips took {best:?} at best (bound {BOUND:?})"
        );
    }
    let stats = client.stats().expect("stats");
    assert!(stats.contains("warm-runs: "), "{stats}");
    assert!(!stats.contains("warm-runs: 0"), "{stats}");
    client.shutdown().expect("shutdown");
    handle.join();
}

// ---------------------------------------------------------------------
// Property: parse ∘ render == id over the request grammar.
// ---------------------------------------------------------------------

mod roundtrip {
    use super::*;
    use proptest::prelude::*;
    use statim::core::JobId;

    /// A wire-safe token: no spaces (the field separator), nonempty.
    fn token(with_eq: bool) -> impl Strategy<Value = String> {
        let mut chars: Vec<char> = "abcXYZ019@._/-,".chars().collect();
        if with_eq {
            chars.push('=');
        }
        proptest::collection::vec(proptest::sample::select(chars), 1..10)
            .prop_map(|cs| cs.into_iter().collect())
    }

    fn arb_request() -> impl Strategy<Value = Request> {
        (
            0usize..8,
            (0u32..1000, 0u32..4),
            0u64..10_000,
            proptest::collection::vec((token(false), token(true)), 0..4),
            token(false),
            // Encodes Option<usize> (values past 99 mean `top`/`timeout`
            // absent) and Option<String> (the tag applies when the flag
            // is 0).
            (0usize..200, (0usize..2, token(false))),
        )
            .prop_map(
                |(variant, (version, minor), id, options, source, (top, (tagged, tag)))| {
                    let id: JobId = format!("job-{id}").parse().expect("job id");
                    match variant {
                        0 => Request::Hello {
                            version,
                            minor,
                            client: (tagged == 0).then_some(tag),
                        },
                        1 => Request::Submit { source, options },
                        2 => Request::Status { id },
                        3 => Request::Result {
                            id,
                            top: (top < 100).then_some(top),
                        },
                        4 => Request::Cancel { id },
                        5 => Request::Wait {
                            id,
                            timeout_ms: (top < 100).then_some(top as u64 * 37),
                        },
                        6 => Request::Stats,
                        _ => Request::Shutdown,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn request_parse_render_roundtrips(req in arb_request()) {
            let line = req.render();
            prop_assert_eq!(Request::parse(&line).expect("rendered requests parse"), req);
        }
    }
}
