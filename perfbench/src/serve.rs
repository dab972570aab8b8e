//! `serve-mixed`: an in-process daemon on loopback (`spawn_tuned`, two
//! connection workers, fresh store directory) whose kernel store set-up
//! primes with every circuit of the menu. One tagged client runs a
//! closed loop with zero think time; an op is one job round trip,
//! `SUBMIT|EDIT → WAIT → RESULT top=10`, timed in process CPU (client,
//! wire, executor and store together) from send to the last RESULT
//! byte. The seeded mix is ≈41% exact resubmits (store hits),
//! ≈34% Table 2 re-analyses at a fresh C no larger than the primed C,
//! ≈15% one-gate `EDIT`s of a resident job whose circuit has fewer than
//! 50 near-critical paths, and ≈9% sequential jobs at fresh
//! fingerprints.

use crate::measure::{cpu_ms, fnv1a, median, peak_rss_mb, Budget, Rng, Speed};
use crate::signoff::{self, CacheTotals, Flow, Job, ReplayCounts};
use crate::trace::{Span, Tracer};
use crate::{out_dir, Layers, OpLog, Outcome, Params, CLIENTS, DAEMON_WORKERS, ENGINE_THREADS};
use statim_bench::runner::PATH_CAP;
use statim_core::parallel::parallel_map;
use statim_core::service::{JobId, ServiceConfig};
use statim_core::{
    apply_edits, EcoEdit, EcoScript, JobReport, KernelStore, ResultLog, RunContext,
    SequentialEngine, SstaEngine,
};
use statim_server::{daemon, Client, DaemonHandle, DaemonTuning};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up (daemon start plus priming) is repeated this many times;
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Jobs generated up front — more than any run sends.
const JOBS: usize = 20_000;
/// Per block of the job list (see [`jobs`]).
const HITS_PER_ENTRY: usize = 3;
const ANALYZES_PER_CIRCUIT: usize = 3;
const SEQ_PER_ENTRY: usize = 4;
const EDITS_PER_BLOCK: usize = 13;
/// Fresh C values are drawn from [(1 − band)·C, C).
const FRESH_BAND: f64 = 0.5;
/// EDITs go to resident jobs of circuits with fewer near-critical
/// paths than this.
const EDIT_MAX_PATHS: usize = 50;
/// Share of EDIT scripts that swap the gate type (the rest resize).
const SWAP_SHARE: f64 = 0.4;
/// Report rows every RESULT asks for.
const TOP: usize = 10;
/// Jobs per sweep (consecutive round trips).
const SWEEP: usize = 100;
/// Threads of the untimed in-process checks, one engine thread each.
const CHECK_THREADS: usize = 2;
const WAIT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Hit,
    Analyze,
    Edit,
    Seq,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Analyze => "analyze",
            Kind::Edit => "edit",
            Kind::Seq => "seq",
        }
    }
}

/// The circuits the daemon is primed with: the Table 2 circuits at the
/// paper's C, then the sequential built-ins.
pub fn menu(toy: bool) -> Vec<Job> {
    signoff::circuits(toy, &["s27", "pipe4x16"])
}

/// What a job asks the daemon for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// `SUBMIT @<menu entry> confidence=<c>`.
    Submit { entry: usize, confidence: f64 },
    /// `EDIT <resident job of the menu entry> <script>`.
    Edit { entry: usize, script: EcoScript },
}

#[derive(Debug, Clone, PartialEq)]
pub struct JobDef {
    pub kind: Kind,
    pub ask: Ask,
}

impl JobDef {
    /// Identifies the job's spec (equal keys, equal report).
    fn key(&self) -> String {
        match &self.ask {
            Ask::Submit { entry, confidence } => {
                format!("{entry}@{:016x}", confidence.to_bits())
            }
            Ask::Edit { entry, script } => format!("{entry}!{}", script.render_compact()),
        }
    }
}

fn options(confidence: f64) -> Vec<(String, String)> {
    vec![
        ("confidence".into(), confidence.to_string()),
        ("threads".into(), ENGINE_THREADS.to_string()),
        ("max-paths".into(), PATH_CAP.to_string()),
    ]
}

/// The client's seeded job list, in blocks with a fixed make-up so every
/// block costs about the same: [`HITS_PER_ENTRY`] exact resubmits of
/// every menu entry, [`ANALYZES_PER_CIRCUIT`] re-analyses of every Table 2
/// circuit (their C stratified over [C/2, C): a fresh fingerprint over
/// the same warm kernels), [`SEQ_PER_ENTRY`] sequential jobs per
/// sequential entry at fresh C, and [`EDITS_PER_BLOCK`] one-gate EDITs
/// round-robin over the `editable` entries, in seeded order. With the
/// full menu that is 36/30/13/8 of 87: ≈41% hits, 34% re-analyses, 15%
/// EDITs and 9% sequential jobs.
pub fn jobs(menu: &[Job], editable: &[usize], seed: u64, n: usize) -> Vec<JobDef> {
    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(n + 128);
    let mut next_edit = 0;
    while out.len() < n {
        let mut block = Vec::new();
        for (entry, job) in menu.iter().enumerate() {
            let fresh = |k: usize, per: usize, rng: &mut Rng| Ask::Submit {
                entry,
                confidence: job.confidence
                    * (1.0 - FRESH_BAND + FRESH_BAND * (k as f64 + rng.unit()) / per as f64),
            };
            for _ in 0..HITS_PER_ENTRY {
                block.push(JobDef {
                    kind: Kind::Hit,
                    ask: Ask::Submit {
                        entry,
                        confidence: job.confidence,
                    },
                });
            }
            let (kind, per) = match job.flow {
                Flow::Combinational => (Kind::Analyze, ANALYZES_PER_CIRCUIT),
                Flow::Sequential => (Kind::Seq, SEQ_PER_ENTRY),
            };
            for k in 0..per {
                block.push(JobDef {
                    kind,
                    ask: fresh(k, per, &mut rng),
                });
            }
        }
        for _ in 0..EDITS_PER_BLOCK {
            let entry = editable[next_edit % editable.len()];
            next_edit += 1;
            let gates = menu[entry].circuit.gates();
            let gate = &gates[rng.below(gates.len())];
            let edit = if rng.unit() < SWAP_SHARE {
                EcoEdit::SwapGateType {
                    gate: gate.name.clone(),
                    kind: crate::eco::swap_target(gate.kind, &mut rng),
                }
            } else {
                EcoEdit::ResizeGate {
                    gate: gate.name.clone(),
                    drive: 0.8 + 0.45 * rng.unit(),
                }
            };
            block.push(JobDef {
                kind: Kind::Edit,
                ask: Ask::Edit {
                    entry,
                    script: EcoScript {
                        edits: vec![(1, edit)],
                    },
                },
            });
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// A running daemon primed with the menu.
struct Daemon {
    handle: DaemonHandle,
    addr: String,
    dir: PathBuf,
    /// The resident (primed) job of each menu entry.
    base: Vec<JobId>,
    /// Near-critical paths of each combinational menu entry.
    paths: Vec<Option<usize>>,
}

/// The near-critical path count in a RESULT's summary line.
fn paths_in(text: &str) -> Option<usize> {
    let head = text.split(" near-critical paths").next()?;
    head.rsplit(' ').next()?.parse().ok()
}

fn start(menu: &[Job], tag: usize) -> Result<Daemon, String> {
    let dir = out_dir().join(format!("serve-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("store dir: {e}"))?;
    let config = ServiceConfig {
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let tuning = DaemonTuning {
        workers: DAEMON_WORKERS,
        ..DaemonTuning::default()
    };
    let handle = daemon::spawn_tuned("127.0.0.1:0", config, tuning).map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let mut daemon = Daemon {
        handle,
        addr,
        dir,
        base: Vec::new(),
        paths: Vec::new(),
    };
    let prime = || -> Result<(Vec<JobId>, Vec<Option<usize>>), String> {
        let mut c =
            Client::connect_tagged(&daemon.addr, "bench-prime").map_err(|e| e.to_string())?;
        let mut ids = Vec::new();
        for job in menu {
            let (id, _) = c
                .submit(&format!("@{}", job.label), &options(job.confidence))
                .map_err(|e| format!("priming {}: {e}", job.label))?;
            ids.push(id);
        }
        let mut paths = Vec::new();
        for (job, &id) in menu.iter().zip(&ids) {
            let state = c.wait(id, WAIT).map_err(|e| e.to_string())?;
            if state != "done" {
                return Err(format!("priming {} ended {state}", job.label));
            }
            let text = c.result(id, Some(TOP)).map_err(|e| e.to_string())?;
            paths.push(
                (job.flow == Flow::Combinational)
                    .then(|| paths_in(&text))
                    .flatten(),
            );
        }
        Ok((ids, paths))
    };
    match prime() {
        Ok((base, paths)) => {
            daemon.base = base;
            daemon.paths = paths;
            Ok(daemon)
        }
        Err(e) => {
            let _ = std::fs::remove_dir_all(stop(daemon));
            Err(e)
        }
    }
}

/// Shuts the daemon down and waits for it; its store directory stays.
fn stop(d: Daemon) -> PathBuf {
    match Client::connect(&d.addr).and_then(|mut c| c.shutdown()) {
        Ok(()) => {}
        Err(_) => d.handle.shutdown(),
    }
    d.handle.join();
    d.dir
}

/// The daemon's `STATS` counter `key`.
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(": ")?.parse().ok())
        .unwrap_or(0)
}

fn stats(addr: &str) -> String {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .unwrap_or_default()
}

/// One finished round trip. Times are process CPU milliseconds.
#[derive(Debug, Clone)]
struct Done {
    index: usize,
    from_store: bool,
    /// FNV of the RESULT payload.
    text: u64,
    bytes: usize,
    latency_ms: f64,
    /// The core-speed mark the round trip started at.
    mark: usize,
    submit_ms: f64,
    wait_ms: f64,
    result_ms: f64,
    error: Option<String>,
}

/// FNV of a RESULT payload in the wire's line framing (lines joined by
/// newlines, one trailing newline).
fn payload_hash(text: &str) -> u64 {
    let mut joined = text.lines().collect::<Vec<_>>().join("\n");
    joined.push('\n');
    fnv1a(0, joined.as_bytes())
}

/// Runs `f` inside a span when tracing, plainly otherwise; returns its
/// value and process CPU milliseconds.
fn timed<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    cpu_ms(|| match tracer {
        Some(tr) => tr.time(name, None, op, |_| f()),
        None => f(),
    })
}

/// The client's closed loop: sends `jobs` in order until `cpu_budget`
/// scaled CPU seconds are used. Returns the round trips and the CPU
/// seconds they took.
fn drive(
    addr: &str,
    jobs: &[JobDef],
    menu: &[Job],
    base: &[JobId],
    cpu_budget: Option<f64>,
    tracer: Option<&Tracer>,
    speed: &mut Speed,
) -> (Vec<Done>, f64) {
    let budget = Budget::start(cpu_budget.unwrap_or(f64::INFINITY));
    let mut out = Vec::new();
    let mut c = match Client::connect_tagged(addr, "bench-0") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve-mixed: the client could not connect: {e}");
            return (out, 0.0);
        }
    };
    for (index, job) in jobs.iter().enumerate() {
        speed.tick();
        if budget.spent(speed) {
            break;
        }
        let op = index as u64;
        let mut done = Done {
            index,
            mark: speed.mark(),
            from_store: false,
            text: 0,
            bytes: 0,
            latency_ms: 0.0,
            submit_ms: 0.0,
            wait_ms: 0.0,
            result_ms: 0.0,
            error: None,
        };
        let mut trip = || -> Result<(), String> {
            let (sent, ms) = timed(tracer, "client.submit", op, || match &job.ask {
                Ask::Submit { entry, confidence } => {
                    c.submit(&format!("@{}", menu[*entry].label), &options(*confidence))
                }
                Ask::Edit { entry, script } => c.edit(base[*entry], &script.render_compact()),
            });
            done.submit_ms = ms;
            let (id, from_store) = sent.map_err(|e| e.to_string())?;
            done.from_store = from_store;
            let (state, ms) = timed(tracer, "client.wait", op, || c.wait(id, WAIT));
            done.wait_ms = ms;
            let state = state.map_err(|e| e.to_string())?;
            if state != "done" {
                return Err(format!("job ended {state}"));
            }
            let (text, ms) = timed(tracer, "client.result", op, || c.result(id, Some(TOP)));
            done.result_ms = ms;
            let text = text.map_err(|e| e.to_string())?;
            done.bytes = text.len();
            done.text = payload_hash(&text);
            Ok(())
        };
        let (outcome, ms) = cpu_ms(&mut trip);
        done.latency_ms = ms;
        if let Err(e) = outcome {
            done.error = Some(e);
        }
        out.push(done);
    }
    let cpu = out.iter().map(|d| d.latency_ms).sum::<f64>() / 1e3;
    (out, cpu)
}

/// The spec a job asks for, as a sweep job.
fn spec_job(menu: &[Job], job: &JobDef) -> Result<Job, String> {
    let (entry, confidence, circuit) = match &job.ask {
        Ask::Submit { entry, confidence } => (*entry, *confidence, menu[*entry].circuit.clone()),
        Ask::Edit { entry, script } => {
            let mut circuit = menu[*entry].circuit.clone();
            apply_edits(&mut circuit, script).map_err(|e| e.to_string())?;
            (*entry, menu[*entry].confidence, circuit)
        }
    };
    let m = &menu[entry];
    Ok(Job {
        label: m.label.clone(),
        flow: m.flow,
        confidence,
        circuit,
        placement: m.placement.clone(),
    })
}

/// Runs `job` in-process as the daemon's executor would, on `store`.
/// Returns (RESULT hash, items).
fn run_spec(job: &Job, threads: usize, store: &Arc<KernelStore>) -> Result<(u64, usize), String> {
    let ctx = RunContext {
        store: Some(Arc::clone(store)),
        supervisor: None,
    };
    let report = match job.flow {
        Flow::Combinational => SstaEngine::new(signoff::ssta_config(job.confidence, threads, true))
            .run_with(&job.circuit, &job.placement, ctx)
            .map(|r| JobReport::Analyze(Arc::new(r))),
        Flow::Sequential => {
            SequentialEngine::new(signoff::seq_config(job.confidence, threads, true))
                .run_with(&job.circuit, &job.placement, ctx)
                .map(|r| JobReport::Sequential(Arc::new(r)))
        }
    }
    .map_err(|e| format!("{}: {e}", job.label))?;
    let items = match &report {
        JobReport::Analyze(r) => r.num_paths,
        JobReport::Sequential(r) => r.checks.len(),
    };
    Ok((payload_hash(&report.deterministic_text(TOP)), items))
}

/// Median of `values` as a per-layer figure (0 when there are none).
fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Expected RESULT hashes and item counts per spec key, computed
/// in-process on a store warmed with the menu. With `serial_threads`
/// the specs run one at a time at that engine thread count and their
/// CPU times are returned too; otherwise they spread over
/// [`CHECK_THREADS`] at one engine thread each.
struct Expected {
    by_key: HashMap<String, Result<(u64, usize), String>>,
    run_ms: HashMap<String, f64>,
    store: Arc<KernelStore>,
}

fn expected(menu: &[Job], specs: &[(String, JobDef)], serial_threads: Option<usize>) -> Expected {
    let store = Arc::new(KernelStore::unbounded());
    let mut by_key = HashMap::new();
    let mut run_ms = HashMap::new();
    let primed = parallel_map(menu, CHECK_THREADS, |_, job| run_spec(job, 1, &store));
    for (entry, out) in primed.into_iter().enumerate() {
        let key = JobDef {
            kind: Kind::Hit,
            ask: Ask::Submit {
                entry,
                confidence: menu[entry].confidence,
            },
        }
        .key();
        by_key.insert(key, out);
    }
    let todo: Vec<&(String, JobDef)> = specs
        .iter()
        .filter(|(k, _)| !by_key.contains_key(k))
        .collect();
    match serial_threads {
        Some(threads) => {
            for (key, job) in todo {
                let (out, ms) =
                    cpu_ms(|| spec_job(menu, job).and_then(|j| run_spec(&j, threads, &store)));
                run_ms.insert(key.clone(), ms);
                by_key.insert(key.clone(), out);
            }
        }
        None => {
            let outs = parallel_map(&todo, CHECK_THREADS, |_, (_, job)| {
                spec_job(menu, job).and_then(|j| run_spec(&j, 1, &store))
            });
            for ((key, _), out) in todo.into_iter().zip(outs) {
                by_key.insert(key.clone(), out);
            }
        }
    }
    Expected {
        by_key,
        run_ms,
        store,
    }
}

/// Checks every finished job against its expected RESULT. Returns
/// (items, failures).
fn verify(done: &[Done], jobs: &[JobDef], exp: &Expected) -> (u64, u64) {
    let (mut items, mut failed) = (0, 0);
    for d in done {
        let job = &jobs[d.index];
        let problem = if let Some(e) = &d.error {
            Some(e.clone())
        } else {
            match exp.by_key.get(&job.key()) {
                Some(Ok((hash, n))) if *hash == d.text => {
                    items += *n as u64;
                    (job.kind == Kind::Hit && !d.from_store)
                        .then(|| "resubmit not served from the store".to_string())
                }
                Some(Ok(_)) => Some("RESULT differs from the in-process report".into()),
                Some(Err(e)) => Some(format!("in-process run failed: {e}")),
                None => Some("no expected report".into()),
            }
        };
        if let Some(p) = problem {
            eprintln!("serve-mixed: job {} ({}): {p}", d.index, job.kind.name());
            failed += 1;
        }
    }
    (items, failed)
}

/// The distinct specs behind `done`.
fn specs_of(done: &[Done], jobs: &[JobDef]) -> Vec<(String, JobDef)> {
    let mut seen = HashMap::new();
    for d in done {
        let job = &jobs[d.index];
        seen.entry(job.key()).or_insert_with(|| job.clone());
    }
    let mut specs: Vec<(String, JobDef)> = seen.into_iter().collect();
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    specs
}

pub fn run(p: &Params) -> Outcome {
    let menu = menu(p.toy);
    let repeats = if p.trace { 1 } else { SETUP_REPEATS };
    let mut speed = Speed::start();
    let mut setup = Vec::new();
    let mut daemon = None;
    for i in 0..repeats {
        if let Some(d) = daemon.take() {
            let _ = std::fs::remove_dir_all(stop(d));
        }
        speed.tick();
        let mark = speed.mark();
        let (started, ms) = cpu_ms(|| start(&menu, i));
        match started {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                eprintln!("serve-mixed: set-up failed: {e}");
                return Outcome {
                    attempted: 1,
                    failed: 1,
                    setup: Vec::new(),
                    ops: OpLog::default(),
                    layers: None,
                };
            }
        }
        setup.push((ms / 1e3, mark));
    }
    let daemon = daemon.expect("set-up ran");
    let editable: Vec<usize> = (0..menu.len())
        .filter(|&i| daemon.paths[i].is_some_and(|n| n < EDIT_MAX_PATHS))
        .collect();
    let n = if p.toy { 10 } else { JOBS };
    let jobs = jobs(&menu, &editable, p.seed, n);
    let mut digest = 0;
    for j in &jobs {
        digest = fnv1a(digest, j.key().as_bytes());
    }
    println!(
        "serve-mixed: seed {} inputs {digest:016x}: {n} jobs from {CLIENTS} client over {} menu \
         circuits; EDITs on {}; set-up median {:.3} CPU s",
        p.seed,
        menu.len(),
        editable
            .iter()
            .map(|&i| menu[i].label.as_str())
            .collect::<Vec<_>>()
            .join(" "),
        median(&setup.iter().map(|&(s, _)| s).collect::<Vec<_>>())
    );
    if p.trace {
        return traced(p, &menu, daemon, &jobs, speed.scaled(&setup));
    }

    let seconds = (!p.toy).then_some(p.seconds);
    let (done, _) = drive(
        &daemon.addr,
        &jobs,
        &menu,
        &daemon.base,
        seconds,
        None,
        &mut speed,
    );
    let peak_rss_mb = peak_rss_mb();
    let _ = std::fs::remove_dir_all(stop(daemon));
    let t = Instant::now();
    let exp = expected(&menu, &specs_of(&done, &jobs), None);
    let (items, failed) = verify(&done, &jobs, &exp);
    println!(
        "serve-mixed: {} RESULTs checked against in-process reports in {:.2} s, {failed} failed",
        done.len(),
        t.elapsed().as_secs_f64()
    );
    let raw: Vec<(f64, usize)> = done.iter().map(|d| (d.latency_ms, d.mark)).collect();
    let latencies_ms = speed.scaled(&raw);
    Outcome {
        attempted: done.len() as u64,
        failed,
        setup: speed.scaled(&setup),
        ops: OpLog {
            cpu: latencies_ms.iter().sum::<f64>() / 1e3,
            latencies_ms,
            items,
            sweep_len: if p.toy { 1 } else { SWEEP },
            peak_rss_mb,
            probe_ms: speed.mean_ms(),
        },
        layers: None,
    }
}

/// The traced invocation: the client runs untraced for half the budget,
/// then a fresh daemon replays exactly those jobs with client-side spans.
/// Afterwards the store the traced daemon wrote is re-opened and
/// re-appended, and every non-hit spec is re-run in-process.
fn traced(p: &Params, menu: &[Job], daemon: Daemon, jobs: &[JobDef], setup: Vec<f64>) -> Outcome {
    let half = (!p.toy).then_some(p.seconds / 2.0);
    let mut speed = Speed::start();
    let (first, untraced_cpu) = drive(
        &daemon.addr,
        jobs,
        menu,
        &daemon.base,
        half,
        None,
        &mut speed,
    );
    let _ = std::fs::remove_dir_all(stop(daemon));
    let daemon = match start(menu, 1) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("serve-mixed: second daemon failed: {e}");
            return Outcome {
                attempted: 1,
                failed: 1,
                setup,
                ops: OpLog::default(),
                layers: None,
            };
        }
    };
    let before = stats(&daemon.addr);
    let tracer = Tracer::default();
    let (done, traced_cpu) = drive(
        &daemon.addr,
        &jobs[..first.len()],
        menu,
        &daemon.base,
        None,
        Some(&tracer),
        &mut speed,
    );
    let after = stats(&daemon.addr);
    let dir = stop(daemon);

    let mut layers = Layers::default();
    let delta = |key: &str| stat(&after, key).saturating_sub(stat(&before, key)) as f64;
    layers.set("daemon.shed", delta("shed-connections"));
    layers.set("daemon.reaped", delta("reaped-connections"));
    layers.set("service.throttled", delta("throttled"));
    layers.set("service.expired", delta("expired"));
    let ok: Vec<&Done> = done.iter().filter(|d| d.error.is_none()).collect();
    let of = |f: fn(&Done) -> f64| ok.iter().map(|d| f(d)).collect::<Vec<f64>>();
    layers.set("daemon.submit_ack_ms", median_or_zero(&of(|d| d.submit_ms)));
    layers.set("daemon.result_ms", median_or_zero(&of(|d| d.result_ms)));
    layers.set(
        "daemon.result_bytes",
        median_or_zero(&of(|d| d.bytes as f64)),
    );
    let kind_of = |d: &Done| jobs[d.index].kind;
    let hits: Vec<f64> = ok
        .iter()
        .filter(|d| kind_of(d) == Kind::Hit)
        .map(|d| d.latency_ms)
        .collect();
    layers.set("service.hit_ms", median_or_zero(&hits));

    // Store I/O: re-open the log the traced daemon wrote, then re-append
    // its records into a fresh directory.
    let log = dir.join("results.log");
    layers.set(
        "store.log_bytes",
        std::fs::metadata(&log).map_or(0.0, |m| m.len() as f64),
    );
    let copy_dir = out_dir().join(format!("serve-append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy_dir);
    let mut store_failed = 0;
    let t = Instant::now();
    match ResultLog::open(&dir) {
        Ok((_, records)) => {
            layers.set("store.open_s", t.elapsed().as_secs_f64());
            match ResultLog::open(&copy_dir) {
                Ok((mut copy, _)) => {
                    let mut append_ms = Vec::new();
                    for (fp, report) in &records {
                        let t = Instant::now();
                        if copy.append(*fp, report).is_err() {
                            store_failed += 1;
                        }
                        append_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    layers.set("store.append_ms", median_or_zero(&append_ms));
                }
                Err(e) => {
                    eprintln!("serve-mixed: append store: {e}");
                    store_failed += 1;
                }
            }
        }
        Err(e) => {
            eprintln!("serve-mixed: re-opening the store: {e}");
            store_failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&copy_dir);
    let _ = std::fs::remove_dir_all(&dir);

    // Every non-hit spec re-run in-process on a warm store: untimed
    // engine runs give the per-kind run time (and check the RESULTs),
    // then stage-by-stage replays give the kernel layers.
    let specs = specs_of(&done, jobs);
    let exp = expected(menu, &specs, Some(ENGINE_THREADS));
    let (_, mut failed) = verify(&done, jobs, &exp);
    // The untraced phase sent the same jobs.
    let (_, first_failed) = verify(&first, jobs, &exp);
    failed += first_failed + store_failed;
    for kind in [Kind::Analyze, Kind::Edit, Kind::Seq] {
        let mine: Vec<&&Done> = ok.iter().filter(|d| kind_of(d) == kind).collect();
        let run: Vec<f64> = mine
            .iter()
            .filter_map(|d| exp.run_ms.get(&jobs[d.index].key()).copied())
            .collect();
        let wait: Vec<f64> = mine.iter().map(|d| d.wait_ms).collect();
        let queue: Vec<f64> = mine
            .iter()
            .filter_map(|d| {
                let run = exp.run_ms.get(&jobs[d.index].key())?;
                Some((d.wait_ms - run).max(0.0))
            })
            .collect();
        let (w, r, q) = match kind {
            Kind::Analyze => (
                "service.wait_ms.analyze",
                "service.run_ms.analyze",
                "service.queue_ms.analyze",
            ),
            Kind::Edit => (
                "service.wait_ms.edit",
                "service.run_ms.edit",
                "service.queue_ms.edit",
            ),
            _ => (
                "service.wait_ms.seq",
                "service.run_ms.seq",
                "service.queue_ms.seq",
            ),
        };
        layers.set(w, median_or_zero(&wait));
        layers.set(r, median_or_zero(&run));
        layers.set(q, median_or_zero(&queue));
    }
    let replay_tracer = Tracer::default();
    let mut counts = ReplayCounts::default();
    let mut cache = CacheTotals::default();
    for (op, (key, job)) in specs.iter().enumerate() {
        if job.kind == Kind::Hit || !exp.run_ms.contains_key(key) {
            continue;
        }
        let Ok(spec) = spec_job(menu, job) else {
            continue;
        };
        let before = exp.store.stats();
        let replayed = match spec.flow {
            Flow::Combinational => {
                signoff::replay_comb(&spec, &exp.store, &replay_tracer, op as u64, &mut counts)
                    .map(|_| ())
            }
            Flow::Sequential => {
                signoff::replay_seq(&spec, &exp.store, &replay_tracer, op as u64, &mut counts)
                    .map(|_| ())
            }
        };
        if let Err(e) = replayed {
            eprintln!("serve-mixed: replay of {key}: {e}");
            failed += 1;
        }
        cache.add_delta(&before, &exp.store.stats());
    }
    let replay_spans = replay_tracer.into_spans();
    signoff::replay_layers(&mut layers, &replay_spans, &counts, &cache);
    let mut spans: Vec<Span> = tracer.into_spans();
    let wire_spans = spans.len();
    spans.extend(replay_spans);
    println!(
        "serve-mixed: {} jobs traced ({wire_spans} wire spans), {} specs replayed in-process",
        done.len(),
        exp.run_ms.len()
    );
    layers.finish_trace(p, "serve-mixed", &spans, traced_cpu, untraced_cpu);
    Outcome {
        attempted: (first.len() + done.len()) as u64,
        failed,
        setup,
        ops: OpLog::default(),
        layers: Some(layers),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_are_seeded_and_mixed() {
        let menu = menu(true);
        let block = 2 * HITS_PER_ENTRY + ANALYZES_PER_CIRCUIT + SEQ_PER_ENTRY + EDITS_PER_BLOCK;
        let a = jobs(&menu, &[0], 11, 3 * block);
        assert_eq!(a, jobs(&menu, &[0], 11, 3 * block));
        assert_ne!(a, jobs(&menu, &[0], 12, 3 * block));
        for b in a.chunks(block) {
            let count = |k: Kind| b.iter().filter(|j| j.kind == k).count();
            assert_eq!(count(Kind::Hit), 2 * HITS_PER_ENTRY);
            assert_eq!(count(Kind::Analyze), ANALYZES_PER_CIRCUIT);
            assert_eq!(count(Kind::Seq), SEQ_PER_ENTRY);
            assert_eq!(count(Kind::Edit), EDITS_PER_BLOCK);
        }
        for j in &a {
            if let (Kind::Analyze | Kind::Seq, Ask::Submit { entry, confidence }) = (j.kind, &j.ask)
            {
                let c = menu[*entry].confidence;
                assert!(*confidence < c && *confidence >= c * (1.0 - FRESH_BAND));
            }
        }
    }

    #[test]
    fn path_count_parses_from_the_summary_line() {
        let text = "circuit c432 — 160 gates, 32 near-critical paths (C = 0.05)\n  more\n";
        assert_eq!(paths_in(text), Some(32));
        assert_eq!(paths_in("circuit s27 — 10 gates, 3 registers"), None);
    }
}
