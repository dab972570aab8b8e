//! Command implementations.

use crate::args::{AnalyzeArgs, ClientAction, Command};
use statim_core::engine::{SstaConfig, SstaEngine};
use statim_core::{ErrorClass, StatimError};
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::{bench_format, def_lite, Circuit, Placement, PlacementStyle};
use statim_process::sensitivity::table1;
use statim_process::Technology;
use statim_server::DaemonOptions;
use std::fs;
use std::process::ExitCode;

type DynResult = Result<(), StatimError>;

/// Runs a parsed command. The returned exit code is `SUCCESS` for every
/// clean run except `statim seq --hold` with a likely hold violation,
/// which reports normally and exits 1 (sign-off failed, nothing errored).
///
/// # Errors
///
/// Returns I/O, parse and analysis errors for the caller to print.
pub fn run(cmd: Command) -> Result<ExitCode, StatimError> {
    if let Command::Seq {
        args,
        period,
        derate_early,
        derate_late,
        target,
        strict_hold,
    } = cmd
    {
        return seq(args, period, derate_early, derate_late, target, strict_hold);
    }
    dispatch(cmd)?;
    Ok(ExitCode::SUCCESS)
}

fn dispatch(cmd: Command) -> DynResult {
    match cmd {
        Command::Analyze(a) => analyze(a),
        Command::Eco {
            args,
            script,
            emit_bench,
        } => eco(args, &script, emit_bench),
        Command::Yield { args, target } => timing_yield(args, target),
        Command::Seq { .. } => unreachable!("handled by run()"),
        Command::Mc { args, samples } => monte_carlo(args, samples),
        Command::Generate {
            name,
            out_bench,
            out_def,
        } => generate(&name, out_bench, out_def),
        Command::Sensitivity => {
            println!("{}", table1(&Technology::cmos130()).render());
            Ok(())
        }
        Command::List => {
            println!("built-in ISCAS85-equivalent benchmarks:");
            for b in Benchmark::ALL {
                println!(
                    "  {:<6} {:>5} gates, {:>3} inputs, {:>3} outputs",
                    b.name(),
                    b.gate_count(),
                    b.input_count(),
                    b.output_count()
                );
            }
            println!("sequential benchmarks (for `statim seq`):");
            println!("  s27        3 registers, 10 gates (ISCAS89-class)");
            println!("  pipe<S>x<W>  S-stage, W-bit register pipeline (e.g. pipe4x8)");
            Ok(())
        }
        Command::Serve { addr, options } => serve(&addr, options),
        Command::Client { addr, action } => client(&addr, action),
    }
}

fn unknown_benchmark(name: &str) -> StatimError {
    StatimError::new(
        ErrorClass::Config,
        format!("unknown benchmark `{name}` (try `statim list`)"),
    )
}

/// Generates a sequential built-in (`s27`, `pipe<S>x<W>`); a pipeline
/// the generator refuses, such as one over its register bound, is a
/// config error naming the reason.
fn sequential_builtin(name: &str) -> Result<Circuit, StatimError> {
    statim_netlist::generators::sequential::try_from_name(name)
        .ok_or_else(|| unknown_benchmark(name))?
        .map_err(StatimError::from)
}

fn load_circuit(a: &AnalyzeArgs) -> Result<Circuit, StatimError> {
    if let Some(name) = &a.benchmark {
        if let Some(bench) = Benchmark::from_name(name) {
            return Ok(iscas85::generate(bench));
        }
        sequential_builtin(name)
    } else {
        let path = a.bench_file.as_deref().expect("validated by the parser");
        let text = fs::read_to_string(path).map_err(|e| StatimError::from(e).with_file(path))?;
        // Ingestion faults (truncate-bench) corrupt the text before the
        // parser sees it, proving the parser fails typed, not panicking.
        #[cfg(feature = "fault-injection")]
        let text = match &a.config.faults {
            Some(plan) => plan.apply_to_text(&text).to_string(),
            None => text,
        };
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("circuit");
        bench_format::parse(name, &text).map_err(|e| StatimError::from(e).with_file(path))
    }
}

/// `--checkpoint` / `--resume` only make sense for the mc command;
/// silently ignoring them elsewhere would fake durability.
fn reject_mc_only_flags(a: &AnalyzeArgs, cmd: &str) -> DynResult {
    if a.checkpoint.is_some() || a.resume.is_some() {
        return Err(StatimError::new(
            ErrorClass::Config,
            format!("--checkpoint/--resume only apply to `statim mc`, not `statim {cmd}`"),
        ));
    }
    Ok(())
}

fn analyze(a: AnalyzeArgs) -> DynResult {
    reject_mc_only_flags(&a, "analyze")?;
    let top = a.top;
    let (circuit, placement) = build_setup(&a)?;
    let report = SstaEngine::new(a.config.clone()).run(&circuit, &placement)?;
    print!("{}", statim_core::report::summary(&report));
    println!("  run time                     : {:.3} s", report.runtime);
    let an = report.profile.analyze;
    println!(
        "  path analysis                : {:.3} s on {} thread{} ({:.0}% utilized)",
        an.wall,
        an.threads,
        if an.threads == 1 { "" } else { "s" },
        an.utilization * 100.0
    );
    print!("{}", statim_core::report::cache_summary(&report));
    print!("{}", statim_core::report::degraded_summary(&report));
    print!("{}", statim_core::report::supervision_summary(&report));
    println!();
    println!("{}", statim_core::report::path_table(&report, top));
    Ok(())
}

/// Loads the circuit and resolves its placement — the shared front half
/// of every analysis command — then reports any option value the table
/// refused.
fn build_setup(a: &AnalyzeArgs) -> Result<(Circuit, Placement), StatimError> {
    let circuit = load_circuit(a)?;
    let placement = a.placement.resolve(&circuit)?;
    match &a.refused {
        Some(e) => Err(e.clone()),
        None => Ok((circuit, placement)),
    }
}

fn eco(a: AnalyzeArgs, script_path: &str, emit_bench: Option<String>) -> DynResult {
    use statim_core::{EcoScript, IncrementalEngine};
    reject_mc_only_flags(&a, "eco")?;
    let text = if script_path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf
    } else {
        fs::read_to_string(script_path).map_err(|e| StatimError::from(e).with_file(script_path))?
    };
    let script =
        EcoScript::parse(&text).map_err(|e| StatimError::from(e).with_file(script_path))?;
    let (circuit, placement) = build_setup(&a)?;
    let mut inc = IncrementalEngine::new(SstaEngine::new(a.config.clone()), circuit, placement)?;
    let outcome = inc
        .apply(&script)
        .map_err(|e| StatimError::from(e).with_file(script_path))?;
    println!(
        "eco: applied {} edit(s) to {}",
        outcome.stats.edits_applied, outcome.report.circuit
    );
    println!("{}", outcome.stats.summary_line());
    if let Some(path) = &emit_bench {
        fs::write(path, bench_format::write(inc.circuit()))
            .map_err(|e| StatimError::from(e).with_file(path))?;
        println!("wrote {path}");
    }
    println!();
    print!(
        "{}",
        statim_core::report::deterministic_report(&outcome.report, a.top)
    );
    Ok(())
}

fn timing_yield(a: AnalyzeArgs, target: f64) -> DynResult {
    use statim_core::timing_yield::{check_target, period_for_yield, yield_curve};
    reject_mc_only_flags(&a, "yield")?;
    let (circuit, placement) = build_setup(&a)?;
    // Refused before the analysis runs, as `statim seq` refuses it.
    check_target(target)?;
    let report = SstaEngine::new(a.config.clone()).run(&circuit, &placement)?;
    println!(
        "circuit {} — {} near-critical paths, critical 3σ point {:.3} ps",
        report.circuit,
        report.num_paths,
        report.critical().analysis.confidence_point * 1e12
    );
    println!();
    println!("clock period (ps) | yield lower bound | yield upper bound");
    for pt in yield_curve(&report, 10) {
        println!(
            "{:>17.1} | {:>17.5} | {:>17.5}",
            pt.period * 1e12,
            pt.lower,
            pt.upper
        );
    }
    match period_for_yield(&report, target) {
        Some(t) => println!(
            "\nperiod for {:.1}% yield: {:.1} ps (worst-case corner demands {:.1} ps)",
            target * 100.0,
            t * 1e12,
            report.worst_case_delay * 1e12
        ),
        None => println!("\nno period reaches {:.1}% yield", target * 100.0),
    }
    Ok(())
}

fn seq(
    a: AnalyzeArgs,
    period: Option<f64>,
    derate_early: f64,
    derate_late: f64,
    target: f64,
    strict_hold: bool,
) -> Result<ExitCode, StatimError> {
    use statim_core::sequential::{Derates, SequentialConfig, SequentialEngine};
    reject_mc_only_flags(&a, "seq")?;
    let (circuit, placement) = build_setup(&a)?;
    let config = SequentialConfig {
        ssta: a.config.clone(),
        period,
        derates: Derates {
            early: derate_early,
            late: derate_late,
        },
        target_yield: target,
        curve_points: 9,
    };
    let report = SequentialEngine::new(config).run(&circuit, &placement)?;
    print!("{}", statim_core::report::seq_summary(&report));
    println!("  run time                     : {:.3} s", report.runtime);
    print!("{}", statim_core::report::seq_degraded_summary(&report));
    print!("{}", statim_core::report::seq_supervision_summary(&report));
    println!();
    println!("{}", statim_core::report::check_table(&report, a.top));
    println!("{}", statim_core::report::seq_curve_table(&report));
    if strict_hold && report.hold_violation() {
        eprintln!(
            "hold violation: at least one hold check is more likely violated than met \
             (worst hold yield {:.6})",
            report
                .checks
                .iter()
                .filter(|c| c.kind == statim_core::sequential::CheckKind::Hold)
                .map(|c| c.yield_at_period)
                .fold(f64::INFINITY, f64::min)
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// MC sampling seed and kernel quality — fixed so every `statim mc`
/// invocation (and every checkpoint it writes) is comparable.
const MC_SEED: u64 = 0xC0FFEE;
const MC_QUALITY: usize = 150;

fn monte_carlo(a: AnalyzeArgs, samples: usize) -> DynResult {
    use statim_core::characterize::characterize_placed;
    use statim_core::monte_carlo::{
        mc_fingerprint, mc_path_distribution_supervised, McSupervision,
    };
    use statim_core::{McCheckpoint, McCheckpointer, RunBudget, Supervisor};

    // Budgets are scoped per phase: the engine run gets the path budget,
    // the MC phase gets the wall and sample budgets with a fresh clock.
    // Otherwise a slow engine phase would silently eat the MC wall budget.
    let mut config = a.config.clone();
    let budget = RunBudget {
        max_wall_secs: config.budget.max_wall_secs.take(),
        max_paths: None,
        max_mc_samples: config.budget.max_mc_samples.take(),
    };
    // The sampler sees the analysis configuration itself, so the two
    // columns always compare the same technology, split and marginal.
    let (circuit, placement) = build_setup(&a)?;
    let engine = SstaEngine::new(config);
    let report = engine.run(&circuit, &placement)?;
    let SstaConfig {
        tech,
        vars,
        layers,
        marginal,
        retries,
        threads,
        ..
    } = engine.config();
    let timing = characterize_placed(&circuit, tech, &placement)?;
    let crit = &report.critical().analysis;
    let fingerprint = mc_fingerprint(&crit.gates, vars, layers, *marginal, MC_QUALITY)?;

    let sup = Supervisor::new(budget, *retries);
    let mut ctx = McSupervision::new(&sup);

    // Resume: reload completed chunks, refusing checkpoints written by a
    // different configuration (fingerprint), seed or sample count.
    let resumed = match &a.resume {
        Some(path) => {
            let ckpt = McCheckpoint::load(std::path::Path::new(path))
                .map_err(|e| StatimError::from(e).with_file(path))?;
            ckpt.validate_for(fingerprint, MC_SEED, samples)
                .map_err(|e| StatimError::from(e).with_file(path))?;
            Some(ckpt)
        }
        None => None,
    };
    if let Some(ckpt) = &resumed {
        ctx = ctx.with_resume(ckpt);
    }
    // Checkpoint: persist completed chunks as we go. When resuming, seed
    // the new sidecar with the already-completed chunks so an interrupted
    // resume does not lose them.
    let checkpointer = a.checkpoint.as_ref().map(|path| {
        let base = resumed
            .clone()
            .unwrap_or_else(|| McCheckpoint::new(fingerprint, MC_SEED, samples));
        McCheckpointer::new(path, base, 1)
    });
    if let Some(ck) = &checkpointer {
        ctx = ctx.with_checkpoint(ck);
    }
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = &a.config.faults {
        ctx = ctx.with_faults(plan);
    }

    let out = mc_path_distribution_supervised(
        &crit.gates,
        &timing,
        &placement,
        tech,
        vars,
        layers,
        *marginal,
        samples,
        MC_QUALITY,
        MC_SEED,
        threads.unwrap_or(0),
        ctx,
    )?;

    let ps = |s: f64| s * 1e12;
    println!(
        "critical path of {} ({} gates), {} exact non-linear samples:",
        report.circuit,
        crit.gate_count(),
        samples
    );
    if out.chunks_resumed > 0 {
        println!(
            "  resumed                      : {} of {} chunks restored from checkpoint",
            out.chunks_resumed, out.chunks_total
        );
    }
    if out.retries > 0 || out.quarantined_chunks > 0 {
        println!(
            "  supervised retries           : {} retries, {} chunks quarantined",
            out.retries, out.quarantined_chunks
        );
    }
    if let Some(kind) = out.exhausted {
        println!(
            "  budget_exhausted             : {} budget tripped — partial Monte-Carlo ({} of {} chunks sampled)",
            kind, out.chunks_done, out.chunks_total
        );
    }
    let Some(mc) = out.result else {
        println!("  no Monte-Carlo chunks completed; nothing to compare");
        return Ok(());
    };
    println!("              analytic        monte-carlo     error");
    let row = |name: &str, a: f64, b: f64| {
        println!(
            "{name:>10}  {:>10.3} ps   {:>10.3} ps   {:+.3}%",
            ps(a),
            ps(b),
            (a - b) / b * 100.0
        );
    };
    row("mean", crit.mean, mc.mean);
    row("sigma", crit.sigma, mc.sigma);
    row("3σ point", crit.confidence_point, mc.sigma_point(3.0));
    Ok(())
}

fn serve(addr: &str, options: DaemonOptions) -> DynResult {
    let (config, tuning) = options.into_configs();
    let max_queue = config.max_queue;
    let store_note = match &config.store_dir {
        Some(dir) => format!(", store {}", dir.display()),
        None => String::new(),
    };
    let handle = statim_server::spawn_tuned(addr, config, tuning)?;
    println!(
        "statim daemon listening on {} (queue bound {max_queue}{store_note})",
        handle.addr()
    );
    handle.join();
    println!("statim daemon drained, exiting");
    Ok(())
}

/// Lowers client-side failures onto the CLI error taxonomy so daemon
/// replies map to the same exit codes local runs produce.
fn client_error(e: statim_server::ClientError) -> StatimError {
    use statim_server::{ClientError, ErrorCode};
    let class = match &e {
        ClientError::Io(_) => ErrorClass::Resource,
        ClientError::Protocol(_) => ErrorClass::Parse,
        ClientError::Server { code, .. } => match code {
            ErrorCode::Parse | ErrorCode::Protocol => ErrorClass::Parse,
            ErrorCode::Config | ErrorCode::NotFound | ErrorCode::Finished => ErrorClass::Config,
            ErrorCode::Numeric => ErrorClass::Numeric,
            ErrorCode::Resource | ErrorCode::Busy | ErrorCode::Pending | ErrorCode::Shutdown => {
                ErrorClass::Resource
            }
        },
        ClientError::Timeout { .. } | ClientError::Throttled { .. } => ErrorClass::Resource,
    };
    let message = match e {
        ClientError::Server { code, message } => {
            let text = without_class(&message, class);
            // A class code (CONFIG, PARSE, ...) says what the printed
            // class already says; any other (NOTFOUND, BUSY, ...) adds to it.
            if code == ErrorCode::from(class) {
                text
            } else {
                format!("{code}: {text}")
            }
        }
        other => other.to_string(),
    };
    StatimError::new(class, message)
}

/// A daemon error message without the class it already rendered. An
/// `ERR` line carries a typed error's full text (`config error: ...`),
/// sometimes behind the job that failed with it (`job-2 failed: config
/// error: ...`); the CLI prints the class itself, once.
fn without_class(message: &str, class: ErrorClass) -> String {
    let rendered = format!("{class} error");
    let Some(at) = message
        .find(&rendered)
        .filter(|&i| i == 0 || message[..i].ends_with(": "))
    else {
        return message.to_string();
    };
    let rest = message[at + rendered.len()..]
        .trim_start_matches(':')
        .trim_start();
    format!("{}{rest}", &message[..at])
}

fn parse_job_id(id: &str) -> Result<statim_core::JobId, StatimError> {
    id.parse()
        .map_err(|msg: String| StatimError::new(ErrorClass::Config, msg))
}

fn client(addr: &str, action: ClientAction) -> DynResult {
    use statim_server::Client;
    let mut client = Client::connect(addr).map_err(client_error)?;
    match action {
        ClientAction::Submit {
            source,
            options,
            wait,
        } => {
            let (id, from_store) = client.submit(&source, &options).map_err(client_error)?;
            println!(
                "{id} {}",
                if from_store {
                    "served from result store"
                } else {
                    "queued"
                }
            );
            if wait {
                // No deadline: an interactive --wait should outlast any
                // job the daemon accepts; ^C is the escape hatch.
                let state = client
                    .wait(id, std::time::Duration::from_secs(u64::MAX / 4))
                    .map_err(client_error)?;
                println!("{id} {state}");
                print!("{}", client.result(id, None).map_err(client_error)?);
            }
        }
        ClientAction::Status { id } => {
            let id = parse_job_id(&id)?;
            let (state, circuit, from_store) = client.status(id).map_err(client_error)?;
            println!(
                "{id} {state} circuit={circuit} from-store={}",
                u8::from(from_store)
            );
        }
        ClientAction::Result { id, top } => {
            let id = parse_job_id(&id)?;
            print!("{}", client.result(id, top).map_err(client_error)?);
        }
        ClientAction::Cancel { id } => {
            let id = parse_job_id(&id)?;
            let immediate = client.cancel(id).map_err(client_error)?;
            println!(
                "{id} {}",
                if immediate { "cancelled" } else { "cancelling" }
            );
        }
        ClientAction::Edit { id, script } => {
            let id = parse_job_id(&id)?;
            let (new_id, from_store) = client.edit(id, &script).map_err(client_error)?;
            println!(
                "{new_id} {}",
                if from_store {
                    "served from result store"
                } else {
                    "queued"
                }
            );
        }
        ClientAction::Stats => print!("{}", client.stats().map_err(client_error)?),
        ClientAction::Shutdown => {
            client.shutdown().map_err(client_error)?;
            println!("daemon draining");
        }
    }
    Ok(())
}

fn generate(name: &str, out_bench: Option<String>, out_def: Option<String>) -> DynResult {
    let circuit = match Benchmark::from_name(name) {
        Some(bench) => iscas85::generate(bench),
        None => sequential_builtin(name)?,
    };
    let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
    match &out_bench {
        Some(path) => {
            fs::write(path, bench_format::write(&circuit))?;
            println!("wrote {path}");
        }
        None => print!("{}", bench_format::write(&circuit)),
    }
    if let Some(path) = &out_def {
        fs::write(path, def_lite::write(&circuit, &placement))?;
        println!("wrote {path}");
    }
    Ok(())
}
