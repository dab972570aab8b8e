//! Hand-rolled argument parsing (no external CLI crate in the offline
//! dependency set).

/// Usage text.
pub const USAGE: &str = "\
statim — path-based statistical static timing analysis (DATE'05)

USAGE:
    statim analyze <circuit.bench> [OPTIONS]   analyze a .bench netlist
    statim analyze --benchmark <name> [OPTIONS] analyze a built-in ISCAS85 equivalent
    statim eco --benchmark <name> --script <file> [OPTIONS]
                                               incremental ECO re-analysis: apply an
                                               edit script, reuse paths it cannot reach
    statim yield --benchmark <name> [--target <y>] [OPTIONS]
                                               timing-yield curve and clock constraint
    statim seq <circuit.bench> [SEQ OPTIONS]   sequential setup/hold SSTA on a
                                               registered netlist (also accepts
                                               --benchmark s27 or pipe<S>x<W>)
    statim mc --benchmark <name> [--samples <n>] [OPTIONS]
                                               Monte-Carlo validation of the critical path
    statim generate <name> [--out-bench FILE] [--out-def FILE]
                                               emit a synthetic benchmark
    statim sensitivity                         print the Table-1 sensitivity analysis
    statim list                                list built-in benchmarks
    statim serve [--addr <host:port>] [SERVE OPTIONS]
                                               run the resident analysis daemon
    statim client [--addr <host:port>] <verb> [...]
                                               talk to a running daemon

ANALYZE OPTIONS:
    --def <file>          read gate placement from a DEF(-lite) file
    --backend <name>      PDF convolution backend: grid (exact cell-pair
                          accumulation, bit-identical baseline) or fft
                          (spectral, faster at high quality, agrees with
                          grid to ~1e-9) [default: grid]
    -C, --confidence <f>  near-critical window in units of sigma_C [default: 0.05]
    --top <n>             print the top n ranked paths [default: 10]
    --inter-share <f>     inter-die variance share (0..=1) [default: equal split]
    --quality-intra <n>   intra PDF discretization [default: 100]
    --quality-inter <n>   inter PDF discretization [default: 50]
    --random-place <seed> use seeded random placement instead of levelized
    --max-paths <n>       enumeration budget [default: 1000000]
    --threads <n>         worker threads for path analysis and Monte-Carlo
                          (0 = all cores) [default: all cores]; results are
                          bit-identical for any thread count
    --no-cache            disable the analysis-kernel cache (inter/intra
                          PDFs, corner point); results are bit-identical
                          with or without it — only wall time changes
    --fault-plan <spec>   inject deterministic faults for robustness
                          testing (needs a fault-injection build); spec is
                          [seed=N;]fault[@args][;fault...], e.g.
                          nan-path@1,3,5 or panic-chunk@2:1
    --max-wall-secs <f>   wall-clock budget; on expiry the run stops at
                          the next work-item boundary and emits a partial
                          report flagged budget_exhausted
    --max-analyzed-paths <n>
                          analyze at most n near-critical paths (a
                          deterministic prefix of the enumeration order);
                          distinct from --max-paths, which bounds the
                          enumeration itself and errors when exceeded
    --max-mc-samples <n>  Monte-Carlo sample budget, rounded up to whole
                          chunks; the mc run stops there with a partial
                          (deterministic-prefix) result
    --retries <n>         panic-retries per supervised work item
                          [default: 1]; retried items recompute from
                          scratch, so results stay bit-identical
    --cache-capacity <n>  bound the analysis-kernel cache to n entries
                          (second-chance eviction; n > 0); default is
                          unbounded — results stay bit-identical either
                          way

SEQ OPTIONS (plus all ANALYZE OPTIONS):
    --period <secs>       clock period override in seconds (default: the
                          netlist's `# statim clock period` directive)
    --derate-early <f>    OCV multiplier on early (fast) paths
                          [default: 1.0, bit-identical to no derating]
    --derate-late <f>     OCV multiplier on late (slow) paths
                          [default: 1.0]
    --target <y>          target yield for the minimum-period solve
                          [default: 0.99]
    --hold                strict hold sign-off: exit 1 after the report
                          when any hold check is more likely violated
                          than met

ECO OPTIONS (plus all ANALYZE OPTIONS):
    --script <file>       ECO edit script, one edit per line (# comments):
                          resize <gate> <drive> | retime <gate> <pad> |
                          swap <gate> <kind> | addwire <driver> <sink> <pin> |
                          rmwire <sink> <pin>; `-` reads stdin
    --emit-bench <file>   also write the edited netlist as .bench (for
                          diffing the incremental report against a clean
                          `statim analyze` of the same edited circuit)

SERVE OPTIONS:
    --addr <host:port>    listen address [default: 127.0.0.1:7411]
    --max-queue <n>       bounded job queue; submits beyond it get
                          ERR BUSY [default: 16]
    --cache-capacity <n>  bound the process-wide kernel cache shared by
                          all jobs
    --max-wall-secs <f>   default per-job wall budget (jobs may override
                          with max-wall-secs=<f> at submit time)
    --backend <name>      default convolution backend for submitted jobs,
                          grid or fft (jobs may override with
                          backend=<name> at submit time) [default: grid]
    --store-dir <dir>     persist clean results to an on-disk log in
                          <dir>; a restarted daemon serves them again
                          byte-identically, and daemons may share a dir
    --max-conns <n>       connection registry bound; connections beyond
                          it are refused [default: 256]
    --conn-threads <n>    polling workers multiplexing the connections
                          [default: 4]
    --max-per-client <n>  live jobs (queued + running) any one client
                          tag may hold; excess submits get ERR RESOURCE
                          with a retry-after hint
    --rate-limit <n>      per-client token bucket, sustained submits per
                          second; throttled submits get ERR RESOURCE
                          with a retry-after hint
    --io-timeout-ms <n>   reap connections that sit mid-request (or
                          never greet) with no socket progress for this
                          long; parked WAITs are never reaped
    --store-fsync         fsync the result log on every append and the
                          directory on index rotation (crash-safe at a
                          latency cost)

CLIENT COMMANDS (all take --addr <host:port> [default: 127.0.0.1:7411]):
    submit <source> [key=value ...] [--wait]
                          queue a job; <source> is a .bench path on the
                          daemon host or @name for a built-in benchmark;
                          options mirror SUBMIT (confidence=0.1
                          threads=4 solver=topological ...); --wait
                          blocks until the job finishes (server-side
                          WAIT) and prints the report
    status <job-id>       poll one job's state
    result <job-id> [--top <n>]
                          fetch a finished job's report
    cancel <job-id>       cancel a queued or running job
    edit <job-id> <script>
                          apply a compact ECO script (resize:g1:2.0;...)
                          to a known job's circuit; the daemon re-analyzes
                          the edited circuit as a new job against its warm
                          kernel store (needs protocol 1.1)
    stats                 print the daemon's counters
    shutdown              ask the daemon to drain and exit

MC OPTIONS:
    --checkpoint <file>   persist completed Monte-Carlo chunks to <file>
                          (versioned sidecar, atomically rewritten)
    --resume <file>       resume a Monte-Carlo run from <file>; the final
                          report is bit-identical to an uninterrupted run";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Analyze a circuit.
    Analyze(AnalyzeArgs),
    /// Incremental ECO re-analysis (analyze options plus a script).
    Eco {
        /// The analyze options (circuit source, engine knobs).
        args: AnalyzeArgs,
        /// ECO edit-script path (`-` = stdin).
        script: String,
        /// Optional path to write the edited netlist as `.bench`.
        emit_bench: Option<String>,
    },
    /// Timing-yield analysis (same options as analyze plus a target).
    Yield {
        /// The analyze options.
        args: AnalyzeArgs,
        /// Target yield for the clock-period constraint.
        target: f64,
    },
    /// Sequential setup/hold analysis (analyze options plus clocking).
    Seq {
        /// The analyze options (circuit source, engine knobs).
        args: AnalyzeArgs,
        /// Clock period override, seconds (None = netlist directive).
        period: Option<f64>,
        /// OCV multiplier on early (fast) paths.
        derate_early: f64,
        /// OCV multiplier on late (slow) paths.
        derate_late: f64,
        /// Target yield for the minimum-period solve.
        target: f64,
        /// Strict hold sign-off: exit 1 on a likely hold violation.
        strict_hold: bool,
    },
    /// Monte-Carlo validation of the critical path.
    Mc {
        /// The analyze options.
        args: AnalyzeArgs,
        /// Sample count.
        samples: usize,
    },
    /// Generate a synthetic benchmark.
    Generate {
        /// Benchmark name (c432…c7552).
        name: String,
        /// Optional `.bench` output path.
        out_bench: Option<String>,
        /// Optional DEF output path.
        out_def: Option<String>,
    },
    /// Print the sensitivity table.
    Sensitivity,
    /// List built-in benchmarks.
    List,
    /// Run the analysis daemon.
    Serve(ServeArgs),
    /// Drive a running daemon.
    Client {
        /// Daemon address.
        addr: String,
        /// What to ask the daemon.
        action: ClientAction,
    },
}

/// The default daemon address (`statim serve` and `statim client`).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";

/// Options for `statim serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen address.
    pub addr: String,
    /// Queue bound (None = service default).
    pub max_queue: Option<usize>,
    /// Kernel-store entry cap shared by all jobs.
    pub cache_capacity: Option<usize>,
    /// Default per-job wall budget, seconds.
    pub max_wall_secs: Option<f64>,
    /// Default convolution backend for submitted jobs (None = grid).
    pub backend: Option<String>,
    /// Persistent result-store directory (None = in-memory only).
    pub store_dir: Option<String>,
    /// Connection registry bound (None = daemon default).
    pub max_conns: Option<usize>,
    /// Polling connection workers (None = daemon default).
    pub conn_threads: Option<usize>,
    /// Per-client live-job cap (None = unlimited).
    pub max_per_client: Option<usize>,
    /// Per-client sustained submits per second (None = unlimited).
    pub rate_limit: Option<u32>,
    /// Reap stalled mid-request connections after this many ms of no
    /// socket progress (None = never).
    pub io_timeout_ms: Option<u64>,
    /// Fsync the result log on append and the directory on index
    /// rotation.
    pub store_fsync: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: DEFAULT_ADDR.to_string(),
            max_queue: None,
            cache_capacity: None,
            max_wall_secs: None,
            backend: None,
            store_dir: None,
            max_conns: None,
            conn_threads: None,
            max_per_client: None,
            rate_limit: None,
            io_timeout_ms: None,
            store_fsync: false,
        }
    }
}

/// One `statim client` verb.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Queue a job.
    Submit {
        /// Netlist source (`@name` or a path on the daemon host).
        source: String,
        /// `key=value` submit options, in order.
        options: Vec<(String, String)>,
        /// Poll until terminal and print the report.
        wait: bool,
    },
    /// Poll one job.
    Status {
        /// The job id (`job-N`).
        id: String,
    },
    /// Fetch a finished job's report.
    Result {
        /// The job id.
        id: String,
        /// Path-table row limit.
        top: Option<usize>,
    },
    /// Cancel a job.
    Cancel {
        /// The job id.
        id: String,
    },
    /// Apply a compact ECO script to a known job's circuit; the edited
    /// circuit runs as a new job (protocol minor ≥ 1).
    Edit {
        /// The base job id.
        id: String,
        /// Compact space-free script (`resize:g1:2.0;swap:g2:nor2`).
        script: String,
    },
    /// Print daemon counters.
    Stats,
    /// Drain the daemon.
    Shutdown,
}

/// Options for `statim analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// `.bench` file path (mutually exclusive with `benchmark`).
    pub bench_file: Option<String>,
    /// Built-in benchmark name.
    pub benchmark: Option<String>,
    /// DEF placement file.
    pub def_file: Option<String>,
    /// Confidence constant C.
    pub confidence: f64,
    /// How many ranked paths to print.
    pub top: usize,
    /// Optional inter-die variance share.
    pub inter_share: Option<f64>,
    /// QUALITYintra.
    pub quality_intra: usize,
    /// QUALITYinter.
    pub quality_inter: usize,
    /// Random placement seed (None = levelized).
    pub random_place: Option<u64>,
    /// Enumeration budget.
    pub max_paths: usize,
    /// Worker threads (None = all available cores, 0 also means auto).
    pub threads: Option<usize>,
    /// Disable the analysis-kernel memoization cache.
    pub no_cache: bool,
    /// Fault-injection plan spec (only honoured by fault-injection
    /// builds; other builds reject it with a config error).
    pub fault_plan: Option<String>,
    /// Wall-clock budget, seconds.
    pub max_wall_secs: Option<f64>,
    /// Budget on analyzed near-critical paths (deterministic prefix).
    pub max_analyzed_paths: Option<usize>,
    /// Monte-Carlo sample budget (rounded up to whole chunks).
    pub max_mc_samples: Option<usize>,
    /// Panic-retries per supervised work item (None = engine default).
    pub retries: Option<usize>,
    /// Kernel-cache entry cap (None = unbounded).
    pub cache_capacity: Option<usize>,
    /// Monte-Carlo checkpoint sidecar to write (mc command only).
    pub checkpoint: Option<String>,
    /// Monte-Carlo checkpoint to resume from (mc command only).
    pub resume: Option<String>,
    /// Convolution backend name (None = engine default, i.e. grid).
    pub backend: Option<String>,
}

impl Default for AnalyzeArgs {
    fn default() -> Self {
        AnalyzeArgs {
            bench_file: None,
            benchmark: None,
            def_file: None,
            confidence: 0.05,
            top: 10,
            inter_share: None,
            quality_intra: 100,
            quality_inter: 50,
            random_place: None,
            max_paths: 1_000_000,
            threads: None,
            no_cache: false,
            fault_plan: None,
            max_wall_secs: None,
            max_analyzed_paths: None,
            max_mc_samples: None,
            retries: None,
            cache_capacity: None,
            checkpoint: None,
            resume: None,
            backend: None,
        }
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, unknown flags,
/// missing values or malformed numbers.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let cmd = it.next().ok_or("missing command")?;
    match cmd.as_str() {
        "analyze" => parse_analyze(it.as_slice()),
        "eco" => {
            let (args, extra) = parse_analyze_with(it.as_slice(), &["--script", "--emit-bench"])?;
            let script = extra
                .get("--script")
                .cloned()
                .ok_or("eco needs --script <file> (or `-` for stdin)")?;
            Ok(Command::Eco {
                args,
                script,
                emit_bench: extra.get("--emit-bench").cloned(),
            })
        }
        "yield" => {
            let (args, extra) = parse_analyze_with(it.as_slice(), &["--target"])?;
            let target = extra
                .get("--target")
                .map(|v| parse_num("--target", v))
                .transpose()?
                .unwrap_or(0.99);
            Ok(Command::Yield { args, target })
        }
        "seq" => {
            // `--hold` is the one bare flag; strip it before the
            // value-flag parser sees the token stream.
            let mut strict_hold = false;
            let filtered: Vec<String> = it
                .as_slice()
                .iter()
                .filter(|t| {
                    if t.as_str() == "--hold" {
                        strict_hold = true;
                        false
                    } else {
                        true
                    }
                })
                .cloned()
                .collect();
            let (args, extra) = parse_analyze_with(
                &filtered,
                &["--period", "--derate-early", "--derate-late", "--target"],
            )?;
            let num = |flag: &str| -> Result<Option<f64>, String> {
                extra.get(flag).map(|v| parse_num(flag, v)).transpose()
            };
            Ok(Command::Seq {
                args,
                period: num("--period")?,
                derate_early: num("--derate-early")?.unwrap_or(1.0),
                derate_late: num("--derate-late")?.unwrap_or(1.0),
                target: num("--target")?.unwrap_or(0.99),
                strict_hold,
            })
        }
        "mc" => {
            let (args, extra) = parse_analyze_with(it.as_slice(), &["--samples"])?;
            let samples = extra
                .get("--samples")
                .map(|v| parse_num("--samples", v))
                .transpose()?
                .unwrap_or(20_000);
            Ok(Command::Mc { args, samples })
        }
        "generate" => parse_generate(it.as_slice()),
        "sensitivity" => Ok(Command::Sensitivity),
        "list" => Ok(Command::List),
        "serve" => parse_serve(it.as_slice()),
        "client" => parse_client(it.as_slice()),
        "-h" | "--help" | "help" => Err("help requested".into()),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
    it.next()
        .ok_or_else(|| format!("flag {flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("invalid value `{s}` for {flag}"))
}

fn parse_analyze(rest: &[String]) -> Result<Command, String> {
    let (args, _) = parse_analyze_with(rest, &[])?;
    Ok(Command::Analyze(args))
}

/// Parses analyze-style options, additionally accepting `extra_flags`
/// (each taking one value), returned in a map.
fn parse_analyze_with<'a>(
    rest: &[String],
    extra_flags: &[&'a str],
) -> Result<(AnalyzeArgs, std::collections::HashMap<&'a str, String>), String> {
    let mut args = AnalyzeArgs::default();
    let mut extra = std::collections::HashMap::new();
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        if let Some(&flag) = extra_flags.iter().find(|&&f| f == tok.as_str()) {
            extra.insert(flag, value(tok, &mut it)?.clone());
            continue;
        }
        match tok.as_str() {
            "--benchmark" => args.benchmark = Some(value(tok, &mut it)?.clone()),
            "--def" => args.def_file = Some(value(tok, &mut it)?.clone()),
            "-C" | "--confidence" => {
                args.confidence = parse_num(tok, value(tok, &mut it)?)?;
            }
            "--top" => args.top = parse_num(tok, value(tok, &mut it)?)?,
            "--inter-share" => {
                args.inter_share = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--quality-intra" => {
                args.quality_intra = parse_num(tok, value(tok, &mut it)?)?;
            }
            "--quality-inter" => {
                args.quality_inter = parse_num(tok, value(tok, &mut it)?)?;
            }
            "--random-place" => {
                args.random_place = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--max-paths" => args.max_paths = parse_num(tok, value(tok, &mut it)?)?,
            "--threads" => args.threads = Some(parse_num(tok, value(tok, &mut it)?)?),
            "--no-cache" => args.no_cache = true,
            "--fault-plan" => args.fault_plan = Some(value(tok, &mut it)?.clone()),
            "--max-wall-secs" => {
                args.max_wall_secs = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--max-analyzed-paths" => {
                args.max_analyzed_paths = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--max-mc-samples" => {
                args.max_mc_samples = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--retries" => args.retries = Some(parse_num(tok, value(tok, &mut it)?)?),
            "--cache-capacity" => {
                args.cache_capacity = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--checkpoint" => args.checkpoint = Some(value(tok, &mut it)?.clone()),
            "--resume" => args.resume = Some(value(tok, &mut it)?.clone()),
            "--backend" => args.backend = Some(value(tok, &mut it)?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => {
                if args.bench_file.is_some() {
                    return Err(format!("unexpected extra argument `{file}`"));
                }
                args.bench_file = Some(file.to_string());
            }
        }
    }
    if args.bench_file.is_none() && args.benchmark.is_none() {
        return Err("analyze needs a .bench file or --benchmark <name>".into());
    }
    if args.bench_file.is_some() && args.benchmark.is_some() {
        return Err("give either a .bench file or --benchmark, not both".into());
    }
    Ok((args, extra))
}

fn parse_serve(rest: &[String]) -> Result<Command, String> {
    let mut args = ServeArgs::default();
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--addr" => args.addr = value(tok, &mut it)?.clone(),
            "--max-queue" => args.max_queue = Some(parse_num(tok, value(tok, &mut it)?)?),
            "--cache-capacity" => {
                args.cache_capacity = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--max-wall-secs" => {
                args.max_wall_secs = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--backend" => args.backend = Some(value(tok, &mut it)?.clone()),
            "--store-dir" => args.store_dir = Some(value(tok, &mut it)?.clone()),
            "--max-conns" => args.max_conns = Some(parse_num(tok, value(tok, &mut it)?)?),
            "--conn-threads" => {
                args.conn_threads = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--max-per-client" => {
                args.max_per_client = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--rate-limit" => args.rate_limit = Some(parse_num(tok, value(tok, &mut it)?)?),
            "--io-timeout-ms" => {
                args.io_timeout_ms = Some(parse_num(tok, value(tok, &mut it)?)?);
            }
            "--store-fsync" => args.store_fsync = true,
            other => return Err(format!("unknown serve argument `{other}`")),
        }
    }
    Ok(Command::Serve(args))
}

fn parse_client(rest: &[String]) -> Result<Command, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut toks = Vec::new();
    let mut wait = false;
    let mut top = None;
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--addr" => addr = value(tok, &mut it)?.clone(),
            "--wait" => wait = true,
            "--top" => top = Some(parse_num(tok, value(tok, &mut it)?)?),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown client flag `{flag}`"));
            }
            other => toks.push(other.to_string()),
        }
    }
    let mut toks = toks.into_iter();
    let verb = toks
        .next()
        .ok_or("client needs a verb (try submit/status/result/cancel/stats/shutdown)")?;
    let action = match verb.as_str() {
        "submit" => {
            let source = toks
                .next()
                .ok_or("client submit needs a netlist source (@name or path)")?;
            let mut options = Vec::new();
            for opt in toks.by_ref() {
                let (k, v) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("submit option `{opt}` is not key=value"))?;
                options.push((k.to_string(), v.to_string()));
            }
            ClientAction::Submit {
                source,
                options,
                wait,
            }
        }
        "status" => ClientAction::Status {
            id: toks.next().ok_or("client status needs a job id")?,
        },
        "result" => ClientAction::Result {
            id: toks.next().ok_or("client result needs a job id")?,
            top,
        },
        "cancel" => ClientAction::Cancel {
            id: toks.next().ok_or("client cancel needs a job id")?,
        },
        "edit" => ClientAction::Edit {
            id: toks.next().ok_or("client edit needs a job id")?,
            script: toks
                .next()
                .ok_or("client edit needs a compact script (resize:g1:2.0;...)")?,
        },
        "stats" => ClientAction::Stats,
        "shutdown" => ClientAction::Shutdown,
        other => return Err(format!("unknown client verb `{other}`")),
    };
    if let Some(extra) = toks.next() {
        return Err(format!("unexpected extra argument `{extra}`"));
    }
    Ok(Command::Client { addr, action })
}

fn parse_generate(rest: &[String]) -> Result<Command, String> {
    let mut name = None;
    let mut out_bench = None;
    let mut out_def = None;
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--out-bench" => out_bench = Some(value(tok, &mut it)?.clone()),
            "--out-def" => out_def = Some(value(tok, &mut it)?.clone()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            n => {
                if name.is_some() {
                    return Err(format!("unexpected extra argument `{n}`"));
                }
                name = Some(n.to_string());
            }
        }
    }
    Ok(Command::Generate {
        name: name.ok_or("generate needs a benchmark name")?,
        out_bench,
        out_def,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_analyze_benchmark() {
        let cmd = parse(&v(&[
            "analyze",
            "--benchmark",
            "c432",
            "-C",
            "0.1",
            "--top",
            "5",
        ]))
        .unwrap();
        match cmd {
            Command::Analyze(a) => {
                assert_eq!(a.benchmark.as_deref(), Some("c432"));
                assert_eq!(a.confidence, 0.1);
                assert_eq!(a.top, 5);
                assert!(a.bench_file.is_none());
                assert_eq!(a.threads, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_threads_flag() {
        match parse(&v(&["analyze", "--benchmark", "c432", "--threads", "8"])).unwrap() {
            Command::Analyze(a) => assert_eq!(a.threads, Some(8)),
            other => panic!("{other:?}"),
        }
        // 0 is accepted (auto); garbage is not.
        match parse(&v(&["analyze", "--benchmark", "c432", "--threads", "0"])).unwrap() {
            Command::Analyze(a) => assert_eq!(a.threads, Some(0)),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["analyze", "--benchmark", "c432", "--threads", "many"])).is_err());
        assert!(parse(&v(&["analyze", "--benchmark", "c432", "--threads"])).is_err());
    }

    #[test]
    fn parses_no_cache_flag() {
        match parse(&v(&["analyze", "--benchmark", "c432", "--no-cache"])).unwrap() {
            Command::Analyze(a) => assert!(a.no_cache),
            other => panic!("{other:?}"),
        }
        match parse(&v(&["analyze", "--benchmark", "c432"])).unwrap() {
            Command::Analyze(a) => assert!(!a.no_cache),
            other => panic!("{other:?}"),
        }
        // The flag takes no value: the next token is still parsed.
        match parse(&v(&["analyze", "--no-cache", "--benchmark", "c432"])).unwrap() {
            Command::Analyze(a) => {
                assert!(a.no_cache);
                assert_eq!(a.benchmark.as_deref(), Some("c432"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_fault_plan_flag() {
        match parse(&v(&[
            "analyze",
            "--benchmark",
            "c432",
            "--fault-plan",
            "seed=7;nan-path@1,3",
        ]))
        .unwrap()
        {
            Command::Analyze(a) => {
                assert_eq!(a.fault_plan.as_deref(), Some("seed=7;nan-path@1,3"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["analyze", "--benchmark", "c432"])).unwrap() {
            Command::Analyze(a) => assert!(a.fault_plan.is_none()),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["analyze", "--benchmark", "c432", "--fault-plan"])).is_err());
    }

    #[test]
    fn parses_budget_and_checkpoint_flags() {
        match parse(&v(&[
            "mc",
            "--benchmark",
            "c432",
            "--max-wall-secs",
            "1.5",
            "--max-analyzed-paths",
            "3",
            "--max-mc-samples",
            "8192",
            "--retries",
            "2",
            "--checkpoint",
            "run.ckpt",
            "--resume",
            "old.ckpt",
        ]))
        .unwrap()
        {
            Command::Mc { args, .. } => {
                assert_eq!(args.max_wall_secs, Some(1.5));
                assert_eq!(args.max_analyzed_paths, Some(3));
                assert_eq!(args.max_mc_samples, Some(8192));
                assert_eq!(args.retries, Some(2));
                assert_eq!(args.checkpoint.as_deref(), Some("run.ckpt"));
                assert_eq!(args.resume.as_deref(), Some("old.ckpt"));
            }
            other => panic!("{other:?}"),
        }
        // Defaults: everything unlimited, no sidecars.
        match parse(&v(&["analyze", "--benchmark", "c432"])).unwrap() {
            Command::Analyze(a) => {
                assert_eq!(a.max_wall_secs, None);
                assert_eq!(a.max_analyzed_paths, None);
                assert_eq!(a.max_mc_samples, None);
                assert_eq!(a.retries, None);
                assert!(a.checkpoint.is_none() && a.resume.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&[
            "analyze",
            "--benchmark",
            "c432",
            "--max-wall-secs",
            "x"
        ]))
        .is_err());
        assert!(parse(&v(&["mc", "--benchmark", "c432", "--resume"])).is_err());
    }

    #[test]
    fn parses_analyze_file_with_def() {
        let cmd = parse(&v(&["analyze", "my.bench", "--def", "my.def"])).unwrap();
        match cmd {
            Command::Analyze(a) => {
                assert_eq!(a.bench_file.as_deref(), Some("my.bench"));
                assert_eq!(a.def_file.as_deref(), Some("my.def"));
                assert_eq!(a.confidence, 0.05);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_conflicts_and_unknowns() {
        assert!(parse(&v(&["analyze"])).is_err());
        assert!(parse(&v(&["analyze", "a.bench", "--benchmark", "c432"])).is_err());
        assert!(parse(&v(&["analyze", "a.bench", "--wat"])).is_err());
        assert!(parse(&v(&["analyze", "--benchmark"])).is_err());
        assert!(parse(&v(&["analyze", "--benchmark", "c432", "-C", "x"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert!(parse(&v(&[])).is_err());
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&v(&[
            "generate",
            "c6288",
            "--out-bench",
            "x.bench",
            "--out-def",
            "x.def",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                name: "c6288".into(),
                out_bench: Some("x.bench".into()),
                out_def: Some("x.def".into()),
            }
        );
        assert!(parse(&v(&["generate"])).is_err());
    }

    #[test]
    fn parses_cache_capacity_flag() {
        match parse(&v(&[
            "analyze",
            "--benchmark",
            "c432",
            "--cache-capacity",
            "64",
        ]))
        .unwrap()
        {
            Command::Analyze(a) => assert_eq!(a.cache_capacity, Some(64)),
            other => panic!("{other:?}"),
        }
        match parse(&v(&["analyze", "--benchmark", "c432"])).unwrap() {
            Command::Analyze(a) => assert_eq!(a.cache_capacity, None),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&[
            "analyze",
            "--benchmark",
            "c432",
            "--cache-capacity",
            "x"
        ]))
        .is_err());
    }

    #[test]
    fn parses_backend_flag() {
        match parse(&v(&["analyze", "--benchmark", "c432", "--backend", "fft"])).unwrap() {
            Command::Analyze(a) => assert_eq!(a.backend.as_deref(), Some("fft")),
            other => panic!("{other:?}"),
        }
        // The parser keeps the raw string; validation (and the typed
        // Config error for junk) happens when the engine is configured.
        match parse(&v(&["analyze", "--benchmark", "c432", "--backend", "warp"])).unwrap() {
            Command::Analyze(a) => assert_eq!(a.backend.as_deref(), Some("warp")),
            other => panic!("{other:?}"),
        }
        match parse(&v(&["analyze", "--benchmark", "c432"])).unwrap() {
            Command::Analyze(a) => assert_eq!(a.backend, None),
            other => panic!("{other:?}"),
        }
        match parse(&v(&["mc", "--benchmark", "c499", "--backend", "grid"])).unwrap() {
            Command::Mc { args, .. } => assert_eq!(args.backend.as_deref(), Some("grid")),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["analyze", "--benchmark", "c432", "--backend"])).is_err());
    }

    #[test]
    fn parses_serve() {
        match parse(&v(&["serve"])).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.addr, DEFAULT_ADDR);
                assert_eq!(s.max_queue, None);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-queue",
            "4",
            "--cache-capacity",
            "128",
            "--max-wall-secs",
            "2.5",
            "--backend",
            "fft",
            "--store-dir",
            "/tmp/statim-store",
            "--max-conns",
            "64",
            "--conn-threads",
            "2",
            "--max-per-client",
            "3",
            "--rate-limit",
            "10",
            "--io-timeout-ms",
            "5000",
            "--store-fsync",
        ]))
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.addr, "127.0.0.1:0");
                assert_eq!(s.max_queue, Some(4));
                assert_eq!(s.cache_capacity, Some(128));
                assert_eq!(s.max_wall_secs, Some(2.5));
                assert_eq!(s.backend.as_deref(), Some("fft"));
                assert_eq!(s.store_dir.as_deref(), Some("/tmp/statim-store"));
                assert_eq!(s.max_conns, Some(64));
                assert_eq!(s.conn_threads, Some(2));
                assert_eq!(s.max_per_client, Some(3));
                assert_eq!(s.rate_limit, Some(10));
                assert_eq!(s.io_timeout_ms, Some(5000));
                assert!(s.store_fsync);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["serve", "positional"])).is_err());
        assert!(parse(&v(&["serve", "--max-queue", "x"])).is_err());
        assert!(parse(&v(&["serve", "--store-dir"])).is_err());
        assert!(parse(&v(&["serve", "--conn-threads", "two"])).is_err());
        assert!(parse(&v(&["serve", "--rate-limit", "fast"])).is_err());
        assert!(parse(&v(&["serve", "--max-per-client"])).is_err());
    }

    #[test]
    fn parses_client() {
        match parse(&v(&[
            "client",
            "--addr",
            "127.0.0.1:7411",
            "submit",
            "@c432",
            "confidence=0.1",
            "threads=2",
            "--wait",
        ]))
        .unwrap()
        {
            Command::Client { addr, action } => {
                assert_eq!(addr, "127.0.0.1:7411");
                assert_eq!(
                    action,
                    ClientAction::Submit {
                        source: "@c432".into(),
                        options: vec![
                            ("confidence".into(), "0.1".into()),
                            ("threads".into(), "2".into()),
                        ],
                        wait: true,
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["client", "result", "job-3", "--top", "5"])).unwrap() {
            Command::Client { addr, action } => {
                assert_eq!(addr, DEFAULT_ADDR);
                assert_eq!(
                    action,
                    ClientAction::Result {
                        id: "job-3".into(),
                        top: Some(5),
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse(&v(&["client", "stats"])).unwrap(),
            Command::Client {
                addr: DEFAULT_ADDR.into(),
                action: ClientAction::Stats
            }
        );
        assert!(parse(&v(&["client"])).is_err());
        assert!(parse(&v(&["client", "frobnicate"])).is_err());
        assert!(parse(&v(&["client", "status"])).is_err());
        assert!(parse(&v(&["client", "submit", "@c432", "notkeyvalue"])).is_err());
        assert!(parse(&v(&["client", "status", "job-1", "extra"])).is_err());
    }

    #[test]
    fn parses_eco() {
        match parse(&v(&[
            "eco",
            "--benchmark",
            "c432",
            "--script",
            "fix.eco",
            "--emit-bench",
            "edited.bench",
            "--threads",
            "2",
        ]))
        .unwrap()
        {
            Command::Eco {
                args,
                script,
                emit_bench,
            } => {
                assert_eq!(args.benchmark.as_deref(), Some("c432"));
                assert_eq!(args.threads, Some(2));
                assert_eq!(script, "fix.eco");
                assert_eq!(emit_bench.as_deref(), Some("edited.bench"));
            }
            other => panic!("{other:?}"),
        }
        // The script is mandatory; the emit path is not.
        assert!(parse(&v(&["eco", "--benchmark", "c432"])).is_err());
        match parse(&v(&["eco", "--benchmark", "c432", "--script", "-"])).unwrap() {
            Command::Eco {
                script, emit_bench, ..
            } => {
                assert_eq!(script, "-");
                assert!(emit_bench.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_client_edit() {
        match parse(&v(&[
            "client",
            "edit",
            "job-4",
            "resize:g1:2.0;swap:g2:nor2",
        ]))
        .unwrap()
        {
            Command::Client { action, .. } => assert_eq!(
                action,
                ClientAction::Edit {
                    id: "job-4".into(),
                    script: "resize:g1:2.0;swap:g2:nor2".into(),
                }
            ),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["client", "edit", "job-4"])).is_err());
        assert!(parse(&v(&["client", "edit"])).is_err());
        assert!(parse(&v(&["client", "edit", "job-4", "resize:g1:2.0", "x"])).is_err());
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse(&v(&["sensitivity"])).unwrap(), Command::Sensitivity);
        assert_eq!(parse(&v(&["list"])).unwrap(), Command::List);
    }

    #[test]
    fn parses_yield() {
        match parse(&v(&["yield", "--benchmark", "c432", "--target", "0.95"])).unwrap() {
            Command::Yield { args, target } => {
                assert_eq!(args.benchmark.as_deref(), Some("c432"));
                assert_eq!(target, 0.95);
            }
            other => panic!("{other:?}"),
        }
        // Default target.
        match parse(&v(&["yield", "--benchmark", "c432"])).unwrap() {
            Command::Yield { target, .. } => assert_eq!(target, 0.99),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["yield", "--benchmark", "c432", "--target", "bad"])).is_err());
    }

    #[test]
    fn parses_seq() {
        match parse(&v(&[
            "seq",
            "--benchmark",
            "s27",
            "--period",
            "0.8e-9",
            "--derate-early",
            "0.95",
            "--derate-late",
            "1.05",
            "--target",
            "0.999",
            "--hold",
            "--threads",
            "2",
        ]))
        .unwrap()
        {
            Command::Seq {
                args,
                period,
                derate_early,
                derate_late,
                target,
                strict_hold,
            } => {
                assert_eq!(args.benchmark.as_deref(), Some("s27"));
                assert_eq!(args.threads, Some(2));
                assert_eq!(period, Some(0.8e-9));
                assert_eq!(derate_early, 0.95);
                assert_eq!(derate_late, 1.05);
                assert_eq!(target, 0.999);
                assert!(strict_hold);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: unity derates, directive-supplied period, 0.99.
        match parse(&v(&["seq", "my.bench"])).unwrap() {
            Command::Seq {
                args,
                period,
                derate_early,
                derate_late,
                target,
                strict_hold,
            } => {
                assert_eq!(args.bench_file.as_deref(), Some("my.bench"));
                assert_eq!(period, None);
                assert_eq!(derate_early, 1.0);
                assert_eq!(derate_late, 1.0);
                assert_eq!(target, 0.99);
                assert!(!strict_hold);
            }
            other => panic!("{other:?}"),
        }
        // `--hold` is bare: the next token still parses normally.
        match parse(&v(&["seq", "--hold", "--benchmark", "pipe2x4"])).unwrap() {
            Command::Seq {
                args, strict_hold, ..
            } => {
                assert!(strict_hold);
                assert_eq!(args.benchmark.as_deref(), Some("pipe2x4"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["seq"])).is_err());
        assert!(parse(&v(&["seq", "--benchmark", "s27", "--period", "soon"])).is_err());
        assert!(parse(&v(&["seq", "--benchmark", "s27", "--derate-late"])).is_err());
    }

    #[test]
    fn parses_mc() {
        match parse(&v(&[
            "mc",
            "--benchmark",
            "c499",
            "--samples",
            "500",
            "-C",
            "0.1",
        ]))
        .unwrap()
        {
            Command::Mc { args, samples } => {
                assert_eq!(args.benchmark.as_deref(), Some("c499"));
                assert_eq!(args.confidence, 0.1);
                assert_eq!(samples, 500);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["mc", "--benchmark", "c499"])).unwrap() {
            Command::Mc { samples, .. } => assert_eq!(samples, 20_000),
            other => panic!("{other:?}"),
        }
        // yield/mc still reject analyze-level mistakes.
        assert!(parse(&v(&["mc"])).is_err());
    }
}
