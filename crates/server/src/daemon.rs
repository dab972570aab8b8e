//! The TCP front-end: a std-only non-blocking readiness loop over the
//! [`AnalysisService`].
//!
//! # Architecture
//!
//! A small fixed pool of polling workers (no thread per connection)
//! multiplexes every socket. Each worker owns one shard of the
//! connection registry; all workers race the shared non-blocking
//! listener and register what they accept into their own shard, so
//! accepted load spreads without a coordinator. One worker iteration
//! is: accept what's pending → give every owned connection a chance to
//! make progress (flush, resolve a blocking `WAIT`, read, execute
//! complete request lines) → **remove finished connections from the
//! shard**. That removal is the structural fix for the fd leak the
//! thread-per-connection design had: a connection's only registration
//! is its shard entry, and the entry dies with the connection — N
//! connect/disconnect cycles leave the registry empty.
//!
//! Connections are non-blocking throughout: reads and writes buffer,
//! `WouldBlock` yields the worker to the next socket, and a client
//! writing a flood of pipelined requests gets its replies strictly in
//! request order (a blocking `WAIT` simply parks the line cursor).
//!
//! A worker whose pass made no progress blocks, outside its shard lock,
//! on the event its most recently active connection expects next: the
//! job a parked `WAIT` names ([`AnalysisService::wait`]), else that
//! connection's next bytes (a blocking peek under a read timeout, after
//! which the socket is non-blocking again); with no open connection it
//! sleeps. The block lasts at most the idle backoff (1 → 8 ms, reset by
//! any progress), so every other connection, the listener, the stop
//! flag, `WAIT` deadlines and reaping still get a pass at least every
//! 8 ms, while the connection a client is talking on is served as soon
//! as its bytes or its job arrive. A wait on an expected event that runs
//! to its full timeout is counted ([`DaemonHandle::idle_timeouts`]).
//!
//! # Overload defenses
//!
//! The registry is bounded ([`DaemonTuning::max_conns`]); connections
//! beyond the bound are refused with a typed `ERR RESOURCE
//! retry-after=<ms>` line on a blocking write under a short deadline,
//! and counted (`shed-connections` in `STATS`). With
//! [`DaemonTuning::io_timeout`] set, a connection that owes or is owed
//! bytes but makes no progress for the deadline is reaped with a typed
//! close reason (`reaped-connections`) — the slowloris defense; idle
//! greeted keepalives and parked `WAIT`s have empty buffers and
//! survive. Per-conn buffer caps are extended by a per-client aggregate
//! ([`DaemonTuning::max_client_buffered`]) across every connection
//! sharing a fairness lane (the HELLO `client=` tag, or the peer
//! address). Job-plane admission — per-client rate limits, live-job
//! caps, queue deadlines, weighted round-robin drain — lives in
//! [`AnalysisService`]; this module only carries the client identity
//! down to it.
//!
//! # Graceful shutdown
//!
//! `SHUTDOWN` (or [`DaemonHandle::shutdown`], the SIGTERM-equivalent
//! test hook) flips the stop flag and starts the service drain: new
//! submissions get `ERR SHUTDOWN`, while queued and running jobs finish
//! and stay pollable. Each worker keeps serving until the service is
//! drained, then flushes and closes its remaining connections and
//! exits; [`DaemonHandle::join`] returns when every worker is done.

use crate::protocol::{
    error_reply, ErrorCode, Request, Response, GREETING, PROTOCOL_MINOR, PROTOCOL_VERSION,
};
use statim_core::engine::{LabelSolver, SstaConfig};
use statim_core::options::{parse_backend, parse_value};
use statim_core::service::{
    AnalysisService, CancelOutcome, JobSpec, ServiceConfig, ServiceStats, SubmitOptions,
};
use statim_core::{EcoScript, ErrorClass, JobId, PlacementOptions, RunBudget, StatimError};
use statim_netlist::generators::iscas85::{self, Benchmark};
use statim_netlist::generators::sequential;
use statim_netlist::{bench_format, Circuit, Placement, PlacementStyle};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Shortest idle wait between worker polls: how long a quiet worker
/// blocks on the event its most recently active connection expects
/// before it polls every other connection and the listener again.
const IDLE_POLL_MIN: Duration = Duration::from_millis(1);

/// Longest idle wait: each quiet iteration doubles the backoff up to
/// here, and any progress resets it to [`IDLE_POLL_MIN`] — an idle
/// daemon stops burning a core without adding latency under traffic.
const IDLE_POLL_MAX: Duration = Duration::from_millis(8);

/// Write deadline for the best-effort `ERR RESOURCE` line sent to a
/// connection refused over the registry bound.
const SHED_WRITE_DEADLINE: Duration = Duration::from_millis(100);

/// Retry hint (ms) in the over-`max_conns` refusal line.
const SHED_RETRY_MS: u64 = 1000;

/// Longest accepted request line; beyond this the connection is closed
/// with `ERR PROTOCOL` (no verb comes anywhere near it).
const MAX_LINE: usize = 64 * 1024;

/// Most bytes a connection may have buffered (pipelined requests parked
/// behind a `WAIT`) before it is closed as abusive.
const MAX_BUFFERED: usize = 1024 * 1024;

/// Default path-table row limit for `RESULT` replies without `top=`.
const DEFAULT_TOP: usize = 10;

/// Connection-pool knobs, separate from the job-level [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct DaemonTuning {
    /// Registry bound: connections beyond this are refused with a
    /// best-effort `ERR RESOURCE` line.
    pub max_conns: usize,
    /// Polling workers sharing the connection load (zero is refused at
    /// spawn).
    pub workers: usize,
    /// Connection progress deadline (`--io-timeout-ms`): a connection
    /// that owes or is owed bytes but makes no progress for this long is
    /// reaped with a typed close reason (the slowloris defense). `None`
    /// disables reaping.
    pub io_timeout: Option<Duration>,
    /// Aggregate buffered-byte cap across all of one client's
    /// connections (the per-conn `MAX_BUFFERED` extended to the lane).
    pub max_client_buffered: usize,
}

impl Default for DaemonTuning {
    fn default() -> Self {
        DaemonTuning {
            max_conns: 256,
            workers: 4,
            io_timeout: None,
            max_client_buffered: 2 * MAX_BUFFERED,
        }
    }
}

/// Daemon-level defense counters (connection plane — the job-plane
/// counters live in [`ServiceStats`]).
#[derive(Default)]
struct Counters {
    /// Connections refused over the registry bound.
    shed: AtomicU64,
    /// Connections closed by the progress deadline or the per-client
    /// aggregate buffer cap.
    reaped: AtomicU64,
    /// Idle waits on an expected event (a parked `WAIT`'s job, a
    /// connection's next bytes) that ran to their full timeout.
    idle_timeouts: AtomicU64,
}

/// Template job specs for the fixed built-in circuits — the ten ISCAS85
/// benchmarks, then s27 — at the default levelized placement, each
/// built on first use. A `SUBMIT @name` at that placement takes
/// [`JobSpec::with_config`] of its template, sharing the netlist and its
/// digest instead of regenerating, serializing and hashing them per
/// job. `pipe<S>x<W>` is a parametric namespace no table can bound, so
/// it stays out.
#[derive(Default)]
struct Builtins {
    slots: [OnceLock<JobSpec>; Benchmark::ALL.len() + 1],
}

impl Builtins {
    /// The template for a fixed built-in name (case-insensitive, like
    /// every `@name`), or `None` for any other name.
    fn template(&self, name: &str) -> Option<&JobSpec> {
        let bench = Benchmark::from_name(name);
        let slot = match bench {
            Some(b) => Benchmark::ALL.iter().position(|&x| x == b)?,
            None if name.eq_ignore_ascii_case("s27") => Benchmark::ALL.len(),
            None => return None,
        };
        Some(self.slots[slot].get_or_init(|| {
            let circuit = bench.map_or_else(sequential::s27, iscas85::generate);
            let placement = Placement::generate(&circuit, PlacementStyle::Levelized);
            JobSpec::new(circuit, placement, SstaConfig::date05())
        }))
    }
}

/// The sharded connection registry. Each worker owns shard `[worker
/// index]`; cross-shard access happens only for the global bound check
/// and [`Registry::open_connections`].
struct Registry {
    shards: Vec<Mutex<HashMap<u64, Conn>>>,
    max_conns: usize,
    io_timeout: Option<Duration>,
    max_client_buffered: usize,
    counters: Counters,
    builtins: Builtins,
    /// Aggregate buffered bytes per client lane, across shards. Updated
    /// by delta accounting from each connection's progress turn — never
    /// by cross-shard walks, which could deadlock two workers.
    lane_bytes: Mutex<HashMap<String, usize>>,
}

impl Registry {
    fn new(tuning: &DaemonTuning) -> Registry {
        Registry {
            shards: (0..tuning.workers)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            max_conns: tuning.max_conns,
            io_timeout: tuning.io_timeout,
            max_client_buffered: tuning.max_client_buffered,
            counters: Counters::default(),
            builtins: Builtins::default(),
            lane_bytes: Mutex::new(HashMap::new()),
        }
    }

    fn lock_shard(&self, i: usize) -> MutexGuard<'_, HashMap<u64, Conn>> {
        self.shards[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_lanes(&self) -> MutexGuard<'_, HashMap<String, usize>> {
        self.lane_bytes
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Connections currently registered, across all shards.
    fn open_connections(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.lock_shard(i).len())
            .sum()
    }
}

/// A running daemon: the bound address plus the handles needed to stop
/// it. Dropping the handle abandons the daemon (it keeps serving);
/// call [`DaemonHandle::shutdown`] + [`DaemonHandle::join`] to stop it.
pub struct DaemonHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl DaemonHandle {
    /// The address the daemon actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently held in the registry — the observable the
    /// churn regression test pins to zero after N connect/disconnect
    /// cycles.
    pub fn open_connections(&self) -> usize {
        self.registry.open_connections()
    }

    /// Connections refused over the `max_conns` bound since start.
    pub fn shed_connections(&self) -> u64 {
        self.registry.counters.shed.load(Ordering::SeqCst)
    }

    /// Connections reaped by the progress deadline or the per-client
    /// aggregate buffer cap since start.
    pub fn reaped_connections(&self) -> u64 {
        self.registry.counters.reaped.load(Ordering::SeqCst)
    }

    /// Idle waits on an expected event — the job a parked `WAIT` names,
    /// or a connection's next request bytes — that ran to their full
    /// backoff timeout instead of ending as the event arrived. A worker
    /// that blocks on the event keeps this near zero while a client
    /// talks to it; one that slept the backoff out would add one each
    /// time a pass found the next request or the job not there yet.
    /// Waits of a worker with no open connection are not counted: there
    /// is nothing to expect.
    pub fn idle_timeouts(&self) -> u64 {
        self.registry.counters.idle_timeouts.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain without a client connection — the
    /// SIGTERM-equivalent hook tests and process supervisors use.
    /// Idempotent; equivalent to a `SHUTDOWN` request.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits until the drain completes and every worker exits.
    pub fn join(mut self) {
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and starts serving in background threads with default
/// [`DaemonTuning`].
///
/// # Errors
///
/// The bind failure (address in use, permission) as a `Resource`-class
/// error, or the service-start failure (corrupt persistent store →
/// `Parse`, unreadable store directory → `Resource`).
pub fn spawn(addr: &str, config: ServiceConfig) -> Result<DaemonHandle, StatimError> {
    spawn_tuned(addr, config, DaemonTuning::default())
}

/// [`spawn`] with explicit connection-pool tuning.
///
/// # Errors
///
/// As [`spawn`], plus a `Config`-class error, raised before binding,
/// for zero connection workers or a configuration
/// [`ServiceConfig::validate`] refuses.
pub fn spawn_tuned(
    addr: &str,
    config: ServiceConfig,
    tuning: DaemonTuning,
) -> Result<DaemonHandle, StatimError> {
    config.validate()?;
    if tuning.workers == 0 {
        return Err(StatimError::new(
            ErrorClass::Config,
            "connection workers must be positive",
        ));
    }
    let bind_err = |e: io::Error| StatimError::from(e).with_file(addr.to_string());
    let listener = TcpListener::bind(addr).map_err(bind_err)?;
    listener.set_nonblocking(true).map_err(bind_err)?;
    let bound = listener.local_addr().map_err(bind_err)?;
    let stop = Arc::new(AtomicBool::new(false));
    let service = Arc::new(AnalysisService::start(config)?);
    let registry = Arc::new(Registry::new(&tuning));
    let listener = Arc::new(listener);
    let mut workers = Vec::with_capacity(registry.shards.len());
    for wid in 0..registry.shards.len() {
        let listener = Arc::clone(&listener);
        let registry = Arc::clone(&registry);
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let worker = thread::Builder::new()
            .name(format!("statim-conn-{wid}"))
            .spawn(move || worker_loop(wid, &listener, &registry, &service, &stop))
            .map_err(|e| {
                StatimError::new(
                    ErrorClass::Resource,
                    format!("spawn connection worker: {e}"),
                )
            })?;
        workers.push(worker);
    }
    Ok(DaemonHandle {
        addr: bound,
        stop,
        registry,
        workers,
    })
}

/// One polling worker: accept into its own shard, progress every owned
/// connection, drop the finished ones, exit once stopped and drained.
fn worker_loop(
    wid: usize,
    listener: &TcpListener,
    registry: &Registry,
    service: &Arc<AnalysisService>,
    stop: &AtomicBool,
) {
    let mut next_token: u64 = wid as u64;
    let mut idle = IDLE_POLL_MIN;
    loop {
        let mut busy = false;

        // Accept everything pending. All workers race the listener;
        // whoever wins owns the connection in its shard.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    busy = true;
                    if registry.open_connections() >= registry.max_conns {
                        registry.counters.shed.fetch_add(1, Ordering::SeqCst);
                        // Typed, observable refusal: a *blocking* write
                        // under a short deadline, so a normally-reading
                        // client reliably sees the line (instead of the
                        // old fire-and-forget race) while a stalled one
                        // cannot hold the worker past the deadline.
                        let mut stream = stream;
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_write_timeout(Some(SHED_WRITE_DEADLINE));
                        let _ = stream.write_all(
                            format!(
                                "ERR RESOURCE retry-after={SHED_RETRY_MS} \
                                 connection limit reached, retry later\n"
                            )
                            .as_bytes(),
                        );
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    if let Ok(conn) = Conn::new(stream) {
                        let token = next_token;
                        next_token += registry.shards.len() as u64;
                        registry.lock_shard(wid).insert(token, conn);
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Progress the shard; finished connections leave the registry
        // right here — the fd-leak fix is this `retain` (which also
        // settles the lane's buffer accounting).
        let expected = {
            let mut shard = registry.lock_shard(wid);
            shard.retain(|_, conn| {
                busy |= conn.progress(service, stop, registry);
                let done = conn.finished();
                if done {
                    conn.settle_accounting(registry);
                }
                !done
            });
            Expected::next(&shard)
        };

        if stop.load(Ordering::SeqCst) {
            service.shutdown();
            if service.drained() {
                // Drained: flush what's left and close everything in
                // this worker's shard, then exit.
                let mut shard = registry.lock_shard(wid);
                for (_, conn) in shard.drain() {
                    conn.close();
                }
                return;
            }
        }

        // Capped exponential idle backoff: 1 → 8 ms while quiet, reset
        // to 1 ms by any progress. A quiet worker blocks on the event it
        // expects next, outside the shard lock (other workers'
        // `open_connections` locks every shard), for at most the backoff:
        // that bounds how long every other connection, the listener, the
        // stop flag, WAIT deadlines and reaping wait for the next pass.
        if busy {
            idle = IDLE_POLL_MIN;
        } else {
            if expected.wait(service, idle) {
                registry
                    .counters
                    .idle_timeouts
                    .fetch_add(1, Ordering::Relaxed);
            }
            idle = (idle * 2).min(IDLE_POLL_MAX);
        }
    }
}

/// What a quiet worker blocks on: the next event its shard's most
/// recently active connection expects.
enum Expected {
    /// The connection's parked `WAIT` is waiting for this job.
    Job(JobId),
    /// The connection's next request bytes.
    Bytes(Arc<Socket>),
    /// The shard holds no connection that can still receive anything.
    Nothing,
}

impl Expected {
    /// The event the most recently active open connection of `shard`
    /// expects.
    fn next(shard: &HashMap<u64, Conn>) -> Expected {
        let Some(conn) = shard
            .values()
            .filter(|c| !c.closing)
            .max_by_key(|c| c.last_progress)
        else {
            return Expected::Nothing;
        };
        match &conn.pending {
            Some(wait) => Expected::Job(wait.id),
            // At EOF a read returns at once: blocking on it would spin.
            None if conn.eof => Expected::Nothing,
            None => Expected::Bytes(Arc::clone(&conn.stream)),
        }
    }

    /// Blocks until the event happens or `timeout` passes. A socket is
    /// waited on by a blocking peek under a read timeout and then
    /// switched back to non-blocking; one that cannot be switched back
    /// is shut down, so its next turn reads EOF and closes it instead of
    /// stalling the worker. Returns whether an expected event's wait ran
    /// to the full timeout.
    fn wait(self, service: &AnalysisService, timeout: Duration) -> bool {
        match self {
            // Whatever the wait returns, the connection's next turn
            // resolves it (an error included).
            Expected::Job(id) => service
                .wait(id, timeout)
                .is_ok_and(|status| !status.state.is_terminal()),
            Expected::Bytes(socket) => {
                let armed = socket.tcp.set_nonblocking(false).is_ok() && socket.arm(timeout);
                let ran_out = if armed {
                    // A read timeout surfaces as `WouldBlock` or
                    // `TimedOut`, depending on the platform.
                    socket.tcp.peek(&mut [0u8; 1]).is_err_and(|e| {
                        matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        )
                    })
                } else {
                    thread::sleep(timeout);
                    true
                };
                if socket.tcp.set_nonblocking(true).is_err() {
                    let _ = socket.tcp.shutdown(Shutdown::Both);
                }
                ran_out
            }
            Expected::Nothing => {
                thread::sleep(timeout);
                false
            }
        }
    }
}

/// A connection's socket, shared with its worker while the worker blocks
/// on it outside the shard lock ([`Expected::Bytes`]).
struct Socket {
    tcp: TcpStream,
    /// The read timeout `tcp` holds, in nanoseconds (0 until one is
    /// set), so a blocking peek under the same timeout as the last one
    /// skips `set_read_timeout`.
    read_timeout_ns: AtomicU64,
}

impl Socket {
    /// Gives the socket `timeout` as its read timeout, unless it holds
    /// it already. Returns whether it holds it now.
    fn arm(&self, timeout: Duration) -> bool {
        let ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        if self.read_timeout_ns.load(Ordering::Relaxed) == ns {
            return true;
        }
        let armed = self.tcp.set_read_timeout(Some(timeout)).is_ok();
        self.read_timeout_ns
            .store(if armed { ns } else { 0 }, Ordering::Relaxed);
        armed
    }
}

/// A parked `WAIT`: replies (and further request processing) hold until
/// the job turns terminal or the deadline passes.
struct PendingWait {
    id: JobId,
    deadline: Option<Instant>,
}

/// One multiplexed connection: the non-blocking socket plus its buffers
/// and protocol state.
struct Conn {
    stream: Arc<Socket>,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    greeted: bool,
    /// Negotiated protocol minor (0 until a versioned `HELLO` raises it).
    minor: u32,
    /// The fairness lane this connection submits under: the HELLO
    /// `client=` tag when given, otherwise the peer address.
    lane: String,
    pending: Option<PendingWait>,
    closing: bool,
    /// The peer sent FIN (half-close): no more requests will arrive,
    /// but everything already pipelined still executes and its replies
    /// are still owed before the connection closes.
    eof: bool,
    /// When this connection last made I/O or request progress (the
    /// reaping deadline's anchor).
    last_progress: Instant,
    /// Buffered bytes currently charged to [`Registry::lane_bytes`]
    /// under `accounted_lane` (delta accounting).
    accounted: usize,
    accounted_lane: String,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        let lane = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown-peer".to_string());
        let mut outbuf = Vec::with_capacity(GREETING.len() + 1);
        outbuf.extend_from_slice(GREETING.as_bytes());
        outbuf.push(b'\n');
        Ok(Conn {
            stream: Arc::new(Socket {
                tcp: stream,
                read_timeout_ns: AtomicU64::new(0),
            }),
            inbuf: Vec::new(),
            outbuf,
            greeted: false,
            minor: 0,
            accounted_lane: lane.clone(),
            lane,
            pending: None,
            closing: false,
            eof: false,
            last_progress: Instant::now(),
            accounted: 0,
        })
    }

    /// Whether the worker should drop this connection now: it is
    /// closing and everything owed to the client is flushed (or the
    /// socket is beyond writing).
    fn finished(&self) -> bool {
        self.closing && self.outbuf.is_empty()
    }

    /// Final flush + close for drain-time teardown.
    fn close(mut self) {
        let _ = self.flush();
        let _ = self.stream.tcp.shutdown(Shutdown::Both);
    }

    /// One readiness turn: flush, resolve a parked `WAIT`, read what the
    /// socket has, execute complete request lines, flush again, then
    /// apply the connection-plane defenses (progress deadline,
    /// per-client aggregate buffer cap). Returns whether any I/O or
    /// request progress happened (the worker's idle heuristic).
    fn progress(
        &mut self,
        service: &AnalysisService,
        stop: &AtomicBool,
        registry: &Registry,
    ) -> bool {
        let mut busy = self.flush();
        if let Some(reply) = self.resolve_pending(service) {
            self.queue(&reply, &[]);
            busy = true;
        }
        busy |= self.fill();
        while !self.closing && self.pending.is_none() {
            let Some(line) = self.take_line() else { break };
            busy = true;
            self.execute(&line, service, stop, registry);
        }
        // Half-close drained: every complete line the peer pipelined
        // before its FIN has executed (a trailing partial line is torn
        // by definition and forfeits). Close once the replies flush.
        if self.eof && !self.closing && self.pending.is_none() {
            self.inbuf.clear();
            self.closing = true;
        }
        // Oversized partial line, or a pipeline hoarding bytes behind a
        // WAIT: protocol violation, close after the error flushes.
        if !self.closing
            && (self.inbuf.len() > MAX_BUFFERED
                || (self.pending.is_none() && self.inbuf.len() > MAX_LINE))
        {
            self.queue(
                &Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!("request line exceeds {MAX_LINE} bytes"),
                },
                &[],
            );
            self.closing = true;
        }
        busy |= self.flush();
        if busy {
            self.last_progress = Instant::now();
        } else if let Some(timeout) = registry.io_timeout {
            // Slowloris defense: a connection that owes us a line
            // (mid-request, or never greeted) or is refusing to drain
            // its replies, and has made no progress for the deadline,
            // is reaped. Parked WAITs and idle greeted keepalives have
            // empty buffers and survive.
            let stalled = !self.greeted || !self.inbuf.is_empty() || !self.outbuf.is_empty();
            if !self.closing && stalled && self.last_progress.elapsed() >= timeout {
                registry.counters.reaped.fetch_add(1, Ordering::SeqCst);
                self.reap(format!(
                    "connection reaped: no progress in {} ms (io-timeout)",
                    timeout.as_millis()
                ));
            }
        }
        if self.update_accounting(registry) && !self.closing {
            registry.counters.reaped.fetch_add(1, Ordering::SeqCst);
            self.reap(format!(
                "connection reaped: client `{}` over its {} byte aggregate buffer cap",
                self.lane, registry.max_client_buffered
            ));
            self.update_accounting(registry);
        }
        busy
    }

    /// Terminal defensive close: best-effort typed reason, then drop the
    /// socket without waiting for the (possibly stalled) peer to drain.
    fn reap(&mut self, reason: String) {
        self.queue(
            &Response::Error {
                code: ErrorCode::Resource,
                message: reason,
            },
            &[],
        );
        self.closing = true;
        let _ = self.flush();
        // Whatever did not flush is forfeit — a reaped peer is by
        // definition not draining, and `finished()` needs an empty
        // buffer to release the registry slot.
        self.outbuf.clear();
        let _ = self.stream.tcp.shutdown(Shutdown::Both);
    }

    /// Delta-updates this connection's contribution to its lane's
    /// aggregate buffered bytes; returns whether the lane is over the
    /// cap (charged against the connection that grew it).
    fn update_accounting(&mut self, registry: &Registry) -> bool {
        let cur = if self.finished() {
            0
        } else {
            self.inbuf.len() + self.outbuf.len()
        };
        if cur == self.accounted && self.lane == self.accounted_lane {
            return false;
        }
        let mut lanes = registry.lock_lanes();
        if self.lane != self.accounted_lane {
            // HELLO renamed the lane: move the charge.
            if let Some(old) = lanes.get_mut(&self.accounted_lane) {
                *old = old.saturating_sub(self.accounted);
                if *old == 0 {
                    lanes.remove(&self.accounted_lane);
                }
            }
            self.accounted = 0;
            self.accounted_lane = self.lane.clone();
        }
        let entry = lanes.entry(self.lane.clone()).or_insert(0);
        *entry = entry.saturating_sub(self.accounted) + cur;
        let total = *entry;
        if total == 0 {
            lanes.remove(&self.lane);
        }
        self.accounted = cur;
        total > registry.max_client_buffered
    }

    /// Releases this connection's lane charge as it leaves the registry.
    fn settle_accounting(&mut self, registry: &Registry) {
        if self.accounted == 0 {
            return;
        }
        let mut lanes = registry.lock_lanes();
        if let Some(entry) = lanes.get_mut(&self.accounted_lane) {
            *entry = entry.saturating_sub(self.accounted);
            if *entry == 0 {
                lanes.remove(&self.accounted_lane);
            }
        }
        self.accounted = 0;
    }

    /// Resolves a parked `WAIT` if its job turned terminal or its
    /// deadline passed.
    fn resolve_pending(&mut self, service: &AnalysisService) -> Option<Response> {
        let pending = self.pending.as_ref()?;
        let id = pending.id;
        match service.status(id) {
            Ok(s) if s.state.is_terminal() => {
                self.pending = None;
                Some(Response::Waited {
                    id,
                    state: s.state.to_string(),
                })
            }
            Ok(s) => {
                if pending.deadline.is_some_and(|d| Instant::now() >= d) {
                    self.pending = None;
                    Some(Response::Error {
                        code: ErrorCode::Pending,
                        message: format!("timed out waiting for {id} (still {})", s.state),
                    })
                } else {
                    None
                }
            }
            Err(e) => {
                self.pending = None;
                Some(error_reply(&e))
            }
        }
    }

    /// Non-blocking read into the line buffer. Returns whether bytes
    /// arrived. EOF is a half-close, not an abort: pipelined requests
    /// that arrived with (or before) the FIN still execute and their
    /// replies still flush; only a hard read error forfeits the
    /// connection outright.
    fn fill(&mut self) -> bool {
        if self.eof {
            return false;
        }
        let mut busy = false;
        let mut chunk = [0u8; 4096];
        loop {
            match (&self.stream.tcp).read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    busy = true;
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    if self.inbuf.len() > MAX_BUFFERED {
                        break; // cap enforcement happens in progress()
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closing = true;
                    self.outbuf.clear();
                    break;
                }
            }
        }
        busy
    }

    /// Pops one complete request line (without its terminator) off the
    /// buffer.
    fn take_line(&mut self) -> Option<String> {
        let nl = self.inbuf.iter().position(|&b| b == b'\n')?;
        let mut raw: Vec<u8> = self.inbuf.drain(..=nl).collect();
        raw.pop(); // the \n
        while raw.last() == Some(&b'\r') {
            raw.pop();
        }
        Some(String::from_utf8_lossy(&raw).into_owned())
    }

    /// Parses and executes one request line, queuing the reply.
    fn execute(
        &mut self,
        line: &str,
        service: &AnalysisService,
        stop: &AtomicBool,
        registry: &Registry,
    ) {
        if line.is_empty() {
            return;
        }
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(message) => {
                self.queue(
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message,
                    },
                    &[],
                );
                return;
            }
        };
        if !self.greeted && !matches!(request, Request::Hello { .. }) {
            self.queue(
                &Response::Error {
                    code: ErrorCode::Protocol,
                    message: format!("handshake required (send HELLO {PROTOCOL_VERSION} first)"),
                },
                &[],
            );
            return;
        }
        // WAIT manipulates connection state (it parks the reply), so it
        // is handled here rather than in the stateless dispatcher.
        if let Request::Wait { id, timeout_ms } = request {
            if self.minor < 1 {
                self.queue(
                    &Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!(
                            "WAIT needs protocol {PROTOCOL_VERSION}.1 (connection negotiated \
                             {PROTOCOL_VERSION}.{}); poll STATUS instead",
                            self.minor
                        ),
                    },
                    &[],
                );
                return;
            }
            match service.status(id) {
                Ok(s) if s.state.is_terminal() => {
                    self.queue(
                        &Response::Waited {
                            id,
                            state: s.state.to_string(),
                        },
                        &[],
                    );
                }
                Ok(_) => {
                    // Saturate instead of panicking on absurd timeouts;
                    // an overflowing deadline means "no deadline".
                    let deadline = timeout_ms
                        .and_then(|ms| Instant::now().checked_add(Duration::from_millis(ms)));
                    self.pending = Some(PendingWait { id, deadline });
                }
                Err(e) => self.queue(&error_reply(&e), &[]),
            }
            return;
        }
        let (reply, payload) = respond(
            request,
            &mut self.greeted,
            &mut self.minor,
            &mut self.lane,
            service,
            registry,
        );
        if matches!(reply, Response::ShuttingDown) {
            stop.store(true, Ordering::SeqCst);
        }
        self.queue(&reply, &payload);
    }

    /// Appends one rendered reply (header + counted payload) to the
    /// write buffer.
    fn queue(&mut self, reply: &Response, payload: &[String]) {
        let mut out = reply.render();
        out.push('\n');
        for l in payload {
            out.push_str(l);
            out.push('\n');
        }
        self.outbuf.extend_from_slice(out.as_bytes());
    }

    /// Non-blocking flush of the write buffer. Returns whether bytes
    /// moved.
    fn flush(&mut self) -> bool {
        let mut written = 0;
        while written < self.outbuf.len() {
            match (&self.stream.tcp).write(&self.outbuf[written..]) {
                Ok(0) => {
                    self.closing = true;
                    break;
                }
                Ok(n) => written += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closing = true;
                    self.outbuf.clear();
                    return written > 0;
                }
            }
        }
        self.outbuf.drain(..written);
        written > 0
    }
}

/// Executes one stateless request against the service (everything but
/// `WAIT`, whose reply can park). Returns the reply header plus any
/// counted payload lines.
fn respond(
    request: Request,
    greeted: &mut bool,
    minor: &mut u32,
    lane: &mut String,
    service: &AnalysisService,
    registry: &Registry,
) -> (Response, Vec<String>) {
    match request {
        Request::Hello {
            version,
            minor: client_minor,
            client,
        } => {
            if version != PROTOCOL_VERSION {
                return (
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!(
                            "unsupported protocol version {version} (daemon speaks {PROTOCOL_VERSION}.{PROTOCOL_MINOR})"
                        ),
                    },
                    Vec::new(),
                );
            }
            *greeted = true;
            *minor = client_minor.min(PROTOCOL_MINOR);
            if let Some(tag) = client {
                *lane = tag;
            }
            (
                Response::Hello {
                    version: PROTOCOL_VERSION,
                    minor: *minor,
                },
                Vec::new(),
            )
        }
        Request::Wait { .. } => unreachable!("WAIT is handled by the connection"),
        Request::Submit { source, options } => {
            match build_spec(
                &source,
                &options,
                service.default_backend(),
                &registry.builtins,
            ) {
                Ok((spec, deadline_ms)) => {
                    let options = SubmitOptions {
                        client: Some(lane.clone()),
                        deadline_ms,
                    };
                    match service.submit_with(spec, options) {
                        Ok(receipt) => (
                            Response::Submitted {
                                id: receipt.id,
                                from_store: receipt.from_store,
                            },
                            Vec::new(),
                        ),
                        Err(e) => (error_reply(&e), Vec::new()),
                    }
                }
                Err(e) => (
                    Response::Error {
                        code: ErrorCode::from(e.class),
                        message: e.to_string(),
                    },
                    Vec::new(),
                ),
            }
        }
        Request::Edit { id, script } => {
            if *minor < 1 {
                return (
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: format!(
                            "EDIT needs protocol {PROTOCOL_VERSION}.1 (connection negotiated \
                             {PROTOCOL_VERSION}.{minor})"
                        ),
                    },
                    Vec::new(),
                );
            }
            let base = match service.spec(id) {
                Ok(spec) => spec,
                Err(e) => return (error_reply(&e), Vec::new()),
            };
            let edited = EcoScript::parse_compact(&script)
                .map_err(StatimError::from)
                .and_then(|script| base.edited(&script));
            match edited {
                Ok(spec) => {
                    match service.submit_with(spec, SubmitOptions::for_client(lane.clone())) {
                        Ok(receipt) => (
                            Response::Edited {
                                id: receipt.id,
                                from_store: receipt.from_store,
                            },
                            Vec::new(),
                        ),
                        Err(e) => (error_reply(&e), Vec::new()),
                    }
                }
                Err(e) => (
                    Response::Error {
                        code: ErrorCode::from(e.class),
                        message: e.to_string(),
                    },
                    Vec::new(),
                ),
            }
        }
        Request::Status { id } => match service.status(id) {
            Ok(s) => (
                Response::Status {
                    id,
                    state: s.state.to_string(),
                    circuit: s.circuit,
                    from_store: s.from_store,
                },
                Vec::new(),
            ),
            Err(e) => (error_reply(&e), Vec::new()),
        },
        // `result_any` serves whichever flow the netlist selected:
        // combinational jobs render the path report, register netlists
        // the setup/hold check report — same protocol, same framing.
        Request::Result { id, top } => match service.result_any(id) {
            Ok(report) => {
                let rendered = report.deterministic_text(top.unwrap_or(DEFAULT_TOP));
                let payload: Vec<String> = rendered.lines().map(str::to_string).collect();
                (
                    Response::Result {
                        id,
                        lines: payload.len(),
                    },
                    payload,
                )
            }
            Err(e) => (error_reply(&e), Vec::new()),
        },
        Request::Cancel { id } => match service.cancel(id) {
            Ok(outcome) => (
                Response::Cancelled {
                    id,
                    immediate: outcome == CancelOutcome::Immediate,
                },
                Vec::new(),
            ),
            Err(e) => (error_reply(&e), Vec::new()),
        },
        Request::Stats => {
            let payload = render_stats(&service.stats(), &registry.counters);
            (
                Response::Stats {
                    lines: payload.len(),
                },
                payload,
            )
        }
        Request::Shutdown => {
            service.shutdown();
            (Response::ShuttingDown, Vec::new())
        }
    }
}

fn render_stats(stats: &ServiceStats, counters: &Counters) -> Vec<String> {
    let c = &stats.cache;
    vec![
        format!("submitted: {}", stats.submitted),
        format!("completed: {}", stats.completed),
        format!("degraded: {}", stats.degraded),
        format!("failed: {}", stats.failed),
        format!("cancelled: {}", stats.cancelled),
        format!("store-hits: {}", stats.store_hits),
        format!("rejected: {}", stats.rejected),
        format!("throttled: {}", stats.throttled),
        format!("expired: {}", stats.expired),
        format!("clients: {}", stats.clients),
        format!("shed-connections: {}", counters.shed.load(Ordering::SeqCst)),
        format!(
            "reaped-connections: {}",
            counters.reaped.load(Ordering::SeqCst)
        ),
        format!("queued: {}", stats.queued),
        format!("running: {}", stats.running),
        format!("store-entries: {}", stats.store_entries),
        format!("store-resident: {}", stats.store_resident),
        format!("store-loaded: {}", stats.store_loaded),
        format!("store-rereads: {}", stats.store_rereads),
        format!("store-read-errors: {}", stats.store_read_errors),
        format!("store-write-errors: {}", stats.store_write_errors),
        format!("warm-runs: {}", stats.warm_runs),
        format!("reused-paths: {}", stats.reused_paths),
        format!("retired-jobs: {}", stats.retired_jobs),
        format!(
            "kernel-cache: {} hits / {} lookups, {} entries, {} evictions",
            c.hits(),
            c.lookups(),
            c.entries,
            c.evictions
        ),
    ]
}

/// Where a `SUBMIT`'s netlist comes from.
enum Netlist<'a> {
    /// A fixed built-in: the daemon's template spec.
    Template(&'a JobSpec),
    /// A file or a parametric pipeline, loaded for this request.
    Loaded(Box<Circuit>),
}

/// Builds the job spec a `SUBMIT` line describes: resolve the netlist
/// source, the placement and the run options. Also returns the queue
/// deadline (`deadline=<ms>`), which is admission metadata — it lives
/// *outside* the spec so it never perturbs the result-store fingerprint.
///
/// A fixed built-in resolves to its template in `builtins`; at the
/// default placement the job shares the template's netlist and digest.
/// Every other source loads before the options are parsed, so a request
/// with both a bad source and a bad option reports the source.
fn build_spec(
    source: &str,
    options: &[(String, String)],
    default_backend: statim_core::ConvolveBackend,
    builtins: &Builtins,
) -> Result<(JobSpec, Option<u64>), StatimError> {
    let netlist = match source
        .strip_prefix('@')
        .and_then(|name| builtins.template(name))
    {
        Some(template) => Netlist::Template(template),
        None => Netlist::Loaded(Box::new(load_source(source)?)),
    };
    // Seeded before the options so an explicit `backend=` wins and the
    // daemon-wide default still lands in the job fingerprint.
    let mut config = SstaConfig::date05().with_backend(default_backend);
    let mut placement = PlacementOptions::default();
    let mut deadline_ms: Option<u64> = None;
    for (key, value) in options {
        set_submit_option(&mut config, &mut placement, &mut deadline_ms, key, value)
            // A SUBMIT line has no usage text to show: every option error
            // is the request's configuration error.
            .map_err(|e| StatimError {
                class: ErrorClass::Config,
                ..e
            })?;
    }
    let circuit = match netlist {
        Netlist::Template(template) if placement.is_levelized() => {
            return Ok((template.with_config(config), deadline_ms));
        }
        Netlist::Template(template) => template.circuit().clone(),
        Netlist::Loaded(circuit) => *circuit,
    };
    let placement = placement.resolve(&circuit)?;
    Ok((JobSpec::new(circuit, placement, config), deadline_ms))
}

/// Applies one `SUBMIT` option: the daemon's own keys (`deadline`,
/// `cache`, `solver`), then the analysis option table, then the
/// placement options.
fn set_submit_option(
    config: &mut SstaConfig,
    placement: &mut PlacementOptions,
    deadline_ms: &mut Option<u64>,
    key: &str,
    value: &str,
) -> Result<(), StatimError> {
    match key {
        "deadline" => *deadline_ms = Some(parse_value(key, value)?),
        "cache" => {
            config.cache = match value {
                "on" => true,
                "off" => false,
                other => {
                    return Err(StatimError::new(
                        ErrorClass::Config,
                        format!("cache must be on or off, got `{other}`"),
                    ))
                }
            }
        }
        "solver" => {
            config.solver = match value {
                "bellman-ford" => LabelSolver::BellmanFord,
                "topological" => LabelSolver::Topological,
                other => {
                    return Err(StatimError::new(
                        ErrorClass::Config,
                        format!("unknown solver `{other}` (bellman-ford or topological)"),
                    ))
                }
            }
        }
        _ => {
            if !config.set_option(key, value)? && !placement.set_option(key, value)? {
                return Err(StatimError::new(
                    ErrorClass::Config,
                    format!("unknown submit option `{key}`"),
                ));
            }
        }
    }
    Ok(())
}

/// Loads a source that is not a fixed built-in: a `.bench` file path or
/// a parametric `@pipe<S>x<W>` pipeline.
fn load_source(source: &str) -> Result<Circuit, StatimError> {
    if let Some(name) = source.strip_prefix('@') {
        // Sequential built-ins share the `@name` namespace; the executor
        // routes them to the sequential flow from the registers in the
        // netlist. An oversized pipeline is a typed refusal.
        return match sequential::try_from_name(name) {
            Some(generated) => generated.map_err(StatimError::from),
            None => Err(StatimError::new(
                ErrorClass::Config,
                format!("unknown built-in benchmark `@{name}`"),
            )),
        };
    }
    let text =
        std::fs::read_to_string(source).map_err(|e| StatimError::from(e).with_file(source))?;
    let name = std::path::Path::new(source)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    bench_format::parse(name, &text).map_err(|e| StatimError::from(e).with_file(source))
}

/// The daemon-side [`ServiceConfig`] knobs `statim serve` exposes, each
/// set from its `--<key> <value>` text by [`DaemonOptions::set_option`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonOptions {
    /// Queue bound (`--max-queue`); `None` keeps the service default.
    pub max_queue: Option<usize>,
    /// Kernel-store entry cap (`--cache-capacity`).
    pub cache_capacity: Option<usize>,
    /// Default per-job wall budget (`--max-wall-secs`).
    pub max_wall_secs: Option<f64>,
    /// Default convolution backend for jobs (`--backend`); `None` keeps
    /// the service default (grid).
    pub backend: Option<statim_core::ConvolveBackend>,
    /// Persistent result-store directory (`--store-dir`); `None` keeps
    /// results in memory only.
    pub store_dir: Option<PathBuf>,
    /// Connection registry bound (`--max-conns`).
    pub max_conns: Option<usize>,
    /// Polling connection workers (`--conn-threads`).
    pub conn_threads: Option<usize>,
    /// Per-client live-job cap (`--max-per-client`).
    pub max_per_client: Option<usize>,
    /// Per-client token-bucket rate limit, jobs/s (`--rate-limit`).
    pub rate_limit: Option<u32>,
    /// Connection progress deadline, ms (`--io-timeout-ms`).
    pub io_timeout_ms: Option<u64>,
    /// Fsync result-store appends and index renames (`--store-fsync`, a
    /// bare switch the caller sets).
    pub store_fsync: bool,
}

impl DaemonOptions {
    /// Sets the serve option `key` from its text `value`; `Ok(false)` for
    /// a key it does not own, whatever the value.
    ///
    /// # Errors
    ///
    /// A `Parse`-class error for a malformed number and a
    /// `Config`-class error for an unknown backend, in the option
    /// table's wording.
    pub fn set_option(&mut self, key: &str, value: &str) -> Result<bool, StatimError> {
        match key {
            "max-queue" => self.max_queue = Some(parse_value(key, value)?),
            "cache-capacity" => self.cache_capacity = Some(parse_value(key, value)?),
            "max-wall-secs" => self.max_wall_secs = Some(parse_value(key, value)?),
            "backend" => self.backend = Some(parse_backend(value)?),
            "store-dir" => self.store_dir = Some(PathBuf::from(value)),
            "max-conns" => self.max_conns = Some(parse_value(key, value)?),
            "conn-threads" => self.conn_threads = Some(parse_value(key, value)?),
            "max-per-client" => self.max_per_client = Some(parse_value(key, value)?),
            "rate-limit" => self.rate_limit = Some(parse_value(key, value)?),
            "io-timeout-ms" => self.io_timeout_ms = Some(parse_value(key, value)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Lowers the options onto a service configuration plus the
    /// connection-pool tuning.
    pub fn into_configs(self) -> (ServiceConfig, DaemonTuning) {
        let mut config = ServiceConfig::default();
        if let Some(q) = self.max_queue {
            config.max_queue = q;
        }
        config.cache_capacity = self.cache_capacity;
        config.default_budget = RunBudget {
            max_wall_secs: self.max_wall_secs,
            ..RunBudget::none()
        };
        if let Some(b) = self.backend {
            config.default_backend = b;
        }
        config.store_dir = self.store_dir;
        config.max_per_client = self.max_per_client;
        config.rate_limit = self.rate_limit;
        config.store_fsync = self.store_fsync;
        let mut tuning = DaemonTuning::default();
        if let Some(n) = self.max_conns {
            tuning.max_conns = n;
        }
        if let Some(n) = self.conn_threads {
            tuning.workers = n;
        }
        tuning.io_timeout = self.io_timeout_ms.map(Duration::from_millis);
        (config, tuning)
    }
}
