//! Supervised execution: panic isolation, bounded deterministic retry,
//! run budgets with cooperative cancellation, and Monte-Carlo
//! checkpoint/resume.
//!
//! The paper's methodology validates every analytical kernel against a
//! 10k-sample Monte-Carlo run — a long, fan-out-heavy workload. Before
//! this layer existed, one panicking worker aborted the whole run and
//! nothing could be time-boxed or resumed. The supervisor fixes all
//! three, without giving up the repo's core contract: **results are
//! bit-identical for any thread count**.
//!
//! Four pillars:
//!
//! 1. **Panic isolation** — every work item runs under
//!    [`std::panic::catch_unwind`]; a panicking item is converted into a
//!    typed outcome ([`ItemOutcome::Panicked`]) and quarantined by the
//!    caller (the engine routes it into [`SstaReport::degraded`]), while
//!    genuinely fatal payloads (allocation failure, stack overflow)
//!    [`escalate`] and abort the run as before.
//! 2. **Bounded deterministic retry** — a panicked item is retried up to
//!    [`Supervisor::retries`] times *on the same worker, from scratch*.
//!    Work items are pure functions of their enumeration index (a
//!    Monte-Carlo chunk re-seeds from `seed + chunk_index` exactly as a
//!    fresh run would), so a run with `retries ∈ {0..N}` is bit-identical
//!    to a clean run whenever the retry succeeds.
//! 3. **Run budgets & cooperative cancellation** — wall-clock, path and
//!    Monte-Carlo-sample budgets ([`RunBudget`]) are checked at item
//!    (chunk) boundaries through an atomic [`CancelToken`]. A tripped
//!    budget never errors the run: remaining items are skipped and the
//!    caller emits a *partial* result flagged with the [`BudgetKind`]
//!    that tripped. Index-based budgets (paths, samples) truncate a
//!    deterministic prefix; the wall budget is inherently timing
//!    dependent and is reported as such.
//! 4. **Checkpoint/resume** — completed Monte-Carlo chunk results are
//!    periodically persisted to a versioned sidecar file
//!    ([`McCheckpoint`], written atomically by [`McCheckpointer`]).
//!    Samples are stored as exact `f64` bit patterns, so a resumed run
//!    merges checkpointed chunks with freshly computed ones in chunk
//!    order and the final report is **bit-identical** to an
//!    uninterrupted run.
//!
//! [`SstaReport::degraded`]: crate::engine::SstaReport::degraded

use crate::parallel;
use crate::{CoreError, ErrorClass, Result};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------
// Budgets and cancellation
// ---------------------------------------------------------------------

/// Which run budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock budget (`--max-wall-secs`).
    Wall,
    /// The analyzed-path budget (`--max-analyzed-paths`).
    Paths,
    /// The Monte-Carlo sample budget (`--max-mc-samples`).
    McSamples,
    /// An explicit external cancellation (a daemon `CANCEL` request, not
    /// a resource limit) delivered through the same token so the run
    /// stops at the next item boundary.
    Cancelled,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Wall => "wall",
            BudgetKind::Paths => "paths",
            BudgetKind::McSamples => "mc-samples",
            BudgetKind::Cancelled => "cancelled",
        })
    }
}

/// Resource budgets for one supervised run. `None` fields are unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunBudget {
    /// Wall-clock ceiling, seconds, measured from [`Supervisor::new`].
    pub max_wall_secs: Option<f64>,
    /// Ceiling on analyzed near-critical paths (a deterministic prefix
    /// of the enumeration order).
    pub max_paths: Option<usize>,
    /// Ceiling on Monte-Carlo samples (rounded up to whole chunks — the
    /// check sits at chunk boundaries).
    pub max_mc_samples: Option<usize>,
}

impl RunBudget {
    /// No limits at all.
    pub fn none() -> Self {
        RunBudget::default()
    }

    /// Whether every dimension is unlimited.
    pub fn is_unlimited(&self) -> bool {
        self.max_wall_secs.is_none() && self.max_paths.is_none() && self.max_mc_samples.is_none()
    }
}

/// A one-way, thread-safe cancellation flag recording which budget
/// tripped first. Workers poll it at item boundaries; nothing is ever
/// interrupted mid-item, so completed results stay trustworthy.
#[derive(Debug, Default)]
pub struct CancelToken {
    /// 0 = clear; otherwise `BudgetKind as u8 + 1`.
    state: AtomicU8,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token with `kind`; the first trip wins.
    pub fn cancel(&self, kind: BudgetKind) {
        let _ = self
            .state
            .compare_exchange(0, kind as u8 + 1, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// The budget that tripped, if any.
    pub fn cancelled(&self) -> Option<BudgetKind> {
        match self.state.load(Ordering::SeqCst) {
            0 => None,
            1 => Some(BudgetKind::Wall),
            2 => Some(BudgetKind::Paths),
            3 => Some(BudgetKind::McSamples),
            _ => Some(BudgetKind::Cancelled),
        }
    }
}

/// Supervision policy and live counters for one run: the budget, the
/// retry bound, the shared [`CancelToken`] and the wall clock.
#[derive(Debug)]
pub struct Supervisor {
    budget: RunBudget,
    retries: usize,
    started: Instant,
    token: CancelToken,
    retried: AtomicU64,
    panicked: AtomicU64,
}

impl Supervisor {
    /// A supervisor enforcing `budget`, retrying each panicked item up
    /// to `retries` times. The wall clock starts now.
    pub fn new(budget: RunBudget, retries: usize) -> Self {
        Supervisor {
            budget,
            retries,
            started: Instant::now(),
            token: CancelToken::new(),
            retried: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        }
    }

    /// No budgets, no retries: pure panic isolation.
    pub fn unlimited() -> Self {
        Supervisor::new(RunBudget::none(), 0)
    }

    /// The configured budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Maximum panic-retries per item.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// The shared cancellation token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Seconds since the supervisor was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Total panic-retries performed so far.
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    /// Total panics caught so far (including ones later retried away).
    pub fn panicked(&self) -> u64 {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Polls the wall budget, tripping the token when exceeded. Called
    /// at every item boundary.
    pub fn check_wall(&self) {
        if let Some(max) = self.budget.max_wall_secs {
            if self.elapsed_secs() > max {
                self.token.cancel(BudgetKind::Wall);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

/// Panic payload markers that must never be swallowed: quarantining an
/// item that failed for one of these reasons would hide an unusable
/// process, so the payload is re-raised ([`escalate`]).
const FATAL_MARKERS: &[&str] = &["allocation", "out of memory", "stack overflow"];

/// Renders a panic payload as text (`&str` / `String` payloads pass
/// through; anything else gets a placeholder).
pub fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The escape hatch from panic isolation: payloads describing a fatal
/// process condition (allocation failure, out of memory, stack
/// overflow) are re-raised instead of quarantined.
///
/// Returns the payload's message for quarantinable panics.
pub fn escalate(payload: Box<dyn Any + Send>) -> String {
    let message = payload_message(payload.as_ref());
    let lower = message.to_lowercase();
    if FATAL_MARKERS.iter().any(|m| lower.contains(m)) {
        std::panic::resume_unwind(payload);
    }
    message
}

/// Runs `f` under [`std::panic::catch_unwind`]: `Ok` on success, the
/// panic message on a quarantinable panic; fatal payloads [`escalate`].
///
/// `AssertUnwindSafe` is sound here because every supervised work item
/// is a pure function of its index over shared *immutable* inputs plus
/// lock-protected caches that recover from poisoning — a caught panic
/// cannot leave observable broken state behind.
pub fn isolate<U>(f: impl FnOnce() -> U) -> std::result::Result<U, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(escalate)
}

// ---------------------------------------------------------------------
// Supervised fan-out
// ---------------------------------------------------------------------

/// The fate of one supervised work item.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemOutcome<U> {
    /// The item completed (possibly after retries).
    Done(U),
    /// The item panicked on every attempt and was quarantined.
    Panicked {
        /// The final attempt's panic message.
        reason: String,
    },
    /// A tripped budget skipped the item before it started.
    Skipped,
}

impl<U> ItemOutcome<U> {
    /// The completed value, if any.
    pub fn done(self) -> Option<U> {
        match self {
            ItemOutcome::Done(u) => Some(u),
            _ => None,
        }
    }
}

/// Outcome of a [`supervised_map`] call.
#[derive(Debug)]
pub struct SupervisedRun<U> {
    /// Per-item outcomes in input order.
    pub outcomes: Vec<ItemOutcome<U>>,
    /// Total worker busy time, seconds (sum over workers).
    pub busy: f64,
    /// Workers actually spawned.
    pub threads: usize,
    /// The budget that cut the run short, if any.
    pub exhausted: Option<BudgetKind>,
    /// Panic-retries performed during this call.
    pub retries: u64,
    /// Panics caught during this call (retried or quarantined).
    pub panics: u64,
}

impl<U> SupervisedRun<U> {
    /// Items that completed.
    pub fn done_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ItemOutcome::Done(_)))
            .count()
    }
}

/// Maps `f` over `items` on `threads` workers under supervision:
/// panics are isolated (and retried up to `sup.retries()` times),
/// budgets are checked at every item boundary, and results merge in
/// input order.
///
/// `item_cap` truncates the run to the first `cap` items — a
/// *deterministic* prefix, used for the path/sample budgets — and
/// records the associated [`BudgetKind`] when it actually cut items.
/// The wall budget trips the shared token instead, so its partial
/// result set depends on timing (and is flagged accordingly).
pub fn supervised_map<T, U, F>(
    items: &[T],
    threads: usize,
    sup: &Supervisor,
    item_cap: Option<(usize, BudgetKind)>,
    f: F,
) -> SupervisedRun<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let retries_before = sup.retried();
    let panics_before = sup.panicked();
    let run = parallel::run_pool(items, threads, |i, item| -> ItemOutcome<U> {
        if let Some((cap, _)) = item_cap {
            if i >= cap {
                return ItemOutcome::Skipped;
            }
        }
        sup.check_wall();
        if sup.token.cancelled().is_some() {
            return ItemOutcome::Skipped;
        }
        let mut attempt = 0usize;
        loop {
            match isolate(|| f(i, item)) {
                Ok(u) => return ItemOutcome::Done(u),
                Err(reason) => {
                    sup.panicked.fetch_add(1, Ordering::Relaxed);
                    if attempt < sup.retries {
                        // Same worker, same index, from scratch: the
                        // item recomputes exactly what a clean run would.
                        attempt += 1;
                        sup.retried.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    return ItemOutcome::Panicked { reason };
                }
            }
        }
    });
    // run_pool isolates panics itself; the inner closure never panics
    // (its own isolation catches first), so the outer layer is always
    // Done and flattens away.
    let outcomes: Vec<ItemOutcome<U>> = run
        .results
        .into_iter()
        .map(|outer| match outer {
            ItemOutcome::Done(inner) => inner,
            ItemOutcome::Panicked { reason } => ItemOutcome::Panicked { reason },
            ItemOutcome::Skipped => ItemOutcome::Skipped,
        })
        .collect();
    let exhausted = match sup.token.cancelled() {
        Some(kind) => Some(kind),
        None => item_cap.and_then(|(cap, kind)| (items.len() > cap).then_some(kind)),
    };
    SupervisedRun {
        outcomes,
        busy: run.busy,
        threads: run.threads,
        exhausted,
        retries: sup.retried() - retries_before,
        panics: sup.panicked() - panics_before,
    }
}

/// A per-item kernel result that [`fan_out`] can quarantine.
pub(crate) trait KernelResult {
    /// The item noun in panic reasons (`panic in <noun> analysis: …`).
    const NOUN: &'static str;
    /// The quarantine reason for a result that is not finite.
    const NON_FINITE: &'static str;
    /// Whether every kernel value is finite.
    fn is_finite(&self) -> bool;
}

/// What a [`fan_out`] stage leaves after quarantine.
pub(crate) struct FanOut<U, D> {
    /// Finite results, in input order.
    pub survivors: Vec<U>,
    /// Quarantined items, in input order.
    pub degraded: Vec<D>,
    /// Items a tripped budget skipped (counted, not quarantined: nothing
    /// is wrong with them).
    pub skipped: usize,
    /// The budget that cut the stage short, if any.
    pub exhausted: Option<BudgetKind>,
    /// Total worker busy time, seconds.
    pub busy: f64,
    /// Workers actually spawned.
    pub threads: usize,
    /// Panic-retries performed.
    pub retries: u64,
    /// Panics caught (retried or quarantined).
    pub panics: u64,
}

/// The per-item analysis stage of every flow: maps `f` over `items`
/// under [`supervised_map`], capped at the budget's `max_paths`, and
/// quarantines instead of failing. An item that returns `Err`, a
/// non-finite result, or panics past its retries becomes
/// `degrade(index, item, class, reason)`, in input order, so the split
/// is bit-identical for any thread count.
///
/// # Errors
///
/// When nothing survives: [`CoreError::BudgetExhausted`] if a budget
/// tripped (an empty report must not look like a healthy one), else
/// [`CoreError::AllPathsDegraded`] if anything was quarantined. With no
/// items at all the stage succeeds empty.
pub(crate) fn fan_out<T, U, D>(
    items: &[T],
    threads: usize,
    sup: &Supervisor,
    f: impl Fn(usize, &T) -> Result<U> + Sync,
    degrade: impl Fn(usize, &T, ErrorClass, String) -> D,
) -> Result<FanOut<U, D>>
where
    T: Sync,
    U: KernelResult + Send,
{
    let cap = sup.budget.max_paths.map(|m| (m, BudgetKind::Paths));
    let pool = supervised_map(items, threads, sup, cap, f);
    let mut survivors = Vec::with_capacity(pool.outcomes.len());
    let mut degraded = Vec::new();
    let mut skipped = 0usize;
    for (i, outcome) in pool.outcomes.into_iter().enumerate() {
        let (class, reason) = match outcome {
            ItemOutcome::Done(Ok(u)) if u.is_finite() => {
                survivors.push(u);
                continue;
            }
            ItemOutcome::Done(Ok(_)) => (ErrorClass::Numeric, U::NON_FINITE.to_string()),
            ItemOutcome::Done(Err(e)) => (e.classify(), e.to_string()),
            ItemOutcome::Panicked { reason } => (
                ErrorClass::Numeric,
                format!("panic in {} analysis: {reason}", U::NOUN),
            ),
            ItemOutcome::Skipped => {
                skipped += 1;
                continue;
            }
        };
        degraded.push(degrade(i, &items[i], class, reason));
    }
    if survivors.is_empty() {
        if let Some(kind) = pool.exhausted {
            return Err(CoreError::BudgetExhausted { budget: kind });
        }
        if !degraded.is_empty() {
            return Err(CoreError::AllPathsDegraded {
                total: degraded.len(),
            });
        }
    }
    Ok(FanOut {
        survivors,
        degraded,
        skipped,
        exhausted: pool.exhausted,
        busy: pool.busy,
        threads: pool.threads,
        retries: pool.retries,
        panics: pool.panics,
    })
}

// ---------------------------------------------------------------------
// Monte-Carlo checkpoint format
// ---------------------------------------------------------------------

/// Magic string opening every checkpoint file.
pub const CKPT_MAGIC: &str = "statim-mc-ckpt";
/// Current checkpoint format version.
pub const CKPT_VERSION: u32 = 1;

/// FNV-1a over a word stream — the checkpoint's configuration
/// fingerprint (seed, sample budget, path identity, kernel settings).
pub fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A Monte-Carlo checkpoint: the run's identity plus every completed
/// chunk's raw delay samples, stored as exact `f64` bit patterns so a
/// resumed run is bit-identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct McCheckpoint {
    /// Configuration fingerprint ([`fnv1a64`] of seed, samples, path
    /// and settings); a resume against a different configuration is
    /// rejected.
    pub fingerprint: u64,
    /// The run seed (chunk `i` draws from `seed + i`).
    pub seed: u64,
    /// The total sample budget of the run being checkpointed.
    pub samples: usize,
    /// Completed chunks: chunk index → that chunk's delay samples.
    pub chunks: BTreeMap<u64, Vec<f64>>,
}

impl McCheckpoint {
    /// An empty checkpoint for a run with this identity.
    pub fn new(fingerprint: u64, seed: u64, samples: usize) -> Self {
        McCheckpoint {
            fingerprint,
            seed,
            samples,
            chunks: BTreeMap::new(),
        }
    }

    /// Renders the versioned sidecar text. Samples are hex `f64` bit
    /// patterns — lossless by construction.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{CKPT_MAGIC} v{CKPT_VERSION}\n"));
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("samples {}\n", self.samples));
        for (idx, delays) in &self.chunks {
            out.push_str(&format!("chunk {idx} {}", delays.len()));
            for d in delays {
                out.push_str(&format!(" {:016x}", d.to_bits()));
            }
            out.push('\n');
        }
        out
    }

    /// Parses a checkpoint file's text.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointParse`] (class `Parse`) for a wrong magic,
    /// an unsupported version, or any corrupted line — with the 1-based
    /// line number of the offender.
    pub fn parse(text: &str) -> Result<Self> {
        fn bad(line: usize, message: impl Into<String>) -> CoreError {
            CoreError::CheckpointParse {
                line,
                message: message.into(),
            }
        }
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| bad(1, "empty checkpoint"))?;
        match header.strip_prefix(CKPT_MAGIC) {
            None => return Err(bad(1, format!("not a {CKPT_MAGIC} file"))),
            Some(v) if v.trim() != format!("v{CKPT_VERSION}") => {
                return Err(bad(
                    1,
                    format!(
                        "unsupported checkpoint version `{}` (this build reads v{CKPT_VERSION})",
                        v.trim()
                    ),
                ));
            }
            Some(_) => {}
        }
        let mut field = |name: &str| -> Result<(usize, String)> {
            let (i, l) = lines
                .next()
                .ok_or_else(|| bad(0, format!("missing `{name}` line")))?;
            let value = l
                .strip_prefix(name)
                .ok_or_else(|| bad(i + 1, format!("expected `{name} <value>`, got `{l}`")))?;
            Ok((i + 1, value.trim().to_string()))
        };
        let (fl, fv) = field("fingerprint")?;
        let fingerprint =
            u64::from_str_radix(&fv, 16).map_err(|_| bad(fl, "fingerprint is not hex"))?;
        let (sl, sv) = field("seed")?;
        let seed = sv
            .parse::<u64>()
            .map_err(|_| bad(sl, "seed is not a u64"))?;
        let (nl, nv) = field("samples")?;
        let samples = nv
            .parse::<usize>()
            .map_err(|_| bad(nl, "samples is not a count"))?;
        let mut chunks = BTreeMap::new();
        for (i, l) in lines {
            let line = i + 1;
            if l.trim().is_empty() {
                continue;
            }
            let mut tok = l.split_ascii_whitespace();
            match tok.next() {
                Some("chunk") => {}
                Some(other) => return Err(bad(line, format!("unknown record `{other}`"))),
                None => continue,
            }
            let idx = tok
                .next()
                .ok_or_else(|| bad(line, "chunk index missing"))?
                .parse::<u64>()
                .map_err(|_| bad(line, "chunk index is not a u64"))?;
            let count = tok
                .next()
                .ok_or_else(|| bad(line, "chunk sample count missing"))?
                .parse::<usize>()
                .map_err(|_| bad(line, "chunk sample count is not a count"))?;
            let mut delays = Vec::with_capacity(count);
            for t in tok {
                let bits = u64::from_str_radix(t, 16)
                    .map_err(|_| bad(line, format!("`{t}` is not an f64 bit pattern")))?;
                let d = f64::from_bits(bits);
                if !d.is_finite() {
                    return Err(bad(line, "non-finite sample in checkpoint"));
                }
                delays.push(d);
            }
            if delays.len() != count {
                return Err(bad(
                    line,
                    format!(
                        "chunk {idx} declares {count} samples but carries {}",
                        delays.len()
                    ),
                ));
            }
            if chunks.insert(idx, delays).is_some() {
                return Err(bad(line, format!("duplicate chunk {idx}")));
            }
        }
        Ok(McCheckpoint {
            fingerprint,
            seed,
            samples,
            chunks,
        })
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointIo`] (class `Resource`) for I/O failures,
    /// [`CoreError::CheckpointParse`] for corrupted content.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|e| CoreError::CheckpointIo {
            message: format!("reading {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Validates this checkpoint against the identity of the run about
    /// to resume from it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] (class `Config`) when the
    /// fingerprint, seed or sample budget disagree — resuming would
    /// silently mix two different experiments.
    pub fn validate_for(&self, fingerprint: u64, seed: u64, samples: usize) -> Result<()> {
        if self.fingerprint != fingerprint || self.seed != seed || self.samples != samples {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "checkpoint belongs to a different run \
                     (fingerprint {:016x}/seed {}/samples {} vs expected {:016x}/{}/{})",
                    self.fingerprint, self.seed, self.samples, fingerprint, seed, samples
                ),
            });
        }
        Ok(())
    }
}

/// Thread-safe periodic checkpoint writer: workers [`record`] completed
/// chunks; every `every` new chunks the sidecar file is atomically
/// rewritten (write to `<path>.tmp`, then rename), so a killed process
/// leaves either the previous or the new complete checkpoint — never a
/// torn file.
///
/// [`record`]: McCheckpointer::record
#[derive(Debug)]
pub struct McCheckpointer {
    path: std::path::PathBuf,
    every: usize,
    inner: Mutex<McCheckpoint>,
    unflushed: AtomicUsize,
    /// First flush failure, if any, surfaced by [`McCheckpointer::finish`].
    write_error: Mutex<Option<String>>,
}

impl McCheckpointer {
    /// A checkpointer persisting `ckpt` to `path`, flushing every
    /// `every` newly recorded chunks (min 1).
    pub fn new(path: impl Into<std::path::PathBuf>, ckpt: McCheckpoint, every: usize) -> Self {
        McCheckpointer {
            path: path.into(),
            every: every.max(1),
            inner: Mutex::new(ckpt),
            unflushed: AtomicUsize::new(0),
            write_error: Mutex::new(None),
        }
    }

    /// The sidecar path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Records one completed chunk; flushes when the period is due.
    /// Safe to call from any worker; lock poisoning is recovered (the
    /// checkpoint map is always value-complete).
    pub fn record(&self, chunk: u64, delays: &[f64]) {
        let fresh = {
            let mut ckpt = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            ckpt.chunks.insert(chunk, delays.to_vec()).is_none()
        };
        if fresh && self.unflushed.fetch_add(1, Ordering::Relaxed) + 1 >= self.every {
            self.unflushed.store(0, Ordering::Relaxed);
            self.flush();
        }
    }

    /// Atomically rewrites the sidecar from the current state.
    pub fn flush(&self) {
        let text = {
            let ckpt = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            ckpt.render()
        };
        let tmp = self.path.with_extension("tmp");
        let result = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = result {
            let mut slot = self.write_error.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert_with(|| format!("writing {}: {e}", self.path.display()));
        }
    }

    /// Final flush; surfaces the first write failure of the whole run.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckpointIo`] when any flush failed.
    pub fn finish(&self) -> Result<()> {
        self.flush();
        let slot = self.write_error.lock().unwrap_or_else(|e| e.into_inner());
        match slot.as_ref() {
            Some(message) => Err(CoreError::CheckpointIo {
                message: message.clone(),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::marker::PhantomData;

    #[test]
    fn token_first_trip_wins() {
        let t = CancelToken::new();
        assert_eq!(t.cancelled(), None);
        t.cancel(BudgetKind::Paths);
        t.cancel(BudgetKind::Wall);
        assert_eq!(t.cancelled(), Some(BudgetKind::Paths));
    }

    #[test]
    fn isolation_quarantines_ordinary_panics() {
        let out = isolate(|| -> u32 { panic!("kernel blew up") });
        assert_eq!(out, Err("kernel blew up".to_string()));
        let ok = isolate(|| 7u32);
        assert_eq!(ok, Ok(7));
    }

    #[test]
    #[should_panic(expected = "memory allocation of 64 bytes failed")]
    fn fatal_payloads_escalate() {
        // The escape hatch: an allocation-failure payload must abort the
        // run, not be quarantined as a degraded item.
        let _ = isolate(|| -> u32 { panic!("memory allocation of 64 bytes failed") });
    }

    #[test]
    fn supervised_map_retries_deterministically() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..64).collect();
        let attempts = AtomicUsize::new(0);
        let sup = Supervisor::new(RunBudget::none(), 2);
        let run = supervised_map(&items, 4, &sup, None, |i, &x| {
            // Item 13 panics on its first two attempts, then succeeds.
            if i == 13 && attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            x * 2
        });
        assert_eq!(run.exhausted, None);
        assert_eq!(run.retries, 2);
        assert_eq!(run.panics, 2);
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(*o, ItemOutcome::Done(i * 2), "item {i}");
        }
    }

    #[test]
    fn supervised_map_quarantines_after_retry_budget() {
        let items: Vec<usize> = (0..16).collect();
        let sup = Supervisor::new(RunBudget::none(), 1);
        let run = supervised_map(&items, 2, &sup, None, |i, &x| {
            if i == 5 {
                panic!("permanent failure on item {i}");
            }
            x
        });
        assert_eq!(run.done_count(), 15);
        assert_eq!(run.retries, 1);
        match &run.outcomes[5] {
            ItemOutcome::Panicked { reason } => assert!(reason.contains("item 5")),
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn item_cap_truncates_deterministic_prefix() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let sup = Supervisor::new(RunBudget::none(), 0);
            let run = supervised_map(
                &items,
                threads,
                &sup,
                Some((10, BudgetKind::Paths)),
                |_, &x| x,
            );
            assert_eq!(run.exhausted, Some(BudgetKind::Paths));
            assert_eq!(run.done_count(), 10);
            for o in &run.outcomes[10..] {
                assert_eq!(*o, ItemOutcome::Skipped);
            }
        }
        // A cap that doesn't bite reports nothing.
        let sup = Supervisor::new(RunBudget::none(), 0);
        let run = supervised_map(&items, 2, &sup, Some((100, BudgetKind::Paths)), |_, &x| x);
        assert_eq!(run.exhausted, None);
    }

    #[test]
    fn wall_budget_trips_and_skips() {
        let items: Vec<usize> = (0..64).collect();
        let budget = RunBudget {
            max_wall_secs: Some(0.0),
            ..RunBudget::default()
        };
        let sup = Supervisor::new(budget, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let run = supervised_map(&items, 4, &sup, None, |_, &x| x);
        assert_eq!(run.exhausted, Some(BudgetKind::Wall));
        assert_eq!(run.done_count(), 0);
    }

    /// A stand-in result borrowing `K`'s reason vocabulary.
    struct Probe<K>(f64, PhantomData<K>);

    impl<K: KernelResult> KernelResult for Probe<K> {
        const NOUN: &'static str = K::NOUN;
        const NON_FINITE: &'static str = K::NON_FINITE;
        fn is_finite(&self) -> bool {
            self.0.is_finite()
        }
    }

    #[test]
    fn fan_out_splits_survivors_degraded_and_skipped() {
        use crate::analyze::PathAnalysis;
        use crate::sequential::SequentialCheck;
        // Of items 10..18, index 1 errs, index 2 goes non-finite, index
        // 4 panics on every attempt, and the cap skips indices 6 and 7.
        fn check<K: KernelResult + Send>(noun: &str, non_finite: &str) {
            let items: Vec<usize> = (10..18).collect();
            let budget = RunBudget {
                max_paths: Some(6),
                ..RunBudget::none()
            };
            for threads in [1, 3] {
                let sup = Supervisor::new(budget, 1);
                let out = fan_out(
                    &items,
                    threads,
                    &sup,
                    |i, &x| match i {
                        1 => Err(CoreError::InvalidConfig {
                            message: "bad item".into(),
                        }),
                        2 => Ok(Probe::<K>(f64::NAN, PhantomData)),
                        4 => panic!("boom"),
                        _ => Ok(Probe(x as f64, PhantomData)),
                    },
                    |index, &item, class, reason| (index, item, class, reason),
                )
                .expect("survivors");
                let values: Vec<f64> = out.survivors.iter().map(|p| p.0).collect();
                assert_eq!(values, [10.0, 13.0, 15.0], "input order");
                assert_eq!(
                    out.degraded,
                    [
                        (1, 11, ErrorClass::Config, "invalid config: bad item".into()),
                        (2, 12, ErrorClass::Numeric, non_finite.to_string()),
                        (
                            4,
                            14,
                            ErrorClass::Numeric,
                            format!("panic in {noun} analysis: boom")
                        ),
                    ]
                );
                assert_eq!(out.skipped, 2);
                assert_eq!(out.exhausted, Some(BudgetKind::Paths));
                assert_eq!((out.retries, out.panics), (1, 2));
            }
        }
        check::<PathAnalysis>(
            "path",
            "non-finite kernel result (mean, σ or confidence point)",
        );
        check::<SequentialCheck>(
            "check",
            "non-finite kernel result (slack moments or PDF cells)",
        );
    }

    #[test]
    fn fan_out_types_an_empty_survivor_set() {
        use crate::analyze::PathAnalysis;
        let run = |cap: Option<usize>, items: &[usize]| {
            let budget = RunBudget {
                max_paths: cap,
                ..RunBudget::none()
            };
            let sup = Supervisor::new(budget, 0);
            fan_out(
                items,
                2,
                &sup,
                |_, &x| match x {
                    0 => Err(CoreError::EmptyCircuit),
                    _ => Ok(Probe::<PathAnalysis>(f64::INFINITY, PhantomData)),
                },
                |index, _, _, _| index,
            )
        };
        // Everything quarantined, no budget.
        assert!(matches!(
            run(None, &[0, 1, 2]),
            Err(CoreError::AllPathsDegraded { total: 3 })
        ));
        // The first item is quarantined and the cap skips the rest: the
        // tripped budget is reported ahead of the quarantine.
        assert!(matches!(
            run(Some(1), &[0, 1, 2]),
            Err(CoreError::BudgetExhausted {
                budget: BudgetKind::Paths
            })
        ));
        // No items at all is an empty success, not an error.
        let empty = run(None, &[]).expect("no items");
        assert!(empty.survivors.is_empty() && empty.degraded.is_empty());
    }

    #[test]
    fn checkpoint_roundtrip_is_lossless() {
        let mut c = McCheckpoint::new(0xDEAD_BEEF, 42, 12_288);
        c.chunks.insert(0, vec![1.5e-10, -2.75e-11, 3.125e-12]);
        c.chunks
            .insert(2, vec![f64::MIN_POSITIVE, 0.1 + 0.2, 1.0 / 3.0]);
        let parsed = McCheckpoint::parse(&c.render()).expect("roundtrip");
        assert_eq!(parsed, c);
        for (idx, delays) in &c.chunks {
            let got = &parsed.chunks[idx];
            for (a, b) in delays.iter().zip(got) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn checkpoint_rejects_corruption_and_versions() {
        let bad = |text: &str| match McCheckpoint::parse(text) {
            Err(e @ CoreError::CheckpointParse { .. }) => {
                assert_eq!(e.classify(), crate::ErrorClass::Parse);
            }
            other => panic!("expected CheckpointParse, got {other:?}"),
        };
        bad("");
        bad("not a checkpoint at all\n");
        bad("statim-mc-ckpt v999\nfingerprint 0\nseed 0\nsamples 0\n");
        bad("statim-mc-ckpt v1\nfingerprint zz\nseed 0\nsamples 0\n");
        bad("statim-mc-ckpt v1\nfingerprint 0\nseed 0\nsamples 0\nchunk 0 2 0000000000000000\n");
        bad("statim-mc-ckpt v1\nfingerprint 0\nseed 0\nsamples 0\nchunk 0 1 7ff8000000000000\n");
        bad("statim-mc-ckpt v1\nfingerprint 0\nseed 0\nsamples 0\n\
             chunk 0 1 0000000000000000\nchunk 0 1 0000000000000000\n");
        bad("statim-mc-ckpt v1\nfingerprint 0\nseed 0\nsamples 0\nwat 1 2\n");
    }

    #[test]
    fn checkpoint_validation_catches_mismatches() {
        let c = McCheckpoint::new(1, 2, 3);
        assert!(c.validate_for(1, 2, 3).is_ok());
        for (f, s, n) in [(9, 2, 3), (1, 9, 3), (1, 2, 9)] {
            match c.validate_for(f, s, n) {
                Err(e @ CoreError::InvalidConfig { .. }) => {
                    assert_eq!(e.classify(), crate::ErrorClass::Config);
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn checkpointer_flushes_atomically() {
        let dir = std::env::temp_dir().join(format!("statim-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("run.ckpt");
        let ck = McCheckpointer::new(&path, McCheckpoint::new(7, 1, 8192), 1);
        ck.record(0, &[1.0, 2.0]);
        ck.record(1, &[3.0]);
        ck.finish().expect("finish");
        let loaded = McCheckpoint::load(&path).expect("load");
        assert_eq!(loaded.chunks.len(), 2);
        assert_eq!(loaded.chunks[&1], vec![3.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        let a = fnv1a64([1, 2, 3]);
        assert_eq!(a, fnv1a64([1, 2, 3]));
        assert_ne!(a, fnv1a64([3, 2, 1]));
        assert_ne!(a, fnv1a64([1, 2]));
    }
}
