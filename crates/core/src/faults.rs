//! Deterministic fault injection for adversarial testing.
//!
//! A [`FaultPlan`] describes a set of faults to inject into an SSTA run
//! — NaN kernels on chosen paths, a degenerate variance, a poisoned
//! cache shard, a truncated benchmark file. Plans are parsed from the
//! `--fault-plan` CLI spec and installed on [`SstaConfig::faults`].
//!
//! # Determinism contract
//!
//! Everything in this repo is bit-identical for any thread count and
//! cache state, and fault injection is no exception. Faults therefore
//! never key on execution order (global counters, time, rng state
//! advanced by workers): path-level faults target **enumeration
//! indices**, which are stable, and the seeded random variant derives
//! each path's fate purely from `splitmix64(seed ^ index)`. Running the
//! same plan at 1 or 16 threads degrades exactly the same paths and
//! leaves every surviving kernel bit-identical to a fault-free run.
//!
//! The module is compiled only under
//! `cfg(any(test, feature = "fault-injection"))`; release builds without
//! the feature carry none of this machinery.
//!
//! [`SstaConfig::faults`]: crate::engine::SstaConfig::faults

use crate::analyze::{AnalysisSettings, PathAnalysis};
use crate::{CoreError, Result};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Poison the scalar kernel results (mean, σ, confidence point) of
    /// the paths at these enumeration indices with NaN.
    NanPath {
        /// Targeted enumeration indices.
        paths: Vec<usize>,
    },
    /// Poison each path's kernel with probability `percent`/100, decided
    /// per index by `splitmix64(seed ^ index)` — seeded, not stateful,
    /// so the faulted set is identical for any thread count.
    NanPathRandom {
        /// Poisoning probability in percent (0–100).
        percent: u64,
    },
    /// Poison one density cell of the total-delay PDF of the path at
    /// enumeration index `path` (the "no NaN escapes a PDF" probe).
    NanCell {
        /// Targeted enumeration index.
        path: usize,
        /// Density cell to poison (taken modulo the PDF length).
        cell: usize,
    },
    /// Drive the intra-die kernel of these paths through a degenerate
    /// (negative) variance, producing a genuine `Numeric` error from the
    /// real kernel rather than a synthetic one.
    ZeroVariance {
        /// Targeted enumeration indices.
        paths: Vec<usize>,
    },
    /// Make every inter-PDF cache lookup hashing to this shard fail,
    /// simulating a corrupted cache stripe. No effect when the cache is
    /// disabled.
    PoisonCacheShard {
        /// Shard index (`0..AnalysisCache::shard_count()`).
        shard: usize,
    },
    /// Truncate benchmark file text to this many bytes before parsing
    /// (applied by the CLI loader via [`FaultPlan::apply_to_text`]).
    TruncateBenchFile {
        /// Byte budget (clamped to a char boundary).
        bytes: usize,
    },
    /// Panic inside the per-path analysis of these enumeration indices,
    /// on every attempt — the supervisor must quarantine them into
    /// `SstaReport::degraded`.
    PanicPath {
        /// Targeted enumeration indices.
        paths: Vec<usize>,
    },
    /// Panic inside the Monte-Carlo chunk at this chunk index. With
    /// `times = Some(n)` the fault disarms after `n` firings (so a
    /// retried chunk succeeds and the run stays bit-identical to a clean
    /// one); `None` panics on every attempt (quarantine). Single-target
    /// by construction: the per-fault fire counter is only ever advanced
    /// by one chunk, and retries run on the same worker, so the
    /// count-based disarm cannot race across threads.
    PanicChunk {
        /// Targeted chunk index.
        chunk: u64,
        /// Firing budget; `None` = always.
        times: Option<u64>,
    },
    /// Sleep this many milliseconds before computing the Monte-Carlo
    /// chunk at this chunk index — the deterministic way to make a wall
    /// budget trip in tests and CI smokes.
    SlowChunk {
        /// Targeted chunk index.
        chunk: u64,
        /// Delay in milliseconds.
        ms: u64,
    },
}

/// A seeded, thread-safe set of faults plus per-fault fire counters.
///
/// Parse one from a spec string (see [`FromStr`] impl) or build it with
/// [`FaultPlan::new`], then install it with
/// [`SstaConfig::with_faults`](crate::engine::SstaConfig::with_faults).
///
/// Spec grammar: `[seed=N;]fault[@args];fault[@args];...`
///
/// | spec | fault |
/// |------|-------|
/// | `nan-path@1,3,5` | [`Fault::NanPath`] on indices 1, 3, 5 |
/// | `nan-path-random@25` | [`Fault::NanPathRandom`] at 25 % |
/// | `nan-cell@2:17` | [`Fault::NanCell`] path 2, cell 17 |
/// | `zero-variance` / `zero-variance@0,4` | [`Fault::ZeroVariance`] (bare = index 0) |
/// | `poison-cache-shard@3` | [`Fault::PoisonCacheShard`] |
/// | `truncate-bench@64` | [`Fault::TruncateBenchFile`] |
/// | `panic-path@1,3` | [`Fault::PanicPath`] on indices 1, 3 |
/// | `panic-chunk@2` / `panic-chunk@2:3` | [`Fault::PanicChunk`] chunk 2 (bare = every attempt; `:3` = first 3) |
/// | `slow-chunk@0:1500` | [`Fault::SlowChunk`] chunk 0, 1500 ms |
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
    fired: Vec<AtomicU64>,
}

impl Clone for FaultPlan {
    fn clone(&self) -> Self {
        FaultPlan {
            seed: self.seed,
            faults: self.faults.clone(),
            fired: self
                .fired
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        // Fire counters are runtime diagnostics, not identity.
        self.seed == other.seed && self.faults == other.faults
    }
}

/// SplitMix64: a tiny, high-quality stateless mixer — each path's fate
/// under [`Fault::NanPathRandom`] is `splitmix64(seed ^ index)`, no
/// shared state to race on.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with the given seed and faults.
    pub fn new(seed: u64, faults: Vec<Fault>) -> Self {
        let fired = faults.iter().map(|_| AtomicU64::new(0)).collect();
        FaultPlan {
            seed,
            faults,
            fired,
        }
    }

    /// The plan's seed (drives [`Fault::NanPathRandom`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's faults, in spec order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// How many times each fault has fired, in spec order.
    pub fn fired(&self) -> Vec<u64> {
        self.fired
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    fn fire(&self, fault_idx: usize) {
        self.fired[fault_idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Whether [`Fault::NanPathRandom`] with `percent` hits `index`.
    fn random_hits(&self, percent: u64, index: usize) -> bool {
        splitmix64(self.seed ^ index as u64) % 100 < percent.min(100)
    }

    /// Applies the path-level faults to the analysis of the path at
    /// enumeration `index`. Untargeted paths pass through untouched
    /// (bit-identical — the analysis is moved, never recomputed).
    ///
    /// # Errors
    ///
    /// [`Fault::ZeroVariance`] returns the real intra-kernel's `Numeric`
    /// error for targeted paths; the engine quarantines it.
    pub fn apply_to_path(
        &self,
        index: usize,
        mut analysis: PathAnalysis,
        settings: &AnalysisSettings,
    ) -> Result<PathAnalysis> {
        for (fi, fault) in self.faults.iter().enumerate() {
            match fault {
                Fault::NanPath { paths } if paths.contains(&index) => {
                    self.fire(fi);
                    analysis.mean = f64::NAN;
                    analysis.sigma = f64::NAN;
                    analysis.confidence_point = f64::NAN;
                }
                Fault::NanPathRandom { percent } if self.random_hits(*percent, index) => {
                    self.fire(fi);
                    analysis.mean = f64::NAN;
                    analysis.sigma = f64::NAN;
                    analysis.confidence_point = f64::NAN;
                }
                Fault::NanCell { path, cell } if *path == index => {
                    self.fire(fi);
                    #[cfg(feature = "fault-injection")]
                    {
                        analysis.total_pdf = analysis.total_pdf.with_poisoned_cell(*cell);
                    }
                    #[cfg(not(feature = "fault-injection"))]
                    {
                        // Without the stats backdoor (core's own test
                        // builds), poison the derived moment instead —
                        // same quarantine outcome.
                        let _ = cell;
                        analysis.mean = f64::NAN;
                    }
                }
                Fault::ZeroVariance { paths } if paths.contains(&index) => {
                    self.fire(fi);
                    // A negative variance trips the real intra kernel's
                    // domain check — a genuine Numeric error, not a mock.
                    crate::intra::intra_pdf(
                        -f64::MIN_POSITIVE,
                        settings.vars.trunc_k,
                        settings.quality_intra,
                    )?;
                    unreachable!("negative variance must be rejected by intra_pdf");
                }
                _ => {}
            }
        }
        Ok(analysis)
    }

    /// Whether a [`Fault::PanicPath`] targets enumeration `index`.
    /// Fires the counter and returns the panic message to raise; the
    /// caller panics *inside* its supervised closure so the supervisor
    /// quarantines the path.
    pub fn panic_path(&self, index: usize) -> Option<String> {
        self.faults.iter().enumerate().find_map(|(fi, f)| match f {
            Fault::PanicPath { paths } if paths.contains(&index) => {
                self.fire(fi);
                Some(format!("injected panic-path@{index}"))
            }
            _ => None,
        })
    }

    /// Whether a [`Fault::PanicChunk`] should fire for Monte-Carlo
    /// chunk `chunk` on this attempt. Honours the `times` budget via the
    /// fault's fire counter (previous count < times → fire), so a
    /// `panic-chunk@c:1` panics exactly once and the retry succeeds.
    pub fn panic_chunk(&self, chunk: u64) -> Option<String> {
        self.faults.iter().enumerate().find_map(|(fi, f)| match f {
            Fault::PanicChunk { chunk: c, times } if *c == chunk => {
                let prior = self.fired[fi].fetch_add(1, Ordering::Relaxed);
                match times {
                    Some(t) if prior >= *t => {
                        // Disarmed: undo the probe so `fired()` keeps
                        // reporting actual firings.
                        self.fired[fi].fetch_sub(1, Ordering::Relaxed);
                        None
                    }
                    _ => Some(format!("injected panic-chunk@{chunk}")),
                }
            }
            _ => None,
        })
    }

    /// The injected delay for Monte-Carlo chunk `chunk`, if a
    /// [`Fault::SlowChunk`] targets it. Fires the counter; the caller
    /// sleeps before computing the chunk.
    pub fn slow_chunk_ms(&self, chunk: u64) -> Option<u64> {
        self.faults.iter().enumerate().find_map(|(fi, f)| match f {
            Fault::SlowChunk { chunk: c, ms } if *c == chunk => {
                self.fire(fi);
                Some(*ms)
            }
            _ => None,
        })
    }

    /// The shard index a [`Fault::PoisonCacheShard`] targets, if any
    /// (the engine arms the cache with it after the σ_C analysis).
    pub fn poisoned_inter_shard(&self) -> Option<usize> {
        self.faults.iter().enumerate().find_map(|(fi, f)| match f {
            Fault::PoisonCacheShard { shard } => {
                self.fire(fi);
                Some(*shard)
            }
            _ => None,
        })
    }

    /// Applies [`Fault::TruncateBenchFile`] to benchmark text: returns
    /// the longest prefix of at most `bytes` bytes that ends on a char
    /// boundary. Without that fault, returns `text` unchanged.
    pub fn apply_to_text<'a>(&self, text: &'a str) -> &'a str {
        for (fi, f) in self.faults.iter().enumerate() {
            if let Fault::TruncateBenchFile { bytes } = f {
                let mut cut = (*bytes).min(text.len());
                while cut > 0 && !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                self.fire(fi);
                return &text[..cut];
            }
        }
        text
    }
}

impl FromStr for FaultPlan {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self> {
        fn bad(msg: impl Into<String>) -> CoreError {
            CoreError::InvalidConfig {
                message: format!("fault-plan: {}", msg.into()),
            }
        }
        fn indices(args: &str) -> Result<Vec<usize>> {
            args.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| {
                    t.parse::<usize>()
                        .map_err(|_| bad(format!("`{t}` is not a path index")))
                })
                .collect()
        }

        let mut seed = 0u64;
        let mut faults = Vec::new();
        for (i, part) in s.split(';').map(str::trim).enumerate() {
            if part.is_empty() {
                continue;
            }
            if let Some(v) = part.strip_prefix("seed=") {
                if i != 0 {
                    return Err(bad("seed= must be the first clause"));
                }
                seed = v
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| bad(format!("`{v}` is not a u64 seed")))?;
                continue;
            }
            let (name, args) = match part.split_once('@') {
                Some((n, a)) => (n.trim(), Some(a.trim())),
                None => (part, None),
            };
            let fault = match name {
                "nan-path" => {
                    let paths = indices(args.ok_or_else(|| bad("nan-path needs @indices"))?)?;
                    if paths.is_empty() {
                        return Err(bad("nan-path needs at least one index"));
                    }
                    Fault::NanPath { paths }
                }
                "nan-path-random" => {
                    let a = args.ok_or_else(|| bad("nan-path-random needs @percent"))?;
                    let percent = a
                        .parse::<u64>()
                        .map_err(|_| bad(format!("`{a}` is not a percent")))?;
                    if percent > 100 {
                        return Err(bad(format!("percent {percent} exceeds 100")));
                    }
                    Fault::NanPathRandom { percent }
                }
                "nan-cell" => {
                    let a = args.ok_or_else(|| bad("nan-cell needs @path:cell"))?;
                    let (p, c) = a
                        .split_once(':')
                        .ok_or_else(|| bad("nan-cell args are path:cell"))?;
                    let path = p
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad(format!("`{p}` is not a path index")))?;
                    let cell = c
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad(format!("`{c}` is not a cell index")))?;
                    Fault::NanCell { path, cell }
                }
                "zero-variance" => {
                    let paths = match args {
                        Some(a) => indices(a)?,
                        None => vec![0],
                    };
                    if paths.is_empty() {
                        return Err(bad("zero-variance needs at least one index"));
                    }
                    Fault::ZeroVariance { paths }
                }
                "poison-cache-shard" => {
                    let a = args.ok_or_else(|| bad("poison-cache-shard needs @shard"))?;
                    let shard = a
                        .parse::<usize>()
                        .map_err(|_| bad(format!("`{a}` is not a shard index")))?;
                    let n = crate::cache::AnalysisCache::shard_count();
                    if shard >= n {
                        return Err(bad(format!("shard {shard} out of range 0..{n}")));
                    }
                    Fault::PoisonCacheShard { shard }
                }
                "truncate-bench" => {
                    let a = args.ok_or_else(|| bad("truncate-bench needs @bytes"))?;
                    let bytes = a
                        .parse::<usize>()
                        .map_err(|_| bad(format!("`{a}` is not a byte count")))?;
                    Fault::TruncateBenchFile { bytes }
                }
                "panic-path" => {
                    let paths = indices(args.ok_or_else(|| bad("panic-path needs @indices"))?)?;
                    if paths.is_empty() {
                        return Err(bad("panic-path needs at least one index"));
                    }
                    Fault::PanicPath { paths }
                }
                "panic-chunk" => {
                    let a = args.ok_or_else(|| bad("panic-chunk needs @chunk[:times]"))?;
                    let (c, t) = match a.split_once(':') {
                        Some((c, t)) => (c.trim(), Some(t.trim())),
                        None => (a, None),
                    };
                    let chunk = c
                        .parse::<u64>()
                        .map_err(|_| bad(format!("`{c}` is not a chunk index")))?;
                    let times = match t {
                        Some(t) => {
                            let n = t
                                .parse::<u64>()
                                .map_err(|_| bad(format!("`{t}` is not a firing count")))?;
                            if n == 0 {
                                return Err(bad("panic-chunk :times must be at least 1"));
                            }
                            Some(n)
                        }
                        None => None,
                    };
                    Fault::PanicChunk { chunk, times }
                }
                "slow-chunk" => {
                    let a = args.ok_or_else(|| bad("slow-chunk needs @chunk:ms"))?;
                    let (c, m) = a
                        .split_once(':')
                        .ok_or_else(|| bad("slow-chunk args are chunk:ms"))?;
                    let chunk = c
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| bad(format!("`{c}` is not a chunk index")))?;
                    let ms = m
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| bad(format!("`{m}` is not a millisecond count")))?;
                    Fault::SlowChunk { chunk, ms }
                }
                other => return Err(bad(format!("unknown fault `{other}`"))),
            };
            faults.push(fault);
        }
        if faults.is_empty() {
            return Err(bad("no faults in spec"));
        }
        Ok(FaultPlan::new(seed, faults))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_fault_kind() -> Result<()> {
        let plan: FaultPlan =
            "seed=7;nan-path@1,3,5;nan-path-random@25;nan-cell@2:17;zero-variance;poison-cache-shard@3;truncate-bench@64"
                .parse()?;
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.faults().len(), 6);
        assert_eq!(
            plan.faults()[0],
            Fault::NanPath {
                paths: vec![1, 3, 5],
            }
        );
        assert_eq!(plan.faults()[3], Fault::ZeroVariance { paths: vec![0] });
        assert_eq!(plan.poisoned_inter_shard(), Some(3));
        assert_eq!(plan.faults()[5], Fault::TruncateBenchFile { bytes: 64 });
        assert_eq!(plan.apply_to_text(&"x".repeat(100)).len(), 64);
        Ok(())
    }

    #[test]
    fn parses_supervision_faults() -> Result<()> {
        let plan: FaultPlan = "panic-path@1,3;panic-chunk@2:3;slow-chunk@0:1500".parse()?;
        assert_eq!(plan.faults()[0], Fault::PanicPath { paths: vec![1, 3] });
        assert_eq!(
            plan.faults()[1],
            Fault::PanicChunk {
                chunk: 2,
                times: Some(3),
            }
        );
        assert_eq!(plan.faults()[2], Fault::SlowChunk { chunk: 0, ms: 1500 });
        let bare: FaultPlan = "panic-chunk@2".parse()?;
        assert_eq!(
            bare.faults()[0],
            Fault::PanicChunk {
                chunk: 2,
                times: None,
            }
        );
        Ok(())
    }

    #[test]
    fn panic_chunk_disarms_after_times() {
        let plan = FaultPlan::new(
            0,
            vec![Fault::PanicChunk {
                chunk: 2,
                times: Some(2),
            }],
        );
        assert!(plan.panic_chunk(0).is_none(), "untargeted chunk");
        assert!(plan.panic_chunk(2).is_some());
        assert!(plan.panic_chunk(2).is_some());
        assert!(plan.panic_chunk(2).is_none(), "disarmed after 2 firings");
        assert_eq!(plan.fired(), vec![2]);
        let always = FaultPlan::new(
            0,
            vec![Fault::PanicChunk {
                chunk: 1,
                times: None,
            }],
        );
        for _ in 0..5 {
            assert!(always.panic_chunk(1).is_some());
        }
        assert_eq!(always.fired(), vec![5]);
    }

    #[test]
    fn panic_path_and_slow_chunk_target_by_index() {
        let plan = FaultPlan::new(
            0,
            vec![
                Fault::PanicPath { paths: vec![4] },
                Fault::SlowChunk { chunk: 3, ms: 250 },
            ],
        );
        assert!(plan.panic_path(0).is_none());
        let msg = plan.panic_path(4).expect("targeted");
        assert!(msg.contains("panic-path@4"));
        assert_eq!(plan.slow_chunk_ms(0), None);
        assert_eq!(plan.slow_chunk_ms(3), Some(250));
        assert_eq!(plan.fired(), vec![1, 1]);
    }

    #[test]
    fn rejects_malformed_specs() {
        for spec in [
            "",
            "wat",
            "nan-path",
            "nan-path@x",
            "nan-path-random@101",
            "nan-cell@5",
            "poison-cache-shard@99",
            "truncate-bench@many",
            "nan-path@1;seed=3",
            "panic-path",
            "panic-chunk@x",
            "panic-chunk@2:0",
            "slow-chunk@2",
            "slow-chunk@2:fast",
        ] {
            assert!(
                spec.parse::<FaultPlan>().is_err(),
                "spec `{spec}` should be rejected"
            );
        }
    }

    #[test]
    fn random_targeting_is_pure_in_seed_and_index() {
        let a = FaultPlan::new(42, vec![Fault::NanPathRandom { percent: 30 }]);
        let b = FaultPlan::new(42, vec![Fault::NanPathRandom { percent: 30 }]);
        let hits_a: Vec<bool> = (0..64).map(|i| a.random_hits(30, i)).collect();
        let hits_b: Vec<bool> = (0..64).map(|i| b.random_hits(30, i)).collect();
        assert_eq!(hits_a, hits_b);
        assert!(hits_a.iter().any(|&h| h), "30% of 64 should hit something");
        assert!(!hits_a.iter().all(|&h| h));
        let other = FaultPlan::new(43, vec![Fault::NanPathRandom { percent: 30 }]);
        let hits_c: Vec<bool> = (0..64).map(|i| other.random_hits(30, i)).collect();
        assert_ne!(hits_a, hits_c, "different seeds should differ");
    }

    #[test]
    fn truncation_respects_char_boundaries() {
        let plan = FaultPlan::new(0, vec![Fault::TruncateBenchFile { bytes: 5 }]);
        // 'é' is 2 bytes; cutting at 5 lands mid-char and must back off.
        let cut = plan.apply_to_text("abcdéf");
        assert_eq!(cut, "abcd");
        assert_eq!(plan.fired(), vec![1]);
        let noop = FaultPlan::new(0, vec![Fault::NanPath { paths: vec![0] }]);
        assert_eq!(noop.apply_to_text("abc"), "abc");
    }
}
