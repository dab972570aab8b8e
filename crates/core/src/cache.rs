//! Shared, thread-safe memoization of the per-path analysis kernels.
//!
//! The paper's run-time discussion (and our own [`RunProfile`]) shows the
//! per-path probabilistic analysis dominating the flow: κ near-critical
//! paths each pay an inter-die kernel of an `O(Q²)` range pass and `Q³`
//! multiply-add-bin steps over tables of 2·Q² `voltage_kernel` calls,
//! which each thread builds once per settings (`Q = QUALITYinter`; see
//! [`inter`](crate::inter)). Yet by eq. (13)
//! the inter-die delay of a path depends **only** on its summed
//! coefficients `A = Σαᵢ, B = Σβᵢ`, and by eq. (14) the closed-form intra
//! PDF depends only on the path variance — so structurally similar paths
//! (the bushy c499/c1355 path sets especially) recompute bit-identical
//! PDFs thousands of times. This module caches those kernels:
//!
//! * **inter-die PDFs**, keyed by the exact f64 bit patterns of
//!   `(A, B)` plus the settings fingerprint;
//! * **closed-form intra PDFs**, keyed by the eq. (14) variance bits;
//! * **the corner worst-case operating point**, computed once per
//!   settings fingerprint instead of once per path.
//!
//! # Store vs. view
//!
//! The entries live in a [`KernelStore`] — an `Arc`-shareable,
//! optionally capacity-bounded container that outlives any single run.
//! An [`AnalysisCache`] is a cheap *view* of a store scoped to one
//! `(technology, settings)` fingerprint; [`AnalysisCache::new`] wraps a
//! private store (the one-shot CLI path), while a resident daemon keeps
//! one process-wide store and scopes a view per job
//! ([`AnalysisCache::with_store`]), so the kernels stay warm across
//! jobs. Keys always embed the fingerprint, so views with different
//! settings never collide inside a shared store.
//!
//! # Determinism
//!
//! The cache is *bit-identical by construction*. Keys carry the exact bit
//! patterns of every input that varies between paths; every input that
//! does not vary (technology nominals, variation σs, layer weights,
//! marginal shape, QUALITY discretizations, truncation, corner) is pinned
//! by the settings [fingerprint]. The kernels are pure functions, so a
//! hit returns precisely the `Pdf` a fresh recompute would produce —
//! which is why the PR-1 determinism contract ("the same report for any
//! thread count") extends to "cache on or off" and is tested as such in
//! `tests/determinism.rs`. Capacity bounding preserves this: an evicted
//! entry is simply recomputed on the next lookup, bit-identically.
//!
//! # Eviction
//!
//! A resident process must not let the maps grow without bound, so each
//! shard optionally enforces a capacity with a **second-chance (clock)**
//! policy: every hit sets a referenced bit; when a full shard needs
//! room, the clock hand sweeps its FIFO ring, clearing referenced bits
//! and evicting the first entry found clear. O(1) amortized, no
//! timestamps, and recently re-used kernels survive a sweep.
//!
//! # Concurrency
//!
//! Maps are sharded and lock-striped on the key hash so the
//! [`parallel::run_pool`] fan-out scales: concurrent lookups of different
//! keys almost never contend, and the `O(Q³)` kernel itself always runs
//! *outside* any lock. Two workers racing on the same missing key may
//! both compute it; both results are bit-identical, the first insert
//! wins, and the hit/miss counters still satisfy `hits + misses =
//! lookups`. The hit/miss *split* is therefore a diagnostic (it can shift
//! with scheduling), never an input to any result.
//!
//! [`RunProfile`]: crate::engine::RunProfile
//! [`parallel::run_pool`]: crate::parallel::run_pool
//! [fingerprint]: AnalysisCache::fingerprint

use crate::analyze::AnalysisSettings;
use crate::correlation::VarianceSplit;
use crate::Result;
use statim_process::tech::{AlphaBeta, OperatingPoint};
use statim_process::{Param, Technology};
use statim_stats::{Marginal, Pdf};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of lock stripes per kernel map. A power of two so the shard
/// index is a mask; 16 stripes keep contention negligible for any pool
/// size `run_pool` will realistically spawn.
const SHARD_COUNT: usize = 16;

/// 64-bit FNV-1a over a byte stream — a small, deterministic hash used
/// for the settings fingerprint and shard selection (the std `HashMap`
/// hasher is randomized per process, which is fine for bucketing but
/// useless for a stable fingerprint).
pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new(seed);
    h.update(bytes);
    h.0
}

/// A running FNV-1a hash that text can be written into, so a serializer
/// streams into the hash without building its output first.
pub(crate) struct Fnv1a(pub(crate) u64);

impl Fnv1a {
    /// A hash continuing from `seed`; seed 0 starts at the offset basis,
    /// as [`fnv1a`] does.
    pub(crate) fn new(seed: u64) -> Fnv1a {
        Fnv1a(if seed == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            seed
        })
    }

    fn update(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Folds an `f64`'s exact bit pattern into a running FNV-1a hash.
pub(crate) fn fold_f64(seed: u64, v: f64) -> u64 {
    fnv1a(seed, &v.to_bits().to_le_bytes())
}

pub(crate) fn fold_u64(seed: u64, v: u64) -> u64 {
    fnv1a(seed, &v.to_le_bytes())
}

/// Fingerprint of everything the kernels read besides their per-path
/// key: technology nominals, variation σs and truncation, layer-weight
/// split, marginal shape, QUALITY discretizations and the corner. Two
/// runs with equal fingerprints compute identical kernels for identical
/// keys.
pub fn settings_fingerprint(tech: &Technology, settings: &AnalysisSettings) -> u64 {
    let mut h = 0u64;
    // Technology: the inter kernel reads the nominal point and ε_ox.
    for p in Param::ALL {
        h = fold_f64(h, tech.nominal(p));
    }
    h = fold_f64(h, tech.eps_ox);
    // Variations: per-parameter σ and the truncation multiple.
    for p in Param::ALL {
        h = fold_f64(h, settings.vars.sigma.get(p));
    }
    h = fold_f64(h, settings.vars.trunc_k);
    // Layer model: structure plus the exact split.
    h = fold_u64(h, settings.layers.spatial_layers as u64);
    h = fold_u64(h, u64::from(settings.layers.random_layer));
    match &settings.layers.split {
        VarianceSplit::Equal => h = fold_u64(h, 1),
        VarianceSplit::InterShare(s) => {
            h = fold_u64(h, 2);
            h = fold_f64(h, *s);
        }
        VarianceSplit::Custom(w) => {
            h = fold_u64(h, 3);
            for &x in w {
                h = fold_f64(h, x);
            }
        }
    }
    // Marginal shape, convolution backend, discretizations, corner.
    // The backend tag keeps grid- and FFT-computed kernels apart in a
    // shared store: the densities differ at round-off level, and a
    // cache hit must return exactly what the active backend would
    // compute.
    h = fold_u64(
        h,
        match settings.marginal {
            Marginal::Gaussian => 0,
            Marginal::Uniform => 1,
            Marginal::Triangular => 2,
        },
    );
    h = fold_u64(h, settings.backend.tag());
    h = fold_u64(h, settings.quality_intra as u64);
    h = fold_u64(h, settings.quality_inter as u64);
    h = fold_f64(h, settings.corner.k);
    h
}

/// Inter-die kernel key: the exact bits of the path's summed α/β
/// coefficients plus the settings fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct InterKey {
    fingerprint: u64,
    alpha_bits: u64,
    beta_bits: u64,
}

impl InterKey {
    fn shard(&self) -> usize {
        let h = fold_u64(fold_u64(self.fingerprint, self.alpha_bits), self.beta_bits);
        (h as usize) & (SHARD_COUNT - 1)
    }
}

/// Intra-die closed-form kernel key: the exact bits of the eq. (14)
/// variance plus the settings fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IntraKey {
    fingerprint: u64,
    variance_bits: u64,
}

impl IntraKey {
    fn shard(&self) -> usize {
        (fold_u64(self.fingerprint, self.variance_bits) as usize) & (SHARD_COUNT - 1)
    }
}

/// One cached PDF plus its second-chance referenced bit.
struct Slot {
    pdf: Pdf,
    referenced: bool,
}

/// One lock stripe of a kernel map: the entries plus the clock ring the
/// second-chance hand sweeps. `ring` holds exactly the keys of `map`
/// (entries are inserted and removed from both together).
struct Shard<K> {
    map: HashMap<K, Slot>,
    ring: VecDeque<K>,
}

impl<K: Eq + Hash + Copy> Shard<K> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            ring: VecDeque::new(),
        }
    }

    /// Evicts entries until there is room for one more under `cap`,
    /// second-chance style: referenced entries get their bit cleared and
    /// a trip to the back of the ring; the first unreferenced entry goes.
    fn make_room(&mut self, cap: usize, evictions: &AtomicU64) {
        while self.map.len() >= cap {
            let Some(key) = self.ring.pop_front() else {
                return; // ring empty ⇒ map empty ⇒ nothing to evict
            };
            match self.map.get_mut(&key) {
                Some(slot) if slot.referenced => {
                    slot.referenced = false;
                    self.ring.push_back(key);
                }
                _ => {
                    self.map.remove(&key);
                    evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// One lock-striped PDF map with hit/miss/eviction accounting and an
/// optional per-shard capacity.
struct ShardedPdfMap<K> {
    shards: Vec<Mutex<Shard<K>>>,
    /// Maximum entries per shard (`None` = unbounded).
    shard_cap: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Copy> ShardedPdfMap<K> {
    fn new(shard_cap: Option<usize>) -> Self {
        ShardedPdfMap {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(Shard::new())).collect(),
            shard_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached PDF for `key`, or computes, stores and returns
    /// it. `compute` runs outside the shard lock.
    fn get_or_compute(
        &self,
        key: K,
        shard: usize,
        compute: impl FnOnce() -> Result<Pdf>,
    ) -> Result<Pdf> {
        // A poisoned shard means some worker panicked mid-insert; the
        // map itself is still a valid cache (worst case a missing
        // entry), so recover the guard instead of cascading the panic.
        let stripe = &self.shards[shard];
        if let Some(slot) = stripe
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .map
            .get_mut(&key)
        {
            slot.referenced = true;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(slot.pdf.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let pdf = compute()?;
        let mut guard = stripe
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !guard.map.contains_key(&key) {
            if let Some(cap) = self.shard_cap {
                guard.make_room(cap, &self.evictions);
            }
            guard.map.insert(
                key,
                Slot {
                    pdf: pdf.clone(),
                    referenced: false,
                },
            );
            guard.ring.push_back(key);
        }
        Ok(pdf)
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .map
                    .len()
            })
            .sum()
    }
}

/// Hit/miss/occupancy counters of a [`KernelStore`], carried through
/// [`RunProfile`] into [`SstaReport`].
///
/// Invariant: `hits() + misses() == lookups()` per kernel and in total.
/// The hit/miss split is diagnostic — concurrent workers racing on the
/// same cold key may each count a miss — but never affects any report
/// number. When the store is shared across runs (daemon mode), the
/// engine reports the per-run *delta* of these counters
/// ([`CacheStats::since`]); `entries` is always the absolute occupancy.
///
/// [`RunProfile`]: crate::engine::RunProfile
/// [`SstaReport`]: crate::engine::SstaReport
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Inter-die PDF lookups served from the cache.
    pub inter_hits: u64,
    /// Inter-die PDF lookups that computed the kernel.
    pub inter_misses: u64,
    /// Closed-form intra PDF lookups served from the cache.
    pub intra_hits: u64,
    /// Closed-form intra PDF lookups that computed the kernel.
    pub intra_misses: u64,
    /// Corner-point lookups served from the once-per-fingerprint value.
    pub corner_hits: u64,
    /// Corner-point lookups that computed the point (at most 1 per
    /// settings fingerprint except under a benign startup race).
    pub corner_misses: u64,
    /// Entries removed by the second-chance capacity policy (0 for an
    /// unbounded store).
    pub evictions: u64,
    /// Distinct PDFs held (inter + intra maps).
    pub entries: usize,
}

impl CacheStats {
    /// Total lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.inter_hits + self.intra_hits + self.corner_hits
    }

    /// Total lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.inter_misses + self.intra_misses + self.corner_misses
    }

    /// Total lookups (`hits() + misses()` by construction).
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// The counter deltas accumulated since `earlier` (a snapshot of the
    /// same store). `entries` stays absolute — occupancy is a state, not
    /// a flow. This is how a run against a shared, long-lived store
    /// reports *its own* hits and misses.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            inter_hits: self.inter_hits.saturating_sub(earlier.inter_hits),
            inter_misses: self.inter_misses.saturating_sub(earlier.inter_misses),
            intra_hits: self.intra_hits.saturating_sub(earlier.intra_hits),
            intra_misses: self.intra_misses.saturating_sub(earlier.intra_misses),
            corner_hits: self.corner_hits.saturating_sub(earlier.corner_hits),
            corner_misses: self.corner_misses.saturating_sub(earlier.corner_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

/// The shareable kernel container: sharded inter/intra PDF maps, the
/// per-fingerprint corner points, and the hit/miss/eviction counters.
///
/// One-shot runs wrap a private store via [`AnalysisCache::new`]; a
/// resident daemon creates one `Arc<KernelStore>` at startup and scopes
/// an [`AnalysisCache`] view per job, which is what keeps kernels warm
/// across submissions. Entries computed under different settings never
/// mix: every key embeds its settings fingerprint.
pub struct KernelStore {
    inter: ShardedPdfMap<InterKey>,
    intra: ShardedPdfMap<IntraKey>,
    /// Corner operating points, one per settings fingerprint (replaces
    /// the old once-per-run `OnceLock` so a shared store can serve
    /// differently-configured jobs).
    corner: Mutex<HashMap<u64, OperatingPoint>>,
    corner_hits: AtomicU64,
    corner_misses: AtomicU64,
    /// Total capacity per kernel map, as configured (`None` =
    /// unbounded).
    capacity: Option<usize>,
}

impl std::fmt::Debug for KernelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelStore")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for KernelStore {
    fn default() -> Self {
        KernelStore::unbounded()
    }
}

impl KernelStore {
    /// A store with no capacity limit (the one-shot run default).
    pub fn unbounded() -> Self {
        KernelStore::with_capacity(None)
    }

    /// A store holding at most `capacity` entries **per kernel map**
    /// (inter and intra each), enforced per shard as
    /// `ceil(capacity / shard_count)` with second-chance eviction.
    /// `None` means unbounded; `Some(0)` is clamped to 1 entry per
    /// shard.
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        let shard_cap = capacity.map(|c| c.div_ceil(SHARD_COUNT).max(1));
        KernelStore {
            inter: ShardedPdfMap::new(shard_cap),
            intra: ShardedPdfMap::new(shard_cap),
            corner: Mutex::new(HashMap::new()),
            corner_hits: AtomicU64::new(0),
            corner_misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// The configured per-map capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// A snapshot of the hit/miss/eviction/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            inter_hits: self.inter.hits.load(Ordering::Relaxed),
            inter_misses: self.inter.misses.load(Ordering::Relaxed),
            intra_hits: self.intra.hits.load(Ordering::Relaxed),
            intra_misses: self.intra.misses.load(Ordering::Relaxed),
            corner_hits: self.corner_hits.load(Ordering::Relaxed),
            corner_misses: self.corner_misses.load(Ordering::Relaxed),
            evictions: self.inter.evictions.load(Ordering::Relaxed)
                + self.intra.evictions.load(Ordering::Relaxed),
            entries: self.inter.len() + self.intra.len(),
        }
    }
}

/// A per-settings view of a [`KernelStore`]: the store plus the
/// settings fingerprint baked into every key. Create one per
/// [`SstaEngine::run`] over a private store, or share one store across
/// runs — the fingerprint keeps entries from different configurations
/// apart.
///
/// [`SstaEngine::run`]: crate::engine::SstaEngine::run
pub struct AnalysisCache {
    fingerprint: u64,
    store: Arc<KernelStore>,
    /// Fault-injection: inter-map shard index whose lookups fail
    /// (`usize::MAX` = none). It lives on the view, so the poison ends
    /// with the run that armed it and never reaches another view of the
    /// same store. Checked before the lock, unconditionally on every
    /// lookup of that shard, so behavior is key-derived and deterministic
    /// for any thread count.
    #[cfg(any(test, feature = "fault-injection"))]
    poisoned_inter: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCache")
            .field("fingerprint", &self.fingerprint)
            .field("stats", &self.stats())
            .finish()
    }
}

impl AnalysisCache {
    /// A view over a fresh, private, unbounded store — the one-shot run
    /// configuration.
    pub fn new(tech: &Technology, settings: &AnalysisSettings) -> Self {
        AnalysisCache::with_store(Arc::new(KernelStore::unbounded()), tech, settings)
    }

    /// A view of `store` scoped to the fingerprint of
    /// `(tech, settings)` — the daemon configuration, where `store` is
    /// process-wide and stays warm across jobs.
    pub fn with_store(
        store: Arc<KernelStore>,
        tech: &Technology,
        settings: &AnalysisSettings,
    ) -> Self {
        AnalysisCache {
            fingerprint: settings_fingerprint(tech, settings),
            store,
            #[cfg(any(test, feature = "fault-injection"))]
            poisoned_inter: std::sync::atomic::AtomicUsize::new(usize::MAX),
        }
    }

    /// Number of lock stripes per kernel map (the valid range for
    /// [`AnalysisCache::poison_inter_shard`] is `0..shard_count()`).
    pub fn shard_count() -> usize {
        SHARD_COUNT
    }

    /// Fault-injection: makes every inter-PDF lookup through this view
    /// that maps to `shard` fail with a `Numeric` error, simulating a
    /// corrupted cache stripe. Keys select shards deterministically, so
    /// the same paths degrade for any thread count. Other views of the
    /// store, and so later runs on it, are unaffected.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn poison_inter_shard(&self, shard: usize) {
        self.poisoned_inter
            .store(shard % SHARD_COUNT, std::sync::atomic::Ordering::Relaxed);
    }

    /// The settings fingerprint baked into every key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<KernelStore> {
        &self.store
    }

    /// The inter-die PDF for coefficient sums `ab`: cached by the exact
    /// bits of `(A, B)`, computed by `compute` on a miss.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (nothing is stored in that case).
    pub fn inter_pdf(&self, ab: &AlphaBeta, compute: impl FnOnce() -> Result<Pdf>) -> Result<Pdf> {
        let key = InterKey {
            fingerprint: self.fingerprint,
            alpha_bits: ab.alpha.to_bits(),
            beta_bits: ab.beta.to_bits(),
        };
        #[cfg(any(test, feature = "fault-injection"))]
        if key.shard()
            == self
                .poisoned_inter
                .load(std::sync::atomic::Ordering::Relaxed)
        {
            return Err(crate::CoreError::Stats(
                statim_stats::StatsError::NonFinite {
                    what: "poisoned inter-PDF cache shard",
                },
            ));
        }
        self.store.inter.get_or_compute(key, key.shard(), compute)
    }

    /// The closed-form intra-die PDF for the eq. (14) `variance`: cached
    /// by the exact variance bits, computed by `compute` on a miss.
    ///
    /// Only valid for the closed-form Gaussian model — the numerical
    /// intra PDF depends on the full per-RV coefficient set, not on the
    /// total variance alone, and must not be cached under this key.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error (nothing is stored in that case).
    pub fn intra_pdf(&self, variance: f64, compute: impl FnOnce() -> Result<Pdf>) -> Result<Pdf> {
        let key = IntraKey {
            fingerprint: self.fingerprint,
            variance_bits: variance.to_bits(),
        };
        self.store.intra.get_or_compute(key, key.shard(), compute)
    }

    /// The worst-case corner operating point for this view's settings,
    /// computed once per fingerprint per store lifetime instead of once
    /// per path.
    pub fn corner_point(&self, compute: impl FnOnce() -> OperatingPoint) -> OperatingPoint {
        {
            let map = self
                .store
                .corner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(pt) = map.get(&self.fingerprint) {
                self.store.corner_hits.fetch_add(1, Ordering::Relaxed);
                return *pt;
            }
        }
        // Compute outside the lock; a racing duplicate is benign (both
        // results are bit-identical, the first insert wins).
        self.store.corner_misses.fetch_add(1, Ordering::Relaxed);
        let pt = compute();
        *self
            .store
            .corner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(self.fingerprint)
            .or_insert(pt)
    }

    /// A snapshot of the underlying store's counters.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intra::intra_pdf;
    use crate::{inter, LayerModel};
    use statim_process::param::Variations;
    use statim_process::{GateKind, Load};

    fn settings() -> AnalysisSettings {
        AnalysisSettings::date05()
    }

    fn cache() -> AnalysisCache {
        AnalysisCache::new(&Technology::cmos130(), &settings())
    }

    fn compute_inter(ab: &AlphaBeta, s: &AnalysisSettings) -> Pdf {
        inter::inter_pdf(
            ab,
            &Technology::cmos130(),
            &s.vars,
            &s.layers,
            s.marginal,
            s.quality_inter,
        )
        .expect("inter kernel")
    }

    #[test]
    fn inter_hit_is_bit_identical_to_recompute() {
        let c = cache();
        let s = settings();
        let tech = Technology::cmos130();
        let one = tech.alpha_beta(GateKind::Nand(2), &Load::fanout(2));
        for n in 1..=12 {
            let ab = AlphaBeta {
                alpha: one.alpha * n as f64,
                beta: one.beta * n as f64,
            };
            let miss = c.inter_pdf(&ab, || Ok(compute_inter(&ab, &s))).unwrap();
            let hit = c
                .inter_pdf(&ab, || panic!("must not recompute on a hit"))
                .unwrap();
            let fresh = compute_inter(&ab, &s);
            assert_eq!(hit, miss);
            assert_eq!(hit.grid().lo().to_bits(), fresh.grid().lo().to_bits());
            assert_eq!(hit.grid().step().to_bits(), fresh.grid().step().to_bits());
            for (a, b) in hit.density().iter().zip(fresh.density()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let stats = c.stats();
        assert_eq!(stats.inter_hits, 12);
        assert_eq!(stats.inter_misses, 12);
        assert_eq!(stats.entries, 12);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn intra_hit_is_bit_identical_to_recompute() {
        let c = cache();
        let vars = Variations::date05();
        for i in 1..=8 {
            let variance = 1e-24 * i as f64 * 3.7;
            let miss = c
                .intra_pdf(variance, || intra_pdf(variance, vars.trunc_k, 100))
                .unwrap();
            let hit = c
                .intra_pdf(variance, || panic!("must not recompute on a hit"))
                .unwrap();
            let fresh = intra_pdf(variance, vars.trunc_k, 100).unwrap();
            assert_eq!(hit, miss);
            for (a, b) in hit.density().iter().zip(fresh.density()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let s = c.stats();
        assert_eq!((s.intra_hits, s.intra_misses), (8, 8));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let c = cache();
        // Two nearly identical (but bit-different) coefficient pairs must
        // map to distinct entries.
        let a1 = AlphaBeta {
            alpha: 1.0,
            beta: 2.0,
        };
        let a2 = AlphaBeta {
            alpha: 1.0 + f64::EPSILON,
            beta: 2.0,
        };
        let s = settings();
        let p1 = c.inter_pdf(&a1, || Ok(compute_inter(&a1, &s))).unwrap();
        let p2 = c.inter_pdf(&a2, || Ok(compute_inter(&a2, &s))).unwrap();
        assert_eq!(c.stats().inter_misses, 2);
        assert_eq!(c.stats().entries, 2);
        // And a repeat lookup of each returns its own PDF.
        assert_eq!(c.inter_pdf(&a1, || unreachable!()).unwrap(), p1);
        assert_eq!(c.inter_pdf(&a2, || unreachable!()).unwrap(), p2);
    }

    #[test]
    fn corner_point_computed_once() {
        let c = cache();
        let s = settings();
        let tech = Technology::cmos130();
        let mut computes = 0usize;
        for _ in 0..5 {
            let pt = c.corner_point(|| {
                computes += 1;
                s.corner.worst_point(&tech, &s.vars)
            });
            let direct = s.corner.worst_point(&tech, &s.vars);
            for p in Param::ALL {
                assert_eq!(pt.get(p).to_bits(), direct.get(p).to_bits());
            }
        }
        assert_eq!(computes, 1);
        let stats = c.stats();
        assert_eq!(stats.corner_misses, 1);
        assert_eq!(stats.corner_hits, 4);
    }

    #[test]
    fn fingerprint_separates_settings() {
        let tech = Technology::cmos130();
        let base = settings();
        let fp0 = settings_fingerprint(&tech, &base);
        // Same settings → same fingerprint (stable across instances).
        assert_eq!(fp0, settings_fingerprint(&tech, &settings()));
        // Any kernel-relevant knob shifts it.
        let mut q = settings();
        q.quality_inter = 51;
        assert_ne!(fp0, settings_fingerprint(&tech, &q));
        let mut l = settings();
        l.layers = LayerModel::with_inter_share(0.5);
        assert_ne!(fp0, settings_fingerprint(&tech, &l));
        let mut m = settings();
        m.marginal = Marginal::Uniform;
        assert_ne!(fp0, settings_fingerprint(&tech, &m));
        let mut t = settings();
        t.vars = Variations::date05().scaled(1.1);
        assert_ne!(fp0, settings_fingerprint(&tech, &t));
    }

    #[test]
    fn stats_counters_consistent() {
        let c = cache();
        let s = settings();
        let tech = Technology::cmos130();
        let one = tech.alpha_beta(GateKind::Inv, &Load::fanout(1));
        for i in 0..20 {
            // 4 distinct keys looked up 5× each.
            let ab = AlphaBeta {
                alpha: one.alpha * (1 + i % 4) as f64,
                beta: one.beta * (1 + i % 4) as f64,
            };
            c.inter_pdf(&ab, || Ok(compute_inter(&ab, &s))).unwrap();
        }
        let stats = c.stats();
        assert_eq!(stats.hits() + stats.misses(), stats.lookups());
        assert_eq!(stats.lookups(), 20);
        assert_eq!(stats.inter_misses, 4);
        assert_eq!(stats.inter_hits, 16);
        assert_eq!(stats.entries, 4);
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn failed_compute_stores_nothing() {
        let c = cache();
        let ab = AlphaBeta {
            alpha: 1.0,
            beta: 1.0,
        };
        let err = c.inter_pdf(&ab, || {
            Err(crate::CoreError::Stats(statim_stats::StatsError::ZeroMass))
        });
        assert!(err.is_err());
        assert_eq!(c.stats().entries, 0);
        // The next lookup recomputes (a second miss, not a poisoned hit).
        let s = settings();
        assert!(c.inter_pdf(&ab, || Ok(compute_inter(&ab, &s))).is_ok());
        assert_eq!(c.stats().inter_misses, 2);
    }

    #[test]
    fn empty_cache_stats_are_zero() {
        let stats = cache().stats();
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.evictions, 0);
    }

    // --- capacity & eviction -----------------------------------------

    /// Intra lookups with synthetic tiny PDFs: cheap way to fill shards.
    fn fill_intra(c: &AnalysisCache, variances: impl IntoIterator<Item = f64>) {
        let vars = Variations::date05();
        for v in variances {
            c.intra_pdf(v, || intra_pdf(v, vars.trunc_k, 8)).unwrap();
        }
    }

    #[test]
    fn capacity_bounds_occupancy_and_counts_evictions() {
        let store = Arc::new(KernelStore::with_capacity(Some(16)));
        let c = AnalysisCache::with_store(store.clone(), &Technology::cmos130(), &settings());
        // 200 distinct variances against a 16-entry budget (1 per
        // shard): occupancy must stay at or below shard_count × cap.
        fill_intra(&c, (1..=200).map(|i| 1e-24 * i as f64));
        let stats = c.stats();
        assert!(
            stats.entries <= 16,
            "occupancy {} exceeds capacity",
            stats.entries
        );
        assert!(stats.evictions > 0, "evictions must be counted");
        assert_eq!(stats.intra_misses, 200);
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let c = cache();
        fill_intra(&c, (1..=64).map(|i| 1e-24 * i as f64));
        let stats = c.stats();
        assert_eq!(stats.entries, 64);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn second_chance_keeps_rereferenced_entries() {
        // One shard of capacity 2: hit entry A repeatedly, then insert
        // new keys that land in the same shard. A's referenced bit must
        // save it from the first sweep.
        let store = Arc::new(KernelStore::with_capacity(Some(SHARD_COUNT * 2)));
        let c = AnalysisCache::with_store(store.clone(), &Technology::cmos130(), &settings());
        let vars = Variations::date05();
        // Find three variances that share a shard.
        let fp = c.fingerprint();
        let shard_of = |v: f64| {
            IntraKey {
                fingerprint: fp,
                variance_bits: v.to_bits(),
            }
            .shard()
        };
        let mut same: Vec<f64> = Vec::new();
        let mut i = 1u64;
        let target = shard_of(1e-24);
        while same.len() < 2 {
            let v = 1e-24 * (1 + i) as f64;
            if shard_of(v) == target {
                same.push(v);
            }
            i += 1;
        }
        let a = 1e-24;
        c.intra_pdf(a, || intra_pdf(a, vars.trunc_k, 8)).unwrap();
        // Re-reference A so its second-chance bit is set.
        c.intra_pdf(a, || panic!("hit expected")).unwrap();
        // Fill the shard past capacity: the sweep spares A (clearing its
        // bit, one reprieve per re-reference) and evicts the unreferenced
        // newcomer instead.
        for &v in &same {
            c.intra_pdf(v, || intra_pdf(v, vars.trunc_k, 8)).unwrap();
        }
        // A is still resident (no recompute).
        c.intra_pdf(a, || panic!("A must have survived the sweep"))
            .unwrap();
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn shared_store_serves_two_settings_without_mixing() {
        let store = Arc::new(KernelStore::unbounded());
        let tech = Technology::cmos130();
        let s1 = settings();
        let mut s2 = settings();
        s2.quality_inter = 24;
        let c1 = AnalysisCache::with_store(store.clone(), &tech, &s1);
        let c2 = AnalysisCache::with_store(store.clone(), &tech, &s2);
        assert_ne!(c1.fingerprint(), c2.fingerprint());
        let ab = AlphaBeta {
            alpha: 2.0,
            beta: 3.0,
        };
        let p1 = c1.inter_pdf(&ab, || Ok(compute_inter(&ab, &s1))).unwrap();
        // Same (A, B) under different settings misses — no cross-talk.
        let p2 = c2.inter_pdf(&ab, || Ok(compute_inter(&ab, &s2))).unwrap();
        assert_ne!(p1.len(), p2.len());
        assert_eq!(store.stats().inter_misses, 2);
        // Each view still hits its own entry.
        assert_eq!(c1.inter_pdf(&ab, || unreachable!()).unwrap(), p1);
        assert_eq!(c2.inter_pdf(&ab, || unreachable!()).unwrap(), p2);
        // Corner points are per-fingerprint too.
        let pt1 = c1.corner_point(|| s1.corner.worst_point(&tech, &s1.vars));
        let pt2 = c2.corner_point(|| s2.corner.worst_point(&tech, &s2.vars));
        for p in Param::ALL {
            assert_eq!(pt1.get(p).to_bits(), pt2.get(p).to_bits());
        }
        assert_eq!(store.stats().corner_misses, 2);
    }

    #[test]
    fn stats_since_subtracts_counters_but_not_entries() {
        let c = cache();
        fill_intra(&c, [1e-24, 2e-24]);
        let before = c.stats();
        fill_intra(&c, [1e-24, 3e-24]); // one hit, one miss
        let delta = c.stats().since(&before);
        assert_eq!(delta.intra_hits, 1);
        assert_eq!(delta.intra_misses, 1);
        assert_eq!(delta.entries, 3, "entries stay absolute");
    }
}
