//! Chunked worker pool for the per-path and Monte-Carlo fan-outs.
//!
//! Everything here is built on [`std::thread::scope`] — no external
//! runtime, no unsafe code. The design constraints, in order:
//!
//! 1. **Determinism.** Results are merged in input order, and nothing
//!    about the output depends on the thread count or on scheduling.
//!    Work is handed out through an atomic cursor purely as a load
//!    balancing device; each item's result lands in its own slot.
//! 2. **Panic isolation.** A panic in `f` no longer aborts the run:
//!    every item executes under [`supervise::isolate`], and a panicking
//!    item becomes [`ItemOutcome::Panicked`] in its result slot while
//!    every other item completes normally. The caller decides what
//!    quarantine means (the engine degrades the path, the Monte-Carlo
//!    driver retries the chunk). Genuinely fatal payloads — allocation
//!    failure, out of memory, stack overflow — take the
//!    [`supervise::escalate`] escape hatch and abort the run as before.
//! 3. **Independent randomness.** Monte-Carlo work is split into
//!    fixed-size chunks ([`MC_CHUNK`] samples) and every chunk seeds its
//!    own [`rand::rngs::StdRng`] from `seed + chunk_index`. The chunk
//!    grid never moves with the thread count, so a 1-thread and an
//!    8-thread run draw bit-identical streams.
//! 4. **Utilization accounting.** [`run_pool`] reports how long each
//!    worker was busy so the engine's [`RunProfile`] can show per-stage
//!    thread utilization (`busy / (wall · threads)`).
//!
//! [`RunProfile`]: crate::engine::RunProfile
//! [`supervise::isolate`]: crate::supervise::isolate
//! [`supervise::escalate`]: crate::supervise::escalate

use crate::supervise::{self, ItemOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Samples per Monte-Carlo chunk. Fixed — never derived from the thread
/// count — so that per-chunk RNG streams, and therefore results, are
/// identical for any parallelism level.
pub const MC_CHUNK: usize = 4096;

/// Threads the host offers (1 if it won't say).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count: `None` or `Some(0)` means "use
/// every available core".
pub fn effective_threads(requested: Option<usize>) -> usize {
    match requested {
        None | Some(0) => available_threads(),
        Some(n) => n,
    }
}

/// Outcome of a [`run_pool`] call.
#[derive(Debug)]
pub struct PoolRun<U> {
    /// Per-item outcomes in input order. An item that panicked is
    /// [`ItemOutcome::Panicked`] in its slot; the rest are unaffected.
    pub results: Vec<ItemOutcome<U>>,
    /// Total worker busy time, seconds (sum over workers).
    pub busy: f64,
    /// Workers actually spawned.
    pub threads: usize,
}

/// One worker's `(index, outcome)` pairs plus its busy seconds.
type WorkerOut<U> = (Vec<(usize, ItemOutcome<U>)>, f64);

/// Maps `f` over `items` on `threads` workers, returning per-item
/// outcomes in input order plus busy-time accounting.
///
/// `f` receives `(index, &item)`. Work is dealt in contiguous chunks via
/// an atomic cursor; chunk size adapts to the item count so the tail
/// stays balanced. With one thread (or one item) the closure runs on the
/// calling thread with zero overhead.
///
/// # Panics
///
/// An ordinary panic in `f` is *isolated*: it lands as
/// [`ItemOutcome::Panicked`] in that item's slot and the pool keeps
/// running. Fatal payloads (allocation failure, out of memory, stack
/// overflow) are re-raised via [`supervise::escalate`].
pub fn run_pool<T, U, F>(items: &[T], threads: usize, f: F) -> PoolRun<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let run_item = |i: usize, item: &T| -> ItemOutcome<U> {
        match supervise::isolate(|| f(i, item)) {
            Ok(u) => ItemOutcome::Done(u),
            Err(reason) => ItemOutcome::Panicked { reason },
        }
    };

    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        let t0 = Instant::now();
        let results = items
            .iter()
            .enumerate()
            .map(|(i, t)| run_item(i, t))
            .collect();
        return PoolRun {
            results,
            busy: t0.elapsed().as_secs_f64(),
            threads: 1,
        };
    }

    // Hand out contiguous chunks through a shared cursor. Small enough
    // for balance (≈8 chunks per worker), large enough to amortize the
    // atomic traffic.
    let chunk = (items.len() / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let run_item = &run_item;

    let per_worker: Vec<WorkerOut<U>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let t0 = Instant::now();
                    let mut out = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            out.push((i, run_item(i, item)));
                        }
                    }
                    (out, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                // Only escalated (fatal) payloads reach here; ordinary
                // panics were isolated into their item slots.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut busy = 0.0;
    let mut slots: Vec<Option<ItemOutcome<U>>> = (0..items.len()).map(|_| None).collect();
    for (results, worker_busy) in per_worker {
        busy += worker_busy;
        for (i, v) in results {
            slots[i] = Some(v);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every index is visited exactly once"))
        .collect();
    PoolRun {
        results,
        busy,
        threads,
    }
}

/// Maps `f` over `items` on `threads` workers; results in input order.
///
/// The *unsupervised* convenience: a panicking item is re-raised on the
/// caller (there is no quarantine slot to put it in). Fan-outs that want
/// isolation and budgets use [`crate::supervise::supervised_map`].
///
/// # Panics
///
/// Re-raises the first (by input order) item panic.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    run_pool(items, threads, f)
        .results
        .into_iter()
        .enumerate()
        .map(|(i, o)| match o {
            ItemOutcome::Done(u) => u,
            ItemOutcome::Panicked { reason } => panic!("worker panic on item {i}: {reason}"),
            ItemOutcome::Skipped => unreachable!("run_pool never skips items"),
        })
        .collect()
}

/// The fixed Monte-Carlo chunk grid for a sample budget: `(chunk_index,
/// samples_in_chunk)` pairs. Every chunk except possibly the last holds
/// [`MC_CHUNK`] samples.
pub fn mc_chunks(samples: usize) -> Vec<(u64, usize)> {
    let mut chunks = Vec::with_capacity(samples.div_ceil(MC_CHUNK));
    let mut done = 0usize;
    let mut index = 0u64;
    while done < samples {
        let size = MC_CHUNK.min(samples - done);
        chunks.push((index, size));
        done += size;
        index += 1;
    }
    chunks
}

/// The seed of an MC chunk: the run seed advanced by the chunk index.
/// [`rand::rngs::StdRng`] expands the 64-bit value through SplitMix64,
/// so adjacent seeds yield decorrelated streams. A *retried* chunk
/// re-derives exactly this seed, which is why a run with retries is
/// bit-identical to a clean one.
pub fn chunk_seed(seed: u64, chunk_index: u64) -> u64 {
    seed.wrapping_add(chunk_index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(&items, threads, |_, &x| x * 3);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..257).collect();
        let got = parallel_map(&items, 4, |i, &x| (i, x));
        for (i, &(gi, gx)) in got.iter().enumerate() {
            assert_eq!((gi, gx), (i, i));
        }
    }

    #[test]
    fn handles_degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn pool_reports_busy_time_and_threads() {
        let items: Vec<usize> = (0..64).collect();
        let run = run_pool(&items, 4, |_, &x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x
        });
        assert_eq!(run.threads, 4);
        assert!(run.busy > 0.0);
        assert_eq!(run.results.len(), 64);
    }

    #[test]
    fn thread_count_clamps_to_items() {
        let run = run_pool(&[1, 2], 16, |_, &x| x);
        assert!(run.threads <= 2);
    }

    #[test]
    fn mc_chunk_grid_is_exact_and_thread_independent() {
        for samples in [
            0,
            1,
            MC_CHUNK - 1,
            MC_CHUNK,
            MC_CHUNK + 1,
            3 * MC_CHUNK + 17,
        ] {
            let chunks = mc_chunks(samples);
            let total: usize = chunks.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, samples);
            for (i, &(index, n)) in chunks.iter().enumerate() {
                assert_eq!(index, i as u64);
                assert!(n <= MC_CHUNK);
                if i + 1 < chunks.len() {
                    assert_eq!(n, MC_CHUNK);
                }
            }
        }
    }

    #[test]
    fn chunk_seeds_distinct() {
        let seeds: Vec<u64> = (0..100).map(|i| chunk_seed(42, i)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn worker_panic_is_quarantined_not_propagated() {
        // The isolation contract: one poisoned item, 99 healthy ones —
        // the pool completes and the panic lands in its own slot, at any
        // thread count.
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let run = run_pool(&items, threads, |_, &x| {
                if x == 50 {
                    panic!("worker boom");
                }
                x
            });
            assert_eq!(run.results.len(), 100, "threads = {threads}");
            for (i, o) in run.results.iter().enumerate() {
                if i == 50 {
                    match o {
                        ItemOutcome::Panicked { reason } => {
                            assert!(reason.contains("worker boom"))
                        }
                        other => panic!("expected quarantine, got {other:?}"),
                    }
                } else {
                    assert_eq!(*o, ItemOutcome::Done(i));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn unsupervised_map_still_propagates() {
        // parallel_map is the documented unsupervised convenience: with
        // no quarantine slot to fill, the item panic re-raises.
        let items: Vec<usize> = (0..100).collect();
        parallel_map(&items, 4, |_, &x| {
            if x == 50 {
                panic!("worker boom");
            }
            x
        });
    }
}
