//! The benchmark's arithmetic: seeded inputs, input digests,
//! percentiles that refuse thin tails, medians, span self time, process
//! CPU time and its scaling to a core of typical speed, run budgets and
//! process peak memory.

use std::time::Instant;

/// CPU time this process has used so far, all threads, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time spent runnable but not running —
/// preempted by other processes, or stolen from the virtual CPU by the
/// host — is not counted, which is what keeps the timings steady on a
/// shared machine.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec of the C layout on a
    // 64-bit Linux target.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Times `f` in process CPU milliseconds.
pub fn cpu_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c = cpu_seconds();
    let out = f();
    (out, (cpu_seconds() - c) * 1e3)
}

/// How fast the core the benchmark runs on was during a run, so CPU
/// times can be reported as on a core of typical speed.
///
/// CPU time leaves out time the process did not run, but not a core
/// that runs slower because another tenant of the host shares it: on a
/// shared VM a fixed loop takes 33–50 ms of CPU from one second to the
/// next. So between ops the benchmark runs a fixed probe (arithmetic of
/// its own, no program code, so no program change moves it) every
/// [`Speed::EVERY`] CPU seconds, and scales each op's CPU time by
/// [`Speed::NOMINAL_MS`] over the mean time of the probes around it. The
/// mean, not the median: ops and probes sample the core alike, so their
/// means slow down alike however the slow spells are spread.
pub struct Speed {
    probes: Vec<f64>,
    last: f64,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Speed {
    /// CPU milliseconds of one probe on a typical core of the benchmark
    /// host (a 2-vCPU Xeon VM, whose run means range from 0.5 to 0.9 ms).
    pub const NOMINAL_MS: f64 = 0.7;
    /// CPU seconds of workload between probes.
    pub const EVERY: f64 = 0.025;
    /// Probes on each side of an op whose mean scales it.
    const WINDOW: usize = 6;
    const GRID: usize = 768;

    /// Starts with one probe.
    pub fn start() -> Speed {
        let mut s = Speed {
            probes: Vec::new(),
            last: 0.0,
            a: vec![0.0; Self::GRID],
            b: vec![0.0; Self::GRID],
        };
        s.probe();
        s
    }

    /// The probe's work: two PDFs on a grid from `exp`, then their
    /// direct convolution, the arithmetic the analysis spends its time
    /// in, at a size that stays in the L2 cache.
    fn work(a: &mut [f64], b: &mut [f64], round: usize) -> f64 {
        let n = a.len();
        let shift = (round % 7) as f64 * 1e-3;
        for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
            let t = (i as f64 - n as f64 / 2.0) / (n as f64 / 8.0);
            *x = (-0.5 * (t + shift) * (t + shift)).exp();
            *y = (-0.5 * (1.5 * t - shift) * (1.5 * t - shift)).exp();
        }
        let mut acc = 0.0;
        for k in 0..2 * n - 1 {
            let lo = k.saturating_sub(n - 1);
            let s: f64 = (lo..=k.min(n - 1)).map(|i| a[i] * b[k - i]).sum();
            acc += s * k as f64;
        }
        acc
    }

    /// Runs one probe and records its CPU milliseconds.
    pub fn probe(&mut self) {
        let round = self.probes.len();
        let (v, ms) = cpu_ms(|| Self::work(&mut self.a, &mut self.b, round));
        std::hint::black_box(v);
        self.probes.push(ms);
        self.last = cpu_seconds();
    }

    /// Probes if [`Speed::EVERY`] CPU seconds passed since the last
    /// probe. Call between ops, never inside one.
    pub fn tick(&mut self) {
        if cpu_seconds() - self.last >= Self::EVERY {
            self.probe();
        }
    }

    /// Probes so far; an op records this when it starts.
    pub fn mark(&self) -> usize {
        self.probes.len()
    }

    /// Each `(CPU time, mark)` op scaled to a core of typical speed by the
    /// mean of the [`Speed::WINDOW`] probes on each side of it.
    pub fn scaled(&self, ops: &[(f64, usize)]) -> Vec<f64> {
        ops.iter()
            .map(|&(t, mark)| {
                let lo = mark.saturating_sub(Self::WINDOW);
                let hi = (mark + Self::WINDOW).min(self.probes.len());
                let around = &self.probes[lo..hi];
                t * Self::NOMINAL_MS * around.len() as f64 / around.iter().sum::<f64>()
            })
            .collect()
    }

    /// Mean probe CPU milliseconds so far.
    pub fn mean_ms(&self) -> f64 {
        self.probes.iter().sum::<f64>() / self.probes.len() as f64
    }

    /// What the run's CPU times are multiplied by on the whole.
    pub fn scale(&self) -> f64 {
        Self::NOMINAL_MS / self.mean_ms()
    }
}

/// How long a timed phase runs: until the process has used `cpu`
/// seconds of CPU in it, scaled by [`Speed`], or `WALL_CAP`× that in
/// wall time on a host so busy that the budget would take too long.
pub struct Budget {
    cpu0: f64,
    wall0: Instant,
    cpu: f64,
}

impl Budget {
    /// Wall-time cap, as a multiple of the CPU budget: serve-mixed's
    /// round trips spend as long again waiting on the daemon's polls.
    pub const WALL_CAP: f64 = 5.0;

    pub fn start(cpu: f64) -> Budget {
        Budget {
            cpu0: cpu_seconds(),
            wall0: Instant::now(),
            cpu,
        }
    }

    /// CPU seconds used since the start.
    pub fn used(&self) -> f64 {
        cpu_seconds() - self.cpu0
    }

    pub fn spent(&self, speed: &Speed) -> bool {
        self.used() * speed.scale() >= self.cpu
            || self.wall0.elapsed().as_secs_f64() >= Self::WALL_CAP * self.cpu
    }
}

/// SplitMix64: a tiny, dependency-free generator. Every input of every
/// workload is drawn from one of these, seeded by `--seed`, before any
/// timing starts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes, chained through `h` (start from 0).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: its value, the level actually used and the
/// number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub value: f64,
    /// Fraction of samples at or below `value` (0.5 for a median).
    pub level: f64,
    pub samples: usize,
}

impl std::fmt::Display for Quantile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} {:.4} (n={})",
            (self.level * 1000.0).round() / 10.0,
            self.value,
            self.samples
        )
    }
}

/// Nearest-rank index of level `q` in `n` sorted samples.
fn rank_index(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank percentile `q` of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it — a p99 needs at least
/// 1000 samples, a median at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Option<Quantile> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let idx = rank_index(q, n);
    if n - (idx + 1) < MIN_BEYOND {
        return None;
    }
    let sorted = sorted(samples);
    Some(Quantile {
        value: sorted[idx],
        level: q,
        samples: n,
    })
}

/// The highest percentile no higher than `max_q` that still has
/// [`MIN_BEYOND`] samples beyond it — the tail a run of this length can
/// honestly report. `None` below `MIN_BEYOND + 1` samples.
pub fn tail(samples: &[f64], max_q: f64) -> Option<Quantile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let idx = rank_index(max_q, n).min(n - 1 - MIN_BEYOND);
    let sorted = sorted(samples);
    Some(Quantile {
        value: sorted[idx],
        level: if idx == rank_index(max_q, n) {
            max_q
        } else {
            (idx + 1) as f64 / n as f64
        },
        samples: n,
    })
}

/// Median of a handful of repeated measurements (set-up times, sweep
/// walls). Not a latency percentile: it summarizes repeats of one
/// measurement, so it has no tail rule. Even counts average the middle
/// pair.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of it that its
/// children cover. Children may nest or overlap (parallel workers under
/// one fan-out); overlap is counted once, and any part of a child
/// outside the parent is ignored.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (start, end) = span;
    let clipped = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    ((end - start) - union_len(clipped)).max(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        let q = percentile(&ramp(1000), 0.99).expect("1000 samples carry a p99");
        assert_eq!(q.value, 990.0);
        assert_eq!(q.samples, 1000);
        // Exactly ten samples (991..=1000) lie beyond it.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > q.value).count(), 10);
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        let q = percentile(&ramp(20), 0.5).expect("20 samples carry a median");
        assert_eq!(q.value, 10.0);
        assert_eq!(q.level, 0.5);
    }

    #[test]
    fn percentile_rejects_bad_levels_and_empty_input() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 1.5), None);
        assert_eq!(percentile(&ramp(100), -0.1), None);
    }

    #[test]
    fn tail_backs_off_to_the_highest_honest_level() {
        assert_eq!(tail(&ramp(10), 0.99), None);
        let q = tail(&ramp(36), 0.99).expect("36 samples carry some tail");
        // 26 at or below, 10 beyond.
        assert_eq!(q.value, 26.0);
        assert!((q.level - 26.0 / 36.0).abs() < 1e-12);
        let full = tail(&ramp(2000), 0.99).expect("2000 samples carry a p99");
        assert_eq!(full.level, 0.99);
        assert_eq!(full, percentile(&ramp(2000), 0.99).expect("p99"));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_with_nested_children() {
        // Parent [0, 10); children [1, 3) and [5, 6), and a grandchild
        // inside [1, 3) that must not be subtracted twice (only direct
        // children are passed in).
        let s = self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]);
        assert!((s - 7.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Two workers under one fan-out: [1, 6) and [4, 9) cover [1, 9).
        let s = self_time((0.0, 10.0), &[(1.0, 6.0), (4.0, 9.0)]);
        assert!((s - 2.0).abs() < 1e-12);
        // A child sticking out of the parent is clipped to it.
        let s = self_time((0.0, 10.0), &[(8.0, 12.0), (-1.0, 1.0)]);
        assert!((s - 7.0).abs() < 1e-12);
        // Full cover leaves no self time; no children leaves all of it.
        assert_eq!(self_time((2.0, 4.0), &[(0.0, 5.0)]), 0.0);
        assert_eq!(self_time((2.0, 4.0), &[]), 2.0);
    }

    #[test]
    fn union_merges_touching_and_contained_intervals() {
        let u = union_len(vec![(0.0, 2.0), (2.0, 3.0), (0.5, 1.0), (5.0, 6.0)]);
        assert!((u - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_time_counts_work_and_speed_scales_it() {
        // Process CPU time also counts the other test threads, so only
        // the work side is checked here.
        let (x, spun) = cpu_ms(|| (0..20_000_000u64).fold(0u64, |a, i| a ^ i.wrapping_mul(a | 1)));
        std::hint::black_box(x);
        assert!(spun > 0.0);
        let speed = Speed::start();
        assert!(speed.mean_ms() > 0.0 && speed.scale() > 0.0);
        assert!(Budget::start(0.0).spent(&speed));
        assert!(!Budget::start(60.0).spent(&speed));
        let scaled = speed.scaled(&[(2.0, 0), (2.0, 1)]);
        assert_eq!(scaled[0], scaled[1]);
        assert!((scaled[0] - 2.0 * speed.scale()).abs() < 1e-9);
    }

    #[test]
    fn rng_is_seeded_and_digest_is_stable() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        assert_eq!(fnv1a(0, b"abc"), fnv1a(fnv1a(0, b"a"), b"bc"));
        let mut r = Rng::new(1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
