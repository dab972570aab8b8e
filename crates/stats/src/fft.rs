//! In-crate radix-2 FFT and the spectral convolution it powers.
//!
//! The grid convolution of [`convolve`](crate::convolve) costs
//! `O(nₐ·n_b)` — the paper's `O(QUALITY²)`. A linear convolution is a
//! pointwise product in the frequency domain, so the same density can be
//! computed in `O(n log n)`: pad both series to the next power of two at
//! least `nₐ + n_b − 1`, transform, multiply, transform back. This module
//! implements that with a dependency-free iterative radix-2
//! Cooley–Tukey FFT over `f64` pairs.
//!
//! Because both inputs and the output are real, every transform runs at
//! **half length**: each operand packs its even samples into the real
//! lane and its odd samples into the imaginary lane of an `n/2`-point
//! complex signal (the classic real-FFT split), the two half-spectra are
//! combined into the product spectrum with the conjugate-symmetry
//! unpacking rules, and one half-length inverse transform returns the
//! interleaved real convolution — three `n/2`-point FFTs in place of
//! three `n`-point ones.
//!
//! Everything here is a pure function of its input bits evaluated in a
//! fixed order, so results are run-to-run (and machine-)deterministic;
//! they differ from the direct grid accumulation only by floating-point
//! round-off, which is why the FFT backend is *tolerance-validated*
//! against the grid backend rather than required to be bit-identical.

use std::cell::RefCell;
use std::collections::HashMap;

/// Precomputed tables for one transform size `m`: stage-contiguous
/// twiddle factors, the bit-reversal permutation, and the half-step
/// roots `exp(-iπk/m)` used by the real-FFT spectrum (un)packing.
struct Tables {
    wre: Vec<f64>,
    wim: Vec<f64>,
    perm: Vec<u32>,
    hre: Vec<f64>,
    him: Vec<f64>,
}

impl Tables {
    fn build(m: usize) -> Self {
        // Twiddles, one contiguous run per stage: the roots for stage
        // `len` live at `[len/2 .. len)` as `exp(-2πi·k/len)`, k < len/2
        // — m entries total, read sequentially by the butterfly loop.
        // Each root comes from its own sin/cos call (no recurrences),
        // keeping the round-off floor flat.
        let mut wre = vec![0.0f64; m];
        let mut wim = vec![0.0f64; m];
        let mut len = 2;
        while len <= m {
            for k in 0..len / 2 {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                wre[len / 2 + k] = angle.cos();
                wim[len / 2 + k] = angle.sin();
            }
            len <<= 1;
        }
        // Bit-reversal permutation by the doubling recurrence:
        // rev(i) = rev(i/2)/2, plus the top bit when i is odd.
        let mut perm = vec![0u32; m];
        for i in 1..m {
            perm[i] = (perm[i >> 1] >> 1) | if i & 1 == 1 { m as u32 >> 1 } else { 0 };
        }
        // Half-step roots exp(-iπk/m) = exp(-2πik/n) for k ≤ m/2: the
        // odd-sample phase factors of the full-length spectrum.
        let mut hre = vec![0.0f64; m / 2 + 1];
        let mut him = vec![0.0f64; m / 2 + 1];
        for k in 0..=m / 2 {
            let angle = -std::f64::consts::PI * k as f64 / m as f64;
            hre[k] = angle.cos();
            him[k] = angle.sin();
        }
        Tables {
            wre,
            wim,
            perm,
            hre,
            him,
        }
    }
}

thread_local! {
    /// Transform tables keyed by size. A table is a pure function of the
    /// size, so the cache trades sin/cos calls for lookups without
    /// touching determinism; per-thread storage keeps the fast path
    /// lock-free under the engine's thread pool.
    static TWIDDLES: RefCell<HashMap<usize, Tables>> = RefCell::new(HashMap::new());
}

/// Linear convolution of two real series, `c[k] = Σ_i a[i]·b[k−i]`,
/// computed spectrally. The result has `a.len() + b.len() − 1` entries —
/// exactly the cell count of the Minkowski-sum output grid
/// [`sum_pdf_with`](crate::convolve::sum_pdf_with) produces.
///
/// Round-off can leave entries that should be zero (or tiny positives)
/// slightly negative; callers building densities should clamp. Empty
/// inputs yield an empty result.
///
/// # Examples
///
/// ```
/// use statim_stats::fft::convolve_series;
/// let c = convolve_series(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
/// // (1 + 2x)(3 + 4x + 5x²) = 3 + 10x + 13x² + 10x³
/// assert_eq!(c.len(), 4);
/// assert!((c[0] - 3.0).abs() < 1e-12);
/// assert!((c[2] - 13.0).abs() < 1e-12);
/// ```
pub fn convolve_series(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    if out_len <= 4 {
        // Below the smallest useful transform the direct sum is both
        // exact and faster.
        let mut c = vec![0.0; out_len];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                c[i + j] += x * y;
            }
        }
        return c;
    }
    let amax = a.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    let bmax = b.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 || bmax == 0.0 {
        return vec![0.0; out_len];
    }
    // Rescale each operand to O(1) by an exact power of two (no
    // rounding): intermediate spectra stay well inside the exponent
    // range whatever the caller's units, and the inverse scale — with
    // the inverse transform's 1/m folded in, all powers of two — is
    // applied once at spectrum-assembly time, again exactly.
    let sa = pow2_recip(amax);
    let sb = pow2_recip(bmax);
    let n = out_len.next_power_of_two(); // ≥ 8 here
    let m = n / 2;
    let scale = 1.0 / (sa * sb * m as f64);
    // Half-length even/odd packing: za[j] = a[2j] + i·a[2j+1].
    let pack = |src: &[f64], s: f64| {
        let mut re = vec![0.0f64; m];
        let mut im = vec![0.0f64; m];
        let mut pairs = src.chunks_exact(2);
        for (j, p) in pairs.by_ref().enumerate() {
            re[j] = p[0] * s;
            im[j] = p[1] * s;
        }
        if let Some(&last) = pairs.remainder().first() {
            re[src.len() / 2] = last * s;
        }
        (re, im)
    };
    let (mut ra, mut ia) = pack(a, sa);
    let (mut rb, mut ib) = pack(b, sb);
    TWIDDLES.with(|cache| {
        let mut cache = cache.borrow_mut();
        let t = cache.entry(m).or_insert_with(|| Tables::build(m));
        fft_core(&mut ra, &mut ia, t);
        fft_core(&mut rb, &mut ib, t);
        // Combine the two half-spectra into the packed product spectrum
        // Y[k] = Ce[k] + i·Co[k], where Ce/Co are the half-length
        // spectra of the even/odd output samples. With the even/odd
        // split E[k], O[k] of a real signal's spectrum X[k] = E[k] +
        // w^k·O[k] (w = exp(-iπ/m)) and t = w^k·O[k]:
        //     X[k]   = E[k] + t,      X[m−k] = conj(E[k] − t),
        // so P = A[k]·B[k] and Q = conj(C[m−k]) = (Ae−ta)·(Be−tb) give
        //     Ce[k] = (P + Q)/2,      Co[k] = conj(w^k)·(P − Q)/2.
        // Y[m−k] = conj(Ce[k]) + i·conj(Co[k]) fills the mirror half.
        // Y is written over (ra, ia); each pair (k, m−k) is read in
        // full before it is overwritten.
        let k0a = (ra[0], ia[0]);
        let k0b = (rb[0], ib[0]);
        {
            // k = 0 pairs with the (real) Nyquist bin k = m:
            // A[0] = Ae+Ao, A[m] = Ae−Ao, both real.
            let c0 = (k0a.0 + k0a.1) * (k0b.0 + k0b.1);
            let cm = (k0a.0 - k0a.1) * (k0b.0 - k0b.1);
            ra[0] = 0.5 * (c0 + cm) * scale;
            ia[0] = 0.5 * (c0 - cm) * scale;
        }
        for k in 1..=m / 2 {
            let k2 = m - k;
            let (zar, zai, za2r, za2i) = (ra[k], ia[k], ra[k2], ia[k2]);
            let (zbr, zbi, zb2r, zb2i) = (rb[k], ib[k], rb[k2], ib[k2]);
            let (wr, wi) = (t.hre[k], t.him[k]);
            // A: even/odd spectra and the twiddled odd term.
            let aer = 0.5 * (zar + za2r);
            let aei = 0.5 * (zai - za2i);
            let aor = 0.5 * (zai + za2i);
            let aoi = 0.5 * (za2r - zar);
            let tar = aor * wr - aoi * wi;
            let tai = aor * wi + aoi * wr;
            // B likewise.
            let ber = 0.5 * (zbr + zb2r);
            let bei = 0.5 * (zbi - zb2i);
            let bor = 0.5 * (zbi + zb2i);
            let boi = 0.5 * (zb2r - zbr);
            let tbr = bor * wr - boi * wi;
            let tbi = bor * wi + boi * wr;
            // P = (Ae+ta)(Be+tb), Q = (Ae−ta)(Be−tb).
            let (par, pai) = (aer + tar, aei + tai);
            let (pbr, pbi) = (ber + tbr, bei + tbi);
            let (pr, pi) = (par * pbr - pai * pbi, par * pbi + pai * pbr);
            let (qar, qai) = (aer - tar, aei - tai);
            let (qbr, qbi) = (ber - tbr, bei - tbi);
            let (qr, qi) = (qar * qbr - qai * qbi, qar * qbi + qai * qbr);
            let cer = 0.5 * (pr + qr) * scale;
            let cei = 0.5 * (pi + qi) * scale;
            let (dr, di) = (0.5 * (pr - qr) * scale, 0.5 * (pi - qi) * scale);
            // Co = conj(w^k)·D.
            let cor = dr * wr + di * wi;
            let coi = di * wr - dr * wi;
            ra[k] = cer - coi;
            ia[k] = cei + cor;
            ra[k2] = cer + coi;
            ia[k2] = cor - cei;
        }
        // Inverse transform via the swap identity: the unscaled inverse
        // DFT is the forward DFT with real and imaginary parts exchanged
        // on both input and output. Passing the slices swapped costs
        // nothing and keeps a single forward-only butterfly kernel.
        fft_core(&mut ia, &mut ra, t);
    });
    // Unpack the interleaved even/odd output samples.
    let mut c = vec![0.0f64; out_len];
    let mut pairs = c.chunks_exact_mut(2);
    for (j, p) in pairs.by_ref().enumerate() {
        p[0] = ra[j];
        p[1] = ia[j];
    }
    if let Some(last) = pairs.into_remainder().first_mut() {
        *last = ra[out_len / 2];
    }
    c
}

/// `2^-floor(log2(m))` for finite `m > 0`: the exact power-of-two factor
/// that brings `m` into `[1, 2)`. Powers of two multiply exactly in
/// binary floating point, so scaling by it loses no precision.
fn pow2_recip(m: f64) -> f64 {
    debug_assert!(m > 0.0 && m.is_finite());
    let e = m.log2().floor() as i32;
    // Clamp so 2^-e stays normal even for subnormal or huge inputs.
    2.0f64.powi(-e.clamp(-1000, 1000))
}

/// Iterative radix-2 Cooley–Tukey **forward** transform over split
/// real/imaginary slices (equal power-of-two lengths, matching the
/// tables' size). The inverse is obtained by calling this with the
/// slices swapped (`fft_core(im, re, t)`), which computes the unscaled
/// inverse DFT; the caller folds the 1/m into its own spectrum pass
/// (exactly, since m is a power of two).
fn fft_core(re: &mut [f64], im: &mut [f64], t: &Tables) {
    let n = re.len();
    debug_assert_eq!(n, im.len());
    debug_assert_eq!(n, t.perm.len());
    debug_assert!(n.is_power_of_two());
    if n <= 1 {
        return;
    }
    for (i, &j) in t.perm.iter().enumerate().skip(1) {
        let j = j as usize;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Stage len = 2 has the lone twiddle w = 1: plain add/sub pairs.
    for (rc, ic) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
        let (tr, ti) = (rc[1], ic[1]);
        rc[1] = rc[0] - tr;
        ic[1] = ic[0] - ti;
        rc[0] += tr;
        ic[0] += ti;
    }
    // Stage len = 4 has twiddles 1 and −i: multiplication-free
    // butterflies (−i·z is just a component swap with one negation).
    if n >= 4 {
        for (rc, ic) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (tr, ti) = (rc[2], ic[2]);
            rc[2] = rc[0] - tr;
            ic[2] = ic[0] - ti;
            rc[0] += tr;
            ic[0] += ti;
            let (tr, ti) = (ic[3], -rc[3]);
            rc[3] = rc[1] - tr;
            ic[3] = ic[1] - ti;
            rc[1] += tr;
            ic[1] += ti;
        }
    }
    let mut len = 8;
    while len <= n {
        let half = len / 2;
        let (twr, twi) = (&t.wre[half..len], &t.wim[half..len]);
        for (rc, ic) in re.chunks_exact_mut(len).zip(im.chunks_exact_mut(len)) {
            let (r0, r1) = rc.split_at_mut(half);
            let (i0, i1) = ic.split_at_mut(half);
            // Lockstep iterators (all six streams have length `half`)
            // so the butterfly compiles without bounds checks.
            let tw = twr.iter().zip(twi);
            let lo = r0.iter_mut().zip(i0.iter_mut());
            let hi = r1.iter_mut().zip(i1.iter_mut());
            for (((r0, i0), (r1, i1)), (&wr, &wi)) in lo.zip(hi).zip(tw) {
                let tr = *r1 * wr - *i1 * wi;
                let ti = *r1 * wi + *i1 * wr;
                *r1 = *r0 - tr;
                *i1 = *i0 - ti;
                *r0 += tr;
                *i0 += ti;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct O(n²) reference convolution.
    fn direct(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                c[i + j] += x * y;
            }
        }
        c
    }

    #[test]
    fn matches_direct_convolution() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin() + 1.5).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64 * 0.11).cos() + 2.0).collect();
        let fast = convolve_series(&a, &b);
        let slow = direct(&a, &b);
        assert_eq!(fast.len(), slow.len());
        let peak = slow.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-12 * peak, "{x} vs {y}");
        }
    }

    #[test]
    fn impulse_is_identity() {
        let a = [2.0, 3.0, 5.0, 7.0, 11.0];
        let c = convolve_series(&a, &[1.0]);
        assert_eq!(c.len(), a.len());
        for (x, y) in c.iter().zip(&a) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn single_cell_inputs() {
        let c = convolve_series(&[3.0], &[4.0]);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_empty() {
        assert!(convolve_series(&[], &[1.0]).is_empty());
        assert!(convolve_series(&[1.0], &[]).is_empty());
    }

    #[test]
    fn non_power_of_two_padding_round_trips() {
        // Output lengths that are not powers of two (here 5 + 3 − 1 = 7,
        // padded to 8) come back exact after the forward/inverse pair.
        let a = [1.0, 0.0, 2.0, 0.0, 3.0];
        let b = [1.0, 1.0, 1.0];
        let fast = convolve_series(&a, &b);
        let slow = direct(&a, &b);
        for (x, y) in fast.iter().zip(&slow) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn odd_lengths_exercise_every_packing_lane() {
        // Odd/even length mixes place the last sample in either the
        // even or the odd lane of the half-length packing; all four
        // combinations must agree with the direct sum.
        for (na, nb) in [(9usize, 6usize), (8, 7), (13, 13), (12, 10)] {
            let a: Vec<f64> = (0..na).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..nb).map(|i| 2.0 + (i as f64 * 0.3).cos()).collect();
            let fast = convolve_series(&a, &b);
            let slow = direct(&a, &b);
            let peak = slow.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            for (x, y) in fast.iter().zip(&slow) {
                assert!((x - y).abs() < 1e-12 * peak, "({na},{nb}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn conserves_total_sum() {
        // Σc = Σa · Σb exactly in real arithmetic; spectrally to 1e-12.
        let a: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64).collect();
        let b: Vec<f64> = (0..60).map(|i| 0.5 + (i % 3) as f64).collect();
        let c = convolve_series(&a, &b);
        let sa: f64 = a.iter().sum();
        let sb: f64 = b.iter().sum();
        let sc: f64 = c.iter().sum();
        assert!((sc - sa * sb).abs() < 1e-9 * sa * sb);
    }

    #[test]
    fn deterministic_across_runs() {
        let a: Vec<f64> = (0..77).map(|i| (i as f64).sqrt()).collect();
        let b: Vec<f64> = (0..41).map(|i| (i as f64 * 0.3).exp() % 5.0).collect();
        let c1 = convolve_series(&a, &b);
        let c2 = convolve_series(&a, &b);
        for (x, y) in c1.iter().zip(&c2) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
