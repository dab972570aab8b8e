//! Density of a function of independent random variables by exhaustive
//! grid enumeration.
//!
//! The inter-die path delay of the paper is a *non-linear* function of the
//! five inter-die RVs, so its PDF cannot be obtained by convolution. The
//! paper computes it numerically at `O(QUALITYinter^R)` cost and advises
//! separating as many variables as possible (§2.5). These kernels perform
//! that enumeration for one, two and three variables; higher arities are
//! reached by factoring the delay expression (see `statim-core::inter`).
//!
//! Each input cell contributes its probability mass at the function value
//! of the cell centers; the mass is histogrammed onto an automatically
//! ranged output grid.

use crate::grid::Grid;
use crate::pdf::Pdf;
use crate::{Result, StatsError};

/// Builds the output grid for mapped values in `[lo, hi]` with `quality`
/// cells, padding degenerate ranges so the grid is valid.
fn output_grid(lo: f64, hi: f64, quality: usize) -> Result<Grid> {
    if !lo.is_finite() || !hi.is_finite() {
        return Err(StatsError::NonFinite {
            what: "mapped values",
        });
    }
    let (lo, hi) = if hi - lo > 0.0 {
        (lo, hi)
    } else {
        // All mass at a single value: widen symmetrically.
        let pad = lo.abs().max(1.0) * 1e-9;
        (lo - pad, hi + pad)
    };
    // Nudge the top edge outward so the maximum value falls inside.
    let span = hi - lo;
    Grid::over(lo, hi + span * 1e-12 + f64::MIN_POSITIVE, quality)
}

/// A histogram on a grid that bins each finite value into
/// [`Grid::clamp_cell_of`]'s cell, adding the masses of every cell in
/// call order, and keeps the open cell's running sum in a register.
///
/// `clamp_cell_of` is non-decreasing in its argument (rounded
/// subtraction, division by a positive step, truncation and `min` are
/// each monotone, and the two clamps agree with them), so the values it
/// sends to cell `c` are exactly `[bounds[c], bounds[c + 1])`. A value
/// inside the open cell's bounds is added without a division or a store;
/// only a value that leaves them pays for `clamp_cell_of`. Each cell
/// receives the same additions in the same order as
/// `density[grid.clamp_cell_of(v)] += m`, so the sums are bitwise equal.
struct Bins {
    grid: Grid,
    bounds: Vec<f64>,
    mass: Vec<f64>,
    /// The open cell, its bounds `[floor, ceil)` and its running sum.
    cell: usize,
    floor: f64,
    ceil: f64,
    sum: f64,
}

impl Bins {
    fn new(grid: Grid) -> Self {
        let bounds = cell_bounds(&grid);
        let (floor, ceil) = (bounds[0], bounds[1]);
        Bins {
            grid,
            bounds,
            mass: vec![0.0; grid.len()],
            cell: 0,
            floor,
            ceil,
            sum: 0.0,
        }
    }

    /// Adds `m` to the cell of the finite value `v`.
    #[inline(always)]
    fn add(&mut self, v: f64, m: f64) {
        if v < self.floor || v >= self.ceil {
            self.mass[self.cell] = self.sum;
            self.cell = self.grid.clamp_cell_of(v);
            self.floor = self.bounds[self.cell];
            self.ceil = self.bounds[self.cell + 1];
            self.sum = self.mass[self.cell];
        }
        self.sum += m;
    }

    /// The densities: each cell's mass over the step.
    fn into_density(mut self) -> Vec<f64> {
        self.mass[self.cell] = self.sum;
        let step = self.grid.step();
        self.mass.iter().map(|m| m / step).collect()
    }
}

/// The `n + 1` cell thresholds of an `n`-cell grid: `bounds[0] = −∞`,
/// `bounds[c]` is the least f64 whose [`Grid::clamp_cell_of`] is at least
/// `c`, and `bounds[n] = +∞`. A cell no value reaches has equal bounds.
fn cell_bounds(grid: &Grid) -> Vec<f64> {
    let n = grid.len();
    let mut bounds = Vec::with_capacity(n + 1);
    bounds.push(f64::NEG_INFINITY);
    bounds.extend((1..n).map(|c| least_at_or_above(grid, c)));
    bounds.push(f64::INFINITY);
    bounds
}

/// Representable values walked from a cell's left edge before bisecting:
/// the threshold is almost always within an ulp or two of the edge.
const EDGE_WALK: usize = 8;

/// The least f64 whose `clamp_cell_of` is at least `c`, for
/// `0 < c < grid.len()`.
///
/// The search runs over [`order_key`]s and keeps `below` in a cell under
/// `c` and `above` in a cell at or over `c`: `lo` lies in cell 0, and
/// every value at or over `hi` that is also over `lo` lies in cell
/// `n − 1`. It first steps one representable value at a time from
/// `lo + c·step`, then bisects whatever gap is left, so it ends on any
/// valid grid. Every probe lies strictly between the bracket's ends, the
/// lower of which is finite, so it is finite.
fn least_at_or_above(grid: &Grid, c: usize) -> f64 {
    let at_or_above = |key: u64| grid.clamp_cell_of(from_order_key(key)) >= c;
    let below = order_key(grid.lo());
    let (mut below, mut above) = (below, order_key(grid.hi()).max(below + 1));
    let mut probe = order_key(grid.edge(c));
    for _ in 0..EDGE_WALK {
        if probe <= below || probe >= above {
            break;
        }
        if at_or_above(probe) {
            above = probe;
            probe -= 1;
        } else {
            below = probe;
            probe += 1;
        }
    }
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        if at_or_above(mid) {
            above = mid;
        } else {
            below = mid;
        }
    }
    from_order_key(above)
}

/// `x`'s position among the f64 values as an unsigned integer: keys
/// ascend with the values they encode, and neighbouring keys are
/// neighbouring representable values (`−0.0` sits just below `+0.0`).
/// (`f64::next_up` would need Rust 1.86.)
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The f64 with the given [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Density of `Y = f(X)` for `X ~ p`. `f` need not be monotone.
///
/// # Errors
///
/// Returns an error if `f` produces non-finite values or `quality == 0`.
///
/// # Examples
///
/// ```
/// use statim_stats::{combine::map1, gaussian::gaussian_pdf};
/// let x = gaussian_pdf(0.0, 1.0, 6.0, 400);
/// let y = map1(&x, 200, |v| v * v).unwrap(); // chi-squared with 1 dof
/// assert!((y.mean() - 1.0).abs() < 0.02);
/// ```
pub fn map1(p: &Pdf, quality: usize, mut f: impl FnMut(f64) -> f64) -> Result<Pdf> {
    let vals: Vec<f64> = p.grid().centers().map(&mut f).collect();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &vals {
        if !v.is_finite() {
            return Err(StatsError::NonFinite {
                what: "map1 output",
            });
        }
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut density = vec![0.0f64; grid.len()];
    let step_in = p.grid().step();
    for (i, &v) in vals.iter().enumerate() {
        density[grid.clamp_cell_of(v)] += p.density()[i] * step_in;
    }
    let density = density.iter().map(|m| m / grid.step()).collect();
    Pdf::new(grid, density)
}

/// Density of `Z = f(X, Y)` for independent `X ~ a`, `Y ~ b`.
/// Complexity `O(nₐ·n_b)`. The binning pass compares each value with the
/// exact bounds of the cell it is filling and finds a new cell only when
/// a value leaves them; the result is bitwise that of binning every value
/// through [`Grid::clamp_cell_of`].
///
/// # Errors
///
/// Returns an error if `f` produces non-finite values or `quality == 0`.
pub fn map2(a: &Pdf, b: &Pdf, quality: usize, mut f: impl FnMut(f64, f64) -> f64) -> Result<Pdf> {
    let xs: Vec<f64> = a.grid().centers().collect();
    let ys: Vec<f64> = b.grid().centers().collect();
    let mut vals = Vec::with_capacity(xs.len() * ys.len());
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in &xs {
        for &y in &ys {
            let v = f(x, y);
            if !v.is_finite() {
                return Err(StatsError::NonFinite {
                    what: "map2 output",
                });
            }
            lo = lo.min(v);
            hi = hi.max(v);
            vals.push(v);
        }
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut bins = Bins::new(grid);
    let ma = a.grid().step();
    let mb = b.grid().step();
    for (&dx, row) in a.density().iter().zip(vals.chunks_exact(ys.len())) {
        let wx = dx * ma;
        for (&v, &dy) in row.iter().zip(b.density()) {
            bins.add(v, wx * dy * mb);
        }
    }
    Pdf::new(grid, bins.into_density())
}

/// Density of `W = f(X, Y, Z)` for three independent inputs.
/// Complexity `O(nₐ·n_b·n_c)`; `f` is evaluated twice per grid point
/// (range pass, then binning pass). This is the generic reference that
/// [`map3_tabulated`], the kernel of the inter-die voltage factor, is
/// tested against.
///
/// # Errors
///
/// Returns an error if `f` produces non-finite values or `quality == 0`.
pub fn map3(
    a: &Pdf,
    b: &Pdf,
    c: &Pdf,
    quality: usize,
    mut f: impl FnMut(f64, f64, f64) -> f64,
) -> Result<Pdf> {
    let xs: Vec<f64> = a.grid().centers().collect();
    let ys: Vec<f64> = b.grid().centers().collect();
    let zs: Vec<f64> = c.grid().centers().collect();
    // First pass: range.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in &xs {
        for &y in &ys {
            for &z in &zs {
                let v = f(x, y, z);
                if !v.is_finite() {
                    return Err(StatsError::NonFinite {
                        what: "map3 output",
                    });
                }
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut density = vec![0.0f64; grid.len()];
    let (ma, mb, mc) = (a.grid().step(), b.grid().step(), c.grid().step());
    for (i, &x) in xs.iter().enumerate() {
        let wx = a.density()[i] * ma;
        if wx == 0.0 {
            continue;
        }
        for (j, &y) in ys.iter().enumerate() {
            let wxy = wx * b.density()[j] * mb;
            if wxy == 0.0 {
                continue;
            }
            for (k, &z) in zs.iter().enumerate() {
                let w = wxy * c.density()[k] * mc;
                density[grid.clamp_cell_of(f(x, y, z))] += w;
            }
        }
    }
    let density = density.iter().map(|m| m / grid.step()).collect();
    Pdf::new(grid, density)
}

/// `f(xᵢ, yⱼ)` at every pair of cell centers of `x` and `y`, row-major
/// in `x` (entry `i·n_y + j`): a table for [`map3_tabulated`].
pub fn center_table(x: &Pdf, y: &Pdf, mut f: impl FnMut(f64, f64) -> f64) -> Vec<f64> {
    let ys: Vec<f64> = y.grid().centers().collect();
    let mut table = Vec::with_capacity(x.grid().len() * ys.len());
    for xv in x.grid().centers() {
        table.extend(ys.iter().map(|&yv| f(xv, yv)));
    }
    table
}

/// The entries of a table row at which `c·t` is smallest and largest.
/// Rounding is monotone, so `fl(c·t)` moves with `t` in the direction of
/// `c`'s sign.
fn scaled_extremes(c: f64, row: &[f64]) -> (f64, f64) {
    let min = row.iter().copied().fold(f64::INFINITY, f64::min);
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if c < 0.0 {
        (max, min)
    } else {
        (min, max)
    }
}

/// Density of `W = α·g(X, Y) + β·h(X, Z)` for three independent inputs,
/// with `g` and `h` given as [`center_table`]s over the cell centers:
/// `gy[i·n_y + j] = g(xᵢ, yⱼ)` and `hz[i·n_z + k] = h(xᵢ, z_k)`. This is
/// the voltage factor `A·f(Vdd,VTn) + B·f(Vdd,|VTp|)` of the inter-die
/// delay.
///
/// The result is bitwise equal to [`map3`] with the closure
/// `|x, y, z| α·g(x, y) + β·h(x, z)`: every grid point evaluates the same
/// f64 operations on the same operands, in the same order. [`map3`]
/// evaluates that closure, and so `g` and `h`, twice per grid point; here
/// the caller evaluates them `nₓ·(n_y + n_z)` times in all, the range pass
/// reads only per-row table extremes — `fl(u + v)` is non-decreasing in
/// each argument, so a row's extreme values come from its extreme
/// entries — and a single `nₓ·n_y·n_z` pass multiplies, adds and bins.
/// That pass keeps the open cell's sum in a register and divides only
/// when a value leaves the cell's exact bounds, the least value
/// `clamp_cell_of` sends to each cell: at QUALITYinter = 50 a row of 50
/// values crosses about four cells.
///
/// # Errors
///
/// Returns [`StatsError::NonFinite`] naming `"map3 output"`, as [`map3`]
/// does, if any table entry or any `α·g + β·h` is non-finite, and an
/// error if `quality == 0`.
///
/// # Panics
///
/// Panics if a table's length is not `nₓ·n_y` (resp. `nₓ·n_z`).
pub fn map3_tabulated(
    x: &Pdf,
    y: &Pdf,
    z: &Pdf,
    quality: usize,
    (alpha, gy): (f64, &[f64]),
    (beta, hz): (f64, &[f64]),
) -> Result<Pdf> {
    let (nx, ny, nz) = (x.grid().len(), y.grid().len(), z.grid().len());
    assert_eq!(gy.len(), nx * ny, "g table is not {nx}×{ny}");
    assert_eq!(hz.len(), nx * nz, "h table is not {nx}×{nz}");
    let non_finite = StatsError::NonFinite {
        what: "map3 output",
    };
    // A non-finite entry makes every grid point of its row non-finite
    // (0·∞ is NaN), and `f64::min`/`max` would skip a NaN below.
    if gy.iter().chain(hz).any(|t| !t.is_finite()) {
        return Err(non_finite);
    }
    // Range pass. Any non-finite grid point of a row shows up in one of
    // the row's two extreme sums, so checking those before folding
    // catches every overflow the full pass would.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (g_row, h_row) in gy.chunks_exact(ny).zip(hz.chunks_exact(nz)) {
        let (g_lo, g_hi) = scaled_extremes(alpha, g_row);
        let (h_lo, h_hi) = scaled_extremes(beta, h_row);
        let (row_lo, row_hi) = (alpha * g_lo + beta * h_lo, alpha * g_hi + beta * h_hi);
        if !row_lo.is_finite() || !row_hi.is_finite() {
            return Err(non_finite);
        }
        lo = lo.min(row_lo);
        hi = hi.max(row_hi);
    }
    let grid = output_grid(lo, hi, quality)?;
    let mut bins = Bins::new(grid);
    let (mx, my, mz) = (x.grid().step(), y.grid().step(), z.grid().step());
    let mut h_scaled = vec![0.0f64; nz];
    for (i, (g_row, h_row)) in gy.chunks_exact(ny).zip(hz.chunks_exact(nz)).enumerate() {
        let wx = x.density()[i] * mx;
        if wx == 0.0 {
            continue;
        }
        for (hs, &t) in h_scaled.iter_mut().zip(h_row) {
            *hs = beta * t;
        }
        for (&g, &dy) in g_row.iter().zip(y.density()) {
            let wxy = wx * dy * my;
            if wxy == 0.0 {
                continue;
            }
            let gs = alpha * g;
            for (&hs, &dz) in h_scaled.iter().zip(z.density()) {
                bins.add(gs + hs, wxy * dz * mz);
            }
        }
    }
    Pdf::new(grid, bins.into_density())
}

/// Density of the product `X·Y` of independent variables — the
/// `tox·Leff` factor of the inter-die delay.
///
/// # Errors
///
/// Propagates [`map2`] failures.
pub fn product_pdf(a: &Pdf, b: &Pdf, quality: usize) -> Result<Pdf> {
    map2(a, b, quality, |x, y| x * y)
}

/// Density of `max(X, Y)` for **independent** `X ~ a`, `Y ~ b`, via the
/// CDF product `F_max(x) = F_X(x)·F_Y(x)` on a `quality`-cell grid
/// covering both supports.
///
/// This is the kernel of block-based statistical timing in the style the
/// DATE'05 paper criticizes (its refs [3, 4]): arrival-time maxima taken
/// as if reconverging paths were independent.
///
/// # Errors
///
/// Propagates grid-construction failures.
pub fn max_pdf(a: &Pdf, b: &Pdf, quality: usize) -> Result<Pdf> {
    let lo = a.grid().lo().min(b.grid().lo());
    let hi = a.grid().hi().max(b.grid().hi());
    let grid = output_grid(lo, hi, quality)?;
    let mut density = Vec::with_capacity(quality);
    let step = grid.step();
    let mut prev = a.cdf(grid.edge(0)) * b.cdf(grid.edge(0));
    for i in 0..quality {
        let next = a.cdf(grid.edge(i + 1)) * b.cdf(grid.edge(i + 1));
        density.push(((next - prev).max(0.0)) / step);
        prev = next;
    }
    Pdf::new(grid, density)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::gaussian_pdf;
    use crate::Grid;

    #[test]
    fn map1_linear_matches_affine() {
        let p = gaussian_pdf(10.0, 2.0, 6.0, 300);
        let m = map1(&p, 300, |x| 3.0 * x + 1.0).unwrap();
        let a = p.affine(3.0, 1.0).unwrap();
        assert!((m.mean() - a.mean()).abs() < 0.05);
        assert!((m.std_dev() - a.std_dev()).abs() < 0.05);
    }

    #[test]
    fn map1_rejects_non_finite() {
        let p = gaussian_pdf(0.0, 1.0, 6.0, 50);
        assert!(map1(&p, 50, |x| 1.0 / (x - x)).is_err());
    }

    #[test]
    fn map1_constant_function() {
        let p = gaussian_pdf(0.0, 1.0, 6.0, 50);
        let m = map1(&p, 10, |_| 5.0).unwrap();
        assert!((m.mean() - 5.0).abs() < 1e-6);
        assert!(m.std_dev() < 1e-6);
    }

    #[test]
    fn map2_sum_matches_convolution() {
        let a = gaussian_pdf(5.0, 1.0, 6.0, 150);
        let b = gaussian_pdf(7.0, 2.0, 6.0, 150);
        let s = map2(&a, &b, 200, |x, y| x + y).unwrap();
        assert!((s.mean() - 12.0).abs() < 0.05);
        assert!((s.variance() - 5.0).abs() < 0.1);
    }

    #[test]
    fn product_of_positive_gaussians() {
        // E[XY] = E[X]E[Y]; Var(XY) = σx²σy² + σx²μy² + σy²μx².
        let a = gaussian_pdf(4.5, 0.15, 6.0, 120);
        let b = gaussian_pdf(130.0, 15.0, 6.0, 120);
        let p = product_pdf(&a, &b, 200).unwrap();
        assert!((p.mean() - 585.0).abs() < 1.5);
        let var = 0.15f64.powi(2) * 15.0f64.powi(2)
            + 0.15f64.powi(2) * 130.0f64.powi(2)
            + 15.0f64.powi(2) * 4.5f64.powi(2);
        assert!((p.variance() - var).abs() / var < 0.02);
    }

    #[test]
    fn map3_sum_of_three() {
        let g = |m: f64| gaussian_pdf(m, 1.0, 6.0, 40);
        let s = map3(&g(1.0), &g(2.0), &g(3.0), 120, |x, y, z| x + y + z).unwrap();
        assert!((s.mean() - 6.0).abs() < 0.05);
        assert!((s.variance() - 3.0).abs() < 0.15);
    }

    #[test]
    fn map3_tabulated_is_bitwise_map3() {
        let g0 = |x: f64, y: f64| x / (x - y).powf(1.3) + 1.0 / (1.5 * x - 2.0 * y);
        let h0 = |x: f64, z: f64| (x * z).sqrt();
        let x = gaussian_pdf(1.2, 0.05, 3.0, 9);
        let y = gaussian_pdf(0.3, 0.02, 3.0, 7);
        let z = Pdf::new(
            Grid::over(0.2, 0.4, 5).unwrap(),
            vec![1.0, 0.0, 2.0, 1.0, 3.0],
        )
        .unwrap();
        // The tables as given, shifted far below zero (a negative `lo`),
        // and squeezed onto a huge offset (an `lo` so much larger than the
        // step that most output cells are empty).
        for (shift, scale) in [(0.0, 1.0), (-50.0, 1.0), (1e9, 1e-6)] {
            let g = |x: f64, y: f64| shift + scale * g0(x, y);
            let h = |x: f64, z: f64| shift + scale * h0(x, z);
            let (gy, hz) = (center_table(&x, &y, g), center_table(&x, &z, h));
            for (alpha, beta) in [
                (2.0, 3.0),
                (-2.0, 3.0),
                (2.0, -3.5),
                (0.0, -1.0),
                (-0.0, 1.0),
                (f64::MAX, 1.0),
            ] {
                for quality in [0, 1, 13, 50] {
                    let want = map3(&x, &y, &z, quality, |x, y, z| {
                        alpha * g(x, y) + beta * h(x, z)
                    });
                    let got = map3_tabulated(&x, &y, &z, quality, (alpha, &gy), (beta, &hz));
                    assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "shift={shift} α={alpha} β={beta} Q={quality}"
                    );
                    // The squeezed tables do leave most cells empty.
                    let squeezed = scale < 1.0 && quality == 50;
                    if let (Ok(pdf), true) = (&got, squeezed) {
                        let b = cell_bounds(pdf.grid());
                        let empty = (0..quality).filter(|&c| b[c] == b[c + 1]).count();
                        assert!(empty > quality / 2, "α={alpha} β={beta}: {empty} empty");
                    }
                }
            }
        }
        // A NaN entry fails the way the full pass does.
        let (gy, hz) = (center_table(&x, &y, g0), center_table(&x, &z, h0));
        let mut nan = gy.clone();
        nan[10] = f64::NAN;
        let got = map3_tabulated(&x, &y, &z, 13, (0.0, &nan), (1.0, &hz));
        assert!(matches!(
            got,
            Err(StatsError::NonFinite {
                what: "map3 output"
            })
        ));
    }

    #[test]
    fn cell_bounds_are_each_cells_least_value() {
        let next_down = |v: f64| from_order_key(order_key(v) - 1);
        let next_up = |v: f64| from_order_key(order_key(v) + 1);
        let grids = [
            Grid::new(0.0, 1.0, 4).unwrap(),
            Grid::over(-1.0, 1.0, 200).unwrap(),
            // A negative `lo`.
            Grid::new(-3.7, 0.1, 50).unwrap(),
            // `lo` ≫ step: one ulp of `lo` spans many cells, so most
            // cells are empty.
            Grid::new(1e9, 1e-8, 13).unwrap(),
            // A single cell.
            Grid::new(0.25, 0.5, 1).unwrap(),
            // Subnormal cells across zero.
            Grid::new(-1e-309, 3e-310, 7).unwrap(),
            // `lo + n·step` rounds back to `lo`.
            Grid::new(1e20, 1e-10, 3).unwrap(),
        ];
        for grid in &grids {
            let n = grid.len();
            let b = cell_bounds(grid);
            assert_eq!(b.len(), n + 1, "{grid:?}");
            assert_eq!((b[0], b[n]), (f64::NEG_INFINITY, f64::INFINITY));
            for c in 1..n {
                assert!(b[c - 1] <= b[c], "{grid:?} c={c}");
                assert!(grid.clamp_cell_of(b[c]) >= c, "{grid:?} c={c}");
                assert!(grid.clamp_cell_of(next_down(b[c])) < c, "{grid:?} c={c}");
            }
            // Values around every edge land in the cell whose bounds
            // hold them.
            for i in 0..=n {
                let mut v = grid.edge(i);
                for _ in 0..4 {
                    v = next_down(v);
                }
                for _ in 0..9 {
                    let c = grid.clamp_cell_of(v);
                    assert!(b[c] <= v && v < b[c + 1], "{grid:?} v={v:e} c={c}");
                    v = next_up(v);
                }
            }
        }
        // The one-ulp grid leaves cells 1..=11 empty.
        let b = cell_bounds(&grids[3]);
        assert!(b[1..=12].iter().all(|&t| t == next_up(1e9)), "{b:?}");
    }

    #[test]
    fn order_keys_step_through_adjacent_values() {
        for v in [-2.5, -f64::MIN_POSITIVE, -0.0, 0.0, 1e-310, 1.0, f64::MAX] {
            assert_eq!(from_order_key(order_key(v)).to_bits(), v.to_bits());
        }
        assert_eq!(order_key(0.0) - order_key(-0.0), 1);
        assert_eq!(from_order_key(order_key(0.0) + 1), 5e-324);
        assert_eq!(from_order_key(order_key(-0.0) - 1), -5e-324);
        assert_eq!(from_order_key(order_key(1.0) + 1), 1.0 + f64::EPSILON);
        assert_eq!(from_order_key(order_key(f64::MAX) + 1), f64::INFINITY);
        assert!(order_key(-1.0) < order_key(-0.5) && order_key(0.5) < order_key(1.0));
    }

    #[test]
    fn map2_mass_is_conserved() {
        let g = Grid::over(0.0, 1.0, 25).unwrap();
        let u = Pdf::new(g, vec![1.0; 25]).unwrap();
        let m = map2(&u, &u, 60, |x, y| x * y - y).unwrap();
        assert!((m.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_of_iid_gaussians_known_mean() {
        // E[max(X,Y)] = μ + σ/√π for iid normals.
        let a = gaussian_pdf(10.0, 2.0, 6.0, 300);
        let m = max_pdf(&a, &a, 300).unwrap();
        let expect = 10.0 + 2.0 / std::f64::consts::PI.sqrt();
        assert!((m.mean() - expect).abs() < 0.02, "{} vs {expect}", m.mean());
        assert!((m.mass() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_with_dominated_operand_is_identity() {
        let hi = gaussian_pdf(100.0, 1.0, 6.0, 200);
        let lo = gaussian_pdf(0.0, 1.0, 6.0, 200);
        let m = max_pdf(&hi, &lo, 200).unwrap();
        assert!((m.mean() - hi.mean()).abs() < 0.05);
        assert!((m.std_dev() - hi.std_dev()).abs() < 0.05);
    }

    #[test]
    fn max_of_uniforms_is_beta_like() {
        // max of two U(0,1): F = x², mean 2/3, var 1/18.
        let g = Grid::over(0.0, 1.0, 200).unwrap();
        let u = Pdf::new(g, vec![1.0; 200]).unwrap();
        let m = max_pdf(&u, &u, 200).unwrap();
        assert!((m.mean() - 2.0 / 3.0).abs() < 0.01);
        assert!((m.variance() - 1.0 / 18.0).abs() < 0.005);
    }

    #[test]
    fn max_of_more_operands_has_a_larger_mean() {
        let a = gaussian_pdf(5.0, 1.0, 6.0, 150);
        let m2 = max_pdf(&a, &a, 150).unwrap();
        let m4 = max_pdf(&m2, &m2, 150).unwrap();
        assert!(m2.mean() > a.mean());
        assert!(m4.mean() > m2.mean());
    }
}
