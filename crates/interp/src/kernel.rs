//! Local interpolation stencils (trilinear and cubic Lagrange).

use claire_grid::{ghost::GhostField, Layout, Real, ScalarField, TWO_PI};

/// Interpolation order, named after the paper's GPU kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpOrder {
    /// Trilinear (`GPU-TXTLIN`): 8-point support, ~30 flop/query. The
    /// paper's choice for the large-scale runs (Tables 6 and 7).
    Linear,
    /// Cubic Lagrange (`GPU-TXTLAG`): 64-point support, ~482 flop/query.
    /// The paper's choice when accuracy matters (Table 2 uses it).
    Cubic,
    /// Cubic B-spline (`GPU-TXTSPL`): same 64-point support evaluated on
    /// *prefiltered* coefficients. The fastest kernel on a single GPU
    /// (hardware-trilinear trick of [14]), but the paper rejects it for
    /// the distributed solver because the prefilter needs an extra global
    /// data exchange — see
    /// [`bspline_prefilter`](crate::kernel::lagrange_weights) docs and
    /// `claire-diff`'s spectral prefilter.
    CubicSpline,
}

impl IpOrder {
    /// Ghost-layer width needed along x1 (both kernels fit in 2 planes:
    /// linear needs (0, +1), cubic needs (−1, +2)).
    pub const GHOST_WIDTH: usize = 2;

    /// Approximate flop count per scalar query (paper §3.1: 30 vs 482;
    /// TXTSPL evaluates via 8 hardware-trilinear fetches on the GPU,
    /// substantially cheaper than TXTLAG).
    pub fn flops_per_query(self) -> usize {
        match self {
            IpOrder::Linear => 30,
            IpOrder::Cubic => 482,
            IpOrder::CubicSpline => 160,
        }
    }

    /// Human-readable kernel name as used in the paper.
    pub fn kernel_name(self) -> &'static str {
        match self {
            IpOrder::Linear => "GPU-TXTLIN",
            IpOrder::Cubic => "GPU-TXTLAG",
            IpOrder::CubicSpline => "GPU-TXTSPL",
        }
    }

    /// Whether the field must be converted to B-spline coefficients before
    /// this kernel reads it (the paper's prefilter step).
    pub fn needs_prefilter(self) -> bool {
        self == IpOrder::CubicSpline
    }
}

/// Cubic B-spline basis weights at fraction `t ∈ [0,1)` for node offsets
/// `{−1, 0, 1, 2}` (partition of unity; C² smooth).
#[inline]
pub fn bspline_weights(t: Real) -> [Real; 4] {
    let t2 = t * t;
    let t3 = t2 * t;
    let one_m = 1.0 - t;
    [
        one_m * one_m * one_m / 6.0,
        (3.0 * t3 - 6.0 * t2 + 4.0) / 6.0,
        (-3.0 * t3 + 3.0 * t2 + 3.0 * t + 1.0) / 6.0,
        t3 / 6.0,
    ]
}

/// Cubic Lagrange basis weights at fraction `t ∈ [0,1)` for node offsets
/// `{−1, 0, 1, 2}`. Dispatches to the active SIMD backend (one vector of
/// four polynomial evaluations on AVX2).
#[inline]
pub fn lagrange_weights(t: Real) -> [Real; 4] {
    claire_simd::lagrange_weights(t)
}

/// Wrap a physical coordinate into `[0, 2π)` and convert to continuous grid
/// index `u = x/h ∈ [0, n)`.
#[inline]
pub fn to_index(x: Real, n: usize) -> Real {
    let nr = n as Real;
    let mut u = x * nr / TWO_PI;
    u = rem_period(u, nr);
    if u < 0.0 {
        u += nr;
    }
    if u >= nr {
        u = 0.0; // guard against x == 2π after rounding
    }
    u
}

/// `u % nr` (the truncated remainder, exact in floating point) without the
/// `fmod` call for the coordinates characteristic feet actually take: `u`
/// within one period of `[0, nr)`. There `u` itself or `u ∓ nr` is the
/// remainder, and the subtraction is exact (Sterbenz: both operands lie
/// within a factor of two); the remainder takes the dividend's sign, which
/// `copysign` restores for the zero `u = −nr` leaves. Every path returns
/// the same bits as `%`.
#[inline]
fn rem_period(u: Real, nr: Real) -> Real {
    let a = u.abs();
    if a < nr {
        u
    } else if a < 2.0 * nr {
        (a - nr).copysign(u)
    } else {
        u % nr
    }
}

/// Split a continuous index `u ∈ [0, n)` (a [`to_index`] result) into
/// (integer base, fraction). Equal, bit for bit, to `(⌊u⌋, u − ⌊u⌋)`: for
/// non-negative `u` truncation is the floor, and `copysign` restores the
/// floor's signed zero for `u = −0`. (`f64::floor` is a libm call on the
/// baseline x86-64 target; the conversion pair is two instructions.)
#[inline]
fn split(u: Real) -> (isize, Real) {
    debug_assert!(u >= 0.0, "split needs a wrapped index, got {u}");
    let f = ((u as i64) as Real).copysign(u);
    (f as isize, u - f)
}

/// Bits per axis of a packed stencil base (see [`Stencil::pack`]).
const AXIS_BITS: u32 = 21;
const AXIS_MASK: u64 = (1 << AXIS_BITS) - 1;

/// One query resolved against the owning rank's slab: the base cell of the
/// stencil and the exact in-cell fractions `t` that [`to_index`] and the
/// floor split yield. The same entry serves every [`IpOrder`] — the order
/// only decides which weights `t` turns into and how many neighbours the
/// stencil reads.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stencil {
    /// In-cell fractions along x1, x2, x3, each in `[0, 1)`.
    pub(crate) t: [Real; 3],
    /// Base cell: slab-relative x1 plane, x2 row and x3 column (all
    /// unwrapped: the plane lies in the owned slab, the row and column in
    /// `[0, n2)` and `[0, n3)`).
    pub(crate) base: [usize; 3],
}

/// `j` wrapped into `[0, n)` for `j < 3n` — the forward neighbours of a
/// base index in `[0, n)` reach at most `n + 1`.
#[inline]
fn wrap_up(j: usize, n: usize) -> usize {
    let j = if j >= n { j - n } else { j };
    if j >= n {
        j - n
    } else {
        j
    }
}

/// `j − 1` wrapped into `[0, n)` for `j` in `[0, n)`.
#[inline]
fn wrap_down(j: usize, n: usize) -> usize {
    if j == 0 {
        n - 1
    } else {
        j - 1
    }
}

/// A borrowed ghost-extended field: the storage and the strides a stencil
/// needs to read it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct GhostView<'a> {
    data: &'a [Real],
    width: usize,
    n2: usize,
    n3: usize,
}

impl<'a> GhostView<'a> {
    /// View of `gf`'s storage.
    pub(crate) fn of(gf: &'a GhostField) -> GhostView<'a> {
        let g = gf.layout().grid;
        GhostView { data: gf.data(), width: gf.width(), n2: g.n[1], n3: g.n[2] }
    }
}

impl Stencil {
    /// Packed base indices (21 bits per axis), as plans store them.
    #[inline]
    pub(crate) fn pack(&self) -> u64 {
        let [p, j, k] = self.base;
        ((p as u64) << (2 * AXIS_BITS)) | ((j as u64) << AXIS_BITS) | k as u64
    }

    /// Inverse of [`Stencil::pack`].
    #[inline]
    pub(crate) fn unpack(t: [Real; 3], packed: u64) -> Stencil {
        let p = (packed >> (2 * AXIS_BITS)) as usize;
        let j = ((packed >> AXIS_BITS) & AXIS_MASK) as usize;
        let k = (packed & AXIS_MASK) as usize;
        Stencil { t, base: [p, j, k] }
    }

    /// Trilinear weights `[1 − t, t]` per axis.
    #[inline]
    pub(crate) fn linear_weights(&self) -> [[Real; 2]; 3] {
        self.t.map(|t| [1.0 - t, t])
    }

    /// Cubic weights per axis from a basis (`lagrange_weights` or
    /// `bspline_weights`).
    #[inline]
    pub(crate) fn cubic_weights(&self, basis: impl Fn(Real) -> [Real; 4]) -> [[Real; 4]; 3] {
        [basis(self.t[0]), basis(self.t[1]), basis(self.t[2])]
    }

    /// The trilinear 2×2×2 accumulation. x1 never wraps (the ghost layer
    /// covers the support); the x2/x3 neighbours wrap periodically by
    /// compare-and-select.
    #[inline]
    pub(crate) fn apply_linear(&self, [w1, w2, w3]: &[[Real; 2]; 3], g: &GhostView) -> Real {
        let (n2, n3) = (g.n2, g.n3);
        let [p, b2, b3] = self.base;
        // storage plane of the base cell
        let pl = p + g.width;
        let data = g.data;
        let rows = [b2, wrap_up(b2 + 1, n2)];
        let cols = [b3, wrap_up(b3 + 1, n3)];
        let mut acc = 0.0 as Real;
        for (a, &wa) in w1.iter().enumerate() {
            let plane = (pl + a) * n2;
            for (&jj, &wb) in rows.iter().zip(w2) {
                let row = (plane + jj) * n3;
                for (&kk, &wc) in cols.iter().zip(w3) {
                    acc += wa * wb * wc * data[row + kk];
                }
            }
        }
        acc
    }

    /// The cubic 4×4×4 accumulation over offsets `{−1, 0, 1, 2}` per axis.
    #[inline]
    pub(crate) fn apply_cubic(&self, [w1, w2, w3]: &[[Real; 4]; 3], g: &GhostView) -> Real {
        let (n2, n3) = (g.n2, g.n3);
        let [p, b2, b3] = self.base;
        let pl = p + g.width;
        let data = g.data;
        // Fast path: when the 4×4×4 support does not cross the periodic seam
        // in x2/x3 (the overwhelmingly common case away from the domain
        // boundary), the 16 stencil rows are contiguous in the ghost storage
        // and the whole 64-point accumulation runs as one SIMD kernel.
        if b2 >= 1 && b2 + 2 < n2 && b3 >= 1 && b3 + 2 < n3 {
            let base = ((pl - 1) * n2 + (b2 - 1)) * n3 + (b3 - 1);
            return claire_simd::cubic_accumulate(data, base, n2 * n3, n3, w1, w2, w3);
        }
        let rows = [wrap_down(b2, n2), b2, wrap_up(b2 + 1, n2), wrap_up(b2 + 2, n2)];
        let cols = [wrap_down(b3, n3), b3, wrap_up(b3 + 1, n3), wrap_up(b3 + 2, n3)];
        let mut acc = 0.0 as Real;
        for (a, &wa) in w1.iter().enumerate() {
            let plane = (pl + a - 1) * n2;
            for (&jj, &wb) in rows.iter().zip(w2) {
                let row = (plane + jj) * n3;
                let wab = wa * wb;
                for (&kk, &wc) in cols.iter().zip(w3) {
                    acc += wab * wc * data[row + kk];
                }
            }
        }
        acc
    }

    /// Evaluate the stencil for `order` on the field behind `g`.
    #[inline]
    pub(crate) fn eval(&self, order: IpOrder, g: &GhostView) -> Real {
        match order {
            IpOrder::Linear => self.apply_linear(&self.linear_weights(), g),
            IpOrder::Cubic => self.apply_cubic(&self.cubic_weights(lagrange_weights), g),
            IpOrder::CubicSpline => self.apply_cubic(&self.cubic_weights(bspline_weights), g),
        }
    }
}

/// Turns physical query points into [`Stencil`]s for one slab layout.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Locator {
    n: [usize; 3],
    i0: usize,
    ni: usize,
}

impl Locator {
    /// Locator for queries against `layout`'s owned slab.
    pub(crate) fn new(layout: &Layout) -> Locator {
        let n = layout.grid.n;
        assert!(
            n.iter().all(|&d| (d as u64) <= AXIS_MASK),
            "grid {n:?} exceeds the packed stencil range (2^{AXIS_BITS} per axis)"
        );
        Locator { n, i0: layout.slab.i0, ni: layout.slab.ni }
    }

    /// Global x1 plane holding `x1` (the base plane of its stencil).
    #[inline]
    pub(crate) fn plane_of(&self, x1: Real) -> usize {
        split(to_index(x1, self.n[0])).0 as usize
    }

    /// The stencil of query `x`, or `Err(plane)` with its global x1 base
    /// plane when another rank's slab owns that plane.
    #[inline]
    pub(crate) fn locate(&self, x: [Real; 3]) -> Result<Stencil, usize> {
        let (b1, t1) = split(to_index(x[0], self.n[0]));
        let b1 = b1 as usize;
        if b1 < self.i0 || b1 >= self.i0 + self.ni {
            return Err(b1);
        }
        let (b2, t2) = split(to_index(x[1], self.n[1]));
        let (b3, t3) = split(to_index(x[2], self.n[2]));
        Ok(Stencil { t: [t1, t2, t3], base: [b1 - self.i0, b2 as usize, b3 as usize] })
    }
}

/// Interpolate a ghost-extended field at a physical point `x`.
///
/// The x1 coordinate must fall inside the owned slab (the distributed
/// driver routes queries so this holds); x2/x3 wrap locally since those
/// dimensions are not decomposed.
pub fn interp_ghost(gf: &GhostField, order: IpOrder, x: [Real; 3]) -> Real {
    let s = Locator::new(gf.layout())
        .locate(x)
        .unwrap_or_else(|plane| panic!("query {x:?} lies in x1 plane {plane}, outside the slab"));
    s.eval(order, &GhostView::of(gf))
}

/// Serial convenience: interpolate a full (serial-layout) field at `x`.
pub fn interp_serial(f: &ScalarField, order: IpOrder, x: [Real; 3]) -> Real {
    assert!(f.layout().is_serial(), "interp_serial needs a serial-layout field");
    let mut comm = claire_mpi::Comm::solo();
    let gf = claire_grid::ghost::exchange(f, IpOrder::GHOST_WIDTH, &mut comm);
    interp_ghost(&gf, order, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_grid::{Grid, Layout};

    #[test]
    fn to_index_and_split_match_fmod_and_floor_bitwise() {
        // the historical definitions the fast paths must reproduce
        let reference = |x: Real, n: usize| -> (Real, isize, Real) {
            let nr = n as Real;
            let mut u = x * nr / TWO_PI;
            u %= nr;
            if u < 0.0 {
                u += nr;
            }
            if u >= nr {
                u = 0.0;
            }
            let f = u.floor();
            (u, f as isize, u - f)
        };
        let mut xs: Vec<Real> = vec![0.0, -0.0, TWO_PI, -TWO_PI, 2.0 * TWO_PI, -2.0 * TWO_PI];
        for k in -7i32..=7 {
            for d in [0.0 as Real, 1e-15, -1e-15, 0.3, -0.3, 1e-30, -1e-30] {
                xs.push(k as Real * TWO_PI + d);
                xs.push(k as Real * TWO_PI * (1.0 + 1e-16) + d);
            }
        }
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..20_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            xs.push(((s >> 11) as Real / (1u64 << 53) as Real - 0.5) * 8.0 * TWO_PI);
        }
        for n in [1usize, 2, 7, 8, 96, 1000] {
            let nr = n as Real;
            for &x in xs.iter().chain(&[-nr, nr, 2.0 * nr, -2.0 * nr]) {
                let (u, b, t) = reference(x, n);
                let got = to_index(x, n);
                assert_eq!(got.to_bits(), u.to_bits(), "to_index({x:e}, {n})");
                let (gb, gt) = split(got);
                assert_eq!((gb, gt.to_bits()), (b, t.to_bits()), "split of to_index({x:e}, {n})");
            }
        }
        // the remainder itself, including the zero of u = −nr
        for nr in [8.0 as Real, 96.0] {
            for u in [-nr, nr, -2.0 * nr, -1.5 * nr, 1.5 * nr, -0.0, 3.0 * nr + 0.25] {
                assert_eq!(rem_period(u, nr).to_bits(), (u % nr).to_bits(), "{u} % {nr}");
            }
        }
    }

    #[test]
    fn lagrange_weights_partition_of_unity() {
        for &t in &[0.0 as Real, 0.25, 0.5, 0.9] {
            let w = lagrange_weights(t);
            let s: Real = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "t={t}: sum {s}");
        }
        // at t = 0 the weights collapse to the node
        let w0 = lagrange_weights(0.0);
        assert!((w0[1] - 1.0).abs() < 1e-6);
        assert!(w0[0].abs() < 1e-6 && w0[2].abs() < 1e-6 && w0[3].abs() < 1e-6);
    }

    #[test]
    fn exact_at_grid_points() {
        let grid = Grid::new([8, 8, 8]);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, y, z| x.sin() + (y * z).cos());
        let h = grid.spacing();
        for order in [IpOrder::Linear, IpOrder::Cubic] {
            for &(i, j, k) in &[(0usize, 0usize, 0usize), (3, 5, 7), (7, 7, 7)] {
                let x = [i as Real * h[0], j as Real * h[1], k as Real * h[2]];
                let v = interp_serial(&f, order, x);
                assert!(
                    ((v - f.at(i, j, k)) as f64).abs() < 1e-10,
                    "{order:?} at ({i},{j},{k}): {v} vs {}",
                    f.at(i, j, k)
                );
            }
        }
    }

    #[test]
    fn cubic_reproduces_smooth_functions() {
        let grid = Grid::cube(32);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, y, z| {
            (x).sin() * (y).cos() + (0.5 * z).sin()
        });
        let probe = [1.234 as Real, 2.345, 3.456];
        let exact = (probe[0]).sin() * (probe[1]).cos() + (0.5 * probe[2]).sin();
        let lin = interp_serial(&f, IpOrder::Linear, probe) as f64;
        let cub = interp_serial(&f, IpOrder::Cubic, probe) as f64;
        assert!((cub - exact).abs() < 5e-5, "cubic err {}", (cub - exact).abs());
        assert!(
            (cub - exact).abs() < (lin - exact).abs(),
            "cubic ({cub}) should beat linear ({lin}) against {exact}"
        );
    }

    #[test]
    fn periodic_wrap_queries() {
        let grid = Grid::cube(8);
        let f = ScalarField::from_fn(Layout::serial(grid), |x, _, _| x.cos());
        // a point just below 2π interpolates across the periodic seam
        let x = [TWO_PI - 0.01, 0.0, 0.0];
        let v = interp_serial(&f, IpOrder::Cubic, x) as f64;
        assert!((v - (TWO_PI - 0.01).cos()).abs() < 1e-3, "v = {v}");
        // negative coordinates wrap too
        let v2 = interp_serial(&f, IpOrder::Cubic, [-0.01, 0.0, 0.0]) as f64;
        assert!((v - v2).abs() < 1e-6);
    }

    #[test]
    fn fourth_order_convergence_of_cubic() {
        let mut errs = Vec::new();
        for &n in &[16usize, 32] {
            let grid = Grid::cube(n);
            let f = ScalarField::from_fn(Layout::serial(grid), |x, _, _| (2.0 * x).sin());
            let mut comm = claire_mpi::Comm::solo();
            let gf = claire_grid::ghost::exchange(&f, IpOrder::GHOST_WIDTH, &mut comm);
            let mut e = 0.0f64;
            for q in 0..50 {
                let x = 0.123 as Real + q as Real * 0.11;
                let x = x % TWO_PI;
                let v = interp_ghost(&gf, IpOrder::Cubic, [x, 0.0, 0.0]) as f64;
                e = e.max((v - (2.0 * x).sin()).abs());
            }
            errs.push(e);
        }
        let order = (errs[0] / errs[1]).log2();
        assert!(order > 3.5, "cubic should be ~4th order, got {order} ({errs:?})");
    }
}
