//! Interpolation plans against the one-shot path and the reference kernel.
//!
//! A plan routes a query set once and stores one stencil entry per query;
//! applying it must give exactly the bits of the one-shot path
//! (`Interpolator::interp_many`, which routes and resolves on every call)
//! and of the reference single-point kernel `kernel::interp_ghost` on the
//! serial field — for every rank count, order, transport and thread count.
//! The query sets deliberately hit the x2/x3 periodic seams, the x1 slab
//! boundaries, coordinates of exactly 2π, negative coordinates and points
//! several periods away, plus the two lopsided routings: every rank keeps
//! all its queries, or every rank ships all of them.

use std::sync::{Mutex, MutexGuard, PoisonError};

use claire::grid::{ghost, Grid, Layout, Real, ScalarField, TWO_PI};
use claire::interp::kernel::{bspline_weights, interp_ghost, lagrange_weights, to_index};
use claire::interp::{Interpolator, IpOrder};
use claire::mpi::{run_cluster, Comm, CommCat, Topology};
use proptest::prelude::*;

const ORDERS: [IpOrder; 3] = [IpOrder::Linear, IpOrder::Cubic, IpOrder::CubicSpline];

/// Thread-count overrides are process-global; tests that set one run one
/// at a time.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn lock_threads() -> MutexGuard<'static, ()> {
    THREADS_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Three distinct smooth fields for multi-field applies.
fn fields(layout: Layout) -> [ScalarField; 3] {
    [
        ScalarField::from_fn(layout, |x, y, z| (x).sin() * (y).cos() + (0.5 * z).sin() + 0.2),
        ScalarField::from_fn(layout, |x, y, z| (x + 2.0 * y).cos() - 0.3 * (z - x).sin()),
        ScalarField::from_fn(layout, |x, y, z| (-(x - 3.0).powi(2) - (y - z).powi(2)).exp()),
    ]
}

/// How a rank's queries relate to the slabs.
#[derive(Clone, Copy, Debug)]
enum Routing {
    /// Random points everywhere plus the edge cases.
    Mixed,
    /// Every query lies in the caller's own slab.
    AllLocal,
    /// Every query lies in the next rank's slab.
    AllForeign,
}

/// A deterministic pseudo-random coordinate in `[lo, hi)`.
fn coord(seed: u64, i: usize, axis: u64, lo: Real, hi: Real) -> Real {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (axis << 56);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    lo + (hi - lo) * ((z >> 11) as Real / (1u64 << 53) as Real)
}

/// The edge-case coordinates along an axis of `n` points: both sides of
/// the periodic seam, the last cells before it (where the cubic support
/// starts wrapping), exactly 0 and 2π, negatives and far-away periods.
fn axis_edges(n: usize) -> Vec<Real> {
    let h = TWO_PI / n as Real;
    vec![
        0.0,
        -0.0,
        TWO_PI,
        TWO_PI - 1e-12,
        -1e-13,
        (n as Real - 0.5) * h,
        (n as Real - 1.5) * h,
        (n as Real - 2.2) * h,
        0.4 * h,
        1.3 * h,
        -0.37,
        -TWO_PI - 0.1,
        TWO_PI + 0.2,
        5.0 * TWO_PI + 1.1,
        -3.0 * TWO_PI - 0.7,
    ]
}

/// Queries of `rank` for `routing`: `count` random points plus, for
/// [`Routing::Mixed`], every edge combination and the x1 slab boundaries
/// of every rank.
fn queries(
    grid: Grid,
    p: usize,
    rank: usize,
    seed: u64,
    count: usize,
    routing: Routing,
) -> Vec<[Real; 3]> {
    let h = grid.spacing();
    // x1 range of a rank's slab, shrunk off the boundary planes' rounding
    let slab_x1 = |r: usize| {
        let slab = claire::grid::Slab::of_rank(grid.n[0], p, r);
        (slab.i0 as Real * h[0] + 1e-9, slab.i_end() as Real * h[0] - 1e-9)
    };
    let (lo, hi) = match routing {
        Routing::Mixed => (-TWO_PI, 2.0 * TWO_PI),
        Routing::AllLocal => slab_x1(rank),
        Routing::AllForeign => slab_x1((rank + 1) % p),
    };
    let mut q: Vec<[Real; 3]> = (0..count)
        .map(|i| {
            [
                coord(seed, i, 0, lo, hi),
                coord(seed, i, 1, -TWO_PI, 2.0 * TWO_PI),
                coord(seed, i, 2, -TWO_PI, 2.0 * TWO_PI),
            ]
        })
        .collect();
    if let Routing::Mixed = routing {
        let (e1, e2, e3) = (axis_edges(grid.n[0]), axis_edges(grid.n[1]), axis_edges(grid.n[2]));
        for (i, &x) in e1.iter().enumerate() {
            for (j, &y) in e2.iter().enumerate() {
                q.push([x, y, e3[(i + j) % e3.len()]]);
            }
        }
        for r in 0..p {
            let slab = claire::grid::Slab::of_rank(grid.n[0], p, r);
            for x in [
                slab.i0 as Real * h[0],
                slab.i0 as Real * h[0] - 1e-12,
                slab.i0 as Real * h[0] + 1e-12,
                (slab.i_end() as Real - 0.001) * h[0],
            ] {
                q.push([x, coord(seed, r, 4, 0.0, TWO_PI), e3[r % e3.len()]]);
            }
        }
    }
    q
}

/// The stencil written out independently of `claire-interp`'s index
/// arithmetic: every neighbour index wrapped with `rem_euclid` on the
/// serial field, weights summed in plain nested loops.
fn naive(f: &ScalarField, order: IpOrder, x: [Real; 3]) -> Real {
    let n = f.layout().grid.n;
    let mut base = [0isize; 3];
    let mut t = [0.0 as Real; 3];
    for d in 0..3 {
        let u = to_index(x[d], n[d]);
        base[d] = u.floor() as isize;
        t[d] = u - u.floor();
    }
    let (offsets, w): (std::ops::RangeInclusive<isize>, [Vec<Real>; 3]) = match order {
        IpOrder::Linear => (0..=1, t.map(|t| vec![1.0 - t, t])),
        IpOrder::Cubic => (-1..=2, t.map(|t| lagrange_weights(t).to_vec())),
        IpOrder::CubicSpline => (-1..=2, t.map(|t| bspline_weights(t).to_vec())),
    };
    let at = |d: usize, o: isize| (base[d] + o).rem_euclid(n[d] as isize) as usize;
    let mut acc = 0.0 as Real;
    for (a, oa) in offsets.clone().enumerate() {
        for (b, ob) in offsets.clone().enumerate() {
            for (c, oc) in offsets.clone().enumerate() {
                acc += w[0][a] * w[1][b] * w[2][c] * f.at(at(0, oa), at(1, ob), at(2, oc));
            }
        }
    }
    acc
}

#[test]
fn reference_matches_naive_periodic_stencil() {
    // the bitwise tests compare paths that share one stencil definition;
    // this pins that definition to the textbook periodic stencil
    let grid = Grid::new([16, 8, 10]);
    let fs = fields(Layout::serial(grid));
    let mut comm = Comm::solo();
    let q = queries(grid, 4, 1, 3, 200, Routing::Mixed);
    for order in ORDERS {
        for f in &fs {
            let g = ghost::exchange(f, IpOrder::GHOST_WIDTH, &mut comm);
            for &x in &q {
                let (got, want) = (interp_ghost(&g, order, x), naive(f, order, x));
                assert!((got - want).abs() <= 1e-12, "{order:?} at {x:?}: {got:e} vs {want:e}");
            }
        }
    }
}

/// Reference values: `interp_ghost` on the serial field at every query.
fn reference(grid: Grid, order: IpOrder, q: &[[Real; 3]], nf: usize) -> Vec<Vec<u64>> {
    let mut comm = Comm::solo();
    fields(Layout::serial(grid))[..nf]
        .iter()
        .map(|f| {
            let g = ghost::exchange(f, IpOrder::GHOST_WIDTH, &mut comm);
            q.iter().map(|&x| interp_ghost(&g, order, x).to_bits()).collect()
        })
        .collect()
}

fn bits(v: &[Vec<Real>]) -> Vec<Vec<u64>> {
    v.iter().map(|f| f.iter().map(|x| x.to_bits()).collect()).collect()
}

/// What one rank measured: planned and one-shot values (as bits), the
/// plan's any-foreign flag and the value-return bytes of one apply.
struct RankRun {
    planned: Vec<Vec<u64>>,
    one_shot: Vec<Vec<u64>>,
    any_foreign: bool,
    apply_interp_bytes: u64,
}

fn run_rank(comm: &mut Comm, grid: Grid, order: IpOrder, q: &[[Real; 3]], nf: usize) -> RankRun {
    let layout =
        if comm.size() == 1 { Layout::serial(grid) } else { Layout::distributed(grid, comm) };
    let fs = fields(layout);
    let refs: Vec<&ScalarField> = fs[..nf].iter().collect();
    let mut ip = Interpolator::new(order);
    let plan = ip.plan(&layout, q, comm);
    assert_eq!(plan.len(), q.len());
    let mut planned = vec![vec![0.0 as Real; q.len()]; nf];
    let b0 = comm.stats().cat(CommCat::InterpValues).bytes_sent;
    let m0 = comm.stats().cat(CommCat::InterpValues).msgs_sent;
    {
        let mut outs: Vec<&mut [Real]> = planned.iter_mut().map(|v| v.as_mut_slice()).collect();
        ip.apply_many_into(&plan, &refs, comm, &mut outs);
    }
    let apply_interp_bytes = comm.stats().cat(CommCat::InterpValues).bytes_sent - b0;
    if !plan.any_foreign() {
        assert_eq!(
            comm.stats().cat(CommCat::InterpValues).msgs_sent,
            m0,
            "a plan without foreign queries must skip the value return"
        );
    }
    let one_shot = ip.interp_many(&refs, q, comm);
    RankRun {
        planned: bits(&planned),
        one_shot: bits(&one_shot),
        any_foreign: plan.any_foreign(),
        apply_interp_bytes,
    }
}

/// Run every rank of a `p`-rank cluster and check all three paths agree
/// bitwise on every rank; returns the per-rank runs.
fn check(p: usize, order: IpOrder, routing: Routing, seed: u64, nf: usize) -> Vec<RankRun> {
    let grid = Grid::new([16, 8, 10]);
    let count = 40;
    let per_rank: Vec<Vec<[Real; 3]>> =
        (0..p).map(|r| queries(grid, p, r, seed, count, routing)).collect();
    let body = |comm: &mut Comm| run_rank(comm, grid, order, &per_rank[comm.rank()], nf);
    let runs = if p == 1 {
        vec![body(&mut Comm::solo())]
    } else {
        run_cluster(Topology::new(p, 4), body).outputs
    };
    for (rank, run) in runs.iter().enumerate() {
        let expect = reference(grid, order, &per_rank[rank], nf);
        let what = format!("p={p} {order:?} {routing:?} seed={seed} rank={rank}");
        assert_eq!(run.planned, expect, "{what}: planned apply differs from interp_ghost");
        assert_eq!(run.one_shot, expect, "{what}: one-shot path differs from interp_ghost");
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Planned, one-shot and reference values agree bitwise over rank
    /// counts, orders and single/multi-field applies, with seam, slab-edge,
    /// 2π and negative queries in every set.
    #[test]
    fn planned_matches_one_shot_and_reference(p_idx in 0usize..4, seed in 0u64..1_000_000) {
        let p = p_idx + 1;
        for order in ORDERS {
            for nf in [1usize, 3] {
                let runs = check(p, order, Routing::Mixed, seed, nf);
                prop_assert!(
                    p == 1 || runs.iter().all(|r| r.any_foreign),
                    "p={p}: mixed queries must leave some rank with foreign queries"
                );
            }
        }
    }

    /// Ranks whose queries all stay home skip the value return entirely;
    /// ranks whose queries all leave still get every value back.
    #[test]
    fn lopsided_routings(p_idx in 1usize..4, seed in 0u64..1_000_000) {
        let p = p_idx + 1;
        for order in ORDERS {
            let home = check(p, order, Routing::AllLocal, seed, 2);
            prop_assert!(home.iter().all(|r| !r.any_foreign && r.apply_interp_bytes == 0));
            let away = check(p, order, Routing::AllForeign, seed, 2);
            prop_assert!(away.iter().all(|r| r.any_foreign && r.apply_interp_bytes > 0));
        }
    }
}

#[test]
fn one_rank_plan_has_no_foreign_queries() {
    for order in ORDERS {
        let runs = check(1, order, Routing::Mixed, 7, 3);
        assert!(!runs[0].any_foreign);
        assert_eq!(runs[0].apply_interp_bytes, 0);
    }
}

#[test]
fn planned_apply_matches_over_socket_transport() {
    let grid = Grid::new([16, 8, 10]);
    for p in [2usize, 3] {
        let body = move |comm: &mut Comm| {
            let q = queries(grid, comm.size(), comm.rank(), 99, 60, Routing::Mixed);
            run_rank(comm, grid, IpOrder::Cubic, &q, 3).planned
        };
        let chan = run_cluster(Topology::new(p, 4), body);
        let sock = claire::ipc::run_socket_cluster(Topology::new(p, 4), body);
        assert_eq!(chan.outputs, sock.outputs, "p={p}: transports must agree bitwise");
    }
}

#[test]
fn planned_apply_is_thread_count_invariant() {
    // enough queries that the stencil pass actually splits across workers
    let grid = Grid::new([24, 16, 16]);
    let _g = lock_threads();
    let run = |threads: usize, p: usize| {
        claire::par::with_threads(threads, || {
            let body = move |comm: &mut Comm| {
                let q = queries(grid, comm.size(), comm.rank(), 5, 6000, Routing::Mixed);
                let r = run_rank(comm, grid, IpOrder::Linear, &q, 2);
                assert_eq!(r.planned, r.one_shot);
                r.planned
            };
            if p == 1 {
                vec![body(&mut Comm::solo())]
            } else {
                run_cluster(Topology::new(p, 4), body).outputs
            }
        })
    };
    for p in [1usize, 2] {
        assert_eq!(run(1, p), run(2, p), "p={p}: 1 vs 2 threads must agree bitwise");
    }
}
