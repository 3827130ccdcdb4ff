//! Distributed scattered interpolation with the paper's five phases.

use std::time::Instant;

use claire_grid::ghost::{self, GhostField};
use claire_grid::workspace::{WsCat, REAL_POOL};
use claire_grid::{Layout, Real, ScalarField, VectorField};
use claire_mpi::{AlltoallMethod, Comm, CommCat};
use claire_par::timing::{self, Kernel};
use claire_par::{par_parts, SharedSlice};

use crate::kernel::{bspline_weights, lagrange_weights, GhostView, IpOrder, Locator, Stencil};
use crate::plan::{InterpPlan, OneShot, Planned, StencilSource, FOREIGN};

/// Wall/modeled seconds of the five phases of Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Ghost-layer exchange of the interpolated field(s).
    pub ghost_comm: f64,
    /// Returning interpolated values to the requesting rank.
    pub interp_comm: f64,
    /// Shipping query points to their owner rank.
    pub scatter_comm: f64,
    /// Local stencil evaluation.
    pub interp_kernel: f64,
    /// Building the per-destination MPI buffers (thrust::copy_if analogue).
    pub scatter_mpi_buffer: f64,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.ghost_comm
            + self.interp_comm
            + self.scatter_comm
            + self.interp_kernel
            + self.scatter_mpi_buffer
    }

    /// (label, value) pairs in the paper's Table 2 row order.
    pub fn rows(&self) -> [(&'static str, f64); 5] {
        [
            ("ghost_comm", self.ghost_comm),
            ("interp_comm", self.interp_comm),
            ("scatter_comm", self.scatter_comm),
            ("interp_kernel", self.interp_kernel),
            ("scatter_mpi_buffer", self.scatter_mpi_buffer),
        ]
    }
}

/// Accumulated phase statistics (wall-clock and modeled).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// Measured wall time on this host.
    pub wall: PhaseTimes,
    /// Modeled time on the virtual V100 cluster.
    pub modeled: PhaseTimes,
}

/// Stencil passes hold the ghost fields of at most this many fields at
/// once; wider batches run in several passes.
const FIELDS_PER_PASS: usize = 4;

/// This rank's side of one query routing (phases 1–2).
struct Routed {
    /// Indices of this rank's foreign queries, per owning rank.
    origin: Vec<Vec<u32>>,
    /// Query points received from each rank (this rank's entry is empty).
    incoming: Vec<Vec<[Real; 3]>>,
}

/// Distributed scattered interpolator.
///
/// Routes each query point to the rank owning its x1 plane, evaluates the
/// stencil there using ghost layers for slab-boundary support, and returns
/// values to the requester — the workflow of paper §3.1. Query sets that
/// are interpolated repeatedly (the characteristic feet) are routed once
/// into an [`InterpPlan`] ([`Interpolator::plan`]) and applied with
/// [`Interpolator::apply_many_into`]; the `interp*` calls route and
/// evaluate in one shot. Accumulates [`PhaseStats`] across calls for
/// Table 2 reporting.
pub struct Interpolator {
    /// Stencil order (GPU-TXTLIN / GPU-TXTLAG).
    pub order: IpOrder,
    /// Accumulated phase timings.
    pub stats: PhaseStats,
}

impl Interpolator {
    /// New interpolator with zeroed stats.
    pub fn new(order: IpOrder) -> Interpolator {
        Interpolator { order, stats: PhaseStats::default() }
    }

    /// Zero the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = PhaseStats::default();
    }

    /// Route `queries` once and resolve every query this rank evaluates
    /// into a stencil entry (phases 1–2, charged to `scatter_mpi_buffer`
    /// and `scatter_comm`). The plan applies to any field of `layout`.
    ///
    /// Collective: every rank passes its own queries.
    pub fn plan(&mut self, layout: &Layout, queries: &[[Real; 3]], comm: &mut Comm) -> InterpPlan {
        assert_eq!(layout.nranks, comm.size(), "plan layout/communicator size mismatch");
        let loc = Locator::new(layout);
        let nq = queries.len();

        let t0 = Instant::now();
        let (mut t, mut base) = InterpPlan::entries(nq);
        timing::time(Kernel::Interp, || {
            let ts = SharedSlice::new(&mut t);
            let bs = SharedSlice::new(&mut base);
            par_parts(nq, nq * LOCATE_WORK, |range| {
                for qi in range {
                    if let Ok(s) = loc.locate(queries[qi]) {
                        // SAFETY: worker ranges are disjoint.
                        unsafe {
                            ts.write(qi, s.t);
                            bs.write(qi, s.pack());
                        }
                    }
                }
            });
        });
        self.stats.wall.scatter_mpi_buffer += t0.elapsed().as_secs_f64();

        let mut plan = InterpPlan {
            layout: *layout,
            t,
            base,
            remote_t: Vec::new(),
            remote_base: Vec::new(),
            recv_offsets: Vec::new(),
            origin: Vec::new(),
            any_foreign: false,
        };
        if comm.size() == 1 {
            return plan;
        }
        let Routed { origin, incoming } = self.route(
            queries,
            |qi| {
                (plan.base[qi] == FOREIGN)
                    .then(|| layout.owner_of_plane(loc.plane_of(queries[qi][0])))
            },
            comm,
        );

        // every rank learns whether any apply will need the value return
        let t0 = Instant::now();
        let m0 = comm.stats().cat(CommCat::Reduce).modeled_secs;
        let mine = origin.iter().any(|o| !o.is_empty());
        plan.any_foreign = comm.allreduce_max_scalar(if mine { 1.0 } else { 0.0 }) > 0.0;
        self.stats.wall.scatter_comm += t0.elapsed().as_secs_f64();
        self.stats.modeled.scatter_comm += comm.stats().cat(CommCat::Reduce).modeled_secs - m0;

        let t0 = Instant::now();
        let received: usize = incoming.iter().map(Vec::len).sum();
        plan.remote_t.reserve_exact(received);
        plan.remote_base.reserve_exact(received);
        plan.recv_offsets.push(0);
        for part in &incoming {
            for &q in part {
                let s = loc.locate(q).expect("a routed query lies in its owner's slab");
                plan.remote_t.push(s.t);
                plan.remote_base.push(s.pack());
            }
            plan.recv_offsets.push(plan.remote_t.len());
        }
        plan.origin = origin;
        self.stats.wall.scatter_mpi_buffer += t0.elapsed().as_secs_f64();
        plan
    }

    /// Phases 3–5 with a plan: interpolate several fields (of the plan's
    /// layout) at the plan's queries into caller buffers, one per field of
    /// `plan.len()` values, in query order. Bitwise equal to
    /// [`Interpolator::interp_many_into`] at the same queries.
    ///
    /// Collective: every rank applies its own plan of the same build.
    pub fn apply_many_into(
        &mut self,
        plan: &InterpPlan,
        fields: &[&ScalarField],
        comm: &mut Comm,
        outs: &mut [&mut [Real]],
    ) {
        check_args(fields, plan.len(), outs);
        assert_eq!(*fields[0].layout(), plan.layout, "field layout differs from the plan's");
        let local = Planned { t: &plan.t, base: &plan.base };
        let remote: Vec<Planned> = plan
            .recv_offsets
            .windows(2)
            .map(|w| Planned { t: &plan.remote_t[w[0]..w[1]], base: &plan.remote_base[w[0]..w[1]] })
            .collect();
        self.evaluate(fields, &local, &remote, &plan.origin, plan.any_foreign, comm, outs);
    }

    /// [`Interpolator::apply_many_into`] for one field.
    pub fn apply_into(
        &mut self,
        plan: &InterpPlan,
        field: &ScalarField,
        comm: &mut Comm,
        out: &mut [Real],
    ) {
        self.apply_many_into(plan, &[field], comm, &mut [out]);
    }

    /// Interpolate several fields (sharing one layout) at the same query
    /// points; returns one value vector per field, in query order.
    ///
    /// Collective: every rank passes its own queries.
    pub fn interp_many(
        &mut self,
        fields: &[&ScalarField],
        queries: &[[Real; 3]],
        comm: &mut Comm,
    ) -> Vec<Vec<Real>> {
        let mut out: Vec<Vec<Real>> =
            (0..fields.len()).map(|_| vec![0.0 as Real; queries.len()]).collect();
        let mut slices: Vec<&mut [Real]> = out.iter_mut().map(|v| v.as_mut_slice()).collect();
        self.interp_many_into(fields, queries, comm, &mut slices);
        out
    }

    /// [`Interpolator::interp_many`] writing into caller-provided buffers
    /// (one per field, each of `queries.len()` values): all five phases in
    /// one shot, each query resolved and evaluated for every field in one
    /// pass without storing its stencil. Allocation-free on one rank.
    ///
    /// Collective: every rank passes its own queries.
    pub fn interp_many_into(
        &mut self,
        fields: &[&ScalarField],
        queries: &[[Real; 3]],
        comm: &mut Comm,
        outs: &mut [&mut [Real]],
    ) {
        check_args(fields, queries.len(), outs);
        let layout = *fields[0].layout();
        let loc = Locator::new(&layout);
        let local = OneShot { loc, pts: queries };
        if comm.size() == 1 {
            let none: [OneShot; 0] = [];
            return self.evaluate(fields, &local, &none, &[], false, comm, outs);
        }
        let Routed { origin, incoming } = self.route(
            queries,
            |qi| {
                let plane = loc.plane_of(queries[qi][0]);
                (!layout.slab.owns(plane)).then(|| layout.owner_of_plane(plane))
            },
            comm,
        );
        let remote: Vec<OneShot> = incoming.iter().map(|pts| OneShot { loc, pts }).collect();
        self.evaluate(fields, &local, &remote, &origin, true, comm, outs);
    }

    /// Phases 1–2: bucket the foreign queries by owner (in query order) and
    /// ship them. `foreign(qi)` names the owning rank of query `qi` when it
    /// is not this rank.
    fn route(
        &mut self,
        queries: &[[Real; 3]],
        foreign: impl Fn(usize) -> Option<usize>,
        comm: &mut Comm,
    ) -> Routed {
        let p = comm.size();

        // ---- phase: scatter_mpi_buffer (partition queries by owner) ----
        let t0 = Instant::now();
        let mut dest_queries: Vec<Vec<[Real; 3]>> = (0..p).map(|_| Vec::new()).collect();
        let mut origin: Vec<Vec<u32>> = (0..p).map(|_| Vec::new()).collect();
        for (qi, q) in queries.iter().enumerate() {
            if let Some(owner) = foreign(qi) {
                dest_queries[owner].push(*q);
                origin[owner].push(qi as u32);
            }
        }
        // modeled: one streaming pass over the query list (copy_if analogue)
        comm.advance_kernel(std::mem::size_of_val(queries) * 2, 4 * queries.len());
        let buf_kernel_secs = queries.len() as f64 * 2.0 * std::mem::size_of::<[Real; 3]>() as f64
            / comm.device().dram_bw
            + comm.device().launch_overhead;
        self.stats.wall.scatter_mpi_buffer += t0.elapsed().as_secs_f64();
        self.stats.modeled.scatter_mpi_buffer += buf_kernel_secs;

        // ---- phase: scatter_comm (ship query points) ----
        let t0 = Instant::now();
        let m0 = comm.stats().cat(CommCat::Scatter).modeled_secs;
        let incoming = comm.alltoallv(&dest_queries, CommCat::Scatter, AlltoallMethod::Auto);
        self.stats.wall.scatter_comm += t0.elapsed().as_secs_f64();
        self.stats.modeled.scatter_comm += comm.stats().cat(CommCat::Scatter).modeled_secs - m0;
        Routed { origin, incoming }
    }

    /// Phases 3–5 over routed queries: ghost exchange, stencil evaluation
    /// of this rank's own (`local`) and received (`remote[src]`) entries,
    /// and — when `exchange` — the return of received entries' values,
    /// scattered into `outs` through `origin`.
    #[allow(clippy::too_many_arguments)]
    fn evaluate<L: StencilSource, R: StencilSource>(
        &mut self,
        fields: &[&ScalarField],
        local: &L,
        remote: &[R],
        origin: &[Vec<u32>],
        exchange: bool,
        comm: &mut Comm,
        outs: &mut [&mut [Real]],
    ) {
        let order = self.order;
        let nf = fields.len();
        // queries this rank evaluates: its own minus the foreign ones, plus
        // the received ones
        let evaluated = local.len() - origin.iter().map(Vec::len).sum::<usize>()
            + remote.iter().map(StencilSource::len).sum::<usize>();
        // values of received entries, field-major per source rank
        let mut vals: Vec<Vec<Real>> = remote.iter().map(|r| vec![0.0; nf * r.len()]).collect();
        for f0 in (0..nf).step_by(FIELDS_PER_PASS) {
            let f1 = (f0 + FIELDS_PER_PASS).min(nf);

            // ---- phase: ghost_comm (halo exchange of the fields) ----
            let t0 = Instant::now();
            let m0 = comm.stats().cat(CommCat::Ghost).modeled_secs;
            let mut ghosts: [Option<GhostField>; FIELDS_PER_PASS] = Default::default();
            for (g, f) in ghosts.iter_mut().zip(&fields[f0..f1]) {
                *g = Some(ghost::exchange(f, IpOrder::GHOST_WIDTH, comm));
            }
            self.stats.wall.ghost_comm += t0.elapsed().as_secs_f64();
            self.stats.modeled.ghost_comm += comm.stats().cat(CommCat::Ghost).modeled_secs - m0;

            // ---- phase: interp_kernel (local stencil evaluation) ----
            let t0 = Instant::now();
            let mut views = [GhostView::default(); FIELDS_PER_PASS];
            for (v, g) in views.iter_mut().zip(ghosts.iter().flatten()) {
                *v = GhostView::of(g);
            }
            let views = &views[..f1 - f0];
            timing::time(Kernel::Interp, || {
                gather(local, order, views, &mut outs[f0..f1]);
                for (src, part) in remote.iter().zip(vals.iter_mut()) {
                    let n = src.len();
                    if n > 0 {
                        let mut chunks: Vec<&mut [Real]> =
                            part[f0 * n..f1 * n].chunks_mut(n).collect();
                        gather(src, order, views, &mut chunks);
                    }
                }
            });
            let flops = evaluated * (f1 - f0) * order.flops_per_query();
            let bytes = evaluated * (f1 - f0) * 2 * std::mem::size_of::<Real>();
            comm.advance_kernel(bytes, flops);
            self.stats.wall.interp_kernel += t0.elapsed().as_secs_f64();
            self.stats.modeled.interp_kernel += comm.device().kernel_time(bytes, flops);
        }
        if !exchange {
            return;
        }

        // ---- phase: interp_comm (return values) ----
        let t0 = Instant::now();
        let m0 = comm.stats().cat(CommCat::InterpValues).modeled_secs;
        let returned = comm.alltoallv(&vals, CommCat::InterpValues, AlltoallMethod::Auto);
        self.stats.wall.interp_comm += t0.elapsed().as_secs_f64();
        self.stats.modeled.interp_comm += comm.stats().cat(CommCat::InterpValues).modeled_secs - m0;

        // scatter into query order
        for (vals, origin) in returned.iter().zip(origin) {
            assert_eq!(vals.len(), origin.len() * nf, "returned value count mismatch");
            if origin.is_empty() {
                continue;
            }
            for (out_f, chunk) in outs.iter_mut().zip(vals.chunks(origin.len())) {
                for (&oi, &v) in origin.iter().zip(chunk) {
                    out_f[oi as usize] = v;
                }
            }
        }
    }

    /// Interpolate one scalar field.
    pub fn interp(
        &mut self,
        field: &ScalarField,
        queries: &[[Real; 3]],
        comm: &mut Comm,
    ) -> Vec<Real> {
        self.interp_many(&[field], queries, comm).pop().unwrap()
    }

    /// Interpolate one scalar field into a caller-provided buffer.
    pub fn interp_into(
        &mut self,
        field: &ScalarField,
        queries: &[[Real; 3]],
        comm: &mut Comm,
        out: &mut [Real],
    ) {
        self.interp_many_into(&[field], queries, comm, &mut [out]);
    }

    /// Interpolate a vector field; returns per-query 3-vectors.
    pub fn interp_vector(
        &mut self,
        v: &VectorField,
        queries: &[[Real; 3]],
        comm: &mut Comm,
    ) -> Vec<[Real; 3]> {
        let mut out = vec![[0.0 as Real; 3]; queries.len()];
        self.interp_vector_into(v, queries, comm, &mut out);
        out
    }

    /// Interpolate a vector field into a caller-provided buffer of per-query
    /// 3-vectors (pooled component staging, µSL budget).
    pub fn interp_vector_into(
        &mut self,
        v: &VectorField,
        queries: &[[Real; 3]],
        comm: &mut Comm,
        out: &mut [[Real; 3]],
    ) {
        assert_eq!(out.len(), queries.len(), "output buffer/query size mismatch");
        let nq = queries.len();
        let mut c0 = REAL_POOL.checkout_filled(nq, 0.0 as Real, WsCat::Sl);
        let mut c1 = REAL_POOL.checkout_filled(nq, 0.0 as Real, WsCat::Sl);
        let mut c2 = REAL_POOL.checkout_filled(nq, 0.0 as Real, WsCat::Sl);
        self.interp_many_into(
            &[&v.c[0], &v.c[1], &v.c[2]],
            queries,
            comm,
            &mut [&mut c0, &mut c1, &mut c2],
        );
        for (i, o) in out.iter_mut().enumerate() {
            *o = [c0[i], c1[i], c2[i]];
        }
    }
}

/// Work of resolving one query (three `to_index`/`split`s) relative to a
/// ~8-op element-wise point, for the parallel-vs-serial decision.
const LOCATE_WORK: usize = 8;

/// Common argument checks of the multi-field entry points.
fn check_args(fields: &[&ScalarField], nq: usize, outs: &[&mut [Real]]) {
    assert!(!fields.is_empty());
    assert_eq!(outs.len(), fields.len(), "one output buffer per field");
    for o in outs {
        assert_eq!(o.len(), nq, "output buffer/query size mismatch");
    }
    let layout = fields[0].layout();
    for f in fields {
        assert_eq!(f.layout(), layout, "all fields must share a layout");
    }
}

/// One stencil pass: evaluate every field behind `views` at every entry
/// of `src` this rank owns, writing field `f`'s value of entry `i` to
/// `outs[f][i]`. Each entry's weights are computed once for all fields.
/// Every (entry, field) value is independent, so the result does not
/// depend on the thread count.
fn gather<S: StencilSource>(
    src: &S,
    order: IpOrder,
    views: &[GhostView],
    outs: &mut [&mut [Real]],
) {
    // weight ≈ stencil flops relative to a ~8-op element-wise point
    let work = (order.flops_per_query() / 8).max(1) * views.len();
    match order {
        IpOrder::Linear => {
            gather_with(src, views, outs, work, Stencil::linear_weights, Stencil::apply_linear)
        }
        IpOrder::Cubic => gather_with(
            src,
            views,
            outs,
            work,
            |s| s.cubic_weights(lagrange_weights),
            Stencil::apply_cubic,
        ),
        IpOrder::CubicSpline => gather_with(
            src,
            views,
            outs,
            work,
            |s| s.cubic_weights(bspline_weights),
            Stencil::apply_cubic,
        ),
    }
}

/// [`gather`] monomorphized for one order's weights and accumulation.
#[inline(always)]
fn gather_with<S: StencilSource, W>(
    src: &S,
    views: &[GhostView],
    outs: &mut [&mut [Real]],
    work: usize,
    weights: impl Fn(&Stencil) -> W + Sync,
    apply: impl Fn(&Stencil, &W, &GhostView) -> Real + Sync,
) {
    let n = src.len();
    let nf = views.len();
    assert!(nf <= FIELDS_PER_PASS && outs.len() == nf);
    if let ([view], [out]) = (views, &mut *outs) {
        assert_eq!(out.len(), n);
        let out = SharedSlice::new(out);
        par_parts(n, n * work, |range| {
            src.for_each(range, |i, s| {
                // SAFETY: worker ranges are disjoint and `i < n`.
                unsafe { out.write(i, apply(s, &weights(s), view)) };
            });
        });
        return;
    }
    let mut shared: [Option<SharedSlice<Real>>; FIELDS_PER_PASS] = [None; FIELDS_PER_PASS];
    for (s, o) in shared.iter_mut().zip(outs.iter_mut()) {
        assert_eq!(o.len(), n);
        *s = Some(SharedSlice::new(o));
    }
    par_parts(n, n * work, |range| {
        src.for_each(range, |i, s| {
            let w = weights(s);
            for (out, view) in shared.iter().flatten().zip(views) {
                // SAFETY: worker ranges are disjoint and `i < n`.
                unsafe { out.write(i, apply(s, &w, view)) };
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::interp_serial;
    use claire_grid::{Grid, Layout, TWO_PI};
    use claire_mpi::{run_cluster, Topology};

    fn test_fn(x: Real, y: Real, z: Real) -> Real {
        (x).sin() * (y).cos() + (0.5 * z).sin() + 0.2
    }

    fn make_queries(n: usize, seed: u64) -> Vec<[Real; 3]> {
        (0..n)
            .map(|i| {
                let r = |s: u64| {
                    let a = (i as u64 + 1)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(seed.wrapping_mul(31).wrapping_add(s));
                    ((a >> 16) % 100_000) as Real / 100_000.0 * TWO_PI
                };
                [r(1), r(2), r(3)]
            })
            .collect()
    }

    #[test]
    fn distributed_matches_serial_interpolation() {
        let grid = Grid::new([16, 8, 8]);
        let serial_f = ScalarField::from_fn(Layout::serial(grid), test_fn);
        let queries = make_queries(64, 7);
        for order in [IpOrder::Linear, IpOrder::Cubic] {
            let expect: Vec<Real> =
                queries.iter().map(|&q| interp_serial(&serial_f, order, q)).collect();
            for p in [1usize, 2, 3, 4] {
                let queries = queries.clone();
                let expect = expect.clone();
                let res = run_cluster(Topology::new(p, 4), move |comm| {
                    let layout = Layout::distributed(grid, comm);
                    let f = ScalarField::from_fn(layout, test_fn);
                    let mut ip = Interpolator::new(order);
                    // split queries over ranks to exercise routing
                    let chunk = queries.len() / comm.size();
                    let lo = comm.rank() * chunk;
                    let hi =
                        if comm.rank() + 1 == comm.size() { queries.len() } else { lo + chunk };
                    let got = ip.interp(&f, &queries[lo..hi], comm);
                    let exp = &expect[lo..hi];
                    got.iter().zip(exp).map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max)
                });
                for (r, &e) in res.outputs.iter().enumerate() {
                    assert!(e < 1e-10, "{order:?} p={p} rank={r}: err {e}");
                }
            }
        }
    }

    #[test]
    fn interpolation_matches_over_socket_transport() {
        // Scattered cubic interpolation routes queries to owner ranks and
        // ships coefficients back — all of it must be transport-invariant.
        let grid = Grid::new([16, 8, 8]);
        let queries = make_queries(48, 11);
        let f = move |comm: &mut Comm| {
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, test_fn);
            let mut ip = Interpolator::new(IpOrder::Cubic);
            let chunk = queries.len() / comm.size();
            let lo = comm.rank() * chunk;
            let hi = if comm.rank() + 1 == comm.size() { queries.len() } else { lo + chunk };
            ip.interp(&f, &queries[lo..hi], comm).iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let chan = run_cluster(Topology::new(3, 4), &f);
        let sock = claire_ipc::run_socket_cluster(Topology::new(3, 4), &f);
        assert_eq!(chan.outputs, sock.outputs, "transports must agree bitwise");
    }

    #[test]
    fn phase_stats_populated() {
        let grid = Grid::new([8, 8, 8]);
        let res = run_cluster(Topology::new(4, 4), move |comm| {
            let layout = Layout::distributed(grid, comm);
            let f = ScalarField::from_fn(layout, test_fn);
            let mut ip = Interpolator::new(IpOrder::Cubic);
            let queries = make_queries(32, comm.rank() as u64);
            let _ = ip.interp(&f, &queries, comm);
            ip.stats
        });
        for s in &res.outputs {
            assert!(s.modeled.interp_kernel > 0.0);
            assert!(s.modeled.ghost_comm > 0.0, "ghost exchange should be modeled");
            assert!(s.wall.total() > 0.0);
        }
    }

    #[test]
    fn vector_interpolation_groups_components() {
        let grid = Grid::cube(16);
        let mut comm = Comm::solo();
        let layout = Layout::serial(grid);
        let v = VectorField::from_fns(layout, |x, _, _| x.sin(), |_, y, _| y.cos(), |_, _, z| z);
        let mut ip = Interpolator::new(IpOrder::Cubic);
        let queries = make_queries(10, 3);
        let vals = ip.interp_vector(&v, &queries, &mut comm);
        for (q, val) in queries.iter().zip(&vals) {
            assert!((val[0] - q[0].sin()).abs() < 2e-3);
            assert!((val[1] - q[1].cos()).abs() < 2e-3);
        }
    }

    #[test]
    fn empty_query_list() {
        let grid = Grid::cube(8);
        let mut comm = Comm::solo();
        let f = ScalarField::from_fn(Layout::serial(grid), test_fn);
        let mut ip = Interpolator::new(IpOrder::Linear);
        let out = ip.interp(&f, &[], &mut comm);
        assert!(out.is_empty());
    }
}
