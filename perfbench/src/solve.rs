//! The solver workloads: `volume` (one 64³ pair, solo, paper defaults, to
//! convergence) and `ranks2` (one 96³ pair over two socket-connected ranks,
//! mixed precision, fixed Table-7 schedule).
//!
//! The plain run times `Claire::register`. The traced run does one plain
//! solve, then re-drives the same solve through a benchmark-side
//! [`GnProblem`] that wraps `RegProblem` and times each delegate call, then
//! probes every kernel layer's public functions on the solve's final fields.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use claire_core::{Claire, Precision, RegProblem, RegistrationConfig, RegistrationReport, WsCat};
use claire_diff::{SpectralT, TwoLevelT};
use claire_fft::FftElem;
use claire_grid::{
    workspace, Grid, Layout, Real, ScalarField, ScalarFieldT, VectorField, VectorFieldT,
};
use claire_interp::Interpolator;
use claire_mpi::{Comm, CommCat, CommStats};
use claire_opt::{gauss_newton, GnConfig, GnProblem, GnStats};
use claire_semilag::{displacement, Trajectory, Transport};

use crate::inputs::{self, Pair};
use crate::mpi::{self, RankOut};
use crate::stats::{median, quartiles};
use crate::trace::{self, timed};
use crate::{Args, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Calls per kernel probe; per-layer times are medians per call.
const PROBE_REPS: usize = 3;
/// `volume` must reach this relative mismatch.
const VOLUME_MISMATCH_TOL: f64 = 0.25;
/// A solve during which the host took more than this share of the
/// machine's CPU time (steal) was disturbed: on a shared host a few percent
/// of steal slowed a two-rank solve by 5-15 %.
const STEAL_SHARE_MAX: f64 = 0.01;
/// While every solve so far was disturbed, a run keeps solving for up to
/// this many seconds past `--seconds`.
const UNDISTURBED_EXTRA_S: f64 = 20.0;

/// One solver workload.
struct Spec {
    name: &'static str,
    n: usize,
    nranks: usize,
    threads_per_rank: usize,
    cfg: RegistrationConfig,
    /// Solves per run at least (the repeat check needs two; `solve_s` is
    /// the fastest of them).
    min_solves: usize,
    /// Whether the solve runs to the solver's stopping rule and must reach
    /// `VOLUME_MISMATCH_TOL` (volume) or runs a fixed schedule (ranks2).
    converge: bool,
}

fn volume_spec() -> Spec {
    Spec {
        name: "volume",
        n: 96,
        nranks: 1,
        threads_per_rank: 2,
        // paper defaults: 2LInvH0, β-continuation to 5e-4, nt = 4, linear
        cfg: RegistrationConfig { precision: Precision::F64, ..Default::default() },
        min_solves: 1,
        converge: true,
    }
}

fn ranks2_spec() -> Spec {
    Spec {
        name: "ranks2",
        n: 96,
        nranks: 2,
        threads_per_rank: 1,
        // Table-7 style: fixed GN and PCG counts so every run does the same
        // work; the gradient tolerance is out of reach on purpose
        cfg: RegistrationConfig {
            precision: Precision::Mixed,
            continuation: false,
            beta_target: 5e-4,
            max_gn_iter: 1,
            fixed_pcg: Some(3),
            grad_rtol: 1e-12,
            ..Default::default()
        },
        min_solves: 4,
        converge: false,
    }
}

pub fn volume(args: &Args) -> Outcome {
    run(&volume_spec(), args)
}

pub fn ranks2(args: &Args) -> Outcome {
    run(&ranks2_spec(), args)
}

/// Per-category `(bytes_sent, msgs_sent, wire_bytes)`.
type Ledger = [(u64, u64, u64); 7];

fn ledger(s: &CommStats) -> Ledger {
    CommCat::ALL.map(|c| {
        let k = s.cat(c);
        (k.bytes_sent, k.msgs_sent, k.wire_bytes)
    })
}

fn ledger_delta(a: &Ledger, b: &Ledger) -> Ledger {
    std::array::from_fn(|i| (b[i].0 - a[i].0, b[i].1 - a[i].1, b[i].2 - a[i].2))
}

/// What must repeat exactly between two solves of one pair.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    gn_iters: usize,
    pcg_iters: usize,
    inner_pcg_iters: usize,
    obj_evals: u64,
    rel_mismatch_bits: u64,
    grad_rel_bits: u64,
    jac_det_min_bits: u64,
    comm: Ledger,
}

struct PlainSolve {
    secs: f64,
    /// CPU time the host took from this machine over the call (all CPUs).
    steal_s: f64,
    report: RegistrationReport,
    counts: Counts,
}

struct TracedSolve {
    secs: f64,
    counts: Counts,
    /// This rank's objective evaluations (`counts.obj_evals` is the
    /// process-wide count, comparable with the plain solve's).
    rank_obj_evals: usize,
}

struct RankResult {
    problem_new_s: f64,
    solves: Vec<PlainSolve>,
    traced: Option<TracedSolve>,
    /// Solver pool use over the first measured solve (traced run).
    pools: workspace::CatStats,
}

fn obj_evals_counter() -> u64 {
    claire_obs::metrics::snapshot().iter().find(|m| m.key == "gn.obj_evals").map_or(0, |m| m.count)
}

fn gn_config(cfg: &RegistrationConfig) -> GnConfig {
    // the per-level options `Claire::register` uses
    GnConfig {
        max_iter: cfg.max_gn_iter,
        grad_rtol: cfg.grad_rtol,
        max_pcg: cfg.max_pcg_iter,
        fixed_pcg: cfg.fixed_pcg,
        verbose: cfg.verbose,
        mixed: cfg.precision == Precision::Mixed,
        ..Default::default()
    }
}

/// `RegProblem` with every delegate call timed.
struct Delegates {
    inner: RegProblem,
    job: u64,
}

impl GnProblem for Delegates {
    fn objective(&mut self, v: &VectorField, comm: &mut Comm) -> f64 {
        timed("core.objective", self.job, || self.inner.objective(v, comm))
    }

    fn gradient(&mut self, v: &VectorField, comm: &mut Comm) -> VectorField {
        timed("core.gradient", self.job, || self.inner.gradient(v, comm))
    }

    fn hess_vec(&mut self, vt: &VectorField, comm: &mut Comm) -> VectorField {
        timed("core.hess_vec", self.job, || self.inner.hess_vec(vt, comm))
    }

    fn precond(&mut self, r: &VectorField, eps_k: f64, comm: &mut Comm) -> VectorField {
        timed("core.precond", self.job, || self.inner.precond(r, eps_k, comm))
    }

    fn new_iterate(&mut self, v: &VectorField, comm: &mut Comm) {
        self.inner.new_iterate(v, comm)
    }

    fn precond32(
        &mut self,
        r: &VectorFieldT<f32>,
        eps_k: f64,
        comm: &mut Comm,
    ) -> VectorFieldT<f32> {
        timed("core.precond", self.job, || self.inner.precond32(r, eps_k, comm))
    }
}

/// The diffeomorphism diagnostics `Claire::register` computes for its
/// report (same collective calls, so traffic ledgers stay comparable).
fn jac_det_min(cfg: &RegistrationConfig, v: &VectorField, comm: &mut Comm) -> f64 {
    let mut interp = Interpolator::new(cfg.ip_order);
    let traj = Trajectory::compute(v, cfg.nt, &mut interp, comm);
    let u = displacement::displacement(&traj, cfg.nt, &mut interp, comm);
    let det = displacement::jacobian_det(&u, comm);
    displacement::det_bounds(&det, comm).0
}

/// `Claire::register` re-driven through [`Delegates`]: one `RegProblem`,
/// `claire_opt::gauss_newton` per β level, then the report's diagnostics.
fn traced_register(
    cfg: &RegistrationConfig,
    m0: &ScalarField,
    m1: &ScalarField,
    comm: &mut Comm,
    job: u64,
) -> (VectorField, Counts, usize) {
    let before = ledger(comm.stats());
    let inner =
        timed("core.problem_new", job, || RegProblem::new(m0.clone(), m1.clone(), *cfg, comm))
            .expect("template and reference share one valid layout");
    let mut problem = Delegates { inner, job };
    let mut v = VectorField::zeros(*m0.layout());
    let mut total = GnStats::default();
    for beta in cfg.beta_schedule() {
        problem.inner.set_beta(beta);
        let gn = gn_config(cfg);
        let (v_new, st) =
            timed("opt.gauss_newton", job, || gauss_newton(&mut problem, v, &gn, comm));
        v = v_new;
        total.gn_iters += st.gn_iters;
        total.pcg_iters_total += st.pcg_iters_total;
        total.obj_evals += st.obj_evals;
        total.grad_rel = st.grad_rel;
    }
    let rel = problem.inner.rel_mismatch(&v, comm);
    let jmin = jac_det_min(cfg, &v, comm);
    let counts = Counts {
        gn_iters: total.gn_iters,
        pcg_iters: total.pcg_iters_total,
        inner_pcg_iters: problem.inner.pc.inner_iters,
        obj_evals: total.obj_evals as u64,
        rel_mismatch_bits: rel.to_bits(),
        grad_rel_bits: total.grad_rel.to_bits(),
        jac_det_min_bits: jmin.to_bits(),
        comm: ledger_delta(&before, &ledger(comm.stats())),
    };
    (v, counts, total.obj_evals)
}

fn plain_register(
    cfg: &RegistrationConfig,
    m0: &ScalarField,
    m1: &ScalarField,
    comm: &mut Comm,
) -> PlainSolve {
    let before = ledger(comm.stats());
    let evals0 = obj_evals_counter();
    let steal0 = host_steal_s();
    let t0 = Instant::now();
    let (_, report) = Claire::new(*cfg).register(m0, m1, comm);
    let secs = t0.elapsed().as_secs_f64();
    let steal_s = host_steal_s() - steal0;
    let counts = Counts {
        gn_iters: report.gn_iters,
        pcg_iters: report.pcg_iters,
        inner_pcg_iters: report.inner_cg_total,
        // process-wide counter (every rank adds); compared as such
        obj_evals: obj_evals_counter() - evals0,
        rel_mismatch_bits: report.rel_mismatch.to_bits(),
        grad_rel_bits: report.grad_rel.to_bits(),
        jac_det_min_bits: report.jac_det_min.to_bits(),
        comm: ledger_delta(&before, &ledger(comm.stats())),
    };
    PlainSolve { secs, steal_s, report, counts }
}

impl PlainSolve {
    /// Whether the host stole more than `STEAL_SHARE_MAX` of the machine's
    /// CPU time during the call.
    fn disturbed(&self) -> bool {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.steal_s > STEAL_SHARE_MAX * cpus as f64 * self.secs
    }
}

/// Clock ticks per second of `/proc/stat` times (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Steal time (s) of the whole machine, summed over its CPUs: time its
/// virtual CPUs were ready to run but the host ran something else.
fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(f64::NAN, |t| t / USER_HZ)
}

/// Times `Trajectory`, the transport solves, interpolation, FD and the
/// spectral operators on the solve's final fields, `PROBE_REPS` calls each.
fn probes(
    cfg: &RegistrationConfig,
    m0: &ScalarField,
    m1: &ScalarField,
    v: &VectorField,
    comm: &mut Comm,
    job: u64,
) {
    let layout = *m0.layout();
    let mut interp = Interpolator::new(cfg.ip_order);
    let tr = Transport::new(cfg.nt, cfg.ip_order);
    // query points: grid points displaced by a tenth of the velocity, so
    // some leave the local slab as backward characteristics do
    let mut queries = claire_semilag::traj::grid_points(&layout);
    for (i, q) in queries.iter_mut().enumerate() {
        for (d, x) in q.iter_mut().enumerate() {
            *x += 0.1 * v.c[d].data()[i];
        }
    }
    for _ in 0..PROBE_REPS {
        let traj = timed("semilag.traj", job, || Trajectory::compute(v, cfg.nt, &mut interp, comm));
        let st =
            timed("semilag.state", job, || tr.solve_state(&traj, m0, false, &mut interp, comm));
        let mut lam1 = m1.clone();
        lam1.axpy(-1.0, st.final_state());
        std::hint::black_box(timed("semilag.adjoint", job, || {
            tr.solve_adjoint(&traj, &lam1, &mut interp, comm)
        }));
        std::hint::black_box(timed("semilag.inc_state", job, || {
            tr.solve_inc_state(&traj, v, &st, &mut interp, comm)
        }));
        std::hint::black_box(timed("interp.interp_many", job, || {
            interp.interp_many(&[m0], &queries, comm)
        }));
        std::hint::black_box(timed("diff.fd_grad", job, || claire_diff::fd::gradient(m0, comm)));
        if cfg.precision == Precision::Mixed {
            spectral_probes::<f32>(cfg, m0, v, comm, job);
        } else {
            spectral_probes::<Real>(cfg, m0, v, comm, job);
        }
    }
}

/// The FFT and spectral probes at the inner solve's element width.
fn spectral_probes<T: FftElem>(
    cfg: &RegistrationConfig,
    m0: &ScalarField,
    v: &VectorField,
    comm: &mut Comm,
    job: u64,
) {
    let grid = m0.layout().grid;
    let sp = SpectralT::<T>::new(grid, comm);
    let tl = TwoLevelT::<T>::new(grid, comm);
    let f: ScalarFieldT<T> = m0.converted(WsCat::Other);
    let vt: VectorFieldT<T> = v.converted(WsCat::Other);
    let spec = timed("fft.fwd", job, || sp.fft().forward(&f, comm));
    std::hint::black_box(timed("fft.inv", job, || sp.fft().inverse(spec, comm)));
    std::hint::black_box(timed("diff.reg_inv", job, || sp.reg_inv(&vt, cfg.beta_target, comm)));
    std::hint::black_box(timed("diff.two_level", job, || {
        let c = tl.restrict_vector(&vt, comm);
        tl.prolong_vector(&c, comm)
    }));
}

/// Everything one rank does in one set-up (and, for the last set-up of the
/// run, the measured solves).
fn rank_body(
    spec: &Spec,
    pair: &Pair,
    measure: bool,
    traced: bool,
    deadline: f64,
    comm: &mut Comm,
    tally: Option<&mpi::Tally>,
) -> RankResult {
    let grid = Grid::cube(spec.n);
    let layout =
        if comm.is_solo() { Layout::serial(grid) } else { Layout::distributed(grid, comm) };
    let m0 = inputs::local_field(&pair.template, layout);
    let m1 = inputs::local_field(&pair.reference, layout);
    let job = comm.rank() as u64;

    // cold set-up: no cached FFT plans, no shelved buffers
    comm.barrier();
    if comm.rank() == 0 {
        claire_fft::cache::clear();
        workspace::drain_all();
    }
    comm.barrier();
    let t0 = Instant::now();
    let problem = RegProblem::new(m0.clone(), m1.clone(), spec.cfg, comm)
        .expect("template and reference share one valid layout");
    let problem_new_s = t0.elapsed().as_secs_f64();
    drop(problem);
    let mut out =
        RankResult { problem_new_s, solves: Vec::new(), traced: None, pools: Default::default() };
    if !measure {
        return out;
    }

    let start = Instant::now();
    if !traced {
        loop {
            out.solves.push(plain_register(&spec.cfg, &m0, &m1, comm));
            let elapsed = start.elapsed().as_secs_f64();
            let undisturbed = out.solves.iter().any(|s| !s.disturbed());
            let more = out.solves.len() < spec.min_solves
                || elapsed < deadline
                || (!undisturbed && elapsed < deadline + UNDISTURBED_EXTRA_S);
            if comm.allreduce_max_scalar(if more { 1.0 } else { 0.0 }) < 0.5 {
                break;
            }
        }
        return out;
    }

    // traced run: one plain solve (counts, pool use and the overhead base),
    // then the same solve through the delegates, then the kernel probes
    claire_obs::set_enabled(true);
    comm.barrier();
    if comm.rank() == 0 {
        workspace::reset_stats();
    }
    out.solves.push(plain_register(&spec.cfg, &m0, &m1, comm));
    comm.barrier();
    out.pools = workspace::total_stats();
    comm.barrier();
    let evals0 = obj_evals_counter();
    let set_tally = |on: bool| {
        if let Some(t) = tally {
            t.on.store(on, std::sync::atomic::Ordering::Relaxed);
        }
    };
    set_tally(true);
    let t0 = Instant::now();
    let (v, mut counts, rank_obj_evals) =
        timed("solve", job, || traced_register(&spec.cfg, &m0, &m1, comm, job));
    let secs = t0.elapsed().as_secs_f64();
    set_tally(false);
    comm.barrier();
    // the process-wide counter, as for the plain solve
    counts.obj_evals = obj_evals_counter() - evals0;
    out.traced = Some(TracedSolve { secs, counts, rank_obj_evals });
    probes(&spec.cfg, &m0, &m1, &v, comm, job);
    out
}

/// Resident-set high-water mark of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut o = Outcome::new();
    let pair = inputs::brain_pair(spec.n, args.seed);
    o.note(format!(
        "{}: {}^3 brain pair (seed {}), {} rank(s) x {} thread(s), precision {}, precond {}",
        spec.name,
        spec.n,
        args.seed,
        spec.nranks,
        spec.threads_per_rank,
        spec.cfg.precision.label(),
        spec.cfg.precond.label()
    ));
    let traced = args.trace;
    if traced {
        trace::enable();
    }
    let root = Path::new(crate::OUT_DIR);
    let mut setups = Vec::new();
    let mut ranks: Vec<RankOut<RankResult>> = Vec::new();
    for rep in 0..SETUP_REPS {
        let measure = rep + 1 == SETUP_REPS;
        let body = |comm: &mut Comm, tally: Option<&mpi::Tally>| {
            rank_body(spec, &pair, measure, traced, args.seconds, comm, tally)
        };
        let res = if spec.nranks == 1 {
            claire_par::set_threads(spec.threads_per_rank);
            let mut comm = Comm::solo();
            let out = body(&mut comm, None);
            Ok(vec![RankOut { out, bootstrap_s: 0.0, tally: None }])
        } else {
            mpi::cluster(spec.nranks, spec.threads_per_rank, traced, root, body)
        };
        match res {
            Ok(r) => {
                let boot = r.iter().map(|x| x.bootstrap_s).fold(0.0, f64::max);
                let build = r.iter().map(|x| x.out.problem_new_s).fold(0.0, f64::max);
                setups.push((boot, build));
                ranks = r;
            }
            Err(e) => {
                o.fail(format!("{}: run failed: {e}", spec.name));
                return o;
            }
        }
    }
    let setup_s = median(&setups.iter().map(|(b, p)| b + p).collect::<Vec<_>>());
    o.metric("setup_s", setup_s);
    o.metric("peak_rss_mb", peak_rss_mb());

    let r0 = &ranks[0].out;
    // per solve: the slowest rank's wall time
    let secs: Vec<f64> = (0..r0.solves.len())
        .map(|i| ranks.iter().map(|r| r.out.solves[i].secs).fold(0.0, f64::max))
        .collect();
    check_solves(spec, &ranks, &mut o);
    let first = &r0.solves[0];

    if !traced {
        let (q1, med, q3) = quartiles(&secs);
        o.note(format!(
            "{}: {} solve(s): solve_s median {med:.4} (q1 {q1:.4}, q3 {q3:.4}); rel_mismatch {:.6e}, \
             gn {} pcg {} inner {} final |g|rel {:.4} jac_det_min {:.4}",
            spec.name,
            secs.len(),
            first.report.rel_mismatch,
            first.report.gn_iters,
            first.report.pcg_iters,
            first.report.inner_cg_total,
            first.report.grad_rel,
            first.report.jac_det_min
        ));
        // The fastest solve: a shared host switches between speeds about
        // 1.5x apart for seconds at a time and steals CPU time in bursts,
        // and one solve spans ~10 s of it, so the median of a few solves
        // moves with the host's state where the fastest one does not.
        let fastest = secs.iter().copied().fold(f64::INFINITY, f64::min);
        o.metric("solve_s", fastest);
        o.metric("rel_mismatch", first.report.rel_mismatch);
        // a closed loop with one request in flight: registrations per
        // second at the fastest solve; the mean rate is printed above
        o.note(format!(
            "{}: mean rate {:.6} registrations/s",
            spec.name,
            secs.len() as f64 / secs.iter().sum::<f64>()
        ));
        o.note(format!(
            "{}: per solve: wall {:.4?} s, host steal {:.4?} s; \
             {} of {} disturbed (steal above {} of the machine)",
            spec.name,
            secs,
            r0.solves.iter().map(|s| s.steal_s).collect::<Vec<_>>(),
            r0.solves.iter().filter(|s| s.disturbed()).count(),
            secs.len(),
            STEAL_SHARE_MAX
        ));
        o.metric("max_rate_hz", 1.0 / fastest);
        o.metric("sat_jobs_per_s", 1.0 / fastest);
        return o;
    }

    let spans = trace::take();
    per_layer(spec, &ranks, setups, &spans, &mut o);
    if let Err(e) =
        trace::write(&root.join(format!("trace-{}-{}.jsonl", spec.name, args.seed)), &spans)
    {
        o.note(format!("could not write the span file: {e}"));
    }
    o
}

/// Correctness gate: the mismatch tolerance for `volume`, a diffeomorphic
/// map, exact repeats between solves, and traced counts equal to plain ones.
fn check_solves(spec: &Spec, ranks: &[RankOut<RankResult>], o: &mut Outcome) {
    for (rank, r) in ranks.iter().enumerate() {
        let solves = &r.out.solves;
        for (i, s) in solves.iter().enumerate() {
            o.attempt();
            let rep = &s.report;
            let mut bad = Vec::new();
            if rep.jac_det_min.is_nan() || rep.jac_det_min <= 0.0 {
                bad.push(format!("jac_det_min {} <= 0", rep.jac_det_min));
            }
            // The solver's stopping rule ends most β levels on line-search
            // stagnation before the gradient tolerance (see README), so the
            // gate is the stated mismatch tolerance; ‖g‖rel is printed.
            if spec.converge
                && (rep.rel_mismatch.is_nan() || rep.rel_mismatch >= VOLUME_MISMATCH_TOL)
            {
                bad.push(format!("rel_mismatch {} >= {VOLUME_MISMATCH_TOL}", rep.rel_mismatch));
            }
            if i > 0 && s.counts != solves[0].counts {
                bad.push(format!(
                    "solve {i} differs from solve 0: {:?} vs {:?}",
                    s.counts, solves[0].counts
                ));
            }
            if !bad.is_empty() {
                o.fail(format!("{} rank {rank} solve {i}: {}", spec.name, bad.join("; ")));
            }
        }
        if let Some(t) = &r.out.traced {
            o.attempt();
            if t.counts != solves[0].counts {
                o.fail(format!(
                    "{} rank {rank}: traced counts differ from the plain solve: {:?} vs {:?}",
                    spec.name, t.counts, solves[0].counts
                ));
            }
        }
    }
}

/// Per-layer metrics of the traced run.
fn per_layer(
    spec: &Spec,
    ranks: &[RankOut<RankResult>],
    setups: Vec<(f64, f64)>,
    spans: &[trace::SpanRec],
    o: &mut Outcome,
) {
    let r0 = &ranks[0].out;
    let traced = r0.traced.as_ref().expect("traced run records a traced solve");
    let plain_s = r0.solves[0].secs;
    // rank 0's spans: every rank makes the same calls
    let totals = trace::totals(spans, Some(0));
    let med = |name: &str| totals.get(name).map_or(0.0, |t| median(&t.durs));
    let calls = |name: &str| totals.get(name).map_or(0.0, |t| t.calls as f64);
    for d in ["core.objective", "core.gradient", "core.hess_vec", "core.precond"] {
        o.metric(&format!("{d}.s"), med(d));
        o.metric(&format!("{d}.calls"), calls(d));
    }
    o.metric("core.problem_new.s", median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()));
    o.metric("opt.self_s", totals.get("opt.gauss_newton").map_or(0.0, |t| t.self_total));
    let c = &traced.counts;
    o.metric("opt.gn_iters", c.gn_iters as f64);
    o.metric("opt.pcg_iters", c.pcg_iters as f64);
    o.metric("opt.obj_evals", traced.rank_obj_evals as f64);
    o.metric("core.inner_pcg_iters", c.inner_pcg_iters as f64);
    for (metric, span) in [
        ("semilag.traj.s", "semilag.traj"),
        ("semilag.state.s", "semilag.state"),
        ("semilag.adjoint.s", "semilag.adjoint"),
        ("semilag.inc_state.s", "semilag.inc_state"),
        ("fft.fwd.s", "fft.fwd"),
        ("fft.inv.s", "fft.inv"),
        ("diff.fd_grad.s", "diff.fd_grad"),
        ("diff.reg_inv.s", "diff.reg_inv"),
        ("diff.two_level.s", "diff.two_level"),
    ] {
        o.metric(metric, med(span));
    }

    // computed bytes over time, against the host's measured DRAM bandwidth;
    // ranks run concurrently, so their rates add
    let peak = claire_perf::machine::host_roofline().dram_bw;
    let points = (spec.n * spec.n * spec.n / spec.nranks) as u64;
    let real_bytes = std::mem::size_of::<Real>() as u64;
    let fft_bytes = if spec.cfg.precision == Precision::Mixed { 4 } else { real_bytes };
    let interp_s = med("interp.interp_many");
    let interp_bytes =
        claire_perf::machine::kernel_traffic_bytes("interp", points, real_bytes).unwrap_or(0.0);
    o.metric("interp.ns_per_pt", interp_s / points as f64 * 1e9);
    o.metric("interp.pct_peak", 100.0 * spec.nranks as f64 * interp_bytes / interp_s / peak);
    let fft_s = 0.5 * (med("fft.fwd") + med("fft.inv"));
    let fft_traffic = claire_perf::kernels::FFT_PASS_FACTOR * (points * fft_bytes) as f64;
    o.metric("fft.pct_peak", 100.0 * spec.nranks as f64 * fft_traffic / fft_s / peak);
    o.metric("host.dram_gbps", peak / 1e9);
    let pools = r0.pools;
    o.metric("grid.pool_misses", pools.misses as f64);
    o.metric("grid.pool_peak_mb", pools.peak_bytes as f64 / 1e6);

    if spec.nranks > 1 {
        let tallies: Vec<_> = ranks.iter().filter_map(|r| r.tally.as_ref()).collect();
        let sum = |f: &dyn Fn(&crate::mpi::Tally) -> u64| {
            tallies.iter().map(|t| f(t)).sum::<u64>() as f64
        };
        use std::sync::atomic::Ordering::Relaxed;
        let wait_s = sum(&|t| t.recv_ns.load(Relaxed)) / 1e9;
        o.metric("mpi.recv_wait_s", wait_s);
        o.metric("mpi.wait_share", wait_s / (spec.nranks as f64 * traced.secs));
        o.metric("mpi.send_s", sum(&|t| t.send_ns.load(Relaxed)) / 1e9);
        o.metric("mpi.msgs", sum(&|t| t.msgs.load(Relaxed)));
        o.metric("ipc.eager_msgs", sum(&|t| t.eager.load(Relaxed)));
        o.metric("ipc.rendezvous_msgs", sum(&|t| t.rendezvous.load(Relaxed)));
        // wire bytes of the traced solve, summed over ranks
        let wire = |c: CommCat| {
            ranks
                .iter()
                .filter_map(|r| r.out.traced.as_ref())
                .map(|t| t.counts.comm[c.index()].2 as f64 / 1e6)
                .sum::<f64>()
        };
        o.metric("mpi.wire_mb", CommCat::ALL.iter().map(|&c| wire(c)).sum());
        o.metric("mpi.wire_mb.ghost", wire(CommCat::Ghost));
        o.metric("mpi.wire_mb.fft_transpose", wire(CommCat::FftTranspose));
        o.metric("mpi.wire_mb.scatter", wire(CommCat::Scatter));
        o.metric("mpi.wire_mb.interp", wire(CommCat::InterpValues));
        o.metric("mpi.wire_mb.reduce", wire(CommCat::Reduce));
        o.metric("ipc.bootstrap_s", median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()));
    }
    o.metric("trace.overhead_s", traced.secs - plain_s);
    o.note(format!(
        "{}: plain solve {plain_s:.4} s, traced solve {:.4} s (overhead {:+.4} s); counts {:?}",
        spec.name,
        traced.secs,
        traced.secs - plain_s,
        BTreeMap::from([
            ("gn_iters", c.gn_iters as u64),
            ("pcg_iters", c.pcg_iters as u64),
            ("inner_pcg_iters", c.inner_pcg_iters as u64),
            ("obj_evals", c.obj_evals),
        ])
    ));
}
