//! The `serve` workload: an open-loop generator sends seeded Poisson
//! arrivals over loopback TCP to an in-process `NetServer`, rung by rung up
//! a ladder of fixed offered rates; before the ladder and after each rung the
//! service drains and a closed-loop saturation segment runs with a fixed
//! window of jobs in flight.
//!
//! The generator is this process's main thread (submitting on one
//! connection) plus one waiter thread (waiting on a second connection), so
//! it never holds more than two threads or two connections. Jobs are waited
//! on in submission order; [`stats::job_end`] keeps a result that sat
//! behind a slower job's wait from being charged that wait.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use claire_core::{Claire, Precision, PrecondKind, RegistrationConfig, RegistrationReport};
use claire_grid::{Grid, Layout, ScalarField};
use claire_mpi::Comm;
use claire_serve::wire::encode;
use claire_serve::{
    Client, JobId, JobStatus, NetServer, NetServerConfig, Priority, Request, ServiceConfig,
    WireInput, WireJobSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::inputs::{self, JobPlan, Pair};
use crate::stats::{self, median, require_percentile, Rung};
use crate::trace::{self, timed};
use crate::{Args, Outcome};

// Frozen workload parameters (also recorded in BENCHMARK.json's "why").
/// Offered rates of the open-loop ladder (jobs/s), ascending.
const RATES_HZ: [f64; 3] = [16.0, 24.0, 32.0];
/// Jobs per rung: the fewest that leave ten samples beyond p95.
const RUNG_JOBS: usize = 200;
/// p95 latency limit of `max_rate_hz` (ms).
const P95_LIMIT_MS: f64 = 1000.0;
/// The job mix, repeated in seeded order block after block: a quarter of
/// the jobs (`None`) exactly repeat an earlier job, the rest are fresh pairs
/// at 12³ or 16³.
const BLOCK: [Option<usize>; 8] =
    [None, None, Some(12), Some(16), Some(16), Some(16), Some(16), Some(16)];
/// Jobs in flight during the closed-loop saturation phase.
const SAT_WINDOW: usize = 4;
/// Share of `--seconds` given to the saturation phase. It runs as one
/// segment before the ladder and one after each rung; `sat_jobs_per_s` is
/// the best segment's rate, so a host slow for part of the run does not set
/// it.
const SAT_SHARE: f64 = 0.4;
/// Jobs planned per second of the saturation phase.
const SAT_PLAN_HZ: f64 = 120.0;
/// Service shape: 2 workers x 1 thread, batching (at most 2 jobs per
/// batch) and result cache on.
const WORKERS: usize = 2;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Succeeded, solved (not cached) jobs re-registered solo per run.
const CHECK_SAMPLE: usize = 8;
/// Seconds of back-to-back solo registrations of the 16³ reference pair at
/// each of the five phase boundaries (at least `SOLVE_REPS_MIN` calls);
/// `solve_s` is the fastest. A shared 2-vCPU host can switch between speeds
/// about 1.5x apart on a scale of seconds; the fastest of calls spread over
/// the run is steady where a median of calls made together is not.
const SOLVE_SLICE_S: f64 = 1.0;
const SOLVE_REPS_MIN: usize = 5;
/// A generator this late (ms) makes the run invalid.
const MAX_GEN_LAG_MS: f64 = 250.0;

/// The light per-job solver configuration: a fixed budget of 1 GN x 2 PCG
/// iterations (the gradient tolerance is out of reach on purpose), so every
/// job of one size does the same work.
fn job_config() -> RegistrationConfig {
    RegistrationConfig {
        nt: 2,
        precond: PrecondKind::InvA,
        continuation: false,
        beta_target: 1e-2,
        max_gn_iter: 1,
        fixed_pcg: Some(2),
        grad_rtol: 1e-12,
        precision: Precision::F64,
        ..Default::default()
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .workers(WORKERS)
        .total_threads(WORKERS)
        .queue_capacity(256)
        .collect_reports(false)
        .batching(true)
        .max_batch(2)
        .result_cache(4096)
}

fn spec_for(pair: &Pair, label: String) -> WireJobSpec {
    WireJobSpec {
        label,
        tenant: String::new(),
        config: job_config(),
        input: WireInput::Pair {
            n: [pair.n; 3],
            template: pair.template.clone(),
            reference: pair.reference.clone(),
        },
        priority: Priority::Normal,
        deadline_ms: None,
    }
}

/// A job handed from the submitter to the waiter.
struct Sent {
    idx: usize,
    id: JobId,
    ack: f64,
}

/// The server's answer for one job, as the waiter saw it.
struct Done {
    idx: usize,
    status: JobStatus,
    report: Option<RegistrationReport>,
    cached: bool,
    queue_wait_s: f64,
    run_s: f64,
    end: f64,
    deliver: Option<f64>,
    error: Option<String>,
}

/// One job's record.
#[derive(Clone, Default)]
struct Rec {
    phase: usize,
    n: usize,
    due: f64,
    sent: f64,
    ack: f64,
    end: f64,
    ok: bool,
    rejected: bool,
    cached: bool,
    queue_wait_s: f64,
    run_s: f64,
    deliver: Option<f64>,
    report: Option<RegistrationReport>,
}

/// Waiter thread: waits on each sent job in order and reports it back.
fn waiter(mut client: Client, t0: Instant, rx: mpsc::Receiver<Sent>, tx: mpsc::Sender<Done>) {
    for s in rx {
        let wait_start = t0.elapsed().as_secs_f64();
        let got = timed("serve.wait", s.idx as u64, || client.wait(s.id));
        let wait_end = t0.elapsed().as_secs_f64();
        let done = match got {
            Ok(r) => {
                let end = stats::job_end(s.ack, r.total_secs, wait_start, wait_end);
                Done {
                    idx: s.idx,
                    status: r.status,
                    report: r.report,
                    cached: r.cached,
                    queue_wait_s: r.queue_wait_secs,
                    run_s: r.run_secs,
                    deliver: (end == wait_end)
                        .then(|| (wait_end - wait_start.max(s.ack + r.total_secs)).max(0.0)),
                    end,
                    error: r.error,
                }
            }
            Err(e) => Done {
                idx: s.idx,
                status: JobStatus::Failed,
                report: None,
                cached: false,
                queue_wait_s: 0.0,
                run_s: 0.0,
                end: wait_end,
                deliver: None,
                error: Some(e.to_string()),
            },
        };
        if tx.send(done).is_err() {
            return;
        }
    }
}

/// The generator's submitting side (this thread) and its bookkeeping.
struct Gen {
    t0: Instant,
    client: Client,
    /// `None` once every job is sent, which ends the waiter.
    sent_tx: Option<mpsc::Sender<Sent>>,
    done_rx: mpsc::Receiver<Done>,
    recs: Vec<Rec>,
    inflight: usize,
    errors: Vec<String>,
}

impl Gen {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Submit job `idx` (due at `due`) and hand it to the waiter.
    fn submit(&mut self, idx: usize, phase: usize, due: f64, spec: WireJobSpec) {
        let sent = self.now();
        let adm = timed("serve.submit", idx as u64, || self.client.submit(&spec));
        let ack = self.now();
        let n = match &spec.input {
            WireInput::Pair { n, .. } => n[0],
            _ => 0,
        };
        let mut rec = Rec { phase, n, due, sent, ack, ..Rec::default() };
        match adm {
            Ok(a) => {
                self.inflight += 1;
                let tx = self.sent_tx.as_ref().expect("jobs are sent before the channel closes");
                tx.send(Sent { idx, id: a.id, ack }).expect("waiter thread alive");
            }
            Err(e) => {
                rec.rejected = true;
                rec.end = f64::INFINITY;
                self.errors.push(format!("serve: job {idx} rejected: {e}"));
            }
        }
        assert_eq!(self.recs.len(), idx, "jobs are submitted in plan order");
        self.recs.push(rec);
    }

    fn absorb(&mut self, d: Done) {
        self.inflight -= 1;
        let r = &mut self.recs[d.idx];
        r.end = d.end;
        r.ok = d.status == JobStatus::Succeeded;
        r.cached = d.cached;
        r.queue_wait_s = d.queue_wait_s;
        r.run_s = d.run_s;
        r.deliver = d.deliver;
        r.report = d.report;
        if !r.ok {
            self.errors.push(format!(
                "serve: job {} ended {:?}: {}",
                d.idx,
                d.status,
                d.error.unwrap_or_default()
            ));
        }
    }

    /// Take every result the waiter has already reported.
    fn absorb_ready(&mut self) {
        while let Ok(d) = self.done_rx.try_recv() {
            self.absorb(d);
        }
    }

    /// Block until at most `left` jobs are in flight.
    fn drain(&mut self, left: usize) {
        while self.inflight > left {
            let d = self.done_rx.recv().expect("waiter thread alive");
            self.absorb(d);
        }
    }
}

/// Start a server and connect the generator's two clients.
fn start() -> Result<(NetServer, Client, Client, f64), String> {
    let t0 = Instant::now();
    let server =
        NetServer::bind("127.0.0.1:0", NetServerConfig::default().service(service_config()))
            .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let a = Client::connect_as(addr, "perfbench-submit").map_err(|e| format!("connect: {e}"))?;
    let b = Client::connect_as(addr, "perfbench-wait").map_err(|e| format!("connect: {e}"))?;
    Ok((server, a, b, t0.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::new();
    if args.trace {
        trace::enable();
    }
    let sat_seconds = SAT_SHARE * args.seconds;
    // plans for the ladder and a saturation phase above its measured
    // capacity (about 80-90 jobs/s); should a faster service run out of
    // plans, the phase ends early and its rate is still completions over time
    let total_jobs = RATES_HZ.len() * RUNG_JOBS + (sat_seconds * SAT_PLAN_HZ) as usize;
    let plans = inputs::serve_jobs(args.seed, total_jobs, &BLOCK);
    // generated before anything is timed, on both cores
    let pairs = inputs::serve_pairs(&plans, 2);
    let pair_of =
        |i: usize| pairs[plans[i].repeat_of.unwrap_or(i)].as_ref().expect("fresh job has a pair");
    o.note(format!(
        "serve: seed {}, ladder {RATES_HZ:?} jobs/s x {RUNG_JOBS} jobs, p95 limit {P95_LIMIT_MS} ms, \
         job block {BLOCK:?}, saturation window {SAT_WINDOW} for {sat_seconds:.1} s, \
         {WORKERS} workers x 1 thread",
        args.seed
    ));

    // set-up: service start plus both handshakes, median of SETUP_REPS
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        match start() {
            Ok((server, a, b, secs)) => {
                setups.push(secs);
                // dropping the previous server shuts it down
                live = Some((server, a, b));
            }
            Err(e) => {
                o.fail(format!("serve: start failed: {e}"));
                return o;
            }
        }
    }
    let (mut server, mut submitter, wait_client) = live.expect("at least one set-up");
    o.metric("setup_s", median(&setups));

    // warm-up: one job per size with pairs the measured phases never use; the
    // 16³ one is also the reference pair `solve_s` times
    let reference = inputs::brain_pair(16, u64::MAX - 16);
    for n in [12, 16] {
        let pair =
            if n == 16 { reference.clone() } else { inputs::brain_pair(n, u64::MAX - n as u64) };
        let ok = submitter
            .submit(&spec_for(&pair, format!("warmup-{n}")))
            .and_then(|a| submitter.wait(a.id))
            .map(|r| r.status == JobStatus::Succeeded);
        if !matches!(ok, Ok(true)) {
            o.fail(format!("serve: warm-up job at {n}^3 did not succeed"));
        }
    }

    // solve_s: the registration call at the larger job size on the idle
    // service, timed between the phases on a fixed pair so every seed times
    // the same work
    let mut ref_secs = Vec::new();
    let mut time_reference = || {
        let slice = Instant::now();
        let mut calls = 0;
        while calls < SOLVE_REPS_MIN || slice.elapsed().as_secs_f64() < SOLVE_SLICE_S {
            let t0 = Instant::now();
            std::hint::black_box(solo(&reference));
            ref_secs.push(t0.elapsed().as_secs_f64());
            calls += 1;
        }
    };
    time_reference();

    let t0 = Instant::now();
    let (sent_tx, sent_rx) = mpsc::channel::<Sent>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let mut g = Gen {
        t0,
        client: submitter,
        sent_tx: Some(sent_tx),
        done_rx,
        recs: Vec::new(),
        inflight: 0,
        errors: Vec::new(),
    };
    let mut next = 0usize;
    let mut lag_max = 0.0f64;
    let sat_phase = RATES_HZ.len();
    let segment_seconds = sat_seconds / (RATES_HZ.len() + 1) as f64;
    // per saturation segment: start time and its first job
    let mut segments: Vec<(f64, usize)> = Vec::new();

    std::thread::scope(|scope| {
        scope.spawn(move || waiter(wait_client, t0, sent_rx, done_tx));

        // a saturation segment before the ladder and after every rung
        for k in 0..=RATES_HZ.len() {
            // closed-loop saturation segment: keep SAT_WINDOW jobs in flight;
            // the rungs' plans stay reserved for them
            let last_plan = plans.len() - (RATES_HZ.len() - k) * RUNG_JOBS;
            let start = g.now();
            segments.push((start, next));
            while g.now() - start < segment_seconds && next < last_plan {
                g.drain(SAT_WINDOW - 1);
                let due = g.now();
                g.submit(next, sat_phase, due, spec_for(pair_of(next), format!("job-{next}")));
                next += 1;
            }
            g.drain(0);
            let Some(&rate) = RATES_HZ.get(k) else { break };

            // open-loop rung, started on the drained service
            let arrivals =
                inputs::poisson_arrivals(args.seed.wrapping_add(k as u64 + 1), rate, RUNG_JOBS);
            let start = g.now();
            for a in arrivals {
                let due = start + a;
                g.absorb_ready();
                let wait = due - g.now();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                lag_max = lag_max.max(g.now() - due);
                g.submit(next, k, due, spec_for(pair_of(next), format!("job-{next}")));
                next += 1;
            }
            g.drain(0);
            time_reference();
        }
        time_reference();
        // closing the channel ends the waiter
        g.sent_tx = None;
    });
    for e in std::mem::take(&mut g.errors) {
        o.fail(e);
    }
    let recs = g.recs;
    // per segment: start, last completion, jobs completed
    let sat_windows: Vec<(f64, f64, usize)> = segments
        .iter()
        .enumerate()
        .map(|(i, &(start, first))| {
            let last = segments.get(i + 1).map_or(recs.len(), |s| s.1);
            let seg = recs[first..last].iter().filter(|r| r.phase == sat_phase);
            let end = seg.clone().map(|r| r.end).fold(start, f64::max);
            (start, end, seg.filter(|r| r.ok).count())
        })
        .collect();

    let cache = server.service().cache_stats();
    let invocations = server.service().solver_invocations();
    server.shutdown();
    o.metric("peak_rss_mb", crate::solve::peak_rss_mb());

    summarize(&recs, &sat_windows, lag_max, &mut o);
    check_results(args.seed, &plans, &pairs, &recs, &mut o);
    let (q1, med, q3) = stats::quartiles(&ref_secs);
    o.note(format!(
        "serve reference solves: {} calls, median {:.3} ms (q1 {:.3}, q3 {:.3})",
        ref_secs.len(),
        med * 1e3,
        q1 * 1e3,
        q3 * 1e3
    ));
    o.metric("solve_s", ref_secs.iter().copied().fold(f64::INFINITY, f64::min));

    if args.trace {
        let solved = recs.iter().filter(|r| r.ok && !r.cached).count();
        let spans = trace::take();
        serve_layers(&recs, &plans, &pairs, &spans, solved, invocations, cache, lag_max, &mut o);
        let path =
            std::path::Path::new(crate::OUT_DIR).join(format!("trace-serve-{}.jsonl", args.seed));
        if let Err(e) = trace::write(&path, &spans) {
            o.note(format!("could not write the span file: {e}"));
        }
    }
    o
}

fn ms(v: impl Iterator<Item = f64>) -> Vec<f64> {
    v.map(|s| s * 1e3).collect()
}

/// End-to-end metrics of the ladder and the saturation phase.
fn summarize(recs: &[Rec], sat: &[(f64, f64, usize)], lag_max: f64, o: &mut Outcome) {
    for _ in recs {
        o.attempt();
    }
    let mut rungs = Vec::new();
    for (k, &rate) in RATES_HZ.iter().enumerate() {
        let rung: Vec<&Rec> = recs.iter().filter(|r| r.phase == k).collect();
        // a failed or rejected job misses every latency limit
        let lat: Vec<f64> =
            rung.iter().map(|r| if r.ok { (r.end - r.due) * 1e3 } else { f64::INFINITY }).collect();
        let p50 = median(&lat);
        let p95 = match require_percentile(&lat, 95.0, &format!("rung {rate} jobs/s")) {
            Ok(v) => v,
            Err(e) => {
                o.fail(e);
                f64::NAN
            }
        };
        let due: Vec<f64> = rung.iter().map(|r| r.due).collect();
        let end: Vec<f64> = rung.iter().map(|r| r.end).collect();
        let first = due.iter().copied().fold(f64::INFINITY, f64::min);
        let last = end.iter().copied().fold(0.0, f64::max);
        let r = Rung {
            p95_ms: p95,
            backlog_grows: stats::backlog_grows(&due, &end),
            failed: rung.iter().filter(|r| !r.ok).count(),
            achieved_hz: rung.iter().filter(|r| r.ok).count() as f64 / (last - first),
        };
        o.note(format!(
            "serve rung {rate} jobs/s: n {} p50 {p50:.2} ms p95 {p95:.2} ms, achieved {:.3} jobs/s, \
             backlog grows {}, failed {}",
            rung.len(),
            r.achieved_hz,
            r.backlog_grows,
            r.failed
        ));
        rungs.push(r);
        // latency at the middle and top rungs: printed, not gated (see README)
        let label = if k + 1 == RATES_HZ.len() {
            Some("hi")
        } else if k == RATES_HZ.len() / 2 {
            Some("mid")
        } else {
            None
        };
        if let Some(label) = label {
            o.note(format!(
                "lat_{label}_p50_ms {p50} ms, lat_{label}_p95_ms {p95} ms (n {})",
                lat.len()
            ));
        }
    }
    o.metric("max_rate_hz", stats::max_rate(&rungs, P95_LIMIT_MS));
    let rates: Vec<f64> =
        sat.iter().map(|&(start, end, done)| done as f64 / (end - start)).collect();
    o.metric("sat_jobs_per_s", rates.iter().copied().fold(0.0, f64::max));
    o.note(format!(
        "serve saturation: {} jobs in {:.3} s over {} segments, rates {:.3?} jobs/s",
        sat.iter().map(|s| s.2).sum::<usize>(),
        sat.iter().map(|s| s.1 - s.0).sum::<f64>(),
        sat.len(),
        rates
    ));

    let solved: Vec<&Rec> = recs.iter().filter(|r| r.ok && !r.cached).collect();
    for n in [12, 16] {
        let run: Vec<f64> = solved.iter().filter(|r| r.n == n).map(|r| r.run_s * 1e3).collect();
        if !run.is_empty() {
            o.note(format!(
                "serve {n}^3 jobs: {} solved, server run time median {:.2} ms",
                run.len(),
                median(&run)
            ));
        }
    }
    if solved.is_empty() {
        o.fail("serve: no job was solved".to_string());
    } else {
        let rel: Vec<f64> =
            solved.iter().filter_map(|r| r.report.as_ref().map(|p| p.rel_mismatch)).collect();
        o.metric("rel_mismatch", median(&rel));
    }
    let lag_ms = lag_max * 1e3;
    o.note(format!("serve generator lag max {lag_ms:.3} ms"));
    if lag_ms > MAX_GEN_LAG_MS {
        o.fail(format!(
            "serve: generator ran {lag_ms:.1} ms late (> {MAX_GEN_LAG_MS} ms): run invalid"
        ));
    }
}

/// Correctness gate: a seeded sample of solved jobs must equal a solo
/// `Claire::register` of the same pair, and every repeat must equal its
/// original.
fn check_results(
    seed: u64,
    plans: &[JobPlan],
    pairs: &[Option<Pair>],
    recs: &[Rec],
    o: &mut Outcome,
) {
    let same = |a: &RegistrationReport, b: &RegistrationReport| {
        a.rel_mismatch.to_bits() == b.rel_mismatch.to_bits()
            && a.gn_iters == b.gn_iters
            && a.pcg_iters == b.pcg_iters
            && a.jac_det_min.to_bits() == b.jac_det_min.to_bits()
    };
    let mut repeats = 0;
    for (i, r) in recs.iter().enumerate() {
        let (Some(of), Some(rep)) = (plans[i].repeat_of, r.report.as_ref()) else { continue };
        let Some(orig) = recs.get(of).and_then(|x| x.report.as_ref()) else { continue };
        o.attempt();
        repeats += 1;
        if !same(rep, orig) {
            o.fail(format!(
                "serve: job {i} (repeat of {of}, cached {}) differs from its original",
                r.cached
            ));
        }
    }
    let candidates: Vec<usize> = (0..recs.len())
        .filter(|&i| recs[i].ok && !recs[i].cached && plans[i].repeat_of.is_none())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ec_0000);
    let sample: Vec<usize> = (0..CHECK_SAMPLE.min(candidates.len()))
        .map(|_| candidates[rng.random_range(0..candidates.len())])
        .collect();
    for &i in &sample {
        o.attempt();
        let served = recs[i].report.as_ref().expect("succeeded job has a report");
        let alone = solo(pairs[i].as_ref().expect("fresh job has a pair"));
        if !same(&alone, served) {
            o.fail(format!(
                "serve: job {i} differs from a solo registration: rel_mismatch {} vs {}",
                served.rel_mismatch, alone.rel_mismatch
            ));
        }
    }
    o.note(format!(
        "serve checks: {repeats} repeats against originals, {} solo re-registrations",
        sample.len()
    ));
}

/// A solo registration of `pair` with the job configuration at 1 thread.
fn solo(pair: &Pair) -> RegistrationReport {
    let layout = Layout::serial(Grid::cube(pair.n));
    let m0 = ScalarField::from_data(layout, pair.template.clone());
    let m1 = ScalarField::from_data(layout, pair.reference.clone());
    claire_par::with_local_threads(1, || {
        Claire::new(job_config()).register(&m0, &m1, &mut Comm::solo()).1
    })
}

/// Per-layer metrics of the traced serve run.
#[allow(clippy::too_many_arguments)]
fn serve_layers(
    recs: &[Rec],
    plans: &[JobPlan],
    pairs: &[Option<Pair>],
    spans: &[trace::SpanRec],
    solved: usize,
    invocations: u64,
    cache: claire_serve::ResultCacheStats,
    lag_max: f64,
    o: &mut Outcome,
) {
    let ladder: Vec<&Rec> = recs.iter().filter(|r| r.phase < RATES_HZ.len()).collect();
    let submit = ms(ladder.iter().map(|r| r.ack - r.sent));
    o.metric("serve.submit_ms.p50", median(&submit));
    o.metric(
        "serve.submit_ms.p95",
        require_percentile(&submit, 95.0, "submit").unwrap_or(f64::NAN),
    );
    let deliver = ms(ladder.iter().filter_map(|r| r.deliver));
    o.metric("serve.deliver_ms.p50", if deliver.is_empty() { 0.0 } else { median(&deliver) });
    let queued = ms(ladder.iter().filter(|r| r.ok && !r.cached).map(|r| r.queue_wait_s));
    o.metric("serve.queue_wait_ms.p50", median(&queued));
    o.metric(
        "serve.queue_wait_ms.p95",
        require_percentile(&queued, 95.0, "queue wait").unwrap_or(f64::NAN),
    );
    let run = ms(ladder.iter().filter(|r| r.ok && !r.cached).map(|r| r.run_s));
    o.metric("serve.run_ms.p50", median(&run));
    o.metric("serve.jobs_per_solve", solved as f64 / invocations.max(1) as f64);
    o.metric("serve.solver_invocations", invocations as f64);
    let repeats = plans[..recs.len()].iter().filter(|p| p.repeat_of.is_some()).count();
    o.metric(
        "serve.cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    o.note(format!(
        "serve cache: {} hits, {} misses; repeat share of the jobs sent {:.4}",
        cache.hits,
        cache.misses,
        repeats as f64 / recs.len() as f64
    ));
    o.metric("serve.rejected", recs.iter().filter(|r| r.rejected).count() as f64);
    o.metric("serve.failed", recs.iter().filter(|r| !r.ok && !r.rejected).count() as f64);
    o.metric("serve.gen_lag_ms.max", lag_max * 1e3);
    // request size: the encoded Submit frame of a few jobs of each size
    let mut kb = Vec::new();
    for (i, pair) in pairs.iter().enumerate().filter_map(|(i, p)| Some((i, p.as_ref()?))).take(8) {
        let spec = spec_for(pair, format!("job-{i}"));
        kb.push((encode(&Request::Submit { spec }).len() + 4) as f64 / 1024.0);
    }
    o.metric("serve.req_kb", median(&kb));
    let totals = trace::totals(spans, None);
    for (name, t) in &totals {
        o.note(format!(
            "span {name}: {} calls, {:.4} s total, {:.4} s self",
            t.calls, t.total, t.self_total
        ));
    }
    // the generator's only extra work when traced is recording its spans:
    // their count times the measured cost of recording one
    const PROBE_SPANS: u32 = 10_000;
    let t0 = Instant::now();
    for i in 0..PROBE_SPANS {
        drop(trace::span("trace.cost", u64::from(i)));
    }
    let per_span = t0.elapsed().as_secs_f64() / f64::from(PROBE_SPANS);
    trace::take();
    o.metric("trace.overhead_s", per_span * spans.len() as f64);
}
