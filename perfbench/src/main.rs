//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! perfbench --workload <volume|ranks2|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`. The plain run (`--trace 0`) prints
//! the end-to-end metrics; the traced run (`--trace 1`) prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; every line before it is
//! a human-readable note. The exit code is non-zero when any output was
//! incorrect or any operation failed. See README.md for every metric.

mod inputs;
mod mpi;
mod serve;
mod solve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Scratch directory (relative to the working directory) for rendezvous
/// sockets and span files.
pub const OUT_DIR: &str = ".perfbench";

/// End-to-end metrics: name and unit. Every workload reports each.
const END_TO_END: [(&str, &str); 6] = [
    ("solve_s", "s"),
    ("rel_mismatch", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_rate_hz", "jobs/s"),
    ("sat_jobs_per_s", "jobs/s"),
];

/// Per-layer metrics: name and unit. A layer a workload does not drive
/// reports 0.
const PER_LAYER: [(&str, &str); 57] = [
    ("core.objective.s", "s"),
    ("core.objective.calls", "count"),
    ("core.gradient.s", "s"),
    ("core.gradient.calls", "count"),
    ("core.hess_vec.s", "s"),
    ("core.hess_vec.calls", "count"),
    ("core.precond.s", "s"),
    ("core.precond.calls", "count"),
    ("core.problem_new.s", "s"),
    ("core.inner_pcg_iters", "count"),
    ("opt.self_s", "s"),
    ("opt.gn_iters", "count"),
    ("opt.pcg_iters", "count"),
    ("opt.obj_evals", "count"),
    ("semilag.traj.s", "s"),
    ("semilag.state.s", "s"),
    ("semilag.adjoint.s", "s"),
    ("semilag.inc_state.s", "s"),
    ("interp.ns_per_pt", "ns/pt"),
    ("interp.pct_peak", "%"),
    ("fft.fwd.s", "s"),
    ("fft.inv.s", "s"),
    ("fft.pct_peak", "%"),
    ("diff.fd_grad.s", "s"),
    ("diff.reg_inv.s", "s"),
    ("diff.two_level.s", "s"),
    ("grid.pool_misses", "count"),
    ("grid.pool_peak_mb", "MB"),
    ("host.dram_gbps", "GB/s"),
    ("mpi.recv_wait_s", "s"),
    ("mpi.wait_share", "1"),
    ("mpi.send_s", "s"),
    ("mpi.msgs", "count"),
    ("mpi.wire_mb", "MB"),
    ("mpi.wire_mb.ghost", "MB"),
    ("mpi.wire_mb.fft_transpose", "MB"),
    ("mpi.wire_mb.scatter", "MB"),
    ("mpi.wire_mb.interp", "MB"),
    ("mpi.wire_mb.reduce", "MB"),
    ("ipc.eager_msgs", "count"),
    ("ipc.rendezvous_msgs", "count"),
    ("ipc.bootstrap_s", "s"),
    ("serve.submit_ms.p50", "ms"),
    ("serve.submit_ms.p95", "ms"),
    ("serve.deliver_ms.p50", "ms"),
    ("serve.req_kb", "KB"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p95", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.jobs_per_solve", "1"),
    ("serve.cache_hit_ratio", "1"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.gen_lag_ms.max", "ms"),
    ("serve.solver_invocations", "count"),
    ("trace.overhead_s", "s"),
    ("fail_ratio", "1"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// How long one run measures (s).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run measured and checked.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome { attempted: 0, failed: 0, metrics: BTreeMap::new(), notes: Vec::new() }
    }

    /// Record a measured value.
    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a human-readable line.
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one attempted operation or check.
    fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed operation or check.
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Render a metric value with all its digits (shortest round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <volume|ranks2|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut o = match args.workload.as_str() {
        "volume" => solve::volume(&args),
        "ranks2" => solve::ranks2(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (volume, ranks2, serve)");
            return ExitCode::from(2);
        }
    };
    let attempted = o.attempted.max(1);
    o.metric("fail_ratio", o.failed as f64 / attempted as f64);
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in list {
        // a layer this workload does not drive reports 0
        let value = match o.metrics.get(*name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                o.fail(format!("metric {name} was not measured"));
                f64::NAN
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = o.failed == 0;
    for line in &o.notes {
        println!("# {line}");
    }
    println!(
        "# {}: attempted {attempted}, failed {}, fail_ratio {}",
        args.workload,
        o.failed,
        o.failed as f64 / attempted as f64
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
