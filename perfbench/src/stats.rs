//! The benchmark's own arithmetic: quantiles, the tail-percentile rule, the
//! open-loop latency guard, backlog growth and the `max_rate_hz` rule.

/// Quantile `q` in `[0, 1]` of `sorted` by linear interpolation between
/// closest ranks. `sorted` must be non-empty and ascending.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `v` (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    s
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// `(first quartile, median, third quartile)` of a non-empty sample.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Percentiles the benchmark reports tails at, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest reported percentile that has at least ten of `n` samples
/// beyond it, or `None` when even p75 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|p| (n as f64 * (1.0 - p / 100.0) + 1e-9).floor() >= 10.0)
}

/// The `p`-th percentile of `samples`, failing loudly when the sample is too
/// short for it (fewer than ten samples beyond it).
pub fn require_percentile(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    match tail_percentile(samples.len()) {
        Some(best) if best >= p => Ok(quantile(&sorted(samples), p / 100.0)),
        _ => Err(format!(
            "{what}: {} samples are too few for p{p} (need at least {} so that ten lie beyond it)",
            samples.len(),
            (10.0 / (1.0 - p / 100.0)).ceil()
        )),
    }
}

/// When a job reached its terminal state, as the client may count it.
///
/// The generator waits on jobs in submission order over one connection, so
/// a job that finished while the client was still waiting on a slower,
/// earlier job is only *seen* when that wait returns. Such a result must not
/// be charged the other job's wait: if the server's own clock (submit
/// acknowledgement `ack` plus the server-side admission-to-terminal time
/// `server_total`) places the end before the client began waiting on this
/// job (`wait_start`), that is the end; otherwise the wait's return
/// (`wait_end`) is, which includes delivering the result.
pub fn job_end(ack: f64, server_total: f64, wait_start: f64, wait_end: f64) -> f64 {
    let server_end = ack + server_total;
    if server_end < wait_start {
        server_end
    } else {
        wait_end
    }
}

/// Whether the backlog grew during a rung. `due` are the jobs' scheduled
/// send times (ascending) and `end` their terminal times; the backlog at a
/// job's due time is the number of jobs due by then that were not yet
/// terminal. It grows when its mean over the last third of the rung exceeds
/// the mean over the first third by more than two jobs and by half.
pub fn backlog_grows(due: &[f64], end: &[f64]) -> bool {
    assert_eq!(due.len(), end.len());
    let n = due.len();
    if n < 3 {
        return false;
    }
    let backlog: Vec<f64> = due
        .iter()
        .enumerate()
        .map(|(i, &t)| (0..=i).filter(|&j| end[j] > t).count() as f64)
        .collect();
    let third = n / 3;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&backlog[..third]);
    let last = mean(&backlog[n - third..]);
    last > first + 2.0f64.max(0.5 * first)
}

/// One rung of the offered-rate ladder, as measured.
#[derive(Clone, Debug)]
pub struct Rung {
    /// p95 latency (ms); failed or rejected jobs count as missing the limit.
    pub p95_ms: f64,
    /// Whether the backlog grew over the rung.
    pub backlog_grows: bool,
    /// Jobs that failed, were rejected or were incorrect.
    pub failed: usize,
    /// Jobs completed per second over the rung (first due time to last end).
    pub achieved_hz: f64,
}

impl Rung {
    /// Whether the rung meets the service objective.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.p95_ms <= limit_ms && !self.backlog_grows && self.failed == 0
    }
}

/// `max_rate_hz`: the completion rate achieved at the highest rung of the
/// ladder (ascending offered rate) up to which every rung keeps p95 within
/// `limit_ms`, does not grow a backlog and fails nothing; 0 when the lowest
/// rung already misses.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs.iter().take_while(|r| r.passes(limit_ms)).last().map_or(0.0, |r| r.achieved_hz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quartiles(&v), (2.0, 3.0, 4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn short_phase_fails_loudly_for_p95() {
        let long: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(require_percentile(&long, 95.0, "rung").is_ok());
        let short: Vec<f64> = (0..199).map(f64::from).collect();
        let err = require_percentile(&short, 95.0, "rung").unwrap_err();
        assert!(err.contains("199 samples") && err.contains("200"), "{err}");
    }

    #[test]
    fn guard_ignores_time_spent_behind_a_slower_wait() {
        // finished at 1.5 s by the server's clock, but the client only began
        // waiting on it at 3 s (it was blocked on an earlier job)
        assert_eq!(job_end(1.0, 0.5, 3.0, 3.01), 1.5);
        // still running when the wait began: the wait's return is the end
        assert_eq!(job_end(1.0, 2.5, 3.0, 3.6), 3.6);
        // a cache hit is terminal at its acknowledgement
        assert_eq!(job_end(2.0, 0.0, 2.5, 2.51), 2.0);
    }

    #[test]
    fn backlog_growth() {
        let due: Vec<f64> = (0..30).map(|i| i as f64).collect();
        // each job done half a second after it is due: steady
        let steady: Vec<f64> = due.iter().map(|t| t + 0.5).collect();
        assert!(!backlog_grows(&due, &steady));
        // service at half the arrival rate: the queue builds up
        let slow: Vec<f64> = (0..30).map(|i| 2.0 * i as f64 + 1.0).collect();
        assert!(backlog_grows(&due, &slow));
    }

    #[test]
    fn max_rate_rule() {
        let rung = |rate: f64, p95: f64, grows: bool, failed: usize| Rung {
            p95_ms: p95,
            backlog_grows: grows,
            failed,
            achieved_hz: rate * 0.99,
        };
        let limit = 500.0;
        let all = [rung(10.0, 100.0, false, 0), rung(20.0, 200.0, false, 0)];
        assert_eq!(max_rate(&all, limit), 20.0 * 0.99);
        let over = [rung(10.0, 100.0, false, 0), rung(20.0, 600.0, false, 0)];
        assert_eq!(max_rate(&over, limit), 10.0 * 0.99);
        let growing = [rung(10.0, 100.0, false, 0), rung(20.0, 200.0, true, 0)];
        assert_eq!(max_rate(&growing, limit), 10.0 * 0.99);
        let failing = [rung(10.0, 100.0, false, 0), rung(20.0, 200.0, false, 1)];
        assert_eq!(max_rate(&failing, limit), 10.0 * 0.99);
        // a pass above a miss does not count
        let gap = [rung(10.0, 900.0, false, 0), rung(20.0, 200.0, false, 0)];
        assert_eq!(max_rate(&gap, limit), 0.0);
    }
}
