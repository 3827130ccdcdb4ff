//! Seeded input generators. The same seed gives byte-identical inputs.
//!
//! Registration pairs follow the NIREP-like phantom recipe of
//! `claire_data::brain`: the canonical brain is the template, and the
//! reference is that template transported by a seeded random smooth velocity.
//! The program under test only ever receives the two images.

use claire_data::brain;
use claire_grid::{Grid, Layout, Real, ScalarField};
use claire_interp::{Interpolator, IpOrder};
use claire_mpi::Comm;
use claire_semilag::{Trajectory, Transport};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Peak velocity of the warping field (as for the NIREP-like subjects).
const WARP_AMPLITUDE: f64 = 0.35;
/// Highest Fourier mode of the warping field.
const WARP_MAX_MODE: usize = 2;

/// A template/reference pair on the serial `n³` grid, row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Pair {
    /// Grid extent per axis.
    pub n: usize,
    /// Template image `m0` (the canonical brain).
    pub template: Vec<Real>,
    /// Reference image `m1` (the template warped by the seeded velocity).
    pub reference: Vec<Real>,
}

/// The seeded brain-phantom pair at `n³`.
pub fn brain_pair(n: usize, seed: u64) -> Pair {
    let layout = Layout::serial(Grid::cube(n));
    let mut comm = Comm::solo();
    let template = brain::canonical(layout);
    let v = brain::random_smooth_velocity(layout, seed, WARP_AMPLITUDE, WARP_MAX_MODE);
    let mut interp = Interpolator::new(IpOrder::Cubic);
    let transport = Transport::new(4, IpOrder::Cubic);
    let traj = Trajectory::compute(&v, transport.nt, &mut interp, &mut comm);
    let mut sol = transport.solve_state(&traj, &template, false, &mut interp, &mut comm);
    let reference = sol.m.pop().expect("state solve returns the time series");
    Pair { n, template: template.data().to_vec(), reference: reference.data().to_vec() }
}

/// The fresh pairs of a job sequence (`None` for a repeat), generated by
/// `threads` threads at one kernel thread each. Each pair depends only on
/// its plan, so the result is the same for any thread count.
pub fn serve_pairs(plans: &[JobPlan], threads: usize) -> Vec<Option<Pair>> {
    let mut pairs: Vec<Option<Pair>> = vec![None; plans.len()];
    let per = plans.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (plans, out) in plans.chunks(per).zip(pairs.chunks_mut(per)) {
            s.spawn(move || {
                claire_par::with_local_threads(1, || {
                    for (p, slot) in plans.iter().zip(out) {
                        if p.repeat_of.is_none() {
                            *slot = Some(brain_pair(p.n, p.pair_seed));
                        }
                    }
                })
            });
        }
    });
    pairs
}

/// The part of a serial image owned by `layout`'s slab.
pub fn local_field(global: &[Real], layout: Layout) -> ScalarField {
    let plane = layout.grid.n[1] * layout.grid.n[2];
    let lo = layout.slab.i0 * plane;
    ScalarField::from_data(layout, global[lo..lo + layout.slab.ni * plane].to_vec())
}

/// `count` Poisson arrival times (s) at `rate_hz`, conditioned on their
/// count in every one-second window: each window receives exactly its share
/// of `rate_hz` arrivals (the last one the remainder), placed as sorted
/// uniform draws inside it — which is how a Poisson process distributes a
/// given count. Every stretch of a rung offers its nominal rate, so the seed
/// changes when jobs arrive but not how much load a second carries.
pub fn poisson_arrivals(seed: u64, rate_hz: f64, count: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_window = (rate_hz.round() as usize).max(1);
    let mut t: Vec<f64> = Vec::with_capacity(count);
    let mut window = 0.0;
    while t.len() < count {
        let k = per_window.min(count - t.len());
        // the last, partial window keeps the rate
        let len = k as f64 / rate_hz;
        let mut w: Vec<f64> = (0..k).map(|_| window + rng.random_range(0.0..len)).collect();
        w.sort_by(f64::total_cmp);
        t.extend(w);
        window += len;
    }
    t
}

/// One job of the serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPlan {
    /// Grid extent of the job's pair.
    pub n: usize,
    /// Seed of the pair's warping velocity.
    pub pair_seed: u64,
    /// Index of the earlier job this one repeats exactly, if any.
    pub repeat_of: Option<usize>,
}

/// The serve workload's job sequence, built in blocks: each block holds the
/// entries of `block` in a seeded order, where `Some(n)` is a fresh pair at
/// `n³` and `None` exactly repeats a uniformly drawn earlier fresh job. The
/// mix of sizes and repeats is therefore the same in every stretch of jobs,
/// and only which pairs, and in which order, depends on the seed.
pub fn serve_jobs(seed: u64, count: usize, block: &[Option<usize>]) -> Vec<JobPlan> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0000_0000_0000);
    let largest = block.iter().flatten().copied().max().expect("a block holds a fresh job");
    let mut fresh: Vec<usize> = Vec::new();
    let mut jobs: Vec<JobPlan> = Vec::with_capacity(count);
    let mut order = block.to_vec();
    while jobs.len() < count {
        // Fisher-Yates shuffle of one block
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for &entry in order.iter().take(count - jobs.len()) {
            let i = jobs.len();
            match entry {
                // nothing to repeat yet at the very start: a fresh job instead
                None if !fresh.is_empty() => {
                    let of = fresh[rng.random_range(0..fresh.len())];
                    jobs.push(JobPlan { repeat_of: Some(of), ..jobs[of] });
                }
                _ => {
                    let n = entry.unwrap_or(largest);
                    let pair_seed = seed.wrapping_mul(1_000_003).wrapping_add(i as u64 + 1);
                    fresh.push(i);
                    jobs.push(JobPlan { n, pair_seed, repeat_of: None });
                }
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: [Option<usize>; 8] =
        [None, None, Some(12), Some(16), Some(16), Some(16), Some(16), Some(16)];

    fn bytes(v: &[Real]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    #[test]
    fn serve_pairs_do_not_depend_on_thread_count() {
        let jobs = serve_jobs(5, 24, &BLOCK);
        let one = serve_pairs(&jobs, 1);
        assert_eq!(one, serve_pairs(&jobs, 2));
        for (j, p) in jobs.iter().zip(&one) {
            assert_eq!(p.is_some(), j.repeat_of.is_none());
            if let Some(p) = p {
                assert_eq!(p, &brain_pair(j.n, j.pair_seed));
            }
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = brain_pair(12, 7);
        let b = brain_pair(12, 7);
        let c = brain_pair(12, 8);
        assert_eq!(bytes(&a.template), bytes(&b.template));
        assert_eq!(bytes(&a.reference), bytes(&b.reference));
        assert_ne!(bytes(&a.reference), bytes(&c.reference));
        // the template is the shared atlas; only the warp is seeded
        assert_eq!(bytes(&a.template), bytes(&c.template));
        assert_ne!(bytes(&a.template), bytes(&a.reference));
    }

    #[test]
    fn poisson_schedule_is_seeded() {
        let a = poisson_arrivals(3, 20.0, 200);
        assert_eq!(a, poisson_arrivals(3, 20.0, 200));
        assert_ne!(a, poisson_arrivals(4, 20.0, 200));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // exactly the nominal count in every one-second window
        for w in 0..10 {
            let n = a.iter().filter(|&&t| (w as f64..w as f64 + 1.0).contains(&t)).count();
            assert_eq!(n, 20, "window {w}");
        }
        let j = serve_jobs(3, 300, &BLOCK);
        assert_eq!(j, serve_jobs(3, 300, &BLOCK));
        assert_ne!(j, serve_jobs(4, 300, &BLOCK));
    }

    #[test]
    fn every_block_has_the_same_mix() {
        let jobs = serve_jobs(11, 400, &BLOCK);
        assert_eq!(jobs.len(), 400);
        for (b, chunk) in jobs.chunks(BLOCK.len()).enumerate().skip(1) {
            let repeats = chunk.iter().filter(|j| j.repeat_of.is_some()).count();
            let small = chunk.iter().filter(|j| j.repeat_of.is_none() && j.n == 12).count();
            assert_eq!((repeats, small), (2, 1), "block {b}");
        }
        for (i, j) in jobs.iter().enumerate() {
            if let Some(of) = j.repeat_of {
                assert!(of < i && jobs[of].repeat_of.is_none());
                assert_eq!((j.n, j.pair_seed), (jobs[of].n, jobs[of].pair_seed));
            }
        }
    }
}
