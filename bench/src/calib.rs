//! How fast the machine is right now.
//!
//! The host this benchmark runs on is shared: for ten seconds to several
//! minutes at a time everything on it runs 10 % to 100 % slower, user CPU
//! time rising with wall time and no steal time reported, so no choice of
//! reps inside a run of a minute gets around it. The harness therefore
//! times a fixed piece of work, [`kernel`], just before and just after the
//! calls it measures, and reports their times at the speed of a machine on
//! which the kernel takes [`REFERENCE_S`] (see [`speed`]).
//!
//! The kernel does what the workloads do to memory and to the branch
//! predictor — sorts pairs, then looks random pairs up by binary search in
//! an array that does not fit the per-core cache — and calls nothing
//! outside the benchmark and `std`, so no change to the repository moves it.
//! A child runs it as a process of its own (`bench calib`).

use crate::oracle::tuple_hash;
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`kernel`] takes on the host the benchmark was written on
/// (2 vCPUs of a Xeon at 2.1 GHz) when nothing disturbs it.
pub const REFERENCE_S: f64 = 0.4;

const PAIRS: u64 = 1 << 20;
const DOMAIN: u64 = 40_000;

fn pair(i: u64) -> [u64; 2] {
    let h = tuple_hash(&[i]);
    [h % DOMAIN, (h >> 32) % DOMAIN]
}

/// Does the fixed work once; returns the seconds it took.
pub fn kernel() -> f64 {
    let start = Instant::now();
    let mut pairs: Vec<[u64; 2]> = (0..PAIRS).map(pair).collect();
    pairs.sort_unstable();
    let found = (PAIRS..2 * PAIRS)
        .filter(|&i| pairs.binary_search(&pair(i)).is_ok())
        .count();
    let sum = pairs.iter().fold(0u64, |a, p| a.wrapping_add(p[1]));
    black_box((found, sum));
    start.elapsed().as_secs_f64()
}

/// The machine's speed between two kernel runs that took `before` and
/// `after` seconds, as a share of the reference machine's: a time measured
/// between them, multiplied by this, is what it would have been there.
pub fn speed(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}
