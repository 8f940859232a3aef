//! Shared by the equivalence suites: the thread counts they sweep and the
//! naive evaluator some of them check against; each suite uses what it
//! needs.
#![allow(dead_code)]

pub mod naive;

/// Thread counts to exercise. `DATALOG_TEST_THREADS` (used by the CI smoke
/// matrix) appends an extra count.
pub fn thread_counts() -> Vec<usize> {
    with_extra(&[1, 2, 4, 8])
}

/// `counts`, and the count `DATALOG_TEST_THREADS` names if it is not among
/// them.
pub fn with_extra(counts: &[usize]) -> Vec<usize> {
    let mut counts = counts.to_vec();
    if let Ok(extra) = std::env::var("DATALOG_TEST_THREADS") {
        if let Ok(n) = extra.trim().parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}
