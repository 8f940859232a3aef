//! Shared by the equivalence suites that sweep thread counts.

/// Thread counts to exercise. `DATALOG_TEST_THREADS` (used by the CI smoke
/// matrix) appends an extra count.
pub fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    if let Ok(extra) = std::env::var("DATALOG_TEST_THREADS") {
        if let Ok(n) = extra.trim().parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}
