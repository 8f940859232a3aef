//! Input shapes shared by the property tests.

use proptest::prelude::*;

/// Ascending runs with duplicates: what a tree sees when sorted batches are
/// applied to it one after another. Each run starts anywhere in a domain
/// small enough for runs to overlap, climbs by steps of 0 (a repeat) to 3,
/// and is followed by its own second half again — a duplicate-heavy rewind.
pub fn ascending_runs() -> impl Strategy<Value = Vec<[u64; 2]>> {
    let run = (0u64..1_500, prop::collection::vec(0u64..4, 1..120)).prop_map(|(start, steps)| {
        let mut k = start;
        let mut run: Vec<[u64; 2]> = Vec::with_capacity(steps.len() * 3 / 2);
        for step in steps {
            k += step;
            run.push([k / 64, k % 64]);
        }
        run.extend_from_within(run.len() / 2..);
        run
    });
    prop::collection::vec(run, 1..8).prop_map(|runs| runs.concat())
}
