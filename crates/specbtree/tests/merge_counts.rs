//! The bulk path by counts, clock-free: what an append-shaped merge leaves
//! and costs, and that a small source stays on the calling thread.
//!
//! One `#[test]`: the counters are process-global, so a second test in this
//! binary would bump them under the first one's feet. The counter bounds are
//! keyed on the `telemetry` feature; contents and shape are asserted always.

use specbtree::{BTreeSet, TreeStats, Tuple};

fn grown<const C: usize>(keys: std::ops::Range<u64>) -> BTreeSet<2, C> {
    let t = BTreeSet::new();
    keys.for_each(|i| assert!(t.insert([i, 1])));
    t
}

fn counter(name: &str) -> u64 {
    telemetry::snapshot().counter(name)
}

/// `n` keys grown by point inserts, then `m` more merged in behind them: the
/// union, in a sound tree. Returns the target's stats before and after, and
/// the runs the source was cut into and the descents they made.
fn append_merge<const C: usize>(n: u64, m: u64) -> (TreeStats, TreeStats, [u64; 2]) {
    let (dst, src) = (grown::<C>(0..n), grown::<C>(n..n + m));
    let counters = || ["specbtree.merge_chunks", "specbtree.run_descents"].map(counter);
    let (before, was) = (dst.stats(), counters());
    assert_eq!(dst.insert_all_parallel(&src, 1), m, "n={n} m={m} C={C}");
    let now = counters();
    let shape = dst.check_invariants().unwrap();
    assert_eq!(shape.keys, (n + m) as usize, "n={n} m={m} C={C}");
    let expect: Vec<Tuple<2>> = (0..n + m).map(|i| [i, 1]).collect();
    assert_eq!(dst.iter().collect::<Vec<_>>(), expect, "n={n} m={m} C={C}");
    (before, dst.stats(), [now[0] - was[0], now[1] - was[1]])
}

#[test]
fn the_bulk_path_by_counts() {
    // An append-only delta is runs on the rightmost leaf group. Over a sweep
    // of target and delta sizes — at capacity 4, where every few keys split
    // a leaf and every few leaves their parent, and forty times the keys at
    // the default capacity — the merge is exact, a leaf it appends to splits
    // full (22 of 24 keys stay: 0.917 in the limit, 0.5 had the cut been at
    // the median), and a descent serves a leaf group: each of the at most
    // four runs descends once, and once more for every parent it fills and
    // splits.
    for n in [40u64, 64, 97, 150, 221, 300] {
        for m in [8u64, 16, 31] {
            append_merge::<4>(n, m);
            let (before, after, [runs, descents]) =
                append_merge::<{ specbtree::DEFAULT_NODE_CAPACITY }>(40 * n, 40 * m);
            assert!(after.leaf_fill() >= 0.9, "n={n} m={m}: {after:?}");
            if telemetry::ENABLED {
                let groups = runs + after.inner_nodes - before.inner_nodes;
                assert!(
                    (1..=4).contains(&runs) && (runs..=groups).contains(&descents),
                    "n={n} m={m}: {runs} runs, {descents} descents for {groups} leaf groups"
                );
            }
        }
    }

    // A source no deeper than a root over leaves is one run, merged and
    // removed on the calling thread however many workers are offered.
    let base: Vec<Tuple<2>> = (0..100_000u64).map(|i| [i / 300, 2 * (i % 300)]).collect();
    for (len, workers) in [(20u64, 2usize), (200, 2), (600, 4), (600, 8)] {
        let dst: BTreeSet<2> = BTreeSet::from_sorted(base.iter().copied());
        // Some of the source is in the target already; the rest falls between
        // its keys or behind them.
        let src: BTreeSet<2> = BTreeSet::from_sorted((0..len).map(|i| [7 * i, 3 * i]));
        assert!(
            src.stats().inner_nodes <= 1,
            "{len} keys: {:?}",
            src.stats()
        );
        let fresh = src.iter().filter(|t| !dst.contains(t)).count() as u64;
        assert!(0 < fresh && fresh < len, "{fresh} of {len} are new");
        let what = format!("{len} keys at {workers} workers");

        let chunks = counter("specbtree.merge_chunks");
        assert_eq!(dst.insert_all_parallel(&src, workers), fresh, "{what}");
        let merged = counter("specbtree.merge_chunks");
        assert_eq!(dst.remove_all_parallel(&src, workers), len, "{what}");
        let removed = counter("specbtree.merge_chunks");
        if telemetry::ENABLED {
            assert_eq!((merged - chunks, removed - merged), (1, 1), "{what}");
        }
        dst.check_invariants().unwrap();
        assert_eq!(dst.len() as u64, 100_000 - (len - fresh), "{what}");
    }
}
