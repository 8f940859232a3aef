//! Property-based tests: the concurrent and sequential trees must behave
//! identically to `std::collections::BTreeSet` on arbitrary operation
//! sequences, and all structural invariants must hold at every point.

mod common;

use common::ascending_runs;
use proptest::prelude::*;
use specbtree::seq::SeqBTreeSet;
use specbtree::{BTreeSet, Iter, TreeStats};
use std::collections::BTreeSet as Model;

/// What one tree's decisions fix, under either latch: depth, node counts
/// and keys (`live_bytes` differs by the latch word).
fn census(s: TreeStats) -> (usize, u64, u64, u64, u64) {
    (s.depth, s.inner_nodes, s.leaf_nodes, s.keys, s.leaf_keys)
}

/// Keys from a smallish domain so that duplicates and dense leaves occur.
fn key_strategy() -> impl Strategy<Value = [u64; 2]> {
    (0u64..64, 0u64..64).prop_map(|(a, b)| [a, b])
}

/// Keys spanning the full u64 domain, hitting boundary arithmetic.
fn wide_key_strategy() -> impl Strategy<Value = [u64; 2]> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| [a, b])
}

/// What `cursor()` yields stepped with `next`, and walked by `for_each`.
fn both_walks<'a>(cursor: impl Fn() -> Iter<'a, 2, 4>) -> (Vec<[u64; 2]>, Vec<[u64; 2]>) {
    let (mut stepped, mut walked) = (Vec::new(), Vec::new());
    for t in cursor() {
        stepped.push(t);
    }
    cursor().for_each(|t| walked.push(t));
    (stepped, walked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_sequence_matches_model(keys in prop::collection::vec(key_strategy(), 0..800)) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            prop_assert_eq!(tree.insert(*k), model.insert(*k));
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.len(), model.len());
        let ours: Vec<_> = tree.iter().collect();
        let theirs: Vec<_> = model.iter().copied().collect();
        prop_assert_eq!(ours, theirs);
    }

    #[test]
    fn hinted_insert_sequence_matches_model(keys in prop::collection::vec(key_strategy(), 0..800)) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut hints = tree.create_hints();
        let mut model = Model::new();
        for k in &keys {
            prop_assert_eq!(tree.insert_hinted(*k, &mut hints), model.insert(*k));
        }
        tree.check_invariants().unwrap();
        let ours: Vec<_> = tree.iter().collect();
        let theirs: Vec<_> = model.iter().copied().collect();
        prop_assert_eq!(ours, theirs);
    }

    #[test]
    fn wide_domain_keys_roundtrip(keys in prop::collection::vec(wide_key_strategy(), 0..300)) {
        let tree: BTreeSet<2, 6> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            prop_assert_eq!(tree.insert(*k), model.insert(*k));
        }
        tree.check_invariants().unwrap();
        for k in &keys {
            prop_assert!(tree.contains(k));
        }
    }

    #[test]
    fn bounds_match_model(
        keys in prop::collection::vec(key_strategy(), 1..400),
        probes in prop::collection::vec(key_strategy(), 1..50),
    ) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            tree.insert(*k);
            model.insert(*k);
        }
        for p in &probes {
            let lb = tree.lower_bound(p).next();
            let expect = model.range(*p..).next().copied();
            prop_assert_eq!(lb, expect, "lower_bound({:?})", p);
            let ub = tree.upper_bound(p).next();
            let expect = model
                .range((std::ops::Bound::Excluded(*p), std::ops::Bound::Unbounded))
                .next()
                .copied();
            prop_assert_eq!(ub, expect, "upper_bound({:?})", p);
        }
    }

    #[test]
    fn range_scans_match_model(
        keys in prop::collection::vec(key_strategy(), 1..400),
        lo in key_strategy(),
        hi in key_strategy(),
    ) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            tree.insert(*k);
            model.insert(*k);
        }
        let ours: Vec<_> = tree.range(&lo, &hi).collect();
        if lo > hi {
            // std's range() panics on inverted bounds; ours yields nothing.
            prop_assert!(ours.is_empty());
        } else {
            let theirs: Vec<_> = model.range(lo..hi).copied().collect();
            prop_assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn prefix_range_matches_filter(
        keys in prop::collection::vec(key_strategy(), 1..400),
        prefix in 0u64..64,
    ) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            tree.insert(*k);
            model.insert(*k);
        }
        let ours: Vec<_> = tree.prefix_range(&[prefix]).collect();
        let theirs: Vec<_> = model.iter().filter(|t| t[0] == prefix).copied().collect();
        prop_assert_eq!(ours, theirs);
    }

    #[test]
    fn partition_is_a_partition(
        keys in prop::collection::vec(key_strategy(), 0..500),
        n in 1usize..12,
    ) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        for k in &keys {
            tree.insert(*k);
        }
        let chunks = tree.partition(n);
        let mut all = Vec::new();
        for c in &chunks {
            all.extend(tree.chunk_range(c));
        }
        let direct: Vec<_> = tree.iter().collect();
        prop_assert_eq!(all, direct);
    }

    #[test]
    fn from_sorted_equals_incremental(keys in prop::collection::vec(key_strategy(), 0..500)) {
        let mut sorted: Vec<_> = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let bulk: BTreeSet<2, 4> = BTreeSet::from_sorted(sorted.iter().copied());
        bulk.check_invariants().unwrap();
        let incremental: BTreeSet<2, 4> = BTreeSet::new();
        for k in &keys {
            incremental.insert(*k);
        }
        prop_assert_eq!(bulk.iter().collect::<Vec<_>>(), incremental.iter().collect::<Vec<_>>());
    }

    #[test]
    fn insert_all_is_set_union(
        a in prop::collection::vec(key_strategy(), 0..300),
        b in prop::collection::vec(key_strategy(), 0..300),
    ) {
        let ta: BTreeSet<2, 4> = BTreeSet::new();
        for k in &a { ta.insert(*k); }
        let tb: BTreeSet<2, 4> = BTreeSet::new();
        for k in &b { tb.insert(*k); }
        ta.insert_all(&tb);
        ta.check_invariants().unwrap();
        let expect: Model<[u64; 2]> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(ta.iter().collect::<Vec<_>>(), expect.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn seq_tree_matches_model(keys in prop::collection::vec(key_strategy(), 0..800)) {
        let mut tree: SeqBTreeSet<2, 4> = SeqBTreeSet::new();
        let mut hints = tree.create_hints();
        let mut model = Model::new();
        for (i, k) in keys.iter().enumerate() {
            // Alternate hinted and unhinted inserts.
            let inserted = if i % 2 == 0 {
                tree.insert(*k)
            } else {
                tree.insert_hinted(*k, &mut hints)
            };
            prop_assert_eq!(inserted, model.insert(*k));
        }
        prop_assert_eq!(tree.len(), model.len());
        let ours: Vec<_> = tree.iter().collect();
        let theirs: Vec<_> = model.iter().copied().collect();
        prop_assert_eq!(ours, theirs);
        for p in &keys {
            prop_assert_eq!(tree.contains(p), model.contains(p));
        }
    }

    /// Ascending runs are Datalog's dominant pattern: hinted appends with
    /// duplicate-heavy rewinds cross every split transition at `C = 4` —
    /// the append that stays below the fence, the one that must not, the
    /// one that splits its leaf full — while the model checks contents and
    /// the checker checks structure, under both latches.
    #[test]
    fn ascending_runs_match_model(keys in ascending_runs()) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut seq: SeqBTreeSet<2, 4> = SeqBTreeSet::new();
        let (mut hints, mut seq_hints) = (tree.create_hints(), seq.create_hints());
        let mut model = Model::new();
        for key in keys {
            let fresh = model.insert(key);
            prop_assert_eq!(tree.insert_hinted(key, &mut hints), fresh);
            prop_assert_eq!(seq.insert_hinted(key, &mut seq_hints), fresh);
        }
        tree.check_invariants().unwrap();
        seq.check_invariants().unwrap();
        prop_assert_eq!(census(tree.stats()), census(seq.stats()));
        prop_assert_eq!(hints.stats, seq_hints.stats);
        prop_assert_eq!(tree.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(seq.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    /// Duplicate-heavy merges drive `merge_leaf_pass`'s forward cursor:
    /// overlapping sources re-encounter existing keys between fresh ones.
    /// Every worker count must produce exactly the model union.
    #[test]
    fn duplicate_heavy_merge_matches_model(
        base in prop::collection::vec(key_strategy(), 0..300),
        delta in prop::collection::vec(key_strategy(), 0..300),
        workers in 1usize..5,
    ) {
        let target: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for k in &base {
            target.insert(*k);
            model.insert(*k);
        }
        let src: BTreeSet<2, 4> = BTreeSet::new();
        let mut expected_added = 0u64;
        for k in &delta {
            src.insert(*k);
            if model.insert(*k) {
                expected_added += 1;
            }
        }
        let added = target.insert_all_parallel(&src, workers);
        prop_assert_eq!(added, expected_added);
        target.check_invariants().unwrap();
        prop_assert_eq!(target.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    /// Iterator paths: `fold` (the per-leaf scan used by `count`/`sum`),
    /// `last`, and bounded range collection must all agree with the model
    /// on mixed ascending/random contents.
    #[test]
    fn iteration_matches_model(
        keys in prop::collection::vec(key_strategy(), 1..500),
        ascending in 0u64..200,
        probes in prop::collection::vec(key_strategy(), 1..20),
    ) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            tree.insert(*k);
            model.insert(*k);
        }
        for i in 0..ascending {
            let key = [7, i];
            tree.insert(key);
            model.insert(key);
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.iter().count(), model.len());
        prop_assert_eq!(tree.iter().last(), model.iter().next_back().copied());
        prop_assert_eq!(
            tree.iter().fold(0u64, |acc, k| acc ^ (k[0] << 8 | k[1])),
            model.iter().fold(0u64, |acc, k| acc ^ (k[0] << 8 | k[1]))
        );
        for p in &probes {
            let ours: Vec<_> = tree.lower_bound(p).take(5).collect();
            let theirs: Vec<_> = model.range(*p..).take(5).copied().collect();
            prop_assert_eq!(ours, theirs, "lower_bound({:?}) scan", p);
        }
    }

    /// Retraction tier: arbitrary interleavings of inserts and removes must
    /// track `std::collections::BTreeSet` exactly — return values, final
    /// contents, bound queries — and the structural invariants (tolerated
    /// underflow, equal leaf depth) must hold after the mixed sequence.
    #[test]
    fn interleaved_insert_remove_matches_model(
        ops in prop::collection::vec((key_strategy(), any::<bool>()), 0..800),
    ) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for (k, is_insert) in &ops {
            if *is_insert {
                prop_assert_eq!(tree.insert(*k), model.insert(*k));
            } else {
                prop_assert_eq!(tree.remove(k), model.remove(k));
            }
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.len(), model.len());
        prop_assert_eq!(tree.is_empty(), model.is_empty());
        let ours: Vec<_> = tree.iter().collect();
        let theirs: Vec<_> = model.iter().copied().collect();
        prop_assert_eq!(ours, theirs);
        for (p, _) in ops.iter().take(30) {
            prop_assert_eq!(tree.contains(p), model.contains(p));
            prop_assert_eq!(tree.lower_bound(p).next(), model.range(*p..).next().copied());
        }
        prop_assert_eq!(tree.iter().last(), model.iter().next_back().copied());
    }

    /// Bounded reads, walked both ways a cursor is walked: step by step
    /// with `next`, and by `for_each`, the leaf-at-a-time walk that compares
    /// with the end only in the leaf the end falls in. A removal per two
    /// inserts leaves drained leaves and unary inner nodes for both to
    /// climb past.
    #[test]
    fn bounded_reads_walk_like_the_model(
        ops in prop::collection::vec((key_strategy(), 0u8..3), 0..800),
        lo in key_strategy(),
        hi in key_strategy(),
        n in 1usize..12,
    ) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for (k, op) in &ops {
            if *op == 0 {
                prop_assert_eq!(tree.remove(k), model.remove(k));
            } else {
                prop_assert_eq!(tree.insert(*k), model.insert(*k));
            }
        }
        tree.check_invariants().unwrap();
        let in_range: Vec<_> = model.iter().filter(|t| lo <= **t && **t < hi).copied().collect();
        prop_assert_eq!(tree.range(&lo, &hi).peek(), in_range.first().copied());
        prop_assert_eq!(both_walks(|| tree.range(&lo, &hi)), (in_range.clone(), in_range));
        for prefix in [&[][..], &lo[..1], &lo[..]] {
            let want: Vec<_> = model.iter().filter(|t| t.starts_with(prefix)).copied().collect();
            let walks = both_walks(|| tree.prefix_range(prefix));
            prop_assert_eq!(walks, (want.clone(), want), "prefix {:?}", prefix);
        }
        let (mut stepped, mut walked) = (Vec::new(), Vec::new());
        for c in &tree.partition(n) {
            let (s, w) = both_walks(|| tree.chunk_range(c));
            stepped.extend(s);
            walked.extend(w);
        }
        let all: Vec<_> = model.iter().copied().collect();
        prop_assert_eq!((stepped, walked), (all.clone(), all));
    }

    /// Remove-heavy sequences drain the tree entirely, crossing both arms
    /// of the inner-key removal — the predecessor swap and the splice that
    /// takes a drained subtree out with its separator — many times; reinsertion into the hollowed shape must still agree with a
    /// fresh model.
    #[test]
    fn drain_and_reinsert_matches_model(keys in prop::collection::vec(key_strategy(), 1..400)) {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            tree.insert(*k);
            model.insert(*k);
        }
        // Remove everything, in a different (sorted) order than insertion.
        for k in model.iter() {
            prop_assert!(tree.remove(k));
        }
        tree.check_invariants().unwrap();
        prop_assert!(tree.is_empty());
        prop_assert_eq!(tree.iter().next(), None);
        // The hollow tree accepts the same keys back.
        for k in &keys {
            tree.insert(*k);
        }
        tree.check_invariants().unwrap();
        prop_assert_eq!(tree.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
    }

    /// The sequential tree's remove must mirror both the model and the
    /// concurrent tree: one implementation under two latches takes the same
    /// single-threaded decisions, so the shapes are equal too.
    #[test]
    fn seq_remove_matches_model_and_concurrent(
        ops in prop::collection::vec((key_strategy(), any::<bool>()), 0..600),
    ) {
        let conc: BTreeSet<2, 6> = BTreeSet::new();
        let mut seq: SeqBTreeSet<2, 6> = SeqBTreeSet::new();
        let mut model = Model::new();
        for (k, is_insert) in &ops {
            if *is_insert {
                let expect = model.insert(*k);
                prop_assert_eq!(conc.insert(*k), expect);
                prop_assert_eq!(seq.insert(*k), expect);
            } else {
                let expect = model.remove(k);
                prop_assert_eq!(conc.remove(k), expect);
                prop_assert_eq!(seq.remove(k), expect);
            }
        }
        conc.check_invariants().unwrap();
        seq.check_invariants().unwrap();
        prop_assert_eq!(census(conc.stats()), census(seq.stats()));
        prop_assert_eq!(seq.len(), model.len());
        prop_assert_eq!(conc.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(seq.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        for (p, _) in ops.iter().take(20) {
            prop_assert_eq!(seq.contains(p), model.contains(p));
        }
    }

    /// `remove_all_parallel` must equal per-tuple sequential removal and the
    /// model set difference at every worker count (1 inline, 2/4/8
    /// threaded), with exact removed-count accounting.
    #[test]
    fn remove_all_parallel_matches_sequential_and_model(
        base in prop::collection::vec(key_strategy(), 0..300),
        delta in prop::collection::vec(key_strategy(), 0..300),
        workers in (0usize..4).prop_map(|i| 1usize << i),
    ) {
        let mut model = Model::new();
        let parallel: BTreeSet<2, 4> = BTreeSet::new();
        let sequential: BTreeSet<2, 4> = BTreeSet::new();
        for k in &base {
            parallel.insert(*k);
            sequential.insert(*k);
            model.insert(*k);
        }
        let src: BTreeSet<2, 4> = BTreeSet::new();
        for k in &delta {
            src.insert(*k);
        }
        let mut expected_removed = 0u64;
        let mut seq_removed = 0u64;
        for k in src.iter() {
            if model.remove(&k) {
                expected_removed += 1;
            }
            if sequential.remove(&k) {
                seq_removed += 1;
            }
        }
        let removed = parallel.remove_all_parallel(&src, workers);
        prop_assert_eq!(removed, expected_removed);
        prop_assert_eq!(seq_removed, expected_removed);
        parallel.check_invariants().unwrap();
        sequential.check_invariants().unwrap();
        let expect: Vec<_> = model.iter().copied().collect();
        prop_assert_eq!(parallel.iter().collect::<Vec<_>>(), expect.clone());
        prop_assert_eq!(sequential.iter().collect::<Vec<_>>(), expect);
    }

    /// One tree under two latches: the same hinted operation sequence gets
    /// the same answers, builds the same shape and hits the same hints.
    #[test]
    fn seq_and_concurrent_trees_agree(
        ops in prop::collection::vec((key_strategy(), 0u8..6), 0..600),
    ) {
        let conc: BTreeSet<2, 6> = BTreeSet::new();
        let mut seq: SeqBTreeSet<2, 6> = SeqBTreeSet::new();
        let (mut ch, mut sh) = (conc.create_hints(), seq.create_hints());
        for (k, op) in &ops {
            match op {
                0 | 1 => prop_assert_eq!(conc.insert_hinted(*k, &mut ch), seq.insert_hinted(*k, &mut sh)),
                2 => prop_assert_eq!(conc.contains_hinted(k, &mut ch), seq.contains_hinted(k, &mut sh)),
                3 => prop_assert_eq!(
                    conc.lower_bound_hinted(k, &mut ch).next(),
                    seq.lower_bound_hinted(k, &mut sh).next()
                ),
                4 => prop_assert_eq!(
                    conc.upper_bound_hinted(k, &mut ch).next(),
                    seq.upper_bound_hinted(k, &mut sh).next()
                ),
                _ => prop_assert_eq!(conc.remove(k), seq.remove(k)),
            }
        }
        prop_assert_eq!(conc.iter().collect::<Vec<_>>(), seq.iter().collect::<Vec<_>>());
        prop_assert_eq!(census(conc.stats()), census(seq.stats()));
        prop_assert_eq!(ch.stats, sh.stats);
        for (p, _) in ops.iter().take(30) {
            prop_assert_eq!(conc.lower_bound(p).next(), seq.lower_bound(p).next());
            prop_assert_eq!(conc.upper_bound(p).next(), seq.upper_bound(p).next());
        }
    }
}
