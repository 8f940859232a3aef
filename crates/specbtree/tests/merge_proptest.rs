//! Property tests for `specbtree::merge`: bulk `insert_all` must behave as
//! set union against a `std::collections::BTreeSet` model on adversarial
//! input shapes — duplicate-heavy, fully overlapping, append-only, and an
//! empty target, which takes the source as runs like any other — with the
//! structural invariants intact afterwards. The run API (`insert_run`, and
//! the keys it reports as added) is held to the same model at every key
//! width and at both node capacities the suites use.

mod common;

use common::ascending_runs;
use proptest::prelude::*;
use specbtree::BTreeSet;
use std::collections::BTreeSet as Model;

/// A deliberately tiny key domain so random vectors are saturated with
/// duplicates and both trees fight over the same handful of leaves.
fn dup_heavy_key() -> impl Strategy<Value = [u64; 2]> {
    (0u64..8, 0u64..8).prop_map(|(a, b)| [a, b])
}

/// A moderate domain for shapes where we want overlap but also fresh keys.
fn key() -> impl Strategy<Value = [u64; 2]> {
    (0u64..64, 0u64..64).prop_map(|(a, b)| [a, b])
}

fn build<const C: usize>(keys: &[[u64; 2]]) -> BTreeSet<2, C> {
    let t = BTreeSet::new();
    for k in keys {
        t.insert(*k);
    }
    t
}

fn model(keys: &[[u64; 2]]) -> Model<[u64; 2]> {
    keys.iter().copied().collect()
}

/// `v` as a `K`-column key, order preserved: the trailing columns count in
/// base 8, so neighbouring keys differ in a late column as often as not.
fn key_of<const K: usize>(v: u64) -> [u64; K] {
    let (mut t, mut v) = ([0u64; K], v);
    for w in t[1..].iter_mut().rev() {
        (*w, v) = (v % 8, v / 8);
    }
    t[0] = v;
    t
}

/// One tree of `base`, one ascending `run`: `insert_run` reports exactly
/// `run \ base`, ascending, counts those and leaves `base ∪ run` in a
/// sound tree, of which the run is then wholly present. Returns the tree's
/// growth in leaves and inner nodes.
fn check_run_at<const K: usize, const C: usize>(base: &Model<u64>, run: &Model<u64>) -> [u64; 2] {
    let what = format!("K={K} C={C} base={base:?} run={run:?}");
    let tree: BTreeSet<K, C> = BTreeSet::new();
    // Point inserts in a scattered order: median splits, separators at
    // every level.
    let mut order: Vec<u64> = base.iter().copied().collect();
    order.sort_unstable_by_key(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    order.iter().for_each(|&v| assert!(tree.insert(key_of(v))));
    let keys = |vs: &mut dyn Iterator<Item = &u64>| vs.map(|&v| key_of::<K>(v)).collect::<Vec<_>>();
    let (all, absent) = (keys(&mut run.iter()), keys(&mut run.difference(base)));

    let before = tree.stats();
    let mut reported = Vec::new();
    assert_eq!(
        tree.insert_run(&all, |t| reported.push(*t)),
        absent.len() as u64,
        "insert_run: {what}"
    );
    assert_eq!(reported, absent, "the keys reported as added: {what}");
    tree.check_invariants()
        .unwrap_or_else(|e| panic!("{e}: {what}"));
    assert_eq!(
        tree.stats().keys as usize,
        base.union(run).count(),
        "{what}"
    );
    assert_eq!(
        tree.iter().collect::<Vec<_>>(),
        keys(&mut base.union(run)),
        "{what}"
    );
    let report = |t: &[u64; K]| panic!("{t:?} reported twice: {what}");
    assert_eq!(
        tree.insert_run(&all, report),
        0,
        "nothing left to add: {what}"
    );
    let after = tree.stats();
    [
        after.leaf_nodes - before.leaf_nodes,
        after.inner_nodes - before.inner_nodes,
    ]
}

/// [`check_run_at`] at widths 1–3 and capacities 4 and the default; the
/// growth at width 2 for each capacity.
fn check_run(base: &Model<u64>, run: &Model<u64>) -> [[u64; 2]; 2] {
    check_run_at::<1, 4>(base, run);
    let small = check_run_at::<2, 4>(base, run);
    check_run_at::<3, 4>(base, run);
    check_run_at::<1, { specbtree::DEFAULT_NODE_CAPACITY }>(base, run);
    let default = check_run_at::<2, { specbtree::DEFAULT_NODE_CAPACITY }>(base, run);
    check_run_at::<3, { specbtree::DEFAULT_NODE_CAPACITY }>(base, run);
    [small, default]
}

/// The shapes a random draw is unlikely to produce: the empty tree, a tree
/// that is one leaf, runs wholly below the minimum and wholly above the
/// maximum, the tree's own keys as the run — every separator at every
/// level is a run key — and a run denser than any leaf. The dense runs into
/// the largest tree split leaves and parents at both capacities, so the
/// keys a run reports are held to the model across both kinds of split.
#[test]
fn run_api_handles_the_edge_shapes() {
    for n in [0u64, 1, 3, 4, 5, 24, 25, 120, 700] {
        let base: Model<u64> = (0..n).map(|i| 1_000 + 3 * i).collect();
        let runs: [Model<u64>; 7] = [
            Model::new(),
            (0..90).collect(),
            (5_000..5_090).collect(),
            base.clone(),
            base.iter().map(|v| v + 1).collect(),
            (990..1_000 + 3 * n + 10).collect(),
            (0..6_000).step_by(7).collect(),
        ];
        let grown: Vec<[[u64; 2]; 2]> = runs.iter().map(|run| check_run(&base, run)).collect();
        if n == 700 {
            for c in 0..2 {
                let split = |g: &[[u64; 2]; 2]| g[c][0] > 0 && g[c][1] > 0;
                assert!(grown.iter().any(split), "no run split a parent: {grown:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random base sets and random ascending runs over a domain a little
    /// wider than the base's, so runs start below it, end above it, share
    /// keys with it — leaf keys and separators alike — and fall between.
    #[test]
    fn run_api_matches_the_model(
        base in prop::collection::vec(100u64..700, 0..400),
        run in prop::collection::vec(0u64..800, 0..500),
    ) {
        check_run(&base.into_iter().collect(), &run.into_iter().collect());
    }

    /// Fully-overlapping inputs: target and source hold exactly the same
    /// key set, so every single insert during the merge is a duplicate hit.
    /// The target must come out unchanged.
    #[test]
    fn fully_overlapping_merge_is_identity(keys in prop::collection::vec(key(), 0..300)) {
        let ta: BTreeSet<2, 4> = build(&keys);
        let tb: BTreeSet<2, 4> = build(&keys);
        let before: Vec<_> = ta.iter().collect();
        ta.insert_all(&tb);
        ta.check_invariants().unwrap();
        prop_assert_eq!(ta.iter().collect::<Vec<_>>(), before);
        prop_assert_eq!(ta.len(), model(&keys).len());
    }

    /// Merging into an empty target takes the source as runs, the first
    /// of which fills and splits the root leaf; the result must be
    /// indistinguishable from element-wise insertion.
    #[test]
    fn empty_target_merge_matches_model(keys in prop::collection::vec(key(), 0..400)) {
        let dst: BTreeSet<2, 4> = BTreeSet::new();
        let src: BTreeSet<2, 4> = build(&keys);
        dst.insert_all(&src);
        dst.check_invariants().unwrap();
        let stats = dst.stats();
        let expect = model(&keys);
        prop_assert_eq!(stats.keys as usize, expect.len());
        prop_assert_eq!(
            dst.iter().collect::<Vec<_>>(),
            expect.into_iter().collect::<Vec<_>>()
        );
        // A tree grown by runs must answer point queries like one grown by
        // point inserts.
        for k in keys.iter().take(30) {
            prop_assert!(dst.contains(k));
        }
    }

    /// insert_all is idempotent and commutative up to set semantics:
    /// (a ∪ b) ∪ b == a ∪ b, and merging in either order yields the same set.
    #[test]
    fn merge_is_idempotent_and_order_insensitive(
        a in prop::collection::vec(dup_heavy_key(), 0..150),
        b in prop::collection::vec(key(), 0..150),
    ) {
        let left: BTreeSet<2, 4> = build(&a);
        let tb: BTreeSet<2, 4> = build(&b);
        left.insert_all(&tb);
        left.insert_all(&tb); // second merge must be a no-op
        left.check_invariants().unwrap();

        let right: BTreeSet<2, 4> = build(&b);
        let ta: BTreeSet<2, 4> = build(&a);
        right.insert_all(&ta);
        right.check_invariants().unwrap();

        prop_assert_eq!(
            left.iter().collect::<Vec<_>>(),
            right.iter().collect::<Vec<_>>()
        );
    }

    /// Duplicate-heavy inputs — most keys collide, within each source and
    /// across the two trees: `insert_all`, which is the merge at one worker
    /// with the count dropped, and `insert_all_parallel` at 1/2/4/8 workers
    /// all leave the `std` model's union, exact and deduped, the fused
    /// `added` count is the true growth, and the source is untouched.
    #[test]
    fn every_merge_matches_the_model(
        a in prop::collection::vec(dup_heavy_key(), 0..200),
        b in prop::collection::vec(dup_heavy_key(), 0..200),
    ) {
        let expect: Model<[u64; 2]> = a.iter().chain(b.iter()).copied().collect();
        let pre = model(&a);
        for workers in [None, Some(1usize), Some(2), Some(4), Some(8)] {
            let dst: BTreeSet<2, 4> = build(&a);
            let src: BTreeSet<2, 4> = build(&b);
            match workers {
                None => dst.insert_all(&src),
                Some(w) => prop_assert_eq!(
                    dst.insert_all_parallel(&src, w) as usize,
                    expect.len() - pre.len()
                ),
            }
            dst.check_invariants().unwrap();
            let stats = dst.stats();
            prop_assert_eq!(stats.keys as usize, expect.len());
            prop_assert_eq!(
                dst.iter().collect::<Vec<_>>(),
                expect.iter().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(
                src.iter().collect::<Vec<_>>(),
                model(&b).into_iter().collect::<Vec<_>>()
            );
        }
    }

    /// Fully-disjoint interleaved ranges (target even keys, source odd):
    /// every source tuple is new, so the fused count must equal the source
    /// cardinality exactly, at every worker count.
    #[test]
    fn parallel_merge_fully_disjoint_counts_everything(
        n in 0usize..300,
        m in 0usize..300,
        workers in 1usize..9,
    ) {
        let a: Vec<[u64; 2]> = (0..n as u64).map(|i| [2 * i, i]).collect();
        let b: Vec<[u64; 2]> = (0..m as u64).map(|i| [2 * i + 1, i]).collect();
        let dst: BTreeSet<2, 4> = build(&a);
        let src: BTreeSet<2, 4> = build(&b);
        let added = dst.insert_all_parallel(&src, workers);
        dst.check_invariants().unwrap();
        prop_assert_eq!(added, m as u64);
        let expect: Model<[u64; 2]> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(
            dst.iter().collect::<Vec<_>>(),
            expect.into_iter().collect::<Vec<_>>()
        );
    }

    /// Append-only deltas (everything sorts after the target's maximum):
    /// every run lands on the rightmost leaf group and fills it, split by
    /// split; the result must be exact at every worker count.
    #[test]
    fn parallel_merge_append_only_is_exact(
        n in 1u64..300,
        m in 0u64..300,
        workers in 1usize..9,
    ) {
        let a: Vec<[u64; 2]> = (0..n).map(|i| [i, 7]).collect();
        let b: Vec<[u64; 2]> = (n..n + m).map(|i| [i, 7]).collect();
        let dst: BTreeSet<2, 4> = build(&a);
        let src: BTreeSet<2, 4> = build(&b);
        let added = dst.insert_all_parallel(&src, workers);
        dst.check_invariants().unwrap();
        prop_assert_eq!(added, m);
        prop_assert_eq!(dst.len(), (n + m) as usize);
        prop_assert_eq!(
            dst.iter().collect::<Vec<_>>(),
            (0..n + m).map(|i| [i, 7]).collect::<Vec<_>>()
        );
    }

    /// Trees grown by hinted appends are not the shape median splits give:
    /// their leaves are full, each followed by a sibling the run had just
    /// begun. Both merges must take such a target and such a source.
    #[test]
    fn merge_of_append_grown_trees_is_set_union(
        a in ascending_runs(),
        b in ascending_runs(),
        workers in 1usize..5,
    ) {
        let grow = |keys: &[[u64; 2]]| {
            let t: BTreeSet<2, 4> = BTreeSet::new();
            let mut hints = t.create_hints();
            for k in keys {
                t.insert_hinted(*k, &mut hints);
            }
            t
        };
        let expect: Model<[u64; 2]> = a.iter().chain(b.iter()).copied().collect();
        let (dst, src) = (grow(&a), grow(&b));
        let added = dst.insert_all_parallel(&src, workers);
        prop_assert_eq!(added as usize, expect.len() - model(&a).len());
        dst.check_invariants().unwrap();
        prop_assert_eq!(dst.iter().collect::<Vec<_>>(), expect.iter().copied().collect::<Vec<_>>());
        let dst = grow(&a);
        dst.insert_all(&src);
        dst.check_invariants().unwrap();
        prop_assert_eq!(dst.iter().collect::<Vec<_>>(), expect.into_iter().collect::<Vec<_>>());
    }

    /// A chain of merges from many small deltas — the semi-naive evaluation
    /// pattern — must equal one big union, at a capacity that forces deep
    /// trees so splits happen mid-merge.
    #[test]
    fn chained_delta_merges_match_one_union(
        deltas in prop::collection::vec(prop::collection::vec(key(), 0..60), 0..6),
    ) {
        let acc: BTreeSet<2, 4> = BTreeSet::new();
        let mut expect = Model::new();
        for delta in &deltas {
            let d: BTreeSet<2, 4> = build(delta);
            acc.insert_all(&d);
            expect.extend(delta.iter().copied());
            acc.check_invariants().unwrap();
            prop_assert_eq!(acc.len(), expect.len());
        }
        prop_assert_eq!(
            acc.iter().collect::<Vec<_>>(),
            expect.into_iter().collect::<Vec<_>>()
        );
    }
}
