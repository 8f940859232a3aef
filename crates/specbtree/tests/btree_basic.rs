//! Functional tests of the concurrent B-tree against `std::collections::BTreeSet`
//! as a reference model, across several node geometries.

use specbtree::seq::SeqBTreeSet;
use specbtree::BTreeSet;
use std::collections::BTreeSet as Model;

use workloads::points::points_2d;
use workloads::rng::splitmix;

#[test]
fn empty_tree_behaves() {
    let t: BTreeSet<2> = BTreeSet::new();
    assert!(t.is_empty());
    assert_eq!(t.len(), 0);
    assert!(!t.contains(&[0, 0]));
    assert_eq!(t.iter().count(), 0);
    assert_eq!(t.lower_bound(&[0, 0]).next(), None);
    assert_eq!(t.upper_bound(&[0, 0]).next(), None);
    t.check_invariants().unwrap();
}

#[test]
fn single_element() {
    let t: BTreeSet<2> = BTreeSet::new();
    assert!(t.insert([42, 7]));
    assert!(!t.insert([42, 7]));
    assert!(!t.is_empty());
    assert_eq!(t.len(), 1);
    assert!(t.contains(&[42, 7]));
    assert!(!t.contains(&[42, 8]));
    assert_eq!(t.iter().collect::<Vec<_>>(), vec![[42, 7]]);
    t.check_invariants().unwrap();
}

fn ordered_roundtrip<const C: usize>(n: u64) {
    let t: BTreeSet<2, C> = BTreeSet::new();
    for i in 0..n {
        assert!(t.insert([i / 100, i % 100]), "i={i}");
    }
    t.check_invariants().unwrap();
    assert_eq!(t.len(), n as usize);
    let v: Vec<_> = t.iter().collect();
    assert!(v.windows(2).all(|w| w[0] < w[1]), "iteration not sorted");
    assert_eq!(v.len(), n as usize);
    for i in 0..n {
        assert!(t.contains(&[i / 100, i % 100]));
    }
}

#[test]
fn ordered_inserts_tiny_nodes() {
    ordered_roundtrip::<4>(5_000);
}

#[test]
fn ordered_inserts_small_nodes() {
    ordered_roundtrip::<8>(5_000);
}

#[test]
fn ordered_inserts_default_nodes() {
    ordered_roundtrip::<24>(20_000);
}

#[test]
fn ordered_inserts_large_nodes() {
    ordered_roundtrip::<64>(20_000);
}

#[test]
fn reverse_ordered_inserts() {
    let t: BTreeSet<1, 8> = BTreeSet::new();
    for i in (0..5_000u64).rev() {
        assert!(t.insert([i]));
    }
    t.check_invariants().unwrap();
    let v: Vec<_> = t.iter().collect();
    assert_eq!(v.len(), 5_000);
    assert!(v.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn random_inserts_match_model() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    let mut model = Model::new();
    let mut rng = 12345u64;
    for _ in 0..30_000 {
        let a = splitmix(&mut rng) % 500;
        let b = splitmix(&mut rng) % 500;
        assert_eq!(t.insert([a, b]), model.insert([a, b]), "insert [{a},{b}]");
    }
    t.check_invariants().unwrap();
    assert_eq!(t.len(), model.len());
    let ours: Vec<_> = t.iter().collect();
    let theirs: Vec<_> = model.iter().copied().collect();
    assert_eq!(ours, theirs);
}

#[test]
fn contains_misses_between_and_outside() {
    let t: BTreeSet<1, 6> = BTreeSet::new();
    for i in (0..1000u64).map(|i| i * 2) {
        t.insert([i]);
    }
    for i in 0..1000u64 {
        assert!(t.contains(&[i * 2]));
        assert!(!t.contains(&[i * 2 + 1]));
    }
    assert!(!t.contains(&[u64::MAX]));
}

#[test]
fn extreme_key_values() {
    let t: BTreeSet<2, 4> = BTreeSet::new();
    let keys = [
        [0, 0],
        [0, u64::MAX],
        [u64::MAX, 0],
        [u64::MAX, u64::MAX],
        [1, u64::MAX - 1],
    ];
    for k in keys {
        assert!(t.insert(k));
    }
    for k in keys {
        assert!(t.contains(&k));
    }
    t.check_invariants().unwrap();
    let v: Vec<_> = t.iter().collect();
    assert!(v.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn lower_and_upper_bound_match_model() {
    let t: BTreeSet<2, 6> = BTreeSet::new();
    let mut model = Model::new();
    let mut rng = 777u64;
    for _ in 0..5_000 {
        let k = [splitmix(&mut rng) % 100, splitmix(&mut rng) % 100];
        t.insert(k);
        model.insert(k);
    }
    for a in 0..100u64 {
        for b in [0u64, 13, 50, 99] {
            let probe = [a, b];
            assert_eq!(
                t.lower_bound(&probe).next(),
                model.range(probe..).next().copied(),
                "lower_bound({probe:?})"
            );
            assert_eq!(
                t.upper_bound(&probe).next(),
                model
                    .range((std::ops::Bound::Excluded(probe), std::ops::Bound::Unbounded))
                    .next()
                    .copied(),
                "upper_bound({probe:?})"
            );
        }
    }
}

#[test]
fn lower_bound_iterates_to_end() {
    let t: BTreeSet<1, 4> = BTreeSet::new();
    for i in 0..100u64 {
        t.insert([i * 3]);
    }
    let from50: Vec<_> = t.lower_bound(&[50]).collect();
    assert_eq!(from50[0], [51]);
    assert_eq!(from50.len(), 83); // elements 51, 54, ..., 297
    assert_eq!(*from50.last().unwrap(), [297]);
}

#[test]
fn range_is_half_open() {
    let t: BTreeSet<1, 4> = BTreeSet::new();
    for i in 0..50u64 {
        t.insert([i]);
    }
    let r: Vec<_> = t.range(&[10], &[15]).collect();
    assert_eq!(r, vec![[10], [11], [12], [13], [14]]);
    assert_eq!(t.range(&[60], &[70]).count(), 0);
    assert_eq!(t.range(&[15], &[10]).count(), 0);
}

#[test]
fn prefix_range_binds_leading_column() {
    let t: BTreeSet<2, 6> = BTreeSet::new();
    for a in 0..20u64 {
        for b in 0..7u64 {
            t.insert([a, b]);
        }
    }
    for a in 0..20u64 {
        let r: Vec<_> = t.prefix_range(&[a]).collect();
        assert_eq!(r.len(), 7, "prefix {a}");
        assert!(r.iter().all(|x| x[0] == a));
        assert!(r.windows(2).all(|w| w[0] < w[1]));
    }
    assert_eq!(t.prefix_range(&[99]).count(), 0);
}

#[test]
fn prefix_range_at_domain_maximum() {
    let t: BTreeSet<2, 4> = BTreeSet::new();
    t.insert([u64::MAX, 1]);
    t.insert([u64::MAX, 2]);
    t.insert([5, 5]);
    let r: Vec<_> = t.prefix_range(&[u64::MAX]).collect();
    assert_eq!(r, vec![[u64::MAX, 1], [u64::MAX, 2]]);
}

#[test]
fn empty_prefix_scans_everything() {
    let t: BTreeSet<2, 4> = BTreeSet::new();
    for i in 0..25u64 {
        t.insert([i, i]);
    }
    assert_eq!(t.prefix_range(&[]).count(), 25);
}

#[test]
fn arity_one_and_three() {
    let t1: BTreeSet<1, 8> = BTreeSet::new();
    for i in 0..1000u64 {
        t1.insert([i.wrapping_mul(2654435761) % 997]);
    }
    t1.check_invariants().unwrap();

    let t3: BTreeSet<3, 8> = BTreeSet::new();
    let mut rng = 5u64;
    for _ in 0..5000 {
        t3.insert([
            splitmix(&mut rng) % 10,
            splitmix(&mut rng) % 10,
            splitmix(&mut rng) % 10,
        ]);
    }
    t3.check_invariants().unwrap();
    let v: Vec<_> = t3.iter().collect();
    assert!(v.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn partition_covers_all_elements_exactly_once() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    for i in 0..10_000u64 {
        t.insert([i % 321, i / 321]);
    }
    for n in [1, 2, 3, 7, 16, 100] {
        let chunks = t.partition(n);
        assert!(!chunks.is_empty());
        let mut all = Vec::new();
        for c in &chunks {
            all.extend(t.chunk_range(c));
        }
        assert_eq!(all.len(), t.len(), "n={n}");
        assert!(all.windows(2).all(|w| w[0] < w[1]), "n={n}: overlap/gap");
    }
}

#[test]
fn partition_of_empty_and_tiny_trees() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    assert_eq!(t.partition(8).len(), 1);
    t.insert([1, 1]);
    let chunks = t.partition(8);
    let total: usize = chunks.iter().map(|c| t.chunk_range(c).count()).sum();
    assert_eq!(total, 1);
}

#[test]
fn hinted_insert_equivalent_on_ordered_stream() {
    // A strictly ascending insert lands one past the cached leaf's last key
    // and below its upper fence: an append, which the hint covers. The
    // paper's hints miss here (Fig. 3a: insertion hints don't amortize on
    // ordered loads). The one miss left per leaf is the append that finds it
    // full, splits it and lands in the fresh sibling.
    let t: BTreeSet<2, 16> = BTreeSet::new();
    let mut h = t.create_hints();
    let mut model = Model::new();
    for i in 0..10_000u64 {
        let k = [i / 64, i % 64];
        assert_eq!(t.insert_hinted(k, &mut h), model.insert(k));
    }
    t.check_invariants().unwrap();
    assert!(t.iter().eq(model.iter().copied()));
    assert!(
        h.stats.insert_hits >= 9_000,
        "{} hits, {} misses",
        h.stats.insert_hits,
        h.stats.insert_misses
    );
}

/// The upper fence of a leaf is the separator that follows it in an
/// ancestor: an append hint must stop there, whether the keys between the
/// leaf and the tuple sit in the parent or in the next leaf.
#[test]
fn append_hint_stops_at_the_fence() {
    // Ascending inserts at `C = 4` leave two keys per leaf and one between:
    // [0 10] 20 [30 40] 50 [60 70] 80 [90 100] under the root [20 50 80].
    let t: BTreeSet<2, 4> = BTreeSet::new();
    for x in 0..=10u64 {
        t.insert([7, 10 * x]);
    }
    let mut h = t.create_hints();
    // Points the insert hint at the leaf holding `x` (a duplicate insert
    // caches the leaf it was found in) and reports what the next hinted
    // insert of `y` did: (newly inserted, hit).
    let mut after = |x: u64, y: u64| {
        assert!(!t.insert_hinted([7, x], &mut h));
        let hits = h.stats.insert_hits;
        let inserted = t.insert_hinted([7, y], &mut h);
        (inserted, h.stats.insert_hits > hits)
    };
    // 50 lives in the parent, between the hinted leaf and 55.
    assert_eq!(after(40, 55), (true, false));
    // Below the fence: appended to [30 40] in place.
    assert_eq!(after(40, 45), (true, true));
    // 20 in the parent and 30 in the next leaf lie before 35.
    assert_eq!(after(10, 35), (true, false));
    // The fence itself is a duplicate the hinted leaf cannot see.
    assert_eq!(after(10, 20), (false, false));
    // The rightmost leaf has no fence.
    assert_eq!(after(100, 500), (true, true));
    t.check_invariants().unwrap();
    let got: Vec<u64> = t.iter().map(|k| k[1]).collect();
    let mut expect: Vec<u64> = (0..=10).map(|x| 10 * x).chain([35, 45, 55, 500]).collect();
    expect.sort_unstable();
    assert_eq!(got, expect);
}

/// Ascending within clusters that are themselves interleaved: every insert
/// follows one of the cluster before it, so the hinted leaf ends below the
/// tuple with the rest of the tuple's own cluster in between — in the
/// parent, in the next leaf, or many leaves on. Through three levels of
/// `C = 4` nodes.
#[test]
fn interleaved_clusters_never_append_past_a_fence() {
    let t: BTreeSet<2, 4> = BTreeSet::new();
    let mut h = t.create_hints();
    let mut model = Model::new();
    for j in 0..24u64 {
        for k in 0..40u64 {
            let key = [k, j];
            assert_eq!(t.insert_hinted(key, &mut h), model.insert(key), "{key:?}");
        }
        t.check_invariants().unwrap();
    }
    assert!(t.iter().eq(model.iter().copied()));
    assert!(t.shape().depth >= 3);
}

/// Sorted streams leave full leaves behind them, and the split that does it
/// is not the one shuffled streams take: their trees keep the fill the
/// median split gives. The sequential tree is the same code.
#[test]
fn appended_to_leaves_split_full() {
    let side = 316; // 99 856 points
    let sorted: BTreeSet<2> = BTreeSet::new();
    let mut seq: SeqBTreeSet<2> = SeqBTreeSet::new();
    let (mut h, mut sh) = (sorted.create_hints(), seq.create_hints());
    for p in points_2d(side, true, 0) {
        sorted.insert_hinted(p, &mut h);
        seq.insert_hinted(p, &mut sh);
    }
    let fill = sorted.stats().leaf_fill();
    assert!(fill >= 0.9, "leaf fill {fill:.3} after ascending inserts");
    assert_eq!(sorted.check_invariants().unwrap(), seq.shape());

    let shuffled: BTreeSet<2> = BTreeSet::new();
    let mut h = shuffled.create_hints();
    for p in points_2d(side, false, 2019) {
        shuffled.insert_hinted(p, &mut h);
    }
    let fill = shuffled.stats().leaf_fill();
    assert!(
        (fill - 0.69).abs() <= 0.02,
        "leaf fill {fill:.3} after shuffled inserts"
    );
}

#[test]
fn hinted_insert_hits_on_clustered_stream() {
    // The paper's §3.2 pattern: after (7, 10), inserting (7, 4) lands in
    // the same leaf and skips the traversal.
    let t: BTreeSet<2, 16> = BTreeSet::new();
    let mut h = t.create_hints();
    for i in 0..5_000u64 {
        t.insert_hinted([i / 32, (i % 32) * 2], &mut h); // evens
    }
    let misses_before = h.stats.insert_misses;
    for i in 0..5_000u64 {
        t.insert_hinted([i / 32, (i % 32) * 2 + 1], &mut h); // odds, covered
    }
    t.check_invariants().unwrap();
    let hits = h.stats.insert_hits;
    let misses = h.stats.insert_misses - misses_before;
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(rate > 0.5, "clustered insert hint rate too low: {rate}");
}

#[test]
fn hinted_insert_equivalent_on_random() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    let mut h = t.create_hints();
    let mut model = Model::new();
    let mut rng = 31337u64;
    for _ in 0..20_000 {
        let k = [splitmix(&mut rng) % 400, splitmix(&mut rng) % 400];
        assert_eq!(t.insert_hinted(k, &mut h), model.insert(k), "{k:?}");
    }
    t.check_invariants().unwrap();
    let ours: Vec<_> = t.iter().collect();
    let theirs: Vec<_> = model.iter().copied().collect();
    assert_eq!(ours, theirs);
}

#[test]
fn hinted_contains_equivalent() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    let mut rng = 99u64;
    let mut keys = Vec::new();
    for _ in 0..5_000 {
        let k = [splitmix(&mut rng) % 300, splitmix(&mut rng) % 300];
        t.insert(k);
        keys.push(k);
    }
    let mut h = t.create_hints();
    keys.sort_unstable();
    for k in &keys {
        assert!(t.contains_hinted(k, &mut h));
        let miss = [k[0], k[1].wrapping_add(100_000)];
        assert_eq!(t.contains_hinted(&miss, &mut h), t.contains(&miss));
    }
    assert!(h.stats.contains_hits > 0);
}

#[test]
fn hints_survive_being_used_on_another_tree() {
    let a: BTreeSet<2, 8> = BTreeSet::new();
    let b: BTreeSet<2, 8> = BTreeSet::new();
    let mut h = a.create_hints();
    for i in 0..500u64 {
        a.insert_hinted([i, 0], &mut h);
    }
    // Using `a`'s hints on `b` must be safe and correct (treated as misses,
    // hints rebind to `b`).
    for i in 0..500u64 {
        assert!(b.insert_hinted([i, 1], &mut h));
        assert!(b.contains_hinted(&[i, 1], &mut h));
        assert!(!b.contains_hinted(&[i, 0], &mut h));
    }
    a.check_invariants().unwrap();
    b.check_invariants().unwrap();
    assert_eq!(a.len(), 500);
    assert_eq!(b.len(), 500);
}

#[test]
fn hinted_bounds_equivalent() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    for i in 0..2_000u64 {
        t.insert([i / 40, (i % 40) * 2]);
    }
    let mut h = t.create_hints();
    for i in 0..2_000u64 {
        let probe = [i / 40, (i % 40) * 2 + 1];
        let a: Vec<_> = t.lower_bound(&probe).take(2).collect();
        let b: Vec<_> = t.lower_bound_hinted(&probe, &mut h).take(2).collect();
        assert_eq!(a, b, "lower {probe:?}");
        let a: Vec<_> = t.upper_bound(&probe).take(2).collect();
        let b: Vec<_> = t.upper_bound_hinted(&probe, &mut h).take(2).collect();
        assert_eq!(a, b, "upper {probe:?}");
    }
    assert!(h.stats.lower_hits > 0);
    assert!(h.stats.upper_hits > 0);
}

#[test]
fn shape_reports_plausible_statistics() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    for i in 0..10_000u64 {
        t.insert([i, 0]);
    }
    let shape = t.check_invariants().unwrap();
    assert_eq!(shape.keys, 10_000);
    assert!(shape.depth >= 3, "10k keys in 8-wide nodes is deep");
    assert!(shape.leaves > 100);
    let fill = shape.fill_grade(8);
    assert!(fill > 0.3 && fill <= 1.0, "fill {fill}");
}

#[test]
fn debug_format_lists_elements() {
    let t: BTreeSet<1, 4> = BTreeSet::new();
    t.insert([2]);
    t.insert([1]);
    assert_eq!(format!("{t:?}"), "{[1], [2]}");
}

#[test]
fn extend_and_from_iterator() {
    let mut t: BTreeSet<2, 8> = (0..100u64).map(|i| [i, i]).collect();
    t.extend((100..200u64).map(|i| [i, i]));
    assert_eq!(t.len(), 200);
    t.check_invariants().unwrap();
}

#[test]
fn split_cascade_through_every_level() {
    // Adversarial Algorithm-2 exercise: with C=4 nodes, drive insertions
    // that keep landing in the rightmost leaf so every split walks the
    // full bottom-up lock path, repeatedly cascading to a root split.
    let t: BTreeSet<1, 4> = BTreeSet::new();
    for i in 0..10_000u64 {
        assert!(t.insert([i]));
        // Check invariants at every power of two (cheap enough at C=4).
        if i.is_power_of_two() {
            t.check_invariants()
                .unwrap_or_else(|e| panic!("i={i}: {e}"));
        }
    }
    let shape = t.check_invariants().unwrap();
    assert!(
        shape.depth >= 6,
        "cascades must have grown the tree: {shape:?}"
    );
    assert_eq!(shape.keys, 10_000);
}

#[test]
fn hinted_insert_splits_full_hinted_leaf_bottom_up() {
    // §3.2: a hint that lands on a full leaf must split bottom-up from the
    // leaf without a root descent, then succeed.
    let t: BTreeSet<2, 4> = BTreeSet::new();
    let mut h = t.create_hints();
    // Seed with evens, then insert odds: every odd lands inside a covered
    // leaf, and with C=4 those leaves are frequently full — so the hinted
    // path must split bottom-up from the leaf, repeatedly.
    for i in 0..2_000u64 {
        t.insert_hinted([5, i * 2], &mut h);
    }
    let misses_before = h.stats.insert_misses;
    for i in 0..2_000u64 {
        t.insert_hinted([5, i * 2 + 1], &mut h);
    }
    t.check_invariants().unwrap();
    assert_eq!(t.len(), 4_000);
    // With C=4 the covered leaf splits every couple of inserts, so the
    // hint re-misses right after each split; about a third of the odd
    // pass still short-circuits — each such hit having exercised the
    // hinted full-leaf split path.
    let odd_misses = h.stats.insert_misses - misses_before;
    assert!(
        h.stats.insert_hits > 400,
        "hits {} misses {odd_misses}",
        h.stats.insert_hits
    );
}
