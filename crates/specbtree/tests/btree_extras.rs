//! Tests of the auxiliary API surface: first/last, shape/memory reporting,
//! odd node capacities, high arities, and drop behaviour at scale.

use specbtree::{BTreeSet, DEFAULT_NODE_CAPACITY};

#[test]
fn first_and_last() {
    let t: BTreeSet<2, 5> = BTreeSet::new();
    assert_eq!(t.first(), None);
    assert_eq!(t.last(), None);
    t.insert([5, 5]);
    assert_eq!(t.first(), Some([5, 5]));
    assert_eq!(t.last(), Some([5, 5]));
    for i in 0..2_000u64 {
        t.insert([i % 97, i / 97]);
    }
    assert_eq!(t.first(), Some([0, 0]));
    assert_eq!(t.last(), t.iter().last());
}

#[test]
fn odd_node_capacities_work() {
    // C = 5: median index 2, sibling gets 2 keys; C = 7: median 3 / 3.
    fn run<const C: usize>() {
        let t: BTreeSet<1, C> = BTreeSet::new();
        // 7 is coprime with 2999, so i*7 mod 2999 enumerates 0..2999 once.
        for i in 0..2_999u64 {
            assert!(t.insert([i * 7 % 2_999]), "C={C}, i={i}");
        }
        t.insert([20993]);
        t.check_invariants()
            .unwrap_or_else(|e| panic!("C={C}: {e}"));
        assert_eq!(t.len(), 3_000);
    }
    run::<5>();
    run::<7>();
    run::<9>();
}

#[test]
fn arity_four_and_five() {
    let t4: BTreeSet<4, 8> = BTreeSet::new();
    let t5: BTreeSet<5, 8> = BTreeSet::new();
    let mut x = 3u64;
    for _ in 0..4_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (x >> 48) % 8;
        let b = (x >> 32) % 8;
        let c = (x >> 16) % 8;
        let d = x % 8;
        t4.insert([a, b, c, d]);
        t5.insert([a, b, c, d, (a + b) % 8]);
    }
    t4.check_invariants().unwrap();
    t5.check_invariants().unwrap();
    let v4: Vec<_> = t4.iter().collect();
    assert!(v4.windows(2).all(|w| w[0] < w[1]));
    // Prefix range on a 3-column binding.
    let r: Vec<_> = t4.prefix_range(&[1, 2, 3]).collect();
    assert!(r.iter().all(|t| t[0] == 1 && t[1] == 2 && t[2] == 3));
}

#[test]
fn live_bytes_grow_with_content() {
    let t: BTreeSet<2> = BTreeSet::new();
    assert_eq!(t.stats().live_bytes, 0);
    t.insert([1, 1]);
    let one = t.stats().live_bytes;
    assert!(one > 0);
    for i in 0..50_000u64 {
        t.insert([i, i]);
    }
    let many = t.stats().live_bytes;
    assert!(many > one * 100, "one={one}, many={many}");
    // Sanity: bytes per element bounded by a small constant factor of the
    // key size (16 bytes/tuple at arity 2).
    let per_elem = many as f64 / 50_001.0;
    assert!(per_elem < 200.0, "per-element bytes {per_elem}");
}

#[test]
fn shape_depth_grows_logarithmically() {
    let t: BTreeSet<1, 4> = BTreeSet::new();
    let mut last_depth = 0;
    for i in 0..10_000u64 {
        t.insert([i]);
        if i.is_power_of_two() {
            let d = t.stats().depth;
            assert!(d >= last_depth);
            last_depth = d;
        }
    }
    let d = t.stats().depth;
    // 10k keys, min fanout 2 for C=4 → depth well under 14 and over 4.
    assert!((4..=14).contains(&d), "depth {d}");
}

#[test]
fn many_trees_dropped_under_memory_pressure() {
    // Builds and drops 200 trees of 5k elements each; under a leak this
    // would accumulate ~1.6 GB and get the test killed.
    for round in 0..200u64 {
        let t: BTreeSet<2, 8> = BTreeSet::new();
        for i in 0..5_000u64 {
            t.insert([i % 71, i + round]);
        }
        assert!(t.len() <= 5_000);
    }
}

#[test]
fn default_capacity_reexported() {
    let t: BTreeSet<2> = BTreeSet::new();
    for i in 0..(DEFAULT_NODE_CAPACITY as u64 * 3) {
        t.insert([0, i]);
    }
    let stats = t.stats();
    assert!(
        stats.inner_nodes + stats.leaf_nodes >= 3,
        "three nodes after tripling capacity"
    );
}

#[test]
fn interleaved_hinted_and_unhinted_operations() {
    let t: BTreeSet<2, 6> = BTreeSet::new();
    let mut h = t.create_hints();
    for i in 0..5_000u64 {
        if i % 3 == 0 {
            t.insert([i % 100, i / 100]);
        } else {
            t.insert_hinted([i % 100, i / 100], &mut h);
        }
        if i % 5 == 0 {
            assert!(t.contains_hinted(&[i % 100, i / 100], &mut h));
        }
    }
    t.check_invariants().unwrap();
    assert_eq!(t.len(), 5_000);
}

/// Drives the hinted operations through alternating workload phases
/// (append runs, uniform-random bursts, back to appends): the tree must
/// stay correct and keep recovering hint hits in the leaf-local phases.
#[test]
fn hinted_operations_survive_workload_phase_changes() {
    let t: BTreeSet<2, 8> = BTreeSet::new();
    let mut h = t.create_hints();
    let mut expected = std::collections::BTreeSet::new();

    // Phase 1: pure append — hint misses every insert (forward misses).
    for i in 0..2_000u64 {
        assert!(t.insert_hinted([0, i], &mut h));
        expected.insert([0, i]);
    }
    // Phase 2: uniform-random keys (splitmix-ish) — non-forward misses.
    let mut s = 0x9e3779b97f4a7c15u64;
    for _ in 0..2_000 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let k = [1 + s % 96, s % 4_096];
        assert_eq!(t.insert_hinted(k, &mut h), expected.insert(k));
        assert!(t.contains_hinted(&k, &mut h));
        let probe = [1 + s % 96, (s >> 13) % 4_096];
        assert_eq!(t.contains_hinted(&probe, &mut h), expected.contains(&probe));
    }
    // Phase 3: leaf-local walk — the hints must start hitting again.
    let before = h.stats.contains_hits;
    for i in 0..2_000u64 {
        assert!(t.contains_hinted(&[0, i], &mut h));
    }
    assert!(
        h.stats.contains_hits - before > 1_000,
        "hint hits did not recover after the random phase: {} new hits",
        h.stats.contains_hits - before
    );
    // Phase 4: append again, interleaved with membership checks.
    for i in 2_000..4_000u64 {
        assert!(t.insert_hinted([0, i], &mut h));
        expected.insert([0, i]);
        assert!(t.contains_hinted(&[0, i], &mut h));
    }

    t.check_invariants().unwrap();
    assert_eq!(t.len(), expected.len());
    for k in &expected {
        assert!(t.contains(k), "{k:?} lost");
    }
}

/// Hints used on a tree other than the one they are branded for must be
/// re-branded by *every* hinted operation: a bound query that cached a leaf
/// of the foreign tree under the old brand would make the next query on
/// the original tree trust that foreign leaf.
#[test]
fn bound_hints_used_on_another_tree_are_rebranded() {
    let evens: BTreeSet<1, 4> = (0..100u64).map(|i| [2 * i]).collect();
    let odds: BTreeSet<1, 4> = (0..100u64).map(|i| [2 * i + 1]).collect();
    let mut h = evens.create_hints();
    assert_eq!(odds.lower_bound_hinted(&[51], &mut h).next(), Some([51]));
    assert_eq!(evens.lower_bound_hinted(&[51], &mut h).next(), Some([52]));
    assert_eq!(odds.upper_bound_hinted(&[51], &mut h).next(), Some([53]));
    assert_eq!(evens.upper_bound_hinted(&[51], &mut h).next(), Some([52]));
}
