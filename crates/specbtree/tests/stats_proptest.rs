//! Property-based tests pinning [`BTreeSet::stats`] against the
//! `std::collections::BTreeSet` model: the census must agree with the
//! model on every count it claims to be exact about, on arbitrary
//! insert/remove interleavings.

use proptest::prelude::*;
use specbtree::BTreeSet;
use std::collections::BTreeSet as Model;

/// Smallish key domain so removals actually hit and leaves drain.
fn key_strategy() -> impl Strategy<Value = [u64; 2]> {
    (0u64..48, 0u64..48).prop_map(|(a, b)| [a, b])
}

/// An interleaved op sequence: `true` inserts, `false` removes.
fn ops_strategy() -> impl Strategy<Value = Vec<(bool, [u64; 2])>> {
    prop::collection::vec((any::<bool>(), key_strategy()), 0..900)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn census_matches_model_after_mixed_ops(ops in ops_strategy()) {
        let tree: BTreeSet<2, 8> = BTreeSet::new();
        let mut model = Model::new();
        for (insert, k) in &ops {
            if *insert {
                prop_assert_eq!(tree.insert(*k), model.insert(*k));
            } else {
                prop_assert_eq!(tree.remove(k), model.remove(k));
            }
        }
        tree.check_invariants().unwrap();
        let s = tree.stats();
        // Inner separators are real elements: total keys == len().
        prop_assert_eq!(s.keys as usize, model.len());
        prop_assert_eq!(s.keys, s.leaf_keys + inner_keys(&s));
        // Every leaf lands in exactly one occupancy bucket.
        prop_assert_eq!(s.occupancy_hist.iter().sum::<u64>(), s.leaf_nodes);
    }

    #[test]
    fn heavy_remove_burial_accounts_for_every_drained_leaf(
        keys in prop::collection::vec(key_strategy(), 1..900),
    ) {
        let tree: BTreeSet<2, 8> = BTreeSet::new();
        let mut model = Model::new();
        for k in &keys {
            tree.insert(*k);
            model.insert(*k);
        }
        let before = tree.stats();
        prop_assert_eq!(before.graveyard_len, 0);
        // Remove everything: removals never create leaves, so every leaf
        // either survives or was spliced out and buried.
        for k in &model {
            prop_assert!(tree.remove(k));
        }
        tree.check_invariants().unwrap();
        let after = tree.stats();
        prop_assert_eq!(after.keys, 0);
        prop_assert_eq!(
            before.leaf_nodes,
            after.leaf_nodes + after.buried_leaves,
            "leaves before == surviving + buried (before: {:?}, after: {:?})",
            before, after
        );
        // Buried subtrees contain at least one node each, and the byte
        // accounting follows the node counts.
        prop_assert!(after.buried_nodes >= after.graveyard_len);
        prop_assert!(after.buried_nodes >= after.buried_leaves);
        if after.buried_nodes > 0 {
            prop_assert!(after.abandoned_bytes > 0);
        }
    }
}

fn inner_keys(s: &specbtree::TreeStats) -> u64 {
    s.keys - s.leaf_keys
}

#[test]
fn clear_resets_burial_accounting() {
    let mut tree: BTreeSet<2, 8> = (0..512u64).map(|i| [i, i]).collect();
    for i in 0..512u64 {
        tree.remove(&[i, i]);
    }
    assert!(tree.stats().buried_leaves > 0, "heavy remove buries leaves");
    tree.clear();
    let s = tree.stats();
    assert_eq!(s.graveyard_len, 0);
    assert_eq!(s.buried_nodes, 0);
    assert_eq!(s.buried_leaves, 0);
    assert_eq!(s.abandoned_bytes, 0);
}
