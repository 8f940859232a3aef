//! Property-based differential testing: every baseline structure must
//! behave exactly like the standard-library model on arbitrary operation
//! sequences — the same harness style the specialized B-tree is tested
//! with, applied to the comparators so that benchmark differences can
//! never stem from semantic bugs.

use baselines::bplus::BPlusMap;
use baselines::bslack::BSlackTree;
use baselines::gbtree::GBTreeSet;
use baselines::hashset::HashSet as ChainedHashSet;
use baselines::lockcoupling::LockCouplingBTree;
use baselines::masstree::MasstreeAnalog;
use baselines::rbtree::RbTreeSet;
use baselines::splitorder::SplitOrderedSet;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn keys() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..500, 0..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rbtree_matches_model(ops in keys()) {
        let mut s = RbTreeSet::new();
        let mut m = BTreeSet::new();
        for k in &ops {
            prop_assert_eq!(s.insert(*k), m.insert(*k));
        }
        s.check_invariants().unwrap();
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
        for probe in 0..=500u64 {
            prop_assert_eq!(s.contains(&probe), m.contains(&probe));
            prop_assert_eq!(s.lower_bound(&probe).next(), m.range(probe..).next().copied());
        }
    }

    #[test]
    fn gbtree_matches_model(ops in keys()) {
        let mut s = GBTreeSet::with_max_keys(4);
        let mut m = BTreeSet::new();
        for k in &ops {
            prop_assert_eq!(s.insert(*k), m.insert(*k));
        }
        s.check_invariants().unwrap();
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), m.iter().copied().collect::<Vec<_>>());
        for probe in (0..=500u64).step_by(7) {
            prop_assert_eq!(
                s.upper_bound(&probe).next(),
                m.range((std::ops::Bound::Excluded(probe), std::ops::Bound::Unbounded))
                    .next()
                    .copied()
            );
        }
    }

    #[test]
    fn hashset_matches_model(ops in keys()) {
        let mut s = ChainedHashSet::new();
        let mut m = std::collections::HashSet::new();
        for k in &ops {
            prop_assert_eq!(s.insert(*k), m.insert(*k));
        }
        prop_assert_eq!(s.len(), m.len());
        for probe in 0..=500u64 {
            prop_assert_eq!(s.contains(&probe), m.contains(&probe));
        }
        let mut collected: Vec<u64> = s.iter().collect();
        collected.sort_unstable();
        let mut expect: Vec<u64> = m.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(collected, expect);
    }

    #[test]
    fn bslack_matches_model(ops in keys()) {
        let s = BSlackTree::new();
        let mut m = BTreeSet::new();
        for k in &ops {
            prop_assert_eq!(s.insert(*k), m.insert(*k));
        }
        prop_assert_eq!(s.len(), m.len());
        prop_assert_eq!(s.snapshot_sorted(), m.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn masstree_matches_model(pairs in prop::collection::vec((0u64..40, 0u64..40), 0..300)) {
        let s: MasstreeAnalog<2> = MasstreeAnalog::new();
        let mut m = BTreeSet::new();
        for &(a, b) in &pairs {
            prop_assert_eq!(s.insert([a, b]), m.insert([a, b]));
        }
        prop_assert_eq!(s.len(), m.len());
        for a in 0..40u64 {
            for b in (0..40u64).step_by(5) {
                prop_assert_eq!(s.contains(&[a, b]), m.contains(&[a, b]));
            }
        }
    }

    #[test]
    fn lockcoupling_matches_model(ops in keys()) {
        let s = LockCouplingBTree::new();
        let mut m = BTreeSet::new();
        for k in &ops {
            prop_assert_eq!(s.insert(*k), m.insert(*k));
        }
        prop_assert_eq!(s.len(), m.len());
        prop_assert_eq!(s.snapshot_sorted(), m.iter().copied().collect::<Vec<_>>());
        for probe in (0..=500u64).step_by(3) {
            prop_assert_eq!(s.contains(&probe), m.contains(&probe));
        }
    }

    #[test]
    fn splitorder_matches_model(ops in keys()) {
        let s = SplitOrderedSet::new();
        let mut m = std::collections::HashSet::new();
        for k in &ops {
            prop_assert_eq!(s.insert(*k), m.insert(*k));
        }
        prop_assert_eq!(s.len(), m.len());
        for probe in 0..=500u64 {
            prop_assert_eq!(s.contains(&probe), m.contains(&probe));
        }
        let mut snap = s.snapshot();
        snap.sort_unstable();
        let mut expect: Vec<u64> = m.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(snap, expect);
    }

    #[test]
    fn bplus_matches_model(entries in prop::collection::vec((0u64..300, 0u64..1000), 0..400)) {
        let mut s = BPlusMap::new();
        let mut m = BTreeMap::new();
        for &(k, v) in &entries {
            prop_assert_eq!(s.insert(k, v), m.insert(k, v));
        }
        s.check_invariants().unwrap();
        prop_assert_eq!(s.len(), m.len());
        let ours: Vec<(u64, u64)> = s.iter().map(|(k, v)| (k, *v)).collect();
        let theirs: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(ours, theirs);
    }
}
