//! Property tests pinning secondary indexes to their primary: after any
//! interleaving of inserts, removes, bulk `merge_from`, `retract_from`,
//! and `clear`, every registered index permutation must yield **exactly**
//! the primary's tuple set (and permuted-prefix probes must equal the
//! filtered model). Covers the real index-maintaining backends (the
//! specialized B-tree and its sharded variant) and the filtered-scan
//! fallback every other backend serves `scan_index` with.

use datalog::storage::{pad, RelationStorage, TupleBuf};
use datalog::StorageKind;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Tiny key domain: collisions everywhere, so removes hit, merges dedupe,
/// and every shard sees traffic.
fn key() -> impl Strategy<Value = (u64, u64)> {
    (0u64..12, 0u64..12)
}

fn op() -> impl Strategy<Value = (bool, (u64, u64))> {
    (any::<bool>(), key())
}

/// Backends that maintain real permuted trees.
const INDEXED: [StorageKind; 3] = [
    StorageKind::SpecBTree,
    StorageKind::ShardedBTree(2),
    StorageKind::ShardedBTree(5),
];

fn fill(storage: &dyn RelationStorage, keys: &[(u64, u64)]) {
    let mut ctx = storage.make_ctx();
    for &(a, b) in keys {
        storage.insert(&pad(&[a, b]), &mut ctx);
    }
}

fn primary_set(storage: &dyn RelationStorage) -> BTreeSet<TupleBuf> {
    let mut s = BTreeSet::new();
    storage.for_each(&mut |t| {
        s.insert(*t);
    });
    s
}

/// Asserts every registered index agrees with the primary: full drains
/// match, and single-column permuted probes match the filtered primary.
fn assert_indexes_in_sync(storage: &dyn RelationStorage, when: &str) {
    let primary = primary_set(storage);
    let mut ctx = storage.make_ctx();
    for (id, perm) in storage.index_perms().into_iter().enumerate() {
        let mut via_index = BTreeSet::new();
        storage.scan_index(id, &perm, &[], &mut ctx, &mut |t| {
            via_index.insert(*t);
        });
        assert_eq!(
            via_index, primary,
            "{when}: index {id} {perm:?} diverged from primary on full drain"
        );
        for probe in 0..12u64 {
            let mut got = BTreeSet::new();
            storage.scan_index(id, &perm, &[probe], &mut ctx, &mut |t| {
                got.insert(*t);
            });
            let expect: BTreeSet<TupleBuf> = primary
                .iter()
                .filter(|t| t[perm[0]] == probe)
                .copied()
                .collect();
            assert_eq!(
                got, expect,
                "{when}: index {id} {perm:?} probe {probe} diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Point inserts and removes keep every index tree in lockstep with
    /// the primary on the indexed backends.
    #[test]
    fn point_ops_keep_indexes_in_sync(ops in prop::collection::vec(op(), 0..160)) {
        for kind in INDEXED {
            let mut storage = kind.create();
            let id = storage.add_index(&[1, 0], 2);
            prop_assert_eq!(id, Some(0), "{:?} must support indexes", kind);
            // Registering the same permutation again is a no-op, not a
            // second index.
            prop_assert_eq!(storage.add_index(&[1, 0], 2), Some(0));
            let mut ctx = storage.make_ctx();
            for &(ins, (a, b)) in &ops {
                let t = pad(&[a, b]);
                if ins {
                    storage.insert(&t, &mut ctx);
                } else {
                    storage.remove(&t, &mut ctx);
                }
            }
            assert_indexes_in_sync(&*storage, &format!("{kind:?} point ops"));
        }
    }

    /// Bulk `merge_from` / `retract_from` (the engine's `new → full` fold
    /// and overdeletion subtraction) maintain the indexes too — including
    /// the tree-to-tree and shard-aligned fast paths.
    #[test]
    fn bulk_ops_keep_indexes_in_sync(
        base in prop::collection::vec(key(), 0..120),
        merged in prop::collection::vec(key(), 0..120),
        retracted in prop::collection::vec(key(), 0..120),
    ) {
        for kind in INDEXED {
            let mut storage = kind.create();
            storage.add_index(&[1, 0], 2).unwrap();
            fill(&*storage, &base);
            assert_indexes_in_sync(&*storage, &format!("{kind:?} after backfill"));

            // Merge from a same-kind source (fast path) and from a plain
            // hash set (per-tuple fallback path).
            let src = kind.create();
            fill(&*src, &merged);
            storage.merge_from(&*src, 4);
            assert_indexes_in_sync(&*storage, &format!("{kind:?} after merge_from"));

            let flat = StorageKind::ConcurrentHashSet.create();
            fill(&*flat, &retracted);
            storage.retract_from(&*flat, 4);
            assert_indexes_in_sync(&*storage, &format!("{kind:?} after retract_from"));

            if storage.clear() {
                prop_assert!(storage.is_empty());
                assert_indexes_in_sync(&*storage, &format!("{kind:?} after clear"));
            }
        }
    }

    /// Index registration on a non-empty storage backfills from the
    /// current contents, and everything merged afterwards lands in the
    /// index too: the engine registers an index between two fixpoint
    /// iterations, when a re-plan first wants it, while worker contexts
    /// made before it existed stay in use.
    #[test]
    fn mid_fixpoint_registration_backfills_and_stays_in_sync(
        keys in prop::collection::vec(key(), 0..150),
        rounds in prop::collection::vec(prop::collection::vec(key(), 0..40), 0..4),
    ) {
        for kind in INDEXED {
            let mut storage = kind.create();
            let mut old_ctx = storage.make_ctx();
            fill(&*storage, &keys);
            storage.add_index(&[1, 0], 4).unwrap();
            assert_indexes_in_sync(&*storage, &format!("{kind:?} late registration"));
            for (i, round) in rounds.iter().enumerate() {
                // One iteration's `new → full` fold (tree-to-tree path).
                let new = kind.create();
                fill(&*new, round);
                storage.merge_from(&*new, 2);
                // The context that predates the index inserts and probes.
                storage.insert(&pad(&[i as u64, 11]), &mut old_ctx);
                let mut hits = 0;
                storage.scan_index(0, &[1, 0], &[11], &mut old_ctx, &mut |_| hits += 1);
                prop_assert!(hits > i, "{:?}: round {} probe saw {} tuples", kind, i, hits);
                assert_indexes_in_sync(&*storage, &format!("{kind:?} after round {i}"));
            }
        }
    }

    /// Backends without ordered secondary structures register nothing and
    /// answer `scan_index` by filtering a full scan: the right tuples at
    /// the price of a sweep, which is why the planner assigns them no index.
    #[test]
    fn fallback_scan_index_filters_correctly(keys in prop::collection::vec(key(), 0..100)) {
        for kind in [StorageKind::ConcurrentHashSet, StorageKind::HashSetLocked, StorageKind::RbTreeLocked] {
            let mut storage = kind.create();
            prop_assert_eq!(storage.add_index(&[1, 0], 2), None);
            prop_assert!(storage.index_perms().is_empty());
            fill(&*storage, &keys);
            let primary = primary_set(&*storage);
            let mut ctx = storage.make_ctx();
            for probe in 0..12u64 {
                let mut got = BTreeSet::new();
                storage.scan_index(0, &[1, 0], &[probe], &mut ctx, &mut |t| {
                    got.insert(*t);
                });
                let expect: BTreeSet<TupleBuf> =
                    primary.iter().filter(|t| t[1] == probe).copied().collect();
                prop_assert_eq!(got, expect, "{:?} fallback probe {}", kind, probe);
            }
        }
    }
}
