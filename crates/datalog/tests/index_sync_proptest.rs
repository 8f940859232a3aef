//! Property tests pinning secondary indexes to their primary: after any
//! interleaving of inserts, removes, bulk `merge_from`, `retract_from` and
//! `merge_runs`, every registered index permutation must yield **exactly**
//! the primary's tuple set (and permuted-prefix probes must equal the
//! filtered model). Covers the real index-maintaining backends (the
//! specialized B-tree, with and without hints) and the filtered-scan
//! fallback every other backend serves `scan_index` with.

use datalog::storage::{pad, RelationStorage, TupleBuf};
use datalog::{StorageKind, MAX_ARITY};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Tiny key domain: collisions everywhere, so removes hit and merges
/// dedupe.
fn key() -> impl Strategy<Value = (u64, u64)> {
    (0u64..12, 0u64..12)
}

fn op() -> impl Strategy<Value = (bool, (u64, u64))> {
    (any::<bool>(), key())
}

/// Backends that maintain real permuted trees.
const INDEXED: [StorageKind; 1] = [StorageKind::SpecBTree];

/// Every other backend answers `scan_index` by filtering a sweep.
fn unindexed() -> impl Iterator<Item = StorageKind> {
    StorageKind::ALL
        .into_iter()
        .filter(|k| !INDEXED.contains(k))
}

/// The `arity`-column tuple of a key: distinct keys give distinct tuples at
/// every arity.
fn tuple(arity: usize, (a, b): (u64, u64)) -> TupleBuf {
    match arity {
        1 => pad(&[a * 12 + b]),
        _ => pad(&[a, b, a + b, 7, b % 3][..arity]),
    }
}

/// The index the tests register: all `arity` columns, reversed.
fn reversed(arity: usize) -> Vec<usize> {
    (0..arity).rev().collect()
}

/// Every `(arity, width)` the tests run at: tuples of each arity in a
/// storage as wide as the arity, as the engine makes them, and in the widest
/// one, on which the index permutation is shorter than the storage is wide
/// (what `bench/src/replay.rs` registers on a `create()`d relation).
fn shapes() -> impl Iterator<Item = (usize, usize)> {
    let widest = (1..MAX_ARITY).map(|arity| (arity, MAX_ARITY));
    (1..=MAX_ARITY).map(|arity| (arity, arity)).chain(widest)
}

fn make(kind: StorageKind, width: usize) -> Box<dyn RelationStorage> {
    if width == MAX_ARITY {
        kind.create()
    } else {
        kind.create_for(width)
    }
}

fn insert_keys(storage: &dyn RelationStorage, arity: usize, keys: &[(u64, u64)]) {
    let mut ctx = storage.make_ctx();
    for &k in keys {
        storage.insert(&tuple(arity, k), &mut ctx);
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
/// match, and single-column permuted probes — of values that occur and of
/// one that does not — match the filtered primary.
fn assert_indexes_in_sync(storage: &dyn RelationStorage, when: &str) {
    assert_in_sync_probing(storage, when, usize::MAX);
}

/// [`assert_indexes_in_sync`] probing at most `probes` of the values that
/// occur, evenly spaced.
fn assert_in_sync_probing(storage: &dyn RelationStorage, when: &str, probes: usize) {
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
        let present: BTreeSet<u64> = primary.iter().map(|t| t[perm[0]]).collect();
        let stride = present.len().div_ceil(probes).max(1);
        for probe in present.into_iter().step_by(stride).chain([1_000]) {
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

/// Backfills at the sizes where the counting sort engages (the proptests
/// below stay under 144 tuples, which are compared): 20 000 tuples whose
/// columns are dense near zero, dense above 2⁴⁰, dense below `u64::MAX`, or
/// spread over the whole word — which a backfill that sorts on two columns
/// or more compares — and on them every order of three columns, which
/// between them sort on no, one and two leading key columns, the rotations
/// of five, and at arity 2 a permutation shorter than the storage is wide.
#[test]
fn backfills_of_populated_relations_stay_in_sync() {
    use workloads::rng::SplitMix64;
    const N: usize = 20_000;
    let three: [&[usize]; 6] = [
        &[0, 1, 2],
        &[0, 2, 1],
        &[1, 0, 2],
        &[1, 2, 0],
        &[2, 0, 1],
        &[2, 1, 0],
    ];
    let value = |name: &str, v: u64, rng: &mut SplitMix64| match name {
        "dense" => v,
        "above 2^40" => (1 << 40) + v,
        "below u64::MAX" => u64::MAX - v,
        _ => rng.next_u64(),
    };
    for (arity, domain) in [(2usize, 200u64), (3, 40), (5, 12)] {
        let perms: Vec<Vec<usize>> = match arity {
            2 => vec![vec![0, 1], vec![1, 0], vec![1]],
            3 => three.iter().map(|p| p.to_vec()).collect(),
            _ => (0..arity)
                .map(|r| (0..arity).map(|c| (c + r) % arity).collect())
                .collect(),
        };
        for name in ["dense", "above 2^40", "below u64::MAX", "spread"] {
            let mut rng = SplitMix64::new(arity as u64);
            let mut draw = |n: usize| {
                let mut tuples = BTreeSet::new();
                while tuples.len() < n {
                    let t: Vec<u64> = (0..arity)
                        .map(|_| value(name, rng.below(domain), &mut rng))
                        .collect();
                    tuples.insert(pad(&t));
                }
                tuples.into_iter().collect::<Vec<TupleBuf>>()
            };
            let (base, delta) = (draw(N), draw(N / 4));
            let what = format!("arity {arity} {name}");
            // One kind: the backfill does not know whether hints are on.
            let mut storage = StorageKind::SpecBTree.create_for(arity);
            let mut ctx = storage.make_ctx();
            base.iter()
                .for_each(|t| assert!(storage.insert(t, &mut ctx)));
            for perm in &perms {
                storage.add_index(perm, 2).expect("an indexed kind");
            }
            assert_eq!(storage.index_perms(), perms, "{what}");
            assert_in_sync_probing(&*storage, &format!("{what} after backfill"), 8);
            // Two bound columns, through every index: what a filtered
            // sweep of the tuples finds is what `scan_index` must.
            for (id, perm) in perms.iter().enumerate().filter(|(_, p)| p.len() > 1) {
                for probe in base.iter().step_by(N / 5) {
                    let prefix = [probe[perm[0]], probe[perm[1]]];
                    let mut got = Vec::new();
                    storage.scan_index(id, perm, &prefix, &mut ctx, &mut |t| got.push(*t));
                    got.sort_unstable();
                    let bound = |t: &&TupleBuf| [t[perm[0]], t[perm[1]]] == prefix;
                    let want: Vec<TupleBuf> = base.iter().filter(bound).copied().collect();
                    assert_eq!(got, want, "{what} {perm:?} {prefix:?}");
                }
            }
            // Merged into and retracted from through the same indexes.
            let src = StorageKind::SpecBTree.create_for(arity);
            let mut src_ctx = src.make_ctx();
            for t in &delta {
                src.insert(t, &mut src_ctx);
            }
            storage.merge_from(&*src, 2);
            assert_in_sync_probing(&*storage, &format!("{what} after merge_from"), 8);
            storage.retract_from(&*src, 2);
            assert_in_sync_probing(&*storage, &format!("{what} after retract_from"), 8);
            let shared = |t: &&TupleBuf| delta.binary_search(t).is_ok();
            assert_eq!(
                storage.len(),
                N - base.iter().filter(shared).count(),
                "{what}"
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
            for (arity, width) in shapes() {
                let mut storage = make(kind, width);
                let perm = reversed(arity);
                let id = storage.add_index(&perm, 2);
                prop_assert_eq!(id, Some(0), "{:?} must support indexes", kind);
                // Registering the same permutation again is a no-op, not a
                // second index.
                prop_assert_eq!(storage.add_index(&perm, 2), Some(0));
                let mut ctx = storage.make_ctx();
                for &(ins, k) in &ops {
                    let t = tuple(arity, k);
                    if ins {
                        storage.insert(&t, &mut ctx);
                    } else {
                        storage.remove(&t, &mut ctx);
                    }
                }
                assert_indexes_in_sync(&*storage, &format!("{kind:?} arity {arity} width {width} point ops"));
            }
        }
    }

    /// Bulk `merge_from` / `retract_from` (the engine's `new → full` fold
    /// and overdeletion subtraction) maintain the indexes too — including
    /// the tree-to-tree fast path.
    #[test]
    fn bulk_ops_keep_indexes_in_sync(
        base in prop::collection::vec(key(), 0..120),
        merged in prop::collection::vec(key(), 0..120),
        retracted in prop::collection::vec(key(), 0..120),
    ) {
        for kind in INDEXED {
            for (arity, width) in shapes() {
                let mut storage = make(kind, width);
                let what = format!("{kind:?} arity {arity} width {width}");
                storage.add_index(&reversed(arity), 2).unwrap();
                insert_keys(&*storage, arity, &base);
                assert_indexes_in_sync(&*storage, &format!("{what} after backfill"));

                // Merge from a source of the same kind and width (fast
                // path) and retract a plain hash set (per-tuple fallback).
                let src = make(kind, width);
                insert_keys(&*src, arity, &merged);
                storage.merge_from(&*src, 4);
                assert_indexes_in_sync(&*storage, &format!("{what} after merge_from"));

                let flat = StorageKind::ConcurrentHashSet.create_for(arity);
                insert_keys(&*flat, arity, &retracted);
                storage.retract_from(&*flat, 4);
                assert_indexes_in_sync(&*storage, &format!("{what} after retract_from"));

                // And the tree-to-tree retraction.
                storage.retract_from(&*src, 4);
                assert_indexes_in_sync(&*storage, &format!("{what} after bulk retract_from"));

                // Sorted runs, as an iteration's merge hands them over:
                // what was retracted comes back, padded to the storage's
                // width, as a run and again as its back half, into the
                // primary, returned once, ascending, and, what the runs added,
                // as a permuted run, into every index.
                let run: BTreeSet<TupleBuf> = retracted.iter().map(|&k| tuple(arity, k)).collect();
                let fresh: BTreeSet<TupleBuf> =
                    run.difference(&primary_set(&*storage)).copied().collect();
                let words: Vec<u64> = run.iter().flat_map(|t| t[..width].iter().copied()).collect();
                let back = &words[words.len() / width / 2 * width..];
                let added = storage.merge_runs(&[&words, back], 2).concat();
                let added: Vec<TupleBuf> = added.chunks_exact(width).map(pad).collect();
                prop_assert!(added.is_sorted_by(|a, b| a < b), "{}", what);
                prop_assert_eq!(added, fresh.iter().copied().collect::<Vec<_>>(), "{}", what);
                prop_assert!(run.is_subset(&primary_set(&*storage)), "{}", what);
                assert_indexes_in_sync(&*storage, &format!("{what} after merge_runs"));
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
            for (arity, width) in shapes() {
                let mut storage = make(kind, width);
                let what = format!("{kind:?} arity {arity} width {width}");
                let perm = reversed(arity);
                let mut old_ctx = storage.make_ctx();
                insert_keys(&*storage, arity, &keys);
                storage.add_index(&perm, 4).unwrap();
                assert_indexes_in_sync(&*storage, &format!("{what} late registration"));
                for (i, round) in rounds.iter().enumerate() {
                    // One iteration's `new → full` fold (tree-to-tree path).
                    let new = make(kind, width);
                    insert_keys(&*new, arity, round);
                    storage.merge_from(&*new, 2);
                    // The context that predates the index inserts and
                    // probes: one more tuple per round whose last column,
                    // the index's leading one, is 11. The probe sees this
                    // round's and every earlier round's (on one column they
                    // are all the same tuple).
                    let mut fresh = vec![i as u64; arity];
                    fresh[arity - 1] = 11;
                    storage.insert(&pad(&fresh), &mut old_ctx);
                    let mut hits = 0;
                    storage.scan_index(0, &perm, &[11], &mut old_ctx, &mut |_| hits += 1);
                    let want = if arity == 1 { 1 } else { i + 1 };
                    prop_assert!(hits >= want, "{}: round {} probe saw {} tuples", what, i, hits);
                    assert_indexes_in_sync(&*storage, &format!("{what} after round {i}"));
                }
            }
        }
    }

    /// Backends without ordered secondary structures register nothing and
    /// answer `scan_index` by filtering a full scan: the right tuples at
    /// the price of a sweep, which is why the planner assigns them no index.
    #[test]
    fn fallback_scan_index_filters_correctly(keys in prop::collection::vec(key(), 0..100)) {
        for kind in unindexed() {
            for (arity, width) in shapes() {
                let mut storage = make(kind, width);
                let perm = reversed(arity);
                prop_assert_eq!(storage.add_index(&perm, 2), None);
                prop_assert!(storage.index_perms().is_empty());
                insert_keys(&*storage, arity, &keys);
                let primary = primary_set(&*storage);
                let mut ctx = storage.make_ctx();
                for probe in 0..15u64 {
                    let mut got = BTreeSet::new();
                    storage.scan_index(0, &perm, &[probe], &mut ctx, &mut |t| {
                        got.insert(*t);
                    });
                    let expect: BTreeSet<TupleBuf> =
                        primary.iter().filter(|t| t[perm[0]] == probe).copied().collect();
                    prop_assert_eq!(got, expect, "{:?} arity {} fallback probe {}", kind, arity, probe);
                }
            }
        }
    }
}
