//! Differential test for `RelationStorage::merge_from`: on every pair of
//! storage backends and at several worker counts, the fused parallel merge
//! must produce the exact set union, return the exact number of newly added
//! tuples, and leave the source untouched — indistinguishable from the
//! sequential tuple-at-a-time merge it replaces.

use datalog::storage::{pad, RelationStorage, StorageKind};
use std::collections::BTreeSet as Model;

fn seed(storage: &dyn RelationStorage, tuples: &[(u64, u64)]) {
    let mut ctx = storage.make_ctx();
    for &(a, b) in tuples {
        storage.insert(&pad(&[a, b]), &mut ctx);
    }
}

fn contents(storage: &dyn RelationStorage) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    storage.for_each(&mut |t| out.push((t[0], t[1])));
    out.sort_unstable();
    out
}

/// Deterministic pseudo-random tuple set (no external RNG dependency).
fn tuples(seed: u64, n: u64, domain: u64) -> Vec<(u64, u64)> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % domain, (x >> 17) % domain)
        })
        .collect()
}

fn check_pair(dst_kind: StorageKind, src_kind: StorageKind, a: &[(u64, u64)], b: &[(u64, u64)]) {
    let model_a: Model<(u64, u64)> = a.iter().copied().collect();
    let union: Model<(u64, u64)> = a.iter().chain(b.iter()).copied().collect();
    let expect_added = (union.len() - model_a.len()) as u64;
    let expect: Vec<(u64, u64)> = union.into_iter().collect();
    let src_expect: Vec<(u64, u64)> = {
        let m: Model<(u64, u64)> = b.iter().copied().collect();
        m.into_iter().collect()
    };
    for workers in [1usize, 2, 8] {
        let dst = dst_kind.create();
        let src = src_kind.create();
        seed(dst.as_ref(), a);
        seed(src.as_ref(), b);
        let added = dst.merge_from(src.as_ref(), workers);
        assert_eq!(
            added, expect_added,
            "{dst_kind:?} <- {src_kind:?} @ {workers} workers: added count"
        );
        assert_eq!(
            contents(dst.as_ref()),
            expect,
            "{dst_kind:?} <- {src_kind:?} @ {workers} workers: union contents"
        );
        assert_eq!(
            contents(src.as_ref()),
            src_expect,
            "{dst_kind:?} <- {src_kind:?} @ {workers} workers: source mutated"
        );
    }
}

/// Every (dst, src) backend pair, overlapping random sets: the B-tree pair
/// exercises the structure-aware partition/grouped-merge path, everything else the
/// sequential fallback — all must agree with the std-set model.
#[test]
fn merge_from_matches_model_on_all_backend_pairs() {
    let a = tuples(1, 600, 64);
    let b = tuples(2, 600, 64);
    for dst_kind in StorageKind::ALL {
        for src_kind in StorageKind::ALL {
            check_pair(dst_kind, src_kind, &a, &b);
        }
    }
}

/// Append-shaped deltas (source sorts entirely after the target maximum)
/// on the B-tree backends: every run lands on the rightmost leaf group, at
/// every worker count, still checked against the model.
#[test]
fn merge_from_append_delta_on_btree_backends() {
    let a: Vec<(u64, u64)> = (0..500).map(|i| (i, i % 7)).collect();
    let b: Vec<(u64, u64)> = (500..900).map(|i| (i, i % 7)).collect();
    for kind in [StorageKind::SpecBTree, StorageKind::SpecBTreeNoHints] {
        check_pair(kind, kind, &a, &b);
    }
}

/// Merging an empty source and merging into an empty target are both exact
/// (the latter takes the bulk-build path on the B-tree).
#[test]
fn merge_from_empty_edges() {
    let a = tuples(3, 300, 48);
    for kind in StorageKind::ALL {
        check_pair(kind, kind, &a, &[]);
        check_pair(kind, kind, &[], &a);
        check_pair(kind, kind, &[], &[]);
    }
}
