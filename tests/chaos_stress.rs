//! Chaos-model ports of the heaviest native stress scenarios
//! (`tests/concurrency_stress.rs`). Each scenario is shrunk to a few
//! threads and a handful of keys so the schedule explorer can cover the
//! interesting interleavings per seed; the native originals stay as
//! `#[ignore]`-by-default soak tests for occasional large-scale runs.
//!
//! Run instrumented with:
//! `RUSTFLAGS="--cfg chaos" cargo test --test chaos_stress`
//! and shard seeds via `CHAOS_SEED_START` / `CHAOS_SEED_COUNT`.

use std::sync::Arc;

use chaos::sync::{AtomicUsize, Ordering::Relaxed};
use concurrent_datalog_btree::specbtree::BTreeSet;
use workloads::rng::splitmix;

/// Port of `duplicate_insert_races_count_exactly_once`: every thread tries
/// every key; across all explored schedules the total number of winning
/// inserts must equal the number of distinct keys.
#[test]
fn chaos_duplicate_insert_races_count_exactly_once() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        const KEYS: u64 = 4;
        let tree: Arc<BTreeSet<2, 4>> = Arc::new(BTreeSet::new());
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3u64)
            .map(|t| {
                let (tree, wins) = (tree.clone(), wins.clone());
                chaos::thread::spawn(move || {
                    // Different stride per thread, same key set — maximal
                    // duplicate contention, like the native original.
                    for i in 0..KEYS {
                        let k = (i * (t + 1)) % KEYS;
                        if tree.insert([k, k]) {
                            wins.fetch_add(1, Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(wins.load(Relaxed), KEYS as usize, "win count drifted");
        assert_eq!(tree.len(), KEYS as usize);
        tree.check_invariants().unwrap();
    });
}

/// Port of `read_phase_after_each_write_phase_is_fully_consistent` /
/// insert-vs-iterate. Iteration is *phase-concurrent* by contract (see
/// `specbtree::iter`), so the mid-write reader only uses `contains` — which
/// must never report a false negative for a committed key, in any schedule
/// — and the full iteration check runs in the quiescent phase after join.
/// (An earlier draft iterated mid-write; the harness refuted it at seed 0
/// with a duplicated key observed mid-split, confirming the contract.)
#[test]
fn chaos_insert_vs_iterate_read_phase_is_consistent() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let tree: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        // Phase 0: committed before any concurrency — must always be seen.
        for k in [2u64, 6] {
            tree.insert([k]);
        }
        let writer = {
            let tree = tree.clone();
            chaos::thread::spawn(move || {
                for k in [0u64, 4, 8, 1, 5] {
                    tree.insert([k]);
                }
            })
        };
        let reader = {
            let tree = tree.clone();
            chaos::thread::spawn(move || {
                // Splits triggered by the writer relocate keys 2 and 6;
                // lookups racing those splits must still find them.
                assert!(tree.contains(&[2]), "committed key 2 missed");
                assert!(tree.contains(&[6]), "committed key 6 missed");
            })
        };
        writer.join();
        reader.join();
        // Quiescent read phase: iteration must now be exact.
        let snap: Vec<u64> = tree.iter().map(|t| t[0]).collect();
        assert_eq!(snap, vec![0, 1, 2, 4, 5, 6, 8]);
        tree.check_invariants().unwrap();
    });
}

/// Port of `heavy_random_contention_with_invariant_audit` as a split storm:
/// pseudo-random keys from per-thread splitmix streams at capacity 4 force
/// splits to race; the result must match a sequential model exactly.
#[test]
fn chaos_split_storm_matches_model() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let tree: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        let batches: Vec<Vec<u64>> = (0..2u64)
            .map(|t| {
                let mut rng = t * 7 + 1;
                (0..6).map(|_| splitmix(&mut rng) % 16).collect()
            })
            .collect();
        let handles: Vec<_> = batches
            .iter()
            .map(|batch| {
                let (tree, batch) = (tree.clone(), batch.clone());
                chaos::thread::spawn(move || {
                    for k in batch {
                        tree.insert([k]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let model: std::collections::BTreeSet<u64> = batches.into_iter().flatten().collect();
        let shape = tree.check_invariants().unwrap();
        assert_eq!(shape.keys, model.len());
        let ours: Vec<u64> = tree.iter().map(|t| t[0]).collect();
        let theirs: Vec<u64> = model.into_iter().collect();
        assert_eq!(ours, theirs);
    });
}
