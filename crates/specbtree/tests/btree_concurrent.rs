//! Concurrency tests: parallel insertion with disjoint, overlapping, ordered
//! and adversarial key distributions, plus mixed insert/contains and
//! phase-alternating workloads. After every scenario, the full structural
//! invariant checker runs and contents are compared against a model.
//!
//! On a single-core host these still exercise the optimistic protocol via
//! preemption; on multi-core hosts they exercise true concurrency.

use specbtree::BTreeSet;
use std::collections::BTreeSet as Model;

use workloads::rng::splitmix;

fn run_parallel_insert<const C: usize>(
    threads: usize,
    keys_per_thread: impl Fn(usize) -> Vec<[u64; 2]>,
) -> (BTreeSet<2, C>, Model<[u64; 2]>) {
    let tree: BTreeSet<2, C> = BTreeSet::new();
    let all: Vec<Vec<[u64; 2]>> = (0..threads).map(&keys_per_thread).collect();
    std::thread::scope(|s| {
        for keys in &all {
            let tree = &tree;
            s.spawn(move || {
                let mut hints = tree.create_hints();
                for k in keys {
                    tree.insert_hinted(*k, &mut hints);
                }
            });
        }
    });
    let model: Model<[u64; 2]> = all.into_iter().flatten().collect();
    (tree, model)
}

fn verify<const C: usize>(tree: &BTreeSet<2, C>, model: &Model<[u64; 2]>) {
    tree.check_invariants().unwrap();
    let ours: Vec<_> = tree.iter().collect();
    let theirs: Vec<_> = model.iter().copied().collect();
    assert_eq!(ours.len(), theirs.len(), "size mismatch");
    assert_eq!(ours, theirs, "content mismatch");
    for k in model {
        assert!(tree.contains(k));
    }
}

#[test]
fn concurrent_disjoint_ordered() {
    let (tree, model) =
        run_parallel_insert::<8>(8, |t| (0..3_000u64).map(|i| [t as u64, i]).collect());
    verify(&tree, &model);
}

#[test]
fn concurrent_disjoint_random() {
    let (tree, model) = run_parallel_insert::<8>(8, |t| {
        let mut rng = t as u64 + 1;
        (0..3_000).map(|_| [splitmix(&mut rng), t as u64]).collect()
    });
    verify(&tree, &model);
}

#[test]
fn concurrent_fully_overlapping_keys() {
    // Every thread inserts the same keys: maximal duplicate contention.
    let (tree, model) =
        run_parallel_insert::<8>(8, |_| (0..2_000u64).map(|i| [i % 97, i / 97]).collect());
    assert_eq!(tree.len(), model.len());
    verify(&tree, &model);
}

#[test]
fn concurrent_interleaved_ordered_hotspot() {
    // All threads insert ascending keys into the same region: constant
    // splitting at the right edge, lots of upgrade conflicts.
    let (tree, model) =
        run_parallel_insert::<4>(8, |t| (0..2_000u64).map(|i| [i, t as u64]).collect());
    verify(&tree, &model);
}

#[test]
fn concurrent_random_overlapping_small_domain() {
    // Small key domain: many duplicate races and shared leaves.
    let (tree, model) = run_parallel_insert::<8>(8, |t| {
        let mut rng = 1000 + t as u64;
        (0..5_000)
            .map(|_| [splitmix(&mut rng) % 64, splitmix(&mut rng) % 64])
            .collect()
    });
    verify(&tree, &model);
}

#[test]
fn concurrent_tiny_nodes_maximal_splits() {
    let (tree, model) = run_parallel_insert::<4>(6, |t| {
        let mut rng = 7 * (t as u64 + 1);
        (0..4_000)
            .map(|_| [splitmix(&mut rng) % 1_000, splitmix(&mut rng) % 1_000])
            .collect()
    });
    verify(&tree, &model);
}

#[test]
fn concurrent_root_initialization_race() {
    // Many threads race to create the root of an empty tree.
    for _ in 0..20 {
        let tree: BTreeSet<2, 4> = BTreeSet::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let tree = &tree;
                s.spawn(move || {
                    tree.insert([t, t]);
                });
            }
        });
        assert_eq!(tree.len(), 8);
        tree.check_invariants().unwrap();
    }
}

#[test]
fn concurrent_inserts_with_concurrent_contains() {
    // Readers race writers on *different, pre-inserted* keys: contains is
    // linearizable, so pre-inserted keys must always be found.
    let tree: BTreeSet<2, 8> = BTreeSet::new();
    let stable: Vec<[u64; 2]> = (0..2_000u64).map(|i| [i * 2 + 1, 0]).collect();
    for k in &stable {
        tree.insert(*k);
    }
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..3_000u64 {
                    tree.insert([i * 2, t + 1]); // evens: never collide with stable odds
                }
            });
        }
        for _ in 0..4 {
            let tree = &tree;
            let stable = &stable;
            s.spawn(move || {
                for k in stable {
                    assert!(tree.contains(k), "stable key {k:?} vanished");
                }
            });
        }
    });
    tree.check_invariants().unwrap();
    assert_eq!(tree.len(), 2_000 + 4 * 3_000);
}

#[test]
fn phase_alternation_insert_then_scan() {
    // The Datalog pattern: alternating write-only and read-only phases.
    let tree: BTreeSet<2, 8> = BTreeSet::new();
    let mut model = Model::new();
    let mut rng = 42u64;
    for phase in 0..5u64 {
        // Write phase: parallel inserts.
        let batches: Vec<Vec<[u64; 2]>> = (0..4)
            .map(|_| {
                (0..1_000)
                    .map(|_| [splitmix(&mut rng) % 500, phase])
                    .collect()
            })
            .collect();
        for b in &batches {
            for k in b {
                model.insert(*k);
            }
        }
        std::thread::scope(|s| {
            for b in &batches {
                let tree = &tree;
                s.spawn(move || {
                    let mut h = tree.create_hints();
                    for k in b {
                        tree.insert_hinted(*k, &mut h);
                    }
                });
            }
        });
        // Read phase: parallel partitioned scan must see a consistent set.
        let chunks = tree.partition(4);
        let counts: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|c| {
                    let tree = &tree;
                    let c = *c;
                    s.spawn(move || tree.chunk_range(&c).count())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), model.len(), "phase {phase}");
    }
    verify(&tree, &model);
}

#[test]
fn concurrent_merge_from_many_sources() {
    let target: BTreeSet<2, 8> = BTreeSet::new();
    let sources: Vec<BTreeSet<2, 8>> = (0..6u64)
        .map(|t| BTreeSet::from_sorted((0..1_500u64).map(move |i| [i, t])))
        .collect();
    std::thread::scope(|s| {
        for src in &sources {
            let target = &target;
            s.spawn(move || target.insert_all(src));
        }
    });
    target.check_invariants().unwrap();
    assert_eq!(target.len(), 6 * 1_500);
}

#[test]
fn hints_moved_across_threads() {
    // A hint object created on one thread and moved to another keeps
    // working (Send), exercising the brand/validation path.
    let tree: BTreeSet<2, 8> = BTreeSet::new();
    let mut hints = tree.create_hints();
    for i in 0..100u64 {
        tree.insert_hinted([0, i], &mut hints);
    }
    std::thread::scope(|s| {
        let tree = &tree;
        s.spawn(move || {
            for i in 100..200u64 {
                tree.insert_hinted([0, i], &mut hints);
            }
        });
    });
    assert_eq!(tree.len(), 200);
    tree.check_invariants().unwrap();
}

#[test]
fn stress_many_short_trees() {
    // Rapid create/fill/drop cycles catch leaks and init races.
    for round in 0..50u64 {
        let tree: BTreeSet<1, 4> = BTreeSet::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = &tree;
                s.spawn(move || {
                    for i in 0..200u64 {
                        tree.insert([round * 1000 + t * 250 + i]);
                    }
                });
            }
        });
        assert_eq!(tree.len(), 800);
    }
}

#[test]
fn racing_iteration_is_memory_safe() {
    // Iterating while inserts run violates the phase contract, and the
    // element sequence is unspecified: a cursor overtaken by a split climbs
    // to the promoted key and yields again keys it already passed, and a
    // read racing a shift is an unvalidated word load that can tear a
    // tuple across two keys. What must hold is memory safety (atomic
    // fields, clamped indices, never-freed nodes): every word read is a
    // word the test stored in that column, or a fresh node's zero.
    let tree: BTreeSet<2, 4> = BTreeSet::new();
    for i in 0..1_000u64 {
        tree.insert([i, 0]);
    }
    let stored = |t: &[u64; 2]| assert!(t[0] < 2_000 && t[1] <= 10, "a word never stored: {t:?}");
    std::thread::scope(|s| {
        let writer = {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..20_000u64 {
                    tree.insert([i % 2_000, i / 2_000 + 1]);
                }
            })
        };
        for scanner in 0..3 {
            let tree = &tree;
            s.spawn(move || {
                // Repeated scans while the writer mutates. Two step with
                // `next`, capped so that a cursor overtaken again and again
                // still ends; the third walks by `for_each`, a leaf at a
                // time as the engine's scans do, which no `take` can cap
                // (`Take` steps with `next`): it ends once the writer has
                // stopped and the tree holds still.
                for _ in 0..30 {
                    if scanner == 0 {
                        tree.iter().for_each(|t| stored(&t));
                        tree.range(&[100, 0], &[200, 0]).for_each(|t| stored(&t));
                    } else {
                        tree.iter().take(100_000).for_each(|t| stored(&t));
                        let bounded = tree.range(&[100, 0], &[200, 0]).take(100_000);
                        bounded.for_each(|t| stored(&t));
                    }
                }
            });
        }
        writer.join().unwrap();
    });
    // After quiescence, iteration is exact again.
    tree.check_invariants().unwrap();
    // First pass wrote (i, 0) for i < 1000; the writer wrote
    // (i % 2000, i/2000 + 1) — 2000 × 10 distinct tuples with second
    // dimension >= 1, disjoint from the first pass.
    assert_eq!(tree.len(), 1_000 + 20_000);
    assert_eq!(tree.range(&[100, 0], &[200, 0]).count(), 100 * 11);
}

#[test]
fn partition_while_racing_writers_is_memory_safe() {
    let tree: BTreeSet<2, 4> = BTreeSet::new();
    for i in 0..5_000u64 {
        tree.insert([i, i]);
    }
    std::thread::scope(|s| {
        let writer = {
            let tree = &tree;
            s.spawn(move || {
                for i in 5_000..15_000u64 {
                    tree.insert([i, i]);
                }
            })
        };
        for _ in 0..2 {
            let tree = &tree;
            s.spawn(move || {
                for n in [2usize, 8, 32] {
                    let chunks = tree.partition(n);
                    assert!(!chunks.is_empty());
                    let total: usize = chunks
                        .iter()
                        .map(|c| tree.chunk_range(c).take(50_000).count())
                        .sum();
                    assert!(total <= 15_000);
                }
            });
        }
        writer.join().unwrap();
    });
    tree.check_invariants().unwrap();
    assert_eq!(tree.len(), 15_000);
}

/// A key that a racing remover pulls *up* — the predecessor an inner-key
/// removal moves from a leaf into an ancestor two levels above it — must
/// not be missed by the remover that is on its way down to that leaf: every
/// spine node between the two ends its write, so the descent restarts and
/// finds the key where it now is. (With the spine's versions restored, one
/// removal in about 300 of this shape reported the key absent and left it
/// in the tree.) Needs real parallelism to interleave; `remove_all_parallel`
/// runs inline on one core.
#[test]
fn parallel_removal_never_misses_a_predecessor_pulled_past_it() {
    for round in 0..3_000 {
        // Three levels at the default capacity; the victims are a whole
        // contiguous range, so leaves drain and separators get replaced.
        let tree: BTreeSet<2> = (0..500u64).map(|i| [i, 0]).collect();
        let victims: BTreeSet<2> = (0..300u64).map(|i| [i, 0]).collect();
        let removed = tree.remove_all_parallel(&victims, 4);
        assert_eq!(removed, 300, "round {round}");
        assert_eq!(tree.iter().next(), Some([300, 0]), "round {round}");
        assert_eq!(tree.len(), 200, "round {round}");
    }
}

/// Threads for the run test: `DATALOG_TEST_THREADS` (CI's thread matrix runs
/// this suite at 2 and at 8), four otherwise.
fn run_threads() -> usize {
    let set = std::env::var("DATALOG_TEST_THREADS").ok();
    set.and_then(|n| n.trim().parse().ok()).unwrap_or(4).max(2)
}

/// Every thread merges overlapping sorted runs and point-inserts through a
/// hint into one tree, round after round. The tree ends as the union, and
/// every key that was not there before is reported as added exactly once
/// over all the threads: by the one `insert_run` that wrote it, in that
/// run's ascending order, or by the point insert that returned `true`.
fn runs_and_inserts_on_one_tree<const C: usize>() {
    const DOMAIN: u64 = 30_000;
    const ROUNDS: u64 = 100;
    let key = |v: u64| [v / 64, v % 64];
    let draw = |seed: u64, n: usize| -> Model<[u64; 2]> {
        let mut rng = seed;
        (0..n).map(|_| key(splitmix(&mut rng) % DOMAIN)).collect()
    };
    let initial = draw(1, 4_000);
    let tree: BTreeSet<2, C> = initial.iter().copied().collect();
    let threads = run_threads() as u64;
    // Per thread: what it offered, how many it was told were new, and the
    // keys it was told it added.
    type Outcome = (Model<[u64; 2]>, u64, Vec<[u64; 2]>);
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (tree, draw) = (&tree, &draw);
                s.spawn(move || {
                    let mut hints = tree.create_hints();
                    let (mut offered, mut added, mut reported) = (Model::new(), 0u64, Vec::new());
                    for round in 0..ROUNDS {
                        // Seeds shared between neighbouring threads: runs overlap.
                        let run = draw(100 + (t / 2) * ROUNDS + round, 300);
                        let run: Vec<_> = run.into_iter().collect();
                        let mut fresh = Vec::new();
                        added += tree.insert_run(&run, |k| fresh.push(*k));
                        assert!(fresh.is_sorted(), "a run reports its keys in run order");
                        reported.extend(fresh);
                        offered.extend(run);
                        for k in draw(10_000 + t * ROUNDS + round, 60) {
                            if tree.insert_hinted(k, &mut hints) {
                                added += 1;
                                reported.push(k);
                            }
                            offered.insert(k);
                        }
                    }
                    (offered, added, reported)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut model = initial.clone();
    outcomes.iter().for_each(|(o, ..)| model.extend(o));
    verify(&tree, &model);
    check_reported(
        &initial,
        &model,
        outcomes.iter().flat_map(|(.., r)| r),
        outcomes.iter().map(|(_, a, _)| a).sum(),
    );
}

/// The keys reported as added, counted `added` times in all: each once,
/// and together what `model` holds beyond `initial`.
fn check_reported<'a>(
    initial: &Model<[u64; 2]>,
    model: &Model<[u64; 2]>,
    reported: impl Iterator<Item = &'a [u64; 2]>,
    added: u64,
) {
    let mut once = Model::new();
    for k in reported {
        assert!(once.insert(*k), "{k:?} reported as added twice");
    }
    assert_eq!(added as usize, once.len(), "a count and its keys disagree");
    let grown: Model<[u64; 2]> = model.difference(initial).copied().collect();
    assert_eq!(
        once, grown,
        "the keys reported are not what the tree gained"
    );
}

#[test]
fn concurrent_runs_and_point_inserts_report_each_key_once() {
    runs_and_inserts_on_one_tree::<4>();
    runs_and_inserts_on_one_tree::<{ specbtree::DEFAULT_NODE_CAPACITY }>();
}

/// One `insert_runs` call over overlapping runs on the test's worker count:
/// key ranges cut across the runs are claimed off one cursor by that many
/// threads, and the slots the call returns, none empty, are one strictly
/// ascending run taken in order, and that run is the growth, every key
/// once.
fn insert_runs_on_workers<const C: usize>() {
    let key = |v: u64| [v / 64, v % 64];
    let mut rng = 7u64;
    let initial: Model<[u64; 2]> = (0..5_000)
        .map(|_| key(splitmix(&mut rng) % 40_000))
        .collect();
    let tree: BTreeSet<2, C> = initial.iter().copied().collect();
    let runs: Vec<Vec<[u64; 2]>> = (0..64)
        .map(|_| {
            let run: Model<[u64; 2]> = (0..900).map(|_| key(splitmix(&mut rng) % 40_000)).collect();
            run.into_iter().collect()
        })
        .collect();
    let slices: Vec<&[[u64; 2]]> = runs.iter().map(Vec::as_slice).collect();
    let slots = tree.insert_runs(&slices, run_threads());
    assert!(slots.iter().all(|slot| !slot.is_empty()), "no empty slot");
    let added = slots.concat();
    assert!(
        added.windows(2).all(|w| w[0] < w[1]),
        "the added run ascends"
    );
    let mut model = initial.clone();
    model.extend(runs.iter().flatten());
    verify(&tree, &model);
    check_reported(&initial, &model, added.iter(), added.len() as u64);
    assert!(
        tree.insert_runs(&slices, run_threads()).is_empty(),
        "the same runs again add nothing"
    );
}

#[test]
fn insert_runs_reports_each_key_once_across_workers() {
    insert_runs_on_workers::<4>();
    insert_runs_on_workers::<{ specbtree::DEFAULT_NODE_CAPACITY }>();
}
