//! Model-checked protocol tests for the B-tree: Algorithm 1 (optimistic
//! insertion) and Algorithm 2 (bottom-up splitting) explored schedule by
//! schedule with the chaos harness, with results checked against structural
//! invariants and a linearizability checker.
//!
//! Scenarios are deliberately tiny (2–3 threads, a handful of keys, node
//! capacity 4) so each seed explores a meaningfully different interleaving
//! of the interesting protocol steps — leaf upgrades, split escalation,
//! root swaps — instead of drowning them in bulk work. The native stress
//! suite (`tests/concurrency_stress.rs`) covers scale; this file covers
//! schedules.

// With `chaos-inject-bug` on but without `--cfg chaos`, every test in this
// file is compiled out (the unmutated tests refuse the mutation, the
// planted self-test needs the instrumentation), so gate imports accordingly.
#[cfg(any(not(feature = "chaos-inject-bug"), chaos))]
use std::sync::Arc;

#[cfg(not(feature = "chaos-inject-bug"))]
use chaos::linearize::{check_set_history, Op, Recorder};
#[cfg(any(not(feature = "chaos-inject-bug"), chaos))]
use specbtree::BTreeSet;

/// Two threads insert overlapping key sets; every schedule must count each
/// distinct key exactly once and leave the tree structurally sound, and the
/// recorded insert/contains history must be linearizable.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn duplicate_insert_race_is_linearizable() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        let rec = Arc::new(Recorder::new());
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let (set, rec) = (set.clone(), rec.clone());
                chaos::thread::spawn(move || {
                    // Key 5 is contended by both threads; one key is private.
                    for k in [5u64, 10 + t as u64] {
                        rec.run(t, Op::Insert(vec![k]), || set.insert([k]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        let history = Arc::try_unwrap(rec)
            .expect("all threads joined")
            .into_history();
        // Exactly one of the two insert(5) calls may have won.
        let wins = history
            .iter()
            .filter(|e| e.op == Op::Insert(vec![5]) && e.returned)
            .count();
        assert_eq!(wins, 1, "duplicate key must be inserted exactly once");
        check_set_history(&history).unwrap();
        set.check_invariants().unwrap();
        let stats = set.stats();
        assert_eq!(stats.keys, 3);
        assert!(set.contains(&[5]) && set.contains(&[10]) && set.contains(&[11]));
    });
}

/// Split storm: with capacity 4, nine keys force repeated splits including
/// a root split; two threads interleave arbitrarily. Algorithm 2's
/// bottom-up locking must keep the tree consistent in every schedule.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn concurrent_splits_keep_invariants() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let set = set.clone();
                chaos::thread::spawn(move || {
                    // One thread takes evens, the other odds, plus the
                    // shared key 4: both hit the same leaves and race the
                    // same splits.
                    for i in 0..4u64 {
                        set.insert([2 * i + t as u64]);
                    }
                    set.insert([4]);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        set.check_invariants().unwrap();
        let stats = set.stats();
        assert_eq!(stats.keys, 8, "keys 0..=7, the shared key 4 deduplicated");
        assert!(stats.depth >= 2, "eight keys at capacity 4 must have split");
        for k in 0..8u64 {
            assert!(set.contains(&[k]), "key {k} lost");
        }
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>(), "iteration order broken");
    });
}

/// A reader racing inserts must never miss a key whose insert completed
/// before the lookup began (no false negatives through splits), and every
/// `contains` it performs must fit a linearizable history.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn contains_during_inserts_has_no_false_negatives() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        let rec = Arc::new(Recorder::new());
        // Key 3 is inserted before any concurrency: it must always be found.
        // Recorded too, so the linearizability checker knows about it.
        rec.run(1, Op::Insert(vec![3]), || set.insert([3]));
        let writer = {
            let (set, rec) = (set.clone(), rec.clone());
            chaos::thread::spawn(move || {
                for k in [1u64, 2, 4, 5, 6] {
                    rec.run(1, Op::Insert(vec![k]), || set.insert([k]));
                }
            })
        };
        let reader = {
            let (set, rec) = (set.clone(), rec.clone());
            chaos::thread::spawn(move || {
                let found = rec.run(0, Op::Contains(vec![3]), || set.contains(&[3]));
                assert!(found, "pre-inserted key vanished during splits");
                rec.run(0, Op::Contains(vec![5]), || set.contains(&[5]));
            })
        };
        writer.join();
        reader.join();
        let history = Arc::try_unwrap(rec)
            .expect("all threads joined")
            .into_history();
        check_set_history(&history).unwrap();
        set.check_invariants().unwrap();
        assert_eq!(set.len(), 6);
    });
}

/// Two threads race `insert_all` merges of *disjoint* sources into one
/// target, both sorting after the target's maximum: two runs on the same
/// rightmost leaf group. Every schedule makes both descend to its parent
/// (`btree::merge::descend`) and contend for the upgrade
/// (`btree::merge::group_upgrade`); whichever loses re-descends, finds the
/// group the winner filled and split, and must neither lose nor duplicate
/// a key.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn racing_disjoint_merges_keep_invariants() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        for k in 0..6u64 {
            set.insert([k]);
        }
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let set = set.clone();
                chaos::thread::spawn(move || {
                    let src: BTreeSet<1, 4> = BTreeSet::new();
                    for k in 10 * (t + 1)..10 * (t + 1) + 5 {
                        src.insert([k]);
                    }
                    let added = set.insert_all_parallel(&src, 1);
                    assert_eq!(added, 5, "disjoint source must add every tuple");
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        set.check_invariants().unwrap();
        let stats = set.stats();
        assert_eq!(stats.keys, 16);
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        let expect: Vec<u64> = (0..6).chain(10..15).chain(20..25).collect();
        assert_eq!(got, expect, "merged contents wrong");
    });
}

/// Two threads race `insert_all` merges of *overlapping* sources: contested
/// keys must be claimed by exactly one merge (the fused added counts sum to
/// the true growth) and the union must be exact in every schedule.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn racing_overlapping_merges_count_exactly_once() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        for k in [0u64, 2, 4] {
            set.insert([k]);
        }
        let srcs: [&[u64]; 2] = [&[1, 3, 5, 6], &[3, 5, 6, 7]];
        let added = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..2usize)
            .map(|t| {
                let (set, added) = (set.clone(), added.clone());
                let keys = srcs[t];
                chaos::thread::spawn(move || {
                    let src: BTreeSet<1, 4> = BTreeSet::new();
                    for &k in keys {
                        src.insert([k]);
                    }
                    let n = set.insert_all_parallel(&src, 1);
                    added.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        set.check_invariants().unwrap();
        let stats = set.stats();
        assert_eq!(stats.keys, 8, "union of {{0,2,4}} with both sources");
        assert_eq!(
            added.load(std::sync::atomic::Ordering::Relaxed),
            5,
            "keys 1,3,5,6,7 are new and each must be counted exactly once"
        );
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    });
}

/// Interior descent vs interior rewrites: descents rank a key inside an
/// interior node under a read lease and must stay correct in every
/// interleaving with concurrent splits that rewrite the interior —
/// separator shifts, child shifts and a full root swap all occur under this
/// workload. The writer's dense low-key run drives the root from one
/// separator to a root split (depth growth), so a reader parked mid-descent
/// across the entire excursion resumes on a stale lease over a *halved* old
/// root — exactly the state the per-node validation must reject. Explored
/// under both random and PCT scheduling; PCT's depth-1 priority change
/// point is what produces the long writer excursions.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn interior_descent_survives_interior_rewrites() {
    let scenario = || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        // Depth 2 up front: a root interior node over two leaves, so every
        // insert descends through an interior rank.
        for k in [0u64, 10, 20, 30, 40] {
            set.insert([k]);
        }
        // Low thread: 1..=16 forces repeated leaf splits and finally a
        // root split (root swap). High
        // thread: keys routed through the root's last child — the slot a
        // torn interior read would misroute.
        let low = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in 1u64..=16 {
                    set.insert([k]);
                }
            })
        };
        let high = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in [50u64, 60, 70] {
                    set.insert([k]);
                }
            })
        };
        low.join();
        high.join();
        set.check_invariants().unwrap();
        let stats = set.stats();
        assert_eq!(
            stats.keys, 23,
            "5 seeded + 15 new low (10 is a duplicate) + 3 high"
        );
        for k in (0u64..=16).chain([20, 30, 40, 50, 60, 70]) {
            assert!(set.contains(&[k]), "key {k} lost in a racing descent");
        }
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        let expect: Vec<u64> = (0u64..=16).chain([20, 30, 40, 50, 60, 70]).collect();
        assert_eq!(got, expect, "iteration order broken");
    };
    chaos::model(chaos::seeds_from_env(0..32), scenario);
    chaos::model_with(
        &chaos::Config::pct(1),
        chaos::seeds_from_env(0..32),
        scenario,
    );
}

/// A hinted insert splitting a leaf while another thread's split chain is
/// re-homing that leaf: the writer's append splits the full rightmost leaf
/// *and* the full root above it, which moves leaves `[90, 100]` and
/// `[120..150]` under a fresh inner sibling; the hinted thread, whose hint
/// takes it straight to `[90, 100]` without passing the write-locked root,
/// fills and splits that leaf. From the moment the leaf's parent link
/// names the sibling the hinted thread can reach it bottom-up, so the
/// sibling must already be write-locked (Algorithm 2 as implemented in
/// Soufflé locks every node a split creates) — otherwise both threads
/// insert separators into it at once and a leaf drops out of the tree.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn hinted_leaf_split_waits_for_the_inner_split_rehoming_it() {
    let scenario = || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        // Root [20, 50, 80, 110] (full) over [0,10] [30,40] [60,70]
        // [90,100] [120,130,140,150] (full).
        for k in (0..=150u64).step_by(10) {
            set.insert([k]);
        }
        let appender = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                set.insert([160]);
            })
        };
        let hinted = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                let mut hints = set.create_hints();
                for k in [91u64, 92, 93, 94] {
                    set.insert_hinted([k], &mut hints);
                }
            })
        };
        appender.join();
        hinted.join();
        set.check_invariants().unwrap();
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        let mut expect: Vec<u64> = (0..=160).step_by(10).chain(91..=94).collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "a racing split lost keys");
    };
    chaos::model(chaos::seeds_from_env(0..64), scenario);
    chaos::model_with(
        &chaos::Config::pct(2),
        chaos::seeds_from_env(0..64),
        scenario,
    );
}

/// A tree of `keys`, inserted in the order given, with insert hints on the
/// leaf of `at`. Ascending inserts at `C = 4` leave two keys per leaf and
/// one between.
#[cfg(any(not(feature = "chaos-inject-bug"), chaos))]
fn hinted_tree(
    keys: impl IntoIterator<Item = u64>,
    at: u64,
) -> (Arc<BTreeSet<1, 4>>, specbtree::BTreeHints<1, 4>) {
    let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
    for k in keys {
        set.insert([k]);
    }
    let mut hints = set.create_hints();
    assert!(!set.insert_hinted([at], &mut hints));
    (set, hints)
}

/// The keys of [0 10] 20 [30 40] 50 [60 70] 80 [90 100] 110 [120 130] under
/// the full root [20 50 80 110].
#[cfg(not(feature = "chaos-inject-bug"))]
fn full_root() -> impl Iterator<Item = u64> {
    (0..=13).map(|x| 10 * x)
}

/// Explores `scenario` under the random walk and under PCT with two
/// preemptions, as the hinted-split model above does.
#[cfg(not(feature = "chaos-inject-bug"))]
fn explore(scenario: fn()) {
    chaos::model(chaos::seeds_from_env(0..64), scenario);
    chaos::model_with(
        &chaos::Config::pct(2),
        chaos::seeds_from_env(0..64),
        scenario,
    );
}

/// Checks the models' common ending: the structure is sound and iteration
/// yields `base` and `added`, in order.
#[cfg(any(not(feature = "chaos-inject-bug"), chaos))]
fn assert_holds(set: &BTreeSet<1, 4>, base: impl IntoIterator<Item = u64>, added: &[u64]) {
    set.check_invariants().unwrap();
    let mut expect: Vec<u64> = base.into_iter().chain(added.iter().copied()).collect();
    expect.sort_unstable();
    let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
    assert_eq!(got, expect, "an append went to the wrong leaf");
}

/// An append-hinted inserter racing a second inserter that splits the very
/// leaf the hint names: the appender reads the leaf, walks to its fence
/// (`btree::insert::fence` lets the scheduler in between the levels) and
/// upgrades the lease it took *first* — so a split of the leaf in between,
/// which lowers the fence below the tuple, must fail the upgrade, and an
/// append decided against the old fence must never land.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn append_hint_races_a_split_of_its_leaf() {
    explore(|| {
        let (set, mut hints) = hinted_tree(full_root(), 40);
        // [30 40] becomes [30 40 42]: one more key fills it, the next
        // splits it, whoever comes first.
        set.insert([42]);
        let appender = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in [46u64, 48] {
                    assert!(set.insert_hinted([k], &mut hints));
                }
            })
        };
        let splitter = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in [35u64, 36] {
                    assert!(set.insert([k]));
                }
            })
        };
        appender.join();
        splitter.join();
        assert_holds(&set, full_root(), &[42, 46, 48, 35, 36]);
    });
}

/// An append-hinted inserter racing a split of the leaf's *parent*: the
/// other thread's leaf split finds the root full and splits it, which
/// re-homes [90 100] and [120 130] under a fresh inner sibling while the
/// appender is between reading the parent link, the fence and upgrading.
/// 105 stays below the fence 110 wherever the separator now lives; 115 must
/// not (120 is in the next leaf); 140 and 150 append to the rightmost leaf,
/// whose walk ends at whichever node is the root by then.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn append_hint_races_a_split_of_its_parent() {
    explore(|| {
        let (set, mut hints) = hinted_tree(full_root(), 100);
        let appender = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in [105u64, 115, 140, 150] {
                    assert!(set.insert_hinted([k], &mut hints));
                }
            })
        };
        let splitter = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                // Fills [0 10], then splits it and the root above it.
                for k in [1u64, 2, 3] {
                    assert!(set.insert([k]));
                }
            })
        };
        appender.join();
        splitter.join();
        assert!(set.stats().depth >= 3, "the root must have split");
        assert_holds(&set, full_root(), &[105, 115, 140, 150, 1, 2, 3]);
    });
}

/// The root-leaf case: a hinted leaf with no parent has no fence, until the
/// first root split gives it both. The appender's 40 belongs in the root
/// leaf [10 20 30] only as long as that is the whole tree; once the other
/// thread's inserts have split it, the leaf keeps the lower keys and 40
/// lies beyond the separator above it. No later split touches the new
/// root, so the descent's own planted bug has nothing to bite on here:
/// under `chaos-inject-bug` whatever fails, fails at the fence.
#[cfg(any(not(feature = "chaos-inject-bug"), chaos))]
fn root_leaf_append_races_the_first_root_split() {
    let (set, mut hints) = hinted_tree([10, 20, 30], 30);
    let appender = {
        let set = set.clone();
        chaos::thread::spawn(move || {
            assert!(set.insert_hinted([40], &mut hints));
        })
    };
    let splitter = {
        let set = set.clone();
        chaos::thread::spawn(move || {
            for k in [5u64, 15] {
                assert!(set.insert([k]));
            }
        })
    };
    appender.join();
    splitter.join();
    assert_holds(&set, [10, 20, 30], &[40, 5, 15]);
}

#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn append_hint_on_the_root_leaf_races_the_first_root_split() {
    explore(root_leaf_append_races_the_first_root_split);
}

/// The keys of [0 10] 20 [30 40] 50 [60 70] 80 [90 100]: a root with room
/// over four leaves.
#[cfg(not(feature = "chaos-inject-bug"))]
fn roomy_root() -> impl Iterator<Item = u64> {
    (0..=10).map(|x| 10 * x)
}

/// Two overlapping runs merged into one leaf group at once, each reporting
/// the keys it adds: [0 10] 20 [30 40] 50 [60 70] 80 [90 100] under a root
/// with room for one more separator, and runs that share 12, 35, 42 and 55
/// and between them put twelve keys between 30 and 50, so leaves split and
/// the root splits too. Every added key is reported by exactly one run, each run's
/// in ascending order, and the counts match the keys.
///
/// Must be accepted without a restart: the second run's descent reaching
/// the group after the first run let go of its parent — it finds the first
/// run's keys in the leaf's merge pass and skips them — and either run's
/// group lock taken while the other merges elsewhere. Restarted by design:
/// an upgrade of the parent's lease after the other run wrote under it
/// (`btree::merge::group_upgrade`), and a run whose child try-lock gives
/// up; what the first attempt merged stays merged and reported.
#[cfg(not(feature = "chaos-inject-bug"))]
fn overlapping_runs_race_into_one_leaf_group() {
    let set: Arc<BTreeSet<1, 4>> = Arc::new(roomy_root().map(|k| [k]).collect());
    let runs: [&'static [u64]; 2] = [
        &[5, 12, 31, 33, 35, 37, 41, 42, 43, 55],
        &[12, 32, 34, 35, 36, 42, 44, 46, 55, 95],
    ];
    let handles = runs.map(|run| {
        let set = set.clone();
        chaos::thread::spawn(move || {
            let run: Vec<[u64; 1]> = run.iter().map(|&k| [k]).collect();
            let mut reported = Vec::new();
            let n = set.insert_run(&run, |t| reported.push(t[0]));
            assert_eq!(n as usize, reported.len(), "a count and its keys disagree");
            assert!(reported.is_sorted(), "reported out of run order");
            reported
        })
    });
    let mut reported: Vec<u64> = handles.into_iter().flat_map(|h| h.join()).collect();
    reported.sort_unstable();
    let added = [
        5, 12, 31, 32, 33, 34, 35, 36, 37, 41, 42, 43, 44, 46, 55, 95,
    ];
    assert_eq!(reported, added, "a key reported twice or never");
    assert_holds(&set, roomy_root(), &added);
    assert!(set.stats().depth >= 3, "the root must have split");
}

#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn overlapping_runs_report_each_added_key_once() {
    explore(overlapping_runs_race_into_one_leaf_group);
}

/// `insert_run` racing an append-hinted point insert on one leaf: the run
/// holds the group's parent and try-locks [30 40] while the appender, which
/// got there through its hint without passing the parent, reads the leaf,
/// walks to its fence and upgrades. Whoever fills the leaf splits it; the
/// appender's split waits for the parent the run holds, and the run gives a
/// leaf it cannot lock eight tries before it lets go of the parent and
/// descends again, so neither waits for the other for good.
///
/// Must be accepted without a restart: a hinted insert that fits into a
/// leaf of the locked group the run is not merging right now — it touches
/// no lock the run holds. Restarted by design: a run that finds its leaf
/// locked (the bounded try-lock is what turns the one top-down edge of the
/// protocol into a retry instead of a deadlock), and an appender whose
/// leaf the run rewrote between its lease and its upgrade.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn an_append_hinted_insert_races_insert_run_on_one_leaf() {
    explore(|| {
        let (set, mut hints) = hinted_tree(roomy_root(), 40);
        let appender = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in [42u64, 44] {
                    assert!(set.insert_hinted([k], &mut hints));
                }
            })
        };
        let runner = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                let run = [35u64, 40, 41, 43, 45, 47, 50].map(|k| [k]);
                assert_eq!(set.insert_run(&run, |_| {}), 5, "40 and 50 were there");
            })
        };
        appender.join();
        runner.join();
        assert_holds(&set, roomy_root(), &[42, 44, 35, 41, 43, 45, 47]);
    });
}

/// Remove racing insert of the *same* key: every schedule must resolve the
/// contention to a linearizable history (insert-then-remove leaves the key
/// absent, remove-then-insert leaves it present — both legal, two removes
/// winning or both orders losing is not), and the predecessor-swap inner
/// deletion racing leaf splits must keep the tree structurally sound.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn remove_insert_race_is_linearizable() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        let rec = Arc::new(Recorder::new());
        // Depth 2 at capacity 4: key 3 typically lands in an inner node, so
        // its removal exercises the write-locked-spine predecessor swap.
        // The seeds the racing history touches are recorded, so the checker
        // knows they start present.
        for k in 0..8u64 {
            if k == 3 || k == 7 {
                rec.run(0, Op::Insert(vec![k]), || set.insert([k]));
            } else {
                set.insert([k]);
            }
        }
        let remover = {
            let (set, rec) = (set.clone(), rec.clone());
            chaos::thread::spawn(move || {
                rec.run(0, Op::Remove(vec![3]), || set.remove(&[3]));
                rec.run(0, Op::Remove(vec![7]), || set.remove(&[7]));
            })
        };
        let inserter = {
            let (set, rec) = (set.clone(), rec.clone());
            chaos::thread::spawn(move || {
                rec.run(1, Op::Insert(vec![3]), || set.insert([3]));
                rec.run(1, Op::Insert(vec![9]), || set.insert([9]));
            })
        };
        remover.join();
        inserter.join();
        // Close the history with ground-truth observations so the final
        // state itself is linearized against the racing operations.
        rec.run(0, Op::Contains(vec![3]), || set.contains(&[3]));
        rec.run(0, Op::Contains(vec![7]), || set.contains(&[7]));
        let history = Arc::try_unwrap(rec)
            .expect("all threads joined")
            .into_history();
        check_set_history(&history).unwrap();
        set.check_invariants().unwrap();
        // Keys untouched by the race are exactly preserved.
        for k in [0u64, 1, 2, 4, 5, 6, 9] {
            assert!(set.contains(&[k]), "uncontended key {k} lost");
        }
        assert!(!set.contains(&[7]), "removed key 7 resurfaced");
    });
}

/// A reader racing removals must never observe a half-deleted key: a key
/// never removed is always found, a key whose removal completed before the
/// lookup began is never found, and the suffix shift that closes the
/// removed slot keeps concurrent descents routed correctly
/// (`btree::remove::key` is the preemption point that exposes a torn
/// rewrite).
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn contains_during_removes_is_linearizable() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        let rec = Arc::new(Recorder::new());
        // Record the seeds the history touches (2, 3, 5, 6): the checker
        // must see them enter the set before the race begins.
        for k in 0..8u64 {
            if matches!(k, 2 | 3 | 5 | 6) {
                rec.run(0, Op::Insert(vec![k]), || set.insert([k]));
            } else {
                set.insert([k]);
            }
        }
        let remover = {
            let (set, rec) = (set.clone(), rec.clone());
            chaos::thread::spawn(move || {
                for k in [2u64, 3, 5] {
                    let removed = rec.run(0, Op::Remove(vec![k]), || set.remove(&[k]));
                    assert!(removed, "pre-inserted key {k} must be removable");
                }
            })
        };
        let reader = {
            let (set, rec) = (set.clone(), rec.clone());
            chaos::thread::spawn(move || {
                let found = rec.run(1, Op::Contains(vec![6]), || set.contains(&[6]));
                assert!(found, "key 6 is never removed; false negative");
                rec.run(1, Op::Contains(vec![3]), || set.contains(&[3]));
                rec.run(1, Op::Contains(vec![5]), || set.contains(&[5]));
            })
        };
        remover.join();
        reader.join();
        let history = Arc::try_unwrap(rec)
            .expect("all threads joined")
            .into_history();
        check_set_history(&history).unwrap();
        set.check_invariants().unwrap();
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        assert_eq!(got, vec![0, 1, 4, 6, 7], "final contents wrong");
    });
}

/// Bulk retraction racing a bulk merge on the same target: a
/// `remove_all_parallel` of the even half runs against an
/// `insert_all_parallel` of a disjoint high run. The removal's
/// deletes, and the splices that take drained leaves out with their
/// separators, interleave with the merge's grouped leaf locking on the
/// rightmost group; every schedule must end with
/// exactly the odd half plus the merged run, with both counts exact.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn remove_all_racing_merge_keeps_invariants() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        for k in 0..10u64 {
            set.insert([k]);
        }
        let remover = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                let victims: BTreeSet<1, 4> = BTreeSet::new();
                for k in [0u64, 2, 4, 6, 8] {
                    victims.insert([k]);
                }
                let removed = set.remove_all_parallel(&victims, 1);
                assert_eq!(removed, 5, "every even key was present");
            })
        };
        let merger = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                let src: BTreeSet<1, 4> = BTreeSet::new();
                for k in 20..25u64 {
                    src.insert([k]);
                }
                let added = set.insert_all_parallel(&src, 1);
                assert_eq!(added, 5, "disjoint source must add every tuple");
            })
        };
        remover.join();
        merger.join();
        set.check_invariants().unwrap();
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        let expect: Vec<u64> = [1u64, 3, 5, 7, 9].into_iter().chain(20..25).collect();
        assert_eq!(got, expect, "retraction ∪ merge contents wrong");
    });
}

/// Two threads race removals over overlapping victim sets: each contended
/// key must be won by exactly one remover (true returns partition the
/// victims), a drained leaf must stay legal until its separator goes and
/// then leave with it, and draining an entire subtree must not strand the
/// iterator.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn racing_removers_claim_each_key_once() {
    chaos::model(chaos::seeds_from_env(0..48), || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        for k in 0..8u64 {
            set.insert([k]);
        }
        let wins = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let (set, wins) = (set.clone(), wins.clone());
                chaos::thread::spawn(move || {
                    let mut local = 0u64;
                    // Both threads attack the same six keys, draining two
                    // leaves and removing the separator right of each:
                    // splice races splice.
                    for k in [0u64, 1, 2, 3, 4, 5] {
                        if set.remove(&[k]) {
                            local += 1;
                        }
                    }
                    wins.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(
            wins.load(std::sync::atomic::Ordering::Relaxed),
            6,
            "each key must be removed exactly once across both threads"
        );
        set.check_invariants().unwrap();
        let got: Vec<u64> = set.iter().map(|t| t[0]).collect();
        assert_eq!(got, vec![6, 7], "survivors wrong after racing removals");
    });
}

/// A reader racing the predecessor swap of an inner-key removal. Keys 0..8
/// at `C = 4` make the root [2 5] over [0 1] [3 4] [6 7]; `remove(5)` takes
/// 4, the maximum of the leaf left of 5, up into the root. A reader that
/// ranked 4 in the old root and took its lease on [3 4] before the swap
/// must fail that lease once it looks again — the donor's write moved its
/// version on — and find 4 in the root on its way down again: reported
/// absent, 4 is lost to every lookup that passed the root first.
///
/// Must be accepted without a restart: a reader whose whole descent falls
/// before the remover's upgrade of the root or after its unlock. Must
/// restart: a lease on the root or on [3 4] taken before the swap. Six
/// lookups give the swap six windows to land in. The bounds check what the
/// contract promises: a validated position, read by a phase-concurrent
/// iterator (on the correct tree PCT at depth 1 has `lower_bound(5)` yield
/// the 4 the swap wrote into the slot 5 held, at seed 50).
#[cfg(any(not(feature = "chaos-inject-bug"), chaos))]
fn predecessor_swap_races_a_reader() {
    let set: Arc<BTreeSet<1, 4>> = Arc::new((0..8).map(|k| [k]).collect());
    let stats = set.stats();
    assert_eq!((stats.depth, stats.leaf_nodes, stats.leaf_keys), (2, 3, 6));
    let remover = {
        let set = set.clone();
        chaos::thread::spawn(move || assert!(set.remove(&[5])))
    };
    let reader = {
        let set = set.clone();
        chaos::thread::spawn(move || {
            for _ in 0..6 {
                assert!(set.contains(&[4]), "4 lost past the pulled-up predecessor");
            }
            // A bound's position is validated, the keys the iterator then
            // reads are not (iteration is phase-concurrent): the swap may
            // write 4 into the slot that held 5, or empty [3 4] first.
            let at4 = set.lower_bound(&[4]).next();
            assert!(matches!(at4, Some([4] | [5])), "lower_bound(4) = {at4:?}");
            let at5 = set.lower_bound(&[5]).next();
            assert!(matches!(at5, Some([4..=6])), "lower_bound(5) = {at5:?}");
        })
    };
    remover.join();
    reader.join();
    assert_holds(&set, [0, 1, 2, 3, 4, 6, 7], &[]);
}

#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn a_reader_races_the_predecessor_swap_of_a_removal() {
    explore(predecessor_swap_races_a_reader);
}

/// Runs `setup` on a plain thread, off the model's schedule: the chaos
/// instrumentation is inert outside the model's virtual threads, so a long
/// setup takes no steps and leaves every PCT change point to the race that
/// follows it.
#[cfg(not(feature = "chaos-inject-bug"))]
fn off_schedule<T: Send>(setup: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(setup).join().expect("setup panicked"))
}

/// [`explore`], then PCT with a change point about every 25 steps over 512
/// seeds. The drained-leaf models look for an insert preempted in the few
/// steps between its descent's last validation and its leaf upgrade, and
/// not before: a window `explore`'s two change points hit in 0.1–0.3 % of
/// seeds, its random walk never. With the buried leaf's version restored on
/// release, this configuration caught the lost insert in 2.3 % of 2 048
/// seeds at the splice and 1.3 % below a donor.
#[cfg(not(feature = "chaos-inject-bug"))]
fn explore_densely(scenario: fn()) {
    explore(scenario);
    let cfg = chaos::Config {
        pct_expected_steps: 200,
        ..chaos::Config::pct(8)
    };
    chaos::model_with(&cfg, chaos::seeds_from_env(0..512), scenario);
}

/// The one way a drained leaf leaves the tree, against inserts into its
/// range. Off the schedule, the tree gets `0, 10, .. 10 * (n - 1)` at
/// `C = 4` in ascending order (two keys a leaf, one between), hints cached
/// on the leaf of `drained`, and then `drained` removed. In the race the
/// remover removes `sep`, the separator to the drained leaf's right; one
/// thread inserts `added[0]` plainly; another inserts `added[1]` through
/// the cached hint and then reads through hints cached on the leaf too.
/// With the leaf still empty the removal takes it out of the tree for
/// good, so an insert that leased it before must fail its upgrade and
/// re-descend; if an insert got there first the leaf donates its maximum
/// to `sep`'s slot and stays. The history must be linearizable, the
/// contents exact and every leaf either live or buried.
#[cfg(not(feature = "chaos-inject-bug"))]
fn drained_leaf_leaves_under_racing_inserts(n: u64, drained: [u64; 2], sep: u64, added: [u64; 2]) {
    let (set, leaves, mut insert_hints, mut read_hints) = off_schedule(|| {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        for k in (0..n).map(|x| 10 * x) {
            set.insert([k]);
        }
        let leaves = set.stats().leaf_nodes;
        let mut insert_hints = set.create_hints();
        assert!(!set.insert_hinted([drained[1]], &mut insert_hints));
        let mut read_hints = set.create_hints();
        assert!(set.contains_hinted(&[drained[0]], &mut read_hints));
        for k in drained {
            assert!(set.remove(&[k]));
        }
        (set, leaves, insert_hints, read_hints)
    });
    let rec = Arc::new(Recorder::new());
    let (below, above) = (drained[0] - 10, sep + 10);
    // The checker starts from an empty set: the keys the history touches
    // entered it during the setup.
    for k in [below, sep, above] {
        rec.run(0, Op::Insert(vec![k]), || set.contains(&[k]));
    }
    let remover = {
        let (set, rec) = (set.clone(), rec.clone());
        chaos::thread::spawn(move || {
            assert!(rec.run(0, Op::Remove(vec![sep]), || set.remove(&[sep])));
        })
    };
    let inserter = {
        let (set, rec) = (set.clone(), rec.clone());
        chaos::thread::spawn(move || {
            let k = added[0];
            let fresh = rec.run(1, Op::Insert(vec![k]), || set.insert([k]));
            assert!(fresh, "{k} was never in the tree");
        })
    };
    let hinted = {
        let (set, rec) = (set.clone(), rec.clone());
        chaos::thread::spawn(move || {
            let k = added[1];
            let fresh = rec.run(2, Op::Insert(vec![k]), || {
                set.insert_hinted([k], &mut insert_hints)
            });
            assert!(fresh, "{k} was never in the tree");
            for k in [below, added[0], added[1], sep, above] {
                rec.run(2, Op::Contains(vec![k]), || {
                    set.contains_hinted(&[k], &mut read_hints)
                });
            }
            // A bound's position is validated, the keys the iterator then
            // reads are not (iteration is phase-concurrent): a slot at or
            // after the bound only ever takes an inserted key or one above
            // it, and a cursor in a buried leaf climbs out.
            let at = set
                .lower_bound_hinted(&[added[0] + 1], &mut read_hints)
                .next();
            assert!(
                at.is_none_or(|[x]| x >= added[0]),
                "lower_bound({}) = {at:?}",
                added[0] + 1
            );
        })
    };
    remover.join();
    inserter.join();
    hinted.join();
    for k in added.into_iter().chain([sep]) {
        rec.run(0, Op::Contains(vec![k]), || set.contains(&[k]));
    }
    let history = Arc::try_unwrap(rec)
        .expect("all threads joined")
        .into_history();
    check_set_history(&history).unwrap();
    let base = (0..n)
        .map(|x| 10 * x)
        .filter(|k| !drained.contains(k) && *k != sep);
    assert_holds(&set, base, &added);
    let stats = set.stats();
    assert_eq!(stats.leaf_nodes + stats.buried_leaves, leaves, "{stats:?}");
    assert!(stats.graveyard_len <= 1, "{stats:?}");
}

/// The splice: keys 0, 10, .. 70 make the root [20 50] over [0 10] [30 40]
/// [60 70]. [30 40] is drained; removing 50 finds the whole subtree left
/// of it empty and drops 50 and the leaf from the root together, while 35
/// and 45 are inserted into the leaf's range.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn a_drained_leaf_leaves_with_its_separator_under_stale_hints() {
    explore_densely(|| drained_leaf_leaves_under_racing_inserts(8, [30, 40], 50, [35, 45]));
}

/// Below an inner donor: keys 0, 10, .. 170 make the root [80] over
/// [20 50] over [0 10] [30 40] [60 70]. [60 70] is drained; removing 80
/// pulls 50 up out of [20 50] and buries the drained leaf that was its
/// right child, while 65 and 75 are inserted into the leaf's range.
#[cfg(not(feature = "chaos-inject-bug"))]
#[test]
fn a_drained_chain_leaves_below_an_inner_donor() {
    explore_densely(|| drained_leaf_leaves_under_racing_inserts(18, [60, 70], 80, [65, 75]));
}

/// Mutation self-test for the descent's lease validation: with the planted
/// `chaos-inject-bug` defect compiled in (an interior rank skips the
/// per-node lease validation in the descent every lookup, insert and
/// remove shares), an inserter that ranks its key in the root, gets
/// parked, and resumes after the writer's run has *root-split* that node
/// proceeds on a stale lease over the halved old root and routes its key
/// into a subtree that no longer covers it. The
/// harness must surface the misplaced key (an invariant violation or a
/// failed membership check) within a bounded seed budget — proving the
/// chaos checkpoints on the descent give the scheduler the preemption
/// points it needs. PCT depth 1 supplies the single demotion that opens
/// the rank-to-child-read window.
#[cfg(all(chaos, feature = "chaos-inject-bug"))]
#[test]
fn planted_descent_bug_is_caught() {
    let out = chaos::find_failure(&chaos::Config::pct(1), 0..256, || {
        let set: Arc<BTreeSet<1, 4>> = Arc::new(BTreeSet::new());
        for k in [0u64, 10, 20, 30, 40] {
            set.insert([k]);
        }
        let low = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in 1u64..=16 {
                    set.insert([k]);
                }
            })
        };
        let high = {
            let set = set.clone();
            chaos::thread::spawn(move || {
                for k in [50u64, 60, 70] {
                    set.insert([k]);
                }
            })
        };
        low.join();
        high.join();
        set.check_invariants().expect("structure corrupted");
        for k in (0u64..=16).chain([20, 30, 40, 50, 60, 70]) {
            assert!(set.contains(&[k]), "key {k} lost");
        }
    });
    let out = out.expect(
        "the planted descent-validation bug must be caught within 256 seeds; \
         if this fails the harness has lost its bug-finding power",
    );
    println!(
        "planted descent bug caught at seed {} after {} steps (trace {:#018x})",
        out.seed, out.steps, out.trace_hash
    );
}

/// Mutation self-test for the append hint's fence: with the planted
/// `chaos-inject-bug` defect compiled in (the tuple is not compared with
/// the fence the walk found), an append decided after the first root split
/// lands in the old root leaf although the separator above it is smaller.
/// The harness must surface the misplaced key within a bounded seed budget;
/// PCT's priorities are what let the splitter's two inserts run ahead of
/// the appender's one, which a fair random walk all but never does.
#[cfg(all(chaos, feature = "chaos-inject-bug"))]
#[test]
fn planted_fence_bug_is_caught() {
    let out = chaos::find_failure(
        &chaos::Config::pct(1),
        0..256,
        root_leaf_append_races_the_first_root_split,
    );
    let out = out.expect(
        "the planted fence bug must be caught within 256 seeds; if this fails \
         the append-hint models no longer reach the fence",
    );
    let failure = out.failure.unwrap_or_default();
    println!(
        "planted fence bug caught at seed {} after {} steps (trace {:#018x}): {}",
        out.seed,
        out.steps,
        out.trace_hash,
        failure.lines().next().unwrap_or_default()
    );
}

/// Mutation self-test for the predecessor swap: with the planted
/// `chaos-inject-bug` defect compiled in (the spine of an inner-key removal
/// is released with every version restored, the donor's included), a
/// reader holding a lease on [3 4] from before the swap validates it after,
/// finds only 3 and reports 4 absent while it sits in the root. The window
/// is one preemption point per lookup, between the reader's last root
/// validation and its first read of the leaf. With every planted defect
/// compiled in, PCT at depth 2 fails the model at seed 51; so does the
/// descent's defect alone, which lookups run too. The spine's defect alone
/// failed it at seed 345 at depth 2 and at seed 307 at depth 1, so the
/// budget is 512 seeds at depth 2.
#[cfg(all(chaos, feature = "chaos-inject-bug"))]
#[test]
fn planted_predecessor_swap_bug_is_caught() {
    let out = chaos::find_failure(
        &chaos::Config::pct(2),
        0..512,
        predecessor_swap_races_a_reader,
    );
    let out = out.expect(
        "the planted predecessor-swap bug must be caught within 512 seeds; if \
         this fails the removal models no longer reach a lease across the swap",
    );
    let failure = out.failure.unwrap_or_default();
    println!(
        "planted predecessor-swap bug caught at seed {} after {} steps (trace {:#018x}): {}",
        out.seed,
        out.steps,
        out.trace_hash,
        failure.lines().next().unwrap_or_default()
    );
}
