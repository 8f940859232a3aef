//! Telemetry wiring, end to end: one contended phase on a shared tree and
//! one two-worker Datalog run with a retraction, read back through the
//! three facilities — counters, histograms, spans. A probe that no layer
//! fires any more, or a restart cause that stops being counted, fails here.
//!
//! The root package forwards `telemetry` to every layer, so this runs under
//! `cargo test --workspace --features telemetry` (CI's `feature-matrix`,
//! `on` leg) and compiles to an empty test binary everywhere else. The
//! feature-off guarantees are unit tests of `telemetry` and `bench-suite`.
//!
//! One `#[test]`: counters and span buffers are process-global, so a second
//! test in this binary would drain and bump under the first one's feet.

#![cfg(feature = "telemetry")]

use concurrent_datalog_btree::datalog::{parse, Engine, StorageKind};
use concurrent_datalog_btree::specbtree::BTreeSet;
use std::collections::BTreeSet as Set;
use workloads::graphs;

/// Writers insert interleaved keys of one narrow range — key order is
/// `i`-major, thread-minor, so every leaf is shared — while readers probe
/// the same range: the regime in which leases fail to validate, upgrades
/// lose and Algorithm 1 restarts.
fn contended_inserts(per_thread: u64, writers: u64, readers: u64) {
    let tree: BTreeSet<2> = BTreeSet::new();
    std::thread::scope(|s| {
        for w in 0..writers {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..per_thread {
                    tree.insert([i, w]);
                }
            });
        }
        for r in 0..readers {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..per_thread {
                    std::hint::black_box(tree.contains(&[i, r]));
                }
            });
        }
    });
    assert_eq!(tree.len() as u64, per_thread * writers);
}

/// Transitive closure of a grid on two workers, then one edge withdrawn.
/// The grid's middle deltas hold a thousand tuples and more: deep enough for
/// `partition` to cut, so both the plans and the merges put the second
/// worker to work (a delta no deeper than a root over leaves stays, plan and
/// merge, on the calling thread).
fn grid_tc_with_a_retraction(side: u64) {
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl path(x: number, y: number)
        .output path
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
    "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    let edges = graphs::grid(side);
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    let (a, b) = edges[edges.len() / 2];
    engine.retract_fact("edge", &[a, b]).unwrap();
}

#[test]
fn every_layer_reports_and_the_restart_causes_add_up() {
    let before = telemetry::snapshot();
    assert!(before.enabled);
    telemetry::spans::drain_all();

    contended_inserts(20_000, 4, 2);
    let between = telemetry::snapshot();
    grid_tc_with_a_retraction(14);

    let after = telemetry::snapshot();
    let counted = |name: &str| after.counter(name) - before.counter(name);
    let recorded = |name: &str| {
        let (new, old) = (after.hist(name).unwrap(), before.hist(name).unwrap());
        (new.count - old.count, new.sum - old.sum)
    };

    // Every restart has exactly one cause, and every insert records how
    // often it restarted. An unhinted insert into a full leaf splits it and
    // restarts, so there are restarts to add up even on one core.
    let restarts = counted("specbtree.insert_restarts");
    let causes = counted("specbtree.restart_descend")
        + counted("specbtree.restart_leaf_upgrade")
        + counted("specbtree.restart_split_retry");
    let (inserts, restarts_by_op) = recorded("specbtree.insert_restarts_per_op");
    assert!(restarts > 0, "80 000 inserts split no leaf");
    assert_eq!(restarts, causes, "a restart without a cause counter");
    assert_eq!(restarts, restarts_by_op, "over {inserts} inserts");
    assert!(inserts >= 80_000, "{inserts} inserts recorded");

    for name in [
        "optlock.read_validations",
        "optlock.write_acquisitions",
        "specbtree.leaf_splits",
        "datalog.iterations",
    ] {
        assert!(counted(name) > 0, "{name} never counted");
    }
    for name in [
        "datalog.delta_tuples",
        "datalog.chunk_nanos",
        "datalog.stratum_nanos",
    ] {
        assert!(recorded(name).0 > 0, "{name} never recorded");
    }

    // Head tuples reach the trees as runs — a flushed batch anti-joined
    // with `path`, merged into its `new` table, and `new` folded into `path`
    // — and a descent serves a leaf group, not a key, on a grid whose batches
    // hold from a few dozen tuples to a few thousand.
    let in_runs = |name: &str| after.counter(name) - between.counter(name);
    let (keys, descents) = (
        in_runs("specbtree.run_keys"),
        in_runs("specbtree.run_descents"),
    );
    assert!(keys > 0 && descents > 0, "no run reached a tree");
    assert!(
        descents < keys,
        "{keys} run keys took {descents} descents: {:.1} keys a descent (46 223–46 285 took 1 647–1 714, 27–28, when this was written)",
        keys as f64 / descents as f64
    );

    // A parallel fixpoint that traces one thread or one phase is a wiring
    // regression; the trace format itself is `trace_export`'s to test.
    let spans = telemetry::spans::drain_all();
    let labels: Set<&str> = spans.iter().map(|r| r.label).collect();
    let tids: Set<u64> = spans.iter().map(|r| r.tid).collect();
    assert!(labels.len() >= 4, "span labels: {labels:?}");
    assert!(tids.len() >= 2, "span threads: {tids:?}");
    assert!(spans.iter().all(|r| r.begin_ns <= r.end_ns));
}
