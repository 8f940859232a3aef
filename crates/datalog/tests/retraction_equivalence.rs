//! Model-checked retraction tier: after `retract_facts`, the database must
//! be **indistinguishable** from evaluating the program without the
//! withdrawn facts from scratch — on every storage backend, at every
//! thread count, against an independent reference closure computed over
//! std sets (not through the engine at all).
//!
//! Scenarios cover single retractions, multi-fact batches, facts with
//! multiple derivations, retract-then-reassert round trips, stratified
//! negation (where retraction *grows* relations), and draining a program
//! to empty one fact at a time.

use datalog::{parse, Engine, StorageKind};
use std::collections::BTreeSet;
use workloads::graphs;

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

/// Thread counts to exercise. `DATALOG_TEST_THREADS` (used by the CI smoke
/// matrix) appends an extra count.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    if let Ok(extra) = std::env::var("DATALOG_TEST_THREADS") {
        if let Ok(n) = extra.trim().parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

fn edge_facts(edges: &[(u64, u64)]) -> impl Iterator<Item = Vec<u64>> + '_ {
    edges.iter().map(|&(a, b)| vec![a, b])
}

/// Evaluates TC over `edges`, retracts `gone`, and returns `path`.
fn tc_retract(
    edges: &[(u64, u64)],
    gone: &[(u64, u64)],
    kind: StorageKind,
    threads: usize,
) -> Vec<Vec<u64>> {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, kind, threads).unwrap();
    engine.add_facts("edge", edge_facts(edges)).unwrap();
    engine.run().unwrap();
    engine
        .retract_facts(
            gone.iter()
                .map(|&(a, b)| ("edge".to_string(), vec![a, b]))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    engine.relation("path").unwrap()
}

/// The ground truth: reference closure over the surviving edges, computed
/// without the engine.
fn surviving_tc(edges: &[(u64, u64)], gone: &[(u64, u64)]) -> Vec<Vec<u64>> {
    let gone: BTreeSet<(u64, u64)> = gone.iter().copied().collect();
    let kept: Vec<(u64, u64)> = edges
        .iter()
        .copied()
        .filter(|e| !gone.contains(e))
        .collect();
    graphs::reference_tc(&kept)
        .into_iter()
        .map(|(a, b)| vec![a, b])
        .collect()
}

/// Runs one workload/retraction pair over the full backend × thread matrix.
fn check_matrix(name: &str, edges: Vec<(u64, u64)>, gone: Vec<(u64, u64)>) {
    let expect = surviving_tc(&edges, &gone);
    let sharded = [1, 2, 8].map(StorageKind::ShardedBTree);
    for kind in StorageKind::ALL.into_iter().chain(sharded) {
        for threads in thread_counts() {
            let got = tc_retract(&edges, &gone, kind, threads);
            assert_eq!(
                got, expect,
                "{name}: retraction on {kind:?} with {threads} threads \
                 disagrees with from-scratch reference"
            );
        }
    }
}

#[test]
fn chain_single_edge_cut() {
    let edges = graphs::chain(40);
    check_matrix("chain-cut", edges, vec![(20, 21)]);
}

#[test]
fn chain_batch_of_cuts() {
    let edges = graphs::chain(48);
    check_matrix("chain-batch", edges, vec![(5, 6), (17, 18), (33, 34)]);
}

#[test]
fn grid_batch_keeps_multi_derivation_paths() {
    // Grid nodes have many routes between them: most overdeleted paths
    // must come back through rederivation.
    let edges = graphs::grid(7);
    let gone = vec![edges[3], edges[19], edges[41]];
    check_matrix("grid-batch", edges, gone);
}

#[test]
fn random_graph_ten_percent_retraction() {
    let edges = graphs::random_graph(36, 3, 0xC0FFEE);
    let gone: Vec<(u64, u64)> = edges.iter().copied().step_by(10).collect();
    check_matrix("random-10pct", edges, gone);
}

#[test]
fn retracting_missing_edges_changes_nothing() {
    let edges = graphs::chain(20);
    check_matrix("noop", edges, vec![(100, 101), (7, 3)]);
}

#[test]
fn retract_everything_drains_all_relations() {
    let edges = graphs::chain(16);
    for kind in StorageKind::ALL {
        let program = parse(TC_PROGRAM).unwrap();
        let mut engine = Engine::new(&program, kind, 4).unwrap();
        engine.add_facts("edge", edge_facts(&edges)).unwrap();
        engine.run().unwrap();
        engine
            .retract_facts(
                edges
                    .iter()
                    .map(|&(a, b)| ("edge".to_string(), vec![a, b]))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        assert_eq!(engine.relation_len("edge").unwrap(), 0, "{kind:?}");
        assert_eq!(engine.relation_len("path").unwrap(), 0, "{kind:?}");
        assert_eq!(engine.edb_len("edge").unwrap(), 0, "{kind:?}");
    }
}

#[test]
fn one_at_a_time_matches_batch() {
    // Sequential single-fact retractions must converge to the same
    // database as one batch retraction.
    let edges = graphs::grid(5);
    let gone = [edges[2], edges[11], edges[23]];
    for kind in [StorageKind::SpecBTree, StorageKind::GBTreeLocked] {
        let program = parse(TC_PROGRAM).unwrap();
        let mut seq = Engine::new(&program, kind, 4).unwrap();
        seq.add_facts("edge", edge_facts(&edges)).unwrap();
        seq.run().unwrap();
        for &(a, b) in &gone {
            seq.retract_fact("edge", &[a, b]).unwrap();
        }
        let expect = surviving_tc(&edges, &gone);
        assert_eq!(seq.relation("path").unwrap(), expect, "{kind:?}");
    }
}

#[test]
fn retract_then_reassert_round_trips() {
    let edges = graphs::random_graph(24, 2, 42);
    for kind in StorageKind::ALL {
        let program = parse(TC_PROGRAM).unwrap();
        let mut engine = Engine::new(&program, kind, 4).unwrap();
        engine.add_facts("edge", edge_facts(&edges)).unwrap();
        engine.run().unwrap();
        let before = engine.relation("path").unwrap();
        for &(a, b) in edges.iter().take(4) {
            engine.retract_fact("edge", &[a, b]).unwrap();
        }
        for &(a, b) in edges.iter().take(4) {
            engine.add_fact("edge", &[a, b]).unwrap();
        }
        engine.run().unwrap();
        assert_eq!(
            engine.relation("path").unwrap(),
            before,
            "{kind:?}: retract + reassert + run must restore the closure"
        );
    }
}

#[test]
fn edb_fact_shadowed_by_derivation_survives_retraction() {
    // path(1,3) asserted directly and also derivable; withdrawing the
    // assertion must keep the derived tuple (and vice versa removing the
    // edges must keep the assertion).
    let program = parse(TC_PROGRAM).unwrap();
    for kind in StorageKind::ALL {
        let mut engine = Engine::new(&program, kind, 2).unwrap();
        engine
            .add_facts("edge", edge_facts(&[(1, 2), (2, 3)]))
            .unwrap();
        engine.add_fact("path", &[1, 3]).unwrap();
        engine.run().unwrap();
        engine.retract_fact("path", &[1, 3]).unwrap();
        assert!(
            engine.query("path", &[1, 3]).unwrap().contains(&vec![1, 3]),
            "{kind:?}: derived path(1,3) must survive"
        );

        let mut engine = Engine::new(&program, kind, 2).unwrap();
        engine
            .add_facts("edge", edge_facts(&[(1, 2), (2, 3)]))
            .unwrap();
        engine.add_fact("path", &[1, 3]).unwrap();
        engine.run().unwrap();
        engine.retract_fact("edge", &[2, 3]).unwrap();
        assert!(
            engine.query("path", &[1, 3]).unwrap().contains(&vec![1, 3]),
            "{kind:?}: asserted path(1,3) must survive losing its edges"
        );
        assert!(
            !engine.query("path", &[2, 3]).unwrap().contains(&vec![2, 3]),
            "{kind:?}: path(2,3) had only one derivation"
        );
    }
}

const UNREACH_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl node(x: number)
    .decl path(x: number, y: number)
    .decl unreach(x: number, y: number)
    .output unreach
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
    unreach(x, y) :- node(x), node(y), !path(x, y).
"#;

#[test]
fn negation_strata_recompute_to_reference() {
    // Retraction through `!path` grows `unreach`; the fallback recompute
    // must land exactly on the from-scratch result.
    let n = 8u64;
    let edges = graphs::chain(n);
    let program = parse(UNREACH_PROGRAM).unwrap();
    for kind in StorageKind::ALL {
        for threads in [1, 4] {
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            engine.add_facts("edge", edge_facts(&edges)).unwrap();
            engine.add_facts("node", (1..=n).map(|i| vec![i])).unwrap();
            engine.run().unwrap();
            let out = engine.retract_fact("edge", &[4, 5]).unwrap();
            assert!(out.recomputed_strata > 0, "{kind:?}: fallback expected");

            let mut oracle = Engine::new(&program, kind, threads).unwrap();
            oracle
                .add_facts(
                    "edge",
                    edges
                        .iter()
                        .filter(|&&e| e != (4, 5))
                        .map(|&(a, b)| vec![a, b]),
                )
                .unwrap();
            oracle.add_facts("node", (1..=n).map(|i| vec![i])).unwrap();
            oracle.run().unwrap();
            for rel in ["path", "unreach"] {
                assert_eq!(
                    engine.relation(rel).unwrap(),
                    oracle.relation(rel).unwrap(),
                    "{kind:?} × {threads}t: {rel} diverged through negation"
                );
            }
        }
    }
}

#[test]
fn retracting_an_asserted_fact_of_a_recomputed_relation() {
    // b(5) is asserted, not derived, and b's stratum negates the dirty c:
    // the batch seeds a relation that delete–rederive never touches, since
    // the fallback recomputes it. c(1) going lets b(1) in; b(5) goes.
    let program = parse(
        r#"
        .decl a(x: number)
        .decl c(x: number)
        .decl b(x: number)
        b(x) :- a(x), !c(x).
    "#,
    )
    .unwrap();
    let sharded = [1, 2, 8].map(StorageKind::ShardedBTree);
    for kind in StorageKind::ALL.into_iter().chain(sharded) {
        for threads in thread_counts() {
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            engine.add_facts("a", [vec![1], vec![2]]).unwrap();
            engine.add_fact("c", &[1]).unwrap();
            engine.add_fact("b", &[5]).unwrap();
            engine.run().unwrap();
            assert_eq!(engine.relation("b").unwrap(), [vec![2], vec![5]]);

            let batch = vec![("c".to_string(), vec![1]), ("b".to_string(), vec![5])];
            let out = engine.retract_facts(batch).unwrap();
            assert_eq!(out.retracted_inputs, 2, "{kind:?} × {threads}t");
            assert!(out.recomputed_strata > 0, "{kind:?}: fallback expected");
            assert_eq!(
                engine.relation("b").unwrap(),
                [vec![1], vec![2]],
                "{kind:?} × {threads}t"
            );
            assert!(engine.relation("c").unwrap().is_empty());
        }
    }
}

#[test]
fn same_generation_multi_stratum_retraction() {
    // Two joined recursive relations: sg depends on itself twice, so
    // delta rederivation has two versions per rule.
    let src = r#"
        .decl parent(x: number, y: number)
        .decl sg(x: number, y: number)
        .output sg
        sg(x, y) :- parent(p, x), parent(p, y).
        sg(x, y) :- parent(a, x), sg(a, b), parent(b, y).
    "#;
    let program = parse(src).unwrap();
    // A binary tree of depth 4: node i has children 2i and 2i+1.
    let parents: Vec<(u64, u64)> = (1..16u64)
        .flat_map(|i| [(i, 2 * i), (i, 2 * i + 1)])
        .collect();
    for kind in [StorageKind::SpecBTree, StorageKind::ConcurrentHashSet] {
        for threads in [1, 8] {
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            engine
                .add_facts("parent", parents.iter().map(|&(a, b)| vec![a, b]))
                .unwrap();
            engine.run().unwrap();
            engine.retract_fact("parent", &[2, 5]).unwrap();
            engine.retract_fact("parent", &[3, 6]).unwrap();

            let mut oracle = Engine::new(&program, kind, threads).unwrap();
            oracle
                .add_facts(
                    "parent",
                    parents
                        .iter()
                        .filter(|&&p| p != (2, 5) && p != (3, 6))
                        .map(|&(a, b)| vec![a, b]),
                )
                .unwrap();
            oracle.run().unwrap();
            assert_eq!(
                engine.relation("sg").unwrap(),
                oracle.relation("sg").unwrap(),
                "{kind:?} × {threads}t: same-generation diverged"
            );
        }
    }
}

#[test]
fn retraction_stats_accumulate() {
    let edges = graphs::chain(30);
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 4).unwrap();
    engine.add_facts("edge", edge_facts(&edges)).unwrap();
    engine.run().unwrap();
    let o1 = engine.retract_fact("edge", &[10, 11]).unwrap();
    let o2 = engine.retract_fact("edge", &[20, 21]).unwrap();
    assert!(o1.overdeleted > 0 && o2.overdeleted > 0);
    let stats = engine.stats();
    assert_eq!(stats.retracted_inputs, 2);
    assert_eq!(
        stats.overdeleted_tuples,
        o1.overdeleted + o2.overdeleted,
        "overdeletion counts accumulate across passes"
    );
    assert!(stats.removes >= stats.overdeleted_tuples);
}

#[test]
fn storage_report_shows_retraction_scars() {
    // A retraction-heavy workload leaves visible structural scars on the
    // specialized B-tree: drained-and-buried leaves (graveyard). The
    // storage report is how those become observable.
    let edges = graphs::chain(400);
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 4).unwrap();
    engine.add_facts("edge", edge_facts(&edges)).unwrap();
    engine.run().unwrap();

    let before = engine.storage_report();
    assert_eq!(before.relations.len(), 2, "edge and path");
    let path_before = before
        .relations
        .iter()
        .find(|r| r.name == "path")
        .expect("path relation reported");
    let tree_before = path_before.tree.as_ref().expect("B-tree backed");
    assert_eq!(tree_before.keys as usize, path_before.len);
    assert_eq!(tree_before.graveyard_len, 0, "no removals yet");

    // Cut the chain near the head: most of `path` disappears.
    engine.retract_fact("edge", &[10, 11]).unwrap();
    let after = engine.storage_report();
    let path_after = after
        .relations
        .iter()
        .find(|r| r.name == "path")
        .expect("path relation reported");
    let tree = path_after.tree.as_ref().expect("B-tree backed");
    assert_eq!(tree.keys as usize, path_after.len);
    assert!(path_after.len < path_before.len, "retraction shrank path");
    assert!(
        tree.graveyard_len > 0,
        "mass removal buries drained leaves: {tree:?}"
    );
    assert!(tree.abandoned_bytes > 0);
    let (_, buried, abandoned) = after.totals();
    assert!(buried >= tree.graveyard_len && abandoned >= tree.abandoned_bytes);
    // Both renderings stay consistent with the numbers.
    assert!(after.to_table().contains("path"));
    let json = after.to_json();
    assert!(json.contains("\"name\": \"path\"") && json.contains("\"graveyard_len\""));
}

/// What one retraction did, without a clock: the outcome's counts and the
/// operations the engine and its workers issued for it.
#[derive(Debug, PartialEq, Eq)]
struct RetractionWork {
    retracted_inputs: u64,
    overdeleted: u64,
    rederived: u64,
    recomputed_strata: u64,
    net_removed: i64,
    tuples_scanned: u64,
    tuples_emitted: u64,
    membership_tests: u64,
    lower_bound_calls: u64,
}

#[test]
fn retraction_work_is_pinned() {
    // One scenario through all four phases, one thread, planner on: a grid
    // (every overdeleted path has other routes, so rederivation runs its
    // batched seed pass and its semi-naive rounds), an asserted `path` fact
    // that the overdeletion takes and the EDB puts back, and a stratum
    // negating `path` that the fallback recomputes. The numbers are those
    // of the commit before `retract_facts` was split into its phases: the
    // split runs the same plans over the same batches, not merely to the
    // same database.
    let side = 12u64;
    let edges = graphs::grid(side);
    let gone = [edges[7], edges[60], edges[61], edges[150]];
    let program = parse(UNREACH_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_facts("edge", edge_facts(&edges)).unwrap();
    engine
        .add_facts("node", (0..side * side).map(|i| vec![i]))
        .unwrap();
    engine
        .add_fact("path", &[gone[0].0, gone[0].1 + 1])
        .unwrap();
    engine.run().unwrap();
    engine.reset_stats();
    let out = engine
        .retract_facts(gone.map(|(a, b)| ("edge".to_string(), vec![a, b])))
        .unwrap();
    let stats = engine.stats();
    let work = RetractionWork {
        retracted_inputs: out.retracted_inputs,
        overdeleted: out.overdeleted,
        rederived: out.rederived,
        recomputed_strata: out.recomputed_strata,
        net_removed: out.net_removed,
        tuples_scanned: stats.tuples_scanned,
        tuples_emitted: stats.tuples_emitted,
        membership_tests: stats.membership_tests,
        lower_bound_calls: stats.lower_bound_calls,
    };
    let pinned = RetractionWork {
        retracted_inputs: 4,
        overdeleted: 2220,
        rederived: 2075,
        recomputed_strata: 1,
        net_removed: 4,
        tuples_scanned: 145_852,
        tuples_emitted: 19_227,
        membership_tests: 160_245,
        lower_bound_calls: 8_488,
    };
    assert_eq!(work, pinned);
}
