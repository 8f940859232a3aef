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

mod common;

use common::thread_counts;
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

/// Every backend at every thread count.
fn every_kind_and_thread_count() -> impl Iterator<Item = (StorageKind, usize)> {
    let threads = |kind| thread_counts().into_iter().map(move |t| (kind, t));
    StorageKind::ALL.into_iter().flat_map(threads)
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
    for (kind, threads) in every_kind_and_thread_count() {
        let got = tc_retract(&edges, &gone, kind, threads);
        assert_eq!(
            got, expect,
            "{name}: retraction on {kind:?} with {threads} threads \
             disagrees with from-scratch reference"
        );
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

#[test]
fn retracting_from_a_database_with_facts_added_since_the_run() {
    // Edges added after the run, and not evaluated yet, extend the closure
    // of the paths the two retracted edges carried. Rederivation propagates
    // through the run's own versions, so it may derive what the pending
    // edges imply as well: what it leaves must still be sound, and the run
    // after it must land on the from-scratch closure.
    let edges = graphs::grid(10);
    let pending = [(99, 100), (100, 101), (0, 78), (78, 200)];
    let gone = [(77, 78), (88, 98)];
    let all: Vec<(u64, u64)> = edges.iter().chain(&pending).copied().collect();
    let expect = surviving_tc(&all, &gone);
    let program = parse(TC_PROGRAM).unwrap();
    for (kind, threads) in every_kind_and_thread_count() {
        for planner in [true, false] {
            let what = format!("{kind:?} × {threads}t, planner on: {planner}");
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            engine.set_planner_enabled(planner);
            engine.add_facts("edge", edge_facts(&edges)).unwrap();
            engine.run().unwrap();
            engine.add_facts("edge", edge_facts(&pending)).unwrap();
            let batch = gone.map(|(a, b)| ("edge".to_string(), vec![a, b]));
            let out = engine.retract_facts(batch).unwrap();
            assert_eq!(out.retracted_inputs, 2, "{what}");
            assert!(out.rederived > 0, "{what}: {out:?}");
            assert_eq!(out.recomputed_strata, 0, "{what}: {out:?}");
            let path = engine.relation("path").unwrap();
            let sound = path.iter().all(|t| expect.binary_search(t).is_ok());
            assert!(sound, "{what}: a path the remaining edges do not imply");
            engine.run().unwrap();
            assert_eq!(engine.relation("path").unwrap(), expect, "{what}");
        }
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
    for (kind, threads) in every_kind_and_thread_count() {
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
    // Tail cuts: each deletes under a quarter of `path`, so both are repaired
    // tuple by tuple (a recomputed stratum is replaced, not removed from).
    let o1 = engine.retract_fact("edge", &[28, 29]).unwrap();
    let o2 = engine.retract_fact("edge", &[26, 27]).unwrap();
    assert!(o1.overdeleted > 0 && o2.overdeleted > 0);
    assert_eq!(o1.recomputed_strata + o2.recomputed_strata, 0);
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
    /// `lower_bound_calls` less the one descent that opens each range chunk
    /// of an outer scan: the range queries of inner scans.
    inner_range_queries: u64,
}

#[test]
fn retraction_work_is_pinned() {
    // One scenario through all four phases, one thread, planner on: a grid
    // (every overdeleted path has other routes, so rederivation runs its
    // seed batch and the run's semi-naive loop), an asserted `path` fact that the
    // overdeletion takes and the EDB puts back, and a stratum negating
    // `path` that the fallback recomputes. `path`'s 2 220 deletions are a
    // tenth of what recomputing from its stratum rebuilds (`path` and
    // `unreach`, 20 736 tuples), so it is repaired, not handed over.
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
        inner_range_queries: stats.lower_bound_calls - stats.chunks_claimed,
    };
    // The outcome's counts and `tuples_emitted` (but for one, below) are
    // those of the commit before `retract_facts` was split into phases: the
    // same tuples are deleted and re-proved. The operation counts fell when
    // deletion sets
    // entered the cost model at their sizes:
    let pinned = RetractionWork {
        retracted_inputs: 4,
        overdeleted: 2220,
        rederived: 2075,
        recomputed_strata: 1,
        net_removed: 4,
        // 145 852 before. 96 435 of those were the rederive rounds sweeping
        // the whole of Δ⁻path once per delta version per round (costed at 1
        // it was ordered next to the delta, stranded, and swapped for the
        // source-order version it is the outer scan of); it is now a probe
        // behind the body. 10 190 more went with the seed pass's two
        // hand-rolled plans and the fixed-size batches it tried one in before
        // switching to the other: the seed version is now one plan, ordered
        // by cost. 39 227 while the asserted `path` fact went back before
        // the seed batch ran: it now goes back with the seeds' tuples, and
        // the seeds' scans of `path` no longer meet it. 39 225 while the
        // retraction priced a new index at nothing and built `path[1,0]`
        // (three walks of `path`, uncounted): the Δ⁻edge overdelete version
        // now sweeps `path` (5 940 tuples) once for its block of four
        // deleted edges, and the rederive seed version scans `edge` and
        // sweeps `~del~path` (2 216) once for its 264 bindings, each pass
        // counted as what it read.
        tuples_scanned: 45_506,
        // 19 227 while the asserted `path` fact went back into the seed
        // batch's `new` table uncounted: it is now a run of its own, and the
        // merge counts every tuple it adds.
        tuples_emitted: 19_228,
        // 160 245 before: every swept Δ⁻path tuple probed `edge` and `path`.
        // 57 288 until head tuples went to the trees in sorted batches: this
        // counts calls issued, and a batch drops its duplicates first.
        // 55 608 while a merge spliced what sorted behind its target's last
        // key in as a subtree of its own: this count and the next follow
        // tree shape (a flush per range chunk, a batch's duplicates dropped
        // per flush), and only they moved when every merge became runs.
        // 55 605 while a body check was one `contains` per binding and a
        // batch was flushed where each chunk ended: a check now makes one
        // per distinct tuple of a sorted block, and blocks and batches span
        // a worker's chunks. 51 964 while rederivation iterated versions of
        // its own, `path :- ~del~path, …, Δbi, …`, each ending in a probe of
        // Δ⁻path: the run's versions propagate now and the merge of the
        // emitted runs alone filters (3 272 fewer with the asserted fact put
        // back first, as before; 8 more as it goes back with the seeds).
        // 48 700 while the rederive seed version read `path[1,0]` and
        // probed `~del~path` for each match: it now sweeps `~del~path` and
        // probes `path` for each of its matches, which are fewer.
        membership_tests: 47_212,
        // 8 488 before: one range query per deletion in the seed batches.
        // 4 758 while the side tables, filled in join order, split their
        // leaves in half and were cut into 59 range chunks; filled in key
        // order they are cut into 38, and into 31 (4 737 calls before) since
        // no merge leaves a spliced tail. 4 730 and 4 699 while a plan's first
        // inner scan issued one range query per outer tuple: it issues one per
        // distinct key of a sorted block of them now, and the join still looks
        // up once per tuple, which the scans and emits above hold. 677 and
        // 646 while a scan with no bound prefix swept its relation once per
        // binding: 143 such sweeps are now one per block. 534 and 503 while
        // the two versions above read `path[1,0]` once per distinct key:
        // each keyed sweep is now one read a block.
        lower_bound_calls: 391,
        inner_range_queries: 360,
    };
    assert_eq!(work, pinned);
}

/// The benchmark's `pointsto` shape: withdrawing one `load` fact overdeletes
/// all but a dozen of the 14 040 derived tuples, and all come back.
#[test]
fn overdeleting_a_whole_stratum_costs_no_more_than_1_5x_evaluating_it() {
    use workloads::pointsto::{self, PointsToConfig};
    let mut facts = pointsto::generate_facts(&PointsToConfig::scaled(5), 42);
    let program = pointsto::program();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    pointsto::load_facts(&mut engine, &facts).unwrap();
    engine.run().unwrap();
    engine.reset_stats();
    let (v, w, f) = facts.loads.pop().expect("a load fact");
    let out = engine.retract_fact("load", &[v, w, f]).unwrap();
    assert_eq!(out.recomputed_strata, 1, "{out:?}");
    assert_eq!(out.rederived, 0, "handed over before anything is re-proved");

    let mut scratch = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    pointsto::load_facts(&mut scratch, &facts).unwrap();
    scratch.run().unwrap();
    for rel in ["vpt", "hpt"] {
        assert_eq!(
            engine.relation(rel).unwrap(),
            scratch.relation(rel).unwrap()
        );
    }
    let (retract, evaluate) = (
        engine.stats().tuples_scanned,
        scratch.stats().tuples_scanned,
    );
    assert!(
        2 * retract <= 3 * evaluate,
        "retraction scanned {retract} tuples, evaluation from scratch {evaluate}"
    );
}

/// DRed's promise is work in proportion to the affected derivations, not to
/// the closure: the trailing 1 % of a chain's edges carries the ~2 % of its
/// paths that cross the cut, and nothing that survives is looked at twice —
/// but for one read of the closure. The deleted edges enter `path` through
/// its second column: the first overdelete round sweeps `path` once for
/// their block of four sources. Past that pass the retraction scans at most
/// a quarter of what evaluating the rest does.
#[test]
fn cutting_the_tail_of_a_chain_scans_at_most_a_quarter_of_evaluating_the_rest() {
    let edges = graphs::chain(400);
    let (kept, gone) = edges.split_at(edges.len() - edges.len() / 100);
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_facts("edge", edge_facts(&edges)).unwrap();
    engine.run().unwrap();
    let closure = engine.relation_len("path").unwrap() as u64;
    engine.reset_stats();
    let out = engine
        .retract_facts(gone.iter().map(|&(a, b)| ("edge".to_string(), vec![a, b])))
        .unwrap();
    assert_eq!(out.retracted_inputs, gone.len() as u64);
    assert_eq!(
        out.recomputed_strata, 0,
        "repaired, not handed over: {out:?}"
    );

    let mut scratch = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    scratch.add_facts("edge", edge_facts(kept)).unwrap();
    scratch.run().unwrap();
    assert_eq!(
        engine.relation("path").unwrap(),
        scratch.relation("path").unwrap()
    );
    let (retract, evaluate) = (
        engine.stats().tuples_scanned,
        scratch.stats().tuples_scanned,
    );
    assert_eq!(
        engine.stats().index_builds,
        0,
        "the retraction swept `path`"
    );
    assert!(
        retract >= closure && 4 * (retract - closure) <= evaluate,
        "retraction scanned {retract} tuples, the closure is {closure}, \
         evaluation from scratch {evaluate}"
    );
}

/// Asserts that `engine` holds what `program` evaluates to over `facts`.
fn assert_matches_scratch(
    engine: &Engine,
    program: &datalog::Program,
    facts: &[(&str, Vec<Vec<u64>>)],
    what: &str,
) {
    let mut scratch = Engine::new(program, engine.storage_kind(), 1).unwrap();
    for (rel, tuples) in facts {
        scratch.add_facts(rel, tuples.iter().cloned()).unwrap();
    }
    scratch.run().unwrap();
    for decl in &program.decls {
        assert_eq!(
            engine.relation(&decl.name).unwrap(),
            scratch.relation(&decl.name).unwrap(),
            "{what}: {} differs from a from-scratch evaluation",
            decl.name
        );
    }
}

#[test]
fn a_stratum_is_handed_over_exactly_past_a_quarter_overdeleted() {
    // `reach` over a chain 0 → 1 → … → 99 from vertex 0: cutting the edge
    // into vertex k overdeletes reach(k..=99), one tuple a round — 1 % of
    // `reach` at k = 99, 99 % at k = 1.
    let program = parse(
        r#"
        .decl source(x: number)
        .decl edge(x: number, y: number)
        .decl reach(x: number)
        reach(x) :- source(x).
        reach(y) :- reach(x), edge(x, y).
    "#,
    )
    .unwrap();
    let n = 100u64;
    let edges = graphs::chain(n - 1);
    for (kind, threads) in every_kind_and_thread_count() {
        for lost in [1, 12, 24, 25, 26, 50, 99] {
            let what = format!("{kind:?} × {threads}t, {lost} % of reach overdeleted");
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            engine.add_fact("source", &[0]).unwrap();
            engine.add_facts("edge", edge_facts(&edges)).unwrap();
            engine.run().unwrap();
            let k = n - lost;
            let out = engine.retract_fact("edge", &[k - 1, k]).unwrap();
            let reach: Vec<Vec<u64>> = (0..k).map(|v| vec![v]).collect();
            assert_eq!(engine.relation("reach").unwrap(), reach, "{what}");
            // Four times the deletion set reach `reach`'s 100 tuples at 25,
            // and overdeletion stops right there.
            let handed_over = lost >= 25;
            assert_eq!(out.recomputed_strata, u64::from(handed_over), "{what}");
            assert_eq!(out.overdeleted, 1 + lost.min(25), "{what}");
            assert_eq!(out.rederived, 0, "{what}");
        }
    }
}

#[test]
fn a_small_stratum_under_a_large_one_is_repaired_not_recomputed() {
    // `on` loses its only tuple, but recomputing from its stratum would
    // also rebuild the 1 830 `path` tuples behind it, none of which goes.
    let program = parse(
        r#"
        .decl flag(x: number)
        .decl on(x: number)
        .decl edge(x: number, y: number)
        .decl extra(x: number, y: number)
        .decl path(x: number, y: number)
        on(x) :- flag(x).
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        path(x, y) :- on(x), extra(x, y).
    "#,
    )
    .unwrap();
    let edges = graphs::chain(60);
    for (kind, threads) in every_kind_and_thread_count() {
        let what = format!("{kind:?} × {threads}t");
        let mut engine = Engine::new(&program, kind, threads).unwrap();
        engine.add_fact("flag", &[1]).unwrap();
        engine.add_fact("extra", &[7, 9]).unwrap();
        engine.add_facts("edge", edge_facts(&edges)).unwrap();
        engine.run().unwrap();
        let paths = engine.relation_len("path").unwrap() as u64;
        engine.reset_stats();
        let out = engine.retract_fact("flag", &[1]).unwrap();
        assert_eq!((out.overdeleted, out.recomputed_strata), (2, 0), "{what}");
        assert!(engine.relation("on").unwrap().is_empty(), "{what}");
        assert_eq!(engine.relation_len("path").unwrap() as u64, paths, "{what}");
        let scanned = engine.stats().tuples_scanned;
        assert!(scanned < paths / 10, "{what}: {scanned} tuples scanned");
    }
}

#[test]
fn handing_over_a_middle_stratum() {
    // Three strata: `a` is repaired; `reach` loses the start of its chain —
    // all but one of its tuples — and is handed over, with an asserted fact
    // of its own withdrawn in the same batch; `far` negates `reach` and is
    // recomputed behind it.
    let program = parse(
        r#"
        .decl in(x: number)
        .decl a(x: number)
        .decl edge(x: number, y: number)
        .decl reach(x: number)
        .decl node(x: number)
        .decl far(x: number)
        a(x) :- in(x).
        reach(x) :- a(x).
        reach(y) :- reach(x), edge(x, y).
        far(x) :- node(x), !reach(x).
    "#,
    )
    .unwrap();
    let edges: Vec<Vec<u64>> = edge_facts(&graphs::chain(40)).collect();
    let nodes: Vec<Vec<u64>> = (0..50).map(|v| vec![v]).collect();
    for (kind, threads) in every_kind_and_thread_count() {
        let what = format!("{kind:?} × {threads}t");
        let mut engine = Engine::new(&program, kind, threads).unwrap();
        engine.add_facts("in", [vec![0], vec![45]]).unwrap();
        engine.add_facts("edge", edges.iter().cloned()).unwrap();
        engine.add_facts("node", nodes.iter().cloned()).unwrap();
        engine.add_fact("reach", &[47]).unwrap();
        engine.run().unwrap();
        assert_eq!(engine.relation_len("far").unwrap(), 7, "{what}");

        let batch = [("in", vec![0]), ("reach", vec![47])];
        let out = engine
            .retract_facts(batch.map(|(r, t)| (r.to_string(), t)))
            .unwrap();
        assert_eq!(out.retracted_inputs, 2, "{what}");
        assert_eq!(out.recomputed_strata, 2, "{what}: reach and far");
        assert_eq!(engine.relation("a").unwrap(), [vec![45]], "{what}");
        assert_eq!(engine.relation("reach").unwrap(), [vec![45]], "{what}");
        assert_eq!(engine.relation_len("far").unwrap(), 49, "{what}");
        let facts = [
            ("in", vec![vec![45]]),
            ("edge", edges.clone()),
            ("node", nodes.clone()),
        ];
        assert_matches_scratch(&engine, &program, &facts, &what);
    }
}

#[test]
fn the_phases_of_an_outcome_add_up_to_the_call() {
    // The first retraction of a closure plans a reverse join: one deleted
    // edge, one binding, which a keyed sweep serves with one read of the
    // 101 025 paths. Nothing is built, and the sweep is the largest share
    // of the call, inside the overdelete phase.
    let edges = graphs::chain(449);
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_facts("edge", edge_facts(&edges)).unwrap();
    engine.run().unwrap();
    assert!(engine.relation_len("path").unwrap() >= 100_000);
    let indexes = engine.stats().index_builds;
    let t0 = std::time::Instant::now();
    let out = engine.retract_fact("edge", &[447, 448]).unwrap();
    let call = t0.elapsed().as_secs_f64();
    assert_eq!(engine.stats().index_builds, indexes, "an index was built");
    assert!(out.plan_seconds > 0.0);
    assert!(out.overdelete_seconds > out.plan_seconds, "{out:?}");
    let phases = out.plan_seconds
        + out.overdelete_seconds
        + out.delete_seconds
        + out.rederive_seconds
        + out.fallback_seconds;
    // A debug build ends the call with a walk of every relation checking
    // the tuple counts, outside every phase: 9–13 ms of a 92–138 ms call,
    // which left the phases at 0.90–0.92 of it. The floor holds where the
    // walk is compiled out.
    let floor = if cfg!(debug_assertions) { 0.0 } else { 0.9 };
    assert!(
        phases >= floor * call && phases <= call,
        "phases sum to {phases} s of a {call} s call: {out:?}"
    );
}

#[test]
fn an_overdelete_version_reads_its_deletion_set_as_its_outer_loop() {
    // The benchmark's `security` rule over 24 exposed hosts, each reaching
    // 100, of which 40 are sensitive. Withdrawing three sensitive hosts
    // overdeletes the 72 pairs that reach them, a tenth of `vulnerable`.
    let program = parse(
        r#"
        .decl exposed(a: number)
        .decl reach(a: number, b: number)
        .decl sensitive(b: number)
        .decl vulnerable(a: number, b: number)
        vulnerable(a, b) :- exposed(a), reach(a, b), sensitive(b).
        "#,
    )
    .unwrap();
    let exposed: Vec<Vec<u64>> = (0..24).map(|a| vec![a]).collect();
    let reach: Vec<Vec<u64>> = (0..40u64)
        .flat_map(|a| (0..100).map(move |b| vec![a, b]))
        .collect();
    let sensitive: Vec<Vec<u64>> = (0..40).map(|b| vec![b]).collect();
    let gone = [vec![3], vec![17], vec![31]];
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine
        .add_facts("exposed", exposed.iter().cloned())
        .unwrap();
    engine.add_facts("reach", reach.iter().cloned()).unwrap();
    engine
        .add_facts("sensitive", sensitive.iter().cloned())
        .unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("vulnerable").unwrap(), 24 * 40);
    engine.reset_stats();
    let batch = gone.iter().map(|t| ("sensitive".to_string(), t.clone()));
    let out = engine.retract_facts(batch).unwrap();
    assert_eq!((out.overdeleted, out.recomputed_strata), (3 + 72, 0));

    // Δ⁻sensitive is the outer loop, every exposed host crossed with each of
    // its three tuples, `reach` probed. The plan read Δ⁻sensitive where it
    // sat in the rule's body when the deletion set was first ordered
    // outermost and the cross product swapped for the flat plan: `exposed`
    // outermost, a range of `reach` for each exposed host, Δ⁻sensitive
    // probed for each of the 2 400 pairs.
    // In an overdelete round the delta of `sensitive` is its deletion set.
    let plan = engine.explain();
    let overdelete = plan.lines().find(|l| l.contains("overdelete, rule 0:"));
    let overdelete = overdelete.expect(&plan);
    assert!(
        overdelete.contains("rule 0: scan Δsensitive bind=(#0→v0) ⋈ scan exposed "),
        "{overdelete}"
    );
    // The flat plan scanned 2 496 tuples: 24 exposed hosts and their 2 400
    // `reach` pairs, and the rederive seed's 72 deleted pairs. This one
    // scans 147: 3 deleted hosts, 3 × 24 crossed exposed hosts, and the
    // same 72.
    assert_eq!(engine.stats().tuples_scanned, 147);
    let facts = [
        ("exposed", exposed),
        ("reach", reach),
        (
            "sensitive",
            sensitive
                .into_iter()
                .filter(|t| !gone.contains(t))
                .collect(),
        ),
    ];
    assert_matches_scratch(&engine, &program, &facts, "security's rule");
}
