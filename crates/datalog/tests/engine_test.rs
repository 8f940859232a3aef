//! End-to-end engine tests: known programs with independently computed
//! expected results, run across every storage backend and several thread
//! counts — the cross-product §4.3 of the paper exercises.

use datalog::{parse, Engine, StorageKind};
use std::collections::BTreeSet;

/// Reference transitive closure via repeated squaring over a set.
fn tc_reference(edges: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
    let mut path: BTreeSet<(u64, u64)> = edges.iter().copied().collect();
    loop {
        let mut next = path.clone();
        for &(x, y) in &path {
            for &(a, b) in edges {
                if a == y {
                    next.insert((x, b));
                }
            }
        }
        if next.len() == path.len() {
            return path;
        }
        path = next;
    }
}

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .input edge
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

fn run_tc(edges: &[(u64, u64)], kind: StorageKind, threads: usize) -> BTreeSet<(u64, u64)> {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, kind, threads).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    engine
        .relation("path")
        .unwrap()
        .into_iter()
        .map(|t| (t[0], t[1]))
        .collect()
}

#[test]
fn transitive_closure_chain() {
    let edges: Vec<(u64, u64)> = (0..20).map(|i| (i, i + 1)).collect();
    let expect = tc_reference(&edges);
    assert_eq!(expect.len(), 20 * 21 / 2);
    assert_eq!(run_tc(&edges, StorageKind::SpecBTree, 1), expect);
}

#[test]
fn transitive_closure_cycle() {
    let edges: Vec<(u64, u64)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
    let expect = tc_reference(&edges);
    assert_eq!(expect.len(), 36, "cycle closure is complete");
    assert_eq!(run_tc(&edges, StorageKind::SpecBTree, 2), expect);
}

#[test]
fn transitive_closure_all_backends_agree() {
    // Random-ish sparse graph.
    let mut edges = Vec::new();
    let mut x = 12345u64;
    for _ in 0..60 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        edges.push(((x >> 33) % 25, (x >> 13) % 25));
    }
    edges.sort_unstable();
    edges.dedup();
    let expect = tc_reference(&edges);
    for kind in StorageKind::ALL {
        for threads in [1, 3] {
            let got = run_tc(&edges, kind, threads);
            assert_eq!(got, expect, "{} with {threads} threads", kind.label());
        }
    }
}

#[test]
fn empty_input_relation() {
    let got = run_tc(&[], StorageKind::SpecBTree, 2);
    assert!(got.is_empty());
}

#[test]
fn self_loop() {
    let got = run_tc(&[(5, 5)], StorageKind::SpecBTree, 1);
    assert_eq!(got, BTreeSet::from([(5, 5)]));
}

#[test]
fn same_generation_mutual_recursion() {
    // sg(X,Y) :- flat pairs at the same depth of a tree.
    let program = parse(
        r#"
        .decl parent(x: number, y: number)
        .decl sg(x: number, y: number)
        .output sg
        sg(x, y) :- parent(p, x), parent(p, y).
        sg(x, y) :- parent(a, x), sg(a, b), parent(b, y).
        "#,
    )
    .unwrap();
    // Perfect binary tree of depth 3: node i has children 2i and 2i+1.
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    for i in 1u64..8 {
        engine.add_fact("parent", &[i, 2 * i]).unwrap();
        engine.add_fact("parent", &[i, 2 * i + 1]).unwrap();
    }
    engine.run().unwrap();
    let sg = engine.relation("sg").unwrap();
    // Same-generation pairs: level 1 (2 nodes): 4 pairs; level 2 (4): 16;
    // level 3 (8): 64.
    assert_eq!(sg.len(), 4 + 16 + 64);
    // Symmetry.
    let set: BTreeSet<(u64, u64)> = sg.iter().map(|t| (t[0], t[1])).collect();
    for &(a, b) in &set {
        assert!(set.contains(&(b, a)), "asymmetric pair ({a},{b})");
    }
}

#[test]
fn stratified_negation_unreachable_pairs() {
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl node(x: number)
        .decl path(x: number, y: number)
        .decl unreachable(x: number, y: number)
        .output unreachable
        node(x) :- edge(x, _).
        node(y) :- edge(_, y).
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        unreachable(x, y) :- node(x), node(y), !path(x, y).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    // Two disconnected components: 1->2, 3->4.
    engine.add_fact("edge", &[1, 2]).unwrap();
    engine.add_fact("edge", &[3, 4]).unwrap();
    engine.run().unwrap();
    let unreachable: BTreeSet<(u64, u64)> = engine
        .relation("unreachable")
        .unwrap()
        .into_iter()
        .map(|t| (t[0], t[1]))
        .collect();
    // 4 nodes, 16 ordered pairs, reachable: (1,2) and (3,4).
    assert_eq!(unreachable.len(), 14);
    assert!(!unreachable.contains(&(1, 2)));
    assert!(!unreachable.contains(&(3, 4)));
    assert!(unreachable.contains(&(2, 1)));
    assert!(unreachable.contains(&(1, 4)));
}

#[test]
fn constants_and_wildcards_in_rules() {
    let program = parse(
        r#"
        .decl r(a: number, b: number, c: number)
        .decl hits(x: number)
        .output hits
        hits(b) :- r(7, b, _).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_fact("r", &[7, 1, 100]).unwrap();
    engine.add_fact("r", &[7, 2, 200]).unwrap();
    engine.add_fact("r", &[8, 3, 300]).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation("hits").unwrap(), vec![vec![1], vec![2]]);
}

#[test]
fn repeated_variable_join() {
    let program = parse(
        r#"
        .decl e(a: number, b: number)
        .decl loops(x: number)
        .output loops
        loops(x) :- e(x, x).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_fact("e", &[1, 1]).unwrap();
    engine.add_fact("e", &[1, 2]).unwrap();
    engine.add_fact("e", &[3, 3]).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation("loops").unwrap(), vec![vec![1], vec![3]]);
}

#[test]
fn facts_in_program_text() {
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl path(x: number, y: number)
        edge(1, 2). edge(2, 3).
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation("path").unwrap().len(), 3);
    assert_eq!(engine.stats().input_tuples, 2);
}

#[test]
fn idb_relation_with_seed_facts() {
    // Facts for a derived relation participate in the fixpoint.
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl path(x: number, y: number)
        path(10, 11).
        edge(11, 12).
        path(x, z) :- path(x, y), edge(y, z).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    let path = engine.relation("path").unwrap();
    assert_eq!(path, vec![vec![10, 11], vec![10, 12]]);
}

#[test]
fn multi_stratum_pipeline() {
    let program = parse(
        r#"
        .decl raw(x: number)
        .decl doubledigit(x: number)
        .decl big(x: number)
        .output big
        doubledigit(x) :- raw(x), !small(x).
        .decl small(x: number)
        small(x) :- raw(x), bound(x).
        .decl bound(x: number)
        bound(1). bound(2). bound(3).
        big(x) :- doubledigit(x).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    for i in 1..=5 {
        engine.add_fact("raw", &[i]).unwrap();
    }
    engine.run().unwrap();
    assert_eq!(engine.relation("big").unwrap(), vec![vec![4], vec![5]]);
}

#[test]
fn stats_reflect_workload() {
    let edges: Vec<(u64, u64)> = (0..50).map(|i| (i, i + 1)).collect();
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.input_tuples, 50);
    assert_eq!(stats.produced_tuples, (50 * 51 / 2) as u64);
    assert!(
        stats.inserts > stats.produced_tuples,
        "merge re-inserts count"
    );
    assert!(stats.membership_tests > 0);
    assert!(stats.lower_bound_calls > 0);
    // Bounded scans issue paired lower/upper probes; unbounded (empty
    // prefix) scans only a lower_bound.
    assert!(stats.upper_bound_calls <= stats.lower_bound_calls);
    assert!(stats.upper_bound_calls > 0);
    assert!(stats.iterations >= 50, "chain needs ~n iterations");
    // The recursive scan pattern is highly ordered: hints must hit.
    assert!(stats.hints.hits() > 0);
}

#[test]
fn hint_rates_higher_for_spec_btree_than_absent_for_others() {
    let edges: Vec<(u64, u64)> = (0..30).map(|i| (i, i + 1)).collect();
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::RbTreeLocked, 2).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    assert_eq!(
        engine.stats().hints.hits() + engine.stats().hints.misses(),
        0
    );
}

/// A retraction's plans probe through hints too, and its workers' counts
/// reach the engine's.
#[test]
fn retraction_counts_its_hinted_probes() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine
        .add_facts("edge", (0..40).map(|i| vec![i, i + 1]))
        .unwrap();
    engine.run().unwrap();
    let probes = |e: &Engine| e.stats().hints.hits() + e.stats().hints.misses();
    let before = probes(&engine);
    engine.retract_fact("edge", &[38, 39]).unwrap();
    assert!(
        probes(&engine) > before,
        "the retraction's probes went uncounted"
    );
}

#[test]
fn rerun_after_adding_facts_reaches_new_fixpoint() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_fact("edge", &[1, 2]).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("path").unwrap(), 1);
    engine.add_fact("edge", &[2, 3]).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("path").unwrap(), 3);
}

#[test]
fn unknown_relation_errors() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    assert!(engine.add_fact("ghost", &[1]).is_err());
    assert!(engine.relation("ghost").is_err());
}

#[test]
fn arity_mismatch_errors() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    assert!(engine.add_fact("edge", &[1]).is_err());
    assert!(engine.add_fact("edge", &[1, 2, 3]).is_err());
}

/// A batch holding a malformed tuple adds nothing, as a failed
/// `retract_facts` withdraws nothing: the well-formed tuples before it are
/// not left behind in the relation, the EDB or the insert count.
#[test]
fn a_failed_batch_of_facts_adds_nothing() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine
        .add_facts("edge", (0..5u64).map(|i| vec![i, i + 1]))
        .unwrap();
    let before = (
        engine.relation("edge").unwrap(),
        engine.edb_len("edge").unwrap(),
        engine.stats().inserts,
        engine.stats().input_tuples,
    );
    assert!(engine.add_facts("edge", [vec![7, 8], vec![9]]).is_err());
    let after = (
        engine.relation("edge").unwrap(),
        engine.edb_len("edge").unwrap(),
        engine.stats().inserts,
        engine.stats().input_tuples,
    );
    assert_eq!(before, after);
    assert_eq!(engine.relation_len("edge").unwrap(), 5);
    // The same batch without the bad tuple goes in whole.
    engine.add_facts("edge", [vec![7, 8]]).unwrap();
    assert_eq!(engine.edb_len("edge").unwrap(), 6);
}

#[test]
fn larger_graph_parallel_equals_sequential() {
    let mut edges = Vec::new();
    let mut x = 7u64;
    for _ in 0..400 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        edges.push(((x >> 33) % 80, (x >> 13) % 80));
    }
    edges.sort_unstable();
    edges.dedup();
    let seq = run_tc(&edges, StorageKind::SpecBTree, 1);
    let par = run_tc(&edges, StorageKind::SpecBTree, 4);
    assert_eq!(seq, par);
    assert_eq!(seq, tc_reference(&edges));
}

/// Facts go in as one sorted run whatever order they arrive in: 20 000
/// shuffled edges loaded by one `add_facts` fill their leaves the way a
/// merge does (0.68 full, 514 KB of nodes, when they went in one by one).
#[test]
fn shuffled_facts_load_into_full_leaves() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let shuffled = (0..20_000u64).map(|i| i * 7_919 % 20_000);
    engine
        .add_facts("edge", shuffled.map(|k| vec![k / 100, k % 100]))
        .unwrap();
    assert_eq!(engine.stats().input_tuples, 20_000);
    let report = engine.storage_report();
    let edge = report.relations.iter().find(|r| r.name == "edge").unwrap();
    let tree = edge.tree.as_ref().expect("a tree-backed relation");
    assert_eq!(tree.keys, 20_000);
    let fill = tree.leaf_fill();
    assert!(
        fill >= 0.9,
        "leaves {fill:.3} full, {} node bytes",
        tree.live_bytes
    );
}

#[test]
fn query_returns_prefix_matches() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    for i in 0..10u64 {
        engine.add_fact("edge", &[i / 3, i]).unwrap();
    }
    engine.run().unwrap();
    // All paths out of node 0.
    let out = engine.query("path", &[0]).unwrap();
    assert!(!out.is_empty());
    assert!(out.iter().all(|t| t[0] == 0));
    assert!(out.windows(2).all(|w| w[0] < w[1]));
    // Full-prefix query = point lookup.
    let hit = engine.query("path", &[0, 1]).unwrap();
    assert_eq!(hit, vec![vec![0, 1]]);
    // Over-long prefix errors.
    assert!(engine.query("path", &[0, 1, 2]).is_err());
    assert!(engine.query("ghost", &[]).is_err());
}

#[test]
fn relation_sizes_sorted_descending() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    for i in 0..20u64 {
        engine.add_fact("edge", &[i, i + 1]).unwrap();
    }
    engine.run().unwrap();
    let sizes = engine.relation_sizes();
    assert_eq!(sizes.len(), 2);
    assert_eq!(sizes[0].0, "path");
    assert_eq!(sizes[0].1, 20 * 21 / 2);
    assert_eq!(sizes[1], ("edge".to_string(), 20));
}

// ---------------------------------------------------------------------
// EvalStats semantics: accumulate across runs, reset on demand
// ---------------------------------------------------------------------

#[test]
fn stats_accumulate_across_runs_and_reset() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine
        .add_facts("edge", (0..8u64).map(|i| vec![i, i + 1]))
        .unwrap();
    engine.run().unwrap();
    let first = *engine.stats();
    assert!(first.iterations > 0);
    assert!(first.inserts > 0);
    assert!(first.membership_tests > 0);
    assert_eq!(first.input_tuples, 8);
    assert_eq!(first.produced_tuples, 9 * 8 / 2);

    // A second run re-derives everything already present: every counter
    // keeps growing (accumulate semantics), including the Table 2
    // operation counts.
    engine.run().unwrap();
    let second = *engine.stats();
    assert!(second.iterations > first.iterations, "{second:?}");
    assert!(second.inserts > first.inserts, "{second:?}");
    assert!(second.membership_tests > first.membership_tests);
    assert!(second.tuples_scanned > first.tuples_scanned);
    // Fixpoint was already reached: no net growth on the re-run.
    assert_eq!(second.produced_tuples, first.produced_tuples);
    assert_eq!(second.input_tuples, first.input_tuples);

    // reset_stats restarts every accumulator from zero...
    engine.reset_stats();
    let zeroed = *engine.stats();
    assert_eq!(zeroed.iterations, 0);
    assert_eq!(zeroed.inserts, 0);
    assert_eq!(zeroed.membership_tests, 0);
    assert_eq!(zeroed.input_tuples, 0);
    assert_eq!(zeroed.produced_tuples, 0);
    assert_eq!(zeroed.hints.hits() + zeroed.hints.misses(), 0);
    assert!(engine.worker_stats().is_empty());
    assert!(engine.profile().is_empty());

    // ...and a third run counts only itself (comparable to the second).
    engine.run().unwrap();
    let third = *engine.stats();
    assert_eq!(third.iterations, second.iterations - first.iterations);
    assert_eq!(third.produced_tuples, 0);
    assert!(third.inserts > 0);
    assert!(third.inserts < second.inserts);
}

#[test]
fn eval_stats_to_json_shape() {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    engine
        .add_facts("edge", (0..6u64).map(|i| vec![i, i + 1]))
        .unwrap();
    engine.run().unwrap();
    let json = engine.stats().to_json();
    for key in [
        "\"inserts\"",
        "\"membership_tests\"",
        "\"lower_bound_calls\"",
        "\"upper_bound_calls\"",
        "\"input_tuples\": 6",
        "\"produced_tuples\": 21",
        "\"iterations\"",
        "\"chunks_claimed\"",
        "\"tuples_scanned\"",
        "\"tuples_emitted\"",
        "\"sched_imbalance\"",
        "\"hints\": {\"insert_hits\"",
    ] {
        assert!(json.contains(key), "{key} missing in {json}");
    }
}

// ---------------------------------------------------------------------
// The storage seam: same work, narrower trees
// ---------------------------------------------------------------------

/// A clock-free gate on what crossing `dyn RelationStorage` costs. On a
/// fixed input the join's work — tuples scanned, range queries, tuples
/// produced — is what the commit before the seam rework produced, when a
/// counting wrapper around every storage took the counts, so the rework
/// changed what a crossing costs, not how many there are; the binary `path`
/// relation is stored at its declared arity, not padded to `MAX_ARITY`
/// words; and head tuples reach the two trees as sorted runs, not one by
/// one, which is what the idle head hints at the end hold.
#[test]
fn seam_does_the_same_work_on_narrower_trees() {
    let mut edges = Vec::new();
    let mut x = 2019u64;
    for _ in 0..900 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        edges.push(((x >> 33) % 300, (x >> 13) % 300));
    }
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();

    let stats = engine.stats();
    assert_eq!(stats.produced_tuples, 74_828);
    assert_eq!(stats.tuples_scanned, 306_151);
    // The join looks `edge` up once per `path` tuple of a delta, as Figure 1
    // does; the worker issues one range query per distinct key of a sorted
    // block of those bindings (74 828 when it issued one per binding, 13 977
    // while a block ended where its chunk did).
    assert_eq!(stats.inner_scans_indexed, 74_828);
    assert_eq!(stats.upper_bound_calls, 5_897);
    assert!(12 * stats.upper_bound_calls < stats.inner_scans_indexed);
    // One `lower_bound` per range query and per range chunk of an outer
    // scan; the delta trees, filled in key order, are cut into 82 chunks.
    assert_eq!(stats.lower_bound_calls - stats.chunks_claimed, 5_897);
    assert_eq!(stats.lower_bound_calls, 5_979);
    // 231 323 and 175 002 when every head tuple was tested and offered where
    // the join produced it: these two count calls issued, and a batch drops
    // its duplicates before it issues any (173 912 and 151 818 while a batch
    // held 4 096 tuples; one of 16 384 holds more repeats of a tuple, and
    // 173 330 and 151 663 while it was flushed where each chunk ended).
    assert_eq!(stats.membership_tests, 172_842);
    assert_eq!(stats.inserts, 151_473);

    // The head issues no probe: a flushed batch is one anti-join over `path`
    // and one grouped merge into its `new` table, and this program has no
    // check site, so nobody reads the contains hint or the insert hint (the
    // per-tuple head hit them at 0.83 and 0.95).
    let hints = &stats.hints;
    assert_eq!(hints.contains_hits + hints.contains_misses, 0);
    assert_eq!(hints.insert_hits + hints.insert_misses, 0);

    // Node bytes per `path` tuple in the same run before the rework, when
    // every relation was a tree of five-word keys.
    const PADDED_BYTES_PER_TUPLE: f64 = 60.375;
    let report = engine.storage_report();
    let path = report.relations.iter().find(|r| r.name == "path").unwrap();
    let tree = path.tree.as_ref().expect("a tree-backed relation");
    assert_eq!(tree.keys, 74_828);
    let bytes_per_tuple = tree.live_bytes as f64 / path.len as f64;
    assert!(
        bytes_per_tuple <= 0.5 * PADDED_BYTES_PER_TUPLE,
        "{bytes_per_tuple:.1} node bytes per binary tuple"
    );
}
