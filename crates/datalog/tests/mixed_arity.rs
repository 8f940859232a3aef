//! Mixed-arity differential: one program whose relations have every arity
//! from 1 to `MAX_ARITY` — so every relation, side table and retraction
//! table is stored at a different width — with recursion at arity 2 and 3,
//! reverse joins that sweep a 3-ary and a 5-ary relation keyed by their
//! last column, negation, a comparison, and then a retraction that takes both
//! the delete–rederive path and the negation fallback. Every storage kind
//! × {1, 2, 8} threads × planner on/off must agree, relation by relation,
//! with a naive bottom-up evaluator that shares nothing with the engine but
//! the parser and the stratifier.

mod common;

use common::naive::{naive, Db};
use datalog::{parse, Engine, StorageKind, MAX_ARITY};
use std::collections::BTreeSet;

const PROGRAM: &str = r#"
    .decl node(x: number)
    .decl start(x: number)
    .decl edge(x: number, y: number)
    .decl hop(x: number, y: number, z: number)
    .decl quad(a: number, b: number, c: number, d: number)
    .decl rec(a: number, b: number, c: number, d: number, e: number)
    .decl reach(x: number, y: number)
    .decl walk(a: number, b: number, c: number)
    .decl back3(x: number)
    .decl back5(x: number)
    .decl lonely(x: number)
    .decl unreturned(a: number, b: number, c: number)
    .decl quiet(a: number, b: number, c: number, d: number, e: number)

    hop(x, y, z) :- edge(x, y), edge(y, z).
    quad(a, b, c, d) :- hop(a, b, c), edge(c, d), a != d.
    rec(a, b, c, d, e) :- quad(a, b, c, d), edge(d, e).
    reach(x, y) :- edge(x, y).
    reach(x, z) :- reach(x, y), edge(y, z).
    walk(a, b, c) :- start(a), hop(a, b, c).
    walk(a, c, d) :- walk(a, b, c), edge(c, d).
    back3(x) :- start(x).
    back3(x) :- back3(z), hop(x, _, z).
    back5(x) :- start(x).
    back5(a) :- back5(e), rec(a, _, _, _, e).
    lonely(x) :- node(x), !reach(x, x).
    unreturned(a, b, c) :- hop(a, b, c), !reach(c, a).
    quiet(a, b, c, d, e) :- rec(a, b, c, d, e), !back5(a), !start(e).
"#;

/// An 18-node graph with cycles, three start nodes, one asserted fact each
/// in `lonely` and `quiet` (rule-defined relations of the strata the
/// negation fallback recomputes), and the batch to withdraw: every fifth
/// edge, a start node and those two asserted facts.
fn inputs() -> (Db, Vec<(String, Vec<u64>)>) {
    let mut x = 0x5EA4u64;
    let mut edges = BTreeSet::new();
    while edges.len() < 30 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        edges.insert(vec![(x >> 33) % 18, (x >> 13) % 18]);
    }
    let batch: Vec<(String, Vec<u64>)> = edges
        .iter()
        .step_by(5)
        .map(|e| ("edge".to_string(), e.clone()))
        .chain([
            ("start".to_string(), vec![3]),
            ("lonely".to_string(), vec![99]),
            ("quiet".to_string(), vec![90, 91, 92, 93, 94]),
        ])
        .collect();
    let facts = Db::from([
        ("node".to_string(), (0..18).map(|n| vec![n]).collect()),
        ("start".to_string(), [0, 3, 7].map(|n| vec![n]).into()),
        ("edge".to_string(), edges),
        ("lonely".to_string(), [vec![99]].into()),
        ("quiet".to_string(), [vec![90, 91, 92, 93, 94]].into()),
    ]);
    (facts, batch)
}

fn assert_matches(engine: &Engine, expect: &Db, what: &str) {
    for (rel, tuples) in expect {
        let got = engine.relation(rel).unwrap();
        let want: Vec<Vec<u64>> = tuples.iter().cloned().collect();
        assert_eq!(got, want, "{what}: relation {rel}");
    }
}

#[test]
fn mixed_arity_program_agrees_with_the_naive_reference() {
    let program = parse(PROGRAM).unwrap();
    let arities: BTreeSet<usize> = program.decls.iter().map(|d| d.arity).collect();
    assert_eq!(arities, (1..=MAX_ARITY).collect(), "every width is in play");
    let (facts, batch) = inputs();
    let before = naive(&program, &facts);
    let mut surviving = facts.clone();
    for (rel, tuple) in &batch {
        assert!(surviving.get_mut(rel).unwrap().remove(tuple));
    }
    let after = naive(&program, &surviving);
    for rel in [
        "rec",
        "walk",
        "back3",
        "back5",
        "lonely",
        "unreturned",
        "quiet",
    ] {
        assert!(!before[rel].is_empty(), "{rel} is exercised");
        assert_ne!(before[rel], after[rel], "the retraction reaches {rel}");
    }

    for kind in StorageKind::ALL {
        for threads in [1, 2, 8] {
            for planner in [true, false] {
                let what = format!("{kind:?}, {threads} threads, planner {planner}");
                let mut engine = Engine::new(&program, kind, threads).unwrap();
                engine.set_planner_enabled(planner);
                for (rel, tuples) in &facts {
                    engine.add_facts(rel, tuples.iter().cloned()).unwrap();
                }
                engine.run().unwrap();
                assert_matches(&engine, &before, &what);
                // The reverse joins enter `hop` and `rec` through their last
                // column, planner on or off: a keyed sweep.
                let explain = engine.explain();
                for sweep in ["scan hop key=(#2=", "scan rec key=(#4="] {
                    assert!(explain.contains(sweep), "{what}: {sweep}\n{explain}");
                }

                let outcome = engine.retract_facts(batch.clone()).unwrap();
                assert_eq!(outcome.retracted_inputs, batch.len() as u64, "{what}");
                assert!(outcome.recomputed_strata > 0, "{what}: negation fallback");
                assert_matches(&engine, &after, &format!("{what}, after the retraction"));

                // Nothing is indexed: the engine builds no secondary index.
                assert_eq!(engine.stats().index_builds, 0, "{what}");
            }
        }
    }
}
