//! Differential test for reads by blocks: the bindings that pass a plan's
//! outer scan wait in a block of 4 096, sorted by the key of the first inner
//! scan, which looks each distinct key up once and replays its range for
//! every binding that shares it. A block ends when it is full and where its
//! chunk ends; the emit batch is flushed between blocks, and inside one only
//! past a ceiling of four batches. Every rule below puts one edge of that
//! path in play, and every relation it derives is written down from the
//! inputs' definitions (`path` is the reference closure), never evaluated.
//! Every storage kind, at one and two threads (and `DATALOG_TEST_THREADS`),
//! with the planner off — source order, so each edge is where its rule puts
//! it — and on.

mod common;

use common::with_extra;
use datalog::{parse, Engine, StorageKind};
use std::collections::BTreeMap;
use workloads::graphs;

/// The block size of `eval.rs` (private there): the sizes below are chosen
/// around it.
const BLOCK: u64 = 4_096;
/// `wide`'s tuples. One worker cuts an outer scan into eight chunks and two
/// into sixteen; the kinds that are not trees cut it evenly, so each of
/// their chunks holds two full blocks or one.
const WIDE: u64 = 16 * BLOCK;
/// `wider`'s tuples: each such chunk holds one or two full blocks and one
/// binding more.
const WIDER: u64 = 16 * (BLOCK + 1);
/// The keys the inner scans look up. Few, for the hash kinds answer every
/// lookup with a sweep of the relation.
const KEYS: u64 = 256;
/// `spoke(0, ·)`: one binding's range, longer than the emit batch's ceiling
/// of 65 536 head tuples, so a flush cuts its block.
const SPOKES: u64 = 66_000;
/// Where `rev`'s first column starts.
const REV: u64 = 1 << 20;
/// `rev` holds every key that is a multiple of this.
const REV_STEP: u64 = 64;

/// `wide(x, key(x), x % 3)`: three bindings in a row share a key, so the key
/// of the 4 096th and the 4 097th binding of a chunk that starts at a
/// multiple of three is the same, and a block boundary falls inside its run.
const PROGRAM: &str = r#"
    .decl wide(x: number, y: number, m: number)
    .decl wider(x: number, y: number, m: number)
    .decl third(y: number, z: number)
    .decl tri(y: number, m: number, c: number)
    .decl rev(b: number, y: number)
    .decl pair(k: number, z: number)
    .decl e3(y: number, z: number, w: number)
    .decl hub(x: number, k: number)
    .decl spoke(k: number, z: number)
    .decl edge(x: number, y: number)
    .decl w1(x: number, z: number)
    .decl w2(x: number, z: number)
    .decl two(x: number, c: number)
    .decl perm(x: number, b: number)
    .decl cst(m: number, z: number)
    .decl rep(x: number, z: number)
    .decl fan(x: number, z: number)
    .decl path(x: number, y: number)

    w1(x, z) :- wide(x, y, _), third(y, z).
    w2(x, z) :- wider(x, y, _), third(y, z).
    two(x, c) :- wide(x, y, m), tri(y, m, c).
    perm(x, b) :- wide(x, y, _), rev(b, y).
    cst(m, z) :- wide(_, _, m), pair(7, z).
    rep(x, z) :- wide(x, y, _), e3(y, z, z).
    fan(x, z) :- hub(x, k), spoke(k, z).
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

type Db = BTreeMap<&'static str, Vec<Vec<u64>>>;

fn key(x: u64) -> u64 {
    (x / 3) % KEYS
}

/// `third`'s tuple under key `y`: none for every fourth key, so some ranges
/// are empty.
fn third(y: u64) -> Option<u64> {
    (y % 4 != 3).then_some(2 * y)
}

/// `tri`'s tuple under the two-column key `(y, m)`, if it has one.
fn tri(y: u64, m: u64) -> Option<u64> {
    (y + m).is_multiple_of(2).then_some(y % 7 + m)
}

fn edges() -> Vec<(u64, u64)> {
    graphs::random_graph(120, 2, 5)
}

fn facts() -> Db {
    let outer = |n: u64| (0..n).map(|x| vec![x, key(x), x % 3]).collect();
    let keys = 0..KEYS;
    Db::from([
        ("wide", outer(WIDE)),
        ("wider", outer(WIDER)),
        (
            "third",
            keys.clone()
                .filter_map(|y| Some(vec![y, third(y)?]))
                .collect(),
        ),
        (
            "tri",
            keys.clone()
                .flat_map(|y| (0..3).filter_map(move |m| Some(vec![y, m, tri(y, m)?])))
                .collect(),
        ),
        // Joined on its second column: the planner serves that through an
        // index whose permuted prefix is the key, with `rev` or `wide` as
        // the inner scan. Small, for the planner-off run sweeps all of it
        // once per binding.
        (
            "rev",
            keys.clone()
                .step_by(REV_STEP as usize)
                .map(|y| vec![REV + y, y])
                .collect(),
        ),
        ("pair", vec![vec![7, 0], vec![8, 1]]),
        // `e3(y, z, z)` keeps `(y, y, y)`, for every third key, and never
        // `(y, y, y + 1)`: the repeated variable is checked after the scan.
        (
            "e3",
            keys.flat_map(|y| {
                let same = y.is_multiple_of(3).then(|| vec![y, y, y]);
                same.into_iter().chain([vec![y, y, y + 1]])
            })
            .collect(),
        ),
        ("hub", vec![vec![0, 0]]),
        ("spoke", (0..SPOKES).map(|z| vec![0, z]).collect()),
        ("edge", edges().iter().map(|&(a, b)| vec![a, b]).collect()),
    ])
}

fn expected() -> Db {
    let through_third = |n: u64| {
        (0..n)
            .filter_map(|x| Some(vec![x, third(key(x))?]))
            .collect()
    };
    let path = graphs::reference_tc(&edges());
    Db::from([
        ("w1", through_third(WIDE)),
        ("w2", through_third(WIDER)),
        (
            "two",
            (0..WIDE)
                .filter_map(|x| Some(vec![x, tri(key(x), x % 3)?]))
                .collect(),
        ),
        (
            "perm",
            (0..WIDE)
                .filter(|&x| key(x).is_multiple_of(REV_STEP))
                .map(|x| vec![x, REV + key(x)])
                .collect(),
        ),
        ("cst", (0..3).map(|m| vec![m, 0]).collect()),
        (
            "rep",
            (0..WIDE)
                .filter(|&x| key(x).is_multiple_of(3))
                .map(|x| vec![x, key(x)])
                .collect(),
        ),
        ("fan", (0..SPOKES).map(|z| vec![0, z]).collect()),
        ("path", path.into_iter().map(|(a, b)| vec![a, b]).collect()),
    ])
}

#[test]
fn every_block_edge_agrees_with_the_definitions() {
    let program = parse(PROGRAM).unwrap();
    let expect = expected();
    for kind in StorageKind::ALL {
        for threads in with_extra(&[1, 2]) {
            for planner in [false, true] {
                let what = format!("{kind:?}, {threads} threads, planner {planner}");
                let mut engine = Engine::new(&program, kind, threads).unwrap();
                engine.set_planner_enabled(planner);
                for (rel, tuples) in facts() {
                    engine.add_facts(rel, tuples).unwrap();
                }
                engine.run().unwrap();
                for (rel, want) in &expect {
                    let got = engine.relation(rel).unwrap();
                    assert_eq!(got.len(), want.len(), "{what}: size of {rel}");
                    assert!(got == *want, "{what}: relation {rel}");
                }
                let explain = engine.explain();
                let perm = explain.lines().find(|l| l.contains("emit perm(")).unwrap();
                let tree = matches!(kind, StorageKind::SpecBTree | StorageKind::SpecBTreeNoHints);
                assert_eq!(
                    perm.contains("index=[1,"),
                    tree && planner,
                    "{what}: `perm`'s inner scan is an index range: {perm}"
                );
            }
        }
    }
}

/// Every binding of `c1` and `c2` looks up the constant key `(7)`, so each
/// block issues one range query whatever its size, and the count is the
/// number of blocks: a chunk of `wide` ends on a full block and opens no
/// other, one of `wider` opens one more for its last binding. A kind that
/// is not a tree cuts an outer scan as the default `partition` does: into
/// eight chunks a worker, evenly, and hands out no range chunk to open.
#[test]
fn a_key_is_looked_up_once_a_block() {
    const KEYED: &str = r#"
        .decl wide(x: number, y: number, m: number)
        .decl wider(x: number, y: number, m: number)
        .decl pair(k: number, z: number)
        .decl c1(x: number)
        .decl c2(x: number)
        c1(x) :- wide(x, _, _), pair(7, _).
        c2(x) :- wider(x, _, _), pair(7, _).
    "#;
    let program = parse(KEYED).unwrap();
    let blocks = |tuples: u64, chunks: u64| {
        let per = tuples.div_ceil(chunks);
        (0..chunks)
            .map(|i| (tuples - (i * per).min(tuples)).min(per).div_ceil(BLOCK))
            .sum::<u64>()
    };
    for threads in with_extra(&[1, 2]) {
        let mut engine = Engine::new(&program, StorageKind::RbTreeLocked, threads).unwrap();
        engine.set_planner_enabled(false);
        let mut db = facts();
        for rel in ["wide", "wider", "pair"] {
            engine.add_facts(rel, db.remove(rel).unwrap()).unwrap();
        }
        engine.run().unwrap();
        let stats = engine.stats();
        let chunks = 8 * threads as u64;
        let queries = blocks(WIDE, chunks) + blocks(WIDER, chunks);
        assert_eq!(stats.upper_bound_calls, queries, "{threads} threads");
        assert_eq!(stats.lower_bound_calls, queries, "{threads} threads");
        assert_eq!(stats.inner_scans_indexed, WIDE + WIDER, "{threads} threads");
        assert_eq!(engine.relation("c2").unwrap().len() as u64, WIDER);
    }
}
