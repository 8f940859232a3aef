//! Differential test for reads by blocks: the bindings that reach a scan
//! or a check, at any step after the outer scan, wait in a block of 4 096
//! sorted by that step's key, which is looked up once per distinct key — a
//! range read into a buffer (the whole relation for a scan with nothing
//! fixed), or one `contains` — and replayed for every binding that shares
//! it. A scan whose fixed columns do not lead its relation (a keyed sweep)
//! reads the relation once for the whole block, keeping the tuples that
//! match one of its keys. A block runs when it is full
//! (a deeper one in the middle of the replay above it) and where its worker
//! stops: a worker alone keeps its blocks and emit batch from one chunk to
//! the next, one of several ends them with each chunk. The emit batch is
//! flushed between blocks, and inside one only past a ceiling of four
//! batches. Every rule below puts one edge of that
//! path in play, and every relation it derives is written down from the
//! inputs' definitions (`path` is the reference closure) or, for the
//! four-literal rules, evaluated by the naive evaluator. Every storage kind,
//! at one and two threads (and `DATALOG_TEST_THREADS`), with the planner off
//! — source order, so each edge is where its rule puts it — and on.

mod common;

use common::naive::{self, naive};
use common::with_extra;
use datalog::{parse, Engine, StorageKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
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
/// `rev` holds every key that is a multiple of this, and two blocks of tuples whose
/// second column is no key.
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
        // Joined on its second column. `wide`'s 65 536 bindings, sixteen
        // blocks, read `rev` less through an index built once than by a pass
        // a block: with the planner the tree serves the join through an
        // index whose permuted prefix is the key. Every other run sweeps
        // `rev`, sixteen blocks of it, keyed by that column.
        (
            "rev",
            keys.clone()
                .step_by(REV_STEP as usize)
                .chain(KEYS..KEYS + 2 * BLOCK)
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
                let tree = kind == StorageKind::SpecBTree;
                let inner = match tree && planner {
                    true => "range rev index=[1,0] prefix=(v1)",
                    false => "scan rev key=(#1=v1)",
                };
                assert!(
                    perm.contains(inner),
                    "{what}: `perm` reads `{inner}`: {perm}"
                );
            }
        }
    }
}

/// The chunks a kind that is not a tree cuts `len` outer tuples into at
/// `threads` workers, as the default `partition` does: eight a worker, of
/// `len.div_ceil(8 × threads)` tuples each but the last.
fn chunks(len: u64, threads: usize) -> impl Iterator<Item = Range<u64>> {
    let per = len.div_ceil(8 * threads as u64);
    (0..len)
        .step_by(per as usize)
        .map(move |s| s..len.min(s + per))
}

/// How many blocks `bindings` (those of each chunk of `len` outer tuples)
/// fill: a worker alone runs one block that is not full per plan, and
/// several workers one per chunk.
fn blocks(len: u64, threads: usize, bindings: impl Fn(Range<u64>) -> u64) -> u64 {
    match threads {
        1 => bindings(0..len).div_ceil(BLOCK),
        _ => chunks(len, threads)
            .map(|c| bindings(c).div_ceil(BLOCK))
            .sum(),
    }
}

/// Every binding of `c1` and `c2` looks up the constant key `(7)`, so each
/// block issues one range query whatever its size, and the count is the
/// number of blocks: 33 at one worker (40 while a block ended where its
/// chunk did, as it still does beside another worker: 48 at two). A kind
/// that is not a tree hands out no range chunk to open.
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
    for threads in with_extra(&[1, 2]) {
        let mut engine = Engine::new(&program, StorageKind::RbTreeLocked, threads).unwrap();
        engine.set_planner_enabled(false);
        let mut db = facts();
        for rel in ["wide", "wider", "pair"] {
            engine.add_facts(rel, db.remove(rel).unwrap()).unwrap();
        }
        engine.run().unwrap();
        let stats = engine.stats();
        let queries = stats.upper_bound_calls;
        let all = |c: Range<u64>| c.end - c.start;
        let want = blocks(WIDE, threads, all) + blocks(WIDER, threads, all);
        assert_eq!(queries, want, "{threads} threads: range queries");
        match threads {
            1 => assert_eq!(queries, 33),
            2 => assert_eq!(queries, 48),
            _ => {}
        }
        assert_eq!(stats.lower_bound_calls, queries, "{threads} threads");
        assert_eq!(stats.inner_scans_indexed, WIDE + WIDER, "{threads} threads");
        assert_eq!(engine.relation("c2").unwrap().len() as u64, WIDER);
    }
}

/// An inner scan with no bound prefix (`pair(_, z)`) reads its relation
/// once a block and replays it for every binding in the block: one
/// `lower_bound_calls` a block (one a binding while a sweep ran in place,
/// the join inside its callback), one `inner_scans_full` a binding, and no
/// `upper_bound_calls`. One worker, whose blocks span its chunks; a tree's
/// range chunks each open with a descent of their own.
#[test]
fn a_sweep_is_made_once_a_block() {
    const SWEPT: &str = r#"
        .decl wider(x: number, y: number, m: number)
        .decl pair(k: number, z: number)
        .decl s(x: number, z: number)
        s(x, z) :- wider(x, _, _), pair(_, z).
    "#;
    let program = parse(SWEPT).unwrap();
    for kind in StorageKind::ALL {
        let what = kind.label();
        let mut engine = Engine::new(&program, kind, 1).unwrap();
        engine.set_planner_enabled(false);
        let mut db = facts();
        for rel in ["wider", "pair"] {
            engine.add_facts(rel, db.remove(rel).unwrap()).unwrap();
        }
        engine.run().unwrap();
        let stats = engine.stats();
        let opened = match kind {
            StorageKind::SpecBTree => stats.chunks_claimed,
            _ => 0,
        };
        let sweeps = blocks(WIDER, 1, |c| c.end - c.start);
        assert_eq!(sweeps, 17);
        assert_eq!(stats.lower_bound_calls - opened, sweeps, "{what}");
        assert_eq!(stats.inner_scans_full, WIDER, "{what}");
        assert_eq!(stats.upper_bound_calls, 0, "{what}");
        assert_eq!(stats.tuples_scanned, WIDER + 2 * WIDER, "{what}");
        assert_eq!(engine.relation("s").unwrap().len() as u64, 2 * WIDER);
    }
}

/// A check at step 2 over the constant tuple `(7, 0)`: every binding that
/// reaches it shares the key, so each block makes one `contains` (one per
/// binding while checks were not blocked). `pair(7, 0)` holds, so nothing is
/// derived and the emit batch issues no membership test of its own.
#[test]
fn a_check_is_made_once_a_block() {
    const CHECKED: &str = r#"
        .decl wide(x: number, y: number, m: number)
        .decl third(y: number, z: number)
        .decl pair(k: number, z: number)
        .decl none(x: number)
        none(x) :- wide(x, y, _), third(y, _), !pair(7, 0).
    "#;
    let program = parse(CHECKED).unwrap();
    let reach = |c: Range<u64>| c.filter(|&x| third(key(x)).is_some()).count() as u64;
    for threads in with_extra(&[1, 2]) {
        let mut engine = Engine::new(&program, StorageKind::RbTreeLocked, threads).unwrap();
        engine.set_planner_enabled(false);
        let mut db = facts();
        for rel in ["wide", "third", "pair"] {
            engine.add_facts(rel, db.remove(rel).unwrap()).unwrap();
        }
        engine.run().unwrap();
        let tests = engine.stats().membership_tests;
        let want = blocks(WIDE, threads, reach);
        assert_eq!(tests, want, "{threads} threads: membership tests");
        assert!(engine.relation("none").unwrap().is_empty());
    }
}

/// An inner scan entered through its second column (`rev(b, y)`, `y` bound
/// by `wider`), planner off: one read of `rev` a block, which keeps the
/// tuples whose second column is one of the block's keys — one
/// `lower_bound_calls` a block, no `upper_bound_calls`, every tuple of `rev`
/// scanned once a block and each match once for every binding under its
/// key — and one `inner_scans_full` a binding. One worker, whose blocks
/// span its chunks; a tree's range chunks each open with a descent of
/// their own.
#[test]
fn a_keyed_sweep_reads_its_relation_once_a_block() {
    const KEYED: &str = r#"
        .decl wider(x: number, y: number, m: number)
        .decl rev(b: number, y: number)
        .decl k(x: number, b: number)
        k(x, b) :- wider(x, y, _), rev(b, y).
    "#;
    let program = parse(KEYED).unwrap();
    for kind in StorageKind::ALL {
        let what = kind.label();
        let mut engine = Engine::new(&program, kind, 1).unwrap();
        engine.set_planner_enabled(false);
        let mut db = facts();
        let rev = db["rev"].len() as u64;
        for rel in ["wider", "rev"] {
            engine.add_facts(rel, db.remove(rel).unwrap()).unwrap();
        }
        engine.run().unwrap();
        let stats = engine.stats();
        let opened = match kind {
            StorageKind::SpecBTree => stats.chunks_claimed,
            _ => 0,
        };
        let sweeps = blocks(WIDER, 1, |c| c.end - c.start);
        let matched = (0..WIDER).filter(|&x| key(x).is_multiple_of(REV_STEP));
        let matched = matched.count() as u64;
        assert_eq!(stats.lower_bound_calls - opened, sweeps, "{what}");
        assert_eq!(stats.inner_scans_full, WIDER, "{what}");
        assert_eq!(stats.upper_bound_calls, 0, "{what}");
        assert_eq!(
            stats.tuples_scanned,
            WIDER + sweeps * rev + matched,
            "{what}"
        );
        assert_eq!(engine.relation("k").unwrap().len() as u64, matched);
    }
}

/// `src(x, key)`'s tuples: three blocks of step 1 less a thousand bindings,
/// so blocks end inside chunks and, at one worker, a block spans several;
/// every binding reaches up to three `mid` tuples, so step 2 gets about six
/// blocks there, each filled in the middle of a replay of step 1's ranges.
const SRC: u64 = 3 * BLOCK - 1_000;
/// The keys `src` and `mid` join on, and the values `mid` leads to.
const DEEP_KEYS: u64 = 64;

/// Four-literal rules with a deeper step of every kind: a scan with a
/// bound prefix at step 2 on the primary (`low`), keyed sweeps past step 1
/// (`d2`, which the planner starts at the small `hi` and joins to `mid` and
/// `src` through their second columns, and source order joins to `hi`
/// through its second), a scan with nothing fixed at step 2 (`few`, swept
/// once a block), positive and
/// negated checks at steps 2 and 3, filters between steps 1 and 2 (`j !=
/// k`) and after a sweep (`a != j`), and constants in a check, in a scan's
/// prefix and in the outer scan.
const DEEP: &str = r#"
    .decl src(x: number, k: number)
    .decl mid(k: number, j: number)
    .decl low(j: number, w: number)
    .decl hi(b: number, j: number)
    .decl ok(v: number)
    .decl ban(a: number, c: number)
    .decl d1(x: number, w: number)
    .decl d2(x: number, b: number)
    .decl d3(x: number, j: number)
    .decl d4(x: number, k: number)
    .decl d5(x: number, w: number)
    .decl few(a: number, b: number)
    .decl d6(x: number, b: number)

    d1(x, w) :- src(x, k), mid(k, j), low(j, w), !ban(w, 7).
    d2(x, b) :- src(x, k), mid(k, j), hi(b, j), ok(b).
    d3(x, j) :- src(x, k), mid(k, j), ok(j), !ban(j, k), j != k.
    d4(x, k) :- src(x, k), mid(k, j), !ban(j, k), ok(j).
    d5(x, w) :- src(x, 5), mid(5, j), low(j, w), ok(8).
    d6(x, b) :- src(x, k), mid(k, j), few(a, b), a != j.
"#;

fn deep_facts() -> naive::Db {
    let keys = 0..DEEP_KEYS;
    let rel = |name: &str, tuples: Vec<Vec<u64>>| (name.to_string(), tuples.into_iter().collect());
    let mid = keys.clone().flat_map(|k| {
        let js = BTreeSet::from([k, (7 * k + 3) % DEEP_KEYS, (13 * k + 5) % DEEP_KEYS]);
        js.into_iter().map(move |j| vec![k, j])
    });
    // Every fifth `low` range is empty; even `j` lead to two `hi` tuples.
    let low = keys.clone().filter(|j| j % 5 != 4);
    let hi = keys.clone().flat_map(|j| {
        let second = j.is_multiple_of(2).then(|| vec![300 + j, j]);
        [vec![200 + j, j]].into_iter().chain(second)
    });
    let ban_k = keys.clone().flat_map(|j| {
        let ks = (0..DEEP_KEYS).filter(move |k| (j + k).is_multiple_of(5));
        ks.map(move |k| vec![j, k])
    });
    naive::Db::from([
        rel(
            "src",
            (0..SRC).map(|x| vec![x, (x / 3) % DEEP_KEYS]).collect(),
        ),
        rel("mid", mid.collect()),
        rel(
            "low",
            low.flat_map(|j| [vec![j, 2 * j], vec![j, 2 * j + 1]])
                .collect(),
        ),
        rel("hi", hi.collect()),
        // Swept whole at step 2: `(j, ·)` is filtered out after the sweep.
        rel("few", vec![vec![3, 0], vec![3, 1], vec![5, 1], vec![8, 2]]),
        rel(
            "ok",
            (0..400).filter(|v| v % 3 != 1).map(|v| vec![v]).collect(),
        ),
        rel(
            "ban",
            (0..128)
                .step_by(4)
                .map(|w| vec![w, 7])
                .chain(ban_k)
                .collect(),
        ),
    ])
}

/// What `DEEP` derives.
const DERIVED: [&str; 6] = ["d1", "d2", "d3", "d4", "d5", "d6"];

#[test]
fn deeper_blocks_agree_with_the_naive_evaluator() {
    let program = parse(DEEP).unwrap();
    let facts = deep_facts();
    // Every 97th `src` tuple, `mid`'s key 5 (all of `d5`) and one `ban`
    // tuple, which sends the retraction to the negation fallback.
    let batch: Vec<(String, Vec<u64>)> = (0..SRC)
        .step_by(97)
        .map(|x| ("src".to_string(), vec![x, (x / 3) % DEEP_KEYS]))
        .chain(
            facts["mid"]
                .range(vec![5]..vec![6])
                .map(|t| ("mid".to_string(), t.clone())),
        )
        .chain([("ban".to_string(), vec![0, 7])])
        .collect();
    let mut surviving = facts.clone();
    for (rel, tuple) in &batch {
        assert!(
            surviving.get_mut(rel).unwrap().remove(tuple),
            "{rel}{tuple:?}"
        );
    }
    let (before, after) = (naive(&program, &facts), naive(&program, &surviving));
    for rel in DERIVED {
        assert!(!before[rel].is_empty(), "{rel} is exercised");
        assert_ne!(before[rel], after[rel], "the retraction reaches {rel}");
    }
    assert!(
        before["d1"].len() as u64 > 8 * BLOCK,
        "step 2 runs many blocks"
    );
    assert!(
        before["d6"].len() as u64 > 2 * SRC,
        "step 2 sweeps many blocks"
    );

    let matches = |engine: &Engine, expect: &naive::Db, what: &str| {
        for rel in DERIVED {
            let got = engine.relation(rel).unwrap();
            assert_eq!(got.len(), expect[rel].len(), "{what}: size of {rel}");
            assert!(got.iter().eq(&expect[rel]), "{what}: relation {rel}");
        }
    };
    for kind in StorageKind::ALL {
        for threads in with_extra(&[1, 2]) {
            for planner in [false, true] {
                let what = format!("{kind:?}, {threads} threads, planner {planner}");
                let mut engine = Engine::new(&program, kind, threads).unwrap();
                engine.set_planner_enabled(planner);
                for (rel, tuples) in &facts {
                    engine.add_facts(rel, tuples.iter().cloned()).unwrap();
                }
                engine.run().unwrap();
                matches(&engine, &before, &what);
                let explain = engine.explain();
                let d2 = explain.lines().find(|l| l.contains("emit d2(")).unwrap();
                let deep_sweep = d2.split(" ⋈ ").skip(2).any(|s| s.contains(" key=("));
                assert!(
                    deep_sweep,
                    "{what}: a step of `d2` past the first inner one is a keyed sweep: {d2}"
                );
                let d6 = explain.lines().find(|l| l.contains("emit d6(")).unwrap();
                let swept = d6.split(" ⋈ ").nth(2).unwrap().starts_with("scan few");
                assert!(
                    swept || planner,
                    "{what}: `d6` sweeps `few` at step 2: {d6}"
                );
                engine.retract_facts(batch.clone()).unwrap();
                matches(&engine, &after, &format!("{what}, after the retraction"));
            }
        }
    }
}

/// `big`'s tuples but for the pairs `k3` joins: more than a block, so the
/// sweeps below read a relation larger than a block, and every key of
/// `src` has about fifty.
const BIG: u64 = BLOCK + 500;

/// Keyed sweeps of every shape, planner off: source order leaves each
/// `big` literal entered through columns that do not lead it. Constants in
/// the swept atom, alone (`k6`, one key for every binding) or beside a
/// bound column (`k1`); a key of two columns (`k5`); a repeated variable
/// the atom binds itself (`k2`, checked after the pass); a check of the
/// swept relation right after it (`k3`, positive, and `k4`, negated — a
/// locked kind would hang if it were made while the pass holds its lock);
/// a sweep at step 2 with a negation after it (`k7`). Every storage kind,
/// one and two threads (and `DATALOG_TEST_THREADS`), against the naive
/// evaluator, before and after a retraction, whose synthetic rules sweep
/// too.
#[test]
fn keyed_sweeps_agree_with_the_naive_evaluator() {
    const SWEPT: &str = r#"
        .decl src(x: number, k: number)
        .decl pair(k: number, c: number)
        .decl fan(k: number, j: number)
        .decl big(a: number, k: number, c: number)
        .decl ban(a: number)
        .decl k1(x: number, a: number)
        .decl k2(x: number, a: number)
        .decl k3(x: number, a: number)
        .decl k4(x: number, a: number)
        .decl k5(k: number, a: number)
        .decl k6(x: number, a: number)
        .decl k7(x: number, a: number)

        k1(x, a) :- src(x, k), big(a, k, 1).
        k2(x, a) :- src(x, k), big(a, k, a).
        k3(x, a) :- src(x, k), big(a, k, c), big(c, k, a).
        k4(x, a) :- src(x, k), big(a, k, c), !big(c, k, 0).
        k5(k, a) :- pair(k, c), big(a, k, c).
        k6(x, a) :- src(x, _), big(a, 5, 2).
        k7(x, a) :- src(x, k), fan(k, j), big(a, j, _), !ban(a).
    "#;
    const KEYS: u64 = 64;
    const SRCS: u64 = 96;
    let program = parse(SWEPT).unwrap();
    let rel = |name: &str, tuples: Vec<Vec<u64>>| (name.to_string(), tuples.into_iter().collect());
    // `big(a, a % 97, c)`: keys past 63 are no key of `src`; `c` is `a % 3`
    // but for every seventh tuple, which holds `a` itself (`k2`) or, past
    // `BIG`, a partner `a - BIG` that holds it back (`k3`).
    let big = (0..BIG).map(|a| match a % 7 {
        0 => vec![a, a % 97, a],
        _ => vec![a, a % 97, a % 3],
    });
    let partners = (0..BIG)
        .step_by(11)
        .flat_map(|a| [vec![a, a % 97, BIG + a], vec![BIG + a, a % 97, a]]);
    let facts: naive::Db = naive::Db::from([
        rel("src", (0..SRCS).map(|x| vec![x, x % KEYS]).collect()),
        rel("pair", (0..KEYS).map(|k| vec![k, k % 3]).collect()),
        rel(
            "fan",
            (0..KEYS)
                .flat_map(|k| (0..3).map(move |i| vec![k, (k + 9 * i) % 97]))
                .collect(),
        ),
        rel("big", big.chain(partners).collect()),
        rel("ban", (0..BIG).step_by(5).map(|a| vec![a]).collect()),
    ]);
    let batch: Vec<(String, Vec<u64>)> = (0..BIG)
        .step_by(61)
        .map(|a| {
            (
                "big".to_string(),
                facts["big"].range(vec![a]..).next().unwrap().clone(),
            )
        })
        .chain(
            (0..SRCS)
                .step_by(9)
                .map(|x| ("src".to_string(), vec![x, x % KEYS])),
        )
        .collect();
    let mut surviving = facts.clone();
    for (rel, tuple) in &batch {
        surviving.get_mut(rel).unwrap().remove(tuple);
    }
    let (before, after) = (naive(&program, &facts), naive(&program, &surviving));
    let derived = ["k1", "k2", "k3", "k4", "k5", "k6", "k7"];
    for rel in derived {
        assert!(!before[rel].is_empty(), "{rel} is exercised");
        assert_ne!(before[rel], after[rel], "the retraction reaches {rel}");
    }
    assert!(
        facts["big"].len() as u64 > BLOCK,
        "`big` is larger than a block"
    );
    let matches = |engine: &Engine, expect: &naive::Db, what: &str| {
        for rel in derived {
            let got = engine.relation(rel).unwrap();
            assert_eq!(got.len(), expect[rel].len(), "{what}: size of {rel}");
            assert!(got.iter().eq(&expect[rel]), "{what}: relation {rel}");
        }
    };
    for kind in StorageKind::ALL {
        for threads in with_extra(&[1, 2]) {
            let what = format!("{kind:?}, {threads} threads");
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            engine.set_planner_enabled(false);
            for (rel, tuples) in &facts {
                engine.add_facts(rel, tuples.iter().cloned()).unwrap();
            }
            engine.run().unwrap();
            matches(&engine, &before, &what);
            let explain = engine.explain();
            for rel in derived {
                let plan = explain
                    .lines()
                    .find(|l| l.contains(&format!("emit {rel}(")))
                    .unwrap();
                assert!(plan.contains("scan big key=("), "{what}: {plan}");
            }
            engine.retract_facts(batch.clone()).unwrap();
            matches(&engine, &after, &format!("{what}, after the retraction"));
        }
    }
}
