//! Differential test for the emit batch: head tuples wait in a per-worker
//! buffer that is sorted, deduplicated and applied as one run — an anti-join
//! over the full relation, what is left merged into `new`; leaf group by
//! leaf group on the trees, tuple by tuple on the other kinds — when it
//! holds 16 384 tuples (in a plan that reads by blocks, at the first block
//! boundary after that, or past 65 536), when a chunk ends if several
//! workers share the plan, and once when a worker has run its last chunk or
//! a degenerate plan ends: a worker alone keeps one batch across its chunks.
//! Every rule below sits on one side of one of those flush points, and
//! the `far` rules on either side of the sort's own choice: a batch whose
//! columns vary in a few bits is put in order by counting, one whose columns
//! spread over the whole word by comparing. The expected relations are
//! written down from the inputs' definitions, never evaluated.

mod common;

use common::thread_counts;
use datalog::{parse, Engine, StorageKind};
use std::collections::BTreeMap;
use workloads::graphs;

/// The batch bound of `eval.rs` (private there): the sizes below are chosen
/// around it.
const BATCH: u64 = 16_384;
/// `fan(k, ·)` sizes by `k`: none, one, a batch exactly, a batch and one
/// more, several batches.
const FAN: [u64; 5] = [0, 1, BATCH, BATCH + 1, 40_000];
/// `base(0, ·)`: what withdrawing `tag(0, 1)` overdeletes from `big`, more
/// than a batch, in the one chunk of a one-tuple deletion set.
const WIDE: u64 = 17_000;
/// `base(x, ·)` for `x` in `1..=5`: keeps `big` above four times `WIDE`, so
/// that the retraction is repaired and not handed over to recomputation.
const NARROW: u64 = 10_400;
/// `tag(0, ·)`: every `big(0, y)` is re-proved once per tag left, so the
/// rederivation emits `WIDE * (TAGS - 1)` tuples, a batch and more in each
/// of one worker's eight chunks.
const TAGS: u64 = 9;
/// `far(k, ·)` for each `k`: a batch and a fifth of another, both longer
/// than the slices the sort compares without looking.
const FAR: u64 = 20_000;
/// `far(0, ·)` counts up from here: the bits that vary are low, the bits
/// that are set are not.
const HIGH: u64 = 1 << 40;
/// `far(2, ·)` steps by this: 20 000 values over the whole word, so every
/// digit of the column varies. A head that holds the column once takes six
/// counting passes: a full batch, worth fourteen levels of comparing, is
/// counted, and the 3 616 tuples after it, worth twelve, are compared; a
/// head with the column twice or three times is compared whatever its size.
const STRIDE: u64 = u64::MAX / FAR;

/// What `far(k, i)` holds: dense above 2⁴⁰, dense below `u64::MAX`, spread.
fn far(k: u64, i: u64) -> u64 {
    match k {
        0 => HIGH + i,
        1 => u64::MAX - i,
        _ => i * STRIDE,
    }
}

/// Every `pK` holds `K` alone, so each plan's outer scan is one tuple in
/// one chunk and what its inner scan yields lands in one worker's batch;
/// `same` proves one tuple 40 000 times, `big(0, ·)` each of its tuples
/// nine times, and the `flag` rules start with a membership test: the
/// degenerate plan, which no chunk ends.
const PROGRAM: &str = r#"
    .decl p0(k: number)
    .decl p1(k: number)
    .decl p2(k: number)
    .decl p3(k: number)
    .decl p4(k: number)
    .decl fan(k: number, y: number)
    .decl e0(y: number)
    .decl e1(y: number)
    .decl e2(y: number)
    .decl e3(y: number)
    .decl e4(y: number)
    .decl t3(k: number, y: number, z: number)
    .decl t5(a: number, b: number, c: number, d: number, e: number)
    .decl same(k: number)
    .decl flag(x: number)
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .decl far(k: number, y: number)
    .decl f1(y: number)
    .decl g1(y: number)
    .decl f3(y: number, c: number, k: number)
    .decl g3(y: number, c: number, z: number)
    .decl f5(k: number, y: number, c: number, z: number, d: number)
    .decl g5(y: number, k: number, z: number, c: number, w: number)
    .decl base(x: number, y: number)
    .decl tag(x: number, z: number)
    .decl big(x: number, y: number)

    e0(y) :- p0(k), fan(k, y).
    e1(y) :- p1(k), fan(k, y).
    e2(y) :- p2(k), fan(k, y).
    e3(y) :- p3(k), fan(k, y).
    e4(y) :- p4(k), fan(k, y).
    t3(k, y, y) :- p3(k), fan(k, y).
    t5(k, y, 7, y, k) :- p4(k), fan(k, y).
    same(k) :- p4(k), fan(k, y).
    f1(y) :- p0(k), far(k, y).
    g1(y) :- p2(k), far(k, y).
    f3(y, 1099511627776, k) :- p1(k), far(k, y).
    g3(y, 18446744073709551615, y) :- p2(k), far(k, y).
    f5(k, y, 18446744073709551614, y, 1099511627777) :- p0(k), far(k, y).
    g5(y, k, y, 7, y) :- p2(k), far(k, y).
    flag(1) :- p1(1).
    flag(2) :- p1(9).
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
    big(x, y) :- base(x, y), tag(x, z).
"#;

type Db = BTreeMap<&'static str, Vec<Vec<u64>>>;

fn edges() -> Vec<(u64, u64)> {
    graphs::random_graph(160, 2, 11)
}

fn facts() -> Db {
    let fan = (0..FAN.len()).flat_map(|k| (0..FAN[k]).map(move |y| vec![k as u64, y]));
    let narrow = (1..=5).flat_map(|x| (0..NARROW).map(move |y| vec![x, y]));
    let far = (0..3).flat_map(|k| (0..FAR).map(move |i| vec![k, far(k, i)]));
    let mut db = Db::from([
        ("fan", fan.collect()),
        ("far", far.collect()),
        ("edge", edges().iter().map(|&(a, b)| vec![a, b]).collect()),
        (
            "base",
            (0..WIDE).map(|y| vec![0, y]).chain(narrow).collect(),
        ),
        (
            "tag",
            (1..=TAGS)
                .map(|z| vec![0, z])
                .chain((1..=5).map(|x| vec![x, 1]))
                .collect(),
        ),
    ]);
    for (k, p) in ["p0", "p1", "p2", "p3", "p4"].into_iter().enumerate() {
        db.insert(p, vec![vec![k as u64]]);
    }
    db
}

/// What the program derives when `fan(3, ·)` has `fan3` tuples.
fn expected(fan3: u64) -> Db {
    let column = |n: u64| (0..n).map(|y| vec![y]).collect::<Vec<_>>();
    let path = graphs::reference_tc(&edges());
    assert!(path.len() as u64 > BATCH, "the closure spans batches");
    let over = |k: u64, row: &dyn Fn(u64) -> Vec<u64>| {
        let mut rows: Vec<_> = (0..FAR).map(|i| row(far(k, i))).collect();
        rows.sort_unstable();
        rows
    };
    Db::from([
        ("f1", over(0, &|y| vec![y])),
        ("g1", over(2, &|y| vec![y])),
        ("f3", over(1, &|y| vec![y, HIGH, 1])),
        ("g3", over(2, &|y| vec![y, u64::MAX, y])),
        ("f5", over(0, &|y| vec![0, y, u64::MAX - 1, y, HIGH + 1])),
        ("g5", over(2, &|y| vec![y, 2, y, 7, y])),
        ("e0", column(FAN[0])),
        ("e1", column(FAN[1])),
        ("e2", column(FAN[2])),
        ("e3", column(fan3)),
        ("e4", column(FAN[4])),
        ("t3", (0..fan3).map(|y| vec![3, y, y]).collect()),
        ("t5", (0..FAN[4]).map(|y| vec![4, y, 7, y, 4]).collect()),
        ("same", vec![vec![4]]),
        ("flag", vec![vec![1]]),
        ("path", path.into_iter().map(|(a, b)| vec![a, b]).collect()),
        ("big", facts().remove("base").unwrap()),
    ])
}

fn assert_matches(engine: &Engine, expect: &Db, what: &str) {
    for (rel, want) in expect {
        let got = engine.relation(rel).unwrap();
        assert_eq!(got.len(), want.len(), "{what}: size of {rel}");
        assert!(got == *want, "{what}: relation {rel}");
    }
}

#[test]
fn flush_points_lose_and_repeat_nothing() {
    let program = parse(PROGRAM).unwrap();
    let (before, after) = (expected(FAN[3]), expected(FAN[3] - 1));
    for kind in StorageKind::ALL {
        for threads in thread_counts() {
            let what = format!("{kind:?}, {threads} threads");
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            for (rel, tuples) in facts() {
                engine.add_facts(rel, tuples).unwrap();
            }
            engine.run().unwrap();
            assert_matches(&engine, &before, &what);

            // `tag(0, 1)`: all of `big(0, ·)` is overdeleted by one plan
            // execution and comes back through the eight tags left.
            // `fan(3, 16384)`: `e3` and `t3` end exactly on a batch.
            let batch = [("tag", vec![0, 1]), ("fan", vec![3, BATCH])];
            let out = engine
                .retract_facts(batch.map(|(rel, t)| (rel.to_string(), t)))
                .unwrap();
            assert_eq!(out.retracted_inputs, 2, "{what}");
            assert_eq!(out.recomputed_strata, 0, "{what}: repaired, not recomputed");
            // The two facts, `big(0, ·)`, and one tuple each of `e3` and `t3`.
            assert_eq!(out.overdeleted, WIDE + 4, "{what}");
            assert_eq!(out.rederived, WIDE, "{what}");
            assert_matches(&engine, &after, &format!("{what}, after the retraction"));
        }
    }
}
