//! Planner equivalence tier: cost-based literal reordering and automatic
//! secondary indexes are **pure optimizations** — the fixpoint must be
//! bit-identical with the planner on, with the planner off (legacy
//! source-order compilation), and against an independent reference closure
//! computed over std sets, on every storage backend at every thread count,
//! including under DRed retraction.
//!
//! Also pins the observable planner surface: `EvalStats` index counters and
//! the `EXPLAIN` rendering of chosen permutations and justifying
//! cardinalities.

mod common;

use common::thread_counts;
use datalog::{parse, Engine, StorageKind};
use std::collections::BTreeSet;
use workloads::graphs;
use workloads::pointsto::{self, PointsToConfig};

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

/// Reverse reachability: the recursive rule binds `y` from Δback and scans
/// `edge` on its **second** column — unservable by the primary order, so
/// the planner must derive a `[1, 0]` secondary index on `edge`.
const REVERSE_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl seed(x: number)
    .decl back(x: number)
    .output back
    back(x) :- seed(x).
    back(x) :- back(y), edge(x, y).
"#;

/// Adversarial source order: `fact` first (big, nothing bound), `probe`
/// last (tiny). The cost model must rotate `probe` to the front, after
/// which `fact` is entered through its second column (`[1, 0]` index).
const PROBE_PROGRAM: &str = r#"
    .decl probe(x: number)
    .decl fact(y: number, x: number)
    .decl link(y: number, z: number)
    .decl out(x: number, z: number)
    .output out
    out(x, z) :- fact(y, x), link(y, z), probe(x).
"#;

/// Parses `src`, loads `facts`, runs to fixpoint with the planner toggled
/// per `planner`, and returns relation `out`.
fn eval_rel(
    src: &str,
    facts: &[(&str, Vec<Vec<u64>>)],
    out: &str,
    kind: StorageKind,
    threads: usize,
    planner: bool,
) -> Vec<Vec<u64>> {
    let program = parse(src).unwrap();
    let mut engine = Engine::new(&program, kind, threads).unwrap();
    engine.set_planner_enabled(planner);
    for (name, rows) in facts {
        engine.add_facts(name, rows.iter().cloned()).unwrap();
    }
    engine.run().unwrap();
    engine.relation(out).unwrap()
}

/// Planner-on ≡ planner-off ≡ `expect` across the full backend × thread
/// matrix.
fn check_matrix(
    name: &str,
    src: &str,
    facts: &[(&str, Vec<Vec<u64>>)],
    out: &str,
    expect: &[Vec<u64>],
) {
    for kind in StorageKind::ALL {
        for threads in thread_counts() {
            let on = eval_rel(src, facts, out, kind, threads, true);
            assert_eq!(
                on, expect,
                "{name}: planner-on on {kind:?} with {threads} threads \
                 disagrees with the reference closure"
            );
            let off = eval_rel(src, facts, out, kind, threads, false);
            assert_eq!(
                off, expect,
                "{name}: planner-off on {kind:?} with {threads} threads \
                 disagrees with the reference closure"
            );
        }
    }
}

fn pairs(edges: &[(u64, u64)]) -> Vec<Vec<u64>> {
    edges.iter().map(|&(a, b)| vec![a, b]).collect()
}

#[test]
fn transitive_closure_matrix() {
    let edges = graphs::random_graph(30, 3, 0xBEEF);
    let expect: Vec<Vec<u64>> = graphs::reference_tc(&edges)
        .into_iter()
        .map(|(a, b)| vec![a, b])
        .collect();
    check_matrix(
        "tc",
        TC_PROGRAM,
        &[("edge", pairs(&edges))],
        "path",
        &expect,
    );
}

/// Reference reverse reachability over std sets (no engine).
fn reference_back(edges: &[(u64, u64)], seeds: &[u64]) -> Vec<Vec<u64>> {
    let mut back: BTreeSet<u64> = seeds.iter().copied().collect();
    loop {
        let before = back.len();
        let next: Vec<u64> = edges
            .iter()
            .filter(|&&(_, y)| back.contains(&y))
            .map(|&(x, _)| x)
            .collect();
        back.extend(next);
        if back.len() == before {
            break;
        }
    }
    back.into_iter().map(|x| vec![x]).collect()
}

#[test]
fn reverse_reachability_matrix() {
    let edges = graphs::random_graph(40, 3, 0xFACADE);
    let seeds = [3u64, 17, 29];
    let expect = reference_back(&edges, &seeds);
    let facts = [
        ("edge", pairs(&edges)),
        ("seed", seeds.iter().map(|&s| vec![s]).collect()),
    ];
    check_matrix("reverse", REVERSE_PROGRAM, &facts, "back", &expect);
}

#[test]
fn reverse_join_builds_and_uses_secondary_index() {
    // Forty chains of fifty edges, every chain end seeded: each iteration
    // walks all chains one edge back, so Δback holds 40 tuples and scanning
    // `edge` (2000 tuples) for each of them costs more than indexing it.
    let edges: Vec<(u64, u64)> = (0..40u64)
        .flat_map(|c| (0..50u64).map(move |i| (c * 100 + i, c * 100 + i + 1)))
        .collect();
    let program = parse(REVERSE_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 4).unwrap();
    engine.add_facts("edge", pairs(&edges)).unwrap();
    engine
        .add_facts("seed", (0..40u64).map(|c| vec![c * 100 + 50]))
        .unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("back").unwrap(), 40 * 51);
    let stats = engine.stats();
    assert_eq!(stats.index_builds, 1, "one [1,0] index on edge: {stats:?}");
    assert!(
        stats.inner_scans_indexed > 0,
        "inner edge probes must route through the secondary index: {stats:?}"
    );
    assert_eq!(
        stats.inner_scans_full, 0,
        "no inner scan should fall back to a full scan here: {stats:?}"
    );
    // The chosen permutation is observable on the storage itself.
    let report = engine.storage_report();
    let edge = report.relations.iter().find(|r| r.name == "edge").unwrap();
    assert_eq!(edge.index_perms, vec![vec![1, 0]], "catalog chose [1,0]");

    // A later run finds the index in place and plans through it from its
    // first iteration: twenty more chains, no full inner scan, no new build.
    let more: Vec<(u64, u64)> = (40..60u64)
        .flat_map(|c| (0..50u64).map(move |i| (c * 100 + i, c * 100 + i + 1)))
        .collect();
    engine.add_facts("edge", pairs(&more)).unwrap();
    engine
        .add_facts("seed", (40..60u64).map(|c| vec![c * 100 + 50]))
        .unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("back").unwrap(), 60 * 51);
    let stats = engine.stats();
    assert_eq!(
        (stats.index_builds, stats.inner_scans_full),
        (1, 0),
        "{stats:?}"
    );
    assert!(
        engine.explain().contains("range edge index=[1,0]"),
        "{}",
        engine.explain()
    );
}

/// Facts added after a run reach the index that run built: `edge` carries
/// `[1, 0]`, the second batch — twenty new chains, and an edge into every
/// old chain's start — goes into it as runs, and a second run derives what
/// one run over every fact does, on every backend.
#[test]
fn facts_added_to_an_indexed_relation_reach_its_index() {
    let chains = |cs: std::ops::Range<u64>| {
        let edges = cs.flat_map(|c| (0..50u64).map(move |i| (c * 100 + i, c * 100 + i + 1)));
        pairs(&edges.collect::<Vec<_>>())
    };
    let seeds = |cs: std::ops::Range<u64>| cs.map(|c| vec![c * 100 + 50]).collect::<Vec<_>>();
    let links = (0..40u64).map(|c| vec![c * 100 + 70, c * 100]);
    let first = [("edge", chains(0..40)), ("seed", seeds(0..40))];
    let later = [
        ("edge", chains(40..60).into_iter().chain(links).collect()),
        ("seed", seeds(40..60)),
    ];
    let program = parse(REVERSE_PROGRAM).unwrap();
    for kind in StorageKind::ALL {
        for threads in [1, 2] {
            let mut engine = Engine::new(&program, kind, threads).unwrap();
            let mut load = |facts: &[(&str, Vec<Vec<u64>>)]| {
                for (name, rows) in facts {
                    engine.add_facts(name, rows.iter().cloned()).unwrap();
                }
                engine.run().unwrap();
            };
            load(&first);
            load(&later);
            let report = engine.storage_report();
            let edge = report.relations.iter().find(|r| r.name == "edge").unwrap();
            let indexed = kind == StorageKind::SpecBTree;
            let want: Vec<Vec<usize>> = if indexed { vec![vec![1, 0]] } else { vec![] };
            assert_eq!(edge.index_perms, want, "{kind:?}");
            let all: Vec<(&str, Vec<Vec<u64>>)> = first
                .iter()
                .zip(&later)
                .map(|((name, a), (_, b))| (*name, a.iter().chain(b).cloned().collect()))
                .collect();
            assert_eq!(
                engine.relation("back").unwrap(),
                eval_rel(REVERSE_PROGRAM, &all, "back", kind, threads, true),
                "{kind:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn index_built_for_one_plan_serves_every_later_plan_that_can_use_it() {
    // `near`'s base rule enters `edge` through its second column from forty
    // probes and builds `edge[1,0]`. The recursive rule of the same stratum
    // and the rule of the stratum above bind a tuple or two per execution —
    // never enough to have built the index themselves — and must still find it.
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl probe(y: number)
        .decl near(x: number)
        .decl pick(y: number)
        .decl before(x: number)
        .output near
        .output before
        near(x) :- probe(y), edge(x, y).
        near(x) :- near(y), edge(x, y).
        before(x) :- pick(y), edge(x, y), near(x).
    "#,
    )
    .unwrap();
    let edges: Vec<(u64, u64)> = (0..40u64)
        .flat_map(|c| (0..50u64).map(move |i| (c * 100 + i, c * 100 + i + 1)))
        .collect();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_facts("edge", pairs(&edges)).unwrap();
    engine
        .add_facts("probe", (0..40u64).map(|c| vec![c * 100 + 50]))
        .unwrap();
    engine.add_facts("pick", [vec![7u64]]).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("near").unwrap(), 40 * 50);
    assert_eq!(engine.relation("before").unwrap(), vec![vec![6u64]]);
    let stats = engine.stats();
    assert_eq!(
        (stats.index_builds, stats.inner_scans_full),
        (1, 0),
        "{stats:?}\n{}",
        engine.explain()
    );
}

#[test]
fn index_is_built_mid_fixpoint_once_the_scans_add_up() {
    // One 200-edge chain walked back from its end: Δback is a single tuple
    // every iteration, so no one iteration repays indexing `edge` — but the
    // iterations add up, and the index appears part-way through the fixpoint.
    let program = parse(REVERSE_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    engine
        .add_facts("edge", pairs(&graphs::chain(200)))
        .unwrap();
    engine.add_facts("seed", [vec![200u64]]).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("back").unwrap(), 201);
    let stats = engine.stats();
    assert_eq!(stats.index_builds, 1, "{stats:?}");
    assert!(
        (1..=20).contains(&stats.inner_scans_full) && stats.inner_scans_indexed > 150,
        "a few full scans, then the index: {stats:?}"
    );
    let explain = engine.explain();
    assert!(
        explain.contains("range edge index=[1,0]") && explain.contains("replanned at iteration"),
        "{explain}"
    );
}

/// Runs `src` over what `load` puts in and returns the sum of what the run
/// scanned and the range queries it made — the work the planner is there to
/// save — with the engine it ran on. Single-threaded, so it repeats exactly.
fn join_work(
    src: &datalog::Program,
    load: impl Fn(&mut Engine),
    kind: StorageKind,
    planner: bool,
) -> (u64, Engine) {
    let mut engine = Engine::new(src, kind, 1).unwrap();
    engine.set_planner_enabled(planner);
    load(&mut engine);
    engine.run().unwrap();
    let s = engine.stats();
    let work = s.tuples_scanned + s.lower_bound_calls + s.upper_bound_calls;
    (work, engine)
}

#[test]
fn planner_never_does_more_join_work_than_source_order_on_fig5a() {
    let program = pointsto::program();
    let cfg = PointsToConfig::scaled(5);
    let closure = |engine: &Engine| {
        let mut closure = engine.relation("vpt").unwrap();
        closure.extend(engine.relation("hpt").unwrap());
        closure
    };
    for kind in [StorageKind::SpecBTree, StorageKind::RbTreeLocked] {
        let (mut on_total, mut off_total) = (0u64, 0u64);
        for seed in 42..=52 {
            let facts = pointsto::generate_facts(&cfg, seed);
            let load = |e: &mut Engine| pointsto::load_facts(e, &facts).unwrap();
            let (on, on_engine) = join_work(&program, load, kind, true);
            let (off, off_engine) = join_work(&program, load, kind, false);
            assert_eq!(
                closure(&on_engine),
                closure(&off_engine),
                "{kind:?}, seed {seed}"
            );
            assert!(
                on <= off,
                "{kind:?}, seed {seed}: planner-on did {on} scans + range queries, source order {off}"
            );
            on_total += on;
            off_total += off;
        }
        if kind == StorageKind::SpecBTree {
            assert!(
                on_total * 5 < off_total,
                "with indexes the planner should save most of the work: {on_total} vs {off_total}"
            );
        }
    }
}

/// One rule over `decls` written in an adversarial literal order and in the
/// best order a hand can write without secondary indexes. Returns the join
/// work of the planner over the adversarial text, of source order over the
/// same text and of source order over the hand-written one, with the
/// planner's engine, after checking that all three derive the same `output`.
fn against_hand_orders(
    decls: &str,
    [adversarial, best_hand]: [&str; 2],
    output: &str,
    load: impl Fn(&mut Engine),
) -> (u64, u64, u64, Engine) {
    let adversarial = parse(&format!("{decls} {adversarial}")).unwrap();
    let best_hand = parse(&format!("{decls} {best_hand}")).unwrap();
    let kind = StorageKind::SpecBTree;
    let (on, planned) = join_work(&adversarial, &load, kind, true);
    let (off, source_order) = join_work(&adversarial, &load, kind, false);
    let (hand, by_hand) = join_work(&best_hand, &load, kind, false);
    let out = planned.relation(output).unwrap();
    assert!(!out.is_empty());
    assert_eq!(out, source_order.relation(output).unwrap());
    assert_eq!(out, by_hand.relation(output).unwrap());
    (on, off, hand, planned)
}

#[test]
fn planner_rescues_an_adversarial_order_without_building_an_index() {
    // `hub` (500 hubs x 20 spokes) first, the 40-tuple `probe` last: source
    // order scans all of `hub` as the outer loop. The right order (`probe`,
    // `hub`, `spoke`) lands every join on a leading-column prefix, so it is a
    // pure ordering problem and the minimal index cover is empty.
    let decls = r#"
        .decl hub(x: number, y: number)
        .decl spoke(y: number, z: number)
        .decl probe(x: number)
        .decl out(x: number, z: number)
        .output out
    "#;
    let rules = [
        "out(x, z) :- hub(x, y), spoke(y, z), probe(x).",
        "out(x, z) :- probe(x), hub(x, y), spoke(y, z).",
    ];
    let (nx, fan, np) = (500u64, 20u64, 40u64);
    let (on, off, hand, planned) = against_hand_orders(decls, rules, "out", |e| {
        let hub = (0..nx).flat_map(|x| (0..fan).map(move |k| vec![x, x * fan + k]));
        e.add_facts("hub", hub).unwrap();
        e.add_facts("spoke", (0..nx * fan).map(|y| vec![y, y + 1]))
            .unwrap();
        e.add_facts("probe", (0..np).map(|i| vec![i * (nx / np)]))
            .unwrap();
    });
    assert_eq!(planned.relation_len("out").unwrap() as u64, np * fan);
    assert!(
        on <= hand,
        "planner {on} scans + range queries, best hand order {hand}"
    );
    assert!(
        on * 2 <= off,
        "planner {on}, adversarial source order {off}"
    );
    assert_eq!(
        planned.stats().index_builds,
        0,
        "the minimal cover must not over-build:\n{}",
        planned.explain()
    );
}

#[test]
fn planner_beats_the_best_hand_order_where_only_an_index_helps() {
    // `fact(y, x)` is entered through its second column once `probe` binds
    // `x`: source order scans all of `fact` per probe, the best index-free
    // hand order puts `fact` outermost and scans it once, and only a `[1,0]`
    // index turns the join into point probes.
    let decls = r#"
        .decl probe(x: number)
        .decl fact(y: number, x: number)
        .decl link(y: number, z: number)
        .decl outr(x: number, z: number)
        .output outr
    "#;
    let rules = [
        "outr(x, z) :- probe(x), fact(y, x), link(y, z).",
        "outr(x, z) :- fact(y, x), link(y, z), probe(x).",
    ];
    let (n, domain, np) = (10_000u64, 500u64, 40u64);
    let (on, off, hand, planned) = against_hand_orders(decls, rules, "outr", |e| {
        e.add_facts("probe", (0..np).map(|i| vec![i * (domain / np)]))
            .unwrap();
        e.add_facts("fact", (0..n).map(|y| vec![y, y % domain]))
            .unwrap();
        e.add_facts("link", (0..n).map(|y| vec![y, y + 1])).unwrap();
    });
    assert_eq!(
        planned.relation_len("outr").unwrap() as u64,
        np * (n / domain)
    );
    assert!(
        on < hand,
        "planner {on} scans + range queries, best hand order {hand}"
    );
    assert!(
        on * 2 <= off,
        "planner {on}, adversarial source order {off}"
    );
    assert_eq!(planned.stats().index_builds, 1, "{}", planned.explain());
    let report = planned.storage_report();
    let fact = report.relations.iter().find(|r| r.name == "fact").unwrap();
    assert_eq!(fact.index_perms, vec![vec![1, 0]]);
}

#[test]
fn probe_join_matrix() {
    // fact(y, x) over a bipartite fan; link(y, z); probe selects few x.
    let fact: Vec<(u64, u64)> = (0..60u64)
        .flat_map(|y| (0..4u64).map(move |k| (y, y % 10 + 100 * k)))
        .collect();
    let link: Vec<(u64, u64)> = (0..60u64).map(|y| (y, y + 1000)).collect();
    let probe: Vec<u64> = vec![3, 7, 103];
    let probe_set: BTreeSet<u64> = probe.iter().copied().collect();
    let mut expect: BTreeSet<Vec<u64>> = BTreeSet::new();
    for &(y, x) in &fact {
        if !probe_set.contains(&x) {
            continue;
        }
        for &(ly, z) in &link {
            if ly == y {
                expect.insert(vec![x, z]);
            }
        }
    }
    let expect: Vec<Vec<u64>> = expect.into_iter().collect();
    let facts = [
        ("probe", probe.iter().map(|&x| vec![x]).collect()),
        ("fact", pairs(&fact)),
        ("link", pairs(&link)),
    ];
    check_matrix("probe-join", PROBE_PROGRAM, &facts, "out", &expect);
}

#[test]
fn retraction_matrix_with_planner_on_and_off() {
    let edges = graphs::grid(6);
    let gone = [edges[4], edges[17]];
    let gone_set: BTreeSet<(u64, u64)> = gone.iter().copied().collect();
    let kept: Vec<(u64, u64)> = edges
        .iter()
        .copied()
        .filter(|e| !gone_set.contains(e))
        .collect();
    let expect: Vec<Vec<u64>> = graphs::reference_tc(&kept)
        .into_iter()
        .map(|(a, b)| vec![a, b])
        .collect();
    let program = parse(TC_PROGRAM).unwrap();
    for kind in StorageKind::ALL {
        for threads in [1, 4] {
            for planner in [true, false] {
                let mut engine = Engine::new(&program, kind, threads).unwrap();
                engine.set_planner_enabled(planner);
                engine.add_facts("edge", pairs(&edges)).unwrap();
                engine.run().unwrap();
                engine
                    .retract_facts(
                        gone.iter()
                            .map(|&(a, b)| ("edge".to_string(), vec![a, b]))
                            .collect::<Vec<_>>(),
                    )
                    .unwrap();
                assert_eq!(
                    engine.relation("path").unwrap(),
                    expect,
                    "retraction on {kind:?} × {threads}t with planner={planner} \
                     disagrees with from-scratch reference"
                );
            }
        }
    }
}

#[test]
fn negation_matrix_with_planner() {
    // Stratified negation: the planner may hoist the negated probe earlier
    // once its variables are bound, but never changes the result.
    let src = r#"
        .decl edge(x: number, y: number)
        .decl node(x: number)
        .decl path(x: number, y: number)
        .decl unreach(x: number, y: number)
        .output unreach
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        unreach(x, y) :- node(x), node(y), !path(x, y).
    "#;
    let n = 9u64;
    let edges = graphs::chain(n);
    let tc: BTreeSet<(u64, u64)> = graphs::reference_tc(&edges).into_iter().collect();
    let mut expect = Vec::new();
    for x in 1..=n {
        for y in 1..=n {
            if !tc.contains(&(x, y)) {
                expect.push(vec![x, y]);
            }
        }
    }
    let facts = [
        ("edge", pairs(&edges)),
        ("node", (1..=n).map(|i| vec![i]).collect()),
    ];
    for kind in StorageKind::ALL {
        for threads in [1, 4] {
            for planner in [true, false] {
                let got = eval_rel(src, &facts, "unreach", kind, threads, planner);
                assert_eq!(
                    got, expect,
                    "negation on {kind:?} × {threads}t planner={planner}"
                );
            }
        }
    }
}

#[test]
fn explain_shows_index_choice_and_cardinalities() {
    let fact: Vec<(u64, u64)> = (0..5000u64).map(|y| (y, y % 100)).collect();
    let link: Vec<(u64, u64)> = (0..5000u64).map(|y| (y, y + 1)).collect();
    let program = parse(PROBE_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    // Just enough probes for fact's [1,0] index to repay its build — as
    // long as explain charges it what a run does (no upkeep: nothing merges
    // into `fact` in this stratum), which is checked against a run below.
    engine
        .add_facts("probe", (0..10u64).map(|x| vec![x]))
        .unwrap();
    engine.add_facts("fact", pairs(&fact)).unwrap();
    engine.add_facts("link", pairs(&link)).unwrap();
    let explain = engine.explain();
    assert!(
        explain.contains("index=[1,0]"),
        "explain must show the chosen permutation on fact:\n{explain}"
    );
    assert!(
        explain.contains("cardinalities:"),
        "a reordered rule must print the justifying cardinalities:\n{explain}"
    );
    assert!(
        explain.contains("probe=10")
            && explain.contains("fact=5000")
            && explain.contains("link=5000"),
        "cardinality line lists body relation sizes:\n{explain}"
    );
    // Planner off: legacy source-order plans, no planner annotations.
    engine.set_planner_enabled(false);
    let legacy = engine.explain();
    assert!(!legacy.contains("index=") && !legacy.contains("cardinalities:"));
    // Explain never mutates: no indexes were built by either rendering.
    assert_eq!(engine.stats().index_builds, 0);
    // What ran is what explain reports afterwards, index and all.
    engine.set_planner_enabled(true);
    engine.run().unwrap();
    assert_eq!(engine.explain(), explain);
    assert_eq!(engine.stats().index_builds, 1);
}
