//! Planner equivalence tier: cost-based literal reordering is a **pure
//! optimization** — the fixpoint must be bit-identical with the planner on,
//! with the planner off (legacy source-order compilation), and against an
//! independent reference closure computed over std sets, on every storage
//! backend at every thread count, including under DRed retraction.
//!
//! Also pins the observable planner surface: the `EvalStats` scan counters,
//! the `EXPLAIN` rendering of keyed sweeps and justifying cardinalities, and
//! that a plan is the same on every storage kind.

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
/// `edge` on its **second** column — no prefix of the primary order serves
/// it, so every iteration sweeps `edge` keyed by that column.
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
/// which `fact` is entered through its second column: swept by that
/// column once a block.
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

/// Forty chains of fifty edges and every chain end as a seed.
fn forty_chains() -> [(&'static str, Vec<Vec<u64>>); 2] {
    let edges: Vec<(u64, u64)> = (0..40u64)
        .flat_map(|c| (0..50u64).map(move |i| (c * 100 + i, c * 100 + i + 1)))
        .collect();
    let seeds = (0..40u64).map(|c| vec![c * 100 + 50]).collect();
    [("edge", pairs(&edges)), ("seed", seeds)]
}

#[test]
fn reverse_join_sweeps_edge_by_key_every_iteration() {
    // Forty chains of fifty edges, every chain end seeded: each iteration
    // walks all chains one edge back, so Δback holds 40 tuples, one block,
    // which a keyed sweep serves with one read of `edge` (2000 tuples) —
    // the fifty iterations that find a predecessor, and the one that finds
    // none. Nothing is built. (Before keyed sweeps priced a pass, the
    // planner built `edge[1,0]` here at the ninth iteration.)
    let program = parse(REVERSE_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 4).unwrap();
    for (name, rows) in forty_chains() {
        engine.add_facts(name, rows).unwrap();
    }
    engine.run().unwrap();
    assert_eq!(engine.relation_len("back").unwrap(), 40 * 51);
    let stats = engine.stats();
    assert_eq!(
        (
            stats.index_builds,
            stats.inner_scans_indexed,
            stats.inner_scans_full
        ),
        (0, 0, 51 * 40),
        "every iteration sweeps `edge` once for its 40 bindings: {stats:?}"
    );

    // A later run plans the same way: twenty more chains, every one of the
    // sixty walked back again from its seed.
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
        (0, 51 * 40 + 51 * 60),
        "{stats:?}"
    );
    assert!(
        engine.explain().contains("scan edge key=(#1=v0)"),
        "{}",
        engine.explain()
    );
}

/// Facts added after a run reach the next run: the second batch — twenty
/// new chains, and an edge into every old chain's start — goes into `edge`
/// as runs, and a second run derives what one run over every fact does, on
/// every backend.
#[test]
fn facts_added_after_a_run_reach_the_next_one() {
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
            assert_eq!(engine.stats().index_builds, 0, "{kind:?}");
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
fn every_plan_entering_edge_off_its_lead_sweeps_it_by_key() {
    // `near`'s rules enter `edge` through its second column. Forty
    // bindings an execution are one block, which a keyed sweep serves with
    // one read of `edge`: the base rule, which runs once, sweeps it, and so
    // does the recursive one every iteration (fifty that find a
    // predecessor, one that finds none). The rule of the stratum above
    // binds one tuple and sweeps `edge` once. (Before keyed sweeps priced a
    // pass, the recursive rule built `edge[1,0]` at its ninth iteration and
    // the rule above read it.)
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
    let explain = engine.explain();
    assert_eq!(
        (stats.index_builds, stats.inner_scans_full),
        (0, 40 + 50 * 40 + 1),
        "{stats:?}\n{explain}"
    );
    let before = explain
        .lines()
        .find(|l| l.contains("emit before("))
        .unwrap();
    assert!(before.contains("scan edge key=(#1=v0)"), "{explain}");
}

#[test]
fn a_one_tuple_delta_sweeps_edge_every_iteration() {
    // One 200-edge chain walked back from its end: Δback is a single tuple
    // every iteration, and each iteration sweeps `edge` once for it. (Before
    // keyed sweeps priced a pass, the planner built `edge[1,0]` part-way
    // through this fixpoint, once the sweeps added up.)
    let program = parse(REVERSE_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    engine
        .add_facts("edge", pairs(&graphs::chain(200)))
        .unwrap();
    engine.add_facts("seed", [vec![200u64]]).unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation_len("back").unwrap(), 201);
    let stats = engine.stats();
    assert_eq!(
        (
            stats.index_builds,
            stats.inner_scans_indexed,
            stats.inner_scans_full
        ),
        (0, 0, 201),
        "one sweep an iteration: {stats:?}"
    );
    let explain = engine.explain();
    assert!(explain.contains("scan edge key=(#1=v0)"), "{explain}");
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
        // Source order sweeps a relation by what is bound once a block, as
        // the planner's orders do, and with no index to build the two do
        // the same join work in total: 2 178 769 on the tree and 2 176 024
        // on the red-black tree at seeds 42–52 (its chunks make no descent).
        // The strict saving this once asserted came from the indexes the
        // planner built.
        assert_eq!(
            on_total, off_total,
            "{kind:?}: planner-on {on_total} scans + range queries, source order {off_total}"
        );
    }
}

/// One rule over `decls` written in an adversarial literal order and in the
/// best order a hand can write. Returns the join work of the planner over
/// the adversarial text, of source order over the same text and of source
/// order over the hand-written one, with the planner's engine, after
/// checking that all three derive the same `output`.
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
    // pure ordering problem.
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
        "the engine builds no index:\n{}",
        planned.explain()
    );
}

#[test]
fn planner_beats_the_best_hand_order_by_sweeping_fact_once() {
    // `fact(y, x)` is entered through its second column once `probe` binds
    // `x`: the best hand order puts `fact` outermost and looks `link` up
    // for every one of its tuples; with `probe` first a keyed sweep reads
    // `fact` once for the block of forty probes and looks `link` up for
    // the matches alone. The adversarial text run in source order sweeps
    // the same way: the executor keys a sweep by what is bound whoever
    // ordered the join.
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
        on * 2 <= hand,
        "planner {on} scans + range queries, best hand order {hand}"
    );
    assert_eq!(on, off, "the adversarial text sweeps `fact` by key too");
    let explain = planned.explain();
    assert_eq!(planned.stats().index_builds, 0, "{explain}");
    assert!(explain.contains("scan fact key=(#1=v0)"), "{explain}");
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
fn explain_shows_the_keyed_sweep_and_cardinalities() {
    let fact: Vec<(u64, u64)> = (0..5000u64).map(|y| (y, y % 100)).collect();
    let link: Vec<(u64, u64)> = (0..5000u64).map(|y| (y, y + 1)).collect();
    let program = parse(PROBE_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
    // Ten probes, one block: `fact` is swept by its second column once,
    // which explain shows before the run as the run shows after it.
    engine
        .add_facts("probe", (0..10u64).map(|x| vec![x]))
        .unwrap();
    engine.add_facts("fact", pairs(&fact)).unwrap();
    engine.add_facts("link", pairs(&link)).unwrap();
    let explain = engine.explain();
    assert!(
        explain.contains("scan fact key=(#1=v0)"),
        "explain must show the choice made on fact:\n{explain}"
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
    assert!(!legacy.contains("cardinalities:"));
    // Explain never mutates: it ran nothing.
    assert_eq!(engine.stats().iterations, 0);
    // What ran is what explain reports afterwards.
    engine.set_planner_enabled(true);
    engine.run().unwrap();
    assert_eq!(engine.explain(), explain);
    assert_eq!(engine.stats().index_builds, 0);
}

/// With no index to build, a plan depends on the database alone: after a
/// run, every kind at one and two workers reports the same plans — on the
/// forty reversed chains, whose `edge` the tree alone once read through an
/// index, and on a points-to instance.
#[test]
fn plans_do_not_depend_on_the_storage_kind() {
    let explains = |program: &datalog::Program, load: &dyn Fn(&mut Engine)| {
        let mut out = Vec::new();
        for kind in StorageKind::ALL {
            for threads in [1, 2] {
                let mut engine = Engine::new(program, kind, threads).unwrap();
                load(&mut engine);
                engine.run().unwrap();
                out.push((format!("{kind:?} at {threads} threads"), engine.explain()));
            }
        }
        out
    };
    let chains = forty_chains();
    let reverse = explains(&parse(REVERSE_PROGRAM).unwrap(), &|e| {
        for (name, rows) in &chains {
            e.add_facts(name, rows.iter().cloned()).unwrap();
        }
    });
    assert!(
        reverse[0].1.contains("scan edge key=(#1=v0)"),
        "{}",
        reverse[0].1
    );
    let facts = pointsto::generate_facts(&PointsToConfig::scaled(5), 42);
    let load = |e: &mut Engine| pointsto::load_facts(e, &facts).unwrap();
    let points_to = explains(&pointsto::program(), &load);
    for runs in [reverse, points_to] {
        let (first, plans) = &runs[0];
        for (what, other) in &runs[1..] {
            assert_eq!(other, plans, "{what} plans otherwise than {first}");
        }
    }
}
