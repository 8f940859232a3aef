//! Differential test for the chunk-driven parallel scheduler: on every
//! storage backend and at several thread counts, evaluation must produce
//! byte-identical relation contents to an independent reference closure
//! computed over std sets, with the same join work as one worker does.

mod common;

use common::thread_counts;
use datalog::{parse, Engine, EvalStats, StorageKind};
use workloads::graphs;

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

/// The closure, and the join work that found it: tuples scanned and
/// emitted, and the inner scans' lookups — one per outer binding that
/// reaches an inner scan. However the outer scans were cut into chunks, each
/// chunk is claimed exactly once, so none of these may depend on the worker
/// count.
///
/// The range queries issued are not among them either: an inner scan with a
/// bound prefix issues one per distinct key of a block of bindings, a worker
/// alone keeps its blocks across the chunks it claims, and several workers
/// end theirs with each chunk (180 at one worker on `grid(6)`, 380–405 at two
/// to eight on the kinds that cut a delta evenly; the trees cut these small
/// deltas into one chunk each and read 180 at every count).
///
/// The head's membership tests and inserts are not among them: they count
/// calls issued after a worker's emit batch has dropped its duplicates, and
/// where a batch ends moves with the chunking and with who claims what. What
/// holds on every schedule is their order, checked here on the workers' own
/// counters: a worker inserts only after a membership test that failed, and
/// emits only what an insert added.
fn run_tc(edges: &[(u64, u64)], kind: StorageKind, threads: usize) -> (Vec<Vec<u64>>, [u64; 3]) {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, kind, threads).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    let stats = engine.stats();
    let work = [
        stats.tuples_scanned,
        stats.tuples_emitted,
        stats.inner_scans_indexed + stats.inner_scans_full,
    ];
    let sum = |f: fn(&EvalStats) -> u64| engine.worker_stats().iter().map(f).sum::<u64>();
    let (emitted, inserts, tests) = (
        sum(|w| w.tuples_emitted),
        sum(|w| w.inserts),
        sum(|w| w.membership_tests),
    );
    assert_eq!(emitted, stats.tuples_emitted);
    assert!(
        emitted <= inserts && inserts <= tests,
        "{kind:?} at {threads} threads: {emitted} emitted, {inserts} inserts, {tests} tests"
    );
    (engine.relation("path").unwrap(), work)
}

fn check_workload(name: &str, edges: Vec<(u64, u64)>) {
    // Independent reference: semi-naive closure over std sets.
    let expect: Vec<Vec<u64>> = graphs::reference_tc(&edges)
        .into_iter()
        .map(|(a, b)| vec![a, b])
        .collect();

    for kind in StorageKind::ALL {
        // `thread_counts` starts at one worker: every later count is held
        // to that run's work.
        let mut one_worker = None;
        for threads in thread_counts() {
            let (path, work) = run_tc(&edges, kind, threads);
            assert_eq!(
                path, expect,
                "{name}: {kind:?} at {threads} threads disagrees with the reference closure"
            );
            assert_eq!(
                work,
                *one_worker.get_or_insert(work),
                "{name}: {kind:?} at {threads} threads did other work than one worker"
            );
        }
    }
}

#[test]
fn chain_closure_is_schedule_independent() {
    check_workload("chain(30)", graphs::chain(30));
}

#[test]
fn grid_closure_is_schedule_independent() {
    check_workload("grid(6)", graphs::grid(6));
}

#[test]
fn random_graph_closure_is_schedule_independent() {
    check_workload("random_graph(48,2,7)", graphs::random_graph(48, 2, 7));
}

#[test]
fn layered_dag_closure_is_schedule_independent() {
    check_workload("layered_dag(5,8,2,3)", graphs::layered_dag(5, 8, 2, 3));
}

/// Scheduler observability: a multi-threaded chunk-driven run reports
/// claimed chunks, scanned/emitted tuples, and a finite imbalance figure.
#[test]
fn worker_stats_are_populated() {
    let edges = graphs::grid(6);
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 4).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();

    let stats = engine.stats();
    assert!(stats.chunks_claimed > 0, "no chunks claimed");
    assert!(stats.tuples_scanned > 0, "no tuples scanned");
    assert!(stats.tuples_emitted > 0, "no tuples emitted");
    assert!(
        stats.sched_imbalance.is_finite() && stats.sched_imbalance >= 1.0,
        "imbalance should be a finite max/mean ratio, got {}",
        stats.sched_imbalance
    );
    assert_eq!(engine.worker_stats().len(), 4);
    let total: u64 = engine.worker_stats().iter().map(|w| w.chunks_claimed).sum();
    assert_eq!(total, stats.chunks_claimed);
}

/// `sched_imbalance` describes the last run alone: one worker did all of its
/// work, so it reads 1.0 on a second run and on a run after a retraction,
/// whatever the accumulated counters hold.
#[test]
fn one_worker_is_balanced_on_every_run() {
    let edges = graphs::chain(200);
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    let mut imbalance = Vec::new();
    engine.run().unwrap();
    imbalance.push(engine.stats().sched_imbalance);
    engine.add_fact("edge", &[200, 201]).unwrap();
    engine.run().unwrap();
    imbalance.push(engine.stats().sched_imbalance);
    engine.retract_fact("edge", &[198, 199]).unwrap();
    engine.add_fact("edge", &[201, 202]).unwrap();
    engine.run().unwrap();
    imbalance.push(engine.stats().sched_imbalance);
    assert_eq!(imbalance, [1.0; 3]);
}
