//! Differential test for the chunk-driven parallel scheduler: on every
//! storage backend and at several thread counts, work-stealing evaluation
//! must produce byte-identical relation contents to an independent
//! reference closure computed over std sets.

use datalog::{parse, Engine, StorageKind};
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

fn run_tc(edges: &[(u64, u64)], kind: StorageKind, threads: usize) -> Vec<Vec<u64>> {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, kind, threads).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    engine.relation("path").unwrap()
}

fn check_workload(name: &str, edges: Vec<(u64, u64)>) {
    // Independent reference: semi-naive closure over std sets.
    let expect: Vec<Vec<u64>> = graphs::reference_tc(&edges)
        .into_iter()
        .map(|(a, b)| vec![a, b])
        .collect();

    // The figure-legend kinds plus the sharded backend at several shard
    // counts (1 = degenerate single shard, 8 > typical test thread count).
    let sharded = [1, 2, 8].map(StorageKind::ShardedBTree);
    for kind in StorageKind::ALL.into_iter().chain(sharded) {
        for threads in thread_counts() {
            assert_eq!(
                run_tc(&edges, kind, threads),
                expect,
                "{name}: {kind:?} at {threads} threads disagrees with the reference closure"
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

/// Skewed-hash corner: a star graph whose tuples all share leading column
/// 0 routes >90% of `path` into one shard. The closure must still match
/// the reference, and the storage report must expose the imbalance.
#[test]
fn skewed_hash_concentrates_in_one_shard_and_stays_correct() {
    let mut edges: Vec<(u64, u64)> = (1..=60).map(|i| (0, i)).collect();
    // One stray edge keeps a second shard non-empty (0 and 1 hash apart).
    edges.push((1, 2));
    let expect: Vec<Vec<u64>> = graphs::reference_tc(&edges)
        .into_iter()
        .map(|(a, b)| vec![a, b])
        .collect();

    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::ShardedBTree(8), 4).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    assert_eq!(engine.relation("path").unwrap(), expect);

    let report = engine.storage_report();
    let rel = report
        .relations
        .iter()
        .find(|r| r.name == "path")
        .expect("path relation in report");
    assert_eq!(rel.shard_lens.len(), 8, "one census entry per shard");
    assert_eq!(rel.shard_lens.iter().sum::<usize>(), rel.len);
    let max = *rel.shard_lens.iter().max().unwrap();
    assert!(
        max as f64 >= 0.9 * rel.len as f64,
        "star graph should concentrate >90% in one shard, got {:?}",
        rel.shard_lens
    );
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
