//! The paper's running example (§2): transitive closure of an edge
//! relation, evaluated by the parallel semi-naive engine over different
//! relation data structures.
//!
//! Run with `cargo run --release --example transitive_closure`.

use concurrent_datalog_btree::datalog::{parse, Engine, StorageKind};
use concurrent_datalog_btree::workloads::graphs;
use std::time::Instant;

fn main() {
    // The two rules from the paper:
    //   path(X, Y) :- edge(X, Y).
    //   path(X, Z) :- path(X, Y), edge(Y, Z).
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl path(x: number, y: number)
        .input edge
        .output path
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        "#,
    )
    .expect("program parses");

    // A layered DAG: wide closure, bounded depth.
    let edges = graphs::layered_dag(12, 60, 3, 7);
    let expected = graphs::reference_tc(&edges);
    println!(
        "graph: {} edges, closure: {} paths",
        edges.len(),
        expected.len()
    );

    for kind in StorageKind::ALL {
        for threads in [1usize, 4] {
            let mut engine = Engine::new(&program, kind, threads).expect("valid program");
            engine
                .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
                .expect("facts load");
            let start = Instant::now();
            engine.run().expect("evaluation succeeds");
            let secs = start.elapsed().as_secs_f64();
            let paths = engine.relation_len("path").expect("path exists");
            assert_eq!(paths, expected.len(), "{} diverged", kind.label());
            let s = engine.stats();
            println!(
                "{:<16} {threads} thread(s): {secs:.3}s, {} fixpoint iterations, \
                 {} lower bounds and {} membership tests for {} indexed inner scans",
                kind.label(),
                s.iterations,
                s.lower_bound_calls,
                s.membership_tests,
                s.inner_scans_indexed,
            );
        }
    }
}
