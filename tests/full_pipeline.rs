//! Cross-crate integration: workload generators feed the Datalog engine
//! over every storage backend; outputs are verified against independent
//! reference solvers.

use concurrent_datalog_btree::datalog::{parse, Engine, StorageKind};
use concurrent_datalog_btree::workloads::{graphs, network, pointsto};
use std::collections::BTreeSet;

const TC: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

fn tc_with(edges: &[(u64, u64)], kind: StorageKind, threads: usize) -> BTreeSet<(u64, u64)> {
    let program = parse(TC).unwrap();
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
fn closure_of_every_graph_family_matches_reference() {
    let families: Vec<(&str, Vec<(u64, u64)>)> = vec![
        ("chain", graphs::chain(40)),
        ("cycle", graphs::cycle(12)),
        ("grid", graphs::grid(6)),
        ("tree", graphs::binary_tree(4)),
        ("random", graphs::random_graph(40, 2, 3)),
        ("layered", graphs::layered_dag(5, 8, 2, 9)),
    ];
    for (name, edges) in families {
        let expect = graphs::reference_tc(&edges);
        let got = tc_with(&edges, StorageKind::SpecBTree, 3);
        assert_eq!(got, expect, "family {name}");
    }
}

#[test]
fn all_backends_compute_identical_closures() {
    let edges = graphs::random_graph(60, 2, 17);
    let expect = graphs::reference_tc(&edges);
    for kind in StorageKind::ALL {
        let got = tc_with(&edges, kind, 2);
        assert_eq!(got, expect, "{}", kind.label());
    }
}

#[test]
fn pointsto_engine_output_matches_reference_across_backends() {
    let cfg = pointsto::PointsToConfig::scaled(2);
    let facts = pointsto::generate_facts(&cfg, 31);
    let expect = pointsto::reference_vpt(&facts);
    for kind in [
        StorageKind::SpecBTree,
        StorageKind::GBTreeLocked,
        StorageKind::ConcurrentHashSet,
    ] {
        let mut engine = Engine::new(&pointsto::program(), kind, 2).unwrap();
        pointsto::load_facts(&mut engine, &facts).unwrap();
        engine.run().unwrap();
        let got: BTreeSet<(u64, u64)> = engine
            .relation("vpt")
            .unwrap()
            .into_iter()
            .map(|t| (t[0], t[1]))
            .collect();
        assert_eq!(got, expect, "{}", kind.label());
    }
}

#[test]
fn network_analysis_consistent_across_backends_and_threads() {
    let facts = network::generate_facts(&network::NetworkConfig::scaled(2), 5);
    let mut reference: Option<(usize, usize, usize)> = None;
    for kind in StorageKind::ALL {
        for threads in [1usize, 4] {
            let mut engine = Engine::new(&network::program(), kind, threads).unwrap();
            network::load_facts(&mut engine, &facts).unwrap();
            engine.run().unwrap();
            let sizes = (
                engine.relation_len("reach").unwrap(),
                engine.relation_len("vulnerable").unwrap(),
                engine.relation_len("isolated").unwrap(),
            );
            match reference {
                None => reference = Some(sizes),
                Some(r) => assert_eq!(sizes, r, "{} @ {threads}", kind.label()),
            }
        }
    }
}

#[test]
fn evaluation_statistics_consistent_across_thread_counts() {
    // Derived tuple counts are deterministic regardless of parallelism;
    // operation counts may differ slightly (per-thread contexts), but
    // produced/input tuples and iterations must not.
    let facts = pointsto::generate_facts(&pointsto::PointsToConfig::scaled(2), 8);
    let mut produced = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut engine =
            Engine::new(&pointsto::program(), StorageKind::SpecBTree, threads).unwrap();
        pointsto::load_facts(&mut engine, &facts).unwrap();
        engine.run().unwrap();
        produced.push((engine.stats().produced_tuples, engine.stats().input_tuples));
    }
    assert!(produced.windows(2).all(|w| w[0] == w[1]), "{produced:?}");
}

#[test]
fn engine_relations_backed_by_specbtree_satisfy_tree_invariants() {
    // White-box-ish: run a workload, then rebuild the output into a raw
    // specialized B-tree and check invariants + ordering agree with the
    // engine's sorted output.
    use concurrent_datalog_btree::specbtree::BTreeSet as SpecSet;
    let edges = graphs::grid(8);
    let got = tc_with(&edges, StorageKind::SpecBTree, 4);
    let tree: SpecSet<2> = got.iter().map(|&(a, b)| [a, b]).collect();
    tree.check_invariants().unwrap();
    let roundtrip: Vec<(u64, u64)> = tree.iter().map(|t| (t[0], t[1])).collect();
    let expect: Vec<(u64, u64)> = got.into_iter().collect();
    assert_eq!(roundtrip, expect);
}
