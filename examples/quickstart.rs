//! Quickstart: the specialized B-tree as a concurrent relation store.
//!
//! Run with `cargo run --release --example quickstart`.

use concurrent_datalog_btree::specbtree::BTreeSet;

fn main() {
    // A binary relation: tuples are `[u64; 2]`, ordered lexicographically.
    let edges: BTreeSet<2> = BTreeSet::new();

    // Phase 1 (write-only): concurrent insertion. No external lock; the
    // tree's optimistic protocol synchronizes writers internally, and
    // per-thread hints shortcut repeated traversals.
    std::thread::scope(|s| {
        for worker in 0..4u64 {
            let edges = &edges;
            s.spawn(move || {
                let mut hints = edges.create_hints();
                // Each worker owns a slice of the key space and inserts it
                // in two clustered passes (evens, then odds) — the access
                // locality hints exploit (paper §3.2).
                for pass in 0..2u64 {
                    for i in 0..12_500u64 {
                        let src = worker * 25_000 + i * 2 + pass;
                        edges.insert_hinted([src / 100, src % 100], &mut hints);
                    }
                }
                println!(
                    "worker {worker}: hint hit rate {:.0}%",
                    hints.stats.hit_rate() * 100.0
                );
            });
        }
    });
    println!("inserted {} unique edges", edges.len());

    // Phase 2 (read-only): point lookups, prefix range queries and ordered
    // scans — the operations Datalog joins are made of.
    assert!(edges.contains(&[500, 42]));
    let out_of_500: Vec<[u64; 2]> = edges.prefix_range(&[500]).collect();
    println!("node 500 has {} outgoing edges", out_of_500.len());

    // Parallel scans partition the key space into balanced chunks.
    let chunks = edges.partition(4);
    let counts: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|c| {
                let edges = &edges;
                let c = *c;
                s.spawn(move || edges.chunk_range(&c).count())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    println!("parallel scan chunk sizes: {counts:?}");
    assert_eq!(counts.iter().sum::<usize>(), edges.len());

    // Structural health check (debug/diagnostic API).
    edges.check_invariants().expect("invariants hold");
    let stats = edges.stats();
    println!(
        "tree: depth {}, {} nodes, leaf fill {:.0}%",
        stats.depth,
        stats.inner_nodes + stats.leaf_nodes,
        stats.leaf_fill() * 100.0
    );
}
