//! A field-sensitive Andersen-style points-to analysis over a synthetic
//! program — the workload family of the paper's §4.3 Doop experiment.
//!
//! Run with `cargo run --release --example pointsto_analysis`.

use concurrent_datalog_btree::datalog::{Engine, StorageKind};
use concurrent_datalog_btree::workloads::pointsto::{
    self, generate_facts, load_facts, PointsToConfig,
};
use std::time::Instant;

fn main() {
    let cfg = PointsToConfig::scaled(12);
    let facts = generate_facts(&cfg, 2024);
    println!(
        "synthetic program: {} vars, {} heap sites, {} fields, {} input facts",
        cfg.variables,
        cfg.heaps,
        cfg.fields,
        facts.len()
    );

    let mut engine =
        Engine::new(&pointsto::program(), StorageKind::SpecBTree, 4).expect("valid program");
    load_facts(&mut engine, &facts).expect("facts load");

    let start = Instant::now();
    engine.run().expect("fixpoint reached");
    let secs = start.elapsed().as_secs_f64();

    let vpt = engine.relation_len("vpt").expect("vpt");
    let hpt = engine.relation_len("hpt").expect("hpt");
    let stats = engine.stats();
    println!(
        "solved in {secs:.3}s ({} fixpoint iterations)",
        stats.iterations
    );
    println!("var-points-to:  {vpt} tuples");
    println!("heap-points-to: {hpt} tuples");
    println!(
        "operation mix: {} inserts, {} membership tests, {} range queries",
        stats.inserts,
        stats.membership_tests,
        stats.lower_bound_calls + stats.upper_bound_calls
    );
    println!(
        "reads by blocks: {} lower bounds and {} membership tests for {} indexed inner scans",
        stats.lower_bound_calls, stats.membership_tests, stats.inner_scans_indexed
    );

    // Inspect: the variables with the largest points-to sets.
    let mut by_var = std::collections::HashMap::<u64, usize>::new();
    for t in engine.relation("vpt").expect("vpt") {
        *by_var.entry(t[0]).or_default() += 1;
    }
    let mut ranked: Vec<_> = by_var.into_iter().collect();
    ranked.sort_by_key(|&(v, n)| (std::cmp::Reverse(n), v));
    println!("most-pointing variables:");
    for (v, n) in ranked.into_iter().take(5) {
        println!("  v{v}: may point to {n} heap objects");
    }
}
