//! Telemetry profiler: runs a Datalog workload plus a deliberately
//! contended raw B-tree phase and reports the top restart/contention
//! sources — the single command behind "why did this regress?".
//!
//! Requires the `telemetry` feature:
//!
//! ```text
//! cargo run --release --features telemetry --bin profile -- --quick
//! ```
//!
//! Phases:
//!
//! 1. **chain_tc** — transitive closure of a chain graph on the engine
//!    (chunk-stealing, highest requested thread count): exercises the
//!    scheduler histograms (`datalog.chunk_nanos`, `datalog.delta_tuples`,
//!    `datalog.stratum_nanos`).
//! 2. **contended inserts** — all threads hammer interleaved keys in one
//!    narrow range of a shared `BTreeSet` while readers probe the same
//!    range: forces optimistic-read validation failures, upgrade failures
//!    and Algorithm 1 restarts. The restart budget is floored here (0,
//!    unless `TELEMETRY_RESTART_BUDGET` overrides it), so restarting
//!    operations dump their flight-recorder ring to stderr.
//!
//! Output: the merged snapshot as a table, the top sources ranked, and
//! `TELEMETRY_profile.json`. Flags: `--quick`, `--threads 8`, `--scale N`,
//! `--seed N`.

use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, Args};
use datalog::{parse, Engine, StorageKind};
use specbtree::BTreeSet;
use workloads::graphs;

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

fn run_chain_tc(nodes: u64, threads: usize) -> Engine {
    let edges = graphs::chain(nodes);
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, threads).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine.run().unwrap();
    println!(
        "== chain_tc: {nodes} nodes, {threads} threads, closure {} ==",
        engine.relation_len("path").unwrap()
    );
    for entry in engine.profile() {
        println!("  {}", entry.to_json());
    }
    println!("  stats: {}", engine.stats().to_json());
    engine
}

/// All threads insert interleaved keys into the same narrow range (every
/// leaf is shared), with reader threads probing the same range — the
/// contention regime where validation failures and restarts show up.
fn run_contended_inserts(per_thread: u64, writers: usize) {
    let tree: BTreeSet<2> = BTreeSet::new();
    let readers = (writers / 2).max(1);
    std::thread::scope(|s| {
        for w in 0..writers as u64 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..per_thread {
                    // Interleave threads within the same leaves: key order
                    // is i-major, thread-minor.
                    tree.insert([i, w]);
                }
            });
        }
        for r in 0..readers as u64 {
            let tree = &tree;
            s.spawn(move || {
                for i in 0..per_thread {
                    std::hint::black_box(tree.contains(&[i, r]));
                }
            });
        }
    });
    println!(
        "== contended inserts: {writers} writers + {readers} readers, \
         {per_thread} keys each, final size {} ==",
        tree.len()
    );
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start("profile", &args);
    if !telemetry::ENABLED {
        println!(
            "telemetry is disabled in this build; rebuild with\n\
             \n    cargo run --release --features telemetry --bin profile\n\
             \nto collect counters, histograms and flight-recorder dumps."
        );
        std::fs::write("TELEMETRY_profile.json", telemetry::snapshot().to_json())
            .expect("write TELEMETRY_profile.json");
        println!("wrote TELEMETRY_profile.json (enabled: false)");
        obs.finish(); // no-op: never writes trace/sample files when off
        return;
    }

    let threads = args.threads.last().copied().unwrap_or(8).max(2);
    let scale = if args.scale == 0 { 1 } else { args.scale } as u64;
    telemetry::reset();

    // Phase 1: engine workload, then a retraction so the storage report
    // has scars to show (buried leaves).
    let nodes = if args.quick { 64 } else { 256 * scale };
    let mut engine = run_chain_tc(nodes, threads);
    engine
        .retract_fact("edge", &[nodes / 4, nodes / 4 + 1])
        .expect("retract mid-chain edge");
    let report = engine.storage_report();
    println!("-- storage report (after retraction) --");
    print!("{}", report.to_table());
    obs.annotate("chain_tc.storage_report", &report.to_json());
    drop(engine);

    // Phase 2: contended raw inserts, with the restart budget floored so
    // budget overruns demonstrably dump the flight recorder (budget 0 =
    // any restart is over budget; the env var wins if the user set one).
    if std::env::var("TELEMETRY_RESTART_BUDGET").is_err() {
        telemetry::set_restart_budget(0);
    }
    let per_thread = if args.quick { 20_000 } else { 100_000 * scale };
    run_contended_inserts(per_thread, threads);

    // Report.
    let snap = telemetry::snapshot();
    println!("-- merged telemetry --");
    print!("{}", snap.to_table());
    println!("-- top restart/contention sources --");
    for (name, v) in snap.top(8) {
        println!("  {name:<40} {v:>12}");
    }
    emit_telemetry("profile");
    obs.finish();
}
