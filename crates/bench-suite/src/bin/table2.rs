//! Table 2 — real-world Datalog benchmark properties and evaluation
//! statistics (paper §4.3). The paper's reference lines also quote the hint
//! hit rates its text reports (54% Doop / 77% security analysis); the engine
//! reads by sorted blocks through the tree's unhinted operations, so it has
//! no hint rate to set beside them.
//!
//! `--scale N` scales the generated fact bases (default 6). `--threads T`
//! (single value; default 1) selects the worker count the statistics are
//! taken at.

use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, print_row, Args};
use datalog::{Engine, EvalStats, StorageKind};
use workloads::network::{self, NetworkConfig};
use workloads::pointsto::{self, PointsToConfig};

struct BenchRun {
    relations: usize,
    rules: usize,
    stats: EvalStats,
    /// Largest relation as a fraction of all stored tuples (the paper
    /// notes 1.2e7 of the EC2 benchmark's 1.6e7 tuples sit in one
    /// relation).
    dominant_share: f64,
}

fn run_pointsto(scale: usize, seed: u64, threads: usize) -> BenchRun {
    let program = pointsto::program();
    let facts = pointsto::generate_facts(&PointsToConfig::scaled(scale), seed);
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, threads).unwrap();
    pointsto::load_facts(&mut engine, &facts).unwrap();
    engine.run().unwrap();
    BenchRun {
        relations: engine.relation_count(),
        rules: engine.rule_count(),
        stats: *engine.stats(),
        dominant_share: dominant_share(&engine),
    }
}

fn dominant_share(engine: &Engine) -> f64 {
    let sizes = engine.relation_sizes();
    let total: usize = sizes.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    sizes[0].1 as f64 / total as f64
}

fn run_network(scale: usize, seed: u64, threads: usize) -> BenchRun {
    let program = network::program();
    let facts = network::generate_facts(&NetworkConfig::scaled(scale), seed);
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, threads).unwrap();
    network::load_facts(&mut engine, &facts).unwrap();
    engine.run().unwrap();
    BenchRun {
        relations: engine.relation_count(),
        rules: engine.rule_count(),
        stats: *engine.stats(),
        dominant_share: dominant_share(&engine),
    }
}

fn sci(v: u64) -> String {
    if v == 0 {
        return "0".into();
    }
    let exp = (v as f64).log10().floor() as i32;
    let mant = v as f64 / 10f64.powi(exp);
    format!("{mant:.1}e{exp}")
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start(&args);
    let scale = if args.scale == 0 { 6 } else { args.scale };
    let threads = args.threads.first().copied().unwrap_or(1);

    let doop = run_pointsto(scale, args.seed, threads);
    let ec2 = run_network(scale, args.seed, threads);

    println!("\n== Table 2: Real-World Datalog Benchmark Properties (synthetic substitutes, scale {scale}, {threads} thread(s))");
    println!();
    print_row(
        args.csv,
        "Datalog Property",
        &["points-to".into(), "EC2 security".into()],
    );
    print_row(
        args.csv,
        "relations",
        &[doop.relations.to_string(), ec2.relations.to_string()],
    );
    print_row(
        args.csv,
        "rules",
        &[doop.rules.to_string(), ec2.rules.to_string()],
    );
    println!();
    print_row(
        args.csv,
        "Evaluation Statistics",
        &["points-to".into(), "EC2 security".into()],
    );
    type StatGetter = fn(&EvalStats) -> u64;
    let rows: [(&str, StatGetter); 6] = [
        ("inserts", |s| s.inserts),
        ("membership tests", |s| s.membership_tests),
        ("lower_bound calls", |s| s.lower_bound_calls),
        ("upper_bound calls", |s| s.upper_bound_calls),
        ("input tuples", |s| s.input_tuples),
        ("produced tuples", |s| s.produced_tuples),
    ];
    for (label, get) in rows {
        print_row(
            args.csv,
            label,
            &[sci(get(&doop.stats)), sci(get(&ec2.stats))],
        );
    }
    print_row(
        args.csv,
        "largest relation share",
        &[
            format!("{:.0}%", doop.dominant_share * 100.0),
            format!("{:.0}%", ec2.dominant_share * 100.0),
        ],
    );
    println!();
    println!(
        "paper reference (absolute numbers NOT expected to match; the read/write profile is):"
    );
    println!("  Doop/DaCapo: 8.3e7 inserts, 1.5e8 membership, 2.1e8 lower/upper, 8.3e6 in, 2.5e7 out, 54% hints");
    println!("  EC2:         2.1e7 inserts, 4.2e9 membership, 2.5e9 lower/upper, 3.5e3 in, 1.6e7 out, 77% hints");

    emit_telemetry("table2");
    obs.finish();
}
