//! Sharded-storage study: per-shard trees vs one shared tree.
//!
//! Runs chain transitive closure (the paper's §4.3 shape: ~1M `path`
//! tuples at the default scale) over the single-tree specialized B-tree
//! backend and the sharded backend at several thread counts, reporting
//! wall time, chunks claimed/stolen, optimistic-lock contention counters
//! and the per-shard tuple balance. A storage-level merge microbenchmark
//! then isolates the zero-cross-shard-lock claim: a shard-parallel
//! `merge_from` must complete with **zero** read-validation failures and
//! **zero** upgrade failures, because every worker owns its shard's tree
//! outright. Writes `BENCH_shard.json` in the current directory.
//!
//! Flags: `--scale N` (graph size multiplier, default 1), `--threads
//! 1,8`, `--shards N` (default 8), `--seed N`, `--csv`, `--quick` (CI
//! smoke: tiny graph, one repetition). Contention counters need the
//! `telemetry` feature; without it they report zero and the JSON flags
//! `telemetry_enabled: false`.

use bench_suite::json::JsonWriter;
use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, print_row, Args};
use datalog::{parse, Engine, StorageKind};
use std::time::Instant;
use workloads::graphs;

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

/// The lock/merge counters each timed run snapshots (telemetry names).
const COUNTERS: [&str; 6] = [
    "optlock.read_validations",
    "optlock.validation_failures",
    "optlock.upgrade_attempts",
    "optlock.upgrade_failures",
    "datalog.shard_merges",
    "datalog.shard_steals",
];

/// One measured configuration.
struct Sample {
    kind: StorageKind,
    threads: usize,
    seconds: f64,
    path_len: usize,
    chunks_claimed: u64,
    chunks_stolen: u64,
    /// Counter values accumulated during the best rep, `COUNTERS` order.
    counters: [u64; COUNTERS.len()],
    /// `path`'s per-shard tuple counts (empty for the single tree).
    shard_lens: Vec<usize>,
}

fn counters_now() -> [u64; COUNTERS.len()] {
    let snap = telemetry::snapshot();
    let mut out = [0u64; COUNTERS.len()];
    for (slot, name) in out.iter_mut().zip(COUNTERS) {
        *slot = snap.counter(name);
    }
    out
}

fn measure(edges: &[(u64, u64)], kind: StorageKind, threads: usize, reps: usize) -> Sample {
    let mut best: Option<Sample> = None;
    for _ in 0..reps.max(1) {
        let program = parse(TC_PROGRAM).unwrap();
        let mut engine = Engine::new(&program, kind, threads).unwrap();
        engine
            .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
            .unwrap();
        telemetry::reset();
        let t0 = Instant::now();
        engine.run().unwrap();
        let seconds = t0.elapsed().as_secs_f64();
        let counters = counters_now();
        let stats = *engine.stats();
        let shard_lens = engine
            .storage_report()
            .relations
            .into_iter()
            .find(|r| r.name == "path")
            .map(|r| r.shard_lens)
            .unwrap_or_default();
        let sample = Sample {
            kind,
            threads,
            seconds,
            path_len: engine.relation_len("path").unwrap(),
            chunks_claimed: stats.chunks_claimed,
            chunks_stolen: stats.chunks_stolen,
            counters,
            shard_lens,
        };
        if best.as_ref().is_none_or(|b| sample.seconds < b.seconds) {
            best = Some(sample);
        }
    }
    best.unwrap()
}

/// `max / mean` of the per-shard tuple counts (1.0 = perfectly even).
fn balance(shard_lens: &[usize]) -> f64 {
    let max = shard_lens.iter().max().copied().unwrap_or(0) as f64;
    let mean: f64 = shard_lens.iter().sum::<usize>() as f64 / shard_lens.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Storage-level merge microbenchmark: pre-load `dst` and `src` with
/// disjoint tuple sets, then time a `workers`-way `merge_from` and
/// report the contention counters it accrued.
fn merge_micro(
    kind: StorageKind,
    tuples: u64,
    workers: usize,
) -> (u64, f64, [u64; COUNTERS.len()]) {
    let dst = kind.create();
    let src = kind.create();
    let mut dctx = dst.make_ctx();
    let mut sctx = src.make_ctx();
    for i in 0..tuples {
        // Leading column varies so the shard map spreads both sides.
        dst.insert(&[i, 2 * i, 0, 0, 0], &mut dctx);
        src.insert(&[i, 2 * i + 1, 0, 0, 0], &mut sctx);
    }
    telemetry::reset();
    let t0 = Instant::now();
    let merged = dst.merge_from(src.as_ref(), workers);
    let seconds = t0.elapsed().as_secs_f64();
    (merged, seconds, counters_now())
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start("shard", &args);
    let scale = if args.scale == 0 { 1 } else { args.scale };
    let nshards = args.shards.unwrap_or(8).max(1);
    let threads = if args.threads.is_empty() {
        vec![1, 8]
    } else {
        args.threads.clone()
    };
    let reps = if args.quick { 1 } else { 3 };

    // chain(1415) closes to C(1415, 2) = 1,000,405 path tuples — the ~1M
    // tuple working set the acceptance run calls for.
    let edges = if args.quick {
        graphs::chain(65)
    } else {
        graphs::chain(1415 * scale as u64)
    };
    let kinds = [StorageKind::SpecBTree, StorageKind::ShardedBTree(nshards)];

    println!("== chain_tc: {} edges, {nshards} shards ==", edges.len());
    print_row(
        args.csv,
        "backend/threads",
        &[
            "ms".into(),
            "chunks".into(),
            "stolen".into(),
            "vfail".into(),
            "ufail".into(),
            "balance".into(),
        ],
    );

    let mut samples: Vec<Sample> = Vec::new();
    for &kind in &kinds {
        for &t in &threads {
            let s = measure(&edges, kind, t, reps);
            print_row(
                args.csv,
                &format!("{}/{t}", kind.label()),
                &[
                    format!("{:.2}", s.seconds * 1e3),
                    s.chunks_claimed.to_string(),
                    s.chunks_stolen.to_string(),
                    s.counters[1].to_string(),
                    s.counters[3].to_string(),
                    if s.shard_lens.is_empty() {
                        "-".into()
                    } else {
                        format!("{:.2}", balance(&s.shard_lens))
                    },
                ],
            );
            samples.push(s);
        }
    }

    // Both backends must agree on the closure size.
    let expect = samples[0].path_len;
    assert!(
        samples.iter().all(|s| s.path_len == expect),
        "backends disagree on closure size"
    );

    let top = *threads.iter().max().unwrap();
    let bottom = *threads.iter().min().unwrap();
    let find = |kind: StorageKind, t: usize| {
        samples
            .iter()
            .find(|s| s.kind == kind && s.threads == t)
            .unwrap()
    };
    let single_top = find(StorageKind::SpecBTree, top);
    let sharded_top = find(StorageKind::ShardedBTree(nshards), top);
    let speedup = single_top.seconds / sharded_top.seconds;
    let parity = find(StorageKind::SpecBTree, bottom).seconds
        / find(StorageKind::ShardedBTree(nshards), bottom).seconds;
    println!(
        "-- sharded speedup at {top} threads: {speedup:.2}x, parity at {bottom} \
         thread(s): {parity:.2}x, balance {:.2}, shard_lens {:?}",
        balance(&sharded_top.shard_lens),
        sharded_top.shard_lens
    );

    // Zero-cross-shard-lock microbenchmark: a shard-parallel merge into
    // disjoint per-shard trees must never fail a read validation or a
    // lock upgrade; the single shared tree under the same parallel merge
    // is the contended comparison point.
    let micro_tuples = if args.quick { 20_000 } else { 400_000 };
    let (m_single, s_single, c_single) = merge_micro(StorageKind::SpecBTree, micro_tuples, top);
    let (m_sharded, s_sharded, c_sharded) =
        merge_micro(StorageKind::ShardedBTree(nshards), micro_tuples, top);
    assert_eq!(m_single, micro_tuples, "single-tree merge lost tuples");
    assert_eq!(m_sharded, micro_tuples, "sharded merge lost tuples");
    let zero_locks = c_sharded[1] == 0 && c_sharded[3] == 0;
    println!(
        "-- merge micro ({micro_tuples} tuples, {top} workers): single {:.2}ms \
         (vfail {}, ufail {}), sharded {:.2}ms (vfail {}, ufail {}) => \
         zero_cross_shard_locks={zero_locks}",
        s_single * 1e3,
        c_single[1],
        c_single[3],
        s_sharded * 1e3,
        c_sharded[1],
        c_sharded[3],
    );

    let telemetry_on = telemetry::snapshot().enabled;
    let mut json = JsonWriter::new();
    json.begin_object();
    json.field_str("bench", "shard");
    json.field_bool("quick", args.quick);
    json.field_u64("reps", reps as u64);
    json.field_u64("shards", nshards as u64);
    json.field_u64("top_threads", top as u64);
    json.field_bool("telemetry_enabled", telemetry_on);
    json.begin_array_field("workloads");
    json.begin_object();
    json.field_str("name", "chain_tc");
    json.field_u64("edges", edges.len() as u64);
    json.field_u64("closure", expect as u64);
    json.field_f64("speedup_at_top_threads", speedup, 4);
    json.field_f64("parity_at_bottom_threads", parity, 4);
    json.field_f64("balance", balance(&sharded_top.shard_lens), 4);
    let lens: Vec<String> = sharded_top
        .shard_lens
        .iter()
        .map(usize::to_string)
        .collect();
    json.field_raw("shard_lens", &format!("[{}]", lens.join(", ")));
    json.begin_array_field("results");
    for s in &samples {
        json.begin_object();
        json.field_str("backend", s.kind.label());
        json.field_u64("threads", s.threads as u64);
        json.field_f64("seconds", s.seconds, 6);
        json.field_u64("chunks_claimed", s.chunks_claimed);
        json.field_u64("chunks_stolen", s.chunks_stolen);
        json.begin_object_field("counters");
        for (name, v) in COUNTERS.iter().zip(s.counters) {
            json.field_u64(name, v);
        }
        json.end_object();
        json.end_object();
    }
    json.end_array();
    json.end_object();
    json.end_array();
    json.begin_object_field("merge_micro");
    json.field_u64("tuples", micro_tuples);
    json.field_u64("workers", top as u64);
    json.field_bool("zero_cross_shard_locks", zero_locks);
    for (label, secs, counters) in [
        ("single", s_single, c_single),
        ("sharded", s_sharded, c_sharded),
    ] {
        json.begin_object_field(label);
        json.field_f64("seconds", secs, 6);
        json.begin_object_field("counters");
        for (name, v) in COUNTERS.iter().zip(counters) {
            json.field_u64(name, v);
        }
        json.end_object();
        json.end_object();
    }
    json.end_object();
    json.end_object();
    let out = "BENCH_shard.json";
    std::fs::write(out, json.finish()).expect("write BENCH_shard.json");
    println!("wrote {out}");
    emit_telemetry("shard");
    obs.finish();
}
