//! Merge-phase study: sequential vs parallel structure-aware delta merge.
//!
//! Reproduces the inter-iteration merge of semi-naive evaluation in
//! isolation: a target tree holding a mid-fixpoint prefix of the transitive
//! closure and a source tree holding the next delta (with duplicates, like
//! a real `new` relation) are merged with (a) the sequential per-tuple
//! `insert_all` baseline, (b) the parallel partition-by-target-separators
//! merge at several worker counts, and (c) the rightmost-spine splice fast
//! path on an append-shaped delta. Also writes a machine-readable snapshot
//! to `BENCH_merge.json` in the current directory.
//!
//! Flags: `--scale N` (graph size multiplier, default 1), `--threads
//! 1,2,4,8`, `--seed N`, `--csv`, `--quick` (CI smoke: tiny graphs, one
//! repetition).

use bench_suite::json::JsonWriter;
use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, print_row, Args};
use specbtree::BTreeSet;
use std::time::Instant;
use workloads::graphs;

type Tree = BTreeSet<2>;

/// Deterministic Fisher–Yates shuffle (splitmix-style LCG, no external RNG).
fn shuffle(v: &mut [[u64; 2]], seed: u64) {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..v.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((x >> 33) as usize) % (i + 1);
        v.swap(i, j);
    }
}

/// A merge scenario: the target's contents and the delta to fold in.
struct Scenario {
    target: Vec<[u64; 2]>,
    delta: Vec<[u64; 2]>,
    /// Tuples in `delta` that are genuinely new (not already in `target`).
    new_tuples: u64,
}

/// Mid-fixpoint shape: a random 70% of the closure is already merged, the
/// delta is the remaining 30% plus a slice of duplicates (a real `new`
/// relation re-derives tuples the full relation already holds).
fn scenario_random(closure: &[(u64, u64)], seed: u64) -> Scenario {
    let mut tuples: Vec<[u64; 2]> = closure.iter().map(|&(a, b)| [a, b]).collect();
    shuffle(&mut tuples, seed);
    let cut = tuples.len() * 7 / 10;
    let target = tuples[..cut].to_vec();
    let mut delta = tuples[cut..].to_vec();
    let new_tuples = delta.len() as u64;
    // ~10% of the target re-derived into the delta as duplicate hits.
    delta.extend(target.iter().step_by(10).copied());
    shuffle(&mut delta, seed ^ 0xDEAD);
    Scenario {
        target,
        delta,
        new_tuples,
    }
}

/// Append shape: the delta sorts entirely after the target's maximum —
/// the splice fast path's territory.
fn scenario_append(closure: &[(u64, u64)]) -> Scenario {
    let mut tuples: Vec<[u64; 2]> = closure.iter().map(|&(a, b)| [a, b]).collect();
    tuples.sort_unstable();
    tuples.dedup();
    let cut = tuples.len() * 7 / 10;
    Scenario {
        target: tuples[..cut].to_vec(),
        delta: tuples[cut..].to_vec(),
        new_tuples: (tuples.len() - cut) as u64,
    }
}

fn build(tuples: &[[u64; 2]]) -> Tree {
    let t = Tree::new();
    for k in tuples {
        t.insert(*k);
    }
    t
}

/// One measured configuration.
#[derive(Clone)]
struct Sample {
    mode: &'static str,
    threads: usize,
    seconds: f64,
    added: u64,
    /// Splice fast-path engagements during the timed run (0 when the
    /// telemetry feature is off).
    splices: u64,
}

/// Times one merge; trees are rebuilt outside the timer.
fn measure_once(sc: &Scenario, mode: &'static str, threads: usize) -> Sample {
    let dst = build(&sc.target);
    let src = build(&sc.delta);
    let splice_before = telemetry::snapshot().counter("specbtree.merge_splice");
    let t0 = Instant::now();
    let n = if threads <= 1 && (mode == "sequential" || mode == "append_sequential") {
        let before = dst.len() as u64;
        dst.insert_all(&src);
        dst.len() as u64 - before
    } else {
        dst.insert_all_parallel(&src, threads)
    };
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(n, sc.new_tuples, "{mode}@{threads}: wrong added count");
    assert_eq!(
        dst.len(),
        sc.target.len() + sc.new_tuples as usize,
        "{mode}@{threads}: wrong merged size"
    );
    Sample {
        mode,
        threads,
        seconds: secs,
        added: n,
        splices: telemetry::snapshot().counter("specbtree.merge_splice") - splice_before,
    }
}

/// Best-of-`reps` over *interleaved* rounds: every configuration runs once
/// per round, so a slow machine phase (CPU steal on shared hosts) hits all
/// modes of a round alike instead of biasing whichever mode it landed on.
fn measure_all(configs: &[(&Scenario, &'static str, usize)], reps: usize) -> Vec<Sample> {
    let mut best: Vec<Option<Sample>> = vec![None; configs.len()];
    for _ in 0..reps.max(1) {
        for (slot, &(sc, mode, threads)) in best.iter_mut().zip(configs) {
            let s = measure_once(sc, mode, threads);
            if slot.as_ref().is_none_or(|b| s.seconds < b.seconds) {
                *slot = Some(s);
            }
        }
    }
    best.into_iter().map(|s| s.unwrap()).collect()
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start("merge", &args);
    let scale = if args.scale == 0 { 1 } else { args.scale };
    let threads = if args.threads.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        args.threads.clone()
    };
    let reps = if args.quick { 1 } else { 11 };

    // Three TC regimes: long chain (many tiny deltas), acyclic grid
    // (medium deltas), cyclic random graph (fat deltas). The closure is
    // precomputed once; the merge phase is then measured in isolation.
    let workloads: Vec<(&str, Vec<(u64, u64)>)> = if args.quick {
        vec![
            ("chain_tc", graphs::chain(64)),
            ("grid_tc", graphs::grid(8)),
            ("random_tc", graphs::random_graph(60, 2, args.seed)),
        ]
    } else {
        vec![
            ("chain_tc", graphs::chain(320 * scale as u64)),
            ("grid_tc", graphs::grid(14 * scale as u64)),
            (
                "random_tc",
                graphs::random_graph(220 * scale as u64, 2, args.seed),
            ),
        ]
    };

    let top = *threads.iter().max().unwrap();
    let mut json = JsonWriter::new();
    json.begin_object();
    json.field_str("bench", "merge");
    json.field_bool("quick", args.quick);
    json.field_u64("reps", reps as u64);
    json.begin_array_field("workloads");

    for (name, edges) in &workloads {
        let closure: Vec<(u64, u64)> = graphs::reference_tc(edges).into_iter().collect();
        let random = scenario_random(&closure, args.seed);
        let append = scenario_append(&closure);
        println!(
            "== {name}: {} edges, closure {}, target {}, delta {} (+{} dups) ==",
            edges.len(),
            closure.len(),
            random.target.len(),
            random.new_tuples,
            random.delta.len() as u64 - random.new_tuples,
        );
        print_row(
            args.csv,
            "mode/threads",
            &["ms".into(), "added".into(), "splices".into()],
        );

        let mut configs: Vec<(&Scenario, &'static str, usize)> = Vec::new();
        configs.push((&random, "sequential", 1));
        for &t in &threads {
            configs.push((&random, "parallel", t));
        }
        configs.push((&append, "append_sequential", 1));
        for &t in &threads {
            configs.push((&append, "splice", t));
        }
        let samples = measure_all(&configs, reps);
        for s in &samples {
            print_row(
                args.csv,
                &format!("{}/{}", s.mode, s.threads),
                &[
                    format!("{:.3}", s.seconds * 1e3),
                    s.added.to_string(),
                    s.splices.to_string(),
                ],
            );
        }

        let seq = samples.iter().find(|s| s.mode == "sequential").unwrap();
        let par = samples
            .iter()
            .find(|s| s.mode == "parallel" && s.threads == top)
            .unwrap();
        let speedup = seq.seconds / par.seconds;
        let splices: u64 = samples
            .iter()
            .filter(|s| s.mode == "splice")
            .map(|s| s.splices)
            .sum();
        println!(
            "-- {name}: parallel merge speedup at {top} threads: {speedup:.2}x, \
             splice engagements on append delta: {splices}\n"
        );

        json.begin_object();
        json.field_str("name", name);
        json.field_u64("edges", edges.len() as u64);
        json.field_u64("closure", closure.len() as u64);
        json.field_u64("target", random.target.len() as u64);
        json.field_u64("delta", random.delta.len() as u64);
        json.field_f64(
            &format!("speedup_parallel_vs_sequential_at_{top}_threads"),
            speedup,
            4,
        );
        json.field_u64("splice_engagements", splices);
        json.begin_array_field("results");
        for s in &samples {
            json.begin_object();
            json.field_str("mode", s.mode);
            json.field_u64("threads", s.threads as u64);
            json.field_f64("seconds", s.seconds, 6);
            json.field_u64("added", s.added);
            json.field_u64("splices", s.splices);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    }

    json.end_array();
    json.end_object();
    let out = "BENCH_merge.json";
    std::fs::write(out, json.finish()).expect("write BENCH_merge.json");
    println!("wrote {out}");
    emit_telemetry("merge");
    obs.finish();
}
