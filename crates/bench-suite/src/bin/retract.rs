//! Retraction study: delete–rederive incremental maintenance vs
//! from-scratch recomputation.
//!
//! The headline scenario builds the transitive closure of a long chain
//! (≈1M tuples at full scale), withdraws the trailing 1% of EDB edges in
//! one batch, and times `Engine::retract_facts` against re-evaluating the
//! program from scratch over the surviving edges. DRed's promise is work
//! proportional to the *affected* derivations, so the scenario is chosen
//! to have a bounded affected set: a trailing cut invalidates the ~15% of
//! paths crossing it. (An evenly-spread 1% cut on a chain is the
//! anti-scenario — chains have zero path redundancy, so spread cuts
//! destroy ~90% of the closure and no incremental scheme can beat
//! recomputing the small remainder; the grid scenario below covers
//! rederivation-heavy retraction instead, where most overdeleted tuples
//! would come back through alternative derivations — 45% of the closure
//! is overdeleted, so the engine hands the stratum over to recomputation
//! once a quarter is, and the scenario measures what that bounds a
//! retraction at.)
//!
//! Writes `BENCH_retract.json` in the current directory. Flags: `--scale
//! N`, `--threads 1,2,4,8`, `--seed N`, `--csv`, `--quick` (CI smoke:
//! small graphs, shape-identical JSON).

use bench_suite::json::JsonWriter;
use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, print_row, Args};
use datalog::{parse, Engine, RetractOutcome, StorageKind};
use std::time::Instant;
use workloads::graphs;

const TC_PROGRAM: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

/// A retraction scenario: the full edge set, the batch to withdraw, and
/// the retract/recompute ratio it is held to.
struct Scenario {
    name: &'static str,
    target: f64,
    edges: Vec<(u64, u64)>,
    gone: Vec<(u64, u64)>,
}

/// Chain sized so the closure holds ≥ `1_000_000 × scale` tuples
/// (closure of an n-node chain is n(n−1)/2), cutting the trailing 1% of
/// edges.
fn scenario_chain_tail(scale: usize, quick: bool) -> Scenario {
    let n: u64 = if quick {
        200
    } else {
        // n(n−1)/2 ≥ 1e6·scale  ⇒  n ≈ √(2e6·scale)
        (2_000_000.0 * scale as f64).sqrt().ceil() as u64 + 1
    };
    let edges = graphs::chain(n);
    let cut = (edges.len() / 100).max(2);
    let gone = edges[edges.len() - cut..].to_vec();
    Scenario {
        name: "chain_tail_1pct",
        target: 0.25,
        edges,
        gone,
    }
}

/// Grid interior cuts: most overdeleted paths have alternative routes, and
/// there are too many of them to re-prove one by one for less than an
/// evaluation costs.
fn scenario_grid_rederive(quick: bool, seed: u64) -> Scenario {
    let side = if quick { 6 } else { 14 };
    let edges = graphs::grid(side);
    let mut gone = Vec::new();
    let mut x = seed | 1;
    while gone.len() < (edges.len() / 50).max(2) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let e = edges[((x >> 33) as usize) % edges.len()];
        if !gone.contains(&e) {
            gone.push(e);
        }
    }
    Scenario {
        name: "grid_rederive",
        target: 2.5,
        edges,
        gone,
    }
}

fn build_engine(edges: &[(u64, u64)], threads: usize) -> Engine {
    let program = parse(TC_PROGRAM).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, threads).unwrap();
    engine
        .add_facts("edge", edges.iter().map(|&(a, b)| vec![a, b]))
        .unwrap();
    engine
}

struct Sample {
    threads: usize,
    retract_seconds: f64,
    scratch_run_seconds: f64,
    outcome: RetractOutcome,
}

/// Times one retraction at `threads` workers against a from-scratch
/// re-evaluation of the surviving EDB (run time only — fact loading
/// excluded, which makes the baseline strictly conservative), and checks
/// both land on the same closure. Each side keeps its best of `reps`
/// (retraction is destructive, so every rep rebuilds the closure).
fn measure(sc: &Scenario, threads: usize, reps: usize) -> Sample {
    let mut best: Option<Sample> = None;
    for _ in 0..reps {
        let s = measure_once(sc, threads);
        best = Some(match best {
            None => s,
            Some(b) => Sample {
                threads,
                retract_seconds: b.retract_seconds.min(s.retract_seconds),
                scratch_run_seconds: b.scratch_run_seconds.min(s.scratch_run_seconds),
                outcome: if s.retract_seconds < b.retract_seconds {
                    s.outcome
                } else {
                    b.outcome
                },
            },
        });
    }
    best.expect("reps >= 1")
}

fn measure_once(sc: &Scenario, threads: usize) -> Sample {
    // Incremental side: full closure, then the retraction batch.
    let mut eng = build_engine(&sc.edges, threads);
    eng.run().unwrap();
    let batch: Vec<(String, Vec<u64>)> = sc
        .gone
        .iter()
        .map(|&(a, b)| ("edge".to_string(), vec![a, b]))
        .collect();
    let t0 = Instant::now();
    let outcome = eng.retract_facts(batch).unwrap();
    let retract_seconds = t0.elapsed().as_secs_f64();

    // From-scratch side: surviving edges only, same thread count.
    let kept: Vec<(u64, u64)> = sc
        .edges
        .iter()
        .copied()
        .filter(|e| !sc.gone.contains(e))
        .collect();
    let mut scratch = build_engine(&kept, threads);
    let t0 = Instant::now();
    scratch.run().unwrap();
    let scratch_run_seconds = t0.elapsed().as_secs_f64();

    assert_eq!(
        eng.relation_len("path").unwrap(),
        scratch.relation_len("path").unwrap(),
        "{}@{threads}: retraction and recompute disagree",
        sc.name
    );
    Sample {
        threads,
        retract_seconds,
        scratch_run_seconds,
        outcome,
    }
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start("retract", &args);
    let scale = if args.scale == 0 { 1 } else { args.scale };
    let threads = if !args.threads.is_empty() {
        args.threads.clone()
    } else if args.quick {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 8]
    };
    let top = *threads.iter().max().unwrap();
    let reps = if args.quick { 1 } else { 3 };

    let scenarios = [
        scenario_chain_tail(scale, args.quick),
        scenario_grid_rederive(args.quick, args.seed),
    ];

    let mut json = JsonWriter::new();
    json.begin_object();
    json.field_str("bench", "retract");
    json.field_bool("quick", args.quick);
    json.field_f64("target_ratio", scenarios[0].target, 2);
    json.begin_array_field("scenarios");

    let mut headline_pass = true;
    for sc in &scenarios {
        println!(
            "== {}: {} edges, retracting {} ({}%) ==",
            sc.name,
            sc.edges.len(),
            sc.gone.len(),
            sc.gone.len() * 100 / sc.edges.len().max(1),
        );
        print_row(
            args.csv,
            "threads",
            &[
                "retract ms".into(),
                "scratch ms".into(),
                "ratio".into(),
                "overdeleted".into(),
                "rederived".into(),
            ],
        );

        let mut samples = Vec::new();
        for &t in &threads {
            let s = measure(sc, t, reps);
            print_row(
                args.csv,
                &t.to_string(),
                &[
                    format!("{:.3}", s.retract_seconds * 1e3),
                    format!("{:.3}", s.scratch_run_seconds * 1e3),
                    format!("{:.4}", s.retract_seconds / s.scratch_run_seconds),
                    s.outcome.overdeleted.to_string(),
                    s.outcome.rederived.to_string(),
                ],
            );
            println!(
                "    phases ms: plan {:.1} | overdelete {:.1} | delete {:.1} | rederive {:.1} | fallback {:.1}",
                s.outcome.plan_seconds * 1e3,
                s.outcome.overdelete_seconds * 1e3,
                s.outcome.delete_seconds * 1e3,
                s.outcome.rederive_seconds * 1e3,
                s.outcome.fallback_seconds * 1e3,
            );
            samples.push(s);
        }

        let at_top = samples
            .iter()
            .find(|s| s.threads == top)
            .expect("top thread count measured");
        let ratio = at_top.retract_seconds / at_top.scratch_run_seconds;
        let pass = ratio <= sc.target;
        if sc.name == "chain_tail_1pct" {
            headline_pass = pass;
        }
        println!(
            "-- {}: retract/recompute ratio at {top} threads: {ratio:.4} \
             (target ≤ {}) — {}\n",
            sc.name,
            sc.target,
            if pass { "PASS" } else { "MISS" }
        );

        json.begin_object();
        json.field_str("name", sc.name);
        json.field_f64("target", sc.target, 2);
        json.field_u64("edges", sc.edges.len() as u64);
        json.field_u64("retracted_edges", sc.gone.len() as u64);
        json.field_u64("retracted_inputs", at_top.outcome.retracted_inputs);
        json.field_u64("overdeleted", at_top.outcome.overdeleted);
        json.field_u64("rederived", at_top.outcome.rederived);
        json.field_f64("net_removed", at_top.outcome.net_removed as f64, 0);
        json.field_u64("top_threads", top as u64);
        json.field_f64("ratio_at_top", ratio, 4);
        json.field_bool("pass", pass);
        json.begin_array_field("results");
        for s in &samples {
            json.begin_object();
            json.field_u64("threads", s.threads as u64);
            json.field_f64("retract_seconds", s.retract_seconds, 6);
            json.field_f64("scratch_run_seconds", s.scratch_run_seconds, 6);
            json.field_f64("plan_seconds", s.outcome.plan_seconds, 6);
            json.field_f64("overdelete_seconds", s.outcome.overdelete_seconds, 6);
            json.field_f64("delete_seconds", s.outcome.delete_seconds, 6);
            json.field_f64("rederive_seconds", s.outcome.rederive_seconds, 6);
            json.field_f64("fallback_seconds", s.outcome.fallback_seconds, 6);
            json.field_f64("ratio", s.retract_seconds / s.scratch_run_seconds, 4);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    }

    json.end_array();
    json.field_bool("headline_pass", headline_pass);
    json.end_object();
    let out = "BENCH_retract.json";
    std::fs::write(out, json.finish()).expect("write BENCH_retract.json");
    println!("wrote {out}");
    emit_telemetry("retract");
    obs.finish();
}
