//! Join-planning study: cost-based literal reordering + automatic
//! secondary indexes vs hand-written join orders.
//!
//! Two scenarios, each evaluated three ways over identical data:
//!
//! - **adversarial** — planner off, program written in the worst source
//!   order a user could plausibly pick (big relation first / reverse
//!   binding with no index), which is exactly what source-order
//!   compilation executes;
//! - **planner** — planner on, *same adversarial source text*: the cost
//!   model must rescue the order and (where the binding pattern demands
//!   it) derive a column-permuted secondary index, with the index build
//!   paid inside the measured window;
//! - **best_hand** — planner off, the best order a human can write
//!   without secondary indexes.
//!
//! `chain_join` is a pure ordering problem (the right order needs no
//! index); `reverse_bind` joins through a relation's *second* column, so
//! no hand order fully fixes it — the planner's `[1,0]` index should win
//! outright.
//!
//! A third scenario, `fig5a`, is the paper's own workload rather than an
//! adversarial one: the 11-program points-to suite of Fig. 5a
//! (`PointsToConfig::scaled(5)`, seeds 42..=52), planner on against planner
//! off on the same source text, one thread, interleaved best-of reps. Its
//! recursive stratum defines the relations its joins read, so the right
//! order is only visible in the counts of each iteration; the bar is that
//! the planner is never slower than source order there (`gain` ≥ 1), and
//! never does more scans plus range queries (a count that repeats exactly).
//!
//! Writes `BENCH_planner.json` in the current directory. Flags: `--scale
//! N`, `--threads 1,2,4,8`, `--seed N`, `--csv`, `--quick` (CI smoke:
//! small relations, shape-identical JSON).

use bench_suite::json::JsonWriter;
use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, print_row, Args};
use datalog::{parse, Engine, EvalStats, StorageKind};
use std::time::Instant;
use workloads::pointsto::{self, PointsToConfig, PointsToFacts};

/// Big `hub` first, tiny `probe` last: source order full-scans `hub` as
/// the outer loop. The right order (`probe` → `hub` → `spoke`) needs no
/// secondary index at all — every join lands on a leading-column prefix.
const CHAIN_ADVERSARIAL: &str = r#"
    .decl hub(x: number, y: number)
    .decl spoke(y: number, z: number)
    .decl probe(x: number)
    .decl out(x: number, z: number)
    .output out
    out(x, z) :- hub(x, y), spoke(y, z), probe(x).
"#;
const CHAIN_BEST: &str = r#"
    .decl hub(x: number, y: number)
    .decl spoke(y: number, z: number)
    .decl probe(x: number)
    .decl out(x: number, z: number)
    .output out
    out(x, z) :- probe(x), hub(x, y), spoke(y, z).
"#;

/// `fact(y, x)` is entered through its **second** column once `probe`
/// binds `x`. Source order (already probe-first) full-scans `fact` per
/// probe; the best index-free hand order flips `fact` outermost and
/// full-scans it once. Only the planner's `[1,0]` index turns the join
/// into point probes.
const REVERSE_ADVERSARIAL: &str = r#"
    .decl probe(x: number)
    .decl fact(y: number, x: number)
    .decl link(y: number, z: number)
    .decl outr(x: number, z: number)
    .output outr
    outr(x, z) :- probe(x), fact(y, x), link(y, z).
"#;
const REVERSE_BEST: &str = r#"
    .decl probe(x: number)
    .decl fact(y: number, x: number)
    .decl link(y: number, z: number)
    .decl outr(x: number, z: number)
    .output outr
    outr(x, z) :- fact(y, x), link(y, z), probe(x).
"#;

struct Scenario {
    name: &'static str,
    adversarial: &'static str,
    best_hand: &'static str,
    output: &'static str,
    /// `(relation, tuples)` pairs loaded into every engine.
    facts: Vec<(&'static str, Vec<Vec<u64>>)>,
}

fn scenario_chain_join(scale: usize, quick: bool) -> Scenario {
    let (nx, fan, np): (u64, u64, u64) = if quick {
        (500, 20, 40)
    } else {
        (20_000 * scale as u64, 100, 100)
    };
    // hub: nx hubs × fan spokes = the big relation; spoke maps each hub
    // leaf onward; probe selects np hubs.
    let hub: Vec<Vec<u64>> = (0..nx)
        .flat_map(|x| (0..fan).map(move |k| vec![x, x * fan + k]))
        .collect();
    let spoke: Vec<Vec<u64>> = (0..nx * fan).map(|y| vec![y, y + 1]).collect();
    let probe: Vec<Vec<u64>> = (0..np).map(|i| vec![i * (nx / np)]).collect();
    Scenario {
        name: "chain_join",
        adversarial: CHAIN_ADVERSARIAL,
        best_hand: CHAIN_BEST,
        output: "out",
        facts: vec![("hub", hub), ("spoke", spoke), ("probe", probe)],
    }
}

fn scenario_reverse_bind(scale: usize, quick: bool) -> Scenario {
    let (s, domain, np): (u64, u64, u64) = if quick {
        (10_000, 500, 40)
    } else {
        (1_000_000 * scale as u64, 10_000, 200)
    };
    // fact(y, x): each x value has s/domain matching ys — the reverse
    // binding fan-in the [1,0] index serves with point probes.
    let fact: Vec<Vec<u64>> = (0..s).map(|y| vec![y, y % domain]).collect();
    let link: Vec<Vec<u64>> = (0..s).map(|y| vec![y, y + 1]).collect();
    let probe: Vec<Vec<u64>> = (0..np).map(|i| vec![i * (domain / np)]).collect();
    Scenario {
        name: "reverse_bind",
        adversarial: REVERSE_ADVERSARIAL,
        best_hand: REVERSE_BEST,
        output: "outr",
        facts: vec![("probe", probe), ("fact", fact), ("link", link)],
    }
}

struct Sample {
    seconds: f64,
    out_len: usize,
    stats: EvalStats,
}

/// Loads the scenario's facts into a fresh engine compiled from `src`
/// with the planner toggled, and times `run()` alone (fact loading
/// excluded). Index derivation and backfill happen inside `run()`, so
/// the planner variant pays its build cost inside the measured window.
fn measure_once(sc: &Scenario, src: &str, planner: bool, threads: usize) -> Sample {
    let program = parse(src).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, threads).unwrap();
    engine.set_planner_enabled(planner);
    for (name, rows) in &sc.facts {
        engine.add_facts(name, rows.iter().cloned()).unwrap();
    }
    let t0 = Instant::now();
    engine.run().unwrap();
    Sample {
        seconds: t0.elapsed().as_secs_f64(),
        out_len: engine.relation_len(sc.output).unwrap(),
        stats: *engine.stats(),
    }
}

/// Interleaves repetitions round-robin across the three variants and
/// keeps each variant's best, so slow machine-wide drift (a noisy
/// neighbor, thermal state) hits all variants alike instead of
/// whichever variant happens to run last.
fn measure_trio(sc: &Scenario, threads: usize, reps: usize) -> (Sample, Sample, Sample) {
    let variants = [
        (sc.adversarial, false),
        (sc.adversarial, true),
        (sc.best_hand, false),
    ];
    let mut best: [Option<Sample>; 3] = [None, None, None];
    for _ in 0..reps {
        for (slot, &(src, planner)) in variants.iter().enumerate() {
            let s = measure_once(sc, src, planner, threads);
            best[slot] = Some(match best[slot].take() {
                Some(b) if b.seconds <= s.seconds => b,
                _ => s,
            });
        }
    }
    let [adv, plan, hand] = best;
    (
        adv.expect("reps >= 1"),
        plan.expect("reps >= 1"),
        hand.expect("reps >= 1"),
    )
}

/// One pass over the Fig. 5a suite: summed `run()` seconds, the scans plus
/// range queries the runs made, indexes built, and tuples derived.
struct SuiteSample {
    seconds: f64,
    join_work: u64,
    index_builds: u64,
    produced: u64,
}

fn measure_suite(suite: &[PointsToFacts], planner: bool) -> SuiteSample {
    let program = pointsto::program();
    let mut sample = SuiteSample {
        seconds: 0.0,
        join_work: 0,
        index_builds: 0,
        produced: 0,
    };
    for facts in suite {
        let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
        engine.set_planner_enabled(planner);
        pointsto::load_facts(&mut engine, facts).unwrap();
        let t0 = Instant::now();
        engine.run().unwrap();
        sample.seconds += t0.elapsed().as_secs_f64();
        let s = engine.stats();
        sample.join_work += s.tuples_scanned + s.lower_bound_calls + s.upper_bound_calls;
        sample.index_builds += s.index_builds;
        sample.produced += s.produced_tuples;
    }
    sample
}

/// Runs the `fig5a` scenario and writes its JSON object; returns whether
/// the planner held its bar.
fn fig5a(json: &mut JsonWriter, quick: bool, csv: bool) -> bool {
    let (scale, programs, reps) = if quick { (2, 3, 1) } else { (5, 11, 5) };
    let cfg = PointsToConfig::scaled(scale);
    let suite: Vec<PointsToFacts> = (0..programs)
        .map(|i| pointsto::generate_facts(&cfg, 42 + i))
        .collect();
    let mut best: [Option<SuiteSample>; 2] = [None, None];
    for _ in 0..reps {
        for (slot, planner) in [true, false].into_iter().enumerate() {
            let s = measure_suite(&suite, planner);
            best[slot] = Some(match best[slot].take() {
                Some(b) if b.seconds <= s.seconds => b,
                _ => s,
            });
        }
    }
    let [on, off] = best.map(|b| b.expect("reps >= 1"));
    assert_eq!(
        on.produced, off.produced,
        "fig5a: planner changed the fixpoint"
    );
    let gain = off.seconds / on.seconds;
    let pass = gain >= 1.0 && on.join_work <= off.join_work;
    println!("== fig5a: {programs} points-to programs at scale {scale}, 1 thread ==");
    print_row(
        csv,
        "planner",
        &[
            "run ms".into(),
            "scans + range queries".into(),
            "indexes".into(),
        ],
    );
    for (label, s) in [("on", &on), ("off", &off)] {
        print_row(
            csv,
            label,
            &[
                format!("{:.3}", s.seconds * 1e3),
                s.join_work.to_string(),
                s.index_builds.to_string(),
            ],
        );
    }
    println!(
        "-- fig5a: planner on is {gain:.2}x planner off (bar ≥ 1.0x, and no more join work) — {}\n",
        if pass { "PASS" } else { "MISS" }
    );
    json.begin_object_field("fig5a");
    json.field_u64("programs", programs);
    json.field_u64("scale", scale as u64);
    json.field_u64("produced_tuples", on.produced);
    json.field_f64("planner_seconds", on.seconds, 6);
    json.field_f64("off_seconds", off.seconds, 6);
    json.field_f64("gain", gain, 4);
    json.field_u64("planner_join_work", on.join_work);
    json.field_u64("off_join_work", off.join_work);
    json.field_u64("index_builds", on.index_builds);
    json.field_bool("pass", pass);
    json.end_object();
    pass
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start("planner", &args);
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
    const TARGET_SPEEDUP: f64 = 2.0;
    const PARITY_FLOOR: f64 = 0.9;

    let scenarios = [
        scenario_chain_join(scale, args.quick),
        scenario_reverse_bind(scale, args.quick),
    ];

    let mut json = JsonWriter::new();
    json.begin_object();
    json.field_str("bench", "planner");
    json.field_bool("quick", args.quick);
    json.field_f64("target_speedup", TARGET_SPEEDUP, 2);
    json.field_f64("parity_floor", PARITY_FLOOR, 2);
    json.begin_array_field("scenarios");

    let mut headline_pass = true;
    for sc in &scenarios {
        let tuples: usize = sc.facts.iter().map(|(_, rows)| rows.len()).sum();
        println!("== {}: {} input tuples ==", sc.name, tuples);
        print_row(
            args.csv,
            "threads",
            &[
                "adversarial ms".into(),
                "planner ms".into(),
                "best-hand ms".into(),
                "speedup".into(),
                "parity".into(),
            ],
        );

        let mut rows = Vec::new();
        for &t in &threads {
            let (adv, plan, hand) = measure_trio(sc, t, reps);
            assert_eq!(
                adv.out_len, plan.out_len,
                "{}@{t}: planner changed the fixpoint",
                sc.name
            );
            assert_eq!(
                adv.out_len, hand.out_len,
                "{}@{t}: hand order changed the fixpoint",
                sc.name
            );
            let speedup = adv.seconds / plan.seconds;
            let parity = hand.seconds / plan.seconds;
            print_row(
                args.csv,
                &t.to_string(),
                &[
                    format!("{:.3}", adv.seconds * 1e3),
                    format!("{:.3}", plan.seconds * 1e3),
                    format!("{:.3}", hand.seconds * 1e3),
                    format!("{speedup:.2}x"),
                    format!("{parity:.3}"),
                ],
            );
            rows.push((t, adv, plan, hand, speedup, parity));
        }

        let (_, _, plan_top, _, speedup, parity) = rows
            .iter()
            .find(|(t, ..)| *t == top)
            .expect("top thread count measured");
        let pass = *speedup >= TARGET_SPEEDUP && *parity >= PARITY_FLOOR;
        headline_pass &= pass;
        println!(
            "-- {}: at {top} threads planner is {speedup:.2}x vs adversarial \
             (target ≥ {TARGET_SPEEDUP}x), {parity:.3} of best hand order \
             (floor {PARITY_FLOOR}) — {}",
            sc.name,
            if pass { "PASS" } else { "MISS" }
        );
        println!(
            "   planner built {} index(es); inner scans {} indexed / {} full \
             (hit ratio {:.4})\n",
            plan_top.stats.index_builds,
            plan_top.stats.inner_scans_indexed,
            plan_top.stats.inner_scans_full,
            plan_top.stats.index_hit_ratio(),
        );

        json.begin_object();
        json.field_str("name", sc.name);
        json.field_u64("input_tuples", tuples as u64);
        json.field_u64("output_tuples", plan_top.out_len as u64);
        json.field_u64("top_threads", top as u64);
        json.field_f64("speedup_vs_adversarial", *speedup, 4);
        json.field_f64("parity_vs_best_hand", *parity, 4);
        json.field_u64("index_builds", plan_top.stats.index_builds);
        json.field_f64("index_hit_ratio", plan_top.stats.index_hit_ratio(), 4);
        json.field_bool("pass", pass);
        json.begin_array_field("results");
        for (t, adv, plan, hand, speedup, parity) in &rows {
            json.begin_object();
            json.field_u64("threads", *t as u64);
            json.field_f64("adversarial_seconds", adv.seconds, 6);
            json.field_f64("planner_seconds", plan.seconds, 6);
            json.field_f64("best_hand_seconds", hand.seconds, 6);
            json.field_f64("speedup_vs_adversarial", *speedup, 4);
            json.field_f64("parity_vs_best_hand", *parity, 4);
            json.field_u64("inner_scans_indexed", plan.stats.inner_scans_indexed);
            json.field_u64("inner_scans_full", plan.stats.inner_scans_full);
            json.end_object();
        }
        json.end_array();
        json.end_object();
    }

    json.end_array();
    headline_pass &= fig5a(&mut json, args.quick, args.csv);
    json.field_bool("headline_pass", headline_pass);
    json.end_object();
    let out = "BENCH_planner.json";
    std::fs::write(out, json.finish()).expect("write BENCH_planner.json");
    println!("wrote {out}");
    emit_telemetry("planner");
    obs.finish();
}
