//! Result files: `all` runs every workload on two seeds and writes one,
//! `compare` reads two and says, per workload and end-to-end metric,
//! whether the second is the same, worse or better than the first.

use crate::json::{self, escape, Value};
use crate::measure::out_dir;
use crate::metrics::END_TO_END;
use crate::run::{self, Report, PAR_THREADS};
use crate::workload::WORKLOADS;
use std::process::Command;

/// The seeds `all` runs: the default, and a second one no change was
/// written against. Both must verify.
const SEEDS: [u64; 2] = [42, 7];

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Runs every workload, untraced and traced, on every seed of [`SEEDS`],
/// prints every metric and writes `bench/out/result_<tag>.json`. Returns
/// whether every one-worker op verified.
pub fn all(seconds: f64, smoke: bool, tag: &str) -> bool {
    let mut reports: Vec<Report> = Vec::new();
    let mut complete = true;
    for seed in SEEDS {
        for w in &WORKLOADS {
            for report in [
                run::end_to_end(w, seed, seconds, smoke),
                run::traced(w, seed, smoke),
            ] {
                match report {
                    Some(r) => {
                        r.print();
                        reports.push(r);
                    }
                    None => complete = false,
                }
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let runs: Vec<String> = reports.iter().map(Report::to_json).collect();
    let text = format!(
        "{{\n  \"smoke\": {smoke},\n  \"provenance\": {{\"seeds\": [{}, {}], \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"cargo_features\": \"default (fastpath, gapped); telemetry off\", \
         \"seconds_per_run\": {seconds}, \"thread_counts\": [1, {PAR_THREADS}]}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        SEEDS[0],
        SEEDS[1],
        escape(&tool_line("rustc", &["--version"])),
        escape(&tool_line("git", &["rev-parse", "HEAD"])),
        runs.join(",\n")
    );
    let path = out_dir().join(format!("result_{tag}.json"));
    std::fs::write(&path, text).expect("bench/out is writable");
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    println!("wrote {}; {failed} one-worker op(s) failed", path.display());
    complete && failed == 0
}

struct Side {
    value: f64,
    q1: f64,
    q3: f64,
    n: f64,
    failed_share: f64,
}

fn untraced_runs(file: &Value) -> Vec<&Value> {
    file.get("runs")
        .map_or(&[][..], Value::items)
        .iter()
        .filter(|r| r.num("trace") == Some(0.0))
        .collect()
}

fn side(run: &Value, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.num("value")?,
        q1: m.num("q1")?,
        q3: m.num("q3")?,
        n: m.num("n")?,
        failed_share: run.num("failed")? / run.num("attempted")?,
    })
}

/// Prints one row per workload, seed and end-to-end metric of the result
/// files `a` and `b`. `Ok(true)` if no row is `worse`.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t))
    };
    let (fa, fb) = (read(a)?, read(b)?);
    println!(
        "{:<17} {:>4} {:<12} {:>30} {:>30} {:>9}  {:<10} failed ops A / B",
        "workload",
        "seed",
        "metric",
        "A median [q1 .. q3] n",
        "B median [q1 .. q3] n",
        "B / A",
        "verdict"
    );
    let mut none_worse = true;
    for ra in untraced_runs(&fa) {
        let key = |r: &Value| {
            (
                r.get("workload")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                r.num("seed"),
            )
        };
        let Some(rb) = untraced_runs(&fb).into_iter().find(|r| key(r) == key(ra)) else {
            continue;
        };
        for (def, bound) in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(ra, def.name), side(rb, def.name)) else {
                continue;
            };
            let spread = |s: &Side| (s.q3 - s.q1) / s.value;
            // Every end-to-end metric is better when lower.
            let change = sb.value / sa.value - 1.0;
            let verdict = if spread(&sa) > *bound
                || spread(&sb) > *bound
                || sa.failed_share > 0.5
                || sb.failed_share > 0.5
            {
                "unresolved"
            } else if change > *bound {
                none_worse = false;
                "worse"
            } else if change < -*bound {
                "better"
            } else {
                "same"
            };
            let cell = |s: &Side| format!("{:.4} [{:.4} .. {:.4}] {}", s.value, s.q1, s.q3, s.n);
            println!(
                "{:<17} {:>4} {:<12} {:>30} {:>30} {:>9.4}  {:<10} {:.0} % / {:.0} %",
                key(ra).0.unwrap_or_default(),
                key(ra).1.unwrap_or(0.0),
                def.name,
                cell(&sa),
                cell(&sb),
                sb.value / sa.value,
                verdict,
                sa.failed_share * 100.0,
                sb.failed_share * 100.0,
            );
        }
    }
    Ok(none_worse)
}
