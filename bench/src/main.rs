//! The repository benchmark. See `bench/README.md`.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run, as BENCHMARK.json's command
//! bench all [--smoke] [--seconds S] [--tag T]                      every workload, seeds 42 and 7, to a result file
//! bench compare A.json B.json                                      two result files, row by row
//! bench selftest                                                   the harness's own checks
//! ```

mod calib;
mod child;
mod json;
mod measure;
mod metrics;
mod oracle;
mod pipeline;
mod replay;
mod results;
mod run;
mod selftest;
mod trace;
mod workload;

use child::value_of;
use std::process::ExitCode;

/// `--seconds` when `all` is not told otherwise: `BENCHMARK.json`'s
/// `run_seconds`, and with `--smoke` just the fewest reps a run makes.
const DEFAULT_SECONDS: f64 = 38.0;
const SMOKE_SECONDS: f64 = 1.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         bench all [--smoke] [--seconds <s>] [--tag <name>]\n       bench compare <a.json> <b.json>\n       bench selftest",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !std::path::Path::new("bench/Cargo.toml").exists() {
        eprintln!("bench: run from the repository root (it writes to bench/out/)");
        return ExitCode::from(2);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds = value_of(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
    let passed = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match args.first().map(String::as_str) {
        Some("child") => match child::ChildSpec::from_args(&args).map(|spec| child::main(&spec)) {
            Some(Ok(())) => ExitCode::SUCCESS,
            Some(Err(e)) => {
                eprintln!("child: {e}");
                ExitCode::FAILURE
            }
            None => usage(),
        },
        Some("calib") => {
            println!("{{\"calib\": {:.6}}}", calib::kernel());
            ExitCode::SUCCESS
        }
        Some("all") => {
            let tag = value_of(&args, "--tag").unwrap_or_else(|| {
                if smoke {
                    "smoke".into()
                } else {
                    "full".into()
                }
            });
            let default = if smoke {
                SMOKE_SECONDS
            } else {
                DEFAULT_SECONDS
            };
            passed(results::all(seconds.unwrap_or(default), smoke, &tag))
        }
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => match results::compare(a, b) {
                Ok(none_worse) => passed(none_worse),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => usage(),
        },
        Some("selftest") => passed(selftest::run()),
        _ => {
            let workload = value_of(&args, "--workload");
            let w = workload::WORKLOADS
                .iter()
                .find(|w| Some(w.name) == workload.as_deref());
            let seed = value_of(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
            let trace = value_of(&args, "--trace");
            let (Some(w), Some(seed), Some(seconds), Some(trace)) = (w, seed, seconds, trace)
            else {
                return usage();
            };
            let report = match trace.as_str() {
                "0" => run::end_to_end(w, seed, seconds, smoke),
                "1" => run::traced(w, seed, smoke),
                _ => return usage(),
            };
            match report {
                Some(report) => {
                    report.print();
                    println!("{}", report.contract_line());
                    ExitCode::SUCCESS
                }
                None => ExitCode::FAILURE,
            }
        }
    }
}
