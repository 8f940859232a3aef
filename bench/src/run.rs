//! One benchmark run of one workload: the timed reps that give the
//! end-to-end metrics (`--trace 0`), or the traced run and its comparison
//! children that give the per-layer metrics (`--trace 1`).

use crate::child::ChildSpec;
use crate::measure::{median, quartiles, run_child, Reference, Rep};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::{self, Instance, Workload};
use std::time::Instant;

/// Fewest timed reps a run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Worker threads of the parallel children. Fixed, so that results from
/// hosts with more cores stay comparable; `nproc` is recorded beside them.
pub const PAR_THREADS: usize = 2;

/// One metric as measured.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// First and third quartile and size of the sample `value` is the
    /// median of, where it is one.
    pub spread: Option<(f64, f64, usize)>,
}

/// What one run found.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Measured>,
}

impl Report {
    /// The line the benchmark contract asks for, last on standard output.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// This run as an entry of a result file.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let spread = m.spread.map_or(String::new(), |(q1, q3, n)| {
                    format!(", \"q1\": {q1}, \"q3\": {q3}, \"n\": {n}")
                });
                format!(
                    "      \"{}\": {{\"value\": {}, \"unit\": \"{}\"{spread}}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "    {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{\n{}\n    }}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.attempted,
            self.failed,
            metrics.join(",\n")
        )
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        for m in &self.metrics {
            match m.spread {
                Some((q1, q3, n)) => {
                    println!(
                        "  {:<40} {:>14.6} {:<9} median of {n}, quartiles {q1:.6} .. {q3:.6}",
                        m.name, m.value, m.unit
                    )
                }
                None => println!("  {:<40} {:>14.6} {}", m.name, m.value, m.unit),
            }
        }
        println!("  ops attempted {}, failed {}", self.attempted, self.failed);
    }
}

fn describe(rep: &Rep, what: &str) {
    let verdict = if rep.clean() {
        "verified".to_string()
    } else {
        format!("{} of {} ops FAILED", rep.failed, rep.attempted)
    };
    let speed = rep.speed(false).map_or(String::new(), |s| {
        format!(
            "; run {:.3} s with the machine at {s:.3} of reference speed",
            rep.run_s()
        )
    });
    println!(
        "  {what}: {verdict} ({:.2} s, {}{speed})",
        rep.wall_s, rep.status
    );
}

fn generate(w: &Workload, seed: u64, smoke: bool) -> (Vec<Instance>, Reference) {
    let sizes = if smoke {
        &workload::SMOKE
    } else {
        &workload::FULL
    };
    let start = Instant::now();
    let instances =
        workload::instances(w.name, seed, sizes).expect("WORKLOADS names are known to instances()");
    let reference = Reference::of(&instances);
    let facts: usize = instances.iter().map(Instance::fact_count).sum();
    println!(
        "{} seed {seed}{}: {} program(s), {facts} facts, inputs and reference in {:.2} s",
        w.name,
        if smoke { " (smoke)" } else { "" },
        instances.len(),
        start.elapsed().as_secs_f64()
    );
    println!("  why: {}", w.why);
    for (name, d) in &reference.run[0] {
        println!(
            "  expect {name}: {} tuples, checksum {:016x}",
            d.count, d.sum
        );
    }
    (instances, reference)
}

/// Reps for `seconds`, one worker, each a fresh child that runs every
/// program and then withdraws the first one's batch. A rep's times are
/// taken at the reference machine's speed (see [`crate::calib`]); the
/// metrics are medians over the reps whose every op verified.
pub fn end_to_end(w: &'static Workload, seed: u64, seconds: f64, smoke: bool) -> Option<Report> {
    let (instances, reference) = generate(w, seed, smoke);
    let spec = ChildSpec::rep(w.name, seed, smoke, 1, true);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // No rep is started that would not end inside `seconds`.
    let mut longest = 0.0f64;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() + longest < seconds {
        let rep = run_child(&spec, &reference, instances.len());
        describe(&rep, &format!("rep {}", reps.len() + 1));
        longest = longest.max(rep.wall_s);
        reps.push(rep);
    }
    // Per verified rep: run_s, retract_s, setup_s, peak_rss_mb.
    let clean: Vec<[f64; 4]> = reps
        .iter()
        .filter(|r| r.clean())
        .filter_map(|r| {
            let (running, retracting) = (r.speed(false)?, r.speed(true)?);
            Some([
                r.run_s() * running,
                r.first(true)?.num("secs")? * retracting,
                r.values(false, "setup_s").iter().sum::<f64>() * running,
                r.peak_rss_mb(),
            ])
        })
        .collect();
    if clean.is_empty() {
        eprintln!("{}: no rep verified, so there is nothing to report", w.name);
        return None;
    }
    Some(Report {
        workload: w.name,
        seed,
        trace: false,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (d, _))| {
                let values: Vec<f64> = clean.iter().map(|rep| rep[i]).collect();
                let (q1, value, q3) = quartiles(&values);
                Measured {
                    name: d.name,
                    unit: d.unit,
                    value,
                    spread: Some((q1, q3, values.len())),
                }
            })
            .collect(),
    })
}

/// The traced run: one child that traces itself and replays its output
/// through the lower layers, then one child per comparison — untraced,
/// planner off, two workers, the two other ordered backends, and the
/// first program from scratch on what survives its retraction.
///
/// `attempted` and `failed` count the one-worker ops only. What the
/// two-worker child gets wrong is a measurement here
/// (`eval.par_verified_share`), not a failure of the benchmark: the engine
/// is known to lose tuples with two workers, and the number is there so
/// that the fix has a baseline.
pub fn traced(w: &'static Workload, seed: u64, smoke: bool) -> Option<Report> {
    let (instances, reference) = generate(w, seed, smoke);
    let programs = instances.len();
    let base = ChildSpec::rep(w.name, seed, smoke, 1, false);
    let child = |spec: ChildSpec, what: &str| {
        let rep = run_child(&spec, &reference, programs);
        describe(&rep, what);
        rep
    };

    let traced = child(
        ChildSpec {
            retract: true,
            replay: true,
            ..base.clone()
        },
        "traced, 1 worker",
    );
    let plain = child(base.clone(), "untraced");
    let planner_off = child(
        ChildSpec {
            planner: false,
            ..base.clone()
        },
        "planner off",
    );
    let par = child(
        ChildSpec {
            threads: PAR_THREADS,
            retract: true,
            replay: true,
            ..base.clone()
        },
        "traced, 2 workers",
    );
    let rbtset = child(
        ChildSpec {
            kind: "rbtset".into(),
            ..base.clone()
        },
        "rbtset",
    );
    let gbtree = child(
        ChildSpec {
            kind: "gbtree".into(),
            ..base.clone()
        },
        "gbtree",
    );
    let scratch = child(
        ChildSpec {
            scratch: true,
            retract: false,
            ..base.clone()
        },
        "first program from scratch",
    );

    let serial = [&traced, &plain, &planner_off, &rbtset, &gbtree, &scratch];
    if !traced.clean() || !plain.clean() {
        eprintln!(
            "{}: the one-worker run did not verify, so there is nothing to report",
            w.name
        );
        return None;
    }

    // A child that did not get through an op has no time for it: the
    // metric is then left out here and reported as 0 below.
    let secs = |rep: &Rep, retract: bool| rep.first(retract).and_then(|l| l.num("secs"));
    let run_of = |rep: &Rep| rep.complete.then(|| rep.run_s());
    let run_s = plain.run_s();
    let traced_run_s = traced.run_s();
    let retract_s = secs(&traced, true);
    let par_ran = par.ops.iter().filter(|o| !o.retract).count() == programs;
    let par_run_s = par_ran.then(|| par.run_s());
    let par_stat = |key: &str| -> Vec<f64> {
        let stats = par.ops.iter().filter_map(|o| o.line.get("stats"));
        stats.filter_map(|s| s.num(key)).collect()
    };
    let planner_off_s = run_of(&planner_off);
    let (rb, gb) = (run_of(&rbtset), run_of(&gbtree));
    let best_baseline = rb.into_iter().chain(gb).reduce(f64::min);

    let mut found: Vec<(String, f64)> =
        traced.metrics.iter().chain(&par.metrics).cloned().collect();
    let mut put = |name: &str, value: Option<f64>| {
        found.extend(value.map(|v| (name.to_string(), v)));
    };
    put("planner.off_run_s", planner_off_s);
    put("planner.gain", planner_off_s.map(|off| off / run_s));
    put("eval.run_par_s", par_run_s);
    put("eval.par_speedup", par_run_s.map(|p| traced_run_s / p));
    let par_verified = par.ops.iter().filter(|o| o.verified).count();
    put(
        "eval.par_verified_share",
        Some(par_verified as f64 / (programs + 1) as f64),
    );
    put(
        "eval.sched_imbalance",
        par_ran.then(|| median(&par_stat("sched_imbalance"))),
    );
    put(
        "eval.chunks_claimed",
        par_ran.then(|| par_stat("chunks_claimed").iter().sum()),
    );
    put("eval.peak_rss_par_mb", par_ran.then(|| par.peak_rss_mb()));
    put("dred.retract_s", retract_s);
    put("dred.retract_par_s", secs(&par, true));
    let scratch_s = run_of(&scratch);
    put(
        "dred.scratch_ratio",
        retract_s.zip(scratch_s).map(|(r, s)| r / s),
    );
    put("baselines.rbtset_run_s", rb);
    put("baselines.gbtree_run_s", gb);
    put("baselines.best_ratio", best_baseline.map(|b| run_s / b));
    put(
        "trace.overhead_pct",
        Some((traced_run_s / run_s - 1.0) * 100.0),
    );

    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let value = found
                .iter()
                .find(|(n, _)| n == d.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| {
                    eprintln!(
                        "{}: {} was not measured (its child did not get that far); reported as 0",
                        w.name, d.name
                    );
                    0.0
                });
            Measured {
                name: d.name,
                unit: d.unit,
                value,
                spread: None,
            }
        })
        .collect();
    Some(Report {
        workload: w.name,
        seed,
        trace: true,
        attempted: serial.iter().map(|r| r.attempted).sum(),
        failed: serial.iter().map(|r| r.failed).sum(),
        metrics,
    })
}
