//! Timed reps: each a fresh child process with a timeout, its printed
//! digests checked against the oracle. Whatever happens to a child —
//! crash, timeout, engine error, wrong output — is one failed op here;
//! the harness carries on.

use crate::calib;
use crate::child::ChildSpec;
use crate::json::{self, Value};
use crate::oracle::Expected;
use crate::workload::Instance;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a child may run. The slowest expected one (the red-black tree
/// under `pointsto`) takes a quarter of this.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Where the benchmark writes: child outputs, traces, result files.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("bench/out");
    std::fs::create_dir_all(&dir).expect("bench/out can be created under the checkout");
    dir
}

/// The oracle's answer for a workload: per program after its run, and for
/// the first program after its retraction.
pub struct Reference {
    pub run: Vec<Expected>,
    pub after: Expected,
}

impl Reference {
    pub fn of(instances: &[Instance]) -> Self {
        Self {
            run: instances.iter().map(|i| (i.oracle)(&i.facts)).collect(),
            after: (instances[0].oracle)(&instances[0].surviving()),
        }
    }
}

/// One finished engine call as a child reported it.
pub struct Op {
    pub retract: bool,
    pub verified: bool,
    /// The child's JSON line.
    pub line: Value,
}

/// What came of one child.
pub struct Rep {
    /// Finished ops, in order.
    pub ops: Vec<Op>,
    /// What a traced child measured itself, by metric name.
    pub metrics: Vec<(String, f64)>,
    /// Seconds the child's [`calib::kernel`] runs took: before the programs
    /// ran, after them, and after the retraction.
    pub calib: Vec<f64>,
    /// Ops started: the finished ones, plus the one in flight if the child
    /// did not get through all of them.
    pub attempted: usize,
    pub failed: usize,
    /// Whether every expected op finished (verified or not).
    pub complete: bool,
    /// Wall-clock seconds the child lived.
    pub wall_s: f64,
    /// How the child ended, for the log.
    pub status: String,
}

impl Rep {
    /// Whether every expected op finished and verified.
    pub fn clean(&self) -> bool {
        self.failed == 0
    }

    /// `key` of every finished op of a kind, in program order.
    pub fn values(&self, retract: bool, key: &str) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.retract == retract)
            .filter_map(|o| o.line.num(key))
            .collect()
    }

    /// The machine's speed while the programs ran or, with `retract`,
    /// while the batch was withdrawn; `None` if the child did not get to
    /// the kernel run that closes the bracket.
    pub fn speed(&self, retract: bool) -> Option<f64> {
        let i = usize::from(retract);
        Some(calib::speed(*self.calib.get(i)?, *self.calib.get(i + 1)?))
    }

    /// Seconds in `Engine::run`, summed over programs.
    pub fn run_s(&self) -> f64 {
        self.values(false, "secs").iter().sum()
    }

    /// The child's peak resident set (`VmHWM`) when the first program's
    /// `Engine::run` returned, in MiB. Later programs of a suite reuse that
    /// memory, and how much they add on top is decided by the allocator and
    /// by thread timing (it moved `pointsto` by 12 % between identical
    /// runs), not by the engine.
    pub fn peak_rss_mb(&self) -> f64 {
        self.first(false)
            .and_then(|l| l.num("rss_mb"))
            .unwrap_or(0.0)
    }

    /// The first finished op of a kind.
    pub fn first(&self, retract: bool) -> Option<&Value> {
        self.ops
            .iter()
            .find(|o| o.retract == retract)
            .map(|o| &o.line)
    }
}

fn digests_match(line: &Value, expected: &Expected) -> bool {
    let rels = line.get("rels").map_or(&[][..], Value::members);
    rels.len() == expected.len()
        && expected.iter().all(|(name, d)| {
            rels.iter().any(|(n, v)| {
                n == name
                    && v.items().first().and_then(Value::as_f64) == Some(d.count as f64)
                    && v.items().get(1).and_then(Value::as_str) == Some(&format!("{:016x}", d.sum))
            })
        })
}

/// Runs one child to its end or to the timeout and checks what it printed.
pub fn run_child(spec: &ChildSpec, reference: &Reference, programs: usize) -> Rep {
    let programs = if spec.scratch { 1 } else { programs };
    let expected_ops = programs + usize::from(spec.retract);
    let out_path = out_dir().join(format!("child_{}.jsonl", std::process::id()));
    let out_file = std::fs::File::create(&out_path).expect("bench/out is writable");

    let mut cmd = Command::new(std::env::current_exe().expect("own path is known"));
    cmd.args(spec.to_args());
    cmd.stdin(Stdio::null())
        .stdout(Stdio::from(out_file))
        .stderr(Stdio::inherit());

    let start = Instant::now();
    let mut child = cmd.spawn().expect("the harness can start itself");
    let status = loop {
        match child.try_wait().expect("child can be waited for") {
            Some(status) => break format!("{status}"),
            None if start.elapsed() > CHILD_TIMEOUT => {
                // Kill and reap; both can only fail if it is already gone.
                let _ = child.kill();
                let _ = child.wait();
                break format!("timeout after {} s", CHILD_TIMEOUT.as_secs());
            }
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let wall_s = start.elapsed().as_secs_f64();

    let text = std::fs::read_to_string(&out_path).unwrap_or_default();
    let _ = std::fs::remove_file(&out_path);
    let (mut ops, mut metrics, mut calib) = (Vec::new(), Vec::new(), Vec::new());
    for line in text.lines().filter_map(|l| json::parse(l).ok()) {
        if let Some(secs) = line.num("calib") {
            calib.push(secs);
            continue;
        }
        if let (Some(name), Some(value)) = (
            line.get("metric").and_then(Value::as_str),
            line.num("value"),
        ) {
            metrics.push((name.to_string(), value));
            continue;
        }
        let retract = line.get("op").and_then(Value::as_str) == Some("retract");
        let prog = line.num("prog").unwrap_or(0.0) as usize;
        let expected = match (retract || spec.scratch, reference.run.get(prog)) {
            (true, _) => Some(&reference.after),
            (false, e) => e,
        };
        let verified = expected.is_some_and(|e| digests_match(&line, e));
        ops.push(Op {
            retract,
            verified,
            line,
        });
    }
    ops.truncate(expected_ops);
    let in_flight = usize::from(ops.len() < expected_ops);
    Rep {
        attempted: ops.len() + in_flight,
        failed: ops.iter().filter(|o| !o.verified).count() + in_flight,
        complete: in_flight == 0,
        ops,
        metrics,
        calib,
        wall_s,
        status,
    }
}

/// First quartile, median and third quartile of a non-empty sample,
/// computed as Python's `statistics.quantiles(values, n=4)` does (the
/// exclusive method), so the spreads this harness prints are the ones the
/// contract is judged by. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    let at = |i: i64| {
        if n == 1 {
            return v[0];
        }
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}
