//! One rep, in a process of its own: builds the workload's programs from
//! the seed, runs them, withdraws the first one's batch if asked to, and
//! prints one JSON line per finished engine call (`run`, `retract`) and per
//! reading of the machine's speed (`calib`). The parent verifies the
//! digests; a crash here costs the parent one failed op, never the whole
//! benchmark.
//!
//! With `--replay` the child is the traced run: it drives the lower layers
//! with its own output ([`crate::replay`]), prints what it measured as
//! `metric` lines and writes its spans to `bench/out/trace_<workload>.json`.

use crate::measure::out_dir;
use crate::oracle::Digest;
use crate::pipeline::{self, Config, SETUP_REPS};
use crate::replay;
use crate::trace::Tracer;
use crate::workload::{self, Instance};
use datalog::{EvalStats, StorageKind};
use specbtree::HintStats;
use std::io::Write;
use std::process::Command;

/// A fault the self-test asks a child to commit.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Fault {
    None,
    /// Report a wrong checksum for the first `run`.
    Corrupt,
    /// Die by `SIGABRT` before the first `run`.
    Abort,
}

/// What a child is asked to do; the parent turns it into arguments with
/// [`to_args`](Self::to_args) and the child reads it back with
/// [`from_args`](Self::from_args).
#[derive(Clone, Debug)]
pub struct ChildSpec {
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    pub threads: usize,
    /// `btree`, `rbtset` or `gbtree`.
    pub kind: String,
    pub planner: bool,
    /// Withdraw the first program's batch once every program has run.
    pub retract: bool,
    /// Take the machine's speed around the runs and the retraction.
    pub calibrate: bool,
    /// Run only the first program, on the facts that survive its batch.
    pub scratch: bool,
    /// Be the traced run (see the module text).
    pub replay: bool,
    pub fault: Fault,
}

/// The argument after `name`, if both are there.
pub fn value_of(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

impl ChildSpec {
    /// One untraced child over the specialised tree with the planner on.
    /// With `gated` it is a rep of the end-to-end run as `BENCHMARK.json`
    /// defines it: it also withdraws the first program's batch, and takes
    /// the machine's speed around what it times.
    pub fn rep(workload: &str, seed: u64, smoke: bool, threads: usize, gated: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            smoke,
            threads,
            kind: "btree".to_string(),
            planner: true,
            retract: gated,
            calibrate: gated,
            scratch: false,
            replay: false,
            fault: Fault::None,
        }
    }

    pub fn to_args(&self) -> Vec<String> {
        let mut args: Vec<String> = ["child", "--workload", &self.workload, "--kind", &self.kind]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.extend(["--seed".to_string(), self.seed.to_string()]);
        args.extend(["--threads".to_string(), self.threads.to_string()]);
        let flags = [
            (self.smoke, "--smoke"),
            (!self.planner, "--planner-off"),
            (self.retract, "--retract"),
            (self.calibrate, "--calibrate"),
            (self.scratch, "--scratch"),
            (self.replay, "--replay"),
            (self.fault == Fault::Corrupt, "--fault-corrupt"),
            (self.fault == Fault::Abort, "--fault-abort"),
        ];
        args.extend(
            flags
                .iter()
                .filter(|(on, _)| *on)
                .map(|(_, f)| f.to_string()),
        );
        args
    }

    pub fn from_args(args: &[String]) -> Option<Self> {
        let has = |flag: &str| args.iter().any(|a| a == flag);
        Some(Self {
            workload: value_of(args, "--workload")?,
            seed: value_of(args, "--seed")?.parse().ok()?,
            smoke: has("--smoke"),
            threads: value_of(args, "--threads")?.parse().ok()?,
            kind: value_of(args, "--kind")?,
            planner: !has("--planner-off"),
            retract: has("--retract"),
            calibrate: has("--calibrate"),
            scratch: has("--scratch"),
            replay: has("--replay"),
            fault: match (has("--fault-corrupt"), has("--fault-abort")) {
                (true, _) => Fault::Corrupt,
                (_, true) => Fault::Abort,
                _ => Fault::None,
            },
        })
    }
}

fn digests_json(digests: &[(String, Digest)]) -> String {
    let items: Vec<String> = digests
        .iter()
        .map(|(n, d)| format!("\"{n}\": [{}, \"{:016x}\"]", d.count, d.sum))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn emit(line: String) {
    let mut out = std::io::stdout().lock();
    // The parent reads a file; a failed write shows there as a missing op.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn emit_metric(name: &str, value: f64) {
    emit(format!("{{\"metric\": \"{name}\", \"value\": {value}}}"));
}

/// Does what `spec` asks; `Err` carries the engine's error for the op that
/// was in flight.
pub fn main(spec: &ChildSpec) -> Result<(), String> {
    let kind = match spec.kind.as_str() {
        "btree" => StorageKind::SpecBTree,
        "rbtset" => StorageKind::RbTreeLocked,
        "gbtree" => StorageKind::GBTreeLocked,
        other => return Err(format!("unknown storage kind {other}")),
    };
    let cfg = Config {
        threads: spec.threads,
        kind,
        planner: spec.planner,
    };
    let sizes = if spec.smoke {
        &workload::SMOKE
    } else {
        &workload::FULL
    };
    let mut tr = Tracer::new();
    let (instances, _) = tr.span("gen", |_| {
        workload::instances(&spec.workload, spec.seed, sizes)
    });
    let mut instances: Vec<Instance> =
        instances.ok_or_else(|| format!("unknown workload {}", spec.workload))?;
    if spec.scratch {
        instances.truncate(1);
        instances[0].facts = instances[0].surviving();
    }

    // Totals over the programs, for the traced run's own metrics.
    let mut stats: Vec<EvalStats> = Vec::new();
    let (mut run_s, mut read_tuples, mut read_s) = (0.0, 0usize, 0.0);
    let mut largest: Vec<Vec<u64>> = Vec::new();

    // The machine's speed, if asked for, is taken before the runs, between
    // the runs and the retraction, and after it; the first program's engine
    // is kept for the retraction so that the brackets do not interleave.
    // The kernel runs in a process of its own, which prints its time to the
    // standard output it inherits: its 16 MiB would otherwise pass through
    // this process's allocator and change how the engine's memory is served.
    let calibrate = |tr: &mut Tracer| -> Result<(), String> {
        if !spec.calibrate {
            return Ok(());
        }
        let own = std::env::current_exe().map_err(|e| e.to_string())?;
        let (status, _) = tr.span("calib", |_| Command::new(own).arg("calib").status());
        match status {
            Ok(s) if s.success() => Ok(()),
            other => Err(format!("the calibration kernel did not run: {other:?}")),
        }
    };
    calibrate(&mut tr)?;
    let mut first = None;
    for (prog, inst) in instances.iter().enumerate() {
        let (mut engine, setup_s) = pipeline::setup(inst, &cfg, &mut tr)?;
        if spec.fault == Fault::Abort {
            std::process::abort();
        }
        let secs = pipeline::run(&mut engine, &mut tr)?;
        let rss_mb = pipeline::vm_hwm_mb();
        stats.push(*engine.stats());
        let mut out = pipeline::read_out(&engine, &mut tr)?;
        if spec.fault == Fault::Corrupt && prog == 0 {
            out.digests[0].1.sum ^= 1;
        }
        emit(format!(
            "{{\"op\": \"run\", \"prog\": {prog}, \"secs\": {secs:.6}, \"setup_s\": {setup_s:.6}, \
             \"rss_mb\": {rss_mb:.3}, \"rels\": {}, \"stats\": {}}}",
            digests_json(&out.digests),
            engine.stats().to_json(),
        ));
        run_s += secs;
        read_s += out.secs;
        read_tuples += out
            .digests
            .iter()
            .map(|(_, d)| d.count as usize)
            .sum::<usize>();
        if spec.replay && out.largest.len() > largest.len() {
            largest = out.largest;
        }
        if spec.retract && prog == 0 {
            first = Some(engine);
        }
    }
    calibrate(&mut tr)?;

    if let Some(mut engine) = first {
        let (outcome, secs) = pipeline::retract(&mut engine, &instances[0], &mut tr)?;
        let rss_mb = pipeline::vm_hwm_mb();
        let out = pipeline::read_out(&engine, &mut tr)?;
        emit(format!(
            "{{\"op\": \"retract\", \"prog\": 0, \"secs\": {secs:.6}, \"rss_mb\": {rss_mb:.3}, \"rels\": {}}}",
            digests_json(&out.digests),
        ));
        if spec.replay {
            emit_metric("dred.overdelete_s", outcome.overdelete_seconds);
            emit_metric("dred.delete_s", outcome.delete_seconds);
            emit_metric("dred.rederive_s", outcome.rederive_seconds);
            emit_metric("dred.overdeleted", outcome.overdeleted as f64);
            emit_metric("dred.rederived", outcome.rederived as f64);
        }
        calibrate(&mut tr)?;
    }

    if !spec.replay {
        return Ok(());
    }
    let replayed = if spec.threads == 1 {
        traced_metrics(&instances, &stats, run_s, read_tuples, read_s, &tr);
        replay::single(&largest, spec.seed, &mut tr)
    } else {
        replay::parallel(&largest, spec.seed, spec.threads, &mut tr)
    };
    replayed
        .iter()
        .for_each(|(name, value)| emit_metric(name, *value));
    let suffix = if spec.threads == 1 { "" } else { "_par" };
    let path = out_dir().join(format!("trace_{}{suffix}.json", spec.workload));
    std::fs::write(&path, tr.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// What the single-threaded traced run reads off its own spans and the
/// engine's public counters, summed over the workload's programs.
fn traced_metrics(
    instances: &[Instance],
    stats: &[EvalStats],
    run_s: f64,
    read_tuples: usize,
    read_s: f64,
    tr: &Tracer,
) {
    let per_setup_us = |span: &str| tr.total(span) / SETUP_REPS as f64 * 1e6;
    emit_metric("frontend.parse_us", per_setup_us("parse"));
    emit_metric("frontend.stratify_us", per_setup_us("stratify"));
    emit_metric("frontend.engine_new_us", per_setup_us("engine_new"));
    let facts: usize = instances.iter().map(Instance::fact_count).sum();
    emit_metric("frontend.load_mtps", facts as f64 / per_setup_us("load"));

    let sum = |f: fn(&EvalStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let (indexed, full) = (sum(|s| s.inner_scans_indexed), sum(|s| s.inner_scans_full));
    emit_metric("planner.index_builds", sum(|s| s.index_builds));
    emit_metric(
        "planner.index_hit_ratio",
        if indexed + full == 0.0 {
            1.0
        } else {
            indexed / (indexed + full)
        },
    );

    let (scanned, produced) = (sum(|s| s.tuples_scanned), sum(|s| s.produced_tuples));
    emit_metric("eval.iterations", sum(|s| s.iterations));
    emit_metric("eval.tuples_scanned", scanned);
    emit_metric("eval.tuples_emitted", sum(|s| s.tuples_emitted));
    emit_metric("eval.produced_tuples", produced);
    emit_metric("eval.scan_per_produced", scanned / produced);
    emit_metric("eval.ns_per_scanned", run_s * 1e9 / scanned);
    emit_metric("eval.inserts", sum(|s| s.inserts));
    emit_metric("eval.membership_tests", sum(|s| s.membership_tests));
    emit_metric(
        "eval.bound_calls",
        sum(|s| s.lower_bound_calls + s.upper_bound_calls),
    );
    let mut hints = HintStats::default();
    stats.iter().for_each(|s| hints.merge(&s.hints));
    emit_metric("eval.hint_hit_rate", hints.hit_rate());
    emit_metric("eval.read_out_mtps", read_tuples as f64 / read_s / 1e6);
}
