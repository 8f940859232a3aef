//! The steps one program goes through — set-up, run, read-out, retraction —
//! each a call into the engine's public API inside a span. The child
//! process and the traced run both walk these steps.

use crate::measure::median;
use crate::oracle::Digest;
use crate::trace::Tracer;
use crate::workload::Instance;
use datalog::{parse, stratify, Engine, EngineError, RetractOutcome, StorageKind};

/// Set-ups per program; `setup_s` is their median, and the last engine
/// built is the one that runs. A set-up takes milliseconds, so one sample
/// would mostly measure the process's first page faults. Not more than
/// five, although the first four or so run up to twice as long as later
/// ones would: every engine built before the run leaves its mark on the
/// heap, and with 25 `pointsto`'s peak memory ranged from 36 to 46 MiB
/// inside one run.
pub const SETUP_REPS: usize = 5;

/// How a program is run.
#[derive(Clone, Copy)]
pub struct Config {
    pub threads: usize,
    pub kind: StorageKind,
    pub planner: bool,
}

fn build(inst: &Instance, cfg: &Config, tr: &mut Tracer) -> Result<Engine, String> {
    let (program, _) = tr.span("parse", |_| parse(inst.rules));
    let program = program.map_err(|e| e.to_string())?;
    // `Engine::new` stratifies again on its own; this call is only here
    // so the trace can tell that share of `engine_new` apart.
    let (strat, _) = tr.span("stratify", |_| stratify(&program).map(|_| ()));
    strat.map_err(|e| e.to_string())?;
    let (engine, _) = tr.span("engine_new", |_| {
        Engine::new(&program, cfg.kind, cfg.threads)
    });
    let mut engine = engine.map_err(|e| e.to_string())?;
    engine.set_planner_enabled(cfg.planner);
    let (loaded, _) = tr.span("load", |_| -> Result<(), EngineError> {
        for (name, tuples) in &inst.facts {
            engine.add_facts(name, tuples.iter().cloned())?;
        }
        Ok(())
    });
    loaded.map_err(|e| e.to_string())?;
    Ok(engine)
}

/// Parses, builds and loads [`SETUP_REPS`] times; returns the last engine
/// and the median set-up time in seconds.
pub fn setup(inst: &Instance, cfg: &Config, tr: &mut Tracer) -> Result<(Engine, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (engine, secs) = tr.span("setup", |tr| build(inst, cfg, tr));
        last = Some(engine?);
        times.push(secs);
    }
    Ok((last.expect("SETUP_REPS >= 1"), median(&times)))
}

/// `Engine::run`, timed.
pub fn run(engine: &mut Engine, tr: &mut Tracer) -> Result<f64, String> {
    let (r, secs) = tr.span("run", |_| engine.run());
    r.map(|()| secs).map_err(|e| e.to_string())
}

/// `Engine::retract_facts` of the instance's batch, timed.
pub fn retract(
    engine: &mut Engine,
    inst: &Instance,
    tr: &mut Tracer,
) -> Result<(RetractOutcome, f64), String> {
    let batch: Vec<(String, Vec<u64>)> = inst
        .retract
        .iter()
        .map(|t| (inst.retract_rel.to_string(), t.clone()))
        .collect();
    let (r, secs) = tr.span("retract", |_| engine.retract_facts(batch));
    r.map(|o| (o, secs)).map_err(|e| e.to_string())
}

/// What reading every output relation back gave.
pub struct ReadOut {
    /// Digest per output relation, in declaration order.
    pub digests: Vec<(String, Digest)>,
    /// Seconds inside `Engine::relation`.
    pub secs: f64,
    /// Tuples of the largest output relation.
    pub largest: Vec<Vec<u64>>,
}

/// Reads every `.output` relation through `Engine::relation`.
pub fn read_out(engine: &Engine, tr: &mut Tracer) -> Result<ReadOut, String> {
    let mut out = ReadOut {
        digests: Vec::new(),
        secs: 0.0,
        largest: Vec::new(),
    };
    for name in engine.output_relations() {
        let (tuples, secs) = tr.span("read_out", |_| engine.relation(&name));
        let tuples = tuples.map_err(|e| e.to_string())?;
        out.secs += secs;
        out.digests.push((name, Digest::of(&tuples)));
        if tuples.len() > out.largest.len() {
            out.largest = tuples;
        }
    }
    Ok(out)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
