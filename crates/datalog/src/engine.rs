//! The top-level engine: program loading, fact insertion, stratified
//! semi-naive evaluation, and result/statistics extraction.

use crate::ast::Program;
use crate::eval::{
    delta_positions, eval_plan, insert_tuples, merge_runs, source_order, Run, StorageEnv, Worker,
};
use crate::planner::{CostModel, Version};
use crate::storage::{pad, RelationStorage, StorageKind, TupleBuf};
use crate::strat::{stratify, StratError, Stratification, Stratum};
use specbtree::HintStats;
use std::collections::{HashMap, HashSet};

mod dred;

/// An error raised while building or running an engine.
#[derive(Debug)]
pub enum EngineError {
    /// Stratification or safety failure.
    Strat(StratError),
    /// A fact or query referenced an unknown relation.
    UnknownRelation(String),
    /// A fact had the wrong number of columns.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Expected arity.
        expected: usize,
        /// Provided arity.
        got: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Strat(e) => write!(f, "{e}"),
            EngineError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            EngineError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(f, "{relation}: expected arity {expected}, got {got}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StratError> for EngineError {
    fn from(e: StratError) -> Self {
        EngineError::Strat(e)
    }
}

/// Aggregate evaluation statistics — the quantities the paper's Table 2
/// reports ("Evaluation Statistics").
///
/// The four operation counts are taken where the engine and its workers
/// issue the calls — one per `insert`, per membership test and per range
/// query, a bulk merge counting one insert (a retraction one remove) per
/// tuple it moves — not inside the storages.
///
/// # Semantics across runs
///
/// Every counter **accumulates** for the lifetime of the engine: repeated
/// [`Engine::run`] calls (incremental evaluation) and retractions keep
/// adding to the same totals, and [`Engine::reset_stats`] restarts all of
/// them from zero.
/// The one exception is [`sched_imbalance`](Self::sched_imbalance), which
/// — like [`Engine::worker_stats`] — describes only the most recent run (a
/// ratio cannot meaningfully accumulate).
///
/// Each worker counts the join's operations into an `EvalStats` of its own
/// ([`Engine::worker_stats`]), which [`merge`](Self::merge) adds up.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Tuples offered to relation storages and deltas: loaded facts, the
    /// tuples a fixpoint's first delta is copied out from, and each tuple an
    /// iteration's merge added twice — into the full relation and into the
    /// next delta, Figure 1's `path.insert(newPath)` and `newPath.insert(t)`.
    pub inserts: u64,
    /// Membership tests issued: one per distinct tuple of a body check's
    /// block of bindings, and one per distinct head tuple of a worker's emit
    /// batch, which the iteration's merge looks up in the full relation —
    /// so this repeats exactly at one thread and moves by where the blocks
    /// and batches end at more.
    pub membership_tests: u64,
    /// Total `lower_bound` calls: one per distinct key of an inner scan's
    /// block of bindings — one per block for a scan with no bound prefix,
    /// whose one key is empty — and one per range chunk of an outer scan of
    /// a relation; an outer scan of a delta slices a sorted run and makes
    /// none.
    pub lower_bound_calls: u64,
    /// Total `upper_bound` calls in the sense of Figure 1's synthesized
    /// code: range queries bounded above, one per distinct key of an inner
    /// scan's block of bindings; a scan with no bound prefix makes none. The
    /// scan stops at the bound; no tree descent is made for it.
    pub upper_bound_calls: u64,
    /// Tuples loaded as input facts.
    pub input_tuples: u64,
    /// Tuples derived by rules (net growth of all relations).
    pub produced_tuples: u64,
    /// Semi-naive fixpoint iterations across all strata.
    pub iterations: u64,
    /// Chunks claimed by workers off the shared cursor; a plan that starts
    /// with a check runs on one worker and claims none.
    pub chunks_claimed: u64,
    /// Tuples scanned by outer and inner scans across all workers: each
    /// tuple a binding's scan is replayed with, and every tuple a keyed
    /// sweep's pass reads (once a block) to find its matches.
    pub tuples_scanned: u64,
    /// Tuples the relations lacked: what the iterations' merges of the
    /// workers' runs added. The merges count it, not the workers. After a
    /// retraction it also counts the overdeleted EDB facts rederivation
    /// puts back, which are merged as a run of the first worker's and were
    /// never membership-tested, so it may then exceed `membership_tests`.
    pub tuples_emitted: u64,
    /// Scheduler imbalance: max over workers of tuples scanned, divided
    /// by the mean (1.0 = perfectly balanced; meaningful with ≥2 threads).
    pub sched_imbalance: f64,
    /// Total `remove`/`retract_from` tuple-removal attempts on relation
    /// storages (retraction passes only; zero for insert-only workloads).
    pub removes: u64,
    /// EDB facts withdrawn through [`Engine::retract_facts`].
    pub retracted_inputs: u64,
    /// Tuples overdeleted by delete–rederive passes (seed facts plus
    /// everything transitively derivable from them).
    pub overdeleted_tuples: u64,
    /// Tuples put back by rederivation (alternative derivations plus
    /// overdeleted EDB facts that were not themselves retracted).
    pub rederived_tuples: u64,
    /// Secondary indexes built. The engine builds none: every scan reads
    /// the relation's primary tree, by a bound prefix or a sweep, so this
    /// stays zero. It is kept because the repository benchmark reads it.
    pub index_builds: u64,
    /// Inner (non-outermost) scans served by a bound leading prefix — range
    /// queries instead of sweeps — counted once per binding that reaches
    /// one: the join's lookups, which a block answers with one range query
    /// per distinct key.
    pub inner_scans_indexed: u64,
    /// Inner scans with no bound prefix, keyed sweeps included, counted
    /// once per binding that reaches one: the join's lookups, which a block
    /// answers with one read of the whole relation.
    pub inner_scans_full: u64,
    /// Operation-hint statistics. The engine writes none: its scans and
    /// checks read by sorted blocks through the tree's unhinted operations,
    /// so this stays zero. It is kept because the repository benchmark
    /// reads it.
    pub hints: HintStats,
}

impl EvalStats {
    /// Adds every count of `other` to `self` and merges its hint
    /// statistics; `sched_imbalance` is left as it is.
    pub fn merge(&mut self, other: &EvalStats) {
        let EvalStats {
            inserts,
            membership_tests,
            lower_bound_calls,
            upper_bound_calls,
            input_tuples,
            produced_tuples,
            iterations,
            chunks_claimed,
            tuples_scanned,
            tuples_emitted,
            sched_imbalance: _,
            removes,
            retracted_inputs,
            overdeleted_tuples,
            rederived_tuples,
            index_builds,
            inner_scans_indexed,
            inner_scans_full,
            hints,
        } = other;
        self.inserts += inserts;
        self.membership_tests += membership_tests;
        self.lower_bound_calls += lower_bound_calls;
        self.upper_bound_calls += upper_bound_calls;
        self.input_tuples += input_tuples;
        self.produced_tuples += produced_tuples;
        self.iterations += iterations;
        self.chunks_claimed += chunks_claimed;
        self.tuples_scanned += tuples_scanned;
        self.tuples_emitted += tuples_emitted;
        self.removes += removes;
        self.retracted_inputs += retracted_inputs;
        self.overdeleted_tuples += overdeleted_tuples;
        self.rederived_tuples += rederived_tuples;
        self.index_builds += index_builds;
        self.inner_scans_indexed += inner_scans_indexed;
        self.inner_scans_full += inner_scans_full;
        self.hints.merge(hints);
    }

    /// Serializes every field as one JSON object (hand-rolled,
    /// dependency-free; the `hints` field nests
    /// [`HintStats::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"inserts\": {}, \"membership_tests\": {}, ",
                "\"lower_bound_calls\": {}, \"upper_bound_calls\": {}, ",
                "\"input_tuples\": {}, \"produced_tuples\": {}, ",
                "\"iterations\": {}, \"chunks_claimed\": {}, ",
                "\"tuples_scanned\": {}, \"tuples_emitted\": {}, ",
                "\"sched_imbalance\": {:.6}, \"removes\": {}, ",
                "\"retracted_inputs\": {}, \"overdeleted_tuples\": {}, ",
                "\"rederived_tuples\": {}, \"index_builds\": {}, ",
                "\"inner_scans_indexed\": {}, \"inner_scans_full\": {}, ",
                "\"index_hit_ratio\": {:.6}, \"hints\": {}}}"
            ),
            self.inserts,
            self.membership_tests,
            self.lower_bound_calls,
            self.upper_bound_calls,
            self.input_tuples,
            self.produced_tuples,
            self.iterations,
            self.chunks_claimed,
            self.tuples_scanned,
            self.tuples_emitted,
            self.sched_imbalance,
            self.removes,
            self.retracted_inputs,
            self.overdeleted_tuples,
            self.rederived_tuples,
            self.index_builds,
            self.inner_scans_indexed,
            self.inner_scans_full,
            self.index_hit_ratio(),
            self.hints.to_json()
        )
    }

    /// Fraction of inner scans served by a bound prefix (1.0 when no inner
    /// scans ran — nothing needed rescuing).
    pub fn index_hit_ratio(&self) -> f64 {
        let total = self.inner_scans_indexed + self.inner_scans_full;
        if total == 0 {
            1.0
        } else {
            self.inner_scans_indexed as f64 / total as f64
        }
    }
}

/// What a delete–rederive pass did, returned by
/// [`Engine::retract_facts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RetractOutcome {
    /// EDB facts actually withdrawn (facts never asserted are ignored).
    pub retracted_inputs: u64,
    /// Distinct tuples overdeleted: the retracted facts plus every tuple
    /// with a derivation passing through one of them — of a stratum handed
    /// over to recomputation, those found until it was.
    pub overdeleted: u64,
    /// Tuples the rederivation phase put back (alternative derivations,
    /// plus overdeleted EDB facts that were not themselves retracted). On a
    /// database that holds facts added since the last run, it also counts
    /// what those facts derive through what came back, which the next run
    /// would derive anyway.
    pub rederived: u64,
    /// Strata recomputed from scratch: from the first whose deletion sets
    /// grew past a quarter of what recomputing rebuilds, or with a rule
    /// negating a relation whose contents shrank (DRed's overdelete/rederive
    /// split is unsound through negation), to the last.
    pub recomputed_strata: u64,
    /// Net change in total database size (before − after). Negative when
    /// retraction *grows* the database through stratified negation.
    pub net_removed: i64,
    /// Wall-clock seconds planning the overdeletion rules (before phase 1).
    pub plan_seconds: f64,
    /// Wall-clock seconds in the overdeletion fixpoint (phase 1).
    pub overdelete_seconds: f64,
    /// Wall-clock seconds physically removing tuples (phase 2).
    pub delete_seconds: f64,
    /// Wall-clock seconds re-proving overdeleted tuples (phase 3).
    pub rederive_seconds: f64,
    /// Wall-clock seconds recomputing strata (phase 4).
    pub fallback_seconds: f64,
}

/// Per-rule evaluation profile (one entry per rule, summed over its
/// semi-naive versions) — the engine's analog of Soufflé's profiler.
#[derive(Debug, Clone)]
pub struct RuleProfile {
    /// The rule, rendered.
    pub rule: String,
    /// Plan-version evaluations performed (versions × iterations).
    pub evaluations: u64,
    /// Wall-clock seconds spent evaluating this rule's plans.
    pub seconds: f64,
}

impl RuleProfile {
    /// Serializes the entry as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\": \"{}\", \"evaluations\": {}, \"seconds\": {:.6}}}",
            json_escape(&self.rule),
            self.evaluations,
            self.seconds
        )
    }
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A Datalog engine over pluggable relation storage.
///
/// ```
/// use datalog::{parse, Engine, StorageKind};
///
/// let program = parse(r#"
///     .decl edge(x: number, y: number)
///     .decl path(x: number, y: number)
///     .output path
///     edge(1, 2). edge(2, 3). edge(3, 4).
///     path(x, y) :- edge(x, y).
///     path(x, z) :- path(x, y), edge(y, z).
/// "#).unwrap();
///
/// let mut engine = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
/// engine.run().unwrap();
/// assert_eq!(engine.relation("path").unwrap().len(), 6);
/// ```
pub struct Engine {
    program: Program,
    strat: Stratification,
    kind: StorageKind,
    threads: usize,
    rels: Vec<Box<dyn RelationStorage>>,
    /// Tuples per relation, kept in step by every path that changes one
    /// (the counts `insert_tuples`, `merge_runs` and `retract_from` return)
    /// — the storages themselves only count by walking.
    counts: Vec<usize>,
    /// The extensional database: per relation, exactly the facts asserted
    /// through [`add_fact`](Self::add_fact) (and program facts), kept apart
    /// from derived tuples so retraction knows what rederivation may put
    /// back and what a from-scratch recompute starts from.
    edb: Vec<HashSet<TupleBuf>>,
    stats: EvalStats,
    /// Per-worker counters from the last run.
    worker_stats: Vec<EvalStats>,
    /// Per-rule (by rule index) evaluation counts and time.
    profile: HashMap<usize, (u64, f64)>,
    /// Cost-based join ordering (default on;
    /// [`set_planner_enabled`](Self::set_planner_enabled)).
    planner_enabled: bool,
    /// Per rule, the versions its stratum last evaluated (what
    /// [`explain`](Self::explain) reports once the rule has run).
    executed: Vec<Vec<Version>>,
    /// The versions the last [`retract_facts`](Self::retract_facts)
    /// planned, each with the phase that ran it.
    retraction: Vec<(&'static str, Box<Version>)>,
}

impl Engine {
    /// Builds an engine for `program` with relations backed by `kind`,
    /// evaluating rules with `threads` worker threads. Program facts are
    /// loaded immediately.
    pub fn new(program: &Program, kind: StorageKind, threads: usize) -> Result<Self, EngineError> {
        let strat = stratify(program)?;
        let rels: Vec<_> = program
            .decls
            .iter()
            .map(|d| kind.create_for(d.arity))
            .collect();
        let nrels = program.decls.len();
        let mut engine = Self {
            program: program.clone(),
            strat,
            kind,
            threads: threads.max(1),
            rels,
            counts: vec![0; nrels],
            edb: vec![HashSet::new(); nrels],
            stats: EvalStats::default(),
            worker_stats: Vec::new(),
            profile: HashMap::new(),
            planner_enabled: true,
            executed: vec![Vec::new(); program.rules.len()],
            retraction: Vec::new(),
        };
        for (name, tuple) in &engine.program.facts.clone() {
            engine.add_fact(name, tuple)?;
        }
        Ok(engine)
    }

    /// The storage kind backing this engine's relations.
    pub fn storage_kind(&self) -> StorageKind {
        self.kind
    }

    /// Enables or disables the cost-based planner (default: enabled).
    /// When off, every version — a run's and a retraction's — compiles in
    /// source order with its delta hoisted outermost: the pre-planner
    /// behavior, kept as an A/B baseline for the bench suite.
    pub fn set_planner_enabled(&mut self, on: bool) {
        self.planner_enabled = on;
    }

    /// Whether cost-based join ordering is in effect.
    pub fn planner_enabled(&self) -> bool {
        self.planner_enabled
    }

    /// The versions of `rules` (rules of `stratum`) that read a delta, or
    /// with `recursive` false the ones that read none, each ordered once for
    /// the database as it is now ([`Version::new`]). A relation the stratum
    /// defines is still growing, so it is costed at no less than the largest
    /// relation these rules read — never at the near-empty state the first
    /// iterations find it in. `deltas[r]` is the size of relation `r`'s
    /// delta as the versions' fixpoint starts (its whole content in a run):
    /// what a delta literal is costed with. Source order with the planner
    /// off.
    fn versions_of(
        &self,
        stratum: &Stratum,
        rules: impl Iterator<Item = usize>,
        recursive: bool,
        deltas: &[f64],
    ) -> Vec<Version> {
        let rel_ids = &self.strat.rel_ids;
        let mut versions: Vec<(usize, Option<usize>)> = Vec::new();
        for ri in rules {
            let rule = &self.program.rules[ri];
            let ps = delta_positions(rule, rel_ids, &stratum.relations).into_iter();
            versions.extend(ps.filter(|p| p.is_some() == recursive).map(|p| (ri, p)));
        }
        let floor = versions
            .iter()
            .flat_map(|&(ri, _)| &self.program.rules[ri].body)
            .filter(|l| !l.negated)
            .map(|l| self.counts[rel_ids[&l.atom.relation]])
            .max()
            .unwrap_or(0);
        let cards: Vec<f64> = (0..self.counts.len())
            .map(|r| match stratum.relations.contains(&r) {
                true => self.counts[r].max(floor) as f64,
                false => self.counts[r] as f64,
            })
            .collect();
        let model = CostModel {
            cards: &cards,
            deltas,
        };
        let model = self.planner_enabled.then_some(&model);
        let version = |(ri, p)| Version::new(ri, &self.program.rules[ri], rel_ids, p, model);
        versions.into_iter().map(version).collect()
    }

    /// The delta sizes a fixpoint of `stratum` starts from: the whole
    /// content of every relation it defines, nothing anywhere else.
    fn whole_deltas(&self, stratum: &Stratum) -> Vec<f64> {
        let mut deltas = vec![0.0; self.counts.len()];
        for &r in &stratum.relations {
            deltas[r] = self.counts[r] as f64;
        }
        deltas
    }

    /// Per-worker counters from the last [`run`](Self::run) (index = worker
    /// id; empty before the first run): the join's operations, the fields
    /// [`EvalStats::merge`] sums into [`stats`](Self::stats), and nothing
    /// else.
    pub fn worker_stats(&self) -> &[EvalStats] {
        &self.worker_stats
    }

    /// The id of a declared relation.
    fn rel_id(&self, name: &str) -> Result<usize, EngineError> {
        let id = self.strat.rel_ids.get(name).copied();
        id.ok_or_else(|| EngineError::UnknownRelation(name.to_string()))
    }

    /// `tuple` padded for storage, or the error for one of the wrong arity.
    fn padded(&self, rel: usize, tuple: &[u64]) -> Result<TupleBuf, EngineError> {
        let decl = &self.program.decls[rel];
        if tuple.len() != decl.arity {
            return Err(EngineError::ArityMismatch {
                relation: decl.name.clone(),
                expected: decl.arity,
                got: tuple.len(),
            });
        }
        Ok(pad(tuple))
    }

    /// Adds an input fact before (or between) runs.
    pub fn add_fact(&mut self, relation: &str, tuple: &[u64]) -> Result<(), EngineError> {
        self.add_facts(relation, [tuple.to_vec()])
    }

    /// Bulk-adds facts, all or none: a tuple of the wrong arity fails the batch.
    pub fn add_facts(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = Vec<u64>>,
    ) -> Result<(), EngineError> {
        let rel = self.rel_id(relation)?;
        let padded = tuples.into_iter().map(|t| self.padded(rel, &t));
        let batch = padded.collect::<Result<Vec<TupleBuf>, _>>()?;
        let added = insert_tuples(self.rels[rel].as_ref(), &batch);
        self.stats.inserts += batch.len() as u64;
        self.stats.input_tuples += added;
        self.counts[rel] += added as usize;
        self.edb[rel].extend(batch);
        Ok(())
    }

    /// Number of extensional (asserted, not derived) facts of a relation.
    pub fn edb_len(&self, relation: &str) -> Result<usize, EngineError> {
        let rel = self.rel_id(relation)?;
        Ok(self.edb[rel].len())
    }

    /// Runs the stratified semi-naive evaluation to fixpoint.
    pub fn run(&mut self) -> Result<(), EngineError> {
        self.profile.clear();
        let size_before: usize = self.counts.iter().sum();

        // One worker per thread: its counters, and the buffers its plan
        // executions reuse.
        let mut workers: Vec<Worker> = (0..self.threads).map(|_| Worker::default()).collect();
        for (si, stratum) in self.strat.strata.clone().iter().enumerate() {
            let _span = telemetry::span("eval.stratum", si as u64);
            self.eval_stratum(stratum, &mut workers);
        }

        // Aggregate the workers' counters and compute the load-imbalance
        // figure (max/mean of this run's tuples scanned across workers).
        let wstats: Vec<EvalStats> = workers.into_iter().map(|w| w.stats).collect();
        wstats.iter().for_each(|w| self.stats.merge(w));
        let active = wstats.iter().filter(|w| w.chunks_claimed > 0).count();
        let scanned: u64 = wstats.iter().map(|w| w.tuples_scanned).sum();
        self.stats.sched_imbalance = if active > 0 && scanned > 0 {
            let mean = scanned as f64 / self.threads as f64;
            let max = wstats.iter().map(|w| w.tuples_scanned).max().unwrap_or(0);
            max as f64 / mean
        } else {
            1.0
        };
        self.worker_stats = wstats;

        let size_after: usize = self.counts.iter().sum();
        self.stats.produced_tuples += (size_after - size_before) as u64;
        debug_assert!(self.counts_are_exact());
        Ok(())
    }

    /// An empty storage of the engine's kind at relation `r`'s arity: what a
    /// deletion set of `r` is, so that it retracts from `r` tree to tree, and
    /// what a recomputed relation starts from.
    fn table_for(&self, r: usize) -> Box<dyn RelationStorage> {
        self.kind.create_for(self.program.decls[r].arity)
    }

    /// Evaluates one stratum to fixpoint over the current contents of
    /// `self.rels`: non-recursive rules once, then the semi-naive
    /// [`fixpoint`](Self::fixpoint) from the whole of the stratum's
    /// relations. Shared by [`run`](Self::run) and the negation-fallback
    /// recompute inside [`retract_facts`](Self::retract_facts).
    fn eval_stratum(&mut self, stratum: &Stratum, workers: &mut [Worker]) {
        let stratum_timer = telemetry::start_timer();
        for &ri in &stratum.rules {
            self.executed[ri].clear();
        }
        let rules = stratum.rules.iter().copied();
        let base = self.versions_of(stratum, rules, false, &self.whole_deltas(stratum));

        // Phase 1: non-recursive rules derive into the workers' runs, then
        // merge (no version of them reads a delta, and phase 2 starts from
        // whole relations, so what the merge adds is no delta).
        self.eval_versions(&base, &[], &[], workers);
        self.merge_stratum(&stratum.relations, workers, false);
        self.record(base);

        // Phase 2: the semi-naive fixpoint. Delta starts as the full
        // current contents of the stratum's relations, copied out as runs.
        if stratum.recursive {
            let mut delta = vec![Run::default(); self.rels.len()];
            for &r in &stratum.relations {
                delta[r] = Run::of(self.rels[r].as_ref());
            }
            self.stats.inserts += delta.iter().map(Run::len).sum::<usize>() as u64;
            let (_, rec) = self.fixpoint(stratum, delta, workers);
            self.record(rec);
        }
        stratum_timer.observe(telemetry::Hist::EvalStratumNanos);
    }

    /// Figure 1's semi-naive loop over `stratum`'s recursive versions, from
    /// `delta`, one run per relation id, to fixpoint. The versions are
    /// ordered once, from the counts and delta sizes it starts with, and
    /// each round's runs are merged into the relations, what they added
    /// making the next delta. The delta a round read is dropped before that
    /// merge returns the next. Returns the tuples added and the versions
    /// that ran. [`run`](Self::run) starts it from whole relations, a
    /// retraction's rederivation from what it put back.
    fn fixpoint(
        &mut self,
        stratum: &Stratum,
        mut delta: Vec<Run>,
        workers: &mut [Worker],
    ) -> (u64, Vec<Version>) {
        let deltas: Vec<f64> = delta.iter().map(|d| d.len() as f64).collect();
        let rec = self.versions_of(stratum, stratum.rules.iter().copied(), true, &deltas);
        if rec.is_empty() {
            return (0, rec);
        }
        let (mut total, mut round) = (0, deltas.iter().sum::<f64>() as u64);
        loop {
            self.stats.iterations += 1;
            telemetry::count(telemetry::Counter::EvalIterations);
            let _iter_span = telemetry::span("eval.iteration", self.stats.iterations);
            telemetry::record(telemetry::Hist::EvalDeltaTuples, round);
            self.eval_versions(&rec, &[], &delta, workers);
            delta.clear();
            delta = self.merge_stratum(&stratum.relations, workers, true);
            round = delta.iter().map(Run::len).sum::<usize>() as u64;
            total += round;
            if round == 0 {
                break;
            }
        }
        (total, rec)
    }

    /// Keeps evaluated versions for [`explain`](Self::explain).
    fn record(&mut self, versions: Vec<Version>) {
        for v in versions {
            self.executed[v.rule_idx].push(v);
        }
    }

    /// Evaluates every version's current plan over the relations followed by
    /// `extra` (a retraction's deletion sets, at ids `nrels..`) and `delta`
    /// (by relation id), deriving into the workers' runs, attributing the
    /// time to the version's rule. A version whose delta is empty this round
    /// derives nothing: its outer loop is the delta. It is skipped, and is
    /// not counted in the rule's profile.
    fn eval_versions(
        &mut self,
        versions: &[Version],
        extra: &[&dyn RelationStorage],
        delta: &[Run],
        workers: &mut [Worker],
    ) {
        let rels = self.rels.iter().map(|b| b.as_ref());
        let full: Vec<&dyn RelationStorage> = rels.chain(extra.iter().copied()).collect();
        let env = StorageEnv { full: &full, delta };
        let empty = |r: usize| delta.get(r).is_none_or(Run::is_empty);
        for v in versions {
            if v.plan.delta.is_some_and(empty) {
                continue;
            }
            let t0 = std::time::Instant::now();
            let _span = telemetry::span("eval.plan", v.plan.head_rel as u64);
            eval_plan(&v.plan, &env, workers);
            let entry = self.profile.entry(v.rule_idx).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += t0.elapsed().as_secs_f64();
        }
    }

    /// Merges the runs the workers derived for each of `rels` into its full
    /// relation (Figure 1's `contains` and `insert` for the whole stratum).
    /// Returns, by relation id, what each merge added — with `delta`, the
    /// next iteration's delta; without, nothing, each run dropped as soon as
    /// its count has kept `self.counts` exact.
    ///
    /// Relation after relation, each with every worker: the merge inside
    /// the backend ([`RelationStorage::merge_runs`]) cuts the runs' key space
    /// into ranges claimed off one cursor, and keeps a few small runs on the
    /// calling thread.
    fn merge_stratum(&mut self, rels: &[usize], workers: &mut [Worker], delta: bool) -> Vec<Run> {
        let timer = telemetry::start_timer();
        let mut added = vec![Run::default(); self.rels.len()];
        for &r in rels {
            let _span = telemetry::span("eval.merge", r as u64);
            let into = self.rels[r].as_ref();
            let run = merge_runs(workers, r, into, delta, self.threads, &mut self.stats);
            self.counts[r] += run.len();
            if delta {
                added[r] = run;
            }
        }
        timer.observe(telemetry::Hist::EvalMergeNanos);
        added
    }

    /// Whether `self.counts` agrees with a walk of every relation (debug
    /// builds check it after each run and retraction).
    fn counts_are_exact(&self) -> bool {
        self.rels
            .iter()
            .zip(&self.counts)
            .all(|(r, &n)| r.len() == n)
    }

    /// The contents of a relation, unpadded to its declared arity, sorted.
    pub fn relation(&self, name: &str) -> Result<Vec<Vec<u64>>, EngineError> {
        let rel = self.rel_id(name)?;
        let arity = self.program.decls[rel].arity;
        let mut out = Vec::with_capacity(self.counts[rel]);
        self.rels[rel].for_each(&mut |t| out.push(t[..arity].to_vec()));
        out.sort_unstable();
        Ok(out)
    }

    /// Number of tuples in a relation.
    pub fn relation_len(&self, name: &str) -> Result<usize, EngineError> {
        let rel = self.rel_id(name)?;
        Ok(self.counts[rel])
    }

    /// The contents of a relation rendered for humans: symbol columns are
    /// resolved through the program's symbol table, number columns are
    /// printed as integers.
    pub fn relation_display(&self, name: &str) -> Result<Vec<Vec<String>>, EngineError> {
        let rel = self.rel_id(name)?;
        let decl = &self.program.decls[rel];
        let rows = self.relation(name)?;
        Ok(rows
            .into_iter()
            .map(|row| {
                row.iter()
                    .zip(&decl.col_types)
                    .map(|(v, ty)| match ty {
                        crate::ast::ColType::Symbol => self
                            .program
                            .symbols
                            .resolve(*v)
                            .map(|s| s.to_string())
                            .unwrap_or_else(|| v.to_string()),
                        crate::ast::ColType::Number => v.to_string(),
                    })
                    .collect()
            })
            .collect())
    }

    /// The program's symbol table (string constants interned at parse
    /// time).
    pub fn symbols(&self) -> &crate::ast::SymbolTable {
        &self.program.symbols
    }

    /// Per-rule evaluation profile of the last run and of the retractions
    /// since, hottest rules first — the engine's analog of Soufflé's
    /// profiler output. A retraction's versions count toward the rule they
    /// were made from.
    pub fn profile(&self) -> Vec<RuleProfile> {
        let mut out: Vec<RuleProfile> = self
            .profile
            .iter()
            .map(|(&ri, &(evals, secs))| RuleProfile {
                rule: self.program.rules[ri].to_string(),
                evaluations: evals,
                seconds: secs,
            })
            .collect();
        out.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
        out
    }

    /// Accumulated statistics (see [`EvalStats`] for the exact semantics
    /// across repeated runs).
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Zeroes the accumulated [`EvalStats`] along with the per-worker
    /// counters and the per-rule profile.
    pub fn reset_stats(&mut self) {
        self.stats = EvalStats::default();
        self.worker_stats.clear();
        self.profile.clear();
    }

    /// Number of declared relations.
    pub fn relation_count(&self) -> usize {
        self.program.decls.len()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.program.rules.len()
    }

    /// Tuples of `relation` whose leading columns equal `prefix`, sorted
    /// (a point/range query against the evaluated database).
    pub fn query(&self, relation: &str, prefix: &[u64]) -> Result<Vec<Vec<u64>>, EngineError> {
        let rel = self.rel_id(relation)?;
        let arity = self.program.decls[rel].arity;
        if prefix.len() > arity {
            return Err(EngineError::ArityMismatch {
                relation: relation.to_string(),
                expected: arity,
                got: prefix.len(),
            });
        }
        let storage = self.rels[rel].as_ref();
        let mut ctx = storage.make_ctx();
        let mut out = Vec::new();
        storage.scan_prefix(prefix, &mut ctx, &mut |t| out.push(t[..arity].to_vec()));
        out.sort_unstable();
        Ok(out)
    }

    /// `(name, tuple count)` for every relation, sorted descending by size
    /// — the "produced tuples concentrate in one relation" property the
    /// paper's Table 2 discussion highlights.
    pub fn relation_sizes(&self) -> Vec<(String, usize)> {
        let mut sizes: Vec<(String, usize)> = self
            .program
            .decls
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), self.counts[i]))
            .collect();
        sizes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sizes
    }

    /// Takes a storage-health census of every relation (see
    /// [`StorageReport`](crate::StorageReport)): tuple counts, and for
    /// B-tree-backed relations the full structural stats — depth,
    /// occupancy histogram, graveyard and node bytes. Quiescent
    /// phases only (between runs), like `BTreeSet::stats` itself.
    pub fn storage_report(&self) -> crate::StorageReport {
        crate::StorageReport {
            relations: self
                .program
                .decls
                .iter()
                .enumerate()
                .map(|(i, d)| crate::RelationReport {
                    name: d.name.clone(),
                    len: self.counts[i],
                    tree: self.rels[i].tree_stats(),
                })
                .collect(),
        }
    }

    /// Names of the relations declared `.input`.
    pub fn input_relations(&self) -> Vec<String> {
        self.program
            .decls
            .iter()
            .filter(|d| d.is_input)
            .map(|d| d.name.clone())
            .collect()
    }

    /// Names of the relations declared `.output`.
    pub fn output_relations(&self) -> Vec<String> {
        self.program
            .decls
            .iter()
            .filter(|d| d.is_output)
            .map(|d| d.name.clone())
            .collect()
    }

    /// Renders the evaluation strategy: strata in execution order and, for
    /// every rule, each compiled semi-naive plan version — the engine's
    /// `EXPLAIN` facility.
    ///
    /// A rule whose stratum has been evaluated shows the versions that
    /// last *ran*; any other shows the versions a run would start from,
    /// planned against the current database without touching the engine.
    /// With the planner enabled, plans show the cost-chosen literal order
    /// and how each scan reads its relation: `range` over a bound prefix,
    /// `scan … key=(…)` for a keyed sweep, a bare `scan` with nothing
    /// fixed. A version the cost model moved away from source order is
    /// followed by a `cardinalities:` line with what every body literal was
    /// costed with: a recursive version's as its fixpoint started, since a
    /// version is ordered once. After a
    /// [`retract_facts`](Self::retract_facts), a `retraction:` section lists
    /// the versions it planned, by phase — the synthetic ones over the
    /// deletion sets `~del~r`, then the recursive ones rederivation
    /// propagated with — and what each literal was costed with.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let names: Vec<&str> = self.program.decls.iter().map(|d| d.name.as_str()).collect();
        for (si, stratum) in self.strat.strata.iter().enumerate() {
            let rels: Vec<&str> = stratum.relations.iter().map(|&r| names[r]).collect();
            let _ = writeln!(
                out,
                "stratum {si} ({}): defines {}",
                if stratum.recursive {
                    "recursive"
                } else {
                    "non-recursive"
                },
                rels.join(", ")
            );
            // What a run would start the stratum's unrun rules from, planned
            // the way `eval_stratum` does: base versions, then recursive.
            let unrun = stratum.rules.iter().copied();
            let unrun = unrun.filter(|&ri| self.executed[ri].is_empty());
            let deltas = self.whole_deltas(stratum);
            let base = self.versions_of(stratum, unrun.clone(), false, &deltas);
            let rec = self.versions_of(stratum, unrun, true, &deltas);
            for &ri in &stratum.rules {
                let _ = writeln!(out, "  rule {ri}: {}", self.program.rules[ri]);
                let ran = self.executed[ri].iter().chain(&base).chain(&rec);
                for (vi, v) in ran.filter(|v| v.rule_idx == ri).enumerate() {
                    let _ = writeln!(out, "    version {vi}: {}", v.plan.describe(&names));
                    if v.order != source_order(v.rule.body.len(), v.delta_pos) {
                        let _ = writeln!(out, "      cardinalities: {}", v.describe_cards());
                    }
                }
            }
        }
        if !self.retraction.is_empty() {
            out.push_str("retraction:\n");
            let dels: Vec<String> = (0..names.len()).map(|r| self.del_name(r)).collect();
            let names: Vec<&str> = names
                .iter()
                .copied()
                .chain(dels.iter().map(String::as_str))
                .collect();
            for (phase, v) in &self.retraction {
                let _ = writeln!(
                    out,
                    "  {phase}, rule {}: {}",
                    v.rule_idx,
                    v.plan.describe(&names)
                );
                if !v.cards.is_empty() {
                    let _ = writeln!(out, "    cardinalities: {}", v.describe_cards());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const TC: &str = r#"
        .decl edge(x: number, y: number)
        .decl path(x: number, y: number)
        .output path
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
    "#;

    /// Evaluates `src` with `facts`, retracts `gone`, and checks the
    /// database equals a from-scratch evaluation without `gone`.
    fn check_equiv(src: &str, facts: &[(&str, Vec<u64>)], gone: &[(&str, Vec<u64>)]) {
        let program = parse(src).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
        for (r, t) in facts {
            eng.add_fact(r, t).unwrap();
        }
        eng.run().unwrap();
        eng.retract_facts(
            gone.iter()
                .map(|(r, t)| (r.to_string(), t.clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();

        let mut oracle = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
        for (r, t) in facts {
            if !gone.contains(&(*r, t.clone())) {
                oracle.add_fact(r, t).unwrap();
            }
        }
        oracle.run().unwrap();

        for decl in &parse(src).unwrap().decls {
            assert_eq!(
                eng.relation(&decl.name).unwrap(),
                oracle.relation(&decl.name).unwrap(),
                "relation {} diverged after retraction",
                decl.name
            );
        }
    }

    #[test]
    fn retract_chain_edge_cuts_reachability() {
        let facts: Vec<(&str, Vec<u64>)> = (1..6).map(|i| ("edge", vec![i, i + 1])).collect();
        check_equiv(TC, &facts, &[("edge", vec![3, 4])]);
    }

    #[test]
    fn retract_keeps_multi_derivation_paths() {
        // Diamond: 1→2→4 and 1→3→4; removing one branch keeps path(1,4).
        // The chain beside it keeps the four overdeleted paths under the
        // share of `path` at which the stratum would be recomputed instead.
        let mut facts: Vec<(&str, Vec<u64>)> = vec![
            ("edge", vec![1, 2]),
            ("edge", vec![2, 4]),
            ("edge", vec![1, 3]),
            ("edge", vec![3, 4]),
            ("edge", vec![4, 5]),
        ];
        facts.extend((10..16).map(|i| ("edge", vec![i, i + 1])));
        let program = parse(TC).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
        for (r, t) in &facts {
            eng.add_fact(r, t).unwrap();
        }
        eng.run().unwrap();
        let out = eng.retract_fact("edge", &[2, 4]).unwrap();
        assert!(out.rederived > 0, "path(1,4) must be rederived via 1→3→4");
        assert!(eng.query("path", &[1, 4]).unwrap().contains(&vec![1, 4]));
        check_equiv(TC, &facts, &[("edge", vec![2, 4])]);
    }

    #[test]
    fn retract_batch_multiple_edges() {
        let facts: Vec<(&str, Vec<u64>)> = (1..10).map(|i| ("edge", vec![i, i + 1])).collect();
        check_equiv(TC, &facts, &[("edge", vec![2, 3]), ("edge", vec![7, 8])]);
    }

    #[test]
    fn retract_through_negation_recomputes_later_strata() {
        let src = r#"
            .decl edge(x: number, y: number)
            .decl node(x: number)
            .decl path(x: number, y: number)
            .decl unreach(x: number, y: number)
            .output unreach
            path(x, y) :- edge(x, y).
            path(x, z) :- path(x, y), edge(y, z).
            unreach(x, y) :- node(x), node(y), !path(x, y).
        "#;
        let mut facts: Vec<(&str, Vec<u64>)> = (1..5).map(|i| ("node", vec![i])).collect();
        facts.extend((1..4).map(|i| ("edge", vec![i, i + 1])));
        let program = parse(src).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
        for (r, t) in &facts {
            eng.add_fact(r, t).unwrap();
        }
        eng.run().unwrap();
        let out = eng.retract_fact("edge", &[2, 3]).unwrap();
        assert!(out.recomputed_strata > 0, "negation stratum must recompute");
        // Losing edge(2,3) makes 2↛3, 2↛4, 1↛3, 1↛4 newly unreachable: the
        // database can grow net.
        assert!(eng.query("unreach", &[2, 3]).unwrap().contains(&vec![2, 3]));
        check_equiv(src, &facts, &[("edge", vec![2, 3])]);
    }

    #[test]
    fn retract_unknown_fact_is_noop_and_unknown_relation_errors() {
        let program = parse(TC).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
        eng.add_fact("edge", &[1, 2]).unwrap();
        eng.run().unwrap();
        let out = eng.retract_fact("edge", &[8, 9]).unwrap();
        assert_eq!(out.retracted_inputs, 0);
        assert_eq!(out.net_removed, 0);
        assert!(matches!(
            eng.retract_fact("ghost", &[1]),
            Err(EngineError::UnknownRelation(_))
        ));
        assert!(matches!(
            eng.retract_fact("edge", &[1]),
            Err(EngineError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn failed_batch_retracts_nothing() {
        // A bad entry in the middle of a batch fails the call before the
        // first fact leaves the EDB; the valid part can then be retried.
        let facts: Vec<(&str, Vec<u64>)> = (1..6).map(|i| ("edge", vec![i, i + 1])).collect();
        let program = parse(TC).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
        for (r, t) in &facts {
            eng.add_fact(r, t).unwrap();
        }
        eng.run().unwrap();
        let (edges, paths) = (eng.relation("edge").unwrap(), eng.relation("path").unwrap());
        for bad in [("nope", vec![1]), ("edge", vec![1])] {
            let batch = [("edge", vec![1, 2]), bad, ("edge", vec![3, 4])];
            let batch = batch.map(|(r, t)| (r.to_string(), t));
            assert!(eng.retract_facts(batch).is_err());
            assert_eq!(eng.edb_len("edge").unwrap(), edges.len());
            assert_eq!(eng.relation("edge").unwrap(), edges);
            assert_eq!(eng.relation("path").unwrap(), paths);
        }
        let gone = [("edge", vec![1, 2]), ("edge", vec![3, 4])];
        let out = eng
            .retract_facts(gone.clone().map(|(r, t)| (r.to_string(), t)))
            .unwrap();
        assert_eq!(out.retracted_inputs, 2);
        check_equiv(TC, &facts, &gone);
    }

    #[test]
    fn retract_then_reassert_round_trips() {
        let program = parse(TC).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
        for i in 1..6 {
            eng.add_fact("edge", &[i, i + 1]).unwrap();
        }
        eng.run().unwrap();
        let before = eng.relation("path").unwrap();
        eng.retract_fact("edge", &[3, 4]).unwrap();
        eng.add_fact("edge", &[3, 4]).unwrap();
        eng.run().unwrap();
        assert_eq!(eng.relation("path").unwrap(), before);
    }

    #[test]
    fn retract_edb_fact_that_is_also_derivable() {
        // path(1,3) asserted directly AND derivable from edges; retracting
        // the assertion must keep the derived tuple.
        let facts: Vec<(&str, Vec<u64>)> = vec![
            ("edge", vec![1, 2]),
            ("edge", vec![2, 3]),
            ("path", vec![1, 3]),
        ];
        check_equiv(TC, &facts, &[("path", vec![1, 3])]);
    }

    #[test]
    fn retract_before_any_run_just_removes_input() {
        let program = parse(TC).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
        eng.add_fact("edge", &[1, 2]).unwrap();
        eng.add_fact("edge", &[2, 3]).unwrap();
        let out = eng.retract_fact("edge", &[1, 2]).unwrap();
        assert_eq!(out.retracted_inputs, 1);
        assert_eq!(eng.relation_len("edge").unwrap(), 1);
        assert_eq!(eng.edb_len("edge").unwrap(), 1);
        eng.run().unwrap();
        assert_eq!(eng.relation_len("path").unwrap(), 1);
    }

    #[test]
    fn retract_stats_and_json_fields() {
        let program = parse(TC).unwrap();
        let mut eng = Engine::new(&program, StorageKind::SpecBTree, 2).unwrap();
        for i in 1..6 {
            eng.add_fact("edge", &[i, i + 1]).unwrap();
        }
        eng.run().unwrap();
        let out = eng.retract_fact("edge", &[3, 4]).unwrap();
        assert!(out.overdeleted > 0 && out.net_removed > 0);
        let s = eng.stats();
        assert_eq!(s.retracted_inputs, 1);
        assert!(s.overdeleted_tuples >= out.overdeleted);
        assert!(s.removes > 0);
        let js = s.to_json();
        for key in [
            "\"removes\"",
            "\"retracted_inputs\"",
            "\"overdeleted_tuples\"",
            "\"rederived_tuples\"",
        ] {
            assert!(js.contains(key), "missing {key} in {js}");
        }
    }

    #[test]
    fn retract_on_every_storage_kind() {
        let facts: Vec<(&str, Vec<u64>)> = (1..8).map(|i| ("edge", vec![i, i + 1])).collect();
        let program = parse(TC).unwrap();
        for kind in StorageKind::ALL {
            let mut eng = Engine::new(&program, kind, 2).unwrap();
            for (r, t) in &facts {
                eng.add_fact(r, t).unwrap();
            }
            eng.run().unwrap();
            eng.retract_fact("edge", &[4, 5]).unwrap();
            let mut oracle = Engine::new(&program, kind, 2).unwrap();
            for (r, t) in &facts {
                if *t != vec![4, 5] {
                    oracle.add_fact(r, t).unwrap();
                }
            }
            oracle.run().unwrap();
            assert_eq!(
                eng.relation("path").unwrap(),
                oracle.relation("path").unwrap(),
                "kind {kind:?} diverged"
            );
        }
    }
}
