//! Delete–rederive (DRed): [`Engine::retract_facts`] and its four phases —
//! `overdelete`, `delete`, `rederive`, `negation_fallback` — over one
//! per-call [`Retraction`].

use super::{Engine, EngineError, RetractOutcome};
use crate::ast::{Atom, Literal, Rule, Term};
use crate::eval::{
    compile_one, compile_one_at, eval_plan, fill, has_unprefixed_inner_scan, plan_delta_rel,
    side_table, Plan, SideTables, StorageEnv, WorkerCtxs, WorkerStats,
};
use crate::planner::{self, CostModel};
use crate::storage::{RelationStorage, TupleBuf};
use crate::strat::Stratum;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Deletions the rederivation seed pass tries deletion-first before it
/// first weighs the body-first sweep; each further batch is four times the
/// last.
const SEED_BATCH: usize = 256;

/// Withdrawn facts per relation: what the deletion sets start from.
type Seeds = HashMap<usize, Vec<TupleBuf>>;

/// The state of one `retract_facts` call, handed from phase to phase.
struct Retraction {
    strata: Vec<Stratum>,
    /// The first stratum with a rule negating a shrinking relation: it and
    /// every later one are recomputed (`strata.len()` when there is none).
    fallback_from: usize,
    /// The shrinking relations delete–rederive repairs — those in no
    /// stratum (pure EDB) or in one before `fallback_from` — ascending.
    dirty: Vec<usize>,
    /// Relation ids extended by the pseudo relations `~del~r` at
    /// `nrels + r`, the deletion set of relation `r` (`~` is outside the
    /// parser's grammar, so the names cannot collide with user relations).
    ext_ids: HashMap<String, usize>,
    /// Everything overdeleted, per dirty relation.
    del_acc: SideTables,
    /// Stands in for the deletion set of a relation that has none; no plan
    /// reads one.
    empty: Box<dyn RelationStorage>,
    /// The counts the retraction found, which every synthetic rule is
    /// costed with (see [`Engine::plan_synthetic`]).
    cards: Vec<f64>,
    pools: Vec<WorkerCtxs>,
    wstats: Vec<WorkerStats>,
    next_plan_id: usize,
    outcome: RetractOutcome,
}

/// How one rule re-proves the deleted tuples of its head in the seed pass.
/// Neither join shape dominates, so execution starts deletion-first in
/// growing batches and switches to body-first when the projected total
/// overtakes the sweep estimate.
struct SeedJob {
    head_rel: usize,
    /// Deletion-first — `h(args) :- Δ⁻h(args), b1, …, bn` — at a cost of
    /// |Δ⁻| × join fanout.
    del_plan: Plan,
    /// Body-first — `h(args) :- b1, …, bn, Δ⁻h(args)` — one parallel sweep
    /// of the surviving body regardless of |Δ⁻|, and the size of its outer
    /// relation.
    alt_plan: Option<Plan>,
    alt_outer: u64,
    /// Support filter `(relation, [(body column, head column), …])`: a
    /// deleted tuple can only come back via this rule if, for every head
    /// variable shared with the literal, its value occurs in that column
    /// of the relation. Projecting the relation and filtering Δ⁻ against it
    /// prunes unrederivable tuples for one small scan (Gupta–Mumick-style
    /// rederivation pruning).
    filter: Option<(usize, Vec<(usize, usize)>)>,
}

/// `rule` with its head over relation `head` and one more positive literal,
/// the head's terms over relation `lit`, in front of or behind its body.
fn with_head_literal(rule: &Rule, head: &str, lit: &str, in_front: bool) -> Rule {
    let atom = |relation: &str| Atom {
        relation: relation.to_string(),
        terms: rule.head.terms.clone(),
    };
    let mut syn = Rule {
        head: atom(head),
        ..rule.clone()
    };
    let (atom, negated) = (atom(lit), false);
    let at = if in_front { 0 } else { syn.body.len() };
    syn.body.insert(at, Literal { atom, negated });
    syn
}

impl Engine {
    /// Withdraws one EDB fact — see [`retract_facts`](Self::retract_facts).
    pub fn retract_fact(
        &mut self,
        relation: &str,
        tuple: &[u64],
    ) -> Result<RetractOutcome, EngineError> {
        self.retract_facts([(relation.to_string(), tuple.to_vec())])
    }

    /// Withdraws a batch of EDB facts and incrementally repairs every
    /// derived relation (delete–rederive, DRed):
    ///
    /// 1. **Overdelete.** Before anything is physically removed, deletion
    ///    sets grow to a fixpoint: for every rule `h :- b1, …, bn` and
    ///    every positive `bi` over a shrinking relation, the tuples of `h`
    ///    derivable with `bi` drawn from the deletion delta (and the other
    ///    literals from the *old* database) join `h`'s deletion set. This
    ///    runs as ordinary semi-naive evaluation over synthetic rules whose
    ///    heads are pseudo relations (id `nrels + r`) backed by the
    ///    deletion accumulators.
    /// 2. **Delete.** Each accumulator is bulk-retracted from its relation
    ///    via [`RelationStorage::retract_from`] (structure-aware and
    ///    parallel on the specialized B-tree).
    /// 3. **Rederive.** Stratum by stratum: overdeleted EDB facts that
    ///    were not themselves retracted are reinserted, then every rule
    ///    with an overdeleted head is replayed as `h :- Δ⁻h, b1, …, bn` to
    ///    re-prove deleted tuples from what survived, iterated semi-naively
    ///    within the stratum.
    /// 4. **Negation fallback.** DRed's overdelete/rederive split is
    ///    unsound through negation (losing a tuple can *create*
    ///    derivations), so the first stratum negating a shrinking relation
    ///    — and everything after it — is recomputed from scratch from the
    ///    surviving EDB.
    ///
    /// Facts that were never asserted are skipped, not errors; unknown
    /// relations and arity mismatches are errors, and a batch holding one
    /// withdraws nothing. The database afterwards is identical to
    /// evaluating the program without the withdrawn facts from scratch.
    pub fn retract_facts(
        &mut self,
        facts: impl IntoIterator<Item = (String, Vec<u64>)>,
    ) -> Result<RetractOutcome, EngineError> {
        let mut batch = Vec::new();
        for (name, tuple) in facts {
            let rel = self.rel_id(&name)?;
            batch.push((rel, self.padded(rel, &tuple)?));
        }
        let size_before: i64 = self.counts.iter().map(|&n| n as i64).sum();
        let mut seeds = Seeds::new();
        for (rel, t) in batch {
            if self.edb[rel].remove(&t) {
                seeds.entry(rel).or_default().push(t);
            }
        }
        if seeds.is_empty() {
            return Ok(RetractOutcome::default());
        }
        let mut cx = self.begin_retraction(&seeds);
        cx.outcome.retracted_inputs = seeds.values().map(|ts| ts.len() as u64).sum();
        self.stats.retracted_inputs += cx.outcome.retracted_inputs;

        // Planning the overdeletion rules builds the indexes they are the
        // first to need; that is not time spent overdeleting.
        let plans = self.overdelete_plans(&mut cx);
        let n = cx.dirty.len() as u64;
        cx.outcome.overdelete_seconds = self.phase(&mut cx, "dred.overdelete", n, |e, cx| {
            e.overdelete(cx, &plans, &seeds)
        });
        let n = cx.outcome.overdeleted;
        cx.outcome.delete_seconds = self.phase(&mut cx, "dred.delete", n, Self::delete);
        cx.outcome.rederive_seconds = self.phase(&mut cx, "dred.rederive", 0, Self::rederive);
        let n = (cx.strata.len() - cx.fallback_from) as u64;
        cx.outcome.fallback_seconds =
            self.phase(&mut cx, "dred.fallback", n, Self::negation_fallback);

        self.stats.overdeleted_tuples += cx.outcome.overdeleted;
        self.stats.rederived_tuples += cx.outcome.rederived;
        self.absorb_worker_stats(&cx.wstats);
        let size_after: i64 = self.counts.iter().map(|&n| n as i64).sum();
        cx.outcome.net_removed = size_before - size_after;
        debug_assert!(self.counts_are_exact());
        Ok(cx.outcome)
    }

    /// Runs one phase inside its span, returning its wall-clock seconds.
    fn phase(
        &mut self,
        cx: &mut Retraction,
        span: &'static str,
        arg: u64,
        run: impl FnOnce(&mut Self, &mut Retraction),
    ) -> f64 {
        let t0 = Instant::now();
        let _span = telemetry::span(span, arg);
        run(self, cx);
        t0.elapsed().as_secs_f64()
    }

    /// Works out what withdrawing `seeds` dirties and where delete–rederive
    /// hands over to recomputation, and sets up the call's tables.
    fn begin_retraction(&self, seeds: &Seeds) -> Retraction {
        let nrels = self.rels.len();
        let rel_ids = &self.strat.rel_ids;
        let strata = self.strat.strata.clone();
        let touches = |rule: &Rule, negated: bool, dirty: &HashSet<usize>| {
            let lits = rule.body.iter().filter(|l| l.negated == negated);
            lits.map(|l| rel_ids[&l.atom.relation])
                .any(|r| dirty.contains(&r))
        };

        // Dirty-relation fixpoint in stratum order. The first stratum with
        // a rule negating an already-dirty relation becomes the fallback
        // point: it and everything after it are recomputed, so dirtiness
        // past it is irrelevant (negated relations always live in strictly
        // earlier strata, hence their dirtiness is settled here).
        let mut dirty: HashSet<usize> = seeds.keys().copied().collect();
        let mut fallback_from = strata.len();
        for (si, stratum) in strata.iter().enumerate() {
            let rules = || stratum.rules.iter().map(|&ri| &self.program.rules[ri]);
            if rules().any(|rule| touches(rule, true, &dirty)) {
                fallback_from = si;
                break;
            }
            loop {
                let mut changed = false;
                for rule in rules() {
                    if touches(rule, false, &dirty) {
                        changed |= dirty.insert(rel_ids[&rule.head.relation]);
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Relations of the recomputed strata are repaired by the recompute.
        let recomputed: HashSet<usize> = strata[fallback_from..]
            .iter()
            .flat_map(|st| st.relations.iter().copied())
            .collect();
        dirty.retain(|r| !recomputed.contains(r));
        let mut dirty: Vec<usize> = dirty.into_iter().collect();
        dirty.sort_unstable();

        let mut ext_ids = rel_ids.clone();
        for &r in &dirty {
            ext_ids.insert(self.del_name(r), nrels + r);
        }
        Retraction {
            fallback_from,
            del_acc: self.side_tables(&dirty, 0),
            dirty,
            strata,
            ext_ids,
            empty: self.kind.create(),
            cards: self.counts.iter().map(|&n| n as f64).collect(),
            pools: (0..self.threads).map(|_| WorkerCtxs::default()).collect(),
            wstats: vec![WorkerStats::default(); self.threads],
            next_plan_id: 0,
            outcome: RetractOutcome::default(),
        }
    }

    /// Plans one synthetic retraction rule. With the planner on the
    /// literals are cost-ordered from `cx.cards` — the counts the retraction
    /// found, which rederivation largely restores; the counts in between,
    /// after the overdeleted tuples are gone, say little about what the
    /// rederivation joins will meet — with deletion sets costed at 1, and
    /// every scan the primary tree cannot serve gets an index: the deletion
    /// sets' sizes are only known once the fixpoint they drive has ended,
    /// and the index outlives the call. When hoisting the delta
    /// still strands a scan without a bound prefix (planner off, or a
    /// backend without indexes), the source-order version — which probes
    /// the delta where it sits and sweeps the stranded relation once,
    /// chunked across workers — is used if it strands none.
    fn plan_synthetic(
        &mut self,
        cx: &mut Retraction,
        rule: &Rule,
        delta_pos: Option<usize>,
    ) -> Plan {
        let ids = &cx.ext_ids;
        let mut plan = if self.planner_enabled {
            let model = CostModel {
                cards: &cx.cards,
                deltas: &[],
                horizon: f64::INFINITY,
                can_index: self.kind.supports_indexes(),
            };
            let before = self.catalog.len();
            let plan = planner::plan_rule(rule, ids, delta_pos, &model, &mut self.catalog);
            self.build_new_indexes(before);
            plan
        } else {
            compile_one(rule, ids, delta_pos)
        };
        if delta_pos.is_some() && has_unprefixed_inner_scan(&plan) {
            let catalog = self.planner_enabled.then_some(&self.catalog);
            let flat = compile_one_at(rule, ids, delta_pos, false, catalog);
            if !has_unprefixed_inner_scan(&flat) {
                plan = flat;
            }
        }
        plan.id = cx.next_plan_id;
        cx.next_plan_id += 1;
        plan
    }

    /// The name of the pseudo relation holding relation `r`'s deletion set.
    fn del_name(&self, r: usize) -> String {
        format!("~del~{}", self.program.decls[r].name)
    }

    /// Evaluates retraction `plans` over the relations extended by the
    /// deletion sets (`0..nrels` the real relations, `nrels..2*nrels` the
    /// accumulators), reading `delta` and deriving into `new`. A plan whose
    /// delta is empty this round derives nothing and is skipped, which
    /// matters for the source-order versions, whose outer scan is a full
    /// relation. `DATALOG_RETRACT_TRACE` prints one timing line per plan —
    /// retraction plans are synthesized on the fly, so they are invisible
    /// to `explain`/`profile`.
    fn eval_retraction<'p>(
        &self,
        cx: &mut Retraction,
        phase: &str,
        plans: impl IntoIterator<Item = &'p Plan>,
        delta: &SideTables,
        new: &SideTables,
    ) {
        let empty = cx.empty.as_ref();
        let accs = cx.del_acc.iter().map(|acc| acc.as_deref().unwrap_or(empty));
        let full: Vec<&dyn RelationStorage> =
            self.rels.iter().map(|b| b.as_ref()).chain(accs).collect();
        let env = StorageEnv {
            full: &full,
            delta,
            new,
        };
        for plan in plans {
            let idle = plan_delta_rel(plan)
                .is_some_and(|r| delta[r].as_ref().is_none_or(|s| s.is_empty()));
            if idle {
                continue;
            }
            let t0 = Instant::now();
            eval_plan(plan, &env, &mut cx.pools, &mut cx.wstats);
            if std::env::var_os("DATALOG_RETRACT_TRACE").is_some() {
                eprintln!(
                    "{phase} plan {} ({:?} outer): {:.1}ms",
                    plan.id,
                    plan.steps.first(),
                    t0.elapsed().as_secs_f64() * 1e3
                );
            }
        }
    }

    /// Compiles the overdeletion rules `Δ⁻h(args) :- b1, …, bn, h(args)`,
    /// one plan version per dirty positive body literal (which reads the
    /// deletion delta). The appended head literal restricts derivations to
    /// tuples actually present and is never a delta candidate. The first
    /// retraction that plans a reverse join builds its index here
    /// ([`plan_synthetic`](Self::plan_synthetic)); the one-time backfill
    /// replaces a full relation scan per overdelete round.
    fn overdelete_plans(&mut self, cx: &mut Retraction) -> Vec<Plan> {
        let mut plans = Vec::new();
        for si in 0..cx.fallback_from {
            for ri in cx.strata[si].rules.clone() {
                let rule = self.program.rules[ri].clone();
                let head = &rule.head.relation;
                let head_rel = self.strat.rel_ids[head];
                if cx.dirty.binary_search(&head_rel).is_err() {
                    continue; // a clean head has no dirty body literal
                }
                let syn = with_head_literal(&rule, &self.del_name(head_rel), head, false);
                for (p, lit) in rule.body.iter().enumerate() {
                    let rel = self.strat.rel_ids[&lit.atom.relation];
                    if !lit.negated && cx.dirty.binary_search(&rel).is_ok() {
                        plans.push(self.plan_synthetic(cx, &syn, Some(p)));
                    }
                }
            }
        }
        plans
    }

    /// Phase 1 — overdelete to fixpoint from the withdrawn facts. Nothing
    /// is physically removed yet, so non-delta positions still read the old
    /// database. A seed of a relation the fallback recomputes has no
    /// deletion set: its fact is already out of `edb`, which is all the
    /// recompute reads.
    fn overdelete(&mut self, cx: &mut Retraction, plans: &[Plan], seeds: &Seeds) {
        let nrels = self.rels.len();
        let mut round = self.side_tables(&cx.dirty, 0);
        for &r in &cx.dirty {
            if let Some(ts) = seeds.get(&r) {
                cx.outcome.overdeleted += fill(side_table(&cx.del_acc, r), ts, self.threads);
                fill(side_table(&round, r), ts, self.threads);
            }
        }
        while !plans.is_empty() {
            let mut new = self.side_tables(&cx.dirty, nrels);
            self.eval_retraction(cx, "overdelete", plans, &round, &new);
            let mut grew = false;
            for &r in &cx.dirty {
                let newly = new[nrels + r].take().expect("allocated above");
                let added = side_table(&cx.del_acc, r).merge_from(newly.as_ref(), self.threads);
                cx.outcome.overdeleted += added;
                grew |= added > 0;
                round[r] = Some(newly);
            }
            if !grew {
                break;
            }
        }
    }

    /// Phase 2 — physically remove every overdeleted tuple (one remove
    /// each).
    fn delete(&mut self, cx: &mut Retraction) {
        for &r in &cx.dirty {
            let acc = side_table(&cx.del_acc, r);
            if !acc.is_empty() {
                let gone = self.rels[r].retract_from(acc, self.threads);
                self.counts[r] -= gone as usize;
            }
        }
        self.stats.removes += cx.outcome.overdeleted;
    }

    /// Phase 3 — rederive, stratum by stratum: put back what the EDB still
    /// asserts, re-prove deletions rule by rule from the repaired database
    /// (the seed pass), then iterate semi-naively on what came back.
    fn rederive(&mut self, cx: &mut Retraction) {
        for si in 0..cx.fallback_from {
            let stratum = cx.strata[si].clone();
            let overdeleted = |&r: &usize| cx.del_acc[r].as_ref().is_some_and(|a| !a.is_empty());
            let ds: Vec<usize> = stratum
                .relations
                .iter()
                .copied()
                .filter(overdeleted)
                .collect();
            if ds.is_empty() {
                continue;
            }

            // Overdeleted EDB facts that were not retracted survive by
            // definition; putting them back seeds the rederivation delta.
            // The full deletion sets are materialized on the side for the
            // seed pass's batching.
            let mut round = self.side_tables(&ds, 0);
            let mut del_tuples: HashMap<usize, Vec<TupleBuf>> = HashMap::new();
            for &r in &ds {
                let (mut all, mut keep) = (Vec::new(), Vec::new());
                let edb = &self.edb[r];
                side_table(&cx.del_acc, r).for_each(&mut |t| {
                    all.push(*t);
                    if edb.contains(t) {
                        keep.push(*t);
                    }
                });
                if !keep.is_empty() {
                    self.counts[r] += fill(self.rels[r].as_ref(), &keep, self.threads) as usize;
                    fill(side_table(&round, r), &keep, self.threads);
                    self.stats.inserts += keep.len() as u64;
                    cx.outcome.rederived += keep.len() as u64;
                }
                del_tuples.insert(r, all);
            }

            let (jobs, delta_plans) = self.seed_jobs(cx, &stratum, &ds, &del_tuples);
            self.seed_pass(cx, &ds, &jobs, &del_tuples, &round);

            // Semi-naive rounds: rederived tuples may re-prove more.
            let unfinished = |round: &SideTables| round.iter().flatten().any(|s| !s.is_empty());
            while !delta_plans.is_empty() && unfinished(&round) {
                let new = self.side_tables(&ds, 0);
                self.eval_retraction(cx, "rederive-round", &delta_plans, &round, &new);
                let mut grew = false;
                for (_, added) in self.merge_stratum(&new) {
                    cx.outcome.rederived += added;
                    grew |= added > 0;
                }
                round = new;
                if !grew {
                    break;
                }
            }
        }
    }

    /// One [`SeedJob`] per rule of `stratum` whose head rederives here, and
    /// the delta versions `h :- Δ⁻h, b1, …, Δbi, …, bn` the semi-naive
    /// follow-up rounds run (planned like the overdeletion rules).
    fn seed_jobs(
        &mut self,
        cx: &mut Retraction,
        stratum: &Stratum,
        ds: &[usize],
        del_tuples: &HashMap<usize, Vec<TupleBuf>>,
    ) -> (Vec<SeedJob>, Vec<Plan>) {
        let (mut jobs, mut delta_plans) = (Vec::new(), Vec::new());
        for &ri in &stratum.rules {
            let rule = self.program.rules[ri].clone();
            let head_rel = self.strat.rel_ids[&rule.head.relation];
            if !ds.contains(&head_rel) {
                continue;
            }
            let (head, del) = (&rule.head.relation, &self.del_name(head_rel));
            let syn = with_head_literal(&rule, head, del, true);
            let del_plan = self.plan_synthetic(cx, &syn, None);
            for (bi, lit) in syn.body.iter().enumerate().skip(1) {
                if !lit.negated && ds.contains(&cx.ext_ids[&lit.atom.relation]) {
                    delta_plans.push(self.plan_synthetic(cx, &syn, Some(bi)));
                }
            }
            // Head vars are body-bound (range restriction), so the
            // trailing Δ⁻ literal of the body-first plan is a pure check.
            // It is deliberately body-first — one sweep of the surviving
            // body is its whole point — so existing indexes apply, never
            // the cost order (which would put the small Δ⁻ literal back in
            // front).
            let (alt_plan, alt_outer) = match rule.body.first() {
                Some(first) if !first.negated => {
                    let syn = with_head_literal(&rule, head, del, false);
                    let catalog = self.planner_enabled.then_some(&self.catalog);
                    let mut plan = compile_one_at(&syn, &cx.ext_ids, None, true, catalog);
                    plan.id = cx.next_plan_id;
                    cx.next_plan_id += 1;
                    let outer = self.strat.rel_ids[&first.atom.relation];
                    (Some(plan), self.counts[outer] as u64)
                }
                _ => (None, u64::MAX),
            };
            jobs.push(SeedJob {
                head_rel,
                del_plan,
                alt_plan,
                alt_outer,
                filter: self.support_filter(&rule, del_tuples[&head_rel].len()),
            });
        }
        (jobs, delta_plans)
    }

    /// The support filter of `rule` over `deleted` head tuples: the
    /// smallest positive body literal sharing variables with the head,
    /// worth a projection scan only when clearly cheaper than the
    /// deletion-first join.
    fn support_filter(&self, rule: &Rule, deleted: usize) -> Option<(usize, Vec<(usize, usize)>)> {
        let head_column = |t: &Term| match t {
            Term::Var(v) => rule
                .head
                .terms
                .iter()
                .position(|h| matches!(h, Term::Var(hv) if hv == v)),
            _ => None,
        };
        let shared = |lit: &Literal| {
            let terms = lit.atom.terms.iter().enumerate();
            let pairs: Vec<(usize, usize)> = terms
                .filter_map(|(cl, t)| Some((cl, head_column(t)?)))
                .collect();
            (!pairs.is_empty()).then(|| (self.strat.rel_ids[&lit.atom.relation], pairs))
        };
        let positive = rule.body.iter().filter(|l| !l.negated);
        positive
            .filter_map(shared)
            .min_by_key(|(rel, _)| self.counts[*rel])
            .filter(|(rel, _)| self.counts[*rel] < deleted.saturating_mul(32))
    }

    /// Seed pass: re-proves the deletions of `ds` from the repaired
    /// database, one job at a time, and merges what came back into the
    /// relations and into `round`. Emission dedupes against the database
    /// and the side tables, so overlap between jobs (or between the batched
    /// prefix and a body-first sweep) is harmless.
    fn seed_pass(
        &mut self,
        cx: &mut Retraction,
        ds: &[usize],
        jobs: &[SeedJob],
        del_tuples: &HashMap<usize, Vec<TupleBuf>>,
        round: &SideTables,
    ) {
        let no_delta: SideTables = Vec::new();
        let new = self.side_tables(ds, 0);
        let mut projections: HashMap<(usize, usize), HashSet<u64>> = HashMap::new();
        for job in jobs {
            let r = job.head_rel;
            let mut dels = del_tuples[&r].clone();
            if let Some((frel, pairs)) = &job.filter {
                for &(cl, _) in pairs {
                    projections.entry((*frel, cl)).or_insert_with(|| {
                        let mut set = HashSet::new();
                        self.rels[*frel].for_each(&mut |t| {
                            set.insert(t[cl]);
                        });
                        set
                    });
                }
                let supported = |&(cl, ch): &(usize, usize), t: &TupleBuf| {
                    projections[&(*frel, cl)].contains(&t[ch])
                };
                dels.retain(|t| pairs.iter().all(|p| supported(p, t)));
            }

            // Deletion-first in geometrically growing batches; bail to the
            // body-first sweep once the projected total cost overtakes it.
            let scanned = |cx: &Retraction| cx.wstats.iter().map(|w| w.tuples_scanned).sum::<u64>();
            let scanned0 = scanned(cx);
            let mut idx = 0usize;
            let mut batch = match job.alt_plan {
                Some(_) => SEED_BATCH,
                None => dels.len(),
            };
            while idx < dels.len() {
                let end = (idx + batch).min(dels.len());
                let part = self.table_for(r);
                fill(part.as_ref(), &dels[idx..end], self.threads);
                let saved = cx.del_acc[r].replace(part);
                self.eval_retraction(cx, "rederive-seed", [&job.del_plan], &no_delta, &new);
                cx.del_acc[r] = saved;
                idx = end;
                batch = batch.saturating_mul(4);
                let projected = (scanned(cx) - scanned0) as f64 * dels.len() as f64 / idx as f64;
                if idx < dels.len() && projected > job.alt_outer as f64 {
                    self.eval_retraction(cx, "rederive-alt", &job.alt_plan, &no_delta, &new);
                    break;
                }
            }
        }
        for (r, added) in self.merge_stratum(&new) {
            cx.outcome.rederived += added;
            side_table(round, r).merge_from(side_table(&new, r), self.threads);
        }
    }

    /// Phase 4 — negation fallback: recompute the remaining strata from
    /// the surviving EDB.
    fn negation_fallback(&mut self, cx: &mut Retraction) {
        for stratum in &cx.strata[cx.fallback_from..] {
            for &r in &stratum.relations {
                self.rels[r] = self.table_for(r);
                let tuples: Vec<TupleBuf> = self.edb[r].iter().copied().collect();
                self.counts[r] = fill(self.rels[r].as_ref(), &tuples, self.threads) as usize;
                self.stats.inserts += tuples.len() as u64;
            }
            // The replacement storages lost their index trees; rebuild the
            // catalog's permutations (plans reference their ids) before the
            // recompute scans run.
            self.sync_indexes();
            self.eval_stratum(stratum, &mut cx.pools, &mut cx.wstats, &mut cx.next_plan_id);
            cx.outcome.recomputed_strata += 1;
        }
    }
}
