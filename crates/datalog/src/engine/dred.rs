//! Delete–rederive (DRed): [`Engine::retract_facts`] and its phases —
//! planning, `overdelete`, `delete`, `rederive`, `negation_fallback` — over
//! one per-call [`Retraction`].

use super::{Engine, EngineError, RetractOutcome};
use crate::ast::{Atom, Literal, Rule, Term};
use crate::eval::{
    compile_one_at, eval_plan, has_unprefixed_inner_scan, insert_tuples, plan_delta_rel,
    side_table, Plan, SideTables, StorageEnv, Worker,
};
use crate::planner::{self, CostModel, Version};
use crate::storage::{RelationStorage, TupleBuf};
use crate::strat::Stratum;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// A stratum is handed over to recomputation once `K` times its deletion
/// sets reach what recomputing from it would rebuild, i.e. at a quarter.
/// Measured (EXPERIMENTS.md, "Where delete–rederive stops paying"; one
/// thread, deletion sets costed at their sizes): repairing a stratum costs
/// what evaluating it does at 30 % overdeleted on a chain closure (no tuple
/// comes back) and at 19 % on a grid closure (nearly all do), 2.3–2.6× at
/// 50–55 %, 3.5× at 100 % (`pointsto`). At a quarter the work already sunk
/// is 0.7–0.9 of an evaluation, so handing over then costs at most about
/// twice the better of the two choices whatever the final share — measured
/// 1.4–2.0× an evaluation from 25 % to 100 % — where finishing has no bound.
const K: f64 = 4.0;

/// Withdrawn facts per relation: what the deletion sets start from.
type Seeds = HashMap<usize, Vec<TupleBuf>>;

/// The state of one `retract_facts` call, handed from phase to phase.
struct Retraction {
    strata: Vec<Stratum>,
    /// The first stratum recomputed instead of repaired, as is every later
    /// one (`strata.len()` when there is none): the first with a rule
    /// negating a shrinking relation, or an earlier one `overdelete` handed
    /// over.
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
    /// What every synthetic rule is costed with, over the extended ids: the
    /// relations at the counts the retraction found, which rederivation
    /// largely restores (the counts in between, after the overdeleted
    /// tuples are gone, say little about what the rederivation joins will
    /// meet), then the deletion sets at their live sizes.
    cards: Vec<f64>,
    workers: Vec<Worker>,
    /// Every synthetic version planned, with the phase that runs it (boxed,
    /// so that a retraction planning one rule allocates no kilobyte block).
    versions: Vec<(&'static str, Box<Version>)>,
    outcome: RetractOutcome,
}

impl Retraction {
    /// Counts `added` more tuples in the deletion set of relation `r`.
    fn overdeleted(&mut self, r: usize, added: u64) {
        let nrels = self.cards.len() / 2;
        self.cards[nrels + r] += added as f64;
        self.outcome.overdeleted += added;
    }
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
    ///    sets grow to a fixpoint, stratum by stratum: for every rule
    ///    `h :- b1, …, bn` and every positive `bi` over a shrinking
    ///    relation, the tuples of `h` derivable with `bi` drawn from the
    ///    deletion delta (and the other literals from the *old* database)
    ///    join `h`'s deletion set. This runs as ordinary semi-naive
    ///    evaluation over synthetic rules whose heads are pseudo relations
    ///    (id `nrels + r`) backed by the deletion accumulators. A stratum
    ///    whose deletion sets reach a quarter of what recomputing from it
    ///    would rebuild is not overdeleted further: step 4 takes it over.
    /// 2. **Delete.** Each accumulator is bulk-retracted from its relation
    ///    via [`RelationStorage::retract_from`] (structure-aware and
    ///    parallel on the specialized B-tree).
    /// 3. **Rederive.** Stratum by stratum: overdeleted EDB facts that
    ///    were not themselves retracted are reinserted, then every rule
    ///    with an overdeleted head is replayed as `h :- Δ⁻h, b1, …, bn` to
    ///    re-prove deleted tuples from what survived, iterated semi-naively
    ///    within the stratum.
    /// 4. **Fallback.** DRed's overdelete/rederive split is unsound through
    ///    negation (losing a tuple can *create* derivations) and dearer
    ///    than evaluation once most of a stratum is overdeleted, so the
    ///    first stratum negating a shrinking relation or handed over by
    ///    step 1 — and everything after it — is recomputed from scratch
    ///    from the surviving EDB.
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
        self.stats.retracted_inputs += cx.outcome.retracted_inputs;

        let (mut plans, n) = (Vec::new(), cx.dirty.len() as u64);
        cx.outcome.plan_seconds = self.phase(&mut cx, "dred.plan", n, |e, cx| {
            plans = e.overdelete_plans(cx);
        });
        cx.outcome.overdelete_seconds = self.phase(&mut cx, "dred.overdelete", n, |e, cx| {
            e.overdelete(cx, &plans)
        });
        let n = cx.outcome.overdeleted;
        cx.outcome.delete_seconds = self.phase(&mut cx, "dred.delete", n, Self::delete);
        cx.outcome.rederive_seconds = self.phase(&mut cx, "dred.rederive", 0, Self::rederive);
        let n = (cx.strata.len() - cx.fallback_from) as u64;
        cx.outcome.fallback_seconds =
            self.phase(&mut cx, "dred.fallback", n, Self::negation_fallback);

        self.stats.overdeleted_tuples += cx.outcome.overdeleted;
        self.stats.rederived_tuples += cx.outcome.rederived;
        cx.workers.iter().for_each(|w| self.stats.merge(&w.stats));
        self.retraction = cx.versions;
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
    /// hands over to recomputation, and sets up the call's tables, the
    /// deletion sets holding the seeds.
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
        let mut cards: Vec<f64> = self.counts.iter().map(|&n| n as f64).collect();
        cards.resize(2 * nrels, 0.0);
        let mut cx = Retraction {
            fallback_from,
            del_acc: self.side_tables(&dirty, 0),
            dirty,
            strata,
            ext_ids,
            empty: self.kind.create(),
            cards,
            workers: (0..self.threads).map(|_| Worker::default()).collect(),
            versions: Vec::new(),
            outcome: RetractOutcome::default(),
        };
        // A seed of a relation the fallback recomputes has no deletion set:
        // its fact is already out of `edb`, which is all the recompute
        // reads.
        for (&r, ts) in seeds {
            cx.outcome.retracted_inputs += ts.len() as u64;
            if cx.dirty.binary_search(&r).is_ok() {
                let added = insert_tuples(side_table(&cx.del_acc, r), ts);
                cx.overdeleted(r, added);
            }
        }
        cx
    }

    /// Plans one synthetic retraction rule — `rule`, made from rule `ri` —
    /// for `phase`, and keeps the version for [`explain`](Self::explain).
    /// With the planner on the literals are cost-ordered from `cx.cards`
    /// and the sizes of the `deltas` the plan will first read (`None`: the
    /// deletion sets themselves), and every scan the primary tree cannot
    /// serve gets an index, which outlives the call. When hoisting the
    /// delta still strands a scan without a bound prefix (planner off, or a
    /// backend without indexes), the source-order version — which probes
    /// the delta where it sits and sweeps the stranded relation once,
    /// chunked across workers — is used if it strands none.
    fn plan_synthetic(
        &mut self,
        cx: &mut Retraction,
        phase: &'static str,
        ri: usize,
        rule: &Rule,
        delta_pos: Option<usize>,
        deltas: Option<&[f64]>,
    ) -> Plan {
        let (ids, nrels) = (&cx.ext_ids, self.rels.len());
        let mut v = Version::new(ri, rule, ids, delta_pos);
        if self.planner_enabled {
            let model = CostModel {
                cards: &cx.cards,
                deltas: deltas.unwrap_or(&cx.cards[nrels..]),
                horizon: f64::INFINITY,
                can_index: self.kind.supports_indexes(),
            };
            let before = self.catalog.len();
            let batch = std::slice::from_mut(&mut v);
            planner::replan(batch, ids, &model, &mut self.catalog, 1);
            self.build_new_indexes(before);
        }
        if delta_pos.is_some() && has_unprefixed_inner_scan(&v.plan) {
            let catalog = self.planner_enabled.then_some(&self.catalog);
            let flat = compile_one_at(rule, ids, delta_pos, false, catalog);
            if !has_unprefixed_inner_scan(&flat) {
                v.plan = flat;
                v.order = (0..rule.body.len()).collect();
            }
        }
        let plan = v.plan.clone();
        cx.versions.push((phase, Box::new(v)));
        plan
    }

    /// The name of the pseudo relation holding relation `r`'s deletion set.
    pub(super) fn del_name(&self, r: usize) -> String {
        format!("~del~{}", self.program.decls[r].name)
    }

    /// Evaluates retraction `plans` over the relations extended by the
    /// deletion sets (`0..nrels` the real relations, `nrels..2*nrels` the
    /// accumulators), reading `delta` — `None`: the deletion sets themselves
    /// — and deriving into `new`. A plan whose delta is empty this round
    /// derives nothing and is skipped, which matters for the source-order
    /// versions, whose outer scan is a full relation.
    fn eval_retraction<'p>(
        &self,
        cx: &mut Retraction,
        plans: impl IntoIterator<Item = &'p Plan>,
        delta: Option<&SideTables>,
        new: &SideTables,
    ) {
        let delta = delta.unwrap_or(&cx.del_acc);
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
            if !idle {
                let _span = telemetry::span("eval.plan", plan.head_rel as u64);
                eval_plan(plan, &env, &mut cx.workers);
            }
        }
    }

    /// Compiles, per stratum, the overdeletion rules
    /// `Δ⁻h(args) :- b1, …, bn, h(args)`, one plan version per dirty positive
    /// body literal (which reads the deletion delta). The appended head
    /// literal restricts derivations to tuples actually present and is
    /// never a delta candidate. The first retraction that plans a reverse
    /// join builds its index here ([`plan_synthetic`](Self::plan_synthetic));
    /// the one-time backfill replaces a full relation scan per overdelete
    /// round.
    fn overdelete_plans(&mut self, cx: &mut Retraction) -> Vec<Vec<Plan>> {
        let mut plans = vec![Vec::new(); cx.fallback_from];
        for (si, plans) in plans.iter_mut().enumerate() {
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
                        plans.push(self.plan_synthetic(cx, "overdelete", ri, &syn, Some(p), None));
                    }
                }
            }
        }
        plans
    }

    /// Phase 1 — overdelete, stratum by stratum (a stratum's deletions
    /// depend only on earlier strata and itself), each to fixpoint: the
    /// first round reads the deletion sets themselves as its delta, every
    /// later one what the round before added. Nothing is physically removed
    /// yet, so non-delta positions still read the old database.
    ///
    /// Before every round the stratum's deletion sets are weighed against
    /// what recomputing from it would rebuild — the exact counts of its
    /// relations and every later stratum's. Once [`K`] times the former
    /// reach the latter, delete–rederive ends here: the stratum becomes
    /// `fallback_from`, and its relations and those after it leave `dirty`.
    fn overdelete(&mut self, cx: &mut Retraction, plans: &[Vec<Plan>]) {
        let nrels = self.rels.len();
        for (si, plans) in plans.iter().enumerate() {
            let mut rels = cx.strata[si].relations.clone();
            rels.retain(|r| cx.dirty.binary_search(r).is_ok());
            if rels.is_empty() {
                continue;
            }
            let later = cx.strata[si..].iter().flat_map(|st| &st.relations);
            let recomputed: Vec<usize> = later.copied().collect();
            let rebuilt: usize = recomputed.iter().map(|&r| self.counts[r]).sum();
            let mut round: Option<SideTables> = None;
            loop {
                let deleted: f64 = rels.iter().map(|&r| cx.cards[nrels + r]).sum();
                if deleted > 0.0 && K * deleted >= rebuilt as f64 {
                    cx.fallback_from = si;
                    cx.dirty.retain(|r| !recomputed.contains(r));
                    recomputed.iter().for_each(|&r| cx.del_acc[r] = None);
                    return;
                }
                if plans.is_empty() {
                    break;
                }
                let mut new = self.side_tables(&rels, nrels);
                self.eval_retraction(cx, plans, round.as_ref(), &new);
                let (mut next, mut grew) = (self.side_tables(&[], 0), false);
                for &r in &rels {
                    let newly = new[nrels + r].take().expect("allocated above");
                    let added = side_table(&cx.del_acc, r).merge_from(newly.as_ref(), self.threads);
                    cx.overdeleted(r, added);
                    grew |= added > 0;
                    next[r] = Some(newly);
                }
                if !grew {
                    break;
                }
                round = Some(next);
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
                self.stats.removes += cx.cards[self.rels.len() + r] as u64;
            }
        }
    }

    /// Phase 3 — rederive, stratum by stratum: put back what the EDB still
    /// asserts, re-prove deletions rule by rule from the repaired database
    /// (the seed pass), then iterate semi-naively on what came back.
    fn rederive(&mut self, cx: &mut Retraction) {
        let nrels = self.rels.len();
        for si in 0..cx.fallback_from {
            let stratum = cx.strata[si].clone();
            let mut ds = stratum.relations.clone();
            ds.retain(|&r| cx.cards[nrels + r] > 0.0);
            if ds.is_empty() {
                continue;
            }

            // Overdeleted EDB facts that were not retracted survive by
            // definition; putting them back seeds the rederivation delta,
            // whose size per relation `back` keeps. The full deletion sets
            // are materialized on the side for the support filters.
            let mut round = self.side_tables(&ds, 0);
            let mut back = vec![0.0; nrels];
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
                    self.counts[r] += insert_tuples(self.rels[r].as_ref(), &keep) as usize;
                    insert_tuples(side_table(&round, r), &keep);
                    self.stats.inserts += keep.len() as u64;
                    cx.outcome.rederived += keep.len() as u64;
                    back[r] = keep.len() as f64;
                }
                del_tuples.insert(r, all);
            }

            // Every rule whose head rederives here, as
            // `h(args) :- Δ⁻h(args), b1, …, bn`.
            let mut jobs: Vec<(usize, usize, Rule)> = Vec::new();
            for &ri in &stratum.rules {
                let rule = &self.program.rules[ri];
                let head_rel = self.strat.rel_ids[&rule.head.relation];
                if ds.contains(&head_rel) {
                    let del = self.del_name(head_rel);
                    let syn = with_head_literal(rule, &rule.head.relation, &del, true);
                    jobs.push((ri, head_rel, syn));
                }
            }
            self.seed_pass(cx, &jobs, &del_tuples, &round, &mut back);

            // Semi-naive rounds: rederived tuples may re-prove more, through
            // the delta versions `h :- Δ⁻h, b1, …, Δbi, …, bn`.
            let mut delta_plans = Vec::new();
            for (ri, _, syn) in &jobs {
                for (bi, lit) in syn.body.iter().enumerate().skip(1) {
                    if !lit.negated && ds.contains(&cx.ext_ids[&lit.atom.relation]) {
                        let deltas = Some(back.as_slice());
                        let plan = self.plan_synthetic(cx, "rederive", *ri, syn, Some(bi), deltas);
                        delta_plans.push(plan);
                    }
                }
            }
            let unfinished = |round: &SideTables| round.iter().flatten().any(|s| !s.is_empty());
            while !delta_plans.is_empty() && unfinished(&round) {
                let new = self.side_tables(&ds, 0);
                self.eval_retraction(cx, &delta_plans, Some(&round), &new);
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

    /// Seed pass: re-proves the deletions from the repaired database, one
    /// `(rule, head, h(args) :- Δ⁻h(args), b1, …, bn)` job at a time, and
    /// merges what came back into the relations and into `round`, counting
    /// it in `back`. Each job is ordered by cost like any rule, with Δ⁻h —
    /// what its support filter left of it — at its size: deletion-first
    /// while that is small, body-first with Δ⁻h a closing probe (head
    /// variables are body-bound) once one sweep of the surviving body is
    /// cheaper. Emission dedupes against the database and the side tables,
    /// so overlap between jobs is harmless.
    fn seed_pass(
        &mut self,
        cx: &mut Retraction,
        jobs: &[(usize, usize, Rule)],
        del_tuples: &HashMap<usize, Vec<TupleBuf>>,
        round: &SideTables,
        back: &mut [f64],
    ) {
        let nrels = self.rels.len();
        let ds: Vec<usize> = del_tuples.keys().copied().collect();
        let (no_delta, new) = (self.side_tables(&[], 0), self.side_tables(&ds, 0));
        let mut projections: HashMap<(usize, usize), HashSet<u64>> = HashMap::new();
        for (ri, r, syn) in jobs {
            let (r, all) = (*r, &del_tuples[r]);
            let mut whole = None;
            if let Some((frel, pairs)) = self.support_filter(&self.program.rules[*ri], all.len()) {
                for &(cl, _) in &pairs {
                    projections.entry((frel, cl)).or_insert_with(|| {
                        let mut set = HashSet::new();
                        self.rels[frel].for_each(&mut |t| {
                            set.insert(t[cl]);
                        });
                        set
                    });
                }
                let supported = |t: &&TupleBuf| {
                    let has =
                        |&(cl, ch): &(usize, usize)| projections[&(frel, cl)].contains(&t[ch]);
                    pairs.iter().all(has)
                };
                let dels: Vec<TupleBuf> = all.iter().filter(supported).copied().collect();
                if dels.is_empty() {
                    continue;
                }
                let part = self.table_for(r);
                insert_tuples(part.as_ref(), &dels);
                whole = Some((cx.del_acc[r].replace(part), cx.cards[nrels + r]));
                cx.cards[nrels + r] = dels.len() as f64;
            }
            let plan = self.plan_synthetic(cx, "rederive seed", *ri, syn, None, Some(back));
            self.eval_retraction(cx, [&plan], Some(&no_delta), &new);
            if let Some((acc, n)) = whole {
                (cx.del_acc[r], cx.cards[nrels + r]) = (acc, n);
            }
        }
        for (r, added) in self.merge_stratum(&new) {
            cx.outcome.rederived += added;
            back[r] += added as f64;
            side_table(round, r).merge_from(side_table(&new, r), self.threads);
        }
    }

    /// Phase 4 — fallback: recompute the strata delete–rederive does not
    /// repair from the surviving EDB.
    fn negation_fallback(&mut self, cx: &mut Retraction) {
        for stratum in &cx.strata[cx.fallback_from..] {
            for &r in &stratum.relations {
                self.rels[r] = self.table_for(r);
                let tuples: Vec<TupleBuf> = self.edb[r].iter().copied().collect();
                self.counts[r] = insert_tuples(self.rels[r].as_ref(), &tuples) as usize;
                self.stats.inserts += tuples.len() as u64;
            }
            // The replacement storages lost their index trees; rebuild the
            // catalog's permutations (plans reference their ids) before the
            // recompute scans run.
            self.sync_indexes();
            self.eval_stratum(stratum, &mut cx.workers);
            cx.outcome.recomputed_strata += 1;
        }
    }
}
