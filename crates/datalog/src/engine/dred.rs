//! Delete–rederive (DRed): [`Engine::retract_facts`] and its phases —
//! planning, `overdelete`, `delete`, `rederive`, `negation_fallback` — over
//! one per-call [`Retraction`].

use super::{Engine, EngineError, RetractOutcome};
use crate::ast::{Atom, Literal, Rule};
use crate::eval::{insert_tuples, merge_runs, Run, Worker};
use crate::planner::{CostModel, Version};
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
    /// Everything overdeleted, by relation id: the deletion set of every
    /// relation, empty but for the dirty ones (an empty tree holds no node).
    del_acc: Vec<Box<dyn RelationStorage>>,
    /// What every synthetic rule is costed with, over the extended ids: the
    /// relations at the counts the retraction found, which rederivation
    /// largely restores (the counts in between, after the overdeleted
    /// tuples are gone, say little about what the rederivation joins will
    /// meet), then the deletion sets at their live sizes.
    cards: Vec<f64>,
    workers: Vec<Worker>,
    /// Every version planned, with the phase that runs it: the synthetic
    /// ones, and the ordinary recursive ones rederivation propagates with
    /// (boxed, so that a retraction planning one rule allocates no kilobyte
    /// block).
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

/// The deletion sets as the relations past the declared ones, `~del~r` at
/// `nrels + r`.
fn deletion_sets(del_acc: &[Box<dyn RelationStorage>]) -> Vec<&dyn RelationStorage> {
    del_acc.iter().map(Box::as_ref).collect()
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
    ///    were not themselves retracted go back together with what every
    ///    rule with an overdeleted head, replayed once as
    ///    `h :- Δ⁻h, b1, …, bn`, re-proves from what survived; the
    ///    stratum's semi-naive loop, the one [`run`](Self::run) uses, then
    ///    propagates what came back.
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
            del_acc: (0..nrels).map(|r| self.table_for(r)).collect(),
            dirty,
            strata,
            ext_ids,
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
                let added = insert_tuples(cx.del_acc[r].as_ref(), ts);
                cx.overdeleted(r, added);
            }
        }
        cx
    }

    /// Plans one synthetic retraction rule — `rule`, made from rule `ri` —
    /// for `phase`, and keeps the version for [`explain`](Self::explain).
    /// With the planner on the literals are cost-ordered from `cx.cards`,
    /// the delta — a deletion set — at its size and outermost; a scan the
    /// primary tree cannot serve by a prefix is a keyed sweep, once a
    /// block. With it off, source order with the delta hoisted. An
    /// overdelete round's delta is what the deletion set of the delta
    /// literal's relation `r` last grew by: the delta of `~del~r`, at
    /// `nrels + r`.
    fn plan_synthetic(
        &self,
        cx: &mut Retraction,
        phase: &'static str,
        ri: usize,
        rule: &Rule,
        delta_pos: Option<usize>,
    ) -> Version {
        let model = CostModel {
            cards: &cx.cards,
            deltas: &cx.cards[self.rels.len()..],
        };
        let model = self.planner_enabled.then_some(&model);
        let mut v = Version::new(ri, rule, &cx.ext_ids, delta_pos, model);
        v.plan.delta = v.plan.delta.map(|r| self.rels.len() + r);
        cx.versions.push((phase, Box::new(v.clone())));
        v
    }

    /// The name of the pseudo relation holding relation `r`'s deletion set.
    pub(super) fn del_name(&self, r: usize) -> String {
        format!("~del~{}", self.program.decls[r].name)
    }

    /// Compiles, per stratum, the overdeletion rules
    /// `Δ⁻h(args) :- b1, …, bn, h(args)`, one plan version per dirty positive
    /// body literal (which reads the deletion delta). The appended head
    /// literal restricts derivations to tuples actually present and is
    /// never a delta candidate. A reverse join is swept by key, once a
    /// block ([`plan_synthetic`](Self::plan_synthetic)).
    fn overdelete_plans(&self, cx: &mut Retraction) -> Vec<Vec<Version>> {
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
                        plans.push(self.plan_synthetic(cx, "overdelete", ri, &syn, Some(p)));
                    }
                }
            }
        }
        plans
    }

    /// Phase 1 — overdelete, stratum by stratum (a stratum's deletions
    /// depend only on earlier strata and itself), each to fixpoint: the
    /// first round reads the deletion sets themselves, copied out as runs,
    /// as its delta, every later one what the round before added, which the
    /// merge of the round's runs into the deletion sets returns. Nothing is
    /// physically removed yet, so non-delta positions still read the old
    /// database.
    ///
    /// Before every round the stratum's deletion sets are weighed against
    /// what recomputing from it would rebuild — the exact counts of its
    /// relations and every later stratum's. Once [`K`] times the former
    /// reach the latter, delete–rederive ends here: the stratum becomes
    /// `fallback_from`, and its relations and those after it leave `dirty`.
    fn overdelete(&mut self, cx: &mut Retraction, plans: &[Vec<Version>]) {
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
            let mut delta: Vec<Run> = Vec::new();
            loop {
                let deleted: f64 = rels.iter().map(|&r| cx.cards[nrels + r]).sum();
                if deleted > 0.0 && K * deleted >= rebuilt as f64 {
                    cx.fallback_from = si;
                    cx.dirty.retain(|r| !recomputed.contains(r));
                    for &r in &recomputed {
                        cx.del_acc[r] = self.table_for(r);
                    }
                    return;
                }
                if plans.is_empty() {
                    break;
                }
                let extra = deletion_sets(&cx.del_acc);
                if delta.is_empty() {
                    // The first round reads whole every deletion set a
                    // version reads as its delta.
                    delta = vec![Run::default(); 2 * nrels];
                    for d in plans.iter().filter_map(|v| v.plan.delta) {
                        if delta[d].is_empty() {
                            delta[d] = Run::of(extra[d - nrels]);
                        }
                    }
                }
                self.eval_versions(plans, &extra, &delta, &mut cx.workers);
                delta.fill(Run::default()); // before the merge returns the next
                for &r in &rels {
                    let (workers, stats) = (&mut cx.workers, &mut self.stats);
                    delta[nrels + r] =
                        merge_runs(workers, nrels + r, extra[r], true, self.threads, stats);
                }
                for &r in &rels {
                    cx.overdeleted(r, delta[nrels + r].len() as u64);
                }
                if delta.iter().all(Run::is_empty) {
                    break;
                }
            }
        }
    }

    /// Phase 2 — physically remove every overdeleted tuple (one remove
    /// each).
    fn delete(&mut self, cx: &mut Retraction) {
        for &r in &cx.dirty {
            let acc = cx.del_acc[r].as_ref();
            if !acc.is_empty() {
                let gone = self.rels[r].retract_from(acc, self.threads);
                self.counts[r] -= gone as usize;
                self.stats.removes += cx.cards[self.rels.len() + r] as u64;
            }
        }
    }

    /// Phase 3 — rederive, stratum by stratum, with what a run has. The
    /// overdeleted EDB facts that were not retracted, as a run of their
    /// own, and what one batch of seed versions
    /// `h(args) :- ~del~h(args), b1, …, bn` re-proves from the repaired
    /// database, go back in one merge, which writes the first delta; the
    /// stratum's own [`fixpoint`](Self::fixpoint) then propagates them
    /// through its ordinary recursive versions. On a database at a fixpoint that loop
    /// derives only overdeleted tuples; on one holding facts added since
    /// the last run it may also derive what those imply, which the next
    /// run would derive anyway.
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
            // definition.
            let sets = deletion_sets(&cx.del_acc);
            for &r in &ds {
                let (edb, mut keep) = (&self.edb[r], Vec::new());
                sets[r].for_each(&mut |t| {
                    if edb.contains(t) {
                        keep.push(*t);
                    }
                });
                cx.workers[0].append(r, self.rels[r].width(), &keep);
            }
            let mut seeds = Vec::new();
            for &ri in &stratum.rules {
                let rule = &self.program.rules[ri];
                let head = self.strat.rel_ids[&rule.head.relation];
                if ds.contains(&head) {
                    let del = self.del_name(head);
                    let syn = with_head_literal(rule, &rule.head.relation, &del, true);
                    seeds.push(self.plan_synthetic(cx, "rederive seed", ri, &syn, None));
                }
            }
            let extra = deletion_sets(&cx.del_acc);
            self.eval_versions(&seeds, &extra, &[], &mut cx.workers);
            let delta = self.merge_stratum(&ds, &mut cx.workers, true);
            let put_back = delta.iter().map(Run::len).sum::<usize>() as u64;
            cx.outcome.rederived += put_back;
            if put_back > 0 {
                let (added, rec) = self.fixpoint(&stratum, delta, &mut cx.workers);
                cx.outcome.rederived += added;
                let ran = rec.into_iter().map(|v| ("rederive", Box::new(v)));
                cx.versions.extend(ran);
            }
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
            self.eval_stratum(stratum, &mut cx.workers);
            cx.outcome.recomputed_strata += 1;
        }
    }
}
