//! Cost-based join ordering.
//!
//! Soufflé-style evaluation serves a join on a *leading-column* prefix of
//! the primary tree. This module orders the literals of one rule version by
//! what the join will cost *against the database as it is when the plan
//! runs* ([`cost_order`]). Every inner scan of the compiled plan
//! ([`crate::eval::compile_ordered`]) is one of three reads of the primary
//! tree, and the orderer prices each: a range over the bound leading
//! columns; a *keyed sweep* when column 0 is free but another is fixed, one
//! pass over the relation a block of up to [`BLOCK`] bindings that keeps
//! the tuples matching one of the block's keys; and a sweep with nothing
//! fixed. No secondary index is built: since keyed sweeps, the indexes the
//! planner chose paid for nothing on any benchmark workload, and without
//! them a plan no longer depends on the storage kind (DESIGN.md, "Query
//! planning").
//!
//! A [`Version`] is one semi-naive version of a rule with the one plan it
//! runs: ordered when it is made, for the database of that moment — a
//! fixpoint's recursive versions from the delta sizes the fixpoint starts
//! with — and never re-ordered. Its delta literal is the outer loop.

use crate::ast::{Rule, Term};
use crate::eval::{compile_ordered, source_order, Plan, BLOCK};
use std::collections::{HashMap, HashSet};

/// What the orderer knows about the database a plan is about to run on.
pub(crate) struct CostModel<'a> {
    /// Tuples per id a rule can name, as of now: every relation and, past
    /// them, every deletion set a retraction plans over, at its live size.
    pub cards: &'a [f64],
    /// Current size of each relation's delta: what a delta literal is
    /// costed with. Zero outside the stratum being evaluated.
    pub deltas: &'a [f64],
}

/// Estimated tuples of an `n`-tuple relation of arity `a` that agree with
/// `b` bound columns — the textbook bound-fraction heuristic.
fn est_matches(n: f64, a: usize, b: usize) -> f64 {
    n.powf((a - b.min(a)) as f64 / a as f64)
}

/// A literal order with what justified it.
pub(crate) struct Ordered {
    /// Body positions, outermost first.
    pub order: Vec<usize>,
    /// The cardinality each body literal was costed with (the delta's size
    /// for the delta literal).
    pub cards: Vec<f64>,
}

/// Cost-driven literal ordering: the order minimizing the estimated
/// tuples touched by the whole join, `Σ outerᵢ · workᵢ`, where `outerᵢ` is
/// the estimated number of bindings reaching literal `i` and `workᵢ` what
/// one binding makes its scan touch. A relation of `n` tuples and arity `a`
/// with `b` fixed columns passes on `m = n^((a-b)/a)` matches a binding. Its
/// scan touches as many when the fixed columns lead, `n^((a-l)/a)` when only
/// the first `l` of them do, and a keyed sweep's `n / min(outer, BLOCK) + m`
/// when column 0 is free. Summing over the plan is what keeps a scan no
/// prefix serves from being deferred behind a cheap-looking literal whose
/// every match would repeat it.
///
/// The delta literal (body position `delta_pos`) is forced outermost —
/// semi-naive evaluation depends on it. A negation is eligible once fully
/// bound; it and every other fully bound literal are one probe that half
/// the bindings are assumed to pass.
///
/// All orders are searched, depth first, cheapest next scan first. A
/// partial order is dropped once it costs what the best complete one does,
/// or when another order of the same literals was no dearer and passes on
/// no more bindings — what is left then costs it at least as much — so the
/// search grows with the subsets of a body, not its permutations (measured:
/// 3 µs for the three-literal points-to rules, 0.3 ms for 8 literals,
/// 10 ms for 12). Equal scans are tried in source order and the first of
/// equally cheap orders wins, which keeps plans — and `EXPLAIN` output —
/// deterministic across runs, thread counts and storage kinds.
pub(crate) fn cost_order(
    rule: &Rule,
    rel_ids: &HashMap<String, usize>,
    delta_pos: Option<usize>,
    model: &CostModel<'_>,
) -> Ordered {
    let cards: Vec<f64> = (0..rule.body.len())
        .map(|li| {
            let rel = rel_ids[&rule.body[li].atom.relation];
            let sizes = if delta_pos == Some(li) {
                model.deltas
            } else {
                model.cards
            };
            sizes[rel]
        })
        .collect();
    let mut search = Search {
        rule,
        path: Vec::new(),
        seen: HashMap::new(),
        best_cost: f64::INFINITY,
        best: Ordered {
            order: Vec::new(),
            cards,
        },
    };
    let mut bound: HashSet<&str> = HashSet::new();
    match delta_pos.and_then(|p| Some((p, search.scan_cost(p, &bound, 1.0)?))) {
        Some((p, cost)) => search.place(p, cost, &mut bound, 1.0, 0.0),
        None => search.extend(&mut bound, 1.0, 0.0),
    }
    let mut best = search.best;
    // Safety net — stratification rejects rules that strand a negation,
    // so this only fires on internally synthesized shapes.
    for li in 0..rule.body.len() {
        if !best.order.contains(&li) {
            best.order.push(li);
        }
    }
    best
}

/// Depth-first search over literal orders; `path` is the order under
/// construction, `seen` the `(spent, outer)` every set of placed literals
/// was reached with, `best` the cheapest complete order so far (none while
/// `best_cost` is infinite).
struct Search<'a> {
    rule: &'a Rule,
    path: Vec<usize>,
    seen: HashMap<u64, Vec<(f64, f64)>>,
    best_cost: f64,
    best: Ordered,
}

/// What scanning one literal costs with a given set of bound variables.
struct ScanCost {
    /// Tuples one outer binding makes the scan touch.
    work: f64,
    /// Bindings it passes on per outer binding.
    matches: f64,
}

impl<'a> Search<'a> {
    /// Costs literal `li` as the next scan, or `None` for a negation that
    /// is not fully bound yet.
    fn scan_cost(&self, li: usize, bound: &HashSet<&str>, outer: f64) -> Option<ScanCost> {
        let lit = &self.rule.body[li];
        // Columns fixed before the scan runs: constants and variables
        // bound by already-placed literals.
        let (mut mask, mut free) = (0u32, false);
        for (c, t) in lit.atom.terms.iter().enumerate() {
            match t {
                Term::Const(_) => mask |= 1 << c,
                Term::Var(v) if bound.contains(v.as_str()) => mask |= 1 << c,
                Term::Var(_) => free = true,
                Term::Wildcard => free = true,
            }
        }
        if !free {
            return Some(ScanCost {
                work: 1.0,
                matches: 0.5,
            });
        } else if lit.negated {
            return None;
        }
        let (a, b) = (lit.atom.terms.len(), mask.count_ones() as usize);
        let n = self.best.cards[li].max(1.0);
        let matches = est_matches(n, a, b);
        // The bound leading run, or, for an inner scan with none but a
        // fixed column, a keyed sweep: one pass over the relation a block,
        // then the binding's matches.
        let lead = (!mask).trailing_zeros() as usize;
        let work = match lead == 0 && b > 0 && !self.path.is_empty() {
            true => n / outer.min(BLOCK as f64) + matches,
            false => est_matches(n, a, lead),
        };
        Some(ScanCost { work, matches })
    }

    /// Appends `li`, costed as `cost`, to the path and searches on from
    /// there.
    fn place(
        &mut self,
        li: usize,
        cost: ScanCost,
        bound: &mut HashSet<&'a str>,
        outer: f64,
        spent: f64,
    ) {
        let spent = spent + outer * cost.work;
        let passed = outer * cost.matches;
        let placed = self.path.iter().fold(1u64 << li, |set, p| set | 1 << p);
        let reached = self.seen.entry(placed).or_default();
        if spent >= self.best_cost || reached.iter().any(|&(s, o)| s <= spent && o <= passed) {
            return;
        }
        reached.push((spent, passed));
        let fresh: Vec<&'a str> = self.rule.body[li]
            .atom
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Var(v) if bound.insert(v.as_str()) => Some(v.as_str()),
                _ => None,
            })
            .collect();
        self.path.push(li);
        self.extend(bound, passed, spent);
        self.path.pop();
        for v in fresh {
            bound.remove(v);
        }
    }

    /// Tries every unplaced literal next; records the path when it is
    /// complete or only not-yet-bound negations remain.
    fn extend(&mut self, bound: &mut HashSet<&'a str>, outer: f64, spent: f64) {
        let mut next: Vec<(usize, ScanCost)> = (0..self.rule.body.len())
            .filter(|li| !self.path.contains(li))
            .filter_map(|li| Some((li, self.scan_cost(li, bound, outer)?)))
            .collect();
        if next.is_empty() {
            if spent < self.best_cost {
                self.best_cost = spent;
                self.best.order.clone_from(&self.path);
            }
            return;
        }
        next.sort_by(|x, y| x.1.work.total_cmp(&y.1.work));
        for (li, cost) in next {
            self.place(li, cost, bound, outer, spent);
        }
    }
}

/// One semi-naive version of a rule and the plan that runs for it.
#[derive(Clone, Debug)]
pub(crate) struct Version {
    /// Index of the rule in the program (profiling, `EXPLAIN`).
    pub rule_idx: usize,
    pub rule: Rule,
    /// The body literal that reads the delta, if the rule is recursive.
    pub delta_pos: Option<usize>,
    pub plan: Plan,
    /// The literal order `plan` was compiled from.
    pub order: Vec<usize>,
    /// What each body literal was costed with; empty when the version was
    /// not costed.
    pub cards: Vec<f64>,
}

impl Version {
    /// One version, cost-ordered for `model`, or in source order with the
    /// delta hoisted when there is none (the planner is off).
    pub(crate) fn new(
        rule_idx: usize,
        rule: &Rule,
        rel_ids: &HashMap<String, usize>,
        delta_pos: Option<usize>,
        model: Option<&CostModel<'_>>,
    ) -> Self {
        let Ordered { order, cards } = match model {
            Some(model) => cost_order(rule, rel_ids, delta_pos, model),
            None => Ordered {
                order: source_order(rule.body.len(), delta_pos),
                cards: Vec::new(),
            },
        };
        Self {
            rule_idx,
            rule: rule.clone(),
            delta_pos,
            plan: compile_ordered(rule, rel_ids, delta_pos, &order),
            order,
            cards,
        }
    }

    /// `name=count` for every body literal, as the order was costed.
    pub(crate) fn describe_cards(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (li, lit) in self.rule.body.iter().enumerate() {
            let delta = if self.delta_pos == Some(li) { "Δ" } else { "" };
            let part = format!("{delta}{}={}", lit.atom.relation, self.cards[li]);
            if !parts.contains(&part) {
                parts.push(part);
            }
        }
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Step;
    use crate::parser::parse;

    fn rel_ids(names: &[&str]) -> HashMap<String, usize> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), i))
            .collect()
    }

    /// A model over `cards` and `deltas`.
    fn model<'a>(cards: &'a [f64], deltas: &'a [f64]) -> CostModel<'a> {
        CostModel { cards, deltas }
    }

    fn order_of(rule: &Rule, ids: &HashMap<String, usize>, cards: &[f64]) -> Vec<usize> {
        let deltas = vec![0.0; cards.len()];
        cost_order(rule, ids, None, &model(cards, &deltas)).order
    }

    #[test]
    fn small_relation_goes_first() {
        let p = parse(
            ".decl big(x:n, y:n)\n.decl small(x:n, z:n)\n.decl out(y:n, z:n)\n\
             out(Y,Z) :- big(X,Y), small(X,Z).",
        )
        .unwrap();
        let ids = rel_ids(&["big", "small", "out"]);
        let cards = [1_000_000.0, 10.0, 10.0];
        assert_eq!(order_of(&p.rules[0], &ids, &cards), vec![1, 0]);
    }

    #[test]
    fn long_body_is_searched_like_a_short_one() {
        // Twelve literals sharing no variable, largest first: a cross
        // product is cheapest smallest-first, the exact reverse.
        let decls: String = (0..12).map(|i| format!(".decl r{i}(x:n)\n")).collect();
        let body: Vec<String> = (0..12).map(|i| format!("r{i}(X{i})")).collect();
        let p = parse(&format!(
            "{decls}.decl out(x:n)\nout(X0) :- {}.",
            body.join(", ")
        ))
        .unwrap();
        let names: Vec<String> = (0..12).map(|i| format!("r{i}")).collect();
        let mut ids = rel_ids(&names.iter().map(String::as_str).collect::<Vec<_>>());
        ids.insert("out".into(), 12);
        let cards: Vec<f64> = (0..13).map(|i| f64::from(1 << (13 - i))).collect();
        let reversed: Vec<usize> = (0..12).rev().collect();
        assert_eq!(order_of(&p.rules[0], &ids, &cards), reversed);
    }

    #[test]
    fn delta_stays_outermost() {
        let p = parse(
            ".decl edge(x:n, y:n)\n.decl path(x:n, y:n)\n\
             path(X,Z) :- path(X,Y), edge(Y,Z).",
        )
        .unwrap();
        let ids = rel_ids(&["edge", "path"]);
        // Even a delta far larger than the other literal stays outermost.
        let big_delta = model(&[10.0, 1000.0], &[0.0, 1e6]);
        let o = cost_order(&p.rules[0], &ids, Some(0), &big_delta);
        assert_eq!((o.order, o.cards), (vec![0, 1], vec![1e6, 10.0]));
    }

    #[test]
    fn negation_is_probed_as_soon_as_bound() {
        let p = parse(
            ".decl a(x:n)\n.decl b(x:n)\n.decl c(x:n, y:n)\n.decl out(x:n, y:n)\n\
             out(X,Y) :- a(X), c(X,Y), !b(X).",
        )
        .unwrap();
        let ids = rel_ids(&["a", "b", "c", "out"]);
        // !b(X) is eligible right after a(X) binds X — before c's scan.
        let cards = [10.0, 100.0, 10_000.0, 0.0];
        assert_eq!(order_of(&p.rules[0], &ids, &cards), vec![0, 2, 1]);
    }

    /// The paper's points-to rule whose order the stratum-start snapshot
    /// got wrong (`vpt`, `hpt` are defined by the stratum being evaluated).
    /// Relation ids: load 0, vpt 1, hpt 2.
    const LOAD_RULE: &str =
        ".decl load(v:n, w:n, f:n)\n.decl vpt(v:n, h:n)\n.decl hpt(h:n, f:n, g:n)\n\
         vpt(V,G) :- load(V,W,F), vpt(W,H), hpt(H,F,G).";

    #[test]
    fn keyed_sweep_is_costed_once_a_block_and_scans_early() {
        let p = parse(LOAD_RULE).unwrap();
        let ids = rel_ids(&["load", "vpt", "hpt"]);
        let sizes = model(&[1000.0, 5000.0, 20_000.0], &[0.0, 60.0, 0.0]);
        // load, entered through column 1, is swept once a block: the sixty
        // outer tuples read its 1 000 tuples once. hpt's prefix range passes
        // on 20 000^⅔ ≈ 737 matches per outer tuple, each of which would
        // reach load: load goes first.
        let o = cost_order(&p.rules[0], &ids, Some(1), &sizes);
        assert_eq!(o.order, vec![1, 0, 2]);
        let version = Version::new(0, &p.rules[0], &ids, Some(1), Some(&sizes));
        assert!(
            matches!(&version.plan.steps[1], Step::Scan { swept, .. } if swept == &[1]),
            "compiled as the sweep keyed by load's second column it is"
        );
    }

    #[test]
    fn a_version_is_ordered_for_the_counts_it_is_made_with() {
        // Each version is costed once, when it is made: a fixpoint's at its
        // start, never again while it runs. (The engine once re-costed them
        // every iteration and recorded where an order changed; no workload
        // ever re-ordered one after its first costing.)
        let p = parse(LOAD_RULE).unwrap();
        let ids = rel_ids(&["load", "vpt", "hpt"]);
        // A fixpoint that starts with hpt all but empty: Δvpt joins it before
        // load.
        let early = model(&[100.0, 60.0, 1.0], &[0.0, 60.0, 1.0]);
        let v = Version::new(0, &p.rules[0], &ids, Some(1), Some(&early));
        assert_eq!(v.order, vec![1, 2, 0]);
        // One that starts with hpt past load: load goes first.
        let late = model(&[100.0, 3000.0, 3000.0], &[0.0, 300.0, 300.0]);
        let versions =
            [Some(1), Some(2)].map(|d| Version::new(0, &p.rules[0], &ids, d, Some(&late)));
        assert_eq!(versions[0].order, vec![1, 0, 2]);
        assert_eq!(versions[0].describe_cards(), "load=100, Δvpt=300, hpt=3000");
        // Every inner scan of both versions has a column fixed: a range or
        // a keyed sweep, never a cross product.
        for v in &versions {
            let cross = |s: &Step| matches!(s, Step::Scan { prefix, .. } if prefix.is_empty());
            assert!(!v.plan.steps[1..].iter().any(cross), "{:?}", v.plan);
        }
    }

    #[test]
    fn stratum_relation_costed_at_its_floor_stays_behind_a_bound_edb_literal() {
        // What the engine hands the orderer while hpt is still empty: its
        // cardinality floored at the largest relation the stratum reads
        // (assign, 300), not 0. load, bound by Δvpt, goes first.
        let p = parse(&format!(".decl assign(v:n, w:n)\n{LOAD_RULE}")).unwrap();
        let ids = rel_ids(&["load", "vpt", "hpt", "assign"]);
        let deltas = [0.0, 60.0, 0.0, 0.0];
        let floored = model(&[100.0, 300.0, 300.0, 300.0], &deltas);
        let o = cost_order(&p.rules[0], &ids, Some(1), &floored);
        assert_eq!(o.order, vec![1, 0, 2]);
        // Costed at its true size of zero, hpt would have gone first.
        let unfloored = model(&[100.0, 60.0, 0.0, 300.0], &deltas);
        let o = cost_order(&p.rules[0], &ids, Some(1), &unfloored);
        assert_eq!(o.order, vec![1, 2, 0]);
    }

    #[test]
    fn repeated_variable_stays_a_check_in_a_sweep() {
        // fact(Y, Y): the second Y is bound by the scan's own bind — it
        // must stay a check, not become a sweep's key.
        let p = parse(
            ".decl probe(x:n)\n.decl fact(y:n, x:n)\n.decl out(x:n)\n\
             out(X) :- probe(X), fact(Y, Y).",
        )
        .unwrap();
        let ids = rel_ids(&["probe", "fact", "out"]);
        let plan = compile_ordered(&p.rules[0], &ids, None, &[0, 1]);
        match &plan.steps[1] {
            Step::Scan { checks, swept, .. } => {
                assert_eq!(checks.len(), 1, "intra-tuple equality stays a check");
                assert!(swept.is_empty(), "no column fixed before it → no key");
            }
            other => panic!("unexpected step {other:?}"),
        }
    }
}
