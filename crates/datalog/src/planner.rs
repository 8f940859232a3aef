//! Cost-based join ordering and secondary indexes that pay for themselves.
//!
//! Soufflé-style evaluation only indexes joins on a *leading-column*
//! prefix of the primary tree; any literal binding a non-leading column
//! degrades to a full scan per outer tuple. This module orders the
//! literals of one rule version by what the join will cost *against the
//! database as it is when the plan runs*, and decides, scan by scan,
//! whether a column-permuted secondary index is worth building:
//!
//! 1. **Ordering** ([`cost_order`]): the order with the fewest estimated
//!    tuples touched. A relation of `n` tuples and arity `a` with `b` bound
//!    columns yields an estimated `n^((a-b)/a)` matches per outer binding;
//!    that is also what its scan touches when the bound columns are a
//!    leading prefix or the leading columns of a registered index.
//!    Otherwise the primary tree only serves the bound leading run or, when
//!    column 0 is free, a keyed sweep: one pass over the relation a block
//!    of up to [`BLOCK`] bindings, `n / min(outer, BLOCK)` a binding, plus
//!    its matches — unless an index is built, whose build and upkeep are
//!    then charged to the scan ([`INDEX_COST`]). Within one execution with
//!    no upkeep the index pays past `INDEX_COST × BLOCK` bindings.
//! 2. **Registration** ([`register`]): the searches whose index paid are
//!    chain-covered per relation (Soufflé's "MinIndex": by Dilworth's
//!    theorem the fewest permutations serving a set of bound-column masks
//!    is a minimum chain partition of the subset lattice, found by
//!    bipartite matching — [`cover_masks`]) and added to the
//!    [`IndexCatalog`]; the engine builds what the catalog gained.
//! 3. **Compilation** ([`crate::eval::compile_ordered`]) routes every inner
//!    scan whose fixed columns lead a catalog index through that index; a
//!    scan no index serves stays the filtered primary scan it is.
//!
//! A [`Version`] is one semi-naive version of a rule with the plan that
//! currently runs; [`replan`] re-orders a batch of them in place between
//! fixpoint iterations.

use crate::ast::{Rule, Term};
use crate::eval::{compile_one, compile_ordered, source_order, Plan, BLOCK};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The set of secondary-index permutations registered per relation.
///
/// A permutation's position in its relation's list is the storage-level
/// index id ([`crate::storage::RelationStorage::add_index`] dedupes by
/// permutation, so engine-side and storage-side ids stay aligned as long
/// as both register in the same order — which [`add`](Self::add)'s
/// dedupe-by-perm guarantees).
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexCatalog {
    /// Declared arity per relation id. Permutations cover exactly the
    /// declared columns; trailing [`crate::ast::MAX_ARITY`] padding is
    /// zero on both sides of the permutation and never affects order.
    arities: Vec<usize>,
    /// Registered permutations per relation, in registration order.
    perms: Vec<Vec<Vec<usize>>>,
}

impl IndexCatalog {
    pub(crate) fn new(arities: &[usize]) -> Self {
        Self {
            arities: arities.to_vec(),
            perms: vec![Vec::new(); arities.len()],
        }
    }

    pub(crate) fn nrels(&self) -> usize {
        self.perms.len()
    }

    /// Registers `perm` on `rel`, returning its index id; re-registering
    /// an existing permutation returns the original id.
    pub(crate) fn add(&mut self, rel: usize, perm: Vec<usize>) -> usize {
        debug_assert_eq!(
            perm.len(),
            self.arities[rel],
            "index permutation must cover exactly the declared columns"
        );
        if let Some(i) = self.perms[rel].iter().position(|p| *p == perm) {
            return i;
        }
        self.perms[rel].push(perm);
        self.perms[rel].len() - 1
    }

    /// The registered permutations of `rel`, id-ordered.
    pub(crate) fn perms(&self, rel: usize) -> &[Vec<usize>] {
        &self.perms[rel]
    }

    /// Finds an index on `rel` whose leading columns are exactly the
    /// bound-column set `mask`, returning `(id, perm)`.
    pub(crate) fn find(&self, rel: usize, mask: u32) -> Option<(usize, &[usize])> {
        if rel >= self.perms.len() {
            return None;
        }
        let k = mask.count_ones() as usize;
        self.perms[rel].iter().enumerate().find_map(|(i, perm)| {
            if perm.len() < k {
                return None;
            }
            let lead: u32 = perm[..k].iter().map(|&c| 1u32 << c).sum();
            (lead == mask).then_some((i, perm.as_slice()))
        })
    }

    /// Total number of registered permutations.
    pub(crate) fn len(&self) -> usize {
        self.perms.iter().map(Vec::len).sum()
    }
}

/// A mask is a *prefix run* (`{0, 1, …, k-1}`) iff `mask + 1` is a power
/// of two — those searches are served by the primary tree for free.
fn is_prefix_run(mask: u32) -> bool {
    mask & (mask + 1) == 0
}

/// Minimum chain cover of a set of search signatures (Soufflé's
/// "MinIndex" construction): returns the smallest set of column
/// permutations such that every mask is the leading-column set of some
/// permutation. Masks that are empty or prefix runs are dropped first
/// (the primary tree serves them); `arity` pads each permutation out to
/// a full column bijection so the index tree stores whole tuples.
pub(crate) fn cover_masks(masks: &[u32], arity: usize) -> Vec<Vec<usize>> {
    let full = (1u32 << arity) - 1;
    let mut uniq: Vec<u32> = masks
        .iter()
        .map(|&m| m & full)
        .filter(|&m| m != 0 && !is_prefix_run(m))
        .collect();
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.is_empty() {
        return Vec::new();
    }
    let n = uniq.len();
    // Maximum bipartite matching over strict-subset pairs (Kuhn's
    // augmenting paths): left side = chain predecessors, right side =
    // chain successors. Dilworth: #chains = n − |matching|.
    let adj: Vec<Vec<usize>> = uniq
        .iter()
        .map(|&a| {
            uniq.iter()
                .enumerate()
                .filter(|&(_, &b)| a != b && a & b == a)
                .map(|(j, _)| j)
                .collect()
        })
        .collect();
    fn augment(
        i: usize,
        adj: &[Vec<usize>],
        seen: &mut [bool],
        succ_of: &mut [usize],
        pred_of: &mut [usize],
    ) -> bool {
        for &j in &adj[i] {
            if seen[j] {
                continue;
            }
            seen[j] = true;
            if pred_of[j] == usize::MAX || augment(pred_of[j], adj, seen, succ_of, pred_of) {
                succ_of[i] = j;
                pred_of[j] = i;
                return true;
            }
        }
        false
    }
    let mut succ_of = vec![usize::MAX; n];
    let mut pred_of = vec![usize::MAX; n];
    for i in 0..n {
        let mut seen = vec![false; n];
        augment(i, &adj, &mut seen, &mut succ_of, &mut pred_of);
    }
    // Each chain starts at a mask with no matched predecessor; walking
    // successor links visits S₁ ⊂ S₂ ⊂ … ⊂ Sₖ in order.
    let mut perms = Vec::new();
    for start in (0..n).filter(|&i| pred_of[i] == usize::MAX) {
        let mut perm: Vec<usize> = Vec::with_capacity(arity);
        let mut covered = 0u32;
        let mut cur = start;
        loop {
            push_cols(uniq[cur] & !covered, &mut perm);
            covered |= uniq[cur];
            if succ_of[cur] == usize::MAX {
                break;
            }
            cur = succ_of[cur];
        }
        push_cols(full & !covered, &mut perm);
        perms.push(perm);
    }
    perms
}

/// Appends the column indices of `mask` in ascending order.
fn push_cols(mask: u32, out: &mut Vec<usize>) {
    for c in 0..32 {
        if mask & (1 << c) != 0 {
            out.push(c);
        }
    }
}

/// What building an index costs per tuple it holds, and what keeping it
/// costs per tuple merged into its relation afterwards, in units of one
/// tuple touched by a scan. Measured on `tc_random`'s 1.81 M-tuple `path`
/// (2 vCPUs): a tuple a join scans costs 70 ns, 2.8 ns of it the leaf-walk
/// step; a backfilled tuple 45–47 ns (`ablation` group `index_build`, 1.8 M
/// pairs, medians of ten runs; 39 ns when first measured) — three walks of
/// the primary, the last a scatter, and a bulk load, where the comparison
/// sort made it 88 ns — and a tuple merged in afterwards one more
/// random-order tree insert, 770 ns, 11 scanned tuples. A keyed sweep's
/// pass reads a tuple in 10–16 ns (group `block_join/sweep`, 30 bindings):
/// a build costs three to four passes, and where nearly every tuple
/// matches a key the pass also copies each, so sweeping lost past two
/// blocks of bindings there (EXPERIMENTS.md, "A keyed sweep"). One
/// constant stands for both and upkeep is the larger part, so it stays 8,
/// and with it a crossover at eight blocks.
const INDEX_COST: f64 = 8.0;

/// What the orderer knows about the database a plan is about to run on.
pub(crate) struct CostModel<'a> {
    /// Tuples per id a rule can name, as of now: every relation and, past
    /// them, every deletion set a retraction plans over, at its live size.
    pub cards: &'a [f64],
    /// Current size of each relation's delta: what a delta literal is
    /// costed with, and — being what one execution of the plan merges into
    /// the relation — the upkeep an index on it adds. Zero outside the
    /// stratum being evaluated.
    pub deltas: &'a [f64],
    /// Executions an index built now is expected to serve, over which its
    /// build is spread: a run's iteration number (as many iterations to
    /// come as have run), 1 for a retraction's synthetic rules, which run
    /// once a call.
    pub horizon: f64,
    /// Whether the storage backend can build secondary indexes at all.
    pub can_index: bool,
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
    /// `(relation, bound-column mask)` of every scan costed with an index
    /// the catalog does not have yet.
    pub wants: Vec<(usize, u32)>,
    /// The cardinality each body literal was costed with (the delta's size
    /// for the delta literal).
    pub cards: Vec<f64>,
}

/// Cost-driven literal ordering: the order minimizing the estimated
/// tuples touched by the whole join, `Σ outerᵢ · workᵢ`, where `outerᵢ` is
/// the estimated number of bindings reaching literal `i` and `workᵢ` what
/// one binding makes its scan touch (see the module docs). Summing over
/// the plan is what keeps a scan nothing can serve from being deferred
/// behind a cheap-looking literal whose every match would repeat it.
///
/// The delta literal (body position `delta_pos`) is forced outermost —
/// semi-naive evaluation depends on it. A negation is
/// eligible once fully bound; it and every other fully bound literal are
/// one probe that half the bindings are assumed to pass. An index is
/// assumed, and reported in [`Ordered::wants`], only where
/// `m + INDEX_COST·(n + Δn) / (horizon·outer)` undercuts the scan the
/// primary tree can serve: its leading run, or a keyed sweep's
/// `n / min(outer, BLOCK) + m`.
///
/// All orders are searched, depth first, cheapest next scan first. A
/// partial order is dropped once it costs what the best complete one does,
/// or when another order of the same literals was no dearer and passes on
/// no more bindings — what is left then costs it at least as much — so the
/// search grows with the subsets of a body, not its permutations (measured:
/// 3 µs for the three-literal points-to rules, 0.3 ms for 8 literals,
/// 10 ms for 12). Equal scans are tried in source order and the first of
/// equally cheap orders wins, which keeps plans — and `EXPLAIN` output —
/// deterministic across runs and thread counts.
pub(crate) fn cost_order(
    rule: &Rule,
    rel_ids: &HashMap<String, usize>,
    delta_pos: Option<usize>,
    model: &CostModel<'_>,
    catalog: &IndexCatalog,
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
        rel_ids,
        model,
        catalog,
        path: Vec::new(),
        wants: Vec::new(),
        seen: HashMap::new(),
        best_cost: f64::INFINITY,
        best: Ordered {
            order: Vec::new(),
            wants: Vec::new(),
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

/// Depth-first search over literal orders; `path`/`wants` are the order
/// under construction, `seen` the `(spent, outer)` every set of placed
/// literals was reached with, `best` the cheapest complete order so far
/// (none while `best_cost` is infinite).
struct Search<'a> {
    rule: &'a Rule,
    rel_ids: &'a HashMap<String, usize>,
    model: &'a CostModel<'a>,
    catalog: &'a IndexCatalog,
    path: Vec<usize>,
    wants: Vec<(usize, u32)>,
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
    /// The index search the work figure assumes, if the catalog lacks it.
    want: Option<(usize, u32)>,
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
                want: None,
            });
        } else if lit.negated {
            return None;
        }
        let rel = self.rel_ids[&lit.atom.relation];
        let (a, b) = (lit.atom.terms.len(), mask.count_ones() as usize);
        let n = self.best.cards[li].max(1.0);
        let matches = est_matches(n, a, b);
        // What the primary tree serves: the bound leading run, or, for an
        // inner scan with none but a fixed column, a keyed sweep — one pass
        // over the relation a block, then the binding's matches.
        let lead = (!mask).trailing_zeros() as usize;
        let inner = !self.path.is_empty();
        let mut cost = ScanCost {
            work: match lead == 0 && b > 0 && inner {
                true => n / outer.min(BLOCK as f64) + matches,
                false => est_matches(n, a, lead),
            },
            matches,
            want: None,
        };
        if lead < b && inner && rel < self.catalog.nrels() {
            if self.catalog.find(rel, mask).is_some() {
                cost.work = matches;
            } else if self.model.can_index {
                let upkeep = self.model.deltas[rel];
                let owned = matches + INDEX_COST * (n + upkeep) / (self.model.horizon * outer);
                if owned < cost.work {
                    cost.work = owned;
                    cost.want = Some((rel, mask));
                }
            }
        }
        Some(cost)
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
        self.wants.extend(cost.want);
        self.extend(bound, passed, spent);
        if cost.want.is_some() {
            self.wants.pop();
        }
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
                self.best.wants.clone_from(&self.wants);
            }
            return;
        }
        next.sort_by(|x, y| x.1.work.total_cmp(&y.1.work));
        for (li, cost) in next {
            self.place(li, cost, bound, outer, spent);
        }
    }
}

/// Adds to `catalog` the fewest permutations serving every wanted
/// `(relation, mask)` search it does not serve yet (one chain cover per
/// relation). The caller compares [`IndexCatalog::len`] before and after to
/// learn what to build.
pub(crate) fn register<'w>(
    wants: impl Iterator<Item = &'w (usize, u32)>,
    catalog: &mut IndexCatalog,
) {
    // Ordered by relation: registration order must not depend on a hasher.
    let mut per_rel: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for &(rel, mask) in wants {
        if catalog.find(rel, mask).is_none() {
            per_rel.entry(rel).or_default().push(mask);
        }
    }
    for (rel, masks) in per_rel {
        for perm in cover_masks(&masks, catalog.arities[rel]) {
            catalog.add(rel, perm);
        }
    }
}

/// One semi-naive version of a rule and the plan that currently runs for
/// it.
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
    /// What each body literal was costed with when the plan last changed,
    /// or when it was first costed; empty until then.
    pub cards: Vec<f64>,
    /// The fixpoint iteration (past the first) at which the plan last
    /// changed: a new order, or an index for one of its scans.
    pub replanned_at: Option<u64>,
    /// Size of the catalog `plan` was compiled against; 0 for the
    /// source-order plan, which is compiled against none.
    indexes_seen: usize,
}

impl Version {
    /// The source-order plan (delta hoisted) of one version.
    pub(crate) fn new(
        rule_idx: usize,
        rule: &Rule,
        rel_ids: &HashMap<String, usize>,
        delta_pos: Option<usize>,
    ) -> Self {
        Self {
            rule_idx,
            rule: rule.clone(),
            delta_pos,
            plan: compile_one(rule, rel_ids, delta_pos),
            order: source_order(rule.body.len(), delta_pos),
            cards: Vec::new(),
            replanned_at: None,
            indexes_seen: 0,
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

/// Re-orders a batch of versions for the database as it is now: every
/// version is costed afresh, the indexes the batch wants are registered
/// together (so one permutation can serve several versions), and a version
/// is recompiled only when its order changed or the catalog holds indexes
/// its plan was not compiled against — registered here, or earlier for
/// another plan, stratum or run. `iteration` is recorded on versions whose
/// plan changed after the first.
pub(crate) fn replan(
    versions: &mut [Version],
    rel_ids: &HashMap<String, usize>,
    model: &CostModel<'_>,
    catalog: &mut IndexCatalog,
    iteration: u64,
) {
    let ordered: Vec<Ordered> = versions
        .iter()
        .map(|v| cost_order(&v.rule, rel_ids, v.delta_pos, model, catalog))
        .collect();
    register(ordered.iter().flat_map(|o| &o.wants), catalog);
    for (v, o) in versions.iter_mut().zip(ordered) {
        // The plan changes with its order, or by gaining an index.
        let changed = o.order != v.order || !o.wants.is_empty();
        if changed || catalog.len() != v.indexes_seen {
            v.plan = compile_ordered(&v.rule, rel_ids, v.delta_pos, &o.order, Some(catalog));
            v.indexes_seen = catalog.len();
        }
        if changed || v.cards.is_empty() {
            v.cards = o.cards;
        }
        if changed {
            v.order = o.order;
            if iteration > 1 {
                v.replanned_at = Some(iteration);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{compile_one_at, Step};
    use crate::parser::parse;

    fn rel_ids(names: &[&str]) -> HashMap<String, usize> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), i))
            .collect()
    }

    #[test]
    fn prefix_runs_are_dropped() {
        // {0} and {0,1} are leading prefixes — the primary tree serves them.
        assert!(cover_masks(&[0b1, 0b11], 3).is_empty());
    }

    #[test]
    fn single_mask_single_perm() {
        // {1} on a binary relation → index keyed column 1 then column 0.
        assert_eq!(cover_masks(&[0b10], 2), vec![vec![1, 0]]);
    }

    #[test]
    fn chain_collapses_to_one_perm() {
        // {2} ⊂ {1,2} ⊂ {1,2,3}: one chain, one index.
        assert_eq!(
            cover_masks(&[0b100, 0b110, 0b1110], 4),
            vec![vec![2, 1, 3, 0]]
        );
    }

    #[test]
    fn incomparable_masks_need_two_perms() {
        // {1,2} and {0,2} are incomparable — no single leading-column
        // order serves both.
        let perms = cover_masks(&[0b110, 0b101], 3);
        assert_eq!(perms.len(), 2);
        for p in &perms {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "each perm is a full bijection");
        }
    }

    #[test]
    fn diamond_takes_two_chains() {
        // {1}, {2} ⊂ {1,2}: maximum matching has size 1 → two chains.
        let perms = cover_masks(&[0b10, 0b100, 0b110], 3);
        assert_eq!(perms.len(), 2);
        // One of the chains runs {1} ⊂ {1,2} or {2} ⊂ {1,2}; both masks
        // must be served by *some* perm's leading columns.
        let serves = |mask: u32| {
            perms.iter().any(|p| {
                let k = mask.count_ones() as usize;
                p[..k].iter().map(|&c| 1u32 << c).sum::<u32>() == mask
            })
        };
        assert!(serves(0b10) && serves(0b100) && serves(0b110));
    }

    /// A model over `cards` and `deltas` for a single execution on an
    /// indexing backend.
    fn model<'a>(cards: &'a [f64], deltas: &'a [f64]) -> CostModel<'a> {
        CostModel {
            cards,
            deltas,
            horizon: 1.0,
            can_index: true,
        }
    }

    fn order_of(rule: &Rule, ids: &HashMap<String, usize>, cards: &[f64]) -> Vec<usize> {
        let catalog = IndexCatalog::new(&vec![crate::ast::MAX_ARITY; cards.len()]);
        let deltas = vec![0.0; cards.len()];
        cost_order(rule, ids, None, &model(cards, &deltas), &catalog).order
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
        let o = cost_order(
            &p.rules[0],
            &ids,
            Some(0),
            &big_delta,
            &IndexCatalog::new(&[2, 2]),
        );
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
    fn index_is_wanted_only_when_it_pays() {
        let p = parse(LOAD_RULE).unwrap();
        let ids = rel_ids(&["load", "vpt", "hpt"]);
        let catalog = IndexCatalog::new(&[3, 2, 3]);
        let cards = [100.0, 5000.0, 5000.0];
        let dvpt = |n: f64| [0.0, n, 0.0];
        let wants = |deltas: &[f64], horizon: f64| {
            let m = CostModel {
                horizon,
                ..model(&cards, deltas)
            };
            let o = cost_order(&p.rules[0], &ids, Some(1), &m, &catalog);
            assert_eq!(o.order, vec![1, 0, 2]);
            o.wants
        };
        // Δvpt(W,H) binds load's second column. A keyed sweep reads load
        // once a block: within one execution sixty outer tuples make one
        // pass, cheaper than building load[1,..], and so do eight blocks
        // less a thousand bindings; eight blocks and a thousand more read
        // load more often than the build does (`INDEX_COST`).
        let block = BLOCK as f64;
        assert_eq!(wants(&dvpt(60.0), 1.0), vec![]);
        assert_eq!(wants(&dvpt(8.0 * block - 1024.0), 1.0), vec![]);
        assert_eq!(wants(&dvpt(8.0 * block + 1024.0), 1.0), vec![(0, 0b010)]);
        // By the fortieth iteration of sixty-tuple deltas the passes have
        // added up.
        assert_eq!(wants(&dvpt(60.0), 40.0), vec![(0, 0b010)]);
        // Δhpt(H,F,G) enters vpt through its second column. By the
        // sixteenth iteration twenty outer tuples repay indexing 5 000 vpt
        // tuples, but not indexing them and the 10 000 more this iteration
        // is about to merge: vpt is swept then.
        let cards = [1e6, 5000.0, 5000.0];
        let late = |deltas| CostModel {
            horizon: 16.0,
            ..model(&cards, deltas)
        };
        let o = cost_order(
            &p.rules[0],
            &ids,
            Some(2),
            &late(&[0.0, 0.0, 20.0]),
            &catalog,
        );
        assert_eq!(
            (o.order, o.wants),
            (vec![2, 1, 0], vec![(1, 0b10), (0, 0b110)])
        );
        let o = cost_order(
            &p.rules[0],
            &ids,
            Some(2),
            &late(&[0.0, 1e4, 20.0]),
            &catalog,
        );
        assert_eq!((o.order, o.wants), (vec![2, 1, 0], vec![(0, 0b110)]));
    }

    /// The overdeletion rule of a closure's retraction, costed as a
    /// retraction costs it (one execution): the deletion set of `edge`
    /// enters `path` through its second column. Below eight blocks of
    /// bindings a keyed sweep reads `path` once a block and nothing is
    /// built; above, building `path[1,0]` reads it less.
    #[test]
    fn a_deletion_set_sweeps_below_the_crossover_and_is_indexed_above() {
        let p = parse(
            ".decl edge(x:n, y:n)\n.decl path(x:n, y:n)\n.decl del(x:n, y:n)\n\
             del(X,Z) :- path(X,Y), edge(Y,Z), path(X,Z).",
        )
        .unwrap();
        let ids = rel_ids(&["edge", "path", "del"]);
        let catalog = IndexCatalog::new(&[2, 2, 2]);
        let cards = [1e5, 1.8e6, 0.0];
        let wants = |deleted: f64| {
            let deltas = [deleted, 0.0, 0.0];
            let o = cost_order(
                &p.rules[0],
                &ids,
                Some(1),
                &model(&cards, &deltas),
                &catalog,
            );
            assert_eq!(o.order[0], 1, "the deletion set drives the join");
            o.wants
        };
        let block = BLOCK as f64;
        assert_eq!(wants(30.0), vec![]);
        assert_eq!(wants(8.0 * block - 1024.0), vec![]);
        assert_eq!(wants(8.0 * block + 1024.0), vec![(1, 0b10)]);
    }

    #[test]
    fn backend_without_indexes_gets_no_index_and_scans_early() {
        let p = parse(LOAD_RULE).unwrap();
        let ids = rel_ids(&["load", "vpt", "hpt"]);
        let mut catalog = IndexCatalog::new(&[3, 2, 3]);
        let plain = CostModel {
            can_index: false,
            ..model(&[1000.0, 5000.0, 20_000.0], &[0.0, 60.0, 0.0])
        };
        // load, entered through column 1, is swept once a block: the sixty
        // outer tuples read its 1 000 tuples once. hpt's prefix range passes
        // on 20 000^⅔ ≈ 737 matches per outer tuple, each of which would
        // reach load: load goes first.
        let o = cost_order(&p.rules[0], &ids, Some(1), &plain, &catalog);
        assert_eq!((o.order, o.wants), (vec![1, 0, 2], vec![]));
        let mut version = [Version::new(0, &p.rules[0], &ids, Some(1))];
        replan(&mut version, &ids, &plain, &mut catalog, 1);
        assert_eq!(catalog.len(), 0);
        assert!(
            matches!(&version[0].plan.steps[1], Step::Scan { swept, .. } if swept == &[1]),
            "compiled as the sweep keyed by load's second column it is"
        );
    }

    #[test]
    fn replan_records_the_iteration() {
        let p = parse(LOAD_RULE).unwrap();
        let ids = rel_ids(&["load", "vpt", "hpt"]);
        let mut catalog = IndexCatalog::new(&[3, 2, 3]);
        let mut versions = vec![
            Version::new(0, &p.rules[0], &ids, Some(1)),
            Version::new(0, &p.rules[0], &ids, Some(2)),
        ];
        // Iteration 1: hpt is all but empty — Δvpt joins it before load.
        let early = model(&[100.0, 60.0, 1.0], &[0.0, 60.0, 1.0]);
        replan(&mut versions, &ids, &early, &mut catalog, 1);
        assert_eq!(versions[0].order, vec![1, 2, 0]);
        assert_eq!(
            versions[0].replanned_at, None,
            "the first order is not a re-plan"
        );
        // Iteration 5: hpt has outgrown load; the order flips.
        let late = CostModel {
            horizon: 5.0,
            ..model(&[100.0, 3000.0, 3000.0], &[0.0, 300.0, 300.0])
        };
        replan(&mut versions, &ids, &late, &mut catalog, 5);
        assert_eq!(versions[0].order, vec![1, 0, 2]);
        assert_eq!(versions[0].replanned_at, Some(5));
        assert_eq!(versions[0].describe_cards(), "load=100, Δvpt=300, hpt=3000");
        // Every scan of both versions found its index in the shared catalog.
        for v in &versions {
            assert!(
                !crate::eval::has_unprefixed_inner_scan(&v.plan),
                "{:?}",
                v.plan
            );
        }
    }

    #[test]
    fn stratum_relation_costed_at_its_floor_stays_behind_a_bound_edb_literal() {
        // What the engine hands the orderer while hpt is still empty: its
        // cardinality floored at the largest relation the stratum reads
        // (assign, 300), not 0. load, bound by Δvpt, goes first.
        let p = parse(&format!(".decl assign(v:n, w:n)\n{LOAD_RULE}")).unwrap();
        let ids = rel_ids(&["load", "vpt", "hpt", "assign"]);
        let catalog = IndexCatalog::new(&[3, 2, 3, 2]);
        let deltas = [0.0, 60.0, 0.0, 0.0];
        let floored = model(&[100.0, 300.0, 300.0, 300.0], &deltas);
        let o = cost_order(&p.rules[0], &ids, Some(1), &floored, &catalog);
        assert_eq!(o.order, vec![1, 0, 2]);
        // Costed at its true size of zero, hpt would have gone first.
        let unfloored = model(&[100.0, 60.0, 0.0, 300.0], &deltas);
        let o = cost_order(&p.rules[0], &ids, Some(1), &unfloored, &catalog);
        assert_eq!(o.order, vec![1, 2, 0]);
    }

    #[test]
    fn compile_rewrites_scan_to_permuted_prefix() {
        let p = parse(
            ".decl probe(x:n)\n.decl fact(y:n, x:n)\n.decl out(x:n)\n\
             out(X) :- probe(X), fact(Y, X).",
        )
        .unwrap();
        let ids = rel_ids(&["probe", "fact", "out"]);
        let mut catalog = IndexCatalog::new(&[1, 2, 1]);
        catalog.add(1, vec![1, 0]);
        let plan = compile_one_at(&p.rules[0], &ids, None, true, Some(&catalog));
        match &plan.steps[1] {
            Step::Scan {
                prefix,
                checks,
                index,
                ..
            } => {
                assert_eq!(prefix.len(), 1, "bound column moved into the prefix");
                assert!(checks.is_empty(), "covered check folded away");
                let sel = index.as_ref().expect("index assigned");
                assert_eq!((sel.id, sel.perm.as_slice()), (0, &[1usize, 0][..]));
            }
            other => panic!("unexpected step {other:?}"),
        }
        assert!(!crate::eval::has_unprefixed_inner_scan(&plan));
    }

    #[test]
    fn repeated_variable_check_survives_an_index() {
        // fact(Y, Y): the second Y is bound by the scan's own bind — it
        // must stay a check even when an index exists.
        let p = parse(
            ".decl probe(x:n)\n.decl fact(y:n, x:n)\n.decl out(x:n)\n\
             out(X) :- probe(X), fact(Y, Y).",
        )
        .unwrap();
        let ids = rel_ids(&["probe", "fact", "out"]);
        let mut catalog = IndexCatalog::new(&[1, 2, 1]);
        catalog.add(1, vec![1, 0]);
        let plan = compile_one_at(&p.rules[0], &ids, None, true, Some(&catalog));
        match &plan.steps[1] {
            Step::Scan { checks, index, .. } => {
                assert_eq!(checks.len(), 1, "intra-tuple equality stays a check");
                assert!(index.is_none(), "no eligible bound column → no index");
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn catalog_find_and_dedupe() {
        let mut c = IndexCatalog::new(&[2, 3]);
        assert_eq!(c.add(1, vec![2, 0, 1]), 0);
        assert_eq!(c.add(1, vec![2, 0, 1]), 0, "dedupe keeps the id");
        assert_eq!(c.add(1, vec![1, 2, 0]), 1);
        assert_eq!(c.find(1, 0b100).map(|(i, _)| i), Some(0));
        assert_eq!(c.find(1, 0b110).map(|(i, _)| i), Some(1));
        assert_eq!(c.find(1, 0b011), None);
        assert_eq!(c.find(0, 0b10), None);
    }
}
