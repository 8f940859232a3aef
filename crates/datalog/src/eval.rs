//! Rule compilation and parallel semi-naive evaluation.
//!
//! Each rule is compiled into nested-loop-join *plans* mirroring the code
//! Soufflé synthesizes (paper Figure 1): body literals become steps that
//! either **scan** a relation with a bound leading prefix (a
//! `lower_bound`/`upper_bound` range query) or **check** a fully bound
//! tuple (a membership test). For recursive rules one plan *version* per
//! recursive body literal is generated, with that literal reading the
//! delta relation and hoisted to the outermost loop — the standard
//! semi-naive transformation.
//!
//! Parallel evaluation follows the paper's strategy: the outermost loop of
//! each plan is *chunk-driven* — the storage backend splits its own key
//! space into many more chunks than workers
//! ([`RelationStorage::partition`]), and workers claim chunks off a shared
//! atomic cursor, walking each chunk directly in the tree
//! ([`RelationStorage::scan_chunk`]) with no intermediate tuple buffer.
//! Every later scan with a bound prefix and every check takes the bindings
//! that reach it a sorted block at a time, one range query or membership
//! test per distinct key where Figure 1 issues one per binding; a lone
//! worker's blocks and emit batch span its chunks, and every lookup goes
//! through the tree's unhinted operations: a block's sorted keys already
//! hold the locality the paper's thread-local hints cache. Every worker
//! merges its head tuples, a sorted batch at a time, into the shared `new`
//! relation through the concurrent storage API. Reads (scans over stable
//! relations) and writes (batches merged into `new`) never target the same
//! structure — the two-phase property (§2) the B-tree's synchronization is
//! specialized for.

use crate::ast::{CmpOp, Rule, Term, MAX_ARITY};
use crate::planner::IndexCatalog;
use crate::storage::{RelationStorage, StorageChunk, StorageCtx, TupleBuf};
use crate::EvalStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Oversplit factor: each plan's outer scan is partitioned into
/// `CHUNKS_PER_WORKER ×` the worker count so the shared cursor can smooth
/// out skew (a worker stuck on a dense chunk simply claims fewer).
const CHUNKS_PER_WORKER: usize = 8;

/// A compiled term: a constant or a slot in the variable environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Slot {
    Const(u64),
    Var(usize),
}

impl Slot {
    #[inline]
    fn value(&self, env: &[u64]) -> u64 {
        match self {
            Slot::Const(c) => *c,
            Slot::Var(v) => env[*v],
        }
    }
}

/// A secondary index chosen for a scan step: the registered index id on
/// the scanned relation plus the column permutation it is keyed by. The
/// permutation is carried in the plan (rather than looked up at run time)
/// so workers can translate prefix values and result tuples without
/// touching shared catalog state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct IndexSel {
    pub id: usize,
    pub perm: Vec<usize>,
}

/// One step of a compiled plan.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// Scan a relation with the leading `prefix` bound; `checks` are
    /// equality constraints on later columns; `binds` assign columns to
    /// fresh variables. When `index` is set, the prefix is in the index's
    /// *permuted* column order and the scan routes through
    /// [`RelationStorage::scan_index`].
    Scan {
        rel: usize,
        delta: bool,
        prefix: Vec<Slot>,
        checks: Vec<(usize, Slot)>,
        binds: Vec<(usize, usize)>,
        index: Option<IndexSel>,
    },
    /// Membership test of a fully bound tuple (possibly negated).
    Check {
        rel: usize,
        delta: bool,
        terms: Vec<Slot>,
        negated: bool,
    },
    /// A comparison constraint over bound slots (e.g. `v0 < v2`).
    Filter { op: CmpOp, lhs: Slot, rhs: Slot },
}

/// A compiled plan version of one rule.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    pub head_rel: usize,
    pub head_slots: Vec<Slot>,
    pub steps: Vec<Step>,
    pub nvars: usize,
}

/// The delta position of every semi-naive version of `rule`: one per
/// positive body occurrence of a relation of the current stratum, or a
/// single `None` for a rule that reads none.
pub(crate) fn delta_positions(
    rule: &Rule,
    rel_ids: &HashMap<String, usize>,
    stratum_rels: &[usize],
) -> Vec<Option<usize>> {
    let recursive: Vec<Option<usize>> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.negated && stratum_rels.contains(&rel_ids[&l.atom.relation]))
        .map(|(i, _)| Some(i))
        .collect();
    if recursive.is_empty() {
        vec![None]
    } else {
        recursive
    }
}

/// Source order with the delta literal hoisted outermost.
pub(crate) fn source_order(nlits: usize, delta_pos: Option<usize>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nlits).collect();
    if let Some(p) = delta_pos {
        order.retain(|&i| i != p);
        order.insert(0, p);
    }
    order
}

/// Compiles one version in source order, without secondary indexes;
/// `delta_pos` marks the body literal that reads the delta relation and is
/// hoisted to the front. The retraction machinery picks delta positions
/// itself (its synthetic rules carry appended/prepended literals that must
/// never drive a delta).
pub(crate) fn compile_one(
    rule: &Rule,
    rel_ids: &HashMap<String, usize>,
    delta_pos: Option<usize>,
) -> Plan {
    compile_one_at(rule, rel_ids, delta_pos, true, None)
}

/// [`compile_one`] with an explicit hoisting choice and an optional index
/// catalog. `hoist: false` leaves the delta literal at its source position:
/// when hoisting would strand a later literal without any bound prefix,
/// evaluating the body in source order and probing the delta where it sits
/// can be cheaper — the full scan becomes the outermost loop and runs
/// once, chunked across workers. With the planner enabled this fallback
/// rarely fires: a stranded scan usually gets a secondary index, and
/// [`has_unprefixed_inner_scan`] only reports scans that did not.
pub(crate) fn compile_one_at(
    rule: &Rule,
    rel_ids: &HashMap<String, usize>,
    delta_pos: Option<usize>,
    hoist: bool,
    catalog: Option<&IndexCatalog>,
) -> Plan {
    let order = source_order(rule.body.len(), delta_pos.filter(|_| hoist));
    compile_ordered(rule, rel_ids, delta_pos, &order, catalog)
}

/// Compiles one version with a fully explicit literal evaluation order
/// (`order[0]` becomes the outermost loop); the cost-based planner computes
/// orders and calls this directly. An inner scan of a stored relation whose
/// fixed columns — constants and variables bound by earlier literals —
/// are exactly the leading columns of an index in `catalog` becomes a range
/// query over that index: the fixed columns move from `checks` into a
/// prefix *in the index's permuted order* and the step carries the
/// [`IndexSel`]. Any other scan is served by the primary tree: its bound
/// leading columns as a prefix, the rest as checks.
pub(crate) fn compile_ordered(
    rule: &Rule,
    rel_ids: &HashMap<String, usize>,
    delta_pos: Option<usize>,
    order: &[usize],
    catalog: Option<&IndexCatalog>,
) -> Plan {
    debug_assert_eq!(order.len(), rule.body.len());
    let mut var_ids: HashMap<String, usize> = HashMap::new();
    let mut bound: Vec<bool> = Vec::new();
    fn var_of(var_ids: &mut HashMap<String, usize>, bound: &mut Vec<bool>, name: &str) -> usize {
        if let Some(&id) = var_ids.get(name) {
            id
        } else {
            let id = bound.len();
            var_ids.insert(name.to_string(), id);
            bound.push(false);
            id
        }
    }

    let mut steps = Vec::with_capacity(rule.body.len());
    for &li in order {
        let lit = &rule.body[li];
        let rel = rel_ids[&lit.atom.relation];
        let delta = delta_pos == Some(li);

        // Fully bound (or negated, which safety guarantees is fully bound)?
        let fully_bound = lit.atom.terms.iter().all(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => var_ids
                .get(v.as_str())
                .map(|&id| bound[id])
                .unwrap_or(false),
            Term::Wildcard => false,
        });
        if fully_bound || lit.negated {
            let terms: Vec<Slot> = lit
                .atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Slot::Const(*c),
                    Term::Var(v) => Slot::Var(var_of(&mut var_ids, &mut bound, v)),
                    Term::Wildcard => unreachable!("wildcards are never fully bound"),
                })
                .collect();
            steps.push(Step::Check {
                rel,
                delta,
                terms,
                negated: lit.negated,
            });
            continue;
        }

        // Scan: longest bound prefix, then checks/binds column by column.
        let mut prefix = Vec::new();
        let mut checks = Vec::new();
        let mut binds = Vec::new();
        let mut in_prefix = true;
        // Columns fixed before the scan runs. A repeated variable bound by
        // this literal's own earlier column (`e(X, X)`) is not: it stays a
        // post-scan check whichever tree serves the scan.
        let mut fixed = 0u32;
        for (col, t) in lit.atom.terms.iter().enumerate() {
            let slot_if_bound = match t {
                Term::Const(c) => {
                    fixed |= 1 << col;
                    Some(Slot::Const(*c))
                }
                Term::Var(v) => {
                    let id = var_of(&mut var_ids, &mut bound, v);
                    if bound[id] && !binds.iter().any(|&(_, b)| b == id) {
                        fixed |= 1 << col;
                    }
                    bound[id].then_some(Slot::Var(id))
                }
                Term::Wildcard => None,
            };
            match slot_if_bound {
                Some(slot) if in_prefix => prefix.push(slot),
                Some(slot) => checks.push((col, slot)),
                None => {
                    in_prefix = false;
                    match t {
                        Term::Var(v) => {
                            let id = var_of(&mut var_ids, &mut bound, v);
                            binds.push((col, id));
                            bound[id] = true; // later occurrences become checks
                        }
                        Term::Wildcard => {}
                        Term::Const(_) => unreachable!(),
                    }
                }
            }
        }
        let mut index = None;
        let inner = li != order[0] && !delta && fixed & (fixed + 1) != 0;
        if let Some((id, perm)) = catalog.filter(|_| inner).and_then(|c| c.find(rel, fixed)) {
            let slots: Vec<(usize, Slot)> =
                prefix.iter().copied().enumerate().chain(checks).collect();
            let slot_of = |c: usize| slots.iter().find(|s| s.0 == c).expect("fixed column").1;
            prefix = perm[..fixed.count_ones() as usize]
                .iter()
                .map(|&c| slot_of(c))
                .collect();
            checks = slots
                .into_iter()
                .filter(|(c, _)| fixed & (1 << c) == 0)
                .collect();
            index = Some(IndexSel {
                id,
                perm: perm.to_vec(),
            });
        }
        steps.push(Step::Scan {
            rel,
            delta,
            prefix,
            checks,
            binds,
            index,
        });
    }

    // Comparison constraints become filter steps placed immediately after
    // the earliest step at which both operands are bound (pruning the join
    // as early as possible).
    {
        // Which step first binds each variable.
        let mut bound_at = vec![0usize; bound.len()];
        for (si, step) in steps.iter().enumerate() {
            if let Step::Scan { binds, .. } = step {
                for (_, v) in binds {
                    bound_at[*v] = si + 1; // vars are bound exactly once
                }
            }
        }
        let mut filters: Vec<(usize, Step)> = Vec::new();
        for c in &rule.constraints {
            let slot_and_pos = |t: &Term| -> (Slot, usize) {
                match t {
                    Term::Const(v) => (Slot::Const(*v), 0),
                    Term::Var(name) => {
                        let id = var_ids[name.as_str()];
                        (Slot::Var(id), bound_at[id])
                    }
                    Term::Wildcard => unreachable!("checked during stratification"),
                }
            };
            let (lhs, lpos) = slot_and_pos(&c.lhs);
            let (rhs, rpos) = slot_and_pos(&c.rhs);
            filters.push((lpos.max(rpos), Step::Filter { op: c.op, lhs, rhs }));
        }
        // Insert from the back so earlier positions stay valid.
        filters.sort_by_key(|(pos, _)| std::cmp::Reverse(*pos));
        for (pos, f) in filters {
            steps.insert(pos, f);
        }
    }

    let head_slots: Vec<Slot> = rule
        .head
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => Slot::Const(*c),
            Term::Var(v) => Slot::Var(var_ids[v.as_str()]),
            Term::Wildcard => unreachable!("checked during stratification"),
        })
        .collect();

    Plan {
        head_rel: rel_ids[&rule.head.relation],
        head_slots,
        steps,
        nvars: bound.len(),
    }
}

/// Whether any non-outermost step is a scan with no bound prefix *and* no
/// secondary index — an unindexed full scan re-run once per outer tuple.
/// Such plans are only worth keeping when the outer loop is known to be
/// tiny; the retraction planner uses this to decide between delta-hoisted
/// and source-order versions of its synthetic rules (checked *after*
/// index assignment, so an index-served reverse join no longer triggers
/// the fallback).
pub(crate) fn has_unprefixed_inner_scan(plan: &Plan) -> bool {
    plan.steps.iter().skip(1).any(
        |s| matches!(s, Step::Scan { prefix, index, .. } if prefix.is_empty() && index.is_none()),
    )
}

/// The relation id whose delta the plan reads, if any. Evaluating a plan
/// whose delta source is empty is a no-op; callers skip it outright, which
/// matters for non-hoisted versions whose *outer* scan is a full relation.
pub(crate) fn plan_delta_rel(plan: &Plan) -> Option<usize> {
    plan.steps.iter().find_map(|s| match s {
        Step::Scan {
            rel, delta: true, ..
        }
        | Step::Check {
            rel, delta: true, ..
        } => Some(*rel),
        _ => None,
    })
}

impl Plan {
    /// Renders the plan as a one-line pipeline description for `EXPLAIN`
    /// output; `names` maps relation ids to names.
    pub(crate) fn describe(&self, names: &[&str]) -> String {
        let slot = |s: &Slot| match s {
            Slot::Const(c) => c.to_string(),
            Slot::Var(v) => format!("v{v}"),
        };
        let mut parts = Vec::new();
        for step in &self.steps {
            match step {
                Step::Scan {
                    rel,
                    delta,
                    prefix,
                    checks,
                    binds,
                    index,
                } => {
                    let src = if *delta {
                        format!("Δ{}", names[*rel])
                    } else {
                        names[*rel].to_string()
                    };
                    let mut detail = Vec::new();
                    if let Some(sel) = index {
                        detail.push(format!(
                            "index=[{}]",
                            sel.perm
                                .iter()
                                .map(|c| c.to_string())
                                .collect::<Vec<_>>()
                                .join(",")
                        ));
                    }
                    if !prefix.is_empty() {
                        detail.push(format!(
                            "prefix=({})",
                            prefix.iter().map(slot).collect::<Vec<_>>().join(",")
                        ));
                    }
                    if !checks.is_empty() {
                        detail.push(format!(
                            "check=({})",
                            checks
                                .iter()
                                .map(|(c, s)| format!("#{c}={}", slot(s)))
                                .collect::<Vec<_>>()
                                .join(",")
                        ));
                    }
                    if !binds.is_empty() {
                        detail.push(format!(
                            "bind=({})",
                            binds
                                .iter()
                                .map(|(c, v)| format!("#{c}→v{v}"))
                                .collect::<Vec<_>>()
                                .join(",")
                        ));
                    }
                    let kind = if prefix.is_empty() && index.is_none() {
                        "scan"
                    } else {
                        "range"
                    };
                    parts.push(format!("{kind} {src} {}", detail.join(" ")));
                }
                Step::Check {
                    rel,
                    delta,
                    terms,
                    negated,
                } => {
                    let src = if *delta {
                        format!("Δ{}", names[*rel])
                    } else {
                        names[*rel].to_string()
                    };
                    let neg = if *negated { "!" } else { "" };
                    parts.push(format!(
                        "probe {neg}{src}({})",
                        terms.iter().map(slot).collect::<Vec<_>>().join(",")
                    ));
                }
                Step::Filter { op, lhs, rhs } => {
                    parts.push(format!("filter {} {op} {}", slot(lhs), slot(rhs)));
                }
            }
        }
        parts.push(format!(
            "emit {}({})",
            names[self.head_rel],
            self.head_slots
                .iter()
                .map(slot)
                .collect::<Vec<_>>()
                .join(",")
        ));
        parts.join(" ⋈ ")
    }
}

/// The delta or `new` side tables of one evaluation round, by relation id
/// (`None` where the round has none).
pub(crate) type SideTables = Vec<Option<Box<dyn RelationStorage>>>;

/// The side table of `rel`, which the caller knows to exist.
pub(crate) fn side_table(tables: &SideTables, rel: usize) -> &dyn RelationStorage {
    let table = tables.get(rel).and_then(|t| t.as_deref());
    table.expect("a side table for every relation a plan reads the delta of or derives")
}

/// Resolves `delta` flags to concrete storages for one evaluation round.
///
/// `full` is a slice of borrowed storages (not owned boxes) so callers can
/// splice extra *pseudo relations* past the declared ids — the retraction
/// engine maps relation id `nrels + r` to the deletion accumulator of
/// relation `r` and compiles plans against the extended id space.
pub(crate) struct StorageEnv<'a> {
    /// Full contents of every relation (indexed by relation id).
    pub full: &'a [&'a dyn RelationStorage],
    /// Delta relations of the current stratum.
    pub delta: &'a SideTables,
    /// The `new` relations tuples are derived into.
    pub new: &'a SideTables,
}

/// The storage step `i` of a plan goes to, at index `i`; `None` for a
/// filter, which touches no storage.
type Bound<'a> = Option<&'a dyn RelationStorage>;

/// The head's two tables: the full relation a flushed batch is anti-joined
/// with and the `new` table the rest is merged into. No operation sites: a
/// run needs no scratch, so no worker makes a context for them.
#[derive(Clone, Copy)]
struct Head<'a> {
    full: &'a dyn RelationStorage,
    new: &'a dyn RelationStorage,
}

impl<'a> StorageEnv<'a> {
    /// The storage every step of `plan` goes to and the head's two tables,
    /// resolved once per plan execution.
    ///
    /// Scans and membership tests, the head's batched one included, read
    /// `full` and `delta`, batches go to `new`, and no table is both: the
    /// two-phase property (§2) that lets a join run inside a scan's callback
    /// and bindings and a batch wait for their blocks and flush: nothing a
    /// plan reads changes under it.
    fn bind(&self, plan: &Plan) -> (Vec<Bound<'a>>, Head<'a>) {
        let source = |rel: usize, delta: bool| match delta {
            true => side_table(self.delta, rel),
            false => self.full[rel],
        };
        let new = side_table(self.new, plan.head_rel);
        let sites: Vec<Bound<'a>> = plan
            .steps
            .iter()
            .map(|step| match step {
                Step::Scan { rel, delta, .. } | Step::Check { rel, delta, .. } => {
                    Some(source(*rel, *delta))
                }
                Step::Filter { .. } => None,
            })
            .collect();
        let reads_new = |src: &&dyn RelationStorage| std::ptr::addr_eq(*src, new);
        assert!(
            !sites.iter().flatten().any(reads_new),
            "a plan for relation {} reads the table it derives into",
            plan.head_rel
        );
        let full = self.full[plan.head_rel];
        (sites, Head { full, new })
    }
}

/// An operation site during one worker's execution of one plan: where the
/// operation goes and the worker's context for it, made before the first
/// tuple.
///
/// Every scan and check site has a context of its own: a locked baseline
/// replays a scan's matches out of it, and the callback may scan the same
/// relation again at a deeper site.
struct Site<'a> {
    src: &'a dyn RelationStorage,
    ctx: StorageCtx,
}

impl<'a> Site<'a> {
    /// A fresh context for every site of `bound`.
    fn open(bound: &[Bound<'a>]) -> Vec<Option<Self>> {
        let open = |src: &'a dyn RelationStorage| Site {
            src,
            ctx: src.make_ctx(),
        };
        bound.iter().map(|b| b.map(open)).collect()
    }

    /// Calls `f` for every tuple a scan through `index` (the primary tree
    /// when `None`) finds under `prefix`.
    fn range(&mut self, index: &Option<IndexSel>, prefix: &[u64], f: &mut dyn FnMut(&TupleBuf)) {
        let Self { src, ctx } = self;
        match index {
            Some(sel) => src.scan_index(sel.id, &sel.perm, prefix, ctx, f),
            None => src.scan_prefix(prefix, ctx, f),
        }
    }
}

/// What one worker keeps from one plan execution to the next.
#[derive(Default)]
pub(crate) struct Worker {
    /// The join's operations.
    pub stats: EvalStats,
    /// The emit batch: empty between plan executions, kept for its
    /// allocation (a fresh buffer of up to 640 KB per execution is an `mmap`
    /// each).
    buf: EmitBuf,
    /// A block of bindings per step, kept the same way.
    blocks: Vec<Block>,
}

/// Head tuples derived and not yet applied to the head's two tables, end to
/// end at the head's arity, and what sorting them ping-pongs with.
#[derive(Default)]
struct EmitBuf {
    batch: Vec<u64>,
    scratch: Vec<u64>,
}

/// Bindings that reached a keyed step ([`Step::key`]) and wait for it to
/// look each distinct key up once for all of them.
#[derive(Default)]
struct Block {
    /// Each binding's environment, `nvars` words, end to end.
    envs: Vec<u64>,
    /// `(key…, where the binding's environment starts in envs)` per
    /// binding, end to end, sorted with the emit batch's scratch.
    keys: Vec<u64>,
    /// The range of the key being replayed, for a scan.
    range: Vec<TupleBuf>,
}

impl Block {
    /// Adds the binding `vars` under the key `key` reads off it and returns
    /// whether the block is full.
    fn push(&mut self, key: &[Slot], vars: &[u64]) -> bool {
        self.keys.extend(key.iter().map(|s| s.value(vars)));
        self.keys.push(self.envs.len() as u64);
        self.envs.extend_from_slice(vars);
        self.envs.len() == BLOCK * vars.len()
    }
}

impl Step {
    /// What the bindings that reach this step wait in a block sorted by: a
    /// scan's bound prefix, a check's tuple. `None` for a filter and an
    /// unprefixed scan, which run per binding in place.
    fn key(&self) -> Option<&[Slot]> {
        match self {
            Step::Scan { prefix, .. } if !prefix.is_empty() => Some(prefix),
            Step::Check { terms, .. } => Some(terms),
            _ => None,
        }
    }
}

/// One plan execution as every worker sees it: the outer scan's chunks
/// and the cursor they are claimed off.
struct Job<'a> {
    plan: &'a Plan,
    bound: Vec<Bound<'a>>,
    head: Head<'a>,
    chunks: Vec<StorageChunk>,
    cursor: AtomicUsize,
    /// One worker claims every chunk: its blocks and batch span them.
    alone: bool,
}

/// Evaluates one plan over `env`, deriving tuples into `env.new`, with one
/// worker per thread. This is where `datalog` spawns threads, and the only
/// place.
pub(crate) fn eval_plan(plan: &Plan, env: &StorageEnv<'_>, workers: &mut [Worker]) {
    let (bound, head) = env.bind(plan);
    let (Some(Step::Scan { prefix, .. }), Some(Some(outer))) = (plan.steps.first(), bound.first())
    else {
        // Degenerate plan (starts with a check): evaluate sequentially.
        let Worker { stats, buf, blocks } = &mut workers[0];
        let mut sites = Site::open(&bound);
        let mut evaluator = Evaluator::new(plan, head, stats, buf, blocks);
        let mut vars = vec![0u64; plan.nvars];
        evaluator.run_from(0, &mut vars, &mut sites, blocks);
        return evaluator.finish(0, &mut vars, &mut sites, blocks);
    };
    debug_assert!(
        prefix.iter().all(|s| matches!(s, Slot::Const(_))),
        "outermost prefix can only contain constants"
    );
    let consts: Vec<u64> = prefix.iter().map(|s| s.value(&[])).collect();
    let threads = workers.len().max(1);
    let chunks = outer.partition(threads * CHUNKS_PER_WORKER, &consts);
    if chunks.is_empty() {
        return;
    }
    // Never spawn more workers than there are chunks to claim — surplus
    // workers would only pay the spawn cost and exit — and with nothing
    // to distribute run inline: the spawn cost recurs once per plan per
    // fixpoint iteration.
    let active = threads.min(chunks.len());
    let job = Job {
        plan,
        bound,
        head,
        chunks,
        cursor: AtomicUsize::new(0),
        alone: active == 1,
    };
    if job.alone {
        return job.run(&mut workers[0]);
    }
    std::thread::scope(|s| {
        for worker in workers.iter_mut().take(active) {
            let job = &job;
            s.spawn(move || job.run(worker));
        }
    });
}

impl Job<'_> {
    /// One worker's claim loop: chunks off the shared cursor until none are
    /// left, through contexts the worker makes for this execution. Beside
    /// other workers it runs its blocks and batch at each chunk's end; alone,
    /// after its last chunk.
    fn run(&self, worker: &mut Worker) {
        let plan = self.plan;
        let Worker { stats, buf, blocks } = worker;
        let mut sites = Site::open(&self.bound);
        let (outer, inner) = sites.split_first_mut().expect("a site per step");
        let outer = outer.as_mut().expect("the outer scan's site");
        let mut evaluator = Evaluator::new(plan, self.head, stats, buf, blocks);
        let inner_blocks = &mut blocks[1..];
        let mut vars = vec![0u64; plan.nvars];
        loop {
            let i = self.cursor.fetch_add(1, Relaxed);
            let Some(chunk) = self.chunks.get(i) else {
                break;
            };
            evaluator.stats.chunks_claimed += 1;
            // A range chunk starts with one descent to its lower bound; a
            // snapshot chunk touches no tree.
            if matches!(chunk, StorageChunk::Range { .. }) {
                evaluator.stats.lower_bound_calls += 1;
            }
            let chunk_timer = telemetry::start_timer();
            let _span = telemetry::span("eval.chunk", i as u64);
            outer.src.scan_chunk(chunk, &mut |t| {
                evaluator.join(0, t, &mut vars, inner, inner_blocks)
            });
            if !self.alone {
                evaluator.finish(1, &mut vars, inner, inner_blocks);
            }
            chunk_timer.observe(telemetry::Hist::EvalChunkNanos);
        }
        evaluator.finish(1, &mut vars, inner, inner_blocks);
    }
}

/// The nested-loop join of one plan on one worker. The Table 2 operation
/// counts are taken here, where each storage call is issued. Steps `si..`
/// take `sites` and `blocks` that start at step `si`'s.
struct Evaluator<'p, 'c> {
    plan: &'p Plan,
    head: Head<'p>,
    stats: &'c mut EvalStats,
    buf: &'c mut EmitBuf,
    /// Where [`emit`](Self::emit) flushes: [`EMIT_BATCH`] head tuples, or
    /// [`BATCH_CEILING`] while blocks flush between them.
    flush_at: usize,
}

/// Head tuples a worker collects before it sorts them and applies them to
/// the trees as one run. While sorting cost `n log n`, 4 096 was where a
/// hand-written `tc_random` loop went flat (EXPERIMENTS.md, "Writes in key
/// order"). With the counting sort a longer batch costs nothing to sort and
/// drops more repeats: the benchmark's child at 1 024 / 16 384 / 65 536
/// against 4 096, ten alternating rounds each at seeds 42 and 7, read `run_s`
/// 1.007 / **0.936 and 0.974** / 0.982× on `tc_random` (16 384 ahead in 9 and
/// 10 rounds of ten), 1.019 / **0.975 and 0.964** / 0.998× on `security` (9
/// and 10), 1.029 / 0.998 and 0.985 / 0.993× on `pointsto` (6 and 7),
/// `rss_mb` within 0.6 % (EXPERIMENTS.md, "Key order by counting"; swept
/// while a batch was applied tuple by tuple). At most 640 KB (arity 5), and
/// as much again for the sort's scratch.
const EMIT_BATCH: usize = 16_384;

/// Bindings a block holds. Against a lookup per binding, the benchmark's
/// child (one worker, 12 rounds) read `run_s` 0.79 / 0.78 / 0.78 / 0.83× on
/// `security` and 0.81 / 0.81 / 0.79 / 0.79× on `tc_random` at 4 096 / 8 192
/// / 16 384 / 32 768, and 1 024 trailed (0.88 and 0.90×): this is the
/// smallest block on the plateau (EXPERIMENTS.md, "Reads by blocks"; swept
/// while only step 1 read by blocks; the layer is `ablation`'s group
/// `block_join`). Every keyed step's block has this size.
const BLOCK: usize = 4_096;

/// The emit batch's ceiling inside a block, past which a large fan-out is
/// flushed before the block ends. Below it the batch waits for the end: one
/// cut inside a block spans the block's key range, and flushing at
/// [`EMIT_BATCH`] inside blocks read 0.87 / 0.83× where waiting read 0.83 /
/// 0.80× on `security` / `tc_random` (the same child, 8 rounds).
const BATCH_CEILING: usize = 4 * EMIT_BATCH;

impl<'p, 'c> Evaluator<'p, 'c> {
    /// An evaluator of `plan` on one worker; `blocks` grows to a block per
    /// step.
    fn new(
        plan: &'p Plan,
        head: Head<'p>,
        stats: &'c mut EvalStats,
        buf: &'c mut EmitBuf,
        blocks: &mut Vec<Block>,
    ) -> Self {
        blocks.resize_with(blocks.len().max(plan.steps.len()), Block::default);
        let blocked = plan.steps.iter().skip(1).any(|s| s.key().is_some());
        let flush_at = if blocked { BATCH_CEILING } else { EMIT_BATCH };
        Evaluator {
            plan,
            head,
            stats,
            buf,
            flush_at,
        }
    }

    /// Takes tuple `t` of the scan at step `si` through the scan's binds
    /// and checks, and returns whether it passes them.
    #[inline]
    fn bind(&mut self, si: usize, t: &TupleBuf, vars: &mut [u64]) -> bool {
        let Step::Scan { checks, binds, .. } = &self.plan.steps[si] else {
            unreachable!("only scans produce tuples")
        };
        self.stats.tuples_scanned += 1;
        // Binds first: a check may reference a variable bound by an earlier
        // column of this very atom (repeated variables, e.g. `e(X, X)`).
        // Binds and checks never target the same variable, so this order is
        // always safe.
        for (col, var) in binds {
            vars[*var] = t[*col];
        }
        checks.iter().all(|(col, slot)| t[*col] == slot.value(vars))
    }

    /// Takes tuple `t` of the scan at step `si` through the scan's binds
    /// and checks and, if it passes, through the steps after it; `sites`
    /// and `blocks` start at step `si + 1`'s.
    #[inline]
    fn join(
        &mut self,
        si: usize,
        t: &TupleBuf,
        vars: &mut [u64],
        sites: &mut [Option<Site<'_>>],
        blocks: &mut [Block],
    ) {
        if self.bind(si, t, vars) {
            self.run_from(si + 1, vars, sites, blocks);
        }
    }

    /// Runs steps `si..` and the emit for the binding `vars`. A keyed step
    /// adds the binding to its block and runs that block once it is full.
    #[inline]
    fn run_from(
        &mut self,
        si: usize,
        vars: &mut [u64],
        sites: &mut [Option<Site<'_>>],
        blocks: &mut [Block],
    ) {
        let plan = self.plan;
        match plan.steps.get(si).map(Step::key) {
            None => self.emit(vars),
            Some(Some(key)) => {
                if blocks[0].push(key, vars) {
                    self.run_block(si, vars, sites, blocks);
                }
            }
            Some(None) => self.run_in_place(si, vars, sites, blocks),
        }
    }

    /// Runs step `si`, a filter or an unprefixed scan, and the steps after
    /// it for the binding `vars`.
    fn run_in_place(
        &mut self,
        si: usize,
        vars: &mut [u64],
        sites: &mut [Option<Site<'_>>],
        blocks: &mut [Block],
    ) {
        let (site, rest) = sites.split_first_mut().expect("a site per step");
        let deeper = &mut blocks[1..];
        match (&self.plan.steps[si], site) {
            (Step::Filter { op, lhs, rhs }, _) => {
                if op.eval(lhs.value(vars), rhs.value(vars)) {
                    self.run_from(si + 1, vars, rest, deeper);
                }
            }
            (Step::Scan { index, .. }, Some(site)) => {
                // A sweep per binding, the join inside its callback. Not `&[]`:
                // hash sets swept 3× slower with it (EXPERIMENTS.md, "Figure 5").
                self.stats.lower_bound_calls += 1;
                self.stats.inner_scans_full += 1;
                let all = &[0][..0];
                site.range(index, all, &mut |t| self.join(si, t, vars, rest, deeper));
            }
            _ => unreachable!("a check has a key, a scan a site"),
        }
    }

    /// Runs the keyed step `si` and the steps after it for every binding in
    /// its block, and empties it. Sorted by the step's key, each distinct
    /// key is looked up once: a scan reads its range into a buffer (one
    /// `lower_bound_calls` and `upper_bound_calls` each), a check makes one
    /// `contains` (one `membership_tests`). Every binding under the key is
    /// then replayed into the next step (one `inner_scans_indexed` each for
    /// a scan). The emit batch is flushed between blocks.
    fn run_block(
        &mut self,
        si: usize,
        vars: &mut [u64],
        sites: &mut [Option<Site<'_>>],
        blocks: &mut [Block],
    ) {
        let step = &self.plan.steps[si];
        let (Some(site), rest) = sites.split_first_mut().expect("a site per step") else {
            unreachable!("keyed steps have a site")
        };
        let (block, deeper) = blocks.split_first_mut().expect("a block per step");
        let Block { envs, keys, range } = block;
        if keys.is_empty() {
            return;
        }
        let (width, nvars) = (step.key().map_or(0, <[Slot]>::len) + 1, vars.len());
        // Every tuple ends in where its binding starts: none is a repeat.
        sort_distinct(keys, width, &mut self.buf.scratch);
        let mut at = 0;
        while at < keys.len() {
            let key = &keys[at..at + width - 1];
            let run = keys[at..].chunks_exact(width);
            let end = at + run.take_while(|k| k[..width - 1] == *key).count() * width;
            let envs_at = keys[at..end]
                .chunks_exact(width)
                .map(|k| k[width - 1] as usize);
            match step {
                Step::Scan { index, .. } => {
                    range.clear();
                    site.range(index, key, &mut |t| range.push(*t));
                    self.stats.lower_bound_calls += 1;
                    self.stats.upper_bound_calls += 1;
                    for env in envs_at {
                        vars.copy_from_slice(&envs[env..][..nvars]);
                        self.stats.inner_scans_indexed += 1;
                        for t in range.iter() {
                            self.join(si, t, vars, rest, deeper);
                        }
                    }
                }
                Step::Check { negated, .. } => {
                    let mut t = [0u64; MAX_ARITY];
                    t[..key.len()].copy_from_slice(key);
                    self.stats.membership_tests += 1;
                    if site.src.contains(&t, &mut site.ctx) != *negated {
                        for env in envs_at {
                            vars.copy_from_slice(&envs[env..][..nvars]);
                            self.run_from(si + 1, vars, rest, deeper);
                        }
                    }
                }
                Step::Filter { .. } => unreachable!("a filter has no key"),
            }
            at = end;
        }
        // The binding that filled the block may be in the middle of a
        // replay above it, which goes on with the environment it pushed.
        vars.copy_from_slice(&envs[envs.len() - nvars..]);
        keys.clear();
        envs.clear();
        if self.buf.batch.len() >= EMIT_BATCH * self.plan.head_slots.len().max(1) {
            self.flush();
        }
    }

    /// Runs what waits in the blocks of steps `si..`, step by step, since a
    /// block's replay fills the blocks below it, and flushes the emit batch.
    fn finish(
        &mut self,
        si: usize,
        vars: &mut [u64],
        sites: &mut [Option<Site<'_>>],
        blocks: &mut [Block],
    ) {
        for j in si..self.plan.steps.len() {
            if self.plan.steps[j].key().is_some() {
                self.run_block(j, vars, &mut sites[j - si..], &mut blocks[j - si..]);
            }
        }
        self.flush();
    }

    /// Emits the head tuple into the batch.
    fn emit(&mut self, vars: &[u64]) {
        let head = &self.plan.head_slots;
        let width = head.len().max(1); // a nullary head is one zero column
        let batch = &mut self.buf.batch;
        let at = batch.len();
        batch.resize(at + width, 0);
        for (w, slot) in batch[at..].iter_mut().zip(head) {
            *w = slot.value(vars);
        }
        if batch.len() >= self.flush_at * width {
            self.flush();
        }
    }

    /// Applies the batch as one run: sorted, each distinct tuple once, then
    /// the Figure 1 pattern — check the full relation, insert into `new`
    /// when unseen — as one anti-join over `full` and one merge of what is
    /// left into `new`: two calls a batch, each tree visited leaf group by
    /// leaf group, not one call and one probe per tuple. Deferring them
    /// changes no result: nothing a plan reads is written while it runs
    /// ([`StorageEnv::bind`]). Every plan execution ends with a flush, so
    /// `new` is complete when [`eval_plan`] returns.
    fn flush(&mut self) {
        let EmitBuf { batch, scratch } = &mut *self.buf;
        let width = self.plan.head_slots.len().max(1);
        let distinct = sort_distinct(batch, width, scratch);
        let run = &mut batch[..distinct * width];
        let kept = self.head.full.retain_absent(run, width);
        let added = self.head.new.insert_run(&run[..kept * width], width);
        self.stats.membership_tests += distinct as u64;
        self.stats.inserts += kept as u64;
        self.stats.tuples_emitted += added;
        batch.clear();
    }
}

/// Sorts `batch` — tuples of `width` words each, end to end — ascending,
/// moves each distinct tuple once to its front and returns how many there
/// are; `scratch` as for [`specbtree::sort_tuples`]. An arm per width, as in
/// [`StorageKind::create_for`](crate::storage::StorageKind::create_for).
fn sort_distinct(batch: &mut [u64], width: usize, scratch: &mut Vec<u64>) -> usize {
    fn distinct<const K: usize>(batch: &mut [u64], scratch: &mut Vec<u64>) -> usize {
        let (tuples, _) = batch.as_chunks_mut::<K>();
        specbtree::sort_tuples(tuples, scratch);
        let mut n = tuples.len().min(1);
        for i in 1..tuples.len() {
            if tuples[i] != tuples[n - 1] {
                tuples[n] = tuples[i];
                n += 1;
            }
        }
        n
    }
    match width {
        0 | 1 => distinct::<1>(batch, scratch),
        2 => distinct::<2>(batch, scratch),
        3 => distinct::<3>(batch, scratch),
        4 => distinct::<4>(batch, scratch),
        5 => distinct::<5>(batch, scratch),
        _ => distinct::<{ MAX_ARITY + 1 }>(batch, scratch),
    }
}

/// Stores `tuples` in `dst` as one sorted run of its width and returns how
/// many were new: how loaded facts and every retraction write reach a
/// relation, the way a flushed batch reaches `new`.
pub(crate) fn insert_tuples(dst: &dyn RelationStorage, tuples: &[TupleBuf]) -> u64 {
    let width = dst.width();
    let mut run: Vec<u64> = tuples.iter().flat_map(|t| &t[..width]).copied().collect();
    let distinct = sort_distinct(&mut run, width, &mut Vec::new());
    dst.insert_run(&run[..distinct * width], width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn rel_ids(names: &[&str]) -> HashMap<String, usize> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), i))
            .collect()
    }

    /// The source-order plan of every semi-naive version of `rule`.
    fn compile_versions(
        rule: &Rule,
        rel_ids: &HashMap<String, usize>,
        stratum_rels: &[usize],
    ) -> Vec<Plan> {
        delta_positions(rule, rel_ids, stratum_rels)
            .into_iter()
            .map(|p| compile_one(rule, rel_ids, p))
            .collect()
    }

    #[test]
    fn compile_nonrecursive_single_version() {
        let p =
            parse(".decl edge(x:n, y:n)\n.decl path(x:n, y:n)\npath(X,Y) :- edge(X,Y).").unwrap();
        let ids = rel_ids(&["edge", "path"]);
        let plans = compile_versions(&p.rules[0], &ids, &[1]);
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.nvars, 2);
        assert!(matches!(
            &plan.steps[0],
            Step::Scan { rel: 0, delta: false, prefix, binds, .. }
                if prefix.is_empty() && binds.len() == 2
        ));
    }

    #[test]
    fn compile_recursive_versions_hoist_delta() {
        let p = parse(
            ".decl edge(x:n, y:n)\n.decl path(x:n, y:n)\n\
             path(X,Z) :- path(X,Y), edge(Y,Z).",
        )
        .unwrap();
        let ids = rel_ids(&["edge", "path"]);
        let plans = compile_versions(&p.rules[0], &ids, &[1]);
        assert_eq!(plans.len(), 1, "one recursive occurrence, one version");
        let plan = &plans[0];
        // Step 0: delta scan of path; step 1: edge scan with bound prefix Y.
        assert!(matches!(
            &plan.steps[0],
            Step::Scan {
                rel: 1,
                delta: true,
                ..
            }
        ));
        match &plan.steps[1] {
            Step::Scan {
                rel: 0,
                delta: false,
                prefix,
                ..
            } => assert_eq!(prefix.len(), 1, "Y binds edge's first column"),
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn compile_two_recursive_occurrences_two_versions() {
        let p = parse(".decl p(x:n, y:n)\np(X,Z) :- p(X,Y), p(Y,Z).").unwrap();
        let ids = rel_ids(&["p"]);
        let plans = compile_versions(&p.rules[0], &ids, &[0]);
        assert_eq!(plans.len(), 2);
        assert!(matches!(&plans[0].steps[0], Step::Scan { delta: true, .. }));
        assert!(matches!(&plans[1].steps[0], Step::Scan { delta: true, .. }));
    }

    #[test]
    fn compile_constant_prefix_and_checks() {
        let p = parse(".decl r(a:n, b:n, c:n)\n.decl out(x:n)\nout(X) :- r(7, X, 7).").unwrap();
        let ids = rel_ids(&["r", "out"]);
        let plans = compile_versions(&p.rules[0], &ids, &[1]);
        match &plans[0].steps[0] {
            Step::Scan {
                prefix,
                checks,
                binds,
                ..
            } => {
                assert_eq!(prefix, &vec![Slot::Const(7)]);
                assert_eq!(checks, &vec![(2, Slot::Const(7))]);
                assert_eq!(binds, &vec![(1, 0)]);
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn compile_repeated_variable_becomes_check() {
        let p = parse(".decl r(a:n, b:n)\n.decl out(x:n)\nout(X) :- r(X, X).").unwrap();
        let ids = rel_ids(&["r", "out"]);
        let plans = compile_versions(&p.rules[0], &ids, &[1]);
        match &plans[0].steps[0] {
            Step::Scan { checks, binds, .. } => {
                assert_eq!(binds, &vec![(0, 0)]);
                assert_eq!(checks, &vec![(1, Slot::Var(0))]);
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn compile_negated_literal_is_check() {
        let p =
            parse(".decl a(x:n)\n.decl b(x:n)\n.decl out(x:n)\nout(X) :- a(X), !b(X).").unwrap();
        let ids = rel_ids(&["a", "b", "out"]);
        let plans = compile_versions(&p.rules[0], &ids, &[2]);
        assert!(matches!(
            &plans[0].steps[1],
            Step::Check {
                rel: 1,
                negated: true,
                ..
            }
        ));
    }

    #[test]
    fn compile_fully_bound_positive_is_check() {
        let p = parse(".decl a(x:n)\n.decl b(x:n)\n.decl out(x:n)\nout(X) :- a(X), b(X).").unwrap();
        let ids = rel_ids(&["a", "b", "out"]);
        let plans = compile_versions(&p.rules[0], &ids, &[2]);
        assert!(matches!(
            &plans[0].steps[1],
            Step::Check {
                rel: 1,
                negated: false,
                ..
            }
        ));
    }
}
