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
//! ([`RelationStorage::scan_chunk`]) with no intermediate tuple buffer; the
//! rest of the join runs inside that walk. Every later scan and check takes
//! the bindings that reach it a sorted block at a time, one range query or
//! membership test per distinct key where Figure 1 issues one per binding.
//! Every scan reads the relation's one tree, through no secondary index. A
//! scan with no bound prefix reads its relation once a block: keyed by the
//! columns fixed before it (a *keyed sweep*), it keeps only the tuples that
//! match one of the block's keys and replays each under its key; with
//! nothing fixed it replays the whole relation for every binding. A lone
//! worker's blocks and emit batch span its chunks, and every lookup goes
//! through the tree's unhinted operations: a block's sorted keys already
//! hold the locality the paper's thread-local hints cache. Every worker
//! sorts its head tuples a batch at a time and appends each batch, as a
//! sorted run, to a buffer of its own: a flush touches no shared structure.
//! At the iteration's end one call per relation ([`merge_runs`]) merges
//! every worker's runs into the full relation, key range by key range,
//! the ranges claimed off one cursor by the workers, and writes what each
//! run added into the next
//! delta — Figure 1's `!path.contains(t)` and its `newPath.insert(t)` and
//! `path.insert(newPath)` are that one merge, and a derived tuple meets the
//! full relation once. Reads (scans over stable relations) and writes (the
//! merge, after every plan has run) never overlap — the two-phase property
//! (§2) the B-tree's synchronization is specialized for.

use crate::ast::{CmpOp, Rule, Term, MAX_ARITY};
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

/// One step of a compiled plan.
#[derive(Clone, Debug)]
pub(crate) enum Step {
    /// Scan a relation with the leading `prefix` bound; `checks` are
    /// equality constraints on later columns; `binds` assign columns to
    /// fresh variables. A *keyed sweep* — an inner scan with no bound
    /// leading column but columns fixed before it runs — names those
    /// columns in `swept`, and `prefix` holds their values: its block reads
    /// the relation once and keeps the tuples that match one of its keys.
    Scan {
        rel: usize,
        delta: bool,
        prefix: Vec<Slot>,
        swept: Vec<usize>,
        checks: Vec<(usize, Slot)>,
        binds: Vec<(usize, usize)>,
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

/// Compiles one version with a fully explicit literal evaluation order
/// (`order[0]` becomes the outermost loop): the cost-based planner's, or
/// [`source_order`] with the planner off. The retraction machinery picks
/// delta positions itself (its synthetic rules carry appended/prepended
/// literals that must never drive a delta). Every scan is served by the
/// primary tree: its bound leading columns as a prefix, the rest as checks;
/// an inner scan with no bound leading column but a column fixed before it
/// — a constant or a variable bound by an earlier literal — becomes a keyed
/// sweep, its fixed columns moved from `checks` into its key.
///
/// The delta literal must come first: a plan reads its delta only at its
/// first scan or check, the outer loop of Figure 1, so a delta is only ever
/// iterated or, fully bound by constants, probed once.
pub(crate) fn compile_ordered(
    rule: &Rule,
    rel_ids: &HashMap<String, usize>,
    delta_pos: Option<usize>,
    order: &[usize],
) -> Plan {
    debug_assert_eq!(order.len(), rule.body.len());
    assert!(
        delta_pos.is_none_or(|p| order.first() == Some(&p)),
        "the delta literal is the outermost: {order:?} for {delta_pos:?}"
    );
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
        // post-scan check, never a sweep's key.
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
        let mut swept = Vec::new();
        if li != order[0] && prefix.is_empty() {
            let is_fixed = |&(c, _): &(usize, Slot)| fixed & (1 << c) != 0;
            (swept, prefix) = checks.iter().filter(|s| is_fixed(s)).copied().unzip();
            checks.retain(|s| !is_fixed(s));
        }
        steps.push(Step::Scan {
            rel,
            delta,
            prefix,
            swept,
            checks,
            binds,
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

/// The relation whose delta the plan reads, if any: its first scan or
/// check is the only step that may read one ([`compile_ordered`]).
pub(crate) fn plan_delta_rel(plan: &Plan) -> Option<usize> {
    let storage = |s: &&Step| !matches!(s, Step::Filter { .. });
    match plan.steps.iter().find(storage)? {
        Step::Scan {
            rel, delta: true, ..
        }
        | Step::Check {
            rel, delta: true, ..
        } => Some(*rel),
        _ => None,
    }
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
                    swept,
                    checks,
                    binds,
                } => {
                    let src = if *delta {
                        format!("Δ{}", names[*rel])
                    } else {
                        names[*rel].to_string()
                    };
                    let mut detail = Vec::new();
                    if !swept.is_empty() {
                        detail.push(format!(
                            "key=({})",
                            swept
                                .iter()
                                .zip(prefix)
                                .map(|(c, s)| format!("#{c}={}", slot(s)))
                                .collect::<Vec<_>>()
                                .join(",")
                        ));
                    } else if !prefix.is_empty() {
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
                    let kind = match prefix.len() > swept.len() {
                        true => "range",
                        false => "scan",
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

/// The delta tables of one evaluation round, by relation id (`None` where
/// the round has none).
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
}

/// The storage step `i` of a plan goes to, at index `i`; `None` for a
/// filter, which touches no storage.
type Bound<'a> = Option<&'a dyn RelationStorage>;

impl<'a> StorageEnv<'a> {
    /// The storage every step of `plan` goes to, resolved once per plan
    /// execution.
    ///
    /// Scans and membership tests read `full` and `delta`; head tuples go
    /// to the worker's own runs, which no plan reads, and reach a relation
    /// only in the merge after every plan has run: the two-phase property
    /// (§2) that lets the join run inside the outer scan's walk and
    /// bindings wait for their blocks: nothing a plan reads changes under
    /// it.
    ///
    /// The first scan or check reads the delta if the plan has one
    /// ([`plan_delta_rel`]); every later one reads `full`.
    fn bind(&self, plan: &Plan) -> Vec<Bound<'a>> {
        let mut delta = plan_delta_rel(plan).map(|r| side_table(self.delta, r));
        plan.steps
            .iter()
            .map(|step| match step {
                Step::Scan { rel, .. } | Step::Check { rel, .. } => {
                    Some(delta.take().unwrap_or(self.full[*rel]))
                }
                Step::Filter { .. } => None,
            })
            .collect()
    }
}

/// Reads the tuples `src` holds under `prefix` into `out`. The callback only
/// copies: no storage is called from inside another's callback, but for the
/// outer scan's.
fn read_range(
    src: &dyn RelationStorage,
    prefix: &[u64],
    ctx: &mut StorageCtx,
    out: &mut Vec<TupleBuf>,
) {
    out.clear();
    src.scan_prefix(prefix, ctx, &mut |t| out.push(*t));
}

/// One pass of a keyed sweep over `src`: copies into `out`, in the order
/// the pass reads them, the tuples whose `swept` columns hold the key of a
/// binding in `keys` — a block's, sorted, each binding's key followed by
/// one word — each with where the first binding under its key starts in
/// `keys`, and returns how many tuples the pass read. Keys are found
/// through `table`, open addressing at four slots or more a distinct key.
/// Copied during the pass and replayed after it, as a range is: a locked
/// kind holds its lock while it scans.
fn sweep(
    src: &dyn RelationStorage,
    swept: &[usize],
    keys: &[u64],
    table: &mut Vec<u64>,
    ctx: &mut StorageCtx,
    out: &mut Vec<(usize, TupleBuf)>,
) -> u64 {
    let (k, width) = (swept.len(), swept.len() + 1);
    let firsts = || {
        let starts = (0..keys.len()).step_by(width);
        starts.filter(|&at| at == 0 || keys[at - width..][..k] != keys[at..][..k])
    };
    let slots = (4 * firsts().count()).next_power_of_two();
    let slot = |key: &[u64]| {
        let h = key
            .iter()
            .fold(0, |h: u64, &v| (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (h >> (64 - slots.trailing_zeros())) as usize
    };
    table.clear();
    table.resize(slots, 0);
    for at in firsts() {
        let mut s = slot(&keys[at..][..k]);
        while table[s] != 0 {
            s = (s + 1) & (slots - 1);
        }
        table[s] = at as u64 + 1;
    }
    let (mut read, mut key) = (0, [0; MAX_ARITY]);
    out.clear();
    src.scan_prefix(&[], ctx, &mut |t| {
        read += 1;
        key.iter_mut().zip(swept).for_each(|(v, &c)| *v = t[c]);
        let mut s = slot(&key[..k]);
        while let Some(at) = table[s].checked_sub(1).map(|at| at as usize) {
            if keys[at..][..k] == key[..k] {
                return out.push((at, *t));
            }
            s = (s + 1) & (slots - 1);
        }
    });
    read
}

/// What one worker keeps from one plan execution to the next, each buffer
/// for its allocation (a fresh buffer of up to 640 KB per execution is an
/// `mmap` each).
#[derive(Default)]
pub(crate) struct Worker {
    /// The join's operations.
    pub stats: EvalStats,
    /// What the emit batch's and every block's sort ping-pongs with.
    scratch: Vec<u64>,
    /// A block of bindings per step.
    blocks: Vec<Block>,
    /// The runs this worker's flushes appended, by head relation id, until
    /// the iteration's merge takes them ([`merge_runs`]).
    runs: Vec<Runs>,
}

impl Worker {
    /// Appends `tuples`, cut to `width` words, as a run of this worker's for
    /// head `head`, sorted and each distinct tuple once, as a flush does.
    pub(crate) fn append(&mut self, head: usize, width: usize, tuples: &[TupleBuf]) {
        let runs = runs_of(&mut self.runs, head);
        runs.words.extend(tuples.iter().flat_map(|t| &t[..width]));
        runs.seal(width, &mut self.scratch);
    }
}

/// One worker's sorted runs for one head relation, end to end in one
/// buffer at the head's arity, followed by the emit batch that will be the
/// next run. While the buffer holds no more tuples than the iterations'
/// merges have added to the relation (`merged`), its runs stay apart. Past
/// that, a run no shorter than the one before it is merged into it,
/// repeats dropped, back to the last run sealed below the mark: past the
/// mark the runs shrink from first to last, each a set of what the worker
/// derived, and a buffer that derives the same tuples again stops growing.
/// Kept flat, a closure that re-derives most of its relation each round
/// held every derivation (peak RSS 14 → 362 MiB on the symmetric closure
/// of a 300-vertex graph); merged from the first run, `tc_random` paid 8 %
/// of `run_s` in moves that found few repeats (DESIGN.md, "What the runs
/// cost").
#[derive(Default)]
struct Runs {
    words: Vec<u64>,
    /// Where each run ends in `words`.
    ends: Vec<usize>,
    /// How many of the runs were sealed below the mark, and stay apart.
    apart: usize,
    /// The tuples the merges of the worker's runs added to the relation.
    merged: usize,
}

impl Runs {
    /// Where the emit batch starts: after the last run.
    fn batch_start(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Sorts the emit batch, keeps each distinct tuple of `width` words
    /// once and makes it a run, past the mark merged into the runs before
    /// it while it is no shorter than the last of them; returns the batch's
    /// distinct tuples.
    fn seal(&mut self, width: usize, scratch: &mut Vec<u64>) -> usize {
        let start = self.batch_start();
        let distinct = sort_batch(&mut self.words[start..], width, width, scratch);
        self.words.truncate(start + distinct * width);
        if distinct > 0 {
            self.ends.push(self.words.len());
        }
        if self.words.len() <= self.merged * width {
            self.apart = self.ends.len();
        }
        while let [.., mid, hi] = self.ends[self.apart..] {
            let lo = self.ends.len().checked_sub(3).map_or(0, |i| self.ends[i]);
            if hi - mid < mid - lo {
                break;
            }
            scratch.clear();
            scratch.reserve_exact(mid - lo);
            scratch.extend_from_slice(&self.words[lo..mid]);
            let end = merge_sorted(scratch, &mut self.words[lo..hi], width);
            self.words.truncate(lo + end);
            self.ends.pop();
            *self.ends.last_mut().expect("two runs were merged") = self.words.len();
        }
        distinct
    }

    /// The runs, in the order they were sealed.
    fn iter(&self) -> impl Iterator<Item = &[u64]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(a, &b)| &self.words[a..b])
    }
}

/// The runs of head `head` in `runs`, which grows to hold them.
fn runs_of(runs: &mut Vec<Runs>, head: usize) -> &mut Runs {
    if runs.len() <= head {
        runs.resize_with(head + 1, Runs::default);
    }
    &mut runs[head]
}

/// Merges the runs every worker appended for head `head` into `into` on up
/// to `threads` threads and writes what each run added into `delta`, when
/// there is one, as a run ([`RelationStorage::merge_runs`]): Figure 1's
/// `contains` and `insert` of every tuple the iteration derived. Empties the
/// workers' runs of `head`, keeping their allocation, and returns how many
/// tuples were added, which `stats` counts as emitted and as inserted into
/// `into` and into `delta`: `path.insert(newPath)` and `newPath.insert(t)`.
pub(crate) fn merge_runs(
    workers: &mut [Worker],
    head: usize,
    into: &dyn RelationStorage,
    delta: Option<&dyn RelationStorage>,
    threads: usize,
    stats: &mut EvalStats,
) -> u64 {
    let of = workers.iter().filter_map(|w| w.runs.get(head));
    let runs: Vec<&[u64]> = of.flat_map(Runs::iter).collect();
    let added = into.merge_runs(&runs, delta, threads);
    for runs in workers.iter_mut().filter_map(|w| w.runs.get_mut(head)) {
        runs.words.clear();
        runs.ends.clear();
        runs.apart = 0;
        runs.merged += added as usize;
    }
    stats.tuples_emitted += added;
    stats.inserts += added * (1 + u64::from(delta.is_some()));
    added
}

/// Bindings that reached a scan or a check ([`Step::key`]) and wait for it
/// to look each distinct key up once for all of them.
#[derive(Default)]
struct Block {
    /// Each binding's environment, `nvars` words, end to end.
    envs: Vec<u64>,
    /// `(key…, where the binding's environment starts in envs)` per
    /// binding, end to end: pushed with ascending offsets, then sorted on
    /// the key alone with the emit batch's scratch.
    keys: Vec<u64>,
    /// The range of the key being replayed, for a scan: the whole relation
    /// for a sweep with no key.
    range: Vec<TupleBuf>,
    /// What a keyed sweep's pass kept: each tuple that matches a key of the
    /// block, with where the key's first binding starts in `keys`.
    kept: Vec<(usize, TupleBuf)>,
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
    /// scan's bound prefix (empty for a sweep), a check's tuple. `None` for
    /// a filter, which runs per binding in place.
    fn key(&self) -> Option<&[Slot]> {
        match self {
            Step::Scan { prefix, .. } => Some(prefix),
            Step::Check { terms, .. } => Some(terms),
            Step::Filter { .. } => None,
        }
    }
}

/// One plan execution as every worker sees it: the outer scan's chunks
/// and the cursor they are claimed off.
struct Job<'a> {
    plan: &'a Plan,
    bound: Vec<Bound<'a>>,
    chunks: Vec<StorageChunk>,
    cursor: AtomicUsize,
    /// One worker claims every chunk: its blocks and batch span them.
    alone: bool,
}

/// Evaluates one plan over `env`, deriving tuples into the workers' runs,
/// with one worker per thread. This is where `datalog` spawns threads, and
/// the only place.
pub(crate) fn eval_plan(plan: &Plan, env: &StorageEnv<'_>, workers: &mut [Worker]) {
    let bound = env.bind(plan);
    let (Some(Step::Scan { prefix, .. }), Some(Some(outer))) = (plan.steps.first(), bound.first())
    else {
        // Degenerate plan (starts with a check): evaluate sequentially.
        let (mut evaluator, blocks) = Evaluator::new(plan, &bound, &mut workers[0]);
        let mut vars = vec![0u64; plan.nvars];
        evaluator.run_from(0, &mut vars, blocks);
        return evaluator.finish(0, &mut vars, blocks);
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
    /// left. Beside other workers it runs its blocks and batch at each
    /// chunk's end; alone, after its last chunk.
    fn run(&self, worker: &mut Worker) {
        let plan = self.plan;
        let outer = self.bound[0].expect("the outer scan's storage");
        let (mut evaluator, blocks) = Evaluator::new(plan, &self.bound, worker);
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
            outer.scan_chunk(chunk, &mut |t| {
                evaluator.join(0, t, &mut vars, inner_blocks)
            });
            if !self.alone {
                evaluator.finish(1, &mut vars, inner_blocks);
            }
            chunk_timer.observe(telemetry::Hist::EvalChunkNanos);
        }
        evaluator.finish(1, &mut vars, inner_blocks);
    }
}

/// The nested-loop join of one plan on one worker. The Table 2 operation
/// counts are taken here, where each storage call is issued. Steps `si..`
/// take `blocks` that start at step `si`'s.
struct Evaluator<'p, 'c> {
    plan: &'p Plan,
    /// The storage of every step ([`StorageEnv::bind`]).
    bound: &'p [Bound<'p>],
    /// The one context every lookup of this worker goes through.
    ctx: StorageCtx,
    stats: &'c mut EvalStats,
    scratch: &'c mut Vec<u64>,
    /// The worker's runs of the head relation, the emit batch at their end.
    out: &'c mut Runs,
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
/// `block_join`). Every keyed step's block has this size. A binding's
/// offset (up to this many times the plan's variables, 13–15 bits) is
/// never sorted on: offsets ascend as pushed, so a block sorts on the
/// key's digits alone.
pub(crate) const BLOCK: usize = 4_096;

/// The emit batch's ceiling inside a block, past which a large fan-out is
/// flushed before the block ends. Below it the batch waits for the end: one
/// cut inside a block spans the block's key range, and flushing at
/// [`EMIT_BATCH`] inside blocks read 0.87 / 0.83× where waiting read 0.83 /
/// 0.80× on `security` / `tc_random` (the same child, 8 rounds).
const BATCH_CEILING: usize = 4 * EMIT_BATCH;

impl<'p, 'c> Evaluator<'p, 'c> {
    /// An evaluator of `plan` on `worker`, and the worker's blocks, grown
    /// to a block per step.
    fn new(
        plan: &'p Plan,
        bound: &'p [Bound<'p>],
        worker: &'c mut Worker,
    ) -> (Self, &'c mut [Block]) {
        let blocks = &mut worker.blocks;
        blocks.resize_with(blocks.len().max(plan.steps.len()), Block::default);
        let blocked = plan.steps.iter().skip(1).any(|s| s.key().is_some());
        let flush_at = if blocked { BATCH_CEILING } else { EMIT_BATCH };
        let evaluator = Evaluator {
            plan,
            bound,
            ctx: StorageCtx,
            stats: &mut worker.stats,
            scratch: &mut worker.scratch,
            out: runs_of(&mut worker.runs, plan.head_rel),
            flush_at,
        };
        (evaluator, blocks)
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
    /// and checks and, if it passes, through the steps after it; `blocks`
    /// start at step `si + 1`'s.
    #[inline]
    fn join(&mut self, si: usize, t: &TupleBuf, vars: &mut [u64], blocks: &mut [Block]) {
        if self.bind(si, t, vars) {
            self.run_from(si + 1, vars, blocks);
        }
    }

    /// Runs steps `si..` and the emit for the binding `vars`. A scan or a
    /// check adds the binding to its block and runs that block once it is
    /// full; a filter runs in place.
    #[inline]
    fn run_from(&mut self, si: usize, vars: &mut [u64], blocks: &mut [Block]) {
        let plan = self.plan;
        match plan.steps.get(si) {
            None => self.emit(vars),
            Some(Step::Filter { op, lhs, rhs }) => {
                if op.eval(lhs.value(vars), rhs.value(vars)) {
                    self.run_from(si + 1, vars, &mut blocks[1..]);
                }
            }
            Some(step) => {
                let key = step.key().expect("a scan or a check has a key");
                if blocks[0].push(key, vars) {
                    self.run_block(si, vars, blocks);
                }
            }
        }
    }

    /// Runs step `si`, a scan or a check, and the steps after it for every
    /// binding in its block, and empties it. Sorted on the step's key alone
    /// — stably, so the bindings under a key replay in the order they were
    /// pushed — each distinct key is looked up once: a scan reads its range
    /// into a buffer (one `lower_bound_calls`, and one `upper_bound_calls`
    /// but for a sweep with no key, whose one empty key reads the whole
    /// relation), a check makes one `contains` (one `membership_tests`).
    /// Every binding under the key is then replayed into the next step (one
    /// `inner_scans_indexed` each for a range, `inner_scans_full` for a
    /// sweep). A keyed sweep instead reads its relation once for the whole
    /// block (one `lower_bound_calls`, every tuple read one
    /// `tuples_scanned`), keeping what matches a key ([`sweep`]), and
    /// replays each kept tuple into every binding under its key (one
    /// `inner_scans_full` a binding). The emit batch is flushed between
    /// blocks.
    fn run_block(&mut self, si: usize, vars: &mut [u64], blocks: &mut [Block]) {
        let step = &self.plan.steps[si];
        let src = self.bound[si].expect("a scan or a check has a storage");
        let (block, deeper) = blocks.split_first_mut().expect("a block per step");
        if block.keys.is_empty() {
            return;
        }
        let (width, nvars) = (step.key().map_or(0, <[Slot]>::len) + 1, vars.len());
        sort_batch(&mut block.keys, width, width - 1, self.scratch);
        if let Step::Scan { swept, .. } = step {
            if !swept.is_empty() {
                self.run_sweep(si, swept, width, block, vars, deeper);
                block.keys.clear(); // no key is looked up below
            }
        }
        let Block {
            envs, keys, range, ..
        } = block;
        let mut at = 0;
        while at < keys.len() {
            let key = &keys[at..at + width - 1];
            let run = keys[at..].chunks_exact(width);
            let end = at + run.take_while(|k| k[..width - 1] == *key).count() * width;
            let envs_at = keys[at..end]
                .chunks_exact(width)
                .map(|k| k[width - 1] as usize);
            match step {
                Step::Scan { .. } => {
                    read_range(src, key, &mut self.ctx, range);
                    let sweep = key.is_empty();
                    self.stats.lower_bound_calls += 1;
                    self.stats.upper_bound_calls += u64::from(!sweep);
                    for env in envs_at {
                        vars.copy_from_slice(&envs[env..][..nvars]);
                        match sweep {
                            true => self.stats.inner_scans_full += 1,
                            false => self.stats.inner_scans_indexed += 1,
                        }
                        for t in range.iter() {
                            self.join(si, t, vars, deeper);
                        }
                    }
                }
                Step::Check { negated, .. } => {
                    let mut t = [0u64; MAX_ARITY];
                    t[..key.len()].copy_from_slice(key);
                    self.stats.membership_tests += 1;
                    if src.contains(&t, &mut self.ctx) != *negated {
                        for env in envs_at {
                            vars.copy_from_slice(&envs[env..][..nvars]);
                            self.run_from(si + 1, vars, deeper);
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
        let batch = self.out.words.len() - self.out.batch_start();
        if batch >= EMIT_BATCH * self.plan.head_slots.len().max(1) {
            self.flush();
        }
    }

    /// Runs the keyed sweep at step `si` over `block`, its keys sorted
    /// (`width` words a binding): one pass ([`sweep`]), then each tuple it
    /// kept replayed into every binding under its key. Out of line: inlined
    /// into [`run_block`](Self::run_block), it pushed [`bind`](Self::bind)
    /// out of line on every range's replay, a call per scanned tuple.
    #[inline(never)]
    fn run_sweep(
        &mut self,
        si: usize,
        swept: &[usize],
        width: usize,
        block: &mut Block,
        vars: &mut [u64],
        deeper: &mut [Block],
    ) {
        let src = self.bound[si].expect("a scan has a storage");
        let kept = &mut block.kept;
        let read = sweep(src, swept, &block.keys, self.scratch, &mut self.ctx, kept);
        self.stats.lower_bound_calls += 1;
        self.stats.tuples_scanned += read;
        self.stats.inner_scans_full += (block.keys.len() / width) as u64;
        let nvars = vars.len();
        for &(at, t) in &block.kept {
            let key = &block.keys[at..at + width - 1];
            let run = block.keys[at..].chunks_exact(width);
            for k in run.take_while(|k| k[..width - 1] == *key) {
                vars.copy_from_slice(&block.envs[k[width - 1] as usize..][..nvars]);
                self.join(si, &t, vars, deeper);
            }
        }
    }

    /// Runs what waits in the blocks of steps `si..`, step by step, since a
    /// block's replay fills the blocks below it, and flushes the emit batch.
    fn finish(&mut self, si: usize, vars: &mut [u64], blocks: &mut [Block]) {
        for j in si..self.plan.steps.len() {
            if self.plan.steps[j].key().is_some() {
                self.run_block(j, vars, &mut blocks[j - si..]);
            }
        }
        self.flush();
    }

    /// Emits the head tuple into the batch.
    fn emit(&mut self, vars: &[u64]) {
        let head = &self.plan.head_slots;
        let width = head.len().max(1); // a nullary head is one zero column
        let words = &mut self.out.words;
        let at = words.len();
        words.resize(at + width, 0);
        for (w, slot) in words[at..].iter_mut().zip(head) {
            *w = slot.value(vars);
        }
        if words.len() - self.out.batch_start() >= self.flush_at * width {
            self.flush();
        }
    }

    /// Makes the batch a run of the worker's: sorted, each distinct tuple
    /// once. Nothing shared is touched: Figure 1's check of the full
    /// relation and its insert of what is unseen are the iteration's merge
    /// of every worker's runs ([`merge_runs`]), which counts what it adds.
    /// Deferring them changes no result: nothing a plan reads is written
    /// while it runs ([`StorageEnv::bind`]). Each distinct tuple of the
    /// batch counts as one membership test, here, whether or not runs
    /// merged past the mark ([`Runs`]) drop it again before the merge.
    fn flush(&mut self) {
        let width = self.plan.head_slots.len().max(1);
        let distinct = self.out.seal(width, self.scratch) as u64;
        self.stats.membership_tests += distinct;
    }
}

/// Sorts `batch` — tuples of `width` words each, end to end — on their
/// first `lead` words with [`specbtree::sort_tuples`] (`scratch` as there)
/// and returns how many tuples lead it: sorted whole (`lead == width`), each
/// distinct tuple moved once to the front; sorted on fewer words (a block's
/// keys, each ending in where its binding starts, so none is a repeat),
/// all of them. An arm per width, as in
/// [`StorageKind::create_for`](crate::storage::StorageKind::create_for).
fn sort_batch(batch: &mut [u64], width: usize, lead: usize, scratch: &mut Vec<u64>) -> usize {
    fn sort<const K: usize>(batch: &mut [u64], lead: usize, scratch: &mut Vec<u64>) -> usize {
        let (tuples, _) = batch.as_chunks_mut::<K>();
        specbtree::sort_tuples(tuples, lead, scratch);
        if lead < K {
            return tuples.len();
        }
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
        0 | 1 => sort::<1>(batch, lead, scratch),
        2 => sort::<2>(batch, lead, scratch),
        3 => sort::<3>(batch, lead, scratch),
        4 => sort::<4>(batch, lead, scratch),
        5 => sort::<5>(batch, lead, scratch),
        _ => sort::<{ MAX_ARITY + 1 }>(batch, lead, scratch),
    }
}

/// Merges the sorted run `a` into `buf`, whose tail past `a`'s length
/// holds a sorted run `b` — tuples of `width` words each, end to end, each
/// distinct within its run — and returns how many words of `buf` now hold
/// their union, sorted, each distinct tuple once. Written front to back: a
/// tuple is never written past the next one of `b` still to be read. An
/// arm per width, as in [`sort_batch`].
fn merge_sorted(a: &[u64], buf: &mut [u64], width: usize) -> usize {
    fn merge<const K: usize>(a: &[u64], buf: &mut [u64]) -> usize {
        let a = a.as_chunks::<K>().0;
        let buf = buf.as_chunks_mut::<K>().0;
        let (mut i, mut j, mut w) = (0, a.len(), 0);
        while i < a.len() && j < buf.len() {
            let order = a[i].cmp(&buf[j]);
            buf[w] = if order.is_le() { a[i] } else { buf[j] };
            w += 1;
            i += usize::from(order.is_le());
            j += usize::from(order.is_ge());
        }
        let rest = a.len() - i;
        buf[w..w + rest].copy_from_slice(&a[i..]);
        buf.copy_within(j.., w + rest);
        (w + rest + buf.len() - j) * K
    }
    match width {
        0 | 1 => merge::<1>(a, buf),
        2 => merge::<2>(a, buf),
        3 => merge::<3>(a, buf),
        4 => merge::<4>(a, buf),
        _ => merge::<MAX_ARITY>(a, buf),
    }
}

/// Stores `tuples` in `dst` as one sorted run of its width and returns how
/// many were new: how loaded facts and every retraction write reach a
/// relation, the way a flushed batch's run reaches its relation.
pub(crate) fn insert_tuples(dst: &dyn RelationStorage, tuples: &[TupleBuf]) -> u64 {
    let width = dst.width();
    let mut run: Vec<u64> = tuples.iter().flat_map(|t| &t[..width]).copied().collect();
    let distinct = sort_batch(&mut run, width, width, &mut Vec::new());
    dst.merge_runs(&[&run[..distinct * width]], None, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Below the mark a worker's runs stay apart; past it they merge and
    /// drop repeats, so a head that derives the same tuples batch after
    /// batch stops growing (flat, these 400 batches would hold 40 000
    /// tuples), every run still strictly ascending.
    #[test]
    fn runs_past_the_mark_merge_and_drop_repeats() {
        let (width, mut scratch) = (2, Vec::new());
        let mut runs = Runs {
            merged: 1_000,
            ..Runs::default()
        };
        let mut seal = |runs: &mut Runs, from: u64| {
            runs.words
                .extend((from..from + 100).rev().flat_map(|i| [i % 7, i]));
            runs.seal(width, &mut scratch)
        };
        for b in 0..10 {
            assert_eq!(seal(&mut runs, b * 100), 100);
        }
        assert_eq!(runs.ends.len(), 10, "below the mark the runs stay apart");
        for b in 0..390 {
            assert_eq!(seal(&mut runs, b % 10 * 100), 100);
        }
        assert!(
            runs.words.len() <= (1_000 + 3 * 1_000) * width,
            "{}",
            runs.words.len()
        );
        let mut all = std::collections::BTreeSet::new();
        for run in runs.iter() {
            let tuples: Vec<&[u64]> = run.chunks(width).collect();
            assert!(tuples.windows(2).all(|w| w[0] < w[1]), "a run ascends");
            all.extend(tuples);
        }
        let model: std::collections::BTreeSet<Vec<u64>> =
            (0..1_000).map(|i| vec![i % 7, i]).collect();
        assert!(all.iter().copied().eq(model.iter().map(Vec::as_slice)));
    }

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
            .map(|p| compile_ordered(rule, rel_ids, p, &source_order(rule.body.len(), p)))
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
