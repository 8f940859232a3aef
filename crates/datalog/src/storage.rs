//! Pluggable relation storage.
//!
//! The engine stores every relation through the [`RelationStorage`] trait,
//! mirroring how §4.3 of the paper swaps the data structure underneath the
//! Soufflé engine. Tuples are padded to a fixed [`MAX_ARITY`]-word buffer
//! (padding zeros never affect equality or lexicographic prefix order).
//!
//! Operations take a per-thread *context* created by
//! [`RelationStorage::make_ctx`]; the specialized B-tree keeps its operation
//! hints there (the paper's thread-local hints), other backends use a unit
//! context. Contexts are type-erased (`dyn Any`) so the evaluator stays
//! storage-agnostic.

use crate::ast::MAX_ARITY;
use baselines::gbtree::GBTreeSet;
use baselines::global_lock::GlobalLock;
use baselines::hashset::HashSet as OaHashSet;
use baselines::rbtree::RbTreeSet;
use baselines::splitorder::SplitOrderedSet;
use specbtree::{BTreeHints, BTreeSet, HintStats};
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// A tuple padded to the maximum arity.
pub type TupleBuf = [u64; MAX_ARITY];

/// Pads a tuple slice to a [`TupleBuf`].
pub fn pad(t: &[u64]) -> TupleBuf {
    let mut out = [0u64; MAX_ARITY];
    out[..t.len()].copy_from_slice(t);
    out
}

/// A per-thread operation context (hints for the specialized B-tree, unit
/// for everything else).
pub type StorageCtx = Box<dyn Any + Send>;

/// One unit of parallel scan work handed out by
/// [`RelationStorage::partition`] and consumed by
/// [`RelationStorage::scan_chunk`].
#[derive(Clone, Debug)]
pub struct StorageChunk {
    /// The shard that produced this chunk — `0` for every unsharded
    /// backend. [`RelationStorage::partition`] emits chunks grouped by
    /// this id, and the work-stealing scheduler uses it to drain a
    /// worker's home shard before stealing across shard boundaries.
    pub shard: usize,
    /// What the chunk actually covers.
    pub span: ChunkSpan,
}

/// The scan interval of one [`StorageChunk`].
#[derive(Clone, Debug)]
pub enum ChunkSpan {
    /// A half-open tuple interval `[lower, upper)` walked directly in an
    /// ordered backend (`None` bounds are unbounded). Produced natively by
    /// the specialized B-tree from its separator keys — no tuples are
    /// copied to build it.
    Range {
        /// Inclusive lower bound.
        lower: Option<TupleBuf>,
        /// Exclusive upper bound.
        upper: Option<TupleBuf>,
    },
    /// Fallback for backends without ordered range cursors: an index slice
    /// of a snapshot materialized once per `partition` call. The snapshot
    /// is shared (`Arc`), so workers scan it without re-entering the
    /// backend — important for globally locked backends whose callbacks
    /// would otherwise run under the lock.
    Materialized {
        /// The snapshot shared by all chunks of one `partition` call.
        tuples: Arc<Vec<TupleBuf>>,
        /// First index of this chunk's slice.
        start: usize,
        /// One past the last index of this chunk's slice.
        end: usize,
    },
}

/// Thread-safe tuple storage for one relation.
pub trait RelationStorage: Send + Sync {
    /// Creates a fresh per-thread context.
    fn make_ctx(&self) -> StorageCtx;

    /// Inserts `t`, returning `true` if newly inserted. Safe to call
    /// concurrently from many threads (each with its own context).
    fn insert(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool;

    /// Removes `t`, returning `true` if it was present (this call deleted
    /// it). Same concurrency contract as [`insert`](Self::insert): safe
    /// from many threads, each with its own context; racing removers of
    /// one tuple see exactly one `true`.
    fn remove(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool;

    /// Membership test. Safe under concurrency for tuples not being
    /// concurrently inserted.
    fn contains(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool;

    /// Calls `f` for every tuple whose leading words equal `prefix`.
    /// Quiescent phases only (the two-phase Datalog contract).
    fn scan_prefix(&self, prefix: &[u64], ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf));

    /// Splits the tuples matching `prefix` into at most `n` chunks for
    /// parallel scanning via [`scan_chunk`](Self::scan_chunk). Returns an
    /// empty vector when nothing matches. Quiescent phases only.
    ///
    /// Ordered backends split the key space itself (no tuples copied);
    /// this default materializes the prefix scan once into a shared
    /// snapshot and slices it — the pre-refactor behavior, kept for
    /// backends without ordered cursors.
    fn partition(&self, n: usize, prefix: &[u64]) -> Vec<StorageChunk> {
        let mut all = Vec::new();
        let mut ctx = self.make_ctx();
        self.scan_prefix(prefix, &mut ctx, &mut |t| all.push(*t));
        if all.is_empty() {
            return Vec::new();
        }
        let n = n.clamp(1, all.len());
        let tuples = Arc::new(all);
        let per = tuples.len().div_ceil(n);
        (0..n)
            .map(|i| StorageChunk {
                shard: 0,
                span: ChunkSpan::Materialized {
                    tuples: Arc::clone(&tuples),
                    start: i * per,
                    end: ((i + 1) * per).min(tuples.len()),
                },
            })
            .filter(|c| matches!(c.span, ChunkSpan::Materialized { start, end, .. } if start < end))
            .collect()
    }

    /// Calls `f` for every tuple in `chunk`, in backend order. Quiescent
    /// phases only. `ctx` keeps per-thread state (B-tree hints) warm
    /// across the many chunks one worker claims.
    fn scan_chunk(
        &self,
        chunk: &StorageChunk,
        _ctx: &mut StorageCtx,
        f: &mut dyn FnMut(&TupleBuf),
    ) {
        match &chunk.span {
            ChunkSpan::Materialized { tuples, start, end } => {
                for t in &tuples[*start..*end] {
                    f(t);
                }
            }
            // Generic backends never produce `Range` chunks, but honor one
            // robustly: full scan filtered to the interval.
            ChunkSpan::Range { lower, upper } => self.for_each(&mut |t| {
                if lower.as_ref().is_none_or(|lo| t >= lo) && upper.as_ref().is_none_or(|hi| t < hi)
                {
                    f(t);
                }
            }),
        }
    }

    /// Calls `f` for every stored tuple. Quiescent phases only.
    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf));

    /// Number of stored tuples. Quiescent phases only.
    fn len(&self) -> usize;

    /// Whether the relation is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hint statistics accumulated in `ctx`, if this backend keeps any.
    fn hint_stats(&self, _ctx: &StorageCtx) -> Option<HintStats> {
        None
    }

    /// Removes every tuple, retaining the backend's allocated capacity
    /// where it can. Returns `true` when the receiver is now empty and
    /// reusable; the default returns `false` ("not supported — allocate a
    /// fresh storage instead"), which keeps the pre-existing behavior for
    /// backends without a cheap reset.
    ///
    /// The engine uses this to recycle the per-stratum delta/new side
    /// tables across fixpoint iterations instead of allocating a fresh
    /// storage (and re-registering its indexes) every round.
    fn clear(&mut self) -> bool {
        false
    }

    /// The specialized B-tree behind this storage, if that is what backs
    /// it. Lets [`merge_from`](Self::merge_from) recognize tree-to-tree
    /// merges and route them through the structure-aware parallel merge;
    /// wrappers forward to their inner storage.
    fn as_spec_btree(&self) -> Option<&BTreeSet<MAX_ARITY>> {
        None
    }

    /// The sharded B-tree backend behind this storage, if that is what
    /// backs it — the sharded analog of
    /// [`as_spec_btree`](Self::as_spec_btree). Lets
    /// [`merge_from`](Self::merge_from)/[`retract_from`](Self::retract_from)
    /// recognize shard-aligned pairs and run shard-parallel with zero
    /// cross-shard locks; wrappers forward to their inner storage.
    fn as_sharded(&self) -> Option<&ShardedStorage> {
        None
    }

    /// Number of independent shards backing this storage (1 for every
    /// unsharded backend). The evaluator routes bulk fills and the
    /// scheduler's home-shard assignment through this.
    fn shard_count(&self) -> usize {
        1
    }

    /// Merges every tuple of `src` into `self` on up to `workers` threads,
    /// returning how many tuples were actually added — the engine's
    /// end-of-iteration `new → full` fold, with duplicate detection fused
    /// into the merge itself (no second counting pass).
    ///
    /// The default is the sequential per-tuple fallback every backend
    /// supports; the specialized B-tree overrides it with the parallel
    /// structure-aware merge when `src` is also a B-tree. `src` must be
    /// quiescent.
    fn merge_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        let _ = workers;
        merge_sequential(self, src)
    }

    /// Removes every tuple of `src` from `self` on up to `workers` threads,
    /// returning how many were actually present — the deletion dual of
    /// [`merge_from`](Self::merge_from), used by the engine's retraction
    /// pass to subtract an over-deletion set from a full relation. `src`
    /// must be quiescent.
    fn retract_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        let _ = workers;
        retract_sequential(self, src)
    }

    /// Registers a secondary index keyed by the column permutation `perm`
    /// (which must cover the relation's full declared arity), backfilling
    /// it from the current contents on up to `workers` threads. Returns
    /// the index id — stable for the life of the storage, and idempotent:
    /// re-registering an existing permutation returns its id without
    /// rebuilding. May be called between fixpoint iterations on a
    /// non-empty relation: the backfill reads the primary, and every later
    /// insert, merge and retraction keeps the index in step. The default
    /// returns `None` ("not supported"); a caller must only route
    /// [`scan_index`](Self::scan_index) through an id it was given here.
    /// Quiescent phases only.
    fn add_index(&mut self, perm: &[usize], workers: usize) -> Option<usize> {
        let _ = (perm, workers);
        None
    }

    /// The column permutations of every registered secondary index, in
    /// index-id order. Empty for backends without index support.
    fn index_perms(&self) -> Vec<Vec<usize>> {
        Vec::new()
    }

    /// Calls `f` for every tuple `t` with `t[perm[i]] == prefix[i]` for
    /// all `i < prefix.len()` — a prefix scan *in the permuted column
    /// order*, yielding tuples in their **original** column order.
    /// Backends with a registered index `index` serve this as a range scan
    /// of the permuted tree; the default filters a full scan — correct,
    /// but the cost of a full scan per call, which is why the planner
    /// never assigns an index [`add_index`](Self::add_index) did not
    /// register. Quiescent phases only.
    fn scan_index(
        &self,
        index: usize,
        perm: &[usize],
        prefix: &[u64],
        ctx: &mut StorageCtx,
        f: &mut dyn FnMut(&TupleBuf),
    ) {
        let _ = (index, ctx);
        self.for_each(&mut |t| {
            if prefix.iter().enumerate().all(|(i, &v)| t[perm[i]] == v) {
                f(t);
            }
        });
    }
}

/// The universal per-tuple merge fallback: iterate `src`, insert into
/// `dst`, count the tuples that were new.
fn merge_sequential(dst: &(impl RelationStorage + ?Sized), src: &dyn RelationStorage) -> u64 {
    let mut ctx = dst.make_ctx();
    let mut added = 0u64;
    src.for_each(&mut |t| {
        if dst.insert(t, &mut ctx) {
            added += 1;
        }
    });
    added
}

/// The universal per-tuple retraction fallback: iterate `src`, remove from
/// `dst`, count the tuples that were present.
fn retract_sequential(dst: &(impl RelationStorage + ?Sized), src: &dyn RelationStorage) -> u64 {
    let mut ctx = dst.make_ctx();
    let mut removed = 0u64;
    src.for_each(&mut |t| {
        if dst.remove(t, &mut ctx) {
            removed += 1;
        }
    });
    removed
}

/// Which data structure backs each relation — the engine-level analog of
/// the paper's Table 1 contestants in the §4.3 experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// The specialized concurrent B-tree with operation hints (`btree`).
    SpecBTree,
    /// The specialized concurrent B-tree without hints (`btree (n/h)`).
    SpecBTreeNoHints,
    /// Red-black tree behind a global lock (`STL rbtset`).
    RbTreeLocked,
    /// Open-addressing hash set behind a global lock (`STL hashset`).
    HashSetLocked,
    /// The sequential Vec-node B-tree behind a global lock (`google btree`).
    GBTreeLocked,
    /// The lock-free split-ordered hash set (`TBB hashset`).
    ConcurrentHashSet,
    /// The specialized B-tree hash-partitioned across N independent
    /// per-shard trees (`btree (sharded)`).
    /// The payload is the shard count; `0` means *auto* — resolved to
    /// the worker-thread count by `Engine::new`.
    ShardedBTree(usize),
}

impl StorageKind {
    /// All kinds, in the order the paper's Figure 5 legend lists them.
    pub const ALL: [StorageKind; 6] = [
        StorageKind::SpecBTree,
        StorageKind::SpecBTreeNoHints,
        StorageKind::RbTreeLocked,
        StorageKind::HashSetLocked,
        StorageKind::GBTreeLocked,
        StorageKind::ConcurrentHashSet,
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            StorageKind::SpecBTree => "btree",
            StorageKind::SpecBTreeNoHints => "btree (n/h)",
            StorageKind::RbTreeLocked => "STL rbtset",
            StorageKind::HashSetLocked => "STL hashset",
            StorageKind::GBTreeLocked => "google btree",
            StorageKind::ConcurrentHashSet => "TBB hashset",
            StorageKind::ShardedBTree(_) => "btree (sharded)",
        }
    }

    /// Whether relations of this kind build secondary indexes — what
    /// [`RelationStorage::add_index`] answers with `Some`, known to the
    /// planner before any relation exists (the `all_backends_conform` test
    /// holds the two together). A non-prefix search on any other kind is costed
    /// and compiled as the filtered scan it is.
    pub(crate) fn supports_indexes(&self) -> bool {
        matches!(
            self,
            StorageKind::SpecBTree | StorageKind::SpecBTreeNoHints | StorageKind::ShardedBTree(_)
        )
    }

    /// Creates an empty relation of this kind.
    pub fn create(&self) -> Box<dyn RelationStorage> {
        match self {
            StorageKind::SpecBTree => Box::new(SpecBTreeStorage {
                tree: BTreeSet::new(),
                indexes: Vec::new(),
                hints: true,
            }),
            StorageKind::SpecBTreeNoHints => Box::new(SpecBTreeStorage {
                tree: BTreeSet::new(),
                indexes: Vec::new(),
                hints: false,
            }),
            StorageKind::RbTreeLocked => Box::new(LockedOrderedStorage(GlobalLock::new(
                RbTreeSet::<TupleBuf>::new(),
            ))),
            StorageKind::HashSetLocked => {
                Box::new(HashSetStorage(GlobalLock::new(OaHashSet::new())))
            }
            StorageKind::GBTreeLocked => Box::new(LockedOrderedStorage(GlobalLock::new(
                GBTreeSet::<TupleBuf>::new(),
            ))),
            StorageKind::ConcurrentHashSet => Box::new(ConcHashStorage(SplitOrderedSet::new())),
            StorageKind::ShardedBTree(n) => Box::new(ShardedStorage::new((*n).max(1))),
        }
    }
}

/// Computes the exclusive upper bound of a prefix range, or `None` when the
/// prefix is empty or saturated (scan to the end).
fn prefix_upper(prefix: &[u64]) -> Option<TupleBuf> {
    if prefix.is_empty() {
        return None;
    }
    let mut hi = pad(prefix);
    for i in (0..prefix.len()).rev() {
        let (v, overflow) = hi[i].overflowing_add(1);
        hi[i] = v;
        if !overflow {
            for w in hi[i + 1..].iter_mut() {
                *w = 0;
            }
            return Some(hi);
        }
    }
    None
}

// ---------------------------------------------------------------------
// Secondary index trees (column-permuted copies of the primary)
// ---------------------------------------------------------------------

/// One secondary index: a B-tree over column-permuted copies of the
/// primary tuples, so a search binding the permutation's leading columns
/// becomes an ordinary prefix range scan. `perm` covers the relation's
/// full declared arity — storing *whole* permuted tuples (not projections)
/// keeps the index a faithful bijection of the primary, which is what the
/// sync proptests pin.
struct IndexTree {
    perm: Vec<usize>,
    tree: BTreeSet<MAX_ARITY>,
}

/// Reorders `t` into index-key order: `out[i] = t[perm[i]]`.
#[inline]
fn permute_tuple(perm: &[usize], t: &TupleBuf) -> TupleBuf {
    let mut out = [0u64; MAX_ARITY];
    for (i, &c) in perm.iter().enumerate() {
        out[i] = t[c];
    }
    out
}

/// Inverts [`permute_tuple`]: `out[perm[i]] = p[i]`. Columns beyond the
/// declared arity are zero in every stored tuple, so this reconstructs
/// the original buffer exactly.
#[inline]
fn unpermute_tuple(perm: &[usize], p: &TupleBuf) -> TupleBuf {
    let mut out = [0u64; MAX_ARITY];
    for (i, &c) in perm.iter().enumerate() {
        out[c] = p[i];
    }
    out
}

impl IndexTree {
    #[inline]
    fn permute(&self, t: &TupleBuf) -> TupleBuf {
        permute_tuple(&self.perm, t)
    }

    #[inline]
    fn unpermute(&self, p: &TupleBuf) -> TupleBuf {
        unpermute_tuple(&self.perm, p)
    }
}

/// Sorts `tuples` and inserts them into `tree` on up to `workers` scoped
/// threads — the backfill path of `add_index`. Sorted, disjoint per-worker
/// runs make the hinted inserts near-sequential leaf appends.
/// Sorts ascending on up to `workers` threads: parallel chunk sorts
/// followed by parallel pairwise merges. Index backfill sorts millions of
/// permuted tuples in one shot, where a single-threaded `sort_unstable`
/// is the dominant cost of `add_index` on a populated relation.
fn par_sort_tuples(tuples: Vec<TupleBuf>, workers: usize) -> Vec<TupleBuf> {
    let n = tuples.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 || n < (1 << 15) {
        let mut t = tuples;
        t.sort_unstable();
        return t;
    }
    let per = n.div_ceil(workers);
    let mut runs: Vec<Vec<TupleBuf>> = tuples.chunks(per).map(<[TupleBuf]>::to_vec).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .drain(..)
            .map(|mut run| {
                s.spawn(move || {
                    run.sort_unstable();
                    run
                })
            })
            .collect();
        runs = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    while runs.len() > 1 {
        let odd = (runs.len() % 2 == 1).then(|| runs.pop().unwrap());
        let mut pairs = Vec::with_capacity(runs.len() / 2);
        while let (Some(b), Some(a)) = (runs.pop(), runs.pop()) {
            pairs.push((a, b));
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .into_iter()
                .map(|(a, b)| s.spawn(move || merge_two_sorted(a, b)))
                .collect();
            runs = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        runs.extend(odd);
    }
    runs.pop().unwrap_or_default()
}

fn merge_two_sorted(a: Vec<TupleBuf>, b: Vec<TupleBuf>) -> Vec<TupleBuf> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sorts, dedupes, and bulk-builds a packed tree from `tuples` in O(n)
/// — the backfill path for registering an index on a populated relation.
fn build_index_tree(tuples: Vec<TupleBuf>, workers: usize) -> BTreeSet<MAX_ARITY> {
    let mut sorted = par_sort_tuples(tuples, workers);
    sorted.dedup();
    BTreeSet::from_sorted(sorted)
}

fn bulk_insert_sorted(tree: &BTreeSet<MAX_ARITY>, mut tuples: Vec<TupleBuf>, workers: usize) {
    tuples.sort_unstable();
    tuples.dedup();
    let workers = workers.max(1).min(tuples.len().max(1));
    if workers == 1 {
        let mut hints = tree.create_hints();
        for t in &tuples {
            tree.insert_hinted(*t, &mut hints);
        }
        return;
    }
    let per = tuples.len().div_ceil(workers);
    std::thread::scope(|s| {
        for chunk in tuples.chunks(per) {
            s.spawn(move || {
                let mut hints = tree.create_hints();
                for t in chunk {
                    tree.insert_hinted(*t, &mut hints);
                }
            });
        }
    });
}

// ---------------------------------------------------------------------
// Specialized B-tree backend
// ---------------------------------------------------------------------

struct SpecBTreeStorage {
    tree: BTreeSet<MAX_ARITY>,
    indexes: Vec<IndexTree>,
    hints: bool,
}

/// Per-thread context for [`SpecBTreeStorage`]: hints for the primary
/// tree plus one hint set per secondary index. `idx` is extended lazily —
/// contexts created before an index registration grow the missing slots
/// on first use.
struct SpecCtx {
    main: BTreeHints<MAX_ARITY>,
    idx: Vec<BTreeHints<MAX_ARITY>>,
}

impl SpecBTreeStorage {
    #[inline]
    fn ctx_of(ctx: &mut StorageCtx) -> &mut SpecCtx {
        ctx.downcast_mut().expect("spec btree ctx")
    }

    /// The hint set for index `i`, growing the context if it predates the
    /// index registration.
    fn idx_hints<'c>(&self, ctx: &'c mut SpecCtx, i: usize) -> &'c mut BTreeHints<MAX_ARITY> {
        while ctx.idx.len() <= i {
            ctx.idx
                .push(self.indexes[ctx.idx.len()].tree.create_hints());
        }
        &mut ctx.idx[i]
    }

    /// Replays every tuple of `src` against all secondary indexes —
    /// insertion or removal mirroring the primary bulk op that bypassed
    /// the per-tuple [`RelationStorage::insert`] path. Parallel over
    /// source chunks; every worker touches every index tree (the trees
    /// are concurrent, so this contends instead of locking out).
    fn maintain_indexes(&self, src: &dyn RelationStorage, workers: usize, remove: bool) {
        if self.indexes.is_empty() || src.is_empty() {
            return;
        }
        let timer = telemetry::start_timer();
        let chunks = src.partition(workers.max(1) * 2, &[]);
        let work = |chunk: &StorageChunk,
                    sctx: &mut StorageCtx,
                    hints: &mut Vec<BTreeHints<MAX_ARITY>>| {
            src.scan_chunk(chunk, sctx, &mut |t| {
                for (ix, h) in self.indexes.iter().zip(hints.iter_mut()) {
                    let p = ix.permute(t);
                    if remove {
                        ix.tree.remove(&p);
                    } else {
                        ix.tree.insert_hinted(p, h);
                    }
                }
            });
        };
        let fresh_hints = || -> Vec<BTreeHints<MAX_ARITY>> {
            self.indexes
                .iter()
                .map(|ix| ix.tree.create_hints())
                .collect()
        };
        if workers <= 1 || chunks.len() <= 1 {
            let mut sctx = src.make_ctx();
            let mut hints = fresh_hints();
            for c in &chunks {
                work(c, &mut sctx, &mut hints);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers.min(chunks.len()) {
                    s.spawn(|| {
                        let mut sctx = src.make_ctx();
                        let mut hints = fresh_hints();
                        loop {
                            let i = cursor.fetch_add(1, Relaxed);
                            if i >= chunks.len() {
                                break;
                            }
                            work(&chunks[i], &mut sctx, &mut hints);
                        }
                    });
                }
            });
        }
        timer.observe(telemetry::Hist::EvalIndexMaintainNanos);
    }
}

impl RelationStorage for SpecBTreeStorage {
    fn make_ctx(&self) -> StorageCtx {
        Box::new(SpecCtx {
            main: self.tree.create_hints(),
            idx: self
                .indexes
                .iter()
                .map(|ix| ix.tree.create_hints())
                .collect(),
        })
    }

    fn insert(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool {
        let ctx = Self::ctx_of(ctx);
        let added = if self.hints {
            self.tree.insert_hinted(*t, &mut ctx.main)
        } else {
            self.tree.insert(*t)
        };
        if added {
            for i in 0..self.indexes.len() {
                let p = self.indexes[i].permute(t);
                if self.hints {
                    let h = self.idx_hints(ctx, i);
                    self.indexes[i].tree.insert_hinted(p, h);
                } else {
                    self.indexes[i].tree.insert(p);
                }
            }
        }
        added
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        // No hinted variant: the removal protocol's restart-on-conflict
        // descent re-validates from the root, so a cached leaf lease buys
        // nothing and may be mid-unlink.
        let removed = self.tree.remove(t);
        if removed {
            for ix in &self.indexes {
                ix.tree.remove(&ix.permute(t));
            }
        }
        removed
    }

    fn contains(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool {
        let ctx = Self::ctx_of(ctx);
        if self.hints {
            self.tree.contains_hinted(t, &mut ctx.main)
        } else {
            self.tree.contains(t)
        }
    }

    fn scan_prefix(&self, prefix: &[u64], ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        let lo = pad(prefix);
        let hi = prefix_upper(prefix);
        if self.hints {
            let hints = &mut Self::ctx_of(ctx).main;
            let it = self.tree.lower_bound_hinted(&lo, hints);
            // The explicit upper-bound probe mirrors Figure 1's synthesized
            // code (`upper_bound({t1[1]+1, 0})`) and keeps the Table 2
            // operation counts comparable.
            if let Some(hi) = &hi {
                let _ = self.tree.upper_bound_hinted(hi, hints);
            }
            for t in it {
                if let Some(hi) = &hi {
                    if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                        break;
                    }
                }
                f(&t);
            }
        } else {
            let it = self.tree.lower_bound(&lo);
            if let Some(hi) = &hi {
                let _ = self.tree.upper_bound(hi);
            }
            for t in it {
                if let Some(hi) = &hi {
                    if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                        break;
                    }
                }
                f(&t);
            }
        }
    }

    fn partition(&self, n: usize, prefix: &[u64]) -> Vec<StorageChunk> {
        if self.tree.is_empty() {
            return Vec::new();
        }
        let chunks = if prefix.is_empty() {
            self.tree.partition(n)
        } else {
            let lo = pad(prefix);
            let hi = prefix_upper(prefix);
            self.tree.partition_range(n, Some(&lo), hi.as_ref())
        };
        chunks
            .into_iter()
            .map(|c| StorageChunk {
                shard: 0,
                span: ChunkSpan::Range {
                    lower: c.lower,
                    upper: c.upper,
                },
            })
            .collect()
    }

    fn scan_chunk(&self, chunk: &StorageChunk, ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        let ChunkSpan::Range { lower, upper } = &chunk.span else {
            // Snapshot chunks carry their own tuples; no tree access needed.
            if let ChunkSpan::Materialized { tuples, start, end } = &chunk.span {
                for t in &tuples[*start..*end] {
                    f(t);
                }
            }
            return;
        };
        let it = match (lower, self.hints) {
            (Some(lo), true) => self
                .tree
                .lower_bound_hinted(lo, &mut Self::ctx_of(ctx).main),
            (Some(lo), false) => self.tree.lower_bound(lo),
            (None, _) => self.tree.iter(),
        };
        // No upper_bound probe here: chunk boundaries come from
        // `partition`'s separators, not from a synthesized range query, so
        // probing would distort the Table 2 operation counts.
        for t in it {
            if let Some(hi) = upper {
                if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                    break;
                }
            }
            f(&t);
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        for t in self.tree.iter() {
            f(&t);
        }
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    fn hint_stats(&self, ctx: &StorageCtx) -> Option<HintStats> {
        ctx.downcast_ref::<SpecCtx>().map(|c| {
            let mut agg = c.main.stats;
            for h in &c.idx {
                agg.merge(&h.stats);
            }
            agg
        })
    }

    fn clear(&mut self) -> bool {
        // Clearing re-brands the tree, so hints cached in still-live
        // worker contexts degrade to misses rather than dangling. Index
        // trees clear alongside the primary but keep their registered
        // permutations.
        self.tree.clear();
        for ix in &mut self.indexes {
            ix.tree.clear();
        }
        true
    }

    fn as_spec_btree(&self) -> Option<&BTreeSet<MAX_ARITY>> {
        Some(&self.tree)
    }

    fn merge_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        match src.as_spec_btree() {
            // Tree-to-tree: the structure-aware parallel merge (partition
            // by the target's separators, bulk-load/splice disjoint runs).
            // The bulk path bypasses per-tuple `insert`, so secondary
            // indexes are replayed explicitly afterwards.
            Some(tree) => {
                let added = self.tree.insert_all_parallel(tree, workers.max(1));
                self.maintain_indexes(src, workers, false);
                added
            }
            // The per-tuple fallback routes through `insert`, which
            // maintains indexes inline.
            None => merge_sequential(self, src),
        }
    }

    fn retract_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        match src.as_spec_btree() {
            // Tree-to-tree: chunk the victim set along the target's
            // separators and remove each run on its own worker.
            Some(tree) => {
                let removed = self.tree.remove_all_parallel(tree, workers.max(1));
                self.maintain_indexes(src, workers, true);
                removed
            }
            None => retract_sequential(self, src),
        }
    }

    fn add_index(&mut self, perm: &[usize], workers: usize) -> Option<usize> {
        if let Some(i) = self.indexes.iter().position(|ix| ix.perm == perm) {
            return Some(i);
        }
        let timer = telemetry::start_timer();
        let mut ix = IndexTree {
            perm: perm.to_vec(),
            tree: BTreeSet::new(),
        };
        if !self.tree.is_empty() {
            let permuted: Vec<TupleBuf> = self.tree.iter().map(|t| ix.permute(&t)).collect();
            ix.tree = build_index_tree(permuted, workers);
        }
        self.indexes.push(ix);
        timer.observe(telemetry::Hist::EvalIndexMaintainNanos);
        telemetry::count(telemetry::Counter::EvalIndexBuilds);
        Some(self.indexes.len() - 1)
    }

    fn index_perms(&self) -> Vec<Vec<usize>> {
        self.indexes.iter().map(|ix| ix.perm.clone()).collect()
    }

    fn scan_index(
        &self,
        index: usize,
        perm: &[usize],
        prefix: &[u64],
        ctx: &mut StorageCtx,
        f: &mut dyn FnMut(&TupleBuf),
    ) {
        let Some(ix) = self.indexes.get(index) else {
            // No such index (e.g. a storage rebuilt mid-retraction before
            // re-registration): the filtered-full-scan fallback is always
            // correct.
            self.for_each(&mut |t| {
                if prefix.iter().enumerate().all(|(i, &v)| t[perm[i]] == v) {
                    f(t);
                }
            });
            return;
        };
        debug_assert_eq!(ix.perm, perm, "index id / permutation mismatch");
        let lo = pad(prefix);
        let hi = prefix_upper(prefix);
        if self.hints {
            let ctx = Self::ctx_of(ctx);
            let h = self.idx_hints(ctx, index);
            let it = ix.tree.lower_bound_hinted(&lo, h);
            // Explicit upper-bound probe, mirroring the primary prefix
            // scan (Figure 1) so Table 2 operation counts stay comparable.
            if let Some(hi) = &hi {
                let _ = ix.tree.upper_bound_hinted(hi, h);
            }
            for t in it {
                if let Some(hi) = &hi {
                    if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                        break;
                    }
                }
                f(&ix.unpermute(&t));
            }
        } else {
            let it = ix.tree.lower_bound(&lo);
            if let Some(hi) = &hi {
                let _ = ix.tree.upper_bound(hi);
            }
            for t in it {
                if let Some(hi) = &hi {
                    if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                        break;
                    }
                }
                f(&ix.unpermute(&t));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sharded specialized-B-tree backend
// ---------------------------------------------------------------------

/// Routes a tuple to its shard by the **leading column only**, so every
/// tuple sharing a first column — and therefore every bounded prefix scan,
/// which fixes at least that column — lands in exactly one shard. The
/// multiplier is the 64-bit golden-ratio (Fibonacci) mixing constant; the
/// high bits it spreads dense small keys into are what the modulus sees.
pub fn shard_of(t0: u64, nshards: usize) -> usize {
    if nshards <= 1 {
        return 0;
    }
    (t0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % nshards
}

/// The specialized B-tree hash-partitioned across N independent trees.
///
/// Each shard is a complete [`BTreeSet`], so no two shards ever share a
/// root or a lock word. [`shard_of`] routes by
/// the leading tuple column: point operations and bounded prefix scans
/// touch exactly one shard, full scans visit shards in index order (tuple
/// order *across* shards is not globally sorted — every engine-level
/// consumer sorts or is order-insensitive).
///
/// `merge_from`/`retract_from` against another equally-sharded storage run
/// one worker per shard with **zero cross-shard locks**: worker *i* only
/// ever touches shard *i* of both trees, so the only synchronization left
/// is the shard-index cursor. This is strictly stronger than the
/// single-tree parallel merge, whose separator-aligned chunks still
/// contend on shared parents.
pub struct ShardedStorage {
    shards: Vec<BTreeSet<MAX_ARITY>>,
    indexes: Vec<ShardedIndex>,
}

/// One secondary index of a sharded relation: per-shard permuted trees
/// routed by the **permuted** leading column, so an index scan (which by
/// construction binds that column) stays single-shard exactly like a
/// primary prefix scan.
struct ShardedIndex {
    perm: Vec<usize>,
    shards: Vec<BTreeSet<MAX_ARITY>>,
}

impl ShardedIndex {
    #[inline]
    fn permute_one(&self, t: &TupleBuf) -> TupleBuf {
        permute_tuple(&self.perm, t)
    }

    /// Permutes `t` and appends it to the destination-shard bucket.
    #[inline]
    fn bucket(&self, t: &TupleBuf, buckets: &mut [Vec<TupleBuf>]) {
        let p = permute_tuple(&self.perm, t);
        buckets[shard_of(p[0], buckets.len())].push(p);
    }

    /// Applies a bucketed batch — sorted hinted inserts or removes — with
    /// each destination shard owned by exactly one worker: the same
    /// zero-cross-shard-lock discipline as the primary sharded merge.
    fn apply_buckets(&self, buckets: Vec<Vec<TupleBuf>>, workers: usize, remove: bool) {
        let w = workers.max(1).min(buckets.len().max(1));
        let mut per_worker: Vec<Vec<(usize, Vec<TupleBuf>)>> = (0..w).map(|_| Vec::new()).collect();
        for (b, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                per_worker[b % w].push((b, bucket));
            }
        }
        let shards = &self.shards;
        let run = |mine: Vec<(usize, Vec<TupleBuf>)>| {
            for (b, bucket) in mine {
                if remove {
                    for p in &bucket {
                        shards[b].remove(p);
                    }
                } else {
                    bulk_insert_sorted(&shards[b], bucket, 1);
                }
            }
        };
        if w == 1 {
            for mine in per_worker {
                run(mine);
            }
        } else {
            let run = &run;
            std::thread::scope(|s| {
                for mine in per_worker {
                    s.spawn(move || run(mine));
                }
            });
        }
    }
}

/// Per-thread context for [`ShardedStorage`]: one hint set per primary
/// shard, plus one per shard per secondary index (extended lazily for
/// contexts that predate an index registration).
struct ShardedCtx {
    main: Vec<BTreeHints<MAX_ARITY>>,
    idx: Vec<Vec<BTreeHints<MAX_ARITY>>>,
}

impl ShardedStorage {
    /// Creates an empty storage with `nshards` shards (min 1).
    pub fn new(nshards: usize) -> Self {
        Self {
            shards: (0..nshards.max(1)).map(|_| BTreeSet::new()).collect(),
            indexes: Vec::new(),
        }
    }

    /// Per-shard tuple counts, in shard-index order — the raw balance
    /// figure `Engine::storage_report` and the shard bench expose.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|t| t.len()).collect()
    }

    /// The shards themselves (read-only; used for per-shard censuses).
    pub fn shards(&self) -> &[BTreeSet<MAX_ARITY>] {
        &self.shards
    }

    #[inline]
    fn route(&self, t0: u64) -> usize {
        shard_of(t0, self.shards.len())
    }

    #[inline]
    fn hints(ctx: &mut StorageCtx) -> &mut Vec<BTreeHints<MAX_ARITY>> {
        &mut ctx
            .downcast_mut::<ShardedCtx>()
            .expect("sharded btree ctx")
            .main
    }

    /// The hint set for shard `s` of index `i`, growing the context if it
    /// predates the index registration.
    fn idx_hints<'c>(
        &self,
        ctx: &'c mut StorageCtx,
        i: usize,
        s: usize,
    ) -> &'c mut BTreeHints<MAX_ARITY> {
        let ctx = ctx.downcast_mut::<ShardedCtx>().expect("sharded btree ctx");
        while ctx.idx.len() <= i {
            let ix = &self.indexes[ctx.idx.len()];
            ctx.idx
                .push(ix.shards.iter().map(|t| t.create_hints()).collect());
        }
        &mut ctx.idx[i][s]
    }

    /// Replays every tuple of `src` against all secondary indexes after a
    /// bulk primary merge/retract that bypassed per-tuple `insert`.
    /// Materializes the moved set once, buckets it per index by
    /// *destination index shard*, and applies each bucket on its owning
    /// worker — zero cross-shard locks, like the primary sharded merge.
    fn maintain_indexes(&self, src: &dyn RelationStorage, workers: usize, remove: bool) {
        if self.indexes.is_empty() || src.is_empty() {
            return;
        }
        let timer = telemetry::start_timer();
        let mut moved = Vec::with_capacity(src.len());
        src.for_each(&mut |t| moved.push(*t));
        for ix in &self.indexes {
            let mut buckets: Vec<Vec<TupleBuf>> = vec![Vec::new(); ix.shards.len()];
            for t in &moved {
                ix.bucket(t, &mut buckets);
            }
            ix.apply_buckets(buckets, workers, remove);
        }
        timer.observe(telemetry::Hist::EvalIndexMaintainNanos);
    }

    /// Runs `op(i)` for every shard index on up to `workers` scoped
    /// threads, summing the results. Zero cross-shard locks by
    /// construction: the shard-index cursor is the only shared state, so
    /// no two workers ever process the same shard.
    fn shard_parallel(&self, workers: usize, op: &(dyn Fn(usize) -> u64 + Sync)) -> u64 {
        let n = self.shards.len();
        let run_one = |i: usize| -> u64 {
            let timer = telemetry::start_timer();
            let _span = telemetry::span("eval.shard", i as u64);
            let r = op(i);
            timer.observe(telemetry::Hist::EvalShardMergeNanos);
            telemetry::count(telemetry::Counter::EvalShardMerges);
            // Balance = per-shard tuples this operation moved. NOT the
            // absolute shard size: `BTreeSet::len` is a deliberate O(n)
            // full iteration, far too hot for a per-merge probe (absolute
            // sizes are in `shard_lens`, sampled at quiescent points).
            telemetry::record(telemetry::Hist::EvalShardBalance, r);
            r
        };
        let workers = workers.max(1).min(n);
        if workers == 1 {
            return (0..n).map(run_one).sum();
        }
        let cursor = AtomicUsize::new(0);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Relaxed);
                    if i >= n {
                        break;
                    }
                    total.fetch_add(run_one(i), Relaxed);
                });
            }
        });
        total.into_inner()
    }
}

impl RelationStorage for ShardedStorage {
    fn make_ctx(&self) -> StorageCtx {
        // One hint set per shard: a worker's context follows it across
        // whichever shards it ends up scanning or probing.
        Box::new(ShardedCtx {
            main: self.shards.iter().map(|t| t.create_hints()).collect(),
            idx: self
                .indexes
                .iter()
                .map(|ix| ix.shards.iter().map(|t| t.create_hints()).collect())
                .collect(),
        })
    }

    fn insert(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool {
        let s = self.route(t[0]);
        let added = self.shards[s].insert_hinted(*t, &mut Self::hints(ctx)[s]);
        if added {
            for i in 0..self.indexes.len() {
                let ix = &self.indexes[i];
                let p = ix.permute_one(t);
                let d = shard_of(p[0], ix.shards.len());
                let h = self.idx_hints(ctx, i, d);
                ix.shards[d].insert_hinted(p, h);
            }
        }
        added
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        // Unhinted, matching the single-tree backend: the removal
        // protocol restarts from the root anyway.
        let removed = self.shards[self.route(t[0])].remove(t);
        if removed {
            for ix in &self.indexes {
                let p = ix.permute_one(t);
                ix.shards[shard_of(p[0], ix.shards.len())].remove(&p);
            }
        }
        removed
    }

    fn contains(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool {
        let s = self.route(t[0]);
        self.shards[s].contains_hinted(t, &mut Self::hints(ctx)[s])
    }

    fn scan_prefix(&self, prefix: &[u64], ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        if prefix.is_empty() {
            // Full scan: shards in index order (not globally sorted).
            for tree in &self.shards {
                for t in tree.iter() {
                    f(&t);
                }
            }
            return;
        }
        // A bounded prefix fixes the leading column, so exactly one shard
        // can hold matches — the same single-tree scan as before, minus
        // (nshards - 1) trees of irrelevant structure.
        let s = self.route(prefix[0]);
        let lo = pad(prefix);
        let hi = prefix_upper(prefix);
        let hints = &mut Self::hints(ctx)[s];
        let it = self.shards[s].lower_bound_hinted(&lo, hints);
        // Explicit upper-bound probe, mirroring Figure 1 (see the
        // single-tree backend).
        if let Some(hi) = &hi {
            let _ = self.shards[s].upper_bound_hinted(hi, hints);
        }
        for t in it {
            if let Some(hi) = &hi {
                if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                    break;
                }
            }
            f(&t);
        }
    }

    fn partition(&self, n: usize, prefix: &[u64]) -> Vec<StorageChunk> {
        let to_chunk = |s: usize| {
            move |c: specbtree::RangeChunk<MAX_ARITY>| StorageChunk {
                shard: s,
                span: ChunkSpan::Range {
                    lower: c.lower,
                    upper: c.upper,
                },
            }
        };
        if !prefix.is_empty() {
            // One shard holds every match; split inside it.
            let s = self.route(prefix[0]);
            let lo = pad(prefix);
            let hi = prefix_upper(prefix);
            return self.shards[s]
                .partition_range(n, Some(&lo), hi.as_ref())
                .into_iter()
                .map(to_chunk(s))
                .collect();
        }
        // Full-scan split: every shard contributes its share of chunks,
        // emitted grouped shard-by-shard so the scheduler can hand each
        // worker a contiguous home-shard run.
        let per = (n / self.shards.len()).max(1);
        let mut out = Vec::new();
        for (s, tree) in self.shards.iter().enumerate() {
            if tree.is_empty() {
                continue;
            }
            out.extend(tree.partition(per).into_iter().map(to_chunk(s)));
        }
        out
    }

    fn scan_chunk(&self, chunk: &StorageChunk, ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        let ChunkSpan::Range { lower, upper } = &chunk.span else {
            if let ChunkSpan::Materialized { tuples, start, end } = &chunk.span {
                for t in &tuples[*start..*end] {
                    f(t);
                }
            }
            return;
        };
        let tree = &self.shards[chunk.shard];
        let it = match lower {
            Some(lo) => tree.lower_bound_hinted(lo, &mut Self::hints(ctx)[chunk.shard]),
            None => tree.iter(),
        };
        for t in it {
            if let Some(hi) = upper {
                if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                    break;
                }
            }
            f(&t);
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        for tree in &self.shards {
            for t in tree.iter() {
                f(&t);
            }
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|t| t.len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|t| t.is_empty())
    }

    fn hint_stats(&self, ctx: &StorageCtx) -> Option<HintStats> {
        ctx.downcast_ref::<ShardedCtx>().map(|c| {
            let mut agg = HintStats::default();
            for h in c.main.iter().chain(c.idx.iter().flatten()) {
                agg.merge(&h.stats);
            }
            agg
        })
    }

    fn clear(&mut self) -> bool {
        for tree in &mut self.shards {
            tree.clear();
        }
        for ix in &mut self.indexes {
            for tree in &mut ix.shards {
                tree.clear();
            }
        }
        true
    }

    fn as_sharded(&self) -> Option<&ShardedStorage> {
        Some(self)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn merge_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        match src.as_sharded() {
            // Shard-aligned: one worker per shard, each merging its
            // shard's delta into its shard's tree. No cross-shard locks —
            // the per-shard merge runs single-threaded against a tree no
            // other worker touches. The bulk path bypasses per-tuple
            // `insert`, so secondary indexes are replayed afterwards.
            Some(other) if other.shards.len() == self.shards.len() => {
                let added = self.shard_parallel(workers, &|i| {
                    self.shards[i].insert_all_parallel(&other.shards[i], 1)
                });
                self.maintain_indexes(src, workers, false);
                added
            }
            // Mismatched shard counts or a foreign backend: route every
            // tuple through the shard map individually (`insert` maintains
            // indexes inline).
            _ => merge_sequential(self, src),
        }
    }

    fn retract_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        match src.as_sharded() {
            Some(other) if other.shards.len() == self.shards.len() => {
                let removed = self.shard_parallel(workers, &|i| {
                    self.shards[i].remove_all_parallel(&other.shards[i], 1)
                });
                self.maintain_indexes(src, workers, true);
                removed
            }
            _ => retract_sequential(self, src),
        }
    }

    fn add_index(&mut self, perm: &[usize], workers: usize) -> Option<usize> {
        if let Some(i) = self.indexes.iter().position(|ix| ix.perm == perm) {
            return Some(i);
        }
        let timer = telemetry::start_timer();
        let mut ix = ShardedIndex {
            perm: perm.to_vec(),
            shards: (0..self.shards.len()).map(|_| BTreeSet::new()).collect(),
        };
        if !self.is_empty() {
            let mut buckets: Vec<Vec<TupleBuf>> = vec![Vec::new(); ix.shards.len()];
            for tree in &self.shards {
                for t in tree.iter() {
                    ix.bucket(&t, &mut buckets);
                }
            }
            // One packed O(n) build per shard beats routing every tuple
            // through the insert path of an initially empty tree; leftover
            // workers parallelize the per-shard sorts.
            let per_shard = (workers / ix.shards.len()).max(1);
            let mut built = Vec::with_capacity(buckets.len());
            std::thread::scope(|s| {
                let handles: Vec<_> = buckets
                    .into_iter()
                    .map(|b| s.spawn(move || build_index_tree(b, per_shard)))
                    .collect();
                built = handles.into_iter().map(|h| h.join().unwrap()).collect();
            });
            ix.shards = built;
        }
        self.indexes.push(ix);
        timer.observe(telemetry::Hist::EvalIndexMaintainNanos);
        telemetry::count(telemetry::Counter::EvalIndexBuilds);
        Some(self.indexes.len() - 1)
    }

    fn index_perms(&self) -> Vec<Vec<usize>> {
        self.indexes.iter().map(|ix| ix.perm.clone()).collect()
    }

    fn scan_index(
        &self,
        index: usize,
        perm: &[usize],
        prefix: &[u64],
        ctx: &mut StorageCtx,
        f: &mut dyn FnMut(&TupleBuf),
    ) {
        let Some(ix) = self.indexes.get(index) else {
            self.for_each(&mut |t| {
                if prefix.iter().enumerate().all(|(i, &v)| t[perm[i]] == v) {
                    f(t);
                }
            });
            return;
        };
        debug_assert_eq!(ix.perm, perm, "index id / permutation mismatch");
        if prefix.is_empty() {
            self.for_each(f);
            return;
        }
        // The permuted prefix binds the permuted leading column, so the
        // scan stays single-shard — same locality as a primary prefix scan.
        let s = shard_of(prefix[0], ix.shards.len());
        let lo = pad(prefix);
        let hi = prefix_upper(prefix);
        let h = self.idx_hints(ctx, index, s);
        let it = ix.shards[s].lower_bound_hinted(&lo, h);
        if let Some(hi) = &hi {
            let _ = ix.shards[s].upper_bound_hinted(hi, h);
        }
        for t in it {
            if let Some(hi) = &hi {
                if specbtree::cmp3(&t, hi) != std::cmp::Ordering::Less {
                    break;
                }
            }
            f(&unpermute_tuple(&ix.perm, &t));
        }
    }
}

// ---------------------------------------------------------------------
// Globally locked sequential backends
// ---------------------------------------------------------------------

/// What the locked adapter needs of a sequential ordered set.
trait OrderedSet: Send {
    fn insert(&mut self, t: TupleBuf) -> bool;
    fn remove(&mut self, t: &TupleBuf) -> bool;
    fn contains(&self, t: &TupleBuf) -> bool;
    fn len(&self) -> usize;
    fn iter(&self) -> impl Iterator<Item = TupleBuf> + '_;
    fn lower_bound(&self, lo: &TupleBuf) -> impl Iterator<Item = TupleBuf> + '_;
}

macro_rules! impl_ordered_set {
    ($($set:ident),*) => {$(
        impl OrderedSet for $set<TupleBuf> {
            fn insert(&mut self, t: TupleBuf) -> bool {
                $set::insert(self, t)
            }
            fn remove(&mut self, t: &TupleBuf) -> bool {
                $set::remove(self, t)
            }
            fn contains(&self, t: &TupleBuf) -> bool {
                $set::contains(self, t)
            }
            fn len(&self) -> usize {
                $set::len(self)
            }
            fn iter(&self) -> impl Iterator<Item = TupleBuf> + '_ {
                $set::iter(self)
            }
            fn lower_bound(&self, lo: &TupleBuf) -> impl Iterator<Item = TupleBuf> + '_ {
                $set::lower_bound(self, lo)
            }
        }
    )*};
}
impl_ordered_set!(RbTreeSet, GBTreeSet);

/// A sequential ordered set behind one global lock (`STL rbtset`,
/// `google btree`).
struct LockedOrderedStorage<S>(GlobalLock<S>);

impl<S: OrderedSet> RelationStorage for LockedOrderedStorage<S> {
    fn make_ctx(&self) -> StorageCtx {
        Box::new(())
    }

    fn insert(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.insert(*t))
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.remove(t))
    }

    fn contains(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.contains(t))
    }

    fn scan_prefix(&self, prefix: &[u64], _ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        let lo = pad(prefix);
        let hi = prefix_upper(prefix);
        self.0.with(|s| {
            for t in s.lower_bound(&lo) {
                if let Some(hi) = &hi {
                    if t >= *hi {
                        break;
                    }
                }
                f(&t);
            }
        });
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        self.0.with(|s| {
            for t in s.iter() {
                f(&t);
            }
        });
    }

    fn len(&self) -> usize {
        self.0.with(|s| s.len())
    }
}

struct HashSetStorage(GlobalLock<OaHashSet<TupleBuf>>);

impl RelationStorage for HashSetStorage {
    fn make_ctx(&self) -> StorageCtx {
        Box::new(())
    }

    fn insert(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.insert(*t))
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.remove(t))
    }

    fn contains(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.contains(t))
    }

    fn scan_prefix(&self, prefix: &[u64], _ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        // Hash sets cannot answer range queries: full scan + filter — the
        // structural deficiency the paper's comparison highlights.
        let plen = prefix.len();
        self.0.with(|s| {
            for t in s.iter() {
                if t[..plen] == *prefix {
                    f(&t);
                }
            }
        });
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        self.0.with(|s| {
            for t in s.iter() {
                f(&t);
            }
        });
    }

    fn len(&self) -> usize {
        self.0.with(|s| s.len())
    }
}

struct ConcHashStorage(SplitOrderedSet<TupleBuf>);

impl RelationStorage for ConcHashStorage {
    fn make_ctx(&self) -> StorageCtx {
        Box::new(())
    }

    fn insert(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.insert(*t)
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.remove(t)
    }

    fn contains(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.contains(t)
    }

    fn scan_prefix(&self, prefix: &[u64], _ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        // Unordered structure: range queries degrade to a full scan.
        let plen = prefix.len();
        self.0.for_each(|t| {
            if t[..plen] == *prefix {
                f(t);
            }
        });
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        self.0.for_each(|t| f(t));
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

// ---------------------------------------------------------------------
// Operation counting (Table 2's "Evaluation Statistics")
// ---------------------------------------------------------------------

/// Stripe count for [`OpCounters`]. Scoped workers are handed consecutive
/// stripe indices, so any ≤16 concurrent workers land on distinct stripes.
const COUNTER_STRIPES: usize = 16;

/// One cache-line-isolated set of operation counters. The alignment keeps
/// neighbouring stripes off each other's (prefetch-paired) cache lines so
/// per-operation `fetch_add`s from different workers never ping-pong.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CounterStripe {
    inserts: AtomicU64,
    removes: AtomicU64,
    membership: AtomicU64,
    lower_bound: AtomicU64,
    upper_bound: AtomicU64,
}

/// Next round-robin stripe for threads that never pinned one.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index; `usize::MAX` = not yet assigned.
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Returns this thread's stripe index, assigned round-robin on first use.
/// Consecutive assignment (not hashing) guarantees a scope of ≤16 workers
/// gets pairwise-distinct stripes.
fn counter_stripe() -> usize {
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT_STRIPE.fetch_add(1, Relaxed) % COUNTER_STRIPES;
            s.set(v);
        }
        v
    })
}

/// Pins the calling thread's [`OpCounters`] stripe to `idx % 16`,
/// overriding (or preempting) the round-robin assignment.
///
/// Under sharded evaluation the scheduler pins each worker to its *home
/// shard's* index instead of a spawn-order slot: a worker's per-operation
/// `fetch_add`s then land on the stripe associated with the shard whose
/// tuples it is scanning, so stripes stay core-local when shards do.
pub fn pin_counter_stripe(idx: usize) {
    STRIPE.with(|s| s.set(idx % COUNTER_STRIPES));
}

/// Shared operation counters, aggregated across all relations of an engine.
///
/// Internally striped per thread: inner scans issue one `lower_bound`
/// count per outer tuple, and with a single counter word those relaxed
/// `fetch_add`s from every worker serialize the whole join on one
/// contended cache line (measured: a 1M-tuple parallel scan ran no faster
/// at 8 threads than at 1). Each worker increments its own stripe;
/// readers sum across stripes.
#[derive(Debug)]
pub struct OpCounters {
    stripes: [CounterStripe; COUNTER_STRIPES],
}

impl Default for OpCounters {
    fn default() -> Self {
        Self {
            stripes: std::array::from_fn(|_| CounterStripe::default()),
        }
    }
}

impl OpCounters {
    #[inline]
    fn stripe(&self) -> &CounterStripe {
        &self.stripes[counter_stripe()]
    }

    /// Counts `n` `insert` calls against the calling thread's stripe.
    #[inline]
    pub fn add_inserts(&self, n: u64) {
        self.stripe().inserts.fetch_add(n, Relaxed);
    }

    /// Counts `n` `remove` calls against the calling thread's stripe.
    #[inline]
    pub fn add_removes(&self, n: u64) {
        self.stripe().removes.fetch_add(n, Relaxed);
    }

    /// Counts `n` `contains` calls against the calling thread's stripe.
    #[inline]
    pub fn add_membership(&self, n: u64) {
        self.stripe().membership.fetch_add(n, Relaxed);
    }

    /// Counts `n` `lower_bound` probes against the calling thread's stripe.
    #[inline]
    pub fn add_lower_bound(&self, n: u64) {
        self.stripe().lower_bound.fetch_add(n, Relaxed);
    }

    /// Counts `n` `upper_bound` probes against the calling thread's stripe.
    #[inline]
    pub fn add_upper_bound(&self, n: u64) {
        self.stripe().upper_bound.fetch_add(n, Relaxed);
    }

    /// Snapshot as plain numbers: `(inserts, membership, lower, upper)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        self.stripes.iter().fold((0, 0, 0, 0), |acc, s| {
            (
                acc.0 + s.inserts.load(Relaxed),
                acc.1 + s.membership.load(Relaxed),
                acc.2 + s.lower_bound.load(Relaxed),
                acc.3 + s.upper_bound.load(Relaxed),
            )
        })
    }

    /// `remove` calls as a plain number (kept out of [`snapshot`]'s
    /// 4-tuple, whose shape Table 2 consumers rely on).
    ///
    /// [`snapshot`]: Self::snapshot
    pub fn removes_count(&self) -> u64 {
        self.stripes.iter().map(|s| s.removes.load(Relaxed)).sum()
    }

    /// Zeroes every counter. Quiescent callers only (no evaluation in
    /// flight); used by `Engine::reset_stats`.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.inserts.store(0, Relaxed);
            s.removes.store(0, Relaxed);
            s.membership.store(0, Relaxed);
            s.lower_bound.store(0, Relaxed);
            s.upper_bound.store(0, Relaxed);
        }
    }
}

/// Wraps a storage backend, counting every operation into shared
/// [`OpCounters`].
pub struct CountingStorage {
    inner: Box<dyn RelationStorage>,
    counters: Arc<OpCounters>,
}

impl CountingStorage {
    /// Wraps `inner`, accumulating into `counters`.
    pub fn new(inner: Box<dyn RelationStorage>, counters: Arc<OpCounters>) -> Self {
        Self { inner, counters }
    }
}

impl RelationStorage for CountingStorage {
    fn make_ctx(&self) -> StorageCtx {
        self.inner.make_ctx()
    }

    fn insert(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool {
        self.counters.add_inserts(1);
        self.inner.insert(t, ctx)
    }

    fn remove(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool {
        self.counters.add_removes(1);
        self.inner.remove(t, ctx)
    }

    fn contains(&self, t: &TupleBuf, ctx: &mut StorageCtx) -> bool {
        self.counters.add_membership(1);
        self.inner.contains(t, ctx)
    }

    fn scan_prefix(&self, prefix: &[u64], ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        self.counters.add_lower_bound(1);
        // Bounded prefixes issue an explicit upper_bound probe (Figure 1);
        // empty prefixes are plain full iterations.
        if !prefix.is_empty() {
            self.counters.add_upper_bound(1);
        }
        self.inner.scan_prefix(prefix, ctx, f)
    }

    fn partition(&self, n: usize, prefix: &[u64]) -> Vec<StorageChunk> {
        // `partition` itself reads only separator keys (or materializes a
        // snapshot); the bound queries are counted when chunks are scanned.
        self.inner.partition(n, prefix)
    }

    fn scan_chunk(&self, chunk: &StorageChunk, ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        // Each ordered chunk scan starts with one lower_bound descent
        // (hinted or not); snapshot chunks touch no index structure.
        if matches!(chunk.span, ChunkSpan::Range { .. }) {
            self.counters.add_lower_bound(1);
        }
        self.inner.scan_chunk(chunk, ctx, f)
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        self.inner.for_each(f)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn hint_stats(&self, ctx: &StorageCtx) -> Option<HintStats> {
        self.inner.hint_stats(ctx)
    }

    fn clear(&mut self) -> bool {
        // Clearing is bookkeeping, not a counted tuple operation.
        self.inner.clear()
    }

    fn as_spec_btree(&self) -> Option<&BTreeSet<MAX_ARITY>> {
        self.inner.as_spec_btree()
    }

    fn as_sharded(&self) -> Option<&ShardedStorage> {
        self.inner.as_sharded()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn merge_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        // A fused merge attempts one insert per source tuple, whichever
        // path serves it — count them all, preserving the "insert calls"
        // semantics of the per-tuple loop it replaces.
        self.counters.add_inserts(src.len() as u64);
        self.inner.merge_from(src, workers)
    }

    fn retract_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        // A fused retraction attempts one remove per source tuple — count
        // them all, mirroring `merge_from`'s insert accounting.
        self.counters.add_removes(src.len() as u64);
        self.inner.retract_from(src, workers)
    }

    fn add_index(&mut self, perm: &[usize], workers: usize) -> Option<usize> {
        // Registration/backfill is bookkeeping, not a counted tuple op.
        self.inner.add_index(perm, workers)
    }

    fn index_perms(&self) -> Vec<Vec<usize>> {
        self.inner.index_perms()
    }

    fn scan_index(
        &self,
        index: usize,
        perm: &[usize],
        prefix: &[u64],
        ctx: &mut StorageCtx,
        f: &mut dyn FnMut(&TupleBuf),
    ) {
        // An index scan costs the same probes as a bounded prefix scan:
        // one lower_bound descent plus one explicit upper_bound.
        self.counters.add_lower_bound(1);
        if !prefix.is_empty() {
            self.counters.add_upper_bound(1);
        }
        self.inner.scan_index(index, perm, prefix, ctx, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(kind: StorageKind) {
        let s = kind.create();
        let mut ctx = s.make_ctx();
        assert!(s.is_empty());
        assert!(s.insert(&pad(&[1, 2]), &mut ctx));
        assert!(!s.insert(&pad(&[1, 2]), &mut ctx));
        assert!(s.insert(&pad(&[1, 3]), &mut ctx));
        assert!(s.insert(&pad(&[2, 1]), &mut ctx));
        assert!(s.contains(&pad(&[1, 2]), &mut ctx));
        assert!(!s.contains(&pad(&[9, 9]), &mut ctx));
        assert_eq!(s.len(), 3);

        // Prefix scan for leading column 1.
        let mut got = Vec::new();
        s.scan_prefix(&[1], &mut ctx, &mut |t| got.push(*t));
        got.sort_unstable();
        assert_eq!(got, vec![pad(&[1, 2]), pad(&[1, 3])], "{}", kind.label());

        let mut all = Vec::new();
        s.for_each(&mut |t| all.push(*t));
        assert_eq!(all.len(), 3);

        // Removal: present, absent, removed-then-gone, reinsert.
        assert!(s.remove(&pad(&[1, 2]), &mut ctx), "{}", kind.label());
        assert!(!s.remove(&pad(&[1, 2]), &mut ctx));
        assert!(!s.remove(&pad(&[9, 9]), &mut ctx));
        assert!(!s.contains(&pad(&[1, 2]), &mut ctx));
        assert_eq!(s.len(), 2);
        let mut after = Vec::new();
        s.scan_prefix(&[1], &mut ctx, &mut |t| after.push(*t));
        assert_eq!(after, vec![pad(&[1, 3])], "{}", kind.label());
        assert!(s.insert(&pad(&[1, 2]), &mut ctx), "reinsert after remove");
        assert_eq!(s.len(), 3);

        // What the planner is told up front is what the storage answers.
        let indexed = kind.create().add_index(&[1, 0], 1).is_some();
        assert_eq!(kind.supports_indexes(), indexed, "{}", kind.label());
    }

    #[test]
    fn all_backends_conform() {
        for kind in StorageKind::ALL {
            exercise(kind);
        }
        for shards in [1usize, 2, 8] {
            exercise(StorageKind::ShardedBTree(shards));
        }
    }

    #[test]
    fn prefix_upper_handles_saturation() {
        assert_eq!(prefix_upper(&[]), None);
        assert_eq!(prefix_upper(&[3]).map(|t| t[0]), Some(4));
        assert_eq!(prefix_upper(&[u64::MAX]), None);
        // Carry into the previous word.
        let hi = prefix_upper(&[7, u64::MAX]).unwrap();
        assert_eq!(hi[0], 8);
        assert_eq!(hi[1], 0);
    }

    #[test]
    fn counting_storage_counts() {
        let counters = Arc::new(OpCounters::default());
        let s = CountingStorage::new(StorageKind::SpecBTree.create(), Arc::clone(&counters));
        let mut ctx = s.make_ctx();
        s.insert(&pad(&[1]), &mut ctx);
        s.insert(&pad(&[2]), &mut ctx);
        s.contains(&pad(&[1]), &mut ctx);
        s.scan_prefix(&[1], &mut ctx, &mut |_| {});
        let (ins, mem, lb, ub) = counters.snapshot();
        assert_eq!((ins, mem, lb, ub), (2, 1, 1, 1));
        s.remove(&pad(&[1]), &mut ctx);
        s.remove(&pad(&[1]), &mut ctx); // absent: still counted as a call
        assert_eq!(counters.removes_count(), 2);
        counters.reset();
        assert_eq!(counters.removes_count(), 0);
        assert_eq!(counters.snapshot(), (0, 0, 0, 0));
    }

    #[test]
    fn retract_from_subtracts_on_all_backend_pairs() {
        // Victim sets arrive either as a spec B-tree (the engine's Del
        // accumulator) or as any other backend; both must subtract exactly.
        for dst_kind in StorageKind::ALL {
            for src_kind in [StorageKind::SpecBTree, StorageKind::GBTreeLocked] {
                let dst = dst_kind.create();
                let mut ctx = dst.make_ctx();
                for i in 0..500u64 {
                    dst.insert(&pad(&[i, i % 7]), &mut ctx);
                }
                let src = src_kind.create();
                let mut sctx = src.make_ctx();
                // Overlap 0..300 plus 100 tuples absent from dst.
                for i in 0..300u64 {
                    src.insert(&pad(&[i, i % 7]), &mut sctx);
                }
                for i in 1_000..1_100u64 {
                    src.insert(&pad(&[i, 0]), &mut sctx);
                }
                for workers in [1usize, 4] {
                    let dst2 = dst_kind.create();
                    let mut c2 = dst2.make_ctx();
                    dst.for_each(&mut |t| {
                        dst2.insert(t, &mut c2);
                    });
                    let removed = dst2.retract_from(src.as_ref(), workers);
                    assert_eq!(
                        removed,
                        300,
                        "{} -= {} workers={workers}",
                        dst_kind.label(),
                        src_kind.label()
                    );
                    assert_eq!(dst2.len(), 200);
                    assert!(!dst2.contains(&pad(&[0, 0]), &mut c2));
                    assert!(dst2.contains(&pad(&[300, 300 % 7]), &mut c2));
                }
            }
        }
    }

    #[test]
    fn spec_btree_reports_hint_stats() {
        let s = StorageKind::SpecBTree.create();
        let mut ctx = s.make_ctx();
        for i in 0..100u64 {
            s.insert(&pad(&[0, i * 2]), &mut ctx);
        }
        for i in 0..99u64 {
            s.insert(&pad(&[0, i * 2 + 1]), &mut ctx);
        }
        let stats = s.hint_stats(&ctx).expect("spec btree keeps hints");
        assert!(stats.insert_hits > 0);
        assert!(StorageKind::RbTreeLocked
            .create()
            .hint_stats(&StorageKind::RbTreeLocked.create().make_ctx())
            .is_none());
    }

    fn chunk_scan_matches_prefix_scan(kind: StorageKind, prefix: &[u64]) {
        let s = kind.create();
        let mut ctx = s.make_ctx();
        for a in 0..8u64 {
            for b in 0..100u64 {
                s.insert(&pad(&[a, b]), &mut ctx);
            }
        }
        let mut want = Vec::new();
        s.scan_prefix(prefix, &mut ctx, &mut |t| want.push(*t));
        want.sort_unstable();
        for n in [1usize, 3, 8, 64] {
            let chunks = s.partition(n, prefix);
            let mut got = Vec::new();
            for c in &chunks {
                s.scan_chunk(c, &mut ctx, &mut |t| got.push(*t));
            }
            got.sort_unstable();
            assert_eq!(got, want, "{} n={n} prefix={prefix:?}", kind.label());
        }
    }

    #[test]
    fn partition_scan_equals_prefix_scan_on_all_backends() {
        let sharded = [1usize, 2, 8].map(StorageKind::ShardedBTree);
        for kind in StorageKind::ALL.iter().chain(&sharded).copied() {
            chunk_scan_matches_prefix_scan(kind, &[]);
            chunk_scan_matches_prefix_scan(kind, &[3]);
            chunk_scan_matches_prefix_scan(kind, &[9]); // matches nothing
        }
    }

    #[test]
    fn spec_btree_partition_emits_range_chunks() {
        let s = StorageKind::SpecBTree.create();
        let mut ctx = s.make_ctx();
        for i in 0..5_000u64 {
            s.insert(&pad(&[i / 100, i % 100]), &mut ctx);
        }
        let chunks = s.partition(8, &[]);
        assert!(chunks.len() > 1, "a deep tree should split");
        assert!(chunks
            .iter()
            .all(|c| c.shard == 0 && matches!(c.span, ChunkSpan::Range { .. })));
        // Empty relations partition to no chunks at all.
        assert!(StorageKind::SpecBTree.create().partition(8, &[]).is_empty());
    }

    #[test]
    fn fallback_partition_materializes_once_and_slices() {
        let s = StorageKind::HashSetLocked.create();
        let mut ctx = s.make_ctx();
        for i in 0..100u64 {
            s.insert(&pad(&[i]), &mut ctx);
        }
        let chunks = s.partition(4, &[]);
        assert!(!chunks.is_empty());
        let total: usize = chunks
            .iter()
            .map(|c| match &c.span {
                ChunkSpan::Materialized { start, end, .. } => end - start,
                ChunkSpan::Range { .. } => panic!("hash backend cannot emit ranges"),
            })
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn sharded_partition_tags_and_groups_chunks_by_shard() {
        let s = StorageKind::ShardedBTree(4).create();
        let mut ctx = s.make_ctx();
        for i in 0..8_000u64 {
            s.insert(&pad(&[i / 100, i % 100]), &mut ctx);
        }
        assert_eq!(s.shard_count(), 4);
        let chunks = s.partition(32, &[]);
        assert!(chunks.len() > 4, "every populated shard should oversplit");
        // Chunks arrive grouped: the shard id never decreases along the
        // vector (the scheduler's home-shard runs rely on contiguity).
        let shards: Vec<usize> = chunks.iter().map(|c| c.shard).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted, "chunks must be grouped shard-by-shard");
        assert!(shards.iter().any(|&s| s > 0), "multiple shards populated");
        // A bounded prefix routes to exactly one shard.
        let bounded = s.partition(8, &[3]);
        assert!(!bounded.is_empty());
        let first = bounded[0].shard;
        assert!(bounded.iter().all(|c| c.shard == first));
        // Scanning all chunks reproduces the full contents exactly once.
        let mut got = Vec::new();
        for c in &chunks {
            s.scan_chunk(c, &mut ctx, &mut |t| got.push(*t));
        }
        assert_eq!(got.len(), 8_000);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 8_000, "no tuple may appear in two shards");
    }

    #[test]
    fn sharded_merge_and_retract_run_shardwise() {
        for (nshards, workers) in [(4usize, 1usize), (4, 4), (8, 3)] {
            let dst = StorageKind::ShardedBTree(nshards).create();
            let src = StorageKind::ShardedBTree(nshards).create();
            let mut dctx = dst.make_ctx();
            let mut sctx = src.make_ctx();
            for i in 0..2_000u64 {
                dst.insert(&pad(&[i, 1]), &mut dctx);
            }
            // Overlap 1000..2000, fresh 2000..3000.
            for i in 1_000..3_000u64 {
                src.insert(&pad(&[i, 1]), &mut sctx);
            }
            let added = dst.merge_from(src.as_ref(), workers);
            assert_eq!(added, 1_000, "shards={nshards} workers={workers}");
            assert_eq!(dst.len(), 3_000);
            assert_eq!(src.len(), 2_000, "source untouched");

            let removed = dst.retract_from(src.as_ref(), workers);
            assert_eq!(removed, 2_000, "shards={nshards} workers={workers}");
            assert_eq!(dst.len(), 1_000);
            assert!(dst.contains(&pad(&[0, 1]), &mut dctx));
            assert!(!dst.contains(&pad(&[1_500, 1]), &mut dctx));
        }
        // Mismatched shard counts fall back to the routed per-tuple path.
        let dst = StorageKind::ShardedBTree(2).create();
        let src = StorageKind::ShardedBTree(8).create();
        let mut dctx = dst.make_ctx();
        let mut sctx = src.make_ctx();
        dst.insert(&pad(&[1]), &mut dctx);
        for i in 0..100u64 {
            src.insert(&pad(&[i]), &mut sctx);
        }
        assert_eq!(dst.merge_from(src.as_ref(), 4), 99);
        assert_eq!(dst.len(), 100);
    }

    #[test]
    fn sharded_skew_concentrates_in_one_shard() {
        // Every tuple shares the leading column, so the shard map sends
        // all of them to a single shard — the worst case the balance
        // telemetry exists to expose. Correctness must be unaffected.
        let s = StorageKind::ShardedBTree(8).create();
        let mut ctx = s.make_ctx();
        for i in 0..1_000u64 {
            s.insert(&pad(&[7, i]), &mut ctx);
        }
        let sharded = s.as_sharded().expect("sharded backend");
        let lens = sharded.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 1_000);
        assert_eq!(lens.iter().max().copied().unwrap(), 1_000, "{lens:?}");
        let mut got = Vec::new();
        s.scan_prefix(&[7], &mut ctx, &mut |t| got.push(*t));
        assert_eq!(got.len(), 1_000);
    }

    #[test]
    fn pinned_counter_stripes_follow_home_shard() {
        let counters = Arc::new(OpCounters::default());
        let c = Arc::clone(&counters);
        std::thread::spawn(move || {
            pin_counter_stripe(3);
            c.add_inserts(5);
            // Re-pinning moves subsequent counts to the new stripe.
            pin_counter_stripe(7);
            c.add_inserts(2);
        })
        .join()
        .unwrap();
        assert_eq!(counters.snapshot().0, 7, "both stripes aggregate");
        assert_eq!(counters.stripes[3].inserts.load(Relaxed), 5);
        assert_eq!(counters.stripes[7].inserts.load(Relaxed), 2);
    }

    #[test]
    fn counting_storage_counts_chunk_scans() {
        let counters = Arc::new(OpCounters::default());
        let s = CountingStorage::new(StorageKind::SpecBTree.create(), Arc::clone(&counters));
        let mut ctx = s.make_ctx();
        for i in 0..3_000u64 {
            s.insert(&pad(&[i]), &mut ctx);
        }
        let before = counters.snapshot().2;
        let chunks = s.partition(4, &[]);
        for c in &chunks {
            s.scan_chunk(c, &mut ctx, &mut |_| {});
        }
        let after = counters.snapshot().2;
        assert_eq!(after - before, chunks.len() as u64);
    }

    #[test]
    fn clear_recycles_spec_btree_and_declines_elsewhere() {
        let mut s = StorageKind::SpecBTree.create();
        let mut ctx = s.make_ctx();
        for i in 0..500u64 {
            s.insert(&pad(&[i, i]), &mut ctx);
        }
        assert!(s.clear(), "spec btree supports cheap reset");
        assert!(s.is_empty());
        // The cleared storage is fully reusable (stale ctx hints included).
        assert!(s.insert(&pad(&[7, 7]), &mut ctx));
        assert!(s.contains(&pad(&[7, 7]), &mut ctx));
        assert_eq!(s.len(), 1);

        // The counting wrapper forwards to its inner backend.
        let counters = Arc::new(OpCounters::default());
        let mut c = CountingStorage::new(StorageKind::SpecBTree.create(), Arc::clone(&counters));
        let mut cctx = RelationStorage::make_ctx(&c);
        c.insert(&pad(&[1]), &mut cctx);
        assert!(RelationStorage::clear(&mut c));
        assert!(RelationStorage::is_empty(&c));

        // Backends without a cheap reset decline (and keep their tuples).
        let mut rb = StorageKind::RbTreeLocked.create();
        let mut rctx = rb.make_ctx();
        rb.insert(&pad(&[1]), &mut rctx);
        assert!(!rb.clear());
        assert_eq!(rb.len(), 1);
    }

    #[test]
    fn concurrent_inserts_through_trait() {
        for kind in [StorageKind::SpecBTree, StorageKind::ConcurrentHashSet] {
            let s = kind.create();
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let s = &s;
                    scope.spawn(move || {
                        let mut ctx = s.make_ctx();
                        for i in 0..1_000 {
                            s.insert(&pad(&[t, i]), &mut ctx);
                        }
                    });
                }
            });
            assert_eq!(s.len(), 4_000, "{}", kind.label());
        }
    }
}
