//! Pluggable relation storage.
//!
//! The engine stores every relation through the [`RelationStorage`] trait,
//! mirroring how §4.3 of the paper swaps the data structure underneath the
//! Soufflé engine. Every backend is generic over the stored width `K` and
//! is built at the relation's declared arity by
//! [`StorageKind::create_for`]: a binary relation is a `BTreeSet<2>` of
//! 16-byte keys, the per-relation specialisation the paper's tree gets
//! from Soufflé's generated code. At the trait boundary tuples travel as
//! [`TupleBuf`]s — padded to [`MAX_ARITY`] words; padding zeros never
//! affect equality or lexicographic prefix order — and a backend narrows
//! them on the way in and widens them on the way out. Sorted runs
//! ([`RelationStorage::merge_runs`]) are the other way tuples cross: end to
//! end at the storage's width. A merge of runs is also the anti-join of
//! Figure 1's `!path.contains(t)`: it returns what it added as sorted
//! slots in key order, which are the next delta — no storage holds a
//! delta — and nothing else looks a derived tuple up in its relation.
//!
//! The specialized B-tree's adapter reads through the tree's own cursor: a
//! prefix scan is `prefix_range`, a chunk `chunk_range`, both walked a leaf
//! at a time by `for_each`, and a prefix's bounds are the tree's
//! [`RangeChunk::prefix`], which the two locked ordered baselines scan
//! between too.
//!
//! Point operations and scans take a per-thread [`StorageCtx`], which holds
//! nothing: the evaluator reads by sorted blocks, which find the locality
//! the paper's operation hints (§3.2) cached per thread, so the engine's
//! tree reads and writes without them.
//!
//! The seam still offers column-permuted secondary indexes
//! ([`RelationStorage::add_index`], [`RelationStorage::scan_index`]), which
//! the specialized B-tree keeps in step with every write. The engine builds
//! none — every plan reads the primary tree by a prefix or a sweep — and
//! only the repository benchmark and the `ablation` bench build them, to
//! time the layer.
//!
//! The evaluator calls no storage from inside a storage call's callback
//! but [`RelationStorage::scan_chunk`]'s: the join runs inside the outer
//! scan, and every later step reads its matches into a buffer first. That
//! is what lets the locked baselines call a scan's callback under their
//! lock.

use crate::ast::MAX_ARITY;
use baselines::gbtree::GBTreeSet;
use baselines::global_lock::GlobalLock;
use baselines::hashset::HashSet as ChainedHashSet;
use baselines::rbtree::RbTreeSet;
use baselines::splitorder::SplitOrderedSet;
use specbtree::{BTreeSet, RangeChunk, TreeStats};
use std::any::Any;
use std::cmp::Ordering;
use std::sync::Arc;

/// A tuple padded to the maximum arity.
pub type TupleBuf = [u64; MAX_ARITY];

/// Pads a tuple slice to a [`TupleBuf`].
pub fn pad(t: &[u64]) -> TupleBuf {
    let mut out = [0u64; MAX_ARITY];
    out[..t.len()].copy_from_slice(t);
    out
}

/// `words` as a width-`K` key, zero-extended: how a backend narrows a
/// [`TupleBuf`] or completes a scan prefix. Anything beyond the width must
/// be padding — dropping a real column would silently alias distinct
/// tuples, which is what merging storages of different arity would do.
#[inline]
fn key<const K: usize>(words: &[u64]) -> [u64; K] {
    debug_assert!(
        words.iter().skip(K).all(|&w| w == 0),
        "tuple {words:?} is wider than the storage's {K} columns"
    );
    std::array::from_fn(|i| words.get(i).copied().unwrap_or(0))
}

/// A per-thread operation context. It holds nothing: no backend keeps
/// per-thread state, and the type stays only for the callers that still
/// pass one.
#[derive(Default)]
pub struct StorageCtx;

/// One unit of parallel scan work handed out by
/// [`RelationStorage::partition`] and consumed by
/// [`RelationStorage::scan_chunk`].
#[derive(Clone, Debug)]
pub enum StorageChunk {
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
    fn make_ctx(&self) -> StorageCtx {
        StorageCtx
    }

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

    /// Merges sorted runs into this relation and returns what they added,
    /// each tuple once, as slots in key order: taken in order, one strictly
    /// ascending run. A run holds tuples of the storage's
    /// [`width`](Self::width) words each, end to end, strictly ascending;
    /// runs may overlap. Concurrency as for [`insert`](Self::insert). The
    /// specialized B-tree merges on up to `workers` threads, a slot per key
    /// range it claims (`BTreeSet::insert_runs`), and puts what was added,
    /// permuted, into each secondary index as one run; this default inserts
    /// tuple by tuple on the calling thread, a locked kind taking its lock
    /// per tuple, and sorts what was new into one slot.
    fn merge_runs(&self, runs: &[&[u64]], workers: usize) -> Vec<Vec<u64>> {
        let _ = workers;
        let (width, mut ctx) = (self.width(), self.make_ctx());
        let tuples = runs.iter().flat_map(|run| run.chunks_exact(width));
        let mut added: Vec<&[u64]> = tuples.filter(|t| self.insert(&pad(t), &mut ctx)).collect();
        added.sort_unstable();
        vec![added.concat()]
    }

    /// Calls `f` for every tuple whose leading words equal `prefix`.
    /// Quiescent phases only (the two-phase Datalog contract). `f` must not
    /// call into any storage: a locked kind runs it under its lock.
    fn scan_prefix(&self, prefix: &[u64], ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf));

    /// Splits the tuples matching `prefix` into at most `n` chunks for
    /// parallel scanning via [`scan_chunk`](Self::scan_chunk). Returns an
    /// empty vector when nothing matches. Quiescent phases only.
    ///
    /// Ordered backends split the key space itself (no tuples copied);
    /// this default materializes the prefix scan once into a shared
    /// snapshot and slices it, for backends without ordered cursors.
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
            .map(|i| StorageChunk::Materialized {
                tuples: Arc::clone(&tuples),
                start: i * per,
                end: ((i + 1) * per).min(tuples.len()),
            })
            .filter(|c| matches!(c, StorageChunk::Materialized { start, end, .. } if start < end))
            .collect()
    }

    /// Calls `f` for every tuple in `chunk`, a chunk this storage's
    /// [`partition`](Self::partition) cut, in backend order. Quiescent
    /// phases only. `f` may read any quiescent storage: the evaluator joins
    /// inside it. The default serves the snapshot chunks the default
    /// `partition` cuts, with no lock held.
    fn scan_chunk(&self, chunk: &StorageChunk, f: &mut dyn FnMut(&TupleBuf)) {
        let StorageChunk::Materialized { tuples, start, end } = chunk else {
            panic!("a range chunk goes back to the storage that cut it");
        };
        tuples[*start..*end].iter().for_each(f);
    }

    /// Calls `f` for every stored tuple. Quiescent phases only. `f` may
    /// write another storage (the per-tuple merge does) but not this one: a
    /// locked kind runs it under its lock.
    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf));

    /// Number of stored tuples. Quiescent phases only.
    fn len(&self) -> usize;

    /// Whether the relation is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The storage as its concrete type:
    /// [`merge_from`](Self::merge_from)/[`retract_from`](Self::retract_from)
    /// downcast their source to `Self` to recognise a pair of the same kind
    /// *and* width, which is what the tree-to-tree bulk paths need.
    fn as_any(&self) -> &dyn Any;

    /// Number of columns a stored tuple has: the `arity` this storage was
    /// [created for](StorageKind::create_for). Narrower tuples fit, padded
    /// with zeros; a wider storage's do not.
    fn width(&self) -> usize;

    /// Structural census of the specialized B-tree holding this relation's
    /// tuples; `None` for the baselines, which expose no comparable
    /// introspection. Secondary indexes are not part of it. Quiescent
    /// phases only.
    fn tree_stats(&self) -> Option<TreeStats> {
        None
    }

    /// Merges every tuple of `src` into `self` on up to `workers` threads,
    /// returning how many tuples were actually added — how the engine seeds
    /// a fixpoint's first delta with a whole relation, with duplicate
    /// detection fused into the merge itself (no second counting pass).
    ///
    /// The default is the sequential per-tuple fallback every backend
    /// supports; the specialized B-tree overrides it with the parallel
    /// structure-aware merge when `src` is a B-tree of the same width.
    /// `src` must be quiescent, and no wider than `self`: a wider source
    /// panics, in every build, rather than being truncated.
    fn merge_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        let _ = workers;
        merge_sequential(self, src)
    }

    /// Removes every tuple of `src` from `self` on up to `workers` threads,
    /// returning how many were actually present — the deletion dual of
    /// [`merge_from`](Self::merge_from), used by the engine's retraction
    /// pass to subtract an over-deletion set from a full relation. `src`
    /// must be quiescent and no wider than `self`.
    fn retract_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        let _ = workers;
        retract_sequential(self, src)
    }

    /// Registers a secondary index keyed by the column permutation `perm`,
    /// backfilling it from the current contents (`workers` is the caller's
    /// thread budget; the B-tree's backfill, a counting sort straight out of
    /// walks of the primary, runs on the calling thread).
    /// `perm` lists distinct columns of the storage; a list shorter than
    /// the storage's width is completed with the remaining columns in
    /// ascending order. Returns the index id — stable for the
    /// life of the storage, and idempotent: re-registering an existing
    /// permutation returns its id without rebuilding. May be called between
    /// fixpoint iterations on a non-empty relation: the backfill reads the
    /// primary, and every later insert, merge and retraction keeps the
    /// index in step. The default returns `None` ("not supported"); a
    /// caller must only route [`scan_index`](Self::scan_index) through an
    /// id it was given here. Quiescent phases only.
    fn add_index(&mut self, perm: &[usize], workers: usize) -> Option<usize> {
        let _ = (perm, workers);
        None
    }

    /// The column permutations of every registered secondary index, as
    /// registered, in index-id order. Empty for backends without index
    /// support.
    fn index_perms(&self) -> Vec<Vec<usize>> {
        Vec::new()
    }

    /// Calls `f` for every tuple `t` with `t[perm[i]] == prefix[i]` for
    /// all `i < prefix.len()` — a prefix scan *in the permuted column
    /// order*, yielding tuples in their **original** column order.
    /// Backends with a registered index `index` serve this as a range scan
    /// of the permuted tree, and only for an id
    /// [`add_index`](Self::add_index) returned; the default filters a full
    /// scan — correct, but the cost of a full scan per call.
    /// Quiescent phases only; `f` as for [`scan_prefix`](Self::scan_prefix).
    fn scan_index(
        &self,
        index: usize,
        perm: &[usize],
        prefix: &[u64],
        ctx: &mut StorageCtx,
        f: &mut dyn FnMut(&TupleBuf),
    ) {
        let _ = index;
        self.scan_prefix(&[], ctx, &mut |t| {
            if prefix.iter().zip(perm).all(|(&v, &c)| t[c] == v) {
                f(t);
            }
        });
    }
}

/// Every bulk operation between storages that are not the same type ends in
/// one of the two per-tuple fallbacks below, which check this once: `dst`
/// cannot hold `src`'s tuples without dropping columns, and in a release
/// build [`key`] would drop them silently.
fn assert_fits(dst: &(impl RelationStorage + ?Sized), src: &dyn RelationStorage) {
    assert!(
        src.width() <= dst.width(),
        "a storage of {} columns cannot take the tuples of one of {}",
        dst.width(),
        src.width()
    );
}

/// The universal per-tuple merge fallback: iterate `src`, insert into
/// `dst`, count the tuples that were new.
fn merge_sequential(dst: &(impl RelationStorage + ?Sized), src: &dyn RelationStorage) -> u64 {
    assert_fits(dst, src);
    let mut ctx = dst.make_ctx();
    let mut added = 0u64;
    src.for_each(&mut |t| added += u64::from(dst.insert(t, &mut ctx)));
    added
}

/// The universal per-tuple retraction fallback: iterate `src`, remove from
/// `dst`, count the tuples that were present.
fn retract_sequential(dst: &(impl RelationStorage + ?Sized), src: &dyn RelationStorage) -> u64 {
    assert_fits(dst, src);
    let mut ctx = dst.make_ctx();
    let mut removed = 0u64;
    src.for_each(&mut |t| removed += u64::from(dst.remove(t, &mut ctx)));
    removed
}

/// Which data structure backs each relation — the engine-level analog of
/// the paper's Table 1 contestants in the §4.3 experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageKind {
    /// The specialized concurrent B-tree (`btree`).
    SpecBTree,
    /// Red-black tree behind a global lock (`STL rbtset`).
    RbTreeLocked,
    /// Node-based chained hash set behind a global lock (`STL hashset`).
    HashSetLocked,
    /// The sequential Vec-node B-tree behind a global lock (`google btree`).
    GBTreeLocked,
    /// The lock-free split-ordered hash set (`TBB hashset`).
    ConcurrentHashSet,
}

// `create_for` names every width once; a wider `TupleBuf` needs an arm.
const _: () = assert!(MAX_ARITY == 5);

impl StorageKind {
    /// Every kind, in the order the paper's Figure 5 legend lists them.
    pub const ALL: [StorageKind; 5] = [
        StorageKind::SpecBTree,
        StorageKind::RbTreeLocked,
        StorageKind::HashSetLocked,
        StorageKind::GBTreeLocked,
        StorageKind::ConcurrentHashSet,
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            StorageKind::SpecBTree => "btree",
            StorageKind::RbTreeLocked => "STL rbtset",
            StorageKind::HashSetLocked => "STL hashset",
            StorageKind::GBTreeLocked => "google btree",
            StorageKind::ConcurrentHashSet => "TBB hashset",
        }
    }

    /// Creates an empty relation of this kind that stores `arity` columns
    /// per tuple: the one place a declared arity becomes a stored width.
    /// Tuples handed to it must be zero beyond that many columns.
    pub fn create_for(&self, arity: usize) -> Box<dyn RelationStorage> {
        match arity {
            0 | 1 => self.build::<1>(),
            2 => self.build::<2>(),
            3 => self.build::<3>(),
            4 => self.build::<4>(),
            _ => self.build::<MAX_ARITY>(),
        }
    }

    /// Creates an empty relation of this kind wide enough for any tuple.
    pub fn create(&self) -> Box<dyn RelationStorage> {
        self.create_for(MAX_ARITY)
    }

    fn build<const K: usize>(&self) -> Box<dyn RelationStorage> {
        match self {
            StorageKind::SpecBTree => Box::new(SpecBTreeStorage::<K> {
                tree: BTreeSet::new(),
                indexes: Vec::new(),
            }),
            StorageKind::RbTreeLocked => {
                Box::new(Locked::<_, K>(GlobalLock::new(RbTreeSet::new())))
            }
            StorageKind::HashSetLocked => {
                Box::new(Locked::<_, K>(GlobalLock::new(ChainedHashSet::new())))
            }
            StorageKind::GBTreeLocked => {
                Box::new(Locked::<_, K>(GlobalLock::new(GBTreeSet::new())))
            }
            StorageKind::ConcurrentHashSet => {
                Box::new(ConcHashStorage::<K>(SplitOrderedSet::new()))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Secondary index trees (column-permuted copies of the primary)
// ---------------------------------------------------------------------

/// The key order of one secondary index: a B-tree over column-permuted
/// copies of the primary tuples, so a search binding the permutation's
/// leading columns becomes an ordinary prefix range scan. Storing *whole*
/// permuted tuples (not some of their columns) keeps the index a faithful
/// bijection of the primary, which is what the sync proptests pin.
struct IndexPerm<const K: usize> {
    /// The permutation as registered.
    perm: Vec<usize>,
    /// Key column `i` holds tuple column `cols[i]`: `perm`, then whatever
    /// columns of the storage it left out, ascending.
    cols: [usize; K],
}

impl<const K: usize> IndexPerm<K> {
    /// `None` unless `perm` lists distinct columns of a width-`K` storage.
    fn new(perm: &[usize]) -> Option<Self> {
        let valid = |(i, c): (usize, &usize)| *c < K && !perm[..i].contains(c);
        if !perm.iter().enumerate().all(valid) {
            return None;
        }
        let rest = (0..K).filter(|c| !perm.contains(c));
        let order: Vec<usize> = perm.iter().copied().chain(rest).collect();
        Some(Self {
            perm: perm.to_vec(),
            cols: std::array::from_fn(|i| order[i]),
        })
    }

    /// Reorders `t` into index-key order.
    #[inline]
    fn permute(&self, t: &[u64; K]) -> [u64; K] {
        self.cols.map(|c| t[c])
    }

    /// How many leading key columns a backfill has to sort on: the columns
    /// after them ascend as column numbers, so among tuples equal on the
    /// first `lead` key columns primary order *is* index order — `[1, 0]`
    /// sorts on one column, `[1, 0, 2]` on one, `[2, 1, 0]` on two.
    fn lead(&self) -> usize {
        let ascending = |i: &usize| self.cols[i - 1] < self.cols[*i];
        K - 1 - (1..K).rev().take_while(ascending).count()
    }

    /// Inverts [`permute`](Self::permute), widening on the way.
    #[inline]
    fn unpermute(&self, p: &[u64; K]) -> TupleBuf {
        let mut out = [0u64; MAX_ARITY];
        for (&c, &v) in self.cols.iter().zip(p) {
            out[c] = v;
        }
        out
    }
}

struct IndexTree<const K: usize> {
    order: IndexPerm<K>,
    tree: BTreeSet<K>,
}

// ---------------------------------------------------------------------
// Specialized B-tree backend
// ---------------------------------------------------------------------

struct SpecBTreeStorage<const K: usize> {
    tree: BTreeSet<K>,
    indexes: Vec<IndexTree<K>>,
}

impl<const K: usize> SpecBTreeStorage<K> {
    /// Replays a bulk operation on the primary against every secondary
    /// index: `walk` yields its tuples ascending, the same on every call —
    /// what a run added, or a whole source tree. They are put, permuted, in
    /// the index's order with the kernel
    /// [`add_index`](RelationStorage::add_index) builds with; a merge hands
    /// them over as one run, a removal is `remove` per tuple in that order.
    fn maintain_indexes<I>(&self, walk: impl Fn() -> I, remove: bool)
    where
        I: Iterator<Item = [u64; K]>,
    {
        if self.indexes.is_empty() || walk().next().is_none() {
            return;
        }
        let timer = telemetry::start_timer();
        for ix in &self.indexes {
            let walk = || walk().map(|t| ix.order.permute(&t));
            let run = specbtree::sorted_tuples(walk, ix.order.lead());
            if remove {
                run.iter().for_each(|p| _ = ix.tree.remove(p));
            } else {
                ix.tree.insert_run(&run, |_| {});
            }
        }
        timer.observe(telemetry::Hist::EvalIndexMaintainNanos);
    }
}

impl<const K: usize> RelationStorage for SpecBTreeStorage<K> {
    fn insert(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        let t = key(t);
        let added = self.tree.insert(t);
        if added {
            for ix in &self.indexes {
                ix.tree.insert(ix.order.permute(&t));
            }
        }
        added
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        let t = key(t);
        let removed = self.tree.remove(&t);
        if removed {
            for ix in &self.indexes {
                ix.tree.remove(&ix.order.permute(&t));
            }
        }
        removed
    }

    fn contains(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.tree.contains(&key(t))
    }

    fn merge_runs(&self, runs: &[&[u64]], workers: usize) -> Vec<Vec<u64>> {
        let runs: Vec<&[[u64; K]]> = runs
            .iter()
            .map(|run| {
                let (tuples, rest) = run.as_chunks::<K>();
                debug_assert!(rest.is_empty(), "a run of {K}-word tuples");
                tuples
            })
            .collect();
        let added = self.tree.insert_runs(&runs, workers.max(1));
        self.maintain_indexes(|| added.iter().flatten().copied(), false);
        added.into_iter().map(Vec::into_flattened).collect()
    }

    fn scan_prefix(&self, prefix: &[u64], _ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        self.tree.prefix_range(prefix).for_each(|t| f(&pad(&t)));
    }

    fn partition(&self, n: usize, prefix: &[u64]) -> Vec<StorageChunk> {
        if self.tree.is_empty() {
            return Vec::new();
        }
        let RangeChunk { lower, upper } = RangeChunk::prefix(prefix);
        let chunks = self.tree.partition_range(n, lower.as_ref(), upper.as_ref());
        let chunk = |c: RangeChunk<K>| StorageChunk::Range {
            lower: c.lower.map(|t| pad(&t)),
            upper: c.upper.map(|t| pad(&t)),
        };
        chunks.into_iter().map(chunk).collect()
    }

    fn scan_chunk(&self, chunk: &StorageChunk, f: &mut dyn FnMut(&TupleBuf)) {
        let StorageChunk::Range { lower, upper } = chunk else {
            panic!("a snapshot chunk goes back to the storage that cut it");
        };
        let (lower, upper) = (lower.map(|t| key(&t)), upper.map(|t| key(&t)));
        let walk = self.tree.chunk_range(&RangeChunk { lower, upper });
        walk.for_each(|t| f(&pad(&t)));
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        self.tree.iter().for_each(|t| f(&pad(&t)));
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn width(&self) -> usize {
        K
    }

    fn tree_stats(&self) -> Option<TreeStats> {
        Some(self.tree.stats())
    }

    fn merge_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        match src.as_any().downcast_ref::<Self>() {
            // Tree-to-tree: the structure-aware parallel merge (the source
            // cut into disjoint runs, each merged leaf group by leaf group).
            // The bulk path bypasses per-tuple `insert`, so secondary
            // indexes are replayed explicitly afterwards.
            Some(other) => {
                let added = self.tree.insert_all_parallel(&other.tree, workers.max(1));
                self.maintain_indexes(|| other.tree.iter(), false);
                added
            }
            // The per-tuple fallback routes through `insert`, which
            // maintains indexes inline.
            None => merge_sequential(self, src),
        }
    }

    fn retract_from(&self, src: &dyn RelationStorage, workers: usize) -> u64 {
        match src.as_any().downcast_ref::<Self>() {
            // Tree-to-tree: the victim set cut into disjoint runs, each
            // removed by the worker that claims it.
            Some(other) => {
                let removed = self.tree.remove_all_parallel(&other.tree, workers.max(1));
                self.maintain_indexes(|| other.tree.iter(), true);
                removed
            }
            None => retract_sequential(self, src),
        }
    }

    fn add_index(&mut self, perm: &[usize], _workers: usize) -> Option<usize> {
        if let Some(i) = self.indexes.iter().position(|ix| ix.order.perm == perm) {
            return Some(i);
        }
        let order = IndexPerm::new(perm)?;
        let timer = telemetry::start_timer();
        // The primary is walked in key order, so ties on the leading
        // `lead` key columns arrive sorted on the rest: one counting pass
        // per varying digit of those, straight out of the walk.
        let walk = || self.tree.iter().map(|t| order.permute(&t));
        let sorted = specbtree::sorted_tuples(walk, order.lead());
        debug_assert!(sorted.is_sorted_by(|a, b| a < b), "a permuted set");
        let tree = BTreeSet::from_sorted(sorted);
        self.indexes.push(IndexTree { order, tree });
        timer.observe(telemetry::Hist::EvalIndexMaintainNanos);
        telemetry::count(telemetry::Counter::EvalIndexBuilds);
        Some(self.indexes.len() - 1)
    }

    fn index_perms(&self) -> Vec<Vec<usize>> {
        self.indexes
            .iter()
            .map(|ix| ix.order.perm.clone())
            .collect()
    }

    fn scan_index(
        &self,
        index: usize,
        perm: &[usize],
        prefix: &[u64],
        _ctx: &mut StorageCtx,
        f: &mut dyn FnMut(&TupleBuf),
    ) {
        let Some(ix) = self.indexes.get(index) else {
            panic!("index {index} was never registered on this relation");
        };
        debug_assert_eq!(ix.order.perm, perm, "index id / permutation mismatch");
        ix.tree
            .prefix_range(prefix)
            .for_each(|t| f(&ix.order.unpermute(&t)));
    }
}

// ---------------------------------------------------------------------
// Globally locked sequential backends
// ---------------------------------------------------------------------

/// Feeds `f` the tuples of an ordered baseline that start with `prefix`:
/// `seek` is the set's `lower_bound`, and the walk stops at the prefix's
/// end, as the tree's [`prefix_range`](BTreeSet::prefix_range) does.
fn feed_below<const K: usize, I: Iterator<Item = [u64; K]>>(
    prefix: &[u64],
    seek: impl FnOnce(&[u64; K]) -> I,
    mut f: impl FnMut(&[u64; K]),
) {
    let RangeChunk { lower, upper } = RangeChunk::prefix(prefix);
    for t in seek(&lower.unwrap_or([0; K])) {
        if upper.is_some_and(|hi| specbtree::cmp3(&t, &hi) != Ordering::Less) {
            break;
        }
        f(&t);
    }
}

/// What the locked adapter needs of a sequential set of width-`K` keys.
trait SeqSet<const K: usize>: Send + 'static {
    fn insert(&mut self, t: [u64; K]) -> bool;
    fn remove(&mut self, t: &[u64; K]) -> bool;
    fn contains(&self, t: &[u64; K]) -> bool;
    fn len(&self) -> usize;
    fn iter(&self) -> impl Iterator<Item = [u64; K]> + '_;
    /// Calls `f` for every key whose leading words equal `prefix`.
    fn scan(&self, prefix: &[u64], f: impl FnMut(&[u64; K]));
}

macro_rules! impl_seq_set {
    ($($set:ident: |$s:ident, $prefix:ident, $f:ident| $scan:expr;)*) => {$(
        impl<const K: usize> SeqSet<K> for $set<[u64; K]> {
            fn insert(&mut self, t: [u64; K]) -> bool {
                $set::insert(self, t)
            }
            fn remove(&mut self, t: &[u64; K]) -> bool {
                $set::remove(self, t)
            }
            fn contains(&self, t: &[u64; K]) -> bool {
                $set::contains(self, t)
            }
            fn len(&self) -> usize {
                $set::len(self)
            }
            fn iter(&self) -> impl Iterator<Item = [u64; K]> + '_ {
                $set::iter(self)
            }
            fn scan(&self, $prefix: &[u64], mut $f: impl FnMut(&[u64; K])) {
                let $s = self;
                $scan
            }
        }
    )*};
}
impl_seq_set! {
    RbTreeSet: |s, prefix, f| feed_below(prefix, |lo| s.lower_bound(lo), &mut f);
    GBTreeSet: |s, prefix, f| feed_below(prefix, |lo| s.lower_bound(lo), &mut f);
    // No range queries: a filtered sweep, the structural deficiency the
    // paper's comparison highlights.
    ChainedHashSet: |s, prefix, f| {
        s.iter().filter(|t| t.starts_with(prefix)).for_each(|t| f(&t))
    };
}

/// A sequential set behind one global lock (`STL rbtset`, `STL hashset`,
/// `google btree`). Every operation holds the lock, a scan's and
/// [`for_each`](RelationStorage::for_each)'s callbacks included.
struct Locked<S, const K: usize>(GlobalLock<S>);

impl<S: SeqSet<K>, const K: usize> RelationStorage for Locked<S, K> {
    fn insert(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.insert(key(t)))
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.remove(&key(t)))
    }

    fn contains(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.with(|s| s.contains(&key(t)))
    }

    fn scan_prefix(&self, prefix: &[u64], _ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        self.0.with(|s| s.scan(prefix, |t| f(&pad(t))));
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        self.0.with(|s| s.iter().for_each(|t| f(&pad(&t))));
    }

    fn len(&self) -> usize {
        self.0.with(|s| s.len())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn width(&self) -> usize {
        K
    }
}

struct ConcHashStorage<const K: usize>(SplitOrderedSet<[u64; K]>);

impl<const K: usize> RelationStorage for ConcHashStorage<K> {
    fn insert(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.insert(key(t))
    }

    fn remove(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.remove(&key(t))
    }

    fn contains(&self, t: &TupleBuf, _ctx: &mut StorageCtx) -> bool {
        self.0.contains(&key(t))
    }

    fn scan_prefix(&self, prefix: &[u64], _ctx: &mut StorageCtx, f: &mut dyn FnMut(&TupleBuf)) {
        // Unordered structure: range queries degrade to a full scan.
        self.0.for_each(|t| {
            if t.starts_with(prefix) {
                f(&pad(t));
            }
        });
    }

    fn for_each(&self, f: &mut dyn FnMut(&TupleBuf)) {
        self.0.for_each(|t| f(&pad(t)));
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn width(&self) -> usize {
        K
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet as Model;

    /// An `arity`-column tuple made of `a` and `b`: distinct `(a, b)` give
    /// distinct tuples at every arity, and from arity 2 on the leading
    /// column is `a`.
    fn tuple(arity: usize, a: u64, b: u64) -> TupleBuf {
        match arity {
            1 => pad(&[a * 1_000 + b]),
            _ => pad(&[a, b, a + b, 7, b % 3][..arity]),
        }
    }

    fn filled(kind: StorageKind, arity: usize, tuples: &[TupleBuf]) -> Box<dyn RelationStorage> {
        let s = kind.create_for(arity);
        let mut ctx = s.make_ctx();
        for t in tuples {
            s.insert(t, &mut ctx);
        }
        s
    }

    fn contents(s: &dyn RelationStorage) -> Model<TupleBuf> {
        let mut all = Model::new();
        s.for_each(&mut |t| assert!(all.insert(*t), "for_each repeated {t:?}"));
        all
    }

    /// Point operations, prefix scans at every prefix length, and removal,
    /// against a model set.
    fn exercise(kind: StorageKind, arity: usize) {
        let what = format!("{} arity {arity}", kind.label());
        let s = kind.create_for(arity);
        let mut ctx = s.make_ctx();
        assert!(s.is_empty());
        let mut model = Model::new();
        for (a, b) in [(1, 2), (1, 3), (2, 1), (1, 2), (9, 0), (2, 2)] {
            let t = tuple(arity, a, b);
            assert_eq!(s.insert(&t, &mut ctx), model.insert(t), "{what}");
        }
        assert_eq!(s.len(), model.len(), "{what}");
        assert_eq!(contents(&*s), model, "{what}");
        assert!(s.contains(&tuple(arity, 1, 3), &mut ctx), "{what}");
        assert!(!s.contains(&tuple(arity, 3, 1), &mut ctx), "{what}");

        let scans_match = |model: &Model<TupleBuf>, ctx: &mut StorageCtx| {
            for probe in [tuple(arity, 1, 2), tuple(arity, 2, 9), tuple(arity, 5, 5)] {
                for plen in 0..=arity {
                    let mut got = Vec::new();
                    s.scan_prefix(&probe[..plen], ctx, &mut |t| got.push(*t));
                    got.sort_unstable();
                    let want: Vec<TupleBuf> = model
                        .iter()
                        .filter(|t| t[..plen] == probe[..plen])
                        .copied()
                        .collect();
                    assert_eq!(got, want, "{what} prefix {:?}", &probe[..plen]);
                }
            }
        };
        scans_match(&model, &mut ctx);

        // Removal: present, absent, removed-then-gone, reinsert.
        let gone = tuple(arity, 1, 2);
        assert!(s.remove(&gone, &mut ctx), "{what}");
        assert!(!s.remove(&gone, &mut ctx), "{what}");
        assert!(!s.remove(&tuple(arity, 3, 1), &mut ctx), "{what}");
        assert!(!s.contains(&gone, &mut ctx), "{what}");
        model.remove(&gone);
        assert_eq!(s.len(), model.len(), "{what}");
        scans_match(&model, &mut ctx);
        assert!(s.insert(&gone, &mut ctx), "{what}: reinsert after remove");
        assert_eq!(s.len(), model.len() + 1, "{what}");
    }

    /// Index registration and index scans against the model: a permutation
    /// of all `arity` columns on a storage of that width, and the same one
    /// — now shorter than the storage is wide — on a `create()`d storage.
    fn exercise_indexes(kind: StorageKind, arity: usize) {
        let what = format!("{} arity {arity}", kind.label());
        let perm: Vec<usize> = (0..arity).rev().collect();
        let tuples: Vec<TupleBuf> = (0..40u64).map(|i| tuple(arity, i % 5, i / 3)).collect();
        let model: Model<TupleBuf> = tuples.iter().copied().collect();
        for mut s in [kind.create_for(arity), kind.create()] {
            // Only the specialized B-tree builds an index.
            let id = s.add_index(&perm, 2);
            assert_eq!(id.is_some(), kind == StorageKind::SpecBTree, "{what}");
            let mut ctx = s.make_ctx();
            // Half through the backfill of a second index, half through
            // inserts that maintain both.
            let (early, late) = tuples.split_at(tuples.len() / 2);
            for t in early {
                s.insert(t, &mut ctx);
            }
            if id.is_none() {
                assert!(s.index_perms().is_empty(), "{what}");
                continue;
            }
            assert_eq!(s.add_index(&perm, 2), id, "{what}: idempotent");
            let rotated: Vec<usize> = (1..arity).chain([0]).collect();
            s.add_index(&rotated, 2).expect("a second index");
            let perms = s.index_perms();
            assert_eq!(perms[0], perm, "{what}");
            assert_eq!(perms.last(), Some(&rotated), "{what}");
            assert_eq!(s.add_index(&[0, 0], 1), None, "{what}: repeated column");
            assert_eq!(s.add_index(&[MAX_ARITY], 1), None, "{what}: no such column");
            for t in late {
                s.insert(t, &mut ctx);
            }
            for (id, perm) in perms.iter().enumerate() {
                for probe in &tuples[..6] {
                    for plen in 0..=arity {
                        let prefix: Vec<u64> = perm[..plen].iter().map(|&c| probe[c]).collect();
                        let mut got = Vec::new();
                        s.scan_index(id, perm, &prefix, &mut ctx, &mut |t| got.push(*t));
                        got.sort_unstable();
                        let bound = |t: &&TupleBuf| perm[..plen].iter().all(|&c| t[c] == probe[c]);
                        let want: Vec<TupleBuf> = model.iter().filter(bound).copied().collect();
                        assert_eq!(got, want, "{what} index {perm:?} prefix {prefix:?}");
                    }
                }
            }
        }
    }

    /// A merge of runs against the model: on a storage of the tuples'
    /// width, on a `create()`d one fed the same tuples padded to its width,
    /// and on a relation that carries an index, which the merge must keep
    /// exact. Two overlapping runs add their union less what was there,
    /// each new tuple once, and the merge returns exactly those, ascending;
    /// merged again, they add nothing.
    fn exercise_runs(kind: StorageKind, arity: usize) {
        let base: Vec<TupleBuf> = (0..60u64).map(|i| tuple(arity, i % 6, i / 2)).collect();
        let runs: [Model<TupleBuf>; 2] = [
            (0..90u64).map(|i| tuple(arity, i % 9, i / 3)).collect(),
            (45..120u64).map(|i| tuple(arity, i % 9, i / 3)).collect(),
        ];
        let model: Model<TupleBuf> = base.iter().copied().collect();
        let union: Model<TupleBuf> = runs.iter().flatten().copied().collect();
        let fresh: Model<TupleBuf> = union.difference(&model).copied().collect();
        assert!(!fresh.is_empty() && fresh.len() < union.len());
        let perm: Vec<usize> = (0..arity).rev().collect();
        for (width, indexed) in [(arity, false), (MAX_ARITY, false), (arity, true)] {
            let what = format!("{} arity {arity} in {width} words", kind.label());
            let flat = |ts: &Model<TupleBuf>| -> Vec<u64> {
                ts.iter().flat_map(|t| t[..width].iter().copied()).collect()
            };
            let words = runs.each_ref().map(flat);
            let words: Vec<&[u64]> = words.iter().map(Vec::as_slice).collect();
            let mut s = kind.create_for(width);
            let index = indexed.then(|| s.add_index(&perm, 1)).flatten();
            if indexed && index.is_none() {
                continue;
            }
            let mut ctx = s.make_ctx();
            base.iter()
                .for_each(|t| assert!(s.insert(t, &mut ctx), "{what}"));

            let added = s.merge_runs(&words, 2).concat();
            let tuples: Vec<&[u64]> = added.chunks_exact(width).collect();
            assert!(
                tuples.is_sorted_by(|a, b| a < b),
                "{what}: an ascending run"
            );
            let grown: Vec<&[u64]> = fresh.iter().map(|t| &t[..width]).collect();
            assert_eq!(tuples, grown, "{what}: the run is what was added");
            let all: Model<TupleBuf> = model.union(&union).copied().collect();
            assert_eq!(contents(&*s), all, "{what}");
            assert!(s.merge_runs(&words, 2).concat().is_empty(), "{what}");
            assert!(s.merge_runs(&[], 2).concat().is_empty(), "{what}");
            if let Some(id) = index {
                let mut by_index = Model::new();
                s.scan_index(id, &perm, &[], &mut ctx, &mut |t| {
                    assert!(by_index.insert(*t))
                });
                assert_eq!(by_index, all, "{what}: index {perm:?}");
            }
        }
    }

    #[test]
    fn all_backends_conform() {
        for kind in StorageKind::ALL {
            for arity in 1..=MAX_ARITY {
                exercise(kind, arity);
                exercise_indexes(kind, arity);
                exercise_runs(kind, arity);
            }
        }
    }

    #[test]
    fn storage_width_follows_the_declared_arity() {
        // Node bytes per tuple track the arity: the point of the dispatch.
        let bytes_per_tuple = |arity: usize| {
            let tuples: Vec<TupleBuf> = (0..5_000u64).map(|i| tuple(arity, i, i)).collect();
            let s = filled(StorageKind::SpecBTree, arity, &tuples);
            let stats = s.tree_stats().expect("the spec btree has a census");
            assert_eq!(stats.keys, 5_000);
            stats.live_bytes as f64 / 5_000.0
        };
        let wide = bytes_per_tuple(MAX_ARITY);
        assert!(bytes_per_tuple(2) <= 0.5 * wide);
        assert!(bytes_per_tuple(1) < bytes_per_tuple(2));
        // `create()` is the widest storage, and baselines have no census.
        let s = StorageKind::SpecBTree.create();
        let mut ctx = s.make_ctx();
        assert!(s.insert(&[1, 2, 3, 4, 5], &mut ctx));
        assert!(s.contains(&[1, 2, 3, 4, 5], &mut ctx));
        assert!(StorageKind::RbTreeLocked.create().tree_stats().is_none());
    }

    /// Storages of different arity never merge by truncation: a narrower
    /// one refuses a wider source of any kind outright, in release builds
    /// too — even one whose extra column happens to hold zeros.
    #[test]
    fn merging_a_wider_relation_is_caught() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for kind in StorageKind::ALL {
            for src_kind in StorageKind::ALL {
                let wide = filled(src_kind, 3, &[pad(&[1, 2, 0])]);
                assert_eq!((wide.width(), kind.create().width()), (3, MAX_ARITY));
                let narrow = filled(kind, 2, &[pad(&[1, 2])]);
                let what = format!("{} from {}", kind.label(), src_kind.label());
                let merged = catch_unwind(AssertUnwindSafe(|| narrow.merge_from(wide.as_ref(), 1)));
                assert!(merged.is_err(), "merge: {what}");
                let cut = catch_unwind(AssertUnwindSafe(|| narrow.retract_from(wide.as_ref(), 1)));
                assert!(cut.is_err(), "retract: {what}");
                assert_eq!(narrow.len(), 1, "{what}");
                // The other way round nothing is lost, so nothing is refused.
                assert_eq!(wide.merge_from(narrow.as_ref(), 1), 0, "{what}");
                assert_eq!(wide.retract_from(narrow.as_ref(), 1), 1, "{what}");
            }
        }
    }

    /// A scan hands its callback every match, once, before it returns —
    /// its only output — and a locked kind holds its lock across the
    /// callback, so the callback calls into no storage. A callback that
    /// unwinds releases it: the storage answers again. Every kind and
    /// arity, a prefix scan and an index scan (a filtered sweep on the
    /// kinds without indexes).
    #[test]
    fn a_scan_calls_back_with_every_match_while_it_runs() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for kind in StorageKind::ALL {
            for arity in 1..=MAX_ARITY {
                let what = format!("{} arity {arity}", kind.label());
                let tuples: Vec<TupleBuf> = (0..50u64).map(|i| tuple(arity, i % 5, i)).collect();
                let mut s = filled(kind, arity, &tuples);
                let perm: Vec<usize> = (0..arity).rev().collect();
                let index = s.add_index(&perm, 1).unwrap_or(0);
                let mut ctx = s.make_ctx();
                let probe = tuples[1];
                let by_prefix: Model<TupleBuf> = tuples
                    .iter()
                    .filter(|t| t[0] == probe[0])
                    .copied()
                    .collect();
                let mut seen = Model::new();
                s.scan_prefix(&probe[..1], &mut ctx, &mut |t| {
                    assert!(seen.insert(*t), "{what}")
                });
                assert_eq!(seen, by_prefix, "{what}");
                let last = perm[0];
                let by_index: Model<TupleBuf> = tuples
                    .iter()
                    .filter(|t| t[last] == probe[last])
                    .copied()
                    .collect();
                seen.clear();
                let mut add = |t: &TupleBuf| assert!(seen.insert(*t), "{what}");
                s.scan_index(index, &perm, &[probe[last]], &mut ctx, &mut add);
                assert_eq!(seen, by_index, "{what}");
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    s.scan_prefix(&[], &mut ctx, &mut |_| panic!("the first match"))
                }));
                assert!(unwound.is_err(), "{what}");
                assert!(s.contains(&probe, &mut ctx), "{what}: released on unwind");
                assert_eq!(contents(&*s).len(), tuples.len(), "{what}");
            }
        }
    }

    #[test]
    fn retract_from_subtracts_on_all_backend_pairs() {
        // Victim sets arrive either as the same kind (the engine's Del
        // accumulator: the tree-to-tree path where there is one) or as any
        // other backend; both must subtract exactly.
        for arity in 1..=MAX_ARITY {
            let base: Vec<TupleBuf> = (0..500u64).map(|i| tuple(arity, i, i % 7)).collect();
            // Overlap 0..300 plus 100 tuples absent from dst.
            let mut victims = base[..300].to_vec();
            victims.extend((1_000..1_100u64).map(|i| tuple(arity, i, 0)));
            for dst_kind in StorageKind::ALL {
                for src_kind in [dst_kind, StorageKind::SpecBTree, StorageKind::GBTreeLocked] {
                    let src = filled(src_kind, arity, &victims);
                    for workers in [1usize, 4] {
                        let what = format!(
                            "{} -= {} arity {arity} workers {workers}",
                            dst_kind.label(),
                            src_kind.label()
                        );
                        let dst = filled(dst_kind, arity, &base);
                        assert_eq!(dst.retract_from(src.as_ref(), workers), 300, "{what}");
                        let left: Model<TupleBuf> = base[300..].iter().copied().collect();
                        assert_eq!(contents(&*dst), left, "{what}");
                        assert_eq!(src.len(), 400, "{what}: source untouched");
                    }
                }
            }
        }
    }

    #[test]
    fn partition_scan_equals_prefix_scan_on_all_backends() {
        for kind in StorageKind::ALL {
            for arity in 1..=MAX_ARITY {
                let tuples: Vec<TupleBuf> =
                    (0..800u64).map(|i| tuple(arity, i % 8, i / 8)).collect();
                let s = filled(kind, arity, &tuples);
                let mut ctx = s.make_ctx();
                // The whole relation, one leading value, one that matches nothing.
                for prefix in [&[][..], &tuples[3][..1], &[999_999]] {
                    let mut want = Vec::new();
                    s.scan_prefix(prefix, &mut ctx, &mut |t| want.push(*t));
                    want.sort_unstable();
                    for n in [1usize, 3, 8, 64] {
                        let mut got = Vec::new();
                        for c in &s.partition(n, prefix) {
                            s.scan_chunk(c, &mut |t| got.push(*t));
                        }
                        got.sort_unstable();
                        let what = format!("{} arity {arity} n={n} {prefix:?}", kind.label());
                        assert_eq!(got, want, "{what}");
                    }
                }
            }
        }
    }

    /// A chunk is served by the kind that cut it: the tree cuts key ranges,
    /// every other kind snapshot slices, and neither walks the other's.
    #[test]
    fn a_chunk_goes_back_to_the_storage_that_cut_it() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let tuples: Vec<TupleBuf> = (0..100u64).map(|i| pad(&[i])).collect();
        let tree = filled(StorageKind::SpecBTree, 1, &tuples);
        for kind in StorageKind::ALL.into_iter().skip(1) {
            let other = filled(kind, 1, &tuples);
            for (cut, walk) in [(&tree, &other), (&other, &tree)] {
                let chunk = &cut.partition(1, &[])[0];
                let walked = catch_unwind(AssertUnwindSafe(|| walk.scan_chunk(chunk, &mut |_| {})));
                assert!(walked.is_err(), "{}", kind.label());
            }
        }
    }

    #[test]
    fn spec_btree_partition_emits_range_chunks() {
        let tuples: Vec<TupleBuf> = (0..5_000u64).map(|i| pad(&[i / 100, i % 100])).collect();
        let s = filled(StorageKind::SpecBTree, 2, &tuples);
        let chunks = s.partition(8, &[]);
        assert!(chunks.len() > 1, "a deep tree should split");
        assert!(chunks
            .iter()
            .all(|c| matches!(c, StorageChunk::Range { .. })));
        // Empty relations partition to no chunks at all.
        assert!(StorageKind::SpecBTree.create().partition(8, &[]).is_empty());
    }

    #[test]
    fn fallback_partition_materializes_once_and_slices() {
        let tuples: Vec<TupleBuf> = (0..100u64).map(|i| pad(&[i])).collect();
        let s = filled(StorageKind::HashSetLocked, 1, &tuples);
        let chunks = s.partition(4, &[]);
        assert!(!chunks.is_empty());
        let total: usize = chunks
            .iter()
            .map(|c| match c {
                StorageChunk::Materialized { start, end, .. } => end - start,
                StorageChunk::Range { .. } => panic!("hash backend cannot emit ranges"),
            })
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn concurrent_inserts_through_trait() {
        for kind in [StorageKind::SpecBTree, StorageKind::ConcurrentHashSet] {
            let s = kind.create_for(2);
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
