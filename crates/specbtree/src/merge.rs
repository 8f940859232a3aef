//! Structure-aware merging and bulk loading (paper §3.3, "a specialized
//! merge operation which leverages the structure in one B-tree when merged
//! into another").
//!
//! Semi-naive evaluation merges the freshly derived `new` relation into the
//! full relation after every iteration (`path.insert(newPath.begin(),
//! newPath.end())` in the paper's Figure 1). Three specializations make
//! this cheap:
//!
//! 1. A sorted run is applied **leaf group by leaf group**, not tuple by
//!    tuple: one descent to the parent of a leaf group serves every key the
//!    group owns ([`BTreeSet::insert_run`], and its read twin
//!    [`BTreeSet::retain_absent`] — the two calls a Datalog head's batch
//!    makes). Only the sequential [`BTreeSet::insert_all`] still iterates
//!    its source and inserts **with hints**.
//! 2. Sorted runs are **bulk-loaded** into fully packed subtrees in O(n)
//!    without any per-element descent. An empty target adopts the whole
//!    source this way; a non-empty target still takes the bulk path for the
//!    part of the source that sorts after its current maximum, splicing the
//!    prebuilt subtree in under a single write-locked ancestor (the append
//!    fast path — [`BTreeSet::insert_all_parallel`]).
//! 3. The merge runs on **multiple workers**: the source is partitioned by
//!    the *target's* upper-level separators (the same machinery parallel
//!    scans use), so each worker's chunk maps onto a distinct region of the
//!    target.

use crate::node::{cmp3, InnerNode, LeafNode, NodePtr, Tuple};
use crate::tree::BTreeSet;
use optlock::Lease;
use std::cmp::Ordering;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

/// Body chunks produced per merge worker: small enough to keep partition
/// overhead negligible, large enough that claim-order imbalance evens out.
const MERGE_CHUNKS_PER_WORKER: usize = 4;

/// Attempts to acquire the rightmost spine before the splice fast path
/// gives up and falls back to per-tuple insertion.
const SPLICE_ATTEMPTS: usize = 8;

/// Attempts to try-lock a child leaf inside a merge group before the rest
/// of the run falls back to a fresh descent. Bounded because a concurrent
/// splitter holding the child may be blocked on *our* parent lock.
const CHILD_LOCK_ATTEMPTS: usize = 8;

impl<const K: usize, const C: usize> BTreeSet<K, C> {
    /// Merges every tuple of `other` into `self`.
    ///
    /// Concurrency-safe on the target (multiple threads may `insert_all`
    /// disjoint sources into the same target); the source must be quiescent
    /// (it is iterated).
    pub fn insert_all(&self, other: &BTreeSet<K, C>) {
        if other.is_empty() {
            return;
        }
        // Fast path: an empty target adopts a bulk-loaded copy wholesale.
        if self.root.load(Relaxed).is_null() {
            let built = build_from_sorted::<K, C>(other.iter());
            if !built.is_null() {
                if self.root_lock.try_start_write() {
                    if self.root.load(Relaxed).is_null() {
                        self.root.store(built, Relaxed);
                        self.root_lock.end_write();
                        telemetry::count(telemetry::Counter::BtreeMergeBulkLoad);
                        return;
                    }
                    self.root_lock.end_write();
                }
                // Lost the race: discard the prebuilt copy, insert normally.
                Self::abandon_subtree(built);
            }
        }
        telemetry::count(telemetry::Counter::BtreeMergePerTuple);
        let mut hints = self.create_hints();
        for t in other.iter() {
            self.insert_hinted(t, &mut hints);
        }
    }

    /// Merges every tuple of `other` into `self` on up to `workers`
    /// threads, returning how many tuples were actually added (i.e. were
    /// not already present).
    ///
    /// Structure-aware end to end:
    ///
    /// * an empty target adopts a bulk-loaded copy wholesale (as
    ///   [`insert_all`](Self::insert_all));
    /// * the part of the source that sorts entirely **after** the target's
    ///   current maximum is bulk-built and spliced in
    ///   under a single write-locked ancestor of the rightmost spine (the
    ///   append fast path — `specbtree.merge_splice` counts engagements);
    /// * the rest is partitioned by the *target's* upper-level separators
    ///   and merged chunk-by-chunk with a batched per-leaf merge join
    ///   ([`insert_run`](Self::insert_run) — one descent, one write lock and
    ///   one rebuild per target leaf instead of per tuple;
    ///   `specbtree.merge_chunks` counts chunks).
    ///
    /// `workers` is a request, capped to the machine's available
    /// parallelism: oversubscribed merge threads only add scheduling
    /// latency to a phase that is memory-bound, never throughput.
    ///
    /// Concurrency contract as [`insert_all`](Self::insert_all): safe on
    /// the target under concurrent merges/inserts; the source must be
    /// quiescent.
    pub fn insert_all_parallel(&self, other: &BTreeSet<K, C>, workers: usize) -> u64 {
        if other.is_empty() {
            return 0;
        }
        let workers = workers
            .min(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
            .max(1);
        // Empty target: adopt a bulk-loaded copy wholesale.
        if self.root.load(Relaxed).is_null() {
            let mut items: Vec<Tuple<K>> = Vec::with_capacity(other.len());
            crate::iter::RangeIter::new(other.iter(), None).collect_into(&mut items);
            let built = build_from_slice::<K, C>(&items);
            if !built.is_null() {
                if self.root_lock.try_start_write() {
                    if self.root.load(Relaxed).is_null() {
                        self.root.store(built, Relaxed);
                        self.root_lock.end_write();
                        telemetry::count(telemetry::Counter::BtreeMergeBulkLoad);
                        return items.len() as u64;
                    }
                    self.root_lock.end_write();
                }
                Self::abandon_subtree(built);
            }
        }

        // Split the source at the target's maximum: the part beyond it is
        // an append run served by the splice fast path, the rest (the
        // "body") overlaps existing content and merges per tuple.
        let tmax = self.last();
        let tail: Vec<Tuple<K>> = match &tmax {
            Some(m) => other.upper_bound(m).collect(),
            None => Vec::new(), // transiently empty target: per-tuple below
        };
        let body_upper = tail.first().copied();
        let added = AtomicU64::new(0);

        // Partition the body by the *target's* separators so every chunk
        // maps onto a distinct target region. A single worker takes the
        // body as one run: chunk boundaries only exist to balance claims.
        let nchunks = if workers == 1 {
            1
        } else {
            workers.saturating_mul(MERGE_CHUNKS_PER_WORKER)
        };
        let chunks = self.partition_range(nchunks, None, body_upper.as_ref());
        let has_body = match (other.first(), &body_upper) {
            (Some(f), Some(hi)) => cmp3(&f, hi) == Ordering::Less,
            (Some(_), None) => true,
            (None, _) => false,
        };

        let merge_tail = |tail: &[Tuple<K>]| {
            if tail.is_empty() {
                return;
            }
            let _span = telemetry::span("btree.splice", tail.len() as u64);
            if tail.len() >= 2 && self.try_splice_append(tail) {
                added.fetch_add(tail.len() as u64, Relaxed);
                return;
            }
            // Splice not applicable (lost a race, full splice node, run too
            // short/tall): batched merge fallback.
            added.fetch_add(self.insert_run(tail), Relaxed);
        };

        let cursor = AtomicUsize::new(0);
        let merge_chunks = || {
            let mut buf: Vec<Tuple<K>> = Vec::with_capacity(other.len() / chunks.len().max(1) + 1);
            let mut local = 0u64;
            loop {
                let i = cursor.fetch_add(1, Relaxed);
                if i >= chunks.len() {
                    break;
                }
                telemetry::count(telemetry::Counter::BtreeMergeChunks);
                let _span = telemetry::span("btree.merge_chunk", i as u64);
                buf.clear();
                other.chunk_range(&chunks[i]).collect_into(&mut buf);
                local += self.insert_run(&buf);
            }
            added.fetch_add(local, Relaxed);
        };

        let body_workers = if has_body {
            workers.min(chunks.len()).max(1)
        } else {
            0
        };
        if workers <= 1 || body_workers + usize::from(!tail.is_empty()) <= 1 {
            // Inline: nothing to run concurrently (also keeps the chaos
            // harness in control — no hidden threads at `workers == 1`).
            if has_body {
                merge_chunks();
            }
            merge_tail(&tail);
        } else {
            std::thread::scope(|s| {
                if !tail.is_empty() {
                    s.spawn(|| merge_tail(&tail));
                }
                // Each worker runs the same chunk-claiming loop; the borrow
                // keeps the closure reusable across spawns.
                #[allow(clippy::needless_borrows_for_generic_args)]
                for _ in 0..body_workers {
                    s.spawn(&merge_chunks);
                }
            });
        }
        added.load(Relaxed)
    }

    /// Removes every tuple of `other` from `self` on up to `workers`
    /// threads, returning how many tuples were actually removed (i.e. were
    /// present).
    ///
    /// The bulk-retraction mirror of
    /// [`insert_all_parallel`](Self::insert_all_parallel): the source is
    /// partitioned by the *target's* upper-level separators, so each
    /// worker's chunk maps onto a distinct target region and the
    /// deletions it performs ([`remove`](Self::remove)) stay cache-local.
    /// There is no bulk fast path: retraction removes keys one leaf shift
    /// at a time and occasionally unlinks a drained leaf.
    ///
    /// Concurrency contract as the merge: safe on the target under
    /// concurrent inserts/merges/removes; the source must be quiescent.
    pub fn remove_all_parallel(&self, other: &BTreeSet<K, C>, workers: usize) -> u64 {
        if other.is_empty() || self.root.load(Relaxed).is_null() {
            return 0;
        }
        let workers = workers
            .min(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            )
            .max(1);
        let nchunks = if workers == 1 {
            1
        } else {
            workers.saturating_mul(MERGE_CHUNKS_PER_WORKER)
        };
        // Partition by the *target's* separators: every chunk of the source
        // lands in a distinct region of the target tree.
        let chunks = self.partition_range(nchunks, None, None);
        let removed = AtomicU64::new(0);
        let cursor = AtomicUsize::new(0);
        let remove_chunks = || {
            let mut buf: Vec<Tuple<K>> = Vec::with_capacity(other.len() / chunks.len().max(1) + 1);
            let mut local = 0u64;
            loop {
                let i = cursor.fetch_add(1, Relaxed);
                if i >= chunks.len() {
                    break;
                }
                telemetry::count(telemetry::Counter::BtreeMergeChunks);
                let _span = telemetry::span("btree.remove_chunk", i as u64);
                buf.clear();
                other.chunk_range(&chunks[i]).collect_into(&mut buf);
                for t in &buf {
                    if self.remove(t) {
                        local += 1;
                    }
                }
            }
            removed.fetch_add(local, Relaxed);
        };
        let body_workers = workers.min(chunks.len()).max(1);
        if body_workers <= 1 {
            // Inline: keeps the chaos harness in control — no hidden
            // threads at `workers == 1`.
            remove_chunks();
        } else {
            std::thread::scope(|s| {
                #[allow(clippy::needless_borrows_for_generic_args)]
                for _ in 0..body_workers {
                    s.spawn(&remove_chunks);
                }
            });
        }
        removed.load(Relaxed)
    }

    /// Merges a strictly ascending, duplicate-free run into the tree with a
    /// grouped merge join: one optimistic descent locates the *parent* of
    /// the leaf group owning the next run keys, and one write lock on that
    /// parent then covers the whole group — every leaf merge, leaf split
    /// and even a split of the parent itself happens under it, without
    /// re-descending. Per-tuple insertion pays a descent, four lock
    /// transitions and an O(leaf) shift per key; this pays one descent and
    /// two lock transitions per parent group (up to `C + 1` leaves) plus a
    /// bounded try-lock per leaf and one O(leaf + batch) in-place merge per
    /// touched leaf. Returns the number of keys actually added. Safe under
    /// concurrent runs, merges and point inserts; reads and writes no hint.
    ///
    /// Group ownership argument: the descent tracks the tightest right-hand
    /// separator (`upper`) strictly *above* the located parent,
    /// hand-over-hand validated like Algorithm 1. Once the parent's write
    /// lock is held, its key interval can only shrink by splitting the
    /// parent itself — which the lock excludes — so every run key below
    /// `upper` still belongs under this parent. Within the group the
    /// parent's separators are exact (read under its write lock) and route
    /// each sub-batch to its child leaf; duplicates of elements stored at
    /// ancestors are caught during the descent, duplicates at the parent by
    /// its own exact search, duplicates inside leaves by the merge pass.
    ///
    /// A cross-batch shortcut (restarting the next descent from the
    /// previous parent under its old lease) measured *slower* here — the
    /// extra per-level state bloats the hot loop for a descent that is only
    /// 3–4 levels; the grouped lock already amortizes the descent across
    /// dozens of leaves.
    pub fn insert_run(&self, run: &[Tuple<K>]) -> u64 {
        debug_assert!(run.is_sorted_by(|a, b| cmp3(a, b) == Ordering::Less));
        if run.is_empty() {
            return 0;
        }
        self.ensure_root();
        telemetry::add(telemetry::Counter::BtreeRunKeys, run.len() as u64);
        let (mut added, mut i) = (0u64, 0usize);
        while i < run.len() {
            let Some((target, lease, upper, is_leaf)) = self.descend_to_group(&run[i]) else {
                i += 1; // an ancestor's separator: a duplicate
                continue;
            };
            // The group's parent, not a leaf: the whole group merges below.
            chaos::checkpoint("btree::merge::group_upgrade");
            // SAFETY: live node (nodes are never freed).
            if !unsafe { &*target }.lock.try_upgrade_to_write(lease) {
                chaos::hint::spin_loop();
                continue;
            }
            i = if is_leaf {
                self.merge_into_root_leaf(target, run, i, &mut added)
            } else {
                self.merge_group(target, run, i, &upper, &mut added)
            };
        }
        added
    }

    /// The descent both run operations share — Algorithm 1's read side,
    /// restarted until it validates: the lowest inner node on `val`'s path
    /// (the parent of `val`'s leaf group) or, flagged `true`, the root while
    /// the tree is one leaf; its lease, validated after the child was read;
    /// and the tightest right-hand separator strictly *above* it (its own
    /// bound sub-runs, not the group). `None`: an ancestor's separator is `val`.
    fn descend_to_group(
        &self,
        val: &Tuple<K>,
    ) -> Option<(NodePtr<K, C>, Lease, Option<Tuple<K>>, bool)> {
        telemetry::count(telemetry::Counter::BtreeRunDescents);
        'acquire: loop {
            chaos::checkpoint("btree::merge::descend");
            let (mut cur, mut cur_lease) = self.read_root();
            let mut upper: Option<Tuple<K>> = None;
            loop {
                // SAFETY: live node (nodes are never freed).
                let node = unsafe { &*cur };
                if !node.is_inner() {
                    return Some((cur, cur_lease, upper, true));
                }
                let n = node.num_clamped();
                let (idx, found) = node.search(val, n);
                if found {
                    if node.lock.validate(cur_lease) {
                        return None;
                    }
                    continue 'acquire;
                }
                // SAFETY: is_inner checked; node kind never changes.
                let next = unsafe { node.as_inner() }.child(idx);
                let up = (idx < n).then(|| node.key(idx));
                if !node.lock.validate(cur_lease) || next.is_null() {
                    continue 'acquire;
                }
                // SAFETY: read under a validated lease: a live child, and a
                // node's kind never changes.
                if !unsafe { &*next }.is_inner() {
                    return Some((cur, cur_lease, upper, false));
                }
                if up.is_some() {
                    upper = up;
                }
                // SAFETY: as above.
                let next_lease = unsafe { &*next }.lock.start_read();
                if !node.lock.validate(cur_lease) {
                    continue 'acquire;
                }
                cur = next;
                cur_lease = next_lease;
            }
        }
    }

    /// The read twin of [`insert_run`](Self::insert_run): moves the keys of
    /// the strictly ascending `run` that the tree lacks to its front, in
    /// order, and returns their number. One descent per leaf group, no lock,
    /// no hint. Linearizable per key under concurrent inserts: one present
    /// before the call is never kept, one absent until it returns always is.
    ///
    /// Ownership argument. What the parent owns changes only through writes
    /// that end on the parent (its split, a separator swapped in from its
    /// spine), so while its lease validates every run key from `run[i]` up
    /// to `upper` is the parent's separator, or in the one child its
    /// separators route it to, or nowhere: an ancestor's separator is below
    /// `run[i]` or at least `upper`, and a key moves from under the parent
    /// to an ancestor only when the parent splits. Each child is read under
    /// a lease of its own taken hand over hand (child lease started, parent
    /// lease validated again), so the leaf joined owned the sub-run when its
    /// lease began. Nothing is written to `run` before that lease validates:
    /// `run` is input and output at once, and compacting over a torn read
    /// loses keys the retry needs. A failed validation re-descends for the
    /// rest; what was committed stays.
    pub fn retain_absent(&self, run: &mut [Tuple<K>]) -> usize {
        debug_assert!(run.is_sorted_by(|a, b| cmp3(a, b) == Ordering::Less));
        if self.root.load(Relaxed).is_null() {
            return run.len();
        }
        telemetry::add(telemetry::Counter::BtreeRunKeys, run.len() as u64);
        let (mut kept, mut i) = (0usize, 0usize);
        'run: while i < run.len() {
            let Some((parent, lease, upper, is_leaf)) = self.descend_to_group(&run[i]) else {
                i += 1; // an ancestor's separator: present
                continue;
            };
            // SAFETY: live node (nodes are never freed).
            let pn = unsafe { &*parent };
            if is_leaf {
                // The root leaf is the whole tree: nothing bounds the join.
                i = join_leaf(pn, lease, run, i, &None, &mut kept).unwrap_or(i);
                continue;
            }
            // SAFETY: seen inner during the descent; kind never changes.
            let pi = unsafe { pn.as_inner() };
            let (mut x, _) = pn.search(&run[i], pn.num_clamped());
            while i < run.len() && below(&run[i], &upper) {
                let n = pn.num_clamped();
                let found;
                (x, found) = route_from(pn, &run[i], x, n);
                let child = pi.child(x);
                let sep = if x < n { Some(pn.key(x)) } else { upper };
                if !pn.lock.validate(lease) || child.is_null() {
                    continue 'run;
                }
                if found {
                    i += 1; // the parent's separator: present
                    continue;
                }
                // SAFETY: read under a validated lease: a live child.
                let cn = unsafe { &*child };
                let child_lease = cn.lock.start_read();
                if !pn.lock.validate(lease) {
                    continue 'run;
                }
                match join_leaf(cn, child_lease, run, i, &sep, &mut kept) {
                    Some(j) => i = j,
                    None => continue 'run,
                }
            }
        }
        kept
    }

    /// Merges run keys into the group of child leaves below the
    /// write-locked inner node `parent`, whose subtree owns every run key
    /// strictly below `upper`. Releases the lock and returns the new run
    /// position — short of the group bound only if a child's bounded
    /// try-lock failed, in which case the caller re-descends for the rest.
    fn merge_group(
        &self,
        parent: NodePtr<K, C>,
        run: &[Tuple<K>],
        i: usize,
        upper: &Option<Tuple<K>>,
        added: &mut u64,
    ) -> usize {
        // SAFETY: write-locked by us; seen inner during the descent.
        let pn = unsafe { &*parent };
        let pi = unsafe { pn.as_inner() };
        // The group bound: run keys strictly below it belong under this
        // parent. Tightens to the promoted median if the parent itself
        // splits. Checked once per sub-batch, not once per key — each key
        // is scanned exactly once below, against a separator or the bound.
        let mut bound: Option<Tuple<K>> = *upper;
        let mut k = i;
        // Routing hint: the run is ascending, so once a child is done the
        // next key sorts at or after its separator — a short forward scan
        // replaces a fresh binary search. Invalidated by splits (they
        // reshuffle the separator array).
        let mut idx_hint: Option<usize> = None;
        'group: while k < run.len() && below(&run[k], &bound) {
            // Route run[k] with the parent's exact separators.
            let n = pn.num();
            let (idx, found) = match idx_hint {
                Some(h) => route_from(pn, &run[k], h, n),
                None => pn.search(&run[k], n),
            };
            if found {
                k += 1; // duplicate of an element stored at the parent
                idx_hint = Some(idx);
                continue 'group;
            }
            idx_hint = Some(idx);
            let child = pi.child(idx);
            debug_assert!(!child.is_null());
            // Sub-batch: keys below the child's right-hand separator (its
            // own for an interior child, the group bound for the rightmost),
            // matched once: tested per key it cost `tc_random` a fifth.
            let mut j = run.len();
            if let Some(sep) = if idx < n { Some(pn.key(idx)) } else { bound } {
                j = k + 1;
                while j < run.len() && cmp3(&run[j], &sep) == Ordering::Less {
                    j += 1;
                }
            }
            // Bounded try-lock. A concurrent splitter already holding this
            // child blocks on *our* parent lock (Algorithm 2 locks bottom-
            // up), so waiting here unboundedly would deadlock — after a few
            // attempts the group is abandoned and the rest of the run
            // re-descends once the parent lock is released.
            // SAFETY: children of a write-locked parent are live and stay
            // its children (re-homing requires the parent's lock).
            let cn = unsafe { &*child };
            let mut locked = false;
            for _ in 0..CHILD_LOCK_ATTEMPTS {
                chaos::checkpoint("btree::merge::child_lock");
                if cn.lock.try_start_write() {
                    locked = true;
                    break;
                }
                chaos::hint::spin_loop();
            }
            if !locked {
                break 'group;
            }
            loop {
                let (nk, fresh) = merge_leaf_pass(cn, run, k, j);
                *added += fresh as u64;
                k = nk;
                if k >= j {
                    break;
                }
                // The child is exactly full. If the parent is full too,
                // split the parent first through the regular bottom-up path
                // (Algorithm 2 expects the held write lock and keeps it).
                // Its upper half of children — possibly including this very
                // child — re-homes to a new sibling outside the held group,
                // so the group shrinks to the promoted parent median.
                if pn.num() == C {
                    let pmedian = pn.key(C / 2);
                    self.split(parent, C / 2);
                    idx_hint = None;
                    bound = Some(pmedian);
                    if cn.parent.load(Relaxed) != parent {
                        // The child moved to the sibling, so its pending
                        // keys sort at or beyond the median: outside the
                        // tightened group bound. The group loop terminates.
                        debug_assert!(cmp3(&run[k], &pmedian) != Ordering::Less);
                        cn.lock.end_write();
                        continue 'group;
                    }
                    // The child stayed, so its separator sorts below the
                    // median: `j` is unaffected by the tightened bound.
                }
                // Both locks held and the parent has room: split the child
                // in place. When the pending batch sorts entirely at or
                // beyond the median, the split fuses with the merge — the
                // leaf's upper half and the batch keys stream straight into
                // the fresh sibling, each key written once to its final
                // home, instead of copy-then-revisit. Otherwise the leaf
                // retains the lower half and batch keys below the median
                // continue merging right here; in both cases the remainder
                // re-routes through the parent's extended separators —
                // still under the same group lock, no re-descent.
                let m = Self::leaf_split_point(cn.search(&run[k], C).0);
                let median = cn.key(m);
                if cmp3(&run[k], &median) != Ordering::Less {
                    let (nk, fadd) = self.split_leaf_merged(parent, child, run, k, j, m);
                    *added += fadd;
                    k = nk;
                    idx_hint = None;
                    break; // consumed, or the rest re-routes via the parent
                }
                self.split_one(child, m);
                idx_hint = None;
                let mut nj = k;
                while nj < j && cmp3(&run[nj], &median) == Ordering::Less {
                    nj += 1;
                }
                j = nj;
            }
            cn.lock.end_write();
        }
        pn.lock.end_write();
        k
    }

    /// Splits a full leaf (its own and its parent's write locks held, the
    /// parent with room) while streaming `run[k..j)` — which sorts entirely
    /// at or beyond the promoted median — into the new sibling: the leaf
    /// keeps the lower half, the sibling is filled by a forward merge of
    /// the leaf's upper half and the batch keys, each key written once to
    /// its final position, and the median is pushed into the parent exactly
    /// as [`split_one`](Self::split_one) would. Where `split_one` copies
    /// the upper half and leaves the batch to re-visit the sibling through
    /// the router, this writes the merged result directly. Returns the new
    /// run position and the number of keys added.
    ///
    /// The sibling never strands upper-half keys: a batch key is only taken
    /// while the remaining slots exceed the remaining upper-half keys
    /// (`li > s`); once that slack is gone the rest of the batch re-routes
    /// (the sibling comes out exactly full, so the router splits it).
    fn split_leaf_merged(
        &self,
        parent: NodePtr<K, C>,
        child: NodePtr<K, C>,
        run: &[Tuple<K>],
        mut k: usize,
        j: usize,
        m: usize,
    ) -> (usize, u64) {
        // SAFETY: both write-locked by the caller.
        let cn = unsafe { &*child };
        debug_assert!(!cn.is_inner());
        debug_assert_eq!(cn.num(), C);
        let median = cn.key(m);
        // A batch key equal to the median is a duplicate: its element now
        // moves to the parent. At most one (the run is strictly ascending).
        if k < j && cmp3(&run[k], &median) == Ordering::Equal {
            k += 1;
        }
        telemetry::count(telemetry::Counter::BtreeLeafSplits);
        let sib = LeafNode::<K, C>::alloc();
        // SAFETY: freshly allocated, private until published below.
        let sn = unsafe { &*sib };
        let mut added = 0u64;
        let mut li = m + 1;
        let mut s = 0usize;
        loop {
            if k < j && li < C {
                match cn.cmp_key(li, &run[k]) {
                    Ordering::Less => {
                        let t = cn.key(li);
                        sn.set_key(s, &t);
                        li += 1;
                        s += 1;
                    }
                    Ordering::Equal => k += 1, // duplicate: the leaf copy moves
                    Ordering::Greater => {
                        if li <= s {
                            break; // no slack left: the rest re-routes
                        }
                        sn.set_key(s, &run[k]);
                        k += 1;
                        s += 1;
                        added += 1;
                    }
                }
            } else if li < C {
                let t = cn.key(li);
                sn.set_key(s, &t);
                li += 1;
                s += 1;
            } else if k < j && s < C {
                sn.set_key(s, &run[k]);
                k += 1;
                s += 1;
                added += 1;
            } else {
                break;
            }
        }
        // Drain any upper-half keys left when the batch closed early (the
        // slack invariant guarantees they fit).
        while li < C {
            let t = cn.key(li);
            sn.set_key(s, &t);
            li += 1;
            s += 1;
        }
        sn.set_num(s);
        cn.set_num(m);

        // Promote the median into the (held) parent, as split_one does.
        // SAFETY: write-locked by the caller; known inner.
        let pn = unsafe { &*parent };
        let pi = unsafe { pn.as_inner() };
        let pnum = pn.num();
        debug_assert!(pnum < C, "caller ensures the parent has room");
        let pos = cn.position.load(Relaxed) as usize;
        debug_assert_eq!(pi.child(pos), child, "position link out of date");
        for q in (pos..pnum).rev() {
            pn.copy_key_within(q, q + 1);
        }
        for q in ((pos + 1)..=pnum).rev() {
            let ch = pi.child(q);
            pi.set_child(q + 1, ch);
            // SAFETY: children of the write-locked parent are live.
            unsafe { &*ch }.position.store((q + 1) as u16, Relaxed);
        }
        pn.set_key(pos, &median);
        pi.set_child(pos + 1, sib);
        sn.parent.store(parent, Relaxed);
        sn.position.store((pos + 1) as u16, Relaxed);
        pn.set_num(pnum + 1);
        (k, added)
    }

    /// Merges run keys into a write-locked leaf — the root, while the tree
    /// is one node tall — splitting through the regular bottom-up path as
    /// needed (after the first split the tree is two levels and subsequent
    /// batches take the grouped path). Releases the lock and returns the
    /// new run position.
    fn merge_into_root_leaf(
        &self,
        leaf: NodePtr<K, C>,
        run: &[Tuple<K>],
        i: usize,
        added: &mut u64,
    ) -> usize {
        // No ancestor, no bound: the rest of the run belongs here.
        let mut j = run.len();
        // SAFETY: write-locked by us.
        let node = unsafe { &*leaf };
        let mut k = i;
        loop {
            let (nk, fresh) = merge_leaf_pass(node, run, k, j);
            *added += fresh as u64;
            k = nk;
            if k >= j {
                break;
            }
            // Capacity cut: the leaf is exactly full. Split it (Algorithm 2
            // expects and keeps our write lock); the leaf retains the lower
            // half, so batch keys below the promoted median continue right
            // here (a key *equal* to the median is caught as an
            // ancestor-separator duplicate on re-descent).
            let m = Self::leaf_split_point(node.search(&run[k], C).0);
            let median = node.key(m);
            self.split(leaf, m);
            let mut nj = k;
            while nj < j && cmp3(&run[nj], &median) == Ordering::Less {
                nj += 1;
            }
            if nj == k {
                break; // the whole remainder sorts beyond the median
            }
            j = nj;
        }
        node.lock.end_write();
        k
    }

    /// Splices an ascending run that sorts entirely after the target's
    /// current maximum: `run[0]` becomes a separator in a rightmost-spine
    /// ancestor and `run[1..]` is bulk-built as the new rightmost subtree.
    ///
    /// Locking: the whole rightmost spine is write-locked **bottom-up**
    /// (leaf first, root lock last) — the same order Algorithm 2's split
    /// uses, so the two protocols compose without deadlock. Under the
    /// locks the spine is re-validated (still the rightmost path, target
    /// maximum still below `run[0]`); any doubt returns `false` and the
    /// caller falls back to per-tuple insertion.
    fn try_splice_append(&self, run: &[Tuple<K>]) -> bool {
        if run.len() < 2 || self.root.load(Relaxed).is_null() {
            return false;
        }
        let sep = run[0];
        // Build outside the locks: lock hold time stays O(depth).
        let built = build_from_slice::<K, C>(&run[1..]);
        debug_assert!(!built.is_null());
        let built_h = subtree_height(built);

        chaos::checkpoint("btree::splice");
        let mut attempts = 0;
        let spine: Vec<NodePtr<K, C>> = 'acquire: loop {
            attempts += 1;
            if attempts > SPLICE_ATTEMPTS {
                Self::abandon_subtree(built);
                return false;
            }
            // Optimistic descent along the rightmost spine (hand-over-hand
            // validated, as Algorithm 1).
            let (mut cur, mut cur_lease) = self.read_root();
            loop {
                // SAFETY: live node (nodes are never freed).
                let node = unsafe { &*cur };
                if !node.is_inner() {
                    break;
                }
                let n = node.num_clamped();
                // SAFETY: is_inner just checked; kind never changes.
                let next = unsafe { node.as_inner() }.child(n);
                if !node.lock.validate(cur_lease) || next.is_null() {
                    continue 'acquire;
                }
                // SAFETY: read under a validated lease: a live child.
                let next_lease = unsafe { &*next }.lock.start_read();
                if !node.lock.validate(cur_lease) {
                    continue 'acquire;
                }
                cur = next;
                cur_lease = next_lease;
            }
            // SAFETY: live node.
            if !unsafe { &*cur }.lock.try_upgrade_to_write(cur_lease) {
                chaos::hint::spin_loop();
                continue 'acquire;
            }
            // Climb, write-locking every ancestor with the same
            // parent-re-check idiom as split(), ending at the root lock.
            let mut spine = vec![cur];
            let mut node = cur;
            loop {
                // SAFETY: spine nodes are live.
                let parent = unsafe { &*node }.parent.load(Relaxed);
                if parent.is_null() {
                    self.root_lock.start_write();
                    break;
                }
                let mut p = parent;
                loop {
                    // SAFETY: parent pointers always reference live nodes.
                    unsafe { &*p }.lock.start_write();
                    let now = unsafe { &*node }.parent.load(Relaxed);
                    if now == p {
                        break;
                    }
                    unsafe { &*p }.lock.abort_write();
                    debug_assert!(!now.is_null(), "a node never becomes the root");
                    p = now;
                }
                spine.push(p);
                node = p;
            }
            // Validate under the locks: top of spine is the current root,
            // every spine node is its parent's rightmost child, and the
            // rightmost leaf's last key is still below the run.
            let top_is_root = self.root.load(Relaxed) == *spine.last().unwrap();
            let rightmost = spine.windows(2).all(|w| {
                // SAFETY: write-locked spine nodes; parents are inner.
                let pn = unsafe { &*w[1] };
                unsafe { pn.as_inner() }.child(pn.num()) == w[0]
            });
            // SAFETY: the leaf is write-locked by us.
            let leaf = unsafe { &*spine[0] };
            let leaf_n = leaf.num();
            let max_below = leaf_n > 0 && cmp3(&leaf.key(leaf_n - 1), &sep) == Ordering::Less;
            if top_is_root && rightmost && max_below {
                break spine;
            }
            // Stale path (or an empty leaf — only an empty tree has one,
            // and that cannot be appended *after*): release and retry.
            self.release_spine(&spine);
            if leaf_n == 0 {
                Self::abandon_subtree(built);
                return false;
            }
        };

        // Attach the prebuilt subtree at the level that keeps all leaves at
        // equal depth: its root becomes a child of the spine node
        // `built_h` levels above the leaf, or of a brand-new root when the
        // run is as tall as the tree itself.
        let h = spine.len();
        let spliced = if built_h > h {
            false // taller than the target: per-tuple fallback handles it
        } else if built_h == h {
            let old_root = *spine.last().unwrap();
            let new_root = InnerNode::<K, C>::alloc();
            // SAFETY: freshly allocated, private until published below.
            let rn = unsafe { &*new_root };
            rn.set_key(0, &sep);
            rn.set_num(1);
            let ri = unsafe { rn.as_inner() };
            ri.set_child(0, old_root);
            ri.set_child(1, built);
            // SAFETY: old root is write-locked by us; `built` is private.
            unsafe { &*old_root }.parent.store(new_root, Relaxed);
            unsafe { &*old_root }.position.store(0, Relaxed);
            unsafe { &*built }.parent.store(new_root, Relaxed);
            unsafe { &*built }.position.store(1, Relaxed);
            telemetry::count(telemetry::Counter::BtreeRootGrowth);
            chaos::checkpoint("btree::root_swap");
            self.root.store(new_root, Relaxed);
            true
        } else {
            // SAFETY: write-locked spine node strictly above leaf level.
            let a = spine[built_h];
            let an = unsafe { &*a };
            debug_assert!(an.is_inner());
            let num = an.num();
            if num < C {
                an.set_key(num, &sep);
                let ai = unsafe { an.as_inner() };
                ai.set_child(num + 1, built);
                // SAFETY: `built` is private until this store publishes it.
                unsafe { &*built }.parent.store(a, Relaxed);
                unsafe { &*built }.position.store((num + 1) as u16, Relaxed);
                an.set_num(num + 1);
                true
            } else {
                false // splice node full: fall back rather than split here
            }
        };

        self.release_spine(&spine);
        if spliced {
            telemetry::count(telemetry::Counter::BtreeMergeSplice);
        } else {
            Self::abandon_subtree(built);
        }
        spliced
    }

    /// Releases a write-locked rightmost spine: root lock first, then the
    /// node locks top-down (mirror of Algorithm 2's unlock phase).
    fn release_spine(&self, spine: &[NodePtr<K, C>]) {
        self.root_lock.end_write();
        for p in spine.iter().rev() {
            // SAFETY: every spine node is write-locked by the caller.
            unsafe { &**p }.lock.end_write();
        }
    }

    /// Frees a prebuilt, never-published subtree.
    fn abandon_subtree(root: NodePtr<K, C>) {
        if !root.is_null() {
            // SAFETY: the subtree is private to the caller and never
            // published.
            unsafe { LeafNode::free_subtree(root) };
        }
    }

    /// Builds a fully packed tree from an ascending, duplicate-free tuple
    /// sequence in O(n).
    ///
    /// # Panics
    /// In debug builds, panics if the input is not strictly ascending.
    pub fn from_sorted<I: IntoIterator<Item = Tuple<K>>>(items: I) -> Self {
        let set = Self::new();
        let root = build_from_sorted::<K, C>(items.into_iter());
        if !root.is_null() {
            set.root.store(root, Relaxed);
        }
        set
    }
}

/// Whether `t` sorts below the bound `hi`; no bound is above everything.
#[inline]
fn below<const K: usize>(t: &Tuple<K>, hi: &Option<Tuple<K>>) -> bool {
    hi.as_ref().is_none_or(|u| cmp3(t, u) == Ordering::Less)
}

/// Routes `t` by `node`'s first `n` separators, scanning forward from `x`,
/// where a run's last key went: the first index from `x` on whose key is not
/// below `t`, and whether that key is `t` itself.
#[inline]
fn route_from<const K: usize, const C: usize>(
    node: &LeafNode<K, C>,
    t: &Tuple<K>,
    mut x: usize,
    n: usize,
) -> (usize, bool) {
    while x < n {
        match node.cmp_key(x, t) {
            Ordering::Less => x += 1,
            Ordering::Equal => return (x, true),
            Ordering::Greater => break,
        }
    }
    (x, false)
}

/// Merge-joins the keys of `run[i..]` below `bound` with `leaf`, read under
/// `lease`, and — once the lease validates — moves those the leaf does not
/// hold up to `run[*kept..]`. Returns where the sub-run ended; `None`, with
/// nothing written, if the lease did not validate.
fn join_leaf<const K: usize, const C: usize>(
    leaf: &LeafNode<K, C>,
    lease: Lease,
    run: &mut [Tuple<K>],
    i: usize,
    bound: &Option<Tuple<K>>,
    kept: &mut usize,
) -> Option<usize> {
    let n = leaf.num_clamped();
    let (mut li, _) = leaf.search(&run[i], n);
    // Run positions the leaf holds, at most one per key of the leaf.
    let (mut hits, mut nh) = ([0usize; C], 0usize);
    let mut j = i;
    // A run key not above a key of the leaf is below the leaf's bound.
    while j < run.len() && li < n {
        match leaf.cmp_key(li, &run[j]) {
            Ordering::Less => li += 1,
            Ordering::Equal => {
                hits[nh] = j;
                (nh, li, j) = (nh + 1, li + 1, j + 1);
            }
            Ordering::Greater => j += 1,
        }
    }
    // Past the leaf's last key: absent as far as the leaf's interval goes.
    while j < run.len() && below(&run[j], bound) {
        j += 1;
    }
    chaos::checkpoint("btree::run::join");
    // Planted bug for the chaos self-test: a join committed without
    // validating the leaf's lease reports keys of a torn leaf absent.
    let skip_validate = cfg!(all(chaos, feature = "chaos-inject-bug"));
    if !skip_validate && !leaf.lock.validate(lease) {
        return None;
    }
    let mut from = i;
    for &hit in hits[..nh].iter().chain([&j]) {
        if *kept != from {
            run.copy_within(from..hit, *kept);
        }
        *kept += hit - from;
        from = hit + 1;
    }
    Some(j)
}

/// One merge pass of `run[k..j)` into a write-locked leaf. Pass 1 counts
/// the fresh (non-duplicate) run keys compare-only — with the lazy
/// word-by-word [`cmp_key`](LeafNode::cmp_key), tuples usually decide on
/// their leading column — cutting off the moment the leaf would overflow.
/// Pass 2 merges them backward in place: each key moves at most once and
/// the untouched prefix stays put. Returns the new run position and the
/// number of keys added; a position short of `j` means the leaf was left
/// exactly full (ready to split).
fn merge_leaf_pass<const K: usize, const C: usize>(
    node: &LeafNode<K, C>,
    run: &[Tuple<K>],
    k: usize,
    j: usize,
) -> (usize, usize) {
    let n = node.num();
    let start = k;
    let mut k = k;
    // Jump-start the scan: every leaf key below the first run key's lower
    // bound compares `Less` anyway, so skip them in O(log n) up front.
    let (mut li, _) = node.search(&run[k], n);
    let mut fresh = 0usize;
    while k < j {
        let ord = if li < n {
            node.cmp_key(li, &run[k])
        } else {
            Ordering::Greater
        };
        match ord {
            Ordering::Less => li += 1,
            Ordering::Equal => {
                li += 1;
                k += 1;
            }
            Ordering::Greater => {
                if n + fresh + 1 > C {
                    break;
                }
                fresh += 1;
                k += 1;
            }
        }
    }
    if fresh > 0 {
        let (mut a, mut b) = (n, k);
        let mut dst = n + fresh;
        while b > start && dst > a {
            let ord = if a == 0 {
                Ordering::Less
            } else {
                node.cmp_key(a - 1, &run[b - 1])
            };
            match ord {
                Ordering::Less => {
                    dst -= 1;
                    node.set_key(dst, &run[b - 1]);
                    b -= 1;
                }
                Ordering::Equal => b -= 1, // duplicate: the leaf copy stays
                Ordering::Greater => {
                    dst -= 1;
                    node.copy_key_within(a - 1, dst);
                    a -= 1;
                }
            }
        }
        node.set_num(n + fresh);
    }
    debug_assert!(k >= j || n + fresh == C);
    (k, fresh)
}

/// Height of a quiescent (freshly built) subtree: 1 for a lone leaf.
fn subtree_height<const K: usize, const C: usize>(mut node: NodePtr<K, C>) -> usize {
    let mut h = 0;
    while !node.is_null() {
        h += 1;
        // SAFETY: live subtree nodes.
        let n = unsafe { &*node };
        if !n.is_inner() {
            break;
        }
        // SAFETY: kind checked above.
        node = unsafe { n.as_inner() }.child(0);
    }
    h
}

/// [`build_from_sorted`] over a slice (avoids re-collecting when the caller
/// already materialized the run).
fn build_from_slice<const K: usize, const C: usize>(items: &[Tuple<K>]) -> NodePtr<K, C> {
    build_from_sorted::<K, C>(items.iter().copied())
}

/// Builds a packed subtree from a sorted stream; returns null for an empty
/// stream. Leaves are filled to capacity (maximum compactness — the shape
/// in-order insertion converges towards, taken to its limit).
fn build_from_sorted<const K: usize, const C: usize>(
    items: impl Iterator<Item = Tuple<K>>,
) -> NodePtr<K, C> {
    let items: Vec<Tuple<K>> = items.collect();
    if items.is_empty() {
        return std::ptr::null_mut();
    }
    if cfg!(debug_assertions) {
        for w in items.windows(2) {
            debug_assert!(
                cmp3(&w[0], &w[1]) == Ordering::Less,
                "from_sorted requires strictly ascending input"
            );
        }
    }

    // Level 0: pack items into full leaves, pulling one separator out of
    // the stream between consecutive leaves.
    let n = items.len();
    let mut leaves: Vec<NodePtr<K, C>> = Vec::new();
    let mut seps: Vec<Tuple<K>> = Vec::new();
    let mut i = 0;
    while i < n {
        let mut take = C.min(n - i);
        // A separator needs at least one element after it; shrink this leaf
        // by one when exactly one element would be stranded.
        if n - i - take == 1 && take > 1 {
            take -= 1;
        }
        let leaf = LeafNode::<K, C>::alloc();
        // SAFETY: freshly allocated, private.
        let ln = unsafe { &*leaf };
        for (slot, item) in items[i..i + take].iter().enumerate() {
            ln.set_key(slot, item);
        }
        ln.set_num(take);
        leaves.push(leaf);
        i += take;
        if i < n {
            debug_assert!(n - i >= 2, "separator without a following leaf");
            seps.push(items[i]);
            i += 1;
        }
    }

    // Upper levels: group child nodes under inner nodes until one remains.
    let mut nodes = leaves;
    let mut level_seps = seps;
    while nodes.len() > 1 {
        debug_assert_eq!(level_seps.len() + 1, nodes.len());
        let mut new_nodes: Vec<NodePtr<K, C>> = Vec::new();
        let mut new_seps: Vec<Tuple<K>> = Vec::new();
        let mut ni = 0;
        let mut si = 0;
        while ni < nodes.len() {
            let mut group = (C + 1).min(nodes.len() - ni);
            // A group of one child has no keys, which is invalid; donate one
            // child from this group to avoid a stranded single.
            if nodes.len() - ni - group == 1 && group > 1 {
                group -= 1;
            }
            debug_assert!(group >= 2 || nodes.len() == 1);
            let inner = InnerNode::<K, C>::alloc();
            // SAFETY: freshly allocated, private.
            let pn = unsafe { &*inner };
            let pi = unsafe { pn.as_inner() };
            for (slot, key) in level_seps[si..si + group - 1].iter().enumerate() {
                pn.set_key(slot, key);
            }
            pn.set_num(group - 1);
            for (slot, &child) in nodes[ni..ni + group].iter().enumerate() {
                pi.set_child(slot, child);
                // SAFETY: children were allocated by this builder.
                let cn = unsafe { &*child };
                cn.parent.store(inner, Relaxed);
                cn.position.store(slot as u16, Relaxed);
            }
            ni += group;
            si += group - 1;
            if ni < nodes.len() {
                new_seps.push(level_seps[si]);
                si += 1;
            }
            new_nodes.push(inner);
        }
        nodes = new_nodes;
        level_seps = new_seps;
    }
    nodes[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    type Set = BTreeSet<2, 8>;

    fn pairs(n: u64) -> Vec<Tuple<2>> {
        (0..n).map(|i| [i / 10, i % 10]).collect()
    }

    #[test]
    fn from_sorted_empty() {
        let s = Set::from_sorted(std::iter::empty());
        assert!(s.is_empty());
        s.check_invariants().unwrap();
    }

    #[test]
    fn from_sorted_single() {
        let s = Set::from_sorted([[5, 5]]);
        assert_eq!(s.len(), 1);
        assert!(s.contains(&[5, 5]));
        s.check_invariants().unwrap();
    }

    #[test]
    fn from_sorted_various_sizes_roundtrip() {
        for n in [1u64, 2, 7, 8, 9, 16, 17, 63, 64, 65, 200, 1000] {
            let input = pairs(n);
            let s = Set::from_sorted(input.clone());
            s.check_invariants()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            let out: Vec<_> = s.iter().collect();
            assert_eq!(out, input, "n={n}");
        }
    }

    #[test]
    fn from_sorted_is_compact() {
        let s = Set::from_sorted(pairs(1000));
        let shape = s.shape();
        assert!(
            shape.fill_grade(8) > 0.9,
            "bulk-loaded tree should be packed, got {}",
            shape.fill_grade(8)
        );
    }

    #[test]
    fn bulk_loaded_tree_accepts_further_inserts() {
        let s = Set::from_sorted(pairs(500));
        assert!(s.insert([999, 999]));
        assert!(!s.insert([0, 0])); // already present
        assert!(s.insert([0, 99]));
        s.check_invariants().unwrap();
        assert_eq!(s.len(), 502);
    }

    #[test]
    fn insert_all_into_empty_takes_bulk_path() {
        let src = Set::from_sorted(pairs(300));
        let dst = Set::new();
        dst.insert_all(&src);
        assert_eq!(dst.len(), 300);
        dst.check_invariants().unwrap();
        assert!(dst.shape().fill_grade(8) > 0.9, "bulk path not taken?");
    }

    #[test]
    fn insert_all_merges_overlapping_sets() {
        let a = Set::from_sorted(pairs(100));
        let b = Set::from_sorted((50..150).map(|i| [i / 10, i % 10]));
        a.insert_all(&b);
        assert_eq!(a.len(), 150);
        a.check_invariants().unwrap();
        for t in pairs(150) {
            assert!(a.contains(&t), "{t:?} missing after merge");
        }
    }

    #[test]
    fn insert_all_empty_source_is_noop() {
        let a = Set::from_sorted(pairs(10));
        let b = Set::new();
        a.insert_all(&b);
        assert_eq!(a.len(), 10);
    }

    /// A leaf the merge path appends to splits full, as one a hinted insert
    /// appends to does (`leaf_split_point`): a tree grown only by ascending
    /// runs, each above the last, comes out packed (0.50 while the merge path
    /// cut at the median). Runs that interleave land between keys, mostly
    /// split at the median and fill as they always did.
    #[test]
    fn leaves_grown_by_ascending_runs_are_full() {
        let grow = |runs: &[Vec<Tuple<2>>]| {
            let t: BTreeSet<2> = BTreeSet::new();
            let added: u64 = runs.iter().map(|r| t.insert_run(r)).sum();
            assert_eq!(added as usize, runs.iter().map(Vec::len).sum::<usize>());
            t.check_invariants().unwrap();
            t.stats().leaf_fill()
        };
        // Run lengths on no boundary of a leaf: 20 000 keys, 137 at a time.
        let keys: Vec<Tuple<2>> = (0..20_000u64).map(|i| [i / 100, i % 100]).collect();
        let ascending: Vec<Vec<Tuple<2>>> = keys.chunks(137).map(<[_]>::to_vec).collect();
        let fill = grow(&ascending);
        assert!(fill >= 0.9, "ascending runs left leaves {fill:.3} full");
        // The same keys shuffled, 1 000 to a sorted run: every run lands
        // among the keys of the runs before it (0.687 with every cut at the
        // median, 0.672 now that a sub-run above its leaf's last key cuts
        // late).
        let (mut x, mut shuffled) = (12_345u64, keys.clone());
        for i in (1..shuffled.len()).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            shuffled.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut interleaved: Vec<Vec<Tuple<2>>> =
            shuffled.chunks(1_000).map(<[_]>::to_vec).collect();
        interleaved.iter_mut().for_each(|r| r.sort_unstable());
        let fill = grow(&interleaved);
        assert!((0.62..0.72).contains(&fill), "interleaved runs: {fill:.3}");
    }

    #[test]
    fn concurrent_insert_all_into_shared_target() {
        let target = Set::new();
        let sources: Vec<Set> = (0..4)
            .map(|t| Set::from_sorted((0..250u64).map(|i| [t as u64, i])))
            .collect();
        std::thread::scope(|s| {
            for src in &sources {
                let target = &target;
                s.spawn(move || target.insert_all(src));
            }
        });
        assert_eq!(target.len(), 1000);
        target.check_invariants().unwrap();
    }
}
