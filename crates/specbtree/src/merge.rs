//! Structure-aware merging and bulk loading (paper §3.3, "a specialized
//! merge operation which leverages the structure in one B-tree when merged
//! into another").
//!
//! Semi-naive evaluation merges what an iteration derived into the full
//! relation after every iteration (`path.insert(newPath.begin(),
//! newPath.end())` in the paper's Figure 1). There is one way keys go
//! into a tree in bulk, and it is by **runs**:
//!
//! 1. A sorted run is applied **leaf group by leaf group**, not tuple by
//!    tuple: one descent to the parent of a leaf group serves every key the
//!    group owns ([`BTreeSet::insert_run`]), and each key the run adds is
//!    handed to the caller, in run order — the merge is also the anti-join
//!    Figure 1's `!path.contains(t)` makes, and what it reports is the next
//!    delta. A leaf the run fills splits the one way a point insert's
//!    does, `split_one` at `leaf_split_point`, and the keys above the cut
//!    re-route to the new sibling under the same group lock. No merge
//!    reads or writes a hint.
//! 2. Many runs, whose key ranges overlap (a Datalog iteration's flushed
//!    batches), are cut into key ranges at keys sampled from all of them,
//!    and the ranges claimed off one cursor by up to `workers` threads, a
//!    range one `insert_run` per run's piece of it
//!    ([`BTreeSet::insert_runs`]), which returns what each range added,
//!    sorted, range after range: the next delta. A source tree is cut into
//!    ascending runs along **its own** upper-level separators (the
//!    machinery parallel scans use) and claimed the same way, each run one
//!    `insert_run` — or, for a bulk removal, one `remove` per key
//!    ([`BTreeSet::insert_all_parallel`], [`BTreeSet::remove_all_parallel`];
//!    [`BTreeSet::insert_all`] is the former at one worker). Two workers
//!    meet where their runs fall into one leaf group of the target; the
//!    group's write lock orders them, and each added key is reported by the
//!    one run that wrote it. An empty target takes the source the same way:
//!    the first run fills the root leaf and splits it, and the rest goes in
//!    by groups.
//! 3. A sorted sequence is **bulk-loaded** into a new tree of fully packed
//!    nodes in O(n) without any per-element descent
//!    ([`BTreeSet::from_sorted`]).

use crate::node::{cmp3, InnerNode, LeafNode, Tuple};
use crate::tree::BTreeSet;
use optlock::Lease;
use std::cmp::Ordering;
use std::ptr;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::OnceLock;

/// Runs a source is cut into per merge worker: small enough to keep partition
/// overhead negligible, large enough that claim-order imbalance evens out.
/// What the cut buys is the second worker: with every merge forced onto the
/// calling thread a two-worker run read 1.16× longer on `tc_random` and
/// 1.13× on `security` (EXPERIMENTS.md, "Merge by callers").
const MERGE_CHUNKS_PER_WORKER: usize = 4;

/// Attempts to try-lock a child leaf inside a merge group before the rest
/// of the run falls back to a fresh descent. Bounded because a concurrent
/// splitter holding the child may be blocked on *our* parent lock.
const CHILD_LOCK_ATTEMPTS: usize = 8;

/// Where [`BTreeSet::descend_to_group`] stopped.
#[derive(Clone, Copy)]
enum Group<'t, const K: usize, const C: usize> {
    /// The root, while the tree is one leaf: nothing bounds its run keys.
    RootLeaf(&'t LeafNode<K, C>),
    /// The parent of the leaf group on the key's path.
    Parent(&'t InnerNode<K, C>),
}

impl<'t, const K: usize, const C: usize> Group<'t, K, C> {
    /// The node whose lease the descent returned.
    fn node(self) -> &'t LeafNode<K, C> {
        match self {
            Group::RootLeaf(leaf) => leaf,
            Group::Parent(parent) => parent,
        }
    }
}

impl<const K: usize, const C: usize> BTreeSet<K, C> {
    /// Merges every tuple of `other` into `self` on the calling thread:
    /// [`insert_all_parallel`](Self::insert_all_parallel) at one worker.
    ///
    /// Concurrency-safe on the target (multiple threads may `insert_all`
    /// disjoint sources into the same target); the source must be quiescent
    /// (it is iterated).
    pub fn insert_all(&self, other: &BTreeSet<K, C>) {
        self.insert_all_parallel(other, 1);
    }

    /// Merges every tuple of `other` into `self` on up to `workers`
    /// threads, returning how many tuples were actually added (i.e. were
    /// not already present).
    ///
    /// The target, empty or not, takes the source as runs cut along the
    /// *source's* upper-level separators — disjoint key ranges, each
    /// merged with a batched per-leaf merge join
    /// ([`insert_run`](Self::insert_run): one descent per leaf group, one
    /// write lock and one rebuild per target leaf instead of per tuple;
    /// `specbtree.merge_chunks` counts runs). A source no deeper than a root
    /// over leaves is one run and merges on the calling thread whatever
    /// `workers` says: spawning costs more than a few hundred tuples do.
    ///
    /// `workers` is a request, capped to the machine's available
    /// parallelism: oversubscribed merge threads only add scheduling
    /// latency to a phase that is memory-bound, never throughput.
    ///
    /// Concurrency contract as [`insert_all`](Self::insert_all): safe on
    /// the target under concurrent merges/inserts; the source must be
    /// quiescent.
    pub fn insert_all_parallel(&self, other: &BTreeSet<K, C>, workers: usize) -> u64 {
        other.for_each_run(workers, "btree.merge_chunk", |run| {
            self.insert_run(run, |_| {})
        })
    }

    /// Removes every tuple of `other` from `self` on up to `workers`
    /// threads, returning how many tuples were actually removed (i.e. were
    /// present).
    ///
    /// The bulk-retraction mirror of
    /// [`insert_all_parallel`](Self::insert_all_parallel): the same runs —
    /// disjoint key ranges cut along the source's separators, so the
    /// deletions of one worker ([`remove`](Self::remove)) stay cache-local
    /// and apart from the next worker's — and the same rule for a small
    /// source. There is no bulk fast path: retraction removes keys one leaf
    /// shift at a time, and a drained leaf leaves the tree only with the
    /// separator to its right.
    ///
    /// Concurrency contract as the merge: safe on the target under
    /// concurrent inserts/merges/removes; the source must be quiescent.
    pub fn remove_all_parallel(&self, other: &BTreeSet<K, C>, workers: usize) -> u64 {
        if self.root.load(Relaxed).is_null() {
            return 0;
        }
        other.for_each_run(workers, "btree.remove_chunk", |run| {
            run.iter().filter(|t| self.remove(t)).count() as u64
        })
    }

    /// Merges `runs` into the tree on up to `workers` threads and returns
    /// the keys they added as ascending slots in key order, none empty: the
    /// keys of each slot strictly ascend and sort above every key of the
    /// slot before. Each run is strictly ascending and duplicate-free; their
    /// key ranges may overlap, and a key two runs hold is added, and
    /// returned, once.
    /// The key space is cut into `n = workers × MERGE_CHUNKS_PER_WORKER`
    /// ranges, or one a `C³` keys if that makes more, at the `n`-quantiles
    /// of a sample of every run (every run read at one stride, about
    /// `n × min(n, C)` keys in all), and the ranges are claimed off one
    /// cursor; a range merges its piece of every run, one
    /// [`insert_run`](Self::insert_run) each. Runs claimed whole that span
    /// the key space walk the same leaf groups side by side; cut at the
    /// longest run's quantiles, one chunk's run of a Datalog iteration left
    /// most keys to two ranges, and the two-worker merge of a 1 500-vertex
    /// closure took 0.30–0.33 s where the sampled cut takes 0.20–0.22 s
    /// (0.33 s at one worker). One worker, or fewer keys than a root over
    /// full leaves holds (`C²`), cuts only by the `C³` bound, and ranges
    /// are then merged on the calling thread, as a source too shallow to
    /// cut is in [`insert_all_parallel`](Self::insert_all_parallel).
    ///
    /// A range collects what its pieces added into a slot reserved at their
    /// length and shrunk to what they added. The pieces interleave, so the
    /// slot is sorted once, by the stable sort, which merges the ascending
    /// pieces it finds; the slots are returned as they are, in range order,
    /// and no key is copied again. The `C³` bound keeps a slot and its
    /// sort's scratch small, so the next range's slot and the tree's new
    /// nodes reuse their memory: one range at one worker held
    /// `tc_random`'s peak resident set 2–4 MiB above a delta tree's
    /// (EXPERIMENTS.md, "The delta is a run").
    ///
    /// Two ranges still meet where a leaf group straddles their bound, and
    /// at its parent's write lock. A piece that descends to the group after
    /// the other let go of it finds the other's keys in the leaf's merge
    /// pass and skips them, without a restart; one whose lease the other's
    /// write invalidated re-descends, as any merge's upgrade does, and what
    /// it merged before stays merged and returned.
    pub fn insert_runs(&self, runs: &[&[Tuple<K>]], workers: usize) -> Vec<Vec<Tuple<K>>> {
        let keys: usize = runs.iter().map(|r| r.len()).sum();
        let n = match cap(workers) {
            w if w > 1 && keys >= C * C => w * MERGE_CHUNKS_PER_WORKER,
            _ => 1,
        };
        let n = n.max(keys / (C * C * C));
        let stride = (keys / (n * n.min(C))).max(1);
        let mut sample: Vec<Tuple<K>> = runs
            .iter()
            .flat_map(|r| r.iter().step_by(stride))
            .copied()
            .collect();
        sample.sort_unstable();
        let mut cuts: Vec<Tuple<K>> = (1..n).map(|i| sample[i * sample.len() / n]).collect();
        cuts.dedup();
        let start = |run: &[Tuple<K>], cut: Option<&Tuple<K>>| {
            cut.map_or(run.len(), |c| {
                run.partition_point(|t| cmp3(t, c) == Ordering::Less)
            })
        };
        let slots: Vec<OnceLock<Vec<Tuple<K>>>> =
            (0..=cuts.len()).map(|_| OnceLock::new()).collect();
        claim(slots.len(), workers, "btree.run", |i, _: &mut Vec<()>| {
            let piece = |run: &[Tuple<K>]| {
                i.checked_sub(1).map_or(0, |c| start(run, Some(&cuts[c])))..start(run, cuts.get(i))
            };
            let mut slot = Vec::with_capacity(runs.iter().map(|run| piece(run).len()).sum());
            for run in runs {
                self.insert_run(&run[piece(run)], |t| slot.push(*t));
            }
            slot.sort();
            slot.shrink_to_fit();
            let n = slot.len() as u64;
            _ = slots[i].set(slot);
            n
        });
        let slots = slots.into_iter().flat_map(OnceLock::into_inner);
        slots.filter(|slot| !slot.is_empty()).collect()
    }

    /// The bulk driver over a tree: cuts this (quiescent) tree into at most
    /// `workers × MERGE_CHUNKS_PER_WORKER` ascending runs of disjoint key
    /// ranges and hands each to `apply` ([`claim`]), summing what it
    /// returns. A tree [`partition`](Self::partition) will not cut (no
    /// deeper than a root over leaves) is one run, served on the calling
    /// thread.
    ///
    /// The cut is made at one worker too. The boundaries buy no balance
    /// there, but a run is copied out of the tree into a buffer that starts
    /// empty — no walk to count the tuples first — and a quarter of the tree
    /// at a time keeps that buffer, doubling included, under what the count
    /// would have reserved: `peak_rss_mb` 0.96–0.98× on `tc_random` and
    /// `security`, where the whole tree as one run read 1.02×.
    fn for_each_run(
        &self,
        workers: usize,
        span: &'static str,
        apply: impl Fn(&[Tuple<K>]) -> u64 + Sync,
    ) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let chunks = self.partition(cap(workers).saturating_mul(MERGE_CHUNKS_PER_WORKER));
        claim(chunks.len(), workers, span, |i, run| {
            self.chunk_range(&chunks[i]).for_each(|t| run.push(t));
            apply(run)
        })
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
    /// touched leaf. Hands `added` every key the run adds, in run order,
    /// while the lock of the leaf it goes into is held, and returns their
    /// number: the run less what the tree held, which is what Figure 1's
    /// `contains` before each insert would have found. Safe under
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
    pub fn insert_run(&self, run: &[Tuple<K>], mut added: impl FnMut(&Tuple<K>)) -> u64 {
        debug_assert!(run.is_sorted_by(|a, b| cmp3(a, b) == Ordering::Less));
        if run.is_empty() {
            return 0;
        }
        self.ensure_root();
        telemetry::add(telemetry::Counter::BtreeRunKeys, run.len() as u64);
        let mut n = 0u64;
        let added = &mut |t: &Tuple<K>| {
            n += 1;
            added(t)
        };
        let mut i = 0usize;
        while i < run.len() {
            let Some((group, lease, upper)) = self.descend_to_group(&run[i]) else {
                i += 1; // an ancestor's separator: a duplicate
                continue;
            };
            // The group's parent, not a leaf: the whole group merges below.
            chaos::checkpoint("btree::merge::group_upgrade");
            if !group.node().lock.try_upgrade_to_write(lease) {
                chaos::hint::spin_loop();
                continue;
            }
            i = match group {
                Group::RootLeaf(leaf) => self.merge_into_root_leaf(leaf, run, i, added),
                Group::Parent(parent) => self.merge_group(parent, run, i, &upper, added),
            };
        }
        n
    }

    /// The descent of a run — Algorithm 1's read side,
    /// restarted until it validates: the lowest inner node on `val`'s path
    /// (the parent of `val`'s leaf group) or the root while the tree is one
    /// leaf; its lease, validated after the child was read; and the tightest
    /// right-hand separator strictly *above* it (its own bound sub-runs, not
    /// the group). `None`: an ancestor's separator is `val`.
    /// The point operations' [`descend`](Self::descend) stops one level lower
    /// and counts the last node's key in its bound, hence the second loop.
    fn descend_to_group(
        &self,
        val: &Tuple<K>,
    ) -> Option<(Group<'_, K, C>, Lease, Option<Tuple<K>>)> {
        telemetry::count(telemetry::Counter::BtreeRunDescents);
        'acquire: loop {
            chaos::checkpoint("btree::merge::descend");
            let (root, mut cur_lease) = self.read_root();
            let Some(mut node) = root.inner() else {
                return Some((Group::RootLeaf(root), cur_lease, None));
            };
            let mut upper: Option<Tuple<K>> = None;
            loop {
                let n = node.num_clamped();
                let (idx, found) = node.search(val, n);
                if found {
                    if node.lock.validate(cur_lease) {
                        return None;
                    }
                    continue 'acquire;
                }
                let next = node.child(idx);
                let up = (idx < n).then(|| node.key(idx));
                let valid = node.lock.validate(cur_lease);
                let (true, Some(next)) = (valid, next) else {
                    continue 'acquire;
                };
                let Some(next) = next.inner() else {
                    return Some((Group::Parent(node), cur_lease, upper));
                };
                if up.is_some() {
                    upper = up;
                }
                let next_lease = next.lock.start_read();
                if !node.lock.validate(cur_lease) {
                    continue 'acquire;
                }
                node = next;
                cur_lease = next_lease;
            }
        }
    }

    /// Merges run keys into the group of child leaves below the
    /// write-locked inner node `parent`, whose subtree owns every run key
    /// strictly below `upper`. Releases the lock and returns the new run
    /// position — short of the group bound only if a child's bounded
    /// try-lock failed, in which case the caller re-descends for the rest.
    fn merge_group(
        &self,
        pn: &InnerNode<K, C>,
        run: &[Tuple<K>],
        i: usize,
        upper: &Option<Tuple<K>>,
        added: &mut impl FnMut(&Tuple<K>),
    ) -> usize {
        // The group bound: run keys strictly below it belong under this
        // parent. Tightens to the promoted median if the parent itself
        // splits. Checked once per sub-batch, not once per key — each key
        // is scanned exactly once below, against a separator or the bound.
        let mut bound: Option<Tuple<K>> = *upper;
        let mut k = i;
        // Routing hint: the run is ascending, so once a child is done the
        // next key sorts at or after its separator — a short forward scan
        // replaces a fresh binary search. Invalidated by the parent's split
        // (it reshuffles the separator array); a child's split only inserts
        // after the hint.
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
            // Children of a write-locked parent stay its children
            // (re-homing requires the parent's lock).
            let cn = pn.exact_child(idx);
            // Sub-batch: keys below the child's right-hand separator (its
            // own for an interior child, the group bound for the rightmost),
            // found once per sub-batch: tested per key it cost `tc_random` a
            // fifth.
            let mut j = run.len();
            if let Some(sep) = if idx < n { Some(pn.key(idx)) } else { bound } {
                j = k + 1 + count_below(&run[k + 1..], &sep);
            }
            // Bounded try-lock. A concurrent splitter already holding this
            // child blocks on *our* parent lock (Algorithm 2 locks bottom-
            // up), so waiting here unboundedly would deadlock — after a few
            // attempts the group is abandoned and the rest of the run
            // re-descends once the parent lock is released.
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
                k = merge_leaf_pass(cn, run, k, j, added);
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
                    self.split(pn, C / 2);
                    idx_hint = None;
                    bound = Some(pmedian);
                    if !cn.parent().is_some_and(|p| ptr::eq(p, pn)) {
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
                // in place. The leaf keeps the lower part, so the batch keys
                // below the promoted key continue merging right here; the
                // rest re-route through the parent's extended separators —
                // still under the same group lock, no re-descent.
                let m = Self::leaf_split_point(cn.search(&run[k], C).0);
                let median = cn.key(m);
                self.split_one(cn, m);
                let nj = k + count_below(&run[k..j], &median);
                if nj == k {
                    break;
                }
                j = nj;
            }
            cn.lock.end_write();
        }
        pn.lock.end_write();
        k
    }

    /// Merges run keys into a write-locked leaf — the root, while the tree
    /// is one node tall — in one pass, and splits it through the regular
    /// bottom-up path if it filled before the run ended: the tree is then
    /// two levels, and the caller re-descends into the grouped path for the
    /// rest. Releases the lock and returns the new run position.
    fn merge_into_root_leaf(
        &self,
        node: &LeafNode<K, C>,
        run: &[Tuple<K>],
        i: usize,
        added: &mut impl FnMut(&Tuple<K>),
    ) -> usize {
        // No ancestor, no bound: the rest of the run belongs here.
        let k = merge_leaf_pass(node, run, i, run.len(), added);
        if k < run.len() {
            // The leaf is exactly full (Algorithm 2 expects and keeps our
            // write lock).
            self.split(node, Self::leaf_split_point(node.search(&run[k], C).0));
        }
        node.lock.end_write();
        k
    }

    /// Builds a fully packed tree from an ascending, duplicate-free tuple
    /// sequence in O(n).
    ///
    /// # Panics
    /// In debug builds, panics if the input is not strictly ascending.
    pub fn from_sorted<I: IntoIterator<Item = Tuple<K>>>(items: I) -> Self {
        let set = Self::new();
        let items: Vec<Tuple<K>> = items.into_iter().collect();
        if let Some(root) = build_from_slice(&set, &items) {
            set.root.store(root.ptr(), Relaxed);
        }
        set
    }
}

/// `workers`, capped to the machine's parallelism: oversubscribed merge
/// threads only add scheduling latency to a phase that is memory-bound,
/// never throughput. The query reads cgroup files, so it is made once per
/// process, and only for more than one worker.
fn cap(workers: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if workers <= 1 {
        return 1;
    }
    let ask = || std::thread::available_parallelism().map_or(1, |n| n.get());
    workers.min(*CORES.get_or_init(ask))
}

/// The one bulk driver: hands `0..n` to `apply` under a span named `span`,
/// claimed off one cursor by up to [`cap`]`(workers)` scoped threads, each
/// with a buffer of its own that `apply` finds empty, and sums what `apply`
/// returns. One worker, or one item, is served on the calling thread, which
/// also keeps the chaos harness in control: no hidden threads at
/// `workers == 1`.
fn claim<T>(
    n: usize,
    workers: usize,
    span: &'static str,
    apply: impl Fn(usize, &mut Vec<T>) -> u64 + Sync,
) -> u64 {
    let (total, cursor) = (AtomicU64::new(0), AtomicUsize::new(0));
    let claim = || {
        let (mut buf, mut sum) = (Vec::new(), 0u64);
        loop {
            let i = cursor.fetch_add(1, Relaxed);
            if i >= n {
                break;
            }
            telemetry::count(telemetry::Counter::BtreeMergeChunks);
            let _span = telemetry::span(span, i as u64);
            buf.clear();
            sum += apply(i, &mut buf);
        }
        total.fetch_add(sum, Relaxed);
    };
    match cap(workers.min(n)) {
        0 | 1 => claim(),
        threads => std::thread::scope(|s| {
            // Each worker runs the same claiming loop; the borrow keeps
            // the closure reusable across spawns.
            #[allow(clippy::needless_borrows_for_generic_args)]
            for _ in 0..threads {
                s.spawn(&claim);
            }
        }),
    }
    total.load(Relaxed)
}

/// Whether `t` sorts below the bound `hi`; no bound is above everything.
#[inline]
fn below<const K: usize>(t: &Tuple<K>, hi: &Option<Tuple<K>>) -> bool {
    hi.as_ref().is_none_or(|u| cmp3(t, u) == Ordering::Less)
}

/// How many keys of the ascending `run` sort below `bound`, found by
/// galloping: in steps logarithmic in the answer. A sub-batch is mostly a
/// few keys, but a run filling a gap inside one leaf has all its keys
/// below the cut of every split there, and a scan read them again after
/// each: 1.2 M keys in 60 dense bands, every other band first, took 448 ms
/// against 20 ms ascending.
fn count_below<const K: usize>(run: &[Tuple<K>], bound: &Tuple<K>) -> usize {
    let below = |t: &Tuple<K>| cmp3(t, bound) == Ordering::Less;
    let mut hi = 1;
    while hi < run.len() && below(&run[hi]) {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + run[lo..hi.min(run.len())].partition_point(below)
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

/// One merge pass of `run[k..j)` into a write-locked leaf. A batch above
/// the leaf's keys is appended as it stands; otherwise pass 1 counts
/// the fresh (non-duplicate) run keys compare-only — with the lazy
/// word-by-word [`cmp_key`](LeafNode::cmp_key), tuples usually decide on
/// their leading column — cutting off the moment the leaf would overflow.
/// Pass 2 merges them backward in place: each key moves at most once and
/// the untouched prefix stays put. Every key the pass adds goes to `added`
/// as it is counted, in run order: the leaf's write lock is held, so the
/// count is what pass 2 writes. Returns the new run position; one short of
/// `j` means the leaf was left exactly full (ready to split).
fn merge_leaf_pass<const K: usize, const C: usize>(
    node: &LeafNode<K, C>,
    run: &[Tuple<K>],
    k: usize,
    j: usize,
    added: &mut impl FnMut(&Tuple<K>),
) -> usize {
    let n = node.num();
    let start = k;
    let mut k = k;
    // Jump-start the scan: every leaf key below the first run key's lower
    // bound compares `Less` anyway, so skip them in O(log n) up front.
    let (mut li, _) = node.search(&run[k], n);
    if li == n {
        // The batch sorts above the leaf's keys: append what fits. An
        // ascending run takes this for every sibling its splits hand it.
        let fresh = (j - k).min(C - n);
        for (slot, t) in (n..).zip(&run[k..k + fresh]) {
            node.set_key(slot, t);
            added(t);
        }
        node.set_num(n + fresh);
        return k + fresh;
    }
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
                added(&run[k]);
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
    k
}

/// Builds a packed subtree of `set`'s nodes from a strictly ascending slice;
/// `None` for an empty one. Leaves are filled to capacity (maximum
/// compactness — the shape in-order insertion converges towards, taken to
/// its limit).
fn build_from_slice<'t, const K: usize, const C: usize>(
    set: &'t BTreeSet<K, C>,
    items: &[Tuple<K>],
) -> Option<&'t LeafNode<K, C>> {
    if items.is_empty() {
        return None;
    }
    debug_assert!(
        items.is_sorted_by(|a, b| cmp3(a, b) == Ordering::Less),
        "from_sorted requires strictly ascending input"
    );

    // Level 0: pack items into full leaves, pulling one separator out of
    // the stream between consecutive leaves.
    let n = items.len();
    let mut leaves: Vec<&LeafNode<K, C>> = Vec::new();
    let mut seps: Vec<Tuple<K>> = Vec::new();
    let mut i = 0;
    while i < n {
        let mut take = C.min(n - i);
        // A separator needs at least one element after it; shrink this leaf
        // by one when exactly one element would be stranded.
        if n - i - take == 1 && take > 1 {
            take -= 1;
        }
        let leaf = set.alloc_leaf();
        for (slot, item) in items[i..i + take].iter().enumerate() {
            leaf.set_key(slot, item);
        }
        leaf.set_num(take);
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
        let mut new_nodes: Vec<&LeafNode<K, C>> = Vec::new();
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
            let inner = set.alloc_inner();
            for (slot, key) in level_seps[si..si + group - 1].iter().enumerate() {
                inner.set_key(slot, key);
            }
            inner.set_num(group - 1);
            for (slot, &child) in nodes[ni..ni + group].iter().enumerate() {
                inner.set_child(slot, child);
                child.set_parent(inner, slot);
            }
            ni += group;
            si += group - 1;
            if ni < nodes.len() {
                new_seps.push(level_seps[si]);
                si += 1;
            }
            new_nodes.push(&inner.base);
        }
        nodes = new_nodes;
        level_seps = new_seps;
    }
    Some(nodes[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    type Set = BTreeSet<2, 8>;

    fn pairs(n: u64) -> Vec<Tuple<2>> {
        (0..n).map(|i| [i / 10, i % 10]).collect()
    }

    #[test]
    fn cap_is_the_workers_within_the_machine() {
        assert_eq!((cap(0), cap(1)), (1, 1));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for workers in [2, 3, cores, cores + 1, 1 << 20] {
            assert_eq!(cap(workers), workers.min(cores), "{workers}");
        }
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
        let fill = s.stats().leaf_fill();
        assert!(fill > 0.9, "bulk-loaded tree should be packed, got {fill}");
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

    /// An empty target takes the source as runs, like any other: the first
    /// fills the root leaf and splits it, and every leaf after it is
    /// appended to and split full (22 of 24 keys stay). At `Set`'s capacity
    /// the same split keeps 6 of 8, where a bulk-built copy was full.
    #[test]
    fn insert_all_into_empty_appends_full_leaves() {
        let keys: Vec<Tuple<2>> = (0..3_000u64).map(|i| [i / 10, i % 10]).collect();
        let src: BTreeSet<2> = BTreeSet::from_sorted(keys.iter().copied());
        let dst: BTreeSet<2> = BTreeSet::new();
        assert_eq!(dst.insert_all_parallel(&src, 1), 3_000);
        dst.check_invariants().unwrap();
        assert!(dst.iter().eq(keys));
        let fill = dst.stats().leaf_fill();
        assert!(fill >= 0.9, "appended runs left leaves {fill:.3} full");

        let src = Set::from_sorted(pairs(300));
        let dst = Set::new();
        dst.insert_all(&src);
        dst.check_invariants().unwrap();
        assert!(dst.iter().eq(pairs(300)));
        let fill = dst.stats().leaf_fill();
        assert!(fill >= 0.74, "appended runs left leaves {fill:.3} full");
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
            let added: u64 = runs.iter().map(|r| t.insert_run(r, |_| {})).sum();
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

    /// Runs whose keys all sort at or above the cut of the full leaf they
    /// land in: the leaf splits as a point insert's would, and the keys
    /// above the promoted one re-route to the new sibling. A packed tree of
    /// 23 full leaves whose first group is full takes appends past an
    /// interior leaf's last key (cut at `C - 2`), keys between that leaf's
    /// fourth- and third-to-last (cut at the median), and appends to the
    /// rightmost leaf and past it. The leaf, inner-node and leaf-key counts
    /// are pinned: moving either cut by one changes them.
    #[test]
    fn runs_above_the_cut_of_a_full_leaf_build_pinned_trees() {
        let base: Vec<Tuple<2>> = (0..200u64).map(|i| [i, 0]).collect();
        let cases: [(Vec<Vec<Tuple<2>>>, [u64; 3]); 3] = [
            // Leaf [9 .. 16] of the first group, appended to.
            (vec![(1..=20).map(|j| [16, j]).collect()], [26, 5, 195]),
            // The same leaf, between 13 and 14.
            (vec![(1..=16).map(|j| [13, j]).collect()], [27, 5, 190]),
            // The tree's last leaf, ending in 199, then past the tree.
            (
                vec![
                    (1..=20).map(|j| [199, j]).collect(),
                    (200..230).map(|i| [i, 0]).collect(),
                ],
                [30, 5, 221],
            ),
        ];
        for (runs, [leaves, inners, leaf_keys]) in cases {
            let t = Set::from_sorted(base.clone());
            let added: u64 = runs.iter().map(|r| t.insert_run(r, |_| {})).sum();
            assert_eq!(added as usize, runs.iter().map(Vec::len).sum::<usize>());
            t.check_invariants().unwrap();
            let mut expect: Vec<Tuple<2>> =
                base.iter().chain(runs.iter().flatten()).copied().collect();
            expect.sort_unstable();
            assert!(t.iter().eq(expect), "contents");
            let s = t.stats();
            assert_eq!(
                (s.leaf_nodes, s.inner_nodes, s.leaf_keys),
                (leaves, inners, leaf_keys),
                "runs starting at {:?}",
                runs[0][0]
            );
        }
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
