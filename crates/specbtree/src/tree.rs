//! The specialized concurrent B-tree set (paper §3).
//!
//! [`BTreeSet`] stores fixed-arity integer tuples (`[u64; K]`) in
//! lexicographic order and supports exactly the operations parallel
//! semi-naive Datalog evaluation needs (paper §2): concurrent duplicate-free
//! `insert`, `contains`, `lower_bound` / `upper_bound` range queries and
//! ordered iteration. The paper's structure has **no delete** — Datalog
//! relations only grow during a fixpoint — but incremental maintenance
//! (delete-rederive) needs retraction between fixpoints, so this
//! implementation adds [`remove`](BTreeSet::remove), which deletes the key
//! under its node's write lock. The memory contract is unchanged: nodes are
//! never freed or moved while the tree is alive (spliced-out nodes go to a
//! graveyard reclaimed on `clear`/`Drop`), so stale pointers always
//! reference live memory and operation hints can never dangle. Underflow
//! is tolerated rather than rebalanced — sparse and even empty leaves are
//! legal — and a fully drained leaf is opportunistically spliced out under
//! its parent's lock.
//!
//! * `insert` is a direct port of the paper's **Algorithm 1** (optimistic
//!   root acquisition, validated hand-over-hand descent, lease upgrade at
//!   the leaf). Its read side is written once, as
//!   [`descend`](BTreeSet::descend), and runs under every lookup, insert
//!   and remove; each caller validates or upgrades the lease it ends on.
//! * Node splitting is a direct port of **Algorithm 2** (bottom-up
//!   write-locking of the full path, split, top-down unlock).
//!
//! Concurrency contract, matching the paper's use of the structure:
//!
//! * `insert` / `insert_hinted` / `contains` / `contains_hinted` are safe
//!   and linearizable under full concurrency (any mix, any threads).
//! * Ordered iteration and the `lower_bound` / `upper_bound` iterators are
//!   *phase-concurrent*: they are only guaranteed to return correct results
//!   while no concurrent insert runs (the semi-naive evaluation guarantees
//!   this \[51\]). Running them concurrently with inserts is still
//!   **memory-safe** — every field access is an atomic and every index is
//!   clamped — but the sequence of elements observed is unspecified.

use crate::hints::{BTreeHints, HintKind};
use crate::latch::Latch;
use crate::node::{cmp3, InnerNode, LeafNode, NodePtr, Tuple};
use optlock::OptimisticRwLock;
use std::cmp::Ordering;
// The root pointer participates in the optimistic protocol, so it goes
// through `chaos::sync` (instrumented under `--cfg chaos`, a std alias
// otherwise).
use chaos::sync::{AtomicPtr, Ordering::Relaxed};
// Tree-id allocation is bookkeeping, not protocol state: keep it on plain
// std atomics so it never appears in explored schedules.
use std::sync::atomic::AtomicU64;

/// Default node capacity (keys per node).
///
/// Chosen so a node occupies a handful of cache lines, the regime the
/// paper's evaluation identifies as most effective. At this capacity a
/// binary-tuple (`K = 2`) leaf is 408 bytes and an inner node 608 bytes.
/// The `ablation` bench sweeps this parameter.
pub const DEFAULT_NODE_CAPACITY: usize = 24;

/// Source of unique tree identities used to brand operation hints.
static TREE_IDS: AtomicU64 = AtomicU64::new(1);

/// Bounded attempts to write-lock each node of the predecessor spine
/// during an inner-key remove, and the sibling leaf during empty-leaf
/// reclamation. Both acquisitions run top-down while a parent-side write
/// lock is already held — the inverse of the split protocol's bottom-up
/// order — so an unbounded acquire could deadlock against a splitter
/// holding the lower node and waiting for ours. On failure the remove
/// restarts (spine) or the empty leaf is simply left in place
/// (reclamation is an optimization; empty leaves are legal).
const REMOVE_LOCK_ATTEMPTS: usize = 8;

/// Records `n` Algorithm 1 restarts of `cause`: the operation's own count
/// (recorded into `insert_restarts_per_op` when it completes) and the
/// aggregate and per-cause counters, which must add up to it.
#[inline]
fn note_insert_restarts(cause: telemetry::Counter, n: u64, restarts: &mut u64) {
    *restarts += n;
    telemetry::add(telemetry::Counter::BtreeInsertRestarts, n);
    telemetry::add(cause, n);
}

/// A concurrent ordered set of `K`-ary integer tuples backed by the
/// specialized B-tree.
///
/// `C` is the per-node key capacity (see [`DEFAULT_NODE_CAPACITY`]).
///
/// # Example
///
/// ```
/// use specbtree::BTreeSet;
///
/// let set: BTreeSet<2> = BTreeSet::new();
/// assert!(set.insert([1, 2]));
/// assert!(!set.insert([1, 2])); // duplicate
/// assert!(set.contains(&[1, 2]));
///
/// // Concurrent insertion needs no external lock:
/// std::thread::scope(|s| {
///     for t in 1..5u64 {
///         let set = &set;
///         s.spawn(move || {
///             for i in 100..200 {
///                 set.insert([t, i]);
///             }
///         });
///     }
/// });
/// assert_eq!(set.len(), 401);
/// ```
pub struct BTreeSet<const K: usize, const C: usize = DEFAULT_NODE_CAPACITY, L = OptimisticRwLock> {
    /// The root node; null until the first insertion.
    pub(crate) root: AtomicPtr<LeafNode<K, C, L>>,
    /// Protects the root *pointer* (and the root node's parent link), per
    /// the paper's locking rules.
    pub(crate) root_lock: L,
    /// Unique identity used to brand [`BTreeHints`] (see `hints` module).
    pub(crate) id: u64,
    /// Subtrees spliced out by `remove` (empty leaves, drained predecessor
    /// chains). They stay allocated until `clear`/`Drop` — racing
    /// optimistic readers may still hold pointers into them — and are
    /// individually freed then.
    pub(crate) graveyard: std::sync::Mutex<Vec<NodePtr<K, C, L>>>,
    /// Cumulative accounting of what `bury` has parked since the last
    /// `clear`, so [`BTreeSet::stats`] can report how much
    /// unreachable-but-allocated structure removals have produced:
    /// subtrees buried, total nodes in them, and how many of those were
    /// leaves.
    pub(crate) buried_subtrees: AtomicU64,
    pub(crate) buried_nodes: AtomicU64,
    pub(crate) buried_leaves: AtomicU64,
}

// SAFETY: the tree owns its nodes (the raw pointers in `root` and
// `graveyard` are why these impls are needed at all); tuples are plain
// integers and a latch holds no thread-bound state, so the tree may move
// between threads whatever its latch. Sharing is another matter: all shared
// mutation happens through atomics under the optimistic locking protocol,
// so only the instantiation that really runs that protocol is `Sync`.
unsafe impl<const K: usize, const C: usize, L: Latch + Send> Send for BTreeSet<K, C, L> {}
unsafe impl<const K: usize, const C: usize> Sync for BTreeSet<K, C, OptimisticRwLock> {}

/// Where [`BTreeSet::descend`] stopped: the node that holds the tuple, or
/// the leaf it would go to.
pub(crate) struct Descent<const K: usize, const C: usize, L: Latch> {
    pub node: NodePtr<K, C, L>,
    /// The lease on `node`, not yet validated: the caller validates it or
    /// upgrades it to a write lock, and descends again if that fails.
    pub lease: L::Lease,
    /// The tuple's rank in `node`, and whether the key there is the tuple.
    pub idx: usize,
    pub found: bool,
    /// The smallest key on the path that is `>=` the tuple (`>` if the
    /// descent was `strict`), `node`'s own included: a bound query's answer.
    pub above: Option<(NodePtr<K, C, L>, usize)>,
    /// How often the descent restarted before it got here.
    pub restarts: u64,
}

impl<const K: usize, const C: usize, L: Latch> Default for BTreeSet<K, C, L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const K: usize, const C: usize, L: Latch> BTreeSet<K, C, L> {
    /// Compile-time sanity of the geometry parameters.
    const GEOMETRY_OK: () = assert!(K >= 1 && C >= 4, "BTreeSet requires K >= 1, C >= 4");

    /// Creates an empty set. No nodes are allocated until the first insert.
    pub fn new() -> Self {
        #[allow(clippy::let_unit_value)]
        let _ = Self::GEOMETRY_OK;
        Self {
            root: AtomicPtr::new(std::ptr::null_mut()),
            root_lock: L::default(),
            id: TREE_IDS.fetch_add(1, Relaxed),
            graveyard: std::sync::Mutex::new(Vec::new()),
            buried_subtrees: AtomicU64::new(0),
            buried_nodes: AtomicU64::new(0),
            buried_leaves: AtomicU64::new(0),
        }
    }

    /// Creates a hint container for this tree (the paper's "factory
    /// function for initial operation hints"). Each thread keeps its own.
    pub fn create_hints(&self) -> BTreeHints<K, C, L> {
        BTreeHints::new(self.id)
    }

    /// Whether the set contains no tuples. O(depth): removals can leave an
    /// inner root sitting over nothing but drained leaves, so the check
    /// walks to the first real element. Safe under concurrency (may race
    /// with in-flight inserts/removes, like any size query).
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Number of stored tuples. O(n) — the structure deliberately maintains
    /// no shared counter, which would serialize concurrent inserts on a
    /// single contended cache line. Quiescent phases only.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Inserts `t`, returning `true` if it was not yet present.
    /// Thread-safe; lock-free for readers of other parts of the tree.
    pub fn insert(&self, t: Tuple<K>) -> bool {
        self.insert_located(&t).0
    }

    /// Inserts `t` using (and updating) thread-local operation hints
    /// (paper §3.2). On sorted workloads this skips the root-to-leaf
    /// descent almost always.
    pub fn insert_hinted(&self, t: Tuple<K>, hints: &mut BTreeHints<K, C, L>) -> bool {
        self.hinted(
            hints,
            HintKind::Insert,
            |leaf| self.try_hinted_insert(leaf, &t),
            || self.insert_located(&t),
        )
    }

    /// Membership test. Thread-safe and linearizable under concurrency.
    pub fn contains(&self, t: &Tuple<K>) -> bool {
        self.lookup(t, false).is_some_and(|d| d.found)
    }

    /// Membership test with operation hints.
    pub fn contains_hinted(&self, t: &Tuple<K>, hints: &mut BTreeHints<K, C, L>) -> bool {
        self.hinted(
            hints,
            HintKind::Contains,
            |leaf| self.try_hinted_contains(leaf, t),
            || match self.lookup(t, false) {
                Some(d) => (d.found, d.node),
                None => (false, std::ptr::null_mut()),
            },
        )
    }

    /// The dispatch every hinted operation of `kind` shares: the cached
    /// leaf if the hints carry this tree's brand and `fast` can decide the
    /// operation there, `slow` otherwise, which returns the node to cache
    /// beside the result. Records the hit or miss.
    pub(crate) fn hinted<R>(
        &self,
        hints: &mut BTreeHints<K, C, L>,
        kind: HintKind,
        fast: impl FnOnce(NodePtr<K, C, L>) -> Option<R>,
        slow: impl FnOnce() -> (R, NodePtr<K, C, L>),
    ) -> R {
        if hints.tree_id() != self.id {
            hints.rebind(self.id);
        } else {
            let leaf = hints.leaf(kind);
            if !leaf.is_null() {
                if let Some(res) = fast(leaf) {
                    hints.record(kind, true, leaf);
                    return res;
                }
            }
        }
        let (res, node) = slow();
        hints.record(kind, false, node);
        res
    }

    // ------------------------------------------------------------------
    // Algorithm 1: optimistic insertion
    // ------------------------------------------------------------------

    /// Ensures the tree has a root node (Algorithm 1, lines 2–9).
    pub(crate) fn ensure_root(&self) {
        chaos::checkpoint("btree::ensure_root");
        while self.root.load(Relaxed).is_null() {
            if !self.root_lock.try_start_write() {
                chaos::hint::spin_loop();
                continue;
            }
            if self.root.load(Relaxed).is_null() {
                self.root.store(LeafNode::<K, C, L>::alloc(), Relaxed);
            }
            self.root_lock.end_write();
        }
    }

    /// Obtains the current root together with a read lease on it
    /// (Algorithm 1, lines 13–17). The root must exist.
    #[inline]
    pub(crate) fn read_root(&self) -> (NodePtr<K, C, L>, L::Lease) {
        loop {
            let root_lease = self.root_lock.start_read();
            let root = self.root.load(Relaxed);
            if root.is_null() {
                // Only possible before the first insert; callers that can
                // see an empty tree handle null themselves.
                chaos::hint::spin_loop();
                continue;
            }
            // SAFETY: nodes are never freed while the tree is alive, so
            // even a stale root pointer references a live node.
            let lease = unsafe { &*root }.lock.start_read();
            if self.root_lock.validate(root_lease) {
                return (root, lease);
            }
        }
    }

    /// Algorithm 1's read side, under every lookup, insert and remove
    /// (lines 13–33): from the root, rank `t` in each node — the first key
    /// `>= t`, or `> t` if `strict` — and read the child at that rank,
    /// re-validating the parent once the child's lease has started; restart
    /// from the root whenever that fails. Stops at the node holding `t`
    /// (never when `strict`) or at the leaf `t` would go to. The root must
    /// exist. Inlined into each caller, which then reads no field it does
    /// not use and branches on no `strict` it does not pass: left a call,
    /// as the compiler left it, the three workloads ran 3–4 % longer.
    #[inline(always)]
    pub(crate) fn descend(&self, t: &Tuple<K>, strict: bool) -> Descent<K, C, L> {
        let mut restarts = 0u64;
        'restart: loop {
            chaos::checkpoint("btree::descend");
            let (mut cur, mut lease) = self.read_root();
            let mut above = None;
            loop {
                // SAFETY: live node (nodes are never freed while the tree
                // is alive; spliced-out nodes go to the graveyard).
                let node = unsafe { &*cur };
                let n = node.num_clamped();
                let (idx, found) = if strict {
                    (node.search_upper(t, n), false)
                } else {
                    node.search(t, n)
                };
                if idx < n {
                    above = Some((cur, idx));
                }
                // Line 22: the tuple is here, or this is its leaf.
                if found || !node.is_inner() {
                    return Descent {
                        node: cur,
                        lease,
                        idx,
                        found,
                        above,
                        restarts,
                    };
                }
                // Lines 25–33: an inner node — move down. Planted bug for
                // the chaos self-test: trusting an interior rank without
                // re-validating the lease lets a torn rank pick the wrong
                // child.
                let skip_validate = cfg!(all(chaos, feature = "chaos-inject-bug"));
                // SAFETY: is_inner just checked; kind never changes.
                let next = unsafe { node.as_inner() }.child(idx);
                if (!skip_validate && !node.lock.validate(lease)) || next.is_null() {
                    restarts += 1;
                    continue 'restart; // line 27
                }
                // SAFETY: read under a validated lease: a live child.
                let next_lease = unsafe { &*next }.lock.start_read(); // line 28
                if !skip_validate && !node.lock.validate(lease) {
                    restarts += 1;
                    continue 'restart; // line 29
                }
                cur = next;
                lease = next_lease;
            }
        }
    }

    /// Full optimistic insertion (Algorithm 1): whether `val` was inserted
    /// (false: it was already present), and the node it lives in — an inner
    /// node when a duplicate was found above leaf level.
    pub(crate) fn insert_located(&self, val: &Tuple<K>) -> (bool, NodePtr<K, C, L>) {
        use telemetry::Counter::{
            BtreeRestartDescend, BtreeRestartLeafUpgrade, BtreeRestartSplitRetry,
        };
        self.ensure_root();
        let mut restarts = 0u64;
        loop {
            let d = self.descend(val, false);
            note_insert_restarts(BtreeRestartDescend, d.restarts, &mut restarts);
            // SAFETY: live node (nodes are never freed).
            let node = unsafe { &*d.node };
            if d.found {
                // Line 22: value already present => done.
                if node.lock.validate(d.lease) {
                    telemetry::record(telemetry::Hist::BtreeInsertRestartsPerOp, restarts);
                    return (false, d.node);
                }
                note_insert_restarts(BtreeRestartDescend, 1, &mut restarts);
                continue;
            }

            // Lines 35–36: request write access to the located leaf.
            chaos::checkpoint("btree::insert::leaf_upgrade");
            if !node.lock.try_upgrade_to_write(d.lease) {
                note_insert_restarts(BtreeRestartLeafUpgrade, 1, &mut restarts);
                continue;
            }

            // Lines 39–43: make space if necessary. The write upgrade
            // succeeded, so the pre-upgrade reads are current and the
            // exact count is trustworthy.
            if node.num() == C {
                self.split(d.node, Self::leaf_split_point(d.idx)); // Algorithm 2
                node.lock.end_write();
                note_insert_restarts(BtreeRestartSplitRetry, 1, &mut restarts);
                continue;
            }

            // Lines 45–48: insert into this leaf.
            node.insert_at(d.idx, val);
            node.lock.end_write();
            telemetry::record(telemetry::Hist::BtreeInsertRestartsPerOp, restarts);
            return (true, d.node);
        }
    }

    /// Hinted fast path: try to insert directly into a previously located
    /// leaf, walking upwards only if it must split (paper §3.2 — this is
    /// precisely why write locks are acquired bottom-up).
    ///
    /// The leaf takes `val` when `first <= val <= last` — every tree key in
    /// that closed interval lives in this very leaf — or when `val` appends
    /// to it: `last < val < fence`, the fence being the smallest key the
    /// tree holds above the leaf's own
    /// ([`below_upper_fence`](Self::below_upper_fence)). The second case is
    /// what an ascending stream produces on every insert and goes beyond
    /// the paper, whose hints miss there.
    ///
    /// Returns `None` when the hint does not apply (wrong leaf, lost race),
    /// in which case the caller falls back to the full descent.
    fn try_hinted_insert(&self, leaf: NodePtr<K, C, L>, val: &Tuple<K>) -> Option<bool> {
        // SAFETY: hints are branded with the tree id, so `leaf` is a node of
        // *this* tree: live memory for as long as `&self` exists.
        let node = unsafe { &*leaf };
        if node.is_inner() {
            return None; // hints only ever cache leaves; defensive
        }
        // The hinted path never restarts in place (a full leaf splits with
        // the insert finished in place, below); completed operations still
        // record zero restarts, so the histogram counts every insert and
        // its sum stays the restart counter (`tests/telemetry_wiring.rs`).
        let done = |inserted: bool| {
            telemetry::record(telemetry::Hist::BtreeInsertRestartsPerOp, 0);
            Some(inserted)
        };
        let lease = node.lock.start_read();
        let n = node.num_clamped();
        if n == 0 {
            return None;
        }
        let below = cmp3(val, &node.key(0)) == Ordering::Less;
        let appends = cmp3(val, &node.key(n - 1)) == Ordering::Greater;
        let (idx, found) = node.search(val, n);
        if !node.lock.validate(lease) {
            return None; // lost a race; let the slow path sort it out
        }
        if below {
            return None; // genuine hint miss
        }
        if found {
            return done(false);
        }
        // The fence is read before the upgrade and stays true through it:
        // only operations that write-lock this leaf change it (see
        // `below_upper_fence`), and the upgrade fails if one ran since
        // `lease`.
        if appends && !self.below_upper_fence(leaf, val) {
            return None; // genuine hint miss, or a lost race on the way up
        }
        if !node.lock.try_upgrade_to_write(lease) {
            return None;
        }
        if node.num() == C {
            // Split bottom-up right from the leaf (§3.2). The upgrade
            // came from the validated lease, so `val` is covered by
            // this leaf and absent from it; after the split it sorts
            // either strictly below the key that moved up — i.e.
            // into this very leaf, still write-locked and no longer
            // full, at the same index as before: finish the
            // insert in place — or above it, into the fresh sibling
            // (an append always does): fall back to the slow path.
            let sep = self.split(leaf, Self::leaf_split_point(idx));
            if cmp3(val, &sep) != Ordering::Less {
                node.lock.end_write();
                return None;
            }
        }
        node.insert_at(idx, val);
        node.lock.end_write();
        done(true)
    }

    /// Whether `val` sorts below the upper fence of `leaf`: the separator
    /// that follows the leaf in the lowest ancestor the path to it does not
    /// leave through the last child — the smallest key of the tree above
    /// the leaf's own. A leaf on the rightmost spine has none and takes any
    /// `val`. `false` also stands for "could not tell".
    ///
    /// Lock-free and restart-free: every level is read under that
    /// ancestor's own lease, which must show `node` as its child at `pos`
    /// and validate, and a caller holding a read lease on the leaf from
    /// before the call may act on `true` once that lease upgrades. The
    /// reason is that a subtree's upper fence only ever goes *down* unless
    /// the subtree's rightmost leaf is write-locked: the node's own split
    /// lowers it to the promoted key; a split of an ancestor moves the
    /// separator up or sideways but not its value; `remove_inner_key`
    /// replaces it by a predecessor pulled out of the rightmost leaf below
    /// it (a merged run changes fences by these splits alone); and the
    /// one operation that raises a fence, unlinking the empty leaf to the
    /// right, write-locks the leaf whose fence it raises. So with the levels
    /// read one after the other, each under a lease of its own, the fence
    /// found is at most the leaf's true one at the first read — a stale
    /// ancestor (the leaf re-homed by a parent split in between) yields the
    /// promoted key, which is below the leaf's own keys: a miss, never a
    /// wrong hit — and the leaf's true fence does not move while the
    /// caller's lease on it holds.
    fn below_upper_fence(&self, leaf: NodePtr<K, C, L>, val: &Tuple<K>) -> bool {
        let mut node = leaf;
        // The lease `node` was read under as somebody's parent; the leaf's
        // is the caller's.
        let mut node_lease = None;
        loop {
            chaos::checkpoint("btree::insert::fence");
            // SAFETY: `leaf` and every parent pointer reference live nodes.
            let nn = unsafe { &*node };
            let parent = nn.parent.load(Relaxed);
            if parent.is_null() {
                // `node` is the root — a node gets a parent only under its
                // own write lock and never loses one — as of its lease.
                return node_lease.is_none_or(|l| nn.lock.validate(l));
            }
            // SAFETY: as above; a parent is an inner node.
            let pn = unsafe { &*parent };
            let lease = pn.lock.start_read();
            let pos = nn.position.load(Relaxed) as usize;
            let num = pn.num_clamped();
            if pos > num || unsafe { pn.as_inner() }.child(pos) != node {
                return false;
            }
            let fence = (pos < num).then(|| pn.key(pos));
            if !pn.lock.validate(lease) {
                return false;
            }
            // Planted bug for the chaos self-test: an append that is not
            // compared with the fence lands in this leaf whatever lives
            // between the leaf and `val`.
            let skip_compare = cfg!(all(chaos, feature = "chaos-inject-bug"));
            match fence {
                Some(fence) => return skip_compare || cmp3(val, &fence) == Ordering::Less,
                None => (node, node_lease) = (parent, Some(lease)),
            }
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 2: optimistic node splitting
    // ------------------------------------------------------------------

    /// Splits the full, write-locked `node`, propagating splits to parents
    /// as required. On return `node` is still write-locked by the caller
    /// (its lock is *not* released here); all path locks acquired inside
    /// are released.
    ///
    /// `node` splits at key `m`, its full ancestors at the median. Returns
    /// the key that was pushed out of `node` into its parent:
    /// everything strictly below it still lives in `node`, so a caller that
    /// knows its tuple was covered pre-split can finish the insert into the
    /// still-locked node without re-probing (see
    /// [`try_hinted_insert`](Self::try_hinted_insert)).
    pub(crate) fn split(&self, node: NodePtr<K, C, L>, m: usize) -> Tuple<K> {
        chaos::checkpoint("btree::split");
        // Phase 1 (lines 2–23): write-lock the path bottom-up, stopping at
        // the first non-full ancestor or at the root lock.
        let mut path: Vec<NodePtr<K, C, L>> = Vec::new();
        let mut holds_root_lock = false;
        let mut cur = node;
        loop {
            let parent = unsafe { &*cur }.parent.load(Relaxed);
            if parent.is_null() {
                // `cur` is the root (we hold its write lock, so nobody can
                // re-root it underneath us): take the tree's root lock.
                self.root_lock.start_write();
                debug_assert_eq!(self.root.load(Relaxed), cur);
                holds_root_lock = true;
                break;
            }
            let p = Self::lock_parent(cur, parent); // lines 8–13
            path.push(p);
            // Line 20: stop at a non-full ancestor.
            if unsafe { &*p }.num() < C {
                break;
            }
            cur = p;
        }

        // Phase 2 (line 26): split the chain of full nodes top-down, so
        // each split inserts its median into a parent that already has room
        // (the stopper, or a node the previous iteration just halved).
        let full_ancestors = if holds_root_lock {
            path.len() // every locked ancestor is full
        } else {
            path.len() - 1 // the last entry is the non-full stopper
        };
        let mut fresh: Vec<NodePtr<K, C, L>> = Vec::new();
        for i in (0..full_ancestors).rev() {
            fresh.extend(self.split_one(path[i], C / 2).1);
        }
        let (median, sib) = self.split_one(node, m);
        fresh.extend(sib);

        // Phase 3 (lines 28–35): release the path locks top-down, then the
        // inner siblings the splits created locked.
        if holds_root_lock {
            self.root_lock.end_write();
        }
        for p in path.iter().rev().chain(&fresh) {
            unsafe { &**p }.lock.end_write();
        }
        median
    }

    /// Write-locks the parent of the write-locked, non-root `node`, last
    /// seen to be `parent`, re-checking under the lock that it still *is*
    /// the parent (a concurrent split may have re-homed `node`). Bottom-up,
    /// hence deadlock-free.
    fn lock_parent(node: NodePtr<K, C, L>, parent: NodePtr<K, C, L>) -> NodePtr<K, C, L> {
        let mut p = parent;
        loop {
            // SAFETY: parent pointers always reference live nodes.
            unsafe { &*p }.lock.start_write();
            let now = unsafe { &*node }.parent.load(Relaxed);
            if now == p {
                return p;
            }
            unsafe { &*p }.lock.abort_write();
            debug_assert!(!now.is_null(), "a node never becomes the root");
            p = now;
        }
    }

    /// Where a full leaf splits when the insert that found it full goes to
    /// index `idx`: at the median, unless the insert appends. A leaf filled
    /// by appends sits at the end of an ascending run, and the run's next
    /// keys all go to the upper part: cut at the median, every leaf of the
    /// run stays half empty for good; cut here, it stays full, and the
    /// sibling starts with the one key that keeps it findable by a hint.
    pub(crate) const fn leaf_split_point(idx: usize) -> usize {
        if idx == C {
            C - 2
        } else {
            C / 2
        }
    }

    /// Splits a single full node whose own write lock and whose (current)
    /// parent's write lock — or the root lock — are held. Creates the
    /// sibling, moves the keys above index `m` across, and pushes key `m`
    /// into the parent (growing the tree by one level for a root split).
    ///
    /// Returns that key and, when `x` is an inner node, its sibling —
    /// still write-locked, as the original implementation does it: from the
    /// moment a child is re-homed its parent link leads to the sibling, so
    /// a thread holding that child's lock (a hinted insert splitting it)
    /// could otherwise lock the sibling bottom-up and rewrite it while this
    /// chain of splits is still inserting into it. The caller releases it
    /// together with its path locks.
    pub(crate) fn split_one(
        &self,
        x: NodePtr<K, C, L>,
        m: usize,
    ) -> (Tuple<K>, Option<NodePtr<K, C, L>>) {
        let xn = unsafe { &*x };
        let n = xn.num();
        debug_assert_eq!(n, C, "only full nodes split");
        debug_assert!(0 < m && m < C - 1, "both sides keep a key");
        // Lower part [0, m), the promoted key, upper part (m, C).
        let median = xn.key(m);

        let sib = if xn.is_inner() {
            telemetry::count(telemetry::Counter::BtreeInnerSplits);
            InnerNode::<K, C, L>::alloc()
        } else {
            telemetry::count(telemetry::Counter::BtreeLeafSplits);
            LeafNode::<K, C, L>::alloc()
        };
        // SAFETY: freshly allocated, private to us until published below.
        let sn = unsafe { &*sib };

        // Move the upper part of the keys.
        for (j, i) in (m + 1..C).enumerate() {
            let k = xn.key(i);
            sn.set_key(j, &k);
        }
        sn.set_num(C - m - 1);

        // Move the corresponding children (inner nodes only), re-homing
        // each moved child. The children themselves are not locked: their
        // `parent`/`position` fields are covered by the parent's lock,
        // which we hold for `x` and take on `sib` before any child points
        // at it.
        if xn.is_inner() {
            let took = sn.lock.try_start_write();
            debug_assert!(took, "a fresh node is unlocked and unreachable");
            let xi = unsafe { xn.as_inner() };
            let si = unsafe { sn.as_inner() };
            for (j, i) in (m + 1..=C).enumerate() {
                let ch = xi.child(i);
                debug_assert!(!ch.is_null());
                si.set_child(j, ch);
                let chn = unsafe { &*ch };
                chn.parent.store(sib, Relaxed);
                chn.position.store(j as u16, Relaxed);
            }
        }
        xn.set_num(m);

        let parent = xn.parent.load(Relaxed);
        if parent.is_null() {
            // Root split (root lock held): grow the tree by one level.
            let new_root = InnerNode::<K, C, L>::alloc();
            let rn = unsafe { &*new_root };
            rn.set_key(0, &median);
            rn.set_num(1);
            let ri = unsafe { rn.as_inner() };
            ri.set_child(0, x);
            ri.set_child(1, sib);
            xn.parent.store(new_root, Relaxed);
            xn.position.store(0, Relaxed);
            sn.parent.store(new_root, Relaxed);
            sn.position.store(1, Relaxed);
            telemetry::count(telemetry::Counter::BtreeRootGrowth);
            chaos::checkpoint("btree::root_swap");
            self.root.store(new_root, Relaxed);
        } else {
            // SAFETY: the parent is write-locked: in phase 1, or as the
            // fresh sibling a previous `split_one` created locked.
            let pn = unsafe { &*parent };
            let pi = unsafe { pn.as_inner() };
            let pnum = pn.num();
            debug_assert!(pnum < C, "the parent of a splitting node has room");
            let pos = xn.position.load(Relaxed) as usize;
            debug_assert_eq!(pi.child(pos), x, "position link out of date");

            for j in (pos..pnum).rev() {
                pn.copy_key_within(j, j + 1);
            }
            for j in ((pos + 1)..=pnum).rev() {
                let ch = pi.child(j);
                pi.set_child(j + 1, ch);
                unsafe { &*ch }.position.store((j + 1) as u16, Relaxed);
            }
            pn.set_key(pos, &median);
            pi.set_child(pos + 1, sib);
            sn.parent.store(parent, Relaxed);
            sn.position.store((pos + 1) as u16, Relaxed);
            pn.set_num(pnum + 1);
        }
        (median, xn.is_inner().then_some(sib))
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    /// [`descend`](Self::descend) for a read: restarted until the lease on
    /// the node it stopped at validates. `None` on a tree never inserted
    /// into. Inlined for the reason `descend` is.
    #[inline(always)]
    fn lookup(&self, t: &Tuple<K>, strict: bool) -> Option<Descent<K, C, L>> {
        if self.root.load(Relaxed).is_null() {
            return None;
        }
        loop {
            let d = self.descend(t, strict);
            telemetry::add(telemetry::Counter::BtreeLookupRestarts, d.restarts);
            // SAFETY: live node (nodes are never freed).
            if unsafe { &*d.node }.lock.validate(d.lease) {
                return Some(d);
            }
            telemetry::count(telemetry::Counter::BtreeLookupRestarts);
        }
    }

    /// Hinted membership fast path; `None` = hint not applicable.
    fn try_hinted_contains(&self, leaf: NodePtr<K, C, L>, t: &Tuple<K>) -> Option<bool> {
        let node = unsafe { &*leaf };
        if node.is_inner() {
            return None;
        }
        let lease = node.lock.start_read();
        let n = node.num_clamped();
        if n == 0 {
            return None;
        }
        let covered = cmp3(&node.key(0), t) != Ordering::Greater
            && cmp3(t, &node.key(n - 1)) != Ordering::Greater;
        let (_, found) = node.search(t, n);
        if !node.lock.validate(lease) || !covered {
            return None;
        }
        Some(found)
    }

    /// Position of the first tuple `>= t`, or `> t` if `strict` (`None` if
    /// there is none).
    pub(crate) fn bound_pos(
        &self,
        t: &Tuple<K>,
        strict: bool,
    ) -> Option<(NodePtr<K, C, L>, usize)> {
        self.lookup(t, strict).and_then(|d| d.above)
    }

    /// Hinted bound fast path shared by lower/upper bound: applies when the
    /// hinted leaf's key range strictly encloses the answer.
    pub(crate) fn try_hinted_bound(
        &self,
        leaf: NodePtr<K, C, L>,
        t: &Tuple<K>,
        strict: bool,
    ) -> Option<(NodePtr<K, C, L>, usize)> {
        let node = unsafe { &*leaf };
        if node.is_inner() {
            return None;
        }
        let lease = node.lock.start_read();
        let n = node.num_clamped();
        if n == 0 {
            return None;
        }
        let first = node.key(0);
        let last = node.key(n - 1);
        // For a non-strict bound the answer lies in this leaf when
        // first <= t <= last; for a strict bound we need t < last so a
        // greater element exists locally.
        let covered = cmp3(&first, t) != Ordering::Greater
            && if strict {
                cmp3(t, &last) == Ordering::Less
            } else {
                cmp3(t, &last) != Ordering::Greater
            };
        let idx = if strict {
            node.search_upper(t, n)
        } else {
            node.search(t, n).0
        };
        if !node.lock.validate(lease) || !covered {
            return None;
        }
        debug_assert!(idx < n);
        Some((leaf, idx))
    }

    // ------------------------------------------------------------------
    // Removal (tolerated underflow)
    // ------------------------------------------------------------------

    /// Removes `t`, returning `true` if it was present. Thread-safe under
    /// the same optimistic protocol as [`insert`](Self::insert): an
    /// optimistic descent locates the key, then the holding node is
    /// write-locked and the key is shifted out; racing optimistic readers
    /// fail their lease validation and retry.
    ///
    /// Underflow is tolerated, never rebalanced: leaves may go sparse or
    /// empty (searches, bounds and iteration all handle that), and a fully
    /// drained leaf is opportunistically spliced out of its parent. A key
    /// found in an *inner* node is replaced by its in-order predecessor,
    /// pulled from the rightmost spine of the left subtree under a
    /// top-down chain of bounded try-write-locks.
    pub fn remove(&self, t: &Tuple<K>) -> bool {
        if self.root.load(Relaxed).is_null() {
            return false;
        }
        loop {
            let d = self.descend(t, false);
            telemetry::add(telemetry::Counter::BtreeRemoveRestarts, d.restarts);
            // SAFETY: live node (nodes are never freed while the tree is
            // alive; spliced-out nodes go to the graveyard).
            let node = unsafe { &*d.node };
            if !d.found {
                if node.lock.validate(d.lease) {
                    return false;
                }
            } else if node.lock.try_upgrade_to_write(d.lease) {
                // The upgrade doubled as the lease validation: the search
                // result is current.
                let removed = if node.is_inner() {
                    self.remove_inner_key(d.node, d.idx)
                } else {
                    chaos::checkpoint("btree::remove::key");
                    node.remove_at(d.idx);
                    if node.num() == 0 {
                        self.try_unlink_empty_leaf(d.node);
                    } else {
                        node.lock.end_write();
                    }
                    true
                };
                if removed {
                    telemetry::count(telemetry::Counter::BtreeRemoves);
                    return true;
                }
            }
            telemetry::count(telemetry::Counter::BtreeRemoveRestarts);
            chaos::hint::spin_loop();
        }
    }

    /// Tries [`REMOVE_LOCK_ATTEMPTS`] times to write-lock `node`.
    fn try_lock_bounded(node: &LeafNode<K, C, L>, checkpoint: &'static str) -> bool {
        for _ in 0..REMOVE_LOCK_ATTEMPTS {
            chaos::checkpoint(checkpoint);
            if node.lock.try_start_write() {
                return true;
            }
            chaos::hint::spin_loop();
        }
        false
    }

    /// Drops key `key` and child `child` from the write-locked inner node
    /// `n` (`split_one`'s insertion shift, inverted).
    fn splice_out(n: &InnerNode<K, C, L>, key: usize, child: usize) {
        let num = n.base.num();
        for j in key..num - 1 {
            n.base.copy_key_within(j + 1, j);
        }
        for j in child..num {
            let ch = n.child(j + 1);
            n.set_child(j, ch);
            // SAFETY: child links under `n`'s write lock.
            unsafe { &*ch }.position.store(j as u16, Relaxed);
        }
        n.base.set_num(num - 1);
    }

    /// Removes key `idx` of the write-locked inner node `n` by swapping in
    /// its in-order predecessor: the rightmost spine of `child(idx)` is
    /// write-locked top-down with bounded try-locks (see
    /// [`REMOVE_LOCK_ATTEMPTS`]), the deepest spine node still holding
    /// keys donates its maximum, and any drained chain below the donor is
    /// spliced off into the graveyard. When the whole left subtree is
    /// empty the key and that subtree are dropped from `n` together.
    ///
    /// On success all locks are released and `true` is returned; on spine
    /// contention everything (including `n`'s lock) is released untouched
    /// and `false` tells the caller to restart.
    fn remove_inner_key(&self, n: NodePtr<K, C, L>, idx: usize) -> bool {
        // SAFETY: `n` is write-locked by the caller; nodes stay live.
        let nn = unsafe { &*n };
        let ni = unsafe { nn.as_inner() };
        let mut spine: Vec<NodePtr<K, C, L>> = Vec::new();
        let mut cur = ni.child(idx);
        loop {
            // SAFETY: children read under held write locks are current.
            let cn = unsafe { &*cur };
            if !Self::try_lock_bounded(cn, "btree::remove::spine_lock") {
                // A splitter below may hold this node while waiting
                // bottom-up for one of ours: back out entirely.
                for s in spine.iter().rev() {
                    // SAFETY: locked above, unmodified.
                    unsafe { &**s }.lock.abort_write();
                }
                nn.lock.abort_write();
                return false;
            }
            spine.push(cur);
            if !cn.is_inner() {
                break;
            }
            // SAFETY: kind checked.
            cur = unsafe { cn.as_inner() }.child(cn.num());
        }

        // The deepest spine node still holding keys donates the
        // predecessor; everything below it on the spine is empty.
        let holder = spine.iter().rposition(|&s| unsafe { &*s }.num() > 0);
        let mut buried: NodePtr<K, C, L> = std::ptr::null_mut();
        match holder {
            Some(h) => {
                // SAFETY: spine nodes are write-locked above.
                let hn = unsafe { &*spine[h] };
                let hnum = hn.num();
                let pred;
                if hn.is_inner() {
                    // The donated key's right subtree is exactly the
                    // drained chain below: drop key and chain together.
                    pred = hn.key(hnum - 1);
                    debug_assert_eq!(unsafe { hn.as_inner() }.child(hnum), spine[h + 1]);
                    hn.set_num(hnum - 1);
                    buried = spine[h + 1];
                } else {
                    pred = hn.key(hnum - 1);
                    chaos::checkpoint("btree::remove::key");
                    hn.remove_at(hnum - 1);
                }
                nn.set_key(idx, &pred);
            }
            None => {
                // The whole left subtree holds no keys: drop the key and
                // the subtree from `n` (the right neighbor subtree's
                // separator interval widens over the removed key's range).
                buried = ni.child(idx);
                Self::splice_out(ni, idx, idx);
            }
        }

        // Unlock bottom-up. The donor and every spine node above it end
        // their write: the predecessor left their subtree for `n`, so a
        // remover or reader that passed `n` before this call and is still
        // descending through them must fail its validation and restart —
        // with its lease restored it would reach the donor, not find the
        // key, and report it absent while it sits in `n`. The drained chain
        // below the donor was not modified and holds no key anyone could
        // miss — abort restores those versions so optimistic readers with
        // stale pointers into it need not restart — but it *must* be
        // unlocked: readers spin on write-locked nodes, even unreachable
        // ones.
        // Planted bug for the chaos self-test: restoring every version lets
        // a reader that passed `n` miss the predecessor pulled up into it.
        let keep_versions = cfg!(all(chaos, feature = "chaos-inject-bug"));
        for (i, s) in spine.iter().enumerate().rev() {
            // SAFETY: write-locked above.
            let sn = unsafe { &**s };
            if !keep_versions && holder.is_some_and(|h| i <= h) {
                sn.lock.end_write();
            } else {
                sn.lock.abort_write();
            }
        }
        nn.lock.end_write();
        if !buried.is_null() {
            self.bury(buried);
        }
        true
    }

    /// Best-effort reclamation of a write-locked, fully drained leaf:
    /// re-homes the adjacent parent separator (a real element!) into a
    /// sibling leaf and splices the empty leaf out of its parent. Any
    /// obstacle — root leaf, unary parent, inner/full sibling, contended
    /// sibling lock — leaves the empty leaf in place: empty leaves are
    /// legal, reclamation is an optimization, and the policy never
    /// rebalances across the root region. Releases the leaf's lock.
    fn try_unlink_empty_leaf(&self, leaf: NodePtr<K, C, L>) {
        // SAFETY: write-locked by the caller; nodes stay live.
        let node = unsafe { &*leaf };
        debug_assert_eq!(node.num(), 0);
        chaos::checkpoint("btree::remove::leaf_unlink");
        let parent = node.parent.load(Relaxed);
        if parent.is_null() {
            node.lock.end_write();
            return; // empty root leaf stays: the tree may refill
        }
        let p = Self::lock_parent(leaf, parent);
        let pn = unsafe { &*p };
        let pi = unsafe { pn.as_inner() };
        let pnum = pn.num();
        let pos = node.position.load(Relaxed) as usize;
        debug_assert_eq!(pi.child(pos), leaf, "position link out of date");
        if pnum == 0 {
            // Unary parent: no separator to dispose of, no sibling to
            // take it. The empty leaf stays.
            pn.lock.abort_write();
            node.lock.end_write();
            return;
        }
        // The separator adjacent to the leaf moves into the neighboring
        // sibling: left of the leaf it becomes the left sibling's new
        // maximum; for the leftmost leaf, key 0 becomes the right
        // sibling's new minimum.
        let (sep_idx, sib, at_front) = if pos > 0 {
            (pos - 1, pi.child(pos - 1), false)
        } else {
            (0, pi.child(1), true)
        };
        // SAFETY: a child read under the parent's write lock is current.
        let sn = unsafe { &*sib };
        if !Self::try_lock_bounded(sn, "btree::remove::sibling_lock") {
            pn.lock.abort_write();
            node.lock.end_write();
            return;
        }
        if sn.is_inner() || sn.num() == C {
            // An inner sibling (the leaf's level was already spliced
            // around elsewhere — impossible today, defensive) or one with
            // no room: keep the empty leaf.
            sn.lock.abort_write();
            pn.lock.abort_write();
            node.lock.end_write();
            return;
        }
        let sep = pn.key(sep_idx);
        sn.insert_at(if at_front { 0 } else { sn.num() }, &sep);
        // Splice the separator and the empty leaf out of the parent.
        Self::splice_out(pi, sep_idx, if at_front { 0 } else { pos });
        telemetry::count(telemetry::Counter::BtreeLeafUnlinks);
        sn.lock.end_write();
        pn.lock.end_write();
        node.lock.end_write();
        self.bury(leaf);
    }

    /// Parks an unlinked subtree until `clear`/`Drop`. Nodes are never
    /// freed while the tree is alive — racing optimistic readers may still
    /// hold pointers into them, and the memory-safety of stale descents
    /// depends on it — so spliced-out subtrees wait in the graveyard.
    fn bury(&self, node: NodePtr<K, C, L>) {
        // Account for what is being parked before parking it. The buried
        // subtree is unreachable from the root and no writer holds a path
        // to it any more, so this read-only walk races only with stale
        // optimistic readers — which never modify structure.
        let (mut nodes, mut leaves) = (0u64, 0u64);
        let mut stack = vec![node];
        while let Some(p) = stack.pop() {
            // SAFETY: buried nodes stay allocated until `clear`/`Drop`.
            let n = unsafe { &*p };
            nodes += 1;
            if n.is_inner() {
                // SAFETY: kind checked.
                let inner = unsafe { n.as_inner() };
                for i in 0..=n.num_clamped() {
                    let c = inner.child(i);
                    if !c.is_null() {
                        stack.push(c);
                    }
                }
            } else {
                leaves += 1;
            }
        }
        self.buried_subtrees.fetch_add(1, Relaxed);
        self.buried_nodes.fetch_add(nodes, Relaxed);
        self.buried_leaves.fetch_add(leaves, Relaxed);
        self.graveyard.lock().unwrap().push(node);
    }
}

impl<const K: usize, const C: usize, L> BTreeSet<K, C, L> {
    /// Removes every tuple, reclaiming all nodes. Requires exclusive
    /// access — the only "shrinking" operation, and exactly as in the
    /// paper's engine, only available between evaluation phases.
    ///
    /// Clearing re-brands the tree: hints created before the `clear` are
    /// safely treated as misses afterwards (their cached leaves are gone),
    /// never dereferenced.
    pub fn clear(&mut self) {
        self.free_nodes();
        *self.buried_subtrees.get_mut() = 0;
        *self.buried_nodes.get_mut() = 0;
        *self.buried_leaves.get_mut() = 0;
        self.id = TREE_IDS.fetch_add(1, Relaxed);
    }

    /// Frees every node this tree ever allocated: the live tree under the
    /// root and the subtrees `remove` spliced out, which stayed allocated
    /// for racing readers — `&mut self` means no reader is left.
    fn free_nodes(&mut self) {
        let root = std::mem::replace(self.root.get_mut(), std::ptr::null_mut());
        let graveyard = self.graveyard.get_mut().unwrap().drain(..);
        for subtree in graveyard.chain((!root.is_null()).then_some(root)) {
            // SAFETY: `&mut self` guarantees exclusive access; the live
            // tree and the buried subtrees are disjoint and were allocated
            // by this tree, so every node is freed exactly once.
            unsafe { LeafNode::free_subtree(subtree) };
        }
    }
}

impl<const K: usize, const C: usize, L> Drop for BTreeSet<K, C, L> {
    fn drop(&mut self) {
        self.free_nodes();
    }
}

impl<const K: usize, const C: usize, L: Latch> Extend<Tuple<K>> for BTreeSet<K, C, L> {
    fn extend<I: IntoIterator<Item = Tuple<K>>>(&mut self, iter: I) {
        let mut hints = self.create_hints();
        for t in iter {
            self.insert_hinted(t, &mut hints);
        }
    }
}

impl<const K: usize, const C: usize, L: Latch> FromIterator<Tuple<K>> for BTreeSet<K, C, L> {
    fn from_iter<I: IntoIterator<Item = Tuple<K>>>(iter: I) -> Self {
        let mut set = Self::new();
        set.extend(iter);
        set
    }
}

impl<const K: usize, const C: usize, L: Latch> std::fmt::Debug for BTreeSet<K, C, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}
