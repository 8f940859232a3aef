//! In-memory node layout of the specialized B-tree.
//!
//! The tree is a classic B-tree (elements live in inner nodes too, not a
//! B+tree), mirroring the Soufflé implementation the paper describes. Two
//! node kinds exist: leaf nodes and inner nodes. An inner node *extends* a
//! leaf node with a child-pointer array; thanks to `#[repr(C)]` an
//! `InnerNode` pointer can always be reinterpreted as a pointer to its
//! `LeafNode` prefix — the same `node`/`inner_node` cast the C++ original
//! performs.
//!
//! # Why every field is an atomic
//!
//! The optimistic locking protocol (paper §3.1) lets readers traverse nodes
//! *while* a writer mutates them; the read is validated against the node's
//! version lock afterwards and retried if a write intervened. In the C++
//! implementation this intentional data race is made well-defined by
//! wrapping every field in `std::atomic` and accessing it with
//! `memory_order_relaxed` (Boehm's seqlock recipe). This module does exactly
//! the same with Rust atomics: key words are `AtomicU64`, counters are
//! `AtomicU16`, and pointers are `AtomicPtr`. Optimistically-read values may
//! be stale or mutually inconsistent — never undefined behaviour — and the
//! lease validation decides whether they can be used.
//!
//! # Safety invariants: node links are borrows of the tree
//!
//! * Nodes are allocated individually from the global allocator, each for
//!   one tree, and **never freed or moved** while that tree is alive: only
//!   `BTreeSet::free_nodes`, which takes `&mut self`, frees them (the
//!   subtrees `remove` splices out — a drained subtree with the separator
//!   to its right, a drained predecessor chain — are parked in the tree's
//!   graveyard until then). **Nodes never change trees**: no link ever
//!   names a node allocated for another tree.
//! * So every non-null pointer in a tree's `root`, a node's `parent` or a
//!   child slot names a node that lives as long as the tree is borrowed,
//!   and a node reached from `&'t BTreeSet` is handed out as `&'t
//!   LeafNode` / `&'t InnerNode`, as is every node reached from it. This
//!   argument is made once, on the accessors that turn a link into a
//!   borrow — `BTreeSet::root_node`, [`LeafNode::parent`],
//!   [`InnerNode::child`] and the tree's allocation helpers; a hint's
//!   cached leaf, which outlives any one borrow, becomes one in
//!   `BTreeSet::hinted`, behind the tree-id brand. Nowhere else turns a
//!   pointer into a node; only the *values* read through a borrow may be
//!   stale.
//! * A node's kind (leaf/inner) is fixed at allocation and never changes;
//!   [`LeafNode::inner`] is the one check that widens a node, and a
//!   `parent` link always names an inner node, so it is typed as one.
//! * `num_elements` read optimistically is clamped to the node capacity
//!   before being used as an index bound.

use crate::latch::Latch;
use optlock::OptimisticRwLock;
use std::alloc::Layout;
use std::cmp::Ordering;
use std::ops::Deref;

// Node fields go through `chaos::sync` so the schedule-exploration harness
// can interleave threads between any two field accesses. In normal builds
// these are literal `std::sync::atomic` aliases; under `--cfg chaos` they
// are `#[repr(transparent)]` wrappers, so the zeroed-allocation reasoning
// in `LeafNode::alloc` holds in both modes.
use chaos::sync::{AtomicPtr, AtomicU16, AtomicU64, Ordering::Relaxed};

/// A Datalog tuple: a fixed-arity array of `u64` words.
pub type Tuple<const K: usize> = [u64; K];

/// Atomic storage for one tuple (one key slot of a node).
pub(crate) type KeySlot<const K: usize> = [AtomicU64; K];

/// Three-way lexicographic tuple comparator (paper §3.3, "custom 3-way
/// comparator"): decides `<` / `=` / `>` in a single pass instead of the two
/// `less()` probes a generic comparator-based search would perform.
#[inline]
pub fn cmp3<const K: usize>(a: &Tuple<K>, b: &Tuple<K>) -> Ordering {
    for i in 0..K {
        if a[i] != b[i] {
            return if a[i] < b[i] {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
    }
    Ordering::Equal
}

/// A type-erased node pointer. Both node kinds start with the `LeafNode`
/// layout, so this is the canonical way to address any node; it is held raw
/// only in the links themselves, the hints and the graveyard.
pub(crate) type NodePtr<const K: usize, const C: usize, L = OptimisticRwLock> =
    *mut LeafNode<K, C, L>;

/// The common prefix of every node — and the entire layout of a leaf.
///
/// `C` is the key capacity of a node; a node holding `C` keys is full and
/// splits on the next insertion routed to it. With the default geometry
/// (`K = 2`, `C = 24`) a leaf is 408 bytes and an inner node 608 bytes at
/// natural (8-byte) alignment.
#[repr(C)]
pub(crate) struct LeafNode<const K: usize, const C: usize, L = OptimisticRwLock> {
    /// Version lock protecting this node's keys, counters and child array.
    pub lock: L,
    /// The parent node, or null for the root. Covered by the *parent's*
    /// lock (or the tree's root lock for the root node), per the paper's
    /// locking rules.
    parent: AtomicPtr<InnerNode<K, C, L>>,
    /// Index of this node within `parent`'s child array. Covered like
    /// `parent`.
    pub position: AtomicU16,
    /// Number of keys currently stored. Optimistic readers must clamp
    /// (use [`num_clamped`](Self::num_clamped)).
    pub num_elements: AtomicU16,
    /// `0` = leaf, `1` = inner. Written once before publication; atomic so
    /// optimistic readers racing with node publication stay well-defined.
    pub inner_flag: AtomicU16,
    /// The keys, each a `K`-word tuple, sorted ascending. Slots `>= num`
    /// are stale garbage.
    pub keys: [KeySlot<K>; C],
}

/// An inner node: a leaf prefix plus `C + 1` child pointers.
///
/// Children are split across a `C`-element array plus a dedicated
/// `last_child` slot because `[T; C + 1]` needs unstable
/// `generic_const_exprs`; [`child`](Self::child)/[`set_child`](Self::set_child)
/// hide the seam.
#[repr(C)]
pub(crate) struct InnerNode<const K: usize, const C: usize, L = OptimisticRwLock> {
    pub base: LeafNode<K, C, L>,
    children: [AtomicPtr<LeafNode<K, C, L>>; C],
    last_child: AtomicPtr<LeafNode<K, C, L>>,
}

impl<const K: usize, const C: usize, L> LeafNode<K, C, L> {
    /// Allocates a fresh leaf node. All-zero is a valid initial state
    /// (unlocked lock, null parent, zero elements, leaf kind), so the
    /// allocation is a single zeroed request to the global allocator. Every
    /// field of `LeafNode` is valid at the all-zero bit pattern: atomics of
    /// integers are plain integers, `AtomicPtr` null is the zero pattern,
    /// and a [`Latch`] promises that all-zero is a valid unlocked state.
    /// The node lives until [`free_subtree`](Self::free_subtree)
    /// reaches it (`BTreeSet::clear`/`Drop`).
    pub fn alloc() -> NodePtr<K, C, L>
    where
        L: Latch,
    {
        alloc_zeroed_node(Layout::new::<Self>()) as NodePtr<K, C, L>
    }

    /// Whether this node is an inner node.
    #[inline]
    pub fn is_inner(&self) -> bool {
        self.inner_flag.load(Relaxed) != 0
    }

    /// The inner-node view of this node, `None` for a leaf.
    #[inline]
    pub fn inner(&self) -> Option<&InnerNode<K, C, L>> {
        if !self.is_inner() {
            return None;
        }
        // SAFETY: the flag is set only by `InnerNode::alloc` and never
        // changes, so this node is the `base` prefix of an `InnerNode`
        // (`repr(C)`, first field): the widening cast is layout-correct.
        Some(unsafe { &*std::ptr::from_ref(self).cast::<InnerNode<K, C, L>>() })
    }

    /// The raw link to this node, as the tree's `root`, a child slot, a
    /// hint or the graveyard holds it.
    #[inline]
    pub fn ptr(&self) -> NodePtr<K, C, L> {
        std::ptr::from_ref(self).cast_mut()
    }

    /// The parent, `None` for the root. Read like any field: stale or
    /// racing under optimistic reads, exact under the parent's lock.
    #[inline]
    pub fn parent(&self) -> Option<&InnerNode<K, C, L>> {
        // SAFETY: a non-null parent link names an inner node of this node's
        // tree, which outlives the borrow of `self` (module docs).
        unsafe { self.parent.load(Relaxed).as_ref() }
    }

    /// Makes this node child `position` of `parent`. Caller holds the
    /// parent's write lock (or owns both nodes exclusively).
    #[inline]
    pub fn set_parent(&self, parent: &InnerNode<K, C, L>, position: usize) {
        self.parent
            .store(std::ptr::from_ref(parent).cast_mut(), Relaxed);
        self.position.store(position as u16, Relaxed);
    }

    /// The element count clamped to the capacity. Optimistic readers may
    /// observe a torn/stale counter; clamping keeps all derived indexing in
    /// bounds (the subsequent lease validation rejects the garbage values).
    #[inline]
    pub fn num_clamped(&self) -> usize {
        (self.num_elements.load(Relaxed) as usize).min(C)
    }

    /// The exact element count. Only meaningful under the node's write lock
    /// or in a quiescent (read-only) phase.
    #[inline]
    pub fn num(&self) -> usize {
        self.num_elements.load(Relaxed) as usize
    }

    /// Sets the element count: the keys live in slots `[0, n)`. Caller
    /// must hold the write lock (or own the node exclusively).
    #[inline]
    pub fn set_num(&self, n: usize) {
        debug_assert!(n <= C);
        self.num_elements.store(n as u16, Relaxed);
    }

    /// Inserts `t` at slot `idx` by shifting the suffix `[idx, num)` right.
    /// Caller must hold the write lock and guarantee `num() < C`.
    pub fn insert_at(&self, idx: usize, t: &Tuple<K>) {
        let n = self.num();
        debug_assert!(idx <= n && n < C);
        for p in (idx..n).rev() {
            self.copy_key_within(p, p + 1);
        }
        self.set_key(idx, t);
        self.set_num(n + 1);
    }

    /// Removes the key in slot `i` by shifting the suffix left. Caller must
    /// hold the write lock.
    pub fn remove_at(&self, i: usize) {
        let n = self.num();
        debug_assert!(i < n);
        for p in i..n - 1 {
            self.copy_key_within(p + 1, p);
        }
        self.set_num(n - 1);
    }

    /// Loads the key at `i` word by word (relaxed).
    #[inline]
    pub fn key(&self, i: usize) -> Tuple<K> {
        debug_assert!(i < C);
        let mut out = [0u64; K];
        for (w, slot) in out.iter_mut().zip(self.keys[i].iter()) {
            *w = slot.load(Relaxed);
        }
        out
    }

    /// Stores the key at `i` word by word (relaxed). Caller must hold the
    /// node's write lock.
    #[inline]
    pub fn set_key(&self, i: usize, t: &Tuple<K>) {
        debug_assert!(i < C);
        for (w, slot) in t.iter().zip(self.keys[i].iter()) {
            slot.store(*w, Relaxed);
        }
    }

    /// Copies the key at `from` to slot `to` (both within this node).
    #[inline]
    pub fn copy_key_within(&self, from: usize, to: usize) {
        let k = self.key(from);
        self.set_key(to, &k);
    }

    /// Compares the key at `i` against `t` word by word with early exit,
    /// loading only as many words as the comparison needs (tuples usually
    /// differ in their leading column). Same trust model as
    /// [`key`](Self::key): garbage under optimistic reads until the caller
    /// validates its lease, exact under the write lock.
    #[inline]
    pub fn cmp_key(&self, i: usize, t: &Tuple<K>) -> Ordering {
        debug_assert!(i < C);
        for (slot, w) in self.keys[i].iter().zip(t.iter()) {
            match slot.load(Relaxed).cmp(w) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Search for `t` among the first `n` keys.
    ///
    /// Returns `(idx, found)` where `idx` is the index of the first key
    /// `>= t` (i.e. the lower bound, `n` if all keys are smaller) and
    /// `found` says whether the key at `idx` equals `t`.
    ///
    /// This is the classic branchy binary search: on the predictable probe
    /// sequences Datalog produces (hinted leaf checks, sorted bulk loads,
    /// range positioning) its branches let the core speculate across the
    /// whole descent.
    ///
    /// Under optimistic reads the result may be garbage; it only becomes
    /// trustworthy after the caller validates its lease.
    #[inline]
    pub fn search(&self, t: &Tuple<K>, n: usize) -> (usize, bool) {
        debug_assert!(n <= C);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp3(&self.key(mid), t) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return (mid, true),
                Ordering::Greater => hi = mid,
            }
        }
        (lo, false)
    }

    /// Index of the first key strictly greater than `t` among the first `n`
    /// keys (`n` if none).
    #[inline]
    pub fn search_upper(&self, t: &Tuple<K>, n: usize) -> usize {
        debug_assert!(n <= C);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cmp3(&self.key(mid), t) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Frees this node and (recursively, via an explicit stack) all its
    /// descendants.
    ///
    /// # Safety
    /// `node` must be a valid tree node pointer, exclusively owned (the
    /// tree is being dropped or cleared: `&mut` access, no concurrent
    /// operations, no outstanding iterators).
    pub unsafe fn free_subtree(node: NodePtr<K, C, L>) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            // SAFETY: the caller owns the subtree exclusively; every
            // reachable pointer is a live node that `alloc` obtained from the
            // global allocator with the node type's exact layout, so it is
            // freed exactly once with the matching `Box` type.
            unsafe {
                match (*n).inner() {
                    Some(inner) => {
                        stack.extend(
                            (0..=inner.num()).filter_map(|i| inner.child(i).map(LeafNode::ptr)),
                        );
                        drop(Box::from_raw(n.cast::<InnerNode<K, C, L>>()));
                    }
                    None => drop(Box::from_raw(n)),
                }
            }
        }
    }
}

impl<const K: usize, const C: usize, L> InnerNode<K, C, L> {
    /// Allocates a fresh inner node (zeroed, kind flag set). `InnerNode`
    /// adds only atomic pointers to the leaf prefix, which are valid when
    /// zeroed (null), so the all-zero reasoning of [`LeafNode::alloc`]
    /// carries over.
    pub fn alloc() -> *mut Self
    where
        L: Latch,
    {
        let p = alloc_zeroed_node(Layout::new::<Self>()).cast::<Self>();
        // SAFETY: `p` is a valid, zero-initialized `InnerNode` allocation.
        unsafe { &*p }.base.inner_flag.store(1, Relaxed);
        p
    }

    /// The `i`-th child (`0 ..= num`). `i` must be `<= C`; the link may be
    /// stale or null under optimistic reads.
    #[inline]
    pub fn child(&self, i: usize) -> Option<&LeafNode<K, C, L>> {
        debug_assert!(i <= C);
        let p = if i < C {
            self.children[i].load(Relaxed)
        } else {
            self.last_child.load(Relaxed)
        };
        // SAFETY: a non-null child link names a node of this node's tree,
        // which outlives the borrow of `self` (module docs).
        unsafe { p.as_ref() }
    }

    /// The `i`-th child (`0 ..= num`) of a node read exactly — under its
    /// write lock, or owned — where every such slot is set.
    #[inline]
    pub fn exact_child(&self, i: usize) -> &LeafNode<K, C, L> {
        self.child(i)
            .expect("an exactly read inner node has all its children")
    }

    /// Links `child` into slot `i`. Caller holds this node's write lock (or
    /// owns it exclusively).
    #[inline]
    pub fn set_child(&self, i: usize, child: &LeafNode<K, C, L>) {
        debug_assert!(i <= C);
        if i < C {
            self.children[i].store(child.ptr(), Relaxed);
        } else {
            self.last_child.store(child.ptr(), Relaxed);
        }
    }
}

/// An inner node is its leaf prefix plus children: the `node`/`inner_node`
/// view of the C++ original.
impl<const K: usize, const C: usize, L> Deref for InnerNode<K, C, L> {
    type Target = LeafNode<K, C, L>;

    #[inline]
    fn deref(&self) -> &LeafNode<K, C, L> {
        &self.base
    }
}

/// One zeroed node allocation from the global allocator (compatible with
/// `Box::from_raw`, which [`LeafNode::free_subtree`] relies on).
fn alloc_zeroed_node(layout: Layout) -> *mut u8 {
    // SAFETY: node layouts are never zero-sized.
    let p = unsafe { std::alloc::alloc_zeroed(layout) };
    if p.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    type Leaf = LeafNode<2, 8>;
    type Inner = InnerNode<2, 8>;

    /// A node the test owns: freed with every child linked below it when
    /// the guard drops.
    struct Owned(NodePtr<2, 8>);

    impl Owned {
        fn leaf() -> Self {
            Self(Leaf::alloc())
        }

        fn inner() -> Self {
            Self(Inner::alloc().cast())
        }
    }

    impl Deref for Owned {
        type Target = Leaf;

        fn deref(&self) -> &Leaf {
            // SAFETY: the node lives until the guard drops.
            unsafe { &*self.0 }
        }
    }

    impl Drop for Owned {
        fn drop(&mut self) {
            // SAFETY: the test owns the node and every child it linked, and
            // links each child once.
            unsafe { Leaf::free_subtree(self.0) }
        }
    }

    #[test]
    fn cmp3_is_lexicographic() {
        assert_eq!(cmp3(&[1, 2], &[1, 2]), Ordering::Equal);
        assert_eq!(cmp3(&[1, 2], &[1, 3]), Ordering::Less);
        assert_eq!(cmp3(&[1, 9], &[2, 0]), Ordering::Less);
        assert_eq!(cmp3(&[2, 0], &[1, 9]), Ordering::Greater);
        assert_eq!(cmp3::<0>(&[], &[]), Ordering::Equal);
    }

    #[test]
    fn cmp3_matches_derived_ord() {
        let vals: [[u64; 2]; 5] = [[0, 0], [0, 1], [1, 0], [u64::MAX, 0], [1, u64::MAX]];
        for a in &vals {
            for b in &vals {
                assert_eq!(cmp3(a, b), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn fresh_leaf_is_empty_unlocked_leaf() {
        let leaf = Owned::leaf();
        assert!(leaf.inner().is_none());
        assert_eq!(leaf.num(), 0);
        assert!(!leaf.lock.is_write_locked());
        assert!(leaf.parent().is_none());
    }

    #[test]
    fn fresh_inner_has_kind_flag_and_null_children() {
        let node = Owned::inner();
        let inner = node.inner().expect("allocated as inner");
        for i in 0..=8 {
            assert!(inner.child(i).is_none());
        }
    }

    #[test]
    fn key_roundtrip() {
        let leaf = Owned::leaf();
        leaf.set_key(3, &[7, u64::MAX]);
        assert_eq!(leaf.key(3), [7, u64::MAX]);
        leaf.copy_key_within(3, 0);
        assert_eq!(leaf.key(0), [7, u64::MAX]);
    }

    /// Slot `C` is the separate `last_child` field. Children 0 and 8 are
    /// linked, so the node claims all eight keys for the guard to free both.
    #[test]
    fn child_slot_seam_at_capacity() {
        let node = Owned::inner();
        let inner = node.inner().unwrap();
        let (first, last) = (Owned::leaf(), Owned::leaf());
        inner.set_child(8, &last); // last_child slot
        assert!(inner.child(8).is_some_and(|c| std::ptr::eq(c, &*last)));
        assert!(inner.child(7).is_none());
        inner.set_child(0, &first);
        assert!(inner.child(0).is_some_and(|c| std::ptr::eq(c, &*first)));
        last.set_parent(inner, 8);
        assert!(last.parent().is_some_and(|p| std::ptr::eq(p, inner)));
        assert_eq!(last.position.load(Relaxed), 8);
        inner.set_num(8);
        std::mem::forget((first, last)); // freed with `node`
    }

    #[test]
    fn num_clamped_bounds_garbage_counters() {
        let leaf = Owned::leaf();
        leaf.num_elements.store(u16::MAX, Relaxed);
        assert_eq!(leaf.num_clamped(), 8);
        leaf.num_elements.store(3, Relaxed);
        assert_eq!(leaf.num_clamped(), 3);
    }

    #[test]
    fn search_finds_lower_bound_and_exact() {
        let leaf = Owned::leaf();
        for (i, v) in [[1u64, 0], [3, 0], [5, 0], [7, 0]].iter().enumerate() {
            leaf.set_key(i, v);
        }
        leaf.set_num(4);
        assert_eq!(leaf.search(&[0, 0], 4), (0, false));
        assert_eq!(leaf.search(&[1, 0], 4), (0, true));
        assert_eq!(leaf.search(&[2, 0], 4), (1, false));
        assert_eq!(leaf.search(&[7, 0], 4), (3, true));
        assert_eq!(leaf.search(&[8, 0], 4), (4, false));
    }

    #[test]
    fn search_upper_is_strict() {
        let leaf = Owned::leaf();
        for (i, v) in [[1u64, 0], [3, 0], [3, 5], [7, 0]].iter().enumerate() {
            leaf.set_key(i, v);
        }
        leaf.set_num(4);
        assert_eq!(leaf.search_upper(&[0, 0], 4), 0);
        assert_eq!(leaf.search_upper(&[1, 0], 4), 1);
        assert_eq!(leaf.search_upper(&[3, 0], 4), 2);
        assert_eq!(leaf.search_upper(&[3, 5], 4), 3);
        assert_eq!(leaf.search_upper(&[7, 0], 4), 4);
    }

    #[test]
    fn search_on_empty_prefix() {
        let leaf = Owned::leaf();
        assert_eq!(leaf.search(&[1, 1], 0), (0, false));
        assert_eq!(leaf.search_upper(&[1, 1], 0), 0);
    }

    #[test]
    fn insert_at_and_remove_at_shift_the_suffix() {
        let leaf = Owned::leaf();
        for i in 0..6u64 {
            leaf.set_key(i as usize, &[i * 10, 0]);
        }
        leaf.set_num(6);
        leaf.remove_at(2);
        assert_eq!(leaf.num(), 5);
        let got: Vec<[u64; 2]> = (0..5).map(|i| leaf.key(i)).collect();
        assert_eq!(got, vec![[0, 0], [10, 0], [30, 0], [40, 0], [50, 0]]);
        leaf.remove_at(4);
        leaf.remove_at(0);
        let got: Vec<[u64; 2]> = (0..3).map(|i| leaf.key(i)).collect();
        assert_eq!(got, vec![[10, 0], [30, 0], [40, 0]]);
        leaf.insert_at(1, &[20, 0]);
        leaf.insert_at(0, &[5, 0]);
        leaf.insert_at(5, &[60, 0]);
        let got: Vec<[u64; 2]> = (0..leaf.num()).map(|i| leaf.key(i)).collect();
        assert_eq!(
            got,
            vec![[5, 0], [10, 0], [20, 0], [30, 0], [40, 0], [60, 0]]
        );
    }

    #[test]
    fn free_subtree_handles_multi_level_tree() {
        // Build a 2-level tree by hand, then free it with the root's guard;
        // run under Miri/ASan to catch leaks or double frees.
        let root = Owned::inner();
        let r = root.inner().unwrap();
        r.set_key(0, &[10, 0]);
        r.set_num(1);
        for (i, leaf) in [Owned::leaf(), Owned::leaf()].into_iter().enumerate() {
            r.set_child(i, &leaf);
            leaf.set_parent(r, i);
            std::mem::forget(leaf); // freed with `root`
        }
    }

    #[test]
    fn layout_has_natural_alignment() {
        use std::mem::{align_of, size_of};
        assert_eq!(align_of::<LeafNode<2, 24>>(), 8);
        assert_eq!(size_of::<LeafNode<2, 24>>(), 408);
        assert_eq!(size_of::<InnerNode<2, 24>>(), 608);
    }
}
