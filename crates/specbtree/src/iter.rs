//! Ordered iteration, bound queries and range scans.
//!
//! The tree is a classic B-tree: elements live in inner nodes too, so the
//! iterator is a `(node, position)` cursor that descends into subtrees after
//! visiting an inner key and climbs via parent links when a leaf is
//! exhausted — the same cursor the Soufflé implementation uses.
//!
//! Iteration is *phase-concurrent* (see the [`tree`](crate::tree) module
//! docs): correct results require that no insert runs concurrently, which
//! semi-naive Datalog evaluation guarantees. Racing an iterator against
//! inserts is memory-safe (all accesses are atomics, all indices clamped)
//! but yields an unspecified element sequence.

use crate::hints::{BTreeHints, HintKind};
use crate::latch::Latch;
use crate::node::{cmp3, NodePtr, Tuple};
use crate::tree::BTreeSet;
use optlock::OptimisticRwLock;
use std::cmp::Ordering;
use std::marker::PhantomData;
use std::sync::atomic::Ordering::Relaxed;

/// An in-order cursor over a [`BTreeSet`], yielding tuples ascending.
pub struct Iter<'a, const K: usize, const C: usize, L = OptimisticRwLock> {
    /// Current node; null means the iterator is exhausted.
    node: NodePtr<K, C, L>,
    /// Index of the key to yield next within `node`.
    pos: usize,
    _tree: PhantomData<&'a BTreeSet<K, C, L>>,
}

impl<'a, const K: usize, const C: usize, L> Iter<'a, K, C, L> {
    pub(crate) fn new(node: NodePtr<K, C, L>, pos: usize) -> Self {
        let mut it = Self {
            node,
            pos,
            _tree: PhantomData,
        };
        it.normalize();
        it
    }

    pub(crate) fn exhausted() -> Self {
        Self::new(std::ptr::null_mut(), 0)
    }

    /// A cursor at a located position, exhausted if there is none.
    pub(crate) fn at(pos: Option<(NodePtr<K, C, L>, usize)>) -> Self {
        pos.map_or_else(Self::exhausted, |(node, pos)| Self::new(node, pos))
    }

    /// The tuple the cursor currently points at, without advancing.
    pub fn peek(&self) -> Option<Tuple<K>> {
        if self.node.is_null() {
            return None;
        }
        // SAFETY: non-null cursor nodes are live tree nodes.
        let n = unsafe { &*self.node };
        if self.pos < n.num_clamped() {
            Some(n.key(self.pos))
        } else {
            None
        }
    }

    /// Climbs until the cursor comes up from a non-last child, leaving it
    /// on that parent's separator key, or exhausts it at the root. This is
    /// the in-order-successor step shared by [`Iterator::next`], `fold` and
    /// `collect_into`.
    fn climb(&mut self) {
        let mut cur = self.node;
        loop {
            // SAFETY: live tree node.
            let cn = unsafe { &*cur };
            let parent = cn.parent.load(Relaxed);
            if parent.is_null() {
                self.node = std::ptr::null_mut();
                return;
            }
            // SAFETY: parent links reference live nodes.
            let pn = unsafe { &*parent };
            let pnum = pn.num_clamped();
            let i = (cn.position.load(Relaxed) as usize).min(pnum);
            if i < pnum {
                self.node = parent;
                self.pos = i;
                return;
            }
            cur = parent;
        }
    }

    /// Restores the cursor invariant — `pos` names a real key or the
    /// cursor is exhausted — by climbing past any node whose keys end at
    /// or before `pos`. Removals make empty leaves and trailing
    /// positions legal mid-tree, so this can climb more than one level
    /// (an empty leaf under a unary inner chain).
    fn normalize(&mut self) {
        while !self.node.is_null() {
            // SAFETY: non-null cursor nodes are live tree nodes.
            let n = unsafe { &*self.node };
            if self.pos < n.num_clamped() {
                return;
            }
            self.climb();
        }
    }

    /// Descends to the leftmost leaf of the subtree rooted at `node`.
    fn leftmost(mut node: NodePtr<K, C, L>) -> NodePtr<K, C, L> {
        loop {
            if node.is_null() {
                return node;
            }
            // SAFETY: live tree node.
            let n = unsafe { &*node };
            if !n.is_inner() {
                return node;
            }
            // SAFETY: kind checked above.
            node = unsafe { n.as_inner() }.child(0);
        }
    }
}

impl<'a, const K: usize, const C: usize, L> Iterator for Iter<'a, K, C, L> {
    type Item = Tuple<K>;

    fn next(&mut self) -> Option<Tuple<K>> {
        // Empty leaves and unary inners are legal after removals, so a
        // descent may land on a keyless node: climb past it rather than
        // treating it as exhaustion. The cursor only exhausts at the root.
        let (n, num) = loop {
            if self.node.is_null() {
                return None;
            }
            // SAFETY: live tree node.
            let n = unsafe { &*self.node };
            let num = n.num_clamped();
            if self.pos < num {
                break (n, num);
            }
            self.climb();
        };
        let item = n.key(self.pos);

        // Advance to the in-order successor.
        if n.is_inner() {
            // SAFETY: kind checked.
            let child = unsafe { n.as_inner() }.child(self.pos + 1);
            self.node = Iter::<K, C, L>::leftmost(child);
            self.pos = 0;
        } else {
            self.pos += 1;
            if self.pos >= num {
                // Climb until we come up from a non-last child.
                self.climb();
            }
        }
        Some(item)
    }

    /// Bulk traversal: `count`, `sum`, `for_each` and friends all funnel
    /// through `fold`, so full scans stream each leaf as one slot walk
    /// instead of paying [`Iterator::next`]'s per-element cursor checks.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let mut acc = init;
        while !self.node.is_null() {
            // SAFETY: non-null cursor nodes are live tree nodes.
            let n = unsafe { &*self.node };
            if n.is_inner() {
                // One separator key, then descend right of it: next()
                // already implements that step.
                match self.next() {
                    Some(t) => acc = f(acc, t),
                    None => break,
                }
                continue;
            }
            let num = n.num_clamped();
            if self.pos >= num {
                // Empty leaf (legal after removals): climb past it.
                self.climb();
                continue;
            }
            for i in self.pos..num {
                acc = f(acc, n.key(i));
            }
            // Climb until we come up from a non-last child, once per leaf.
            self.climb();
        }
        acc
    }
}

/// An in-order cursor bounded by an exclusive upper tuple.
pub struct RangeIter<'a, const K: usize, const C: usize, L = OptimisticRwLock> {
    inner: Iter<'a, K, C, L>,
    /// Exclusive upper bound; `None` = run to the end of the set.
    end: Option<Tuple<K>>,
}

impl<'a, const K: usize, const C: usize, L> RangeIter<'a, K, C, L> {
    pub(crate) fn new(inner: Iter<'a, K, C, L>, end: Option<Tuple<K>>) -> Self {
        Self { inner, end }
    }

    /// Drains the cursor into `buf`, copying whole leaf runs in bulk
    /// instead of paying [`Iterator::next`]'s per-element cursor checks —
    /// the shape the merge path wants when materializing a chunk. When a
    /// leaf's last key is below the bound (the common case away from the
    /// chunk edge), its run is copied without any per-key comparison.
    /// Phase-concurrent like [`Iter`]: quiescent trees only.
    pub fn collect_into(mut self, buf: &mut Vec<Tuple<K>>) {
        loop {
            let node = self.inner.node;
            if node.is_null() {
                return;
            }
            // SAFETY: non-null cursor nodes are live tree nodes.
            let n = unsafe { &*node };
            let num = n.num_clamped();
            if self.inner.pos >= num {
                // Empty leaf (legal after removals): climb past it.
                self.inner.climb();
                continue;
            }
            if n.is_inner() {
                // One separator key, then descend right of it: next()
                // already implements that step (and the bound check).
                match self.next() {
                    Some(t) => buf.push(t),
                    None => return,
                }
                continue;
            }
            // Leaf: copy the remaining run of keys. Per-key bound compares
            // only happen when the leaf's last key reaches the bound — the
            // common interior leaf copies compare-free.
            let mut stop = num;
            if let Some(end) = &self.end {
                if cmp3(&n.key(num - 1), end) != Ordering::Less {
                    let mut s = self.inner.pos;
                    while s < num && cmp3(&n.key(s), end) == Ordering::Less {
                        s += 1;
                    }
                    stop = s;
                }
            }
            for i in self.inner.pos..stop {
                buf.push(n.key(i));
            }
            if stop < num {
                return; // bound hit inside the leaf
            }
            // Climb until we come up from a non-last child (Iter::next's
            // tail), once per leaf instead of once per element.
            self.inner.climb();
        }
    }
}

impl<'a, const K: usize, const C: usize, L> Iterator for RangeIter<'a, K, C, L> {
    type Item = Tuple<K>;

    fn next(&mut self) -> Option<Tuple<K>> {
        // Advance first, check after: materializes each tuple once instead
        // of peek + re-read. Reaching the bound fuses the cursor so the
        // overshot position is never observed.
        let t = self.inner.next()?;
        if let Some(end) = &self.end {
            if cmp3(&t, end) != Ordering::Less {
                self.inner.node = std::ptr::null_mut();
                return None;
            }
        }
        Some(t)
    }
}

/// A half-open tuple interval `[lower, upper)` produced by
/// [`BTreeSet::partition`]; `None` bounds are unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeChunk<const K: usize> {
    /// Inclusive lower bound (`None` = from the smallest tuple).
    pub lower: Option<Tuple<K>>,
    /// Exclusive upper bound (`None` = to the largest tuple).
    pub upper: Option<Tuple<K>>,
}

impl<const K: usize, const C: usize, L: Latch> BTreeSet<K, C, L> {
    /// The smallest stored tuple. Phase-concurrent.
    pub fn first(&self) -> Option<Tuple<K>> {
        self.iter().next()
    }

    /// The largest stored tuple. Phase-concurrent (O(depth): descends the
    /// rightmost spine).
    pub fn last(&self) -> Option<Tuple<K>> {
        let mut node = self.root.load(Relaxed);
        // Deepest key seen on the rightmost spine: separator bounds make
        // every key below it larger, so each keyed level overwrites it.
        // It is the answer when the rightmost leaf itself is empty (legal
        // after removals), and unary inners (num == 0) pass straight
        // through via child(num) == child(0).
        let mut best: Option<Tuple<K>> = None;
        while !node.is_null() {
            // SAFETY: live tree node.
            let n = unsafe { &*node };
            let num = n.num_clamped();
            if num > 0 {
                best = Some(n.key(num - 1));
            }
            if !n.is_inner() {
                return best;
            }
            // SAFETY: kind checked.
            node = unsafe { n.as_inner() }.child(num);
        }
        best
    }

    /// An iterator over all tuples in ascending lexicographic order.
    /// Phase-concurrent (no concurrent inserts).
    pub fn iter(&self) -> Iter<'_, K, C, L> {
        let root = self.root.load(Relaxed);
        if root.is_null() {
            return Iter::exhausted();
        }
        // An empty leftmost leaf is legal after removals; Iter::new's
        // normalization climbs to the first real element (or exhausts).
        Iter::new(Iter::<K, C, L>::leftmost(root), 0)
    }

    /// Cursor at the first tuple `>= t` (C++ `lower_bound` semantics); the
    /// returned iterator runs to the end of the set.
    pub fn lower_bound(&self, t: &Tuple<K>) -> Iter<'_, K, C, L> {
        Iter::at(self.bound_pos(t, false))
    }

    /// Cursor at the first tuple `> t` (C++ `upper_bound` semantics).
    pub fn upper_bound(&self, t: &Tuple<K>) -> Iter<'_, K, C, L> {
        Iter::at(self.bound_pos(t, true))
    }

    /// Hinted variant of [`lower_bound`](Self::lower_bound).
    pub fn lower_bound_hinted(
        &self,
        t: &Tuple<K>,
        hints: &mut BTreeHints<K, C, L>,
    ) -> Iter<'_, K, C, L> {
        self.bound_hinted(t, hints, HintKind::Lower)
    }

    /// Hinted variant of [`upper_bound`](Self::upper_bound).
    pub fn upper_bound_hinted(
        &self,
        t: &Tuple<K>,
        hints: &mut BTreeHints<K, C, L>,
    ) -> Iter<'_, K, C, L> {
        self.bound_hinted(t, hints, HintKind::Upper)
    }

    /// The hinted bound query of `kind` (`Lower` or `Upper`): the cached
    /// leaf if its key range encloses the answer, a descent otherwise.
    fn bound_hinted(
        &self,
        t: &Tuple<K>,
        hints: &mut BTreeHints<K, C, L>,
        kind: HintKind,
    ) -> Iter<'_, K, C, L> {
        let strict = kind == HintKind::Upper;
        Iter::at(self.hinted(
            hints,
            kind,
            |leaf| self.try_hinted_bound(leaf, t, strict).map(Some),
            || {
                let res = self.bound_pos(t, strict);
                (res, res.map_or(std::ptr::null_mut(), |(n, _)| n))
            },
        ))
    }

    /// All tuples in `[lower, upper)`.
    pub fn range(&self, lower: &Tuple<K>, upper: &Tuple<K>) -> RangeIter<'_, K, C, L> {
        RangeIter::new(self.lower_bound(lower), Some(*upper))
    }

    /// All tuples whose first `prefix.len()` words equal `prefix` — the
    /// range query pattern of Datalog joins (Figure 1 of the paper: bind
    /// the leading columns, scan the rest).
    ///
    /// # Panics
    /// If `prefix.len() > K`.
    pub fn prefix_range(&self, prefix: &[u64]) -> RangeIter<'_, K, C, L> {
        assert!(prefix.len() <= K, "prefix longer than tuple arity");
        let mut lower = [0u64; K];
        lower[..prefix.len()].copy_from_slice(prefix);
        // The exclusive upper bound is the prefix incremented at its last
        // word, padded with zeros; if the prefix is all-max, no upper bound
        // exists.
        let mut upper = lower;
        let mut carry = true;
        for w in upper[..prefix.len()].iter_mut().rev() {
            if !carry {
                break;
            }
            let (v, overflow) = w.overflowing_add(1);
            *w = v;
            carry = overflow;
        }
        for w in upper[prefix.len()..].iter_mut() {
            *w = 0;
        }
        let end = if carry || prefix.is_empty() {
            None
        } else {
            Some(upper)
        };
        RangeIter::new(self.lower_bound(&lower), end)
    }

    /// All tuples of a [`RangeChunk`] produced by
    /// [`partition`](Self::partition).
    pub fn chunk_range(&self, chunk: &RangeChunk<K>) -> RangeIter<'_, K, C, L> {
        let start = match &chunk.lower {
            Some(lo) => self.lower_bound(lo),
            None => self.iter(),
        };
        RangeIter::new(start, chunk.upper)
    }

    /// Splits the key space into at most `n` contiguous chunks of roughly
    /// equal size for parallel scans — the analog of the chunk interface
    /// the C++ implementation exposes to OpenMP. Quiescent phases only.
    ///
    /// Always returns at least one chunk (the full range). Trees of depth
    /// 0 or 1 yield a single chunk: a couple of leaves is cheaper to scan
    /// sequentially than to coordinate over, and shallow trees have too
    /// few separators to balance.
    pub fn partition(&self, n: usize) -> Vec<RangeChunk<K>> {
        self.partition_range(n, None, None)
    }

    /// [`partition`](Self::partition) restricted to the half-open tuple
    /// interval `[lower, upper)` — the shape a prefix-bound Datalog scan
    /// needs (bind the leading columns, split the rest across workers).
    ///
    /// Every returned chunk lies within the requested bounds, the chunks
    /// tile the interval exactly, and chunk boundaries are strictly
    /// increasing (repeated separator keys are deduplicated, so no chunk
    /// is the empty interval). Quiescent phases only.
    pub fn partition_range(
        &self,
        n: usize,
        lower: Option<&Tuple<K>>,
        upper: Option<&Tuple<K>>,
    ) -> Vec<RangeChunk<K>> {
        let full = vec![RangeChunk {
            lower: lower.copied(),
            upper: upper.copied(),
        }];
        if n <= 1 {
            return full;
        }
        let root = self.root.load(Relaxed);
        if root.is_null() {
            return full;
        }
        {
            // Depth 0 (root leaf) or depth 1 (root over leaves): one chunk.
            // SAFETY: the root pointer references a live tree node.
            let r = unsafe { &*root };
            if !r.is_inner() {
                return full;
            }
            // SAFETY: kind checked above.
            let c0 = unsafe { r.as_inner() }.child(0);
            // SAFETY: non-null children of live inner nodes are live.
            if c0.is_null() || !unsafe { &*c0 }.is_inner() {
                return full;
            }
        }

        // A separator is usable only strictly inside (lower, upper): a
        // separator equal to a bound would produce an empty edge chunk.
        let in_range = |t: &Tuple<K>| {
            lower.is_none_or(|lo| cmp3(t, lo) == Ordering::Greater)
                && upper.is_none_or(|hi| cmp3(t, hi) == Ordering::Less)
        };

        // Gather separator keys level by level until we have enough.
        // Keys of all nodes at one level, scanned left-to-right, are
        // sorted; subtrees entirely outside the bounds are pruned so a
        // narrow prefix partition never walks the whole level.
        let mut level: Vec<NodePtr<K, C, L>> = vec![root];
        let mut seps: Vec<Tuple<K>> = Vec::new();
        loop {
            seps.clear();
            for &p in &level {
                // SAFETY: live tree nodes collected below.
                let node = unsafe { &*p };
                for i in 0..node.num_clamped() {
                    let k = node.key(i);
                    if in_range(&k) {
                        seps.push(k);
                    }
                }
            }
            if seps.len() >= n - 1 {
                break;
            }
            // SAFETY: level nodes are live; kind checked before widening.
            let first = unsafe { &*level[0] };
            if !first.is_inner() {
                break; // leaf level reached; use what we have
            }
            let mut next = Vec::with_capacity(level.len() * (C + 1));
            for &p in &level {
                let node = unsafe { &*p };
                let inner = unsafe { node.as_inner() };
                let num = node.num_clamped();
                for i in 0..=num {
                    let c = inner.child(i);
                    if c.is_null() {
                        continue;
                    }
                    // Child i subtends keys in (key(i-1), key(i)); skip
                    // subtrees that cannot intersect [lower, upper).
                    if i > 0 {
                        if let Some(hi) = upper {
                            if cmp3(&node.key(i - 1), hi) != Ordering::Less {
                                continue;
                            }
                        }
                    }
                    if i < num {
                        if let Some(lo) = lower {
                            if cmp3(&node.key(i), lo) != Ordering::Greater {
                                continue;
                            }
                        }
                    }
                    next.push(c);
                }
            }
            if next.is_empty() {
                break;
            }
            level = next;
        }
        if seps.is_empty() {
            return full;
        }

        // Pick at most n-1 evenly spaced separators. The smallest in-range
        // key is excluded from candidacy: it guarantees the first chunk
        // `[lower, chosen[0])` contains it, and since every separator is
        // itself an in-range element, every later chunk `[s, next)`
        // contains `s` — no chunk is ever empty. `dedup` guards against a
        // repeated pick.
        let candidates = &seps[1..];
        if candidates.is_empty() {
            return full;
        }
        let want = (n - 1).min(candidates.len());
        let mut chosen = Vec::with_capacity(want);
        for i in 1..=want {
            let idx = i * candidates.len() / (want + 1);
            chosen.push(candidates[idx.min(candidates.len() - 1)]);
        }
        chosen.dedup();

        let mut chunks = Vec::with_capacity(chosen.len() + 1);
        let mut lo = lower.copied();
        for s in chosen {
            chunks.push(RangeChunk {
                lower: lo,
                upper: Some(s),
            });
            lo = Some(s);
        }
        chunks.push(RangeChunk {
            lower: lo,
            upper: upper.copied(),
        });
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::RangeChunk;
    use crate::tree::BTreeSet;

    /// A tree with small node capacity so modest key counts produce depth.
    type SmallTree = BTreeSet<1, 4>;

    fn tree_with(n: u64) -> SmallTree {
        let t = SmallTree::new();
        for i in 0..n {
            t.insert([i]);
        }
        t
    }

    fn collect(t: &SmallTree, chunks: &[RangeChunk<1>]) -> Vec<[u64; 1]> {
        let mut all = Vec::new();
        for c in chunks {
            all.extend(t.chunk_range(c));
        }
        all
    }

    #[test]
    fn empty_and_depth0_and_depth1_trees_yield_one_chunk() {
        // Empty tree.
        let t = SmallTree::new();
        assert_eq!(t.partition(8).len(), 1);
        // Depth 0: a single root leaf (capacity 4).
        let t = tree_with(3);
        assert_eq!(t.partition(8).len(), 1);
        // Depth 1: root over leaves (> capacity forces one split).
        let t = tree_with(10);
        assert_eq!(t.partition(8).len(), 1);
        assert_eq!(collect(&t, &t.partition(8)).len(), 10);
    }

    #[test]
    fn oversized_n_never_yields_empty_chunks() {
        let t = tree_with(200);
        // Ask for far more chunks than there are separators.
        for n in [2usize, 7, 64, 1000] {
            let chunks = t.partition(n);
            assert!(chunks.len() <= n);
            for c in &chunks {
                assert!(
                    t.chunk_range(c).next().is_some(),
                    "empty chunk {c:?} for n={n}"
                );
                if let (Some(lo), Some(hi)) = (&c.lower, &c.upper) {
                    assert!(lo < hi, "inverted chunk {c:?}");
                }
            }
            let got = collect(&t, &chunks);
            assert_eq!(got, (0..200).map(|i| [i]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn partition_range_tiles_the_bounds_exactly() {
        let t = tree_with(500);
        let lo = [120u64];
        let hi = [380u64];
        for n in [1usize, 2, 5, 16] {
            let chunks = t.partition_range(n, Some(&lo), Some(&hi));
            assert_eq!(chunks.first().unwrap().lower, Some(lo));
            assert_eq!(chunks.last().unwrap().upper, Some(hi));
            // Adjacent chunks share boundaries and stay inside [lo, hi).
            for w in chunks.windows(2) {
                assert_eq!(w[0].upper, w[1].lower);
                let s = w[0].upper.unwrap();
                assert!(s > lo && s < hi, "separator {s:?} outside bounds");
            }
            let got = collect(&t, &chunks);
            assert_eq!(got, (120..380).map(|i| [i]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn partition_range_with_open_ends() {
        let t = tree_with(300);
        let lo = [250u64];
        let chunks = t.partition_range(8, Some(&lo), None);
        assert_eq!(
            collect(&t, &chunks),
            (250..300).map(|i| [i]).collect::<Vec<_>>()
        );
        let hi = [40u64];
        let chunks = t.partition_range(8, None, Some(&hi));
        assert_eq!(
            collect(&t, &chunks),
            (0..40).map(|i| [i]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partition_range_on_empty_interval_is_harmless() {
        let t = tree_with(100);
        // Bounds beyond the data: chunks must exist but scan nothing.
        let lo = [600u64];
        let hi = [700u64];
        let chunks = t.partition_range(4, Some(&lo), Some(&hi));
        assert!(!chunks.is_empty());
        assert!(collect(&t, &chunks).is_empty());
    }

    #[test]
    fn multi_column_prefix_partition_splits_within_prefix() {
        // Two-column tuples: prefix-bound scans fix column 0.
        let t: BTreeSet<2, 4> = BTreeSet::new();
        for a in 0..4u64 {
            for b in 0..64u64 {
                t.insert([a, b]);
            }
        }
        let lo = [2u64, 0];
        let hi = [3u64, 0];
        let chunks = t.partition_range(4, Some(&lo), Some(&hi));
        assert!(chunks.len() > 1, "a 64-tuple prefix should split");
        let mut all = Vec::new();
        for c in &chunks {
            all.extend(t.chunk_range(c));
        }
        assert_eq!(all, (0..64).map(|b| [2, b]).collect::<Vec<_>>());
    }
}
