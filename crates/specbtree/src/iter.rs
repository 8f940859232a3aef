//! Ordered iteration, bound queries and range scans.
//!
//! The tree is a classic B-tree: elements live in inner nodes too, so the
//! iterator is a `(node, position)` cursor that descends into subtrees after
//! visiting an inner key and climbs via parent links when a leaf is
//! exhausted — the same cursor the Soufflé implementation uses. There is
//! one cursor, [`Iter`], for every read: a full scan, a bound query, a
//! range, a prefix and a [`RangeChunk`] of a partition differ only in where
//! it starts and in its optional exclusive end. Its `fold` (under `count`,
//! `for_each`, `sum`, …) is the one bulk walk: a leaf at a time, comparing
//! with the end only in the leaf whose last key reaches it.
//!
//! Iteration is *phase-concurrent* (see the [`tree`](crate::tree) module
//! docs): correct results require that no insert runs concurrently, which
//! semi-naive Datalog evaluation guarantees. Racing an iterator against
//! inserts is memory-safe (all accesses are atomics, all indices clamped)
//! but yields an unspecified element sequence.

use crate::hints::{BTreeHints, HintKind};
use crate::latch::Latch;
use crate::node::{cmp3, LeafNode, Tuple};
use crate::tree::BTreeSet;
use optlock::OptimisticRwLock;
use std::cmp::Ordering;
use std::sync::atomic::Ordering::Relaxed;

/// An in-order cursor over a [`BTreeSet`], yielding tuples ascending up to
/// an optional exclusive end.
pub struct Iter<'a, const K: usize, const C: usize, L = OptimisticRwLock> {
    /// Current node, borrowed from the tree; `None` means the iterator is
    /// exhausted.
    node: Option<&'a LeafNode<K, C, L>>,
    /// Index of the key to yield next within `node`.
    pos: usize,
    /// Exclusive end; `None` = run to the end of the set.
    end: Option<Tuple<K>>,
}

impl<'a, const K: usize, const C: usize, L> Iter<'a, K, C, L> {
    pub(crate) fn new(node: Option<&'a LeafNode<K, C, L>>, pos: usize) -> Self {
        let mut it = Self {
            node,
            pos,
            end: None,
        };
        it.normalize();
        it
    }

    /// A cursor at a located position, exhausted if there is none.
    pub(crate) fn at(pos: Option<(&'a LeafNode<K, C, L>, usize)>) -> Self {
        match pos {
            Some((node, pos)) => Self::new(Some(node), pos),
            None => Self::new(None, 0),
        }
    }

    /// The tuple the cursor currently points at, without advancing; `None`
    /// once it is exhausted or at its end.
    pub fn peek(&self) -> Option<Tuple<K>> {
        let n = self.node?;
        (self.pos < n.num_clamped())
            .then(|| n.key(self.pos))
            .filter(|t| !self.reaches_end(t))
    }

    /// Whether `t` lies at or past the cursor's end.
    #[inline]
    fn reaches_end(&self, t: &Tuple<K>) -> bool {
        self.end
            .as_ref()
            .is_some_and(|end| cmp3(t, end) != Ordering::Less)
    }

    /// Climbs until the cursor comes up from a non-last child, leaving it
    /// on that parent's separator key, or exhausts it at the root. This is
    /// the in-order-successor step shared by [`Iterator::next`] and `fold`.
    fn climb(&mut self) {
        let Some(mut cur) = self.node else {
            return;
        };
        loop {
            let Some(parent) = cur.parent() else {
                self.node = None;
                return;
            };
            let pnum = parent.num_clamped();
            let i = (cur.position.load(Relaxed) as usize).min(pnum);
            if i < pnum {
                self.node = Some(&parent.base);
                self.pos = i;
                return;
            }
            cur = &parent.base;
        }
    }

    /// Restores the cursor invariant — `pos` names a real key or the
    /// cursor is exhausted — by climbing past any node whose keys end at
    /// or before `pos`. Removals make empty leaves and trailing
    /// positions legal mid-tree, so this can climb more than one level
    /// (an empty leaf under a unary inner chain).
    fn normalize(&mut self) {
        while let Some(n) = self.node {
            if self.pos < n.num_clamped() {
                return;
            }
            self.climb();
        }
    }

    /// Descends to the leftmost leaf of the subtree rooted at `node`.
    fn leftmost(mut node: &'a LeafNode<K, C, L>) -> Option<&'a LeafNode<K, C, L>> {
        while let Some(inner) = node.inner() {
            node = inner.child(0)?;
        }
        Some(node)
    }
}

impl<'a, const K: usize, const C: usize, L> Iterator for Iter<'a, K, C, L> {
    type Item = Tuple<K>;

    fn next(&mut self) -> Option<Tuple<K>> {
        // Empty leaves and unary inners are legal after removals, so a
        // descent may land on a keyless node: climb past it rather than
        // treating it as exhaustion. The cursor only exhausts at the root.
        let (n, num) = loop {
            let n = self.node?;
            let num = n.num_clamped();
            if self.pos < num {
                break (n, num);
            }
            self.climb();
        };
        let item = n.key(self.pos);
        if self.reaches_end(&item) {
            // Fused: the position at or past the end is never observed.
            self.node = None;
            return None;
        }

        // Advance to the in-order successor.
        if let Some(inner) = n.inner() {
            self.node = inner.child(self.pos + 1).and_then(Self::leftmost);
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

    /// The bulk walk: `count`, `sum`, `for_each` and friends all funnel
    /// through `fold`, which streams each leaf as one slot walk instead of
    /// paying [`Iterator::next`]'s per-element cursor checks. It compares
    /// with the end only in the leaf whose last key reaches it: that leaf
    /// holds the end, so the walk stops there. A separator key in an inner
    /// node goes through `next`.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        let mut acc = init;
        while let Some(n) = self.node {
            let num = n.num_clamped();
            if self.pos >= num {
                // Empty leaf (legal after removals): climb past it.
                self.climb();
                continue;
            }
            if n.is_inner() {
                // One separator key, then descend right of it.
                match self.next() {
                    Some(t) => acc = f(acc, t),
                    None => break,
                }
                continue;
            }
            let mut stop = num;
            if let Some(end) = &self.end {
                if cmp3(&n.key(num - 1), end) != Ordering::Less {
                    let at_end = |&i: &usize| cmp3(&n.key(i), end) != Ordering::Less;
                    stop = (self.pos..num).find(at_end).unwrap_or(num);
                }
            }
            for i in self.pos..stop {
                acc = f(acc, n.key(i));
            }
            if stop < num {
                break; // the end falls inside this leaf
            }
            // Climb until we come up from a non-last child, once per leaf.
            self.climb();
        }
        acc
    }
}

/// A half-open tuple interval `[lower, upper)`, as
/// [`BTreeSet::partition`] cuts them and [`RangeChunk::prefix`] bounds a
/// prefix; `None` bounds are unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeChunk<const K: usize> {
    /// Inclusive lower bound (`None` = from the smallest tuple).
    pub lower: Option<Tuple<K>>,
    /// Exclusive upper bound (`None` = to the largest tuple).
    pub upper: Option<Tuple<K>>,
}

impl<const K: usize> RangeChunk<K> {
    /// The interval of every tuple whose first `prefix.len()` words equal
    /// `prefix`: from the prefix padded with zeros to the prefix
    /// incremented at its last word (carrying leftwards), padded likewise.
    /// The empty prefix is unbounded on both sides, and an all-max prefix
    /// has no upper bound.
    ///
    /// # Panics
    /// If `prefix.len() > K`.
    pub fn prefix(prefix: &[u64]) -> Self {
        assert!(prefix.len() <= K, "prefix longer than tuple arity");
        if prefix.is_empty() {
            return Self {
                lower: None,
                upper: None,
            };
        }
        let mut lower = [0u64; K];
        lower[..prefix.len()].copy_from_slice(prefix);
        let mut upper = lower;
        // A word that overflows wraps to zero and carries into the one
        // before it; `all` stops at the first that does not.
        let saturated = upper[..prefix.len()].iter_mut().rev().all(|w| {
            let (v, overflow) = w.overflowing_add(1);
            *w = v;
            overflow
        });
        Self {
            lower: Some(lower),
            upper: (!saturated).then_some(upper),
        }
    }
}

impl<const K: usize, const C: usize, L: Latch> BTreeSet<K, C, L> {
    /// The smallest stored tuple. Phase-concurrent.
    pub fn first(&self) -> Option<Tuple<K>> {
        self.iter().next()
    }

    /// The largest stored tuple. Phase-concurrent (O(depth): descends the
    /// rightmost spine).
    pub fn last(&self) -> Option<Tuple<K>> {
        let mut node = self.root_node();
        // Deepest key seen on the rightmost spine: separator bounds make
        // every key below it larger, so each keyed level overwrites it.
        // It is the answer when the rightmost leaf itself is empty (legal
        // after removals), and unary inners (num == 0) pass straight
        // through via child(num) == child(0).
        let mut best: Option<Tuple<K>> = None;
        while let Some(n) = node {
            let num = n.num_clamped();
            if num > 0 {
                best = Some(n.key(num - 1));
            }
            node = n.inner().and_then(|inner| inner.child(num));
        }
        best
    }

    /// An iterator over all tuples in ascending lexicographic order.
    /// Phase-concurrent (no concurrent inserts).
    pub fn iter(&self) -> Iter<'_, K, C, L> {
        // An empty leftmost leaf is legal after removals; Iter::new's
        // normalization climbs to the first real element (or exhausts).
        Iter::new(self.root_node().and_then(Iter::leftmost), 0)
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
            |leaf| Self::try_hinted_bound(leaf, t, strict).map(Some),
            || {
                let res = self.bound_pos(t, strict);
                (res, res.map(|(n, _)| n))
            },
        ))
    }

    /// All tuples in `[lower, upper)`.
    pub fn range(&self, lower: &Tuple<K>, upper: &Tuple<K>) -> Iter<'_, K, C, L> {
        let (lower, upper) = (Some(*lower), Some(*upper));
        self.chunk_range(&RangeChunk { lower, upper })
    }

    /// All tuples whose first `prefix.len()` words equal `prefix` — the
    /// range query pattern of Datalog joins (Figure 1 of the paper: bind
    /// the leading columns, scan the rest).
    ///
    /// # Panics
    /// If `prefix.len() > K`.
    pub fn prefix_range(&self, prefix: &[u64]) -> Iter<'_, K, C, L> {
        self.chunk_range(&RangeChunk::prefix(prefix))
    }

    /// All tuples of a [`RangeChunk`]: one descent to its lower bound, and
    /// a cursor that ends at its upper bound.
    pub fn chunk_range(&self, chunk: &RangeChunk<K>) -> Iter<'_, K, C, L> {
        let start = match &chunk.lower {
            Some(lo) => self.lower_bound(lo),
            None => self.iter(),
        };
        Iter {
            end: chunk.upper,
            ..start
        }
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
        // Depth 0 (root leaf) or depth 1 (root over leaves): one chunk.
        let Some(root) = self.root_node() else {
            return full;
        };
        let c0 = root.inner().and_then(|r| r.child(0));
        if !c0.is_some_and(LeafNode::is_inner) {
            return full;
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
        let mut level: Vec<&LeafNode<K, C, L>> = vec![root];
        let mut seps: Vec<Tuple<K>> = Vec::new();
        'levels: loop {
            seps.clear();
            for node in &level {
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
            let mut next = Vec::with_capacity(level.len() * (C + 1));
            for node in &level {
                // All leaves sit at one depth: one leaf is the leaf level.
                let Some(inner) = node.inner() else {
                    break 'levels; // leaf level reached; use what we have
                };
                let num = node.num_clamped();
                for i in 0..=num {
                    let Some(c) = inner.child(i) else {
                        continue;
                    };
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
    fn prefix_bounds_handle_saturation() {
        let unbounded = RangeChunk {
            lower: None,
            upper: None,
        };
        assert_eq!(RangeChunk::<2>::prefix(&[]), unbounded);
        assert_eq!(RangeChunk::<1>::prefix(&[3]).upper, Some([4]));
        assert_eq!(
            RangeChunk::<5>::prefix(&[3]),
            RangeChunk {
                lower: Some([3, 0, 0, 0, 0]),
                upper: Some([4, 0, 0, 0, 0]),
            }
        );
        assert_eq!(RangeChunk::<2>::prefix(&[u64::MAX]).upper, None);
        // Carry into the previous word.
        assert_eq!(
            RangeChunk::<3>::prefix(&[7, u64::MAX]),
            RangeChunk {
                lower: Some([7, u64::MAX, 0]),
                upper: Some([8, 0, 0]),
            }
        );
        assert_eq!(RangeChunk::<2>::prefix(&[u64::MAX, u64::MAX]).upper, None);
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
