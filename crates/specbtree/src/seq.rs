//! The sequential twin of the specialized B-tree (the paper's *"seq btree"*
//! baseline, Table 1).
//!
//! Same geometry (node capacity, median splits, elements in inner nodes),
//! same hint mechanism, same query surface — but plain fields instead of
//! atomics and no locking protocol whatsoever. Comparing this structure with
//! [`BTreeSet`](crate::BTreeSet) isolates the price of the synchronization
//! machinery (the paper measures up to ~25% on ordered insertion, §4.1).
//!
//! Unlike the concurrent tree, this implementation stores nodes in an index
//! arena (`Vec` of nodes, `u32` links), which keeps the whole module free of
//! `unsafe` and gives the allocator-friendly contiguous layout a tuned
//! sequential structure would use.

use crate::check::{InvariantViolation, TreeShape};
use crate::node::{cmp3, Tuple};
use std::cmp::Ordering;

/// Sentinel for "no node" in arena links.
const NONE: u32 = u32::MAX;

/// Hit/miss statistics of [`SeqHints`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqHintStats {
    /// Hinted operations that reused the cached leaf.
    pub hits: u64,
    /// Hinted operations that fell back to a full traversal.
    pub misses: u64,
}

impl SeqHintStats {
    /// Hit rate in `[0, 1]`; `0` when no hinted operation ran.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-use-site operation hints for a [`SeqBTreeSet`]: cached arena indices
/// of the most recently accessed leaf, one per operation kind.
#[derive(Debug)]
pub struct SeqHints {
    insert_leaf: u32,
    contains_leaf: u32,
    lower_leaf: u32,
    upper_leaf: u32,
    /// Hit/miss statistics of all hinted operations through this object.
    pub stats: SeqHintStats,
}

impl Default for SeqHints {
    fn default() -> Self {
        Self {
            insert_leaf: NONE,
            contains_leaf: NONE,
            lower_leaf: NONE,
            upper_leaf: NONE,
            stats: SeqHintStats::default(),
        }
    }
}

impl SeqHints {
    /// Creates empty hints.
    pub fn new() -> Self {
        Self::default()
    }
}

struct SeqNode<const K: usize, const C: usize> {
    keys: [[u64; K]; C],
    /// Children 0..C; the (C+1)-th lives in `last_child`.
    children: [u32; C],
    last_child: u32,
    parent: u32,
    position: u16,
    num: u16,
    inner: bool,
}

impl<const K: usize, const C: usize> SeqNode<K, C> {
    fn new(inner: bool) -> Self {
        Self {
            keys: [[0; K]; C],
            children: [NONE; C],
            last_child: NONE,
            parent: NONE,
            position: 0,
            num: 0,
            inner,
        }
    }

    /// Removes the key in slot `i` by shifting the suffix left.
    fn remove_at(&mut self, i: usize) {
        let n = self.num as usize;
        debug_assert!(i < n);
        for p in i..n - 1 {
            self.keys[p] = self.keys[p + 1];
        }
        self.num = (n - 1) as u16;
    }

    #[inline]
    fn child(&self, i: usize) -> u32 {
        if i < C {
            self.children[i]
        } else {
            self.last_child
        }
    }

    #[inline]
    fn set_child(&mut self, i: usize, c: u32) {
        if i < C {
            self.children[i] = c;
        } else {
            self.last_child = c;
        }
    }

    /// Search: `(first index with key >= t, exact match?)`.
    #[inline]
    fn search(&self, t: &Tuple<K>) -> (usize, bool) {
        let (mut lo, mut hi) = (0usize, self.num as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp3(&self.keys[mid], t) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return (mid, true),
                Ordering::Greater => hi = mid,
            }
        }
        (lo, false)
    }

    /// First index with key strictly greater than `t`.
    #[inline]
    fn search_upper(&self, t: &Tuple<K>) -> usize {
        let (mut lo, mut hi) = (0usize, self.num as usize);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cmp3(&self.keys[mid], t) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// A sequential ordered set of `K`-ary tuples with the same geometry and
/// hint mechanism as the concurrent [`BTreeSet`](crate::BTreeSet).
///
/// ```
/// use specbtree::seq::{SeqBTreeSet, SeqHints};
///
/// let mut set: SeqBTreeSet<2> = SeqBTreeSet::new();
/// let mut hints = SeqHints::new();
/// for i in 0..100 {
///     set.insert_hinted([0, i * 2], &mut hints);
/// }
/// // Inserts inside already-covered ranges reuse the cached leaf:
/// for i in 0..99 {
///     set.insert_hinted([0, i * 2 + 1], &mut hints);
/// }
/// assert_eq!(set.len(), 199);
/// assert!(hints.stats.hits > 50);
/// ```
pub struct SeqBTreeSet<const K: usize, const C: usize = { crate::DEFAULT_NODE_CAPACITY }> {
    nodes: Vec<SeqNode<K, C>>,
    root: u32,
    len: usize,
}

impl<const K: usize, const C: usize> Default for SeqBTreeSet<K, C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const K: usize, const C: usize> SeqBTreeSet<K, C> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            root: NONE,
            len: 0,
        }
    }

    /// Number of stored tuples (O(1): the sequential tree can afford an
    /// eager counter — there is no contention to protect it from).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tuples are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, inner: bool) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(SeqNode::new(inner));
        id
    }

    /// Inserts `t`, returning `true` if it was not yet present.
    pub fn insert(&mut self, t: Tuple<K>) -> bool {
        if self.root == NONE {
            let root = self.alloc(false);
            self.root = root;
        }
        'restart: loop {
            let mut cur = self.root;
            loop {
                let node = &self.nodes[cur as usize];
                let (idx, found) = node.search(&t);
                if found {
                    return false;
                }
                if node.inner {
                    cur = node.child(idx);
                    continue;
                }
                if node.num as usize == C {
                    self.split(cur);
                    continue 'restart;
                }
                self.leaf_insert_at(cur, idx, &t);
                return true;
            }
        }
    }

    /// Inserts `t` with operation hints: when the cached leaf covers `t`,
    /// the descent is skipped; if that leaf is full it is split bottom-up,
    /// exactly like the concurrent structure.
    pub fn insert_hinted(&mut self, t: Tuple<K>, hints: &mut SeqHints) -> bool {
        if hints.insert_leaf != NONE {
            let leaf = hints.insert_leaf;
            if self.leaf_covers(leaf, &t) {
                hints.stats.hits += 1;
                loop {
                    let node = &self.nodes[leaf as usize];
                    let (idx, found) = node.search(&t);
                    if found {
                        return false;
                    }
                    if node.num as usize == C {
                        // Covered implies a mid-leaf insert, never the
                        // append signature, so split directly — mirroring
                        // the concurrent hinted path.
                        self.split(leaf);
                        // The leaf kept a lower slice; re-check coverage.
                        if !self.leaf_covers(leaf, &t) {
                            break;
                        }
                        continue;
                    }
                    self.leaf_insert_at(leaf, idx, &t);
                    return true;
                }
            } else {
                hints.stats.misses += 1;
            }
        } else {
            hints.stats.misses += 1;
        }
        let inserted = self.insert(t);
        // Cache the leaf now holding (or denying) `t`.
        if let Some((node, _)) = self.locate_leafward(&t) {
            if !self.nodes[node as usize].inner {
                hints.insert_leaf = node;
            }
        }
        inserted
    }

    /// Removes `t`, returning `true` if it was present — the sequential
    /// twin of [`BTreeSet::remove`](crate::BTreeSet::remove), making the
    /// identical structural decisions (single-threaded, every bounded
    /// try-lock of the concurrent protocol succeeds), so interleaved
    /// insert/remove sequences keep the twins in shape parity.
    pub fn remove(&mut self, t: &Tuple<K>) -> bool {
        if self.root == NONE {
            return false;
        }
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur as usize];
            let (idx, found) = node.search(t);
            if found {
                if node.inner {
                    self.remove_inner_key(cur, idx);
                } else {
                    self.nodes[cur as usize].remove_at(idx);
                    if self.nodes[cur as usize].num == 0 {
                        self.try_unlink_empty_leaf(cur);
                    }
                }
                self.len -= 1;
                return true;
            }
            if !node.inner {
                return false;
            }
            cur = node.child(idx);
        }
    }

    /// Twin of the concurrent `remove_inner_key`: swap in the in-order
    /// predecessor from the rightmost spine of the left subtree (the
    /// deepest spine node still holding keys donates its maximum), or drop
    /// the key together with an entirely drained left subtree.
    fn remove_inner_key(&mut self, n: u32, idx: usize) {
        let mut spine: Vec<u32> = Vec::new();
        let mut cur = self.nodes[n as usize].child(idx);
        loop {
            let cn = &self.nodes[cur as usize];
            spine.push(cur);
            if !cn.inner {
                break;
            }
            cur = cn.child(cn.num as usize);
        }
        let holder = spine.iter().rposition(|&s| self.nodes[s as usize].num > 0);
        match holder {
            Some(h) => {
                let hid = spine[h] as usize;
                let hnum = self.nodes[hid].num as usize;
                let pred;
                if self.nodes[hid].inner {
                    // The donated key's right subtree is the drained chain
                    // below; dropping the key orphans it (its nodes are
                    // simply left unreferenced, like the graveyard).
                    pred = self.nodes[hid].keys[hnum - 1];
                    self.nodes[hid].num = (hnum - 1) as u16;
                } else {
                    pred = self.nodes[hid].keys[hnum - 1];
                    self.nodes[hid].remove_at(hnum - 1);
                }
                self.nodes[n as usize].keys[idx] = pred;
            }
            None => {
                // Entirely empty left subtree: drop key and subtree.
                let num = self.nodes[n as usize].num as usize;
                for j in idx..num - 1 {
                    self.nodes[n as usize].keys[j] = self.nodes[n as usize].keys[j + 1];
                }
                for j in idx..num {
                    let ch = self.nodes[n as usize].child(j + 1);
                    self.nodes[n as usize].set_child(j, ch);
                    self.nodes[ch as usize].position = j as u16;
                }
                self.nodes[n as usize].num = (num - 1) as u16;
            }
        }
    }

    /// Twin of the concurrent `try_unlink_empty_leaf`: same obstacles
    /// (root leaf, unary parent, full sibling) leave the empty leaf in
    /// place; otherwise the adjacent separator moves into the sibling leaf
    /// and the empty leaf is spliced out of its parent.
    fn try_unlink_empty_leaf(&mut self, leaf: u32) {
        let parent = self.nodes[leaf as usize].parent;
        if parent == NONE {
            return; // empty root leaf stays: the tree may refill
        }
        let p = parent as usize;
        let pnum = self.nodes[p].num as usize;
        let pos = self.nodes[leaf as usize].position as usize;
        debug_assert_eq!(self.nodes[p].child(pos), leaf);
        if pnum == 0 {
            return; // unary parent: nowhere to re-home the separator
        }
        let (sep_idx, sib, at_front) = if pos > 0 {
            (pos - 1, self.nodes[p].child(pos - 1), false)
        } else {
            (0, self.nodes[p].child(1), true)
        };
        let s = sib as usize;
        if self.nodes[s].inner || self.nodes[s].num as usize == C {
            return;
        }
        let sep = self.nodes[p].keys[sep_idx];
        let at = if at_front {
            0 // the separator precedes everything in the right sibling
        } else {
            self.nodes[s].num as usize // one past the left sibling's maximum
        };
        self.leaf_insert_at(sib, at, &sep);
        self.len -= 1; // the separator moved, it was not added
        let drop_child = if at_front { 0 } else { pos };
        for j in sep_idx..pnum - 1 {
            self.nodes[p].keys[j] = self.nodes[p].keys[j + 1];
        }
        for j in drop_child..pnum {
            let ch = self.nodes[p].child(j + 1);
            self.nodes[p].set_child(j, ch);
            self.nodes[ch as usize].position = j as u16;
        }
        self.nodes[p].num = (pnum - 1) as u16;
    }

    fn leaf_covers(&self, leaf: u32, t: &Tuple<K>) -> bool {
        let node = &self.nodes[leaf as usize];
        if node.inner || node.num == 0 {
            return false;
        }
        cmp3(&node.keys[0], t) != Ordering::Greater
            && cmp3(t, &node.keys[node.num as usize - 1]) != Ordering::Greater
    }

    fn leaf_insert_at(&mut self, leaf: u32, idx: usize, t: &Tuple<K>) {
        let node = &mut self.nodes[leaf as usize];
        let n = node.num as usize;
        debug_assert!(n < C);
        for j in (idx..n).rev() {
            node.keys[j + 1] = node.keys[j];
        }
        node.keys[idx] = *t;
        node.num = (n + 1) as u16;
        self.len += 1;
    }

    /// Splits the full node `x`, making room in its parent chain first.
    fn split(&mut self, x: u32) {
        debug_assert_eq!(self.nodes[x as usize].num as usize, C);
        let parent = self.nodes[x as usize].parent;
        if parent != NONE && self.nodes[parent as usize].num as usize == C {
            self.split(parent);
        }
        // `x` may have been re-homed by the parent split.
        let parent = self.nodes[x as usize].parent;

        let m = C / 2;
        let median = self.nodes[x as usize].keys[m];
        let is_inner = self.nodes[x as usize].inner;
        let sib = self.alloc(is_inner);

        // Move upper keys (and children) across.
        for (j, i) in (m + 1..C).enumerate() {
            self.nodes[sib as usize].keys[j] = self.nodes[x as usize].keys[i];
        }
        self.nodes[sib as usize].num = (C - m - 1) as u16;
        if is_inner {
            for (j, i) in (m + 1..=C).enumerate() {
                let ch = self.nodes[x as usize].child(i);
                self.nodes[sib as usize].set_child(j, ch);
                self.nodes[ch as usize].parent = sib;
                self.nodes[ch as usize].position = j as u16;
            }
        }
        self.nodes[x as usize].num = m as u16;

        if parent == NONE {
            let new_root = self.alloc(true);
            let r = &mut self.nodes[new_root as usize];
            r.keys[0] = median;
            r.num = 1;
            r.set_child(0, x);
            r.set_child(1, sib);
            self.nodes[x as usize].parent = new_root;
            self.nodes[x as usize].position = 0;
            self.nodes[sib as usize].parent = new_root;
            self.nodes[sib as usize].position = 1;
            self.root = new_root;
        } else {
            let pnum = self.nodes[parent as usize].num as usize;
            debug_assert!(pnum < C);
            let pos = self.nodes[x as usize].position as usize;
            debug_assert_eq!(self.nodes[parent as usize].child(pos), x);
            for j in (pos..pnum).rev() {
                self.nodes[parent as usize].keys[j + 1] = self.nodes[parent as usize].keys[j];
            }
            for j in ((pos + 1)..=pnum).rev() {
                let ch = self.nodes[parent as usize].child(j);
                self.nodes[parent as usize].set_child(j + 1, ch);
                self.nodes[ch as usize].position = (j + 1) as u16;
            }
            let p = &mut self.nodes[parent as usize];
            p.keys[pos] = median;
            p.set_child(pos + 1, sib);
            p.num = (pnum + 1) as u16;
            self.nodes[sib as usize].parent = parent;
            self.nodes[sib as usize].position = (pos + 1) as u16;
        }
    }

    /// Descends towards `t`; returns the node/index where it was found, or
    /// the leaf the search ended in (with `found == false` encoded as None
    /// for the exact position).
    fn locate_leafward(&self, t: &Tuple<K>) -> Option<(u32, Option<usize>)> {
        if self.root == NONE {
            return None;
        }
        let mut cur = self.root;
        loop {
            let node = &self.nodes[cur as usize];
            let (idx, found) = node.search(t);
            if found {
                return Some((cur, Some(idx)));
            }
            if !node.inner {
                return Some((cur, None));
            }
            cur = node.child(idx);
        }
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple<K>) -> bool {
        matches!(self.locate_leafward(t), Some((_, Some(_))))
    }

    /// Membership test with operation hints.
    pub fn contains_hinted(&self, t: &Tuple<K>, hints: &mut SeqHints) -> bool {
        if hints.contains_leaf != NONE && self.leaf_covers(hints.contains_leaf, t) {
            hints.stats.hits += 1;
            return self.nodes[hints.contains_leaf as usize].search(t).1;
        }
        hints.stats.misses += 1;
        match self.locate_leafward(t) {
            Some((node, pos)) => {
                if !self.nodes[node as usize].inner {
                    hints.contains_leaf = node;
                }
                pos.is_some()
            }
            None => false,
        }
    }

    fn bound_pos(&self, t: &Tuple<K>, strict: bool) -> Option<(u32, usize)> {
        if self.root == NONE {
            return None;
        }
        let mut cur = self.root;
        let mut candidate: Option<(u32, usize)> = None;
        loop {
            let node = &self.nodes[cur as usize];
            let idx = if strict {
                node.search_upper(t)
            } else {
                let (idx, found) = node.search(t);
                if found {
                    return Some((cur, idx));
                }
                idx
            };
            if !node.inner {
                return if idx < node.num as usize {
                    Some((cur, idx))
                } else {
                    candidate
                };
            }
            if idx < node.num as usize {
                candidate = Some((cur, idx));
            }
            cur = node.child(idx);
        }
    }

    /// Cursor at the first tuple `>= t`.
    pub fn lower_bound(&self, t: &Tuple<K>) -> SeqIter<'_, K, C> {
        match self.bound_pos(t, false) {
            Some((node, pos)) => SeqIter {
                set: self,
                node,
                pos,
            },
            None => SeqIter {
                set: self,
                node: NONE,
                pos: 0,
            },
        }
    }

    /// Cursor at the first tuple `> t`.
    pub fn upper_bound(&self, t: &Tuple<K>) -> SeqIter<'_, K, C> {
        match self.bound_pos(t, true) {
            Some((node, pos)) => SeqIter {
                set: self,
                node,
                pos,
            },
            None => SeqIter {
                set: self,
                node: NONE,
                pos: 0,
            },
        }
    }

    /// Hinted lower-bound query.
    pub fn lower_bound_hinted(&self, t: &Tuple<K>, hints: &mut SeqHints) -> SeqIter<'_, K, C> {
        if hints.lower_leaf != NONE && self.leaf_covers(hints.lower_leaf, t) {
            hints.stats.hits += 1;
            let node = &self.nodes[hints.lower_leaf as usize];
            let (idx, _) = node.search(t);
            return SeqIter {
                set: self,
                node: hints.lower_leaf,
                pos: idx,
            };
        }
        hints.stats.misses += 1;
        let it = self.lower_bound(t);
        if it.node != NONE && !self.nodes[it.node as usize].inner {
            hints.lower_leaf = it.node;
        }
        it
    }

    /// Hinted upper-bound query. The hint applies only when a strictly
    /// greater element exists within the cached leaf.
    pub fn upper_bound_hinted(&self, t: &Tuple<K>, hints: &mut SeqHints) -> SeqIter<'_, K, C> {
        if hints.upper_leaf != NONE {
            let leaf = hints.upper_leaf;
            let node = &self.nodes[leaf as usize];
            if !node.inner
                && node.num > 0
                && cmp3(&node.keys[0], t) != Ordering::Greater
                && cmp3(t, &node.keys[node.num as usize - 1]) == Ordering::Less
            {
                hints.stats.hits += 1;
                let idx = node.search_upper(t);
                return SeqIter {
                    set: self,
                    node: leaf,
                    pos: idx,
                };
            }
        }
        hints.stats.misses += 1;
        let it = self.upper_bound(t);
        if it.node != NONE && !self.nodes[it.node as usize].inner {
            hints.upper_leaf = it.node;
        }
        it
    }

    /// In-order iterator over all tuples.
    pub fn iter(&self) -> SeqIter<'_, K, C> {
        if self.root == NONE || self.len == 0 {
            return SeqIter {
                set: self,
                node: NONE,
                pos: 0,
            };
        }
        let mut cur = self.root;
        while self.nodes[cur as usize].inner {
            cur = self.nodes[cur as usize].child(0);
        }
        // The leftmost leaf may be empty after removals; `next()`'s climb
        // loop handles that.
        SeqIter {
            set: self,
            node: cur,
            pos: 0,
        }
    }

    /// All tuples in `[lower, upper)`.
    pub fn range<'a>(
        &'a self,
        lower: &Tuple<K>,
        upper: &Tuple<K>,
    ) -> impl Iterator<Item = Tuple<K>> + 'a {
        let upper = *upper;
        self.lower_bound(lower)
            .take_while(move |t| cmp3(t, &upper) == Ordering::Less)
    }

    /// All tuples whose leading words equal `prefix`.
    ///
    /// # Panics
    /// If `prefix.len() > K`.
    pub fn prefix_range<'a>(&'a self, prefix: &[u64]) -> impl Iterator<Item = Tuple<K>> + 'a {
        assert!(prefix.len() <= K, "prefix longer than tuple arity");
        let mut lower = [0u64; K];
        lower[..prefix.len()].copy_from_slice(prefix);
        let plen = prefix.len();
        self.lower_bound(&lower)
            .take_while(move |t| t[..plen] == lower[..plen])
    }

    /// Verifies the structural invariants of the tree — the sequential twin
    /// of [`BTreeSet::check_invariants`](crate::BTreeSet::check_invariants),
    /// checking the same properties (there are no locks to check here):
    ///
    /// 1. keys within each node are strictly ascending,
    /// 2. every key lies within the separator interval inherited from its
    ///    ancestors,
    /// 3. inner nodes have exactly `num + 1` valid children,
    /// 4. every child's `parent`/`position` back-links are exact,
    /// 5. all leaves sit at the same depth,
    /// 6. the eager `len` counter matches the number of stored keys.
    ///
    /// Returns the tree shape on success.
    pub fn check_invariants(&self) -> Result<TreeShape, InvariantViolation> {
        let mut shape = TreeShape::default();
        if self.root == NONE {
            if self.len != 0 {
                return Err(InvariantViolation(format!(
                    "empty tree reports len {}",
                    self.len
                )));
            }
            return Ok(shape);
        }
        if self.nodes[self.root as usize].parent != NONE {
            return Err(InvariantViolation("root has a parent link".into()));
        }
        let mut leaf_depth = None;
        self.check_node(self.root, None, None, 1, &mut leaf_depth, &mut shape)?;
        shape.depth = leaf_depth.unwrap_or(0);
        if shape.keys != self.len {
            return Err(InvariantViolation(format!(
                "len counter {} disagrees with stored keys {}",
                self.len, shape.keys
            )));
        }
        Ok(shape)
    }

    /// The tree's aggregate shape (see [`TreeShape`]); panics on a corrupt
    /// tree.
    pub fn shape(&self) -> TreeShape {
        self.check_invariants()
            .expect("structural invariant violated")
    }

    fn check_node(
        &self,
        id: u32,
        lower: Option<Tuple<K>>,
        upper: Option<Tuple<K>>,
        depth: usize,
        leaf_depth: &mut Option<usize>,
        shape: &mut TreeShape,
    ) -> Result<(), InvariantViolation> {
        let node = &self.nodes[id as usize];
        let n = node.num as usize;
        if n > C {
            return Err(InvariantViolation(format!(
                "node {id} claims {n} keys, capacity is {C}"
            )));
        }
        shape.nodes += 1;
        shape.keys += n;
        for i in 0..n {
            let k = &node.keys[i];
            if i > 0 && cmp3(&node.keys[i - 1], k) != Ordering::Less {
                return Err(InvariantViolation(format!(
                    "node {id}: keys not strictly ascending at {i}"
                )));
            }
            if let Some(lo) = &lower {
                if cmp3(k, lo) != Ordering::Greater {
                    return Err(InvariantViolation(format!(
                        "node {id}: key {i} below its separator interval"
                    )));
                }
            }
            if let Some(hi) = &upper {
                if cmp3(k, hi) != Ordering::Less {
                    return Err(InvariantViolation(format!(
                        "node {id}: key {i} above its separator interval"
                    )));
                }
            }
        }
        if !node.inner {
            shape.leaves += 1;
            match *leaf_depth {
                None => *leaf_depth = Some(depth),
                Some(d) if d != depth => {
                    return Err(InvariantViolation(format!(
                        "leaf {id} at depth {depth}, expected {d}"
                    )));
                }
                Some(_) => {}
            }
            return Ok(());
        }
        for i in 0..=n {
            let ch = node.child(i);
            if ch == NONE || ch as usize >= self.nodes.len() {
                return Err(InvariantViolation(format!(
                    "inner node {id}: child {i} missing or out of range"
                )));
            }
            let chn = &self.nodes[ch as usize];
            if chn.parent != id || chn.position as usize != i {
                return Err(InvariantViolation(format!(
                    "child {ch} of node {id} has stale parent/position links"
                )));
            }
            let lo = if i == 0 {
                lower
            } else {
                Some(node.keys[i - 1])
            };
            let hi = if i == n { upper } else { Some(node.keys[i]) };
            self.check_node(ch, lo, hi, depth + 1, leaf_depth, shape)?;
        }
        Ok(())
    }
}

impl<const K: usize, const C: usize> Extend<Tuple<K>> for SeqBTreeSet<K, C> {
    fn extend<I: IntoIterator<Item = Tuple<K>>>(&mut self, iter: I) {
        let mut hints = SeqHints::new();
        for t in iter {
            self.insert_hinted(t, &mut hints);
        }
    }
}

impl<const K: usize, const C: usize> FromIterator<Tuple<K>> for SeqBTreeSet<K, C> {
    fn from_iter<I: IntoIterator<Item = Tuple<K>>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// In-order cursor over a [`SeqBTreeSet`].
pub struct SeqIter<'a, const K: usize, const C: usize> {
    set: &'a SeqBTreeSet<K, C>,
    node: u32,
    pos: usize,
}

impl<'a, const K: usize, const C: usize> SeqIter<'a, K, C> {
    /// Climbs until the cursor comes up from a non-last child (the
    /// in-order-successor step), or exhausts it at the root.
    fn climb(&mut self) {
        let mut cur = self.node;
        loop {
            let cn = &self.set.nodes[cur as usize];
            if cn.parent == NONE {
                self.node = NONE;
                return;
            }
            let p = cn.parent;
            let i = cn.position as usize;
            if i < self.set.nodes[p as usize].num as usize {
                self.node = p;
                self.pos = i;
                return;
            }
            cur = p;
        }
    }
}

impl<'a, const K: usize, const C: usize> Iterator for SeqIter<'a, K, C> {
    type Item = Tuple<K>;

    fn next(&mut self) -> Option<Tuple<K>> {
        // Empty leaves and unary inners are legal after removals: climb
        // past keyless nodes instead of treating them as exhaustion.
        loop {
            if self.node == NONE {
                return None;
            }
            if self.pos < self.set.nodes[self.node as usize].num as usize {
                break;
            }
            self.climb();
        }
        let node = &self.set.nodes[self.node as usize];
        let item = node.keys[self.pos];
        if node.inner {
            // Descend to the leftmost leaf of the right subtree.
            let mut cur = node.child(self.pos + 1);
            while self.set.nodes[cur as usize].inner {
                cur = self.set.nodes[cur as usize].child(0);
            }
            self.node = cur;
            self.pos = 0;
        } else {
            self.pos += 1;
            if self.pos >= node.num as usize {
                // Climb until coming up from a non-last child.
                self.climb();
            }
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Set = SeqBTreeSet<2, 8>;

    #[test]
    fn empty_set() {
        let s = Set::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(&[0, 0]));
        assert_eq!(s.shape(), crate::TreeShape::default());
    }

    #[test]
    fn insert_dedup_and_order() {
        let mut s = Set::new();
        assert!(s.insert([3, 3]));
        assert!(s.insert([1, 1]));
        assert!(s.insert([2, 2]));
        assert!(!s.insert([1, 1]));
        assert_eq!(s.len(), 3);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![[1, 1], [2, 2], [3, 3]]);
        s.check_invariants().unwrap();
    }

    #[test]
    fn large_ordered_insert_roundtrip() {
        let mut s = Set::new();
        for i in 0..2000u64 {
            assert!(s.insert([i / 50, i % 50]));
        }
        assert_eq!(s.len(), 2000);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v.len(), 2000);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        for i in 0..2000u64 {
            assert!(s.contains(&[i / 50, i % 50]));
        }
        assert!(!s.contains(&[999, 999]));
        let shape = s.check_invariants().unwrap();
        assert_eq!(shape.keys, 2000);
        assert!(shape.depth >= 3, "2000 keys at capacity 8 must be deep");
    }

    #[test]
    fn large_random_insert_matches_std_btreeset() {
        use std::collections::BTreeSet as Std;
        let mut s = Set::new();
        let mut model = Std::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..3000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = [(x >> 33) % 100, (x >> 13) % 100];
            assert_eq!(s.insert(t), model.insert(t), "{t:?}");
        }
        assert_eq!(s.len(), model.len());
        let ours: Vec<_> = s.iter().collect();
        let theirs: Vec<_> = model.into_iter().collect();
        assert_eq!(ours, theirs);
        s.check_invariants().unwrap();
    }

    #[test]
    fn shape_statistics_are_consistent() {
        let mut s = Set::new();
        for i in 0..500u64 {
            s.insert([i, i]);
        }
        let shape = s.check_invariants().unwrap();
        assert_eq!(shape.keys, 500);
        assert!(shape.leaves <= shape.nodes);
        assert!(
            shape.fill_grade(8) > 0.4,
            "median splits fill at least half"
        );
        // Parity with the concurrent tree: same geometry, same invariants,
        // same shape accounting.
        let conc: crate::BTreeSet<2, 8> = (0..500u64).map(|i| [i, i]).collect();
        let cshape = conc.check_invariants().unwrap();
        assert_eq!(shape.keys, cshape.keys);
        assert_eq!(shape.depth, cshape.depth);
        assert_eq!(shape.nodes, cshape.nodes);
    }

    #[test]
    fn strictly_ascending_inserts_miss_hints() {
        // Paper-faithful coverage semantics: a strictly ascending stream is
        // always above the cached leaf's range, so insertion hints never
        // hit (this is why Fig. 3a reports hints not amortizing their cost
        // on ordered insertion).
        let mut s = Set::new();
        let mut h = SeqHints::new();
        for i in 0..1000u64 {
            s.insert_hinted([0, i], &mut h);
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(h.stats.hits, 0);
    }

    #[test]
    fn hinted_insert_hits_on_clustered_load() {
        // The paper's motivating pattern (§3.2): (7, 10) then (7, 4) —
        // later inserts fall inside ranges already covered by a leaf.
        let mut s = Set::new();
        let mut h = SeqHints::new();
        for i in 0..500u64 {
            s.insert_hinted([0, i * 2], &mut h); // evens, ascending: misses
        }
        let misses_before = h.stats.misses;
        for i in 0..499u64 {
            s.insert_hinted([0, i * 2 + 1], &mut h); // odds: inside covered ranges
        }
        assert_eq!(s.len(), 999);
        let hit_rate = h.stats.hits as f64 / (h.stats.hits + h.stats.misses - misses_before) as f64;
        assert!(hit_rate > 0.5, "clustered insert hit rate = {hit_rate}");
    }

    #[test]
    fn hinted_contains_correct_and_hits() {
        let mut s = Set::new();
        for i in 0..500u64 {
            s.insert([i, 0]);
        }
        let mut h = SeqHints::new();
        for i in 0..500u64 {
            assert!(s.contains_hinted(&[i, 0], &mut h));
            assert!(!s.contains_hinted(&[i, 1], &mut h));
        }
        assert!(h.stats.hit_rate() > 0.6, "rate = {}", h.stats.hit_rate());
    }

    #[test]
    fn bounds_match_std() {
        use std::collections::BTreeSet as Std;
        let items: Vec<[u64; 2]> = (0..300).map(|i| [i % 17, i % 13]).collect();
        let s: Set = items.iter().copied().collect();
        let model: Std<[u64; 2]> = items.into_iter().collect();
        for probe in 0..20u64 {
            for second in [0u64, 5, 12, 99] {
                let t = [probe, second];
                let lb = s.lower_bound(&t).next();
                let expect_lb = model.range(t..).next().copied();
                assert_eq!(lb, expect_lb, "lower_bound({t:?})");
                let ub = s.upper_bound(&t).next();
                let expect_ub = model
                    .range((std::ops::Bound::Excluded(t), std::ops::Bound::Unbounded))
                    .next()
                    .copied();
                assert_eq!(ub, expect_ub, "upper_bound({t:?})");
            }
        }
    }

    #[test]
    fn hinted_bounds_match_unhinted() {
        let mut s = Set::new();
        for i in 0..400u64 {
            s.insert([i / 20, i % 20]);
        }
        let mut h = SeqHints::new();
        for i in 0..400u64 {
            let t = [i / 20, i % 20];
            let a: Vec<_> = s.lower_bound(&t).take(3).collect();
            let b: Vec<_> = s.lower_bound_hinted(&t, &mut h).take(3).collect();
            assert_eq!(a, b, "lower {t:?}");
            let a: Vec<_> = s.upper_bound(&t).take(3).collect();
            let b: Vec<_> = s.upper_bound_hinted(&t, &mut h).take(3).collect();
            assert_eq!(a, b, "upper {t:?}");
        }
        assert!(h.stats.hits > 0);
    }

    #[test]
    fn prefix_range_scans_only_prefix() {
        let mut s = Set::new();
        for a in 0..5u64 {
            for b in 0..10u64 {
                s.insert([a, b]);
            }
        }
        let got: Vec<_> = s.prefix_range(&[3]).collect();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|t| t[0] == 3));
    }

    #[test]
    fn range_is_half_open() {
        let s: Set = (0..10u64).map(|i| [i, 0]).collect();
        let got: Vec<_> = s.range(&[2, 0], &[5, 0]).collect();
        assert_eq!(got, vec![[2, 0], [3, 0], [4, 0]]);
    }
}
