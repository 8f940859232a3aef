//! The paper's *"seq btree"* baseline (Table 1): the same tree without its
//! synchronisation.
//!
//! [`SeqBTreeSet`] is [`BTreeSet`] instantiated with a latch that does
//! nothing — reads always validate, write locks are always granted — so
//! every structural decision, every hint and every node byte but the
//! version word is the concurrent tree's, by construction. What the lock
//! guaranteed, the type now does: modification takes `&mut self`, and the
//! set cannot be shared between threads. Comparing the two isolates the
//! price of the optimistic locking protocol (the paper measures up to ~25%
//! on ordered insertion, §4.1).
//!
//! ```compile_fail,E0499
//! use specbtree::seq::SeqBTreeSet;
//!
//! let mut set: SeqBTreeSet<2> = SeqBTreeSet::new();
//! std::thread::scope(|s| {
//!     s.spawn(|| set.insert([1, 1]));
//!     s.spawn(|| set.insert([2, 2])); // second mutable borrow
//! });
//! ```

use crate::check::{InvariantViolation, TreeShape};
use crate::hints::BTreeHints;
use crate::iter::Iter;
use crate::latch::NoLatch;
use crate::node::Tuple;
use crate::tree::{BTreeSet, DEFAULT_NODE_CAPACITY};

/// Operation hints for a [`SeqBTreeSet`], from
/// [`SeqBTreeSet::create_hints`]: the concurrent tree's [`BTreeHints`],
/// statistics included.
pub type SeqHints<const K: usize, const C: usize = DEFAULT_NODE_CAPACITY> =
    BTreeHints<K, C, NoLatch>;

/// A single-threaded ordered set of `K`-ary tuples: the concurrent
/// [`BTreeSet`] with its lock operations compiled away.
///
/// ```
/// use specbtree::seq::SeqBTreeSet;
///
/// let mut set: SeqBTreeSet<2> = SeqBTreeSet::new();
/// let mut hints = set.create_hints();
/// for i in 0..100 {
///     set.insert_hinted([0, i * 2], &mut hints);
/// }
/// // Inserts inside already-covered ranges reuse the cached leaf:
/// for i in 0..99 {
///     set.insert_hinted([0, i * 2 + 1], &mut hints);
/// }
/// assert_eq!(set.len(), 199);
/// assert!(hints.stats.insert_hits > 50);
/// ```
pub struct SeqBTreeSet<const K: usize, const C: usize = DEFAULT_NODE_CAPACITY> {
    tree: BTreeSet<K, C, NoLatch>,
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
            tree: BTreeSet::new(),
        }
    }

    /// Creates a hint container for this set.
    pub fn create_hints(&self) -> SeqHints<K, C> {
        self.tree.create_hints()
    }

    /// Number of stored tuples. O(n), as [`BTreeSet::len`].
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Inserts `t`, returning `true` if it was not yet present.
    pub fn insert(&mut self, t: Tuple<K>) -> bool {
        self.tree.insert(t)
    }

    /// Inserts `t` with operation hints.
    pub fn insert_hinted(&mut self, t: Tuple<K>, hints: &mut SeqHints<K, C>) -> bool {
        self.tree.insert_hinted(t, hints)
    }

    /// Removes `t`, returning `true` if it was present.
    pub fn remove(&mut self, t: &Tuple<K>) -> bool {
        self.tree.remove(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple<K>) -> bool {
        self.tree.contains(t)
    }

    /// Membership test with operation hints.
    pub fn contains_hinted(&self, t: &Tuple<K>, hints: &mut SeqHints<K, C>) -> bool {
        self.tree.contains_hinted(t, hints)
    }

    /// In-order iterator over all tuples.
    pub fn iter(&self) -> Iter<'_, K, C, NoLatch> {
        self.tree.iter()
    }

    /// Cursor at the first tuple `>= t`.
    pub fn lower_bound(&self, t: &Tuple<K>) -> Iter<'_, K, C, NoLatch> {
        self.tree.lower_bound(t)
    }

    /// Cursor at the first tuple `> t`.
    pub fn upper_bound(&self, t: &Tuple<K>) -> Iter<'_, K, C, NoLatch> {
        self.tree.upper_bound(t)
    }

    /// Hinted [`lower_bound`](Self::lower_bound).
    pub fn lower_bound_hinted(
        &self,
        t: &Tuple<K>,
        hints: &mut SeqHints<K, C>,
    ) -> Iter<'_, K, C, NoLatch> {
        self.tree.lower_bound_hinted(t, hints)
    }

    /// Hinted [`upper_bound`](Self::upper_bound).
    pub fn upper_bound_hinted(
        &self,
        t: &Tuple<K>,
        hints: &mut SeqHints<K, C>,
    ) -> Iter<'_, K, C, NoLatch> {
        self.tree.upper_bound_hinted(t, hints)
    }

    /// Verifies the structural invariants
    /// ([`BTreeSet::check_invariants`]), returning the tree shape.
    pub fn check_invariants(&self) -> Result<TreeShape, InvariantViolation> {
        self.tree.check_invariants()
    }

    /// The tree's aggregate shape ([`BTreeSet::shape`]).
    pub fn shape(&self) -> TreeShape {
        self.tree.shape()
    }
}
