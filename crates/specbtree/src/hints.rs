//! Operation hints (paper §3.2).
//!
//! Datalog evaluation touches relations in lexicographic order, so
//! consecutive operations almost always land in the same leaf. A
//! [`BTreeHints`] object caches, per operation kind, the leaf most recently
//! accessed; the next operation first checks whether that leaf *covers* the
//! requested tuple and, if so, skips the root-to-leaf traversal (and all its
//! lock interactions) entirely.
//!
//! A leaf covers a tuple `t` when `first <= t <= last`: every key of the
//! tree in that closed interval lives in this leaf, so a lookup, a bound or
//! an insert of `t` is decided there. For inserts the rule is wider, and
//! here the tree goes beyond the paper (whose Fig. 3a shows ordered inserts
//! gaining nothing from hints): the leaf also covers `last < t < fence`,
//! the *upper fence* being the separator that follows the leaf in the lowest
//! ancestor whose last child the path to it does not go through — the
//! smallest key of the tree above the leaf's own; a leaf on the rightmost
//! spine has none. An ascending stream always lands one past the cached
//! leaf's last key, so without this it would descend from the root on every
//! insert. Reading the fence takes no lock: each level is read under that
//! ancestor's own lease and validated, before the lease on the leaf, taken
//! first, is upgraded. That is safe because a leaf's fence changes only
//! through operations that write-lock the leaf (its own split, a
//! predecessor pulled out of it), which fail the upgrade, while an
//! ancestor re-read after a split moved the leaf away can only show a
//! *smaller* fence: a miss, never a wrong hit
//! ([`BTreeSet::insert_hinted`](crate::BTreeSet::insert_hinted)). A
//! separator removed together with the drained subtree to its left moves
//! only the *lower* fence of the subtree to its right, and the leaves that
//! leave with it are write-locked and released with a new version, so an
//! insert that leased one before fails its upgrade instead of writing
//! into the graveyard.
//!
//! Hints are held in thread-local fashion by convention: each worker thread
//! obtains one from [`BTreeSet::create_hints`] and threads it through its
//! operations, exactly as the paper describes. Because tree nodes are never
//! freed or moved while the tree is alive (a drained leaf spliced out by
//! `remove` waits in the graveyard, where a stale hint simply stops covering
//! anything), a
//! cached leaf pointer can never dangle; to make the API safe across tree
//! lifetimes and `clear` as well, each hint is **branded** with the unique
//! id of the tree it was created for, and a tree only dereferences hints
//! carrying its own brand.
//!
//! Hit/miss statistics are recorded for every hinted operation — the paper
//! reports these rates (54% for the Doop analysis, 77% for the security
//! analysis, §4.3) and the `table2` harness reproduces them.
//!
//! [`BTreeSet::create_hints`]: crate::BTreeSet::create_hints

use crate::node::{LeafNode, NodePtr};
use optlock::OptimisticRwLock;

/// Hit/miss counters per hinted operation kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HintStats {
    /// Hinted inserts that reused the cached leaf.
    pub insert_hits: u64,
    /// Hinted inserts that fell back to a full traversal.
    pub insert_misses: u64,
    /// Hinted membership tests that reused the cached leaf.
    pub contains_hits: u64,
    /// Hinted membership tests that fell back to a full traversal.
    pub contains_misses: u64,
    /// Hinted lower-bound queries that reused the cached leaf.
    pub lower_hits: u64,
    /// Hinted lower-bound queries that fell back to a full traversal.
    pub lower_misses: u64,
    /// Hinted upper-bound queries that reused the cached leaf.
    pub upper_hits: u64,
    /// Hinted upper-bound queries that fell back to a full traversal.
    pub upper_misses: u64,
}

impl HintStats {
    /// Total hits across all operation kinds.
    pub fn hits(&self) -> u64 {
        self.insert_hits + self.contains_hits + self.lower_hits + self.upper_hits
    }

    /// Total misses across all operation kinds.
    pub fn misses(&self) -> u64 {
        self.insert_misses + self.contains_misses + self.lower_misses + self.upper_misses
    }

    /// Overall hit rate in `[0, 1]`; `0` when no hinted operation ran.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Serializes the counters (plus the derived hit rate) as one JSON
    /// object, dependency-free like all JSON in this workspace.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"insert_hits\": {}, \"insert_misses\": {}, ",
                "\"contains_hits\": {}, \"contains_misses\": {}, ",
                "\"lower_hits\": {}, \"lower_misses\": {}, ",
                "\"upper_hits\": {}, \"upper_misses\": {}, ",
                "\"hit_rate\": {:.6}}}"
            ),
            self.insert_hits,
            self.insert_misses,
            self.contains_hits,
            self.contains_misses,
            self.lower_hits,
            self.lower_misses,
            self.upper_hits,
            self.upper_misses,
            self.hit_rate()
        )
    }

    /// Accumulates another thread's statistics into this one.
    pub fn merge(&mut self, other: &HintStats) {
        self.insert_hits += other.insert_hits;
        self.insert_misses += other.insert_misses;
        self.contains_hits += other.contains_hits;
        self.contains_misses += other.contains_misses;
        self.lower_hits += other.lower_hits;
        self.lower_misses += other.lower_misses;
        self.upper_hits += other.upper_hits;
        self.upper_misses += other.upper_misses;
    }
}

/// The operation kinds that keep a hinted leaf each.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum HintKind {
    Insert,
    Contains,
    Lower,
    Upper,
}

/// Per-thread operation hints for one [`BTreeSet`](crate::BTreeSet).
///
/// Obtained from [`BTreeSet::create_hints`](crate::BTreeSet::create_hints);
/// pass `&mut` to the `_hinted` operation variants. Using hints created for
/// a different tree is safe: the brand check simply treats every access as
/// a miss and rebinds the hints to the new tree.
pub struct BTreeHints<
    const K: usize,
    const C: usize = { crate::DEFAULT_NODE_CAPACITY },
    L = OptimisticRwLock,
> {
    tree_id: u64,
    /// The leaf most recently accessed, per [`HintKind`]: raw, because the
    /// hints outlive any one borrow of the tree. The tree turns one back
    /// into a borrow only behind the brand check (`BTreeSet::hinted`).
    leaves: [NodePtr<K, C, L>; 4],
    /// Hit/miss statistics for this hint object (i.e. this thread).
    pub stats: HintStats,
}

// SAFETY: the raw pointers are only dereferenced by the tree after the
// brand check proves they belong to the (alive, borrowed) tree; moving the
// hint object to another thread is fine because every hinted access is
// re-validated through the optimistic lock protocol.
unsafe impl<const K: usize, const C: usize, L> Send for BTreeHints<K, C, L> {}

impl<const K: usize, const C: usize, L> BTreeHints<K, C, L> {
    pub(crate) fn new(tree_id: u64) -> Self {
        Self {
            tree_id,
            leaves: [std::ptr::null_mut(); 4],
            stats: HintStats::default(),
        }
    }

    #[inline]
    pub(crate) fn tree_id(&self) -> u64 {
        self.tree_id
    }

    /// Re-brands the hints for a different tree, clearing all cached leaves
    /// (the statistics are kept — they belong to the thread, not the tree).
    pub(crate) fn rebind(&mut self, tree_id: u64) {
        self.tree_id = tree_id;
        self.leaves = [std::ptr::null_mut(); 4];
    }

    /// The leaf cached for operations of `kind` (null if none).
    #[inline]
    pub(crate) fn leaf(&self, kind: HintKind) -> NodePtr<K, C, L> {
        self.leaves[kind as usize]
    }

    /// Records the outcome of a hinted operation of `kind` that ended in
    /// `node`. Only leaves are cached.
    #[inline]
    pub(crate) fn record(&mut self, kind: HintKind, hit: bool, node: Option<&LeafNode<K, C, L>>) {
        let s = &mut self.stats;
        let (hits, misses) = match kind {
            HintKind::Insert => (&mut s.insert_hits, &mut s.insert_misses),
            HintKind::Contains => (&mut s.contains_hits, &mut s.contains_misses),
            HintKind::Lower => (&mut s.lower_hits, &mut s.lower_misses),
            HintKind::Upper => (&mut s.upper_hits, &mut s.upper_misses),
        };
        *(if hit { hits } else { misses }) += 1;
        if let Some(leaf) = node.filter(|n| !n.is_inner()) {
            self.leaves[kind as usize] = leaf.ptr();
        }
    }
}

impl<const K: usize, const C: usize, L> std::fmt::Debug for BTreeHints<K, C, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeHints")
            .field("tree_id", &self.tree_id)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_hit_rate() {
        let mut s = HintStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.insert_hits = 3;
        s.insert_misses = 1;
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn stats_merge_accumulates_all_fields() {
        let mut a = HintStats {
            insert_hits: 1,
            insert_misses: 2,
            contains_hits: 3,
            contains_misses: 4,
            lower_hits: 5,
            lower_misses: 6,
            upper_hits: 7,
            upper_misses: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits(), 2 * b.hits());
        assert_eq!(a.misses(), 2 * b.misses());
    }

    #[test]
    fn stats_to_json_has_every_field() {
        let s = HintStats {
            insert_hits: 3,
            insert_misses: 1,
            ..Default::default()
        };
        let json = s.to_json();
        for field in [
            "\"insert_hits\": 3",
            "\"insert_misses\": 1",
            "\"contains_hits\": 0",
            "\"contains_misses\": 0",
            "\"lower_hits\": 0",
            "\"lower_misses\": 0",
            "\"upper_hits\": 0",
            "\"upper_misses\": 0",
            "\"hit_rate\": 0.750000",
        ] {
            assert!(json.contains(field), "{field} missing in {json}");
        }
    }

    #[test]
    fn rebind_clears_leaves_but_keeps_stats() {
        let mut h: BTreeHints<2, 8> = BTreeHints::new(7);
        h.stats.insert_hits = 5;
        h.rebind(9);
        assert_eq!(h.tree_id(), 9);
        assert!(h.leaf(HintKind::Insert).is_null());
        assert_eq!(h.stats.insert_hits, 5);
    }
}
