//! Tree-health introspection — [`BTreeSet::stats`] and [`TreeStats`].
//!
//! Removals change what "the tree" physically is: leaves go sparse and
//! whole subtrees are parked as unreachable-but-allocated structure until
//! `clear`. This module is the read-only census of that state: a single
//! traversal producing node and key counts, a per-leaf occupancy histogram
//! (log2-bucketed), burial/graveyard accounting and the bytes both hold.
//!
//! Like the invariant checker, the traversal is for quiescent phases
//! (between evaluation phases): it tolerates no concurrent structural
//! modification.

use crate::node::{InnerNode, LeafNode};
use crate::tree::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::Ordering::Relaxed;

/// Number of log2 occupancy buckets in [`TreeStats::occupancy_hist`]:
/// bucket 0 holds empty leaves, bucket `b >= 1` holds leaves with
/// `2^(b-1) <= keys < 2^b` (the last bucket absorbs everything above).
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Bytes of node storage a tree holds, as reported by
/// [`BTreeSet::arena_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Bytes of every allocated node: reachable from the root plus buried
    /// in the graveyard.
    pub bytes_used: usize,
}

/// A point-in-time structural census of one [`BTreeSet`], produced by
/// [`BTreeSet::stats`]. All counts are exact for a quiescent tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeStats {
    /// Number of levels (0 for an empty tree, 1 for a lone root leaf).
    pub depth: usize,
    /// Inner node count.
    pub inner_nodes: u64,
    /// Leaf node count.
    pub leaf_nodes: u64,
    /// Total keys stored (inner separators are real elements in this
    /// B-tree, so this equals `len()`).
    pub keys: u64,
    /// Keys stored in leaves only.
    pub leaf_keys: u64,
    /// Per-leaf key capacity (the `C` const parameter).
    pub capacity: usize,
    /// Leaves bucketed by occupied-key count, log2: bucket 0 = empty,
    /// bucket b = `[2^(b-1), 2^b)` keys, last bucket open-ended.
    pub occupancy_hist: [u64; OCCUPANCY_BUCKETS],
    /// Subtrees parked by removals since the last `clear` (the graveyard
    /// length).
    pub graveyard_len: u64,
    /// Total nodes across all buried subtrees.
    pub buried_nodes: u64,
    /// Leaves across all buried subtrees.
    pub buried_leaves: u64,
    /// Bytes of unreachable-but-allocated buried structure.
    pub abandoned_bytes: u64,
    /// Bytes of reachable node structure.
    pub live_bytes: u64,
}

impl TreeStats {
    /// Fraction of total leaf capacity holding real keys, in `[0, 1]`.
    pub fn leaf_fill(&self) -> f64 {
        if self.leaf_nodes == 0 {
            return 0.0;
        }
        self.leaf_keys as f64 / (self.leaf_nodes * self.capacity as u64) as f64
    }

    /// Renders an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| {
            let _ = writeln!(out, "  {k:<18} {v}");
        };
        row("depth", self.depth.to_string());
        row(
            "nodes",
            format!("{} inner + {} leaf", self.inner_nodes, self.leaf_nodes),
        );
        row(
            "keys",
            format!("{} ({} in leaves)", self.keys, self.leaf_keys),
        );
        row(
            "leaf fill",
            format!(
                "{:.1}% of {} slots/leaf",
                100.0 * self.leaf_fill(),
                self.capacity
            ),
        );
        row(
            "occupancy hist",
            self.occupancy_hist
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(b, n)| format!("{}:{n}", bucket_label(b)))
                .collect::<Vec<_>>()
                .join(" "),
        );
        row(
            "graveyard",
            format!(
                "{} subtrees / {} nodes ({} leaves) / {} B abandoned",
                self.graveyard_len, self.buried_nodes, self.buried_leaves, self.abandoned_bytes
            ),
        );
        row("bytes", format!("{} live", self.live_bytes));
        out
    }

    /// Renders the census as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.occupancy_hist.iter().map(u64::to_string).collect();
        format!(
            concat!(
                "{{\"depth\": {}, \"inner_nodes\": {}, \"leaf_nodes\": {}, ",
                "\"keys\": {}, \"leaf_keys\": {}, \"capacity\": {}, ",
                "\"occupancy_hist\": [{}], \"leaf_fill\": {:.4}, ",
                "\"graveyard_len\": {}, \"buried_nodes\": {}, ",
                "\"buried_leaves\": {}, \"abandoned_bytes\": {}, ",
                "\"live_bytes\": {}}}"
            ),
            self.depth,
            self.inner_nodes,
            self.leaf_nodes,
            self.keys,
            self.leaf_keys,
            self.capacity,
            hist.join(", "),
            self.leaf_fill(),
            self.graveyard_len,
            self.buried_nodes,
            self.buried_leaves,
            self.abandoned_bytes,
            self.live_bytes,
        )
    }
}

/// Log2 bucket index for an occupied-key count.
fn bucket_of(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (usize::BITS as usize - n.leading_zeros() as usize).min(OCCUPANCY_BUCKETS - 1)
    }
}

/// Human label for a bucket: the inclusive key-count range it covers.
fn bucket_label(b: usize) -> String {
    match b {
        0 => "0".into(),
        1 => "1".into(),
        b if b == OCCUPANCY_BUCKETS - 1 => format!("{}+", 1usize << (b - 1)),
        b => format!("{}-{}", 1usize << (b - 1), (1usize << b) - 1),
    }
}

impl<const K: usize, const C: usize, L> BTreeSet<K, C, L> {
    /// Takes a structural census of the tree (see [`TreeStats`]) with a
    /// single read-only traversal. Quiescent phases only — run it
    /// between evaluation phases, never against in-flight writers.
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats {
            capacity: C,
            graveyard_len: self.buried_subtrees.load(Relaxed),
            buried_nodes: self.buried_nodes.load(Relaxed),
            buried_leaves: self.buried_leaves.load(Relaxed),
            ..TreeStats::default()
        };
        let leaf_size = std::mem::size_of::<LeafNode<K, C, L>>() as u64;
        let inner_size = std::mem::size_of::<InnerNode<K, C, L>>() as u64;
        let buried_inners = s.buried_nodes - s.buried_leaves;
        s.abandoned_bytes = s.buried_leaves * leaf_size + buried_inners * inner_size;

        let Some(root) = self.root_node() else {
            return s;
        };
        let mut stack = vec![(root, 1usize)];
        while let Some((node, d)) = stack.pop() {
            let num = node.num_clamped();
            s.keys += num as u64;
            if let Some(inner) = node.inner() {
                s.inner_nodes += 1;
                stack.extend((0..=num).filter_map(|i| Some((inner.child(i)?, d + 1))));
            } else {
                s.leaf_nodes += 1;
                s.leaf_keys += num as u64;
                s.occupancy_hist[bucket_of(num)] += 1;
                s.depth = s.depth.max(d);
            }
        }
        s.live_bytes = s.leaf_nodes * leaf_size + s.inner_nodes * inner_size;
        s
    }

    /// Bytes of every node this tree has allocated and not yet freed —
    /// live plus buried — from the census's node counts. Quiescent phases
    /// only, like [`stats`](Self::stats).
    pub fn arena_stats(&self) -> ArenaStats {
        let s = self.stats();
        ArenaStats {
            bytes_used: (s.live_bytes + s.abandoned_bytes) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Tuple;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(63), 6);
        assert_eq!(bucket_of(1 << 20), OCCUPANCY_BUCKETS - 1);
        assert_eq!(bucket_label(0), "0");
        assert_eq!(bucket_label(2), "2-3");
        assert_eq!(bucket_label(OCCUPANCY_BUCKETS - 1), "64+");
    }

    #[test]
    fn empty_tree_census_is_zero() {
        let set: BTreeSet<2> = BTreeSet::new();
        let s = set.stats();
        assert_eq!(s.depth, 0);
        assert_eq!(s.keys, 0);
        assert_eq!(s.leaf_nodes, 0);
        assert_eq!(s.leaf_fill(), 0.0);
        assert!(s.to_json().contains("\"depth\": 0"));
    }

    #[test]
    fn census_agrees_with_len() {
        let set: BTreeSet<2> = (0..5_000u64).map(|i| [i * 7 % 5_000, i]).collect();
        set.check_invariants().unwrap();
        let s = set.stats();
        assert_eq!(s.keys as usize, set.len());
        // 5 000 keys in nodes of 24: a root, a level of inner nodes, leaves.
        assert_eq!(s.depth, 3);
        assert!(s.leaf_keys < s.keys && s.inner_nodes > 1);
        assert_eq!(s.occupancy_hist.iter().sum::<u64>(), s.leaf_nodes);
        assert!(s.live_bytes > 0);
        let table = s.to_table();
        assert!(table.contains("depth") && table.contains("graveyard"));
    }

    #[test]
    fn burial_accounting_tracks_removals_and_resets_on_clear() {
        let mut set: BTreeSet<1> = (0..4_096u64).map(|i| [i]).collect();
        let before = set.stats();
        assert_eq!(before.graveyard_len, 0);
        for i in 0..4_096u64 {
            set.remove(&[i]);
        }
        let after = set.stats();
        assert_eq!(after.keys, 0);
        // Heavy removal drains leaves; every drained leaf leaves with the
        // separator to its right and is accounted as buried.
        assert_eq!(
            before.leaf_nodes,
            after.leaf_nodes + (after.buried_leaves - before.buried_leaves)
        );
        // Only the rightmost leaf, with no separator to its right, stays.
        assert_eq!(after.leaf_nodes, 1, "{after:?}");
        assert!(after.abandoned_bytes >= after.buried_nodes);
        set.clear();
        let cleared = set.stats();
        assert_eq!(cleared.graveyard_len, 0);
        assert_eq!(cleared.buried_nodes, 0);
        assert_eq!(cleared.abandoned_bytes, 0);
    }

    /// The shape a Datalog retraction leaves: every tuple of some sources
    /// withdrawn, so one contiguous key range drains, removed ascending.
    /// `from_sorted` at `C = 4` packs the keys of ranks `5j .. 5j + 3` into
    /// leaf `j` and puts rank `5j + 4`, the separator to its right, above
    /// it. Removing ranks 120 ..= 167 drains leaves 24 ..= 32 and removes
    /// the separator right of each, so all nine must end up buried; leaf 33
    /// keeps rank 168 and stays, and so does leaf 23, whose separator
    /// (rank 119) is not removed.
    #[test]
    fn a_drained_range_buries_every_leaf_whose_separator_went() {
        let keys: Vec<Tuple<2>> = (0..40u64)
            .flat_map(|x| (0..12u64).map(move |y| [x, y]))
            .collect();
        let set: BTreeSet<2, 4> = BTreeSet::from_sorted(keys.iter().copied());
        let before = set.stats();
        assert_eq!((before.leaf_nodes, before.graveyard_len), (97, 0));
        let (drained, kept): (Vec<Tuple<2>>, Vec<Tuple<2>>) =
            keys.iter().partition(|t| (10..14).contains(&t[0]));
        assert_eq!(drained.len(), 48);
        for t in &drained {
            assert!(set.remove(t));
        }
        set.check_invariants().unwrap();
        assert!(set.iter().eq(kept));
        let after = set.stats();
        assert_eq!(after.buried_leaves, 9, "{after:?}");
        assert_eq!(after.leaf_nodes, before.leaf_nodes - 9, "{after:?}");
        assert_eq!(
            after.occupancy_hist[0], 0,
            "a drained leaf stayed: {after:?}"
        );
        // Eight leaves went alone; the ninth was the last child of an inner
        // node whose other children had gone, and left with it.
        assert_eq!(
            (after.graveyard_len, after.buried_nodes),
            (9, 10),
            "{after:?}"
        );
    }

    #[test]
    fn arena_stats_counts_live_and_buried_node_bytes() {
        let leaf = std::mem::size_of::<LeafNode<1, 24>>() as u64;
        let inner = std::mem::size_of::<InnerNode<1, 24>>() as u64;
        let expected = |s: &TreeStats| {
            let buried_inner = s.buried_nodes - s.buried_leaves;
            (s.leaf_nodes + s.buried_leaves) * leaf + (s.inner_nodes + buried_inner) * inner
        };
        let mut set: BTreeSet<1> = (0..4_096u64).map(|i| [i]).collect();
        let filled = set.stats();
        assert!(filled.leaf_nodes > 1 && filled.inner_nodes > 0);
        assert_eq!(set.arena_stats().bytes_used as u64, expected(&filled));
        for i in 0..4_096u64 {
            set.remove(&[i]);
        }
        // Removal frees nothing: drained leaves move to the graveyard and
        // keep counting until `clear`.
        let drained = set.stats();
        assert!(drained.buried_leaves > 0);
        assert_eq!(set.arena_stats().bytes_used as u64, expected(&drained));
        assert_eq!(expected(&drained), expected(&filled));
        set.clear();
        assert_eq!(set.arena_stats().bytes_used, 0);
    }
}
