//! A B-slack-style relaxed-fill B-tree — the stand-in for the B-slack tree
//! in the paper's §4.4 comparison (Table 3).
//!
//! **Substitution note** (see DESIGN.md): B-slack trees (Brown, SWAT 2014)
//! constrain the *total* slack across the children of each node, achieving
//! better worst-case space than classic B-trees by moving keys between
//! siblings before splitting; the original work "does not specify the
//! locking scheme" (paper §4.4). This analog keeps the defining mechanism —
//! sibling redistribution absorbs overflow, splits happen only when the
//! neighborhood is genuinely full — and, like the Masstree analog, uses
//! hash-sharded locking for thread safety since none is specified.

use parking_lot::Mutex;
use std::cmp::Ordering;

const MAX_KEYS: usize = 16;
const SHARDS: usize = 64;

// `Box<Node>` children are deliberate: each node is its own heap
// allocation, mirroring the per-node allocation pattern of the C++
// structures being modelled (clippy would flatten them into the Vec).
#[allow(clippy::vec_box)]
enum Node<T> {
    Leaf {
        keys: Vec<T>,
    },
    Inner {
        keys: Vec<T>,
        children: Vec<Box<Node<T>>>,
    },
}

impl<T: Ord + Copy> Node<T> {
    fn keys(&self) -> &[T] {
        match self {
            Node::Leaf { keys } | Node::Inner { keys, .. } => keys,
        }
    }

    fn keys_mut(&mut self) -> &mut Vec<T> {
        match self {
            Node::Leaf { keys } | Node::Inner { keys, .. } => keys,
        }
    }

    fn search(&self, t: &T) -> (usize, bool) {
        let keys = self.keys();
        let (mut lo, mut hi) = (0usize, keys.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match keys[mid].cmp(t) {
                Ordering::Less => lo = mid + 1,
                Ordering::Equal => return (mid, true),
                Ordering::Greater => hi = mid,
            }
        }
        (lo, false)
    }

    fn is_overfull(&self) -> bool {
        self.keys().len() > MAX_KEYS
    }
}

enum Outcome {
    Duplicate,
    Done,
    /// Child is overfull by one element; the parent resolves it by sibling
    /// redistribution or, failing that, a split.
    Overflow,
}

/// A sequential relaxed-fill B-tree set.
struct BSlackCore<T> {
    root: Option<Box<Node<T>>>,
    len: usize,
    /// Number of overflows absorbed by redistribution instead of a split
    /// (diagnostic: the mechanism that distinguishes B-slack trees).
    redistributions: u64,
    splits: u64,
}

impl<T: Ord + Copy> BSlackCore<T> {
    fn new() -> Self {
        Self {
            root: None,
            len: 0,
            redistributions: 0,
            splits: 0,
        }
    }

    fn insert(&mut self, key: T) -> bool {
        match &mut self.root {
            None => {
                self.root = Some(Box::new(Node::Leaf { keys: vec![key] }));
                self.len = 1;
                true
            }
            Some(root) => {
                let out = Self::insert_rec(root, key, &mut self.redistributions, &mut self.splits);
                match out {
                    Outcome::Duplicate => false,
                    Outcome::Done => {
                        self.len += 1;
                        true
                    }
                    Outcome::Overflow => {
                        // The root itself is overfull: split it.
                        let (sep, right) = Self::split_node(self.root.as_mut().expect("root"));
                        self.splits += 1;
                        let old_root = self.root.take().expect("root");
                        self.root = Some(Box::new(Node::Inner {
                            keys: vec![sep],
                            children: vec![old_root, right],
                        }));
                        self.len += 1;
                        true
                    }
                }
            }
        }
    }

    fn insert_rec(
        node: &mut Node<T>,
        key: T,
        redistributions: &mut u64,
        splits: &mut u64,
    ) -> Outcome {
        let (idx, found) = node.search(&key);
        if found {
            return Outcome::Duplicate;
        }
        match node {
            Node::Leaf { keys } => {
                keys.insert(idx, key);
                if keys.len() > MAX_KEYS {
                    Outcome::Overflow
                } else {
                    Outcome::Done
                }
            }
            Node::Inner { .. } => {
                let child_out = {
                    let Node::Inner { children, .. } = node else {
                        unreachable!()
                    };
                    Self::insert_rec(&mut children[idx], key, redistributions, splits)
                };
                match child_out {
                    Outcome::Overflow => {
                        // B-slack mechanism: try to shed one key to a
                        // sibling through the separator before splitting.
                        if Self::try_redistribute(node, idx) {
                            *redistributions += 1;
                            return if node.is_overfull() {
                                Outcome::Overflow
                            } else {
                                Outcome::Done
                            };
                        }
                        // Both siblings full: split the child.
                        let (sep, right) = {
                            let Node::Inner { children, .. } = node else {
                                unreachable!()
                            };
                            Self::split_node(&mut children[idx])
                        };
                        *splits += 1;
                        let Node::Inner { keys, children } = node else {
                            unreachable!()
                        };
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() > MAX_KEYS {
                            Outcome::Overflow
                        } else {
                            Outcome::Done
                        }
                    }
                    other => other,
                }
            }
        }
    }

    /// Rotates one key from the overfull child `idx` into a non-full
    /// neighbor through the separating key. Leaf children only (inner
    /// rotations would have to move a child pointer too; the original
    /// design constrains leaf slack, which dominates space).
    fn try_redistribute(parent: &mut Node<T>, idx: usize) -> bool {
        let Node::Inner { keys, children } = parent else {
            unreachable!()
        };
        if !matches!(children[idx].as_ref(), Node::Leaf { .. }) {
            return false;
        }
        // Try the left sibling: separator moves down-left, child's first
        // key becomes the new separator.
        if idx > 0 && children[idx - 1].keys().len() < MAX_KEYS {
            if let Node::Leaf { .. } = children[idx - 1].as_ref() {
                let sep = keys[idx - 1];
                let new_sep = children[idx].keys_mut().remove(0);
                children[idx - 1].keys_mut().push(sep);
                keys[idx - 1] = new_sep;
                return true;
            }
        }
        // Try the right sibling symmetrically.
        if idx + 1 < children.len() && children[idx + 1].keys().len() < MAX_KEYS {
            if let Node::Leaf { .. } = children[idx + 1].as_ref() {
                let sep = keys[idx];
                let new_sep = children[idx].keys_mut().pop().expect("overfull");
                children[idx + 1].keys_mut().insert(0, sep);
                keys[idx] = new_sep;
                return true;
            }
        }
        false
    }

    fn split_node(node: &mut Node<T>) -> (T, Box<Node<T>>) {
        match node {
            Node::Leaf { keys } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("median");
                (sep, Box::new(Node::Leaf { keys: right_keys }))
            }
            Node::Inner { keys, children } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid + 1);
                let sep = keys.pop().expect("median");
                let right_children = children.split_off(mid + 1);
                (
                    sep,
                    Box::new(Node::Inner {
                        keys: right_keys,
                        children: right_children,
                    }),
                )
            }
        }
    }

    fn contains(&self, key: &T) -> bool {
        let mut node = match &self.root {
            None => return false,
            Some(r) => r.as_ref(),
        };
        loop {
            let (idx, found) = node.search(key);
            if found {
                return true;
            }
            match node {
                Node::Leaf { .. } => return false,
                Node::Inner { children, .. } => node = children[idx].as_ref(),
            }
        }
    }

    fn append_to(&self, out: &mut Vec<T>) {
        fn rec<T: Ord + Copy>(node: &Node<T>, out: &mut Vec<T>) {
            match node {
                Node::Leaf { keys } => out.extend_from_slice(keys),
                Node::Inner { keys, children } => {
                    for (i, c) in children.iter().enumerate() {
                        rec(c, out);
                        if i < keys.len() {
                            out.push(keys[i]);
                        }
                    }
                }
            }
        }
        if let Some(r) = &self.root {
            rec(r, out);
        }
    }
}

/// Trait bound for keys usable with the sharded B-slack analog.
pub trait ShardKey: Ord + Copy {
    /// Folds the key into a shard selector.
    fn shard_fold(&self) -> u64;
}

impl ShardKey for u64 {
    fn shard_fold(&self) -> u64 {
        *self
    }
}

impl ShardKey for u32 {
    fn shard_fold(&self) -> u64 {
        *self as u64
    }
}

impl<const K: usize> ShardKey for [u64; K] {
    fn shard_fold(&self) -> u64 {
        self.first().copied().unwrap_or(0)
    }
}

/// A thread-safe relaxed-fill B-tree set (hash-sharded locking).
///
/// ```
/// use baselines::bslack::BSlackTree;
///
/// let t = BSlackTree::new();
/// assert!(t.insert(5u64));
/// assert!(!t.insert(5u64));
/// assert!(t.contains(&5));
/// ```
pub struct BSlackTree<T> {
    shards: Vec<Mutex<BSlackCore<T>>>,
}

impl<T: ShardKey> Default for BSlackTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ShardKey> BSlackTree<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(BSlackCore::new())).collect(),
        }
    }

    #[inline]
    fn shard_of(key: &T) -> usize {
        let mut z = key.shard_fold().wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        ((z ^ (z >> 31)) >> 58) as usize & (SHARDS - 1)
    }

    /// Inserts `key`, returning `true` if it was not present. Thread-safe.
    pub fn insert(&self, key: T) -> bool {
        self.shards[Self::shard_of(&key)].lock().insert(key)
    }

    /// Membership test. Thread-safe.
    pub fn contains(&self, key: &T) -> bool {
        self.shards[Self::shard_of(key)].lock().contains(key)
    }

    /// Total element count. Quiescent phases only.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(redistributions, splits)` across all shards — how often the slack
    /// mechanism absorbed an overflow without splitting.
    pub fn slack_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(r, s), shard| {
            let g = shard.lock();
            (r + g.redistributions, s + g.splits)
        })
    }

    /// Snapshots all elements (sorted within shards, then globally).
    /// Quiescent phases only.
    pub fn snapshot_sorted(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for s in &self.shards {
            s.lock().append_to(&mut out);
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use workloads::rng::splitmix;

    #[test]
    fn basic_dedup() {
        let t = BSlackTree::new();
        assert!(t.insert(1u64));
        assert!(!t.insert(1u64));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ordered_inserts_match_model() {
        let t = BSlackTree::new();
        for i in 0..20_000u64 {
            assert!(t.insert(i));
        }
        assert_eq!(t.len(), 20_000);
        for i in 0..20_000u64 {
            assert!(t.contains(&i));
        }
        assert!(!t.contains(&20_000));
        let snap = t.snapshot_sorted();
        assert_eq!(snap.len(), 20_000);
        assert!(snap.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn random_inserts_match_model() {
        let t = BSlackTree::new();
        let mut model = std::collections::BTreeSet::new();
        let mut rng = 8u64;
        for _ in 0..30_000 {
            let k = splitmix(&mut rng) % 10_000;
            assert_eq!(t.insert(k), model.insert(k));
        }
        assert_eq!(t.len(), model.len());
        let snap = t.snapshot_sorted();
        let theirs: Vec<_> = model.into_iter().collect();
        assert_eq!(snap, theirs);
    }

    #[test]
    fn redistribution_actually_happens() {
        let t = BSlackTree::new();
        // Dense ordered keys within one shard force neighbor interaction.
        for i in 0..50_000u64 {
            t.insert(i * SHARDS as u64); // same shard under fold of key? No:
                                         // shard is hash-based; just insert a lot.
        }
        let (redis, splits) = t.slack_stats();
        assert!(splits > 0);
        assert!(
            redis > 0,
            "slack mechanism never engaged (redis={redis}, splits={splits})"
        );
    }

    #[test]
    fn concurrent_inserts() {
        let t = BSlackTree::new();
        std::thread::scope(|s| {
            for p in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..3_000 {
                        t.insert(p * 1_000_000 + i);
                    }
                });
            }
        });
        assert_eq!(t.len(), 24_000);
    }

    #[test]
    fn tuple_keys() {
        let t: BSlackTree<[u64; 2]> = BSlackTree::new();
        for a in 0..100u64 {
            for b in 0..100u64 {
                assert!(t.insert([a, b]));
            }
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.contains(&[99, 99]));
    }
}
