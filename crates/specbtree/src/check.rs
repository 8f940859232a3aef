//! Structural invariant checking — used pervasively by the test suite and
//! available to downstream users for debugging.

use crate::latch::Latch;
use crate::node::{cmp3, NodePtr, Tuple};
use crate::tree::BTreeSet;
use std::cmp::Ordering;
use std::sync::atomic::Ordering::Relaxed;

/// A violated B-tree invariant, as reported by [`BTreeSet::check_invariants`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B-tree invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

impl<const K: usize, const C: usize, L: Latch> BTreeSet<K, C, L> {
    /// Verifies every structural invariant of the tree:
    ///
    /// 1. keys within each node are strictly ascending,
    /// 2. every key lies within the separator interval inherited from its
    ///    ancestors,
    /// 3. inner nodes have exactly `num + 1` non-null children,
    /// 4. every child's `parent`/`position` back-links are exact,
    /// 5. all leaves sit at the same depth,
    /// 6. no node is left write-locked.
    ///
    /// Quiescent phases only. [`stats`](Self::stats) counts what the tree
    /// holds.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let root = self.root.load(Relaxed);
        if root.is_null() {
            return Ok(());
        }
        if self.root_lock.is_write_locked() {
            return Err(InvariantViolation("root lock left write-locked".into()));
        }
        let rn = unsafe { &*root };
        if !rn.parent.load(Relaxed).is_null() {
            return Err(InvariantViolation("root has a parent pointer".into()));
        }
        check_node(root, None, None, 1, &mut None)
    }
}

fn check_node<const K: usize, const C: usize, L: Latch>(
    p: NodePtr<K, C, L>,
    lower: Option<Tuple<K>>,
    upper: Option<Tuple<K>>,
    depth: usize,
    leaf_depth: &mut Option<usize>,
) -> Result<(), InvariantViolation> {
    let node = unsafe { &*p };
    if node.lock.is_write_locked() {
        return Err(InvariantViolation(format!("node {p:?} left write-locked")));
    }
    let num = node.num();
    if num > C {
        return Err(InvariantViolation(format!(
            "node {p:?} overfull: {num} > capacity {C}"
        )));
    }
    for i in 0..num {
        let k = node.key(i);
        if i > 0 && cmp3(&node.key(i - 1), &k) != Ordering::Less {
            return Err(InvariantViolation(format!(
                "node {p:?}: keys not strictly ascending at index {i}"
            )));
        }
        if let Some(lo) = &lower {
            if cmp3(&k, lo) != Ordering::Greater {
                return Err(InvariantViolation(format!(
                    "node {p:?}: key {k:?} not above separator {lo:?}"
                )));
            }
        }
        if let Some(hi) = &upper {
            if cmp3(&k, hi) != Ordering::Less {
                return Err(InvariantViolation(format!(
                    "node {p:?}: key {k:?} not below separator {hi:?}"
                )));
            }
        }
    }

    if node.is_inner() {
        // A unary inner node (0 keys, exactly 1 child) is legal after
        // removals: the underflow policy never rebalances across the root
        // region, so key-exhausted inners simply pass descent through.
        // The `0..=num` child walk below covers it (one child, no keys).
        let inner = unsafe { node.as_inner() };
        for i in 0..=num {
            let c = inner.child(i);
            if c.is_null() {
                return Err(InvariantViolation(format!(
                    "inner node {p:?}: child {i} is null"
                )));
            }
            let cn = unsafe { &*c };
            if cn.parent.load(Relaxed) != p {
                return Err(InvariantViolation(format!(
                    "child {c:?} of {p:?} has wrong parent pointer"
                )));
            }
            if cn.position.load(Relaxed) as usize != i {
                return Err(InvariantViolation(format!(
                    "child {c:?} of {p:?} has position {} but sits at {i}",
                    cn.position.load(Relaxed)
                )));
            }
            let lo = if i == 0 { lower } else { Some(node.key(i - 1)) };
            let hi = if i == num { upper } else { Some(node.key(i)) };
            check_node(c, lo, hi, depth + 1, leaf_depth)?;
        }
    } else {
        match leaf_depth {
            None => *leaf_depth = Some(depth),
            Some(d) if *d != depth => {
                return Err(InvariantViolation(format!(
                    "leaf {p:?} at depth {depth}, expected {d}"
                )));
            }
            _ => {}
        }
    }
    Ok(())
}
