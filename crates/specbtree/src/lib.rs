//! # specbtree — a specialized B-tree for concurrent Datalog evaluation
//!
//! A from-scratch Rust implementation of the concurrent in-memory B-tree of
//! *"A Specialized B-tree for Concurrent Datalog Evaluation"* (Jordan,
//! Subotić, Zhao, Scholz; PPoPP 2019) — the relation data structure of the
//! Soufflé Datalog engine.
//!
//! The structure is specialized for the access patterns of parallel
//! semi-naive Datalog evaluation:
//!
//! * **Nodes are never freed or moved** while the tree is alive, which
//!   keeps stale pointers harmless and lets hints live forever. Relations
//!   only grow during a fixpoint; between fixpoints [`BTreeSet::remove`]
//!   retracts tuples, tolerating underflow: a drained leaf stays until the
//!   separator to its right goes, leaves with it and waits in a graveyard
//!   until `clear`/`Drop`.
//! * **Optimistic fine-grained locking** ([`optlock`]): readers validate
//!   version leases instead of taking locks, writers upgrade in place and
//!   escalate bottom-up on splits (paper Algorithms 1 and 2).
//! * **Operation hints** ([`BTreeHints`]): per-thread caches of the last
//!   accessed leaf exploit the sortedness of Datalog workloads to skip tree
//!   traversals entirely.
//! * **Tuple keys**: elements are fixed-arity `[u64; K]` tuples ordered
//!   lexicographically with a single-pass three-way comparator.
//! * **One cursor** ([`Iter`]): a full scan, a bound query, a range, a
//!   prefix ([`RangeChunk::prefix`]) and a chunk of a parallel
//!   [`partition`](BTreeSet::partition) are the same `(node, position)`
//!   cursor with an optional exclusive end, and its `fold` (under `count`,
//!   `for_each`, …) walks it a leaf at a time.
//!
//! The [`seq`] module provides the paper's "seq btree" baseline: this very
//! tree with its per-node lock replaced by one that does nothing (the lock
//! is a sealed type parameter of [`BTreeSet`], defaulting to
//! [`optlock::OptimisticRwLock`]), behind an interface that takes `&mut
//! self` to modify — so the gap between the two is the cost of the
//! synchronization protocol and nothing else.
//!
//! There is one tree and one node layout, the paper's: individually allocated nodes,
//! classic binary search, plain last-leaf hints (DESIGN.md, "Layouts tried
//! and removed", records the alternatives that were measured and deleted).
//!
//! ## Quickstart
//!
//! ```
//! use specbtree::BTreeSet;
//!
//! // A relation of binary tuples.
//! let edges: BTreeSet<2> = BTreeSet::new();
//! edges.insert([1, 2]);
//! edges.insert([2, 3]);
//! edges.insert([2, 4]);
//!
//! // Prefix range query: all successors of node 2.
//! let succs: Vec<[u64; 2]> = edges.prefix_range(&[2]).collect();
//! assert_eq!(succs, vec![[2, 3], [2, 4]]);
//!
//! // Hinted operations exploit locality: after (7, 10), inserting (7, 4)
//! // lands in the same leaf and skips the traversal (paper §3.2).
//! let mut hints = edges.create_hints();
//! edges.insert_hinted([7, 10], &mut hints);
//! edges.insert_hinted([7, 4], &mut hints); // covered by the cached leaf
//! assert_eq!(hints.stats.insert_hits, 1);
//! ```

#![warn(missing_docs)]
// `unsafe` is confined to the node layer (node.rs) and the tree's root,
// allocation, hint and reclamation accessors (tree.rs), which turn raw node
// links into borrows of the tree; everything else holds those borrows. Each
// block carries its SAFETY argument, and the public API is entirely safe.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod check;
mod hints;
mod iter;
mod latch;
mod merge;
mod node;
pub mod seq;
mod sort;
mod stats;
mod tree;

pub use check::InvariantViolation;
pub use hints::{BTreeHints, HintStats};
pub use iter::{Iter, RangeChunk};
pub use node::{cmp3, Tuple};
pub use sort::{sort_tuples, sorted_tuples};
pub use stats::{ArenaStats, TreeStats, OCCUPANCY_BUCKETS};
pub use tree::{BTreeSet, DEFAULT_NODE_CAPACITY};
