//! # baselines — comparator data structures for the evaluation
//!
//! From-scratch Rust implementations of every data structure the paper's
//! evaluation (§4) compares the specialized B-tree against. Each module
//! documents which Table 1 / §4.4 contestant it stands in for and, where the
//! original is proprietary, AVX-bound, or architecturally out of reach, what
//! was substituted and why the comparison shape is preserved (the full table
//! lives in DESIGN.md).
//!
//! | module | stands in for | role |
//! |---|---|---|
//! | [`rbtree`] | C++ `std::set` ("STL rbtset") | balanced-BST baseline |
//! | [`hashset`] | C++ `std::unordered_set` ("STL hashset") | O(1)-ops, no-range baseline |
//! | [`gbtree`] | Google's C++ B-tree ("google btree") | state-of-the-art sequential B-tree |
//! | [`splitorder`] | Intel TBB `concurrent_unordered_set` (split-ordered list) | industry-standard concurrent set |
//! | [`global_lock`] | "google btree + global lock" | coarse-grained parallelization |
//! | [`lockcoupling`] | classical fine-grained R/W-lock B-tree (§3.1 survey) | pessimistic-locking ablation |
//! | [`reduction`] | OpenMP reduction over Google B-tree ("reduction btree") | private-insert-then-merge |
//! | [`palm`] | PALM tree (batched latch-free B+tree) | §4.4 / Table 3 |
//! | [`masstree`] | Masstree (trie of B+trees) | §4.4 / Table 3 |
//! | [`bslack`] | B-slack tree (relaxed-fill B-tree) | §4.4 / Table 3 |
//! | [`bplus`] | — | B+tree map substrate for the Masstree analog |

#![warn(missing_docs)]
// `deny` rather than `forbid`: the split-ordered list (the faithful TBB
// analog) is a lock-free linked structure and needs `unsafe`; it carries a
// module-level `allow` with per-site SAFETY comments. Everything else in
// this crate remains safe code.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bplus;
pub mod bslack;
pub mod gbtree;
pub mod global_lock;
pub mod hashset;
pub mod lockcoupling;
pub mod masstree;
pub mod palm;
pub mod rbtree;
pub mod reduction;
pub mod splitorder;
