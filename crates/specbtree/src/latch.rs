//! The per-node lock as a type parameter.
//!
//! [`BTreeSet`](crate::BTreeSet) is written once against [`Latch`] — the
//! operations of the paper's Figure 2 — and instantiated twice: with
//! [`OptimisticRwLock`] it is the concurrent tree; with [`NoLatch`], behind
//! [`SeqBTreeSet`](crate::seq::SeqBTreeSet)'s `&mut self` interface, it is
//! the paper's "seq btree" — the same tree with every lock operation
//! compiled away, so the gap between the two is the price of the protocol
//! and nothing else.
//!
//! This module is private: the trait cannot be named, let alone implemented,
//! outside the crate, and `NoLatch` is reachable only through the `seq`
//! wrapper.

use optlock::OptimisticRwLock;

/// A node lock with the optimistic read-write protocol's operations.
///
/// # Safety
///
/// Nodes are allocated zeroed: the all-zero bit pattern must be a valid,
/// unlocked latch. And unless `try_start_write` / `try_upgrade_to_write`
/// really exclude other writers and `validate` really detects them, the
/// tree instantiated with the latch must not be shared between threads
/// (the tree implements `Sync` for [`OptimisticRwLock`] only).
pub unsafe trait Latch: Default {
    /// Token of a read phase.
    type Lease: Copy;

    /// Starts a read phase.
    fn start_read(&self) -> Self::Lease;
    /// Whether everything read since `lease` was taken is consistent.
    fn validate(&self, lease: Self::Lease) -> bool;
    /// Turns a still-valid lease into the write lock.
    fn try_upgrade_to_write(&self, lease: Self::Lease) -> bool;
    /// Attempts to take the write lock directly.
    fn try_start_write(&self) -> bool;
    /// Takes the write lock, waiting for it.
    fn start_write(&self);
    /// Releases the write lock, invalidating outstanding leases.
    fn end_write(&self);
    /// Releases the write lock after no modification; leases stay valid.
    fn abort_write(&self);
    /// Whether a writer holds the lock (diagnostic).
    fn is_write_locked(&self) -> bool;
}

// SAFETY: `OptimisticRwLock` documents version 0 as a valid unlocked state,
// and it is the real protocol.
unsafe impl Latch for OptimisticRwLock {
    type Lease = optlock::Lease;

    #[inline]
    fn start_read(&self) -> optlock::Lease {
        OptimisticRwLock::start_read(self)
    }
    #[inline]
    fn validate(&self, lease: optlock::Lease) -> bool {
        OptimisticRwLock::validate(self, lease)
    }
    #[inline]
    fn try_upgrade_to_write(&self, lease: optlock::Lease) -> bool {
        OptimisticRwLock::try_upgrade_to_write(self, lease)
    }
    #[inline]
    fn try_start_write(&self) -> bool {
        OptimisticRwLock::try_start_write(self)
    }
    #[inline]
    fn start_write(&self) {
        OptimisticRwLock::start_write(self)
    }
    #[inline]
    fn end_write(&self) {
        OptimisticRwLock::end_write(self)
    }
    #[inline]
    fn abort_write(&self) {
        OptimisticRwLock::abort_write(self)
    }
    #[inline]
    fn is_write_locked(&self) -> bool {
        OptimisticRwLock::is_write_locked(self)
    }
}

/// The latch of a tree only one thread can reach: reads always validate,
/// write locks are always granted, and nothing is stored.
#[derive(Default)]
pub struct NoLatch;

// SAFETY: zero-sized, so trivially valid when zeroed; it excludes nobody,
// which is why the tree is `Sync` only over `OptimisticRwLock`.
unsafe impl Latch for NoLatch {
    type Lease = ();

    #[inline]
    fn start_read(&self) {}
    #[inline]
    fn validate(&self, (): ()) -> bool {
        true
    }
    #[inline]
    fn try_upgrade_to_write(&self, (): ()) -> bool {
        true
    }
    #[inline]
    fn try_start_write(&self) -> bool {
        true
    }
    #[inline]
    fn start_write(&self) {}
    #[inline]
    fn end_write(&self) {}
    #[inline]
    fn abort_write(&self) {}
    #[inline]
    fn is_write_locked(&self) -> bool {
        false
    }
}
