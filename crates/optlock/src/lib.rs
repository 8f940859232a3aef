//! An *optimistic read-write lock* — the synchronization primitive underlying
//! the specialized concurrent B-tree of
//! *"A Specialized B-tree for Concurrent Datalog Evaluation"* (PPoPP 2019).
//!
//! The lock extends a [seqlock] for *read-potential-write* threads: a thread
//! acquires a read lease, inspects the protected data, and only then decides
//! whether it needs to upgrade to a write lock. Read leases are completely
//! passive — taking and validating one performs **no store**, so the hot
//! read path causes no cache-line invalidation and no inter-socket bus
//! traffic, which is the property the paper identifies as critical for
//! scalability beyond a single NUMA domain.
//!
//! # Protocol
//!
//! The lock is a single version word. An **even** version means unlocked, an
//! **odd** version means a writer is active. The eight operations of the
//! paper's Figure 2 are provided:
//!
//! | operation | blocking | effect |
//! |---|---|---|
//! | [`start_read`](OptimisticRwLock::start_read) | no (spins past writers) | record the current even version as a [`Lease`] |
//! | [`validate`](OptimisticRwLock::validate) | no | check no write occurred since the lease |
//! | [`end_read`](OptimisticRwLock::end_read) | no | synonym of `validate`, ends the read phase |
//! | [`try_upgrade_to_write`](OptimisticRwLock::try_upgrade_to_write) | no | atomically turn a still-valid lease into a write lock |
//! | [`try_start_write`](OptimisticRwLock::try_start_write) | no | attempt to enter a write phase directly |
//! | [`start_write`](OptimisticRwLock::start_write) | **yes** | spin until a write phase is entered |
//! | [`end_write`](OptimisticRwLock::end_write) | no | publish the modification, release the lock |
//! | [`abort_write`](OptimisticRwLock::abort_write) | no | release the lock *without* a version bump |
//!
//! # Memory ordering
//!
//! Implementing a seqlock on top of a language memory model is subtle: the
//! reader intentionally reads data that may concurrently be written. The
//! paper adopts Boehm's recipe (*"Can seqlocks get along with programming
//! language memory models?"*, MSPC 2012), which this crate follows exactly:
//!
//! 1. the version is read with `Acquire` when a read phase starts,
//! 2. all protected data is read and written through **relaxed atomics**
//!    (making the race well-defined; the caller is responsible for this —
//!    see the B-tree crate for how every node field is an atomic),
//! 3. validation issues an `Acquire` **fence** followed by a `Relaxed`
//!    re-read of the version,
//! 4. write phases are entered with an `Acquire` RMW (so protected stores
//!    cannot be hoisted above the lock acquisition) and exited with a
//!    `Release` store (so protected stores cannot sink below the release).
//!
//! # Example
//!
//! ```
//! use optlock::OptimisticRwLock;
//! use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
//!
//! let lock = OptimisticRwLock::new();
//! let data = AtomicU64::new(0);
//!
//! // A read-potential-write thread:
//! loop {
//!     let lease = lock.start_read();
//!     let seen = data.load(Relaxed);
//!     if !lock.validate(lease) {
//!         continue; // torn read possible, retry
//!     }
//!     if seen >= 10 {
//!         break; // pure read, nothing to publish
//!     }
//!     // Decide to write: upgrade the very lease we validated.
//!     if lock.try_upgrade_to_write(lease) {
//!         data.store(seen + 10, Relaxed);
//!         lock.end_write();
//!         break;
//!     }
//!     // Somebody else modified the data first; retry.
//! }
//! assert_eq!(data.load(Relaxed), 10);
//! ```
//!
//! [seqlock]: https://en.wikipedia.org/wiki/Seqlock

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;

pub use cell::SeqCell;

use std::fmt;

// The version word goes through `chaos::sync` so the schedule-exploration
// harness (crates/chaos) can interleave threads between any two protocol
// steps. In normal builds these are literal std::sync::atomic aliases.
use chaos::sync::{fence, AtomicU64, Ordering};

/// A read lease: the version number observed when a read phase started.
///
/// Leases are small copyable tokens. A lease obtained from one lock must only
/// be used with that same lock; using it with another lock will simply cause
/// spurious validation failures (never unsoundness).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lease(u64);

impl Lease {
    /// The raw version number recorded by this lease. Exposed for
    /// diagnostics and tests.
    #[inline]
    pub fn version(self) -> u64 {
        self.0
    }
}

/// The optimistic read-write lock (an extended seqlock, paper §3.1).
///
/// The all-zero state (`version == 0`) is a valid, unlocked lock, which
/// allows containers to allocate zeroed node memory cheaply.
#[repr(transparent)]
pub struct OptimisticRwLock {
    /// Even ⇒ unlocked; odd ⇒ write-locked. Each completed write phase
    /// advances the version by 2.
    version: AtomicU64,
}

impl Default for OptimisticRwLock {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for OptimisticRwLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.version.load(Ordering::Relaxed);
        f.debug_struct("OptimisticRwLock")
            .field("version", &v)
            .field("write_locked", &(v & 1 == 1))
            .finish()
    }
}

impl OptimisticRwLock {
    /// Creates a new, unlocked lock with version `0`.
    #[inline]
    pub const fn new() -> Self {
        Self {
            version: AtomicU64::new(0),
        }
    }

    /// Starts a read phase, spinning until no writer is active, and returns
    /// the observed version as a [`Lease`].
    ///
    /// This performs no store whatsoever: concurrent readers never disturb
    /// each other's cache lines.
    #[inline]
    pub fn start_read(&self) -> Lease {
        chaos::checkpoint("optlock::start_read");
        let mut backoff = Backoff::new();
        loop {
            let v = self.version.load(Ordering::Acquire);
            if v & 1 == 0 {
                return Lease(v);
            }
            backoff.spin();
        }
    }

    /// Checks that no write phase has begun since `lease` was taken.
    ///
    /// Returns `true` iff every value read under the lease is consistent.
    /// Issues the `Acquire` fence prescribed by Boehm's seqlock recipe, so
    /// all protected `Relaxed` reads performed before this call are ordered
    /// before the version re-read.
    #[inline]
    #[must_use = "an invalidated read must be retried"]
    pub fn validate(&self, lease: Lease) -> bool {
        chaos::checkpoint("optlock::validate");
        fence(Ordering::Acquire);
        let ok = self.version.load(Ordering::Relaxed) == lease.0;
        telemetry::count(telemetry::Counter::LockReadValidations);
        if !ok {
            telemetry::count(telemetry::Counter::LockValidationFailures);
        }
        ok
    }

    /// Ends a read phase. Identical to [`validate`](Self::validate); provided
    /// under the name the paper uses (Figure 2).
    #[inline]
    #[must_use = "an invalidated read must be retried"]
    pub fn end_read(&self, lease: Lease) -> bool {
        self.validate(lease)
    }

    /// Attempts to atomically upgrade a still-valid read lease into a write
    /// lock. On success the caller holds the write lock (and implicitly knows
    /// that everything read under `lease` is still current). On failure the
    /// data changed — or another writer is active — and the caller must
    /// restart its operation.
    #[inline]
    #[must_use = "on failure the operation must be restarted"]
    pub fn try_upgrade_to_write(&self, lease: Lease) -> bool {
        debug_assert_eq!(lease.0 & 1, 0, "leases always hold even versions");
        chaos::checkpoint("optlock::upgrade");
        telemetry::count(telemetry::Counter::LockUpgradeAttempts);
        let ok = self
            .version
            .compare_exchange(lease.0, lease.0 + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if ok {
            telemetry::count(telemetry::Counter::LockWriteAcquisitions);
        } else {
            telemetry::count(telemetry::Counter::LockUpgradeFailures);
        }
        ok
    }

    /// Attempts to enter a write phase directly (without a prior read
    /// phase). Non-blocking; returns `false` if a writer is active or the
    /// race is lost.
    #[inline]
    #[must_use = "on failure the operation must be restarted or retried"]
    pub fn try_start_write(&self) -> bool {
        chaos::checkpoint("optlock::try_start_write");
        let v = self.version.load(Ordering::Relaxed);
        let ok = v & 1 == 0
            && self
                .version
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if ok {
            telemetry::count(telemetry::Counter::LockWriteAcquisitions);
        }
        ok
    }

    /// Enters a write phase, spinning until the lock is acquired. This is the
    /// only blocking operation of the protocol; the B-tree only uses it
    /// during bottom-up split-path locking (paper Algorithm 2), where lock
    /// acquisition order (child before parent, lower level before higher)
    /// guarantees deadlock freedom.
    #[inline]
    pub fn start_write(&self) {
        let mut backoff = Backoff::new();
        while !self.try_start_write() {
            backoff.spin();
        }
    }

    /// Ends a write phase, publishing all modifications. The version advances
    /// to the next even number, invalidating every outstanding lease.
    #[inline]
    pub fn end_write(&self) {
        chaos::checkpoint("optlock::end_write");
        let v = self.version.load(Ordering::Relaxed);
        debug_assert_eq!(v & 1, 1, "end_write without an active write phase");
        // Planted bug for the harness self-test (see the `chaos-inject-bug`
        // feature): releasing without the version bump makes a committed
        // write indistinguishable from an abort, so leases taken before it
        // still validate and updates are silently lost.
        #[cfg(all(chaos, feature = "chaos-inject-bug"))]
        let next = v - 1;
        #[cfg(not(all(chaos, feature = "chaos-inject-bug")))]
        let next = v + 1;
        self.version.store(next, Ordering::Release);
    }

    /// Ends a write phase in which **no modification took place**, restoring
    /// the pre-write version so that concurrent read leases remain valid.
    #[inline]
    pub fn abort_write(&self) {
        chaos::checkpoint("optlock::abort_write");
        let v = self.version.load(Ordering::Relaxed);
        debug_assert_eq!(v & 1, 1, "abort_write without an active write phase");
        self.version.store(v - 1, Ordering::Release);
    }

    /// Whether a writer currently holds the lock. Diagnostic only — the
    /// answer may be stale by the time it is returned.
    #[inline]
    pub fn is_write_locked(&self) -> bool {
        self.version.load(Ordering::Relaxed) & 1 == 1
    }

    /// The current raw version. Diagnostic only.
    #[inline]
    pub fn raw_version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }
}

/// Tiny exponential backoff for spin loops (bounded, then yields to the OS).
///
/// Kept dependency-free on purpose: this crate sits below everything else in
/// the workspace.
#[derive(Debug)]
struct Backoff {
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    #[inline]
    fn new() -> Self {
        Self { step: 0 }
    }

    #[inline]
    fn spin(&mut self) {
        telemetry::count(telemetry::Counter::LockSpinIterations);
        // `chaos::hint::spin_loop` / `chaos::thread::yield_now` are
        // `std::hint::spin_loop` / `std::thread::yield_now` outside model
        // runs; inside one, each is a scheduling decision that lets the
        // lock holder run (so model-checked spin loops terminate).
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                chaos::hint::spin_loop();
            }
        } else {
            chaos::thread::yield_now();
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;

    #[test]
    fn fresh_lock_is_unlocked_at_version_zero() {
        let l = OptimisticRwLock::new();
        assert!(!l.is_write_locked());
        assert_eq!(l.raw_version(), 0);
    }

    #[test]
    fn read_lease_validates_when_nothing_happened() {
        let l = OptimisticRwLock::new();
        let lease = l.start_read();
        assert_eq!(lease.version(), 0);
        assert!(l.validate(lease));
        assert!(l.end_read(lease));
    }

    #[test]
    fn write_phase_bumps_version_by_two() {
        let l = OptimisticRwLock::new();
        assert!(l.try_start_write());
        assert!(l.is_write_locked());
        assert_eq!(l.raw_version(), 1);
        l.end_write();
        assert!(!l.is_write_locked());
        assert_eq!(l.raw_version(), 2);
    }

    #[test]
    fn completed_write_invalidates_outstanding_leases() {
        let l = OptimisticRwLock::new();
        let lease = l.start_read();
        assert!(l.try_start_write());
        l.end_write();
        assert!(!l.validate(lease));
        assert!(!l.end_read(lease));
    }

    #[test]
    fn aborted_write_preserves_outstanding_leases() {
        let l = OptimisticRwLock::new();
        let lease = l.start_read();
        assert!(l.try_start_write());
        l.abort_write();
        assert!(l.validate(lease), "abort must not invalidate readers");
        assert_eq!(l.raw_version(), 0);
    }

    #[test]
    fn upgrade_succeeds_on_fresh_lease() {
        let l = OptimisticRwLock::new();
        let lease = l.start_read();
        assert!(l.try_upgrade_to_write(lease));
        assert!(l.is_write_locked());
        l.end_write();
    }

    #[test]
    fn upgrade_fails_after_intervening_write() {
        let l = OptimisticRwLock::new();
        let lease = l.start_read();
        assert!(l.try_start_write());
        l.end_write();
        assert!(!l.try_upgrade_to_write(lease));
        assert!(!l.is_write_locked());
    }

    #[test]
    fn upgrade_fails_while_writer_active() {
        let l = OptimisticRwLock::new();
        let lease = l.start_read();
        assert!(l.try_start_write());
        assert!(!l.try_upgrade_to_write(lease));
        l.end_write();
    }

    #[test]
    fn try_start_write_fails_while_locked() {
        let l = OptimisticRwLock::new();
        assert!(l.try_start_write());
        assert!(!l.try_start_write());
        l.end_write();
        assert!(l.try_start_write());
        l.end_write();
    }

    #[test]
    fn only_one_of_two_upgrades_wins() {
        let l = OptimisticRwLock::new();
        let a = l.start_read();
        let b = l.start_read();
        assert_eq!(a, b);
        assert!(l.try_upgrade_to_write(a));
        assert!(!l.try_upgrade_to_write(b));
        l.end_write();
    }

    #[test]
    fn start_read_observes_post_write_version() {
        let l = OptimisticRwLock::new();
        assert!(l.try_start_write());
        l.end_write();
        let lease = l.start_read();
        assert_eq!(lease.version(), 2);
    }

    #[test]
    fn start_write_blocks_until_acquired() {
        let l = OptimisticRwLock::new();
        l.start_write();
        assert!(l.is_write_locked());
        l.end_write();
    }

    #[test]
    fn debug_formatting_mentions_lock_state() {
        let l = OptimisticRwLock::new();
        let s = format!("{l:?}");
        assert!(s.contains("write_locked: false"), "{s}");
        l.start_write();
        let s = format!("{l:?}");
        assert!(s.contains("write_locked: true"), "{s}");
        l.end_write();
    }

    /// Classic seqlock torture: writers mutate a multi-word value under the
    /// lock, readers must never observe a torn value.
    #[test]
    fn stress_no_torn_reads() {
        use std::sync::atomic::AtomicBool;

        const WORDS: usize = 4;
        const WRITERS: usize = 2;
        const READERS: usize = 4;
        const ITERS: u64 = 20_000;

        let lock = OptimisticRwLock::new();
        let data: [AtomicU64; WORDS] = Default::default();
        let stop = AtomicBool::new(false);

        let (lock, data, stop) = (&lock, &data, &stop);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                s.spawn(move || {
                    for i in 0..ITERS {
                        lock.start_write();
                        // All words of a published value are identical.
                        let v = i * WRITERS as u64 + w as u64 + 1;
                        for word in data {
                            word.store(v, Relaxed);
                        }
                        lock.end_write();
                    }
                });
            }
            for _ in 0..READERS {
                s.spawn(move || {
                    let mut observed = 0u64;
                    // `stop` is sampled before the attempt: a reader first
                    // scheduled once the writers are done still makes one
                    // read, which then meets no writer and validates.
                    loop {
                        let last = stop.load(Relaxed);
                        let lease = lock.start_read();
                        let snapshot: Vec<u64> = data.iter().map(|w| w.load(Relaxed)).collect();
                        if lock.validate(lease) {
                            assert!(
                                snapshot.iter().all(|&x| x == snapshot[0]),
                                "torn read observed: {snapshot:?}"
                            );
                            observed += 1;
                        }
                        if last {
                            break;
                        }
                    }
                    assert!(observed > 0, "reader never completed a valid read");
                });
            }
            // Watchdog: once all writer increments are visible, release the
            // readers. Each committed write advances the version by 2.
            s.spawn(move || {
                let target = 2 * WRITERS as u64 * ITERS;
                while lock.raw_version() < target {
                    std::thread::yield_now();
                }
                stop.store(true, Relaxed);
            });
        });
        assert_eq!(lock.raw_version(), 2 * WRITERS as u64 * ITERS);
    }

    /// Read-potential-write stress: concurrent conditional increments must
    /// not lose updates (each thread performs exactly N successful
    /// increments).
    #[test]
    fn stress_upgrade_does_not_lose_updates() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 5_000;

        let lock = OptimisticRwLock::new();
        let counter = AtomicU64::new(0);

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut done = 0;
                    while done < PER_THREAD {
                        let lease = lock.start_read();
                        let seen = counter.load(Relaxed);
                        if !lock.validate(lease) {
                            continue;
                        }
                        if lock.try_upgrade_to_write(lease) {
                            counter.store(seen + 1, Relaxed);
                            lock.end_write();
                            done += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(counter.load(Relaxed), THREADS as u64 * PER_THREAD);
    }

    /// Mixed aborts and commits keep the even/odd protocol intact.
    #[test]
    fn stress_aborts_interleaved_with_commits() {
        const THREADS: usize = 4;
        const ITERS: u64 = 10_000;

        let lock = OptimisticRwLock::new();
        let commits = AtomicU64::new(0);

        let (lock_ref, commits_ref) = (&lock, &commits);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    let (lock, commits) = (lock_ref, commits_ref);
                    for i in 0..ITERS {
                        lock.start_write();
                        if (i + t as u64).is_multiple_of(3) {
                            lock.abort_write();
                        } else {
                            commits.fetch_add(1, Relaxed);
                            lock.end_write();
                        }
                    }
                });
            }
        });
        assert!(!lock.is_write_locked());
        assert_eq!(lock.raw_version(), 2 * commits.load(Relaxed));
    }
}
