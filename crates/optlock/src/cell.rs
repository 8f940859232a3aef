//! [`SeqCell`]: a multi-word value protected by an [`OptimisticRwLock`] —
//! the classic seqlock usage packaged as a safe container, and a
//! self-contained demonstration of the protocol the B-tree applies to its
//! nodes.
//!
//! The value is stored as relaxed-atomic words (Boehm's recipe), so
//! concurrent reads during a write are well-defined; the version validation
//! decides whether a snapshot is consistent.

use crate::OptimisticRwLock;
use chaos::sync::{AtomicU64, Ordering::Relaxed};

/// A `WORDS × u64` value with seqlock-consistent reads and writes.
///
/// ```
/// use optlock::SeqCell;
///
/// let cell: SeqCell<2> = SeqCell::new([0, 0]);
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         for i in 0..10_000u64 {
///             cell.write([i, i]); // all words move together
///         }
///     });
///     s.spawn(|| {
///         for _ in 0..10_000 {
///             let [a, b] = cell.read();
///             assert_eq!(a, b, "torn read");
///         }
///     });
/// });
/// ```
pub struct SeqCell<const WORDS: usize> {
    lock: OptimisticRwLock,
    words: [AtomicU64; WORDS],
}

impl<const WORDS: usize> Default for SeqCell<WORDS> {
    fn default() -> Self {
        Self::new([0; WORDS])
    }
}

impl<const WORDS: usize> SeqCell<WORDS> {
    /// Creates a cell holding `init`.
    pub fn new(init: [u64; WORDS]) -> Self {
        let words = std::array::from_fn(|i| AtomicU64::new(init[i]));
        Self {
            lock: OptimisticRwLock::new(),
            words,
        }
    }

    /// Takes a consistent snapshot, retrying past concurrent writers.
    /// Performs no store: concurrent readers never contend.
    pub fn read(&self) -> [u64; WORDS] {
        loop {
            let lease = self.lock.start_read();
            let snapshot = std::array::from_fn(|i| self.words[i].load(Relaxed));
            if self.lock.end_read(lease) {
                return snapshot;
            }
        }
    }

    /// Stores a new value atomically with respect to [`read`](Self::read).
    pub fn write(&self, value: [u64; WORDS]) {
        self.lock.start_write();
        for (w, v) in self.words.iter().zip(value) {
            w.store(v, Relaxed);
        }
        self.lock.end_write();
    }

    /// Read-modify-write: applies `f` to a consistent snapshot and installs
    /// the result, retrying on conflicts (the read-potential-write pattern
    /// of the paper's §3.1). Returns the value written.
    ///
    /// `f` may run multiple times; it must be pure.
    pub fn update(&self, mut f: impl FnMut([u64; WORDS]) -> [u64; WORDS]) -> [u64; WORDS] {
        loop {
            let lease = self.lock.start_read();
            let current = std::array::from_fn(|i| self.words[i].load(Relaxed));
            if !self.lock.validate(lease) {
                continue;
            }
            let next = f(current);
            if self.lock.try_upgrade_to_write(lease) {
                for (w, v) in self.words.iter().zip(next) {
                    w.store(v, Relaxed);
                }
                self.lock.end_write();
                return next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_initial_value() {
        let c: SeqCell<3> = SeqCell::new([1, 2, 3]);
        assert_eq!(c.read(), [1, 2, 3]);
        assert_eq!(SeqCell::<2>::default().read(), [0, 0]);
    }

    #[test]
    fn write_then_read() {
        let c: SeqCell<2> = SeqCell::default();
        c.write([7, 8]);
        assert_eq!(c.read(), [7, 8]);
    }

    #[test]
    fn update_applies_function() {
        let c: SeqCell<1> = SeqCell::new([10]);
        let got = c.update(|[v]| [v * 2]);
        assert_eq!(got, [20]);
        assert_eq!(c.read(), [20]);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        const THREADS: u64 = 4;
        const PER: u64 = 10_000;
        let c: SeqCell<2> = SeqCell::default();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..PER {
                        c.update(|[a, b]| [a + 1, b + 2]);
                    }
                });
            }
        });
        assert_eq!(c.read(), [THREADS * PER, 2 * THREADS * PER]);
    }

    #[test]
    fn concurrent_reads_never_tear() {
        let c: SeqCell<4> = SeqCell::default();
        std::thread::scope(|s| {
            let writer = {
                let c = &c;
                s.spawn(move || {
                    for i in 1..=20_000u64 {
                        c.write([i; 4]);
                    }
                })
            };
            for _ in 0..3 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..20_000 {
                        let snap = c.read();
                        assert!(snap.iter().all(|&x| x == snap[0]), "torn: {snap:?}");
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(c.read(), [20_000; 4]);
    }
}
