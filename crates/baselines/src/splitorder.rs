//! A lock-free split-ordered hash set (Shalev & Shavit, *"Split-ordered
//! lists: lock-free extensible hash tables"*) — the faithful stand-in for
//! Intel TBB's `concurrent_unordered_set` ("TBB hashset" in the paper's
//! Table 1), which uses precisely this design.
//!
//! All elements live in **one** lock-free linked list sorted by the
//! bit-reversed hash (the *split-order*). Buckets are lazily created dummy
//! nodes pointing into that list; doubling the table is a single atomic
//! store — no rehashing ever moves an element, which is what makes the
//! structure "extensible". The per-element costs that Figure 4 of the
//! paper exposes are inherent to the design: every insert allocates a
//! node, walks a sorted chain with compare-and-swap publication, and every
//! scan chases list pointers.
//!
//! Simplifications relative to the full algorithm, justified by the
//! Datalog setting: **no physical deletion**. Retraction support uses
//! per-node logical-deletion flags (a single CAS flips a node dead; a
//! later insert of the same key revives it in place) rather than the
//! marked-pointer unlink of the full algorithm — nodes are never
//! unlinked or freed while the set is shared, so reclamation and hazard
//! pointers stay unnecessary and the CAS insert remains ABA-free.

#![allow(unsafe_code)]

use crate::hashset::HashKey;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// Maximum number of bucket segments (caps the table at 2^32 buckets).
const SEGMENTS: usize = 32;
/// Initial bucket count (power of two).
const INITIAL_BUCKETS: usize = 2;
/// Grow when elements exceed `LOAD_FACTOR ×` buckets.
const LOAD_FACTOR: usize = 2;

#[inline]
fn hash64(h: u64) -> u64 {
    let mut z = h.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

/// Split-order key of a regular node: bit-reversed hash with the lowest
/// (post-reversal) bit set, making it odd — dummies are even.
#[inline]
fn regular_key(h: u64) -> u64 {
    h.reverse_bits() | 1
}

/// Split-order key of a bucket's dummy node (even).
#[inline]
fn dummy_key(bucket: u64) -> u64 {
    bucket.reverse_bits()
}

struct Node<T> {
    /// Split-order key; even = dummy, odd = regular.
    skey: u64,
    /// The element; `None` for dummies.
    key: Option<T>,
    /// Logical-deletion flag (regular nodes only; dummies ignore it).
    /// `remove` CASes it `true → false`, a re-insert CASes it back.
    live: AtomicBool,
    next: AtomicPtr<Node<T>>,
}

impl<T> Node<T> {
    fn alloc(skey: u64, key: Option<T>) -> *mut Node<T> {
        Box::into_raw(Box::new(Node {
            skey,
            key,
            live: AtomicBool::new(true),
            next: AtomicPtr::new(std::ptr::null_mut()),
        }))
    }
}

/// A lock-free unordered set of hashable, totally ordered keys.
///
/// ```
/// use baselines::splitorder::SplitOrderedSet;
///
/// let s = SplitOrderedSet::new();
/// std::thread::scope(|scope| {
///     for t in 0..4u64 {
///         let s = &s;
///         scope.spawn(move || {
///             for i in 0..500 {
///                 s.insert(t * 10_000 + i);
///             }
///         });
///     }
/// });
/// assert_eq!(s.len(), 2_000);
/// assert!(s.contains(&30_499));
/// ```
pub struct SplitOrderedSet<T> {
    /// Segment `s` holds `2^s` bucket slots for buckets `2^s - 1 .. 2^(s+1) - 1`
    /// (bucket `i` lives at segment `⌊log2(i+1)⌋`, offset `i+1 - 2^seg`).
    segments: [AtomicPtr<AtomicPtr<Node<T>>>; SEGMENTS],
    /// Head of the split-ordered list: the dummy of bucket 0.
    head: AtomicPtr<Node<T>>,
    /// Current bucket count (power of two).
    size: AtomicUsize,
    /// Element count (regular nodes).
    count: AtomicUsize,
}

// SAFETY: the structure is a standard lock-free list + atomically published
// segment tables; all shared mutation is via atomics, nodes are never freed
// while shared (`Drop` takes `&mut self`).
unsafe impl<T: Send> Send for SplitOrderedSet<T> {}
// SAFETY: see `Send` above.
unsafe impl<T: Send + Sync> Sync for SplitOrderedSet<T> {}

impl<T: HashKey + Ord> Default for SplitOrderedSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: HashKey + Ord> SplitOrderedSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        let set = Self {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            head: AtomicPtr::new(std::ptr::null_mut()),
            size: AtomicUsize::new(INITIAL_BUCKETS),
            count: AtomicUsize::new(0),
        };
        // Bucket 0's dummy is the permanent list head.
        let head = Node::alloc(dummy_key(0), None);
        set.head.store(head, Ordering::Release);
        set.set_bucket(0, head);
        set
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    // --- segment table -------------------------------------------------

    fn segment_of(bucket: usize) -> (usize, usize) {
        let i = bucket + 1;
        let seg = usize::BITS as usize - 1 - i.leading_zeros() as usize;
        (seg, i - (1 << seg))
    }

    /// The slot of `bucket`, allocating its segment if needed.
    fn bucket_slot(&self, bucket: usize) -> &AtomicPtr<Node<T>> {
        let (seg, off) = Self::segment_of(bucket);
        let mut table = self.segments[seg].load(Ordering::Acquire);
        if table.is_null() {
            let len = 1usize << seg;
            let fresh: Box<[AtomicPtr<Node<T>>]> = (0..len)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            let fresh = Box::into_raw(fresh) as *mut AtomicPtr<Node<T>>;
            match self.segments[seg].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => table = fresh,
                Err(winner) => {
                    // SAFETY: `fresh` was just created by us and lost the
                    // race unpublished; reconstitute and drop it.
                    unsafe {
                        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                            fresh, len,
                        )));
                    }
                    table = winner;
                }
            }
        }
        // SAFETY: `table` points at a live `len`-slot array published above
        // and never freed while the set is alive; `off < 2^seg` by
        // construction.
        unsafe { &*table.add(off) }
    }

    fn set_bucket(&self, bucket: usize, dummy: *mut Node<T>) {
        self.bucket_slot(bucket).store(dummy, Ordering::Release);
    }

    /// Returns the dummy node of `bucket`, initializing it (and its parent
    /// chain) on first touch — the lazy bucket initialization of the
    /// split-ordered design.
    fn get_bucket(&self, bucket: usize) -> *mut Node<T> {
        let slot = self.bucket_slot(bucket);
        let cur = slot.load(Ordering::Acquire);
        if !cur.is_null() {
            return cur;
        }
        debug_assert_ne!(bucket, 0, "bucket 0 is initialized in new()");
        // Parent bucket: clear the most significant set bit.
        let parent = bucket & !(1usize << (usize::BITS - 1 - bucket.leading_zeros()));
        let parent_dummy = self.get_bucket(parent);
        // Insert (or find) this bucket's dummy in the list.
        let dummy = Node::alloc(dummy_key(bucket as u64), None);
        let installed = match self.list_insert(parent_dummy, dummy) {
            Ok(()) => dummy,
            Err(existing) => {
                // A racer installed the dummy first; discard ours.
                // SAFETY: our node never became reachable.
                unsafe { drop(Box::from_raw(dummy)) };
                existing
            }
        };
        slot.store(installed, Ordering::Release);
        installed
    }

    // --- the split-ordered list ------------------------------------------

    /// Total order of list nodes: by split key, dummies before regulars of
    /// the same split key (cannot collide by parity), regulars with equal
    /// split keys (hash collisions) by element order.
    fn node_less(a_skey: u64, a_key: &Option<T>, b: &Node<T>) -> std::cmp::Ordering {
        match a_skey.cmp(&b.skey) {
            std::cmp::Ordering::Equal => a_key.cmp(&b.key),
            other => other,
        }
    }

    /// Inserts `node` into the sorted list starting at `start`. On success
    /// returns `Ok(())`; if an equal node exists, returns it (and the
    /// caller frees the unpublished `node`).
    fn list_insert(&self, start: *mut Node<T>, node: *mut Node<T>) -> Result<(), *mut Node<T>> {
        // SAFETY: nodes are never freed while the set is shared; `node` is
        // ours until published.
        let (nskey, nkey) = unsafe { ((*node).skey, &(*node).key) };
        loop {
            // Find insertion point: pred < node <= curr.
            let mut pred = start;
            // SAFETY: pred is a live node.
            let mut curr = unsafe { (*pred).next.load(Ordering::Acquire) };
            loop {
                if curr.is_null() {
                    break;
                }
                // SAFETY: curr is a live node (never freed).
                let c = unsafe { &*curr };
                match Self::node_less(nskey, nkey, c) {
                    std::cmp::Ordering::Greater => {
                        pred = curr;
                        curr = c.next.load(Ordering::Acquire);
                    }
                    std::cmp::Ordering::Equal => return Err(curr),
                    std::cmp::Ordering::Less => break,
                }
            }
            // Link and publish.
            // SAFETY: `node` is unpublished, we own it.
            unsafe { (*node).next.store(curr, Ordering::Relaxed) };
            // SAFETY: pred is live.
            let pred_next = unsafe { &(*pred).next };
            if pred_next
                .compare_exchange(curr, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok(());
            }
            // Raced; rescan from `start`.
        }
    }

    /// Inserts `key`, returning `true` if it was not present. Lock-free.
    pub fn insert(&self, key: T) -> bool {
        let h = hash64(key.fold());
        let size = self.size.load(Ordering::Relaxed);
        let bucket = (h as usize) & (size - 1);
        let start = self.get_bucket(bucket);
        let node = Node::alloc(regular_key(h), Some(key));
        match self.list_insert(start, node) {
            Ok(()) => {
                let count = self.count.fetch_add(1, Ordering::Relaxed) + 1;
                // Extend the table by doubling; elements never move.
                if count > LOAD_FACTOR * size && size < (1 << (SEGMENTS - 1)) {
                    let _ = self.size.compare_exchange(
                        size,
                        size * 2,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                }
                true
            }
            Err(existing) => {
                // SAFETY: our node never became reachable.
                unsafe { drop(Box::from_raw(node)) };
                // SAFETY: published nodes are live for the set's lifetime.
                let existing = unsafe { &*existing };
                // Revive a logically deleted node in place; the CAS decides
                // the winner among racing re-inserts.
                if existing
                    .live
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.count.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes `key`, returning `true` if this call logically deleted it.
    /// Lock-free: deletion is one CAS on the node's live flag. The node is
    /// never unlinked (preserving the no-reclamation contract that keeps
    /// inserts ABA-free); a later insert of the same key revives it.
    pub fn remove(&self, key: &T) -> bool {
        let h = hash64(key.fold());
        let size = self.size.load(Ordering::Relaxed);
        let bucket = (h as usize) & (size - 1);
        let start = self.get_bucket(bucket);
        let skey = regular_key(h);
        let probe = Some(*key);
        // SAFETY: list nodes are live for the lifetime of the set.
        let mut curr = unsafe { (*start).next.load(Ordering::Acquire) };
        while !curr.is_null() {
            // SAFETY: as above; `curr` is non-null.
            let c = unsafe { &*curr };
            match Self::node_less(skey, &probe, c) {
                std::cmp::Ordering::Greater => curr = c.next.load(Ordering::Acquire),
                std::cmp::Ordering::Equal => {
                    if c.live
                        .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.count.fetch_sub(1, Ordering::Relaxed);
                        return true;
                    }
                    return false;
                }
                std::cmp::Ordering::Less => return false,
            }
        }
        false
    }

    /// Membership test. Lock-free.
    pub fn contains(&self, key: &T) -> bool {
        let h = hash64(key.fold());
        let size = self.size.load(Ordering::Relaxed);
        let bucket = (h as usize) & (size - 1);
        let start = self.get_bucket(bucket);
        let skey = regular_key(h);
        let probe = Some(*key);
        // SAFETY: list nodes are live for the lifetime of the set.
        let mut curr = unsafe { (*start).next.load(Ordering::Acquire) };
        while !curr.is_null() {
            // SAFETY: as above; `curr` is non-null.
            let c = unsafe { &*curr };
            match Self::node_less(skey, &probe, c) {
                std::cmp::Ordering::Greater => curr = c.next.load(Ordering::Acquire),
                std::cmp::Ordering::Equal => return c.live.load(Ordering::Acquire),
                std::cmp::Ordering::Less => return false,
            }
        }
        false
    }

    /// Calls `f` on every element (split order — i.e. unordered by key).
    /// Quiescent phases only for an exact snapshot.
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        let mut curr = self.head.load(Ordering::Acquire);
        while !curr.is_null() {
            // SAFETY: list nodes are live.
            let c = unsafe { &*curr };
            if let Some(k) = &c.key {
                if c.live.load(Ordering::Acquire) {
                    f(k);
                }
            }
            curr = c.next.load(Ordering::Acquire);
        }
    }

    /// Snapshots all elements (unordered). Quiescent phases only.
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k| out.push(*k));
        out
    }
}

impl<T> Drop for SplitOrderedSet<T> {
    fn drop(&mut self) {
        // Free the list.
        let mut curr = *self.head.get_mut();
        while !curr.is_null() {
            // SAFETY: exclusive access; each node freed exactly once.
            let next = unsafe { *(*curr).next.get_mut() };
            // SAFETY: `curr` came from `Box::into_raw` and nothing reaches it
            // after this step.
            unsafe { drop(Box::from_raw(curr)) };
            curr = next;
        }
        // Free the segment tables.
        for (seg, slot) in self.segments.iter_mut().enumerate() {
            let table = *slot.get_mut();
            if !table.is_null() {
                let len = 1usize << seg;
                // SAFETY: tables were allocated as boxed slices of `len`.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        table, len,
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet as Model;

    use workloads::rng::splitmix;

    #[test]
    fn empty() {
        let s: SplitOrderedSet<u64> = SplitOrderedSet::new();
        assert!(s.is_empty());
        assert!(!s.contains(&0));
        assert_eq!(s.snapshot().len(), 0);
    }

    #[test]
    fn insert_dedup_contains() {
        let s = SplitOrderedSet::new();
        for i in 0..20_000u64 {
            assert!(s.insert(i * 3), "{i}");
        }
        assert_eq!(s.len(), 20_000);
        for i in 0..20_000u64 {
            assert!(!s.insert(i * 3));
            assert!(s.contains(&(i * 3)));
            assert!(!s.contains(&(i * 3 + 1)));
        }
        assert_eq!(s.len(), 20_000);
    }

    #[test]
    fn random_matches_model() {
        let s = SplitOrderedSet::new();
        let mut m = Model::new();
        let mut rng = 77u64;
        for _ in 0..30_000 {
            let k = splitmix(&mut rng) % 9_000;
            assert_eq!(s.insert(k), m.insert(k), "{k}");
        }
        assert_eq!(s.len(), m.len());
        let mut snap = s.snapshot();
        snap.sort_unstable();
        let expect: Vec<u64> = m.into_iter().collect();
        assert_eq!(snap, expect);
    }

    #[test]
    fn tuple_keys() {
        let s: SplitOrderedSet<[u64; 2]> = SplitOrderedSet::new();
        for a in 0..120u64 {
            for b in 0..120u64 {
                assert!(s.insert([a, b]));
            }
        }
        assert_eq!(s.len(), 14_400);
        assert!(s.contains(&[100, 100]));
        assert!(!s.contains(&[100, 120]));
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let s = SplitOrderedSet::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..5_000 {
                        assert!(s.insert(t * 1_000_000 + i));
                    }
                });
            }
        });
        assert_eq!(s.len(), 40_000);
        for t in 0..8u64 {
            for i in (0..5_000).step_by(97) {
                assert!(s.contains(&(t * 1_000_000 + i)));
            }
        }
    }

    #[test]
    fn concurrent_overlapping_inserts_count_once() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let s = SplitOrderedSet::new();
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = &s;
                let wins = &wins;
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        if s.insert(i) {
                            wins.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Relaxed), 5_000);
        assert_eq!(s.len(), 5_000);
        let mut snap = s.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, (0..5_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_mixed_insert_and_contains() {
        let s = SplitOrderedSet::new();
        for i in 0..2_000u64 {
            s.insert(i * 2 + 1); // stable odds
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..3_000u64 {
                        s.insert(i * 8 + t * 2); // evens
                    }
                });
            }
            let s = &s;
            scope.spawn(move || {
                for i in 0..2_000u64 {
                    assert!(s.contains(&(i * 2 + 1)), "stable key vanished");
                }
            });
        });
    }

    #[test]
    fn remove_matches_model() {
        let s = SplitOrderedSet::new();
        let mut m = Model::new();
        let mut rng = 55u64;
        for _ in 0..30_000 {
            let k = splitmix(&mut rng) % 2_000;
            if splitmix(&mut rng).is_multiple_of(3) {
                assert_eq!(s.remove(&k), m.remove(&k), "remove({k})");
            } else {
                assert_eq!(s.insert(k), m.insert(k), "insert({k})");
            }
        }
        assert_eq!(s.len(), m.len());
        let mut snap = s.snapshot();
        snap.sort_unstable();
        let expect: Vec<u64> = m.into_iter().collect();
        assert_eq!(snap, expect);
    }

    #[test]
    fn remove_then_reinsert_revives_in_place() {
        let s = SplitOrderedSet::new();
        for i in 0..1_000u64 {
            s.insert(i);
        }
        for i in 0..1_000u64 {
            assert!(s.remove(&i));
            assert!(!s.contains(&i));
            assert!(!s.remove(&i), "double remove of {i} won twice");
        }
        assert!(s.is_empty());
        assert_eq!(s.snapshot().len(), 0);
        for i in 0..1_000u64 {
            assert!(s.insert(i), "revival of {i}");
        }
        assert_eq!(s.len(), 1_000);
    }

    #[test]
    fn concurrent_racing_removers_claim_each_key_once() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let s = SplitOrderedSet::new();
        for i in 0..5_000u64 {
            s.insert(i);
        }
        let wins = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = &s;
                let wins = &wins;
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        if s.remove(&i) {
                            wins.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Relaxed), 5_000);
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_remove_insert_churn_converges() {
        // Threads fight over the same small key space with inserts and
        // removes; afterwards every key must be in a definite state and
        // len must equal the surviving count.
        let s = SplitOrderedSet::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let s = &s;
                scope.spawn(move || {
                    for round in 0..2_000u64 {
                        let k = (round * 7 + t) % 64;
                        if (round + t) % 2 == 0 {
                            s.insert(k);
                        } else {
                            s.remove(&k);
                        }
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.len(), s.len());
        for k in snap {
            assert!(s.contains(&k));
        }
    }

    #[test]
    fn segment_mapping_is_consistent() {
        // bucket 0 → seg 0; buckets 1,2 → seg 1; 3..6 → seg 2; etc.
        assert_eq!(SplitOrderedSet::<u64>::segment_of(0), (0, 0));
        assert_eq!(SplitOrderedSet::<u64>::segment_of(1), (1, 0));
        assert_eq!(SplitOrderedSet::<u64>::segment_of(2), (1, 1));
        assert_eq!(SplitOrderedSet::<u64>::segment_of(3), (2, 0));
        assert_eq!(SplitOrderedSet::<u64>::segment_of(6), (2, 3));
        assert_eq!(SplitOrderedSet::<u64>::segment_of(7), (3, 0));
    }

    #[test]
    fn grows_past_many_resizes() {
        let s = SplitOrderedSet::new();
        for i in 0..100_000u64 {
            s.insert(i);
        }
        assert_eq!(s.len(), 100_000);
        assert!(s.size.load(Ordering::Relaxed) >= 100_000 / (2 * LOAD_FACTOR));
        for i in (0..100_000).step_by(991) {
            assert!(s.contains(&i));
        }
    }
}
