//! The layers under the engine, driven with the workload's own output: the
//! tuples of its largest output relation, in sorted order and in a seeded
//! shuffle, are put through the public API of the storage seam
//! (`dyn RelationStorage`, tuples padded to `MAX_ARITY`), of the tree
//! itself (`BTreeSet<K>` at the relation's true arity) and of the lock.
//! Every op is one span, `replay.<layer>.<op>`, and one rate.
//!
//! [`single`] holds the ops one thread does and [`parallel`] the ones two
//! threads share, so that the child running with two workers — the one
//! that is expected to be able to crash — is the only one to run them.

use crate::trace::Tracer;
use crate::workload::shuffle;
use datalog::storage::{pad, RelationStorage, TupleBuf};
use datalog::StorageKind;
use optlock::OptimisticRwLock;
use specbtree::{BTreeSet, HintStats};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use workloads::rng::SplitMix64;

/// Named values, in the order they were measured.
pub type Metrics = Vec<(String, f64)>;

/// Lock round trips per `optlock.*` figure.
const LOCK_ROUNDS: u64 = 1 << 22;

fn shuffled<T: Copy>(sorted: &[T], seed: u64) -> Vec<T> {
    let mut v = sorted.to_vec();
    shuffle(&mut v, &mut SplitMix64::new(seed));
    v
}

/// Times `f` in a span and records `amount / seconds / 1e6` under `metric`.
fn rate(tr: &mut Tracer, m: &mut Metrics, metric: &str, amount: usize, f: impl FnOnce()) {
    let (layer, op) = metric.split_once('.').expect("metric names are layer.op");
    let op = op.trim_end_matches("_mops").trim_end_matches("_mtps");
    let ((), secs) = tr.span(&format!("replay.{layer}.{op}"), |_| f());
    m.push((metric.to_string(), amount as f64 / secs / 1e6));
}

fn tree_of<const K: usize>(tuples: impl Iterator<Item = [u64; K]>) -> BTreeSet<K> {
    let tree = BTreeSet::new();
    let mut hints = tree.create_hints();
    for t in tuples {
        tree.insert_hinted(t, &mut hints);
    }
    tree
}

fn halves<const K: usize>(sorted: &[[u64; K]]) -> (BTreeSet<K>, BTreeSet<K>) {
    (
        tree_of(sorted.iter().step_by(2).copied()),
        tree_of(sorted.iter().skip(1).step_by(2).copied()),
    )
}

fn specbtree_single<const K: usize>(
    sorted: &[[u64; K]],
    random: &[[u64; K]],
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let n = sorted.len();
    let mut hint_stats = HintStats::default();

    let full: BTreeSet<K> = BTreeSet::new();
    let mut hints = full.create_hints();
    rate(tr, m, "specbtree.insert_sorted_mops", n, || {
        assert_eq!(
            sorted
                .iter()
                .filter(|t| full.insert_hinted(**t, &mut hints))
                .count(),
            n
        );
    });
    rate(tr, m, "specbtree.contains_sorted_mops", n, || {
        assert_eq!(
            sorted
                .iter()
                .filter(|t| full.contains_hinted(t, &mut hints))
                .count(),
            n
        );
    });
    rate(tr, m, "specbtree.lower_bound_mops", n, || {
        assert_eq!(
            sorted
                .iter()
                .filter(|t| full.lower_bound_hinted(t, &mut hints).peek() == Some(**t))
                .count(),
            n
        );
    });
    rate(tr, m, "specbtree.contains_shuffled_mops", n, || {
        assert_eq!(
            random
                .iter()
                .filter(|t| full.contains_hinted(t, &mut hints))
                .count(),
            n
        );
    });
    rate(tr, m, "specbtree.scan_mtps", n, || {
        assert_eq!(black_box(full.iter().count()), n)
    });
    hint_stats.merge(&hints.stats);

    let scattered: BTreeSet<K> = BTreeSet::new();
    let mut hints = scattered.create_hints();
    rate(tr, m, "specbtree.insert_shuffled_mops", n, || {
        assert_eq!(
            random
                .iter()
                .filter(|t| scattered.insert_hinted(**t, &mut hints))
                .count(),
            n
        );
    });
    hint_stats.merge(&hints.stats);
    let stats = scattered.stats();
    m.push((
        "specbtree.bytes_per_tuple".into(),
        scattered.arena_stats().bytes_used as f64 / n as f64,
    ));
    m.push(("specbtree.leaf_fill".into(), stats.leaf_fill()));
    m.push(("specbtree.depth".into(), stats.depth as f64));
    m.push(("specbtree.hint_hit_rate".into(), hint_stats.hit_rate()));
    drop(scattered);

    let (into, from) = halves(sorted);
    rate(tr, m, "specbtree.merge_mtps", n / 2, || {
        into.insert_all(&from)
    });
    assert_eq!(into.len(), n);
    drop((into, from));

    rate(tr, m, "specbtree.remove_mops", n, || {
        assert_eq!(random.iter().filter(|t| full.remove(t)).count(), n);
    });
}

fn specbtree_parallel<const K: usize>(
    sorted: &[[u64; K]],
    random: &[[u64; K]],
    threads: usize,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let n = sorted.len();
    let shared: BTreeSet<K> = BTreeSet::new();
    rate(tr, m, "specbtree.insert_par_mops", n, || {
        std::thread::scope(|s| {
            for part in random.chunks(n.div_ceil(threads)) {
                let shared = &shared;
                s.spawn(move || {
                    let mut hints = shared.create_hints();
                    for t in part {
                        shared.insert_hinted(*t, &mut hints);
                    }
                });
            }
        });
    });
    m.push((
        "specbtree.insert_par_kept_share".into(),
        shared.len() as f64 / n as f64,
    ));
    drop(shared);

    let (into, from) = halves(sorted);
    rate(tr, m, "specbtree.merge_par_mtps", n / 2, || {
        into.insert_all_parallel(&from, threads);
    });
}

fn storage_of(tuples: &[TupleBuf]) -> Box<dyn RelationStorage> {
    let storage = StorageKind::SpecBTree.create();
    let mut ctx = storage.make_ctx();
    for t in tuples {
        storage.insert(t, &mut ctx);
    }
    storage
}

fn storage_single(
    sorted: &[TupleBuf],
    random: &[TupleBuf],
    arity: usize,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let n = sorted.len();
    let full = StorageKind::SpecBTree.create();
    let mut ctx = full.make_ctx();
    rate(tr, m, "storage.insert_sorted_mops", n, || {
        assert_eq!(
            sorted.iter().filter(|t| full.insert(t, &mut ctx)).count(),
            n
        );
    });
    rate(tr, m, "storage.contains_mops", n, || {
        assert_eq!(
            sorted.iter().filter(|t| full.contains(t, &mut ctx)).count(),
            n
        );
    });
    rate(tr, m, "storage.scan_prefix_mtps", n, || {
        // One prefix scan per distinct leading value, the shape of the
        // interpreter's inner scans.
        let mut seen = 0usize;
        let mut last = None;
        for t in sorted.iter().filter(|t| last.replace(t[0]) != Some(t[0])) {
            full.scan_prefix(&t[..1], &mut ctx, &mut |_| seen += 1);
        }
        assert_eq!(seen, n);
    });
    let ((), secs) = tr.span("replay.storage.len", |_| {
        assert_eq!(black_box(full.len()), n)
    });
    m.push(("storage.len_ms".into(), secs * 1e3));

    let scattered = StorageKind::SpecBTree.create();
    let mut sctx = scattered.make_ctx();
    rate(tr, m, "storage.insert_shuffled_mops", n, || {
        assert_eq!(
            random
                .iter()
                .filter(|t| scattered.insert(t, &mut sctx))
                .count(),
            n
        );
    });
    drop((sctx, scattered));

    // One secondary index (the columns reversed, as the planner registers
    // for a reverse join), kept up to date by every insert.
    let mut indexed = StorageKind::SpecBTree.create();
    let perm: Vec<usize> = (0..arity).rev().collect();
    indexed
        .add_index(&perm, 1)
        .expect("the specialised tree builds secondary indexes");
    let mut ictx = indexed.make_ctx();
    rate(tr, m, "storage.index_insert_mops", n, || {
        assert_eq!(
            sorted
                .iter()
                .filter(|t| indexed.insert(t, &mut ictx))
                .count(),
            n
        );
    });
    drop((ictx, indexed));

    let half: Vec<TupleBuf> = sorted.iter().step_by(2).copied().collect();
    let other: Vec<TupleBuf> = sorted.iter().skip(1).step_by(2).copied().collect();
    let (into, from) = (storage_of(&half), storage_of(&other));
    rate(tr, m, "storage.merge_mtps", other.len(), || {
        assert_eq!(into.merge_from(from.as_ref(), 1) as usize, other.len())
    });
    drop((into, from));

    rate(tr, m, "storage.remove_mops", n, || {
        assert_eq!(
            random.iter().filter(|t| full.remove(t, &mut ctx)).count(),
            n
        );
    });
}

fn optlock_single(tr: &mut Tracer, m: &mut Metrics) {
    let lock = OptimisticRwLock::new();
    let word = AtomicU64::new(0);
    let mut ns = |tr: &mut Tracer, metric: &str, f: &dyn Fn()| {
        let op = metric
            .trim_start_matches("optlock.")
            .trim_end_matches("_ns");
        let ((), secs) = tr.span(&format!("replay.optlock.{op}"), |_| {
            (0..LOCK_ROUNDS).for_each(|_| f())
        });
        m.push((metric.to_string(), secs * 1e9 / LOCK_ROUNDS as f64));
    };
    ns(tr, "optlock.read_ns", &|| {
        let lease = lock.start_read();
        black_box(word.load(Ordering::Relaxed));
        assert!(lock.end_read(lease));
    });
    ns(tr, "optlock.write_ns", &|| {
        lock.start_write();
        word.fetch_add(1, Ordering::Relaxed);
        lock.end_write();
    });
    ns(tr, "optlock.upgrade_ns", &|| {
        let lease = lock.start_read();
        assert!(lock.try_upgrade_to_write(lease));
        word.fetch_add(1, Ordering::Relaxed);
        lock.end_write();
    });
}

/// One reader validating leases against one writer that never rests: the
/// share of read phases a write invalidated.
fn optlock_contended(tr: &mut Tracer, m: &mut Metrics) {
    let lock = OptimisticRwLock::new();
    let word = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (failed, _) = tr.span("replay.optlock.contended", |_| {
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    lock.start_write();
                    word.fetch_add(1, Ordering::Relaxed);
                    lock.end_write();
                }
            });
            let failed = (0..LOCK_ROUNDS)
                .filter(|_| {
                    let lease = lock.start_read();
                    black_box(word.load(Ordering::Relaxed));
                    !lock.end_read(lease)
                })
                .count();
            done.store(true, Ordering::Relaxed);
            failed
        })
    });
    m.push((
        "optlock.contended_validate_fail_share".into(),
        failed as f64 / LOCK_ROUNDS as f64,
    ));
}

fn arrays<const K: usize>(tuples: &[Vec<u64>]) -> Vec<[u64; K]> {
    tuples
        .iter()
        .map(|t| std::array::from_fn(|c| t[c]))
        .collect()
}

/// Runs `f` on the tuples as `[u64; K]` arrays, sorted and shuffled, for
/// the arity the tuples have. The workloads' largest outputs are binary
/// (`path`, `reach`) or ternary (`hpt`).
macro_rules! at_arity {
    ($tuples:expr, $seed:expr, $f:ident($($arg:expr),*)) => {
        match $tuples.first().map_or(0, Vec::len) {
            2 => { let s = arrays::<2>($tuples); $f(&s, &shuffled(&s, $seed), $($arg),*) }
            3 => { let s = arrays::<3>($tuples); $f(&s, &shuffled(&s, $seed), $($arg),*) }
            k => panic!("no replay for arity {k}"),
        }
    };
}

/// The single-threaded ops of every layer.
pub fn single(tuples: &[Vec<u64>], seed: u64, tr: &mut Tracer) -> Metrics {
    let mut m = Metrics::new();
    let padded: Vec<TupleBuf> = tuples.iter().map(|t| pad(t)).collect();
    storage_single(
        &padded,
        &shuffled(&padded, seed),
        tuples[0].len(),
        tr,
        &mut m,
    );
    drop(padded);
    at_arity!(tuples, seed, specbtree_single(tr, &mut m));
    optlock_single(tr, &mut m);
    m
}

/// The ops `threads` threads share.
pub fn parallel(tuples: &[Vec<u64>], seed: u64, threads: usize, tr: &mut Tracer) -> Metrics {
    let mut m = Metrics::new();
    at_arity!(tuples, seed, specbtree_parallel(threads, tr, &mut m));
    optlock_contended(tr, &mut m);
    m
}
