//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **node capacity** — the B-tree's per-node key count (cache-line
//!   trade-off the paper tunes);
//! * **hints on/off** — the §3.2 mechanism, on the clustered workload it
//!   targets;
//! * **synchronization cost** — concurrent tree vs its sequential twin on
//!   one thread (the ≤25% overhead §4.1 reports);
//! * **bulk merge** — the specialized `insert_all` (empty-target bulk path)
//!   vs element-wise insertion;
//! * **key order by counting** — `sort_tuples` vs `sort_unstable` over
//!   batch sizes, key domains and widths: the measurement behind the
//!   kernel's digit width and its crossover to comparing.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use specbtree::seq::SeqBTreeSet;
use specbtree::{sort_tuples, BTreeSet};
use std::hint::black_box;
use workloads::points::points_2d;
use workloads::rng::SplitMix64;

const SIDE: u64 = 100;

fn node_capacity(c: &mut Criterion) {
    let pts = points_2d(SIDE, false, 7);
    let mut group = c.benchmark_group("ablation_node_capacity_random_insert");
    group.throughput(Throughput::Elements(SIDE * SIDE));

    fn run<const C: usize>(pts: &[[u64; 2]]) -> usize {
        let tree: BTreeSet<2, C> = BTreeSet::new();
        for t in pts {
            tree.insert(*t);
        }
        tree.len()
    }

    group.bench_function(BenchmarkId::from_parameter("C=8"), |b| {
        b.iter(|| black_box(run::<8>(&pts)))
    });
    group.bench_function(BenchmarkId::from_parameter("C=16"), |b| {
        b.iter(|| black_box(run::<16>(&pts)))
    });
    group.bench_function(BenchmarkId::from_parameter("C=24"), |b| {
        b.iter(|| black_box(run::<24>(&pts)))
    });
    group.bench_function(BenchmarkId::from_parameter("C=48"), |b| {
        b.iter(|| black_box(run::<48>(&pts)))
    });
    group.bench_function(BenchmarkId::from_parameter("C=96"), |b| {
        b.iter(|| black_box(run::<96>(&pts)))
    });
    group.finish();
}

fn hints_on_clustered_inserts(c: &mut Criterion) {
    // The paper's §3.2 pattern: evens first, then odds inside covered
    // ranges — the workload hints exist for.
    let evens: Vec<[u64; 2]> = (0..SIDE * SIDE / 2)
        .map(|i| [i / 50, (i % 50) * 2])
        .collect();
    let odds: Vec<[u64; 2]> = (0..SIDE * SIDE / 2)
        .map(|i| [i / 50, (i % 50) * 2 + 1])
        .collect();
    let mut group = c.benchmark_group("ablation_hints_clustered_insert");
    group.throughput(Throughput::Elements(SIDE * SIDE));

    group.bench_function("hinted", |b| {
        b.iter(|| {
            let tree: BTreeSet<2> = BTreeSet::new();
            let mut h = tree.create_hints();
            for t in evens.iter().chain(&odds) {
                tree.insert_hinted(*t, &mut h);
            }
            black_box(h.stats.insert_hits)
        })
    });
    group.bench_function("unhinted", |b| {
        b.iter(|| {
            let tree: BTreeSet<2> = BTreeSet::new();
            for t in evens.iter().chain(&odds) {
                tree.insert(*t);
            }
            black_box(tree.is_empty())
        })
    });
    group.finish();
}

fn synchronization_cost(c: &mut Criterion) {
    let pts = points_2d(SIDE, true, 7);
    let mut group = c.benchmark_group("ablation_sync_overhead_ordered_insert");
    group.throughput(Throughput::Elements(SIDE * SIDE));

    group.bench_function("concurrent tree (1 thread)", |b| {
        b.iter(|| {
            let tree: BTreeSet<2> = BTreeSet::new();
            for t in &pts {
                tree.insert(*t);
            }
            black_box(tree.is_empty())
        })
    });
    group.bench_function("sequential twin", |b| {
        b.iter(|| {
            let mut tree: SeqBTreeSet<2> = SeqBTreeSet::new();
            for t in &pts {
                tree.insert(*t);
            }
            black_box(tree.is_empty())
        })
    });
    group.finish();
}

fn bulk_merge(c: &mut Criterion) {
    let src: BTreeSet<2> = BTreeSet::from_sorted(points_2d(SIDE, true, 0));
    let mut group = c.benchmark_group("ablation_merge_into_empty");
    group.throughput(Throughput::Elements(SIDE * SIDE));

    group.bench_function("specialized insert_all (bulk path)", |b| {
        b.iter(|| {
            let dst: BTreeSet<2> = BTreeSet::new();
            dst.insert_all(&src);
            black_box(dst.is_empty())
        })
    });
    group.bench_function("element-wise inserts", |b| {
        b.iter(|| {
            let dst: BTreeSet<2> = BTreeSet::new();
            for t in src.iter() {
                dst.insert(t);
            }
            black_box(dst.is_empty())
        })
    });
    group.finish();
}

/// 2²⁰ tuples sorted `n` at a time, every slice fresh from the generator:
/// the same slice sorted again and again teaches the branch predictor its
/// comparisons (`sort_unstable` reads 2.5× faster that way at `n` = 1 024).
/// Dense domains are what the engine sorts; on full-width keys the kernel
/// sweeps once for the bits that vary and hands over to `sort_unstable`.
fn key_order_by_counting(c: &mut Criterion) {
    const POOL: usize = 1 << 20;

    fn run<const K: usize>(c: &mut Criterion, n: usize, bits: u32) {
        let mut rng = SplitMix64::new(n as u64 ^ u64::from(bits));
        let pool: Vec<[u64; K]> = (0..POOL)
            .map(|_| std::array::from_fn(|_| rng.next_u64() >> (64 - bits)))
            .collect();
        let mut group = c.benchmark_group(format!("sort_tuples/K={K}/domain=2^{bits}"));
        group.throughput(Throughput::Elements(POOL as u64));
        let mut scratch = Vec::new();
        group.bench_function(BenchmarkId::new("sort_tuples", n), |b| {
            let sort = |mut pool: Vec<[u64; K]>| {
                pool.chunks_mut(n)
                    .for_each(|slice| sort_tuples(slice, &mut scratch));
                pool
            };
            b.iter_batched(|| pool.clone(), sort, BatchSize::LargeInput)
        });
        group.bench_function(BenchmarkId::new("sort_unstable", n), |b| {
            let sort = |mut pool: Vec<[u64; K]>| {
                pool.chunks_mut(n).for_each(<[_]>::sort_unstable);
                pool
            };
            b.iter_batched(|| pool.clone(), sort, BatchSize::LargeInput)
        });
        group.finish();
    }

    for bits in [11, 32, 64] {
        for n in [64, 1 << 8, 1 << 10, 1 << 12, POOL] {
            run::<2>(c, n, bits);
            run::<3>(c, n, bits);
        }
    }
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = node_capacity, hints_on_clustered_inserts, synchronization_cost, bulk_merge,
        key_order_by_counting
}
criterion_main!(benches);
