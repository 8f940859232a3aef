//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **node capacity** — the B-tree's per-node key count (cache-line
//!   trade-off the paper tunes);
//! * **hints on/off** — the §3.2 mechanism, on the clustered workload it
//!   targets;
//! * **synchronization cost** — concurrent tree vs its sequential twin on
//!   one thread (the ≤25% overhead §4.1 reports);
//! * **bulk merge** — an empty target filled by `insert_all`, as runs, vs
//!   element-wise insertion;
//! * **key order by counting** — `sort_tuples` vs `sort_unstable` over
//!   batch sizes, key domains and widths, and a block's keys sorted on the
//!   key alone vs whole: the measurement behind the kernel's widest digit
//!   and its crossover to comparing;
//! * **runs, not tuples** — a batch checked against one tree and inserted
//!   into another tuple by tuple through hints, the other then merged into
//!   the first, against the batch sorted into a run and merged into the
//!   first tree by one `insert_run` whose reported keys are the second:
//!   the layer number under the engine's flush and merge, and where a
//!   crossover would show if a sparse batch ever lost;
//! * **reads by blocks** — a join's inner scan, and a check at step 2,
//!   looked up once per binding through a hint, against a block of bindings
//!   sorted by key that looks each distinct key up once: the layer number
//!   under the engine's blocks (`eval.rs`, `BLOCK`), with the sorted block
//!   looked up once per binding as the scan's control;
//! * **a keyed sweep against an index** — bindings that enter a 1.8 M-pair
//!   relation through its second column, served by the whole relation
//!   replayed for every binding, by one pass a block that keeps what
//!   matches the block's keys, and by a `[1, 0]` index built for them and
//!   probed; and the index's build alone: the crossover the planner's
//!   `INDEX_COST` prices.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use datalog::storage::{RelationStorage, StorageCtx, TupleBuf};
use datalog::StorageKind;
use specbtree::seq::SeqBTreeSet;
use specbtree::{sort_tuples, BTreeHints, BTreeSet};
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

/// An empty target filled by a tree: as runs, the one way a tree goes into
/// a tree (the first fills and splits the root leaf, the rest go in by leaf
/// groups), against a point insert per tuple.
fn bulk_merge(c: &mut Criterion) {
    let src: BTreeSet<2> = BTreeSet::from_sorted(points_2d(SIDE, true, 0));
    let mut group = c.benchmark_group("ablation_merge_into_empty");
    group.throughput(Throughput::Elements(SIDE * SIDE));

    group.bench_function("insert_all (runs)", |b| {
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
/// Dense domains are what the engine sorts — 2¹¹ and 2¹² are `tc_random`'s
/// and `security`'s identifiers, 2¹³ the widest digit — and on full-width
/// keys the kernel sweeps once for the bits that vary and hands over to
/// `sort_unstable`. The block case is a block's keys: `K − 1` key columns
/// and the binding's offset, ascending in each slice as pushed, sorted on
/// the key alone (`lead = K − 1`) against sorting whole tuples.
fn key_order_by_counting(c: &mut Criterion) {
    const POOL: usize = 1 << 20;

    fn pool<const K: usize>(n: usize, bits: u32) -> Vec<[u64; K]> {
        let mut rng = SplitMix64::new(n as u64 ^ u64::from(bits));
        (0..POOL)
            .map(|_| std::array::from_fn(|_| rng.next_u64() >> (64 - bits)))
            .collect()
    }

    fn bench<const K: usize>(
        group: &mut criterion::BenchmarkGroup<'_>,
        (name, n): (&str, usize),
        pool: &[[u64; K]],
        mut sort: impl FnMut(&mut [[u64; K]]),
    ) {
        group.bench_function(BenchmarkId::new(name, n), |b| {
            let sort = |mut pool: Vec<[u64; K]>| {
                sort(&mut pool);
                pool
            };
            b.iter_batched(|| pool.to_vec(), sort, BatchSize::LargeInput)
        });
    }

    fn run<const K: usize>(c: &mut Criterion, n: usize, bits: u32) {
        let pool = pool::<K>(n, bits);
        let mut group = c.benchmark_group(format!("sort_tuples/K={K}/domain=2^{bits}"));
        group.throughput(Throughput::Elements(POOL as u64));
        let mut scratch = Vec::new();
        bench(&mut group, ("sort_tuples", n), &pool, |pool| {
            pool.chunks_mut(n)
                .for_each(|slice| sort_tuples(slice, K, &mut scratch))
        });
        bench(&mut group, ("sort_unstable", n), &pool, |pool| {
            pool.chunks_mut(n).for_each(<[_]>::sort_unstable)
        });
        group.finish();
    }

    fn block<const K: usize>(c: &mut Criterion, n: usize, bits: u32) {
        let mut pool = pool::<K>(n, bits);
        let offsets = (0..n as u64).cycle().map(|i| i * K as u64);
        pool.iter_mut().zip(offsets).for_each(|(t, i)| t[K - 1] = i);
        let mut group = c.benchmark_group(format!("sort_tuples/block/K={K}/domain=2^{bits}"));
        group.throughput(Throughput::Elements(POOL as u64));
        let mut scratch = Vec::new();
        for (name, lead) in [("key_alone", K - 1), ("whole", K)] {
            bench(&mut group, (name, n), &pool, |pool| {
                pool.chunks_mut(n)
                    .for_each(|slice| sort_tuples(slice, lead, &mut scratch))
            });
        }
        group.finish();
    }

    for bits in [11, 12, 13, 32, 64] {
        for n in [64, 1 << 8, 1 << 10, 1 << 12, POOL] {
            run::<2>(c, n, bits);
            run::<3>(c, n, bits);
        }
    }
    for bits in [11, 12] {
        for n in [1 << 10, 1 << 12] {
            block::<2>(c, n, bits);
            block::<3>(c, n, bits);
        }
    }
}

/// Figure 1's check-then-insert over one batch, both ways. `full` holds the
/// even values of `0..2n` as pairs, packed 24 to a leaf; a batch is `len`
/// distinct values out of one window of the domain, wide enough for
/// `per_leaf` of them to fall into each of `full`'s leaves it covers, half of
/// them present, in the order a join would emit them. Both ways end with
/// `full` holding the batch and a tree that started empty — the next delta —
/// holding what `full` lacked. `per_tuple_hinted` is Figure 1: a hinted
/// `contains` on `full` and a hinted insert into the delta per tuple, then
/// the delta merged into `full`; `runs` is the engine's flush and merge: the
/// batch sorted into a run, merged into `full` by one `insert_run`, and what
/// it reports merged into the delta as one run. A fresh copy of `full` is
/// built outside the clock for every call. Sizes whose window would not fit
/// the tree are left out.
fn run_path(c: &mut Criterion) {
    const LEAF: u64 = 25; // 24 keys and the separator that follows them
    let pair = |v: u64| [v / 1_000, v % 1_000];
    for n in [10_000u64, 1_000_000] {
        let full = || BTreeSet::<2>::from_sorted((0..n).map(|i| pair(2 * i)));
        for len in [64u64, 1_024, 16_384] {
            for (label, per_leaf) in [("0.1", 0.1f64), ("1", 1.0), ("8", 8.0)] {
                let window = (len as f64 / per_leaf) as u64 * LEAF * 2;
                if window > 2 * n {
                    continue;
                }
                let mut rng = SplitMix64::new(n ^ len ^ window);
                let start = rng.below(2 * n - window + 1);
                let mut batch: Vec<[u64; 2]> = Vec::new();
                while (batch.len() as u64) < len {
                    batch.extend((0..len).map(|_| pair(start + rng.below(window))));
                    batch.sort_unstable();
                    batch.dedup();
                }
                batch.truncate(len as usize);
                for i in (1..batch.len()).rev() {
                    batch.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let mut group = c.benchmark_group(format!("run_path/tree={n}/per_leaf={label}"));
                group.throughput(Throughput::Elements(len));
                group.bench_function(BenchmarkId::new("per_tuple_hinted", len), |b| {
                    let apply = |full: BTreeSet<2>| {
                        let new = BTreeSet::new();
                        let (mut seen, mut put) = (full.create_hints(), new.create_hints());
                        for t in &batch {
                            if !full.contains_hinted(t, &mut seen) {
                                new.insert_hinted(*t, &mut put);
                            }
                        }
                        full.insert_all(&new);
                        (full, new)
                    };
                    b.iter_batched(full, apply, BatchSize::LargeInput)
                });
                group.bench_function(BenchmarkId::new("runs", len), |b| {
                    let mut scratch = Vec::new();
                    let mut apply = |(full, mut run): (BTreeSet<2>, Vec<[u64; 2]>)| {
                        sort_tuples(&mut run, 2, &mut scratch);
                        run.dedup();
                        let (delta, mut added) = (BTreeSet::<2>::new(), Vec::new());
                        full.insert_run(&run, |t| added.push(*t));
                        delta.insert_run(&added, |_| {});
                        (full, delta)
                    };
                    b.iter_batched(
                        || (full(), batch.clone()),
                        &mut apply,
                        BatchSize::LargeInput,
                    )
                });
                group.finish();
            }
        }
    }
}

/// Calls `f` for every pair of `tree` under `key`, through `hints`: Figure
/// 1's hinted `lower_bound` on a tree of pairs.
fn scan_key(tree: &BTreeSet<2>, hints: &mut BTreeHints<2>, key: u64, mut f: impl FnMut(&[u64; 2])) {
    for t in tree.lower_bound_hinted(&[key, 0], hints) {
        if t[0] != key {
            break;
        }
        f(&t);
    }
}

/// Figure 1's first inner scan over `len` bindings, three ways. The inner
/// tree holds `n` pairs whose first column takes `n / 2` values: the size of
/// `tc_random`'s `edge` (3 000) and about that of `security`'s `conn`
/// (10 000). A binding is a key drawn uniformly from that column, in the
/// order a delta scan would hand it out, and a payload; each binding folds
/// its range with its payload. `per_binding_hinted` looks every binding up
/// through one hint, as Figure 1 does; `block` sorts the bindings by key
/// with their positions, reads each distinct key's range once through
/// `prefix_range`, unhinted and walked by `for_each` as the engine's
/// `scan_prefix` reads it, and replays that range for every binding that
/// shares it; the control `sorted_per_binding` sorts them the same way and
/// looks every binding up through the hint.
fn block_join(c: &mut Criterion) {
    for n in [3_000u64, 10_000] {
        let mut rng = SplitMix64::new(n);
        let mut pairs: Vec<[u64; 2]> = (0..n).map(|_| [rng.below(n / 2), rng.below(n)]).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let tree: BTreeSet<2> = BTreeSet::from_sorted(pairs);
        for len in [1_024usize, 4_096, 16_384] {
            let bindings: Vec<[u64; 2]> = (0..len)
                .map(|_| [rng.below(n / 2), rng.next_u64()])
                .collect();
            let mut group = c.benchmark_group(format!("block_join/tree={n}"));
            group.throughput(Throughput::Elements(len as u64));
            let mut hints = tree.create_hints();
            group.bench_function(BenchmarkId::new("per_binding_hinted", len), |b| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for &[key, payload] in &bindings {
                        scan_key(&tree, &mut hints, key, |t| {
                            acc = acc.wrapping_add(t[1] ^ payload)
                        });
                    }
                    black_box(acc)
                })
            });
            let (mut keyed, mut scratch, mut range) = (Vec::new(), Vec::new(), Vec::new());
            let mut sorted = |keyed: &mut Vec<[u64; 2]>| {
                keyed.clear();
                keyed.extend(bindings.iter().zip(0..).map(|(&[key, _], i)| [key, i]));
                sort_tuples(keyed, 1, &mut scratch);
            };
            group.bench_function(BenchmarkId::new("block", len), |b| {
                b.iter(|| {
                    sorted(&mut keyed);
                    let mut acc = 0u64;
                    for run in keyed.chunk_by(|a, b| a[0] == b[0]) {
                        range.clear();
                        tree.prefix_range(&run[0][..1]).for_each(|t| range.push(t));
                        for &[_, i] in run {
                            let payload = bindings[i as usize][1];
                            range
                                .iter()
                                .for_each(|t| acc = acc.wrapping_add(t[1] ^ payload));
                        }
                    }
                    black_box(acc)
                })
            });
            group.bench_function(BenchmarkId::new("sorted_per_binding", len), |b| {
                b.iter(|| {
                    sorted(&mut keyed);
                    let mut acc = 0u64;
                    for &[key, i] in &keyed {
                        let payload = bindings[i as usize][1];
                        scan_key(&tree, &mut hints, key, |t| {
                            acc = acc.wrapping_add(t[1] ^ payload)
                        });
                    }
                    black_box(acc)
                })
            });
            group.finish();
            block_check(c, n, &tree, len, &mut rng);
        }
    }
}

/// A check at step 2 over `len` bindings, both ways: each binding probes a
/// fully bound pair of `tree`, drawn from `len / 4` pairs half of which the
/// tree holds, so a block shares each probe among about four bindings, as
/// `pointsto`'s `probe vpt(v4,v0)` does (788 K probes, 152 K distinct per
/// block). `per_binding_hinted` makes one `contains` per binding through
/// one hint, in the order step 1's replay hands them out; `block` sorts the
/// probes with their positions, makes one `contains` per distinct pair and
/// replays the answer for every binding that shares it.
fn block_check(c: &mut Criterion, n: u64, tree: &BTreeSet<2>, len: usize, rng: &mut SplitMix64) {
    let held: Vec<[u64; 2]> = tree.iter().collect();
    let pool: Vec<[u64; 2]> = (0..len / 4)
        .map(|i| match i % 2 {
            0 => held[rng.below(held.len() as u64) as usize],
            _ => [rng.next_u64() >> 40, rng.next_u64() >> 40],
        })
        .collect();
    let probes: Vec<[u64; 2]> = (0..len)
        .map(|_| pool[rng.below(pool.len() as u64) as usize])
        .collect();
    let mut group = c.benchmark_group(format!("block_join/check/tree={n}"));
    group.throughput(Throughput::Elements(len as u64));
    let mut hints = tree.create_hints();
    group.bench_function(BenchmarkId::new("per_binding_hinted", len), |b| {
        b.iter(|| {
            let found = probes
                .iter()
                .filter(|p| tree.contains_hinted(p, &mut hints));
            black_box(found.count())
        })
    });
    let (mut keyed, mut scratch) = (Vec::new(), Vec::new());
    group.bench_function(BenchmarkId::new("block", len), |b| {
        b.iter(|| {
            keyed.clear();
            keyed.extend(probes.iter().zip(0..).map(|(&[x, y], i)| [x, y, i]));
            sort_tuples(&mut keyed, 2, &mut scratch);
            let mut found = 0usize;
            for run in keyed.chunk_by(|a, b| a[..2] == b[..2]) {
                if tree.contains_hinted(&[run[0][0], run[0][1]], &mut hints) {
                    found += run.len();
                }
            }
            black_box(found)
        })
    });
    group.finish();
}

/// The pairs of a dense closure, `(x, y)` over 1 500 × 1 500 vertices with
/// four in five held — the size and shape of `tc_random`'s 1.8 M-tuple
/// `path`, which a retraction enters through its second column — as one
/// sorted run of words.
fn closure_pairs() -> Vec<u64> {
    let mut rng = SplitMix64::new(1_500);
    let mut words = Vec::new();
    for x in 0..1_500u64 {
        for y in 0..1_500u64 {
            if rng.below(5) != 0 {
                words.extend([x, y]);
            }
        }
    }
    words
}

/// A storage of pairs as the engine builds one, holding `words`.
fn pair_storage(words: &[u64]) -> Box<dyn RelationStorage> {
    let storage = StorageKind::SpecBTree.create_for(2);
    storage.merge_runs(&[words], None, 1);
    storage
}

/// The engine's block size (`eval.rs`, `BLOCK`).
const BLOCK: usize = 4_096;

/// `bindings` (a key of the relation's second column and a payload each)
/// sorted by key a block at a time, with each block's distinct keys:
/// `keyed` holds `[key, binding]` sorted, and `f` runs for every block.
fn by_blocks(
    bindings: &[[u64; 2]],
    keyed: &mut Vec<[u64; 2]>,
    scratch: &mut Vec<u64>,
    mut f: impl FnMut(&[[u64; 2]]),
) {
    for (b, block) in bindings.chunks(BLOCK).enumerate() {
        keyed.clear();
        let at = (b * BLOCK) as u64;
        keyed.extend(block.iter().zip(at..).map(|(&[key, _], i)| [key, i]));
        sort_tuples(keyed, 1, scratch);
        f(keyed);
    }
}

/// Adds `t[0] ^ payload` to `acc` for every match `t` of every binding
/// under one key: the replay all three ways share.
fn replay<'a>(
    bindings: &[[u64; 2]],
    run: impl IntoIterator<Item = &'a [u64; 2]>,
    matches: &[TupleBuf],
    acc: &mut u64,
) {
    for &[_, i] in run {
        let payload = bindings[i as usize][1];
        matches
            .iter()
            .for_each(|t| *acc = acc.wrapping_add(t[0] ^ payload));
    }
}

/// Bindings that enter a 1.8 M-pair relation through its second column,
/// three ways, at 30 (the deleted edges of `tc_random`'s retraction), 4 096
/// (a block) and 40 000 (past the crossover, ten blocks) bindings:
/// `replay_whole` reads the relation once into a buffer and replays all of
/// it for every binding, filtering on the key — what a scan with no bound
/// prefix did — and is timed at 30 bindings only, for at 4 096 it reads
/// 7 G tuples; `keyed_sweep` makes one pass a block, keeping the tuples
/// whose second column is one of the block's keys (found through an open
/// addressing table, as `eval.rs`'s `sweep` does), and replays each kept
/// tuple for the bindings under its key; `index_and_probes` builds a `[1, 0]`
/// index on a fresh copy of the relation (the copy outside the clock) and
/// reads each distinct key's range through it. Every way replays the same
/// matches.
fn block_sweep(c: &mut Criterion) {
    let words = closure_pairs();
    let rel = pair_storage(&words);
    let mut rng = SplitMix64::new(30);
    for len in [30usize, 4_096, 40_000] {
        let bindings: Vec<[u64; 2]> = (0..len)
            .map(|_| [rng.below(1_500), rng.next_u64()])
            .collect();
        let mut group = c.benchmark_group("block_join/sweep");
        group.throughput(Throughput::Elements(len as u64));
        let (mut keyed, mut scratch, mut range) = (Vec::new(), Vec::new(), Vec::new());
        let mut ctx = StorageCtx;
        if len == 30 {
            group.bench_function(BenchmarkId::new("replay_whole", len), |b| {
                b.iter(|| {
                    let mut acc = 0u64;
                    by_blocks(&bindings, &mut keyed, &mut scratch, |keyed| {
                        range.clear();
                        rel.scan_prefix(&[], &mut ctx, &mut |t| range.push(*t));
                        for &[key, i] in keyed {
                            let payload = bindings[i as usize][1];
                            for t in range.iter().filter(|t| t[1] == key) {
                                acc = acc.wrapping_add(t[0] ^ payload);
                            }
                        }
                    });
                    black_box(acc)
                })
            });
        }
        let (mut table, mut kept): (Vec<u64>, Vec<(usize, TupleBuf)>) = (Vec::new(), Vec::new());
        group.bench_function(BenchmarkId::new("keyed_sweep", len), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                by_blocks(&bindings, &mut keyed, &mut scratch, |keyed| {
                    let firsts =
                        || (0..keyed.len()).filter(|&i| i == 0 || keyed[i - 1][0] != keyed[i][0]);
                    let slots = (4 * firsts().count()).next_power_of_two();
                    let slot = |k: u64| {
                        (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - slots.trailing_zeros()))
                            as usize
                    };
                    table.clear();
                    table.resize(slots, 0);
                    for i in firsts() {
                        let mut s = slot(keyed[i][0]);
                        while table[s] != 0 {
                            s = (s + 1) & (slots - 1);
                        }
                        table[s] = i as u64 + 1;
                    }
                    kept.clear();
                    rel.scan_prefix(&[], &mut ctx, &mut |t| {
                        let mut s = slot(t[1]);
                        while let Some(i) = table[s].checked_sub(1).map(|i| i as usize) {
                            if keyed[i][0] == t[1] {
                                return kept.push((i, *t));
                            }
                            s = (s + 1) & (slots - 1);
                        }
                    });
                    for &(i, t) in &kept {
                        let run = keyed[i..].iter().take_while(|k| k[0] == t[1]);
                        replay(&bindings, run, std::slice::from_ref(&t), &mut acc);
                    }
                });
                black_box(acc)
            })
        });
        group.bench_function(BenchmarkId::new("index_and_probes", len), |b| {
            b.iter_batched(
                || pair_storage(&words),
                |mut rel| {
                    let id = rel.add_index(&[1, 0], 1).expect("the tree indexes");
                    let mut acc = 0u64;
                    by_blocks(&bindings, &mut keyed, &mut scratch, |keyed| {
                        for run in keyed.chunk_by(|a, b| a[0] == b[0]) {
                            range.clear();
                            let push = &mut |t: &TupleBuf| range.push(*t);
                            rel.scan_index(id, &[1, 0], &[run[0][0]], &mut ctx, push);
                            replay(&bindings, run, &range, &mut acc);
                        }
                    });
                    (black_box(acc), rel)
                },
                BatchSize::PerIteration,
            )
        });
        group.finish();
    }
}

/// A `[1, 0]` index built on the 1.8 M-pair relation of [`block_sweep`]
/// (`add_index`: three walks of the primary, the counting sort and the bulk
/// load), each on a fresh copy built outside the clock; the throughput is
/// backfilled tuples. What `INDEX_COST` weighs a pass against.
fn index_build(c: &mut Criterion) {
    let words = closure_pairs();
    let mut group = c.benchmark_group("index_build");
    group.throughput(Throughput::Elements((words.len() / 2) as u64));
    group.bench_function(BenchmarkId::new("add_index", "pairs=1.8M"), |b| {
        b.iter_batched(
            || pair_storage(&words),
            |mut rel| (rel.add_index(&[1, 0], 1), rel),
            BatchSize::PerIteration,
        )
    });
    group.finish();
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
        key_order_by_counting, run_path, block_join, block_sweep, index_build
}
criterion_main!(benches);
