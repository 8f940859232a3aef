//! Table 3 — throughput inserting 32-bit integers, comparing the
//! specialized B-tree with the PALM-tree, Masstree and B-slack-tree analogs
//! (paper §4.4).
//!
//! Rows are thread counts (paper: 1, 2, 4, 8); each cell is
//! `ordered/random` throughput in million elements/second.
//!
//! `--scale N` sets the key count (default 1,000,000; paper uses 10M).

use baselines::bslack::BSlackTree;
use baselines::masstree::MasstreeAnalog;
use baselines::palm::PalmTree;
use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, fmt_mops, print_row, Args};
use specbtree::BTreeSet;
use workloads::points::{keys_u32, partition_batches};
use workloads::Stopwatch;

fn bench_btree(batches: &[Vec<u32>], expected: usize) -> f64 {
    let tree: BTreeSet<1> = BTreeSet::new();
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        for batch in batches {
            let tree = &tree;
            s.spawn(move || {
                let mut h = tree.create_hints();
                for &k in batch {
                    tree.insert_hinted([k as u64], &mut h);
                }
            });
        }
    });
    let secs = sw.secs();
    assert_eq!(tree.len(), expected);
    expected as f64 / secs / 1e6
}

fn bench_palm(batches: &[Vec<u32>], expected: usize) -> f64 {
    let tree: PalmTree<u32> = PalmTree::new();
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        for batch in batches {
            let tree = &tree;
            s.spawn(move || {
                for &k in batch {
                    tree.insert(k);
                }
            });
        }
    });
    tree.flush();
    let secs = sw.secs();
    assert_eq!(tree.len(), expected);
    expected as f64 / secs / 1e6
}

fn bench_masstree(batches: &[Vec<u32>], expected: usize) -> f64 {
    let tree: MasstreeAnalog<1> = MasstreeAnalog::new();
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        for batch in batches {
            let tree = &tree;
            s.spawn(move || {
                for &k in batch {
                    tree.insert([k as u64]);
                }
            });
        }
    });
    let secs = sw.secs();
    assert_eq!(tree.len(), expected);
    expected as f64 / secs / 1e6
}

fn bench_bslack(batches: &[Vec<u32>], expected: usize) -> f64 {
    let tree: BSlackTree<u32> = BSlackTree::new();
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        for batch in batches {
            let tree = &tree;
            s.spawn(move || {
                for &k in batch {
                    tree.insert(k);
                }
            });
        }
    });
    let secs = sw.secs();
    assert_eq!(tree.len(), expected);
    expected as f64 / secs / 1e6
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start(&args);
    let n = if args.scale == 0 {
        1_000_000
    } else {
        args.scale
    };
    let threads = if args.threads.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        args.threads.clone()
    };

    println!(
        "\n== Table 3: throughput inserting {n} 32-bit integers [10^6 elements/s, ordered/random]"
    );
    print_row(
        args.csv,
        "Threads",
        &["B-tree", "PALM tree", "Masstree", "B-slack"]
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
    );

    let ordered = keys_u32(n, true, args.seed);
    let random = keys_u32(n, false, args.seed);

    type BenchFn = fn(&[Vec<u32>], usize) -> f64;
    let benches: [BenchFn; 4] = [bench_btree, bench_palm, bench_masstree, bench_bslack];

    for &t in &threads {
        let mut cells = Vec::new();
        for bench in benches {
            let o = bench(&partition_batches(&ordered, t), n);
            let r = bench(&partition_batches(&random, t), n);
            cells.push(format!("{}/{}", fmt_mops(o), fmt_mops(r)));
        }
        print_row(args.csv, &t.to_string(), &cells);
    }

    emit_telemetry("table3");
    obs.finish();
}
