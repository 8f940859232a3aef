//! Figure 4 — parallel performance of insert operations (paper §4.2).
//!
//! Strong scaling: a fixed set of 2D points is partitioned among T threads
//! which insert concurrently. Parts: (a) ordered / (b) random with the
//! paper's single-socket thread sweep, (c) ordered / (d) random with the
//! multi-socket sweep. Cells are million inserts/second.
//!
//! Contestants: the optimistic B-tree with and without hints, Google-B-tree
//! analog behind a global lock, the parallel-reduction B-tree, and the
//! TBB-analog concurrent hash set.
//!
//! `--scale N` sets the total element count (default 1,000,000; the paper
//! uses 100M — pass `--scale 100000000` on a big machine). `--threads`
//! overrides the sweep.
//!
//! Note: scaling beyond the physical core count of the host only measures
//! oversubscription; the *shape* (which structure wins, how the global
//! lock flatlines) is what this reproduces.

use baselines::gbtree::GBTreeSet;
use baselines::global_lock::GlobalLock;
use baselines::lockcoupling::LockCouplingBTree;
use baselines::reduction::reduce_insert;
use baselines::splitorder::SplitOrderedSet;
use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, fmt_mops, print_row, Args};
use specbtree::BTreeSet;
use workloads::points::{partition_batches, points_2d};
use workloads::Stopwatch;

const CONTESTANTS: [&str; 6] = [
    "btree",
    "btree (n/h)",
    "google btree",
    "reduction btree",
    "TBB hashset",
    "lock-coupling btree",
];

fn run_one(name: &str, batches: &[Vec<[u64; 2]>], expected: usize) -> f64 {
    let sw = Stopwatch::start();
    match name {
        "btree" | "btree (n/h)" => {
            let hints = name == "btree";
            let tree: BTreeSet<2> = BTreeSet::new();
            std::thread::scope(|s| {
                for batch in batches {
                    let tree = &tree;
                    s.spawn(move || {
                        if hints {
                            let mut h = tree.create_hints();
                            for t in batch {
                                tree.insert_hinted(*t, &mut h);
                            }
                        } else {
                            for t in batch {
                                tree.insert(*t);
                            }
                        }
                    });
                }
            });
            let secs = sw.secs();
            assert_eq!(tree.len(), expected);
            expected as f64 / secs / 1e6
        }
        "google btree" => {
            let tree = GlobalLock::new(GBTreeSet::new());
            std::thread::scope(|s| {
                for batch in batches {
                    let tree = &tree;
                    s.spawn(move || {
                        for t in batch {
                            tree.with(|set| set.insert(*t));
                        }
                    });
                }
            });
            let secs = sw.secs();
            assert_eq!(tree.with(|s| s.len()), expected);
            expected as f64 / secs / 1e6
        }
        "reduction btree" => {
            let set = reduce_insert(batches.to_vec());
            let secs = sw.secs();
            assert_eq!(set.len(), expected);
            expected as f64 / secs / 1e6
        }
        "TBB hashset" => {
            let set: SplitOrderedSet<[u64; 2]> = SplitOrderedSet::new();
            std::thread::scope(|s| {
                for batch in batches {
                    let set = &set;
                    s.spawn(move || {
                        for t in batch {
                            set.insert(*t);
                        }
                    });
                }
            });
            let secs = sw.secs();
            assert_eq!(set.len(), expected);
            expected as f64 / secs / 1e6
        }
        "lock-coupling btree" => {
            // Ablation beyond the paper: classical pessimistic fine-grained
            // locking (see baselines::lockcoupling).
            let tree: LockCouplingBTree<[u64; 2]> = LockCouplingBTree::new();
            std::thread::scope(|s| {
                for batch in batches {
                    let tree = &tree;
                    s.spawn(move || {
                        for t in batch {
                            tree.insert(*t);
                        }
                    });
                }
            });
            let secs = sw.secs();
            assert_eq!(tree.len(), expected);
            expected as f64 / secs / 1e6
        }
        other => panic!("unknown contestant {other}"),
    }
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start(&args);
    let total = if args.scale == 0 {
        1_000_000
    } else {
        args.scale
    };
    let side = (total as f64).sqrt() as u64;

    let parts: [(&str, bool, Vec<usize>); 4] = [
        ("a", true, vec![1, 2, 4, 8, 12, 16]),
        ("b", false, vec![1, 2, 4, 8, 12, 16]),
        ("c", true, vec![1, 4, 8, 16, 24, 32]),
        ("d", false, vec![1, 4, 8, 16, 24, 32]),
    ];

    for (part, ordered, default_threads) in parts {
        if !args.wants_part(part) {
            continue;
        }
        let threads = if args.threads.is_empty() {
            default_threads
        } else {
            args.threads.clone()
        };
        let socket = if part == "a" || part == "b" {
            "single socket"
        } else {
            "multi socket"
        };
        let order = if ordered { "ordered" } else { "random" };
        println!(
            "\n== Figure 4{part}: parallel insertion ({order}, {socket}), {} elements [M inserts/s]",
            side * side
        );
        print_row(
            args.csv,
            "threads",
            &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        );
        let pts = points_2d(side, ordered, args.seed);
        for name in CONTESTANTS {
            let mut cells = Vec::new();
            for &t in &threads {
                let batches = partition_batches(&pts, t);
                cells.push(fmt_mops(run_one(name, &batches, pts.len())));
            }
            print_row(args.csv, name, &cells);
        }
    }

    emit_telemetry("fig4");
    obs.finish();
}
