//! # bench-suite — the paper's evaluation harness
//!
//! One binary per table/figure of the paper's §4 (see DESIGN.md's
//! per-experiment index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3` | Figure 3 (a–f): sequential insert / membership / scan |
//! | `fig4` | Figure 4 (a–d): parallel insertion scaling |
//! | `fig5` | Figure 5 (a–b): Datalog engine end-to-end |
//! | `table2` | Table 2: workload properties & operation statistics |
//! | `table3` | Table 3: 32-bit integer insertion vs PALM/Masstree/B-slack |
//!
//! All binaries accept `--scale`, `--threads`, `--seed` and `--trace-out`
//! flags (see [`Args`]); defaults are scaled down from the paper's
//! 100M-element runs so the full suite completes on a laptop. This library
//! hosts the shared pieces: a tiny CLI parser, table formatting, the
//! [`obs::ObsSession`] behind `--trace-out`, and the [`BenchSet`] adapter
//! that gives every §4.1 contestant a uniform surface.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use baselines::gbtree::GBTreeSet;
use baselines::hashset::HashSet as ChainedHashSet;
use baselines::rbtree::RbTreeSet;
use baselines::splitorder::SplitOrderedSet;
use specbtree::seq::{SeqBTreeSet, SeqHints};
use specbtree::{BTreeHints, BTreeSet};

pub mod obs;

/// Prints the merged telemetry snapshot as a table and writes it as
/// `TELEMETRY_<name>.json` ([`telemetry::Snapshot::to_json`]). Silent
/// no-op when the `telemetry` feature is off, so every bin can call it
/// unconditionally.
pub fn emit_telemetry(name: &str) {
    let snap = telemetry::snapshot();
    if !snap.enabled {
        return;
    }
    println!("-- telemetry ({name}) --");
    print!("{}", snap.to_table());
    let path = format!("TELEMETRY_{name}.json");
    std::fs::write(&path, snap.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Minimal command-line arguments shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload scale knob (meaning depends on the binary; see its docs).
    pub scale: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// RNG seed for shuffles/generators.
    pub seed: u64,
    /// Which figure part(s) to run (`a`, `b`, ...; empty = all).
    pub part: Option<String>,
    /// Emit machine-readable CSV instead of aligned tables.
    pub csv: bool,
    /// Write a Chrome trace-event file of the run's spans here
    /// (`--trace-out PATH`; needs the `telemetry` feature).
    pub trace_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            scale: 0, // 0 = binary-specific default
            threads: vec![],
            seed: 42,
            part: None,
            csv: false,
            trace_out: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`. Unknown flags abort with a usage hint.
    pub fn parse() -> Self {
        let mut out = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut take = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match a.as_str() {
                "--scale" => out.scale = take("--scale").parse().expect("--scale: integer"),
                "--seed" => out.seed = take("--seed").parse().expect("--seed: integer"),
                "--part" => out.part = Some(take("--part")),
                "--csv" => out.csv = true,
                "--trace-out" => out.trace_out = Some(take("--trace-out")),
                "--threads" => {
                    out.threads = take("--threads")
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .expect("--threads: comma-separated integers")
                        })
                        .collect()
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale N  --threads 1,2,4  --seed N  --part a  --csv  \
                         --trace-out PATH"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other} (try --help)"),
            }
        }
        out
    }

    /// Whether figure part `p` was requested (all parts when unset).
    pub fn wants_part(&self, p: &str) -> bool {
        self.part.as_deref().map(|sel| sel == p).unwrap_or(true)
    }
}

/// Prints a table row: a label column followed by right-aligned numbers.
pub fn print_row(csv: bool, label: &str, cells: &[String]) {
    if csv {
        println!("{label},{}", cells.join(","));
    } else {
        print!("{label:<22}");
        for c in cells {
            print!(" {c:>12}");
        }
        println!();
    }
}

/// Formats a throughput in million ops/second.
pub fn fmt_mops(v: f64) -> String {
    format!("{v:.2}")
}

/// Uniform adapter over the sequential §4.1 contestants (paper Table 1).
///
/// `contains`/`scan` take `&mut self` so hint-carrying structures can
/// update their hints, exactly as the paper's engine threads hints through
/// operations.
pub trait BenchSet {
    /// Inserts a 2D point.
    fn insert(&mut self, t: [u64; 2]) -> bool;
    /// Membership test.
    fn contains(&mut self, t: &[u64; 2]) -> bool;
    /// Iterates every element, returning the count (full-range scan).
    fn scan_count(&mut self) -> usize;
    /// The label used in the paper's figures.
    fn label(&self) -> &'static str;
}

/// The §4.1 contestant list (Figure 3 legends).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contestant {
    /// Google's B-tree analog.
    GoogleBTree,
    /// Sequential specialized B-tree with hints.
    SeqBTree,
    /// Sequential specialized B-tree without hints.
    SeqBTreeNoHints,
    /// Concurrent specialized B-tree with hints.
    BTree,
    /// Concurrent specialized B-tree without hints.
    BTreeNoHints,
    /// Red-black tree (`std::set` analog).
    StlRbtset,
    /// Node-based chained hash set (`std::unordered_set` analog).
    StlHashset,
    /// Lock-free split-ordered hash set (TBB analog).
    TbbHashset,
}

impl Contestant {
    /// All contestants in the paper's legend order.
    pub const ALL: [Contestant; 8] = [
        Contestant::GoogleBTree,
        Contestant::SeqBTree,
        Contestant::SeqBTreeNoHints,
        Contestant::BTree,
        Contestant::BTreeNoHints,
        Contestant::StlRbtset,
        Contestant::StlHashset,
        Contestant::TbbHashset,
    ];

    /// Creates an empty instance.
    pub fn create(&self) -> Box<dyn BenchSet> {
        match self {
            Contestant::GoogleBTree => Box::new(GoogleBTreeBench(GBTreeSet::new())),
            Contestant::SeqBTree => {
                let tree = SeqBTreeSet::new();
                let hints = tree.create_hints();
                Box::new(SeqBTreeBench {
                    tree,
                    hints: Some(hints),
                })
            }
            Contestant::SeqBTreeNoHints => Box::new(SeqBTreeBench {
                tree: SeqBTreeSet::new(),
                hints: None,
            }),
            Contestant::BTree => {
                let tree = BTreeSet::new();
                let hints = tree.create_hints();
                Box::new(SpecBTreeBench {
                    tree,
                    hints: Some(hints),
                })
            }
            Contestant::BTreeNoHints => Box::new(SpecBTreeBench {
                tree: BTreeSet::new(),
                hints: None,
            }),
            Contestant::StlRbtset => Box::new(RbBench(RbTreeSet::new())),
            Contestant::StlHashset => Box::new(HashBench(ChainedHashSet::new())),
            Contestant::TbbHashset => Box::new(TbbBench(SplitOrderedSet::new())),
        }
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Contestant::GoogleBTree => "google btree",
            Contestant::SeqBTree => "seq btree",
            Contestant::SeqBTreeNoHints => "seq btree (n/h)",
            Contestant::BTree => "btree",
            Contestant::BTreeNoHints => "btree (n/h)",
            Contestant::StlRbtset => "STL rbtset",
            Contestant::StlHashset => "STL hashset",
            Contestant::TbbHashset => "TBB hashset",
        }
    }
}

struct GoogleBTreeBench(GBTreeSet<[u64; 2]>);

impl BenchSet for GoogleBTreeBench {
    fn insert(&mut self, t: [u64; 2]) -> bool {
        self.0.insert(t)
    }
    fn contains(&mut self, t: &[u64; 2]) -> bool {
        self.0.contains(t)
    }
    fn scan_count(&mut self) -> usize {
        self.0.iter().count()
    }
    fn label(&self) -> &'static str {
        "google btree"
    }
}

struct SeqBTreeBench {
    tree: SeqBTreeSet<2>,
    hints: Option<SeqHints<2>>,
}

impl BenchSet for SeqBTreeBench {
    fn insert(&mut self, t: [u64; 2]) -> bool {
        match &mut self.hints {
            Some(h) => self.tree.insert_hinted(t, h),
            None => self.tree.insert(t),
        }
    }
    fn contains(&mut self, t: &[u64; 2]) -> bool {
        match &mut self.hints {
            Some(h) => self.tree.contains_hinted(t, h),
            None => self.tree.contains(t),
        }
    }
    fn scan_count(&mut self) -> usize {
        self.tree.iter().count()
    }
    fn label(&self) -> &'static str {
        if self.hints.is_some() {
            "seq btree"
        } else {
            "seq btree (n/h)"
        }
    }
}

struct SpecBTreeBench {
    tree: BTreeSet<2>,
    hints: Option<BTreeHints<2>>,
}

impl BenchSet for SpecBTreeBench {
    fn insert(&mut self, t: [u64; 2]) -> bool {
        match &mut self.hints {
            Some(h) => self.tree.insert_hinted(t, h),
            None => self.tree.insert(t),
        }
    }
    fn contains(&mut self, t: &[u64; 2]) -> bool {
        match &mut self.hints {
            Some(h) => self.tree.contains_hinted(t, h),
            None => self.tree.contains(t),
        }
    }
    fn scan_count(&mut self) -> usize {
        self.tree.iter().count()
    }
    fn label(&self) -> &'static str {
        if self.hints.is_some() {
            "btree"
        } else {
            "btree (n/h)"
        }
    }
}

struct RbBench(RbTreeSet<[u64; 2]>);

impl BenchSet for RbBench {
    fn insert(&mut self, t: [u64; 2]) -> bool {
        self.0.insert(t)
    }
    fn contains(&mut self, t: &[u64; 2]) -> bool {
        self.0.contains(t)
    }
    fn scan_count(&mut self) -> usize {
        self.0.iter().count()
    }
    fn label(&self) -> &'static str {
        "STL rbtset"
    }
}

struct HashBench(ChainedHashSet<[u64; 2]>);

impl BenchSet for HashBench {
    fn insert(&mut self, t: [u64; 2]) -> bool {
        self.0.insert(t)
    }
    fn contains(&mut self, t: &[u64; 2]) -> bool {
        self.0.contains(t)
    }
    fn scan_count(&mut self) -> usize {
        self.0.iter().count()
    }
    fn label(&self) -> &'static str {
        "STL hashset"
    }
}

struct TbbBench(SplitOrderedSet<[u64; 2]>);

impl BenchSet for TbbBench {
    fn insert(&mut self, t: [u64; 2]) -> bool {
        self.0.insert(t)
    }
    fn contains(&mut self, t: &[u64; 2]) -> bool {
        self.0.contains(t)
    }
    fn scan_count(&mut self) -> usize {
        let mut n = 0usize;
        self.0.for_each(|_| n += 1);
        n
    }
    fn label(&self) -> &'static str {
        "TBB hashset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_contestant_round_trips() {
        for c in Contestant::ALL {
            let mut s = c.create();
            assert_eq!(s.label(), c.label());
            for i in 0..500u64 {
                assert!(s.insert([i / 10, i % 10 + (i / 10) * 100]), "{}", c.label());
            }
            assert_eq!(s.scan_count(), 500, "{}", c.label());
            assert!(s.contains(&[0, 0]), "{}", c.label());
            assert!(!s.contains(&[999, 999]), "{}", c.label());
            assert!(!s.insert([0, 0]), "duplicate accepted by {}", c.label());
        }
    }

    #[test]
    fn wants_part_filters() {
        let mut a = Args::default();
        assert!(a.wants_part("a"));
        a.part = Some("b".into());
        assert!(!a.wants_part("a"));
        assert!(a.wants_part("b"));
    }
}
