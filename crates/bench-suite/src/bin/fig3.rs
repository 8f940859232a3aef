//! Figure 3 — sequential performance of performance-critical set
//! operations (paper §4.1).
//!
//! Parts: (a) insertion ordered, (b) insertion random, (c) membership
//! ordered, (d) membership random, (e) full-range scan after ordered
//! insert, (f) full-range scan after random insert. Rows are data
//! structures, columns are element counts; cells are throughput in million
//! operations per second.
//!
//! `--scale S` sets the largest grid side to `S` (default 320, i.e. up to
//! ~102k elements; the paper sweeps 1000²–10000² — pass `--scale 1000` or
//! more to approach it). Sides sweep `S/8, S/4, S/2, S` mirroring the
//! paper's four sizes.
//!
//! Every cell is the best of [`REPS`] runs, each on a freshly built
//! structure: a cell is one loop of a millisecond to a second, single runs
//! on a shared host differ by ±20 %, and where a build's nodes land (huge
//! pages or not) moves a scan by 2× — more than the gaps between the tree
//! rows.

use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, fmt_mops, print_row, Args, BenchSet, Contestant};
use workloads::points::{points_2d, query_sequence};
use workloads::Stopwatch;

/// Runs per cell; the fastest is reported.
const REPS: usize = 5;

fn sides(scale: usize) -> Vec<u64> {
    let top = if scale == 0 { 320 } else { scale } as u64;
    [8u64, 4, 2, 1].iter().map(|d| (top / d).max(2)).collect()
}

/// Prints one part: a row per contestant, a column per side, each cell the
/// highest throughput `cell` reaches in [`REPS`] calls. The repetitions are
/// the outermost loop, so a burst of load on the host lands on one sample
/// of several cells rather than on every sample of one.
fn table(
    args: &Args,
    part: &str,
    what: &str,
    rows: &[Contestant],
    sides: &[u64],
    mut cell: impl FnMut(Contestant, u64) -> f64,
) {
    if !args.wants_part(part) {
        return;
    }
    println!("\n== Figure 3{part}: {what}");
    let cols: Vec<String> = sides.iter().map(|s| format!("{s}^2")).collect();
    print_row(args.csv, "elements", &cols);
    let mut best = vec![vec![0.0f64; sides.len()]; rows.len()];
    for _ in 0..REPS {
        for (row, c) in best.iter_mut().zip(rows) {
            for (v, &side) in row.iter_mut().zip(sides) {
                *v = v.max(cell(*c, side));
            }
        }
    }
    for (row, c) in best.iter().zip(rows) {
        let cells: Vec<String> = row.iter().map(|v| fmt_mops(*v)).collect();
        print_row(args.csv, c.label(), &cells);
    }
}

fn filled(c: Contestant, pts: &[[u64; 2]]) -> Box<dyn BenchSet> {
    let mut set = c.create();
    for t in pts {
        set.insert(*t);
    }
    set
}

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start(&args);
    let sides = sides(args.scale);
    let seed = args.seed;

    for (part, ordered, what) in [
        ("a", true, "sequential insertion (ordered) [M inserts/s]"),
        (
            "b",
            false,
            "sequential insertion (random order) [M inserts/s]",
        ),
    ] {
        table(&args, part, what, &Contestant::ALL, &sides, |c, side| {
            let pts = points_2d(side, ordered, seed);
            let sw = Stopwatch::start();
            filled(c, &pts);
            sw.mops(pts.len())
        });
    }

    for (part, ordered, what) in [
        ("c", true, "membership test (ordered) [M queries/s]"),
        ("d", false, "membership test (random order) [M queries/s]"),
    ] {
        table(&args, part, what, &Contestant::ALL, &sides, |c, side| {
            let mut set = filled(c, &points_2d(side, ordered, seed));
            let queries = query_sequence(side, ordered, seed);
            let sw = Stopwatch::start();
            let found = queries.iter().filter(|q| set.contains(q)).count();
            assert_eq!(found, queries.len(), "all probes are members");
            sw.mops(queries.len())
        });
    }

    // The paper's scan plots omit the no-hint variants (hints don't apply
    // to iteration).
    let scanned = [
        Contestant::GoogleBTree,
        Contestant::SeqBTree,
        Contestant::BTree,
        Contestant::StlRbtset,
        Contestant::StlHashset,
        Contestant::TbbHashset,
    ];
    for (part, ordered, what) in [
        (
            "e",
            true,
            "full-range scan (after ordered insert) [M entries/s]",
        ),
        (
            "f",
            false,
            "full-range scan (after random insert) [M entries/s]",
        ),
    ] {
        table(&args, part, what, &scanned, &sides, |c, side| {
            let pts = points_2d(side, ordered, seed);
            let mut set = filled(c, &pts);
            // Scan repeatedly so tiny sets measure more than timer noise.
            let repeats = (1_000_000 / pts.len()).clamp(1, 50);
            let sw = Stopwatch::start();
            let total: usize = (0..repeats).map(|_| set.scan_count()).sum();
            assert_eq!(total, pts.len() * repeats);
            sw.mops(total)
        });
    }

    emit_telemetry("fig3");
    obs.finish();
}
