//! Figure 5 — comparison of data structures inside the Datalog engine on
//! two real-world-shaped analyses (paper §4.3).
//!
//! Part (a): the Doop-substitute context-insensitive points-to analysis
//! (insertion heavy); part (a-off) repeats it for the ordered backends with
//! the query planner off. Part (b): the EC2-substitute security
//! vulnerability analysis (read heavy). Rows are relation backends, columns are thread
//! counts, cells are end-to-end runtime in seconds (lower is better).
//!
//! `--scale N` scales the generated fact bases (default 6). `--threads`
//! overrides the sweep (default 1,2,4,8).

use bench_suite::obs::ObsSession;
use bench_suite::{emit_telemetry, print_row, Args};
use datalog::{Engine, StorageKind};
use workloads::network::{self, NetworkConfig};
use workloads::pointsto::{self, PointsToConfig};
use workloads::Stopwatch;

fn main() {
    let args = Args::parse();
    let obs = ObsSession::start(&args);
    let scale = if args.scale == 0 { 6 } else { args.scale };
    let threads = if args.threads.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        args.threads.clone()
    };

    // Like the paper ("the total time for analysis of all 11 DaCapo
    // benchmarks"), part (a) analyses a suite of 11 generated programs
    // and reports the summed runtime. Part (a-off) repeats it for the
    // ordered backends with the planner off, i.e. rules evaluated in the
    // order they are written: the comparison the planner has to win.
    const SUITE: usize = 11;
    let all = StorageKind::ALL.as_slice();
    let ordered = [
        StorageKind::SpecBTree,
        StorageKind::RbTreeLocked,
        StorageKind::GBTreeLocked,
    ];
    for (part, title, kinds, planner) in [
        ("a", "", all, true),
        (
            "a-off",
            ", planner off (source order)",
            ordered.as_slice(),
            false,
        ),
    ] {
        if !args.wants_part(part) {
            continue;
        }
        println!(
            "\n== Figure 5a: context-insensitive var-points-to over {SUITE} synthetic programs (insertion heavy), scale {scale}{title} [total runtime s]"
        );
        print_row(
            args.csv,
            "threads",
            &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        );
        let suite: Vec<_> = (0..SUITE as u64)
            .map(|i| pointsto::generate_facts(&PointsToConfig::scaled(scale), args.seed + i))
            .collect();
        let program = pointsto::program();
        let mut reference: Option<usize> = None;
        for &kind in kinds {
            let mut cells = Vec::new();
            for &t in &threads {
                let mut total = 0.0f64;
                let mut vpt_total = 0usize;
                for facts in &suite {
                    let mut engine = Engine::new(&program, kind, t).unwrap();
                    engine.set_planner_enabled(planner);
                    pointsto::load_facts(&mut engine, facts).unwrap();
                    let sw = Stopwatch::start();
                    engine.run().unwrap();
                    total += sw.secs();
                    vpt_total += engine.relation_len("vpt").unwrap();
                }
                cells.push(format!("{total:.3}"));
                match reference {
                    None => reference = Some(vpt_total),
                    Some(r) => assert_eq!(vpt_total, r, "{} diverged", kind.label()),
                }
            }
            print_row(args.csv, kind.label(), &cells);
        }
    }

    if args.wants_part("b") {
        println!(
            "\n== Figure 5b: security vulnerability analysis (read heavy), scale {scale} [runtime s]"
        );
        print_row(
            args.csv,
            "threads",
            &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
        );
        let facts = network::generate_facts(&NetworkConfig::scaled(scale), args.seed);
        let program = network::program();
        let mut reference: Option<usize> = None;
        for kind in StorageKind::ALL {
            let mut cells = Vec::new();
            for &t in &threads {
                let mut engine = Engine::new(&program, kind, t).unwrap();
                network::load_facts(&mut engine, &facts).unwrap();
                let sw = Stopwatch::start();
                engine.run().unwrap();
                cells.push(format!("{:.3}", sw.secs()));
                let reach = engine.relation_len("reach").unwrap();
                match reference {
                    None => reference = Some(reach),
                    Some(r) => assert_eq!(reach, r, "{} diverged", kind.label()),
                }
            }
            print_row(args.csv, kind.label(), &cells);
        }
    }

    emit_telemetry("fig5");
    obs.finish();
}
