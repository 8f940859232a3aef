//! A miniature Soufflé-style command line: evaluate a Datalog program from
//! a file (or a built-in demo program) and print its output relations.
//!
//! ```text
//! cargo run --release --example datalog_run -- program.dl [threads] [--explain] [--profile]
//! cargo run --release --example datalog_run            # built-in demo
//! ```
//!
//! `--explain` prints the compiled evaluation strategy (strata and
//! semi-naive plan versions); `--profile` prints per-rule timings after
//! the run; `--facts DIR` loads `<relation>.facts` TSV files for every
//! `.input` relation; `--out DIR` writes `<relation>.csv` for every
//! `.output` relation (Soufflé conventions).

use concurrent_datalog_btree::datalog::{parse, Engine, StorageKind};

const DEMO: &str = r#"
    // Org-chart analytics over interned symbols.
    .decl manages(boss: symbol, report: symbol)
    .decl above(boss: symbol, report: symbol)
    .decl peer(a: symbol, b: symbol)
    .output above
    .output peer

    manages("ada", "grace").   manages("ada", "edsger").
    manages("grace", "barbara"). manages("grace", "ken").
    manages("edsger", "donald"). manages("donald", "leslie").

    above(b, r) :- manages(b, r).
    above(b, r) :- above(b, m), manages(m, r).
    peer(a, b)  :- manages(m, a), manages(m, b), a != b.
"#;

fn main() {
    let mut explain = false;
    let mut profile = false;
    let mut facts_dir: Option<String> = None;
    let mut out_dir: Option<String> = None;
    let mut positional = Vec::new();
    let mut pending: Option<&str> = None;
    for a in std::env::args().skip(1) {
        match (pending.take(), a.as_str()) {
            (Some("--facts"), v) => facts_dir = Some(v.to_string()),
            (Some("--out"), v) => out_dir = Some(v.to_string()),
            (None, "--explain") => explain = true,
            (None, "--profile") => profile = true,
            (None, "--facts") => pending = Some("--facts"),
            (None, "--out") => pending = Some("--out"),
            (None, other) => positional.push(other.to_string()),
            (Some(flag), _) => panic!("{flag} needs a value"),
        }
    }
    let mut args = positional.into_iter();
    let source = match args.next() {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => {
            println!("(no program given — running the built-in demo)\n{DEMO}");
            DEMO.to_string()
        }
    };
    let threads: usize = args
        .next()
        .map(|t| t.parse().expect("threads"))
        .unwrap_or(2);

    let program = match parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let mut engine = match Engine::new(&program, StorageKind::SpecBTree, threads) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    if let Some(dir) = &facts_dir {
        match engine.load_input_facts(dir) {
            Ok(n) => eprintln!("[facts] loaded {n} tuples from {dir}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    if explain {
        eprintln!("--- evaluation strategy\n{}", engine.explain());
    }
    engine.run().expect("evaluation");
    if let Some(dir) = &out_dir {
        engine.write_output_relations(dir).expect("write outputs");
        eprintln!("[out] wrote output relations to {dir}");
    }
    if profile {
        eprintln!("--- per-rule profile (hottest first)");
        for p in engine.profile() {
            eprintln!(
                "{:>9.3} ms  {:>4} eval(s)  {}",
                p.seconds * 1e3,
                p.evaluations,
                p.rule
            );
        }
    }

    for decl in program.decls.iter().filter(|d| d.is_output) {
        let rows = engine
            .relation_display(&decl.name)
            .expect("declared relation");
        println!("--- {} ({} tuples)", decl.name, rows.len());
        for row in rows.iter().take(50) {
            println!("{}", row.join("\t"));
        }
        if rows.len() > 50 {
            println!("... ({} more)", rows.len() - 50);
        }
    }
    let s = engine.stats();
    eprintln!(
        "[stats] {} iterations, {} inserts, {} membership tests, {} lower bounds for {} indexed inner scans",
        s.iterations,
        s.inserts,
        s.membership_tests,
        s.lower_bound_calls,
        s.inner_scans_indexed
    );
}
