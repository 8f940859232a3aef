//! Checks of the harness itself: that a wrong checksum and a child killed
//! by a signal each cost exactly one failed op, that the quartiles are
//! Python's, and that `BENCHMARK.json` declares what the harness prints.

use crate::child::{ChildSpec, Fault};
use crate::json::{self, Value};
use crate::measure::{quartiles, run_child, Reference};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workload::{self, WORKLOADS};

fn check(what: &str, ok: bool) -> bool {
    println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
    ok
}

fn declared(file: &Value, section: &str, defs: &[(&MetricDef, Option<f64>)]) -> bool {
    let listed = file.get(section).map_or(&[][..], Value::items);
    listed.len() == defs.len()
        && defs.iter().zip(listed).all(|((d, bound), l)| {
            l.get("name").and_then(Value::as_str) == Some(d.name)
                && l.get("unit").and_then(Value::as_str) == Some(d.unit)
                && l.get("better").and_then(Value::as_str) == Some(d.better)
                && l.num("bound") == *bound
        })
}

/// Runs every check; `true` if all passed.
pub fn run() -> bool {
    // The smoke closure: one program, a run op and a retract op per child.
    let instances =
        workload::instances("tc_random", 42, &workload::SMOKE).expect("a known workload");
    let reference = Reference::of(&instances);
    let with = |fault| {
        run_child(
            &ChildSpec {
                fault,
                ..ChildSpec::rep("tc_random", 42, true, 1, true)
            },
            &reference,
            1,
        )
    };
    let (clean, corrupt, aborted) = (with(Fault::None), with(Fault::Corrupt), with(Fault::Abort));
    let mut ok = check(
        "a clean child: 2 ops attempted, none failed",
        (clean.attempted, clean.failed) == (2, 0),
    );
    ok &= check(
        "a corrupted checksum: 2 ops attempted, exactly 1 failed",
        (corrupt.attempted, corrupt.failed) == (2, 1),
    );
    ok &= check(
        &format!(
            "a child killed by a signal ({}): 1 op attempted, exactly 1 failed",
            aborted.status
        ),
        (aborted.attempted, aborted.failed) == (1, 1),
    );
    ok &= check(
        "quartiles as Python's statistics.quantiles gives them",
        quartiles(&[8.0, 1.0, 4.0, 2.0]) == (1.25, 3.0, 7.0),
    );

    match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Err(e) => println!("  skip BENCHMARK.json is not readable from here ({e})"),
        Ok(file) => {
            let e2e: Vec<_> = END_TO_END.iter().map(|(d, b)| (d, Some(*b))).collect();
            let layers: Vec<_> = PER_LAYER.iter().map(|d| (d, None)).collect();
            ok &= check(
                "BENCHMARK.json declares the end-to-end metrics the harness prints",
                declared(&file, "end_to_end", &e2e),
            );
            ok &= check(
                "BENCHMARK.json declares the per-layer metrics the harness prints",
                declared(&file, "per_layer", &layers),
            );
            let names: Vec<_> = file
                .get("workloads")
                .map_or(&[][..], Value::items)
                .iter()
                .map(|w| w.get("name").and_then(Value::as_str))
                .collect();
            ok &= check(
                "BENCHMARK.json lists the harness's workloads",
                names == WORKLOADS.iter().map(|w| Some(w.name)).collect::<Vec<_>>(),
            );
        }
    }
    ok
}
