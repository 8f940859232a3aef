//! Tests of the EXPLAIN facility: strata ordering and compiled plan shapes
//! visible in the rendered strategy.

use datalog::{parse, Engine, StorageKind};

#[test]
fn explain_shows_strata_and_delta_versions() {
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl path(x: number, y: number)
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        "#,
    )
    .unwrap();
    let engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let plan = engine.explain();
    assert!(
        plan.contains("stratum 0 (recursive): defines path"),
        "{plan}"
    );
    assert!(plan.contains("Δpath"), "delta scan missing:\n{plan}");
    assert!(
        plan.contains("range edge prefix=(v"),
        "bound prefix missing:\n{plan}"
    );
    assert!(plan.contains("emit path(v0,v2)"), "{plan}");
}

#[test]
fn explain_shows_negated_probes() {
    let program = parse(
        r#"
        .decl a(x: number)
        .decl b(x: number)
        .decl out(x: number)
        out(x) :- a(x), !b(x).
        "#,
    )
    .unwrap();
    let engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let plan = engine.explain();
    assert!(plan.contains("probe !b(v0)"), "{plan}");
}

#[test]
fn explain_orders_strata_bottom_up() {
    let program = parse(
        r#"
        .decl base(x: number)
        .decl mid(x: number)
        .decl top(x: number)
        mid(x) :- base(x).
        top(x) :- mid(x).
        "#,
    )
    .unwrap();
    let engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let plan = engine.explain();
    let mid = plan.find("defines mid").expect("mid stratum");
    let top = plan.find("defines top").expect("top stratum");
    assert!(mid < top, "{plan}");
}

#[test]
fn explain_shows_two_versions_for_double_recursion() {
    let program = parse(
        r#"
        .decl p(x: number, y: number)
        p(1, 2).
        p(x, z) :- p(x, y), p(y, z).
        "#,
    )
    .unwrap();
    let engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let plan = engine.explain();
    assert!(plan.contains("version 0"), "{plan}");
    assert!(plan.contains("version 1"), "{plan}");
}

#[test]
fn input_and_output_relation_lists() {
    let program = parse(
        r#"
        .decl a(x: number)
        .decl b(x: number)
        .decl c(x: number)
        .input a
        .output b
        .output c
        b(x) :- a(x).
        c(x) :- b(x).
        "#,
    )
    .unwrap();
    let engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    assert_eq!(engine.input_relations(), vec!["a"]);
    assert_eq!(engine.output_relations(), vec!["b", "c"]);
}

#[test]
fn profile_reports_rule_times() {
    let program = parse(
        r#"
        .decl edge(x: number, y: number)
        .decl path(x: number, y: number)
        edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    assert!(engine.profile().is_empty(), "no profile before running");
    engine.run().unwrap();
    let profile = engine.profile();
    assert_eq!(profile.len(), 2, "one entry per rule");
    // The recursive rule runs once per fixpoint iteration, the base rule
    // once.
    let base = profile
        .iter()
        .find(|p| !p.rule.contains("path(x, y), edge"))
        .unwrap();
    let rec = profile
        .iter()
        .find(|p| p.rule.contains("path(x, y), edge"))
        .unwrap();
    assert_eq!(base.evaluations, 1);
    assert!(rec.evaluations >= 3, "{rec:?}");
    assert!(profile.windows(2).all(|w| w[0].seconds >= w[1].seconds));
}

/// Fixed 10-node chain transitive closure used by the stability tests
/// below: iteration counts and rule attribution must not depend on the
/// worker count.
const STABLE_TC: &str = r#"
    .decl edge(x: number, y: number)
    .decl path(x: number, y: number)
    .output path
    edge(0, 1). edge(1, 2). edge(2, 3). edge(3, 4). edge(4, 5).
    edge(5, 6). edge(6, 7). edge(7, 8). edge(8, 9).
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
"#;

#[test]
fn profile_attribution_is_stable_across_thread_counts() {
    let program = parse(STABLE_TC).unwrap();
    let mut profiles = Vec::new();
    let mut iterations = Vec::new();
    for threads in [1usize, 4] {
        let mut engine = Engine::new(&program, StorageKind::SpecBTree, threads).unwrap();
        engine.run().unwrap();
        assert_eq!(engine.relation_len("path").unwrap(), 9 * 10 / 2);
        let mut profile = engine.profile();
        profile.sort_by(|a, b| a.rule.cmp(&b.rule));
        profiles.push(profile);
        iterations.push(engine.stats().iterations);
    }
    // Semi-naive iteration count is a property of the program and data,
    // not of the scheduler: identical sequentially and with 4 workers.
    assert_eq!(iterations[0], iterations[1]);
    let [seq, par] = &profiles[..] else {
        unreachable!()
    };
    assert_eq!(seq.len(), 2, "one entry per rule");
    assert_eq!(par.len(), 2);
    for (s, p) in seq.iter().zip(par) {
        assert_eq!(s.rule, p.rule, "rule attribution must match");
        assert_eq!(
            s.evaluations, p.evaluations,
            "evaluation counts must match for {}",
            s.rule
        );
        assert!(s.seconds >= 0.0 && p.seconds >= 0.0);
    }
    // The recursive rule runs every fixpoint iteration; the base rule once.
    let rec = seq
        .iter()
        .find(|p| p.rule.contains("path(x, y), edge"))
        .unwrap();
    let base = seq
        .iter()
        .find(|p| !p.rule.contains("path(x, y), edge"))
        .unwrap();
    assert_eq!(base.evaluations, 1);
    assert_eq!(rec.evaluations, iterations[0]);
}

#[test]
fn explain_is_stable_across_thread_counts_and_runs() {
    let program = parse(STABLE_TC).unwrap();
    let mut engine1 = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let mut engine4 = Engine::new(&program, StorageKind::SpecBTree, 4).unwrap();
    let before = engine1.explain();
    assert_eq!(before, engine4.explain(), "explain is thread-agnostic");
    engine1.run().unwrap();
    engine4.run().unwrap();
    assert_eq!(engine1.explain(), before, "explain is run-invariant");
    assert_eq!(engine4.explain(), before);
    assert!(before.contains("rule 0"), "{before}");
    assert!(before.contains("rule 1"), "{before}");
    assert!(before.contains("Δpath"), "{before}");
}

#[test]
fn explain_after_a_run_reports_the_plans_that_ran() {
    // The paper's points-to program (Fig. 5a): vpt and hpt are defined by
    // the one recursive stratum, so before a run both are empty and only
    // the counts of each iteration say how rule 3 should be ordered.
    use workloads::pointsto::{self, PointsToConfig};
    let program = pointsto::program();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let facts = pointsto::generate_facts(&PointsToConfig::scaled(5), 42);
    pointsto::load_facts(&mut engine, &facts).unwrap();
    engine.run().unwrap();
    let after = engine.explain();
    let rule3 = &after[after.find("rule 3:").expect("rule 3")..];
    // Δvpt binds load's second column; load is swept by it once a block,
    // and hpt — large by then — read last, on a (h, f) prefix.
    let version0 = rule3.lines().nth(1).unwrap();
    let (load, hpt) = (
        version0.find("scan load key=(#1=").expect(version0),
        version0.find("range hpt prefix=").expect(version0),
    );
    assert!(load < hpt, "{version0}");
    // Δhpt binds load's third column: load is swept by it, vpt probed.
    let version1 = &rule3[rule3.find("version 1:").expect(rule3)..];
    let version1 = version1.lines().next().unwrap();
    assert!(
        version1.contains("scan load key=(#2=") && version1.contains("probe vpt("),
        "{rule3}"
    );
    // Reported, not re-planned: asking again changes nothing, and nothing
    // was built. (An index on load, built at the ninth iteration, once
    // served version 1: the engine builds none now.)
    assert_eq!(engine.explain(), after);
    assert_eq!(engine.stats().index_builds, 0);

    // `g` is `r` × `r`: it outgrows `e` while the fixpoint runs, and rule 2
    // re-orders part-way through, from a range over `g` to a sweep of `e`
    // that probes `g`. What ran is on record with what it was costed with.
    let program = parse(
        r#"
        .decl start(x: number)
        .decl e(x: number, y: number)
        .decl r(x: number)
        .decl g(x: number, y: number)
        r(x) :- start(x).
        g(x, y) :- r(x), r(y).
        r(z) :- r(x), g(x, y), e(y, z).
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.add_facts("start", [vec![0u64]]).unwrap();
    engine
        .add_facts("e", (0..200u64).map(|i| vec![i, i + 1]))
        .unwrap();
    let planned = "scan Δr bind=(#0→v0) ⋈ range g prefix=(v0)";
    assert!(engine.explain().contains(planned), "{}", engine.explain());
    engine.run().unwrap();
    let after = engine.explain();
    let rule2 = &after[after.find("rule 2:").expect("rule 2")..];
    let version0: Vec<&str> = rule2.lines().skip(1).take(2).collect();
    let (sweep, probe) = ("scan Δr bind=(#0→v0) ⋈ scan e", "probe g(");
    assert!(
        version0[0].contains(sweep) && version0[0].contains(probe),
        "{rule2}"
    );
    assert_eq!(
        version0[1].trim(),
        "cardinalities: Δr=0, g=729, e=200 (replanned at iteration 54)",
        "{rule2}"
    );
}

#[test]
fn explain_after_a_retraction_lists_its_plans_and_what_they_were_costed_with() {
    // Cutting one edge of a grid overdeletes paths that all have other
    // routes: every phase of delete–rederive plans something.
    let program = parse(STABLE_TC).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    let edges = workloads::graphs::grid(8);
    let facts = edges.iter().map(|&(a, b)| vec![a, b]);
    engine.add_facts("edge", facts).unwrap();
    engine.run().unwrap();
    assert!(!engine.explain().contains("retraction:"));
    let (a, b) = edges[edges.len() / 2];
    let out = engine.retract_fact("edge", &[a, b]).unwrap();
    assert!(out.rederived > 1 && out.recomputed_strata == 0, "{out:?}");

    let plan = engine.explain();
    let retraction = &plan[plan.find("retraction:").expect("a retraction section")..];
    for phase in [
        "overdelete, rule 1:",
        "rederive seed, rule 0:",
        "rederive, rule 1:",
    ] {
        assert!(retraction.contains(phase), "{phase} missing:\n{retraction}");
    }
    assert!(retraction.contains("emit ~del~path("), "{retraction}");
    // Rederivation propagates with the run's own recursive version, listed
    // under its phase: it reads Δpath and no deletion set.
    let rederive = retraction.lines().find(|l| l.contains("rederive, rule 1:"));
    let rederive = rederive.expect(retraction);
    assert!(
        rederive.contains("scan Δpath") && !rederive.contains("~del~"),
        "{rederive}"
    );
    // The deletion set is costed at its size, not at a default of 1.
    let costed = retraction.split("~del~path=").nth(1).expect(retraction);
    let size: f64 = costed
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect(retraction);
    assert!(size > 1.0 && size <= out.overdeleted as f64, "{retraction}");
}

#[test]
fn rule_profile_to_json_shape() {
    let program = parse(STABLE_TC).unwrap();
    let mut engine = Engine::new(&program, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    for entry in engine.profile() {
        let json = entry.to_json();
        assert!(json.starts_with("{\"rule\": \""), "{json}");
        assert!(json.contains("\"evaluations\": "), "{json}");
        assert!(json.contains("\"seconds\": "), "{json}");
        assert!(json.ends_with('}'), "{json}");
        assert!(!json.contains('\n'));
    }
}
