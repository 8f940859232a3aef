#!/usr/bin/env python3
"""Shape-check a BENCH_planner.json (bench-suite/src/bin/planner.rs).

Usage: validate_planner.py [path] [--quick|--full]

--quick expects the CI smoke run: shape-identical JSON over small
relations, where millisecond-scale runs make the speedup and parity
figures noisy, so only structure and index accounting are checked.
--full additionally enforces the acceptance criterion: on both
adversarial scenarios the planner must beat the adversarial hand order by
at least `target_speedup` and stay within `parity_floor` of the best hand
order at the top thread count, and on `fig5a` (the paper's points-to
suite, planner on vs off) it must not be slower than source order.
"""
from benchlib import assert_ratio, load_bench, parse_cli

path, mode = parse_cli("BENCH_planner.json")
doc = load_bench(path, "planner", mode)
assert doc["target_speedup"] >= 1, doc["target_speedup"]
assert 0 < doc["parity_floor"] <= 1, doc["parity_floor"]

names = [sc["name"] for sc in doc["scenarios"]]
assert "chain_join" in names, names
assert "reverse_bind" in names, names

for sc in doc["scenarios"]:
    assert sc["input_tuples"] > 0 and sc["output_tuples"] > 0, sc["name"]
    assert sc["top_threads"] >= 1, sc["name"]
    assert 0 <= sc["index_hit_ratio"] <= 1, sc["name"]
    if sc["name"] == "reverse_bind":
        # The reverse binding through fact's second column is unservable
        # by the primary order: the planner must have derived an index.
        assert sc["index_builds"] >= 1, sc
    if sc["name"] == "chain_join":
        # Pure ordering problem — the minimal cover must not over-build.
        assert sc["index_builds"] == 0, sc
    assert len(sc["results"]) > 0, sc["name"]
    for r in sc["results"]:
        assert r["threads"] >= 1, sc["name"]
        for f in ("adversarial_seconds", "planner_seconds", "best_hand_seconds"):
            assert r[f] > 0, (sc["name"], f)
        assert_ratio(
            r["speedup_vs_adversarial"],
            r["adversarial_seconds"],
            r["planner_seconds"],
            (sc["name"], r["threads"], "speedup"),
        )
        assert_ratio(
            r["parity_vs_best_hand"],
            r["best_hand_seconds"],
            r["planner_seconds"],
            (sc["name"], r["threads"], "parity"),
        )
        assert r["inner_scans_full"] >= 0 and r["inner_scans_indexed"] >= 0
    top = [r for r in sc["results"] if r["threads"] == sc["top_threads"]]
    assert len(top) == 1, (sc["name"], sc["top_threads"])
    assert abs(sc["speedup_vs_adversarial"] - top[0]["speedup_vs_adversarial"]) < 1e-3
    assert abs(sc["parity_vs_best_hand"] - top[0]["parity_vs_best_hand"]) < 1e-3
    expect_pass = (
        sc["speedup_vs_adversarial"] >= doc["target_speedup"]
        and sc["parity_vs_best_hand"] >= doc["parity_floor"]
    )
    assert sc["pass"] is expect_pass, sc["name"]

# fig5a: the paper's own workload, planner on against planner off.
f5 = doc["fig5a"]
assert f5["programs"] >= 1 and f5["produced_tuples"] > 0, f5
assert f5["planner_seconds"] > 0 and f5["off_seconds"] > 0, f5
assert_ratio(f5["gain"], f5["off_seconds"], f5["planner_seconds"], "fig5a gain")
# Scans plus range queries repeat exactly, so this holds at any scale:
# the planner never does more join work than source order.
assert f5["planner_join_work"] <= f5["off_join_work"], f5
assert f5["pass"] is (f5["gain"] >= 1.0), f5

assert doc["headline_pass"] is (all(sc["pass"] for sc in doc["scenarios"]) and f5["pass"])
if mode == "--full":
    assert (f5["programs"], f5["scale"]) == (11, 5), f5
    assert f5["gain"] >= 1.0, f"fig5a: planner on is {f5['gain']}x planner off"
    # Acceptance: ≥2x over the adversarial order AND parity with the best
    # hand order, on every scenario, at full scale.
    for sc in doc["scenarios"]:
        assert sc["input_tuples"] >= 100_000, (sc["name"], sc["input_tuples"])
        assert sc["pass"], (
            f"{sc['name']}: speedup {sc['speedup_vs_adversarial']} "
            f"(target {doc['target_speedup']}), parity "
            f"{sc['parity_vs_best_hand']} (floor {doc['parity_floor']})"
        )

summary = ", ".join(
    [
        f"{sc['name']} {sc['speedup_vs_adversarial']}x/{sc['parity_vs_best_hand']}"
        for sc in doc["scenarios"]
    ]
    + [f"fig5a {f5['gain']}x"]
)
print(f"{path} OK: {summary} (headline_pass={doc['headline_pass']})")
