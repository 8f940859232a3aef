#!/usr/bin/env python3
"""Shape-check a BENCH_retract.json (bench-suite/src/bin/retract.rs).

Usage: validate_retract.py [path] [--quick|--full]

--quick expects the CI smoke run: shape-identical JSON over small graphs,
where the incremental-vs-scratch ratio is meaningless (fixed costs dwarf
the tiny closures), so only structure and accounting are checked. --full
additionally enforces the acceptance criteria: the headline chain
scenario's retraction must complete within `target_ratio` of from-scratch
recomputation at the top thread count, and the grid scenario's — nearly
half its closure overdeleted, so handed over to recomputation — within
`GRID_BOUND` of it at one thread.
"""
from benchlib import assert_ratio, load_bench, parse_cli

path, mode = parse_cli("BENCH_retract.json")
doc = load_bench(path, "retract", mode)
assert 0 < doc["target_ratio"] <= 1, doc["target_ratio"]

names = [sc["name"] for sc in doc["scenarios"]]
assert "chain_tail_1pct" in names, names
assert "grid_rederive" in names, names

for sc in doc["scenarios"]:
    assert sc["edges"] > 0 and sc["retracted_edges"] > 0, sc["name"]
    assert sc["retracted_edges"] < sc["edges"], sc["name"]
    # Every withdrawn EDB fact must actually have been present.
    assert sc["retracted_inputs"] == sc["retracted_edges"], sc["name"]
    # Overdeletion is a superset of what stays deleted; rederivation gives
    # back at most what overdeletion took.
    assert sc["overdeleted"] >= sc["rederived"], sc["name"]
    assert sc["net_removed"] > 0, sc["name"]
    assert sc["top_threads"] >= 1, sc["name"]
    assert len(sc["results"]) > 0, sc["name"]
    for r in sc["results"]:
        assert r["threads"] >= 1, sc["name"]
        assert r["retract_seconds"] > 0 and r["scratch_run_seconds"] > 0, sc["name"]
        assert_ratio(
            r["ratio"],
            r["retract_seconds"],
            r["scratch_run_seconds"],
            (sc["name"], r["threads"]),
        )
        # Phase breakdown must be non-negative and add up to the total,
        # bar the bookkeeping between phases.
        names = ("plan", "overdelete", "delete", "rederive", "fallback")
        for f in names:
            assert r[f + "_seconds"] >= 0, (sc["name"], f)
        phases = sum(r[f + "_seconds"] for f in names)
        assert phases <= r["retract_seconds"] * 1.05, (sc["name"], r["threads"])
        if mode == "--full":
            assert phases >= r["retract_seconds"] * 0.9, (sc["name"], r["threads"])
    top = [r for r in sc["results"] if r["threads"] == sc["top_threads"]]
    assert len(top) == 1, (sc["name"], sc["top_threads"])
    assert abs(sc["ratio_at_top"] - top[0]["ratio"]) < 1e-3, sc["name"]
    assert sc["pass"] is (sc["ratio_at_top"] <= sc["target"]), sc["name"]

chain = next(sc for sc in doc["scenarios"] if sc["name"] == "chain_tail_1pct")
assert doc["headline_pass"] is chain["pass"]
assert chain["target"] == doc["target_ratio"]
if mode == "--full":
    # Acceptance: 1% tail retraction of the ≥1M-tuple chain closure within
    # target_ratio of recomputation at the top thread count.
    assert chain["edges"] >= 1000, chain["edges"]
    assert chain["pass"], (
        f"headline ratio {chain['ratio_at_top']} exceeds target "
        f"{doc['target_ratio']}"
    )
    # A retraction that overdeletes half a stratum costs a bounded multiple
    # of evaluating it (it was 3.7-6.5x before strata were handed over).
    GRID_BOUND = 2.5
    grid = next(sc for sc in doc["scenarios"] if sc["name"] == "grid_rederive")
    one = [r["ratio"] for r in grid["results"] if r["threads"] == 1]
    assert one and one[0] <= GRID_BOUND, f"grid_rederive at one thread: {one}"

print(
    f"{path} OK: {len(doc['scenarios'])} scenarios, headline ratio "
    f"{chain['ratio_at_top']} (target {doc['target_ratio']}, "
    f"pass={chain['pass']})"
)
