"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count/op", "count/setup", "B/op")


@pytest.mark.parametrize("name, n_ops", [("sweep", 3), ("nodes", 3), ("ledger-fp", 2), ("ledger-qq", 4)])
def test_traced_counts_repeat_exactly(name, n_ops):
    workload = wl.WORKLOADS[name]
    first = run.traced_run(workload, wl.DEFAULT_SEED, n_ops)
    second = run.traced_run(workload, wl.DEFAULT_SEED, n_ops)
    assert first[1] == second[1] == []  # no failed op
    counts = {k: v for k, (v, unit) in first[2].items() if unit in EXACT_UNITS}
    assert counts == {k: v for k, (v, unit) in second[2].items() if unit in EXACT_UNITS}
    assert counts["cli.main.calls"] == 1
    assert first[3]["missing_targets"] == []


def test_metric_names_and_units_match_benchmark_json():
    _, errors, traced, _ = run.traced_run(wl.LEDGER_FP, wl.DEFAULT_SEED, 1)
    assert errors == []
    assert {k: u for k, (_, u) in traced.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    _, errors, timed, _ = run.timed_run(wl.LEDGER_QQ, wl.DEFAULT_SEED, 0)  # one cycle per round
    assert errors == []
    assert {k: u for k, (_, u) in timed.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(spans.SPAN_NAMES) == {n.rsplit(".", 1)[0] for n in traced if n.endswith(".self_s")}


def test_local_references_are_medians_of_a_window():
    refs = [1.0, 9.0, 2.0, 3.0, 4.0, 5.0, 9.0, 6.0]
    assert run.local_references(refs) == [4.0, 4.0, 4.0, 4.0, 5.0, 5.0, 5.0, 5.0]
    assert run.local_references([2.0, 1.0]) == [1.5, 1.5]


def test_gate_rejects_wrong_output():
    cli = run.fresh_cli()
    op = wl.LEDGER_FP.ops(wl.DEFAULT_SEED, "", lambda argv: run.call_cli(cli, argv))[0]
    digest = wl.committed_digests("ledger-fp", wl.DEFAULT_SEED)[0]
    rc, out = run.call_cli(cli, op.argv)
    assert wl.check_output(op, rc, out, digest) is None
    assert wl.check_output(op, 1, out, digest) is not None
    assert wl.check_output(op, rc, out.replace('"passed": true', '"passed": false', 1), digest) is not None
    assert wl.check_output(op, rc, out.replace("true", "false"), None) is not None  # all_passed
    assert wl.check_output(op, rc, "not json", None) is not None


def test_gate_checks_census_structure():
    op = wl.Op(0, ("census",), "census", {"sweep_skipped": True})
    doc = {"sweep_skipped": True, "node_bound": 2, "nodes": [{"multiplicity": 2}], "timings": {"nodes_s": 0.1}}
    assert wl.check_output(op, 0, json.dumps(doc), None) is None
    doc["nodes"].append({"multiplicity": 1})
    assert "node_bound" in wl.check_output(op, 0, json.dumps(doc), None)
    assert "node data" in wl.check_output(op, 0, json.dumps(dict(doc, nodes=None)), None)
    # wall-clock timings do not enter the digest
    assert wl.output_digest(op, json.dumps(doc)) == wl.output_digest(
        op, json.dumps(dict(doc, timings={"nodes_s": 9.0})))
