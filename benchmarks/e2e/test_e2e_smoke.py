"""Smoke test of the end-to-end benchmark runner on a ``fig3``-only subset.

One untraced and one traced repetition, each in its own interpreter like
a real run.  Checks that every metric ``BENCHMARK.json`` declares is
printed by name with its unit, and that tracing is write-only: the
traced report digests equal the untraced ones (and the pinned seed-1
digest, or the run would count a failure).
"""

from __future__ import annotations

import json
import re

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_fig3_subset_prints_every_declared_metric(tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trace_out = tmp_path / "fig3.trace.json"
    res = run.run_workload("quick-serial", seed=1, reps=1, trace=True,
                           trace_out=trace_out, experiments=("fig3",))

    assert res.failures == []
    assert res.traced is not None
    assert res.traced["digests"] == res.reps[0]["digests"]

    printed = {
        (fields[1], fields[3])
        for fields in (line.split() for line in run.metric_lines(res))
        if fields[0] == "quick-serial"
    }
    for kind, traced in (("end_to_end", False), ("per_layer", True)):
        units = {m["name"]: m["unit"] for m in declared[kind]}
        summary = run.result_json([res], traced)
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] == 2
        assert {n: m["unit"] for n, m in summary["metrics"].items()} == units
        for name, unit in units.items():
            assert NAME.fullmatch(name), name
            assert (name, unit) in printed, name

    events = json.loads(trace_out.read_text(encoding="utf-8"))["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert {"run", "harness.exp.fig3", "harness.sweep", "smpi.launch", "sim.run"} <= names
