"""ARRIVE-F throughput experiment plus engine-throughput microbenchmarks.

The first test regenerates the paper's section-II result (naive vs
relocation-enabled scheduling of a mixed job batch on a heterogeneous
DCC+Vayu farm; cited as "up to 33%" improvement in average waiting
times).

The remaining tests measure the simulation engine itself — events
dispatched per second on the :mod:`repro.perf.enginebench` workloads
(timeout-heavy, point-to-point ping-pong, the fast-forwarded
compute/allreduce cadence, and the replay-enabled NPB steady loop) — so
the sim-layer fast paths have dedicated before/after numbers.  With
timing on, results are written to ``BENCH_engine.json`` in the working
directory once the module's tests are done; under ``--benchmark-disable``
nothing is written, so a behaviour-only run leaves the committed
baseline alone.  The same rows come from ``python -m repro bench engine``.
"""

from __future__ import annotations

import pytest

from repro.perf.enginebench import (
    WORKLOADS,
    collective_event_counts,
    replay_event_counts,
    run_workload,
    write_rows,
)


@pytest.fixture(scope="module")
def engine_rows(request):
    """Collects {workload: {events, seconds, events_per_sec, ...}} rows;
    writes ``BENCH_engine.json`` once all exist, when timing is on."""
    rows: dict[str, dict[str, float]] = {}
    yield rows
    config = request.config
    timing = config.getoption("benchmark_enable") or not config.getoption(
        "benchmark_disable"
    )
    if not rows or not timing:
        return
    write_rows(rows, "BENCH_engine.json")
    rates = ", ".join(
        f"{k}={v['events_per_sec']:,.0f} ev/s" for k, v in sorted(rows.items())
    )
    print(f"\n[engine-throughput] {rates} -> BENCH_engine.json")


def test_arrivef(run_and_report):
    """Regenerate the ARRIVE-F wait-time comparison."""
    result = run_and_report("arrivef")
    assert result.experiment_id == "arrivef"
    best = result.comparisons[0][1]
    assert best > 0.0, "relocation should improve waits on some workload"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_throughput(workload, engine_rows):
    """Dispatch rate of the engine on one archetypal workload."""
    row = run_workload(workload)  # raises if too small to measure
    if workload == "replay":
        row.update(replay_event_counts())
        # The headline acceptance figure: fast-forwarding a steady
        # 16-iteration NPB loop must eliminate >= 3x the engine events.
        assert row["events_ratio"] >= 3.0, (
            f"replay eliminated only {row['events_ratio']:.2f}x events"
        )
        assert row["replayed_iters"] > 0, "replay never engaged"
    elif workload == "collectives":
        row.update(collective_event_counts())
        # The collective fast-forward's acceptance figure: the analytic
        # path must eliminate >= 3x the engine events of the per-op path.
        assert row["events_ratio"] >= 3.0, (
            f"fastcollect eliminated only {row['events_ratio']:.2f}x events"
        )
        assert row["fast_ops"] > 0, "fastcollect never engaged"
    engine_rows[workload] = row
