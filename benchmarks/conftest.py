"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper artefact via the experiment
registry and prints the paper-vs-measured rendering once, so a
``pytest benchmarks/ --benchmark-only`` run doubles as the full
reproduction report.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def report_sink():
    """Collects experiment renderings; printed at session end."""
    outputs: list[str] = []
    yield outputs
    if outputs:
        print("\n\n" + "\n\n".join(outputs))


@pytest.fixture()
def run_and_report(benchmark, report_sink):
    """Benchmark one experiment and stash its rendering."""

    def _run(experiment_id: str, quick: bool = True):
        from repro.harness import run_batch

        batch = benchmark.pedantic(
            run_batch,
            args=([experiment_id],),
            kwargs={"quick": quick, "seed": 1},
            iterations=1,
            rounds=1,
        )
        if batch.failures:
            raise batch.failures[experiment_id]
        result = batch.outputs[experiment_id]
        report_sink.append(result.render())
        return result

    return _run
