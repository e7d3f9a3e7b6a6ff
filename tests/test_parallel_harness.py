"""Tests for the parallel sweep executor (repro.harness.parallel).

The contract under test is determinism: a ``jobs=4`` run must render —
and export — byte-for-byte what a ``jobs=1`` run renders at the same
seed, for every registered experiment.
"""

from __future__ import annotations

import os

import pytest

from repro.config import RunConfig
from repro.errors import ConfigError
from repro.harness.experiments import EXPERIMENTS
from repro.harness.parallel import Cell, cell_worker
from repro.harness.runner import run_batch
from repro.harness.supervisor import run_cells


# ---------------------------------------------------------------------------
# run_cells unit behaviour
# ---------------------------------------------------------------------------

@cell_worker("test_echo")
def _echo(*args):
    return args


def test_run_cells_merges_in_cell_order():
    cells = [Cell((k,), "test_echo", (k * 10,)) for k in (3, 1, 2)]
    out = run_cells(cells, jobs=1).results
    assert list(out) == [(3,), (1,), (2,)], "merge order is cell order, not sorted"
    assert out[(1,)] == (10,)


def test_run_cells_parallel_merge_matches_serial():
    cells = [Cell((k,), "test_echo", (k,)) for k in range(6)]
    assert run_cells(cells, jobs=4).results == run_cells(cells, jobs=1).results


def test_run_cells_rejects_duplicate_keys():
    cells = [Cell((1,), "test_echo"), Cell((1,), "test_echo")]
    with pytest.raises(ConfigError, match="duplicate cell keys"):
        run_cells(cells)


def test_duplicate_key_error_names_the_offenders():
    # Satellite fix: the error must say *which* keys collided, sorted
    # for a stable message.
    cells = [Cell((k,), "test_echo") for k in (5, 1, 5, 3, 1)]
    with pytest.raises(ConfigError, match=r"\(2 distinct\)") as err:
        run_cells(cells)
    assert "(1,), (5,)" in str(err.value)


def test_duplicate_key_error_caps_at_ten():
    cells = [Cell((k,), "test_echo") for k in range(12) for _ in (0, 1)]
    with pytest.raises(ConfigError, match=r"\(12 distinct\)") as err:
        run_cells(cells)
    message = str(err.value)
    assert message.count("(") <= 14  # 10 keys + counts, not all 12
    assert "... (2 more)" in message


def test_run_cells_rejects_unknown_worker():
    with pytest.raises(ConfigError, match="unknown cell worker"):
        run_cells([Cell((1,), "no_such_worker")])


def test_duplicate_worker_registration_rejected():
    with pytest.raises(ConfigError, match="already registered"):
        cell_worker("test_echo")(lambda: None)


def test_resolve_jobs():
    # The run configuration resolves ``jobs``: 0 means all CPUs.
    assert RunConfig(jobs=3).jobs == 3
    assert RunConfig(jobs=0).jobs == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_negative():
    # A `--jobs -2` typo used to silently mean "all CPUs"; only 0 may
    # mean that, and ``None`` is not a job count.
    for jobs in (-1, -2, -64, None):
        with pytest.raises(ConfigError, match="jobs must be"):
            RunConfig(jobs=jobs)


def test_empty_cell_list():
    report = run_cells([], jobs=4)
    assert report.results == {} and report.failures == {}


# ---------------------------------------------------------------------------
# Serial/parallel equivalence for every registered experiment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_parallel_matches_serial(experiment_id, tmp_path):
    serial = run_batch([experiment_id], quick=True, seed=2, jobs=1)
    parallel = run_batch([experiment_id], quick=True, seed=2, jobs=4)
    assert parallel.render() == serial.render()

    exports = {}
    for label, batch in (("serial", serial), ("parallel", parallel)):
        j, c, t = (tmp_path / f"{label}.{ext}" for ext in ("json", "csv", "txt"))
        batch.write_json(j)
        batch.write_csv(c)
        batch.write_text(t)
        exports[label] = (j.read_bytes(), c.read_bytes(), t.read_bytes())
    assert exports["parallel"] == exports["serial"]
