"""The golden strategy table: how a batch executes never changes its report.

Each row runs every registered experiment (quick grids, seed 1) under
one execution strategy and must render the report whose digest the
end-to-end benchmark pins (``benchmarks/e2e/expected.json``), with JSON
and CSV exports equal to the inline row's.  Rows that turn a world
option on also check that option's stderr-only banner; the store rows
check that a warm store serves every cell and parses no source.
"""

from __future__ import annotations

import ast
from unittest import mock

import pytest

from repro.analysis.static import ModuleIndex
from repro.harness.runner import run_batch

#: Every world option off unless a row turns it on, so no row inherits
#: a ``REPRO_*`` setting from the environment.
OFF = {"sanitize": False, "replay": False, "fastcollect": False}
#: Row name -> ``run_batch`` options.  ``STORE`` stands for the module's
#: cell-store directory: the cold row fills it from a pool, the warm row
#: re-runs inline against it.
STORE = "<store>"
ROWS = {
    "inline": {},
    "jobs2": {"jobs": 2},
    "jobs2-retries1": {"jobs": 2, "retries": 1},
    "sanitize": {"sanitize": True},
    "replay-fastcollect": {"replay": True, "fastcollect": True},
    "store-cold": {"store": STORE, "jobs": 2},
    "store-warm": {"store": STORE},
}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """``row -> (batch, ast.parse calls)``, each row run once per module."""
    store = tmp_path_factory.mktemp("golden") / "store"
    done: dict = {}

    def batch(row):
        if row not in done:
            if row == "store-warm":
                batch("store-cold")
                # A warm run starts with no fingerprint in memory: it
                # must read the table the cold run persisted.
                ModuleIndex.reset_default()
            options = {**OFF, **{k: store if v == STORE else v for k, v in ROWS[row].items()}}
            with mock.patch.object(ast, "parse", wraps=ast.parse) as parse:
                done[row] = run_batch(None, quick=True, seed=1, **options), parse.call_count
        return done[row]

    return batch


def _exports(batch, directory):
    batch.write_json(directory / "rows.json")
    batch.write_csv(directory / "rows.csv")
    return [(directory / name).read_bytes() for name in ("rows.json", "rows.csv")]


@pytest.mark.parametrize("row", list(ROWS))
def test_strategy_renders_the_golden_report(
    row, golden, quick_report_digest, tmp_path
):
    digest, pinned = quick_report_digest
    batch, parses = golden(row)
    assert digest(batch) == pinned
    (tmp_path / "row").mkdir()
    (tmp_path / "inline").mkdir()
    assert _exports(batch, tmp_path / "row") == _exports(golden("inline")[0], tmp_path / "inline")

    banners = {
        "sanitize": batch.sanitize_summary,
        "perf": batch.perf_summary,
        "harness": batch.harness_summary,
        "store": batch.store_summary,
    }
    expected = {
        "jobs2-retries1": {"harness"},
        "sanitize": {"sanitize"},
        "replay-fastcollect": {"perf"},
        "store-cold": {"store"},
        "store-warm": {"store"},
    }.get(row, set())
    assert {name for name, text in banners.items() if text} == expected
    if row == "sanitize":
        # Every world ran in this process, so the banner covers them all.
        assert batch.sanitize_summary.startswith("sanitize: clean — ")
        assert batch.sanitize_summary.endswith(" 0 warning(s), 0 errors")
    if row == "replay-fastcollect":
        assert batch.perf_summary.startswith("perf: ")
        assert "replay" in batch.perf_summary and "fastcollect" in batch.perf_summary
    if row == "store-warm":
        assert "84 served, 0 executed, 0 published" in batch.store_summary
        assert parses == 0
