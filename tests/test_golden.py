"""The golden strategy table: how a batch executes never changes its report.

Each row runs every registered experiment (quick grids, seed 1) under
one execution strategy and must render the report whose digest the
end-to-end benchmark pins (``benchmarks/e2e/expected.json``), and write
the JSON and CSV exports pinned in :data:`EXPORT_DIGESTS`, without
parsing any source.  The sanitize rows also check the sanitizer's
stderr-only banner, which is the same inline and on a pool; the warm
store row checks that it serves every cell.
"""

from __future__ import annotations

import ast
import hashlib
from unittest import mock

import pytest

from repro.analysis import static
from repro.harness.runner import run_batch

#: The sanitizer off unless a row turns it on, so no row inherits
#: ``REPRO_SANITIZE`` from the environment.
OFF = {"sanitize": False}
#: Row name -> ``run_batch`` options.  ``STORE`` stands for the module's
#: cell-store directory: the cold row fills it from a pool, the warm row
#: re-runs inline against it.
STORE = "<store>"
ROWS = {
    "inline": {},
    "jobs2": {"jobs": 2},
    "sanitize": {"sanitize": True},
    "sanitize-jobs2": {"sanitize": True, "jobs": 2},
    "store-cold": {"store": STORE, "jobs": 2},
    "store-warm": {"store": STORE},
}
#: sha256 of the quick seed-1 comparison-row exports.  The rendered
#: report rounds its numbers; these keep every float at full precision,
#: so a measured value that moves by one ulp changes them.
EXPORT_DIGESTS = {
    "rows.json": "bef285664b444c10d4289a155c46f83d75f96296d2fafd069eb8f649db0f0590",
    "rows.csv": "212c0f7a353bacc0a419655cb2294bad382b050f42a41308e92a1980312a1045",
}
#: The same exports of the full seed-1 batch on a 2-worker pool, too
#: slow for tier-1: CI's "Golden report guard" checks them beside the
#: full report, whose rounding hides one-ulp drift in the cells only the
#: full grids run.
FULL_EXPORT_DIGESTS = {
    "rows.json": "36181aea550a780edf6233c33b22f4fb5a5edf0226fc2f120f6302360360f0f3",
    "rows.csv": "c28f7cf3c09571e78be2d8547fe05e3d3bbb64cb32b9212a3ddd836480212008",
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
            if row.startswith("store-"):
                # A store run starts with no code identity in memory.
                static._package_code = None
            options = {**OFF, **{k: store if v == STORE else v for k, v in ROWS[row].items()}}
            with mock.patch.object(ast, "parse", wraps=ast.parse) as parse:
                done[row] = run_batch(None, quick=True, seed=1, **options), parse.call_count
        return done[row]

    return batch


def _export_digests(batch, directory):
    batch.write_json(directory / "rows.json")
    batch.write_csv(directory / "rows.csv")
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in EXPORT_DIGESTS
    }


@pytest.mark.parametrize("row", list(ROWS))
def test_strategy_renders_the_golden_report(
    row, golden, quick_report_digest, tmp_path
):
    digest, pinned = quick_report_digest
    batch, parses = golden(row)
    assert digest(batch) == pinned
    assert _export_digests(batch, tmp_path) == EXPORT_DIGESTS

    banners = {
        "sanitize": batch.sanitize_summary,
        "harness": batch.harness_summary,
        "store": batch.store_summary,
    }
    expected = {
        "sanitize": {"sanitize"},
        "sanitize-jobs2": {"sanitize"},
        "store-cold": {"store"},
        "store-warm": {"store"},
    }.get(row, set())
    assert {name for name, text in banners.items() if text} == expected
    if row == "sanitize":
        # Every world ran in this process, so the banner covers them all.
        assert batch.sanitize_summary.startswith("sanitize: clean — ")
        assert batch.sanitize_summary.endswith(" 0 warning(s), 0 errors")
    if row == "sanitize-jobs2":
        # Pool workers hand their worlds' reports back with each result.
        assert batch.sanitize_summary == golden("sanitize")[0].sanitize_summary
    if row == "store-warm":
        assert "84 served, 0 executed, 0 published" in batch.store_summary
    assert parses == 0
