"""Set-up loads only what every run needs.

numpy is imported by the first random stream, the process pool by the
first pool and the determinism linter by ``repro lint`` alone, so the
set-up imports, a warm ``run_batch`` and a warm ``python -m repro run
all`` load none of them; a warm ``run_batch`` loads no MPI runtime
either.  Each check runs in a fresh interpreter,
because this one has imported them long ago.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.harness.runner import run_batch

#: Modules a run must not load unless it simulates or starts a pool;
#: the linter no run loads.
DEFERRED = ("numpy", "concurrent.futures.process", "repro.analysis.lint")
#: Prints which of :data:`DEFERRED` are loaded, as a JSON list.
LOADED = f"import json, sys; print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the ``repro`` these tests import, with
    no ``REPRO_*`` setting inherited."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A cell store holding every cell of the quick seed-1 batch."""
    store = tmp_path_factory.mktemp("imports") / "store"
    run_batch(None, quick=True, seed=1, sanitize=False, store=str(store))
    return store


def test_setup_imports_load_neither():
    out = _python("-c", f"import repro.harness.runner, repro.harness.experiments; {LOADED}")
    assert json.loads(out.stdout) == []


def test_warm_run_batch_loads_neither(warm_store):
    out = _python("-c", (
        "from repro.harness.runner import run_batch; "
        f"batch = run_batch(None, quick=True, seed=1, sanitize=False, store={str(warm_store)!r}); "
        f"print(batch.store_summary); {LOADED}"
    ))
    summary, loaded = out.stdout.splitlines()
    assert "84 served, 0 executed, 0 published" in summary
    assert json.loads(loaded) == []


def test_warm_run_batch_loads_no_mpi_runtime(warm_store):
    """Served cells need no simulator: ``import repro`` resolves its
    top-level names lazily, so nothing pulls in :mod:`repro.smpi`."""
    out = _python("-c", (
        "import sys; from repro.harness.runner import run_batch; "
        f"run_batch(None, quick=True, seed=1, sanitize=False, store={str(warm_store)!r}); "
        "print(sorted(m for m in sys.modules if m.startswith('repro.smpi')))"
    ))
    assert out.stdout.strip() == "[]"


def test_root_names_resolve_at_first_use():
    out = _python("-c", (
        "import sys, repro; before = 'repro.smpi' in sys.modules; "
        "from repro import VAYU, run_program; "
        "print(before, VAYU.name, run_program.__module__)"
    ))
    assert out.stdout.split() == ["False", "Vayu", "repro.smpi.world"]


def test_warm_cli_loads_neither(warm_store):
    out = _python("-X", "importtime", "-m", "repro", "run", "all", "--store", str(warm_store))
    assert "84 served, 0 executed, 0 published" in out.stderr
    # ``-X importtime`` names every module imported, after a ``|``.
    imported = set(re.findall(r"^import time:.*\|\s*(\S+)$", out.stderr, re.M))
    assert "repro.harness.runner" in imported
    assert imported.isdisjoint(DEFERRED)
