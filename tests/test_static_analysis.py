"""Whole-program static analysis and the cell store's code identity.

Exercises ``repro.analysis.static`` against a synthetic fixture package
(worker discovery, call-graph closure through imports/re-exports/
methods, closure-attributed deep findings, indexing under
dot-directories) and against the real repo (``repro lint --deep``
cleanliness, every dispatched worker and package on the measured path),
and the code identity the store keys on: a digest of the package's
source bytes, one per package, shared by every package worker, hashed
without parsing, and absent for workers registered outside it.
"""

from __future__ import annotations

import ast
import json
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import static
from repro.analysis.static import (
    ModuleIndex,
    analyze_workers,
    worker_closure,
    worker_fingerprint,
)
from repro.cli import main
from repro.config import Run
from repro.errors import ConfigError
from repro.harness.cellstore import CellStore
from repro.harness.parallel import Cell, cell_worker
from repro.harness.supervisor import run_sweep

REPO = pathlib.Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Fixture package
# ---------------------------------------------------------------------------

FIXTURE = {
    "__init__.py": """
        from fixpkg.workers import alpha_worker
    """,
    "workers.py": """
        from fixpkg import maths
        from fixpkg.registry import lookup
        from repro.harness.parallel import cell_worker

        @cell_worker("fix_alpha")
        def alpha_worker(x):
            return maths.double(x)

        @cell_worker("fix_beta")
        def beta_worker(x):
            helper = lookup("cubed")
            return helper(x)

        def unreachable(x):
            import os
            return os.environ["HOME"]
    """,
    "maths.py": """
        from fixpkg.deeper import offset

        def double(x):
            return 2 * x + offset()

        def cubed(x):
            return x * x * x
    """,
    "deeper.py": """
        import os

        TWEAK = 3

        def offset():
            return TWEAK + int(os.environ.get("FIX_OFFSET", "0"))
    """,
    "registry.py": """
        from fixpkg.maths import cubed

        TABLE = {"cubed": cubed}

        def lookup(name):
            return TABLE[name]
    """,
}


def write_fixpkg(parent: pathlib.Path) -> pathlib.Path:
    root = parent / "fixpkg"
    root.mkdir(parents=True)
    for name, body in FIXTURE.items():
        (root / name).write_text(textwrap.dedent(body), encoding="utf-8")
    return root


@pytest.fixture()
def fixpkg(tmp_path):
    return write_fixpkg(tmp_path)


def fix_index(root: pathlib.Path) -> ModuleIndex:
    return ModuleIndex(root, package="fixpkg")


# ---------------------------------------------------------------------------
# Worker discovery and call-graph closure
# ---------------------------------------------------------------------------

class TestClosure:
    def test_workers_discovered_statically(self, fixpkg):
        assert set(fix_index(fixpkg).workers()) == {"fix_alpha", "fix_beta"}

    def test_direct_call_chain_resolved(self, fixpkg):
        c = worker_closure("fix_alpha", fix_index(fixpkg))
        names = set(c.definitions)
        assert ("fixpkg.maths", "double") in names
        assert ("fixpkg.deeper", "offset") in names
        assert ("fixpkg.deeper", "TWEAK") in names  # constants bust the cache

    def test_registry_indirection_pulls_value_in(self, fixpkg):
        # beta reaches cubed through a dict-literal registry: lookup()
        # is resolved, and lookup's module pulls TABLE and cubed in.
        c = worker_closure("fix_beta", fix_index(fixpkg))
        names = set(c.definitions)
        assert ("fixpkg.registry", "lookup") in names
        assert ("fixpkg.registry", "TABLE") in names
        assert ("fixpkg.maths", "cubed") in names

    def test_unreachable_function_excluded(self, fixpkg):
        c = worker_closure("fix_alpha", fix_index(fixpkg))
        assert ("fixpkg.workers", "unreachable") not in set(c.definitions)
        assert ("fixpkg.maths", "cubed") not in set(c.definitions)

    def test_unknown_worker_rejected(self, fixpkg):
        with pytest.raises(ConfigError, match="unknown cell worker"):
            worker_closure("no_such", fix_index(fixpkg))

    def test_unindexable_package_fingerprints_none(self, monkeypatch):
        """No package directory (e.g. a zipimport): the store is bypassed
        for every worker, and a later call can still hash the package."""
        def unindexable(root, package):
            raise ConfigError("package root is not a directory")

        monkeypatch.setattr(static, "_package_code", None)
        with monkeypatch.context() as patch:
            patch.setattr(static, "_package_root", unindexable)
            assert worker_fingerprint("npb_point") is None
        assert static._package_code is None
        assert worker_fingerprint("npb_point") is not None

    def test_failed_fill_leaves_the_cache_empty(self, monkeypatch):
        """A hash that fails part-way caches nothing, so no later call is
        answered with the digest of a part of the package."""
        real = static.package_sources

        def failing(root):
            for i, source in enumerate(real(root)):
                if i == 1:
                    raise OSError("interrupted")
                yield source

        monkeypatch.setattr(static, "_package_code", None)
        with monkeypatch.context() as patch:
            patch.setattr(static, "package_sources", failing)
            with pytest.raises(OSError, match="interrupted"):
                worker_fingerprint("npb_point")
        assert static._package_code is None
        assert worker_fingerprint("npb_point") is not None

    def test_unregistered_worker_fingerprint_is_none(self):
        assert worker_fingerprint("definitely-not-a-worker") is None


# ---------------------------------------------------------------------------
# Dot-directory paths: a package under .venv/ or a hidden worktree
# ---------------------------------------------------------------------------

def runtime_repro_workers() -> list[str]:
    """Workers in the runtime ``@cell_worker`` registry defined in repro."""
    from repro.harness.parallel import _WORKERS

    return sorted(
        name for name, fn in _WORKERS.items()
        if fn.__module__.split(".")[0] == "repro"
    )


class TestDotDirectories:
    def test_fixture_under_dot_directory_indexes_the_same(self, tmp_path):
        plain = fix_index(write_fixpkg(tmp_path / "plain"))
        hidden = fix_index(write_fixpkg(tmp_path / ".venv" / "lib"))
        assert set(hidden.workers()) == set(plain.workers()) \
            == {"fix_alpha", "fix_beta"}
        for worker in plain.workers():
            assert worker_closure(worker, hidden) == \
                worker_closure(worker, plain)

    def test_dot_files_below_the_root_are_still_skipped(self, fixpkg):
        (fixpkg / ".scratch").mkdir()
        (fixpkg / ".scratch" / "junk.py").write_text(
            "def junk():\n    return 1\n", encoding="utf-8"
        )
        assert not any(".scratch" in m for m in fix_index(fixpkg).modules)

    @pytest.mark.parametrize("where", ["installed", "dot-directory copy"])
    def test_every_runtime_worker_has_a_fingerprint(
        self, where, tmp_path, monkeypatch
    ):
        """A worker without a code identity bypasses the store silently.
        The digest covers relative paths only, so a copy of the package
        under a dot-directory has the installed package's identity."""
        import repro

        installed = pathlib.Path(repro.__file__).parent
        names = runtime_repro_workers()
        assert names
        monkeypatch.setattr(static, "_package_code", None)
        expected = worker_fingerprint(names[0])
        if where != "installed":
            copy = tmp_path / ".venv" / "lib" / "repro"
            shutil.copytree(
                installed, copy, ignore=shutil.ignore_patterns("__pycache__")
            )
            monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
            monkeypatch.setattr(static, "_package_code", None)
        assert [worker_fingerprint(n) for n in names] == [expected] * len(names)


# ---------------------------------------------------------------------------
# The code identity: the package's source digest
# ---------------------------------------------------------------------------

#: Executions of ``static_local_square``.
_LOCAL_CALLS: list[int] = []


@cell_worker("static_local_square")
def _local_square(x):
    """A worker registered outside the package: it has no code identity."""
    _LOCAL_CALLS.append(x)
    return {"v": float(x * x)}


class TestFingerprints:
    """The code identity: ``worker_fingerprint`` over the package's
    source digest."""

    @staticmethod
    def digest(pkg):
        return static.sources_digest("fixpkg", static.package_sources(pkg))

    def test_one_byte_comment_edit_moves_the_digest(self, fixpkg):
        # workers.unreachable is in no worker's closure.
        before = self.digest(fixpkg)
        assert self.digest(fixpkg) == before
        with open(fixpkg / "workers.py", "a", encoding="utf-8") as fh:
            fh.write("#")
        assert self.digest(fixpkg) != before

    def test_semantic_edit_changes_fingerprint(self, fixpkg):
        before = self.digest(fixpkg)
        text = (fixpkg / "maths.py").read_text(encoding="utf-8")
        (fixpkg / "maths.py").write_text(
            text.replace("2 * x", "3 * x"), encoding="utf-8"
        )
        assert self.digest(fixpkg) != before

    def test_another_python_moves_the_digest(self, fixpkg, monkeypatch):
        before = self.digest(fixpkg)
        monkeypatch.setattr(sys, "version", "2.7.18 (elsewhere)")
        assert self.digest(fixpkg) != before

    def test_every_package_worker_shares_one_32_hex_code(self):
        import repro

        codes = {worker_fingerprint(n) for n in runtime_repro_workers()}
        assert len(codes) == 1
        [code] = codes
        assert len(code) == 32 and all(c in "0123456789abcdef" for c in code)
        root = pathlib.Path(repro.__file__).parent
        assert code == static.sources_digest(
            "repro", static.package_sources(root)
        )[:32]

    def test_code_identity_parses_nothing(self, monkeypatch):
        monkeypatch.setattr(static, "_package_code", None)
        monkeypatch.setattr(ast, "parse", None)  # any parse would raise
        assert worker_fingerprint("npb_point") is not None

    def test_repo_fingerprints_stable_across_processes(self):
        """Byte-stable across two fresh processes."""
        code = (
            "from repro.analysis.static import worker_fingerprint\n"
            "from repro.harness.parallel import _WORKERS\n"
            "print({w: worker_fingerprint(w) for w in sorted(_WORKERS)})\n"
        )
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        outs = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True,
                text=True, check=True, env=env, cwd=str(REPO),
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        assert "'npb_point': '" in outs[0] and "None" not in outs[0]

    def test_test_module_worker_bypasses_the_store(self, tmp_path):
        assert worker_fingerprint("static_local_square") is None
        root = tmp_path / "store"
        cells = [Cell((x,), "static_local_square", (x,)) for x in (2, 3)]
        del _LOCAL_CALLS[:]
        for _ in range(2):
            store = CellStore(root)
            report = run_sweep(cells, Run(store=store))
            assert report.results == {(2,): {"v": 4.0}, (3,): {"v": 9.0}}
            assert store.hits == 0 and store.published == 0
        assert _LOCAL_CALLS == [2, 3, 2, 3]
        assert CellStore(root).shard_files() == []


class TestMeasuredPath:
    """Everything in ``repro`` must be on the path ``run all --full``
    measures.

    Package reach alone is not enough: while the simulated-fault layer
    existed, ``MpiWorld.__init__`` imported ``repro.faults.injector``, so
    every worker reached ``repro.faults`` and a reach-only guard passed.
    Its ``faults_point`` worker, though, was registered and never
    dispatched by any experiment.  So every registered worker must be
    dispatched first, and reach counts only the dispatched ones.
    """

    @staticmethod
    def _dispatched_workers() -> set[str]:
        from repro.config import RunConfig
        from repro.harness.experiments import CELLS

        config = RunConfig(quick=False)
        return {cell.worker for build in CELLS.values() for cell in build(config)}

    def test_every_worker_is_dispatched_by_run_all_full(self):
        """Each registered worker is dispatched by some experiment's
        declared cells under ``--full``: a worker no experiment runs is
        dead weight, so it is deleted rather than kept."""
        registered = set(ModuleIndex.default().workers())
        assert sorted(registered - self._dispatched_workers()) == []

    def test_every_package_is_reached_by_a_worker(self):
        """Each package under ``repro`` holds a module in the closure of
        a worker ``run all --full`` dispatches: a package no dispatched
        cell reaches is dead weight on the measured path."""
        import repro

        index = ModuleIndex.default()
        reached = {
            module
            for worker in sorted(self._dispatched_workers())
            for module in worker_closure(worker, index).modules
        }
        root = pathlib.Path(repro.__file__).parent
        packages = sorted(
            ".".join(("repro", *init.parent.relative_to(root).parts))
            for init in root.rglob("__init__.py")
            if "__pycache__" not in init.parts
        )
        unreached = [
            package.removeprefix("repro.") for package in packages
            if not any(m == package or m.startswith(package + ".")
                       for m in reached)
        ]
        assert unreached == []


# ---------------------------------------------------------------------------
# Deep findings: closure attribution
# ---------------------------------------------------------------------------

class TestDeepAttribution:
    def test_env_read_attributed_to_reaching_workers(self, fixpkg):
        report = analyze_workers(fix_index(fixpkg))
        det008 = [f for f in report.findings if f.rule == "DET008"]
        # offset() reads os.environ and both workers... only alpha
        # reaches deeper.offset; beta goes through the registry to cubed.
        assert det008, report.render()
        assert any(f.workers == ("fix_alpha",) for f in det008)

    def test_hazard_in_unreachable_function_dropped(self, fixpkg):
        report = analyze_workers(fix_index(fixpkg))
        # workers.unreachable reads os.environ but nothing reaches it.
        assert not any("workers.py" in f.path for f in report.findings), (
            report.render()
        )

    def test_repo_deep_lint_clean(self, capsys):
        """Acceptance criterion: ``repro lint --deep`` exits 0 on the repo."""
        assert main(["lint", "--deep", str(REPO / "src"),
                     str(REPO / "benchmarks")]) == 0
        out = capsys.readouterr().out
        assert "lint: clean" in out
        assert "npb_point" in out  # closure summary printed


# ---------------------------------------------------------------------------
# Reporting: the deep-lint gate
# ---------------------------------------------------------------------------

class TestReporting:
    def test_cli_deep_gate(self, fixpkg, capsys, monkeypatch):
        # `repro lint --deep` exits 1 on the dirty fixture, and its JSON
        # form lists the same findings with their workers.
        monkeypatch.setattr(
            "repro.analysis.static.ModuleIndex.default",
            classmethod(lambda cls: fix_index(fixpkg)),
        )
        assert main(["lint", "--deep", str(fixpkg)]) == 1
        capsys.readouterr()
        assert main(["lint", "--deep", "--json", str(fixpkg)]) == 1
        doc = json.loads(capsys.readouterr().out)
        deep = [f for f in doc["findings"] if "workers" in f]
        assert deep, "expected deep findings on the dirty fixture"
        assert all(f["rule"].startswith("DET") and f["workers"] for f in deep)
