"""The deep lint's scope and the cell store's code identity.

Exercises the deep pass (``repro lint --deep``,
:func:`repro.analysis.lint.lint_package`) against a synthetic fixture
package (every file judged, reachable or not; dot-directories) and
against the real repo (cleanliness, the file list it visits, one JSON
shape), every dispatched worker and package on the measured path, and
the code identity the store keys on: a digest of the package's source
bytes, one per package, shared by every package worker, hashed without
parsing, and absent for workers registered outside it.
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

from repro.analysis import lint, static
from repro.analysis.static import worker_fingerprint
from repro.cli import main
from repro.config import Run
from repro.errors import ConfigError
from repro.harness.cellstore import CellStore
from repro.harness.parallel import Cell, cell_worker
from repro.harness.supervisor import run_cells

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


def deep_findings(root: pathlib.Path) -> list[tuple[str, int, str]]:
    """``(path relative to root, line, rule)`` of the deep pass's findings."""
    return [
        (pathlib.Path(f.path).relative_to(root).as_posix(), f.line, f.rule)
        for f in lint.lint_package(root)
    ]


# ---------------------------------------------------------------------------
# Filling the code identity
# ---------------------------------------------------------------------------

class TestClosure:
    """The code identity is filled once per process, from the whole
    package or not at all."""

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
        plain = write_fixpkg(tmp_path / "plain")
        hidden = write_fixpkg(tmp_path / ".venv" / "lib")
        assert static.package_files(hidden) == static.package_files(plain)
        assert deep_findings(hidden) == deep_findings(plain) != []

    def test_dot_files_below_the_root_are_still_skipped(self, fixpkg):
        (fixpkg / ".scratch").mkdir()
        (fixpkg / ".scratch" / "junk.py").write_text(
            "import os\n\ndef junk():\n    return os.getenv('HOME')\n",
            encoding="utf-8",
        )
        assert not any(".scratch" in rel.parts
                       for rel in static.package_files(fixpkg))
        assert not any(".scratch" in path for path, _, _ in deep_findings(fixpkg))

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
        # workers.py's edit is a comment after a function no worker calls.
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
            report = run_cells(cells, Run(store=store))
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
        registered = set(runtime_repro_workers())
        assert sorted(registered - self._dispatched_workers()) == []

    def test_every_package_is_reached_by_a_worker(self):
        """Each package under ``repro`` holds a function called while the
        first quick cell of each worker ``run all --full`` dispatches
        runs: a package no dispatched cell calls into is dead weight on
        the measured path.  Reach is measured, not inferred: the cells
        run under a profile hook that records each called function's
        module."""
        import repro
        from repro.config import RunConfig
        from repro.harness.experiments import CELLS
        from repro.harness.parallel import _execute

        first: dict[str, Cell] = {}
        for build in CELLS.values():
            for cell in build(RunConfig(quick=True)):
                first.setdefault(cell.worker, cell)
        dispatched = sorted(self._dispatched_workers())
        assert set(dispatched) <= set(first)

        reached: set[str] = set()

        def profile(frame, event, arg):
            if event == "call":
                reached.add(frame.f_globals.get("__name__", ""))

        sys.setprofile(profile)
        try:
            for worker in dispatched:
                _execute(first[worker])
        finally:
            sys.setprofile(None)
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
# The deep pass: every file of the package
# ---------------------------------------------------------------------------

class TestDeepAttribution:
    """Deep findings are attributed to files, every file of the package,
    not to the workers that reach them."""

    def test_hazard_in_unreachable_function_reported(self, fixpkg):
        """``workers.unreachable`` reads ``os.environ`` and no worker
        calls it: the deep pass judges it anyway, as it does
        ``deeper.offset``, which a worker does reach."""
        det008 = [(path, rule) for path, _, rule in deep_findings(fixpkg)
                  if rule == "DET008"]
        assert ("workers.py", "DET008") in det008
        assert ("deeper.py", "DET008") in det008

    def test_deep_pass_visits_exactly_the_package_files(self, monkeypatch):
        """The deep lint's scope is the code identity's: every file
        ``sources_digest`` hashes, and no other."""
        import repro

        root = pathlib.Path(repro.__file__).parent
        visited: list[pathlib.Path] = []
        real = lint.lint_file

        def recording(path, **options):
            visited.append(pathlib.Path(path))
            return real(path, **options)

        monkeypatch.setattr(lint, "lint_file", recording)
        assert lint.lint_package() == []
        assert visited == [root / rel for rel in static.package_files(root)]

    def test_repo_deep_lint_clean(self, capsys):
        """Acceptance criterion: ``repro lint --deep`` exits 0 on the repo."""
        assert main(["lint", "--deep", str(REPO / "src"),
                     str(REPO / "benchmarks")]) == 0
        assert capsys.readouterr().out == "lint: clean\n"


# ---------------------------------------------------------------------------
# Reporting: the deep-lint gate
# ---------------------------------------------------------------------------

class TestReporting:
    @pytest.fixture()
    def deep_fixture(self, fixpkg, monkeypatch):
        """The fixture package, plus one plain finding, standing in for
        the installed package under ``repro lint --deep``."""
        (fixpkg / "clock.py").write_text(
            "import time\n\ndef stamp():\n    return time.time()\n",
            encoding="utf-8",
        )
        real = lint.lint_package
        monkeypatch.setattr(lint, "lint_package", lambda: real(fixpkg))
        return fixpkg

    def test_cli_deep_gate(self, deep_fixture, capsys):
        # `repro lint --deep` exits 1 on the fixture's deep findings.
        assert main(["lint", "--deep", str(deep_fixture)]) == 1
        out = capsys.readouterr().out
        assert "workers.py" in out and "DET008" in out

    def test_finding_of_both_passes_reported_once(self, fixpkg, monkeypatch,
                                                   capsys):
        """A stale plain-rule suppression in a package file is judged by
        the plain pass (under the path given, here relative) and by the
        deep pass (under the package root): it is reported once."""
        with open(fixpkg / "maths.py", "a", encoding="utf-8") as fh:
            fh.write("X = 1  # lint-ok: DET001 stale\n")
        real = lint.lint_package
        monkeypatch.setattr(lint, "lint_package", lambda: real(fixpkg))
        monkeypatch.chdir(fixpkg.parent)
        assert main(["lint", "--deep", "fixpkg"]) == 1
        out = capsys.readouterr().out
        stale = [line for line in out.splitlines() if "DET012" in line and ":" in line
                 and "lint:" not in line]
        assert stale == [line for line in stale if line.startswith("fixpkg/maths.py:")]
        assert len(stale) == 1, out

    def test_deep_json_is_the_plain_list_shape(self, deep_fixture, capsys):
        """``--deep --json`` prints one list of findings shaped like plain
        ``--json``: the plain findings first, then the deep ones."""
        assert main(["lint", "--json", str(deep_fixture)]) == 1
        plain = json.loads(capsys.readouterr().out)
        assert main(["lint", "--deep", "--json", str(deep_fixture)]) == 1
        deep = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in plain] == ["DET001"]
        assert deep[:1] == plain and len(deep) > 1
        assert {tuple(f) for f in deep} == {tuple(plain[0])}
