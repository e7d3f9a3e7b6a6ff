"""Whole-program static analysis & fingerprint coverage.

Exercises ``repro.analysis.static`` against a synthetic fixture package
(worker discovery, call-graph closure through imports/re-exports/
methods, closure-attributed deep findings) and against the real repo
(fingerprint stability across processes, ``repro lint --deep``
cleanliness, fingerprint-keyed store resume), including the streaming
index's contracts: one parse per module, summary hashes equal to
:func:`definition_fingerprint`, and indexing under dot-directories.
"""

from __future__ import annotations

import ast
import collections
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
    definition_fingerprint,
    worker_closure,
    worker_fingerprint,
)
from repro.cli import main
from repro.errors import ConfigError

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
        for every worker, and a later call can still fill the cache."""
        def unindexable(self, *args, **kwargs):
            raise ConfigError("package root is not a directory")

        monkeypatch.setattr(static, "_fingerprint_cache", {})
        monkeypatch.setattr(ModuleIndex, "_default", None)
        with monkeypatch.context() as patch:
            patch.setattr(ModuleIndex, "__init__", unindexable)
            assert worker_fingerprint("npb_point") is None
        assert static._fingerprint_cache == {}
        assert worker_fingerprint("npb_point") is not None

    def test_failed_fill_leaves_the_cache_empty(self, monkeypatch):
        """A fill that fails part-way publishes nothing, so no worker is
        later answered ``None`` for want of an entry."""
        real, calls = static.worker_closure, []

        def failing(worker, index=None):
            calls.append(worker)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return real(worker, index)

        monkeypatch.setattr(static, "_fingerprint_cache", {})
        with monkeypatch.context() as patch:
            patch.setattr(static, "worker_closure", failing)
            with pytest.raises(RuntimeError, match="interrupted"):
                worker_fingerprint("npb_point")
        assert static._fingerprint_cache == {}
        assert worker_fingerprint(calls[0]) is not None

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
        """A worker without a fingerprint bypasses the store silently."""
        import repro

        root = pathlib.Path(repro.__file__).parent
        if where != "installed":
            copy = tmp_path / ".venv" / "lib" / "repro"
            shutil.copytree(
                root, copy, ignore=shutil.ignore_patterns("__pycache__")
            )
            root = copy
        monkeypatch.setattr(
            ModuleIndex, "_default", ModuleIndex(root, package="repro")
        )
        monkeypatch.setattr(static, "_fingerprint_cache", {})
        names = runtime_repro_workers()
        assert names
        assert [n for n in names if worker_fingerprint(n) is None] == []


# ---------------------------------------------------------------------------
# Persisted fingerprint tables, keyed by the package's source bytes
# ---------------------------------------------------------------------------

class TestPersistedTables:
    @pytest.fixture()
    def pkg(self, tmp_path, monkeypatch):
        """A fixture package under a dot-directory, with no table of
        this process standing in for the one on disk."""
        monkeypatch.setattr(static, "_last_table", None)
        return write_fixpkg(tmp_path / ".venv" / "lib")

    @staticmethod
    def served(tables, pkg):
        return static.stored_fingerprint_table(tables, pkg, "fixpkg")

    @staticmethod
    def fresh(pkg):
        return static.fingerprint_table(fix_index(pkg))

    def test_table_is_written_once_and_read_back_without_parsing(
        self, pkg, tmp_path, monkeypatch
    ):
        tables = tmp_path / "fingerprints"
        digest, table = self.served(tables, pkg)
        assert table == self.fresh(pkg)
        assert [p.name for p in tables.iterdir()] == [f"{digest}.json"]
        monkeypatch.setattr(static, "_last_table", None)
        monkeypatch.setattr(ast, "parse", None)  # any parse would raise
        assert self.served(tables, pkg) == (digest, table)

    def test_one_byte_comment_edit_moves_the_digest(self, pkg, tmp_path):
        tables = tmp_path / "fingerprints"
        before, table = self.served(tables, pkg)
        with open(pkg / "maths.py", "a", encoding="utf-8") as fh:
            fh.write("#")
        after, again = self.served(tables, pkg)
        assert after != before
        assert again == table  # a comment is not a semantic edit
        assert {p.name for p in tables.iterdir()} == \
            {f"{before}.json", f"{after}.json"}

    def test_edit_inside_a_reached_definition_moves_its_fingerprint(
        self, pkg, tmp_path
    ):
        tables = tmp_path / "fingerprints"
        _, before = self.served(tables, pkg)
        text = (pkg / "deeper.py").read_text(encoding="utf-8")
        (pkg / "deeper.py").write_text(
            text.replace("TWEAK = 3", "TWEAK = 4"), encoding="utf-8"
        )
        _, after = self.served(tables, pkg)
        assert after["fix_alpha"] != before["fix_alpha"]  # reaches TWEAK
        assert after["fix_beta"] == before["fix_beta"]    # does not
        assert after == self.fresh(pkg)

    @pytest.mark.parametrize("garble", ["torn", "non-hex", "misnamed"])
    def test_unservable_table_is_ignored_and_rewritten(
        self, pkg, tmp_path, monkeypatch, garble
    ):
        tables = tmp_path / "fingerprints"
        digest, table = self.served(tables, pkg)
        path = tables / f"{digest}.json"
        bogus = {name: "0f" * 16 for name in table}
        path.write_text({
            "torn": path.read_text()[:40],
            "non-hex": json.dumps({"digest": digest,
                                   "workers": {**bogus, "fix_alpha": "Z" * 32}}),
            "misnamed": json.dumps({"digest": "ab" * 32, "workers": bogus}),
        }[garble])
        assert static.read_table(path)[0] is None
        monkeypatch.setattr(static, "_last_table", None)
        assert self.served(tables, pkg) == (digest, table)
        assert static.read_table(path) == (table, None)

    def test_table_of_another_python_is_never_read(
        self, pkg, tmp_path, monkeypatch
    ):
        tables = tmp_path / "fingerprints"
        with monkeypatch.context() as patch:
            patch.setattr(sys, "version", "2.7.18 (elsewhere)")
            other, table = self.served(tables, pkg)
        # Plant valid but wrong fingerprints under the other digest.
        bogus = {name: "0f" * 16 for name in table}
        planted = json.dumps({"digest": other, "workers": bogus})
        (tables / f"{other}.json").write_text(planted)
        monkeypatch.setattr(static, "_last_table", None)
        digest, served = self.served(tables, pkg)
        assert digest != other and served == table
        assert (tables / f"{other}.json").read_text() == planted

    def test_failed_build_writes_no_table(self, pkg, tmp_path, monkeypatch):
        real, calls = static.worker_closure, []

        def failing(worker, index=None):
            calls.append(worker)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return real(worker, index)

        tables = tmp_path / "fingerprints"
        monkeypatch.setattr(static, "worker_closure", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            self.served(tables, pkg)
        assert not tables.exists() or list(tables.iterdir()) == []
        assert static._last_table is None


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
# Fingerprint semantics
# ---------------------------------------------------------------------------

class TestFingerprints:
    def test_comment_and_formatting_invariant(self, fixpkg):
        before = worker_closure("fix_alpha", fix_index(fixpkg)).fingerprint
        # Rewrite a closure module with comments, a docstring, different
        # blank-line structure — everything but semantics.
        (fixpkg / "maths.py").write_text(textwrap.dedent("""
            '''Maths helpers (docstring added).'''
            # an explanatory comment
            from fixpkg.deeper import offset


            def double(x):
                '''Double and offset.'''
                # twice x, plus the calibrated offset
                return 2 * x + offset()

            def cubed(x):
                return x * x * x
        """), encoding="utf-8")
        after = worker_closure("fix_alpha", fix_index(fixpkg)).fingerprint
        assert before == after

    def test_semantic_edit_changes_fingerprint(self, fixpkg):
        before = worker_closure("fix_alpha", fix_index(fixpkg)).fingerprint
        text = (fixpkg / "maths.py").read_text(encoding="utf-8")
        (fixpkg / "maths.py").write_text(
            text.replace("2 * x", "3 * x"), encoding="utf-8"
        )
        after = worker_closure("fix_alpha", fix_index(fixpkg)).fingerprint
        assert before != after

    def test_edit_outside_closure_leaves_fingerprint(self, fixpkg):
        before = worker_closure("fix_alpha", fix_index(fixpkg)).fingerprint
        text = (fixpkg / "workers.py").read_text(encoding="utf-8")
        (fixpkg / "workers.py").write_text(
            text.replace('os.environ["HOME"]', 'os.environ["USER"]'),
            encoding="utf-8",
        )
        after = worker_closure("fix_alpha", fix_index(fixpkg)).fingerprint
        assert before == after

    def test_definition_fingerprint_width_and_determinism(self):
        import ast

        node = ast.parse("def f(x):\n    return x + 1\n").body[0]
        again = ast.parse("def f(x):  # comment\n    return x + 1\n").body[0]
        assert definition_fingerprint(node) == definition_fingerprint(again)
        assert len(definition_fingerprint(node)) == 32

    def test_summary_hashes_match_definition_fingerprint(self, fixpkg):
        """The index hashes once, in place; the reference deep-copies."""
        # Docstrings at every level, and bodies whose first statement
        # is a docstring followed by another string (stripped only once).
        (fixpkg / "shapes.py").write_text(textwrap.dedent('''
            """Module docstring."""
            import math

            class Shape(object):
                """Class docstring."""
                TAG = "shape"

                def area(self):
                    """Method docstring."""
                    import math as m
                    return m.pi

                async def later(self):
                    "docstring"
                    "not a docstring"

                class Inner:
                    """Nested class docstring."""
                    def f(self):
                        """Nested method docstring."""
                        return 1

            class Plain:
                def one(self):
                    "only a docstring"

            def free():
                "docstring"
                "not a docstring"

            A = B = math.tau
            C: float = 2.0
        '''), encoding="utf-8")
        for index in (fix_index(fixpkg), ModuleIndex()):
            assert any(mod.defs for mod in index.modules.values())
            for mod in index.modules.values():
                fresh = top_level_nodes(mod.path)
                assert set(mod.defs) == set(fresh), mod.name
                for qualname, d in mod.defs.items():
                    assert d.fingerprint == \
                        definition_fingerprint(fresh[qualname]), \
                        f"{mod.name}:{qualname}"

    def test_worker_fingerprints_parse_each_module_once(self, monkeypatch):
        import repro

        parsed: collections.Counter[str] = collections.Counter()
        dumps: list[str] = []
        real_parse, real_dump = ast.parse, ast.dump

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[str(filename)] += 1
            return real_parse(source, filename, *args, **kwargs)

        def counting_dump(node, *args, **kwargs):
            dumps.append(type(node).__name__)
            return real_dump(node, *args, **kwargs)

        ModuleIndex.reset_default()
        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(ast, "dump", counting_dump)
        try:
            names = runtime_repro_workers()
            first = [worker_fingerprint(n) for n in names]
            package = pathlib.Path(repro.__file__).parent
            files = {
                str(f) for f in package.rglob("*.py")
                if "__pycache__" not in f.parts
            }
            assert set(parsed) <= files
            assert max(parsed.values()) == 1
            parsed.clear()
            assert [worker_fingerprint(n) for n in names] == first
            assert not parsed
            # Closures over a built index, past the per-worker cache,
            # re-fold the summaries' hashes: no parse, no dump.
            index = ModuleIndex.default()
            assert set(index.workers()) == set(names)
            parsed.clear()
            dumps.clear()
            for _ in range(2):
                assert [worker_closure(n).fingerprint for n in names] == first
            assert not parsed and not dumps
        finally:
            ModuleIndex.reset_default()

    def test_repo_fingerprints_stable_across_processes(self):
        """Acceptance criterion: byte-stable across two fresh processes."""
        cmd = [sys.executable, "-m", "repro", "fingerprint", "--all", "--json"]
        env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
        outs = [
            subprocess.run(
                cmd, capture_output=True, text=True, check=True,
                env=env, cwd=str(REPO),
            ).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        data = json.loads(outs[0])
        assert set(data) >= {"npb_point", "osu_curve", "arrivef_point"}
        assert all(len(v["fingerprint"]) == 32 for v in data.values())


def top_level_nodes(path: pathlib.Path) -> dict[str, ast.AST]:
    """Freshly parsed ``{qualname: node}`` for a module's definitions."""
    out: dict[str, ast.AST] = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, functions):
            out[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            out[stmt.name] = stmt
            for sub in stmt.body:
                if isinstance(sub, functions):
                    out[f"{stmt.name}.{sub.name}"] = sub
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                out.setdefault(stmt.target.id, stmt)
    return out


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
        assert "npb_point" in out  # fingerprint summary printed

    def test_repo_fingerprint_check_stable(self, capsys):
        assert main(["fingerprint", "--all", "--check"]) == 0

    def test_fingerprint_check_names_the_unstable_field(
        self, capsys, monkeypatch
    ):
        """A closure that moves under an unchanged fingerprint is named."""
        import dataclasses

        calls = []
        real = static.worker_closure

        def flaky(worker, index=None):
            c = real(worker, index)
            calls.append(worker)
            if calls.count(worker) == 2:
                c = dataclasses.replace(
                    c, definitions=c.definitions + (("ghost", "g"),)
                )
            return c

        monkeypatch.setattr(static, "worker_closure", flaky)
        assert main(["fingerprint", "npb_point", "--check"]) == 1
        err = capsys.readouterr().err
        assert "[unstable] npb_point: definitions differ: " \
            "[('ghost', 'g')]" in err


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
