"""Whole-program static analysis & fingerprint coverage.

Exercises ``repro.analysis.static`` against a synthetic fixture package
(worker discovery, call-graph closure through imports/re-exports/
methods, closure-attributed deep findings) and against the real repo
(fingerprint stability across processes, ``repro lint --deep``
cleanliness, fingerprint-keyed store resume).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.lint import RULES
from repro.analysis.static import (
    ModuleIndex,
    analyze_workers,
    definition_fingerprint,
    load_baseline,
    new_findings,
    to_sarif,
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


@pytest.fixture()
def fixpkg(tmp_path):
    root = tmp_path / "fixpkg"
    root.mkdir()
    for name, body in FIXTURE.items():
        (root / name).write_text(textwrap.dedent(body), encoding="utf-8")
    return root


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

    def test_unregistered_worker_fingerprint_is_none(self):
        assert worker_fingerprint("definitely-not-a-worker") is None


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
        assert set(data) >= {"npb_point", "osu_curve", "faults_point"}
        assert all(len(v["fingerprint"]) == 32 for v in data.values())


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


# ---------------------------------------------------------------------------
# SARIF + baseline gating
# ---------------------------------------------------------------------------

class TestReporting:
    def test_sarif_document_shape(self, fixpkg):
        report = analyze_workers(fix_index(fixpkg))
        doc = to_sarif(report.findings, RULES)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["results"], "expected fixture findings in SARIF"
        result = run["results"][0]
        assert result["ruleId"].startswith("DET")
        assert "workers:" in result["message"]["text"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in run["results"]} <= rule_ids

    def test_baseline_gates_only_new_findings(self, fixpkg, tmp_path):
        report = analyze_workers(fix_index(fixpkg))
        assert report.findings
        baseline_path = tmp_path / "base.json"
        baseline_path.write_text(json.dumps({
            "findings": [
                {"path": f.path, "rule": f.rule} for f in report.findings
            ],
        }), encoding="utf-8")
        baseline = load_baseline(baseline_path)
        assert new_findings(report.findings, baseline) == []
        # A finding in a file the baseline has never seen stays fatal.
        assert new_findings(report.findings, set()) == list(report.findings)

    def test_missing_baseline_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="baseline"):
            load_baseline(tmp_path / "nope.json")

    def test_committed_repo_baseline_is_loadable_and_empty(self):
        assert load_baseline(REPO / "STATIC_BASELINE.json") == set()

    def test_cli_sarif_baseline_pipeline(self, fixpkg, tmp_path, capsys,
                                         monkeypatch):
        # `repro lint --deep` must exit 1 on the dirty fixture, then 0
        # once the baseline covers its findings.
        monkeypatch.setattr(
            "repro.analysis.static.ModuleIndex.default",
            classmethod(lambda cls: fix_index(fixpkg)),
        )
        assert main(["lint", "--deep", str(fixpkg)]) == 1
        capsys.readouterr()
        assert main(["lint", "--deep", "--format", "sarif",
                     str(fixpkg)]) == 1
        sarif = json.loads(capsys.readouterr().out)
        rows = [
            {"path": (r["locations"][0]["physicalLocation"]
                      ["artifactLocation"]["uri"]),
             "rule": r["ruleId"]}
            for r in sarif["runs"][0]["results"]
        ]
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"findings": rows}), encoding="utf-8")
        assert main(["lint", "--deep", "--baseline", str(base),
                     str(fixpkg)]) == 0
