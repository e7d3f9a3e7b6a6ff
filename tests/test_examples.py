"""Smoke tests running the example scripts end to end (subprocess).

Only the quickstart runs in the unit suite; the three studies
(``npb_scaling``, ``cardiac_study``, ``climate_study``) take seconds
each and run, with the quickstart, in CI's "Examples guard" step.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 120.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        for platform in ("Vayu", "DCC", "EC2"):
            assert platform in out
        assert "comm%" in out

    def test_all_examples_exist_and_documented(self):
        scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
        assert scripts == [
            "cardiac_study.py", "climate_study.py", "npb_scaling.py",
            "quickstart.py",
        ]
        for script in scripts:
            head = (EXAMPLES / script).read_text().split('"""')[1]
            assert len(head.strip()) > 40, f"{script} lacks a real docstring"
