"""Shared fixtures for the tier-1 suite."""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.config import world_scope


@pytest.fixture
def fast_path_preconditions():
    """Worlds built without the MPI sanitizer.

    It forces replay and fastcollect off, so a test that asserts a fast
    path engages states that precondition here instead of inheriting
    ``REPRO_SANITIZE`` from the environment.
    """
    with world_scope(sanitize=False):
        yield


@pytest.fixture
def quick_report_digest():
    """sha256 of a rendered report, and the digest the end-to-end
    benchmark pins for the quick seed-1 report
    (``benchmarks/e2e/expected.json``)."""
    expected = pathlib.Path(__file__).resolve().parents[1] / \
        "benchmarks" / "e2e" / "expected.json"
    pinned = json.loads(expected.read_text(encoding="utf-8"))
    assert pinned["seed"] == 1

    def digest(batch) -> str:
        return hashlib.sha256(batch.render().encode("utf-8")).hexdigest()

    return digest, pinned["report_digests"]["quick"]
