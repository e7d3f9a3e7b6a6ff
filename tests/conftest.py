"""Shared fixtures for the tier-1 suite."""

from __future__ import annotations

import pytest

from repro.config import world_scope


@pytest.fixture
def fast_path_preconditions():
    """Worlds built without the MPI sanitizer or a fault schedule.

    Both force replay and fastcollect off, so a test that asserts a fast
    path engages states that precondition here instead of inheriting
    ``REPRO_SANITIZE``/``REPRO_FAULTS`` from the environment.
    """
    with world_scope(sanitize=False, faults=None):
        yield
