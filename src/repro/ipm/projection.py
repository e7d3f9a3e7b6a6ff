"""The steady-step projection: how a run is timed and projected.

Iteration scaling
-----------------
The paper runs its application benchmarks "with the minimal number of
iterations required to accurately project long-term simulations"; the
NPB skeletons, MetUM and Chaste all follow it.  A run simulates ``sim``
steady steps (NPB iterations, model timesteps) of its ``total`` steps
inside one IPM region, after untimed warm-up, and the slowest rank's
wall time in that region is the steady time (:class:`Steady`)::

    per_step  = steady_time / sim
    projected = per_step * total
    scale(x)  = x * (total / sim)    # a sum over the window, full run

Communication percentages (Table II) are computed over the steady
region.  They are not iteration-count invariant: how much noise and
start-up synchronisation the window holds changes with its length (IS
on DCC at np=8 reads 15.8 %comm over 3 iterations and 18.8 over 12),
so a short window biases them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from repro.errors import ConfigError


def steady_steps(requested: int, total: int, name: str = "sim_steps") -> int:
    """The number of steps to simulate: ``requested`` (a ``name`` of at
    least 1), clamped to the ``total`` steps of the run."""
    if requested < 1:
        raise ConfigError(f"{name} must be >= 1: {requested}")
    return min(requested, total)


def timed_steps(
    comm, region: str, steps: int, step: _t.Callable[..., _t.Generator]
) -> _t.Generator:
    """One untimed warm-up ``step``, then ``steps`` steps each inside
    ``region``.  ``step(mark)`` wraps each phase in ``mark(name)``:
    :class:`contextlib.nullcontext` in the warm-up step, so it records
    no region, and ``comm.region`` in the timed ones."""
    yield from step(contextlib.nullcontext)
    for _ in range(steps):
        with comm.region(region):
            yield from step(comm.region)


@dataclasses.dataclass(frozen=True, slots=True)
class Steady:
    """One run's steady window: the slowest rank's ``time`` over ``sim``
    simulated steps of a ``total``-step run."""

    time: float
    sim: int
    total: int

    @property
    def per_step(self) -> float:
        return self.time / self.sim

    @property
    def projected(self) -> float:
        """The window's time projected to the whole run."""
        return self.per_step * self.total

    def scale(self, x: float) -> float:
        """A quantity summed over the window, projected to the whole run."""
        return x * (self.total / self.sim)
