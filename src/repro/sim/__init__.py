"""Deterministic discrete-event simulation engine.

This subpackage is the substrate for every performance experiment in
:mod:`repro`.  It provides:

* :class:`~repro.sim.engine.Engine` — the event loop and virtual clock;
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.AllOf` —
  one-shot synchronisation primitives, which cannot fail;
* :class:`~repro.sim.process.Process` — generator-based simulated
  processes (``yield`` an event to block on it);
* :class:`~repro.sim.resources.Resource` and
  :class:`~repro.sim.resources.Store` — contention and message queues;
* :class:`~repro.sim.rng.RandomStreams` — named, reproducible random
  streams.

Design notes
------------
The engine is deliberately lean (a binary heap keyed by
``(time, sequence)``) because MPI-scale experiments execute 10^5–10^6
events per run and the event loop is the hot path.  Determinism is a hard
requirement: two runs with the same seed must produce byte-identical
results, which is why all ties are broken by a monotone sequence number
and all randomness flows through :class:`~repro.sim.rng.RandomStreams`.
An error has one path: whatever raises during a run — a process's
generator, a heap step, a callback — escapes
:meth:`~repro.sim.engine.Engine.run` unchanged.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, Event
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Process",
    "Resource",
    "RandomStreams",
    "Store",
]
