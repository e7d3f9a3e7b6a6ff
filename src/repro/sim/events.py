"""Synchronisation primitives for the discrete-event engine.

An :class:`Event` is a one-shot condition that simulated processes can
block on by ``yield``-ing it.  Events carry a value (delivered to the
waiting process as the result of the ``yield`` expression) and cannot
fail: an exception raised while the engine runs escapes
:meth:`~repro.sim.engine.Engine.run` unchanged, wherever it is raised.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush as _heappush

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class Call:
    """A heap entry whose dispatch calls ``fn()`` directly.

    It stands in the engine's heap where an :class:`Event` would, but
    carries no value and no callbacks: dispatching it *is* the call.
    Process wake-ups (:mod:`repro.sim.process`),
    :meth:`~repro.sim.engine.Engine.call_at` and the steps of MPI
    transfers (:mod:`repro.smpi.world`) are pushed as these.  User code
    never sees one.
    """

    __slots__ = ("_dispatch",)

    def __init__(self, fn: _t.Callable[[], None]) -> None:
        self._dispatch = fn


class Event:
    """A one-shot event on an :class:`~repro.sim.engine.Engine`.

    Processes wait on an event by yielding it; any number of processes
    (or plain callbacks) may wait on the same event.  Once triggered via
    :meth:`succeed` or :meth:`schedule_at` the event is immutable.
    """

    __slots__ = ("engine", "callbacks", "_value", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        #: Callbacks invoked (in registration order) when the event fires.
        self.callbacks: list[_t.Callable[[Event], None]] | None = []
        self._value: _t.Any = _PENDING

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`schedule_at` has been called."""
        return self._value is not _PENDING

    @property
    def value(self) -> _t.Any:
        """The value the event succeeded with.

        Raises :class:`SimulationError` if the event has not yet fired.
        """
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully, waking every waiter."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        # Queued at ``now`` straight onto the heap — succeed() runs once
        # per event of every simulation, so a call indirection matters.
        eng = self.engine
        eng._seq += 1
        _heappush(eng._heap, (eng.now, eng._seq, self))
        return self

    def schedule_at(self, when: float, value: _t.Any = None) -> "Event":
        """Pre-trigger the event for dispatch at *absolute* time ``when``.

        The closed-form completion primitive: the event is triggered now
        (``value`` is already decided) but its waiters wake only when the
        clock reaches ``when`` — exactly one heap entry, landing on
        ``when`` itself with no ``now + (when - now)`` float round trip.
        :meth:`~repro.sim.engine.Engine.timeout` and a collective's
        completion (:meth:`repro.smpi.world.MpiWorld.collective`) are
        such events.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        eng = self.engine
        if when < eng.now:
            raise SimulationError(
                f"schedule_at({when!r}) is in the past (now={eng.now!r})"
            )
        self._value = value
        eng._seq += 1
        _heappush(eng._heap, (when, eng._seq, self))
        return self

    def add_callback(self, cb: _t.Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event fires.

        If the event already fired *and* has been dispatched, the callback
        runs immediately (same simulated time).
        """
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def _dispatch(self) -> None:
        """Run all registered callbacks exactly once (engine-internal)."""
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class AllOf(Event):
    """Fires once *all* constituent events have fired.

    Succeeds with the list of constituent values (in constructor order).
    """

    __slots__ = ("events", "_n_fired")

    def __init__(self, engine: "Engine", events: _t.Sequence[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._on_fire)

    def _on_fire(self, _ev: Event) -> None:
        # Reads the slots, not the ``value`` properties: only a
        # dispatched event calls back, so once every constituent has,
        # each holds its value.
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed([e._value for e in self.events])
