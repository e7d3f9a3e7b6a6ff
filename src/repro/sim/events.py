"""Synchronisation primitives for the discrete-event engine.

An :class:`Event` is a one-shot condition that simulated processes can
block on by ``yield``-ing it.  Events carry a value (delivered to the
waiting process as the result of the ``yield`` expression) and may also
*fail*, in which case the exception is re-raised inside every waiter.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush as _heappush

from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class Event:
    """A one-shot event on an :class:`~repro.sim.engine.Engine`.

    Processes wait on an event by yielding it; any number of processes
    (or plain callbacks) may wait on the same event.  Once triggered via
    :meth:`succeed` or :meth:`fail` the event is immutable.
    """

    __slots__ = ("engine", "callbacks", "_value", "_exc", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        #: Callbacks invoked (in registration order) when the event fires.
        self.callbacks: list[_t.Callable[[Event], None]] | None = []
        self._value: _t.Any = _PENDING
        self._exc: BaseException | None = None

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful when triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> _t.Any:
        """The value the event succeeded with.

        Raises :class:`SimulationError` if the event has not yet fired and
        re-raises the failure exception if it failed.
        """
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully, waking every waiter."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        # Inlined Engine._schedule_event(self) — succeed() runs once per
        # event of every simulation, so the call indirection matters.
        eng = self.engine
        eng._seq += 1
        _heappush(eng._heap, (eng.now, eng._seq, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiters."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exc = exc
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
        A collective completes through it
        (:meth:`repro.smpi.world.MpiWorld.collective`).
        """
        if self._value is not _PENDING or self._exc is not None:
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
        state = "pending"
        if self.triggered:
            state = "ok" if self._exc is None else "failed"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically after a simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: _t.Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__: timeouts are by far the most-allocated
        # event type, and formatting a per-instance name here used to
        # dominate their construction cost.
        self.engine = engine
        self.name = "timeout"
        self.callbacks = []
        self._value = value
        self._exc = None
        self.delay = float(delay)
        engine._seq += 1
        _heappush(engine._heap, (engine.now + self.delay, engine._seq, self))

    # A Timeout is triggered at construction; waking happens at its due time.
    @property
    def triggered(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout {self.delay:g}>"


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    Each constituent's position is captured at registration time, so
    firing never searches the sequence (and duplicate event objects in
    the sequence report their own position, not the first occurrence).
    """

    __slots__ = ("events", "_n_fired")

    def __init__(self, engine: "Engine", events: _t.Sequence[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed([])
            return
        on_fire = self._on_fire
        for i, ev in enumerate(self.events):
            ev.add_callback(lambda e, _i=i: on_fire(e, _i))

    def _on_fire(self, ev: Event, index: int) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once *all* constituent events have fired.

    Succeeds with the list of constituent values (in constructor order);
    fails with the first failure observed.
    """

    __slots__ = ()

    def _on_fire(self, ev: Event, index: int) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._exc)  # type: ignore[arg-type]
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event fires.

    Succeeds with the ``(index, value)`` of the first event to fire.
    """

    __slots__ = ()

    def _on_fire(self, ev: Event, index: int) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev._exc)  # type: ignore[arg-type]
            return
        self.succeed((index, ev.value))
