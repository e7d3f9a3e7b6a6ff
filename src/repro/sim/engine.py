"""The discrete-event engine: virtual clock plus event loop.

The engine owns a binary heap of ``(time, sequence, event)`` entries.
Determinism is guaranteed by the monotonically increasing sequence number,
which breaks ties between events scheduled for the same instant in
scheduling order.

Hot-path notes
--------------
``run`` is the single hottest function of every sweep, so each of its
branches inlines the dispatch loop with bound locals (``heap``, ``pop``)
instead of calling :meth:`step` per event, hoists the tracer check out of
the loop, and drains same-timestamp batches without re-storing the clock.
Numeric process sleeps (the dominant event class in the MPI skeletons)
push the process's own wake-up token rather than a fresh
:class:`Timeout` per ``yield`` — see :mod:`repro.sim.process`.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer


class Engine:
    """A deterministic discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Root seed for :attr:`rng`; every stochastic model in the
        simulation must derive its randomness from this tree so that a
        run is fully reproducible.
    trace:
        When true, a :class:`~repro.sim.trace.Tracer` is attached and
        records every dispatched event (useful in tests and debugging,
        too slow for production sweeps).
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self.rng = RandomStreams(seed)
        self.tracer: Tracer | None = Tracer() if trace else None
        #: Number of processes currently blocked on an untriggered event.
        self._blocked: int = 0
        #: Total events dispatched (exposed for performance accounting).
        self.dispatched: int = 0
        #: Optional richer deadlock reporter.  When set (e.g. by the MPI
        #: sanitizer), a queue-drained-while-blocked condition raises
        #: ``deadlock_factory(blocked_count)`` instead of a bare
        #: :class:`DeadlockError`, so the error can name the waiting
        #: ranks, their pending operations and any wait-for cycle.
        self.deadlock_factory: _t.Callable[[int], DeadlockError] | None = None

    # -- factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """Composite event firing when every event in ``events`` fires."""
        return AllOf(self, events)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """Composite event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def process(self, generator: _t.Generator, name: str = "") -> "Process":
        """Spawn a simulated process driving ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # -- scheduling (engine internal) -------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` for dispatch ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past ({delay!r})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))

    def call_at(self, when: float, fn: _t.Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulated time ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={self.now!r})"
            )
        ev = Timeout(self, when - self.now)
        ev.add_callback(lambda _ev: fn())
        return ev

    def _deadlock(self) -> DeadlockError:
        """Build the error for a drained queue with blocked processes."""
        if self.deadlock_factory is not None:
            return self.deadlock_factory(self._blocked)
        return DeadlockError(self._blocked)

    # -- running ----------------------------------------------------------
    def step(self) -> float:
        """Dispatch the next event; return the new simulated time."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _seq, event = heapq.heappop(self._heap)
        self.now = when
        self.dispatched += 1
        if self.tracer is not None:
            self.tracer.record(self.now, "dispatch", event.name or type(event).__name__)
        event._dispatch()
        return self.now

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run the event loop.

        ``until`` may be:

        * ``None`` — run until the queue drains.  If processes are still
          blocked at that point a :class:`~repro.errors.DeadlockError` is
          raised, because that always indicates a protocol bug (e.g. a
          ``recv`` with no matching ``send``).
        * a ``float`` — run until the clock reaches that time.
        * an :class:`Event` — run until that event fires, returning its
          value (and re-raising its failure).
        """
        heap = self._heap
        pop = heapq.heappop
        if isinstance(until, Event):
            target = until
            if self.tracer is not None:
                while target.callbacks is not None:
                    if not heap:
                        raise self._deadlock()
                    self.step()
                return target.value
            # An event's callback list becomes None exactly once, when it
            # is dispatched — so this single check replaces the
            # (triggered and dispatched) pair per iteration.
            n = 0
            try:
                while target.callbacks is not None:
                    if not heap:
                        raise self._deadlock()
                    when, _seq, event = pop(heap)
                    self.now = when
                    n += 1
                    event._dispatch()
            finally:
                self.dispatched += n
            return target.value
        if until is None:
            if self.tracer is not None:
                while heap:
                    self.step()
            else:
                n = 0
                try:
                    while heap:
                        when, _seq, event = pop(heap)
                        self.now = when
                        n += 1
                        event._dispatch()
                        # Same-timestamp batch: skip the clock store.
                        while heap and heap[0][0] == when:
                            _w, _seq, event = pop(heap)
                            n += 1
                            event._dispatch()
                finally:
                    self.dispatched += n
            if self._blocked:
                raise self._deadlock()
            return None
        horizon = float(until)
        if self.tracer is not None:
            while heap and heap[0][0] <= horizon:
                self.step()
        else:
            n = 0
            try:
                while heap and heap[0][0] <= horizon:
                    when, _seq, event = pop(heap)
                    self.now = when
                    n += 1
                    event._dispatch()
            finally:
                self.dispatched += n
        self.now = max(self.now, horizon)
        return None

    def peek(self) -> float:
        """Time of the next queued event, or ``inf`` if the queue is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Engine now={self.now:.6g} queued={len(self._heap)} "
            f"dispatched={self.dispatched}>"
        )
