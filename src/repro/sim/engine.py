"""The discrete-event engine: virtual clock plus event loop.

The engine owns a binary heap of ``(time, sequence, event)`` entries.
Determinism is guaranteed by the monotonically increasing sequence number,
which breaks ties between events scheduled for the same instant in
scheduling order.

There is one error path: events cannot fail, so an exception raised
while dispatching — by a heap step, a callback or a process's generator
— escapes :meth:`Engine.run` unchanged, and the run is over.

Hot-path notes
--------------
``run`` is the single hottest function of every sweep, so both of its
branches inline the dispatch loop with bound locals (``heap``, ``pop``);
the drain branch also takes same-timestamp batches without re-storing
the clock.  Numeric process sleeps (the dominant event class in the MPI
skeletons) push the process's own wake-up token rather than a fresh
timeout event per ``yield`` — see :mod:`repro.sim.process` — and
:meth:`Engine.call_at` and the MPI transfer steps push
:class:`~repro.sim.events.Call` tokens, whose dispatch is the call.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, Call, Event
from repro.sim.rng import RandomStreams


class Engine:
    """A deterministic discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Root seed for :attr:`rng`; every stochastic model in the
        simulation must derive its randomness from this tree so that a
        run is fully reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self.rng = RandomStreams(seed)
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

    def timeout(self, delay: float, value: _t.Any = None) -> Event:
        """An event that fires with ``value`` ``delay`` simulated seconds
        from now: one heap entry, at ``now + float(delay)``."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        return Event(self, "timeout").schedule_at(self.now + float(delay), value)

    def all_of(self, events: _t.Sequence[Event]) -> AllOf:
        """Composite event firing when every event in ``events`` fires."""
        return AllOf(self, events)

    def process(self, generator: _t.Generator, name: str = "") -> "Process":
        """Spawn a simulated process driving ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # -- scheduling (engine internal) -------------------------------------
    def call_at(self, when: float, fn: _t.Callable[[], None]) -> None:
        """Run ``fn()`` at absolute simulated time ``when`` (>= now).

        One heap entry, a :class:`~repro.sim.events.Call` of ``fn``, at
        ``now + (when - now)`` — where a ``timeout(when - now)`` would
        land, float round trip included.
        """
        now = self.now
        if when < now:
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={now!r})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (now + float(when - now), self._seq, Call(fn)))

    def _deadlock(self) -> DeadlockError:
        """Build the error for a drained queue with blocked processes."""
        if self.deadlock_factory is not None:
            return self.deadlock_factory(self._blocked)
        return DeadlockError(self._blocked)

    # -- running ----------------------------------------------------------
    def run(self, until: Event | None = None) -> _t.Any:
        """Run the event loop.

        ``until`` may be:

        * ``None`` — run until the queue drains.  If processes are still
          blocked at that point a :class:`~repro.errors.DeadlockError` is
          raised, because that always indicates a protocol bug (e.g. a
          ``recv`` with no matching ``send``).
        * an :class:`Event` — run until that event fires, returning its
          value.
        """
        heap = self._heap
        pop = heapq.heappop
        if isinstance(until, Event):
            target = until
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Engine now={self.now:.6g} queued={len(self._heap)} "
            f"dispatched={self.dispatched}>"
        )
