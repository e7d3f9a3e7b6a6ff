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
Numeric process sleeps (the dominant event class in the MPI skeletons) go
through a free list of :class:`_Sleep` wake-up tokens rather than
allocating a fresh :class:`Timeout` per ``yield`` — see :meth:`_sleep`.
"""

from __future__ import annotations

import heapq
import typing as _t

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer


class _Sleep:
    """A pooled wake-up token for plain delays (engine-internal).

    Unlike an :class:`Event` it has exactly one callback, carries no
    value, and returns itself to the engine's free list as soon as it is
    dispatched, so a million-sleep run allocates a handful of tokens.
    Only the engine may schedule these; user code never sees them.
    """

    __slots__ = ("engine", "callback", "more")

    #: Label used when a tracer records the dispatch.
    name = "sleep"

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callback: _t.Callable[[], None] | None = None
        #: Extra wake-ups coalesced onto this token (batch-sleep mode).
        self.more: list[_t.Callable[[], None]] | None = None

    def _dispatch(self) -> None:
        cb = self.callback
        extra = self.more
        self.callback = None
        self.more = None
        self.engine._sleep_pool.append(self)
        if cb is not None:
            cb()
        if extra is not None:
            for fn in extra:
                fn()


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
        #: Free list of recycled :class:`_Sleep` tokens.
        self._sleep_pool: list[_Sleep] = []
        #: Coalesce back-to-back same-instant numeric sleeps onto one
        #: heap entry (see :meth:`_sleep`).  Off by default; enabled by
        #: the collective fast-forward (:mod:`repro.perf.fastcollect`)
        #: when a whole communicator wakes and re-sleeps in lockstep.
        self.batch_sleeps: bool = False
        self._batch_token: _Sleep | None = None
        self._batch_seq: int = -1
        self._batch_when: float = 0.0
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

    def _sleep(self, delay: float, callback: _t.Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` using a pooled wake-up token.

        The fast path behind numeric process yields: no :class:`Timeout`
        allocation, no callback-list churn, no value plumbing.

        With :attr:`batch_sleeps` set, consecutive ``_sleep`` calls with
        *no intervening heap push* that target the same instant ride the
        previous call's token instead of pushing their own entry.  The
        guard (``_seq`` unchanged since the token was pushed) proves no
        other entry can sort between the token and a hypothetical fresh
        one, and the appended callbacks run in exactly the order fresh
        same-instant entries would have — dispatch order is identical,
        only the heap traffic shrinks.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past ({delay!r})")
        when = self.now + delay
        if self.batch_sleeps:
            if self._batch_seq == self._seq and self._batch_when == when:
                token = self._batch_token
                # A recycled token (callback already cleared by dispatch)
                # cannot match: re-pushing it would have bumped _seq.
                if token is not None and token.callback is not None:
                    if token.more is None:
                        token.more = [callback]
                    else:
                        token.more.append(callback)
                    return
            pool = self._sleep_pool
            token = pool.pop() if pool else _Sleep(self)
            token.callback = callback
            self._seq += 1
            heapq.heappush(self._heap, (when, self._seq, token))
            self._batch_token = token
            self._batch_seq = self._seq
            self._batch_when = when
            return
        pool = self._sleep_pool
        token = pool.pop() if pool else _Sleep(self)
        token.callback = callback
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, token))

    def call_at(self, when: float, fn: _t.Callable[[], None]) -> Event:
        """Run ``fn()`` at absolute simulated time ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={self.now!r})"
            )
        ev = Timeout(self, when - self.now)
        ev.add_callback(lambda _ev: fn())
        return ev

    def wake_at(self, when: float, value: _t.Any = None) -> Event:
        """An event firing at *absolute* simulated time ``when`` (>= now).

        The bulk clock-advance primitive behind iteration replay
        (:mod:`repro.perf.replay`): a process yields one ``wake_at`` and
        resumes exactly at ``when``, replacing an entire iteration's worth
        of heap traffic.  Unlike ``timeout(when - now)`` the event lands
        on ``when`` itself — no ``now + (when - now)`` float round trip —
        so a replayed clock hits the analytically accumulated target
        bit-for-bit.
        """
        if when < self.now:
            raise SimulationError(
                f"wake_at({when!r}) is in the past (now={self.now!r})"
            )
        return Event(self, "wake_at").schedule_at(when, value)

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
