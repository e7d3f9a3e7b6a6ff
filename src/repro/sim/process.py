"""Generator-based simulated processes.

A :class:`Process` drives a Python generator.  The generator describes
behaviour in virtual time by yielding:

* an :class:`~repro.sim.events.Event` (including a timeout,
  :class:`AllOf`, another :class:`Process`, ...) — the process blocks
  until the event fires and the ``yield`` expression evaluates to the
  event's value;
* a ``float``/``int`` — a sleep of that many simulated seconds.

A process is itself an :class:`Event` that succeeds with the generator's
return value, so processes can wait on each other by yielding them.  An
exception the generator raises, and the :class:`SimulationError` for a
yield that is neither, escape :meth:`~repro.sim.engine.Engine.run`
unchanged: no event ever fails.

Hot path: :meth:`Process._step` is the only frame between a heap entry
and the generator it wakes.  A sleep pushes the process's own wake-up
token (a :class:`~repro.sim.events.Call` of the step); an event wait
appends the step itself to the event's callbacks.
"""

from __future__ import annotations

import typing as _t
from heapq import heappush as _heappush

from repro.errors import SimulationError
from repro.sim.events import Call, Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class _Woken:
    """What a wake-up token delivers: no value."""

    __slots__ = ()
    _value = None


_WOKEN = _Woken()


class Process(Event):
    """A simulated process executing a generator in virtual time."""

    __slots__ = ("generator", "_wake", "_resume")

    def __init__(self, engine: "Engine", generator: _t.Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call the generator function?"
            )
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        #: The bound step, appended to the callbacks of an awaited event.
        self._resume = self._step
        # The wake-up token for the start and every numeric sleep.  A
        # process has at most one wake-up pending (it cannot yield again
        # before it is woken), so it owns exactly one token.
        self._wake = Call(self._resume)
        # Start the process at the current simulated instant (but after the
        # caller's current event finishes dispatching) for determinism.
        engine._seq += 1
        _heappush(engine._heap, (engine.now, engine._seq, self._wake))

    def _step(self, event: _t.Any = _WOKEN) -> None:
        """Resume the generator with ``event``'s value and act on its
        next yield (engine-internal).

        Called with no argument by the process's wake-up token,
        and with the awaited event as that event's callback.
        """
        engine = self.engine
        if event is not _WOKEN:
            engine._blocked -= 1
        generator = self.generator
        while True:
            try:
                target = generator.send(event._value)
            except StopIteration as stop:
                self._finish()
                self.succeed(stop.value)
                return

            if isinstance(target, Event):
                callbacks = target.callbacks
                if callbacks is not None:
                    engine._blocked += 1
                    callbacks.append(self._resume)
                    return
                # Already dispatched: resume at once, at the same instant.
                event = target
                continue
            if isinstance(target, (int, float)):
                # Plain sleep, the dominant yield in every skeleton: push
                # the process's own token (a sleeper keeps the queue
                # non-empty, so it never counts as blocked).
                if target < 0:
                    raise SimulationError(
                        f"cannot schedule event in the past ({target!r})"
                    )
                engine._seq += 1
                _heappush(engine._heap, (engine.now + target, engine._seq, self._wake))
                return
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected an Event "
                "or a numeric delay"
            )

    def _finish(self) -> None:
        # The bound step refers back to the process: drop it once the
        # generator is done, so a finished process is freed by reference
        # counting instead of waiting for the cycle collector.
        self._resume = self._wake = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'live'}>"
